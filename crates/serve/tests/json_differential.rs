//! Differential test of the JSON decoder against the decoder it replaced.
//!
//! `reference` below is the previous decoder, kept verbatim apart from
//! its module wrapping: it decodes a string one scalar at a time and
//! re-validates UTF-8 over the rest of the body for each one, which makes
//! a string cost its length times the bytes after it. The shipped decoder
//! copies each run between `"` and `\` in one piece. Every input must give
//! the same result from both: equal values (numbers compared by
//! `f64::to_bits`), or both an error with the same message, since error
//! messages and their byte offsets reach clients in `400` bodies.
//!
//! * `seeded_documents_agree`: per iteration, one seeded document with
//!   multi-byte UTF-8, every escape, `\u` escapes with surrogate pairs and
//!   lone surrogates, nesting up to past the depth limit, and numbers; then
//!   every truncation of it at a char boundary, and seeded byte mutations
//!   that stay valid UTF-8.
//! * `upload_sized_body_agrees`: one body shaped like a program upload
//!   (a 20 KB listing with a `\n` escape per line).
//!
//! `DEE_CHAOS_SEED` (default 42) seeds the draws; `DEE_CHAOS_ITERS`
//! (default 64) sets the number of documents.

use dee_rng::{env_u64, Rng};
use dee_serve::json::{parse, Json};

/// The decoder as it was before strings were decoded in runs.
mod reference {
    use dee_serve::json::Json;

    const MAX_DEPTH: usize = 64;

    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        depth: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected `{}` at byte {}", b as char, self.pos))
            }
        }

        fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(format!("bad literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.peek() {
                Some(b'n') => self.literal("null", Json::Null),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b'[') => self.array(),
                Some(b'{') => self.object(),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(format!("unexpected input at byte {}", self.pos)),
            }
        }

        fn enter(&mut self) -> Result<(), String> {
            self.depth += 1;
            if self.depth > MAX_DEPTH {
                return Err(format!(
                    "nesting deeper than {MAX_DEPTH} at byte {}",
                    self.pos
                ));
            }
            Ok(())
        }

        fn array(&mut self) -> Result<Json, String> {
            self.enter()?;
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                }
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.enter()?;
            self.expect(b'{')?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(Json::Obj(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                members.push((key, self.value()?));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let code = self.hex4(self.pos + 1)?;
                                self.pos += 4;
                                out.push(self.utf16_scalar(code));
                            }
                            _ => return Err(format!("bad escape at byte {}", self.pos)),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (input is a &str, so the
                        // bytes are valid UTF-8).
                        let rest = &self.bytes[self.pos..];
                        let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8")?;
                        let c = s.chars().next().ok_or("unterminated string")?;
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        /// The four hex digits of a `\u` escape starting at byte `at`. Only
        /// hex digits count: `u32::from_str_radix` would also take a sign.
        fn hex4(&self, at: usize) -> Result<u32, String> {
            let digits = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
            digits.iter().try_fold(0u32, |code, &b| {
                let digit = char::from(b).to_digit(16).ok_or("bad \\u escape")?;
                Ok((code << 4) | digit)
            })
        }

        /// The scalar for UTF-16 code unit `code`, whose last hex digit is at
        /// `self.pos`. A high surrogate directly followed by a `\u` low
        /// surrogate combines with it (and consumes it); any other surrogate
        /// becomes U+FFFD.
        fn utf16_scalar(&mut self, code: u32) -> char {
            if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos + 1..].starts_with(b"\\u") {
                if let Ok(low @ 0xDC00..=0xDFFF) = self.hex4(self.pos + 3) {
                    self.pos += 6;
                    let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(scalar).unwrap_or('\u{fffd}');
                }
            }
            char::from_u32(code).unwrap_or('\u{fffd}')
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| format!("bad number at byte {start}"))?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number `{text}` at byte {start}"))
        }
    }
}

/// String pieces: plain ASCII, multi-byte UTF-8 of every width, raw
/// control bytes (which the decoder accepts), every escape, and `\u`
/// escapes that pair, stand alone, or are malformed.
const STRING_PIECES: &[&str] = &[
    "a",
    "lw r1, 0(zero)",
    " ",
    "\u{e9}",
    "\u{3bb}x",
    "\u{4e2d}\u{6587}",
    "\u{1f600}",
    "\u{10ffff}",
    "\t",
    "\u{1}",
    "\\\"",
    "\\\\",
    "\\/",
    "\\n",
    "\\r",
    "\\t",
    "\\b",
    "\\f",
    "\\u0041",
    "\\u00e9",
    "\\u00E9",
    "\\u4e2d",
    "\\uffff",
    "\\u0000",
    "\\ud83d\\ude00",
    "\\uD83D\\uDE00",
    "\\udbff\\udfff",
    "\\ud800",
    "\\udc00",
    "\\ud83d\\u0041",
    "\\ud83d\\ud83d\\ude00",
    "\\ud83dx",
    "\\ud83d\\n",
    "\\u+041",
    "\\u-041",
    "\\u12g4",
    "\\u12",
    "\\x",
    "\\\u{e9}",
];

const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "7",
    "-12",
    "3.25",
    "1e3",
    "2.5E-3",
    "1e400",
    "-1e-400",
    "123456789012345678901234567890",
    "0.1",
    "9007199254740993",
    "1.",
    ".5",
    "1e",
    "--1",
    "1.2.3",
    "1e+",
    "-",
    "+1",
];

const WHITESPACE: &[&str] = &["", "", "", " ", "\n", "\t", "\r\n  "];

fn gen_string(rng: &mut Rng, out: &mut String) {
    out.push('"');
    for _ in 0..rng.below(12) {
        out.push_str(rng.pick(STRING_PIECES));
    }
    out.push('"');
}

fn gen_value(rng: &mut Rng, depth: usize, out: &mut String) {
    let ws = rng.pick(WHITESPACE);
    out.push_str(ws);
    // Containers become rarer with depth, so documents stay small.
    let kind = if depth < 3 {
        rng.below(8)
    } else {
        rng.below(5)
    };
    match kind {
        0 => out.push_str(rng.pick(&["null", "true", "false", "nul", "tru"])),
        1 | 2 => gen_string(rng, out),
        3 | 4 => out.push_str(rng.pick(NUMBERS)),
        5 => {
            out.push('[');
            for i in 0..rng.below(4) {
                if i > 0 {
                    out.push(',');
                }
                gen_value(rng, depth + 1, out);
            }
            out.push(']');
        }
        6 => {
            out.push('{');
            for i in 0..rng.below(4) {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(rng.pick(WHITESPACE));
                gen_string(rng, out);
                out.push_str(rng.pick(WHITESPACE));
                out.push(':');
                gen_value(rng, depth + 1, out);
            }
            out.push('}');
        }
        _ => {
            // A chain of arrays and objects around the depth limit.
            let levels = 60 + rng.below(8);
            let mut closers = Vec::with_capacity(levels);
            for _ in 0..levels {
                if rng.below(2) == 0 {
                    out.push('[');
                    closers.push(']');
                } else {
                    out.push_str("{\"k\":");
                    closers.push('}');
                }
            }
            gen_string(rng, out);
            while let Some(c) = closers.pop() {
                out.push(c);
            }
        }
    }
    out.push_str(ws);
}

fn gen_document(rng: &mut Rng) -> String {
    let mut doc = String::new();
    gen_value(rng, 0, &mut doc);
    doc
}

/// Structural equality with numbers compared bit for bit.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

fn assert_agree(doc: &str, label: &str) {
    let fast = parse(doc);
    let slow = reference::parse(doc);
    let agree = match (&fast, &slow) {
        (Ok(a), Ok(b)) => same(a, b),
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    assert!(
        agree,
        "{label}: decoders disagree on {doc:?}\n  parse:     {fast:?}\n  reference: {slow:?}"
    );
}

/// Replaces, inserts or deletes a few bytes, keeping the result UTF-8.
fn mutate(rng: &mut Rng, doc: &str) -> Option<String> {
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(4) {
            0 if at < bytes.len() => {
                const SYNTAX: &[u8] = b"\"\\ud8{]:,-e ";
                bytes[at] = SYNTAX[rng.below(SYNTAX.len())];
            }
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            _ => {
                let piece = rng.pick(STRING_PIECES).as_bytes();
                bytes.splice(at..at, piece.iter().copied());
            }
        }
    }
    String::from_utf8(bytes).ok()
}

#[test]
fn seeded_documents_agree() {
    let seed = env_u64("DEE_CHAOS_SEED", 42);
    let iters = env_u64("DEE_CHAOS_ITERS", 64);
    let (mut valid, mut mutants) = (0u64, 0u64);
    for iter in 0..iters {
        let mut rng = Rng::new(seed ^ iter.wrapping_mul(0x1000_0000_01b3));
        let doc = gen_document(&mut rng);
        let label = format!("seed {seed} iter {iter}");
        assert_agree(&doc, &label);
        valid += u64::from(parse(&doc).is_ok());
        for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
            assert_agree(&doc[..cut], &format!("{label} cut {cut}"));
        }
        for round in 0..32 {
            if let Some(mutant) = mutate(&mut rng, &doc) {
                assert_agree(&mutant, &format!("{label} mutant {round}"));
                mutants += 1;
            }
        }
    }
    // Neither the error paths nor the value paths may go untested.
    eprintln!("{valid} of {iters} documents valid, {mutants} mutants");
    assert!(
        valid * 5 >= iters,
        "only {valid} of {iters} documents parse"
    );
    assert!(valid < iters, "no document exercises an error path");
    assert!(
        mutants * 2 >= iters * 32,
        "only {mutants} mutants were UTF-8"
    );
}

#[test]
fn upload_sized_body_agrees() {
    let mut listing = String::new();
    for i in 0..800 {
        listing.push_str(&format!(
            "L{i}: addi r{}, r{}, {i}  # \u{3bb}\\n",
            i % 31,
            (i + 7) % 31
        ));
    }
    let doc = format!(
        "{{\"program\":\"{listing}\",\"memory\":[1,2,-3,4.5],\"model\":\"DEE-CD-MF\",\"et\":32}}"
    );
    assert!(doc.len() > 20_000, "{} bytes", doc.len());
    assert_agree(&doc, "upload");
    assert!(parse(&doc).is_ok());
}
