//! A hand-rolled JSON value type, parser, and emitter.
//!
//! The repo carries no external crates, so — like `dee-bench` hand-rolls
//! its SVG plots — the server hand-rolls the little JSON it needs. The
//! emitter is deterministic (object members keep insertion order, integral
//! numbers print without a decimal point), which lets tests compare
//! response payloads byte for byte.
//!
//! The parser decodes strings in one pass. It copies each maximal run of
//! bytes other than `"` and `\` with one `push_str`, sliced from the
//! `&str` input: both delimiters are ASCII, so a run always ends on a char
//! boundary and needs no second UTF-8 check. Escapes are decoded between
//! runs. A `\u` escape takes exactly four hex digits. A high surrogate
//! directly followed by a `\u` low surrogate decodes to one scalar; any
//! other surrogate decodes to U+FFFD. Error messages and their byte
//! offsets reach clients in `400` bodies, so they are part of the
//! interface.

use std::fmt;

/// Maximum container nesting the parser accepts. The parser is
/// recursive, so unbounded nesting lets a small hostile body (`[[[[...`)
/// overflow the thread stack — an abort `catch_unwind` cannot contain.
/// Real request bodies nest two or three levels.
const MAX_DEPTH: usize = 64;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order for deterministic output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if integral.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience constructor for object values.
    #[must_use]
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for string values.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(f64::from(v))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Parses a JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        text: input,
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
    text: &'a str,
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
            // Copy the run up to the next delimiter in one piece. Both
            // delimiters are ASCII, so the run ends on a char boundary
            // and slicing `text` needs no UTF-8 validation.
            let end = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(self.bytes.len(), |run| self.pos + run);
            out.push_str(&self.text[self.pos..end]);
            self.pos = end;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => self.escape(&mut out)?,
            }
        }
    }

    /// Decodes the escape whose backslash is at `self.pos`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
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
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_documents() {
        for doc in [
            r#"{"a":1,"b":[1,2.5,-3],"c":{"nested":true},"d":null,"e":"x\ny"}"#,
            r#"[{"k":"v"},[],{},"",0]"#,
            "123456789012345",
        ] {
            let parsed = parse(doc).expect("parses");
            assert_eq!(parsed.to_string(), doc);
        }
    }

    #[test]
    fn integral_numbers_print_without_point() {
        assert_eq!(Json::Num(32.0).to_string(), "32");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
        assert_eq!(Json::Num(-7.0).to_string(), "-7");
    }

    #[test]
    fn accessors() {
        let doc = parse(r#"{"name":"xlisp","et":32,"flag":true,"arr":[1,2]}"#).unwrap();
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("xlisp"));
        assert_eq!(doc.get("et").and_then(Json::as_u64), Some(32));
        assert_eq!(doc.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("arr").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041\u00e9""#), Ok(Json::str("A\u{e9}")));
        assert_eq!(parse(r#""\uABcd""#), Ok(Json::str("\u{abcd}")));
        // `u32::from_str_radix` takes a sign; a `\u` escape must not.
        assert_eq!(parse(r#""\u+041""#), Err("bad \\u escape".to_string()));
        assert_eq!(parse(r#""\u004g""#), Err("bad \\u escape".to_string()));
        assert_eq!(parse(r#""\u00"#), Err("truncated \\u escape".to_string()));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Json::str("\u{1f600}")));
        assert_eq!(parse(r#""\uD83D\uDE00!""#), Ok(Json::str("\u{1f600}!")));
        // A second high surrogate: the first is lone, the second pairs.
        assert_eq!(
            parse(r#""\ud83d\ud83d\ude00""#),
            Ok(Json::str("\u{fffd}\u{1f600}"))
        );
    }

    #[test]
    fn lone_surrogates_become_replacement_characters() {
        for (doc, want) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ude00""#, "\u{fffd}"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
        ] {
            assert_eq!(parse(doc), Ok(Json::str(want)), "{doc}");
        }
        // The escape after a lone high surrogate is still checked.
        assert_eq!(
            parse(r#""\ud83d\uzzzz""#),
            Err("bad \\u escape".to_string())
        );
        assert_eq!(
            parse(r#""\ud83d\u12"#),
            Err("truncated \\u escape".to_string())
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // One past the limit fails cleanly...
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // ...and a pathological 100k-deep bomb must not crash the process.
        let bomb = "{\"a\":".repeat(100_000) + "1" + &"}".repeat(100_000);
        assert!(parse(&bomb).is_err());
        // At the limit still parses.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("line\n\"quoted\"\t\\slash\u{1}".into());
        let parsed = parse(&original.to_string()).unwrap();
        assert_eq!(parsed, original);
    }
}
