//! Hand-rolled byte-oriented LZ compression for container chunks.
//!
//! The format is a deliberately tiny LZ77 variant (in the LZ4 family):
//! a token stream where each token byte selects one of two shapes —
//!
//! ```text
//! token < 0x80 : literal run; the next (token + 1) bytes are copied
//!                verbatim (runs of 1..=128)
//! token >= 0x80: match; length = (token & 0x7F) + 4 (4..=131), followed
//!                by a little-endian u16 distance (1..=65535) counted
//!                back from the current output position
//! ```
//!
//! Matches may overlap their own output (`distance < length`), which is
//! what makes plain RLE a special case: distance 1 replicates the last
//! byte. Trace records are 20-byte structs with heavily repeating
//! register/flag bytes and clustered addresses, so even this greedy,
//! one-candidate matcher typically reaches 3–6× on real traces.
//!
//! Compression is deterministic (same input → same output bytes, on every
//! platform): the byte-identical replay invariant extends to the
//! container files themselves, so re-recording an artifact is a no-op at
//! the file level too. Decompression validates every token against the
//! declared output length and never reads or writes out of bounds —
//! hostile inputs produce a typed error, not a panic.

/// Shortest match worth encoding (a match token costs 3 bytes).
const MIN_MATCH: usize = 4;
/// Longest match one token can express.
const MAX_MATCH: usize = 0x7F + MIN_MATCH;
/// Longest literal run one token can express.
const MAX_LITERAL_RUN: usize = 0x80;
/// Farthest back a match may reach (u16 distance).
const MAX_DISTANCE: usize = u16::MAX as usize;
/// Hash-table size for the 4-byte match finder (power of two).
const TABLE_BITS: u32 = 15;

#[inline]
fn hash4(sequence: u32) -> usize {
    // Fibonacci hashing of the 4-byte window.
    ((sequence.wrapping_mul(2_654_435_761)) >> (32 - TABLE_BITS)) as usize
}

fn flush_literals(out: &mut Vec<u8>, literals: &[u8]) {
    for run in literals.chunks(MAX_LITERAL_RUN) {
        out.push((run.len() - 1) as u8);
        out.extend_from_slice(run);
    }
}

/// Length of the match between the input at `c` and at `i > c`, whose
/// first `MIN_MATCH` bytes are known equal, up to `min(raw.len() - i,
/// MAX_MATCH)`. Comparing the input at both positions is exactly the
/// overlapped-copy semantics the decoder implements, so `c + len` may run
/// past `i` safely. Eight bytes are compared at a time: the lowest set
/// bit of the XOR of two little-endian words marks the first differing
/// byte.
fn match_len(raw: &[u8], c: usize, i: usize) -> usize {
    let limit = (raw.len() - i).min(MAX_MATCH);
    let word = |at: usize| u64::from_le_bytes(raw[at..at + 8].try_into().expect("8 bytes"));
    let mut len = MIN_MATCH;
    while len + 8 <= limit {
        let diff = word(c + len) ^ word(i + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && raw[c + len] == raw[i + len] {
        len += 1;
    }
    len
}

/// Compresses `raw` into the token stream. Never fails; the output may be
/// larger than the input for incompressible data (the container layer
/// falls back to storing such chunks raw).
#[must_use]
pub fn compress(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 2 + 16);
    let mut table = vec![0u32; 1 << TABLE_BITS]; // position + 1; 0 = empty
    let mut literal_start = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= raw.len() {
        let window = u32::from_le_bytes(raw[i..i + 4].try_into().expect("4 bytes"));
        let slot = hash4(window);
        let candidate = table[slot] as usize;
        table[slot] = (i + 1) as u32;
        if candidate > 0 {
            let c = candidate - 1;
            let distance = i - c;
            if (1..=MAX_DISTANCE).contains(&distance) && raw[c..c + 4] == raw[i..i + 4] {
                let len = match_len(raw, c, i);
                flush_literals(&mut out, &raw[literal_start..i]);
                out.push(0x80 | (len - MIN_MATCH) as u8);
                out.extend_from_slice(&(distance as u16).to_le_bytes());
                i += len;
                literal_start = i;
                continue;
            }
        }
        i += 1;
    }
    flush_literals(&mut out, &raw[literal_start..]);
    out
}

/// Decompresses a token stream that must decode to exactly `raw_len`
/// bytes.
///
/// # Errors
///
/// Returns a description of the first malformed token: a literal run or
/// match overrunning the input, a distance reaching before the start of
/// the output, or a decoded length that misses `raw_len`. No input can
/// cause a panic, unbounded allocation, or out-of-bounds access.
pub fn decompress(encoded: &[u8], raw_len: usize) -> Result<Vec<u8>, String> {
    let mut out = Vec::with_capacity(raw_len);
    let mut i = 0usize;
    while i < encoded.len() {
        let token = encoded[i];
        i += 1;
        if token < 0x80 {
            let n = token as usize + 1;
            if i + n > encoded.len() {
                return Err(format!("literal run of {n} overruns input at offset {i}"));
            }
            if out.len() + n > raw_len {
                return Err("decoded data exceeds declared chunk length".to_string());
            }
            out.extend_from_slice(&encoded[i..i + n]);
            i += n;
        } else {
            let len = (token & 0x7F) as usize + MIN_MATCH;
            if i + 2 > encoded.len() {
                return Err(format!("match token truncated at offset {i}"));
            }
            let distance = u16::from_le_bytes([encoded[i], encoded[i + 1]]) as usize;
            i += 2;
            if distance == 0 || distance > out.len() {
                return Err(format!(
                    "match distance {distance} out of range at output position {}",
                    out.len()
                ));
            }
            if out.len() + len > raw_len {
                return Err("decoded data exceeds declared chunk length".to_string());
            }
            // Overlapped copy: each output byte repeats the one
            // `distance` back. A piece of at most `distance` bytes reads
            // only bytes already written, so copying in such pieces keeps
            // that meaning when `distance < len` (distance 1 is RLE).
            let mut remaining = len;
            while remaining > 0 {
                let piece = remaining.min(distance);
                let from = out.len() - distance;
                out.extend_from_within(from..from + piece);
                remaining -= piece;
            }
        }
    }
    if out.len() != raw_len {
        return Err(format!(
            "decoded {} bytes where the chunk header declared {raw_len}",
            out.len()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(raw: &[u8]) -> Vec<u8> {
        let encoded = compress(raw);
        decompress(&encoded, raw.len()).expect("round trip")
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(round_trip(b""), b"");
        assert_eq!(round_trip(b"a"), b"a");
        assert_eq!(round_trip(b"abc"), b"abc");
    }

    #[test]
    fn rle_heavy_input_shrinks_hard() {
        let raw = vec![0x42u8; 10_000];
        let encoded = compress(&raw);
        assert!(encoded.len() < raw.len() / 20, "{} bytes", encoded.len());
        assert_eq!(decompress(&encoded, raw.len()).unwrap(), raw);
    }

    #[test]
    fn repeating_structs_shrink() {
        // 20-byte pseudo-records with a few varying fields, like real
        // trace streams.
        let mut raw = Vec::new();
        for i in 0u32..2_000 {
            let mut rec = [0u8; 20];
            rec[0..4].copy_from_slice(&(i % 37).to_le_bytes());
            rec[4] = 1;
            rec[5] = 2;
            rec[6] = 0xFF;
            rec[8..12].copy_from_slice(&(0x1000 + (i % 5)).to_le_bytes());
            raw.extend_from_slice(&rec);
        }
        let encoded = compress(&raw);
        assert!(encoded.len() * 2 < raw.len(), "{} bytes", encoded.len());
        assert_eq!(decompress(&encoded, raw.len()).unwrap(), raw);
    }

    #[test]
    fn incompressible_input_round_trips() {
        // xorshift noise: no 4-byte window repeats nearby.
        let mut rng = dee_rng::Rng::from_state(0x1234_5678_9ABC_DEF0);
        let raw: Vec<u8> = (0..4_096)
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect();
        assert_eq!(round_trip(&raw), raw);
    }

    #[test]
    fn long_literal_runs_split_correctly() {
        let raw: Vec<u8> = (0u16..700).map(|i| (i % 251) as u8).collect();
        assert_eq!(round_trip(&raw), raw);
    }

    #[test]
    fn compression_is_deterministic() {
        // Pinned: container bytes are part of the on-disk format, so the
        // token stream for a given input must never change.
        assert_eq!(compress(b"abababababab"), [1, b'a', b'b', 0x86, 2, 0]);
        assert_eq!(
            compress(b"xyz0123xyz0123xyz0123!"),
            [6, b'x', b'y', b'z', b'0', b'1', b'2', b'3', 0x8A, 7, 0, 0, b'!']
        );
        let raw: Vec<u8> = (0u32..5_000).flat_map(|i| (i % 97).to_le_bytes()).collect();
        let encoded = compress(&raw);
        assert_eq!(encoded.len(), 845);
        assert_eq!(crate::checksum::checksum64(&encoded), 0xfcba_73cc_371e_fca1);
    }

    #[test]
    fn hostile_streams_error_cleanly() {
        // Match before any output exists.
        assert!(decompress(&[0x80, 1, 0], 4).is_err());
        // Literal run overruns the input.
        assert!(decompress(&[0x7F, 1, 2], 128).is_err());
        // Truncated match token.
        assert!(decompress(&[0x00, 0xAA, 0x85, 0x01], 10).is_err());
        // Declared length too small for the decoded data.
        assert!(decompress(&[0x03, 1, 2, 3, 4], 2).is_err());
        // Declared length never reached.
        assert!(decompress(&[0x00, 0xAA], 100).is_err());
        // Zero distance.
        assert!(decompress(&[0x00, 0xAA, 0x80, 0, 0], 10).is_err());
    }

    #[test]
    fn overlapping_match_replicates() {
        // "abab..." encodes as 2 literals + one overlapped match.
        let raw: Vec<u8> = std::iter::repeat_n([b'a', b'b'], 64).flatten().collect();
        assert_eq!(round_trip(&raw), raw);
    }
}
