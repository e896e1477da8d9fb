//! Differential tests of the store's LZ coder against the loops it
//! replaced.
//!
//! `reference` below is the previous compressor and decompressor, kept
//! verbatim apart from their module wrapping. They extend and copy a match
//! one byte at a time; the shipped ones compare eight bytes at a time and
//! copy with `extend_from_within`. `compress` must emit the same bytes on
//! seeded inputs (lengths 0–3, repeats at the 65535-byte distance limit,
//! 131-byte maximum matches) and on the raw `DEETRC1` bytes of every
//! registry workload at tiny. `decompress` must return the same bytes or
//! the same error on seeded mutated token streams.
//!
//! `DEE_CHAOS_SEED` (default 42) seeds the draws; `DEE_CHAOS_ITERS`
//! (default 16, so a debug `cargo test` stays quick; CI runs 300 in
//! release) sets the number of seeded inputs and mutants per test.

use dee_rng::{env_u64, Rng};
use dee_store::{compress, decompress};
use dee_vm::Trace;
use dee_workloads::{Scale, WorkloadRegistry};

/// The LZ coder as it was before matches were extended and copied in
/// words.
mod reference {
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
                    let mut len = MIN_MATCH;
                    // Comparing source and destination positions byte-by-byte
                    // is exactly the overlapped-copy semantics the decoder
                    // implements, so `c + len` may run past `i` safely.
                    while i + len < raw.len() && len < MAX_MATCH && raw[c + len] == raw[i + len] {
                        len += 1;
                    }
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
                for _ in 0..len {
                    let byte = out[out.len() - distance];
                    out.push(byte);
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
}

/// `n` seeded bytes.
fn bytes(rng: &mut Rng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

fn seed_and_iters() -> (u64, u64) {
    (
        env_u64("DEE_CHAOS_SEED", 42),
        env_u64("DEE_CHAOS_ITERS", 16),
    )
}

fn iteration_rng(seed: u64, salt: u64, iter: u64) -> Rng {
    Rng::new(seed ^ salt ^ iter.wrapping_mul(0x1000_0000_01b3))
}

/// A seeded input the match finder has to work on: literal noise, runs
/// longer than one 131-byte match, repeats at and just past the 65535-byte
/// distance limit, and 20-byte records with a few varying fields.
fn seeded_input(rng: &mut Rng) -> Vec<u8> {
    let mut raw = Vec::new();
    for _ in 0..1 + rng.below(6) {
        match rng.below(6) {
            0 => {
                let n = rng.below(300);
                raw.extend(bytes(rng, n));
            }
            1 => {
                let byte = rng.next_u64() as u8;
                raw.resize(raw.len() + 1 + rng.below(600), byte);
            }
            2 => {
                // A pattern, then the same pattern 65535 ± 1 bytes later.
                let n = 4 + rng.below(200);
                let pattern = bytes(rng, n);
                let gap = 65_535 - pattern.len() + rng.below(3) - 1;
                raw.extend_from_slice(&pattern);
                raw.extend(bytes(rng, gap));
                raw.extend_from_slice(&pattern);
            }
            3 => {
                // A short period repeated far past MAX_MATCH.
                let n = 1 + rng.below(24);
                let period = bytes(rng, n);
                for _ in 0..1 + rng.below(40) {
                    raw.extend_from_slice(&period);
                }
            }
            4 => {
                let mut record = bytes(rng, 20);
                for _ in 0..rng.below(200) {
                    let at = rng.below(20);
                    record[at] = rng.next_u64() as u8;
                    raw.extend_from_slice(&record);
                }
            }
            _ => {
                // Copy an earlier stretch, possibly overlapping its end.
                if !raw.is_empty() {
                    let from = rng.below(raw.len());
                    for k in 0..rng.below(400) {
                        raw.push(raw[from + k]);
                    }
                }
            }
        }
    }
    raw
}

fn registry_traces() -> Vec<(String, Trace)> {
    let registry = WorkloadRegistry::builtin();
    registry
        .build_all(Scale::Tiny)
        .into_iter()
        .map(|w| {
            let trace = w.capture_trace().expect("registry workload runs");
            (w.name.clone(), trace)
        })
        .collect()
}

fn bare_bytes(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("write trace");
    bytes
}

fn assert_same_tokens(raw: &[u8], label: &str) {
    let fast = compress(raw);
    assert!(
        fast == reference::compress(raw),
        "{label}: token stream of {} bytes differs from the reference",
        raw.len()
    );
    assert_eq!(
        decompress(&fast, raw.len()).as_deref(),
        Ok(raw),
        "{label}: round trip"
    );
}

#[test]
fn compress_matches_reference_on_seeded_inputs() {
    let (seed, iters) = seed_and_iters();
    for len in 0..=3 {
        assert_same_tokens(&vec![7u8; len], &format!("{len} bytes"));
    }
    // One match at exactly the distance limit, one just past it.
    for gap in [65_535usize - 8, 65_535 - 7] {
        let mut raw = b"ABCDEFGH".to_vec();
        raw.extend((0..gap).map(|i| (i % 251) as u8 ^ 0x55));
        raw.extend_from_slice(b"ABCDEFGH");
        assert_same_tokens(&raw, &format!("distance {}", gap + 8));
    }
    for iter in 0..iters {
        let mut rng = iteration_rng(seed, 0x12, iter);
        let raw = seeded_input(&mut rng);
        assert_same_tokens(&raw, &format!("seed {seed} iter {iter}"));
    }
}

#[test]
fn compress_matches_reference_on_registry_traces() {
    for (name, trace) in registry_traces() {
        assert_same_tokens(&bare_bytes(&trace), &format!("{name} tiny"));
    }
}

#[test]
fn decompress_matches_reference_on_mutated_streams() {
    let (seed, iters) = seed_and_iters();
    let mut accepted = 0u64;
    for iter in 0..iters {
        let mut rng = iteration_rng(seed, 0x34, iter);
        let raw = seeded_input(&mut rng);
        let pristine = compress(&raw);
        for round in 0..16 {
            let mut encoded = pristine.clone();
            for _ in 0..=rng.below(3) {
                if encoded.is_empty() {
                    break;
                }
                let at = rng.below(encoded.len());
                match rng.below(4) {
                    0 => encoded[at] ^= 1 << rng.below(8),
                    1 => encoded[at] = rng.next_u64() as u8,
                    2 => encoded.truncate(at),
                    _ => encoded.insert(at, rng.next_u64() as u8),
                }
            }
            // The declared length is usually right, sometimes off.
            let raw_len = match rng.below(4) {
                0 => raw.len() + rng.below(300),
                1 => raw.len().saturating_sub(rng.below(300)),
                _ => raw.len(),
            };
            let fast = decompress(&encoded, raw_len);
            let slow = reference::decompress(&encoded, raw_len);
            assert!(
                fast == slow,
                "seed {seed} iter {iter} round {round}: decompress disagrees \
                 ({} vs {})",
                describe(&fast),
                describe(&slow)
            );
            accepted += u64::from(fast.is_ok());
        }
    }
    // Both the success and the error paths must have been compared.
    assert!(accepted > 0 && accepted < iters * 16, "{accepted} accepted");
}

fn describe(result: &Result<Vec<u8>, String>) -> String {
    match result {
        Ok(bytes) => format!("Ok({} bytes)", bytes.len()),
        Err(e) => format!("Err({e})"),
    }
}
