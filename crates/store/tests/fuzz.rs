//! Seeded fuzzing of the two on-disk trace formats.
//!
//! Hostile bytes must never panic the readers: every outcome is either a
//! clean success or a typed error (`io::Error` / the `String` verdicts of
//! `verify_file`). For the checksummed container format the contract is
//! stronger — if a mutated file still *reads*, the data it yields must be
//! identical to the original, because every payload byte is covered by a
//! chunk checksum (only don't-care bytes like header padding can flip
//! without tripping it). The bare `DEETRC1` stream carries no checksums,
//! so there the contract is only "typed error or valid trace".
//!
//! All mutations come from a seeded `dee-rng` stream, so a failure
//! reproduces exactly. `DEE_CHAOS_SEED` is mixed into each test's own
//! stream (unset, each test keeps its pinned stream), and
//! `DEE_CHAOS_ITERS` (default 100) scales every round count in
//! proportion: 100 runs each test's own count, 300 three times as many.

use std::io::Cursor;
use std::path::PathBuf;

use dee_rng::{env_u64, Rng};
use dee_store::{verify_file, ContainerWriter, VerifyReport};
use dee_vm::{Trace, TRACE_FORMAT_VERSION};
use dee_workloads::Scale;

/// The stream a test draws from: its pinned `state`, with
/// `DEE_CHAOS_SEED` mixed in when set.
fn stream(state: u64) -> Rng {
    Rng::from_state(state ^ env_u64("DEE_CHAOS_SEED", 0).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A test's `base` round count scaled by `DEE_CHAOS_ITERS` percent.
fn rounds(base: u64) -> u64 {
    (base * env_u64("DEE_CHAOS_ITERS", 100) / 100).max(1)
}

fn baseline_trace() -> Trace {
    dee_workloads::eqntott::build(Scale::Tiny)
        .validate()
        .expect("workload traces cleanly")
}

fn container_bytes(trace: &Trace) -> Vec<u8> {
    let mut container =
        ContainerWriter::new(Vec::new(), TRACE_FORMAT_VERSION).expect("in-memory container");
    trace.write_to(&mut container).expect("write trace");
    container.finish().expect("finish container")
}

fn bare_bytes(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("write trace");
    bytes
}

/// A scratch file path unique to this test binary.
fn scratch_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dee_store_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{tag}.dtrc"))
}

fn verify_bytes(path: &PathBuf, bytes: &[u8]) -> Result<VerifyReport, String> {
    std::fs::write(path, bytes).expect("write scratch artifact");
    verify_file(path)
}

#[test]
fn mutated_containers_fail_typed_or_read_back_identical() {
    let trace = baseline_trace();
    let pristine = container_bytes(&trace);
    let path = scratch_file("mutate");
    let baseline = verify_bytes(&path, &pristine).expect("pristine container verifies");
    assert_eq!(baseline.records, trace.len() as u64);

    let mut rng = stream(0xDEE5_70FE);
    let total = rounds(300);
    let mut survivors = 0u64;
    for round in 0..total {
        let mut bytes = pristine.clone();
        // 1–4 independent byte corruptions per round: bit flips, byte
        // swaps with random values, and zeroing.
        for _ in 0..=rng.below(3) {
            let at = rng.below(bytes.len());
            bytes[at] = match rng.below(3) {
                0 => bytes[at] ^ (1 << rng.below(8)),
                1 => rng.next_u64() as u8,
                _ => 0,
            };
        }
        if bytes == pristine {
            continue;
        }
        // Must not panic; on success the data must match the original.
        if let Ok(report) = verify_bytes(&path, &bytes) {
            assert_eq!(
                report, baseline,
                "round {round}: mutated container verified but yielded different data"
            );
            survivors += 1;
        }
    }
    // Don't-care bytes (header padding) are rare; most rounds must fail.
    assert!(
        survivors < total.div_ceil(10),
        "{survivors}/{total} mutations went undetected — checksum coverage regressed"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_containers_always_fail_typed() {
    let trace = baseline_trace();
    let pristine = container_bytes(&trace);
    let path = scratch_file("truncate");
    let mut rng = stream(0x7A_BCDE);
    // Every structural boundary plus a seeded sample of interior cuts.
    let mut cuts = vec![0, 1, 7, 8, 23, 24, pristine.len() - 1];
    for _ in 0..rounds(80) {
        cuts.push(rng.below(pristine.len()));
    }
    for cut in cuts {
        let result = verify_bytes(&path, &pristine[..cut]);
        assert!(
            result.is_err(),
            "container truncated to {cut}/{} bytes verified",
            pristine.len()
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn mutated_bare_traces_never_panic() {
    let trace = baseline_trace();
    let pristine = bare_bytes(&trace);
    let mut rng = stream(0x0BAD_5EED);
    for _ in 0..rounds(500) {
        let mut bytes = pristine.clone();
        for _ in 0..=rng.below(4) {
            let at = rng.below(bytes.len());
            bytes[at] = match rng.below(3) {
                0 => bytes[at] ^ (1 << rng.below(8)),
                1 => rng.next_u64() as u8,
                _ => 0xFF,
            };
        }
        // The bare stream has no checksums, so a flipped operand byte can
        // legally decode to a different valid trace. The contract here is
        // purely "typed result, no panic, no unbounded allocation".
        let _ = Trace::read_from(Cursor::new(bytes));
    }
}

#[test]
fn truncated_bare_traces_always_fail_typed() {
    let trace = baseline_trace();
    let pristine = bare_bytes(&trace);
    let mut rng = stream(0xC0FFEE);
    let mut cuts = vec![0, 1, 7, 8, 15, 16, pristine.len() - 1];
    for _ in 0..rounds(120) {
        cuts.push(rng.below(pristine.len()));
    }
    for cut in cuts {
        assert!(
            Trace::read_from(Cursor::new(pristine[..cut].to_vec())).is_err(),
            "bare trace truncated to {cut}/{} bytes read back",
            pristine.len()
        );
    }
}

#[test]
fn garbage_and_cross_format_bytes_fail_typed() {
    let trace = baseline_trace();
    let path = scratch_file("garbage");
    let mut rng = stream(0x6A2BA6E);
    for len in [0usize, 1, 8, 24, 63, 1024] {
        let junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        assert!(verify_bytes(&path, &junk).is_err(), "{len} junk bytes");
        assert!(Trace::read_from(Cursor::new(junk)).is_err(), "{len} junk");
    }
    // A bare DEETRC1 stream is not a container and vice versa.
    let bare = bare_bytes(&trace);
    assert!(
        verify_bytes(&path, &bare).is_err(),
        "bare stream accepted as container"
    );
    let container = container_bytes(&trace);
    assert!(
        Trace::read_from(Cursor::new(container)).is_err(),
        "container accepted as bare stream"
    );
    std::fs::remove_file(&path).ok();
}
