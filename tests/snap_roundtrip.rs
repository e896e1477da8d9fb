//! Snapshot roundtrip under chaos: the acceptance gate for the
//! `DEESNAP1` warm-start path.
//!
//! For each fixed chaos seed, the real `dee` binary records the
//! compress/tiny artifact with `--checkpoint-stride`, a fault-storming
//! server answers seeded `/simulate_range` and `/debug/at` requests out
//! of that store, and every successful response must be byte-identical
//! to a store-less oracle server computing the same range from zero.
//! Then one snapshot byte is flipped on disk: the next request that
//! seeks it must quarantine the file and fall back to from-zero replay
//! — still byte-identical, with the degradation visible only in the
//! `dee_store_quarantined_total` counter and the `quarantine/`
//! directory.

mod support;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use dee::serve::{FaultPlan, Server, ServerConfig};
use dee_rng::Rng;
use support::{get, post, scrape_at};

/// The two fixed storm seeds the CI job pins.
const CHAOS_SEEDS: [u64; 2] = [42, 1995];

/// Snapshot stride for the recording; compress/tiny runs 8417 records,
/// so stride 2000 publishes snapshots at 2000/4000/6000/8000.
const STRIDE: u64 = 2000;

/// Seeded requests per storm phase.
const REQUESTS: usize = 16;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dee_snap_rt_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Posts a request that must answer 200: once the storm is disarmed,
/// nothing an earlier fault did may refuse a later request.
fn post_ok(addr: std::net::SocketAddr, path: &str, body: &str) -> String {
    let (status, response) = post(addr, path, body);
    assert_eq!(status, 200, "{path} {body}: {response}");
    response
}

/// The i-th seeded `/simulate_range` body for this storm.
fn range_body(i: usize, seed: u64, trace_len: u64) -> String {
    let mut rng = Rng::from_state((seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1);
    let start = rng.next_u64() % trace_len.saturating_sub(1).max(1);
    let span = 1 + rng.next_u64() % 512;
    let end = (start + span).min(trace_len);
    let predictor = ["twobit", "gshare", "pap", "taken"][i % 4];
    format!(
        r#"{{"workload":"compress","scale":"tiny","model":"SP","et":8,"predictor":"{predictor}","start":{start},"end":{end}}}"#
    )
}

/// Records compress/tiny with checkpoints through the actual CLI —
/// `dee trace record compress --store DIR --scale tiny
/// --checkpoint-stride 2000` — and returns the snapshot filenames.
fn record_with_checkpoints(dir: &Path) -> Vec<PathBuf> {
    let output = Command::new(env!("CARGO_BIN_EXE_dee"))
        .args([
            "trace",
            "record",
            "compress",
            "--store",
            dir.to_str().expect("utf-8 temp path"),
            "--scale",
            "tiny",
            "--checkpoint-stride",
            &STRIDE.to_string(),
        ])
        .output()
        .expect("spawn dee binary");
    assert!(
        output.status.success(),
        "trace record failed:\n{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let mut snapshots: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "dsnp"))
        .collect();
    snapshots.sort();
    assert_eq!(
        snapshots.len(),
        4,
        "stride {STRIDE} over compress/tiny publishes 4 snapshots: {snapshots:?}"
    );
    snapshots
}

fn trace_len() -> u64 {
    let w = dee::workloads::compress::build(dee::workloads::Scale::Tiny);
    w.capture_trace().expect("compress runs").len() as u64
}

fn roundtrip_under_seed(seed: u64) {
    let dir = scratch_dir(&format!("seed{seed}"));
    let snapshots = record_with_checkpoints(&dir);
    let len = trace_len();

    // The oracle: no store, no faults — every range computed from zero.
    let oracle = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind oracle");
    let bodies: Vec<String> = (0..REQUESTS).map(|i| range_body(i, seed, len)).collect();
    let canonical: Vec<String> = bodies
        .iter()
        .map(|b| {
            let (status, body) = post(oracle.addr(), "/simulate_range", b);
            assert_eq!(status, 200, "oracle rejected {b}: {body}");
            body
        })
        .collect();

    // The subject: snapshot-backed store plus a hostile fault storm.
    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        store_dir: Some(dir.clone()),
        faults: Arc::new(FaultPlan::hostile(seed)),
        read_budget: Duration::from_secs(2),
        write_budget: Duration::from_secs(2),
        ..ServerConfig::default()
    })
    .expect("bind storm server");
    let addr = server.addr();

    // Storm phase: every connection gets a valid response, and any 200
    // that does arrive is byte-identical to the oracle — warm starts and
    // injected snap faults must never change payload bytes.
    for (body, expected) in bodies.iter().zip(&canonical) {
        let (status, response) = post(addr, "/simulate_range", body);
        assert!(
            (200..=599).contains(&status),
            "invalid response under storm (status {status})"
        );
        if status == 200 {
            assert_eq!(&response, expected, "storm response diverged for {body}");
        }
    }

    // Calm phase: disarm, then every seeded request must answer 200
    // with oracle-identical bytes, and the store must have warm-started
    // at least once (every start ≥ the first stride has a snapshot).
    server.faults().disarm();
    for (body, expected) in bodies.iter().zip(&canonical) {
        let response = post_ok(addr, "/simulate_range", body);
        assert_eq!(&response, expected, "calm response diverged for {body}");
    }
    assert!(
        scrape_at(addr, "dee_snap_seek_hits_total") > 0,
        "no warm start ever happened — snapshots unused"
    );

    // Time travel must agree between the snapshot path and the oracle's
    // from-zero walk.
    let probe = format!("/debug/at?workload=compress&scale=tiny&record={}", len / 2);
    let (status, oracle_at) = get(oracle.addr(), &probe);
    assert_eq!(status, 200, "{oracle_at}");
    let (status, subject_at) = get(addr, &probe);
    assert_eq!(status, 200, "{subject_at}");
    assert_eq!(subject_at, oracle_at, "time travel diverged from oracle");

    // Corruption phase: flip one byte in the *lowest* snapshot
    // (record 2000), then ask for a range just past it. The seek finds
    // the corrupt file, the store quarantines it, no older snapshot
    // exists, and the request falls back to from-zero replay — with
    // byte-identical results.
    let victim = &snapshots[0];
    let mut bytes = std::fs::read(victim).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(victim, bytes).expect("corrupt snapshot");

    let quarantined_before = scrape_at(addr, "dee_store_quarantined_total");
    let corrupt_probe = format!(
        r#"{{"workload":"compress","scale":"tiny","model":"SP","et":8,"predictor":"gshare","start":{},"end":{}}}"#,
        STRIDE + 100,
        STRIDE + 400
    );
    let (status, oracle_body) = post(oracle.addr(), "/simulate_range", &corrupt_probe);
    assert_eq!(status, 200, "{oracle_body}");
    let healed = post_ok(addr, "/simulate_range", &corrupt_probe);
    assert_eq!(
        healed, oracle_body,
        "from-zero fallback after snapshot corruption changed bytes"
    );
    assert!(
        scrape_at(addr, "dee_store_quarantined_total") > quarantined_before,
        "corrupt snapshot was never quarantined"
    );
    assert!(!victim.exists(), "corrupt snapshot still in the store root");
    assert!(
        dir.join("quarantine")
            .read_dir()
            .is_ok_and(|mut d| d.next().is_some()),
        "quarantine directory is empty"
    );
    // The surviving snapshots keep warm-starting later ranges.
    let late_probe = format!(
        r#"{{"workload":"compress","scale":"tiny","model":"SP","et":8,"predictor":"twobit","start":{},"end":{}}}"#,
        3 * STRIDE + 100,
        3 * STRIDE + 400
    );
    let (status, oracle_late) = post(oracle.addr(), "/simulate_range", &late_probe);
    assert_eq!(status, 200, "{oracle_late}");
    let hits_before = scrape_at(addr, "dee_snap_seek_hits_total");
    let late = post_ok(addr, "/simulate_range", &late_probe);
    assert_eq!(late, oracle_late, "surviving-snapshot warm start diverged");
    assert!(
        scrape_at(addr, "dee_snap_seek_hits_total") > hits_before,
        "surviving snapshot was not used for the warm start"
    );

    server.shutdown();
    oracle.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn snap_roundtrip_seed_42() {
    roundtrip_under_seed(CHAOS_SEEDS[0]);
}

#[test]
fn snap_roundtrip_seed_1995() {
    roundtrip_under_seed(CHAOS_SEEDS[1]);
}
