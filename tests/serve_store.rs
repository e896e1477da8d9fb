//! The disk cache tier of `dee-serve`: prepared traces survive a full
//! server restart via the trace-artifact store.
//!
//! A freshly spawned server with an empty in-memory cache but a populated
//! `--store` directory must serve its first `/simulate` by *replaying*
//! the artifact (visible as `dee_store_disk_hits_total` in `/metrics`)
//! instead of re-tracing — and the response bytes must be identical
//! either way. A corrupted artifact is quarantined and transparently
//! re-traced; the client never sees the difference.

mod support;

use std::path::{Path, PathBuf};

use dee::serve::{Server, ServerConfig};
use support::{get, post, scrape_at};

fn spawn_with_store(dir: &Path) -> Server {
    Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        store_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .expect("bind on port 0")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dee_serve_store_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

const BODY: &str = r#"{"workload":"xlisp","scale":"tiny","model":"DEE-CD-MF","et":32}"#;

#[test]
fn prepared_traces_survive_restart_as_disk_tier_hits() {
    let dir = scratch_dir("restart");

    // Generation 1: cold store. The first request re-traces and publishes.
    let server = spawn_with_store(&dir);
    let (status, cold_body) = post(server.addr(), "/simulate", BODY);
    assert_eq!(status, 200, "{cold_body}");
    assert_eq!(scrape_at(server.addr(), "dee_store_disk_hits_total"), 0);
    assert_eq!(scrape_at(server.addr(), "dee_store_misses_total"), 1);
    assert_eq!(scrape_at(server.addr(), "dee_store_writes_total"), 1);
    server.shutdown();
    let artifacts: Vec<_> = std::fs::read_dir(&dir)
        .expect("store dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "dtrc"))
        .collect();
    assert_eq!(artifacts.len(), 1, "exactly one artifact published");

    // Generation 2: a brand-new process image — empty prepared cache,
    // same store directory. The first request is a disk-tier hit and the
    // response bytes are identical to the cold run.
    let server = spawn_with_store(&dir);
    let (status, warm_body) = post(server.addr(), "/simulate", BODY);
    assert_eq!(status, 200, "{warm_body}");
    assert_eq!(
        warm_body, cold_body,
        "disk-tier replay changed response bytes"
    );
    assert_eq!(scrape_at(server.addr(), "dee_store_disk_hits_total"), 1);
    assert_eq!(scrape_at(server.addr(), "dee_store_writes_total"), 0);
    // The disk tier sits *inside* the prepared-cache miss path: a second
    // identical request is a memory hit and never touches the store.
    let (status, again) = post(server.addr(), "/simulate", BODY);
    assert_eq!(status, 200);
    // Identical payload; only the cache field flips to the memory hit.
    assert_eq!(
        again,
        cold_body.replace("\"cache\":\"miss\"", "\"cache\":\"hit\"")
    );
    assert_eq!(scrape_at(server.addr(), "dee_store_disk_hits_total"), 1);
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn corrupt_artifact_is_quarantined_and_request_succeeds_anyway() {
    let dir = scratch_dir("corrupt");

    let server = spawn_with_store(&dir);
    let (status, clean_body) = post(server.addr(), "/simulate", BODY);
    assert_eq!(status, 200, "{clean_body}");
    server.shutdown();

    // Flip a payload byte in the published artifact.
    let artifact = std::fs::read_dir(&dir)
        .expect("store dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|e| e == "dtrc"))
        .expect("artifact published");
    let mut bytes = std::fs::read(&artifact).expect("read artifact");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&artifact, bytes).expect("corrupt artifact");

    // The restarted server detects the corruption, quarantines the file,
    // re-traces, and serves an identical response.
    let server = spawn_with_store(&dir);
    let (status, healed_body) = post(server.addr(), "/simulate", BODY);
    assert_eq!(status, 200, "{healed_body}");
    assert_eq!(healed_body, clean_body, "fallback changed response bytes");
    assert_eq!(scrape_at(server.addr(), "dee_store_disk_hits_total"), 0);
    assert_eq!(scrape_at(server.addr(), "dee_store_quarantined_total"), 1);
    // The re-trace republished a good artifact over the same key, and
    // the bad bytes went to quarantine/ rather than being destroyed.
    assert_eq!(scrape_at(server.addr(), "dee_store_writes_total"), 1);
    dee::store::verify_file(&artifact).expect("republished artifact verifies");
    assert!(
        dir.join("quarantine")
            .read_dir()
            .is_ok_and(|mut d| d.next().is_some()),
        "quarantine directory is empty"
    );
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

/// An upload's trace is captured on every miss and never published:
/// with a store configured, the server writes nothing to it, moves no
/// `dee_store_*` counter and answers byte-identically to a store-less
/// server, for `/simulate` and `/simulate_range` alike.
#[test]
fn uploads_leave_the_store_untouched() {
    let dir = scratch_dir("upload");
    let stored = spawn_with_store(&dir);
    let storeless = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind on port 0");
    let program = r#""program":"lw r1, 0(zero)\nli r2, 40\ntop:\naddi r2, r2, -1\nbgt r2, zero, top\nout r1\nhalt\n","memory":[5]"#;
    for (path, body) in [
        (
            "/simulate",
            format!(r#"{{{program},"model":"DEE-CD-MF","et":16}}"#),
        ),
        (
            "/simulate_range",
            format!(r#"{{{program},"model":"SP","et":8,"start":10,"end":50}}"#),
        ),
    ] {
        let (status, want) = post(storeless.addr(), path, &body);
        assert_eq!(status, 200, "{want}");
        assert_eq!(post(stored.addr(), path, &body), (200, want), "{path}");
    }
    let (status, metrics) = get(stored.addr(), "/metrics");
    assert_eq!(status, 200);
    let store_lines: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("dee_store_"))
        .collect();
    assert!(store_lines.len() >= 8, "{metrics}");
    assert!(
        store_lines.iter().all(|l| l.ends_with(" 0")),
        "store counters moved: {store_lines:?}"
    );
    // An upload has no artifact key, so its range never seeks a snapshot.
    assert_eq!(scrape_at(stored.addr(), "dee_snap_seek_misses_total"), 0);
    for sub in [dir.clone(), dir.join("tmp")] {
        let files: Vec<_> = std::fs::read_dir(&sub)
            .expect("store dir exists")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        assert!(files.is_empty(), "upload left files: {files:?}");
    }
    stored.shutdown();
    storeless.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

/// A tripped `decode_compile` site degrades the miss-path capture from
/// the pre-decoded engine to the reference interpreter — visibly only in
/// the fault metric, never in the response bytes.
#[test]
fn decode_compile_fault_degrades_to_interpreter_with_identical_bytes() {
    use std::sync::Arc;

    use dee::serve::faults::FaultSpec;
    use dee::serve::{FaultPlan, FaultSite, Server, ServerConfig};

    let dir = scratch_dir("decode_fault");

    // Clean run: decoded-engine miss path.
    let server = spawn_with_store(&dir);
    let (status, clean_body) = post(server.addr(), "/simulate", BODY);
    assert_eq!(status, 200, "{clean_body}");
    assert_eq!(
        scrape_at(
            server.addr(),
            "dee_faults_injected_total{site=\"decode_compile\"}"
        ),
        0
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    // Degraded run: the first (and only, via the fuse) decode-compile
    // arrival trips, so the capture falls back to the interpreter.
    let dir = scratch_dir("decode_fault_armed");
    let plan = FaultPlan::new(1)
        .arm(
            FaultSite::DecodeCompile,
            FaultSpec {
                error_ppm: 1_000_000,
                ..FaultSpec::default()
            },
        )
        .with_fuse(1);
    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        store_dir: Some(dir.clone()),
        faults: Arc::new(plan),
        ..ServerConfig::default()
    })
    .expect("bind on port 0");
    let (status, degraded_body) = post(server.addr(), "/simulate", BODY);
    assert_eq!(status, 200, "{degraded_body}");
    assert_eq!(
        degraded_body, clean_body,
        "interpreter fallback changed response bytes"
    );
    assert_eq!(
        scrape_at(
            server.addr(),
            "dee_faults_injected_total{site=\"decode_compile\"}"
        ),
        1
    );
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

/// Records published by the server replay one at a time through
/// `StoreReader::next_record`, and the streamed records match a fresh
/// decoded-engine capture record for record.
#[test]
fn store_reader_streams_records_matching_decoded_capture() {
    use dee::store::{ArtifactKey, Store};
    use dee::vm::{trace_program_with, Engine};
    use dee::workloads::Scale;

    let dir = scratch_dir("stream_replay");
    let server = spawn_with_store(&dir);
    let (status, body) = post(server.addr(), "/simulate", BODY);
    assert_eq!(status, 200, "{body}");
    server.shutdown();

    let w = dee::workloads::xlisp::build(Scale::Tiny);
    let reference = trace_program_with(
        Engine::Decoded,
        &w.program,
        &w.initial_memory,
        1_000_000_000,
    )
    .expect("xlisp runs on the decoded engine");

    let store = Store::open(&dir).expect("store opens");
    let key = ArtifactKey::new("xlisp", "tiny", &w.program.to_listing(), &w.initial_memory);
    let mut reader = store
        .open_reader(&key)
        .expect("artifact readable")
        .expect("artifact published by the server");
    assert_eq!(reader.record_count(), reference.len() as u64);
    let mut streamed = Vec::with_capacity(reference.len());
    while let Some(record) = reader.next_record().expect("chunk intact") {
        streamed.push(record);
    }
    assert!(
        streamed.into_iter().eq(reference.records()),
        "streamed records diverge from the decoded capture"
    );
    std::fs::remove_dir_all(dir).ok();
}
