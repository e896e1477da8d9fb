//! The disk cache tier of `dee-serve`: prepared traces survive a full
//! server restart via the trace-artifact store.
//!
//! A freshly spawned server with an empty in-memory cache but a populated
//! `--store` directory must serve its first `/simulate` by *replaying*
//! the artifact (visible as `dee_store_disk_hits_total` in `/metrics`)
//! instead of re-tracing — and the response bytes must be identical
//! either way. A corrupted artifact is quarantined and transparently
//! re-traced; the client never sees the difference.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use dee::serve::{Server, ServerConfig};

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

/// One `Connection: close` HTTP exchange; returns (status, body).
fn exchange(addr: std::net::SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    exchange(addr, &raw)
}

fn scrape(addr: std::net::SocketAddr, name: &str) -> u64 {
    let (status, metrics) = exchange(
        addr,
        "GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing:\n{metrics}"))
}

const BODY: &str = r#"{"workload":"xlisp","scale":"tiny","model":"DEE-CD-MF","et":32}"#;

#[test]
fn prepared_traces_survive_restart_as_disk_tier_hits() {
    let dir = scratch_dir("restart");

    // Generation 1: cold store. The first request re-traces and publishes.
    let server = spawn_with_store(&dir);
    let (status, cold_body) = post(server.addr(), "/simulate", BODY);
    assert_eq!(status, 200, "{cold_body}");
    assert_eq!(scrape(server.addr(), "dee_store_disk_hits_total"), 0);
    assert_eq!(scrape(server.addr(), "dee_store_misses_total"), 1);
    assert_eq!(scrape(server.addr(), "dee_store_writes_total"), 1);
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
    assert_eq!(scrape(server.addr(), "dee_store_disk_hits_total"), 1);
    assert_eq!(scrape(server.addr(), "dee_store_writes_total"), 0);
    // The disk tier sits *inside* the prepared-cache miss path: a second
    // identical request is a memory hit and never touches the store.
    let (status, again) = post(server.addr(), "/simulate", BODY);
    assert_eq!(status, 200);
    // Identical payload; only the cache field flips to the memory hit.
    assert_eq!(
        again,
        cold_body.replace("\"cache\":\"miss\"", "\"cache\":\"hit\"")
    );
    assert_eq!(scrape(server.addr(), "dee_store_disk_hits_total"), 1);
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
    assert_eq!(scrape(server.addr(), "dee_store_disk_hits_total"), 0);
    assert_eq!(scrape(server.addr(), "dee_store_quarantined_total"), 1);
    // The re-trace republished a good artifact over the same key, and
    // the bad bytes went to quarantine/ rather than being destroyed.
    assert_eq!(scrape(server.addr(), "dee_store_writes_total"), 1);
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
        scrape(
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
        scrape(
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
    assert_eq!(
        streamed.as_slice(),
        reference.records(),
        "streamed records diverge from the decoded capture"
    );
    std::fs::remove_dir_all(dir).ok();
}
