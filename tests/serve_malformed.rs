//! Malformed-input tests: hostile bytes over a real socket.
//!
//! Seeded fuzz-style storm of broken HTTP and broken JSON against
//! `dee-serve`. The contract: every malformed request is answered with a
//! syntactically valid `4xx` response — never a hang, never a panic, and
//! the server is still healthy afterwards. `DEE_CHAOS_SEED` picks the
//! storm (default 42).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dee::isa::parse::parse_program;
use dee::serve::{FaultPlan, Server, ServerConfig};
use dee::store::{ArtifactKey, Store};
use dee::vm::trace_program;
use dee_rng::{env_u64, Rng};

fn spawn() -> Server {
    Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind on port 0")
}

fn spawn_with_store(tag: &str) -> (Server, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("dee_malformed_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind on port 0");
    (server, dir)
}

/// Sends raw bytes, half-closes the write side, and returns the parsed
/// status (0 when the response was empty or garbled). The read timeout
/// bounds every exchange, so a hanging server fails fast instead of
/// wedging the test binary.
fn send_raw(addr: std::net::SocketAddr, raw: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let _ = stream.write_all(raw);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("HTTP/1.1 "),
        "not a valid HTTP response: {text:.80?}"
    );
    text.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn post_body(addr: std::net::SocketAddr, body: &[u8]) -> u16 {
    request(addr, "POST", "/simulate", body)
}

fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &[u8]) -> u16 {
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    send_raw(addr, &raw)
}

fn healthy(addr: std::net::SocketAddr) -> bool {
    send_raw(addr, b"GET /healthz HTTP/1.1\r\nHost: fuzz\r\n\r\n") == 200
}

/// The storm's stream: `DEE_CHAOS_SEED`, as every seeded suite reads it.
fn storm_rng() -> Rng {
    Rng::from_state(env_u64("DEE_CHAOS_SEED", 42) | 1)
}

#[test]
fn garbage_request_lines_get_400() {
    let server = spawn();
    let addr = server.addr();
    for raw in [
        &b"GARBAGE\r\n\r\n"[..],
        b"\r\n\r\n",
        b"GET\r\n\r\n",
        b"GET /healthz\r\n\r\n",
        b"GET /healthz SPDY/99\r\n\r\n",
        b"POST /simulate HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        b"POST /simulate HTTP/1.1\r\nno colon here\r\n\r\n",
    ] {
        assert_eq!(
            send_raw(addr, raw),
            400,
            "{:?}",
            String::from_utf8_lossy(raw)
        );
    }
    assert!(healthy(addr));
    server.shutdown();
}

#[test]
fn random_bytes_always_get_a_valid_4xx() {
    let server = spawn();
    let addr = server.addr();
    let mut rng = storm_rng();
    for i in 0..64 {
        let len = rng.below(512) + 1;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let status = send_raw(addr, &bytes);
        // Random bytes essentially never form a well-formed request line,
        // so the server must reject them — without dying.
        assert!(
            (400..=499).contains(&status),
            "fuzz case {i}: status {status} for {:?}",
            String::from_utf8_lossy(&bytes[..bytes.len().min(40)])
        );
    }
    assert!(healthy(addr));
    server.shutdown();
}

#[test]
fn header_floods_and_oversized_bodies_get_413() {
    let server = spawn();
    let addr = server.addr();

    // Head larger than the 16 KiB cap: thousands of junk headers.
    let mut flood = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..2000 {
        flood.extend_from_slice(format!("X-Flood-{i}: {}\r\n", "y".repeat(16)).as_bytes());
    }
    flood.extend_from_slice(b"\r\n");
    assert_eq!(send_raw(addr, &flood), 413);

    // A declared body far over the 1 MiB cap is refused before reading.
    assert_eq!(
        send_raw(
            addr,
            b"POST /simulate HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
        ),
        413
    );
    assert!(healthy(addr));
    server.shutdown();
}

#[test]
fn truncated_bodies_get_400_not_a_hang() {
    let server = spawn();
    let addr = server.addr();
    // Declares 100 bytes, delivers 10, then half-closes: the read hits
    // EOF and must surface as 400, not wait forever.
    let started = Instant::now();
    let status = send_raw(
        addr,
        b"POST /simulate HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"workload\"",
    );
    assert_eq!(status, 400);
    assert!(started.elapsed() < Duration::from_secs(8));
    assert!(healthy(addr));
    server.shutdown();
}

#[test]
fn mutated_json_bodies_never_hang_or_panic() {
    let server = spawn();
    let addr = server.addr();
    let valid = br#"{"workload":"compress","scale":"tiny","model":"SP","et":8}"#;
    let mut rng = storm_rng();
    for i in 0..64 {
        let mut body = valid.to_vec();
        // Flip 1–4 random bytes. Most mutations break the JSON (400);
        // a lucky flip inside a digit can stay valid (200). Either way
        // the response must be a valid one.
        for _ in 0..=rng.below(4) {
            let at = rng.below(body.len());
            body[at] ^= rng.next_u64() as u8;
        }
        let status = post_body(addr, &body);
        assert!(
            status == 200 || (400..=499).contains(&status),
            "mutation {i}: status {status} for {:?}",
            String::from_utf8_lossy(&body)
        );
    }
    // Truncations of a valid body: always 400 (bad JSON) or 200 (the
    // zero-length cut is impossible here, and prefixes are never valid).
    for cut in 1..valid.len() {
        let status = post_body(addr, &valid[..cut]);
        assert!(
            (400..=499).contains(&status),
            "truncation at {cut}: status {status}"
        );
    }
    assert!(healthy(addr));
    server.shutdown();
}

#[test]
fn pathological_json_shapes_get_400() {
    let server = spawn();
    let addr = server.addr();
    // Deep-nesting bomb: must be a parse error, not a stack overflow.
    let bomb = format!("{}1{}", "[".repeat(10_000), "]".repeat(10_000));
    assert_eq!(post_body(addr, bomb.as_bytes()), 400);
    // Non-UTF-8 body behind valid headers.
    assert_eq!(post_body(addr, &[0xFF, 0xFE, 0x80, 0x00]), 400);
    // Valid JSON, hostile values.
    for body in [
        &br#"{"workload":"compress","scale":"tiny","model":"SP","et":99999999999}"#[..],
        br#"{"workload":"compress","scale":"tiny","model":"SP","et":-1}"#,
        br#"{"p":0.3,"et":10}"#,
        br#"[1,2,3]"#,
        br#""just a string""#,
    ] {
        let status = post_body(addr, body);
        assert!(
            (400..=499).contains(&status),
            "status {status} for {:?}",
            String::from_utf8_lossy(body)
        );
    }
    assert!(healthy(addr));
    server.shutdown();
}

#[test]
fn malformed_numbers_get_400_not_a_panic() {
    // Regression for the JSON number scanner: its digit-run slice is
    // decoded fallibly now, and every broken number shape must come back
    // as a 400 parse error.
    let server = spawn();
    let addr = server.addr();
    for body in [
        &br#"{"et":-}"#[..],
        br#"{"et":1.2.3}"#,
        br#"{"et":1e}"#,
        br#"{"et":--5}"#,
        br#"{"et":+1}"#,
        br#"{"et":.5}"#,
        br#"{"et":1e+-2}"#,
    ] {
        assert_eq!(
            post_body(addr, body),
            400,
            "{:?}",
            String::from_utf8_lossy(body)
        );
    }
    assert!(healthy(addr));
    server.shutdown();
}

/// Every file under `dir`, recursively, with its length, sorted.
fn files_under(dir: &std::path::Path) -> Vec<(std::path::PathBuf, u64)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let path = entry.path();
        if entry.file_type().unwrap().is_dir() {
            out.extend(files_under(&path));
        } else {
            out.push((path, entry.metadata().unwrap().len()));
        }
    }
    out.sort();
    out
}

/// The store-sync routes are gone. Sends every method with every body to
/// each of `paths`, on a storeless server and on one with a store, and
/// asserts a plain 404 each time, a healthy server afterwards and a store
/// directory left as it was.
fn assert_retired(tag: &str, paths: &[String], bodies: &[&[u8]]) {
    let storeless = spawn();
    let (stored, dir) = spawn_with_store(tag);
    let before = files_under(&dir);
    for addr in [storeless.addr(), stored.addr()] {
        for path in paths {
            for method in ["GET", "PUT", "POST", "DELETE"] {
                for body in bodies {
                    assert_eq!(request(addr, method, path, body), 404, "{method} {path}");
                }
            }
        }
        assert!(healthy(addr));
    }
    assert_eq!(
        files_under(&dir),
        before,
        "a retired route wrote to the store"
    );
    storeless.shutdown();
    stored.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn hostile_artifact_names_never_touch_the_filesystem() {
    // Traversal and out-of-alphabet names on the retired artifact route
    // are a plain 404 and write nothing.
    let paths = [
        "..%2F..%2Fetc%2Fpasswd",
        "..",
        "x..y.dtrc",
        "UPPER.dtrc",
        "name%00.dtrc",
        "no-extension",
        ".hidden.dtrc",
    ]
    .map(|name| format!("/store/artifact/{name}"));
    assert_retired("names", &paths, &[b"", b"junk"]);
}

#[test]
fn corrupt_artifact_uploads_are_refused_verified() {
    // Uploads to the retired artifact route are refused whatever they
    // hold: a corrupt container, an empty body and even a valid
    // container under its valid name all get 404 and write nothing.
    let program = parse_program("lw r1, 0(zero)\nout r1\nhalt\n").unwrap();
    let trace = trace_program(&program, &[42], 1_000).unwrap();
    let key = ArtifactKey::new("peer", "tiny", &program.to_listing(), &[42]);
    let source_dir =
        std::env::temp_dir().join(format!("dee_malformed_upload_{}", std::process::id()));
    let source = Store::open(&source_dir).unwrap();
    let upload = std::fs::read(source.put(&key, &trace).unwrap()).unwrap();
    let paths = [format!("/store/artifact/{}", key.filename())];
    assert_retired(
        "uploads",
        &paths,
        &[&upload, b"not a DEESTOR1 container", b""],
    );
    std::fs::remove_dir_all(source_dir).ok();
}

#[test]
fn peer_endpoints_answer_without_a_store() {
    // `/node` and `/store/digest` are retired: a plain 404 on a storeless
    // node and on one with a store alike.
    assert_retired(
        "peer",
        &["/node".to_string(), "/store/digest".to_string()],
        &[b""],
    );
}

#[test]
fn slow_loris_is_cut_off_by_the_read_budget() {
    // A short whole-request read budget: the trickling client is cut off
    // with 408 within the budget, not per-byte-refreshed forever.
    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        read_budget: Duration::from_millis(300),
        faults: Arc::new(FaultPlan::inert()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Trickle one byte every 50 ms: each write alone beats a naive
    // per-read timeout, but the whole-request budget still expires.
    let head = b"GET /healthz HTTP/1.1\r\n";
    let mut cut_off = None;
    for (i, byte) in head.iter().cycle().take(200).enumerate() {
        if stream.write_all(&[*byte]).is_err() {
            cut_off = Some(i);
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
        // Poll for an early response without blocking the trickle.
        if i == 0 {
            stream
                .set_read_timeout(Some(Duration::from_millis(1)))
                .unwrap();
        }
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) | Ok(_) => {
                cut_off = Some(i);
                break;
            }
            Err(_) => {}
        }
    }
    let elapsed = started.elapsed();
    assert!(cut_off.is_some(), "server never cut off the slow client");
    assert!(
        elapsed < Duration::from_secs(5),
        "cut-off took {elapsed:?}, budget was 300ms"
    );
    // The cut-off is a valid 408, not a silent drop.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "expected 408, got {response:.60?}"
    );
    assert!(healthy(addr));
    server.shutdown();
}
