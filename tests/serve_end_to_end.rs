//! End-to-end tests of the `dee-serve` subsystem over real sockets.
//!
//! The load-bearing property: concurrent server responses are *byte-
//! identical* to what a direct, single-threaded call into the simulation
//! stack produces. The worker pool, queue, and cache must be transparent
//! to results.

mod support;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

use dee::ilpsim::{simulate, Model, PreparedTrace, SimConfig};
use dee::serve::{outcome_json, tree_json, Json, Server, ServerConfig, ROUTES};
use dee::theory::{StaticTree, TreeParams};
use dee::workloads::Scale;
use support::{exchange, get, post, scrape};

fn spawn(workers: usize) -> Server {
    Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        ..ServerConfig::default()
    })
    .expect("bind on port 0")
}

#[test]
fn healthz_responds() {
    let server = spawn(2);
    let (status, body) = get(server.addr(), "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    server.shutdown();
}

#[test]
fn concurrent_simulate_matches_direct_results_byte_for_byte() {
    let server = spawn(4);
    let addr = server.addr();

    // Expected payloads, computed directly and single-threaded.
    let expected: Vec<String> = [("compress", 16u32), ("xlisp", 48u32)]
        .iter()
        .map(|&(name, et)| {
            let workload = match name {
                "compress" => dee::workloads::compress::build(Scale::Tiny),
                _ => dee::workloads::xlisp::build(Scale::Tiny),
            };
            let trace = workload.capture_trace().unwrap();
            let prepared = PreparedTrace::new(&workload.program, &trace);
            let outcome = simulate(
                &prepared,
                &SimConfig::new(Model::DeeCdMf, et).with_p(prepared.accuracy()),
            );
            outcome_json(&outcome).to_string()
        })
        .collect();

    // 16 concurrent clients alternating between the two requests.
    let handles: Vec<_> = (0..16)
        .map(|i| {
            let expected = expected[i % 2].clone();
            std::thread::spawn(move || {
                let (name, et) = if i % 2 == 0 {
                    ("compress", 16)
                } else {
                    ("xlisp", 48)
                };
                let body = format!(
                    r#"{{"workload":"{name}","scale":"tiny","model":"DEE-CD-MF","et":{et}}}"#
                );
                let (status, response) = post(addr, "/simulate", &body);
                assert_eq!(status, 200, "{response}");
                let json = dee::serve::json::parse(&response).expect("valid json");
                let results = json.get("results").and_then(Json::as_arr).expect("results");
                assert_eq!(results.len(), 1);
                assert_eq!(results[0].to_string(), expected, "client {i}");
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client");
    }

    // 2 distinct cache keys for 16 requests; preparation is single-flight,
    // so exactly 2 misses regardless of interleaving.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let hits = scrape(&metrics, "dee_prepared_cache_hits_total");
    let misses = scrape(&metrics, "dee_prepared_cache_misses_total");
    assert_eq!((hits, misses), (14, 2), "{metrics}");
    server.shutdown();
}

#[test]
fn tree_endpoint_matches_direct_build() {
    let server = spawn(2);
    let (status, body) = post(server.addr(), "/tree", r#"{"p":0.9053,"et":100}"#);
    assert_eq!(status, 200);
    let expected = tree_json(&StaticTree::build(TreeParams { p: 0.9053, et: 100 })).to_string();
    assert_eq!(body, expected);
    server.shutdown();
}

#[test]
fn analyze_endpoint_matches_direct_plan() {
    let server = spawn(2);
    let (status, body) = post(
        server.addr(),
        "/analyze",
        r#"{"workload":"compress","scale":"tiny"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let json = dee::serve::json::parse(&body).unwrap();
    let w = dee::workloads::WorkloadRegistry::builtin()
        .build("compress", Scale::Tiny)
        .unwrap();
    let plan = dee::analyze::SpeculationPlan::build(&w.program);
    assert_eq!(
        json.get("num_branches").and_then(Json::as_u64).unwrap(),
        plan.branches.len() as u64
    );
    assert_eq!(
        json.get("program_digest").and_then(Json::as_str).unwrap(),
        format!("{:#018x}", plan.program_digest)
    );
    let acc = json
        .get("expected_accuracy")
        .and_then(Json::as_f64)
        .unwrap();
    assert!((acc - plan.expected_accuracy).abs() < 1e-9);
    assert_eq!(
        json.get("plan_bytes").and_then(Json::as_u64).unwrap(),
        plan.to_bytes().len() as u64
    );
    server.shutdown();
}

#[test]
fn analyze_endpoint_plans_uploads_and_rejects_dirty_ones() {
    let server = spawn(2);
    let addr = server.addr();
    // A clean upload gets a plan without executing anything.
    let (status, body) = post(
        addr,
        "/analyze",
        r#"{"program":"li r1, 3\nloop: addi r1, r1, -1\nbne r1, r0, loop\nout r1\nhalt\n"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let json = dee::serve::json::parse(&body).unwrap();
    assert_eq!(json.get("num_branches").and_then(Json::as_u64), Some(1));
    // The loop-back branch is predicted taken by the heuristics.
    let branches = match json.get("branches") {
        Some(Json::Arr(items)) => items,
        other => panic!("branches array, got {other:?}"),
    };
    let prob = branches[0]
        .get("taken_prob")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(prob > 0.5, "loop-back predicted taken, got {prob}");
    // The same static-analysis gate as /simulate: dirty uploads are 422
    // with their DEE-E* codes, syntax errors 400.
    let (status, body) = post(
        addr,
        "/analyze",
        r#"{"program":"sw r1, 99999999(r0)\nhalt\n"}"#,
    );
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("DEE-E"), "{body}");
    assert_eq!(post(addr, "/analyze", r#"{"program":"frob r1"}"#).0, 400);
    assert_eq!(get(addr, "/analyze").0, 405);
    server.shutdown();
}

#[test]
fn levo_endpoint_runs_a_workload() {
    let server = spawn(2);
    let (status, body) = post(
        server.addr(),
        "/levo",
        r#"{"workload":"xlisp","scale":"tiny"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let json = dee::serve::json::parse(&body).unwrap();
    assert!(json.get("cycles").and_then(Json::as_u64).unwrap() > 0);
    assert!(json.get("output_checksum").and_then(Json::as_str).is_some());
    server.shutdown();
}

#[test]
fn bad_requests_get_4xx_not_hangs() {
    let server = spawn(2);
    let addr = server.addr();
    assert_eq!(post(addr, "/simulate", "not json").0, 400);
    assert_eq!(post(addr, "/simulate", r#"{"workload":"nope"}"#).0, 400);
    assert_eq!(post(addr, "/nowhere", "{}").0, 404);
    assert_eq!(get(addr, "/simulate").0, 405);
    server.shutdown();
}

#[test]
fn every_route_answers_its_method_and_405s_any_other_and_the_banner_lists_it() {
    let server = spawn(2);
    let addr = server.addr();
    let status = |method: &str, path: &str| {
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: 2\r\n\
             Connection: close\r\n\r\n{{}}"
        );
        exchange(addr, raw.as_bytes()).0
    };
    for &(method, path) in ROUTES {
        assert_ne!(status(method, path), 404, "{method} {path}");
        for other in ["GET", "POST", "PUT", "DELETE"] {
            if other != method {
                assert_eq!(status(other, path), 405, "{other} {path}");
            }
        }
    }
    server.shutdown();

    // The `dee serve` banner names every route, grouped by method.
    let mut child = Command::new(env!("CARGO_BIN_EXE_dee"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn dee serve");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read banner");
    child.kill().ok();
    child.wait().ok();
    let listed = banner
        .split_once("endpoints: ")
        .and_then(|(_, rest)| rest.split_once(';'))
        .map_or("", |(routes, _)| routes);
    let mut named = Vec::new();
    for group in listed.split(", ") {
        let mut words = group.split_whitespace();
        let method = words.next().unwrap_or_default();
        named.extend(words.map(|path| (method, path)));
    }
    assert_eq!(named, ROUTES, "banner: {banner}");
}

#[test]
fn phase_histograms_count_one_observation_per_request() {
    let server = spawn(2);
    let addr = server.addr();
    // API requests whose body reaches the JSON decoder, with the status
    // each gets; an empty body decodes as `{}`.
    let decoded = [
        ("/tree", r#"{"p":0.9,"et":8}"#, 200),
        ("/simulate", "{not json", 400),
        ("/simulate", r#"{"workload":"nope"}"#, 400),
        ("/levo", "", 400),
    ];
    for (path, body, status) in decoded {
        assert_eq!(post(addr, path, body).0, status, "{path} {body:?}");
    }
    // Requests that never reach the decoder.
    assert_eq!(get(addr, "/healthz").0, 200);
    assert_eq!(get(addr, "/simulate").0, 405);
    assert_eq!(post(addr, "/nowhere", "{}").0, 404);
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let count = |phase: &str| {
        scrape(
            &metrics,
            &format!("dee_phase_us_count{{phase=\"{phase}\"}}"),
        )
    };
    assert_eq!(count("serve.parse"), decoded.len() as u64, "{metrics}");
    // Every body that decoded is rendered once, the malformed one is not.
    assert_eq!(count("serve.render"), decoded.len() as u64 - 1, "{metrics}");
    // Every connection waits in the queue once, this scrape included.
    assert_eq!(
        count("serve.queue_wait"),
        decoded.len() as u64 + 4,
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn simulate_times_its_lookup_or_miss_and_its_models_once_per_request() {
    let server = spawn(2);
    let addr = server.addr();
    let body = r#"{"workload":"xlisp","scale":"tiny","model":"SP","et":8}"#;
    for cache in ["miss", "hit"] {
        let (status, response) = post(addr, "/simulate", body);
        assert_eq!(status, 200, "{response}");
        assert!(
            response.contains(&format!(r#""cache":"{cache}""#)),
            "{response}"
        );
    }
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let count = |phase: &str| {
        scrape(
            &metrics,
            &format!("dee_phase_us_count{{phase=\"{phase}\"}}"),
        )
    };
    assert_eq!(count("serve.miss"), 1, "{metrics}");
    assert_eq!(count("serve.lookup"), 1, "{metrics}");
    assert_eq!(count("ilpsim.simulate"), 2, "{metrics}");
    server.shutdown();
}

/// An upload's miss times its lint gate, capture and prepare once each;
/// a hit adds to none of them, and a registry workload is not linted.
#[test]
fn an_upload_miss_times_its_gate_capture_and_prepare_once() {
    let server = spawn(2);
    let addr = server.addr();
    let upload = r#"{"program":"li r1, 3\nout r1\nhalt\n","model":"SP","et":8}"#;
    let registry = r#"{"workload":"xlisp","scale":"tiny","model":"SP","et":8}"#;
    let counts = || {
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        ["analyze.gate", "vm.capture", "ilpsim.prepare"].map(|phase| {
            scrape(
                &metrics,
                &format!("dee_phase_us_count{{phase=\"{phase}\"}}"),
            )
        })
    };
    let (status, response) = post(addr, "/simulate", upload);
    assert_eq!(status, 200, "{response}");
    assert!(response.contains(r#""cache":"miss""#), "{response}");
    assert_eq!(counts(), [1, 1, 1]);
    // The same upload hits: nothing captured or prepared, and its lint
    // is no part of a miss.
    let (status, response) = post(addr, "/simulate", upload);
    assert_eq!(status, 200, "{response}");
    assert!(response.contains(r#""cache":"hit""#), "{response}");
    assert_eq!(counts(), [1, 1, 1]);
    // A registry workload's miss captures and prepares, and is not linted;
    // its hit adds nothing.
    for cache in ["miss", "hit"] {
        let (status, response) = post(addr, "/simulate", registry);
        assert_eq!(status, 200, "{response}");
        assert!(
            response.contains(&format!(r#""cache":"{cache}""#)),
            "{response}"
        );
    }
    assert_eq!(counts(), [1, 2, 2]);
    server.shutdown();
}

#[test]
fn saturated_queue_sheds_load_with_503() {
    // No workers: accepted jobs stay queued, so with capacity 1 the second
    // concurrent request must be refused with 503 before queueing.
    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 0,
        queue_capacity: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Fills the queue: connect and send, but nobody will serve it.
    let mut parked = TcpStream::connect(addr).expect("connect");
    parked
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send");
    // Wait until the accept thread has queued the first connection.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (status, body) = get(addr, "/healthz");
        if status == 503 {
            assert!(body.contains("queue full"), "{body}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never saw 503, last status {status}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Shutdown answers the still-parked job with 503 (no workers remain).
    server.shutdown();
    let mut response = String::new();
    parked
        .read_to_string(&mut response)
        .expect("drained response");
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
}

#[test]
fn graceful_shutdown_completes_queued_work() {
    let server = spawn(2);
    let addr = server.addr();
    // Issue a request, then shut down; both must complete cleanly.
    let client = std::thread::spawn(move || post(addr, "/tree", r#"{"et":50}"#));
    let (status, _) = client.join().expect("client");
    assert_eq!(status, 200);
    server.shutdown();
    // The port is released: a fresh bind to the same address succeeds.
    assert!(std::net::TcpListener::bind(addr).is_ok());
}
