//! End-to-end tests of `POST /batch` — the parameter-grid fan-out that
//! rides the dee-serve worker pool.
//!
//! The contract mirrors the sweep pool's: a batch response is a pure
//! function of the request. Cells stream back in deterministic grid
//! order (workloads × models × ets), each cell's `result` payload is
//! byte-identical to what `POST /simulate` returns for the same point,
//! cache accounting is exact, oversized grids are shed with 503 before
//! any work runs, and an injected fault spoils exactly its own cell.

mod support;

use std::sync::Arc;

use dee::serve::{FaultPlan, FaultSite, FaultSpec, Json, Server, ServerConfig};
use support::{get, post, scrape};

fn spawn(workers: usize) -> Server {
    Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        ..ServerConfig::default()
    })
    .expect("bind on port 0")
}

fn batch_results(body: &str) -> Vec<Json> {
    let json = dee::serve::json::parse(body).expect("valid batch json");
    json.get("results")
        .and_then(Json::as_arr)
        .expect("results array")
        .to_vec()
}

fn member_str(cell: &Json, key: &str) -> String {
    cell.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("cell missing `{key}`: {cell}"))
        .to_string()
}

#[test]
fn batch_streams_cells_in_grid_order_and_matches_simulate() {
    let server = spawn(4);
    let addr = server.addr();
    let (status, body) = post(
        addr,
        "/batch",
        r#"{"workloads":["compress","xlisp"],"scale":"tiny","models":["DEE-CD-MF","SP"],"ets":[16,48]}"#,
    );
    assert_eq!(status, 200, "{body}");
    let json = dee::serve::json::parse(&body).expect("valid json");
    assert_eq!(json.get("cells").and_then(Json::as_u64), Some(8));
    let results = batch_results(&body);
    assert_eq!(results.len(), 8);

    // Grid order: workloads outermost, then models, then ets.
    let mut expected_order = Vec::new();
    for workload in ["compress", "xlisp"] {
        for model in ["DEE-CD-MF", "SP"] {
            for et in [16u64, 48] {
                expected_order.push((workload.to_string(), model.to_string(), et));
            }
        }
    }
    let got_order: Vec<(String, String, u64)> = results
        .iter()
        .map(|cell| {
            (
                member_str(cell, "workload"),
                member_str(cell, "model"),
                cell.get("et").and_then(Json::as_u64).expect("et"),
            )
        })
        .collect();
    assert_eq!(got_order, expected_order);

    // Every cell's `result` is byte-identical to the /simulate payload
    // for the same point (same server, so the same prepared trace).
    for (cell, (workload, model, et)) in results.iter().zip(&expected_order) {
        let (status, body) = post(
            addr,
            "/simulate",
            &format!(r#"{{"workload":"{workload}","scale":"tiny","model":"{model}","et":{et}}}"#),
        );
        assert_eq!(status, 200, "{body}");
        let simulate = dee::serve::json::parse(&body).unwrap();
        let direct = simulate.get("results").and_then(Json::as_arr).unwrap()[0].to_string();
        let batched = cell.get("result").expect("result member").to_string();
        assert_eq!(batched, direct, "{workload}/{model}/{et}");
    }
    server.shutdown();
}

#[test]
fn batch_cache_accounting_is_exact() {
    let server = spawn(2);
    let addr = server.addr();
    // One workload, four E_T points, one model: one prepare, three hits.
    // Preparation is single-flight, so the split is exact no matter how
    // cells interleave across the worker pool.
    let (status, body) = post(
        addr,
        "/batch",
        r#"{"workloads":["compress"],"scale":"tiny","models":["DEE-CD-MF"],"ets":[4,8,16,32]}"#,
    );
    assert_eq!(status, 200, "{body}");
    let json = dee::serve::json::parse(&body).unwrap();
    let cache = json.get("cache").expect("cache object");
    assert_eq!(
        cache.get("misses").and_then(Json::as_u64),
        Some(1),
        "{body}"
    );
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(3), "{body}");
    let results = batch_results(&body);
    let miss_cells = results
        .iter()
        .filter(|c| c.get("cache").and_then(Json::as_str) == Some("miss"))
        .count();
    assert_eq!(miss_cells, 1, "{body}");

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(scrape(&metrics, "dee_batch_requests_total"), 1);
    assert_eq!(scrape(&metrics, "dee_batch_cells_total"), 4);
    assert_eq!(scrape(&metrics, "dee_prepared_cache_misses_total"), 1);
    assert_eq!(scrape(&metrics, "dee_prepared_cache_hits_total"), 3);
    server.shutdown();
}

#[test]
fn oversized_batch_is_shed_before_any_work() {
    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        max_batch_cells: 4,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    // 1 workload × 8 default models × 1 default E_T = 8 cells > 4.
    let (status, body) = post(addr, "/batch", r#"{"workloads":["compress"]}"#);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("batch too large"), "{body}");

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(scrape(&metrics, "dee_batch_rejected_oversize_total"), 1);
    // Nothing was prepared or simulated for the shed batch.
    assert_eq!(scrape(&metrics, "dee_batch_cells_total"), 0);
    assert_eq!(scrape(&metrics, "dee_prepared_cache_misses_total"), 0);

    // A grid that fits still goes through on the same server.
    let (status, body) = post(
        addr,
        "/batch",
        r#"{"workloads":["compress"],"models":["SP","DEE"],"ets":[16]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(batch_results(&body).len(), 2);
    server.shutdown();
}

#[test]
fn injected_fault_spoils_exactly_one_cell() {
    // One worker and no helpers: the handler drains cells in index order,
    // so the fuse-limited prepare fault deterministically hits cell 0.
    let faults = FaultPlan::new(0xC4A05)
        .arm(
            FaultSite::TracePrepare,
            FaultSpec {
                error_ppm: 1_000_000,
                ..FaultSpec::default()
            },
        )
        .with_fuse(1);
    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        faults: Arc::new(faults),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let (status, body) = post(
        addr,
        "/batch",
        r#"{"workloads":["compress"],"scale":"tiny","models":["SP","EE","DEE"],"ets":[16]}"#,
    );
    // The batch as a whole still succeeds: one cell carries `error`,
    // every other cell carries a real `result`.
    assert_eq!(status, 200, "{body}");
    let results = batch_results(&body);
    assert_eq!(results.len(), 3);
    assert!(results[0].get("error").is_some(), "{body}");
    assert!(results[0].get("result").is_none(), "{body}");
    for cell in &results[1..] {
        assert!(cell.get("result").is_some(), "{body}");
        assert!(cell.get("error").is_none(), "{body}");
    }
    // The spoiled cell keeps its identity, so a sweep driver can retry it.
    assert_eq!(member_str(&results[0], "workload"), "compress");
    assert_eq!(member_str(&results[0], "model"), "SP");
    server.shutdown();
}
