//! The benchmark's own smoke test, at toy size: fig5 at `tiny` against
//! `results/fig5_tiny.csv`, a 2-program corpus, and about 50 requests.
//! Every metric `BENCHMARK.json` names must print with its unit, and a
//! tampered expected output or stored artifact must fail the run.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use dee_serve::json::parse;
use dee_serve::Json;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn manifest() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, field)` of every entry in a `BENCHMARK.json` section.
fn entries(manifest: &Json, section: &str, field: &str) -> Vec<(String, String)> {
    manifest
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{section} is an array"))
        .iter()
        .map(|m| {
            let get = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (get("name"), get(field))
        })
        .collect()
}

/// Runs one toy-size workload with `extra` flags; returns whether it
/// exited 0 and its last stdout line.
fn run(workload: &str, traced: bool, extra: &[&str]) -> (bool, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dee-perfbench"));
    cmd.current_dir(repo_root()).args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.1",
        "--trace",
        if traced { "1" } else { "0" },
        "--toy",
    ]);
    cmd.args(extra);
    let out = cmd.output().expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

#[test]
fn every_metric_prints_with_its_unit() {
    let manifest = manifest();
    let workloads = entries(&manifest, "workloads", "why");
    assert_eq!(workloads.len(), 3);
    for (section, traced) in [("end_to_end", false), ("per_layer", true)] {
        let wanted = entries(&manifest, section, "unit");
        for (workload, _) in &workloads {
            let (ok, last) = run(workload, traced, &[]);
            assert!(ok, "{workload} (traced: {traced}) failed: {last}");
            let result = parse(&last).expect("the last line is JSON");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            let metrics = result.get("metrics").expect("metrics");
            let Json::Obj(members) = metrics else {
                panic!("metrics is an object")
            };
            assert_eq!(
                members.len(),
                wanted.len(),
                "{workload}: exactly the {section} metrics"
            );
            for (name, unit) in &wanted {
                let metric = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(unit.as_str())
                );
                let value = metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if !traced {
                    assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
                }
            }
        }
    }
}

fn assert_fails(workload: &str, traced: bool, flag: &str) {
    let (ok, last) = run(workload, traced, &[flag]);
    assert!(!ok, "{workload} (traced: {traced}) passed with {flag}");
    let result = parse(&last).expect("the last line is JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
}

#[test]
fn tampered_expectations_fail_the_run() {
    for (workload, _) in entries(&manifest(), "workloads", "why") {
        assert_fails(&workload, false, "--tamper");
    }
}

/// The suite loader heals a replayed trace with the wrong content by
/// quarantining and recapturing it, so every cell still matches; the
/// store's counters must catch it.
#[test]
fn a_wrong_artifact_fails_gen_replay() {
    for traced in [false, true] {
        assert_fails("gen-replay", traced, "--tamper-artifact");
    }
}
