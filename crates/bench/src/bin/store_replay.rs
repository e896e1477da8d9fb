//! Engine and replay timings for the trace path: for every workload,
//! time a fresh interpreter capture against the pre-decoded engine and
//! against a streaming replay of the same trace from a `dee-store`
//! container, verifying all three are byte-identical while at it.
//!
//! Usage: `store_replay [tiny|small|medium|large ...] [--store DIR]`.
//! Scale arguments accumulate; without any, the paper-relevant pair
//! (tiny *and* small) is measured. Without `--store` a scratch store
//! under the system temp directory is used and removed at exit.
//!
//! Writes `results/store_replay.csv`. The committed copy of that file
//! carries the speedup numbers measured for the PR that introduced the
//! decoded engine — including the `fig5_sweep` rows, whose `interp_ms`
//! column holds the pre-decoded-engine build's wall clock (see
//! EXPERIMENTS.md §"Engine speedups"). Timings are machine-dependent:
//! regenerating locally overwrites the measured numbers, and CI runs
//! this binary only *after* its golden no-op diff, restoring the
//! committed file afterwards.

use std::sync::atomic::Ordering;
use std::time::Instant;

use dee_bench::{Arg, SweepArgs, TextTable};
use dee_store::{ArtifactKey, Store};
use dee_vm::{output_checksum, Engine, Trace};
use dee_workloads::{all_workloads, Scale, Workload};

/// Best-of-5 wall-clock time of `f`, in milliseconds, along with the
/// last value it produced.
fn best_ms<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..5 {
        let start = Instant::now();
        last = Some(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best, last.expect("ran at least once"))
}

fn capture(workload: &Workload, engine: Engine) -> Trace {
    workload
        .capture_trace_with(engine)
        .unwrap_or_else(|e| panic!("{}: capture failed: {e}", workload.name))
}

fn main() {
    let args = SweepArgs::from_env("store_replay", &[Arg::Scales, Arg::Store]);
    let scales = if args.scales.is_empty() {
        vec![Scale::Tiny, Scale::Small]
    } else {
        args.scales.clone()
    };
    let (store, scratch) = match args.open_store() {
        Some(store) => (store, None),
        None => {
            let dir = std::env::temp_dir().join(format!("dee_store_replay_{}", std::process::id()));
            (Store::open(&dir).expect("open scratch store"), Some(dir))
        }
    };

    let mut table = TextTable::new(&[
        "scale",
        "workload",
        "records",
        "bytes",
        "interp_ms",
        "decoded_ms",
        "engine_speedup",
        "replay_ms",
        "replay_speedup",
    ]);
    for &scale in &scales {
        let tag = format!("{scale:?}").to_ascii_lowercase();
        let mut totals = [0.0f64; 3]; // interp, decoded, replay
        let mut total_records = 0usize;
        let mut total_bytes = 0u64;
        for workload in all_workloads(scale) {
            let (interp_ms, interp) = best_ms(|| capture(&workload, Engine::Interp));
            let (decoded_ms, fresh) = best_ms(|| capture(&workload, Engine::Decoded));

            let key = ArtifactKey::new(
                &workload.name,
                &tag,
                &workload.program.to_listing(),
                &workload.initial_memory,
            );
            let path = store.put(&key, &fresh).expect("publish artifact");
            let bytes = std::fs::metadata(&path).expect("artifact metadata").len();

            let (replay_ms, replayed) = best_ms(|| {
                store
                    .load(&key)
                    .expect("replay artifact")
                    .expect("artifact published")
            });
            // put/load are called directly (not via get_or_record), so
            // feed the timing counters the summary line reports.
            let stats = store.stats();
            stats.disk_hits.fetch_add(1, Ordering::Relaxed);
            stats
                .trace_nanos
                .fetch_add((decoded_ms * 1e6) as u64, Ordering::Relaxed);
            stats
                .replay_nanos
                .fetch_add((replay_ms * 1e6) as u64, Ordering::Relaxed);

            // The invariant the whole path is built on: the decoded
            // engine and a store replay are both byte-identical to the
            // reference interpreter's capture.
            assert_eq!(
                fresh.records(),
                interp.records(),
                "{key}: engines diverge on records"
            );
            assert_eq!(
                fresh.output(),
                interp.output(),
                "{key}: engines diverge on output"
            );
            assert_eq!(
                replayed.records(),
                interp.records(),
                "{key}: records drifted"
            );
            assert_eq!(replayed.output(), interp.output(), "{key}: output drifted");
            assert_eq!(
                output_checksum(replayed.output()),
                output_checksum(fresh.output()),
                "{key}: checksum drifted"
            );

            totals[0] += interp_ms;
            totals[1] += decoded_ms;
            totals[2] += replay_ms;
            total_records += fresh.len();
            total_bytes += bytes;
            table.row(vec![
                tag.clone(),
                workload.name.to_string(),
                fresh.len().to_string(),
                bytes.to_string(),
                format!("{interp_ms:.2}"),
                format!("{decoded_ms:.2}"),
                format!("{:.1}x", interp_ms / decoded_ms.max(1e-6)),
                format!("{replay_ms:.2}"),
                format!("{:.1}x", interp_ms / replay_ms.max(1e-6)),
            ]);
        }
        table.row(vec![
            tag.clone(),
            "(total)".to_string(),
            total_records.to_string(),
            total_bytes.to_string(),
            format!("{:.2}", totals[0]),
            format!("{:.2}", totals[1]),
            format!("{:.1}x", totals[0] / totals[1].max(1e-6)),
            format!("{:.2}", totals[2]),
            format!("{:.1}x", totals[0] / totals[2].max(1e-6)),
        ]);
    }
    println!("Trace path: interpreter vs decoded engine vs store replay");
    println!("{}", table.render());
    let path = table.write_csv("store_replay.csv").expect("csv");
    println!("wrote {}", path.display());
    eprintln!("{}", store.stats().timing_line("store_replay"));
    if let Some(dir) = scratch {
        std::fs::remove_dir_all(dir).ok();
    }
}
