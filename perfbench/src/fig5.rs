//! `fig5-medium`: Figure 5 at medium scale — the paper's main experiment
//! and the target of `simulate` speed work.
//!
//! The five paper workloads get one prepared trace each, shared by their
//! cells: 7 constrained models × 6 `E_T` values plus one oracle cell per
//! workload, 215 `simulate` calls, run serially as `fig5 medium --jobs 1`
//! runs them. Every pass rebuilds the CSV rows `fig5` writes and
//! byte-compares them with the committed `results/fig5_medium.csv`. The
//! paper workloads' inputs are fixed, so `--seed` changes nothing here;
//! no store is used, so a store change must not move these numbers.

use std::time::Instant;

use dee_bench::{Suite, FIG5_RESOURCES};
use dee_ilpsim::{harmonic_mean, simulate, Model, PreparedTrace, ProbSource, SimConfig};
use dee_vm::{Engine, DEFAULT_CHUNK_RECORDS};
use dee_workloads::{all_workloads, Scale};

use crate::trace::{order, PassStats, SpanLog, Tracer};
use crate::{best, keep_best, median, peak_rss_mib, quantile, secs, traced_suite, Args, Outcome};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Fewest timed passes per run.
const MIN_PASSES: usize = 3;

struct Setup {
    suite: Suite,
    golden: String,
}

/// Builds the suite (lint gate + validated capture) and reads the golden.
/// Traced, the suite is built through `traced_suite`, which makes the
/// calls of `Suite::from_workloads` one by one, each in a span.
fn setup(scale: Scale, tracer: &mut Tracer, tamper: bool) -> Result<Setup, String> {
    let workloads = all_workloads(scale);
    let suite = if tracer.is_on() {
        traced_suite(workloads, scale, None, tracer)?
    } else {
        Suite::from_workloads(workloads, scale, None, Engine::default())
    };
    let path = format!("results/fig5_{}.csv", format!("{scale:?}").to_lowercase());
    let mut golden =
        std::fs::read_to_string(&path).map_err(|e| format!("reading golden {path}: {e}"))?;
    if tamper {
        // Change the last digit of the last row.
        let at = golden.trim_end().len() - 1;
        let digit = if golden.as_bytes()[at] == b'0' {
            "1"
        } else {
            "0"
        };
        golden.replace_range(at..=at, digit);
    }
    Ok(Setup { suite, golden })
}

/// One timed pass and what it produced.
struct Pass {
    wall_s: f64,
    csv: String,
    cells: u64,
    records: u64,
    mispredicts: u64,
}

/// Accuracy, prepare and the 215 cells in `fig5`'s order, then the CSV
/// rows `fig5` writes (built after the clock stops). Each cell's
/// `simulate` latency is appended to `cell_ms`.
fn run_pass(suite: &Suite, tracer: &mut Tracer, cell_ms: &mut Vec<f64>) -> Pass {
    let start = Instant::now();
    let p = tracer.span("ilpsim.characteristic_accuracy", 0, || {
        suite.characteristic_accuracy_probs(ProbSource::Predictor)
    });
    let prepared: Vec<PreparedTrace> = suite
        .entries
        .iter()
        .enumerate()
        .map(|(b, e)| {
            tracer.span("ilpsim.prepare", b as u64, || {
                e.prepare_probs(DEFAULT_CHUNK_RECORDS, ProbSource::Predictor)
            })
        })
        .collect();
    let num_b = suite.entries.len();
    let models = Model::all_constrained();
    let mut cells: Vec<(usize, Model, SimConfig)> = (0..num_b)
        .map(|b| (b, Model::Oracle, SimConfig::new(Model::Oracle, 0)))
        .collect();
    for b in 0..num_b {
        for model in models {
            for &et in &FIG5_RESOURCES {
                cells.push((b, model, SimConfig::new(model, et).with_p(p)));
            }
        }
    }
    let mut speedups = Vec::with_capacity(cells.len());
    let (mut records, mut mispredicts) = (0u64, 0u64);
    for (i, (b, model, config)) in cells.iter().enumerate() {
        let name = format!("ilpsim.simulate.{}", model.name());
        let t = Instant::now();
        let outcome = tracer.span(&name, i as u64, || simulate(&prepared[*b], config));
        cell_ms.push(secs(t) * 1e3);
        records += prepared[*b].len() as u64;
        mispredicts += outcome.mispredicts;
        speedups.push(outcome.speedup());
    }
    let wall_s = secs(start);

    // `fig5`'s CSV: per-benchmark rows, harmonic-mean rows, oracle rows.
    let mut csv = String::from("benchmark,model,et,speedup\n");
    let per_bench = models.len() * FIG5_RESOURCES.len();
    let at = |b: usize, mi: usize, ei: usize| {
        speedups[num_b + b * per_bench + mi * FIG5_RESOURCES.len() + ei]
    };
    for (b, entry) in suite.entries.iter().enumerate() {
        for (mi, model) in models.iter().enumerate() {
            for (ei, et) in FIG5_RESOURCES.iter().enumerate() {
                csv.push_str(&format!(
                    "{},{},{et},{:.4}\n",
                    entry.workload.name,
                    model.name(),
                    at(b, mi, ei)
                ));
            }
        }
    }
    for (mi, model) in models.iter().enumerate() {
        for (ei, et) in FIG5_RESOURCES.iter().enumerate() {
            let values: Vec<f64> = (0..num_b).map(|b| at(b, mi, ei)).collect();
            csv.push_str(&format!(
                "harmonic-mean,{},{et},{:.4}\n",
                model.name(),
                harmonic_mean(&values)
            ));
        }
    }
    for (b, entry) in suite.entries.iter().enumerate() {
        csv.push_str(&format!(
            "{},Oracle,0,{:.4}\n",
            entry.workload.name, speedups[b]
        ));
    }
    Pass {
        wall_s,
        csv,
        cells: cells.len() as u64,
        records,
        mispredicts,
    }
}

/// Checks a pass's rows against the golden (one check per row) and its
/// counts against the first pass's.
fn check_pass(out: &mut Outcome, golden: &str, pass: &Pass, first: &mut Option<[u64; 3]>) {
    let rows: Vec<&str> = pass.csv.lines().collect();
    let want: Vec<&str> = golden.lines().collect();
    out.check(rows.len() == want.len(), || {
        format!(
            "fig5 produced {} rows, golden has {}",
            rows.len(),
            want.len()
        )
    });
    for (row, golden_row) in rows.iter().zip(&want) {
        out.check(row == golden_row, || {
            format!("fig5 row {row:?} != golden {golden_row:?}")
        });
    }
    out.check(pass.csv == golden, || {
        "fig5 CSV is not byte-identical to the golden".into()
    });
    let counts = [pass.cells, pass.records, pass.mispredicts];
    let expected = *first.get_or_insert(counts);
    out.check(counts == expected, || {
        format!("pass counts {counts:?} differ from the first pass's {expected:?}")
    });
}

fn report_counts(out: &mut Outcome, first: Option<[u64; 3]>) {
    let [cells, records, mispredicts] = first.unwrap_or_default();
    out.count("ilpsim.cells", cells);
    out.count("ilpsim.records_simulated", records);
    out.count("ilpsim.mispredicts", mispredicts);
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let scale = if args.toy { Scale::Tiny } else { Scale::Medium };
    let mut out = Outcome::default();
    let mut first = None;
    if !args.traced {
        let mut setup_s = Vec::new();
        let mut state = None;
        for _ in 0..SETUPS {
            drop(state.take());
            let t = Instant::now();
            state = Some(setup(scale, &mut Tracer::new(false), args.tamper)?);
            setup_s.push(secs(t));
        }
        let state = state.expect("at least one set-up");
        let (mut walls, mut cell_ms, mut peak_rss) = (Vec::new(), Vec::new(), None);
        while walls.len() < MIN_PASSES || walls.iter().sum::<f64>() < args.seconds {
            let mut pass_ms = Vec::new();
            let pass = run_pass(&state.suite, &mut Tracer::new(false), &mut pass_ms);
            check_pass(&mut out, &state.golden, &pass, &mut first);
            walls.push(pass.wall_s);
            keep_best(&mut cell_ms, &pass_ms);
            peak_rss.get_or_insert_with(peak_rss_mib);
        }
        let run_s = best(&walls);
        let [cells, records, _] = first.expect("at least one pass");
        out.set("setup_s", median(&setup_s));
        out.set("run_s", run_s);
        out.set("sim_minstr_per_s", records as f64 / run_s / 1e6);
        out.set("peak_rss_mib", peak_rss.expect("at least one pass"));
        out.set("req_per_s", cells as f64 / run_s);
        out.set("p50_ms", quantile(&cell_ms, 0.50));
        out.set("p99_ms", quantile(&cell_ms, 0.99));
        out.notes.push(format!(
            "fig5 at {scale:?}: best of {} passes, {cells} cells each; p50/p99 over the {} cells' best latencies",
            walls.len(),
            cell_ms.len()
        ));
    } else {
        let mut log = SpanLog::new();
        let mut setup_tracer = Tracer::new(true);
        let state = setup(scale, &mut setup_tracer, args.tamper)?;
        log.add("setup", &setup_tracer);
        let captured: usize = state.suite.entries.iter().map(|e| e.trace.len()).sum();
        let capture_ms = setup_tracer.total_ms("vm.capture");
        let mut stats = PassStats::default();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        while traced.len() < 2 || plain.iter().chain(&traced).sum::<f64>() < args.seconds {
            for on in order(traced.len()) {
                let mut tracer = Tracer::new(on);
                let pass = run_pass(&state.suite, &mut tracer, &mut Vec::new());
                check_pass(&mut out, &state.golden, &pass, &mut first);
                if on {
                    traced.push(pass.wall_s);
                    stats.push_pass(&tracer);
                    log.add(&format!("pass{}", traced.len()), &tracer);
                } else {
                    plain.push(pass.wall_s);
                }
            }
        }
        for name in stats.names() {
            out.set(name, stats.median(name));
        }
        // Prepare streams every captured record once per pass.
        out.set(
            "ilpsim.prepare_mrec_per_s",
            captured as f64 / stats.median("ilpsim.prepare_ms") / 1e3,
        );
        out.set("vm.capture_ms", capture_ms);
        out.set("vm.capture_mrec_per_s", captured as f64 / capture_ms / 1e3);
        out.set("analyze.gate_ms", setup_tracer.total_ms("analyze.gate"));
        out.set(
            "trace.overhead_ms",
            (median(&traced) - median(&plain)) * 1e3,
        );
        let path = log
            .write(&args.workload, args.seed)
            .map_err(|e| e.to_string())?;
        out.notes.push(format!("spans written to {path}"));
    }
    report_counts(&mut out, first);
    Ok(out)
}
