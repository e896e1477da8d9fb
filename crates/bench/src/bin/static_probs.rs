//! Static vs profiled branch probabilities over the full workload
//! registry: how close does the profile-free speculation plan get to what
//! a trace says, and what does the gap cost DEE?
//!
//! For every builtin registry workload (deterministic by construction —
//! each carries a reference output the VM run is validated against) this
//! binary:
//!
//! 1. builds the static [`SpeculationPlan`] from the program alone;
//! 2. cross-checks it against the trace's per-branch direction counts
//!    with [`verify_plan`] — divergent branches surface as typed
//!    `DEE-W014` diagnostics, never panics;
//! 3. scores all three probability sources with the Brier score (lower is
//!    better; a hard 0/1 predictor's Brier is its mispredict rate):
//!    `static` (plan probabilities), `predictor` (replayed 2-bit
//!    counter), and `trace` (the per-branch empirical oracle — the floor
//!    for any fixed per-branch probability);
//! 4. simulates DEE-CD-MF at `E_T = 32` under each source, reporting the
//!    speedup the static plan gives up (or gains) against the 2-bit
//!    counter.
//!
//! Usage: `static_probs [tiny|small|medium|large] [--jobs N] [--max-rss BYTES]`.
//! Writes `results/static_probs_<scale>.csv`; `results/static_probs_tiny.csv`
//! is a committed golden, byte-identical for any `--jobs` count.

use dee_analyze::plan::DEFAULT_TOLERANCE;
use dee_analyze::{verify_plan, SpeculationPlan};
use dee_bench::{
    enforce_max_rss, f2, pct, pool, prepare_trace_probs, trace_direction_counts, Arg, SweepArgs,
    TextTable,
};
use dee_ilpsim::{simulate, Model, ProbSource, SimConfig};
use dee_predict::{measure_accuracy, TwoBitCounter};
use dee_workloads::WorkloadRegistry;

/// Branch-path resources for the speedup comparison (the Levo IQ-32
/// operating point).
const ET: u32 = 32;

/// One workload's comparison row.
struct Cell {
    name: String,
    branches: usize,
    execs: u64,
    /// Brier scores in source order: static, predictor (2-bit), trace.
    brier: [f64; 3],
    /// Accuracies in the same order (majority mass / measured hit rate).
    accuracy: [f64; 3],
    /// DEE-CD-MF speedups at `E_T` in the same order.
    speedup: [f64; 3],
    weighted_mae: f64,
    max_abs_error: f64,
    divergent: usize,
    diagnostics: Vec<String>,
}

fn main() {
    let args = SweepArgs::from_env("static_probs", &[Arg::Scale, Arg::Jobs, Arg::MaxRss]);
    let scale = args.scale();
    let registry = WorkloadRegistry::builtin();
    let names: Vec<String> = registry.names().iter().map(|s| s.to_string()).collect();
    eprintln!(
        "planning and simulating {} registry workloads at {scale:?}...",
        names.len()
    );

    let sources = [ProbSource::Static, ProbSource::Predictor, ProbSource::Trace];
    let registry_ref = &registry;
    let cells: Vec<Cell> = pool::run_sweep(
        "static_probs",
        args.jobs,
        names
            .iter()
            .map(|name| {
                move || {
                    let w = registry_ref
                        .build(name, scale)
                        .unwrap_or_else(|| panic!("{name}: not in registry"));
                    let trace = w.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
                    let counts = trace_direction_counts(&trace);
                    let execs: u64 = counts.values().map(|c| c.taken + c.not_taken).sum();

                    let plan = SpeculationPlan::build(&w.program);
                    let check = verify_plan(&plan, &counts, DEFAULT_TOLERANCE);

                    // Brier per source. The trace oracle's probabilities
                    // are the empirical rates themselves, so its score is
                    // the irreducible per-branch variance; the 2-bit
                    // counter predicts hard directions, so its score is
                    // exactly its mispredict rate.
                    let two_bit = measure_accuracy(&mut TwoBitCounter::new(), &trace).accuracy();
                    let mut trace_brier_mass = 0.0f64;
                    for c in counts.values() {
                        let n = (c.taken + c.not_taken) as f64;
                        if n == 0.0 {
                            continue;
                        }
                        let p = c.taken as f64 / n;
                        trace_brier_mass +=
                            c.taken as f64 * (p - 1.0).powi(2) + c.not_taken as f64 * p.powi(2);
                    }
                    let trace_brier = if execs == 0 {
                        0.0
                    } else {
                        trace_brier_mass / execs as f64
                    };
                    let mut accuracy = [0.0f64; 3];
                    let mut speedup = [0.0f64; 3];
                    for (i, &probs) in sources.iter().enumerate() {
                        let prepared = prepare_trace_probs(&w.program, &trace, probs);
                        let p = prepared.accuracy().clamp(0.5, 0.9999);
                        accuracy[i] = prepared.accuracy();
                        speedup[i] =
                            simulate(&prepared, &SimConfig::new(Model::DeeCdMf, ET).with_p(p))
                                .speedup();
                    }

                    Cell {
                        name: name.clone(),
                        branches: check.branches_checked,
                        execs,
                        brier: [check.brier, 1.0 - two_bit, trace_brier],
                        accuracy,
                        speedup,
                        weighted_mae: check.weighted_mae,
                        max_abs_error: check.max_abs_error,
                        divergent: check.divergent,
                        diagnostics: check
                            .diagnostics
                            .iter()
                            .map(|d| format!("{name}: {d}"))
                            .collect(),
                    }
                }
            })
            .collect(),
    );
    let _ = trace_acc_guard(&cells); // see fn docs

    println!("Static vs profiled branch probabilities ({scale:?} scale, DEE-CD-MF @ E_T = {ET})\n");
    let mut header = vec!["workload", "branches", "execs"];
    header.extend([
        "brier static",
        "brier 2bc",
        "brier trace",
        "wMAE",
        "max err",
        "divergent",
        "DEE static",
        "DEE 2bc",
        "DEE trace",
        "static/2bc",
    ]);
    let mut t = TextTable::new(&header);
    for cell in &cells {
        t.row(vec![
            cell.name.clone(),
            cell.branches.to_string(),
            cell.execs.to_string(),
            format!("{:.4}", cell.brier[0]),
            format!("{:.4}", cell.brier[1]),
            format!("{:.4}", cell.brier[2]),
            format!("{:.4}", cell.weighted_mae),
            format!("{:.4}", cell.max_abs_error),
            cell.divergent.to_string(),
            f2(cell.speedup[0]),
            f2(cell.speedup[1]),
            f2(cell.speedup[2]),
            f2(cell.speedup[0] / cell.speedup[1]),
        ]);
    }
    println!("{}", t.render());

    println!("Per-source accuracies (static = plan expectation realized on the trace):");
    let mut a = TextTable::new(&["workload", "static", "2bc", "trace oracle"]);
    for cell in &cells {
        a.row(vec![
            cell.name.clone(),
            pct(cell.accuracy[0]),
            pct(cell.accuracy[1]),
            pct(cell.accuracy[2]),
        ]);
    }
    println!("{}", a.render());

    let divergent_total: usize = cells.iter().map(|c| c.divergent).sum();
    if divergent_total == 0 {
        println!(
            "verify_plan: all planned branches within tolerance {DEFAULT_TOLERANCE} on every workload"
        );
    } else {
        println!("verify_plan: {divergent_total} divergent branch(es) beyond tolerance {DEFAULT_TOLERANCE}:");
        for cell in &cells {
            for d in &cell.diagnostics {
                println!("  {d}");
            }
        }
    }

    let path = t.write_scaled_csv("static_probs", scale).expect("csv");
    println!("wrote {}", path.display());
    enforce_max_rss(args.max_rss);
}

/// The trace-oracle Brier must lower-bound the static plan's on every
/// workload (it is the minimum over fixed per-branch probabilities); a
/// violation means a scoring bug, so it is asserted on every run rather
/// than left to tests.
fn trace_acc_guard(cells: &[Cell]) -> usize {
    for cell in cells {
        assert!(
            cell.brier[2] <= cell.brier[0] + 1e-9,
            "{}: trace-oracle Brier {} above static {}",
            cell.name,
            cell.brier[2],
            cell.brier[0]
        );
    }
    cells.len()
}
