//! §4 Levo machine evaluation: IPC with and without DEE paths, DEE
//! recovery statistics, loop capture, and IQ geometry sweeps.
//!
//! Reproduces the §4.2 loop-capture observation ("more than 70% of the
//! conditional-backwards-branch-formed dynamic loops' executions fit in an
//! IQ of length 32") and quantifies what the DEE columns buy the machine
//! model — every configuration is validated to produce bit-identical
//! program output.
//!
//! Usage: `levo_eval [tiny|small|medium|large] [--jobs N] [--probs predictor|trace|static] [--max-rss BYTES]`
//! (default small; Levo is a detailed model, so large scales take a while).
//! Levo's per-row predictors are execution-driven, so `--probs` does not
//! reshape the machine; `--probs static` appends a static-plan preview
//! table (expected accuracy and the E_T = 32 tree shape the plan would
//! pick) for comparison against the measured machine, and `--probs trace`
//! previews the trace-oracle majority-direction accuracy the same way.

use dee_analyze::SpeculationPlan;
use dee_bench::{
    enforce_max_rss, f2, pct, pool, trace_direction_counts, Arg, SweepArgs, TextTable,
};
use dee_core::{StaticTree, TreeParams};
use dee_ilpsim::{DirectionPredictor, ProbSource};
use dee_levo::{Levo, LevoConfig};
use dee_workloads::{all_workloads, Workload};

/// Runs one Levo configuration on one workload and validates its output.
fn run_validated(w: &Workload, config: LevoConfig, what: &str) -> dee_levo::LevoReport {
    let report = Levo::new(config)
        .run(&w.program, &w.initial_memory)
        .unwrap_or_else(|e| panic!("{}: {what} failed: {e}", w.name));
    assert_eq!(
        report.output, w.expected_output,
        "{}: {what} output",
        w.name
    );
    report
}

fn main() {
    let args = SweepArgs::from_env(
        "levo_eval",
        &[Arg::Scale, Arg::Jobs, Arg::Probs, Arg::MaxRss],
    );
    let (scale, jobs, probs) = (args.scale(), args.jobs, args.probs);
    let workloads = all_workloads(scale);

    println!("Levo machine model ({scale:?} scale)\n");
    // One cell per (workload, configuration) — Levo runs dominate this
    // binary's wall-clock, so they all fan through the pool.
    type ConfigMaker = fn() -> LevoConfig;
    let configs: [(&str, ConfigMaker); 3] = [
        ("condel2", LevoConfig::condel2),
        ("3x1", LevoConfig::default),
        ("11x2", LevoConfig::levo_100),
    ];
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for wi in 0..workloads.len() {
        for ci in 0..configs.len() {
            cells.push((wi, ci));
        }
    }
    let flat = pool::run_sweep(
        "levo_eval",
        jobs,
        cells
            .iter()
            .map(|&(wi, ci)| {
                let w = &workloads[wi];
                let (what, make) = configs[ci];
                move || run_validated(w, make(), what)
            })
            .collect(),
    );

    let mut t = TextTable::new(&[
        "benchmark",
        "ipc condel2",
        "ipc 3x1",
        "ipc 11x2",
        "dee-covered",
        "injected",
        "loop capture",
    ]);
    for (wi, w) in workloads.iter().enumerate() {
        let base = &flat[wi * configs.len()];
        let small = &flat[wi * configs.len() + 1];
        let large = &flat[wi * configs.len() + 2];
        let covered = if large.mispredicts == 0 {
            "-".to_string()
        } else {
            pct(large.dee_covered as f64 / large.mispredicts as f64)
        };
        t.row(vec![
            w.name.clone(),
            f2(base.ipc()),
            f2(small.ipc()),
            f2(large.ipc()),
            covered,
            large.dee_injected.to_string(),
            large.loop_capture_rate().map_or("-".into(), pct),
        ]);
    }
    println!("{}", t.render());
    println!("(paper §4.2: >70% of backward-branch loops fit an IQ of 32 rows)\n");

    println!("IQ geometry sweep (xlisp, DEE 3x1):");
    let w = workloads
        .iter()
        .find(|w| w.name == "xlisp")
        .expect("xlisp present");
    let geometries = [(16, 4), (16, 8), (32, 4), (32, 8), (64, 8), (64, 16)];
    let geo_flat = pool::run_sweep(
        "levo_eval_geometry",
        jobs,
        geometries
            .iter()
            .map(|&(n, m)| {
                move || {
                    run_validated(
                        w,
                        LevoConfig {
                            n,
                            m,
                            ..LevoConfig::default()
                        },
                        "geometry",
                    )
                }
            })
            .collect(),
    );
    let mut g = TextTable::new(&["n x m", "ipc", "window shifts", "squashed"]);
    for (&(n, m), report) in geometries.iter().zip(&geo_flat) {
        g.row(vec![
            format!("{n}x{m}"),
            f2(report.ipc()),
            report.window_shifts.to_string(),
            report.squashed.to_string(),
        ]);
    }
    println!("{}", g.render());

    println!("DEE path count sweep (xlisp, 1-column paths):");
    let path_counts = [0usize, 1, 2, 3, 5, 8, 11];
    let dee_flat = pool::run_sweep(
        "levo_eval_dee_paths",
        jobs,
        path_counts
            .iter()
            .map(|&paths| {
                move || {
                    run_validated(
                        w,
                        LevoConfig {
                            dee_paths: paths,
                            ..LevoConfig::default()
                        },
                        "dee sweep",
                    )
                }
            })
            .collect(),
    );
    let mut d = TextTable::new(&["dee paths", "ipc", "covered mispredicts", "injected"]);
    for (&paths, report) in path_counts.iter().zip(&dee_flat) {
        d.row(vec![
            paths.to_string(),
            f2(report.ipc()),
            report.dee_covered.to_string(),
            report.dee_injected.to_string(),
        ]);
    }
    println!("{}", d.render());

    // Levo's predictors are execution-driven; a non-default probability
    // source is previewed side-by-side instead of reshaping the machine.
    if probs != ProbSource::Predictor {
        println!(
            "Probability-source preview (`{}`): accuracy and E_T = 32 tree shape:",
            probs.name()
        );
        let mut pv = TextTable::new(&["benchmark", "accuracy", "l (main line)", "h_DEE"]);
        for w in &workloads {
            let acc = if probs == ProbSource::Static {
                SpeculationPlan::build(&w.program).expected_accuracy
            } else {
                let trace = w.validate().unwrap_or_else(|e| panic!("{}: {e}", w.name));
                let counts = trace_direction_counts(&trace);
                DirectionPredictor::from_counts(&counts).accuracy_over(&counts)
            };
            let tree = StaticTree::build(TreeParams {
                p: acc.clamp(0.5, 0.9999),
                et: 32,
            });
            pv.row(vec![
                w.name.clone(),
                pct(acc),
                tree.mainline_len().to_string(),
                tree.h_dee().to_string(),
            ]);
        }
        println!("{}", pv.render());
    }

    let path = t.write_scaled_csv("levo_eval", scale).expect("csv");
    println!("wrote {}", path.display());
    enforce_max_rss(args.max_rss);
}
