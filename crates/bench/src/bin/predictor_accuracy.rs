//! Branch-predictor accuracy study.
//!
//! Reproduces two of the paper's predictor claims:
//!
//! * §3.1/§5.1 — the characteristic accuracy of the 2-bit saturating
//!   counter scheme (one counter per static branch, initialized weakly
//!   taken) over the benchmark suite; the paper measured an average of
//!   90.53% on SPECint92 and notes "the current best methods have
//!   prediction accuracies of 90 to 96%".
//! * §4.3 — with many unresolved branches per static branch, a counter
//!   that needs each outcome before the next prediction degrades, while
//!   PAp with *speculative* history update holds its accuracy.
//!
//! Usage: `predictor_accuracy [tiny|small|medium|large] [--jobs N] [--workloads LIST] [--probs predictor|trace|static] [--max-rss BYTES]`.

use dee_bench::{pct, Sweep, TextTable, SUITE_ARGS};
use dee_isa::Program;
use dee_predict::{
    measure_accuracy, measure_accuracy_delayed, AlwaysTaken, BranchPredictor, Btfn, Gshare,
    PapAdaptive, TwoBitCounter,
};
use dee_vm::Trace;

/// The predictor column order of the accuracy table.
const KINDS: [&str; 6] = ["always", "btfn", "2bc", "pap", "pap-spec", "gshare"];

fn make_predictor(kind: &str, program: &Program) -> Box<dyn BranchPredictor> {
    match kind {
        "always" => Box::new(AlwaysTaken::new()),
        "btfn" => {
            let branch_targets: Vec<(u32, u32)> = program
                .iter()
                .filter_map(|(pc, i)| {
                    i.static_target()
                        .filter(|_| i.is_cond_branch())
                        .map(|t| (pc, t))
                })
                .collect();
            Box::new(Btfn::new(&branch_targets))
        }
        "2bc" => Box::new(TwoBitCounter::new()),
        "pap" => Box::new(PapAdaptive::with_config(2, false)),
        "pap-spec" => Box::new(PapAdaptive::with_config(2, true)),
        _ => Box::new(Gshare::default()),
    }
}

fn main() {
    let sweep = Sweep::load("predictor_accuracy", SUITE_ARGS);
    let suite = &sweep.suite;

    println!(
        "Predictor accuracy per benchmark ({:?} scale)\n",
        suite.scale
    );
    // The sixth SPECint92 benchmark, excluded by the paper as "more
    // predictable than the others" — shown to reproduce the rationale.
    let sc = dee_workloads::sc::build(suite.scale);
    let sc_trace = sc.validate().unwrap_or_else(|e| panic!("{e}"));
    let mut rows: Vec<(String, &Program, &Trace)> = suite
        .entries
        .iter()
        .map(|e| (e.workload.name.to_string(), &e.workload.program, &e.trace))
        .collect();
    rows.push(("sc (excluded)".to_string(), &sc.program, &sc_trace));

    // One cell per (benchmark, predictor).
    let mut cells: Vec<(usize, &str)> = Vec::new();
    for b in 0..rows.len() {
        for kind in KINDS {
            cells.push((b, kind));
        }
    }
    let flat = sweep.run(
        "predictor_accuracy",
        cells
            .iter()
            .map(|&(b, kind)| {
                let program = rows[b].1;
                let trace = rows[b].2;
                move || measure_accuracy(make_predictor(kind, program).as_mut(), trace).accuracy()
            })
            .collect(),
    );

    let mut header = vec!["benchmark"];
    header.extend(KINDS);
    let mut t = TextTable::new(&header);
    for (b, (name, _, _)) in rows.iter().enumerate() {
        let mut row = vec![name.clone()];
        row.extend(
            flat[b * KINDS.len()..(b + 1) * KINDS.len()]
                .iter()
                .map(|&a| pct(a)),
        );
        t.row(row);
    }
    println!("{}", t.render());
    println!(
        "characteristic `{}` accuracy of the evaluated five (harmonic mean): {}  (paper 2bc: 90.53%)\n",
        sweep.args.probs.name(),
        pct(sweep.p())
    );

    println!("Delayed-resolution accuracy (2bc vs speculative PAp), §4.3:");
    let delays = [0usize, 2, 4, 8, 16, 32];
    let delay_grid = sweep.grid("predictor_delay", &delays, |&delay, b| {
        let trace = &suite.entries[b].trace;
        let c = measure_accuracy_delayed(&mut TwoBitCounter::new(), trace, delay);
        let s = measure_accuracy_delayed(&mut PapAdaptive::with_config(2, true), trace, delay);
        (c.hits, c.branches, s.hits)
    });
    let mut d = TextTable::new(&["delay (branches)", "2bc", "pap-spec"]);
    for (delay, group) in delays.iter().zip(&delay_grid) {
        let counter_hits: u64 = group.iter().map(|c| c.0).sum();
        let counter_total: u64 = group.iter().map(|c| c.1).sum();
        let pap_hits: u64 = group.iter().map(|c| c.2).sum();
        d.row(vec![
            delay.to_string(),
            pct(counter_hits as f64 / counter_total.max(1) as f64),
            pct(pap_hits as f64 / counter_total.max(1) as f64),
        ]);
    }
    println!("{}", d.render());

    let path = sweep.write_csv(&t, "predictor_accuracy");
    let dpath = sweep.write_csv(&d, "predictor_delay");
    println!("wrote {} and {}", path.display(), dpath.display());
    sweep.finish();
}
