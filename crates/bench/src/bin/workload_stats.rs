//! Prints dynamic statistics for every workload at a given scale:
//! trace length, branch density, taken rate, mean branch-path length, and
//! 2-bit-counter prediction accuracy (the paper's characteristic `p`).
//!
//! Usage: `workload_stats [tiny|small|medium|large] [--workloads LIST] [--max-rss BYTES]`
//! (default: small).

use dee_bench::{Arg, Sweep};
use dee_predict::{measure_accuracy, TwoBitCounter};

fn main() {
    let sweep = Sweep::load("workload_stats", &[Arg::Scale, Arg::Workloads, Arg::MaxRss]);
    println!(
        "{:<10} {:>12} {:>10} {:>8} {:>10} {:>8}",
        "workload", "dyn instrs", "branches", "taken%", "path len", "2bc acc%"
    );
    let mut acc_sum_recip = 0.0;
    let mut count = 0.0;
    for entry in &sweep.suite.entries {
        let (w, trace) = (&entry.workload, &entry.trace);
        let mut predictor = TwoBitCounter::new();
        let report = measure_accuracy(&mut predictor, trace);
        let acc = report.accuracy();
        acc_sum_recip += 1.0 / acc;
        count += 1.0;
        println!(
            "{:<10} {:>12} {:>10} {:>7.1}% {:>10.2} {:>7.2}%",
            w.name,
            trace.len(),
            trace.num_cond_branches(),
            trace.taken_rate().unwrap_or(0.0) * 100.0,
            trace.mean_path_len(),
            acc * 100.0,
        );
    }
    println!(
        "harmonic-mean accuracy: {:.2}%",
        100.0 * count / acc_sum_recip
    );
    sweep.finish();
}
