//! The classic Riseman & Foster (1972) experiment the paper opens with
//! (§1.2): "demonstrating speedups of general purpose code of a factor of
//! 25.65 (harmonic mean, infinitely many branches eagerly executed)."
//!
//! Sweeps the number of conditional branches that may be bypassed
//! (outstanding) at once, from 0 to effectively infinite, and reports the
//! harmonic-mean speedup — reproducing the study's signature curve: near-
//! sequential performance with few bypassed jumps, an order of magnitude
//! only with unbounded eager execution. This is exactly the cost explosion
//! DEE's disjointness is designed to avoid.
//!
//! Usage: `riseman_foster [tiny|small|medium|large] [--jobs N] [--workloads LIST] [--probs predictor|trace|static] [--max-rss BYTES]`.

use dee_bench::{f2, Sweep, TextTable, SUITE_ARGS};
use dee_ilpsim::{harmonic_mean, riseman_foster};

fn main() {
    let sweep = Sweep::load("riseman_foster", SUITE_ARGS);

    println!("Riseman-Foster sweep: branches bypassed vs harmonic-mean speedup");
    println!("(paper cites 25.65x at infinity for their benchmarks)\n");

    // Each benchmark is prepared once; every (bypassed, benchmark) cell
    // shares it.
    let prepared = sweep.prepare();
    let caps = [0u32, 1, 2, 4, 8, 16, 64, 256, 4096, u32::MAX];
    let grid = sweep.grid("riseman_foster", &caps, |&cap, b| {
        riseman_foster(&prepared[b], cap).speedup()
    });

    let mut t = TextTable::new(&["branches bypassed", "HM speedup"]);
    for (&cap, speedups) in caps.iter().zip(&grid) {
        let label = if cap == u32::MAX {
            "unlimited".to_string()
        } else {
            cap.to_string()
        };
        t.row(vec![label, f2(harmonic_mean(speedups))]);
    }
    println!("{}", t.render());
    let path = sweep.write_csv(&t, "riseman_foster");
    println!("wrote {}", path.display());
    sweep.finish();
}
