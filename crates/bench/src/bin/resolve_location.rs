//! §5.3 misprediction-resolution-location statistic.
//!
//! The paper: "statistics were gathered of the locations in the DEE static
//! tree where mispredicted branches resolve. Most of the resolving is done
//! at the root of the tree, accounting for around 70-80% of the resolved
//! mispredictions."
//!
//! This binary reports, for DEE-CD-MF at E_T = 100, the distribution of
//! resolution levels (level 1 = root = no older branch still unresolved)
//! per benchmark, plus the fraction resolved at the root and within DEE
//! coverage (level ≤ h_DEE). In the serialized models (SP, DEE, -CD)
//! branches resolve in order, so 100% resolve at the root by construction;
//! the -MF models spread slightly deeper but stay concentrated at the top
//! of the tree, which is what makes the DEE paths effective.
//!
//! Usage: `resolve_location [tiny|small|medium|large] [--jobs N] [--workloads LIST] [--probs predictor|trace|static] [--max-rss BYTES]`.

use dee_bench::{f2, pct, Sweep, TextTable, SUITE_ARGS};
use dee_core::{StaticTree, TreeParams};
use dee_ilpsim::{simulate, Model, SimConfig};

fn main() {
    let sweep = Sweep::load("resolve_location", SUITE_ARGS);
    let p = sweep.p();
    let et = 100;
    let tree = StaticTree::build(TreeParams {
        p: p.clamp(0.5, 0.9999),
        et,
    });
    let h = tree.h_dee();

    println!(
        "Misprediction resolution locations — DEE-CD-MF @ E_T = {et}, p = {}",
        f2(p)
    );
    println!("(paper: ~70-80% at the root; DEE tree h_DEE = {h})\n");

    let mut t = TextTable::new(&[
        "benchmark",
        "mispredicts",
        "at root",
        "level<=3",
        &format!("covered (<= h={h})"),
        "mean level",
    ]);
    let mut agg = vec![0u64; 64];
    // One cell per benchmark: DEE-CD-MF @ E_T = 100.
    let prepared = sweep.prepare();
    let hists = sweep.run(
        "resolve_location",
        prepared
            .iter()
            .map(|prepared| {
                move || {
                    simulate(prepared, &SimConfig::new(Model::DeeCdMf, et).with_p(p))
                        .resolve_level_histogram
                }
            })
            .collect(),
    );
    for (entry, hist) in sweep.suite.entries.iter().zip(&hists) {
        for (k, &c) in hist.iter().enumerate() {
            agg[k] += c;
        }
        t.row(stat_row(&entry.workload.name, hist, h));
    }
    t.row(stat_row("ALL", &agg, h));
    println!("{}", t.render());

    println!("Aggregate level histogram (level: count):");
    let total: u64 = agg.iter().sum();
    for (k, &c) in agg.iter().enumerate() {
        if c > 0 {
            println!(
                "  level {:>2}: {:>8}  ({})",
                k + 1,
                c,
                pct(c as f64 / total.max(1) as f64)
            );
        }
    }
    let path = sweep.write_csv(&t, "resolve_location");
    println!("\nwrote {}", path.display());
    sweep.finish();
}

fn stat_row(name: &str, hist: &[u64], h: u32) -> Vec<String> {
    let total: u64 = hist.iter().sum();
    let at_root = hist.first().copied().unwrap_or(0);
    let top3: u64 = hist.iter().take(3).sum();
    let covered: u64 = hist.iter().take(h as usize).sum();
    let mean = if total == 0 {
        0.0
    } else {
        hist.iter()
            .enumerate()
            .map(|(k, &c)| (k as f64 + 1.0) * c as f64)
            .sum::<f64>()
            / total as f64
    };
    let frac = |n: u64| {
        if total == 0 {
            "-".to_string()
        } else {
            pct(n as f64 / total as f64)
        }
    };
    vec![
        name.into(),
        total.to_string(),
        frac(at_root),
        frac(top3),
        frac(covered),
        f2(mean),
    ]
}
