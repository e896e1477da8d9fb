//! Memory-system ablation — the third item of the paper's future work
//! (§1.2): evaluate the DEE models above a finite data cache instead of
//! the single-cycle ideal memory.
//!
//! Sweeps data-cache configurations (perfect 1-cycle, a classic 8 KiB
//! 2-way cache, and a small 1 KiB cache, with a 10-cycle miss penalty) and
//! reports per-benchmark hit rates plus harmonic-mean speedups of SP,
//! SP-CD-MF and DEE-CD-MF at E_T = 100. Speedups remain relative to the
//! *equally slowed* sequential machine, so they isolate the models'
//! latency tolerance.
//!
//! Usage: `ablation_memory [tiny|small|medium|large] [--jobs N] [--workloads LIST] [--probs predictor|trace|static] [--max-rss BYTES]`.

use dee_bench::{f2, pct, Sweep, TextTable, SUITE_ARGS};
use dee_ilpsim::{harmonic_mean, simulate, Model, SimConfig};
use dee_mem::{annotate_latencies, CacheConfig, MemoryHierarchy};

const MISS_PENALTY: u32 = 10;

fn main() {
    let sweep = Sweep::load("ablation_memory", SUITE_ARGS);
    let p = sweep.p();
    let et = 100;

    let configs: [(&str, Option<CacheConfig>); 3] = [
        ("perfect (1 cycle)", None),
        (
            "8KiB 2-way x8w",
            Some(CacheConfig {
                sets: 128,
                ways: 2,
                line_words: 8,
            }),
        ),
        (
            "1KiB 1-way x4w",
            Some(CacheConfig {
                sets: 64,
                ways: 1,
                line_words: 4,
            }),
        ),
    ];

    println!("Data-cache hit rates (miss penalty {MISS_PENALTY} cycles):\n");
    // One cell per benchmark: replay both finite caches over the trace.
    let rate_cells = sweep.run(
        "ablation_memory_rates",
        sweep
            .suite
            .entries
            .iter()
            .map(|entry| {
                let finite: Vec<CacheConfig> = configs
                    .iter()
                    .skip(1)
                    .map(|(_, c)| c.expect("cache config"))
                    .collect();
                move || {
                    let mut rates = Vec::new();
                    let mut refs = 0;
                    for config in finite {
                        let mut hierarchy = MemoryHierarchy::new(config, 1, MISS_PENALTY);
                        let _ = annotate_latencies(&entry.trace, &mut hierarchy);
                        rates.push(hierarchy.stats().hit_rate());
                        refs = hierarchy.stats().accesses;
                    }
                    (rates, refs)
                }
            })
            .collect(),
    );
    let mut rates = TextTable::new(&["benchmark", "8KiB 2-way", "1KiB 1-way", "mem refs"]);
    for (entry, (hit_rates, refs)) in sweep.suite.entries.iter().zip(&rate_cells) {
        let mut cells = vec![entry.workload.name.to_string()];
        cells.extend(hit_rates.iter().map(|&r| pct(r)));
        cells.push(refs.to_string());
        rates.row(cells);
    }
    println!("{}", rates.render());

    println!("Harmonic-mean speedups at E_T = {et} (p = {}):\n", f2(p));
    // Each benchmark is prepared once; a (memory system, benchmark) cell
    // clones the shared base, attaches that cache's measured latencies,
    // and runs all four models on it.
    let prepared = sweep.prepare();
    let models = [Model::Sp, Model::SpCdMf, Model::DeeCdMf, Model::Oracle];
    let grid = sweep.grid("ablation_memory", &configs, |&(_, cache), b| {
        let mut prepared = prepared[b].clone();
        if let Some(config) = cache {
            let mut hierarchy = MemoryHierarchy::new(config, 1, MISS_PENALTY);
            let lats = annotate_latencies(&sweep.suite.entries[b].trace, &mut hierarchy);
            prepared = prepared.with_mem_latencies(lats);
        }
        models.map(|model| simulate(&prepared, &SimConfig::new(model, et).with_p(p)).speedup())
    });
    let mut t = TextTable::new(&["memory system", "SP", "SP-CD-MF", "DEE-CD-MF", "Oracle"]);
    for ((name, _), group) in configs.iter().zip(&grid) {
        let mut cells = vec![(*name).to_string()];
        for mi in 0..models.len() {
            let values: Vec<f64> = group.iter().map(|c| c[mi]).collect();
            cells.push(f2(harmonic_mean(&values)));
        }
        t.row(cells);
    }
    println!("{}", t.render());
    let path = sweep.write_csv(&t, "ablation_memory");
    println!("wrote {}", path.display());
    sweep.finish();
}
