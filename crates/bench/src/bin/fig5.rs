//! Figure 5: speedups of the seven resource-constrained models over the
//! five benchmarks, plus the harmonic mean and per-benchmark oracle
//! speedups.
//!
//! Usage: `fig5 [tiny|small|medium|large] [--jobs N] [--workloads LIST] [--probs predictor|trace|static] [--max-rss BYTES]`
//! (default small; the paper-grade run is `medium`). Writes
//! `results/fig5_<scale>.csv` and `results/fig5_<scale>.svg`.
//!
//! The DEE tree shape uses the suite's measured characteristic accuracy,
//! following §3.1 step 1 (the paper measured 90.53% on SPECint92 with the
//! same 2-bit counter scheme).
//!
//! Every (benchmark, model, E_T) cell fans through [`dee_bench::pool`];
//! each benchmark is prepared exactly once and shared across its cells, so
//! output is byte-identical for any `--jobs` count.

use dee_bench::plot::{render_panels, write_svg, Panel, Series};
use dee_bench::{f2, scale_tag, Sweep, TextTable, FIG5_RESOURCES, SUITE_ARGS};
use dee_ilpsim::{harmonic_mean, simulate, Model, SimConfig};

fn main() {
    let sweep = Sweep::load("fig5", SUITE_ARGS);
    let scale = sweep.suite.scale;
    let p = sweep.p();
    println!("Figure 5 — speedup vs branch-path resources ({scale:?} scale)");
    println!(
        "characteristic accuracy p = {} via `{}` (paper: 90.53%)\n",
        f2(p * 100.0),
        sweep.args.probs.name()
    );

    let models = Model::all_constrained();

    // One prepared trace per workload, shared by every cell below.
    let prepared = sweep.prepare();

    // Cell grid: the oracle, then every (model, E_T), each over every
    // benchmark. Results come back in exactly this order regardless of
    // --jobs.
    let mut points: Vec<Option<(Model, u32)>> = vec![None];
    for model in models {
        points.extend(FIG5_RESOURCES.iter().map(|&et| Some((model, et))));
    }
    let grid = sweep.grid("fig5", &points, |&point, b| {
        let config = match point {
            None => SimConfig::new(Model::Oracle, 0),
            Some((model, et)) => SimConfig::new(model, et).with_p(p),
        };
        simulate(&prepared[b], &config).speedup()
    });
    let oracles = &grid[0];
    // Per-benchmark speedups of model `mi` at E_T index `ei`.
    let at = |mi: usize, ei: usize| &grid[1 + mi * FIG5_RESOURCES.len() + ei];

    let mut csv = TextTable::new(&["benchmark", "model", "et", "speedup"]);
    for (b, entry) in sweep.suite.entries.iter().enumerate() {
        let name = entry.workload.name.as_str();
        let mut header: Vec<&str> = vec!["model"];
        let et_labels: Vec<String> = FIG5_RESOURCES.iter().map(u32::to_string).collect();
        header.extend(et_labels.iter().map(String::as_str));
        let mut table = TextTable::new(&header);

        for (mi, model) in models.iter().enumerate() {
            let mut row_cells = vec![model.name().to_string()];
            for (ei, &et) in FIG5_RESOURCES.iter().enumerate() {
                let speedup = at(mi, ei)[b];
                row_cells.push(f2(speedup));
                csv.row(vec![
                    name.into(),
                    model.name().into(),
                    et.to_string(),
                    format!("{speedup:.4}"),
                ]);
            }
            table.row(row_cells);
        }

        println!("{name}  (oracle speedup: {})", f2(oracles[b]));
        println!("{}", table.render());
    }

    // Harmonic-mean panel.
    let mut header: Vec<&str> = vec!["model"];
    let et_labels: Vec<String> = FIG5_RESOURCES.iter().map(u32::to_string).collect();
    header.extend(et_labels.iter().map(String::as_str));
    let mut hm_table = TextTable::new(&header);
    for (mi, model) in models.iter().enumerate() {
        let mut cells = vec![model.name().to_string()];
        for (ei, et) in FIG5_RESOURCES.iter().enumerate() {
            let hm = harmonic_mean(at(mi, ei));
            cells.push(f2(hm));
            csv.row(vec![
                "harmonic-mean".into(),
                model.name().into(),
                et.to_string(),
                format!("{hm:.4}"),
            ]);
        }
        hm_table.row(cells);
    }
    let hm_oracle = harmonic_mean(oracles);
    println!("Harmonic Mean  (oracle speedup: {})", f2(hm_oracle));
    println!("{}", hm_table.render());

    let mut oracle_table = TextTable::new(&["benchmark", "oracle (measured)", "oracle (paper)"]);
    let paper_oracle = ["23.22", "25.86", "2810.48", "815.62", "104.35"];
    for (entry, (oracle, paper)) in sweep
        .suite
        .entries
        .iter()
        .zip(oracles.iter().zip(paper_oracle.iter()))
    {
        oracle_table.row(vec![
            entry.workload.name.clone(),
            f2(*oracle),
            (*paper).into(),
        ]);
        csv.row(vec![
            entry.workload.name.clone(),
            "Oracle".into(),
            "0".into(),
            format!("{oracle:.4}"),
        ]);
    }
    oracle_table.row(vec!["harmonic-mean".into(), f2(hm_oracle), "53.82".into()]);
    println!("Oracle speedups (paper values from Figure 5 captions):");
    println!("{}", oracle_table.render());

    let path = sweep.write_csv(&csv, "fig5");
    println!("wrote {}", path.display());

    // Regenerate the figure itself: six panels, as in the paper.
    let mut panels: Vec<Panel> = Vec::new();
    for (bench_idx, entry) in sweep.suite.entries.iter().enumerate() {
        panels.push(Panel {
            title: entry.workload.name.to_string(),
            oracle: Some(oracles[bench_idx]),
            series: models
                .iter()
                .enumerate()
                .map(|(mi, model)| Series {
                    name: model.name().to_string(),
                    points: FIG5_RESOURCES
                        .iter()
                        .enumerate()
                        .map(|(ei, &et)| (f64::from(et), at(mi, ei)[bench_idx]))
                        .collect(),
                })
                .collect(),
        });
    }
    panels.push(Panel {
        title: "Harmonic Mean".to_string(),
        oracle: Some(hm_oracle),
        series: models
            .iter()
            .enumerate()
            .map(|(mi, model)| Series {
                name: model.name().to_string(),
                points: FIG5_RESOURCES
                    .iter()
                    .enumerate()
                    .map(|(ei, &et)| (f64::from(et), harmonic_mean(at(mi, ei))))
                    .collect(),
            })
            .collect(),
    });
    let svg = render_panels(&panels, &FIG5_RESOURCES);
    let svg_path = write_svg(&format!("fig5_{}.svg", scale_tag(scale)), &svg).expect("svg");
    println!("wrote {}", svg_path.display());
    sweep.finish();
}
