//! Workload-space sweep: speedup vs *measured* predictor accuracy over a
//! seeded grid of generated programs.
//!
//! The paper evaluates DEE where its five benchmarks happen to sit — a
//! measured 2-bit-counter accuracy band of roughly 85–95% — which is also
//! where the scheme's advantage over single-path speculation is claimed
//! to peak. This binary scans the *predictability axis itself*: a grid of
//! `dee-gen` programs whose `pred` knob steps from coin-flip branches to
//! fully determined ones (measured accuracy ≈ 70–99%, extending the
//! paper's band on both sides), with every other knob held fixed. For
//! each grid point it measures the real 2-bit-counter accuracy on the
//! generated trace, then simulates SP, EE, DEE-CD-MF, and the oracle at
//! `E_T = 32` — the DEE tree shaped by that point's own measured
//! accuracy, exactly as the paper shapes its trees from the suite's
//! characteristic accuracy.
//!
//! Every CSV row echoes the full `GenSpec` knob columns plus the seed, so
//! any row is regenerable from the file alone (`dee gen <knobs> --seed N`
//! reproduces the program). Output is byte-identical for any `--jobs`;
//! `results/genspace_tiny.csv` is a committed golden.
//!
//! Usage: `genspace [tiny|small|medium|large] [--jobs N] [--probs predictor|trace|static]`.
//! With a non-default `--probs` the per-point accuracy (and so the tree
//! shape and mispredict marking) comes from that source instead of the
//! replayed 2-bit counter; the committed golden uses the default.

use dee_bench::{f2, pct, pool, prepare_trace_probs, Arg, SweepArgs, TextTable};
use dee_gen::{generate, GenSpec};
use dee_ilpsim::{simulate, Model, SimConfig};
use dee_workloads::Scale;

/// The predictability-knob grid: pred=0 is a coin flip per branch site,
/// pred=1 fully determined. Dense at the top where the paper lives.
const PREDS: [f64; 8] = [0.0, 0.15, 0.30, 0.45, 0.60, 0.75, 0.90, 1.0];

/// Seeds per grid point: enough to expose stream variance without
/// drowning the table.
const SEEDS: [u64; 2] = [1, 2];

/// Branch-path resources for the model comparison.
const ET: u32 = 32;

/// The models compared at each point.
const MODELS: [Model; 4] = [Model::Sp, Model::Ee, Model::DeeCdMf, Model::Oracle];

/// Outer-loop trip count per scale — the dynamic-length dial.
fn iters(scale: Scale) -> u32 {
    match scale {
        Scale::Tiny => 48,
        Scale::Small => 256,
        Scale::Medium => 1024,
        Scale::Large => 4096,
    }
}

/// The spec at one grid point: only `pred` moves across the grid.
fn spec_at(pred: f64, scale: Scale) -> GenSpec {
    GenSpec {
        pred,
        spread: 0.02,
        depth: 2,
        calls: 0.2,
        jr: 0.1,
        alias: 0.5,
        blocks: 12,
        iters: iters(scale),
    }
}

struct Cell {
    spec: GenSpec,
    seed: u64,
    name: String,
    accuracy: f64,
    /// Speedups in `MODELS` order.
    speedups: Vec<f64>,
}

fn main() {
    let args = SweepArgs::from_env("genspace", &[Arg::Scale, Arg::Jobs, Arg::Probs]);
    let (scale, probs) = (args.scale(), args.probs);

    let points: Vec<(f64, u64)> = PREDS
        .iter()
        .flat_map(|&pred| SEEDS.iter().map(move |&seed| (pred, seed)))
        .collect();
    eprintln!(
        "generating and simulating {} grid points at {scale:?}...",
        points.len()
    );

    let cells: Vec<Cell> = pool::run_sweep(
        "genspace",
        args.jobs,
        points
            .iter()
            .map(|&(pred, seed)| {
                move || {
                    let spec = spec_at(pred, scale);
                    let g = generate(&spec, seed)
                        .unwrap_or_else(|e| panic!("pred={pred} seed={seed}: {e}"));
                    let prepared = prepare_trace_probs(&g.workload.program, &g.trace, probs);
                    let accuracy = prepared.accuracy();
                    // The static-tree builder requires p in [0.5, 1); at
                    // the coin-flip end of the grid the measured accuracy
                    // can brush 0.5, and at the top it can brush 1.
                    let shape_p = accuracy.clamp(0.5, 0.9999);
                    let speedups = MODELS
                        .iter()
                        .map(|&model| {
                            simulate(&prepared, &SimConfig::new(model, ET).with_p(shape_p))
                                .speedup()
                        })
                        .collect();
                    Cell {
                        spec,
                        seed,
                        name: g.workload.name,
                        accuracy,
                        speedups,
                    }
                }
            })
            .collect(),
    );

    let mut header = vec!["name", "seed"];
    header.extend(GenSpec::csv_columns());
    header.extend(["accuracy", "model", "et", "speedup"]);
    let mut csv = TextTable::new(&header);
    for cell in &cells {
        for (model, speedup) in MODELS.iter().zip(&cell.speedups) {
            let mut row = vec![cell.name.clone(), cell.seed.to_string()];
            row.extend(cell.spec.csv_cells());
            row.extend([
                format!("{:.6}", cell.accuracy),
                model.name().to_string(),
                ET.to_string(),
                format!("{speedup:.4}"),
            ]);
            csv.row(row);
        }
    }

    println!(
        "Workload-space sweep at {scale:?}: E_T = {ET}, {} seeds per pred\n",
        SEEDS.len()
    );
    let mut table = TextTable::new(&[
        "pred",
        "seed",
        "accuracy",
        "SP",
        "EE",
        "DEE-CD-MF",
        "Oracle",
        "DEE/SP",
    ]);
    for cell in &cells {
        table.row(vec![
            format!("{}", cell.spec.pred),
            cell.seed.to_string(),
            pct(cell.accuracy),
            f2(cell.speedups[0]),
            f2(cell.speedups[1]),
            f2(cell.speedups[2]),
            f2(cell.speedups[3]),
            f2(cell.speedups[2] / cell.speedups[0]),
        ]);
    }
    println!("{}", table.render());

    // The axis check: mean measured accuracy per pred step, which must
    // climb monotonically for the knob to be the axis it claims to be.
    println!("Measured 2-bit accuracy along the pred knob (mean over seeds):");
    let mut axis = TextTable::new(&["pred", "accuracy", "DEE/SP advantage"]);
    for &pred in &PREDS {
        let at: Vec<&Cell> = cells.iter().filter(|c| c.spec.pred == pred).collect();
        let mean = at.iter().map(|c| c.accuracy).sum::<f64>() / at.len() as f64;
        let advantage = at
            .iter()
            .map(|c| c.speedups[2] / c.speedups[0])
            .sum::<f64>()
            / at.len() as f64;
        axis.row(vec![format!("{pred}"), pct(mean), f2(advantage)]);
    }
    println!("{}", axis.render());

    let path = csv.write_scaled_csv("genspace", scale).expect("csv");
    println!("wrote {}", path.display());
}
