//! Ablation: how the DEE tree shape and the model speedups depend on the
//! characteristic prediction accuracy `p`.
//!
//! Theory (§2): "DEE becomes the same as SP as the branch prediction
//! accuracy approaches 1, and DEE becomes the same as eager execution as p
//! approaches 0.5, for finite resources." The first table shows the static
//! tree dimensions across `p` at E_T = 100: the main line lengthens and
//! the DEE region shrinks (to empty) as p → 1, and the tree flattens
//! toward the eager shape as p → 0.5.
//!
//! The second table is a design-sensitivity experiment the paper's
//! heuristic motivates: simulate DEE-CD-MF with *assumed* tree accuracies
//! that differ from the trace's measured accuracy, showing how mis-sizing
//! the static tree costs performance.
//!
//! Usage: `ablation_p [tiny|small|medium|large] [--jobs N] [--workloads LIST] [--probs predictor|trace|static] [--max-rss BYTES]`.

use dee_bench::{f2, Sweep, TextTable, SUITE_ARGS};
use dee_core::{SpecTree, StaticTree, Strategy, TreeParams};
use dee_ilpsim::{harmonic_mean, simulate, Model, SimConfig};

fn main() {
    let sweep = Sweep::load("ablation_p", SUITE_ARGS);
    let et = 100;
    println!("Static DEE tree shape vs characteristic accuracy (E_T = {et})\n");
    let mut shape = TextTable::new(&["p", "l (main line)", "h_DEE", "DEE paths", "depth vs EE/SP"]);
    for p in [0.55, 0.60, 0.70, 0.80, 0.90, 0.95, 0.97, 0.99] {
        let tree = StaticTree::build(TreeParams { p, et });
        let greedy = SpecTree::build(Strategy::Disjoint, p, et);
        let ee = SpecTree::build(Strategy::Eager, p, et);
        let shape_note = if tree.is_single_path() {
            "= SP chain".to_string()
        } else if greedy.depth() <= ee.depth() + 1 {
            "~ EE tree".to_string()
        } else {
            format!("depth {}", greedy.depth())
        };
        shape.row(vec![
            f2(p),
            tree.mainline_len().to_string(),
            tree.h_dee().to_string(),
            tree.dee_region_paths().to_string(),
            shape_note,
        ]);
    }
    println!("{}", shape.render());

    let measured = sweep.p();
    println!(
        "DEE-CD-MF sensitivity to the assumed tree accuracy (measured p = {}):\n",
        f2(measured)
    );

    // Preparation is p-independent: each trace is prepared once and
    // shared by every assumed p.
    let prepared = sweep.prepare();
    let assumed_ps = [0.60, 0.75, measured, 0.95, 0.99];
    let grid = sweep.grid("ablation_p", &assumed_ps, |&assumed, b| {
        simulate(
            &prepared[b],
            &SimConfig::new(Model::DeeCdMf, et).with_p(assumed),
        )
        .speedup()
    });

    let mut sens = TextTable::new(&["assumed p", "HM speedup @100"]);
    for (ai, &assumed) in assumed_ps.iter().enumerate() {
        let label = if (assumed - measured).abs() < 1e-9 {
            format!("{} (measured)", f2(assumed))
        } else {
            f2(assumed)
        };
        let hm = harmonic_mean(&grid[ai]);
        sens.row(vec![label, f2(hm)]);
    }
    println!("{}", sens.render());
    let path = shape.write_csv("ablation_p_shape.csv").expect("csv");
    let spath = sweep.write_csv(&sens, "ablation_p_sensitivity");
    println!("wrote {} and {}", path.display(), spath.display());
    sweep.finish();
}
