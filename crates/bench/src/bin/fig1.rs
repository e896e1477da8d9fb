//! Figure 1: comparison of the three speculative execution strategies at
//! p = 0.7 with 6 branch-path resources.
//!
//! Regenerates the trees of the paper's Figure 1: the cumulative
//! probabilities, the assignment order, and the depths of speculation
//! (l_SP = 6, l_EE = 2, l_DEE = 4), and checks the famous disjoint choice:
//! DEE assigns its fourth resource to the not-predicted root path
//! (cp 0.3) instead of the deeper main-line path (cp 0.24).

use dee_bench::{f2, SweepArgs, TextTable};
use dee_core::{SpecTree, Strategy};

fn main() {
    let _ = SweepArgs::from_env("fig1", &[]);
    let p = 0.7;
    let et = 6;
    println!("Figure 1 — speculative execution strategies, p = {p}, E_T = {et}\n");

    let mut depth_table = TextTable::new(&["strategy", "depth l", "paper", "total cp (P_tot)"]);
    for (strategy, paper_depth) in [
        (Strategy::SinglePath, 6),
        (Strategy::Eager, 2),
        (Strategy::Disjoint, 4),
    ] {
        let tree = SpecTree::build(strategy, p, et);
        depth_table.row(vec![
            format!("{strategy:?}"),
            tree.depth().to_string(),
            paper_depth.to_string(),
            f2(tree.total_cp()),
        ]);

        println!("{strategy:?} tree (assignment order, cp, orientation):");
        let mut paths = TextTable::new(&["order", "depth", "cp", "direction"]);
        for path in tree.paths() {
            paths.row(vec![
                (path.order + 1).to_string(),
                path.depth.to_string(),
                f2(path.cp),
                if path.predicted {
                    "predicted".into()
                } else {
                    "NOT predicted".into()
                },
            ]);
        }
        println!("{}", paths.render());
    }

    println!("Depth of speculation per strategy (paper: l_SP=6, l_EE=2, l_DEE=4):");
    println!("{}", depth_table.render());

    let dee = SpecTree::build(Strategy::Disjoint, p, et);
    let fourth = dee.paths().iter().find(|x| x.order == 3).expect("6 paths");
    println!(
        "Disjoint choice: 4th resource goes to the not-predicted root path \
         (cp {:.2}) before the deeper main-line path (cp 0.24) — {}",
        fourth.cp,
        if !fourth.predicted && (fourth.cp - 0.3).abs() < 1e-9 {
            "REPRODUCED"
        } else {
            "MISMATCH"
        }
    );
    let path = depth_table.write_csv("fig1_depths.csv").expect("csv");
    println!("\nwrote {}", path.display());
}
