//! Figure 2: the static DEE assignment tree for p = 0.90, E_T = 34.
//!
//! Regenerates the heuristic tree of §3.1: main-line length l = 24,
//! h_DEE = 4, a triangular DEE region of 10 paths, and the cumulative
//! probability labels along the main line and the DEE paths.

use dee_bench::{f2, SweepArgs, TextTable};
use dee_core::{log_p_not_p, StaticTree, TreeParams};

fn main() {
    let _ = SweepArgs::from_env("fig2", &[]);
    let params = TreeParams { p: 0.90, et: 34 };
    let tree = StaticTree::build(params);
    println!(
        "Figure 2 — static DEE tree, p = {}, E_T = {}\n",
        params.p, params.et
    );

    let mut dims = TextTable::new(&["quantity", "measured", "paper"]);
    dims.row(vec![
        "main-line length l".into(),
        tree.mainline_len().to_string(),
        "24".into(),
    ]);
    dims.row(vec!["h_DEE".into(), tree.h_dee().to_string(), "4".into()]);
    dims.row(vec![
        "DEE-region paths".into(),
        tree.dee_region_paths().to_string(),
        "10".into(),
    ]);
    dims.row(vec![
        "total paths".into(),
        tree.total_paths().to_string(),
        "34".into(),
    ]);
    dims.row(vec![
        "log_p(1-p)".into(),
        f2(log_p_not_p(params.p)),
        "21.85".into(),
    ]);
    dims.row(vec![
        "formulas valid".into(),
        tree.formulas_valid().to_string(),
        "true".into(),
    ]);
    println!("{}", dims.render());

    println!("Main-line cumulative probabilities (first 6; paper labels .90 .81 .73 .66):");
    let ml = tree.mainline_cps();
    let labels: Vec<String> = ml.iter().take(6).map(|&cp| f2(cp)).collect();
    println!("  {}\n", labels.join(" "));

    println!("DEE region (triangular; row k = DEE path at branch B_k):");
    let mut region = TextTable::new(&["branch", "coverage (paths)", "cp of extensions"]);
    for k in 1..=tree.h_dee() {
        let cov = tree.coverage_at_level(k);
        let cps: Vec<String> = (0..cov).map(|j| f2(tree.dee_path_cp(k, j))).collect();
        region.row(vec![format!("B{k}"), cov.to_string(), cps.join(" ")]);
    }
    println!("{}", region.render());

    let closed = StaticTree::build_closed_form(params);
    println!(
        "Closed-form formulas give l = {}, h = {} — {} the greedy construction.",
        closed.mainline_len(),
        closed.h_dee(),
        if closed.mainline_len() == tree.mainline_len() && closed.h_dee() == tree.h_dee() {
            "matching"
        } else {
            "DIFFERING from"
        }
    );
    let path = dims.write_csv("fig2_dimensions.csv").expect("csv");
    println!("\nwrote {}", path.display());
}
