//! Tree-shape ablation: is the §3.1 static heuristic's `(l, h_DEE)` split
//! actually the right one?
//!
//! §5.3 hints the heuristic is imperfect: "performance would be improved
//! if these branches were DEE'd earlier, at lower levels of E_T branch
//! path resources. This implies that DEE paths could be usefully employed
//! with many fewer than 32 branch path resources." This experiment fixes
//! E_T = 100 and sweeps `h_DEE` directly (with `l = E_T − h(h+1)/2`),
//! comparing each shape's DEE-CD-MF speedup against the heuristic's pick.
//!
//! Usage: `ablation_shape [tiny|small|medium|large] [--jobs N] [--workloads LIST] [--probs predictor|trace|static] [--max-rss BYTES]`.

use dee_bench::{f2, Sweep, TextTable, SUITE_ARGS};
use dee_core::{StaticTree, TreeParams};
use dee_ilpsim::{harmonic_mean, simulate, Model, SimConfig};

fn main() {
    let sweep = Sweep::load("ablation_shape", SUITE_ARGS);
    let p = sweep.p();
    let et = 100u32;
    let heuristic = StaticTree::build(TreeParams {
        p: p.clamp(0.5, 0.9999),
        et,
    });

    println!(
        "DEE-CD-MF tree-shape sweep at E_T = {et} (measured p = {}; heuristic picks l = {}, h = {})\n",
        f2(p),
        heuristic.mainline_len(),
        heuristic.h_dee()
    );

    // Each trace is prepared once and shared by every swept shape and
    // the heuristic comparison.
    let prepared = sweep.prepare();
    let hs: Vec<u32> = [0u32, 2, 4, 6, 8, 10, 11, 12, 13]
        .into_iter()
        .filter(|h| h * (h + 1) / 2 < et)
        .collect();
    // Swept shapes, plus the heuristic's own (l, h) as a final extra cell
    // group for the "within x% of best" comparison.
    let mut shapes: Vec<(u32, u32)> = hs.iter().map(|&h| (et - h * (h + 1) / 2, h)).collect();
    shapes.push((heuristic.mainline_len(), heuristic.h_dee()));

    let grid = sweep.grid("ablation_shape", &shapes, |&(l, h), b| {
        simulate(
            &prepared[b],
            &SimConfig::new(Model::DeeCdMf, et)
                .with_p(p)
                .with_dee_shape(l, h),
        )
        .speedup()
    });
    let hm_of_shape = |si: usize| harmonic_mean(&grid[si]);

    let mut t = TextTable::new(&["h_DEE", "l", "HM speedup", "note"]);
    let mut best = (0u32, 0.0f64);
    for (si, &h) in hs.iter().enumerate() {
        let l = et - h * (h + 1) / 2;
        let hm = hm_of_shape(si);
        if hm > best.1 {
            best = (h, hm);
        }
        let note = if h == heuristic.h_dee() {
            "<- heuristic"
        } else {
            ""
        };
        t.row(vec![h.to_string(), l.to_string(), f2(hm), note.into()]);
    }
    println!("{}", t.render());
    println!(
        "best swept shape: h = {} at {}x; heuristic is within {:.1}% of it",
        best.0,
        f2(best.1),
        100.0 * (1.0 - hm_of_shape(shapes.len() - 1) / best.1)
    );
    let path = sweep.write_csv(&t, "ablation_shape");
    println!("wrote {}", path.display());
    sweep.finish();
}
