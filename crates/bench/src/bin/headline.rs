//! §5.3 headline numbers at the Levo operating point, E_T = 100:
//!
//! * DEE-CD-MF over SP — paper: 5.8×;
//! * DEE-CD-MF over EE — paper: 4.0×;
//! * DEE-CD-MF over sequential — paper: 31.9×;
//! * DEE-CD-MF as a fraction of oracle — paper: ≈59%;
//! * DEE-CD-MF @ 8 paths vs EE @ 256 paths — paper: equal;
//! * SP stops improving at 16 paths;
//! * DEE-CD-MF @ 32 stays high (paper: 26×, the "Levo could be built with
//!   only 32 branch paths" observation).
//!
//! Usage: `headline [tiny|small|medium|large] [--jobs N] [--workloads LIST] [--probs predictor|trace|static] [--max-rss BYTES]`.
//!
//! Each benchmark is prepared once and shared across all nine statistic
//! points via [`dee_bench::pool`]; output is byte-identical for any
//! `--jobs` count.

use dee_bench::{f2, Sweep, TextTable, SUITE_ARGS};
use dee_ilpsim::{harmonic_mean, simulate, Model, SimConfig};

/// The nine (model, E_T) statistic points, in reporting order. The oracle
/// is encoded as `(Oracle, 0)`.
const POINTS: [(Model, u32); 9] = [
    (Model::DeeCdMf, 100),
    (Model::Sp, 100),
    (Model::Ee, 100),
    (Model::DeeCdMf, 32),
    (Model::DeeCdMf, 8),
    (Model::Ee, 256),
    (Model::Sp, 16),
    (Model::Sp, 256),
    (Model::Oracle, 0),
];

fn main() {
    let sweep = Sweep::load("headline", SUITE_ARGS);
    let scale = sweep.suite.scale;
    let p = sweep.p();

    eprintln!("simulating...");
    let prepared = sweep.prepare();
    let grid = sweep.grid("headline", &POINTS, |&(model, et), b| {
        simulate(&prepared[b], &SimConfig::new(model, et).with_p(p)).speedup()
    });
    let hm_at = |point: usize| harmonic_mean(&grid[point]);

    let dee100 = hm_at(0);
    let sp100 = hm_at(1);
    let ee100 = hm_at(2);
    let dee32 = hm_at(3);
    let dee8 = hm_at(4);
    let ee256 = hm_at(5);
    let sp16 = hm_at(6);
    let sp256 = hm_at(7);
    let oracle = hm_at(8);

    println!(
        "§5.3 headline statistics (harmonic means, {scale:?} scale, p = {})\n",
        f2(p)
    );
    let mut t = TextTable::new(&["statistic", "measured", "paper"]);
    t.row(vec![
        "DEE-CD-MF @100 / SP @100".into(),
        f2(dee100 / sp100),
        "5.8".into(),
    ]);
    t.row(vec![
        "DEE-CD-MF @100 / EE @100".into(),
        f2(dee100 / ee100),
        "4.0".into(),
    ]);
    t.row(vec![
        "DEE-CD-MF @100 x sequential".into(),
        f2(dee100),
        "31.9".into(),
    ]);
    t.row(vec![
        "DEE-CD-MF @100 / oracle".into(),
        f2(dee100 / oracle),
        "0.59".into(),
    ]);
    t.row(vec![
        "DEE-CD-MF @32 x sequential".into(),
        f2(dee32),
        "26".into(),
    ]);
    t.row(vec![
        "DEE-CD-MF @8 vs EE @256".into(),
        format!("{} vs {}", f2(dee8), f2(ee256)),
        "equal".into(),
    ]);
    t.row(vec![
        "SP @256 / SP @16 (plateau)".into(),
        f2(sp256 / sp16),
        "~1.0".into(),
    ]);
    println!("{}", t.render());
    let path = sweep.write_csv(&t, "headline");
    println!("wrote {}", path.display());
    sweep.finish();
}
