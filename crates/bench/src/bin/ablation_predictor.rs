//! Predictor-tradeoff ablation (§5.1): "There is a tradeoff between
//! predictor accuracy and its cost versus degree of DEE realization and
//! its cost, for the same performance. The data suggest that some use of
//! DEE is likely to be beneficial, regardless of the predictor accuracy."
//!
//! Prepares the traces under different predictors (static BTFN, the
//! paper's 2-bit counter, PAp, gshare) and reports SP-CD-MF vs DEE-CD-MF
//! harmonic means at E_T = 100 — each tree shaped with that predictor's
//! own measured accuracy. The DEE advantage should survive every
//! predictor, largest where prediction is worst.
//!
//! Usage: `ablation_predictor [tiny|small|medium|large] [--jobs N] [--workloads LIST] [--probs predictor|trace|static] [--max-rss BYTES]`.
//! `--probs trace` / `--probs static` append that direction source as an
//! extra comparison row; the default rows (and the golden CSV) are
//! unchanged.

use dee_analyze::SpeculationPlan;
use dee_bench::{f2, pct, BenchEntry, Sweep, TextTable, SUITE_ARGS};
use dee_ilpsim::{
    harmonic_mean, simulate, DirectionPredictor, Model, PreparedTrace, ProbSource, SimConfig,
};
use dee_predict::{BranchPredictor, Btfn, Gshare, PapAdaptive, TwoBitCounter};

/// Prepares one entry under one predictor kind; the prepared trace is
/// shared by the SP-CD-MF and DEE-CD-MF simulations of the cell.
fn run_cell(kind: &str, entry: &BenchEntry, et: u32) -> (f64, f64, f64) {
    let mut predictor: Box<dyn BranchPredictor> = match kind {
        "btfn" => {
            let targets: Vec<(u32, u32)> = entry
                .workload
                .program
                .iter()
                .filter_map(|(pc, i)| {
                    i.static_target()
                        .filter(|_| i.is_cond_branch())
                        .map(|t| (pc, t))
                })
                .collect();
            Box::new(Btfn::new(&targets))
        }
        "2bc" => Box::new(TwoBitCounter::new()),
        "pap-spec" => Box::new(PapAdaptive::with_config(2, true)),
        "profile-direction" => Box::new(DirectionPredictor::from_counts(&entry.direction_counts())),
        "static-direction" => Box::new(DirectionPredictor::from_plan(&SpeculationPlan::build(
            &entry.workload.program,
        ))),
        _ => Box::new(Gshare::default()),
    };
    let prepared =
        PreparedTrace::with_predictor(&entry.workload.program, &entry.trace, predictor.as_mut());
    let p = prepared.accuracy();
    let sp = simulate(&prepared, &SimConfig::new(Model::SpCdMf, et).with_p(p)).speedup();
    let dee = simulate(&prepared, &SimConfig::new(Model::DeeCdMf, et).with_p(p)).speedup();
    (p, sp, dee)
}

fn main() {
    let sweep = Sweep::load("ablation_predictor", SUITE_ARGS);
    let et = 100;

    println!("Predictor tradeoff at E_T = {et} (harmonic means):\n");
    let mut kinds: Vec<&str> = vec!["btfn", "2bc", "pap-spec", "gshare"];
    match sweep.args.probs {
        ProbSource::Predictor => {}
        ProbSource::Trace => kinds.push("profile-direction"),
        ProbSource::Static => kinds.push("static-direction"),
    }
    let grid = sweep.grid("ablation_predictor", &kinds, |kind, b| {
        run_cell(kind, &sweep.suite.entries[b], et)
    });

    let mut t = TextTable::new(&["predictor", "accuracy", "SP-CD-MF", "DEE-CD-MF", "DEE gain"]);
    for (kind, group) in kinds.iter().zip(&grid) {
        let accs: Vec<f64> = group.iter().map(|c| c.0).collect();
        let sp: Vec<f64> = group.iter().map(|c| c.1).collect();
        let dee: Vec<f64> = group.iter().map(|c| c.2).collect();
        let sp_hm = harmonic_mean(&sp);
        let dee_hm = harmonic_mean(&dee);
        t.row(vec![
            (*kind).into(),
            pct(harmonic_mean(&accs)),
            f2(sp_hm),
            f2(dee_hm),
            format!("{}x", f2(dee_hm / sp_hm)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(§5.1: \"some use of DEE is likely to be beneficial, regardless of the\n predictor accuracy\" — the DEE column should dominate on every row)"
    );
    let path = sweep.write_csv(&t, "ablation_predictor");
    println!("wrote {}", path.display());
    sweep.finish();
}
