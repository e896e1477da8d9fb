//! The window memo on Figure 5's own sweep.
//!
//! The cells run in `fig5`'s order on one shared `PreparedTrace` per
//! workload, as `fig5 --jobs 1` runs them: the suite's characteristic
//! accuracy shapes the DEE trees, and the grid is the oracle, then every
//! (model, E_T), each over the five paper workloads. Of the 210
//! constrained cells the memo answers 85 at tiny without running a loop
//! (DESIGN.md §4, item 9):
//! - SP and SP-CD at every E_T past their first window-free run (48);
//! - DEE, DEE-CD and DEE-CD-MF at E_T 8, where the static tree degenerates
//!   to the chain SP, SP-CD and SP-CD-MF already ran (15 identical runs);
//! - DEE and DEE-CD from E_T 64 on cc1 and xlisp and at 256 on espresso,
//!   past a tree already bound by data and serialization alone (14);
//! - SP-CD-MF past its first run whose last completion and resolves were
//!   all window-free (8).
//!
//! Each answer must equal a fresh run on a trace of its own. A change that
//! loses an answer, or that answers a cell it should run, fails here.

use dee::ilpsim::{harmonic_mean, simulate, Model, PreparedTrace, SimConfig};
use dee::predict::{measure_accuracy, TwoBitCounter};
use dee::workloads::{all_workloads, Scale};

/// `fig5`'s E_T axis (`dee_bench::FIG5_RESOURCES`).
const FIG5_RESOURCES: [u32; 6] = [8, 16, 32, 64, 128, 256];

/// The cells the memo answers at tiny: per model and workload, the E_Ts.
const ANSWERED_AT_TINY: &[(&str, &str, &[u32])] = &[
    ("SP", "cc1", &[16, 32, 64, 128, 256]),
    ("SP", "compress", &[32, 64, 128, 256]),
    ("SP", "eqntott", &[16, 32, 64, 128, 256]),
    ("SP", "espresso", &[16, 32, 64, 128, 256]),
    ("SP", "xlisp", &[16, 32, 64, 128, 256]),
    ("DEE", "cc1", &[8, 64, 128, 256]),
    ("DEE", "compress", &[8]),
    ("DEE", "eqntott", &[8]),
    ("DEE", "espresso", &[8, 256]),
    ("DEE", "xlisp", &[8, 64, 128, 256]),
    ("SP-CD", "cc1", &[16, 32, 64, 128, 256]),
    ("SP-CD", "compress", &[32, 64, 128, 256]),
    ("SP-CD", "eqntott", &[16, 32, 64, 128, 256]),
    ("SP-CD", "espresso", &[16, 32, 64, 128, 256]),
    ("SP-CD", "xlisp", &[16, 32, 64, 128, 256]),
    ("DEE-CD", "cc1", &[8, 64, 128, 256]),
    ("DEE-CD", "compress", &[8]),
    ("DEE-CD", "eqntott", &[8]),
    ("DEE-CD", "espresso", &[8, 256]),
    ("DEE-CD", "xlisp", &[8, 64, 128, 256]),
    ("SP-CD-MF", "compress", &[256]),
    ("SP-CD-MF", "eqntott", &[256]),
    ("SP-CD-MF", "espresso", &[64, 128, 256]),
    ("SP-CD-MF", "xlisp", &[64, 128, 256]),
    ("DEE-CD-MF", "cc1", &[8]),
    ("DEE-CD-MF", "compress", &[8]),
    ("DEE-CD-MF", "eqntott", &[8]),
    ("DEE-CD-MF", "espresso", &[8]),
    ("DEE-CD-MF", "xlisp", &[8]),
];

/// The (model, workload, E_T) cells of `fig5` at `scale` that the memo
/// answers, sorted, after checking each answer against a fresh run.
fn fig5_memo_answers(scale: Scale) -> Vec<(&'static str, String, u32)> {
    let workloads = all_workloads(scale);
    let traces: Vec<_> = workloads
        .iter()
        .map(|w| w.capture_trace().expect("workload runs"))
        .collect();
    let prepare = |b: usize| PreparedTrace::new(&workloads[b].program, &traces[b]);
    let accuracies: Vec<f64> = traces
        .iter()
        .map(|t| measure_accuracy(&mut TwoBitCounter::new(), t).accuracy())
        .collect();
    let p = harmonic_mean(&accuracies);
    let shared: Vec<_> = (0..workloads.len()).map(prepare).collect();
    let mut points = vec![SimConfig::new(Model::Oracle, 0)];
    for model in Model::all_constrained() {
        points.extend(FIG5_RESOURCES.map(|et| SimConfig::new(model, et).with_p(p)));
    }
    let mut answered = Vec::new();
    for config in &points {
        for (b, prepared) in shared.iter().enumerate() {
            let before = prepared.window_memo_answers().total();
            let outcome = simulate(prepared, config);
            if prepared.window_memo_answers().total() > before {
                let name = &workloads[b].name;
                answered.push((config.model.name(), name.to_string(), config.et));
                assert_eq!(
                    outcome,
                    simulate(&prepare(b), config),
                    "{name} {scale:?} {config:?}: the memo's answer differs from a fresh run"
                );
            }
        }
    }
    answered.sort();
    answered
}

#[test]
fn fig5_tiny_answers_85_cells_from_the_memo() {
    let mut expected: Vec<_> = ANSWERED_AT_TINY
        .iter()
        .flat_map(|&(model, name, ets)| ets.iter().map(move |&et| (model, name.to_string(), et)))
        .collect();
    expected.sort();
    assert_eq!(expected.len(), 85);
    assert_eq!(fig5_memo_answers(Scale::Tiny), expected);
}

/// `cargo test --release --test fig5_window_memo -- --ignored`
#[test]
#[ignore = "seconds in release, minutes in debug"]
fn fig5_small_and_medium_answer_83_and_80_cells_from_the_memo() {
    assert_eq!(fig5_memo_answers(Scale::Small).len(), 83);
    assert_eq!(fig5_memo_answers(Scale::Medium).len(), 80);
}
