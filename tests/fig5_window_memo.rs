//! The window memo on Figure 5's own sweep.
//!
//! The cells run in `fig5`'s order on one shared `PreparedTrace` per
//! workload, as `fig5 --jobs 1` runs them: the suite's characteristic
//! accuracy shapes the DEE trees, and the grid is the oracle, then every
//! (model, E_T), each over the five paper workloads. Of the 210
//! constrained cells the memo answers 56 without running the loop: SP and
//! SP-CD at every E_T past their first window-free run (48), and DEE and
//! DEE-CD at E_T 8, where the static tree degenerates to SP's chain (8).
//! Each answer must equal a fresh run on a trace of its own. A change that
//! loses the skip, or that answers a cell it should run, fails here.

use dee::ilpsim::{harmonic_mean, simulate, Model, PreparedTrace, SimConfig};
use dee::predict::{measure_accuracy, TwoBitCounter};
use dee::workloads::{all_workloads, Scale};

/// `fig5`'s E_T axis (`dee_bench::FIG5_RESOURCES`).
const FIG5_RESOURCES: [u32; 6] = [8, 16, 32, 64, 128, 256];

/// How many of `fig5`'s cells at `scale` the memo answers, after checking
/// each answer against a fresh run.
fn fig5_memo_answers(scale: Scale) -> u64 {
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
    let mut answered = 0;
    for config in &points {
        for (b, prepared) in shared.iter().enumerate() {
            let before = prepared.window_memo_answers();
            let outcome = simulate(prepared, config);
            if prepared.window_memo_answers() > before {
                answered += 1;
                assert_eq!(
                    outcome,
                    simulate(&prepare(b), config),
                    "{} {scale:?} {config:?}: the memo's answer differs from a fresh run",
                    workloads[b].name
                );
            }
        }
    }
    answered
}

#[test]
fn fig5_tiny_answers_56_cells_from_the_memo() {
    assert_eq!(fig5_memo_answers(Scale::Tiny), 56);
}

/// `cargo test --release --test fig5_window_memo -- --ignored`
#[test]
#[ignore = "seconds in release, minutes in debug"]
fn fig5_small_and_medium_answer_56_cells_from_the_memo() {
    for scale in [Scale::Small, Scale::Medium] {
        assert_eq!(fig5_memo_answers(scale), 56, "{scale:?}");
    }
}
