//! Accuracy measurement over captured traces.
//!
//! [`measure_accuracy`] replays a trace's conditional branches through a
//! predictor with immediate resolution — the paper's simulator regime.
//! [`measure_accuracy_delayed`] resolves each branch only after `delay`
//! further branches have been predicted, modelling the many-unresolved-
//! branches regime of §4.3 that motivates speculative PAp update.
//! [`mispredict_flags`] produces the per-dynamic-instruction misprediction
//! flags the execution models consume.

use std::collections::VecDeque;

use dee_vm::Trace;

use crate::BranchPredictor;

/// Hit/miss counts from an accuracy measurement.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AccuracyReport {
    /// Dynamic conditional branches measured.
    pub branches: u64,
    /// Correct predictions.
    pub hits: u64,
}

impl AccuracyReport {
    /// Prediction accuracy in `[0, 1]`, or 1.0 for branch-free traces.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.branches == 0 {
            1.0
        } else {
            self.hits as f64 / self.branches as f64
        }
    }
}

/// Replays `trace` through `predictor` with immediate resolution.
pub fn measure_accuracy(predictor: &mut dyn BranchPredictor, trace: &Trace) -> AccuracyReport {
    let mut report = AccuracyReport::default();
    for (pc, outcome) in trace.branch_outcomes() {
        report.branches += 1;
        if predictor.predict(pc) == outcome.taken {
            report.hits += 1;
        }
        predictor.resolve(pc, outcome.taken);
    }
    report
}

/// Replays `trace` resolving each branch only after `delay` further
/// branches have been predicted (delay 0 = immediate).
pub fn measure_accuracy_delayed(
    predictor: &mut dyn BranchPredictor,
    trace: &Trace,
    delay: usize,
) -> AccuracyReport {
    let mut report = AccuracyReport::default();
    let mut pending: VecDeque<(u32, bool)> = VecDeque::new();
    for (pc, outcome) in trace.branch_outcomes() {
        report.branches += 1;
        if predictor.predict(pc) == outcome.taken {
            report.hits += 1;
        }
        pending.push_back((pc, outcome.taken));
        if pending.len() > delay {
            let (pc, taken) = pending.pop_front().expect("nonempty");
            predictor.resolve(pc, taken);
        }
    }
    while let Some((pc, taken)) = pending.pop_front() {
        predictor.resolve(pc, taken);
    }
    report
}

/// Per-record misprediction flags: `flags[i]` is true iff record `i` is a
/// conditional branch that `predictor` (resolved immediately, as in the
/// paper's simulator) mispredicts. Non-branch records are `false`.
#[must_use]
pub fn mispredict_flags(predictor: &mut dyn BranchPredictor, trace: &Trace) -> Vec<bool> {
    let mut flags = vec![false; trace.len()];
    for (i, pc, outcome) in trace.branches() {
        flags[i] = predictor.predict(pc) != outcome.taken;
        predictor.resolve(pc, outcome.taken);
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlwaysTaken, PapAdaptive, TwoBitCounter};
    use dee_vm::{BranchOutcome, Trace, TraceRecord};

    fn branch_record(pc: u32, taken: bool) -> TraceRecord {
        TraceRecord {
            pc,
            srcs: [None, None],
            dst: None,
            mem_read: None,
            mem_write: None,
            branch: Some(BranchOutcome { taken, target: 0 }),
            depth: 0,
        }
    }

    fn plain_record(pc: u32) -> TraceRecord {
        TraceRecord {
            pc,
            srcs: [None, None],
            dst: None,
            mem_read: None,
            mem_write: None,
            branch: None,
            depth: 0,
        }
    }

    fn trace_of(outcomes: &[(u32, bool)]) -> Trace {
        let records = outcomes.iter().map(|&(pc, taken)| branch_record(pc, taken));
        Trace::from_parts(records, vec![])
    }

    #[test]
    fn always_taken_accuracy_equals_taken_rate() {
        let t = trace_of(&[(0, true), (0, true), (0, false), (0, true)]);
        let report = measure_accuracy(&mut AlwaysTaken::new(), &t);
        assert_eq!(report.branches, 4);
        assert_eq!(report.hits, 3);
        assert!((report.accuracy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_reports_perfect() {
        let t = Trace::from_parts(vec![plain_record(0)], vec![]);
        let report = measure_accuracy(&mut TwoBitCounter::new(), &t);
        assert_eq!(report.branches, 0);
        assert_eq!(report.accuracy(), 1.0);
    }

    #[test]
    fn counter_warms_up_on_biased_branch() {
        let outcomes: Vec<(u32, bool)> = (0..100).map(|_| (5, true)).collect();
        let report = measure_accuracy(&mut TwoBitCounter::new(), &trace_of(&outcomes));
        assert_eq!(report.hits, 100, "initialized taken: no misses");
    }

    #[test]
    fn mispredict_flags_align_with_records() {
        let records = vec![
            plain_record(0),
            branch_record(1, false), // counter inits taken -> mispredict
            plain_record(2),
            branch_record(1, false), // counter now weakly-not-taken -> hit
        ];
        let t = Trace::from_parts(records, vec![]);
        let flags = mispredict_flags(&mut TwoBitCounter::new(), &t);
        assert_eq!(flags, vec![false, true, false, false]);
    }

    #[test]
    fn delayed_resolution_degrades_counter() {
        // Period-2 loop exit pattern: 3 taken then 1 not, repeated. With
        // immediate resolution the counter misses only exits; with delay 8
        // it predicts from stale state and does no better (usually worse).
        let outcomes: Vec<(u32, bool)> = (0..400).map(|i| (0, i % 4 != 3)).collect();
        let immediate = measure_accuracy(&mut TwoBitCounter::new(), &trace_of(&outcomes));
        let delayed = measure_accuracy_delayed(&mut TwoBitCounter::new(), &trace_of(&outcomes), 8);
        assert!(immediate.hits >= delayed.hits);
    }

    #[test]
    fn delay_zero_matches_immediate() {
        let outcomes: Vec<(u32, bool)> = (0..97).map(|i| (3, i % 5 != 0)).collect();
        let t = trace_of(&outcomes);
        let a = measure_accuracy(&mut TwoBitCounter::new(), &t);
        let b = measure_accuracy_delayed(&mut TwoBitCounter::new(), &t, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn speculative_pap_beats_counter_under_delay() {
        // Strongly patterned branch (period 2) with 6 outstanding
        // predictions: the speculatively-updated PAp keeps its history
        // aligned; the counter sees stale training.
        let outcomes: Vec<(u32, bool)> = (0..600).map(|i| (0, i % 2 == 0)).collect();
        let t = trace_of(&outcomes);
        let pap = measure_accuracy_delayed(&mut PapAdaptive::with_config(2, true), &t, 6);
        let counter = measure_accuracy_delayed(&mut TwoBitCounter::new(), &t, 6);
        assert!(
            pap.hits > counter.hits,
            "pap {} should beat counter {}",
            pap.hits,
            counter.hits
        );
    }
}
