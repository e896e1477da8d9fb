//! Every registered workload must be lint-clean at every scale, and its
//! dynamic trace must verify against the static branch census.

use dee_analyze::{analyze, BranchCensus};
use dee_workloads::{Scale, WorkloadRegistry};

#[test]
fn workloads_have_no_diagnostics_at_any_scale() {
    for scale in [Scale::Tiny, Scale::Small, Scale::Medium, Scale::Large] {
        for w in WorkloadRegistry::builtin().build_all(scale) {
            let report = analyze(&w.program);
            assert!(
                report.is_clean(),
                "{} @ {scale:?} not lint-clean:\n{}",
                w.name,
                report.render_text(&w.name)
            );
        }
    }
}

#[test]
fn workload_traces_verify_against_census() {
    for w in WorkloadRegistry::builtin().build_all(Scale::Tiny) {
        let census = BranchCensus::build(&w.program);
        let trace = w.capture_trace().expect("workload traces");
        let check = census
            .verify_trace(&trace)
            .unwrap_or_else(|e| panic!("{}: cross-check failed: {e}", w.name));
        assert_eq!(check.records, trace.len() as u64);
        // Every dynamic branch pc is a census member (by construction of a
        // passing verify), and the census covers at least those pcs.
        for pc in check.counts.keys() {
            assert!(census.branch(*pc).is_some());
        }
    }
}
