//! Property-based tests on the theory layer: optimality of the greedy
//! assignment (Theorem 1/Corollary 1) against exhaustive search, and
//! structural invariants of the speculation trees.
//!
//! Cases are drawn from a deterministic `dee-rng` sweep (the repo builds
//! with no external crates, so no `proptest`); assertion messages carry
//! the sampled parameters so failures reproduce exactly.

use dee::theory::{
    assign_resources, expected_performance, PathCandidate, SpecTree, StaticTree, Strategy,
    TreeParams,
};
use dee_rng::Rng;

/// Uniform in `lo..hi`.
fn u_in(rng: &mut Rng, lo: u32, hi: u32) -> u32 {
    lo + rng.below((hi - lo) as usize) as u32
}

/// Exhaustive best `P_tot` over all allocations (small instances only).
fn brute_force_best(paths: &[PathCandidate], total: u32) -> f64 {
    fn recurse(
        paths: &[PathCandidate],
        left: u32,
        idx: usize,
        alloc: &mut Vec<u32>,
        best: &mut f64,
    ) {
        if idx == paths.len() {
            let perf = expected_performance(paths, alloc);
            if perf > *best {
                *best = perf;
            }
            return;
        }
        for e in 0..=left {
            alloc.push(e);
            recurse(paths, left - e, idx + 1, alloc, best);
            alloc.pop();
        }
    }
    let mut best = f64::MIN;
    recurse(paths, total, 0, &mut Vec::new(), &mut best);
    best
}

/// Theorem 1 + Corollary 1: greedy equals exhaustive optimum.
#[test]
fn greedy_assignment_is_optimal() {
    let mut rng = Rng::from_state(0x7eed_0001);
    for case in 0..64 {
        let n = u_in(&mut rng, 1, 5) as usize;
        let cps: Vec<f64> = (0..n).map(|_| rng.f64_in(0.01, 1.0)).collect();
        let sats: Vec<Option<u32>> = (0..n)
            .map(|_| {
                if rng.next_u64().is_multiple_of(2) {
                    Some(u_in(&mut rng, 1, 4))
                } else {
                    None
                }
            })
            .collect();
        let total = u_in(&mut rng, 0, 7);
        let paths: Vec<PathCandidate> = cps
            .iter()
            .zip(sats.iter())
            .map(|(&cp, &sat)| PathCandidate {
                cp,
                saturation: sat,
            })
            .collect();
        let greedy = assign_resources(&paths, total);
        let greedy_perf = expected_performance(&paths, &greedy);
        let best = brute_force_best(&paths, total);
        assert!(
            (greedy_perf - best).abs() < 1e-9,
            "case {case}: greedy {greedy_perf} vs optimal {best} for {paths:?} total {total}"
        );
    }
}

/// The greedy allocation never hands out more than the budget.
#[test]
fn assignment_respects_budget() {
    let mut rng = Rng::from_state(0x7eed_0002);
    for case in 0..128 {
        let n = u_in(&mut rng, 1, 8) as usize;
        let paths: Vec<PathCandidate> = (0..n)
            .map(|_| PathCandidate::saturating(rng.f64_in(0.01, 1.0), 3))
            .collect();
        let total = u_in(&mut rng, 0, 50);
        let alloc = assign_resources(&paths, total);
        assert!(
            alloc.iter().sum::<u32>() <= total,
            "case {case}: total {total}"
        );
        for (a, p) in alloc.iter().zip(&paths) {
            assert!(*a <= p.saturation.unwrap_or(u32::MAX), "case {case}");
        }
    }
}

/// Disjoint trees dominate SP and EE in expected performance and
/// interpolate their depths.
#[test]
fn disjoint_tree_dominates_and_interpolates() {
    let mut rng = Rng::from_state(0x7eed_0003);
    for case in 0..128 {
        let (p, et) = (rng.f64_in(0.5, 0.99), u_in(&mut rng, 1, 200));
        let dee = SpecTree::build(Strategy::Disjoint, p, et);
        let sp = SpecTree::build(Strategy::SinglePath, p, et);
        let ee = SpecTree::build(Strategy::Eager, p, et);
        assert!(
            dee.total_cp() >= sp.total_cp() - 1e-9,
            "case {case}: p={p} et={et}"
        );
        assert!(
            dee.total_cp() >= ee.total_cp() - 1e-9,
            "case {case}: p={p} et={et}"
        );
        assert!(dee.depth() <= sp.depth(), "case {case}: p={p} et={et}");
        assert!(dee.depth() >= ee.depth(), "case {case}: p={p} et={et}");
    }
}

/// Every chosen path's cp is the product of local probabilities along
/// its ancestry (a cp-consistency invariant).
#[test]
fn chosen_path_cps_are_consistent() {
    let mut rng = Rng::from_state(0x7eed_0004);
    for case in 0..128 {
        let (p, et) = (rng.f64_in(0.5, 0.99), u_in(&mut rng, 1, 64));
        let tree = SpecTree::build(Strategy::Disjoint, p, et);
        for path in tree.paths() {
            let mut cp = 1.0;
            let mut cursor = Some(path);
            while let Some(node) = cursor {
                cp *= if node.predicted { p } else { 1.0 - p };
                cursor = node.parent.map(|i| &tree.paths()[i as usize]);
            }
            assert!((cp - path.cp).abs() < 1e-9, "case {case}: p={p} et={et}");
        }
    }
}

/// Static-tree coverage is consistent with its own region accounting
/// and fits the budget at every operating point.
#[test]
fn static_tree_accounting() {
    let mut rng = Rng::from_state(0x7eed_0005);
    for case in 0..256 {
        let (p, et) = (rng.f64_in(0.5, 0.99), u_in(&mut rng, 1, 400));
        let tree = StaticTree::build(TreeParams { p, et });
        let region: u32 = (1..=tree.h_dee()).map(|k| tree.coverage_at_level(k)).sum();
        assert_eq!(
            region,
            tree.dee_region_paths(),
            "case {case}: p={p} et={et}"
        );
        assert!(tree.total_paths() <= et, "case {case}: p={p} et={et}");
        assert!(tree.mainline_len() >= 1, "case {case}: p={p} et={et}");
        // Degeneracy exactly mirrors is_single_path().
        assert_eq!(
            tree.h_dee() == 0,
            tree.is_single_path(),
            "case {case}: p={p} et={et}"
        );
    }
}

#[test]
fn figure_1_numbers_are_stable() {
    // Pin the exact Figure 1 values as a regression anchor.
    let dee = SpecTree::build(Strategy::Disjoint, 0.7, 6);
    let mut cps: Vec<f64> = dee.paths().iter().map(|p| p.cp).collect();
    cps.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let expected = [0.7, 0.49, 0.343, 0.3, 0.2401, 0.21];
    for (a, e) in cps.iter().zip(expected.iter()) {
        assert!((a - e).abs() < 1e-12);
    }
}
