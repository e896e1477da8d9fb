//! The static tree heuristic (§3.1, Figure 2).
//!
//! Computing cumulative probabilities dynamically is impractical (the paper
//! estimates hundreds of low-precision multiplies plus a sort, every cycle).
//! The heuristic instead fixes the DEE tree's *shape* at CPU design time
//! from a characteristic prediction accuracy `p`:
//!
//! * a **Main-Line (ML)** chain of `l` predicted branch paths, and
//! * a triangular **DEE region**: the not-predicted path of ML branch
//!   `B_k` (for `k = 1..h_DEE`, counted from the tree root) plus its
//!   subsequent predicted paths, forming a composite DEE path of length
//!   `h_DEE − k + 1`.
//!
//! With `c = log_p(1 − p)`, the paper's dimensions are
//!
//! ```text
//! E_T = c + h²/2 + 3h/2 − 1
//! h   = −3/2 + ½·√(8·E_T − 8c + 17)
//! l   = h + c − 1
//! ```
//!
//! valid while `p^l > (1 − p)²` (no second-order DEE paths wanted) and
//! `(1 − p) > p^l` (a non-empty DEE region). Equivalently — and this is how
//! [`StaticTree::build`] constructs the shape — the tree is the greedy
//! top-`E_T` selection of paths by cumulative probability under the
//! constant-`p` assumption, which is optimal by Theorem 1. When
//! `(1 − p) ≤ p^{E_T}` the DEE region is empty and the tree degenerates to
//! Single Path, which is why the paper's DEE curves coincide with SP at and
//! below 16 branch paths for `p ≈ 0.905`.

/// The largest branch-path budget `E_T` the front ends accept (`dee-serve`
/// requests and the `dee` CLI). The static tree's shape search costs
/// `O(E_T^1.5)` additions over `O(E_T)` memory, so an unbounded value
/// lets one request burn a worker for hours; 100 000 already covers every
/// sweep in the paper by two orders of magnitude.
pub const MAX_ET: u32 = 100_000;

/// Inputs to the static tree heuristic.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TreeParams {
    /// Characteristic branch prediction accuracy (measured over a
    /// representative set of benchmarks; the paper uses 0.9053).
    pub p: f64,
    /// Total branch-path resources `E_T`.
    pub et: u32,
}

/// The fixed tree shape used by the DEE execution models and by Levo.
///
/// # Example
///
/// ```
/// use dee_core::{StaticTree, TreeParams};
///
/// // Figure 2: p = 0.90, E_T = 34.
/// let tree = StaticTree::build(TreeParams { p: 0.90, et: 34 });
/// assert_eq!(tree.mainline_len(), 24);
/// assert_eq!(tree.h_dee(), 4);
/// // DEE path at B1 covers 4 branch paths; at B4, one.
/// assert_eq!(tree.coverage_at_level(1), 4);
/// assert_eq!(tree.coverage_at_level(4), 1);
/// assert_eq!(tree.coverage_at_level(5), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct StaticTree {
    p: f64,
    et: u32,
    l: u32,
    h: u32,
}

/// `log_p(1 − p)`, the paper's `c`: the ML depth at which a predicted
/// path's cumulative probability falls below a first not-predicted path's.
///
/// # Panics
///
/// Panics unless `0.5 <= p < 1`.
#[must_use]
pub fn log_p_not_p(p: f64) -> f64 {
    assert!((0.5..1.0).contains(&p), "p must be in [0.5, 1)");
    (1.0 - p).ln() / p.ln()
}

/// The depth of the Eager Execution tree with `et` branch paths: the
/// largest `d` with `2^(d+1) − 2 <= et` (complete levels only, plus any
/// partial level which does not add coverage depth for the whole trace).
#[must_use]
pub fn ee_depth(et: u32) -> u32 {
    let mut d = 0u32;
    let mut used = 0u64;
    loop {
        let next_level = 1u64 << (d + 1);
        if used + next_level > u64::from(et) {
            return d;
        }
        used += next_level;
        d += 1;
    }
}

impl StaticTree {
    /// Builds the static DEE tree for `params`: the triangular
    /// (ML + DEE-region) shape with the highest expected performance
    /// `P_tot = Σ cp` that fits in `et` branch paths.
    ///
    /// In the regime where the paper's formulas are valid
    /// (`p^l > (1−p)²` and `(1−p) > p^l`) this coincides with the
    /// unconstrained greedy selection of
    /// [`SpecTree`](crate::tree::SpecTree), which is optimal by Theorem 1;
    /// outside that regime it is the best tree of the heuristic's shape.
    ///
    /// # Panics
    ///
    /// Panics unless `0.5 <= p < 1` and `et >= 1`.
    #[must_use]
    pub fn build(params: TreeParams) -> Self {
        let TreeParams { p, et } = params;
        assert!((0.5..1.0).contains(&p), "p must be in [0.5, 1)");
        assert!(et >= 1, "at least one branch path resource required");
        // `p^k`, and the main line's sum `p + p² + … + p^l` for every `l`,
        // each added in the order a per-candidate sum would add it, so a
        // candidate's total costs only its DEE region's O(h²) terms.
        let pow: Vec<f64> = (0..=et).map(|k| p.powi(k as i32)).collect();
        let mainline: Vec<f64> = pow
            .iter()
            .skip(1)
            .scan(0.0, |sum, &pk| {
                *sum += pk;
                Some(*sum)
            })
            .collect();
        let triangle_cp = |l: u32, h: u32| -> f64 {
            let mut total = mainline[l as usize - 1];
            for k in 1..=h {
                for j in 0..=(h - k) {
                    total += (1.0 - p) * pow[(k - 1 + j) as usize];
                }
            }
            total
        };
        let mut best = StaticTree { p, et, l: et, h: 0 };
        let mut best_cp = triangle_cp(et, 0);
        let mut h = 1u32;
        // A DEE path at B_k parallels ML levels k+1 ..= k+(h-k+1), so the
        // region needs l >= h + 1 to hang off a strictly longer main line.
        while h * (h + 1) / 2 + h < et {
            let l = et - h * (h + 1) / 2;
            let cp = triangle_cp(l, h);
            if cp > best_cp {
                best_cp = cp;
                best = StaticTree { p, et, l, h };
            }
            h += 1;
        }
        best
    }

    /// Builds the tree from the paper's closed-form formulas instead of the
    /// greedy construction. The two agree on the paper's operating points
    /// (this is tested); the greedy form is exact for all inputs.
    #[must_use]
    pub fn build_closed_form(params: TreeParams) -> Self {
        let TreeParams { p, et } = params;
        assert!(et >= 1, "at least one branch path resource required");
        let c = log_p_not_p(p);
        // Degenerate to SP when even the deepest ML path outranks the first
        // not-predicted path.
        if f64::from(et) <= c {
            return StaticTree { p, et, l: et, h: 0 };
        }
        let disc = 8.0 * f64::from(et) - 8.0 * c + 17.0;
        let mut h = ((-3.0 + disc.max(0.0).sqrt()) / 2.0).round().max(0.0) as u32;
        // Keep the DEE region from swallowing the main line.
        while h > 0 && et.saturating_sub(h * (h + 1) / 2) < h {
            h -= 1;
        }
        let l = et - h * (h + 1) / 2;
        StaticTree { p, et, l, h }
    }

    /// The characteristic accuracy this shape was designed for.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Total branch-path resources `E_T`.
    #[must_use]
    pub fn et(&self) -> u32 {
        self.et
    }

    /// Main-line length `l` in branch paths.
    #[must_use]
    pub fn mainline_len(&self) -> u32 {
        self.l
    }

    /// DEE region height/width `h_DEE` (number of DEE'd branches).
    #[must_use]
    pub fn h_dee(&self) -> u32 {
        self.h
    }

    /// Number of branch paths in the DEE region: `h(h+1)/2`.
    #[must_use]
    pub fn dee_region_paths(&self) -> u32 {
        self.h * (self.h + 1) / 2
    }

    /// Total branch paths in the tree (`l` + DEE region`)`; at most `E_T`.
    #[must_use]
    pub fn total_paths(&self) -> u32 {
        self.l + self.dee_region_paths()
    }

    /// Whether the tree has degenerated to a pure Single-Path chain.
    #[must_use]
    pub fn is_single_path(&self) -> bool {
        self.h == 0
    }

    /// How many branch paths past a branch at tree level `level`
    /// (1 = root) its DEE path covers: `h − level + 1` within the DEE
    /// region, 0 below it.
    ///
    /// This is the quantity the DEE execution models use to waive
    /// misprediction penalties: a branch resolving at `level` with a DEE
    /// path has already executed the correct continuation for that many
    /// branch paths.
    #[must_use]
    pub fn coverage_at_level(&self, level: u32) -> u32 {
        if level == 0 || level > self.h {
            0
        } else {
            self.h - level + 1
        }
    }

    /// Cumulative probability labels of the main-line paths (`p^k`),
    /// as printed along the ML of Figure 2.
    #[must_use]
    pub fn mainline_cps(&self) -> Vec<f64> {
        (1..=self.l).map(|k| self.p.powi(k as i32)).collect()
    }

    /// Cumulative probability of extension `j` (0-based) of the DEE path
    /// at branch `B_k`: `(1 − p) · p^(k − 1 + j)`.
    ///
    /// # Panics
    ///
    /// Panics when `k` is outside `1..=h_DEE` or `j >= coverage(k)`.
    #[must_use]
    pub fn dee_path_cp(&self, k: u32, j: u32) -> f64 {
        assert!(k >= 1 && k <= self.h, "k out of DEE region");
        assert!(j < self.coverage_at_level(k), "extension beyond coverage");
        (1.0 - self.p) * self.p.powi((k - 1 + j) as i32)
    }

    /// The validity conditions of the paper's formulas:
    /// `p^l > (1 − p)²` and `(1 − p) > p^l`.
    #[must_use]
    pub fn formulas_valid(&self) -> bool {
        let q = 1.0 - self.p;
        let pl = self.p.powi(self.l as i32);
        pl > q * q && q > pl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2: TreeParams = TreeParams { p: 0.90, et: 34 };

    #[test]
    fn figure_2_dimensions() {
        let t = StaticTree::build(FIG2);
        assert_eq!(t.mainline_len(), 24);
        assert_eq!(t.h_dee(), 4);
        assert_eq!(t.dee_region_paths(), 10);
        assert_eq!(t.total_paths(), 34);
        assert!(t.formulas_valid());
    }

    #[test]
    fn closed_form_matches_greedy_on_paper_points() {
        for &(p, et) in &[(0.90, 34), (0.9053, 100), (0.9053, 32)] {
            let greedy = StaticTree::build(TreeParams { p, et });
            let closed = StaticTree::build_closed_form(TreeParams { p, et });
            assert_eq!(
                greedy.mainline_len(),
                closed.mainline_len(),
                "p={p} et={et}"
            );
            assert_eq!(greedy.h_dee(), closed.h_dee(), "p={p} et={et}");
        }
    }

    #[test]
    fn figure_2_cp_labels() {
        let t = StaticTree::build(FIG2);
        let ml = t.mainline_cps();
        assert!((ml[0] - 0.90).abs() < 1e-12);
        assert!((ml[1] - 0.81).abs() < 1e-12);
        assert!((ml[2] - 0.729).abs() < 1e-12);
        assert!((ml[3] - 0.6561).abs() < 1e-12);
        // First DEE path, first extension: 0.10; at B4: ~0.0729.
        assert!((t.dee_path_cp(1, 0) - 0.10).abs() < 1e-12);
        assert!((t.dee_path_cp(4, 0) - 0.0729).abs() < 1e-12);
        // Deepest extension of the B1 path: (1-p)·p^3 ≈ 0.0729.
        assert!((t.dee_path_cp(1, 3) - 0.0729).abs() < 1e-12);
    }

    #[test]
    fn degenerates_to_single_path_at_low_resources() {
        // p ≈ 0.9053: (1-p) ≤ p^16, so E_T = 16 is a pure SP chain — the
        // paper's "at and below 16 paths the DEE tree is the same as SP".
        for et in [8, 16] {
            let t = StaticTree::build(TreeParams { p: 0.9053, et });
            assert!(t.is_single_path(), "et={et} should be SP");
            assert_eq!(t.mainline_len(), et);
        }
        let t32 = StaticTree::build(TreeParams { p: 0.9053, et: 32 });
        assert!(!t32.is_single_path(), "et=32 should have a DEE region");
    }

    #[test]
    fn levo_operating_point() {
        // E_T = 100, p ≈ 0.9053 (the paper's measured accuracy).
        let t = StaticTree::build(TreeParams { p: 0.9053, et: 100 });
        assert_eq!(t.total_paths(), 100);
        assert!(t.h_dee() >= 10 && t.h_dee() <= 12, "h = {}", t.h_dee());
        assert_eq!(t.mainline_len() + t.dee_region_paths(), 100);
    }

    #[test]
    fn coverage_shape_is_triangular() {
        let t = StaticTree::build(FIG2);
        assert_eq!(t.coverage_at_level(1), 4);
        assert_eq!(t.coverage_at_level(2), 3);
        assert_eq!(t.coverage_at_level(3), 2);
        assert_eq!(t.coverage_at_level(4), 1);
        assert_eq!(t.coverage_at_level(5), 0);
        assert_eq!(t.coverage_at_level(0), 0);
        let total: u32 = (1..=t.h_dee()).map(|k| t.coverage_at_level(k)).sum();
        assert_eq!(total, t.dee_region_paths());
    }

    #[test]
    fn ee_depth_matches_complete_levels() {
        assert_eq!(ee_depth(1), 0);
        assert_eq!(ee_depth(2), 1);
        assert_eq!(ee_depth(5), 1);
        assert_eq!(ee_depth(6), 2); // Figure 1: 6 paths, 2 levels
        assert_eq!(ee_depth(14), 3);
        assert_eq!(ee_depth(256), 7);
        assert_eq!(ee_depth(510), 8);
    }

    #[test]
    fn log_p_not_p_reference_values() {
        // log_0.9(0.1) ≈ 21.85
        assert!((log_p_not_p(0.9) - 21.8543).abs() < 1e-3);
        // log_0.5(0.5) = 1
        assert!((log_p_not_p(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_grows_with_resources() {
        let p = 0.9053;
        let mut last_h = 0;
        for et in [16, 32, 64, 100, 128, 256] {
            let t = StaticTree::build(TreeParams { p, et });
            assert!(t.h_dee() >= last_h, "h should be monotone in E_T");
            last_h = t.h_dee();
            assert!(t.total_paths() <= et);
        }
        assert!(last_h > 0);
    }

    /// `StaticTree::build`'s shape search with every candidate's main line
    /// summed afresh from `p^1`: the reference the tabulated sums must
    /// match bit for bit, so both pick the same `(l, h)`.
    fn resummed_shape(p: f64, et: u32) -> (u32, u32) {
        let triangle_cp = |l: u32, h: u32| -> f64 {
            let mut total = 0.0;
            for k in 1..=l {
                total += p.powi(k as i32);
            }
            for k in 1..=h {
                for j in 0..=(h - k) {
                    total += (1.0 - p) * p.powi((k - 1 + j) as i32);
                }
            }
            total
        };
        let (mut best, mut best_cp) = ((et, 0), triangle_cp(et, 0));
        let mut h = 1u32;
        while h * (h + 1) / 2 + h < et {
            let l = et - h * (h + 1) / 2;
            let cp = triangle_cp(l, h);
            if cp > best_cp {
                (best, best_cp) = ((l, h), cp);
            }
            h += 1;
        }
        best
    }

    /// A grid of accuracies, then the suite's characteristic accuracy (the
    /// harmonic mean of the 2-bit counter's accuracy over the five paper
    /// workloads) at tiny, small and medium, which shapes `fig5`'s trees.
    const SHAPE_PS: [f64; 14] = [
        0.5,
        0.6,
        0.7,
        0.8,
        0.85,
        0.858,
        0.9,
        0.9053,
        0.95,
        0.99,
        0.9999,
        0.8375666664665858,
        0.8561885699124765,
        0.857882825314949,
    ];

    fn assert_resummed_shape(p: f64, et: u32) {
        let tree = StaticTree::build(TreeParams { p, et });
        assert_eq!(
            (tree.mainline_len(), tree.h_dee()),
            resummed_shape(p, et),
            "p={p} et={et}"
        );
    }

    #[test]
    fn tabulated_sums_pick_the_resummed_shape() {
        for p in SHAPE_PS {
            for et in 1..=300 {
                assert_resummed_shape(p, et);
            }
        }
    }

    /// The same up to [`MAX_ET`], E_T halving from it down to 300. The
    /// reference costs `O(E_T^1.5)` `powi` calls a build (seconds at
    /// `MAX_ET`), so this runs in release:
    /// `cargo test --release -p dee-core --lib -- --ignored`.
    #[test]
    #[ignore = "seconds per reference build at MAX_ET; run in release"]
    fn tabulated_sums_pick_the_resummed_shape_up_to_max_et() {
        let mut ets = vec![MAX_ET];
        while ets[ets.len() - 1] > 300 {
            ets.push(ets[ets.len() - 1] / 2);
        }
        for p in SHAPE_PS {
            for &et in &ets {
                assert_resummed_shape(p, et);
            }
        }
    }

    #[test]
    #[should_panic(expected = "extension beyond coverage")]
    fn dee_path_cp_bounds_checked() {
        let t = StaticTree::build(FIG2);
        let _ = t.dee_path_cp(1, 4);
    }
}

#[cfg(test)]
mod proptests {
    //! Property tests over a deterministic xorshift sweep (the repo builds
    //! with no external crates, so no `proptest`; failures print the seed).
    use super::*;
    use dee_rng::Rng;

    /// The greedy static tree never exceeds its resource budget and its
    /// main line is always at least as long as its DEE height.
    #[test]
    fn shape_invariants() {
        let mut rng = Rng::from_state(0x5eed_0001);
        for case in 0..256 {
            let (p, et) = (rng.f64_in(0.5, 0.99), 1 + rng.below(299) as u32);
            let t = StaticTree::build(TreeParams { p, et });
            assert!(t.total_paths() <= et, "case {case}: p={p} et={et}");
            assert!(t.mainline_len() >= 1, "case {case}: p={p} et={et}");
            assert!(
                t.mainline_len() + t.dee_region_paths() == t.total_paths(),
                "case {case}: p={p} et={et}"
            );
            // Triangular coverage is monotonically decreasing in level.
            for level in 1..=t.h_dee() {
                assert!(
                    t.coverage_at_level(level) >= t.coverage_at_level(level + 1),
                    "case {case}: p={p} et={et} level={level}"
                );
            }
        }
    }

    /// The greedy tree's total cp dominates both SP's and EE's
    /// (optimality of greatest marginal benefit).
    #[test]
    fn greedy_total_cp_dominates() {
        use crate::tree::{SpecTree, Strategy};
        let mut rng = Rng::from_state(0x5eed_0002);
        for case in 0..256 {
            let (p, et) = (rng.f64_in(0.5, 0.99), 1 + rng.below(127) as u32);
            let dee = SpecTree::build(Strategy::Disjoint, p, et).total_cp();
            let sp = SpecTree::build(Strategy::SinglePath, p, et).total_cp();
            let ee = SpecTree::build(Strategy::Eager, p, et).total_cp();
            assert!(dee >= sp - 1e-9, "case {case}: p={p} et={et}");
            assert!(dee >= ee - 1e-9, "case {case}: p={p} et={et}");
        }
    }
}
