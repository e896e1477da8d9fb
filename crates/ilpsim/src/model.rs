use std::fmt;

/// An execution model from §5.2 of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Model {
    /// Eager Execution: both paths of every branch, breadth-first tree.
    Ee,
    /// Single Path: branch prediction only, restrictive control deps.
    Sp,
    /// Disjoint Eager Execution with restrictive control dependencies.
    Dee,
    /// SP with reduced control dependencies; branches serialized.
    SpCd,
    /// DEE with reduced control dependencies; branches serialized.
    DeeCd,
    /// SP with minimal control dependencies; branches execute in parallel.
    SpCdMf,
    /// DEE with minimal control dependencies; branches in parallel.
    DeeCdMf,
    /// Eager execution with unlimited resources; branches unconstrained.
    Oracle,
}

impl Model {
    /// The seven resource-constrained models, in the paper's listing order.
    #[must_use]
    pub fn all_constrained() -> [Model; 7] {
        [
            Model::Ee,
            Model::Sp,
            Model::Dee,
            Model::SpCd,
            Model::DeeCd,
            Model::SpCdMf,
            Model::DeeCdMf,
        ]
    }

    /// All eight models: the seven constrained ones in the paper's
    /// listing order, then the oracle.
    #[must_use]
    pub fn all() -> [Model; 8] {
        let [ee, sp, dee, sp_cd, dee_cd, sp_cd_mf, dee_cd_mf] = Model::all_constrained();
        [
            ee,
            sp,
            dee,
            sp_cd,
            dee_cd,
            sp_cd_mf,
            dee_cd_mf,
            Model::Oracle,
        ]
    }

    /// The model whose [`name`](Self::name) is `name`, ignoring ASCII
    /// case.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Model> {
        Model::all()
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
    }

    /// The paper's name for the model.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Model::Ee => "EE",
            Model::Sp => "SP",
            Model::Dee => "DEE",
            Model::SpCd => "SP-CD",
            Model::DeeCd => "DEE-CD",
            Model::SpCdMf => "SP-CD-MF",
            Model::DeeCdMf => "DEE-CD-MF",
            Model::Oracle => "Oracle",
        }
    }

    /// Whether the model uses the DEE static tree (coverage waivers).
    #[must_use]
    pub fn is_dee(self) -> bool {
        matches!(self, Model::Dee | Model::DeeCd | Model::DeeCdMf)
    }

    /// Whether the model restricts mispredict penalties to the
    /// control-dependence region (`-CD` variants).
    #[must_use]
    pub fn is_cd(self) -> bool {
        matches!(
            self,
            Model::SpCd | Model::DeeCd | Model::SpCdMf | Model::DeeCdMf
        )
    }

    /// Whether branches may resolve in parallel (`-MF` variants, EE, and
    /// the oracle).
    #[must_use]
    pub fn is_mf(self) -> bool {
        matches!(
            self,
            Model::SpCdMf | Model::DeeCdMf | Model::Ee | Model::Oracle
        )
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-class instruction latencies in cycles.
///
/// The paper assumes unit latency throughout and lists non-unit latencies
/// as future work (§1.2, §5.3: "It is not yet clear what the net effect of
/// assuming non-unit latencies on the DEE-CD-MF model will be"). This
/// model lets the simulator answer that question: results are available to
/// consumers `latency` cycles after issue, and the ideal sequential
/// baseline takes the sum of latencies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LatencyModel {
    /// Simple ALU operations, moves, and immediates.
    pub alu: u32,
    /// Multiply, divide, remainder.
    pub mul_div: u32,
    /// Loads and stores.
    pub mem: u32,
    /// Conditional branches and indirect jumps (resolution latency).
    pub branch: u32,
}

impl LatencyModel {
    /// The paper's machine: everything single-cycle.
    pub const UNIT: LatencyModel = LatencyModel {
        alu: 1,
        mul_div: 1,
        mem: 1,
        branch: 1,
    };

    /// A conventional early-90s pipeline: 4-cycle multiply/divide,
    /// 2-cycle memory, single-cycle ALU and branch resolution.
    pub const CLASSIC: LatencyModel = LatencyModel {
        alu: 1,
        mul_div: 4,
        mem: 2,
        branch: 1,
    };

    /// Validates that every latency is at least one cycle.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.alu >= 1 && self.mul_div >= 1 && self.mem >= 1 && self.branch >= 1
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::UNIT
    }
}

/// Configuration for one simulation run.
///
/// # Example
///
/// ```
/// use dee_ilpsim::{LatencyModel, Model, SimConfig};
///
/// let config = SimConfig::new(Model::DeeCdMf, 100)
///     .with_p(0.9053)
///     .with_latency(LatencyModel::CLASSIC)
///     .with_max_pe(64);
/// assert_eq!(config.et, 100);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SimConfig {
    /// The execution model.
    pub model: Model,
    /// Branch-path resources `E_T` (ignored by the oracle).
    pub et: u32,
    /// Characteristic prediction accuracy for the DEE static tree shape.
    /// Defaults to the paper's measured 0.9053; pass the accuracy measured
    /// on your own traces for shape-faithful DEE trees.
    pub p: f64,
    /// Instruction latencies (default: the paper's unit latency).
    pub latency: LatencyModel,
    /// Explicit processing-element limit: at most this many instructions
    /// issue per cycle (fully pipelined PEs), scheduled greedily in
    /// program order. `None` reproduces the paper's implicit PE limit
    /// (bounded only by the branch paths in the window).
    pub max_pe: Option<u32>,
    /// Overrides the DEE tree shape: `(l, h)` instead of the §3.1
    /// heuristic, for tree-shape ablations. Must satisfy
    /// `l + h(h+1)/2 <= et`.
    pub dee_shape: Option<(u32, u32)>,
}

impl SimConfig {
    /// Creates a configuration with the paper's default `p` (0.9053).
    ///
    /// # Panics
    ///
    /// Panics if `et == 0` for a constrained model.
    #[must_use]
    pub fn new(model: Model, et: u32) -> Self {
        assert!(
            model == Model::Oracle || et >= 1,
            "constrained models need at least one branch path"
        );
        SimConfig {
            model,
            et,
            p: 0.9053,
            latency: LatencyModel::UNIT,
            max_pe: None,
            dee_shape: None,
        }
    }

    /// Sets the characteristic accuracy used to shape the DEE tree.
    #[must_use]
    pub fn with_p(mut self, p: f64) -> Self {
        self.p = p;
        self
    }

    /// Sets the instruction latency model.
    ///
    /// # Panics
    ///
    /// Panics if any latency is zero.
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        assert!(latency.is_valid(), "latencies must be at least one cycle");
        self.latency = latency;
        self
    }

    /// Sets an explicit per-cycle PE (issue) limit.
    ///
    /// # Panics
    ///
    /// Panics if `max_pe` is zero.
    #[must_use]
    pub fn with_max_pe(mut self, max_pe: u32) -> Self {
        assert!(max_pe >= 1, "need at least one PE");
        self.max_pe = Some(max_pe);
        self
    }

    /// Overrides the DEE tree's `(main-line length, h_DEE)` for shape
    /// ablations (ignored by non-DEE models).
    ///
    /// # Panics
    ///
    /// Panics unless `l >= 1` and `l + h(h+1)/2 <= et`.
    #[must_use]
    pub fn with_dee_shape(mut self, l: u32, h: u32) -> Self {
        assert!(l >= 1, "main line must be non-empty");
        assert!(
            l + h * (h + 1) / 2 <= self.et,
            "shape exceeds the resource budget"
        );
        self.dee_shape = Some((l, h));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = Model::all().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "EE",
                "SP",
                "DEE",
                "SP-CD",
                "DEE-CD",
                "SP-CD-MF",
                "DEE-CD-MF",
                "Oracle"
            ]
        );
        assert_eq!(Model::all()[..7], Model::all_constrained());
        assert_eq!(Model::Oracle.to_string(), "Oracle");
        for model in Model::all() {
            assert_eq!(Model::from_name(&model.name().to_lowercase()), Some(model));
        }
    }

    #[test]
    fn classification_flags() {
        assert!(Model::DeeCdMf.is_dee() && Model::DeeCdMf.is_cd() && Model::DeeCdMf.is_mf());
        assert!(Model::Dee.is_dee() && !Model::Dee.is_cd() && !Model::Dee.is_mf());
        assert!(!Model::Sp.is_dee() && !Model::Sp.is_cd() && !Model::Sp.is_mf());
        assert!(Model::SpCd.is_cd() && !Model::SpCd.is_mf());
        assert!(Model::Ee.is_mf() && !Model::Ee.is_cd());
        assert!(Model::Oracle.is_mf());
    }

    #[test]
    fn config_defaults() {
        let c = SimConfig::new(Model::Sp, 16);
        assert!((c.p - 0.9053).abs() < 1e-12);
        assert_eq!(c.latency, LatencyModel::UNIT);
        assert_eq!(c.max_pe, None);
        let c = c
            .with_p(0.85)
            .with_latency(LatencyModel::CLASSIC)
            .with_max_pe(8);
        assert!((c.p - 0.85).abs() < 1e-12);
        assert_eq!(c.latency.mul_div, 4);
        assert_eq!(c.max_pe, Some(8));
    }

    #[test]
    fn latency_models_valid() {
        assert!(LatencyModel::UNIT.is_valid());
        assert!(LatencyModel::CLASSIC.is_valid());
        assert!(!LatencyModel {
            alu: 0,
            ..LatencyModel::UNIT
        }
        .is_valid());
        assert_eq!(LatencyModel::default(), LatencyModel::UNIT);
    }

    #[test]
    #[should_panic(expected = "latencies must be at least one cycle")]
    fn zero_latency_rejected() {
        let _ = SimConfig::new(Model::Sp, 8).with_latency(LatencyModel {
            mem: 0,
            ..LatencyModel::UNIT
        });
    }

    #[test]
    #[should_panic(expected = "need at least one PE")]
    fn zero_pe_rejected() {
        let _ = SimConfig::new(Model::Sp, 8).with_max_pe(0);
    }

    #[test]
    fn dee_shape_override_validated() {
        let c = SimConfig::new(Model::DeeCdMf, 100).with_dee_shape(34, 11);
        assert_eq!(c.dee_shape, Some((34, 11)));
    }

    #[test]
    #[should_panic(expected = "shape exceeds the resource budget")]
    fn oversized_dee_shape_rejected() {
        let _ = SimConfig::new(Model::DeeCdMf, 10).with_dee_shape(10, 4);
    }

    #[test]
    fn oracle_allows_zero_et() {
        let c = SimConfig::new(Model::Oracle, 0);
        assert_eq!(c.et, 0);
    }

    #[test]
    #[should_panic(expected = "at least one branch path")]
    fn constrained_rejects_zero_et() {
        let _ = SimConfig::new(Model::Sp, 0);
    }
}
