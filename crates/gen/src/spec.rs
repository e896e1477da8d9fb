//! [`GenSpec`] — the knob vector describing a point in workload space,
//! with a canonical `key=value` text form used by the CLI, by CSV columns,
//! and by the header comment embedded in generated listings.

use std::fmt;

/// Why a spec string or knob vector was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// A point in workload space: each knob is independently controllable.
///
/// The canonical text form is `key=value` pairs joined by commas (the CLI
/// spec argument) or spaces (the listing header); [`GenSpec::parse`]
/// accepts both, with unspecified knobs keeping their defaults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GenSpec {
    /// Branch-predictability knob in `[0, 1]`: each branch site's
    /// taken-bias is `0.5 + 0.5·pred` (polarity randomized per site), so
    /// `0` yields coin-flip branches and `1` fully determined ones.
    pub pred: f64,
    /// Half-width of the per-site uniform jitter applied to the bias, so
    /// sites within one program differ in predictability.
    pub spread: f64,
    /// Loop-nest depth (1..=4): level 1 is the `iters` outer loop, deeper
    /// levels add short counted loops around the branch-block body.
    pub depth: u32,
    /// Call density in `[0, 1]`: probability a branch block calls one of
    /// the generated leaf functions.
    pub calls: f64,
    /// Indirect-jump density in `[0, 1]`: probability a branch block
    /// dispatches through a register-indirect `jr` jump table.
    pub jr: f64,
    /// Memory-aliasing degree in `[0, 1]`: `0` spreads loads/stores over
    /// the whole workspace, `1` collapses them onto a handful of words.
    pub alias: f64,
    /// Branch-block sites in the innermost loop body (1..=32).
    pub blocks: u32,
    /// Outer-loop trip count (1..=1_048_576); the dynamic-length dial.
    pub iters: u32,
}

impl Default for GenSpec {
    fn default() -> Self {
        GenSpec {
            pred: 0.85,
            spread: 0.05,
            depth: 2,
            calls: 0.25,
            jr: 0.15,
            alias: 0.5,
            blocks: 8,
            iters: 64,
        }
    }
}

impl GenSpec {
    /// Parses `key=value` pairs separated by commas and/or whitespace;
    /// missing knobs default. `""` and `"default"` give the default spec.
    ///
    /// # Errors
    ///
    /// Rejects unknown keys, malformed values, and out-of-range knobs.
    pub fn parse(text: &str) -> Result<GenSpec, SpecError> {
        let mut spec = GenSpec::default();
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed == "default" {
            return Ok(spec);
        }
        for pair in trimmed.split([',', ' ']).filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| SpecError(format!("`{pair}` is not a key=value pair")))?;
            let bad = |what: &str| SpecError(format!("bad {what} `{value}` for `{key}`"));
            match key {
                "pred" => spec.pred = value.parse().map_err(|_| bad("number"))?,
                "spread" => spec.spread = value.parse().map_err(|_| bad("number"))?,
                "depth" => spec.depth = value.parse().map_err(|_| bad("count"))?,
                "calls" => spec.calls = value.parse().map_err(|_| bad("number"))?,
                "jr" => spec.jr = value.parse().map_err(|_| bad("number"))?,
                "alias" => spec.alias = value.parse().map_err(|_| bad("number"))?,
                "blocks" => spec.blocks = value.parse().map_err(|_| bad("count"))?,
                "iters" => spec.iters = value.parse().map_err(|_| bad("count"))?,
                other => {
                    return Err(SpecError(format!(
                    "unknown knob `{other}` (knobs: pred spread depth calls jr alias blocks iters)"
                )))
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks every knob's range.
    ///
    /// # Errors
    ///
    /// Describes the first out-of-range knob.
    pub fn validate(&self) -> Result<(), SpecError> {
        let unit = |name: &str, v: f64| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(SpecError(format!("`{name}` must be in [0, 1], got {v}")))
            }
        };
        unit("pred", self.pred)?;
        unit("calls", self.calls)?;
        unit("jr", self.jr)?;
        unit("alias", self.alias)?;
        if !(0.0..=0.5).contains(&self.spread) {
            return Err(SpecError(format!(
                "`spread` must be in [0, 0.5], got {}",
                self.spread
            )));
        }
        if !(1..=4).contains(&self.depth) {
            return Err(SpecError(format!(
                "`depth` must be in 1..=4, got {}",
                self.depth
            )));
        }
        if !(1..=32).contains(&self.blocks) {
            return Err(SpecError(format!(
                "`blocks` must be in 1..=32, got {}",
                self.blocks
            )));
        }
        if !(1..=1_048_576).contains(&self.iters) {
            return Err(SpecError(format!(
                "`iters` must be in 1..=1048576, got {}",
                self.iters
            )));
        }
        Ok(())
    }

    /// The canonical comma-joined form; `GenSpec::parse` round-trips it.
    #[must_use]
    pub fn canonical(&self) -> String {
        self.pairs().join(",")
    }

    /// The `key=value` pairs in canonical knob order.
    #[must_use]
    pub fn pairs(&self) -> Vec<String> {
        vec![
            format!("pred={}", self.pred),
            format!("spread={}", self.spread),
            format!("depth={}", self.depth),
            format!("calls={}", self.calls),
            format!("jr={}", self.jr),
            format!("alias={}", self.alias),
            format!("blocks={}", self.blocks),
            format!("iters={}", self.iters),
        ]
    }

    /// CSV header columns matching [`GenSpec::csv_cells`] — every
    /// gen-derived table carries these so each row is regenerable.
    #[must_use]
    pub fn csv_columns() -> [&'static str; 8] {
        [
            "pred", "spread", "depth", "calls", "jr", "alias", "blocks", "iters",
        ]
    }

    /// Knob values as CSV cells, in [`GenSpec::csv_columns`] order.
    #[must_use]
    pub fn csv_cells(&self) -> Vec<String> {
        vec![
            format!("{}", self.pred),
            format!("{}", self.spread),
            format!("{}", self.depth),
            format!("{}", self.calls),
            format!("{}", self.jr),
            format!("{}", self.alias),
            format!("{}", self.blocks),
            format!("{}", self.iters),
        ]
    }

    /// A short stable digest of the canonical form (FNV-1a), used in
    /// generated workload names.
    #[must_use]
    pub fn digest(&self) -> u32 {
        let hash = dee_vm::fnv1a(self.canonical().as_bytes());
        (hash ^ (hash >> 32)) as u32
    }
}

impl fmt::Display for GenSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.canonical())
    }
}

/// The header-comment tag opening every generated listing.
pub const HEADER_TAG: &str = "# dee-gen v1";

/// Renders the reproducibility header: spec + seed as comment lines that
/// `dee_isa::parse` skips, so a generated listing round-trips through the
/// stock parser while still carrying everything needed to regenerate it.
#[must_use]
pub fn render_header(spec: &GenSpec, seed: u64) -> String {
    format!("{HEADER_TAG} seed={seed} {}\n", spec.pairs().join(" "))
}

/// Recovers `(spec, seed)` from a generated listing (or any text holding
/// its header line).
///
/// # Errors
///
/// Fails when no `# dee-gen v1` line is present or its fields are
/// malformed.
pub fn parse_header(text: &str) -> Result<(GenSpec, u64), SpecError> {
    let line = text
        .lines()
        .find_map(|l| l.trim().strip_prefix(HEADER_TAG))
        .ok_or_else(|| SpecError(format!("no `{HEADER_TAG}` header line found")))?;
    let mut seed: Option<u64> = None;
    let mut knobs: Vec<&str> = Vec::new();
    for token in line.split_whitespace() {
        if let Some(value) = token.strip_prefix("seed=") {
            seed = Some(
                value
                    .parse()
                    .map_err(|_| SpecError(format!("bad seed `{value}`")))?,
            );
        } else {
            knobs.push(token);
        }
    }
    let seed = seed.ok_or_else(|| SpecError("header carries no seed".to_string()))?;
    let spec = GenSpec::parse(&knobs.join(","))?;
    Ok((spec, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trips_through_canonical_form() {
        let spec = GenSpec::default();
        assert_eq!(GenSpec::parse(&spec.canonical()).unwrap(), spec);
        assert_eq!(GenSpec::parse("").unwrap(), spec);
        assert_eq!(GenSpec::parse("default").unwrap(), spec);
    }

    #[test]
    fn partial_specs_keep_defaults() {
        let spec = GenSpec::parse("pred=0.95,depth=1").unwrap();
        assert_eq!(spec.pred, 0.95);
        assert_eq!(spec.depth, 1);
        assert_eq!(spec.blocks, GenSpec::default().blocks);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(GenSpec::parse("warp=1").is_err());
        assert!(GenSpec::parse("pred").is_err());
        assert!(GenSpec::parse("pred=two").is_err());
        assert!(GenSpec::parse("pred=1.5").is_err());
        assert!(GenSpec::parse("depth=0").is_err());
        assert!(GenSpec::parse("blocks=99").is_err());
        assert!(GenSpec::parse("spread=0.9").is_err());
    }

    #[test]
    fn header_round_trips() {
        let spec = GenSpec::parse("pred=0.7,jr=0.3,iters=128").unwrap();
        let header = render_header(&spec, 42);
        assert!(header.starts_with(HEADER_TAG));
        let listing = format!("{header}    0: li r1, 3\n    1: halt\n");
        let (back, seed) = parse_header(&listing).unwrap();
        assert_eq!(back, spec);
        assert_eq!(seed, 42);
    }

    #[test]
    fn header_requires_tag_and_seed() {
        assert!(parse_header("li r1, 3\nhalt\n").is_err());
        assert!(parse_header("# dee-gen v1 pred=0.5\n").is_err());
    }

    #[test]
    fn digest_separates_nearby_specs() {
        let a = GenSpec::parse("pred=0.7").unwrap().digest();
        let b = GenSpec::parse("pred=0.71").unwrap().digest();
        assert_ne!(a, b);
        assert_eq!(a, GenSpec::parse("pred=0.7").unwrap().digest());
    }
}
