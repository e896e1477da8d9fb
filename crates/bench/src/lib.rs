//! Experiment harness shared by the figure/table-regeneration binaries.
//! Speed is measured by the repository benchmark (`perfbench/`), not here.
//!
//! Every evaluation artifact of the paper has a binary here (see DESIGN.md
//! §3 for the index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1` | Figure 1 — SP/EE/DEE trees at p=0.7, E_T=6 |
//! | `fig2` | Figure 2 — static DEE tree at p=0.90, E_T=34 |
//! | `fig5` | Figure 5 — speedup vs resources, 7 models × 5 benchmarks + HM |
//! | `headline` | §5.3 headline numbers at E_T=100 |
//! | `resolve_location` | §5.3 — where mispredicted branches resolve |
//! | `predictor_accuracy` | §3.1/§5.1 characteristic accuracy; §4.3 PAp claim |
//! | `cost_model` | §4.3 hardware cost shares |
//! | `ablation_p` | DEE→SP / DEE→EE convergence; tree-shape sensitivity |
//! | `ablation_shape` | h_DEE sweep vs the §3.1 heuristic's pick |
//! | `ablation_predictor` | §5.1 predictor/DEE tradeoff |
//! | `ablation_future` | §1.2/§5.3 future work: latencies, PE limits, PAp |
//! | `ablation_memory` | §1.2 future work: a finite data cache |
//! | `riseman_foster` | the 1972 baseline cited in §1.2 |
//! | `levo_eval` | §4 Levo machine: IPC, DEE paths, loop capture |
//! | `workload_stats` | workload character (lengths, branch stats) |
//! | `static_probs` | static vs trace-derived branch probabilities (DESIGN.md §15) |
//!
//! Binaries print paper-vs-measured tables and write CSVs under
//! `results/`. Each parses its command line with the one strict parser,
//! [`SweepArgs`]; the suite binaries run through the [`Sweep`] driver (see
//! [`sweep`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plot;
pub mod pool;
pub mod sweep;

pub use sweep::{Arg, ArgError, Sweep, SweepArgs, SUITE_ARGS};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use dee_analyze::{DirectionCounts, SpeculationPlan};
use dee_ilpsim::{harmonic_mean, DirectionPredictor, PreparedTrace, ProbSource};
use dee_predict::{measure_accuracy, BranchPredictor, TwoBitCounter};
use dee_store::{ArtifactKey, Store, StoreSource};
use dee_vm::{Engine, Trace};
use dee_workloads::{Scale, Workload, WorkloadRegistry};

/// A validated workload with its captured trace.
pub struct BenchEntry {
    /// The workload (program + inputs + expected output).
    pub workload: Workload,
    /// Its dynamic trace (validated against the reference output).
    pub trace: Trace,
}

impl BenchEntry {
    /// Empirical per-branch direction counts from the captured trace (the
    /// trace-oracle profile behind `--probs trace`).
    #[must_use]
    pub fn direction_counts(&self) -> BTreeMap<u32, DirectionCounts> {
        trace_direction_counts(&self.trace)
    }

    /// Prepares the trace under a chosen probability source: the 2-bit
    /// counter (`predictor`, the historical default), the trace's own
    /// majority directions (`trace`), or the static plan's directions
    /// (`static`, profile-free), in one pass over the whole trace
    /// ([`prepare_trace_probs`]). `_chunk_records` is ignored; it is kept
    /// because the repository benchmark (`perfbench/`) passes
    /// [`dee_vm::DEFAULT_CHUNK_RECORDS`] there.
    #[must_use]
    pub fn prepare_probs(&self, _chunk_records: usize, probs: ProbSource) -> PreparedTrace {
        prepare_trace_probs(&self.workload.program, &self.trace, probs)
    }
}

/// The branch predictor behind a probability source: the 2-bit counter
/// for `predictor`, the trace's majority directions for `trace`, the
/// static plan's directions for `static`.
fn predictor_for(
    program: &dee_isa::Program,
    trace: &Trace,
    probs: ProbSource,
) -> Box<dyn BranchPredictor> {
    match probs {
        ProbSource::Predictor => Box::new(TwoBitCounter::new()),
        ProbSource::Trace => {
            let counts = trace_direction_counts(trace);
            Box::new(DirectionPredictor::from_counts(&counts))
        }
        ProbSource::Static => {
            let plan = SpeculationPlan::build(program);
            Box::new(DirectionPredictor::from_plan(&plan))
        }
    }
}

/// Empirical per-branch direction counts from any captured trace — the
/// trace-oracle profile behind `--probs trace`, usable outside the suite
/// (generated workloads, ad-hoc programs).
#[must_use]
pub fn trace_direction_counts(trace: &Trace) -> BTreeMap<u32, DirectionCounts> {
    let mut counts: BTreeMap<u32, DirectionCounts> = BTreeMap::new();
    for (pc, outcome) in trace.branch_outcomes() {
        let c = counts.entry(pc).or_default();
        if outcome.taken {
            c.taken += 1;
        } else {
            c.not_taken += 1;
        }
    }
    counts
}

/// Prepares one `(program, trace)` pair under a probability source —
/// [`BenchEntry::prepare_probs`] for callers outside the five-benchmark
/// suite.
#[must_use]
pub fn prepare_trace_probs(
    program: &dee_isa::Program,
    trace: &Trace,
    probs: ProbSource,
) -> PreparedTrace {
    let mut predictor = predictor_for(program, trace, probs);
    PreparedTrace::with_predictor(program, trace, predictor.as_mut())
}

/// The five-benchmark suite at a given scale, traced and validated.
pub struct Suite {
    /// Entries in the paper's benchmark order.
    pub entries: Vec<BenchEntry>,
    /// The scale the suite was built at.
    pub scale: Scale,
}

impl Suite {
    /// Builds a suite over a caller-chosen workload set, resolved through
    /// the builtin [`WorkloadRegistry`] — any mix of the paper five and
    /// the other registered workloads (`synacor`, `sc`), in the order
    /// given.
    ///
    /// # Errors
    ///
    /// Reports the first name the registry does not know.
    ///
    /// # Panics
    ///
    /// As [`Suite::from_workloads`], on validation or lint failure.
    pub fn load_selected(scale: Scale, names: &[impl AsRef<str>]) -> Result<Self, String> {
        let workloads = WorkloadRegistry::builtin().build_many(names, scale)?;
        Ok(Suite::from_workloads(
            workloads,
            scale,
            None,
            Engine::default(),
        ))
    }

    /// The shared trace-capture path: every workload — built-in or
    /// generated — goes through the same lint gate and validation, traced
    /// by the selected engine.
    ///
    /// With a store, traces are recorded once and replayed after: each
    /// workload's raw trace is replayed from its published artifact when
    /// one exists and is intact, and captured on the VM — then published
    /// — otherwise. A replayed trace must still reproduce the workload's
    /// reference output and pass the branch-census cross-check; failing
    /// either quarantines the artifact and falls back to the VM, so the
    /// suite is byte-identical with and without a store. No sweep binary
    /// passes one: recapture is faster than replay (EXPERIMENTS.md
    /// §STORE-REPLAY).
    ///
    /// # Panics
    ///
    /// Panics if VM-side workload validation fails, or if a workload
    /// carries `Error`-severity static-analysis lints — both are build
    /// errors, not experiment outcomes.
    #[must_use]
    pub fn from_workloads(
        workloads: Vec<Workload>,
        scale: Scale,
        store: Option<&Store>,
        engine: Engine,
    ) -> Self {
        let scale_tag = format!("{scale:?}").to_ascii_lowercase();
        let entries = workloads
            .into_iter()
            .map(|workload| {
                // Static gate: refuse to trace a program the analyzer can
                // prove malformed. Keeps every bench binary's failure mode
                // a diagnostic listing instead of a mid-run VM fault.
                let report = dee_analyze::analyze(&workload.program);
                assert!(
                    !report.has_errors(),
                    "workload {} rejected by static analysis:\n{}",
                    workload.name,
                    report.render_text(&workload.name)
                );
                let census = dee_analyze::BranchCensus::build(&workload.program);
                let trace = match store {
                    None => workload
                        .validate_with(engine)
                        .unwrap_or_else(|e| panic!("workload validation failed: {e}")),
                    Some(store) => {
                        let key = ArtifactKey::new(
                            &workload.name,
                            &scale_tag,
                            &workload.program.to_listing(),
                            &workload.initial_memory,
                        );
                        let (trace, source) = store
                            .get_or_record(&key, || workload.validate_with(engine))
                            .unwrap_or_else(|e| panic!("workload validation failed: {e}"));
                        // A replayed artifact must both reproduce the
                        // reference output and survive the static/dynamic
                        // cross-check (every record explainable by the
                        // program's branch census). Either failure means
                        // the container was intact but its content has
                        // drifted — quarantine it and re-trace.
                        let stale = source == StoreSource::Disk
                            && (trace.output() != workload.expected_output
                                || census.verify_trace(&trace).is_err());
                        if stale {
                            store.quarantine_key(&key);
                            let trace = workload
                                .validate_with(engine)
                                .unwrap_or_else(|e| panic!("workload validation failed: {e}"));
                            let _ = store.put(&key, &trace);
                            trace
                        } else {
                            trace
                        }
                    }
                };
                BenchEntry { workload, trace }
            })
            .collect();
        Suite { entries, scale }
    }

    /// The characteristic prediction accuracy: harmonic mean of the 2-bit
    /// counter's accuracy over the suite (the paper's §3.1 step 1; it
    /// measured 90.53% on SPECint92).
    #[must_use]
    pub fn characteristic_accuracy(&self) -> f64 {
        let accs: Vec<f64> = self
            .entries
            .iter()
            .map(|e| measure_accuracy(&mut TwoBitCounter::new(), &e.trace).accuracy())
            .collect();
        harmonic_mean(&accs)
    }

    /// The characteristic accuracy under a chosen probability source:
    /// `predictor` measures the 2-bit counter, `trace` takes each trace's
    /// majority-direction mass, and `static` uses the plan's expected
    /// accuracy *without touching any trace* — the shape a serve tier
    /// would pick for a never-executed upload.
    #[must_use]
    pub fn characteristic_accuracy_probs(&self, probs: ProbSource) -> f64 {
        match probs {
            ProbSource::Predictor => self.characteristic_accuracy(),
            ProbSource::Trace => {
                let accs: Vec<f64> = self
                    .entries
                    .iter()
                    .map(|e| {
                        let counts = e.direction_counts();
                        DirectionPredictor::from_counts(&counts).accuracy_over(&counts)
                    })
                    .collect();
                harmonic_mean(&accs)
            }
            ProbSource::Static => {
                let accs: Vec<f64> = self
                    .entries
                    .iter()
                    .map(|e| SpeculationPlan::build(&e.workload.program).expected_accuracy)
                    .collect();
                harmonic_mean(&accs)
            }
        }
    }
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where the proc filesystem is
/// unavailable.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Enforces the `--max-rss` budget at the end of a sweep: prints the
/// measured peak next to the limit on stderr, and fails loudly when the
/// peak exceeds it. A platform without `VmHWM` reporting logs that the
/// guard could not run instead of passing silently.
///
/// # Panics
///
/// Panics when the peak resident set exceeds `limit`.
pub fn enforce_max_rss(limit: Option<u64>) {
    let Some(limit) = limit else { return };
    match peak_rss_bytes() {
        Some(peak) => {
            eprintln!("dee_bench_max_rss: peak_bytes={peak} limit_bytes={limit}");
            assert!(
                peak <= limit,
                "peak RSS {peak} bytes exceeds --max-rss {limit} bytes"
            );
        }
        None => eprintln!("dee_bench_max_rss: VmHWM unavailable; --max-rss not enforced"),
    }
}

/// A simple fixed-width text table builder for experiment output.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for c in 0..cols {
                if c > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:>width$}", cells[c], width = widths[c]);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Writes the table as CSV under `results/` (creating the directory).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(name);
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(csv, "{}", row.join(","));
        }
        std::fs::write(&path, csv)?;
        Ok(path)
    }

    /// Writes the table to `results/<stem>_<scale>.csv`, the naming rule
    /// for every per-scale output.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_scaled_csv(
        &self,
        stem: &str,
        scale: Scale,
    ) -> std::io::Result<std::path::PathBuf> {
        self.write_csv(&format!("{stem}_{}.csv", scale_tag(scale)))
    }
}

/// The lower-case name of a scale, as arguments and file names spell it.
#[must_use]
pub fn scale_tag(scale: Scale) -> String {
    format!("{scale:?}").to_ascii_lowercase()
}

/// Formats a float with two decimals for table cells.
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio as a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// The resource sweep used throughout Figure 5.
pub const FIG5_RESOURCES: [u32; 6] = [8, 16, 32, 64, 128, 256];

#[cfg(test)]
mod tests {
    use super::*;
    use dee_workloads::{all_workloads, PAPER_WORKLOADS};

    #[test]
    fn suite_loads_and_validates_tiny() {
        let suite = Suite::load_selected(Scale::Tiny, &PAPER_WORKLOADS).expect("known");
        assert_eq!(suite.entries.len(), 5);
        let p = suite.characteristic_accuracy();
        assert!((0.5..1.0).contains(&p), "accuracy {p}");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["a".into(), "1.00".into()]);
        t.row(vec!["longer".into(), "2.50".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(pct(0.905), "90.5%");
    }

    #[test]
    fn prepare_probs_sources_are_deterministic_and_ranked() {
        let suite = Suite::load_selected(Scale::Tiny, &["compress"]).expect("known");
        let entry = &suite.entries[0];
        for probs in [ProbSource::Predictor, ProbSource::Trace, ProbSource::Static] {
            let a = entry.prepare_probs(0, probs);
            let b = entry.prepare_probs(64, probs);
            assert_eq!(
                a.num_mispredicts(),
                b.num_mispredicts(),
                "{} diverges between runs",
                probs.name()
            );
            assert!(
                (a.accuracy() - b.accuracy()).abs() < 1e-12,
                "{}",
                probs.name()
            );
        }
        // The trace oracle is the best fixed per-branch direction, so the
        // static plan cannot beat it on the same trace.
        let oracle = entry.prepare_probs(0, ProbSource::Trace);
        let plan = entry.prepare_probs(0, ProbSource::Static);
        assert!(
            plan.accuracy() <= oracle.accuracy() + 1e-12,
            "static {} vs oracle {}",
            plan.accuracy(),
            oracle.accuracy()
        );
    }

    #[test]
    fn peak_rss_reads_and_guard_passes_under_a_huge_limit() {
        // VmHWM is Linux-specific; where present it must be sane, and the
        // guard must accept a limit far above any real peak.
        if let Some(peak) = peak_rss_bytes() {
            assert!(peak > 0);
            enforce_max_rss(Some(u64::MAX));
        }
        enforce_max_rss(None);
    }

    #[test]
    fn selected_suite_builds_registry_workloads() {
        let suite =
            Suite::load_selected(Scale::Tiny, &["synacor", "compress"]).expect("known names");
        assert_eq!(suite.entries.len(), 2);
        assert_eq!(suite.entries[0].workload.name, "synacor");
        assert!(Suite::load_selected(Scale::Tiny, &["nope"]).is_err());
    }

    #[test]
    fn suite_with_store_replays_identically_and_quarantines_wrong_content() {
        let dir =
            std::env::temp_dir().join(format!("dee_bench_suite_store_{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        let store = Store::open(&dir).unwrap();
        let load = |store| {
            Suite::from_workloads(
                all_workloads(Scale::Tiny),
                Scale::Tiny,
                store,
                Engine::default(),
            )
        };
        let fresh = load(None);
        let recorded = load(Some(&store));
        let replayed = load(Some(&store));
        use std::sync::atomic::Ordering;
        assert_eq!(store.stats().writes.load(Ordering::Relaxed), 5);
        assert_eq!(store.stats().disk_hits.load(Ordering::Relaxed), 5);
        for ((a, b), c) in fresh
            .entries
            .iter()
            .zip(&recorded.entries)
            .zip(&replayed.entries)
        {
            assert_eq!(a.trace.records(), b.trace.records());
            assert_eq!(a.trace.records(), c.trace.records());
            assert_eq!(a.trace.output(), c.trace.output());
            assert_eq!(a.trace.output_checksum(), c.trace.output_checksum());
        }
        // Publish a *valid* container holding the wrong trace under
        // xlisp's key: the checksums pass, but the reference-output
        // check must quarantine it and fall back to the VM.
        let xlisp = &replayed.entries[4].workload;
        assert_eq!(xlisp.name, "xlisp");
        let key = ArtifactKey::new(
            &xlisp.name,
            "tiny",
            &xlisp.program.to_listing(),
            &xlisp.initial_memory,
        );
        let wrong = &replayed.entries[0].trace;
        store.put(&key, wrong).unwrap();
        let healed = load(Some(&store));
        assert_eq!(
            healed.entries[4].trace.output(),
            xlisp.expected_output.as_slice()
        );
        assert_eq!(store.stats().quarantined.load(Ordering::Relaxed), 1);
        // The heal republished good content: one more pass replays clean.
        let again = load(Some(&store));
        assert_eq!(
            again.entries[4].trace.output(),
            xlisp.expected_output.as_slice()
        );
        assert_eq!(store.stats().quarantined.load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(dir).ok();
    }
}
