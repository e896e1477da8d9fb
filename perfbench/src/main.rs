//! The repository benchmark: three workloads, each measured end to end
//! (untraced) or per layer (traced), with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig5-medium|gen-replay|serve-mix --seed N --seconds S --trace 0|1 [--toy] [--tamper]
//! ```
//!
//! Run it from the repository root: `fig5-medium` byte-compares against
//! `results/fig5_medium.csv`, scratch stores live under `.bench_work/`,
//! and span dumps and exact-count records go to `.bench_out/`. `--toy`
//! shrinks every workload to smoke-test size; `--tamper` corrupts one
//! expected output and `--tamper-artifact` (gen-replay only) publishes
//! another program's trace under one program's key, so the run must
//! fail. The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 only when every output
//! check passed. `README.md` beside this file records why each workload
//! and metric was chosen.

mod fig5;
mod gen_replay;
mod serve_mix;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dee_bench::{BenchEntry, Suite};
use dee_serve::Json;
use dee_store::{ArtifactKey, Store, StoreSource};
use dee_vm::Engine;
use dee_workloads::{Scale, Workload};

use crate::trace::Tracer;

/// The end-to-end metrics, printed by every untraced run, with units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_minstr_per_s", "Mrec/s"),
    ("peak_rss_mib", "MiB"),
    ("req_per_s", "req/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
];

/// The per-layer metrics, printed by every traced run, with units. A
/// layer that a workload does not run reports 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("ilpsim.simulate_ms.EE", "ms"),
    ("ilpsim.simulate_ms.SP", "ms"),
    ("ilpsim.simulate_ms.DEE", "ms"),
    ("ilpsim.simulate_ms.SP-CD", "ms"),
    ("ilpsim.simulate_ms.DEE-CD", "ms"),
    ("ilpsim.simulate_ms.SP-CD-MF", "ms"),
    ("ilpsim.simulate_ms.DEE-CD-MF", "ms"),
    ("ilpsim.simulate_ms.Oracle", "ms"),
    ("ilpsim.prepare_ms", "ms"),
    ("ilpsim.prepare_mrec_per_s", "Mrec/s"),
    ("ilpsim.cells", "count"),
    ("ilpsim.records_simulated", "count"),
    ("ilpsim.mispredicts", "count"),
    ("vm.capture_ms", "ms"),
    ("vm.capture_mrec_per_s", "Mrec/s"),
    ("analyze.gate_ms", "ms"),
    ("analyze.verify_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.load_mb_per_s", "MB/s"),
    ("store.replay_over_capture", "ratio"),
    ("store.put_ms", "ms"),
    ("store.put_bytes_per_record", "B/rec"),
    ("store.bytes_written", "bytes"),
    ("store.stream_ms", "ms"),
    ("snap.seek_ms", "ms"),
    ("snap.seek_hits", "count"),
    ("snap.seek_hit_ratio", "ratio"),
    ("levo.run_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.lookup_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.queue_depth_highwater", "count"),
    ("self_ms.vm", "ms"),
    ("self_ms.analyze", "ms"),
    ("self_ms.store", "ms"),
    ("self_ms.ilpsim", "ms"),
    ("self_ms.levo", "ms"),
    ("self_ms.snap", "ms"),
    ("self_ms.serve", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// The counts that must repeat exactly for a given seed: a difference is
/// nondeterminism, not noise.
const EXACT_COUNTS: [&str; 7] = [
    "ilpsim.cells",
    "ilpsim.records_simulated",
    "ilpsim.mispredicts",
    "store.bytes_written",
    "serve.cache_hits",
    "serve.cache_misses",
    "snap.seek_hits",
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Smoke-test sizes: fig5 at `tiny`, a 2-program corpus, ~50
    /// requests.
    pub toy: bool,
    /// Corrupt one expected output so the checks must fail the run.
    pub tamper: bool,
    /// Publish a valid artifact with the wrong content, so replay checks
    /// must fail the run (gen-replay only).
    pub tamper_artifact: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut toy = false;
    let mut tamper = false;
    let mut tamper_artifact = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                });
            }
            "--toy" => toy = true,
            "--tamper" => tamper = true,
            "--tamper-artifact" => tamper_artifact = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["fig5-medium", "gen-replay", "serve-mix"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (fig5-medium, gen-replay, serve-mix)"
        ));
    }
    if tamper_artifact && workload != "gen-replay" {
        return Err("--tamper-artifact applies to gen-replay only".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        toy,
        tamper,
        tamper_artifact,
    })
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Outputs checked against an expectation.
    pub attempted: u64,
    /// Outputs that did not match, or requests that failed.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, depending on the
    /// run).
    pub metrics: BTreeMap<String, f64>,
    /// Counts that must repeat exactly for this seed.
    pub counts: BTreeMap<String, u64>,
    /// Human-readable notes printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records an exact count; it is also a metric of the traced run.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
        self.metrics.insert(name.to_string(), value as f64);
    }

    /// Checks one output; a mismatch is counted and described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {}", what());
            }
        }
    }
}

/// A scratch directory under `.bench_work/`, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.0.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no concurrent run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The fastest of several timings. Other tenants of a shared host only
/// ever add time, so the best pass is the steadiest estimate of the
/// program's own speed.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Folds one pass's per-cell timings into each cell's best so far.
pub fn keep_best(best: &mut Vec<f64>, pass: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(pass);
    } else {
        for (b, &v) in best.iter_mut().zip(pass) {
            *b = b.min(v);
        }
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// `Suite::from_workloads` call by call, each call in a span: the lint
/// gate, the census build, capture or store replay, the replayed trace's
/// output and census cross-check, and the same quarantine-and-recapture
/// fallback. Traced passes load through this; untraced end-to-end passes
/// call `Suite::from_workloads` itself.
pub fn traced_suite(
    workloads: Vec<Workload>,
    scale: Scale,
    store: Option<&Store>,
    tracer: &mut Tracer,
) -> Result<Suite, String> {
    let scale_tag = format!("{scale:?}").to_ascii_lowercase();
    let mut entries = Vec::with_capacity(workloads.len());
    for (i, workload) in workloads.into_iter().enumerate() {
        let group = i as u64;
        let report = tracer.span("analyze.gate", group, || {
            dee_analyze::analyze(&workload.program)
        });
        if report.has_errors() {
            return Err(format!("{} rejected by static analysis", workload.name));
        }
        let census = tracer.span("analyze.census", group, || {
            dee_analyze::BranchCensus::build(&workload.program)
        });
        let capture = |tracer: &mut Tracer| {
            tracer.span("vm.capture", group, || {
                workload.validate_with(Engine::default())
            })
        };
        let trace = match store {
            None => capture(tracer)?,
            Some(store) => {
                let key = ArtifactKey::new(
                    &workload.name,
                    &scale_tag,
                    &workload.program.to_listing(),
                    &workload.initial_memory,
                );
                let (trace, source) = tracer.span("store.load", group, || {
                    store.get_or_record(&key, || workload.validate_with(Engine::default()))
                })?;
                let stale = source == StoreSource::Disk
                    && (trace.output() != workload.expected_output
                        || tracer
                            .span("analyze.verify", group, || census.verify_trace(&trace))
                            .is_err());
                if stale {
                    store.quarantine_key(&key);
                    let trace = capture(tracer)?;
                    let _ = tracer.span("store.put", group, || store.put(&key, &trace));
                    trace
                } else {
                    trace
                }
            }
        };
        entries.push(BenchEntry { workload, trace });
    }
    Ok(Suite { entries, scale })
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    dee_bench::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Generates `spec` at `seed` with its trip count calibrated so the trace
/// has about `records` records: a short probe measures records per outer
/// iteration, which are linear in `iters`. Programs of one workload then
/// stay the same size from seed to seed.
pub fn generate_sized(
    spec: dee_gen::GenSpec,
    seed: u64,
    records: u64,
) -> Result<dee_gen::Generated, String> {
    const PROBE_ITERS: u32 = 8;
    let probe = dee_gen::GenSpec {
        iters: PROBE_ITERS,
        ..spec
    };
    let probe = dee_gen::generate(&probe, seed).map_err(|e| e.to_string())?;
    let per_iter = (probe.trace.len() as u64 / u64::from(PROBE_ITERS)).max(1);
    let iters = u32::try_from((records / per_iter).clamp(1, 1 << 20)).expect("clamped");
    dee_gen::generate(&dee_gen::GenSpec { iters, ..spec }, seed).map_err(|e| e.to_string())
}

/// xorshift64* — the benchmark's only randomness, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Compares this run's exact counts with the previous run of the same
/// seed and binary (kept under `.bench_out/counts/`), or records them
/// when there is none. Returns each compared name and whether it matched.
/// A tampered run is neither compared nor recorded.
fn compare_with_previous_run(args: &Args, counts: &BTreeMap<String, u64>) -> Vec<(String, bool)> {
    if args.tamper || args.tamper_artifact {
        return Vec::new();
    }
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| dee_serve::cache::fnv1a(&bytes))
        .unwrap_or(0);
    let dir = Path::new(".bench_out").join("counts");
    let file = dir.join(format!(
        "{}-s{}{}-{exe:016x}.txt",
        args.workload,
        args.seed,
        if args.toy { "-toy" } else { "" }
    ));
    if let Ok(previous) = std::fs::read_to_string(&file) {
        return previous
            .lines()
            .filter_map(|line| line.split_once(' '))
            .map(|(name, value)| {
                let same = counts.get(name).map(u64::to_string).as_deref() == Some(value);
                (name.to_string(), same)
            })
            .collect();
    }
    if std::fs::create_dir_all(&dir).is_ok() {
        // Write then rename, so a concurrent run never reads half a file.
        let tmp = dir.join(format!("tmp-{}", std::process::id()));
        let render: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        if std::fs::write(&tmp, render).is_ok() {
            let _ = std::fs::rename(&tmp, &file);
        }
    }
    Vec::new()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "fig5-medium" => fig5::run(&args),
        "gen-replay" => gen_replay::run(&args),
        _ => serve_mix::run(&args),
    };
    let mut outcome = match run {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("error: {}: {message}", args.workload);
            std::process::exit(1);
        }
    };
    // A layer the workload does not run counts nothing.
    for name in EXACT_COUNTS {
        if !outcome.counts.contains_key(name) {
            outcome.count(name, 0);
        }
    }
    for (name, same) in compare_with_previous_run(&args, &outcome.counts) {
        outcome.check(same, || {
            format!("exact count {name} differs from the previous run of this seed")
        });
    }

    let (table, kind) = if args.traced {
        (&PER_LAYER[..], "per-layer")
    } else {
        (&END_TO_END[..], "end-to-end")
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{} {kind} metrics (seed {}):", args.workload, args.seed);
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(&value) => value,
            None if args.traced => 0.0,
            None => panic!("metric {name} not measured"),
        };
        // A failed request's latency is infinite; JSON has no infinity.
        let value = if value.is_finite() { value } else { f64::MAX };
        println!("  {name:<32} {value:>16.6} {unit}");
        metrics.push((
            name,
            Json::obj(vec![
                ("value", Json::from(value)),
                ("unit", Json::str(unit)),
            ]),
        ));
    }
    println!("exact counts:");
    for (name, value) in &outcome.counts {
        println!("  {name:<32} {value:>16}");
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  error_rate {error_rate} ({} of {})",
        outcome.failed, outcome.attempted
    );
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let result = Json::obj(vec![
        ("correct", Json::from(correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
