//! `gen-replay`: a warm `--store` sweep over a seeded `dee-gen` corpus —
//! the only workload whose run is carried by the store's read path.
//!
//! Set-up generates about 8 programs of about 1 M records each (`pred`
//! from 0.3 to 1.0, with loop depth, call and `jr` density varied) and
//! cold-records every trace into a fresh store. The first set-up also
//! computes every cell from `Generated::trace` as the expected result,
//! outside the set-up clock. The timed pass loads the corpus back through
//! `Suite::from_workloads` (lint gate, store replay, reference-output and
//! census cross-checks), then prepares each trace and simulates
//! `genspace`'s model set at `E_T = 32`. Each trace gets only 4 cells, so
//! work moved from `simulate` into prepare shows up here as a cost.
//!
//! `Suite::from_workloads` heals a replayed trace that fails its checks by
//! quarantining the artifact and recapturing on the VM, so a pass is also
//! checked through the store's counters: every trace must come from disk,
//! with nothing quarantined, missed or rewritten.

use std::sync::atomic::Ordering;
use std::time::Instant;

use dee_bench::{prepare_trace_probs, Suite};
use dee_gen::GenSpec;
use dee_ilpsim::{simulate, Model, ProbSource, SimConfig, SimOutcome};
use dee_store::{ArtifactKey, Store};
use dee_vm::{Engine, DEFAULT_CHUNK_RECORDS};
use dee_workloads::{Scale, Workload};

use crate::trace::{order, PassStats, SpanLog, Tracer};
use crate::{
    best, generate_sized, keep_best, median, peak_rss_mib, quantile, secs, traced_suite, Args,
    Outcome, WorkDir,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
const MIN_PASSES: usize = 3;

/// `genspace`'s model set and resources.
const MODELS: [Model; 4] = [Model::Sp, Model::Ee, Model::DeeCdMf, Model::Oracle];
const ET: u32 = 32;

/// The scale the suite is loaded at; generated programs ignore it, but
/// it names the artifacts' scale tag.
const SCALE: Scale = Scale::Medium;

/// Corpus shape: program `i` gets `PREDS[i]` and the `i`-th depth, call
/// and `jr` densities. The seed moves only the generator seed, and each
/// program's trip count is calibrated to a fixed record target, so the
/// corpus size barely moves between seeds.
const PREDS: [f64; 8] = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
const DEPTHS: [u32; 8] = [1, 3, 2, 4, 2, 4, 1, 3];
const CALLS: [f64; 8] = [0.0, 0.2, 0.4, 0.6, 0.1, 0.3, 0.5, 0.2];
const JRS: [f64; 8] = [0.3, 0.0, 0.2, 0.1, 0.4, 0.15, 0.05, 0.25];
const RECORDS_PER_PROGRAM: u64 = 1_000_000;
const TOY_PROGRAMS: usize = 2;
const TOY_RECORDS_PER_PROGRAM: u64 = 20_000;

/// One corpus program with its expected results.
struct Program {
    workload: Workload,
    key: ArtifactKey,
    records: u64,
    artifact_bytes: u64,
    /// Expected cells, in `MODELS` order, from `Generated::trace`; empty
    /// for a set-up repeated only to be timed.
    expected: Vec<SimOutcome>,
}

fn spec(i: usize) -> GenSpec {
    GenSpec {
        pred: PREDS[i],
        spread: 0.02,
        depth: DEPTHS[i],
        calls: CALLS[i],
        jr: JRS[i],
        alias: 0.5,
        blocks: 12,
        ..GenSpec::default()
    }
}

fn scale_tag() -> String {
    format!("{SCALE:?}").to_ascii_lowercase()
}

/// The cells of one prepared trace, with the DEE tree shaped by its own
/// measured accuracy, as `genspace` does.
fn cells(
    prepared: &dee_ilpsim::PreparedTrace,
    tracer: &mut Tracer,
    group: u64,
    cell_ms: &mut Vec<f64>,
) -> Vec<SimOutcome> {
    let p = prepared.accuracy().clamp(0.5, 0.9999);
    MODELS
        .iter()
        .map(|&model| {
            let name = format!("ilpsim.simulate.{}", model.name());
            let t = Instant::now();
            let out = tracer.span(&name, group, || {
                simulate(prepared, &SimConfig::new(model, ET).with_p(p))
            });
            cell_ms.push(secs(t) * 1e3);
            out
        })
        .collect()
}

/// Generates the corpus and cold-records it into `store`; returns the
/// programs and the set-up time. With `expect`, each program's expected
/// cells are also computed from `Generated::trace`, off the clock.
/// Traced, each program is also captured once on the VM (the store-less
/// path `store.replay_over_capture` compares against), off the clock too.
fn setup(
    args: &Args,
    store: &Store,
    tracer: &mut Tracer,
    expect: bool,
) -> Result<(Vec<Program>, f64), String> {
    let (count, target) = if args.toy {
        (TOY_PROGRAMS, TOY_RECORDS_PER_PROGRAM)
    } else {
        (PREDS.len(), RECORDS_PER_PROGRAM)
    };
    let mut setup_s = 0.0;
    let mut programs = Vec::with_capacity(count);
    for i in 0..count {
        let seed = args.seed.wrapping_mul(1_000).wrapping_add(i as u64 + 1);
        let group = i as u64;
        let t = Instant::now();
        let g = generate_sized(spec(i), seed, target)?;
        setup_s += secs(t);
        if tracer.is_on() {
            tracer.span("vm.capture", group, || {
                g.workload.validate_with(Engine::default())
            })?;
        }
        let t = Instant::now();
        let key = ArtifactKey::new(
            &g.workload.name,
            &scale_tag(),
            &g.workload.program.to_listing(),
            &g.workload.initial_memory,
        );
        let path = tracer
            .span("store.put", group, || store.put(&key, &g.trace))
            .map_err(|e| e.to_string())?;
        setup_s += secs(t);
        let artifact_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        let mut expected = Vec::new();
        if expect {
            let prepared =
                prepare_trace_probs(&g.workload.program, &g.trace, ProbSource::Predictor);
            expected = cells(&prepared, &mut Tracer::new(false), group, &mut Vec::new());
            if args.tamper && i == 0 {
                expected[0].cycles += 1;
            }
        }
        programs.push(Program {
            records: g.trace.len() as u64,
            workload: g.workload,
            key,
            artifact_bytes,
            expected,
        });
    }
    Ok((programs, setup_s))
}

/// Publishes program 1's trace under program 0's key: an intact artifact
/// with the wrong content, as a store that decodes the wrong records
/// would hand back.
fn tamper_artifact(programs: &[Program], store: &Store) -> Result<(), String> {
    let other = store
        .load(&programs[1].key)
        .map_err(|e| e.to_string())?
        .ok_or("artifact to tamper with is missing")?;
    store
        .put(&programs[0].key, &other)
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// The store counters a pass moves.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct StoreCounts {
    disk_hits: u64,
    misses: u64,
    writes: u64,
    quarantined: u64,
}

impl StoreCounts {
    fn of(store: &Store) -> StoreCounts {
        let s = store.stats();
        StoreCounts {
            disk_hits: s.disk_hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            writes: s.writes.load(Ordering::Relaxed),
            quarantined: s.quarantined.load(Ordering::Relaxed),
        }
    }

    fn since(self, before: StoreCounts) -> StoreCounts {
        StoreCounts {
            disk_hits: self.disk_hits - before.disk_hits,
            misses: self.misses - before.misses,
            writes: self.writes - before.writes,
            quarantined: self.quarantined - before.quarantined,
        }
    }
}

struct Pass {
    wall_s: f64,
    outcomes: Vec<Vec<SimOutcome>>,
    /// Each loaded trace's length and whether it reproduced the
    /// workload's reference output.
    loaded: Vec<(u64, bool)>,
    store: StoreCounts,
}

/// One timed pass: load the corpus from the store, then prepare each
/// trace and run its cells. Without a tracer the pass goes through the
/// entry points the sweep binaries use (`Suite::from_workloads`,
/// `BenchEntry::prepare_probs`, `simulate`). With one, the suite loads
/// through `traced_suite`, whether the tracer records or not, so the two
/// sides of a traced run differ only in span recording.
fn run_pass(
    programs: &[Program],
    store: &Store,
    tracer: Option<&mut Tracer>,
    cell_ms: &mut Vec<f64>,
) -> Result<Pass, String> {
    let workloads: Vec<Workload> = programs.iter().map(|p| p.workload.clone()).collect();
    let before = StoreCounts::of(store);
    let mut untraced = Tracer::new(false);
    let start = Instant::now();
    let (suite, tracer) = match tracer {
        Some(tracer) => (traced_suite(workloads, SCALE, Some(store), tracer)?, tracer),
        None => (
            Suite::from_workloads(workloads, SCALE, Some(store), Engine::default()),
            &mut untraced,
        ),
    };
    let mut outcomes = Vec::with_capacity(suite.entries.len());
    for (i, entry) in suite.entries.iter().enumerate() {
        let group = i as u64;
        let prepared = tracer.span("ilpsim.prepare", group, || {
            entry.prepare_probs(DEFAULT_CHUNK_RECORDS, ProbSource::Predictor)
        });
        outcomes.push(cells(&prepared, tracer, group, cell_ms));
    }
    let wall_s = secs(start);
    Ok(Pass {
        wall_s,
        outcomes,
        loaded: suite
            .entries
            .iter()
            .map(|e| {
                let output_ok = e.trace.output() == e.workload.expected_output.as_slice();
                (e.trace.len() as u64, output_ok)
            })
            .collect(),
        store: StoreCounts::of(store).since(before),
    })
}

/// Checks that every trace was replayed from the store with nothing
/// quarantined, missed or rewritten, every loaded trace against set-up's
/// length and the reference output, and every cell against set-up's.
fn check_pass(out: &mut Outcome, programs: &[Program], pass: &Pass) {
    let want = StoreCounts {
        disk_hits: programs.len() as u64,
        ..StoreCounts::default()
    };
    out.check(pass.store == want, || {
        format!(
            "store counters moved by {:?}, want {want:?}: a replay was refused and recaptured",
            pass.store
        )
    });
    for (i, program) in programs.iter().enumerate() {
        let (records, output_ok) = pass.loaded[i];
        out.check(output_ok && records == program.records, || {
            format!(
                "{}: loaded {records} records (want {}), reference output reproduced: {output_ok}",
                program.workload.name, program.records
            )
        });
        for (got, want) in pass.outcomes[i].iter().zip(&program.expected) {
            out.check(got == want, || {
                format!(
                    "{} {}: {got:?} != expected {want:?}",
                    program.workload.name,
                    want.model.name()
                )
            });
        }
    }
}

fn report_counts(out: &mut Outcome, programs: &[Program], store: &Store) {
    let records: u64 = programs.iter().map(|p| p.records).sum();
    let mispredicts: u64 = programs
        .iter()
        .flat_map(|p| p.expected.iter().map(|o| o.mispredicts))
        .sum();
    out.count("ilpsim.cells", (programs.len() * MODELS.len()) as u64);
    out.count("ilpsim.records_simulated", records * MODELS.len() as u64);
    out.count("ilpsim.mispredicts", mispredicts);
    out.count(
        "store.bytes_written",
        store.stats().bytes_written.load(Ordering::Relaxed),
    );
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::new("gen-replay").map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    let open_fresh = |name: &str| -> Result<Store, String> {
        let dir = work.fresh(name).map_err(|e| e.to_string())?;
        Store::open(dir).map_err(|e| e.to_string())
    };
    let store = open_fresh("store")?;
    if !args.traced {
        // The first set-up fills the store the passes read and computes
        // the expected cells; the rest repeat only the timed part, into a
        // spare store.
        let (programs, first_s) = setup(args, &store, &mut Tracer::new(false), true)?;
        let mut setup_s = vec![first_s];
        while setup_s.len() < SETUPS {
            let spare = open_fresh("spare")?;
            let (again, s) = setup(args, &spare, &mut Tracer::new(false), false)?;
            let same = again
                .iter()
                .map(|p| &p.key)
                .eq(programs.iter().map(|p| &p.key));
            out.check(same, || "a repeated set-up generated another corpus".into());
            setup_s.push(s);
        }
        if args.tamper_artifact {
            tamper_artifact(&programs, &store)?;
        }
        let (mut walls, mut cell_ms, mut peak_rss) = (Vec::new(), Vec::new(), None);
        while walls.len() < MIN_PASSES || walls.iter().sum::<f64>() < args.seconds {
            let mut pass_ms = Vec::new();
            let pass = run_pass(&programs, &store, None, &mut pass_ms)?;
            check_pass(&mut out, &programs, &pass);
            walls.push(pass.wall_s);
            keep_best(&mut cell_ms, &pass_ms);
            peak_rss.get_or_insert_with(peak_rss_mib);
        }
        let run_s = best(&walls);
        let records: u64 = programs.iter().map(|p| p.records).sum();
        let cells = (programs.len() * MODELS.len()) as f64;
        out.set("setup_s", median(&setup_s));
        out.set("run_s", run_s);
        out.set(
            "sim_minstr_per_s",
            (records * MODELS.len() as u64) as f64 / run_s / 1e6,
        );
        out.set("peak_rss_mib", peak_rss.expect("at least one pass"));
        out.set("req_per_s", cells / run_s);
        out.set("p50_ms", quantile(&cell_ms, 0.50));
        out.set("p99_ms", quantile(&cell_ms, 0.99));
        out.notes.push(format!(
            "gen-replay: {} programs, {records} records, median of {} set-ups, best of {} passes; p50/p99 over the {} cells' best latencies",
            programs.len(),
            setup_s.len(),
            walls.len(),
            cell_ms.len()
        ));
        report_counts(&mut out, &programs, &store);
    } else {
        let mut log = SpanLog::new();
        let mut setup_tracer = Tracer::new(true);
        let (programs, _) = setup(args, &store, &mut setup_tracer, true)?;
        log.add("setup", &setup_tracer);
        if args.tamper_artifact {
            tamper_artifact(&programs, &store)?;
        }
        let mut stats = PassStats::default();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        while traced.len() < 2 || plain.iter().chain(&traced).sum::<f64>() < args.seconds {
            for on in order(traced.len()) {
                let mut tracer = Tracer::new(on);
                let pass = run_pass(&programs, &store, Some(&mut tracer), &mut Vec::new())?;
                check_pass(&mut out, &programs, &pass);
                if on {
                    traced.push(pass.wall_s);
                    stats.push_pass(&tracer);
                    log.add(&format!("pass{}", traced.len()), &tracer);
                } else {
                    plain.push(pass.wall_s);
                }
            }
        }
        for name in stats.names() {
            out.set(name, stats.median(name));
        }
        let records: u64 = programs.iter().map(|p| p.records).sum();
        let bytes: u64 = programs.iter().map(|p| p.artifact_bytes).sum();
        let capture_ms = setup_tracer.total_ms("vm.capture");
        let load_ms = stats.median("store.load_ms");
        out.set("vm.capture_ms", capture_ms);
        out.set("vm.capture_mrec_per_s", records as f64 / capture_ms / 1e3);
        out.set("store.put_ms", setup_tracer.total_ms("store.put"));
        out.set("store.put_bytes_per_record", bytes as f64 / records as f64);
        out.set("store.load_mb_per_s", bytes as f64 / load_ms / 1e3);
        out.set("store.replay_over_capture", load_ms / capture_ms);
        out.set(
            "ilpsim.prepare_mrec_per_s",
            records as f64 / stats.median("ilpsim.prepare_ms") / 1e3,
        );
        out.set(
            "trace.overhead_ms",
            (median(&traced) - median(&plain)) * 1e3,
        );
        let path = log
            .write(&args.workload, args.seed)
            .map_err(|e| e.to_string())?;
        out.notes.push(format!("spans written to {path}"));
        report_counts(&mut out, &programs, &store);
    }
    Ok(out)
}
