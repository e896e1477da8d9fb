//! `serve-mix`: a closed loop against an in-process `dee-serve` — the
//! only workload that runs the request path (HTTP, JSON, the prepared
//! cache, the lint gate, `snap` and `levo`).
//!
//! Each pass spawns a server (2 workers, a fresh store directory), warms
//! its prepared cache with the five paper workloads at `small`, publishes
//! snapshot checkpoints for the range workload, then 2 client threads —
//! one connection at a time each — send a fixed, seeded request sequence
//! and wait for every reply:
//!
//! - 75% `/simulate`, one model on a paper workload at `small`: cache hits;
//! - 15% `/simulate` uploads of fresh `dee-gen` programs (~25 K records,
//!   `genspace`'s program shape and `pred` grid): misses that parse,
//!   lint, capture, store and prepare;
//! - 5% `/simulate_range` over `compress` at `small`, warm-started from
//!   the nearest snapshot, with `loadgen --range`'s checkpoint stride and
//!   window shape;
//! - 5% `/levo` at `tiny`.
//!
//! Every 200 body is byte-compared with a payload built locally: simulate
//! bodies from a direct prepare + `simulate` + `outcome_json`, Levo
//! bodies from `Levo::run` + `levo_json`, range bodies from the
//! store-less `handle_simulate_range` (from-zero replay). The expected
//! payloads are built once, before the first pass and off the set-up
//! clock; a pass's set-up generates the request bodies again, then
//! spawns and warms its server. The callers this server has are sweep
//! programs that wait for each reply, hence the closed loop; on 2 cores
//! an open-loop rate sweep would mostly measure the scheduler.
//!
//! Traced, the same sequence is replayed in-process through the serve
//! crate's public functions with a span around each call; uploads and
//! ranges also call the miss path's and the seek path's layer functions
//! directly, under `bench.attribution` spans that stay out of the
//! handler's time.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dee_gen::GenSpec;
use dee_ilpsim::{simulate, LatencyModel, Model, PreparedTrace, SimConfig, SimOutcome};
use dee_levo::{Levo, LevoConfig};
use dee_predict::TwoBitCounter;
use dee_serve::api::{handle_simulate_range, prepared_for};
use dee_serve::{
    handle_levo, levo_json, outcome_json, FaultPlan, Json, Metrics, PreparedCache, Server,
    ServerConfig,
};
use dee_store::{ArtifactKey, Store};
use dee_vm::{trace_program_with, Engine};
use dee_workloads::{Scale, Workload, WorkloadRegistry, PAPER_WORKLOADS};

use crate::trace::{order, PassStats, SpanLog, Tracer};
use crate::{
    best, generate_sized, median, peak_rss_mib, quantile, secs, Args, Outcome, Rng, WorkDir,
};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Enough that p99 has more than ten samples beyond it in every pass.
const REQUESTS: usize = 1200;
const TOY_REQUESTS: usize = 50;
const MIN_PASSES: usize = 3;

/// Uploaded programs are calibrated to about this many records.
const UPLOAD_RECORDS: u64 = 25_000;
/// Uploads cycle through `genspace`'s predictability grid, from coin-flip
/// branches to fully determined ones.
const UPLOAD_PREDS: [f64; 8] = [0.0, 0.15, 0.30, 0.45, 0.60, 0.75, 0.90, 1.0];
/// The range workload; the checkpoint stride and the longest window are
/// `loadgen --range`'s, so a range request costs what it costs there: a
/// seek, a replay of at most one stride, and at most 512 records packed.
const RANGE_WORKLOAD: &str = "compress";
const RANGE_STRIDE: u64 = 1024;
const RANGE_MAX_WINDOW: u64 = 512;
const RANGE_PREDICTORS: [&str; 4] = ["twobit", "gshare", "pap", "taken"];
const ETS: [u32; 6] = [8, 16, 32, 64, 128, 256];

/// The serve tier's dynamic-instruction budget for uploads.
const STEP_LIMIT: u64 = 1_000_000_000;

/// Latency recorded for a failed request: it misses every limit.
const FAILED_MS: f64 = f64::INFINITY;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Upload,
    Range,
    Levo,
}

struct Request {
    kind: Kind,
    path: &'static str,
    body: String,
    /// Paper workload of a hit or Levo request.
    workload: &'static str,
    /// Model and `E_T` of a simulate request.
    model: Model,
    et: u32,
    /// Upload source, for the expected body and the traced miss-path
    /// attribution.
    upload: Option<Upload>,
    /// Range start and end.
    range: (u64, u64),
    /// Filled in by `expect`: the expected body, and the cells, records
    /// and mispredicts the response reports.
    expected: String,
    cells: u64,
    records: u64,
    mispredicts: u64,
}

/// An uploaded program: the generator spec (trip count calibrated) and
/// seed it came from, and what the request carries.
struct Upload {
    spec: GenSpec,
    seed: u64,
    listing: String,
    memory: Vec<i32>,
}

fn all_models() -> [Model; 8] {
    let c = Model::all_constrained();
    [c[0], c[1], c[2], c[3], c[4], c[5], c[6], Model::Oracle]
}

fn sim_config(model: Model, et: u32, p: f64) -> SimConfig {
    SimConfig::new(model, if model == Model::Oracle { 0 } else { et })
        .with_p(p)
        .with_latency(LatencyModel::UNIT)
}

/// The `/simulate` body `handle_simulate` answers with for one model.
fn simulate_body(label: &str, hit: bool, p: f64, outcome: &SimOutcome) -> String {
    Json::obj(vec![
        ("source", Json::str(label)),
        ("cache", Json::str(if hit { "hit" } else { "miss" })),
        ("p", Json::from(p)),
        ("results", Json::Arr(vec![outcome_json(outcome)])),
    ])
    .to_string()
}

fn build(name: &str, scale: Scale) -> Result<Workload, String> {
    WorkloadRegistry::builtin()
        .build(name, scale)
        .ok_or_else(|| format!("unknown workload {name}"))
}

/// The range workload and its artifact key in the server's store.
fn range_fixture() -> Result<(Workload, ArtifactKey), String> {
    let w = build(RANGE_WORKLOAD, Scale::Small)?;
    let key = ArtifactKey::new(&w.name, "small", &w.program.to_listing(), &w.initial_memory);
    Ok((w, key))
}

fn warmup_body(name: &str) -> String {
    format!(r#"{{"workload":"{name}","scale":"small","model":"Oracle"}}"#)
}

/// The upload generator spec at one point of the `pred` grid:
/// `genspace`'s program shape.
fn upload_spec(pred: f64) -> GenSpec {
    GenSpec {
        pred,
        spread: 0.02,
        depth: 2,
        calls: 0.2,
        jr: 0.1,
        alias: 0.5,
        blocks: 12,
        ..GenSpec::default()
    }
}

/// Builds the seeded request sequence: bodies only, the set-up share of
/// the work. `expect` fills in the expected bodies.
fn requests(args: &Args) -> Result<Vec<Request>, String> {
    let n = if args.toy { TOY_REQUESTS } else { REQUESTS };
    let (uploads, ranges, levos) = (n * 15 / 100, n * 5 / 100, n * 5 / 100);
    let hits = n - uploads - ranges - levos;
    let mut rng = Rng::new(args.seed);
    let models = all_models();
    let mut out = Vec::with_capacity(n);
    let request = |kind, path, body, workload, (model, et)| Request {
        kind,
        path,
        body,
        workload,
        model,
        et,
        upload: None,
        range: (0, 0),
        expected: String::new(),
        cells: 0,
        records: 0,
        mispredicts: 0,
    };

    // Models and E_T values are dealt round-robin within each request
    // kind, so the seed moves programs, ranges and order but not how much
    // work the mix holds.
    let deal = |j: usize| {
        (
            models[j % models.len()],
            ETS[(j / models.len()) % ETS.len()],
        )
    };

    // Hits: every (workload, model, E_T) equally often.
    for j in 0..hits {
        let name = PAPER_WORKLOADS[j % PAPER_WORKLOADS.len()];
        let (model, et) = deal((j / PAPER_WORKLOADS.len()) % (models.len() * ETS.len()));
        let body = format!(
            r#"{{"workload":"{name}","scale":"small","model":"{}","et":{et}}}"#,
            model.name()
        );
        out.push(request(Kind::Hit, "/simulate", body, name, (model, et)));
    }

    // Uploads: fresh programs, each trip count calibrated to the target.
    for u in 0..uploads {
        let seed = args.seed.wrapping_mul(100_000).wrapping_add(u as u64 + 1);
        let spec = upload_spec(UPLOAD_PREDS[u % UPLOAD_PREDS.len()]);
        let g = generate_sized(spec, seed, UPLOAD_RECORDS)?;
        let (model, et) = deal(u / UPLOAD_PREDS.len());
        let listing = g.workload.program.to_listing();
        let memory = g.workload.initial_memory.clone();
        let body = Json::obj(vec![
            ("program", Json::str(listing.clone())),
            (
                "memory",
                Json::Arr(memory.iter().map(|&w| Json::Num(f64::from(w))).collect()),
            ),
            ("model", Json::str(model.name())),
            ("et", Json::from(et)),
        ])
        .to_string();
        out.push(Request {
            upload: Some(Upload {
                spec: g.spec,
                seed,
                listing,
                memory,
            }),
            ..request(Kind::Upload, "/simulate", body, "", (model, et))
        });
    }

    // Ranges: seeded windows drawn as `loadgen --range` draws them.
    let len = build(RANGE_WORKLOAD, Scale::Small)?
        .validate_with(Engine::default())?
        .len() as u64;
    for r in 0..ranges {
        let start = rng.next_u64() % (len - 1);
        let end = (start + 1 + rng.next_u64() % RANGE_MAX_WINDOW).min(len);
        let (model, et) = deal(r / RANGE_PREDICTORS.len());
        let body = format!(
            r#"{{"workload":"{RANGE_WORKLOAD}","scale":"small","model":"{}","et":{et},"predictor":"{}","start":{start},"end":{end}}}"#,
            model.name(),
            RANGE_PREDICTORS[r % RANGE_PREDICTORS.len()]
        );
        out.push(Request {
            range: (start, end),
            ..request(
                Kind::Range,
                "/simulate_range",
                body,
                RANGE_WORKLOAD,
                (model, et),
            )
        });
    }

    // Levo runs at tiny, every paper workload equally often.
    for l in 0..levos {
        let name = PAPER_WORKLOADS[l % PAPER_WORKLOADS.len()];
        let body = format!(r#"{{"workload":"{name}","scale":"tiny"}}"#);
        out.push(request(Kind::Levo, "/levo", body, name, (Model::Oracle, 0)));
    }
    rng.shuffle(&mut out);
    Ok(out)
}

/// Computes every request's expected body and the counts its response
/// reports: hits from a direct prepare + `simulate` per (workload, model,
/// `E_T`), uploads from the generator's own trace, ranges from the
/// store-less `handle_simulate_range`, Levo runs from `Levo::run`.
fn expect(reqs: &mut [Request], tamper: bool) -> Result<(), String> {
    let far = Instant::now() + Duration::from_secs(3600);
    let faults = FaultPlan::inert();
    let metrics = Metrics::new();
    let mut prepared: BTreeMap<&str, PreparedTrace> = BTreeMap::new();
    let mut memo: BTreeMap<(&str, &str, u32), (String, u64)> = BTreeMap::new();
    let mut reports: BTreeMap<&str, String> = BTreeMap::new();
    for req in reqs.iter_mut() {
        match req.kind {
            Kind::Hit => {
                if !prepared.contains_key(req.workload) {
                    let w = build(req.workload, Scale::Small)?;
                    let trace = w.validate_with(Engine::default())?;
                    prepared.insert(req.workload, PreparedTrace::new(&w.program, &trace));
                }
                let prep = &prepared[req.workload];
                let key = (req.workload, req.model.name(), req.et);
                let (body, mispredicts) = memo.entry(key).or_insert_with(|| {
                    let p = prep.accuracy();
                    let outcome = simulate(prep, &sim_config(req.model, req.et, p));
                    let label = format!("{}/small", req.workload);
                    (
                        simulate_body(&label, true, p, &outcome),
                        outcome.mispredicts,
                    )
                });
                req.expected = body.clone();
                req.records = prep.len() as u64;
                req.mispredicts = *mispredicts;
                req.cells = 1;
            }
            Kind::Upload => {
                let up = req.upload.as_ref().expect("an upload carries its source");
                let g = dee_gen::generate(&up.spec, up.seed).map_err(|e| e.to_string())?;
                if g.workload.program.to_listing() != up.listing {
                    return Err("an upload regenerated to another program".into());
                }
                let prep = PreparedTrace::with_predictor(
                    &g.workload.program,
                    &g.trace,
                    &mut TwoBitCounter::new(),
                );
                let p = prep.accuracy();
                let outcome = simulate(&prep, &sim_config(req.model, req.et, p));
                let label = format!(
                    "program:{:016x}",
                    dee_serve::cache::fnv1a(up.listing.as_bytes())
                );
                req.expected = simulate_body(&label, false, p, &outcome);
                req.records = prep.len() as u64;
                req.mispredicts = outcome.mispredicts;
                req.cells = 1;
            }
            Kind::Range => {
                let json = dee_serve::json::parse(&req.body)?;
                let expected = handle_simulate_range(&json, far, &faults, None, &metrics)
                    .map_err(|e| e.message)?;
                let result = &expected
                    .get("results")
                    .and_then(Json::as_arr)
                    .ok_or("no results")?[0];
                req.mispredicts = result
                    .get("mispredicts")
                    .and_then(Json::as_u64)
                    .ok_or("no mispredicts")?;
                req.expected = expected.to_string();
                req.records = req.range.1 - req.range.0;
                req.cells = 1;
            }
            Kind::Levo => {
                if !reports.contains_key(req.workload) {
                    let w = build(req.workload, Scale::Tiny)?;
                    let report = Levo::new(LevoConfig::default())
                        .run(&w.program, &w.initial_memory)
                        .map_err(|e| e.to_string())?;
                    let mut json = levo_json(&report);
                    if let Json::Obj(members) = &mut json {
                        let source = Json::str(format!("{}/tiny", req.workload));
                        members.insert(0, ("source".to_string(), source));
                    }
                    reports.insert(req.workload, json.to_string());
                }
                req.expected = reports[req.workload].clone();
            }
        }
    }
    if tamper {
        reqs[0].expected.push(' ');
    }
    Ok(())
}

/// Cuts snapshot checkpoints for the range workload into `store`.
fn publish_snapshots(store: &Store) -> Result<(), String> {
    let (w, key) = range_fixture()?;
    dee_snap::publish_checkpoints(store, &key, &w.program, &w.initial_memory, RANGE_STRIDE)?;
    Ok(())
}

/// One `Connection: close` exchange; `(status, body)`.
fn post(addr: SocketAddr, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    stream
        .write_all(body.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// What a pass's server counted during the timed loop.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct ServerCounts {
    cache_hits: u64,
    cache_misses: u64,
    seek_hits: u64,
    bytes_written: u64,
}

struct HttpPass {
    setup_s: f64,
    wall_s: f64,
    /// Per-request latency in ms, `FAILED_MS` for a failed request.
    latency_ms: Vec<f64>,
    ok: Vec<bool>,
    counts: ServerCounts,
    queue_highwater: u64,
}

fn snapshot_counts(server: &Server) -> ServerCounts {
    let m = server.metrics();
    ServerCounts {
        cache_hits: m.cache_hits.load(Ordering::Relaxed),
        cache_misses: m.cache_misses.load(Ordering::Relaxed),
        seek_hits: m.snap_seek_hits.load(Ordering::Relaxed),
        bytes_written: server
            .store()
            .map_or(0, |s| s.stats().bytes_written.load(Ordering::Relaxed)),
    }
}

/// Spawns a server over a fresh store and warms it (the pass's set-up),
/// then runs the closed loop over `reqs`.
fn http_pass(work: &WorkDir, reqs: &[Request]) -> Result<HttpPass, String> {
    let t = Instant::now();
    let dir = work.fresh("server").map_err(|e| e.to_string())?;
    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.addr();
    let result = (|| {
        for name in PAPER_WORKLOADS {
            let (status, body) = post(addr, "/simulate", &warmup_body(name))?;
            if status != 200 {
                return Err(format!("warm-up {name}: {status} {body}"));
            }
        }
        publish_snapshots(&Store::open(&dir).map_err(|e| e.to_string())?)?;
        let setup_s = secs(t);

        let before = snapshot_counts(&server);
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, f64, bool)>> = Mutex::new(Vec::with_capacity(reqs.len()));
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = reqs.get(i) else { break };
                    let t = Instant::now();
                    let reply = post(addr, req.path, &req.body);
                    let ms = secs(t) * 1e3;
                    let ok = matches!(&reply, Ok((200, body)) if *body == req.expected);
                    if !ok {
                        eprintln!(
                            "request {i} {}: {:?}",
                            req.path,
                            reply.map(|(s, b)| (s, b.chars().take(200).collect::<String>()))
                        );
                    }
                    results.lock().expect("results lock").push((
                        i,
                        if ok { ms } else { FAILED_MS },
                        ok,
                    ));
                });
            }
        });
        let wall_s = secs(start);
        let after = snapshot_counts(&server);
        let mut results = results.into_inner().expect("results lock");
        results.sort_by_key(|r| r.0);
        Ok(HttpPass {
            setup_s,
            wall_s,
            latency_ms: results.iter().map(|r| r.1).collect(),
            ok: results.iter().map(|r| r.2).collect(),
            counts: ServerCounts {
                cache_hits: after.cache_hits - before.cache_hits,
                cache_misses: after.cache_misses - before.cache_misses,
                seek_hits: after.seek_hits - before.seek_hits,
                bytes_written: after.bytes_written - before.bytes_written,
            },
            queue_highwater: server
                .metrics()
                .queue_depth_highwater
                .load(Ordering::Relaxed),
        })
    })();
    server.shutdown();
    result
}

/// The deterministic counts a request sequence must produce.
fn expected_counts(reqs: &[Request]) -> (u64, u64, u64) {
    reqs.iter().fold((0, 0, 0), |(c, r, m), q| {
        (c + q.cells, r + q.records, m + q.mispredicts)
    })
}

fn check_http(out: &mut Outcome, pass: &HttpPass, first: &mut Option<ServerCounts>) {
    for &ok in &pass.ok {
        out.check(ok, || "a request failed or its body mismatched".into());
    }
    let expected = *first.get_or_insert(pass.counts);
    out.check(pass.counts == expected, || {
        format!(
            "server counts {:?} differ from the first pass's {expected:?}",
            pass.counts
        )
    });
}

fn report_counts(out: &mut Outcome, reqs: &[Request], counts: ServerCounts) {
    let (cells, records, mispredicts) = expected_counts(reqs);
    out.count("ilpsim.cells", cells);
    out.count("ilpsim.records_simulated", records);
    out.count("ilpsim.mispredicts", mispredicts);
    out.count("store.bytes_written", counts.bytes_written);
    out.count("serve.cache_hits", counts.cache_hits);
    out.count("serve.cache_misses", counts.cache_misses);
    out.count("snap.seek_hits", counts.seek_hits);
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::new("serve-mix").map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    let mut first = None;
    let mut reqs = requests(args)?;
    expect(&mut reqs, args.tamper)?;
    if !args.traced {
        let (mut setups, mut walls, mut latencies) = (vec![], vec![], vec![]);
        let mut peak_rss = None;
        while walls.len() < MIN_PASSES || walls.iter().sum::<f64>() < args.seconds {
            let pass = http_pass(&work, &reqs)?;
            check_http(&mut out, &pass, &mut first);
            walls.push(pass.wall_s);
            latencies.push(pass.latency_ms);
            peak_rss.get_or_insert_with(peak_rss_mib);
            // One set-up sample: generating the bodies again plus the
            // pass's spawn, warm-up and snapshot publish. The bodies are
            // regenerated after the pass, so the first pass, whose peak
            // RSS is reported, runs on a heap the regeneration has not
            // yet churned.
            let t = Instant::now();
            let again = requests(args)?;
            let bodies_s = secs(t);
            let same = again
                .iter()
                .map(|r| &r.body)
                .eq(reqs.iter().map(|r| &r.body));
            out.check(same, || "regenerated request bodies differ".into());
            setups.push(bodies_s + pass.setup_s);
        }
        // Each request's median latency over the passes: a hiccup that
        // hits one request in one pass does not move it, a request that is
        // slow in every pass does.
        let typical: Vec<f64> = (0..reqs.len())
            .map(|i| median(&latencies.iter().map(|pass| pass[i]).collect::<Vec<_>>()))
            .collect();
        let run_s = best(&walls);
        let (_, records, _) = expected_counts(&reqs);
        out.set("setup_s", median(&setups));
        out.set("run_s", run_s);
        out.set("sim_minstr_per_s", records as f64 / run_s / 1e6);
        out.set("peak_rss_mib", peak_rss.expect("at least one pass"));
        out.set("req_per_s", reqs.len() as f64 / run_s);
        out.set("p50_ms", quantile(&typical, 0.50));
        out.set("p99_ms", quantile(&typical, 0.99));
        out.notes.push(format!(
            "serve-mix: best of {} passes of {} requests each, {CLIENTS} closed-loop clients, {WORKERS} workers; p50/p99 over the {} requests' median latencies",
            walls.len(),
            reqs.len(),
            typical.len()
        ));
        report_counts(&mut out, &reqs, first.unwrap_or_default());
    } else {
        let http = http_pass(&work, &reqs)?;
        check_http(&mut out, &http, &mut first);
        let mean_http_ms = http.latency_ms.iter().sum::<f64>() / http.latency_ms.len() as f64;
        let mut log = SpanLog::new();
        let mut stats = PassStats::default();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let (mut handler_ms, mut miss_ms) = (Vec::new(), Vec::new());
        let mut attribution = BTreeMap::new();
        while traced.len() < 2 || plain.iter().chain(&traced).sum::<f64>() < args.seconds {
            for on in order(traced.len()) {
                let mut tracer = Tracer::new(on);
                let pass = replay(&reqs, &work, &mut tracer, &http.counts)?;
                pass.check(&mut out);
                if !on {
                    plain.push(pass.wall_s - pass.attribution_s);
                    continue;
                }
                traced.push(pass.wall_s - pass.attribution_s);
                stats.push_pass(&tracer);
                handler_ms.push(tracer.total_ms("serve.request") / reqs.len() as f64);
                miss_ms
                    .push(tracer.total_ms("serve.miss") / tracer.calls("serve.miss").max(1) as f64);
                attribution = pass.attribution;
                log.add(&format!("pass{}", traced.len()), &tracer);
            }
        }
        for name in stats.names() {
            out.set(name, stats.median(name));
        }
        let counts = http.counts;
        let ranges = reqs.iter().filter(|r| r.kind == Kind::Range).count() as f64;
        out.set("serve.miss_ms", median(&miss_ms));
        out.set("serve.overhead_ms", mean_http_ms - median(&handler_ms));
        out.set(
            "serve.cache_hit_ratio",
            counts.cache_hits as f64 / (counts.cache_hits + counts.cache_misses).max(1) as f64,
        );
        out.set(
            "snap.seek_hit_ratio",
            counts.seek_hits as f64 / ranges.max(1.0),
        );
        out.set("serve.queue_depth_highwater", http.queue_highwater as f64);
        let upload_records = attribution.get("records").copied().unwrap_or(0.0);
        out.set(
            "vm.capture_mrec_per_s",
            upload_records / stats.median("vm.capture_ms") / 1e3,
        );
        out.set(
            "ilpsim.prepare_mrec_per_s",
            upload_records / stats.median("ilpsim.prepare_ms") / 1e3,
        );
        out.set(
            "store.put_bytes_per_record",
            attribution.get("put_bytes").copied().unwrap_or(0.0) / upload_records.max(1.0),
        );
        out.set(
            "trace.overhead_ms",
            (median(&traced) - median(&plain)) * 1e3,
        );
        let path = log
            .write(&args.workload, args.seed)
            .map_err(|e| e.to_string())?;
        out.notes.push(format!(
            "serve-mix: {} requests; HTTP mean latency {mean_http_ms:.3} ms; spans written to {path}",
            reqs.len()
        ));
        report_counts(&mut out, &reqs, counts);
    }
    Ok(out)
}

/// One in-process replay of the sequence.
struct Replay {
    wall_s: f64,
    /// Time spent in attribution calls, excluded from the handler path.
    attribution_s: f64,
    ok: Vec<bool>,
    counts_ok: bool,
    /// Upload records captured and bytes put by the attribution calls.
    attribution: BTreeMap<&'static str, f64>,
}

impl Replay {
    fn check(&self, out: &mut Outcome) {
        for &ok in &self.ok {
            out.check(ok, || {
                "an in-process reply mismatched its expected body".into()
            });
        }
        out.check(self.counts_ok, || {
            "in-process counts differ from the server's".into()
        });
    }
}

/// Replays `reqs` in-process through the serve crate's public functions,
/// against a fresh cache and store warmed like the server's.
fn replay(
    reqs: &[Request],
    work: &WorkDir,
    tracer: &mut Tracer,
    server: &ServerCounts,
) -> Result<Replay, String> {
    let cache = PreparedCache::new(128, 8);
    let store =
        Store::open(work.fresh("replay").map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let attr_store = Store::open(work.fresh("attribution").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let faults = FaultPlan::inert();
    let metrics = Metrics::new();
    for name in PAPER_WORKLOADS {
        let body = dee_serve::json::parse(&warmup_body(name))?;
        prepared_for(&cache, &body, &faults, Some(&store)).map_err(|e| e.message)?;
    }
    publish_snapshots(&store)?;
    let bytes_before = store.stats().bytes_written.load(Ordering::Relaxed);
    let range = range_fixture()?;
    let deadline = Instant::now() + Duration::from_secs(3600);

    let (mut ok, mut hits, mut misses) = (Vec::with_capacity(reqs.len()), 0u64, 0u64);
    let mut attribution_s = 0.0;
    let mut attribution: BTreeMap<&'static str, f64> = BTreeMap::new();
    let start = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        let group = i as u64;
        let request = tracer.begin("serve.request", group);
        let json = tracer.span("serve.parse", group, || dee_serve::json::parse(&req.body))?;
        let body = match req.kind {
            Kind::Hit | Kind::Upload => {
                let lookup = tracer.begin("serve.lookup", group);
                let (entry, hit, label) =
                    prepared_for(&cache, &json, &faults, Some(&store)).map_err(|e| e.message)?;
                if !hit {
                    tracer.rename(&lookup, "serve.miss");
                }
                tracer.end(lookup);
                if hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
                let p = entry.prepared.accuracy();
                let name = format!("ilpsim.simulate.{}", req.model.name());
                let outcome = tracer.span(&name, group, || {
                    simulate(&entry.prepared, &sim_config(req.model, req.et, p))
                });
                tracer.span("serve.render", group, || {
                    simulate_body(&label, hit, p, &outcome)
                })
            }
            Kind::Range => {
                let json = tracer
                    .span("serve.simulate_range", group, || {
                        handle_simulate_range(&json, deadline, &faults, Some(&store), &metrics)
                    })
                    .map_err(|e| e.message)?;
                tracer.span("serve.render", group, || json.to_string())
            }
            Kind::Levo => {
                let json = tracer
                    .span("levo.run", group, || handle_levo(&json, deadline, &faults))
                    .map_err(|e| e.message)?;
                tracer.span("serve.render", group, || json.to_string())
            }
        };
        tracer.end(request);
        ok.push(body == req.expected);
        // Untraced replays make the same calls, so the two differ only in
        // span recording.
        if matches!(req.kind, Kind::Upload | Kind::Range) {
            let t = Instant::now();
            attribute(
                req,
                tracer,
                group,
                (&attr_store, &store),
                &range,
                &mut attribution,
            )?;
            attribution_s += secs(t);
        }
    }
    let wall_s = secs(start);
    let counts = ServerCounts {
        cache_hits: hits,
        cache_misses: misses,
        seek_hits: metrics.snap_seek_hits.load(Ordering::Relaxed),
        bytes_written: store.stats().bytes_written.load(Ordering::Relaxed) - bytes_before,
    };
    Ok(Replay {
        wall_s,
        attribution_s,
        ok,
        counts_ok: counts == *server,
        attribution,
    })
}

/// Calls the layer functions an upload's miss path and a range's warm
/// start run inside the server, each in its own span, under a
/// `bench.attribution` span that keeps them out of the handler's time.
fn attribute(
    req: &Request,
    tracer: &mut Tracer,
    group: u64,
    (attr_store, store): (&Store, &Store),
    (range_w, range_key): &(Workload, ArtifactKey),
    totals: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let root = tracer.begin("bench.attribution", group);
    if let Some(Upload {
        listing, memory, ..
    }) = &req.upload
    {
        let program = dee_isa::parse::parse_program(listing).map_err(|e| e.to_string())?;
        let report = tracer.span("analyze.gate", group, || dee_analyze::analyze(&program));
        if report.has_errors() {
            return Err("an upload failed the lint gate".into());
        }
        let trace = tracer
            .span("vm.capture", group, || {
                trace_program_with(Engine::Decoded, &program, memory, STEP_LIMIT)
            })
            .map_err(|e| e.to_string())?;
        let key = ArtifactKey::new("program", &format!("{group}"), listing, memory);
        let path = tracer
            .span("store.put", group, || attr_store.put(&key, &trace))
            .map_err(|e| e.to_string())?;
        tracer.span("ilpsim.prepare", group, || {
            PreparedTrace::with_predictor(&program, &trace, &mut TwoBitCounter::new())
        });
        *totals.entry("records").or_default() += trace.len() as f64;
        *totals.entry("put_bytes").or_default() +=
            std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
    } else {
        let (start, end) = req.range;
        tracer.span("snap.seek", group, || {
            dee_snap::nearest_snapshot(store, range_key, start)
                .map(|(_, bytes)| dee_snap::Snapshot::decode(&bytes, &range_w.initial_memory))
        });
        let streamed = tracer.span("store.stream", group, || -> Result<u64, String> {
            let mut reader = store
                .open_reader(range_key)
                .map_err(|e| e.to_string())?
                .ok_or("range artifact missing")?;
            let mut n = 0;
            while n < end && reader.next_record().map_err(|e| e.to_string())?.is_some() {
                n += 1;
            }
            Ok(n)
        })?;
        if streamed != end {
            return Err(format!("streamed {streamed} records, wanted {end}"));
        }
    }
    tracer.end(root);
    Ok(())
}
