//! Load generator for `dee serve`.
//!
//! Drives a parameter sweep — the service's intended workload — against a
//! running server (`--addr HOST:PORT`) or an in-process one it spawns
//! itself, then reports throughput, latency percentiles, and the
//! prepared-trace cache hit rate scraped from `/metrics`.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--requests N] [--concurrency C]
//!         [--workers W] [--retries R] [--seed S] [--csv] [--range]
//! ```
//!
//! The sweep cycles models and `E_T` values over two tiny workloads, so
//! after the two cold preparations every request hits the cache; with the
//! default 100 requests the steady-state hit rate is 98%.
//!
//! `--range` switches the sweep to seeded `POST /simulate_range` requests
//! over the `compress`/tiny trace. Unless `--addr` points at a running
//! server, an in-process one is spawned over a temporary store
//! pre-populated with `DEESNAP1` checkpoints, so most requests warm-start
//! from a snapshot; the summary reports the snapshot-seek hit rate
//! scraped from the `dee_snap_*` metrics next to the latency percentiles,
//! and the row lands in `results/snap_range.csv` (machine-dependent
//! numbers — a report, not a golden).
//!
//! Transient `503`/`504` responses (queue full, open breaker, deadline
//! slip) are retried with seeded jittered exponential backoff, so a burst
//! of shed load shows up as `retried` in the summary instead of hard
//! errors; requests that stay unlucky through every attempt count as
//! `abandoned`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dee_bench::TextTable;
use dee_serve::{Server, ServerConfig};

const MODELS: [&str; 4] = ["SP", "DEE", "SP-CD-MF", "DEE-CD-MF"];
const WORKLOADS: [&str; 2] = ["compress", "xlisp"];

/// First-retry backoff; doubles per attempt before jitter.
const BACKOFF_BASE_MS: u64 = 10;

struct Args {
    addr: Option<String>,
    requests: usize,
    concurrency: usize,
    workers: usize,
    retries: u32,
    seed: u64,
    csv: bool,
    range: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        requests: 100,
        concurrency: 4,
        workers: 0,
        retries: 3,
        seed: 1,
        csv: false,
        range: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = Some(value()?.clone()),
            "--requests" => {
                args.requests = value()?.parse().map_err(|_| "bad --requests".to_string())?;
            }
            "--concurrency" => {
                args.concurrency = value()?
                    .parse()
                    .map_err(|_| "bad --concurrency".to_string())?;
            }
            "--workers" => {
                args.workers = value()?.parse().map_err(|_| "bad --workers".to_string())?;
            }
            "--retries" => {
                args.retries = value()?.parse().map_err(|_| "bad --retries".to_string())?;
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?;
            }
            "--csv" => args.csv = true,
            "--range" => args.range = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.requests == 0 || args.concurrency == 0 {
        return Err("--requests and --concurrency must be positive".into());
    }
    Ok(args)
}

/// xorshift64* — the same tiny generator the fault plan uses, so backoff
/// jitter is reproducible from `--seed`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Backoff before retry `attempt` (1-based): exponential base with full
/// jitter, `uniform(0, BASE << (attempt-1))`, capped at one second.
fn backoff(rng: &mut Rng, attempt: u32) -> Duration {
    let ceiling_ms = (BACKOFF_BASE_MS << (attempt - 1).min(10)).min(1_000);
    Duration::from_millis(rng.next() % ceiling_ms.max(1))
}

/// One `Connection: close` HTTP exchange. Returns (status, body).
fn exchange(addr: &str, request: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad response: {raw:.60}"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn post(addr: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    exchange(addr, &request)
}

fn get(addr: &str, path: &str) -> Result<(u16, String), String> {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n"),
    )
}

/// Whether a status is worth retrying: shed load (`503`) and deadline
/// slips (`504`) are transient by design; everything else is not.
fn transient(status: u16) -> bool {
    status == 503 || status == 504
}

/// The i-th request body of the sweep: cycle workloads slowest, so every
/// distinct prepared trace is requested early and re-hit often.
fn sweep_body(i: usize) -> String {
    let workload = WORKLOADS[i % WORKLOADS.len()];
    let model = MODELS[(i / WORKLOADS.len()) % MODELS.len()];
    let et = 4 + 8 * u32::try_from((i / (WORKLOADS.len() * MODELS.len())) % 16).unwrap_or(0);
    format!(r#"{{"workload":"{workload}","scale":"tiny","model":"{model}","et":{et}}}"#)
}

/// The `--range` mode's fixed workload and checkpoint stride. One tiny
/// trace is enough to exercise the seek/replay path; the stride is small
/// relative to the trace so most seeded ranges find a snapshot below
/// their start.
const RANGE_WORKLOAD: &str = "compress";
const RANGE_STRIDE: u64 = 1024;

/// Records the `--range` workload's trace into `dir` and cuts `DEESNAP1`
/// checkpoints at [`RANGE_STRIDE`], so a server spawned over the
/// directory can warm-start `/simulate_range` requests. Returns the
/// trace length (the bound for seeded ranges).
fn publish_range_fixture(dir: &std::path::Path) -> u64 {
    let store = dee_store::Store::open(dir).expect("open fixture store");
    let workload = dee_workloads::WorkloadRegistry::builtin()
        .build_many(&[RANGE_WORKLOAD], dee_workloads::Scale::Tiny)
        .expect("known workload")
        .remove(0);
    let trace = workload
        .validate_with(dee_vm::Engine::default())
        .expect("workload validates");
    let key = dee_store::ArtifactKey::new(
        &workload.name,
        "tiny",
        &workload.program.to_listing(),
        &workload.initial_memory,
    );
    store.put(&key, &trace).expect("publish trace");
    dee_snap::publish_checkpoints(
        &store,
        &key,
        &workload.program,
        &workload.initial_memory,
        RANGE_STRIDE,
    )
    .expect("publish checkpoints");
    trace.len() as u64
}

/// The i-th seeded `/simulate_range` body: a deterministic (start, end)
/// window over the fixture trace, cycling the four request predictors so
/// every snapshot blob gets restored.
fn range_body(i: usize, seed: u64, trace_len: u64) -> String {
    let mut rng = Rng::new(seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let start = rng.next() % trace_len.saturating_sub(1).max(1);
    let end = (start + 1 + rng.next() % 512).min(trace_len);
    let predictor = ["twobit", "gshare", "pap", "taken"][i % 4];
    format!(
        r#"{{"workload":"{RANGE_WORKLOAD}","scale":"tiny","model":"SP","et":8,"predictor":"{predictor}","start":{start},"end":{end}}}"#
    )
}

/// Pulls one counter value out of the Prometheus text exposition.
fn scrape(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Per-thread tally of how the sweep's requests ended.
#[derive(Default)]
struct Tally {
    latencies_us: Vec<u64>,
    /// Requests that needed at least one retry before succeeding.
    retried: usize,
    /// Requests abandoned after exhausting every retry on 503/504.
    abandoned: usize,
    /// Non-transient failures (unexpected status or transport error).
    errors: usize,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };

    // Spawn an in-process server unless one was pointed at.
    let mut spawned: Option<Server> = None;
    let mut spawned_store: Option<std::path::PathBuf> = None;
    let addr = match &args.addr {
        Some(addr) => addr.clone(),
        None => {
            let mut config = ServerConfig::default();
            if args.workers > 0 {
                config.workers = args.workers;
            }
            config.queue_capacity = config.queue_capacity.max(args.concurrency * 4);
            if args.range {
                let dir =
                    std::env::temp_dir().join(format!("dee_loadgen_range_{}", std::process::id()));
                std::fs::remove_dir_all(&dir).ok();
                publish_range_fixture(&dir);
                config.store_dir = Some(dir.clone());
                spawned_store = Some(dir);
            }
            let server = Server::spawn(config).expect("spawn server");
            let addr = server.addr().to_string();
            spawned = Some(server);
            addr
        }
    };

    let (status, _) = get(&addr, "/healthz").expect("healthz");
    assert_eq!(status, 200, "server not healthy");

    // Range windows are seeded off the fixture trace's length; a local
    // capture is authoritative for a remote server too, since traces are
    // deterministic.
    let range_len = if args.range {
        dee_workloads::WorkloadRegistry::builtin()
            .build_many(&[RANGE_WORKLOAD], dee_workloads::Scale::Tiny)
            .expect("known workload")
            .remove(0)
            .validate_with(dee_vm::Engine::default())
            .expect("workload validates")
            .len() as u64
    } else {
        0
    };

    let next = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let handles: Vec<_> = (0..args.concurrency)
        .map(|client| {
            let addr = addr.clone();
            let next = Arc::clone(&next);
            let total = args.requests;
            let retries = args.retries;
            let range = args.range;
            let seed = args.seed;
            // Distinct deterministic jitter stream per client thread.
            let mut rng = Rng::new(args.seed.wrapping_add(client as u64 * 0x9E37_79B9));
            std::thread::spawn(move || {
                let mut tally = Tally::default();
                let path = if range {
                    "/simulate_range"
                } else {
                    "/simulate"
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        return tally;
                    }
                    let body = if range {
                        range_body(i, seed, range_len)
                    } else {
                        sweep_body(i)
                    };
                    let begin = Instant::now();
                    let mut attempt = 0u32;
                    loop {
                        match post(&addr, path, &body) {
                            Ok((200, _)) => {
                                tally.latencies_us.push(
                                    u64::try_from(begin.elapsed().as_micros()).unwrap_or(u64::MAX),
                                );
                                if attempt > 0 {
                                    tally.retried += 1;
                                }
                                break;
                            }
                            Ok((status, body)) if transient(status) => {
                                if attempt >= retries {
                                    eprintln!(
                                        "request {i}: abandoned after {attempt} retries \
                                         (HTTP {status}: {body})"
                                    );
                                    tally.abandoned += 1;
                                    break;
                                }
                                attempt += 1;
                                std::thread::sleep(backoff(&mut rng, attempt));
                            }
                            Ok((status, body)) => {
                                eprintln!("request {i}: HTTP {status}: {body}");
                                tally.errors += 1;
                                break;
                            }
                            Err(message) => {
                                eprintln!("request {i}: {message}");
                                tally.errors += 1;
                                break;
                            }
                        }
                    }
                }
            })
        })
        .collect();
    let mut latencies_us = Vec::new();
    let (mut retried, mut abandoned, mut errors) = (0usize, 0usize, 0usize);
    for handle in handles {
        let tally = handle.join().expect("client thread");
        latencies_us.extend(tally.latencies_us);
        retried += tally.retried;
        abandoned += tally.abandoned;
        errors += tally.errors;
    }
    let wall = started.elapsed();
    latencies_us.sort_unstable();

    let (status, metrics) = get(&addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);

    let ok = latencies_us.len();
    let rps = ok as f64 / wall.as_secs_f64();

    // Range mode: report the snapshot-seek counters instead of the
    // prepared-cache ones, and land the machine-dependent sample in
    // `results/snap_range.csv`.
    if args.range {
        let seek_hits = scrape(&metrics, "dee_snap_seek_hits_total");
        let seek_misses = scrape(&metrics, "dee_snap_seek_misses_total");
        let decode_failures = scrape(&metrics, "dee_snap_decode_failures_total");
        let seeks = seek_hits + seek_misses;
        let seek_hit_rate = if seeks > 0 {
            seek_hits as f64 / seeks as f64
        } else {
            0.0
        };
        let mut table = TextTable::new(&[
            "requests",
            "ok",
            "retried",
            "abandoned",
            "errors",
            "rps",
            "p50_us",
            "p99_us",
            "seek_hits",
            "seek_misses",
            "seek_hit_rate",
            "decode_failures",
        ]);
        table.row(vec![
            args.requests.to_string(),
            ok.to_string(),
            retried.to_string(),
            abandoned.to_string(),
            errors.to_string(),
            format!("{rps:.1}"),
            percentile(&latencies_us, 0.50).to_string(),
            percentile(&latencies_us, 0.99).to_string(),
            seek_hits.to_string(),
            seek_misses.to_string(),
            format!("{:.1}%", 100.0 * seek_hit_rate),
            decode_failures.to_string(),
        ]);
        println!(
            "{} /simulate_range requests ({} concurrent clients, seed {}) against {addr} in {:.2}s",
            args.requests,
            args.concurrency,
            args.seed,
            wall.as_secs_f64()
        );
        print!("{}", table.render());
        let path = table.write_csv("snap_range.csv").expect("write csv");
        println!("wrote {} (machine-dependent; not a golden)", path.display());
        if let Some(server) = spawned {
            server.shutdown();
        }
        if let Some(dir) = spawned_store {
            std::fs::remove_dir_all(&dir).ok();
        }
        if errors + abandoned > 0 {
            std::process::exit(1);
        }
        return;
    }

    let hits = scrape(&metrics, "dee_prepared_cache_hits_total");
    let misses = scrape(&metrics, "dee_prepared_cache_misses_total");
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };

    let mut table = TextTable::new(&[
        "requests",
        "ok",
        "retried",
        "abandoned",
        "errors",
        "rps",
        "p50_us",
        "p90_us",
        "p99_us",
        "max_us",
        "cache_hits",
        "cache_misses",
        "hit_rate",
    ]);
    table.row(vec![
        args.requests.to_string(),
        ok.to_string(),
        retried.to_string(),
        abandoned.to_string(),
        errors.to_string(),
        format!("{rps:.1}"),
        percentile(&latencies_us, 0.50).to_string(),
        percentile(&latencies_us, 0.90).to_string(),
        percentile(&latencies_us, 0.99).to_string(),
        latencies_us.last().copied().unwrap_or(0).to_string(),
        hits.to_string(),
        misses.to_string(),
        format!("{:.1}%", 100.0 * hit_rate),
    ]);
    println!(
        "{} requests ({} concurrent clients, {} retries max) against {addr} in {:.2}s",
        args.requests,
        args.concurrency,
        args.retries,
        wall.as_secs_f64()
    );
    print!("{}", table.render());
    if args.csv {
        let path = table.write_csv("serve_baseline.csv").expect("write csv");
        println!("wrote {}", path.display());
    }

    if let Some(server) = spawned {
        server.shutdown();
    }
    if errors + abandoned > 0 {
        std::process::exit(1);
    }
}
