//! The resident simulation server: accept loop, worker pool, dispatch.
//!
//! One TCP connection carries exactly one request (`Connection: close`),
//! so the bounded job queue measures load in whole requests. The accept
//! thread never blocks on the queue — at capacity it answers
//! `503 queue full` inline and moves on, which keeps accept latency flat
//! under overload and makes backpressure observable to clients instead
//! of silent.
//!
//! # Failure containment
//!
//! A worker runs every job it dequeues under one `catch_unwind` and then
//! takes the next job, whatever happened: it holds no state between jobs
//! (the cache, store, metrics and fault plan are shared and recover from
//! mutex poisoning), so there is nothing for a panic to leave torn. A
//! panic in request dispatch is caught closer still and answers *that
//! client* with a structured `500`; a panic anywhere else in the job (the
//! dequeue, a socket read or write) drops that one connection. Both count
//! in `dee_panics_caught_total`. A `500` has no side effect beyond its
//! counter, so one client's faulting program never refuses another's
//! request. All failure paths can be exercised deterministically through
//! the [`FaultPlan`](crate::faults::FaultPlan) wired into
//! [`ServerConfig`].

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::api;
use crate::cache::PreparedCache;
use crate::faults::{FaultPlan, FaultSite};
use crate::http::{read_request, write_response, HttpError, Request};
use crate::json::{parse as parse_json, Json};
use crate::metrics::Metrics;
use crate::queue::{Bounded, TryPushError};
use crate::stream::GuardedStream;

/// Tuning knobs for [`Server::spawn`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Worker threads. `0` spawns no workers — accepted jobs queue until
    /// the queue fills, a deterministic seam for backpressure tests.
    pub workers: usize,
    /// Bounded job-queue capacity; beyond it connections get `503`.
    pub queue_capacity: usize,
    /// Total prepared-trace cache entries across all shards.
    pub cache_entries: usize,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// Default per-request deadline, measured from accept time. Requests
    /// may tighten it with a `deadline_ms` body field.
    pub default_deadline: Duration,
    /// Whole-request wall-clock budget for reading the head + body. A
    /// slow-loris client trickling bytes cannot hold a worker past this.
    pub read_budget: Duration,
    /// Whole-response wall-clock budget for writing.
    pub write_budget: Duration,
    /// Largest `POST /batch` grid accepted; bigger grids are shed with
    /// `503` before any cell runs (a grid is amplified load: one
    /// connection, many simulations).
    pub max_batch_cells: usize,
    /// Fault-injection plan; [`FaultPlan::inert`] in production.
    pub faults: Arc<FaultPlan>,
    /// Optional disk cache tier: a [`dee_store::Store`] directory that
    /// raw traces are replayed from (and recorded to) on prepared-cache
    /// misses, so trace work survives restarts. `None` disables the
    /// tier.
    pub store_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism().map_or(4, usize::from),
            queue_capacity: 64,
            cache_entries: 128,
            cache_shards: 8,
            max_body_bytes: 1 << 20,
            default_deadline: Duration::from_secs(10),
            read_budget: Duration::from_secs(5),
            write_budget: Duration::from_secs(5),
            max_batch_cells: 256,
            faults: Arc::new(FaultPlan::inert()),
            store_dir: None,
        }
    }
}

/// One accepted connection, stamped so queue wait counts toward the
/// request deadline.
struct Job {
    stream: TcpStream,
    accepted: Instant,
}

/// What the job queue carries. Connections are the unit of backpressure;
/// batch-help markers are best-effort advertisements that a `/batch` grid
/// has unclaimed cells (see [`BatchState`]) and are free to be dropped —
/// the handling worker always drains the grid itself.
enum Work {
    /// Serve one accepted connection.
    Conn(Job),
    /// Help drain a batch grid's remaining cells.
    BatchHelp(Arc<BatchState>),
}

/// A `POST /batch` grid being fanned across the worker pool.
///
/// The handling worker builds one, pushes best-effort [`Work::BatchHelp`]
/// markers onto the job queue, then drains cells itself. Workers claim
/// cell indices from the atomic injector and write results into per-index
/// slots, so the response is assembled in grid order no matter which
/// thread ran which cell or in what order cells finished — the same
/// indexed-injector design as the sweep pool in `dee-bench` (DESIGN.md
/// §8). Because the handler always participates until the injector is
/// exhausted, the batch completes even if every marker is dropped (full
/// queue, zero spare workers): no deadlock by construction. A marker
/// popped after completion finds the injector exhausted and is a no-op.
struct BatchState {
    cells: Vec<api::BatchCell>,
    deadline: Instant,
    /// Cell injector: the next unclaimed cell index.
    next: AtomicUsize,
    /// Per-cell result slots, written in any order, read in grid order.
    results: Vec<Mutex<Option<Json>>>,
    /// Prepared-cache accounting across cells, for the response summary.
    hits: AtomicU64,
    misses: AtomicU64,
    /// Completed cells; the handler waits on `all_done` until it reaches
    /// `cells.len()` (helpers may still be finishing claimed cells after
    /// the injector runs dry).
    finished: Mutex<usize>,
    all_done: Condvar,
}

struct Shared {
    queue: Bounded<Work>,
    cache: PreparedCache,
    metrics: Metrics,
    stop: AtomicBool,
    workers: usize,
    max_body_bytes: usize,
    default_deadline: Duration,
    read_budget: Duration,
    write_budget: Duration,
    max_batch_cells: usize,
    faults: Arc<FaultPlan>,
    /// Disk cache tier for raw traces; `None` when not configured.
    store: Option<Arc<dee_store::Store>>,
}

/// A running server. Dropping the handle leaks the threads; call
/// [`shutdown`](Server::shutdown) for an orderly stop.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and spawns the accept thread and the worker
    /// pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let store = match &config.store_dir {
            Some(dir) => Some(Arc::new(dee_store::Store::open(dir)?)),
            None => None,
        };
        let shared = Arc::new(Shared {
            queue: Bounded::new(config.queue_capacity),
            cache: PreparedCache::new(config.cache_entries, config.cache_shards),
            metrics: Metrics::new(),
            stop: AtomicBool::new(false),
            workers: config.workers,
            max_body_bytes: config.max_body_bytes,
            default_deadline: config.default_deadline,
            read_budget: config.read_budget,
            write_budget: config.write_budget,
            max_batch_cells: config.max_batch_cells,
            faults: config.faults,
            store,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dee-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<_>>()?;
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("dee-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Server {
            shared,
            addr,
            accept_thread,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics registry (shared with the worker threads).
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The fault plan the server was spawned with (tests disarm it to
    /// end a storm).
    #[must_use]
    pub fn faults(&self) -> &Arc<FaultPlan> {
        &self.shared.faults
    }

    /// The disk cache tier, when one was configured.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<dee_store::Store>> {
        self.shared.store.as_ref()
    }

    /// Stops accepting, lets workers drain every queued job, then joins
    /// all threads. Jobs still queued when no worker remains (the
    /// `workers: 0` seam) are answered `503`.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept thread with a throwaway connection.
        drop(TcpStream::connect(self.addr));
        let _ = self.accept_thread.join();
        self.shared.queue.close();
        for worker in self.workers {
            let _ = worker.join();
        }
        for work in self.shared.queue.drain() {
            match work {
                Work::Conn(job) => refuse(job.stream, &self.shared.metrics),
                // The handling worker owns batch completion; a drained
                // marker is just a dropped advertisement.
                Work::BatchHelp(_) => {}
            }
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // Survive anything the enqueue path (including an armed
        // QueuePush site) throws.
        if catch_unwind(AssertUnwindSafe(|| enqueue(shared, stream))).is_err() {
            shared.metrics.panics_caught.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn enqueue(shared: &Shared, stream: TcpStream) {
    if shared.faults.trip(FaultSite::QueuePush).is_some() {
        // Injected enqueue failure: shed exactly like a full queue.
        refuse(stream, &shared.metrics);
        return;
    }
    let job = Job {
        stream,
        accepted: Instant::now(),
    };
    match shared.queue.try_push(Work::Conn(job)) {
        Ok(depth) => shared.metrics.observe_queue_depth(depth as u64),
        Err(TryPushError::Full(work)) | Err(TryPushError::Closed(work)) => {
            // Only connections are enqueued here; shed whatever came back
            // rather than staking the accept thread on that invariant.
            if let Work::Conn(job) = work {
                refuse(job.stream, &shared.metrics);
            }
        }
    }
}

/// Sheds one connection with `503 queue full`.
fn refuse(mut stream: TcpStream, metrics: &Metrics) {
    metrics.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
    metrics.count_response(503);
    let body = Json::obj(vec![("error", Json::str("queue full"))]).to_string();
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = write_response(&mut stream, 503, "application/json", body.as_bytes());
    lingering_close(stream);
}

/// Closes a connection whose request was never (fully) read. Closing with
/// unread bytes in the receive buffer makes the kernel send RST, which
/// can destroy the response before the client reads it — so half-close
/// the write side and drain the peer's data until EOF first.
fn lingering_close(mut stream: TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
    let mut scratch = [0u8; 1024];
    while let Ok(n) = std::io::Read::read(&mut stream, &mut scratch) {
        if n == 0 {
            break;
        }
    }
}

/// Serves jobs until the queue closes. Each job runs under one
/// `catch_unwind`, and the worker takes the next job whatever happened:
/// a panic outside [`dispatch`]'s own guard (the dequeue site, a socket
/// read or write) drops that one connection and is counted, nothing more.
fn worker_loop(shared: &Shared) {
    while let Some(work) = shared.queue.pop() {
        let served = catch_unwind(AssertUnwindSafe(|| match work {
            // Each cell runs under its own `catch_unwind`; a failed cell
            // is that cell's `error` member.
            Work::BatchHelp(state) => batch_drain(shared, &state),
            Work::Conn(job) => {
                if shared.faults.trip(FaultSite::QueuePop).is_some() {
                    // Injected dequeue failure: shed the job like overload.
                    refuse(job.stream, &shared.metrics);
                } else {
                    serve_job(shared, job);
                }
            }
        }));
        if served.is_err() {
            shared.metrics.panics_caught.fetch_add(1, Ordering::Relaxed);
        }
    }
}

const JSON: &str = "application/json";
const TEXT: &str = "text/plain; charset=utf-8";

/// Builds a `{"error": message}` response body.
fn err_json(status: u16, message: impl Into<String>) -> (u16, &'static str, String) {
    let body = Json::obj(vec![("error", Json::str(message.into()))]);
    (status, JSON, body.to_string())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn serve_job(shared: &Shared, job: Job) {
    let accepted = job.accepted;
    shared.metrics.phase_queue_wait.record(accepted.elapsed());
    let guarded = match GuardedStream::new(
        job.stream,
        shared.read_budget,
        shared.write_budget,
        Arc::clone(&shared.faults),
    ) {
        Ok(guarded) => guarded,
        // The socket refused timeouts; it cannot be served under a
        // budget, and per the contract we do not serve without one.
        Err(_) => return,
    };
    let mut reader = BufReader::new(guarded);
    let mut fully_read = true;
    let (status, content_type, body) = match read_request(&mut reader, shared.max_body_bytes) {
        Ok(None) => return, // peer closed without sending a request
        Ok(Some(request)) => {
            shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
            match catch_unwind(AssertUnwindSafe(|| dispatch(shared, &request, accepted))) {
                Ok(response) => response,
                Err(payload) => {
                    shared.metrics.panics_caught.fetch_add(1, Ordering::Relaxed);
                    let body = Json::obj(vec![
                        ("error", Json::str("internal: simulation job panicked")),
                        ("detail", Json::str(panic_message(payload.as_ref()))),
                    ]);
                    (500, JSON, body.to_string())
                }
            }
        }
        Err(HttpError::BadRequest(message)) => {
            fully_read = false;
            err_json(400, message)
        }
        Err(HttpError::TooLarge) => {
            fully_read = false;
            err_json(413, "payload too large")
        }
        Err(HttpError::Io(e)) => {
            // Answer rather than vanish: if the transport is genuinely
            // dead the write below fails harmlessly, but a slow-loris
            // (408) or an injected read fault (400) deserves a response.
            fully_read = false;
            if e.kind() == std::io::ErrorKind::TimedOut {
                shared.metrics.read_timeouts.fetch_add(1, Ordering::Relaxed);
                err_json(408, "request read timed out")
            } else {
                err_json(400, "request read failed")
            }
        }
    };
    if status == 504 {
        shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
    }
    shared.metrics.count_response(status);
    let mut guarded = reader.into_inner();
    let write_ok = write_response(&mut guarded, status, content_type, body.as_bytes()).is_ok();
    let stream = guarded.into_inner();
    if !fully_read && write_ok {
        lingering_close(stream);
    }
    shared.metrics.latency.record(accepted.elapsed());
}

/// Every route the server answers, as `(method, path)`. Another method on
/// one of these paths is 405, any other path 404, and the `dee serve`
/// banner lists them through [`route_summary`].
pub const ROUTES: &[(&str, &str)] = &[
    ("POST", "/simulate"),
    ("POST", "/simulate_range"),
    ("POST", "/tree"),
    ("POST", "/analyze"),
    ("POST", "/levo"),
    ("POST", "/batch"),
    ("GET", "/debug/at"),
    ("GET", "/healthz"),
    ("GET", "/metrics"),
];

/// [`ROUTES`] as one line, each run of one method named once:
/// `POST /simulate … /batch, GET /debug/at /healthz /metrics`.
#[must_use]
pub fn route_summary() -> String {
    let mut line = String::new();
    let mut last = "";
    for &(method, path) in ROUTES {
        if method != last {
            if !line.is_empty() {
                line.push_str(", ");
            }
            line.push_str(method);
            last = method;
        }
        line.push(' ');
        line.push_str(path);
    }
    line
}

fn dispatch(shared: &Shared, request: &Request, accepted: Instant) -> (u16, &'static str, String) {
    if shared.faults.trip(FaultSite::JobExecute).is_some() {
        return err_json(500, "injected fault: job_execute");
    }
    let path = request.path();
    let Some(&(method, _)) = ROUTES.iter().find(|&&(_, p)| p == path) else {
        return err_json(404, "not found");
    };
    if request.method != method {
        return err_json(405, "method not allowed");
    }
    match path {
        "/healthz" => (200, TEXT, "ok\n".to_string()),
        "/metrics" => {
            let gauges = [
                ("dee_queue_depth", shared.queue.len() as u64),
                ("dee_cache_entries", shared.cache.len() as u64),
                ("dee_workers", shared.workers as u64),
            ];
            let mut text = shared.metrics.render(&gauges);
            text.push_str(&shared.faults.render_metrics());
            if let Some(store) = &shared.store {
                text.push_str(&store.stats().render_metrics());
            }
            (200, TEXT, text)
        }
        "/debug/at" => {
            let deadline = accepted + shared.default_deadline;
            match api::handle_debug_at(
                request,
                deadline,
                &shared.faults,
                shared.store.as_deref(),
                &shared.metrics,
            ) {
                Ok(json) => (200, JSON, json.to_string()),
                Err(e) => err_json(e.status, e.message),
            }
        }
        _ => handle_api(shared, request, accepted),
    }
}

fn handle_api(
    shared: &Shared,
    request: &Request,
    accepted: Instant,
) -> (u16, &'static str, String) {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) if !text.trim().is_empty() => text,
        Ok(_) => "{}",
        Err(_) => return err_json(400, "body is not UTF-8"),
    };
    if shared.faults.trip(FaultSite::JsonDecode).is_some() {
        return err_json(500, "injected fault: json_decode");
    }
    let parse_start = Instant::now();
    let parsed = parse_json(text);
    shared.metrics.phase_parse.record(parse_start.elapsed());
    let body = match parsed {
        Ok(body) => body,
        Err(message) => return err_json(400, format!("json: {message}")),
    };
    let mut budget = shared.default_deadline;
    if let Some(ms) = body.get("deadline_ms").and_then(Json::as_u64) {
        budget = budget.min(Duration::from_millis(ms));
    }
    let deadline = accepted + budget;
    let result = match request.path() {
        "/simulate" => api::handle_simulate(
            &shared.cache,
            &body,
            deadline,
            &shared.faults,
            shared.store.as_deref(),
            &shared.metrics,
        )
        .map(|(json, hit)| {
            let counter = if hit {
                &shared.metrics.cache_hits
            } else {
                &shared.metrics.cache_misses
            };
            counter.fetch_add(1, Ordering::Relaxed);
            json
        }),
        "/simulate_range" => api::handle_simulate_range(
            &body,
            deadline,
            &shared.faults,
            shared.store.as_deref(),
            &shared.metrics,
        ),
        "/tree" => api::handle_tree(&body),
        "/analyze" => api::handle_analyze(&body, &shared.faults),
        "/batch" => handle_batch(shared, &body, deadline),
        _ => api::handle_levo(&body, deadline, &shared.faults),
    };
    let (status, json) = match result {
        Ok(json) => (200, json),
        Err(e) => {
            if e.status == 422 {
                shared
                    .metrics
                    .analyze_rejects
                    .fetch_add(1, Ordering::Relaxed);
            }
            (e.status, e.to_json())
        }
    };
    let render_start = Instant::now();
    let text = json.to_string();
    shared.metrics.phase_render.record(render_start.elapsed());
    (status, JSON, text)
}

/// `POST /batch` — fan a `workloads × models × ets` grid across the
/// worker pool and answer with per-cell results in deterministic grid
/// order. Reuses the single-shot machinery wholesale: each cell goes
/// through [`api::prepared_for`]'s sharded cache (so a grid over few
/// workloads pays each preparation once) and the same fault sites, and
/// the whole grid shares the request's deadline.
fn handle_batch(shared: &Shared, body: &Json, deadline: Instant) -> Result<Json, api::ApiError> {
    let cells = api::parse_batch(body)?;
    if cells.len() > shared.max_batch_cells {
        shared
            .metrics
            .batch_rejected_oversize
            .fetch_add(1, Ordering::Relaxed);
        return Err(api::ApiError {
            status: 503,
            message: format!(
                "batch too large: {} cells (max {})",
                cells.len(),
                shared.max_batch_cells
            ),
            codes: Vec::new(),
        });
    }
    shared
        .metrics
        .batch_requests
        .fetch_add(1, Ordering::Relaxed);
    let total = cells.len();
    let state = Arc::new(BatchState {
        results: (0..total).map(|_| Mutex::new(None)).collect(),
        cells,
        deadline,
        next: AtomicUsize::new(0),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
        finished: Mutex::new(0),
        all_done: Condvar::new(),
    });
    // Advertise help on the job queue, best-effort: at most one marker
    // per spare worker, and a full (or closed) queue just means this
    // worker runs more of the grid itself.
    let helpers = shared
        .workers
        .saturating_sub(1)
        .min(total.saturating_sub(1));
    for _ in 0..helpers {
        match shared.queue.try_push(Work::BatchHelp(Arc::clone(&state))) {
            Ok(depth) => shared.metrics.observe_queue_depth(depth as u64),
            Err(_) => break,
        }
    }
    batch_drain(shared, &state);
    let mut finished = state
        .finished
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    while *finished < total {
        finished = state
            .all_done
            .wait(finished)
            .unwrap_or_else(PoisonError::into_inner);
    }
    drop(finished);
    let results: Vec<Json> = state
        .results
        .iter()
        .map(|slot| {
            slot.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .unwrap_or_else(|| {
                    // A cell whose slot was never written degrades to an
                    // error member instead of panicking the handler.
                    Json::obj(vec![("error", Json::str("internal: cell result missing"))])
                })
        })
        .collect();
    Ok(Json::obj(vec![
        ("cells", Json::from(total as u64)),
        (
            "cache",
            Json::obj(vec![
                ("hits", Json::from(state.hits.load(Ordering::Relaxed))),
                ("misses", Json::from(state.misses.load(Ordering::Relaxed))),
            ]),
        ),
        ("results", Json::Arr(results)),
    ]))
}

/// Claims and runs batch cells until the injector is exhausted. Runs on
/// the handling worker and on any helper that picked up a marker. Each
/// cell executes under its own `catch_unwind`, so an injected panic (or a
/// bug) costs exactly that cell — its slot gets an `error` member — and
/// the worker lives on to claim the next cell.
fn batch_drain(shared: &Shared, state: &BatchState) {
    loop {
        let index = state.next.fetch_add(1, Ordering::Relaxed);
        if index >= state.cells.len() {
            return;
        }
        let cell = &state.cells[index];
        let (json, hit) = match catch_unwind(AssertUnwindSafe(|| {
            api::run_batch_cell(
                &shared.cache,
                cell,
                state.deadline,
                &shared.faults,
                shared.store.as_deref(),
                &shared.metrics,
            )
        })) {
            Ok(done) => done,
            Err(payload) => {
                shared.metrics.panics_caught.fetch_add(1, Ordering::Relaxed);
                (
                    api::batch_cell_error(cell, &panic_message(payload.as_ref())),
                    None,
                )
            }
        };
        match hit {
            Some(true) => {
                state.hits.fetch_add(1, Ordering::Relaxed);
                shared.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            Some(false) => {
                state.misses.fetch_add(1, Ordering::Relaxed);
                shared.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
        shared.metrics.batch_cells.fetch_add(1, Ordering::Relaxed);
        *state.results[index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(json);
        let mut finished = state
            .finished
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *finished += 1;
        if *finished == state.cells.len() {
            state.all_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_extracts_common_payloads() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(boxed.as_ref()), "static str");
        let boxed: Box<dyn std::any::Any + Send> = Box::new("owned".to_string());
        assert_eq!(panic_message(boxed.as_ref()), "owned");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(boxed.as_ref()), "non-string panic payload");
    }
}
