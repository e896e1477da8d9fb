//! Request handlers: JSON in, JSON out.
//!
//! Endpoints exposing the stack: `simulate` (ILP limit models over a
//! workload or an uploaded program), `simulate_range` (the same models
//! over a record subrange, warm-started from a published snapshot when
//! one exists), `tree` (static DEE tree queries), `levo` (machine-model
//! runs), and `debug/at` (time-travel to the machine state at one record
//! index). Handlers are plain functions over [`Json`] values so they are
//! directly testable without a socket, and so the integration tests can
//! byte-compare server responses against locally computed payloads built
//! with the same functions.

use std::convert::Infallible;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use dee_core::{StaticTree, TreeParams};
use dee_ilpsim::{
    simulate, LatencyModel, Model, PreparedTrace, PreparedTraceBuilder, SimConfig, SimOutcome,
};
use dee_isa::parse::parse_program;
use dee_levo::{Levo, LevoConfig, LevoReport, PredictorKind};
use dee_predict::BranchPredictor;
use dee_snap::Snapshot;
use dee_store::{ArtifactKey, Store, StoreReader};
use dee_vm::{trace_program_with, Engine, Machine, Trace, TraceRecord};
use dee_workloads::{Scale, Workload};

use crate::cache::{fnv1a, fnv1a_words, CacheKey, PreparedCache, PreparedEntry};
use crate::faults::{FaultPlan, FaultSite};
use crate::json::Json;
use crate::metrics::Metrics;

/// Dynamic-instruction budget for uploaded programs and workload traces.
const STEP_LIMIT: u64 = 1_000_000_000;

/// Largest accepted `et`. The static tree costs `O(et^1.5)` to build, so
/// an unbounded value lets one request burn a worker for hours; 100 000
/// already covers every sweep in the paper by two orders of magnitude.
const MAX_ET: u64 = 100_000;

/// A handler failure carrying the HTTP status to answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code (400, 404, 422, 500, 504).
    pub status: u16,
    /// Human-readable message, returned as `{"error": ...}`.
    pub message: String,
    /// Machine-readable `DEE-*` diagnostic codes; non-empty only for
    /// static-analysis rejections, where they are returned as `"codes"`.
    pub codes: Vec<String>,
}

impl ApiError {
    /// A `400 Bad Request` error.
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            message: message.into(),
            codes: Vec::new(),
        }
    }

    /// A `500 Internal Server Error`.
    #[must_use]
    pub fn internal(message: impl Into<String>) -> Self {
        ApiError {
            status: 500,
            message: message.into(),
            codes: Vec::new(),
        }
    }

    /// A `422 Unprocessable Entity` error: the request parsed, but static
    /// analysis proved the program wrong. Carries the diagnostic codes.
    #[must_use]
    pub fn unprocessable(message: impl Into<String>, codes: Vec<String>) -> Self {
        ApiError {
            status: 422,
            message: message.into(),
            codes,
        }
    }

    /// A `504` deadline-exceeded error.
    #[must_use]
    pub fn deadline() -> Self {
        ApiError {
            status: 504,
            message: "deadline exceeded".into(),
            codes: Vec::new(),
        }
    }

    /// The error as a JSON body.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = vec![("error", Json::str(self.message.clone()))];
        if !self.codes.is_empty() {
            members.push((
                "codes",
                Json::Arr(self.codes.iter().map(|c| Json::str(c.clone())).collect()),
            ));
        }
        Json::obj(members)
    }
}

fn str_field<'a>(body: &'a Json, key: &str) -> Option<&'a str> {
    body.get(key).and_then(Json::as_str)
}

fn u64_field(body: &Json, key: &str, default: u64) -> Result<u64, ApiError> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| {
            ApiError::bad_request(format!("`{key}` must be a non-negative integer"))
        }),
    }
}

fn parse_et(body: &Json) -> Result<u32, ApiError> {
    let et = u64_field(body, "et", 100)?;
    if et > MAX_ET {
        return Err(ApiError::bad_request(format!(
            "`et` too large (max {MAX_ET})"
        )));
    }
    Ok(et as u32)
}

fn scale_by_name(name: &str) -> Result<Scale, ApiError> {
    Scale::from_name(name).ok_or_else(|| ApiError::bad_request(format!("unknown scale `{name}`")))
}

fn workload_by_name(name: &str, scale: Scale) -> Result<Workload, ApiError> {
    dee_workloads::WorkloadRegistry::builtin()
        .build(name, scale)
        .ok_or_else(|| ApiError::bad_request(format!("unknown workload `{name}`")))
}

/// A fresh predictor for a request's `"predictor"` name, from the one
/// roster snapshots are cut with ([`dee_snap::PREDICTORS`]).
fn predictor_by_name(name: &str) -> Result<Box<dyn BranchPredictor>, ApiError> {
    let roster = dee_snap::PREDICTORS;
    if let Some((_, new)) = roster.iter().find(|(known, _)| *known == name) {
        return Ok(new());
    }
    let known: Vec<&str> = roster.iter().map(|(known, _)| *known).collect();
    Err(ApiError::bad_request(format!(
        "unknown predictor `{name}` (expected {})",
        known.join("|")
    )))
}

/// The program + input-memory source of a simulate/levo request.
struct Source {
    program: dee_isa::Program,
    memory: Vec<i32>,
    /// Stable identity for cache keys and response labels.
    label: String,
}

/// Resolves the program + memory a request simulates. This is the single
/// place program-shape validation happens on the request path: the
/// assembler rejects syntax (`400`), and `dee-analyze` rejects programs
/// that parse but are statically wrong (`422`, with the `DEE-E*` codes in
/// the response). The structural guards downstream — `Machine`'s memory
/// geometry and step budgets — stay where they are; everything about the
/// *program text* is decided here, once.
fn resolve_source(body: &Json, faults: &FaultPlan) -> Result<Source, ApiError> {
    // The fault site guards the whole gate, so hostile plans exercise the
    // 422 path even when the storm traffic is workload-only.
    if faults.trip(FaultSite::AnalyzeReject).is_some() {
        return Err(ApiError::unprocessable(
            "injected fault: analyze_reject",
            Vec::new(),
        ));
    }
    match (str_field(body, "workload"), str_field(body, "program")) {
        (Some(_), Some(_)) => Err(ApiError::bad_request(
            "give either `workload` or `program`, not both",
        )),
        (Some(name), None) => {
            let scale = scale_by_name(str_field(body, "scale").unwrap_or("tiny"))?;
            if body.get("memory").is_some() {
                return Err(ApiError::bad_request(
                    "`memory` only applies to uploaded programs",
                ));
            }
            // Shipped workloads are proven lint-clean by the bench gate
            // and `workloads_clean` tests; re-analyzing them per request
            // would only burn worker time.
            let workload = workload_by_name(name, scale)?;
            Ok(Source {
                label: format!("{name}/{scale:?}").to_ascii_lowercase(),
                memory: workload.initial_memory.clone(),
                program: workload.program,
            })
        }
        (None, Some(source_text)) => {
            let program = parse_program(source_text)
                .map_err(|e| ApiError::bad_request(format!("program: {e}")))?;
            let report = dee_analyze::analyze(&program);
            if report.has_errors() {
                let mut codes: Vec<String> = Vec::new();
                for d in report.diagnostics() {
                    let code = d.lint.code();
                    if d.lint.severity() == dee_analyze::Severity::Error
                        && !codes.iter().any(|c| c == code)
                    {
                        codes.push(code.to_string());
                    }
                }
                return Err(ApiError::unprocessable(
                    format!(
                        "program rejected by static analysis ({} error(s)): {}",
                        report.error_count(),
                        codes.join(", ")
                    ),
                    codes,
                ));
            }
            let memory = match body.get("memory") {
                None => Vec::new(),
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|v| {
                        v.as_f64()
                            .filter(|x| x.fract() == 0.0 && x.abs() <= f64::from(i32::MAX))
                            .map(|x| x as i32)
                            .ok_or_else(|| ApiError::bad_request("`memory` must hold integers"))
                    })
                    .collect::<Result<_, _>>()?,
                Some(_) => return Err(ApiError::bad_request("`memory` must be an array")),
            };
            let label = format!("program:{:016x}", fnv1a(source_text.as_bytes()));
            Ok(Source {
                program,
                memory,
                label,
            })
        }
        (None, None) => Err(ApiError::bad_request("missing `workload` or `program`")),
    }
}

/// The disk-tier artifact key for a request source. Workload labels are
/// `name/scale`; uploaded programs fall under the `program` pseudo
/// workload with their content hash as the scale tag. Either way the
/// digest covers the exact listing and memory image, so a label
/// collision can never replay the wrong trace.
fn artifact_key(source: &Source) -> ArtifactKey {
    let (workload, scale) = match source.label.split_once('/') {
        Some((workload, scale)) => (workload, scale),
        None => ("program", source.label.as_str()),
    };
    ArtifactKey::new(
        workload,
        scale,
        &source.program.to_listing(),
        &source.memory,
    )
}

/// Largest record count a stored artifact's header may pre-size the
/// prepared columns for; a hostile header can claim anything, and the
/// columns grow fine without it.
const STORED_RESERVE_CAP: usize = 1 << 20;

/// The disk tier's read side, shared by `/simulate` and
/// `/simulate_range`. Unless [`FaultSite::StoreRead`] trips, opens `key`'s
/// artifact and hands the reader to `read`. Counts a disk hit, with its
/// replay time, when `read` succeeds, and a miss otherwise. A body `read`
/// rejects — corruption [`Store::open_reader`]'s header check cannot see
/// — is quarantined; an absent artifact or a corrupt header (which
/// `open_reader` already quarantined) is a plain miss. `None` sends the
/// caller to [`capture_trace`].
fn read_stored<T>(
    store: &Store,
    key: &ArtifactKey,
    faults: &FaultPlan,
    read: impl FnOnce(&mut StoreReader) -> io::Result<T>,
) -> Option<T> {
    let stats = store.stats();
    if faults.trip(FaultSite::StoreRead).is_none() {
        let replay_start = Instant::now();
        if let Ok(Some(mut reader)) = store.open_reader(key) {
            match read(&mut reader) {
                Ok(value) => {
                    stats.disk_hits.fetch_add(1, Ordering::Relaxed);
                    stats
                        .replay_nanos
                        .fetch_add(replay_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    return Some(value);
                }
                Err(_) => {
                    store.quarantine_key(key);
                }
            }
        }
    }
    stats.misses.fetch_add(1, Ordering::Relaxed);
    None
}

/// Captures the raw trace on the VM, and is the disk tier's write side.
/// The capture runs the pre-decoded engine; a tripped
/// [`FaultSite::DecodeCompile`] degrades it to the reference interpreter.
/// Both engines produce byte-identical traces, so only the
/// `dee_faults_injected_total{site="decode_compile"}` counter reveals the
/// degradation. With a store, the capture is timed into
/// `dee_store_trace_nanos_total` and the trace published under `key`
/// best-effort: a tripped [`FaultSite::StoreWrite`] or a failed put only
/// counts a write error.
fn capture_trace(
    source: &Source,
    faults: &FaultPlan,
    tier: Option<(&Store, &ArtifactKey)>,
) -> Result<Trace, String> {
    let engine = if faults.trip(FaultSite::DecodeCompile).is_some() {
        Engine::Interp
    } else {
        Engine::Decoded
    };
    let capture_start = Instant::now();
    let trace = trace_program_with(engine, &source.program, &source.memory, STEP_LIMIT)
        .map_err(|e| format!("trace: {e}"))?;
    if let Some((store, key)) = tier {
        let stats = store.stats();
        stats
            .trace_nanos
            .fetch_add(capture_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if faults.trip(FaultSite::StoreWrite).is_some() || store.put(key, &trace).is_err() {
            stats.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    Ok(trace)
}

/// Prepares the trace for a prepared-cache miss, consulting the disk
/// tier first when a store is configured.
///
/// With an intact artifact on disk, the raw records stream from the
/// container into the builder one at a time — the full `Trace` is never
/// materialized — and the output stream, footer and end of file are read
/// after them, so a disk hit verifies the whole artifact. Store faults
/// degrade rather than fail (see [`read_stored`] and [`capture_trace`]):
/// the caller always gets a correct prepared trace, and only the
/// `dee_store_*` counters reveal what happened.
fn prepare_streamed(
    source: &Source,
    predictor_name: &str,
    faults: &FaultPlan,
    store: Option<&Store>,
) -> Result<PreparedTrace, String> {
    let new_predictor = || predictor_by_name(predictor_name).map_err(|e| e.message);
    let key = store.map(|_| artifact_key(source));
    let tier = store.zip(key.as_ref());
    if let Some((store, key)) = tier {
        let mut predictor = new_predictor()?;
        let stored = read_stored(store, key, faults, |reader| {
            let mut builder = PreparedTraceBuilder::new(&source.program, predictor.as_mut());
            let declared = usize::try_from(reader.record_count()).unwrap_or(usize::MAX);
            builder.reserve(declared.min(STORED_RESERVE_CAP));
            while let Some(record) = reader.next_record()? {
                builder.push_record(&record);
            }
            let output = reader.read_output()?;
            reader.finish()?;
            Ok(builder.finish(output))
        });
        if let Some(prepared) = stored {
            return Ok(prepared);
        }
    }
    let trace = capture_trace(source, faults, tier)?;
    // A fresh predictor: a rejected artifact may have fed the first one.
    Ok(PreparedTrace::with_predictor(
        &source.program,
        &trace,
        new_predictor()?.as_mut(),
    ))
}

/// Fetches (or prepares and caches) the prepared trace for a request.
///
/// On a prepared-cache miss with a store configured, the raw trace is
/// replayed from the disk tier when an intact artifact exists (and
/// recorded to it otherwise); the predictor replay still runs either
/// way. The returned `hit` flag — and therefore the response's `cache`
/// field — reports the *prepared* cache only: disk-tier activity is
/// visible exclusively through the `dee_store_*` metrics, so responses
/// stay byte-identical with and without a store.
///
/// # Errors
///
/// `400` for unknown workloads/predictors/unparseable programs, `500`
/// when the program faults or overruns its step budget.
pub fn prepared_for(
    cache: &PreparedCache,
    body: &Json,
    faults: &FaultPlan,
    store: Option<&Store>,
) -> Result<(Arc<PreparedEntry>, bool, String), ApiError> {
    let source = resolve_source(body, faults)?;
    let predictor_name = str_field(body, "predictor").unwrap_or("twobit");
    // Validate the predictor name before the (expensive) miss path.
    predictor_by_name(predictor_name)?;
    if faults.trip(FaultSite::CacheLookup).is_some() {
        return Err(ApiError::internal("injected fault: cache_lookup"));
    }
    let key = CacheKey {
        program: fnv1a(source.program.to_listing().as_bytes()),
        memory: fnv1a_words(&source.memory),
        predictor: fnv1a(predictor_name.as_bytes()),
    };
    let label = source.label.clone();
    let (entry, hit) = cache
        .get_or_insert_with(key, move || {
            if faults.trip(FaultSite::TracePrepare).is_some() {
                return Err("injected fault: trace_prepare".to_string());
            }
            let prepared = prepare_streamed(&source, predictor_name, faults, store)?;
            if faults.trip(FaultSite::CacheInsert).is_some() {
                return Err("injected fault: cache_insert".to_string());
            }
            Ok(PreparedEntry {
                program: source.program,
                prepared,
            })
        })
        .map_err(ApiError::internal)?;
    Ok((entry, hit, label))
}

fn parse_latency(body: &Json) -> Result<LatencyModel, ApiError> {
    match str_field(body, "latency") {
        None | Some("unit") => Ok(LatencyModel::UNIT),
        Some("classic") => Ok(LatencyModel::CLASSIC),
        Some(other) => Err(ApiError::bad_request(format!(
            "unknown latency model `{other}`"
        ))),
    }
}

/// Renders one simulation outcome — the payload tests byte-compare.
#[must_use]
pub fn outcome_json(outcome: &SimOutcome) -> Json {
    Json::obj(vec![
        ("model", Json::str(outcome.model.name())),
        ("et", Json::from(outcome.et)),
        ("instructions", Json::from(outcome.instructions)),
        ("cycles", Json::from(outcome.cycles)),
        ("speedup", Json::from(outcome.speedup())),
        ("ipc", Json::from(outcome.ipc())),
        ("branches", Json::from(outcome.branches)),
        ("mispredicts", Json::from(outcome.mispredicts)),
    ])
}

/// `POST /simulate` — run ILP limit models over a prepared trace.
///
/// # Errors
///
/// See [`prepared_for`]; additionally `400` for unknown models and `504`
/// when the deadline passes between models.
pub fn handle_simulate(
    cache: &PreparedCache,
    body: &Json,
    deadline: Instant,
    faults: &FaultPlan,
    store: Option<&Store>,
) -> Result<(Json, bool), ApiError> {
    let (entry, hit, label) = prepared_for(cache, body, faults, store)?;
    let et = parse_et(body)?;
    let models: Vec<Model> = match str_field(body, "model") {
        None | Some("all") => Model::all().to_vec(),
        Some(name) => vec![Model::from_name(name)
            .ok_or_else(|| ApiError::bad_request(format!("unknown model `{name}`")))?],
    };
    if et == 0 && models.iter().any(|m| *m != Model::Oracle) {
        return Err(ApiError::bad_request(
            "`et` must be at least 1 for constrained models",
        ));
    }
    let p = match body.get("p") {
        None => entry.prepared.accuracy(),
        Some(v) => v
            .as_f64()
            .filter(|p| (0.0..=1.0).contains(p))
            .ok_or_else(|| ApiError::bad_request("`p` must be in [0, 1]"))?,
    };
    let latency = parse_latency(body)?;
    let max_pe = u64_field(body, "max_pe", 0)?;

    let mut results = Vec::with_capacity(models.len());
    for model in models {
        if Instant::now() > deadline {
            return Err(ApiError::deadline());
        }
        let mut config = SimConfig::new(model, if model == Model::Oracle { 0 } else { et })
            .with_p(p)
            .with_latency(latency);
        if max_pe > 0 {
            config = config.with_max_pe(
                u32::try_from(max_pe).map_err(|_| ApiError::bad_request("`max_pe` too large"))?,
            );
        }
        results.push(outcome_json(&simulate(&entry.prepared, &config)));
    }
    let response = Json::obj(vec![
        ("source", Json::str(label)),
        ("cache", Json::str(if hit { "hit" } else { "miss" })),
        ("p", Json::from(p)),
        ("results", Json::Arr(results)),
    ]);
    Ok((response, hit))
}

/// One cell of a `POST /batch` grid: a fully resolved (workload, model,
/// `E_T`) point plus the request-wide options it inherits. Every axis
/// value is validated by [`parse_batch`] before any cell runs, so cells
/// can be handed to the worker pool without re-checking names; the
/// deterministic response order is the order [`parse_batch`] emits.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchCell {
    /// Workload name (known-good by construction).
    pub workload: String,
    /// Scale name shared by every cell.
    pub scale: String,
    /// The ILP model to run.
    pub model: Model,
    /// Branch-path resources; forced to 0 for `Oracle`.
    pub et: u32,
    /// Fixed prediction accuracy; `None` uses the trace's measured one.
    pub p: Option<f64>,
    /// Predictor for trace preparation; `None` means the default.
    pub predictor: Option<String>,
    /// Latency model shared by every cell.
    pub latency: LatencyModel,
    /// PE cap shared by every cell; 0 leaves PEs implicitly limited.
    pub max_pe: u32,
}

/// Parses a `POST /batch` body into its grid of cells, in deterministic
/// grid order: workloads (outer) × models × ets (inner).
///
/// `workloads` is required; `models` defaults to all eight, `ets` to
/// `[100]`. `scale`, `p`, `predictor`, `latency`, and `max_pe` apply to
/// every cell. Validation is all-upfront: a typo anywhere fails the whole
/// request with `400` before a single cell is fanned out.
///
/// # Errors
///
/// `400` for missing/invalid axes or options.
pub fn parse_batch(body: &Json) -> Result<Vec<BatchCell>, ApiError> {
    // Upfront name validation must not build the workload — that is the
    // cell's job — so only the registry's name table is consulted here.
    let registry = dee_workloads::WorkloadRegistry::builtin();
    let workloads: Vec<String> = match body.get("workloads") {
        None => return Err(ApiError::bad_request("missing `workloads` array")),
        Some(Json::Arr(items)) if !items.is_empty() => items
            .iter()
            .map(|v| {
                let name = v
                    .as_str()
                    .ok_or_else(|| ApiError::bad_request("`workloads` must hold strings"))?;
                if !registry.contains(name) {
                    return Err(ApiError::bad_request(format!("unknown workload `{name}`")));
                }
                Ok(name.to_string())
            })
            .collect::<Result<_, _>>()?,
        Some(_) => {
            return Err(ApiError::bad_request(
                "`workloads` must be a non-empty array",
            ))
        }
    };
    let scale_name = str_field(body, "scale").unwrap_or("tiny").to_string();
    scale_by_name(&scale_name)?;
    let models: Vec<Model> = match body.get("models") {
        None => Model::all().to_vec(),
        Some(Json::Arr(items)) if !items.is_empty() => items
            .iter()
            .map(|v| {
                v.as_str()
                    .and_then(Model::from_name)
                    .ok_or_else(|| ApiError::bad_request(format!("unknown model in `models`: {v}")))
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err(ApiError::bad_request("`models` must be a non-empty array")),
    };
    let ets: Vec<u32> = match body.get("ets") {
        None => vec![100],
        Some(Json::Arr(items)) if !items.is_empty() => items
            .iter()
            .map(|v| {
                let et = v.as_u64().ok_or_else(|| {
                    ApiError::bad_request("`ets` must hold non-negative integers")
                })?;
                if et > MAX_ET {
                    return Err(ApiError::bad_request(format!(
                        "`et` too large (max {MAX_ET})"
                    )));
                }
                Ok(et as u32)
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err(ApiError::bad_request("`ets` must be a non-empty array")),
    };
    if ets.contains(&0) && models.iter().any(|m| *m != Model::Oracle) {
        return Err(ApiError::bad_request(
            "`et` must be at least 1 for constrained models",
        ));
    }
    let p = match body.get("p") {
        None => None,
        Some(v) => Some(
            v.as_f64()
                .filter(|p| (0.0..=1.0).contains(p))
                .ok_or_else(|| ApiError::bad_request("`p` must be in [0, 1]"))?,
        ),
    };
    let predictor = match str_field(body, "predictor") {
        None => None,
        Some(name) => {
            predictor_by_name(name)?;
            Some(name.to_string())
        }
    };
    let latency = parse_latency(body)?;
    let max_pe = u32::try_from(u64_field(body, "max_pe", 0)?)
        .map_err(|_| ApiError::bad_request("`max_pe` too large"))?;
    let mut cells = Vec::with_capacity(workloads.len() * models.len() * ets.len());
    for workload in &workloads {
        for &model in &models {
            for &et in &ets {
                cells.push(BatchCell {
                    workload: workload.clone(),
                    scale: scale_name.clone(),
                    model,
                    et,
                    p,
                    predictor: predictor.clone(),
                    latency,
                    max_pe,
                });
            }
        }
    }
    Ok(cells)
}

fn batch_cell_identity(cell: &BatchCell) -> Vec<(&'static str, Json)> {
    vec![
        ("workload", Json::str(cell.workload.clone())),
        ("model", Json::str(cell.model.name())),
        ("et", Json::from(cell.et)),
    ]
}

/// The body for a cell that failed outside [`run_batch_cell`] — the
/// server uses it for panics caught at the cell boundary.
#[must_use]
pub fn batch_cell_error(cell: &BatchCell, message: &str) -> Json {
    let mut members = batch_cell_identity(cell);
    members.push(("error", Json::str(message.to_string())));
    Json::obj(members)
}

/// Runs one batch cell against the shared prepared-trace cache.
///
/// Returns the cell's JSON — its identity plus either `result` (one
/// [`outcome_json`] payload) or `error` — and whether trace preparation
/// hit the cache (`None` when the cell failed before the cache answered).
/// A failure here never fails the batch: it becomes that cell's `error`
/// member, exactly like a panic caught at the boundary above.
#[must_use]
pub fn run_batch_cell(
    cache: &PreparedCache,
    cell: &BatchCell,
    deadline: Instant,
    faults: &FaultPlan,
    store: Option<&Store>,
) -> (Json, Option<bool>) {
    let mut source = vec![
        ("workload", Json::str(cell.workload.clone())),
        ("scale", Json::str(cell.scale.clone())),
    ];
    if let Some(predictor) = &cell.predictor {
        source.push(("predictor", Json::str(predictor.clone())));
    }
    let source = Json::obj(source);
    let mut hit = None;
    let outcome = (|| {
        let (entry, was_hit, _label) = prepared_for(cache, &source, faults, store)?;
        hit = Some(was_hit);
        if Instant::now() > deadline {
            return Err(ApiError::deadline());
        }
        let p = cell.p.unwrap_or_else(|| entry.prepared.accuracy());
        let et = if cell.model == Model::Oracle {
            0
        } else {
            cell.et
        };
        let mut config = SimConfig::new(cell.model, et)
            .with_p(p)
            .with_latency(cell.latency);
        if cell.max_pe > 0 {
            config = config.with_max_pe(cell.max_pe);
        }
        Ok(outcome_json(&simulate(&entry.prepared, &config)))
    })();
    let mut members = batch_cell_identity(cell);
    if let Some(h) = hit {
        members.push(("cache", Json::str(if h { "hit" } else { "miss" })));
    }
    match outcome {
        Ok(result) => members.push(("result", result)),
        Err(e) => members.push(("error", Json::str(e.message))),
    }
    (Json::obj(members), hit)
}

/// Renders a static tree — the payload tests byte-compare.
#[must_use]
pub fn tree_json(tree: &StaticTree) -> Json {
    Json::obj(vec![
        ("p", Json::from(tree.p())),
        ("et", Json::from(tree.et())),
        ("mainline_len", Json::from(tree.mainline_len())),
        ("h_dee", Json::from(tree.h_dee())),
        ("dee_region_paths", Json::from(tree.dee_region_paths())),
        ("total_paths", Json::from(tree.total_paths())),
        ("is_single_path", Json::from(tree.is_single_path())),
    ])
}

/// `POST /analyze` — the static speculation plan for a workload or an
/// uploaded program, computed without executing anything.
///
/// The same source gate as `/simulate` applies: uploads that fail static
/// analysis are refused `422` with their `DEE-E*` codes; syntax errors
/// are `400`. The response carries the planner's per-branch
/// taken-probabilities and frequencies, the speculation-class census, the
/// plan's expected accuracy, and the size of the `DEEPLAN1` artifact the
/// same plan serializes to (`dee analyze plan -o` writes those bytes).
pub fn handle_analyze(body: &Json, faults: &FaultPlan) -> Result<Json, ApiError> {
    let source = resolve_source(body, faults)?;
    let plan = dee_analyze::SpeculationPlan::build(&source.program);
    let (eager, mem_spec, unsafe_count) = plan.class_counts();
    let branches: Vec<Json> = plan
        .branches
        .iter()
        .map(|b| {
            Json::obj(vec![
                ("pc", Json::from(b.pc)),
                ("taken_prob", Json::from(b.taken_prob)),
                ("freq", Json::from(b.freq)),
            ])
        })
        .collect();
    Ok(Json::obj(vec![
        ("source", Json::str(source.label.clone())),
        ("program_len", Json::from(plan.program_len)),
        // Hex string: the digest is a full 64-bit value, which JSON
        // numbers cannot carry exactly.
        (
            "program_digest",
            Json::str(format!("{:#018x}", plan.program_digest)),
        ),
        ("expected_accuracy", Json::from(plan.expected_accuracy)),
        ("num_branches", Json::from(plan.branches.len() as u64)),
        (
            "classes",
            Json::obj(vec![
                ("safely_eager", Json::from(eager as u64)),
                ("memory_speculative", Json::from(mem_spec as u64)),
                ("unsafe", Json::from(unsafe_count as u64)),
            ]),
        ),
        ("branches", Json::Arr(branches)),
        ("plan_bytes", Json::from(plan.to_bytes().len() as u64)),
    ]))
}

/// `POST /tree` — static DEE tree queries.
///
/// # Errors
///
/// `400` for out-of-range parameters.
pub fn handle_tree(body: &Json) -> Result<Json, ApiError> {
    let p = match body.get("p") {
        None => 0.9053,
        Some(v) => v
            .as_f64()
            // The static tree's recurrences require p in [0.5, 1);
            // `StaticTree::build` asserts it, so anything outside must be
            // refused here rather than panic a worker.
            .filter(|p| (0.5..1.0).contains(p))
            .ok_or_else(|| ApiError::bad_request("`p` must be in [0.5, 1)"))?,
    };
    let et = parse_et(body)?;
    if et == 0 {
        return Err(ApiError::bad_request("`et` must be at least 1"));
    }
    Ok(tree_json(&StaticTree::build(TreeParams { p, et })))
}

/// Renders a Levo report — the payload tests byte-compare.
#[must_use]
pub fn levo_json(report: &LevoReport) -> Json {
    Json::obj(vec![
        ("cycles", Json::from(report.cycles)),
        ("retired", Json::from(report.retired)),
        ("ipc", Json::from(report.ipc())),
        ("dispatched", Json::from(report.dispatched)),
        ("squashed", Json::from(report.squashed)),
        ("mispredicts", Json::from(report.mispredicts)),
        ("dee_covered", Json::from(report.dee_covered)),
        ("output_len", Json::from(report.output.len() as u64)),
        // Hex string: the checksum is a full 64-bit value, which JSON
        // numbers (f64) cannot carry exactly.
        (
            "output_checksum",
            Json::str(format!("{:016x}", dee_vm::output_checksum(&report.output))),
        ),
    ])
}

/// `POST /levo` — run the Levo machine model.
///
/// # Errors
///
/// `400` for bad configs or sources, `422` when static analysis rejects
/// an uploaded program, `500` when the machine faults, `504` past the
/// deadline.
pub fn handle_levo(body: &Json, deadline: Instant, faults: &FaultPlan) -> Result<Json, ApiError> {
    let source = resolve_source(body, faults)?;
    let mut config = LevoConfig::default();
    if let Some(paths) = body.get("dee_paths") {
        config.dee_paths = paths
            .as_u64()
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| ApiError::bad_request("`dee_paths` must be a non-negative integer"))?;
    }
    if let Some(cols) = body.get("dee_cols") {
        config.dee_cols = cols
            .as_u64()
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| ApiError::bad_request("`dee_cols` must be a non-negative integer"))?;
    }
    if let Some(n) = body.get("n") {
        config.n = n
            .as_u64()
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| ApiError::bad_request("`n` must be a non-negative integer"))?;
    }
    if let Some(m) = body.get("m") {
        config.m = m
            .as_u64()
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| ApiError::bad_request("`m` must be a non-negative integer"))?;
    }
    match str_field(body, "predictor") {
        None | Some("twobit") => config.predictor = PredictorKind::TwoBit,
        Some("pap") => config.predictor = PredictorKind::PapSpeculative,
        Some(other) => {
            return Err(ApiError::bad_request(format!(
                "unknown levo predictor `{other}` (expected twobit|pap)"
            )))
        }
    }
    config.validate().map_err(ApiError::bad_request)?;
    if Instant::now() > deadline {
        return Err(ApiError::deadline());
    }
    let report = Levo::new(config)
        .run(&source.program, &source.memory)
        .map_err(|e| ApiError::internal(e.to_string()))?;
    let mut json = levo_json(&report);
    if let Json::Obj(members) = &mut json {
        members.insert(0, ("source".to_string(), Json::str(source.label)));
    }
    Ok(json)
}

/// Builds a prepared trace over records `[start, end)` in one pass over
/// `records`.
///
/// Records `[0, skip)` are discarded unseen — a restored snapshot
/// already accounts for them (its predictor blobs carry exactly that
/// prefix's history). Records `[skip, start)` replay through the
/// predictor without entering the build, warming it to the range
/// start with the exact `predict` + `resolve` sequence
/// [`PreparedTraceBuilder::push_record`] would have issued. Records
/// from `start` up to `end` (or trace end) are packed; nothing past
/// `end` is read.
///
/// Returns the prepared subtrace, the number of records packed, and
/// the nanoseconds spent warming the predictor ahead of `start`.
fn prepare_range<E>(
    program: &dee_isa::Program,
    mut records: impl Iterator<Item = Result<TraceRecord, E>>,
    skip: u64,
    start: u64,
    end: Option<u64>,
    predictor: &mut dyn BranchPredictor,
) -> Result<(PreparedTrace, u64, u64), E> {
    let count = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
    for record in records.by_ref().take(count(skip)) {
        record?;
    }
    let warm_start = Instant::now();
    for record in records.by_ref().take(count(start.saturating_sub(skip))) {
        let record = record?;
        if let Some(outcome) = record.branch {
            let _ = predictor.predict(record.pc);
            predictor.resolve(record.pc, outcome.taken);
        }
    }
    let warm_nanos = warm_start.elapsed().as_nanos() as u64;
    let mut builder = PreparedTraceBuilder::new(program, predictor);
    for record in records.take(end.map_or(usize::MAX, |e| count(e - start))) {
        builder.push_record(&record?);
    }
    let taken = builder.pushed() as u64;
    // The sub-trace's output stream is not meaningful (output is a
    // whole-run artifact); the models never read it.
    Ok((builder.finish(Vec::new()), taken, warm_nanos))
}

/// `POST /simulate_range` — run the ILP limit models over records
/// `[start, end)` of a source's trace.
///
/// When a store is configured, the handler seeks the published
/// snapshot with the largest record index `≤ start` and warm-starts
/// the predictor from its serialized state instead of replaying the
/// whole prefix. The response is **byte-identical** with and without a
/// snapshot (and under any [`FaultSite::SnapSeek`] /
/// [`FaultSite::SnapRead`] injection): warm starts are visible only in
/// the `dee_snap_*` counters. Range results are not entered into the
/// prepared cache — each request streams its own subrange.
///
/// # Errors
///
/// `400` for bad sources, an empty/inverted range, or a `start` past
/// the end of the trace; `422` from static analysis; `500` when the
/// program faults; `504` past the deadline.
pub fn handle_simulate_range(
    body: &Json,
    deadline: Instant,
    faults: &FaultPlan,
    store: Option<&Store>,
    metrics: &Metrics,
) -> Result<Json, ApiError> {
    let source = resolve_source(body, faults)?;
    let start = u64_field(body, "start", 0)?;
    let end = match body.get("end") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| ApiError::bad_request("`end` must be a non-negative integer"))?,
        ),
    };
    if let Some(e) = end {
        if e <= start {
            return Err(ApiError::bad_request("`end` must be greater than `start`"));
        }
    }
    let predictor_name = str_field(body, "predictor").unwrap_or("twobit");
    predictor_by_name(predictor_name)?;
    let et = parse_et(body)?;
    let models: Vec<Model> = match str_field(body, "model") {
        None | Some("all") => Model::all().to_vec(),
        Some(name) => vec![Model::from_name(name)
            .ok_or_else(|| ApiError::bad_request(format!("unknown model `{name}`")))?],
    };
    if et == 0 && models.iter().any(|m| *m != Model::Oracle) {
        return Err(ApiError::bad_request(
            "`et` must be at least 1 for constrained models",
        ));
    }
    let latency = parse_latency(body)?;
    let max_pe = u64_field(body, "max_pe", 0)?;
    if faults.trip(FaultSite::TracePrepare).is_some() {
        return Err(ApiError::internal("injected fault: trace_prepare"));
    }

    let key = artifact_key(&source);
    // Warm-start attempt. A usable snapshot only ever changes *where*
    // the predictor replay starts, never what the packed region looks
    // like — the DEESNAP1 convention (state at `k` = predictor has
    // consumed exactly records `[0, k)`) guarantees the mispredict
    // flags come out identical to a from-zero replay.
    let snap: Option<Snapshot> = store.and_then(|store| {
        let found = if faults.trip(FaultSite::SnapSeek).is_some() {
            None
        } else {
            dee_snap::nearest_snapshot(store, &key, start)
        };
        let (_, bytes) = match found {
            Some(hit) => hit,
            None => {
                metrics.snap_seek_misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let decoded = if faults.trip(FaultSite::SnapRead).is_some() {
            Err("injected fault: snap_read".to_string())
        } else {
            Snapshot::decode(&bytes, &source.memory).and_then(|snap| {
                if snap.parent_digest != key.digest {
                    return Err("snapshot parent digest mismatch".to_string());
                }
                // Prove the predictor blob restores before committing to
                // the warm start; a missing blob restores only stateless
                // predictors (load_state(&[]) is their no-op default).
                let mut probe = predictor_by_name(predictor_name).map_err(|e| e.message)?;
                probe.load_state(snap.predictor_state(probe.name()).unwrap_or(&[]))?;
                Ok(snap)
            })
        };
        match decoded {
            Ok(snap) => {
                metrics.snap_seek_hits.fetch_add(1, Ordering::Relaxed);
                Some(snap)
            }
            Err(_) => {
                metrics.snap_decode_failures.fetch_add(1, Ordering::Relaxed);
                metrics.snap_seek_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    });
    let skip = snap.as_ref().map_or(0, |s| s.record_index);
    let make_predictor = || -> Result<Box<dyn BranchPredictor>, ApiError> {
        let mut p = predictor_by_name(predictor_name).map_err(|e| ApiError::internal(e.message))?;
        if let Some(s) = &snap {
            p.load_state(s.predictor_state(p.name()).unwrap_or(&[]))
                .map_err(ApiError::internal)?;
        }
        Ok(p)
    };

    // The record stream: replayed from the disk artifact when intact,
    // captured on the VM otherwise (and best-effort published so the
    // next range request can stream it).
    let tier = store.map(|store| (store, &key));
    let mut built = None;
    if let Some((store, key)) = tier {
        let mut predictor = make_predictor()?;
        built = read_stored(store, key, faults, |reader| {
            let records = std::iter::from_fn(|| reader.next_record().transpose());
            prepare_range(
                &source.program,
                records,
                skip,
                start,
                end,
                predictor.as_mut(),
            )
        });
    }
    let (prepared, taken, warm_nanos) = match built {
        Some(done) => done,
        None => {
            let trace = capture_trace(&source, faults, tier).map_err(ApiError::internal)?;
            let records = trace.records().iter().map(|&r| Ok::<_, Infallible>(r));
            let Ok(done) = prepare_range(
                &source.program,
                records,
                skip,
                start,
                end,
                make_predictor()?.as_mut(),
            );
            done
        }
    };
    metrics
        .snap_replay_nanos
        .fetch_add(warm_nanos, Ordering::Relaxed);
    if taken == 0 {
        return Err(ApiError::bad_request(format!(
            "`start` ({start}) is at or past the end of the trace"
        )));
    }

    let p = match body.get("p") {
        None => prepared.accuracy(),
        Some(v) => v
            .as_f64()
            .filter(|p| (0.0..=1.0).contains(p))
            .ok_or_else(|| ApiError::bad_request("`p` must be in [0, 1]"))?,
    };
    let mut results = Vec::with_capacity(models.len());
    for model in models {
        if Instant::now() > deadline {
            return Err(ApiError::deadline());
        }
        let mut config = SimConfig::new(model, if model == Model::Oracle { 0 } else { et })
            .with_p(p)
            .with_latency(latency);
        if max_pe > 0 {
            config = config.with_max_pe(
                u32::try_from(max_pe).map_err(|_| ApiError::bad_request("`max_pe` too large"))?,
            );
        }
        results.push(outcome_json(&simulate(&prepared, &config)));
    }
    Ok(Json::obj(vec![
        ("source", Json::str(source.label)),
        ("start", Json::from(start)),
        ("end", Json::from(start + taken)),
        ("records", Json::from(taken)),
        ("p", Json::from(p)),
        ("results", Json::Arr(results)),
    ]))
}

/// `GET /debug/at?workload=W&scale=S&record=K` — time travel: the
/// machine's architectural state right before executing record `K`.
///
/// Restores the nearest published snapshot at or below `K` when a
/// store is configured and steps the VM the remaining distance, so the
/// answer is byte-identical with and without snapshots — only the
/// `dee_snap_*` counters reveal which path ran. The response carries
/// checksums of the output and memory images, never the images
/// themselves.
///
/// # Errors
///
/// `400` for unknown workloads/scales, a missing or non-numeric
/// `record`, or a `K` past the end of the trace; `500` when the VM
/// faults; `504` past the deadline.
pub fn handle_debug_at(
    request: &crate::http::Request,
    deadline: Instant,
    faults: &FaultPlan,
    store: Option<&Store>,
    metrics: &Metrics,
) -> Result<Json, ApiError> {
    let workload = request
        .query_param("workload")
        .ok_or_else(|| ApiError::bad_request("missing `workload` query parameter"))?;
    let scale = scale_by_name(request.query_param("scale").unwrap_or("tiny"))?;
    let record: u64 = request
        .query_param("record")
        .ok_or_else(|| ApiError::bad_request("missing `record` query parameter"))?
        .parse()
        .map_err(|_| ApiError::bad_request("`record` must be a non-negative integer"))?;
    if record > STEP_LIMIT {
        return Err(ApiError::bad_request(format!(
            "`record` too large (max {STEP_LIMIT})"
        )));
    }
    let w = workload_by_name(workload, scale)?;
    let source = Source {
        label: format!("{workload}/{scale:?}").to_ascii_lowercase(),
        memory: w.initial_memory.clone(),
        program: w.program,
    };
    let key = artifact_key(&source);
    let mut machine = Machine::new();
    machine
        .try_load_memory(&source.memory)
        .map_err(|e| ApiError::internal(e.to_string()))?;
    if let Some(store) = store {
        let found = if faults.trip(FaultSite::SnapSeek).is_some() {
            None
        } else {
            dee_snap::nearest_snapshot(store, &key, record)
        };
        match found {
            Some((_, bytes)) => {
                let decoded = if faults.trip(FaultSite::SnapRead).is_some() {
                    Err("injected fault: snap_read".to_string())
                } else {
                    Snapshot::decode(&bytes, &source.memory).and_then(|snap| {
                        if snap.parent_digest != key.digest {
                            return Err("snapshot parent digest mismatch".to_string());
                        }
                        Ok(snap)
                    })
                };
                match decoded {
                    Ok(snap) => {
                        machine.restore_state(&snap.machine);
                        metrics.snap_seek_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        metrics.snap_decode_failures.fetch_add(1, Ordering::Relaxed);
                        metrics.snap_seek_misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            None => {
                metrics.snap_seek_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let replay_start = Instant::now();
    let mut since_deadline_check = 0u32;
    while machine.executed() < record {
        if machine.is_halted() {
            return Err(ApiError::bad_request(format!(
                "`record` {record} is past the end of the trace ({} records)",
                machine.executed()
            )));
        }
        // Polling the clock per instruction would dominate the replay;
        // once per 64 Ki steps bounds the overshoot to well under a
        // millisecond of VM work.
        since_deadline_check += 1;
        if since_deadline_check == 65_536 {
            since_deadline_check = 0;
            if Instant::now() > deadline {
                return Err(ApiError::deadline());
            }
        }
        machine
            .step(&source.program)
            .map_err(|e| ApiError::internal(e.to_string()))?;
    }
    metrics
        .snap_replay_nanos
        .fetch_add(replay_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    let state = machine.snapshot_state();
    Ok(Json::obj(vec![
        ("source", Json::str(source.label)),
        ("record", Json::from(record)),
        ("pc", Json::from(state.pc)),
        ("halted", Json::from(state.halted)),
        ("depth", Json::from(state.depth)),
        ("executed", Json::from(state.executed)),
        (
            "regs",
            Json::Arr(
                state
                    .regs
                    .iter()
                    .map(|&r| Json::from(f64::from(r)))
                    .collect(),
            ),
        ),
        ("output_len", Json::from(state.output.len() as u64)),
        (
            "output_checksum",
            Json::str(format!("{:016x}", dee_vm::output_checksum(&state.output))),
        ),
        ("mem_words", Json::from(state.mem.len() as u64)),
        (
            "mem_checksum",
            Json::str(format!("{:016x}", fnv1a_words(&state.mem))),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn far_deadline() -> Instant {
        Instant::now() + std::time::Duration::from_secs(60)
    }

    #[test]
    fn simulate_workload_miss_then_hit() {
        let cache = PreparedCache::new(8, 2);
        let body = parse(r#"{"workload":"xlisp","scale":"tiny","model":"SP","et":16}"#).unwrap();
        let (response, hit) =
            handle_simulate(&cache, &body, far_deadline(), &FaultPlan::inert(), None).unwrap();
        assert!(!hit);
        assert_eq!(response.get("cache").and_then(Json::as_str), Some("miss"));
        let results = response.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].get("model").and_then(Json::as_str), Some("SP"));
        assert!(results[0].get("cycles").and_then(Json::as_u64).unwrap() > 0);
        let (response, hit) =
            handle_simulate(&cache, &body, far_deadline(), &FaultPlan::inert(), None).unwrap();
        assert!(hit);
        assert_eq!(response.get("cache").and_then(Json::as_str), Some("hit"));
    }

    #[test]
    fn simulate_matches_direct_call_exactly() {
        let cache = PreparedCache::new(8, 2);
        let body =
            parse(r#"{"workload":"compress","scale":"tiny","model":"DEE-CD-MF","et":32}"#).unwrap();
        let (response, _) =
            handle_simulate(&cache, &body, far_deadline(), &FaultPlan::inert(), None).unwrap();

        let w = dee_workloads::compress::build(Scale::Tiny);
        let trace = w.capture_trace().unwrap();
        let prepared = PreparedTrace::new(&w.program, &trace);
        let expected = simulate(
            &prepared,
            &SimConfig::new(Model::DeeCdMf, 32).with_p(prepared.accuracy()),
        );
        let got = &response.get("results").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(got.to_string(), outcome_json(&expected).to_string());
    }

    #[test]
    fn simulate_uploaded_program_with_memory() {
        let cache = PreparedCache::new(8, 2);
        let body =
            parse(r#"{"program":"lw r1, 0(zero)\nout r1\nhalt\n","memory":[42],"model":"oracle"}"#)
                .unwrap();
        let (response, _) =
            handle_simulate(&cache, &body, far_deadline(), &FaultPlan::inert(), None).unwrap();
        let results = response.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(
            results[0].get("model").and_then(Json::as_str),
            Some("Oracle")
        );
    }

    #[test]
    fn simulate_distinguishes_memory_and_predictor_in_cache_key() {
        let cache = PreparedCache::new(8, 2);
        let a = parse(
            r#"{"program":"lw r1, 0(zero)\nout r1\nhalt\n","memory":[1],"model":"SP","et":4}"#,
        )
        .unwrap();
        let b = parse(
            r#"{"program":"lw r1, 0(zero)\nout r1\nhalt\n","memory":[2],"model":"SP","et":4}"#,
        )
        .unwrap();
        let c = parse(r#"{"program":"lw r1, 0(zero)\nout r1\nhalt\n","memory":[1],"model":"SP","et":4,"predictor":"gshare"}"#).unwrap();
        assert!(
            !handle_simulate(&cache, &a, far_deadline(), &FaultPlan::inert(), None)
                .unwrap()
                .1
        );
        assert!(
            !handle_simulate(&cache, &b, far_deadline(), &FaultPlan::inert(), None)
                .unwrap()
                .1
        );
        assert!(
            !handle_simulate(&cache, &c, far_deadline(), &FaultPlan::inert(), None)
                .unwrap()
                .1
        );
        assert!(
            handle_simulate(&cache, &a, far_deadline(), &FaultPlan::inert(), None)
                .unwrap()
                .1
        );
    }

    #[test]
    fn simulate_rejects_bad_inputs() {
        let cache = PreparedCache::new(8, 2);
        for (body, needle) in [
            (r#"{}"#, "missing"),
            (r#"{"workload":"nope"}"#, "unknown workload"),
            (r#"{"workload":"xlisp","scale":"huge"}"#, "unknown scale"),
            (r#"{"workload":"xlisp","model":"warp"}"#, "unknown model"),
            (
                r#"{"workload":"xlisp","predictor":"psychic"}"#,
                "unknown predictor `psychic` (expected twobit|gshare|pap|taken)",
            ),
            (r#"{"workload":"xlisp","memory":[1]}"#, "only applies"),
            (r#"{"workload":"xlisp","program":"halt\n"}"#, "not both"),
            (r#"{"workload":"xlisp","et":0}"#, "at least 1"),
            (r#"{"program":"not an opcode\n"}"#, "program:"),
        ] {
            let err = handle_simulate(
                &cache,
                &parse(body).unwrap(),
                far_deadline(),
                &FaultPlan::inert(),
                None,
            )
            .unwrap_err();
            assert_eq!(err.status, 400, "{body}");
            assert!(err.message.contains(needle), "{body}: {}", err.message);
        }
    }

    #[test]
    fn simulate_past_deadline_times_out() {
        let cache = PreparedCache::new(8, 2);
        let body = parse(r#"{"workload":"xlisp","scale":"tiny"}"#).unwrap();
        let err = handle_simulate(
            &cache,
            &body,
            Instant::now() - std::time::Duration::from_secs(1),
            &FaultPlan::inert(),
            None,
        )
        .unwrap_err();
        assert_eq!(err.status, 504);
    }

    #[test]
    fn tree_matches_direct_build() {
        let body = parse(r#"{"p":0.9053,"et":100}"#).unwrap();
        let response = handle_tree(&body).unwrap();
        let expected = tree_json(&StaticTree::build(TreeParams { p: 0.9053, et: 100 }));
        assert_eq!(response.to_string(), expected.to_string());
        assert_eq!(
            response.get("mainline_len").and_then(Json::as_u64),
            Some(34)
        );
    }

    #[test]
    fn tree_rejects_bad_params() {
        assert!(handle_tree(&parse(r#"{"p":1.5}"#).unwrap()).is_err());
        assert!(handle_tree(&parse(r#"{"et":0}"#).unwrap()).is_err());
    }

    #[test]
    fn tree_rejects_p_below_half_instead_of_panicking() {
        // StaticTree::build asserts p in [0.5, 1); the handler must turn
        // that precondition into a 400, never reach the assert.
        for body in [r#"{"p":0.3}"#, r#"{"p":0.49999}"#, r#"{"p":1.0}"#] {
            let err = handle_tree(&parse(body).unwrap()).unwrap_err();
            assert_eq!(err.status, 400, "{body}");
            assert!(err.message.contains("[0.5, 1)"), "{body}: {}", err.message);
        }
        assert!(handle_tree(&parse(r#"{"p":0.5}"#).unwrap()).is_ok());
    }

    #[test]
    fn oversized_et_is_rejected_not_simulated() {
        let err = handle_tree(&parse(r#"{"et":100001}"#).unwrap()).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("too large"), "{}", err.message);
        let cache = PreparedCache::new(8, 2);
        let body = parse(r#"{"workload":"xlisp","et":4000000000}"#).unwrap();
        let err =
            handle_simulate(&cache, &body, far_deadline(), &FaultPlan::inert(), None).unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn uploaded_program_with_static_errors_is_422_with_codes() {
        let cache = PreparedCache::new(8, 2);
        // Parses fine, but reads r1 with no reaching definition anywhere:
        // the assembler accepts it, the analyzer proves it wrong.
        let body = parse(r#"{"program":"out r1\nhalt\n","model":"SP","et":4}"#).unwrap();
        let err =
            handle_simulate(&cache, &body, far_deadline(), &FaultPlan::inert(), None).unwrap_err();
        assert_eq!(err.status, 422, "{}", err.message);
        assert!(
            err.codes.iter().any(|c| c == "DEE-E003"),
            "codes: {:?}",
            err.codes
        );
        let rendered = err.to_json().to_string();
        assert!(rendered.contains("\"codes\""), "{rendered}");
        assert!(rendered.contains("DEE-E003"), "{rendered}");
        // The same gate guards the levo endpoint — one validator, not two.
        let err = handle_levo(&body, far_deadline(), &FaultPlan::inert()).unwrap_err();
        assert_eq!(err.status, 422);
    }

    #[test]
    fn uploaded_program_with_oob_constant_store_is_422() {
        let cache = PreparedCache::new(8, 2);
        // Stores to address 2^20, one past the top of VM memory.
        let body =
            parse(r#"{"program":"li r1, 1048576\nsw r1, 0(r1)\nhalt\n","model":"SP","et":4}"#)
                .unwrap();
        let err =
            handle_simulate(&cache, &body, far_deadline(), &FaultPlan::inert(), None).unwrap_err();
        assert_eq!(err.status, 422, "{}", err.message);
        assert!(
            err.codes.iter().any(|c| c == "DEE-E011"),
            "codes: {:?}",
            err.codes
        );
    }

    #[test]
    fn clean_uploaded_program_passes_the_analyze_gate() {
        let cache = PreparedCache::new(8, 2);
        let body = parse(
            r#"{"program":"lw r1, 0(zero)\nout r1\nhalt\n","memory":[9],"model":"SP","et":4}"#,
        )
        .unwrap();
        let (response, _) =
            handle_simulate(&cache, &body, far_deadline(), &FaultPlan::inert(), None).unwrap();
        assert!(response.get("results").is_some());
    }

    #[test]
    fn injected_analyze_reject_fault_surfaces_as_422() {
        use crate::faults::FaultSpec;
        let cache = PreparedCache::new(8, 2);
        let body = parse(r#"{"workload":"xlisp","scale":"tiny","model":"SP","et":8}"#).unwrap();
        let plan = FaultPlan::new(5).arm(
            FaultSite::AnalyzeReject,
            FaultSpec {
                error_ppm: 1_000_000,
                ..FaultSpec::default()
            },
        );
        let err = handle_simulate(&cache, &body, far_deadline(), &plan, None).unwrap_err();
        assert_eq!(err.status, 422);
        assert!(err.message.contains("analyze_reject"), "{}", err.message);
        assert!(err.codes.is_empty());
    }

    #[test]
    fn injected_cache_lookup_fault_surfaces_as_500() {
        use crate::faults::FaultSpec;
        let cache = PreparedCache::new(8, 2);
        let body = parse(r#"{"workload":"xlisp","scale":"tiny","model":"SP","et":8}"#).unwrap();
        let plan = FaultPlan::new(5).arm(
            FaultSite::CacheLookup,
            FaultSpec {
                error_ppm: 1_000_000,
                ..FaultSpec::default()
            },
        );
        let err = handle_simulate(&cache, &body, far_deadline(), &plan, None).unwrap_err();
        assert_eq!(err.status, 500);
        assert!(err.message.contains("cache_lookup"), "{}", err.message);
    }

    #[test]
    fn injected_prepare_faults_fail_closed_and_do_not_poison_the_cache() {
        use crate::faults::FaultSpec;
        let cache = PreparedCache::new(8, 2);
        let body = parse(r#"{"workload":"xlisp","scale":"tiny","model":"SP","et":8}"#).unwrap();
        for site in [FaultSite::TracePrepare, FaultSite::CacheInsert] {
            let plan = FaultPlan::new(5)
                .arm(
                    site,
                    FaultSpec {
                        error_ppm: 1_000_000,
                        ..FaultSpec::default()
                    },
                )
                .with_fuse(1);
            let err = handle_simulate(&cache, &body, far_deadline(), &plan, None).unwrap_err();
            assert_eq!(err.status, 500, "{}", site.name());
            assert!(err.message.contains(site.name()), "{}", err.message);
            // The failed preparation must not leave a poisoned entry: the
            // fuse burned, so the retry prepares cleanly (a miss, then hits).
            let (_, hit) = handle_simulate(&cache, &body, far_deadline(), &plan, None).unwrap();
            assert!(!hit, "{}: failed insert must not be cached", site.name());
            let (_, hit) = handle_simulate(&cache, &body, far_deadline(), &plan, None).unwrap();
            assert!(hit, "{}", site.name());
            cache.clear();
        }
    }

    #[test]
    fn levo_runs_and_matches_direct_call() {
        let body = parse(r#"{"workload":"xlisp","scale":"tiny","dee_paths":3}"#).unwrap();
        let response = handle_levo(&body, far_deadline(), &FaultPlan::inert()).unwrap();
        let w = dee_workloads::xlisp::build(Scale::Tiny);
        let report = Levo::new(LevoConfig::default())
            .run(&w.program, &w.initial_memory)
            .unwrap();
        assert_eq!(
            response.get("cycles").and_then(Json::as_u64),
            Some(report.cycles)
        );
        assert_eq!(
            response.get("retired").and_then(Json::as_u64),
            Some(report.retired)
        );
        assert_eq!(
            response.get("output_checksum").and_then(Json::as_str),
            Some(format!("{:016x}", dee_vm::output_checksum(&report.output)).as_str())
        );
    }

    #[test]
    fn levo_rejects_invalid_config() {
        let body = parse(r#"{"workload":"xlisp","n":0}"#).unwrap();
        assert_eq!(
            handle_levo(&body, far_deadline(), &FaultPlan::inert())
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn batch_grid_order_is_workloads_models_ets() {
        let body =
            parse(r#"{"workloads":["xlisp","compress"],"models":["SP","Oracle"],"ets":[8,16]}"#)
                .unwrap();
        let cells = parse_batch(&body).unwrap();
        let got: Vec<(String, &str, u32)> = cells
            .iter()
            .map(|c| (c.workload.clone(), c.model.name(), c.et))
            .collect();
        let expect = |w: &str, m: &'static str, et: u32| (w.to_string(), m, et);
        assert_eq!(
            got,
            vec![
                expect("xlisp", "SP", 8),
                expect("xlisp", "SP", 16),
                expect("xlisp", "Oracle", 8),
                expect("xlisp", "Oracle", 16),
                expect("compress", "SP", 8),
                expect("compress", "SP", 16),
                expect("compress", "Oracle", 8),
                expect("compress", "Oracle", 16),
            ]
        );
    }

    #[test]
    fn batch_defaults_to_all_models_and_et_100() {
        let body = parse(r#"{"workloads":["xlisp"]}"#).unwrap();
        let cells = parse_batch(&body).unwrap();
        assert_eq!(cells.len(), 8, "7 constrained models + Oracle");
        assert!(cells.iter().all(|c| c.et == 100));
        assert_eq!(cells.last().unwrap().model, Model::Oracle);
    }

    #[test]
    fn batch_validates_every_axis_upfront() {
        for (body, needle) in [
            (r#"{}"#, "missing `workloads`"),
            (r#"{"workloads":[]}"#, "non-empty"),
            (r#"{"workloads":["nope"]}"#, "unknown workload"),
            (r#"{"workloads":["xlisp"],"scale":"huge"}"#, "unknown scale"),
            (
                r#"{"workloads":["xlisp"],"models":["warp"]}"#,
                "unknown model",
            ),
            (r#"{"workloads":["xlisp"],"ets":[200000]}"#, "too large"),
            (
                r#"{"workloads":["xlisp"],"models":["SP"],"ets":[0]}"#,
                "at least 1",
            ),
            (r#"{"workloads":["xlisp"],"p":1.5}"#, "[0, 1]"),
            (
                r#"{"workloads":["xlisp"],"predictor":"psychic"}"#,
                "unknown predictor",
            ),
            (
                r#"{"workloads":["xlisp"],"latency":"warp"}"#,
                "unknown latency",
            ),
        ] {
            let err = parse_batch(&parse(body).unwrap()).unwrap_err();
            assert_eq!(err.status, 400, "{body}");
            assert!(err.message.contains(needle), "{body}: {}", err.message);
        }
        // Oracle alone tolerates et 0 (it ignores resources anyway).
        let body = parse(r#"{"workloads":["xlisp"],"models":["oracle"],"ets":[0]}"#).unwrap();
        assert_eq!(parse_batch(&body).unwrap().len(), 1);
    }

    #[test]
    fn batch_cell_matches_handle_simulate() {
        let cache = PreparedCache::new(8, 2);
        let body =
            parse(r#"{"workloads":["compress"],"models":["DEE-CD-MF"],"ets":[32]}"#).unwrap();
        let cells = parse_batch(&body).unwrap();
        assert_eq!(cells.len(), 1);
        let (json, hit) =
            run_batch_cell(&cache, &cells[0], far_deadline(), &FaultPlan::inert(), None);
        assert_eq!(hit, Some(false), "first cell prepares");
        let single =
            parse(r#"{"workload":"compress","scale":"tiny","model":"DEE-CD-MF","et":32}"#).unwrap();
        let (expected, _) =
            handle_simulate(&cache, &single, far_deadline(), &FaultPlan::inert(), None).unwrap();
        let want = &expected.get("results").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            json.get("result").unwrap().to_string(),
            want.to_string(),
            "a batch cell is byte-identical to the single-shot endpoint"
        );
        assert_eq!(json.get("cache").and_then(Json::as_str), Some("miss"));
        let (json, hit) =
            run_batch_cell(&cache, &cells[0], far_deadline(), &FaultPlan::inert(), None);
        assert_eq!(hit, Some(true), "second run hits the cache");
        assert_eq!(json.get("cache").and_then(Json::as_str), Some("hit"));
    }

    #[test]
    fn batch_cell_failure_is_an_error_member_not_a_panic() {
        use crate::faults::FaultSpec;
        let cache = PreparedCache::new(8, 2);
        let body = parse(r#"{"workloads":["xlisp"],"models":["SP"],"ets":[8]}"#).unwrap();
        let cells = parse_batch(&body).unwrap();
        let plan = FaultPlan::new(5)
            .arm(
                FaultSite::TracePrepare,
                FaultSpec {
                    error_ppm: 1_000_000,
                    ..FaultSpec::default()
                },
            )
            .with_fuse(1);
        let (json, hit) = run_batch_cell(&cache, &cells[0], far_deadline(), &plan, None);
        assert_eq!(hit, None, "cell failed before the cache answered");
        let message = json.get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains("trace_prepare"), "{message}");
        assert_eq!(json.get("workload").and_then(Json::as_str), Some("xlisp"));
        // The fuse burned; the same cell now runs clean.
        let (json, hit) = run_batch_cell(&cache, &cells[0], far_deadline(), &plan, None);
        assert_eq!(hit, Some(false));
        assert!(json.get("result").is_some());
    }

    #[test]
    fn disk_tier_replays_after_cache_clear_and_keeps_responses_identical() {
        use std::sync::atomic::Ordering;
        let dir = std::env::temp_dir().join(format!("dee_api_store_{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        let store = Store::open(&dir).unwrap();
        let cache = PreparedCache::new(8, 2);
        let body = parse(r#"{"workload":"xlisp","scale":"tiny","model":"SP","et":8}"#).unwrap();
        let (first, hit) = handle_simulate(
            &cache,
            &body,
            far_deadline(),
            &FaultPlan::inert(),
            Some(&store),
        )
        .unwrap();
        assert!(!hit);
        assert_eq!(store.stats().misses.load(Ordering::Relaxed), 1);
        assert_eq!(store.stats().writes.load(Ordering::Relaxed), 1);
        // A cleared prepared cache models a restart: the miss now replays
        // the raw trace from disk — visible only in the store counters,
        // never in the response (which must stay byte-identical).
        cache.clear();
        let (second, hit) = handle_simulate(
            &cache,
            &body,
            far_deadline(),
            &FaultPlan::inert(),
            Some(&store),
        )
        .unwrap();
        assert!(!hit, "prepared cache was cleared");
        assert_eq!(second.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(store.stats().disk_hits.load(Ordering::Relaxed), 1);
        assert_eq!(second.to_string(), first.to_string());
        // And a store-less run produces the same bytes again.
        let fresh = PreparedCache::new(8, 2);
        let (storeless, _) =
            handle_simulate(&fresh, &body, far_deadline(), &FaultPlan::inert(), None).unwrap();
        assert_eq!(storeless.to_string(), first.to_string());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn store_faults_degrade_to_retracing_never_fail_the_request() {
        use crate::faults::FaultSpec;
        use std::sync::atomic::Ordering;
        let dir = std::env::temp_dir().join(format!("dee_api_store_faults_{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        let store = Store::open(&dir).unwrap();
        let cache = PreparedCache::new(8, 2);
        let body = parse(r#"{"workload":"compress","scale":"tiny","model":"SP","et":8}"#).unwrap();
        let always = FaultSpec {
            error_ppm: 1_000_000,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::new(7)
            .arm(FaultSite::StoreRead, always)
            .arm(FaultSite::StoreWrite, always);
        let (hostile, hit) =
            handle_simulate(&cache, &body, far_deadline(), &plan, Some(&store)).unwrap();
        assert!(!hit);
        assert_eq!(
            store.stats().write_errors.load(Ordering::Relaxed),
            1,
            "tripped write skips the publish"
        );
        assert_eq!(store.stats().writes.load(Ordering::Relaxed), 0);
        assert!(!store.contains(&ArtifactKey::new(
            "compress",
            "tiny",
            &dee_workloads::compress::build(Scale::Tiny)
                .program
                .to_listing(),
            &dee_workloads::compress::build(Scale::Tiny).initial_memory,
        )));
        // Same bytes as a clean, store-less run: faults only degrade.
        let fresh = PreparedCache::new(8, 2);
        let (clean, _) =
            handle_simulate(&fresh, &body, far_deadline(), &FaultPlan::inert(), None).unwrap();
        assert_eq!(hostile.to_string(), clean.to_string());
        // Publish the trace cleanly; a tripped read then skips the disk
        // tier (a miss, not a disk hit) and re-traces to the same bytes.
        cache.clear();
        handle_simulate(
            &cache,
            &body,
            far_deadline(),
            &FaultPlan::inert(),
            Some(&store),
        )
        .unwrap();
        assert_eq!(store.stats().writes.load(Ordering::Relaxed), 1);
        cache.clear();
        let misses = store.stats().misses.load(Ordering::Relaxed);
        let read_plan = FaultPlan::new(7).arm(FaultSite::StoreRead, always);
        let (skipped, hit) =
            handle_simulate(&cache, &body, far_deadline(), &read_plan, Some(&store)).unwrap();
        assert!(!hit);
        assert_eq!(store.stats().disk_hits.load(Ordering::Relaxed), 0);
        assert_eq!(store.stats().misses.load(Ordering::Relaxed), misses + 1);
        assert_eq!(skipped.to_string(), clean.to_string());
        std::fs::remove_dir_all(dir).ok();
    }

    /// Steps a machine and all four request predictors through records
    /// `[0, k)` and encodes the resulting `DEESNAP1` snapshot — the
    /// same cut `dee trace record --checkpoint-stride` publishes.
    fn snapshot_bytes_at(source: &Source, k: u64) -> Vec<u8> {
        let mut machine = Machine::new();
        machine.try_load_memory(&source.memory).unwrap();
        let mut predictors = dee_snap::standard_predictors();
        for _ in 0..k {
            let (_, record) = machine.step(&source.program).unwrap();
            if let Some(outcome) = record.branch {
                for p in &mut predictors {
                    let _ = p.predict(record.pc);
                    p.resolve(record.pc, outcome.taken);
                }
            }
        }
        let key = artifact_key(source);
        Snapshot {
            trace_format_version: dee_vm::TRACE_FORMAT_VERSION,
            parent_digest: key.digest,
            record_index: k,
            machine: machine.snapshot_state(),
            predictors: predictors
                .iter()
                .map(|p| (p.name().to_string(), p.save_state()))
                .collect(),
            prng_streams: Vec::new(),
        }
        .encode(&source.memory)
    }

    fn range_body(start: u64, end: u64) -> Json {
        parse(&format!(
            r#"{{"workload":"compress","scale":"tiny","model":"SP","et":8,"predictor":"gshare","start":{start},"end":{end}}}"#
        ))
        .unwrap()
    }

    fn compress_source() -> Source {
        let body = parse(r#"{"workload":"compress","scale":"tiny"}"#).unwrap();
        resolve_source(&body, &FaultPlan::inert()).unwrap()
    }

    #[test]
    fn simulate_range_over_the_full_trace_matches_simulate() {
        let metrics = Metrics::new();
        let body = parse(r#"{"workload":"compress","scale":"tiny","model":"SP","et":8,"start":0}"#)
            .unwrap();
        let response =
            handle_simulate_range(&body, far_deadline(), &FaultPlan::inert(), None, &metrics)
                .unwrap();
        let cache = PreparedCache::new(8, 2);
        let single =
            parse(r#"{"workload":"compress","scale":"tiny","model":"SP","et":8}"#).unwrap();
        let (expected, _) =
            handle_simulate(&cache, &single, far_deadline(), &FaultPlan::inert(), None).unwrap();
        assert_eq!(
            response.get("results").unwrap().to_string(),
            expected.get("results").unwrap().to_string(),
            "a [0, end-of-trace) range is the whole trace"
        );
        assert_eq!(
            response.get("p").unwrap().to_string(),
            expected.get("p").unwrap().to_string()
        );
        let records = response.get("records").and_then(Json::as_u64).unwrap();
        assert!(records > 0);
        assert_eq!(
            response.get("end").and_then(Json::as_u64),
            Some(records),
            "start 0 means end == records"
        );
        assert_eq!(metrics.snap_seek_hits.load(Ordering::Relaxed), 0);
        assert_eq!(
            metrics.snap_seek_misses.load(Ordering::Relaxed),
            0,
            "no store means the seek never ran"
        );
    }

    #[test]
    fn simulate_range_warm_start_is_byte_identical_and_counts_a_hit() {
        let dir = std::env::temp_dir().join(format!("dee_api_snap_{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        let store = Store::open(&dir).unwrap();
        let source = compress_source();
        let key = artifact_key(&source);
        store
            .put_snapshot(
                &dee_snap::snapshot_filename(&key, 200),
                &snapshot_bytes_at(&source, 200),
            )
            .unwrap();

        let body = range_body(500, 900);
        let cold_metrics = Metrics::new();
        let cold = handle_simulate_range(
            &body,
            far_deadline(),
            &FaultPlan::inert(),
            None,
            &cold_metrics,
        )
        .unwrap();
        let warm_metrics = Metrics::new();
        let warm = handle_simulate_range(
            &body,
            far_deadline(),
            &FaultPlan::inert(),
            Some(&store),
            &warm_metrics,
        )
        .unwrap();
        assert_eq!(
            warm.to_string(),
            cold.to_string(),
            "a warm start must never change the response bytes"
        );
        assert_eq!(warm_metrics.snap_seek_hits.load(Ordering::Relaxed), 1);
        assert_eq!(warm_metrics.snap_seek_misses.load(Ordering::Relaxed), 0);
        assert_eq!(warm_metrics.snap_decode_failures.load(Ordering::Relaxed), 0);
        // The miss path published the artifact, so the next range
        // request streams records from disk — and stays identical.
        assert!(store.contains(&key));
        let streamed = handle_simulate_range(
            &body,
            far_deadline(),
            &FaultPlan::inert(),
            Some(&store),
            &Metrics::new(),
        )
        .unwrap();
        assert_eq!(streamed.to_string(), cold.to_string());
        assert!(store.stats().disk_hits.load(Ordering::Relaxed) >= 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn simulate_range_quarantines_a_corrupt_snapshot_and_falls_back() {
        let dir = std::env::temp_dir().join(format!("dee_api_snapcorrupt_{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        let store = Store::open(&dir).unwrap();
        let source = compress_source();
        let key = artifact_key(&source);
        let mut bytes = snapshot_bytes_at(&source, 200);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let name = dee_snap::snapshot_filename(&key, 200);
        // put_snapshot verifies framing, so plant the corruption directly.
        std::fs::write(store.root().join(&name), &bytes).unwrap();

        let body = range_body(500, 900);
        let metrics = Metrics::new();
        let hostile = handle_simulate_range(
            &body,
            far_deadline(),
            &FaultPlan::inert(),
            Some(&store),
            &metrics,
        )
        .unwrap();
        let clean = handle_simulate_range(
            &body,
            far_deadline(),
            &FaultPlan::inert(),
            None,
            &Metrics::new(),
        )
        .unwrap();
        assert_eq!(
            hostile.to_string(),
            clean.to_string(),
            "one flipped byte degrades the warm start, never the answer"
        );
        assert_eq!(metrics.snap_seek_hits.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.snap_seek_misses.load(Ordering::Relaxed), 1);
        assert!(
            store.stats().quarantined.load(Ordering::Relaxed) >= 1,
            "the corrupt snapshot was quarantined"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn simulate_range_snap_faults_degrade_byte_identically() {
        use crate::faults::FaultSpec;
        let dir = std::env::temp_dir().join(format!("dee_api_snapfault_{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        let store = Store::open(&dir).unwrap();
        let source = compress_source();
        let key = artifact_key(&source);
        store
            .put_snapshot(
                &dee_snap::snapshot_filename(&key, 200),
                &snapshot_bytes_at(&source, 200),
            )
            .unwrap();
        let body = range_body(500, 900);
        let clean = handle_simulate_range(
            &body,
            far_deadline(),
            &FaultPlan::inert(),
            None,
            &Metrics::new(),
        )
        .unwrap();
        let always = FaultSpec {
            error_ppm: 1_000_000,
            ..FaultSpec::default()
        };
        for site in [FaultSite::SnapSeek, FaultSite::SnapRead] {
            let plan = FaultPlan::new(11).arm(site, always);
            let metrics = Metrics::new();
            let hostile =
                handle_simulate_range(&body, far_deadline(), &plan, Some(&store), &metrics)
                    .unwrap();
            assert_eq!(hostile.to_string(), clean.to_string(), "{}", site.name());
            assert_eq!(
                metrics.snap_seek_hits.load(Ordering::Relaxed),
                0,
                "{}: a tripped site must not warm-start",
                site.name()
            );
            assert_eq!(metrics.snap_seek_misses.load(Ordering::Relaxed), 1);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn simulate_range_rejects_bad_ranges() {
        let metrics = Metrics::new();
        for (start, end, needle) in [(10u64, 10u64, "greater than"), (10, 5, "greater than")] {
            let body = parse(&format!(
                r#"{{"workload":"compress","scale":"tiny","model":"SP","et":8,"start":{start},"end":{end}}}"#
            ))
            .unwrap();
            let err =
                handle_simulate_range(&body, far_deadline(), &FaultPlan::inert(), None, &metrics)
                    .unwrap_err();
            assert_eq!(err.status, 400);
            assert!(err.message.contains(needle), "{}", err.message);
        }
        // A start past the end of the trace cannot produce records.
        let body = parse(
            r#"{"workload":"compress","scale":"tiny","model":"SP","et":8,"start":999999999}"#,
        )
        .unwrap();
        let err = handle_simulate_range(&body, far_deadline(), &FaultPlan::inert(), None, &metrics)
            .unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("past the end"), "{}", err.message);
    }

    fn debug_request(target: &str) -> crate::http::Request {
        crate::http::Request {
            method: "GET".into(),
            target: target.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn debug_at_time_travel_matches_from_zero_replay() {
        let dir = std::env::temp_dir().join(format!("dee_api_debugat_{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        let store = Store::open(&dir).unwrap();
        let source = compress_source();
        let key = artifact_key(&source);
        store
            .put_snapshot(
                &dee_snap::snapshot_filename(&key, 300),
                &snapshot_bytes_at(&source, 300),
            )
            .unwrap();
        let request = debug_request("/debug/at?workload=compress&scale=tiny&record=450");
        let from_zero = handle_debug_at(
            &request,
            far_deadline(),
            &FaultPlan::inert(),
            None,
            &Metrics::new(),
        )
        .unwrap();
        let metrics = Metrics::new();
        let warm = handle_debug_at(
            &request,
            far_deadline(),
            &FaultPlan::inert(),
            Some(&store),
            &metrics,
        )
        .unwrap();
        assert_eq!(
            warm.to_string(),
            from_zero.to_string(),
            "time travel via snapshot equals stepping from record zero"
        );
        assert_eq!(metrics.snap_seek_hits.load(Ordering::Relaxed), 1);
        assert_eq!(from_zero.get("executed").and_then(Json::as_u64), Some(450));
        // And the state really is record 450's: stepping a machine 450
        // times from scratch reproduces the reported pc and checksums.
        let mut machine = Machine::new();
        machine.try_load_memory(&source.memory).unwrap();
        for _ in 0..450 {
            machine.step(&source.program).unwrap();
        }
        assert_eq!(
            from_zero.get("pc").and_then(Json::as_u64),
            Some(u64::from(machine.pc()))
        );
        assert_eq!(
            from_zero.get("output_checksum").and_then(Json::as_str),
            Some(format!("{:016x}", dee_vm::output_checksum(machine.output())).as_str())
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn debug_at_rejects_bad_queries() {
        let metrics = Metrics::new();
        for (target, needle) in [
            ("/debug/at?scale=tiny&record=5", "missing `workload`"),
            ("/debug/at?workload=compress", "missing `record`"),
            ("/debug/at?workload=compress&record=x", "non-negative"),
            ("/debug/at?workload=nope&record=5", "unknown workload"),
            (
                "/debug/at?workload=compress&scale=tiny&record=99999999",
                "past the end",
            ),
        ] {
            let err = handle_debug_at(
                &debug_request(target),
                far_deadline(),
                &FaultPlan::inert(),
                None,
                &metrics,
            )
            .unwrap_err();
            assert_eq!(err.status, 400, "{target}");
            assert!(err.message.contains(needle), "{target}: {}", err.message);
        }
    }
}
