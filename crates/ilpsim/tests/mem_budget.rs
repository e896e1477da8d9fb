//! Peak-allocation regression guards for the disk tier's streaming
//! prepare and for trace capture.
//!
//! The claims under test, on each fig5-small workload:
//!
//! * preparing a stored artifact by feeding a [`StoreReader`] into a
//!   [`PreparedTraceBuilder`] record by record — the path `dee-serve`'s
//!   disk tier runs on a `/simulate` disk hit — stays under a fixed byte
//!   budget, while preparing the same artifact through a materialised
//!   `Vec<TraceRecord>` (40 bytes a record) blows through it on the
//!   larger workloads. Both paths must agree on every
//!   simulation-visible quantity, or the budget win is meaningless;
//! * capturing a trace on the decoded engine costs at most
//!   [`CAPTURE_BYTES_PER_RECORD`] bytes a record above the machine's
//!   memory image and the program-sized tables: the compact [`Trace`]
//!   holds a 4-byte shape id per record plus the dynamic fields, not a
//!   record vector.
//!
//! The counting allocator counts every thread in this test binary, so the
//! file holds exactly one test: a second test running in parallel would
//! add its allocations to the measured peaks.
//!
//! The library crate forbids `unsafe`; this integration test is its own
//! crate, and the `GlobalAlloc` wrapper below is the one place in the
//! workspace allowed to need it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dee_ilpsim::{simulate, Model, PreparedTrace, PreparedTraceBuilder, SimConfig};
use dee_predict::TwoBitCounter;
use dee_store::{ArtifactKey, Store, StoreReader};
use dee_vm::{Engine, Trace, TraceRecord, DEFAULT_MEM_WORDS};
use dee_workloads::{all_workloads, Scale, Workload};

/// Forwarding allocator that tracks live bytes and the high-water mark.
/// Counts layout sizes, not malloc overhead — a deterministic lower bound
/// that is identical across allocators and platforms.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                on_alloc(new_size - layout.size());
            } else {
                on_dealloc(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap growth above the phase's starting live set, at its peak.
fn phase_peak(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed).saturating_sub(base)
}

/// Budget the streamed path must stay under and the record-vector path
/// must exceed, as peak heap growth while preparing one fig5-small
/// workload. The streamed path holds the columnar output, the program
/// analysis and one decompressed container chunk; the record-vector path
/// also holds every record at 40 bytes (the ~240 K-record eqntott trace
/// alone is ~9.6 MiB), so 10 MiB sits well between the two.
const BUDGET_BYTES: usize = 10 * 1024 * 1024;

/// Most bytes a record a decoded-engine capture may peak at, above the
/// machine's memory image and [`PROGRAM_BYTES_PER_INSTR`] per static
/// instruction. The compact trace needs about 4.7 (a 4-byte shape id, an
/// address per memory access, a bit per branch, an entry per depth
/// change); `Vec` doubling can nearly double that. A 40-byte record
/// vector cannot fit.
const CAPTURE_BYTES_PER_RECORD: usize = 12;

/// Allowance per static instruction for the program-sized tables a
/// capture builds: the decoded ops, the record shapes and their copy in
/// the trace, the def and store tables.
const PROGRAM_BYTES_PER_INSTR: usize = 256;

/// Everything `simulate` can observe, for cross-path identity checks.
fn fingerprint(prepared: &PreparedTrace) -> (usize, u32, u64, u64, Vec<i32>, f64, f64) {
    let outcome = simulate(prepared, &SimConfig::new(Model::DeeCdMf, 8));
    (
        prepared.len(),
        prepared.num_paths(),
        prepared.num_branches(),
        prepared.num_mispredicts(),
        prepared.output().to_vec(),
        prepared.accuracy(),
        outcome.speedup(),
    )
}

/// The disk tier's `/simulate` hit path: records stream from the
/// artifact into the builder, then the output, footer and end of file
/// are verified.
fn prepare_streamed(w: &Workload, mut reader: StoreReader) -> PreparedTrace {
    let mut predictor = TwoBitCounter::new();
    let mut builder = PreparedTraceBuilder::new(&w.program, &mut predictor);
    // The disk tier trusts a header's record count up to 2^20 records.
    builder.reserve(usize::try_from(reader.record_count()).map_or(1 << 20, |n| n.min(1 << 20)));
    while let Some(record) = reader.next_record().expect("intact artifact") {
        builder.push_record(&record);
    }
    let output = reader.read_output().expect("intact output");
    reader.finish().expect("intact footer");
    builder.finish(output)
}

#[test]
fn streamed_prepare_and_capture_stay_under_budget_while_a_record_vector_exceeds_it() {
    let suite = all_workloads(Scale::Small);
    assert_eq!(suite.len(), 5, "fig5 suite is the paper's five workloads");
    let dir = std::env::temp_dir().join(format!("dee_mem_budget_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir).expect("open scratch store");

    let mut streamed_worst = 0usize;
    let mut vector_worst = 0usize;
    for w in &suite {
        let key = ArtifactKey::new(&w.name, "small", &w.program.to_listing(), &w.initial_memory);
        store
            .put(&key, &w.capture_trace().expect("workload runs to halt"))
            .expect("publish");

        let mut streamed = None;
        let streamed_peak = phase_peak(|| {
            let reader = store.open_reader(&key).expect("opens").expect("published");
            streamed = Some(prepare_streamed(w, reader));
        });
        let streamed = streamed.unwrap();
        let streamed_print = fingerprint(&streamed);
        drop(streamed);

        let mut via_vector = None;
        let vector_peak = phase_peak(|| {
            let trace = store.load(&key).expect("loads").expect("published");
            let records: Vec<TraceRecord> = trace.records().collect();
            let mut predictor = TwoBitCounter::new();
            let mut builder = PreparedTraceBuilder::new(&w.program, &mut predictor);
            for record in &records {
                builder.push_record(record);
            }
            via_vector = Some(builder.finish(trace.output().to_vec()));
        });
        let via_vector = via_vector.unwrap();
        let vector_print = fingerprint(&via_vector);
        drop(via_vector);

        let mut captured: Option<Trace> = None;
        let capture_peak = phase_peak(|| {
            captured = Some(w.capture_trace_with(Engine::Decoded).expect("runs"));
        });
        let records = captured.expect("captured").len();
        let fixed = DEFAULT_MEM_WORDS * 4 + PROGRAM_BYTES_PER_INSTR * w.program.len();
        let capture_per_record = capture_peak.saturating_sub(fixed) as f64 / records as f64;

        eprintln!(
            "mem_budget: {:<10} streamed_peak={:>9} vector_peak={:>9} \
             capture={:.2} B/record over {records} records",
            w.name, streamed_peak, vector_peak, capture_per_record
        );
        assert!(
            capture_per_record <= CAPTURE_BYTES_PER_RECORD as f64,
            "{}: capture peaked at {capture_peak} bytes, {capture_per_record:.2} B/record \
             above the {fixed}-byte memory image and program tables",
            w.name
        );
        assert_eq!(streamed_print, vector_print, "{}: paths diverge", w.name);
        assert!(
            streamed_peak <= BUDGET_BYTES,
            "{}: streamed prepare peaked at {streamed_peak} bytes, budget {BUDGET_BYTES}",
            w.name
        );
        streamed_worst = streamed_worst.max(streamed_peak);
        vector_worst = vector_worst.max(vector_peak);
    }
    std::fs::remove_dir_all(&dir).ok();

    // The regression tripwire: if a materialised record vector ever fits
    // the budget, the budget is too loose to catch a streamed-path
    // regression back to one — tighten it.
    assert!(
        vector_worst > BUDGET_BYTES,
        "record-vector prepare peaked at {vector_worst} bytes, within the \
         {BUDGET_BYTES}-byte budget; tighten BUDGET_BYTES so the guard keeps discriminating"
    );
    eprintln!("mem_budget: worst streamed={streamed_worst} worst vector={vector_worst}");
}
