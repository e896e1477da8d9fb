//! Lock-free service metrics: atomic counters, gauges, and fixed-bucket
//! latency histograms (end to end, and per request phase), rendered in a
//! Prometheus-compatible text format at `/metrics`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Histogram bucket upper bounds, in microseconds. The last implicit
/// bucket is `+Inf`.
const LATENCY_BOUNDS_US: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 500_000, 2_000_000,
];

/// A fixed-bucket latency histogram with atomic counters.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BOUNDS_US.len() + 1],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation in microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = LATENCY_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one observation of `elapsed`, in whole microseconds.
    pub(crate) fn record(&self, elapsed: Duration) {
        self.record_us(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Writes the `_bucket`, `_sum` and `_count` series of `name`, each
    /// carrying `label` (one `key="value"` pair, or empty for none).
    fn render(&self, out: &mut String, name: &str, label: &str) {
        let (bucket_label, series_label) = if label.is_empty() {
            (String::new(), String::new())
        } else {
            (format!("{label},"), format!("{{{label}}}"))
        };
        let mut cumulative = 0u64;
        for (i, bound) in LATENCY_BOUNDS_US.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "{name}_bucket{{{bucket_label}le=\"{bound}\"}} {cumulative}"
            );
        }
        cumulative += self.buckets[LATENCY_BOUNDS_US.len()].load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "{name}_bucket{{{bucket_label}le=\"+Inf\"}} {cumulative}"
        );
        let sum = self.sum_us.load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_sum{series_label} {sum}");
        let _ = writeln!(out, "{name}_count{series_label} {}", self.count());
    }
}

/// The server's metrics registry. Every field is updated with relaxed
/// atomics — the numbers are monitoring data, not synchronization.
#[derive(Debug)]
pub struct Metrics {
    /// Requests fully parsed and routed.
    pub requests: AtomicU64,
    /// `2xx` responses.
    pub responses_ok: AtomicU64,
    /// `4xx` responses.
    pub responses_client_error: AtomicU64,
    /// `5xx` responses (excluding queue-full rejections).
    pub responses_server_error: AtomicU64,
    /// Connections shed with `503 queue full` before queueing.
    pub rejected_queue_full: AtomicU64,
    /// Requests answered `504` because their deadline passed.
    pub timeouts: AtomicU64,
    /// Connections answered `408` because the whole-request read budget
    /// ran out (slow-loris defense).
    pub read_timeouts: AtomicU64,
    /// Panics caught by a thread that then went on serving: in request
    /// dispatch (answered `500`), elsewhere in a job (that connection
    /// dropped), in a `/batch` cell, or on the accept thread.
    pub panics_caught: AtomicU64,
    /// Prepared-trace cache hits.
    pub cache_hits: AtomicU64,
    /// Prepared-trace cache misses (preparations performed).
    pub cache_misses: AtomicU64,
    /// `POST /batch` grids fanned across the worker pool.
    pub batch_requests: AtomicU64,
    /// Batch grid cells executed (including per-cell failures).
    pub batch_cells: AtomicU64,
    /// Batch grids shed with `503` for exceeding `max_batch_cells`.
    pub batch_rejected_oversize: AtomicU64,
    /// Requests answered `422` because static analysis rejected the
    /// submitted program.
    pub analyze_rejects: AtomicU64,
    /// Range simulations warm-started from a published snapshot.
    pub snap_seek_hits: AtomicU64,
    /// Range simulations that replayed from record zero (no usable
    /// snapshot, or an injected snap fault degraded the warm start).
    pub snap_seek_misses: AtomicU64,
    /// Snapshots found but discarded (decode failure, digest mismatch,
    /// missing predictor state, or an injected `snap_read` fault).
    pub snap_decode_failures: AtomicU64,
    /// Nanoseconds spent replaying records between the snapshot cut and
    /// the range start (the warm-start tail replay).
    pub snap_replay_nanos: AtomicU64,
    /// Highest queue depth observed.
    pub queue_depth_highwater: AtomicU64,
    /// End-to-end request latency (read → response flushed).
    pub latency: Histogram,
    /// `serve.queue_wait`: from accept to the start of the worker that
    /// serves the connection. The `phase_*` histograms are timed once per
    /// request, never per record, and exported as
    /// `dee_phase_us{phase="<name>"}` under the benchmark's span names,
    /// so `/metrics` and perfbench's per-layer report share one
    /// vocabulary.
    pub phase_queue_wait: Histogram,
    /// `serve.parse`: decoding the JSON body of an API request.
    pub phase_parse: Histogram,
    /// `serve.render`: rendering an API response to its JSON text.
    pub phase_render: Histogram,
    /// `serve.lookup`: resolving a `/simulate` request's or `/batch`
    /// cell's source and finding its prepared trace in the cache.
    pub phase_lookup: Histogram,
    /// `serve.miss`: the same when the cache misses, so it also captures
    /// (or replays from the disk tier) and prepares the trace.
    pub phase_miss: Histogram,
    /// `analyze.gate`: the static-analysis lint of an upload that then
    /// misses (the lint runs before the cache is asked; a hit's is not
    /// timed here).
    pub phase_gate: Histogram,
    /// `vm.capture`: capturing a miss's trace on the VM, once per capture
    /// (not on a disk-tier hit).
    pub phase_capture: Histogram,
    /// `ilpsim.prepare`: preparing a captured trace on a miss (a disk-tier
    /// hit prepares as it reads and is not timed here).
    pub phase_prepare: Histogram,
    /// `ilpsim.simulate`: running a request's models over its prepared
    /// trace (`/simulate`, `/simulate_range`, or one `/batch` cell).
    pub phase_simulate: Histogram,
    started: Instant,
}

impl Metrics {
    /// Creates a zeroed registry.
    #[must_use]
    pub fn new() -> Self {
        Metrics {
            requests: AtomicU64::new(0),
            responses_ok: AtomicU64::new(0),
            responses_client_error: AtomicU64::new(0),
            responses_server_error: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            read_timeouts: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            batch_requests: AtomicU64::new(0),
            batch_cells: AtomicU64::new(0),
            batch_rejected_oversize: AtomicU64::new(0),
            analyze_rejects: AtomicU64::new(0),
            snap_seek_hits: AtomicU64::new(0),
            snap_seek_misses: AtomicU64::new(0),
            snap_decode_failures: AtomicU64::new(0),
            snap_replay_nanos: AtomicU64::new(0),
            queue_depth_highwater: AtomicU64::new(0),
            latency: Histogram::new(),
            phase_queue_wait: Histogram::new(),
            phase_parse: Histogram::new(),
            phase_render: Histogram::new(),
            phase_lookup: Histogram::new(),
            phase_miss: Histogram::new(),
            phase_gate: Histogram::new(),
            phase_capture: Histogram::new(),
            phase_prepare: Histogram::new(),
            phase_simulate: Histogram::new(),
            started: Instant::now(),
        }
    }

    /// Raises the queue-depth high-water mark to `depth` if higher.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_depth_highwater
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// Counts a response by status class.
    pub fn count_response(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_ok,
            400..=499 => &self.responses_client_error,
            _ => &self.responses_server_error,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the Prometheus text exposition, plus caller-supplied gauges
    /// (current queue depth, cache entries, worker count, ...).
    #[must_use]
    pub fn render(&self, gauges: &[(&str, u64)]) -> String {
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        counter(
            "dee_requests_total",
            "Requests parsed and routed.",
            load(&self.requests),
        );
        counter(
            "dee_responses_ok_total",
            "2xx responses.",
            load(&self.responses_ok),
        );
        counter(
            "dee_responses_client_error_total",
            "4xx responses.",
            load(&self.responses_client_error),
        );
        counter(
            "dee_responses_server_error_total",
            "5xx responses (excluding queue-full rejections).",
            load(&self.responses_server_error),
        );
        counter(
            "dee_rejected_queue_full_total",
            "Connections shed with 503 before queueing.",
            load(&self.rejected_queue_full),
        );
        counter(
            "dee_timeouts_total",
            "Requests past their deadline.",
            load(&self.timeouts),
        );
        counter(
            "dee_read_timeouts_total",
            "Connections whose whole-request read budget ran out (408).",
            load(&self.read_timeouts),
        );
        counter(
            "dee_panics_caught_total",
            "Panics caught and contained; the thread kept serving.",
            load(&self.panics_caught),
        );
        counter(
            "dee_prepared_cache_hits_total",
            "Prepared-trace cache hits.",
            load(&self.cache_hits),
        );
        counter(
            "dee_prepared_cache_misses_total",
            "Prepared-trace cache misses.",
            load(&self.cache_misses),
        );
        counter(
            "dee_batch_requests_total",
            "POST /batch grids fanned across the worker pool.",
            load(&self.batch_requests),
        );
        counter(
            "dee_batch_cells_total",
            "Batch grid cells executed.",
            load(&self.batch_cells),
        );
        counter(
            "dee_batch_rejected_oversize_total",
            "Batch grids shed 503 for exceeding max_batch_cells.",
            load(&self.batch_rejected_oversize),
        );
        counter(
            "dee_analyze_rejects_total",
            "Requests answered 422 after static analysis rejected the program.",
            load(&self.analyze_rejects),
        );
        counter(
            "dee_snap_seek_hits_total",
            "Range simulations warm-started from a snapshot.",
            load(&self.snap_seek_hits),
        );
        counter(
            "dee_snap_seek_misses_total",
            "Range simulations replayed from record zero.",
            load(&self.snap_seek_misses),
        );
        counter(
            "dee_snap_decode_failures_total",
            "Snapshots found but discarded as unusable.",
            load(&self.snap_decode_failures),
        );
        counter(
            "dee_snap_replay_nanos_total",
            "Nanoseconds replaying records from snapshot cut to range start.",
            load(&self.snap_replay_nanos),
        );
        counter(
            "dee_queue_depth_highwater",
            "Highest job-queue depth observed.",
            load(&self.queue_depth_highwater),
        );
        for (name, value) in gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        let _ = writeln!(out, "# TYPE dee_request_latency_us histogram");
        self.latency.render(&mut out, "dee_request_latency_us", "");
        let _ = writeln!(out, "# HELP dee_phase_us Time per request phase.");
        let _ = writeln!(out, "# TYPE dee_phase_us histogram");
        for (phase, histogram) in [
            ("serve.queue_wait", &self.phase_queue_wait),
            ("serve.parse", &self.phase_parse),
            ("serve.render", &self.phase_render),
            ("serve.lookup", &self.phase_lookup),
            ("serve.miss", &self.phase_miss),
            ("analyze.gate", &self.phase_gate),
            ("vm.capture", &self.phase_capture),
            ("ilpsim.prepare", &self.phase_prepare),
            ("ilpsim.simulate", &self.phase_simulate),
        ] {
            let label = format!("phase=\"{phase}\"");
            histogram.render(&mut out, "dee_phase_us", &label);
        }
        let _ = writeln!(out, "# TYPE dee_uptime_seconds gauge");
        let _ = writeln!(
            out,
            "dee_uptime_seconds {}",
            self.started.elapsed().as_secs()
        );
        out
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_totals() {
        let h = Histogram::new();
        h.record_us(50);
        h.record_us(150);
        h.record_us(10_000_000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets[0].load(Ordering::Relaxed), 1);
        assert_eq!(h.buckets[1].load(Ordering::Relaxed), 1);
        assert_eq!(
            h.buckets[LATENCY_BOUNDS_US.len()].load(Ordering::Relaxed),
            1
        );
        assert_eq!(h.sum_us.load(Ordering::Relaxed), 10_000_200);
    }

    #[test]
    fn render_contains_counters_and_gauges() {
        let m = Metrics::new();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.cache_hits.fetch_add(2, Ordering::Relaxed);
        m.count_response(200);
        m.count_response(404);
        m.count_response(503);
        m.latency.record_us(777);
        m.observe_queue_depth(5);
        m.observe_queue_depth(2);
        let text = m.render(&[("dee_queue_depth", 1), ("dee_workers", 4)]);
        assert!(text.contains("dee_requests_total 3"));
        assert!(text.contains("dee_prepared_cache_hits_total 2"));
        assert!(text.contains("dee_responses_ok_total 1"));
        assert!(text.contains("dee_responses_client_error_total 1"));
        assert!(text.contains("dee_responses_server_error_total 1"));
        assert!(text.contains("dee_queue_depth_highwater 5"));
        assert!(text.contains("dee_queue_depth 1"));
        assert!(text.contains("dee_workers 4"));
        assert!(text.contains("dee_request_latency_us_bucket{le=\"1000\"} 1"));
        assert!(text.contains("dee_request_latency_us_sum 777\n"));
        assert!(text.contains("dee_request_latency_us_count 1\n"));
    }

    #[test]
    fn render_exposes_phase_histograms() {
        let m = Metrics::new();
        m.phase_queue_wait.record(Duration::from_micros(40));
        m.phase_parse.record(Duration::from_micros(300));
        m.phase_parse.record(Duration::from_millis(3));
        let text = m.render(&[]);
        assert!(text.contains("# TYPE dee_phase_us histogram\n"));
        for (series, value) in [
            (r#"_bucket{phase="serve.queue_wait",le="100"}"#, 1),
            (r#"_count{phase="serve.queue_wait"}"#, 1),
            (r#"_bucket{phase="serve.parse",le="250"}"#, 0),
            (r#"_bucket{phase="serve.parse",le="500"}"#, 1),
            (r#"_bucket{phase="serve.parse",le="5000"}"#, 2),
            (r#"_bucket{phase="serve.parse",le="+Inf"}"#, 2),
            (r#"_sum{phase="serve.parse"}"#, 3_300),
            (r#"_count{phase="serve.parse"}"#, 2),
            (r#"_bucket{phase="serve.render",le="+Inf"}"#, 0),
            (r#"_count{phase="serve.render"}"#, 0),
            (r#"_count{phase="serve.lookup"}"#, 0),
            (r#"_count{phase="serve.miss"}"#, 0),
            (r#"_count{phase="ilpsim.simulate"}"#, 0),
        ] {
            let line = format!("dee_phase_us{series} {value}\n");
            assert!(text.contains(&line), "missing {line:?} in\n{text}");
        }
    }

    #[test]
    fn render_exposes_robustness_counters() {
        let m = Metrics::new();
        m.panics_caught.fetch_add(2, Ordering::Relaxed);
        m.read_timeouts.fetch_add(5, Ordering::Relaxed);
        let text = m.render(&[]);
        assert!(text.contains("dee_panics_caught_total 2"));
        assert!(text.contains("dee_read_timeouts_total 5"));
    }

    #[test]
    fn render_exposes_batch_counters() {
        let m = Metrics::new();
        m.batch_requests.fetch_add(2, Ordering::Relaxed);
        m.batch_cells.fetch_add(48, Ordering::Relaxed);
        m.batch_rejected_oversize.fetch_add(1, Ordering::Relaxed);
        let text = m.render(&[]);
        assert!(text.contains("dee_batch_requests_total 2"));
        assert!(text.contains("dee_batch_cells_total 48"));
        assert!(text.contains("dee_batch_rejected_oversize_total 1"));
    }

    #[test]
    fn render_exposes_snap_counters() {
        let m = Metrics::new();
        m.snap_seek_hits.fetch_add(3, Ordering::Relaxed);
        m.snap_seek_misses.fetch_add(2, Ordering::Relaxed);
        m.snap_decode_failures.fetch_add(1, Ordering::Relaxed);
        m.snap_replay_nanos.fetch_add(640, Ordering::Relaxed);
        let text = m.render(&[]);
        assert!(text.contains("dee_snap_seek_hits_total 3"));
        assert!(text.contains("dee_snap_seek_misses_total 2"));
        assert!(text.contains("dee_snap_decode_failures_total 1"));
        assert!(text.contains("dee_snap_replay_nanos_total 640"));
    }

    #[test]
    fn render_exposes_analyze_rejects() {
        let m = Metrics::new();
        m.analyze_rejects.fetch_add(7, Ordering::Relaxed);
        let text = m.render(&[]);
        assert!(text.contains("dee_analyze_rejects_total 7"));
    }
}
