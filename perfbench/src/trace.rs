//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span has a name (`<layer>.<operation>`), a start, an end, its parent
//! (the span open when it began) and a group id shared by every span of
//! one cell or one request. Recording is single-threaded: traced passes
//! call the layers sequentially. A disabled tracer records nothing, so
//! the same code measures the untraced baseline that tracing overhead is
//! taken against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    group: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Layers whose self time is reported. Spans of other layers (the
/// benchmark's own `bench.*` spans) still nest and are dumped, but their
/// subtrees are left out of per-layer sums.
pub const LAYERS: [&str; 7] = ["vm", "analyze", "store", "ilpsim", "levo", "snap", "serve"];

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, group: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            group,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(index),
            "spans must close innermost first"
        );
        self.spans[index].end_ns = self.now_ns();
    }

    /// Renames an open span once its outcome is known (a cache lookup
    /// that turned out to be a miss).
    pub fn rename(&mut self, id: &SpanId, name: &str) {
        if let Some(index) = id.0 {
            self.spans[index].name = name.to_string();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &str, group: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, group);
        let out = f();
        self.end(id);
        out
    }

    fn duration_ns(&self, index: usize) -> u64 {
        let s = &self.spans[index];
        s.end_ns.saturating_sub(s.start_ns)
    }

    fn layer(name: &str) -> &str {
        name.split('.').next().unwrap_or(name)
    }

    /// Whether a span sits under a `bench.*` span (attribution calls that
    /// are not part of the handler path).
    fn excluded(&self, mut index: usize) -> bool {
        loop {
            if Self::layer(&self.spans[index].name) == "bench" {
                return true;
            }
            match self.spans[index].parent {
                Some(parent) => index = parent,
                None => return false,
            }
        }
    }

    /// Total milliseconds in spans named exactly `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.duration_ns(i))
            .sum();
        ns as f64 / 1e6
    }

    /// Number of spans named exactly `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Each layer's self time in milliseconds: span durations minus the
    /// part their child spans cover, summed per layer.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for i in 0..self.spans.len() {
            if let Some(parent) = self.spans[i].parent {
                child_ns[parent] += self.duration_ns(i);
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (i, span) in self.spans.iter().enumerate() {
            let layer = Self::layer(&span.name);
            if let Some(slot) = LAYERS.iter().find(|&&l| l == layer) {
                if !self.excluded(i) {
                    let own = self.duration_ns(i).saturating_sub(child_ns[i]);
                    *out.get_mut(slot).expect("every layer has a slot") += own as f64 / 1e6;
                }
            }
        }
        out
    }

    /// Appends this tracer's spans as tab-separated rows tagged `pass`:
    /// `pass id parent group name start_ns end_ns`.
    pub fn dump(&self, pass: &str, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{pass}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.group, s.name, s.start_ns, s.end_ns
            );
        }
    }
}

/// Whether round `round` of a traced run measures its untraced pass
/// first (`false`) or its traced pass first: the order alternates, so
/// the warm-up a first pass pays does not land on one side of the
/// overhead.
pub fn order(round: usize) -> [bool; 2] {
    if round.is_multiple_of(2) {
        [false, true]
    } else {
        [true, false]
    }
}

/// Span dumps of a traced run, written to `.bench_out/` when it ends.
pub struct SpanLog(String);

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog("pass\tid\tparent\tgroup\tname\tstart_ns\tend_ns\n".to_string())
    }

    pub fn add(&mut self, pass: &str, tracer: &Tracer) {
        tracer.dump(pass, &mut self.0);
    }

    /// Writes the dump; returns where, for the run's notes.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<String> {
        let dir = std::path::Path::new(".bench_out");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("spans-{workload}-s{seed}.tsv"));
        std::fs::write(&path, &self.0)?;
        Ok(path.display().to_string())
    }
}

/// Per-layer self times and `*_ms` totals of several traced passes,
/// reduced to medians.
#[derive(Default)]
pub struct PassStats(BTreeMap<String, Vec<f64>>);

impl PassStats {
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    /// Records one traced pass: each layer's self time as
    /// `self_ms.<layer>`, and the total time of every span name as its
    /// metric name, `<layer>.<op>[.<detail>]` → `<layer>.<op>_ms[.<detail>]`.
    pub fn push_pass(&mut self, tracer: &Tracer) {
        for (layer, ms) in tracer.self_ms() {
            self.push(&format!("self_ms.{layer}"), ms);
        }
        let names: std::collections::BTreeSet<&str> =
            tracer.spans.iter().map(|s| s.name.as_str()).collect();
        for name in names {
            let mut parts: Vec<String> = name.split('.').map(str::to_string).collect();
            if parts.len() >= 2 {
                parts[1].push_str("_ms");
                self.push(&parts.join("."), tracer.total_ms(name));
            }
        }
    }

    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| crate::median(v))
    }

    pub fn names(&self) -> impl Iterator<Item = &String> {
        self.0.keys()
    }
}
