//! Deterministic, seeded fault injection for the serving stack.
//!
//! A [`FaultPlan`] arms named [`FaultSite`]s — queue push/pop, cache
//! lookup/insert, trace preparation, job execution, socket read/write,
//! JSON decode, store read/write, the lint gate, decoded-engine lowering
//! and snapshot seek/read — with per-arrival probabilities of injecting
//! a panic, a spurious error, a short read, or a delay. The plan is
//! compiled in always and threaded through the server unconditionally;
//! an unarmed plan costs one relaxed atomic load per site visit.
//!
//! Injection is *deterministic*: the decision for the n-th arrival at a
//! site is a pure function of `(seed, site, n)`, derived from an
//! xorshift64\*-style mixer, with per-site atomic arrival counters. Two
//! runs that visit each site the same number of times therefore inject
//! the exact same fault sequence regardless of thread interleaving —
//! which is what lets the chaos soak test assert that a storm is
//! reproducible from its seed alone.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// A named injection point in the serving stack.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSite {
    /// The accept thread enqueueing a connection.
    QueuePush,
    /// A worker dequeuing a job.
    QueuePop,
    /// Prepared-trace cache lookup.
    CacheLookup,
    /// Prepared-trace cache insert (after a successful preparation).
    CacheInsert,
    /// Trace capture + predictor replay (the expensive miss path).
    TracePrepare,
    /// Worker job execution (the request dispatch itself).
    JobExecute,
    /// A read from the client socket.
    SocketRead,
    /// A write to the client socket.
    SocketWrite,
    /// JSON request-body decoding.
    JsonDecode,
    /// A read (replay) from the disk artifact store.
    StoreRead,
    /// A write (publish) to the disk artifact store.
    StoreWrite,
    /// The static-analysis gate on request program sources (a spurious
    /// `422` rejection).
    AnalyzeReject,
    /// Lowering a request program into the pre-decoded engine form on the
    /// miss path; a tripped site degrades the capture to the interpreter.
    DecodeCompile,
    /// Seeking the nearest snapshot for a range simulation; a tripped
    /// site behaves as if no snapshot is published (from-zero fallback).
    SnapSeek,
    /// Reading/decoding a found snapshot; a tripped site treats the
    /// bytes as unusable and falls back to from-zero replay.
    SnapRead,
}

impl FaultSite {
    /// Number of sites (array sizes).
    pub const COUNT: usize = 15;

    /// Every site, in index order.
    pub const ALL: [FaultSite; FaultSite::COUNT] = [
        FaultSite::QueuePush,
        FaultSite::QueuePop,
        FaultSite::CacheLookup,
        FaultSite::CacheInsert,
        FaultSite::TracePrepare,
        FaultSite::JobExecute,
        FaultSite::SocketRead,
        FaultSite::SocketWrite,
        FaultSite::JsonDecode,
        FaultSite::StoreRead,
        FaultSite::StoreWrite,
        FaultSite::AnalyzeReject,
        FaultSite::DecodeCompile,
        FaultSite::SnapSeek,
        FaultSite::SnapRead,
    ];

    /// Stable snake_case name, used in metrics labels and panic messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::QueuePush => "queue_push",
            FaultSite::QueuePop => "queue_pop",
            FaultSite::CacheLookup => "cache_lookup",
            FaultSite::CacheInsert => "cache_insert",
            FaultSite::TracePrepare => "trace_prepare",
            FaultSite::JobExecute => "job_execute",
            FaultSite::SocketRead => "socket_read",
            FaultSite::SocketWrite => "socket_write",
            FaultSite::JsonDecode => "json_decode",
            FaultSite::StoreRead => "store_read",
            FaultSite::StoreWrite => "store_write",
            FaultSite::AnalyzeReject => "analyze_reject",
            FaultSite::DecodeCompile => "decode_compile",
            FaultSite::SnapSeek => "snap_seek",
            FaultSite::SnapRead => "snap_read",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// The number each site's rolls are salted with. It is fixed per
    /// site, not derived from [`index`](Self::index), so that removing or
    /// reordering sites leaves every other site's seeded storm unchanged
    /// (the gaps at 13–16 are retired sites).
    fn salt(self) -> u64 {
        match self {
            FaultSite::QueuePush => 1,
            FaultSite::QueuePop => 2,
            FaultSite::CacheLookup => 3,
            FaultSite::CacheInsert => 4,
            FaultSite::TracePrepare => 5,
            FaultSite::JobExecute => 6,
            FaultSite::SocketRead => 7,
            FaultSite::SocketWrite => 8,
            FaultSite::JsonDecode => 9,
            FaultSite::StoreRead => 10,
            FaultSite::StoreWrite => 11,
            FaultSite::AnalyzeReject => 12,
            FaultSite::DecodeCompile => 17,
            FaultSite::SnapSeek => 18,
            FaultSite::SnapRead => 19,
        }
    }
}

/// A fault the call site must act on itself. Panics and delays are
/// applied inside [`FaultPlan::trip`]; errors and short reads cannot be
/// (only the site knows what "fail" or "read less" means there).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Injected {
    /// The site should fail with a spurious error.
    Error,
    /// The site should read/deliver as little as possible this call.
    ShortRead,
}

/// Per-site arming, in parts-per-million per arrival. Ranges are
/// evaluated in order: panic, error, short read, delay; their ppm values
/// should sum to at most 1,000,000.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Probability of panicking at the site.
    pub panic_ppm: u32,
    /// Probability of a spurious error.
    pub error_ppm: u32,
    /// Probability of a short read (meaningful for socket reads).
    pub short_read_ppm: u32,
    /// Probability of sleeping `delay_ms` at the site.
    pub delay_ppm: u32,
    /// Injected delay length, in milliseconds.
    pub delay_ms: u64,
}

impl FaultSpec {
    fn is_inert(self) -> bool {
        self.panic_ppm == 0
            && self.error_ppm == 0
            && self.short_read_ppm == 0
            && self.delay_ppm == 0
    }
}

/// A seeded fault-injection plan. See the module docs for the
/// determinism contract.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    armed: AtomicBool,
    specs: [FaultSpec; FaultSite::COUNT],
    /// Cap on total injections across all sites; 0 means unlimited. Once
    /// spent, the plan behaves as if disarmed (the "fuse" lets tests
    /// inject exactly one panic and then run clean).
    fuse: u64,
    arrivals: [AtomicU64; FaultSite::COUNT],
    injected: [AtomicU64; FaultSite::COUNT],
    injected_total: AtomicU64,
}

/// One xorshift64\*-style mixing step (also the finalizer of splitmix64).
fn mix(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl FaultPlan {
    /// A plan with every site unarmed and injection disabled.
    #[must_use]
    pub fn inert() -> Self {
        let mut plan = Self::new(0);
        plan.armed = AtomicBool::new(false);
        plan
    }

    /// A seeded plan with every site unarmed; arm sites with
    /// [`arm`](Self::arm).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            armed: AtomicBool::new(true),
            specs: [FaultSpec::default(); FaultSite::COUNT],
            fuse: 0,
            arrivals: std::array::from_fn(|_| AtomicU64::new(0)),
            injected: std::array::from_fn(|_| AtomicU64::new(0)),
            injected_total: AtomicU64::new(0),
        }
    }

    /// Arms one site (builder style).
    #[must_use]
    pub fn arm(mut self, site: FaultSite, spec: FaultSpec) -> Self {
        self.specs[site.index()] = spec;
        self
    }

    /// Caps total injections at `n` (builder style); 0 means unlimited.
    #[must_use]
    pub fn with_fuse(mut self, n: u64) -> Self {
        self.fuse = n;
        self
    }

    /// The canonical hostile storm used by the chaos soak test and
    /// `dee serve --chaos-seed`. Every site is armed, but socket writes
    /// only get delays (an injected write failure would destroy the
    /// response, and the storm's contract is that every connection still
    /// receives a syntactically valid HTTP response).
    #[must_use]
    pub fn hostile(seed: u64) -> Self {
        let delay = |ppm| FaultSpec {
            delay_ppm: ppm,
            delay_ms: 1,
            ..FaultSpec::default()
        };
        FaultPlan::new(seed)
            .arm(
                FaultSite::QueuePush,
                FaultSpec {
                    error_ppm: 20_000,
                    delay_ppm: 20_000,
                    delay_ms: 1,
                    ..FaultSpec::default()
                },
            )
            .arm(FaultSite::QueuePop, delay(20_000))
            .arm(
                FaultSite::CacheLookup,
                FaultSpec {
                    error_ppm: 10_000,
                    ..FaultSpec::default()
                },
            )
            .arm(
                FaultSite::CacheInsert,
                FaultSpec {
                    panic_ppm: 5_000,
                    error_ppm: 10_000,
                    ..FaultSpec::default()
                },
            )
            .arm(
                FaultSite::TracePrepare,
                FaultSpec {
                    panic_ppm: 5_000,
                    error_ppm: 10_000,
                    delay_ppm: 10_000,
                    delay_ms: 2,
                    ..FaultSpec::default()
                },
            )
            .arm(
                FaultSite::JobExecute,
                FaultSpec {
                    panic_ppm: 10_000,
                    error_ppm: 20_000,
                    delay_ppm: 50_000,
                    delay_ms: 1,
                    ..FaultSpec::default()
                },
            )
            .arm(
                FaultSite::SocketRead,
                FaultSpec {
                    error_ppm: 10_000,
                    short_read_ppm: 50_000,
                    delay_ppm: 20_000,
                    delay_ms: 1,
                    ..FaultSpec::default()
                },
            )
            .arm(FaultSite::SocketWrite, delay(20_000))
            .arm(
                FaultSite::JsonDecode,
                FaultSpec {
                    error_ppm: 10_000,
                    ..FaultSpec::default()
                },
            )
            // Store faults degrade, never fail: a tripped read skips the
            // disk tier (re-trace), a tripped write skips the publish.
            .arm(
                FaultSite::StoreRead,
                FaultSpec {
                    error_ppm: 100_000,
                    ..FaultSpec::default()
                },
            )
            .arm(
                FaultSite::StoreWrite,
                FaultSpec {
                    error_ppm: 100_000,
                    ..FaultSpec::default()
                },
            )
            .arm(
                FaultSite::AnalyzeReject,
                FaultSpec {
                    error_ppm: 10_000,
                    ..FaultSpec::default()
                },
            )
            // A tripped decode-compile degrades the miss path to the
            // interpreter; the response bytes must not change.
            .arm(
                FaultSite::DecodeCompile,
                FaultSpec {
                    error_ppm: 100_000,
                    ..FaultSpec::default()
                },
            )
            // Snapshot faults degrade, never fail: a tripped seek runs
            // the range from zero, a tripped read discards the snapshot
            // bytes and does the same. Responses must not change.
            .arm(
                FaultSite::SnapSeek,
                FaultSpec {
                    error_ppm: 100_000,
                    ..FaultSpec::default()
                },
            )
            .arm(
                FaultSite::SnapRead,
                FaultSpec {
                    error_ppm: 100_000,
                    ..FaultSpec::default()
                },
            )
    }

    /// The seed the plan was built from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Permanently disables injection (arrival counters stop advancing).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Whether the plan can still inject.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// The deterministic decision for `arrival` at `site`: a roll in
    /// `[0, 1_000_000)`.
    fn roll(&self, site: FaultSite, arrival: u64) -> u64 {
        let salt = site.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        mix(mix(self.seed ^ salt).wrapping_add(mix(arrival.wrapping_add(1)))) % 1_000_000
    }

    /// Visits `site`: possibly sleeps (delay) or panics in place, or
    /// returns an [`Injected`] fault for the caller to act on. Returns
    /// `None` — at the cost of a single atomic load — when the plan is
    /// disarmed or the site is not armed.
    ///
    /// # Panics
    ///
    /// Panics deliberately when the deterministic roll lands in the
    /// site's `panic_ppm` range. That is the point.
    pub fn trip(&self, site: FaultSite) -> Option<Injected> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        let i = site.index();
        let spec = self.specs[i];
        if spec.is_inert() {
            return None;
        }
        let arrival = self.arrivals[i].fetch_add(1, Ordering::Relaxed);
        let roll = self.roll(site, arrival);
        let panic_end = u64::from(spec.panic_ppm);
        let error_end = panic_end + u64::from(spec.error_ppm);
        let short_end = error_end + u64::from(spec.short_read_ppm);
        let delay_end = short_end + u64::from(spec.delay_ppm);
        if roll >= delay_end {
            return None;
        }
        // Something fires — burn one unit of fuse, or refuse if spent.
        if self.fuse > 0 && self.injected_total.fetch_add(1, Ordering::Relaxed) >= self.fuse {
            return None;
        }
        if self.fuse == 0 {
            self.injected_total.fetch_add(1, Ordering::Relaxed);
        }
        self.injected[i].fetch_add(1, Ordering::Relaxed);
        if roll < panic_end {
            panic!("injected fault: panic at {}", site.name());
        } else if roll < error_end {
            Some(Injected::Error)
        } else if roll < short_end {
            Some(Injected::ShortRead)
        } else {
            std::thread::sleep(Duration::from_millis(spec.delay_ms));
            None
        }
    }

    /// Injections performed at `site` so far.
    #[must_use]
    pub fn injected_at(&self, site: FaultSite) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Armed arrivals observed at `site` so far (the determinism check
    /// compares these alongside the injection counts: same seed and same
    /// traffic must mean same arrivals *and* same injections).
    #[must_use]
    pub fn arrivals_at(&self, site: FaultSite) -> u64 {
        self.arrivals[site.index()].load(Ordering::Relaxed)
    }

    /// Total injections performed.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        FaultSite::ALL.iter().map(|&s| self.injected_at(s)).sum()
    }

    /// Prometheus text exposition of the per-site injection counters,
    /// appended to the server's `/metrics` output.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(640);
        let _ = writeln!(
            out,
            "# HELP dee_faults_injected_total Faults injected by the armed FaultPlan."
        );
        let _ = writeln!(out, "# TYPE dee_faults_injected_total counter");
        for site in FaultSite::ALL {
            let _ = writeln!(
                out,
                "dee_faults_injected_total{{site=\"{}\"}} {}",
                site.name(),
                self.injected_at(site)
            );
        }
        let _ = writeln!(out, "# TYPE dee_fault_plan_armed gauge");
        let _ = writeln!(out, "dee_fault_plan_armed {}", u64::from(self.is_armed()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn always(kind: &str) -> FaultSpec {
        match kind {
            "panic" => FaultSpec {
                panic_ppm: 1_000_000,
                ..FaultSpec::default()
            },
            "error" => FaultSpec {
                error_ppm: 1_000_000,
                ..FaultSpec::default()
            },
            _ => unreachable!(),
        }
    }

    #[test]
    fn inert_plan_never_injects() {
        let plan = FaultPlan::inert();
        for _ in 0..1000 {
            assert_eq!(plan.trip(FaultSite::JobExecute), None);
        }
        assert_eq!(plan.injected_total(), 0);
    }

    #[test]
    fn unarmed_site_never_injects_even_on_armed_plan() {
        let plan = FaultPlan::new(7).arm(FaultSite::JobExecute, always("error"));
        assert_eq!(plan.trip(FaultSite::CacheLookup), None);
        assert_eq!(plan.trip(FaultSite::JobExecute), Some(Injected::Error));
    }

    #[test]
    fn same_seed_same_sequence_different_seed_differs() {
        let spec = FaultSpec {
            error_ppm: 300_000,
            short_read_ppm: 200_000,
            delay_ppm: 0,
            ..FaultSpec::default()
        };
        let a = FaultPlan::new(42).arm(FaultSite::SocketRead, spec);
        let b = FaultPlan::new(42).arm(FaultSite::SocketRead, spec);
        let c = FaultPlan::new(43).arm(FaultSite::SocketRead, spec);
        let seq = |p: &FaultPlan| -> Vec<Option<Injected>> {
            (0..256).map(|_| p.trip(FaultSite::SocketRead)).collect()
        };
        let (sa, sb, sc) = (seq(&a), seq(&b), seq(&c));
        assert_eq!(sa, sb, "same seed must replay the same fault sequence");
        assert_ne!(sa, sc, "different seeds must diverge");
        assert!(sa.iter().any(Option::is_some), "spec must actually fire");
        assert_eq!(a.injected_total(), b.injected_total());
    }

    #[test]
    fn panic_spec_panics_with_site_name() {
        let plan = FaultPlan::new(1).arm(FaultSite::TracePrepare, always("panic"));
        let err = std::panic::catch_unwind(|| plan.trip(FaultSite::TracePrepare)).unwrap_err();
        let message = err.downcast_ref::<String>().expect("string payload");
        assert!(message.contains("trace_prepare"), "{message}");
        assert_eq!(plan.injected_at(FaultSite::TracePrepare), 1);
    }

    #[test]
    fn disarm_stops_injection() {
        let plan = FaultPlan::new(5).arm(FaultSite::JobExecute, always("error"));
        assert_eq!(plan.trip(FaultSite::JobExecute), Some(Injected::Error));
        plan.disarm();
        assert_eq!(plan.trip(FaultSite::JobExecute), None);
        assert_eq!(plan.injected_total(), 1);
    }

    #[test]
    fn fuse_caps_total_injections() {
        let plan = FaultPlan::new(9)
            .arm(FaultSite::JobExecute, always("error"))
            .with_fuse(2);
        let fired: usize = (0..100)
            .filter(|_| plan.trip(FaultSite::JobExecute).is_some())
            .count();
        assert_eq!(fired, 2);
        assert_eq!(plan.injected_at(FaultSite::JobExecute), 2);
    }

    #[test]
    fn hostile_plan_fires_on_every_site_except_write_errors() {
        let plan = FaultPlan::hostile(0xC0FFEE);
        for site in FaultSite::ALL {
            let mut outcomes = Vec::new();
            for _ in 0..4000 {
                outcomes.push(std::panic::catch_unwind(|| plan.trip(site)));
            }
            assert!(
                plan.injected_at(site) > 0,
                "hostile plan never fired at {}",
                site.name()
            );
            if site == FaultSite::SocketWrite {
                assert!(
                    outcomes.iter().all(|o| matches!(o, Ok(None))),
                    "{} must only be delayed, never failed",
                    site.name()
                );
            }
        }
    }

    /// Pins the first 64 rolls of every site at the chaos suites' two
    /// seeds, 42 then 1995, as one order-sensitive fold per site. The
    /// serve and snapshot chaos suites replay these storms, so a change
    /// to a site's salt fails here first.
    #[test]
    fn seeded_storms_are_pinned_per_site() {
        const PINS: [(FaultSite, u64); 15] = [
            (FaultSite::QueuePush, 0x984b_0fe5_d25c_e59d),
            (FaultSite::QueuePop, 0x1b3e_fb45_0a65_7cab),
            (FaultSite::CacheLookup, 0x5cfe_dda3_4ec0_33ee),
            (FaultSite::CacheInsert, 0xfb74_8b0e_b6cc_9e69),
            (FaultSite::TracePrepare, 0x657d_618e_c665_12e8),
            (FaultSite::JobExecute, 0x7be3_c578_f045_6e0c),
            (FaultSite::SocketRead, 0x6271_9929_dd39_3d66),
            (FaultSite::SocketWrite, 0x01b5_4640_1aa2_097e),
            (FaultSite::JsonDecode, 0x8664_98b9_39f1_ef4f),
            (FaultSite::StoreRead, 0xdf26_c140_2878_d8a5),
            (FaultSite::StoreWrite, 0x5450_8124_c3ce_1777),
            (FaultSite::AnalyzeReject, 0x3037_658e_6319_093f),
            (FaultSite::DecodeCompile, 0xd6fc_9952_c2b8_5162),
            (FaultSite::SnapSeek, 0xaf68_03ea_c3eb_5ac4),
            (FaultSite::SnapRead, 0xc261_c92a_e8d4_d5ce),
        ];
        for (site, want) in PINS {
            let fold = [42, 1995].into_iter().fold(0u64, |acc, seed| {
                let plan = FaultPlan::new(seed);
                (0..64).fold(acc, |acc, n| {
                    acc.wrapping_mul(0x0100_0000_01B3) ^ plan.roll(site, n)
                })
            });
            assert_eq!(fold, want, "{} storm moved", site.name());
        }
    }

    #[test]
    fn metrics_exposition_lists_every_site() {
        let plan = FaultPlan::new(3).arm(FaultSite::JsonDecode, always("error"));
        let _ = plan.trip(FaultSite::JsonDecode);
        let text = plan.render_metrics();
        for site in FaultSite::ALL {
            assert!(
                text.contains(&format!("site=\"{}\"", site.name())),
                "{text}"
            );
        }
        assert!(text.contains("dee_faults_injected_total{site=\"json_decode\"} 1"));
        assert!(text.contains("dee_fault_plan_armed 1"));
    }
}
