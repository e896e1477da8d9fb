//! A data-cache model — the "suitable memory system" the paper defers to
//! future work (§1.2: "In the future, explicitly limited Processing
//! Elements, non-unit latencies, and a suitable memory system will be
//! studied").
//!
//! The crate provides a classic set-associative, LRU, write-allocate cache
//! ([`Cache`]) and a [`MemoryHierarchy`] that converts a dynamic trace's
//! memory accesses into per-access latencies ([`annotate_latencies`]).
//! `dee-ilpsim` accepts those latencies via
//! `PreparedTrace::with_mem_latencies`, closing the loop: the DEE models
//! can be evaluated above a finite memory system instead of the paper's
//! single-cycle ideal.
//!
//! # Example
//!
//! ```
//! use dee_mem::{annotate_latencies, CacheConfig, MemoryHierarchy};
//! use dee_workloads::{compress, Scale};
//!
//! let w = compress::build(Scale::Tiny);
//! let trace = w.capture_trace().expect("runs");
//! let mut hierarchy = MemoryHierarchy::new(CacheConfig::default(), 1, 10);
//! let lats = annotate_latencies(&trace, &mut hierarchy);
//! assert_eq!(lats.len(), trace.len());
//! assert!(hierarchy.stats().hit_rate() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dee_vm::Trace;

/// Geometry of a set-associative cache (word-addressed, like the ISA).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Words per line (power of two).
    pub line_words: u32,
}

impl CacheConfig {
    /// Total capacity in words.
    #[must_use]
    pub fn capacity_words(&self) -> u32 {
        self.sets * self.ways * self.line_words
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a message when a field is zero or not a power of two where
    /// required.
    pub fn validate(&self) -> Result<(), String> {
        if self.sets == 0 || !self.sets.is_power_of_two() {
            return Err(format!(
                "sets = {} must be a nonzero power of two",
                self.sets
            ));
        }
        if self.line_words == 0 || !self.line_words.is_power_of_two() {
            return Err(format!(
                "line_words = {} must be a nonzero power of two",
                self.line_words
            ));
        }
        if self.ways == 0 {
            return Err("ways must be nonzero".into());
        }
        Ok(())
    }
}

impl Default for CacheConfig {
    /// An early-90s 8 KiB direct-mapped-ish data cache: 128 sets × 2 ways
    /// × 8 words.
    fn default() -> Self {
        CacheConfig {
            sets: 128,
            ways: 2,
            line_words: 8,
        }
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
}

impl CacheStats {
    /// Fraction of accesses that hit (1.0 for no accesses).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }
}

/// A set-associative, LRU, write-allocate cache over word addresses.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `tags[set][way]`: tag or `u32::MAX` when invalid.
    tags: Vec<Vec<u32>>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<Vec<u64>>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        config.validate().expect("valid cache configuration");
        Cache {
            config,
            tags: vec![vec![u32::MAX; config.ways as usize]; config.sets as usize],
            stamps: vec![vec![0; config.ways as usize]; config.sets as usize],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses word `addr`; returns whether it hit, allocating on miss.
    pub fn access(&mut self, addr: u32) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let line = addr / self.config.line_words;
        let set = (line % self.config.sets) as usize;
        let tag = line / self.config.sets;

        if let Some(way) = self.tags[set].iter().position(|&t| t == tag) {
            self.stamps[set][way] = self.clock;
            self.stats.hits += 1;
            return true;
        }
        // Miss: replace the LRU way.
        let victim = (0..self.tags[set].len())
            .min_by_key(|&w| self.stamps[set][w])
            .expect("at least one way");
        self.tags[set][victim] = tag;
        self.stamps[set][victim] = self.clock;
        false
    }

    /// Running counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// A single-level data-cache hierarchy assigning per-access latencies.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    cache: Cache,
    hit_latency: u32,
    miss_latency: u32,
}

impl MemoryHierarchy {
    /// Creates a hierarchy with the given hit and miss latencies (cycles).
    ///
    /// # Panics
    ///
    /// Panics when the cache configuration is invalid or a latency is
    /// zero.
    #[must_use]
    pub fn new(config: CacheConfig, hit_latency: u32, miss_latency: u32) -> Self {
        assert!(
            hit_latency >= 1 && miss_latency >= hit_latency,
            "latencies ordered"
        );
        MemoryHierarchy {
            cache: Cache::new(config),
            hit_latency,
            miss_latency,
        }
    }

    /// A perfect memory: every access takes `latency` cycles.
    #[must_use]
    pub fn perfect(latency: u32) -> Self {
        // A 1-set, 1-way dummy cache; latencies equal so it never matters.
        MemoryHierarchy {
            cache: Cache::new(CacheConfig {
                sets: 1,
                ways: 1,
                line_words: 1,
            }),
            hit_latency: latency,
            miss_latency: latency,
        }
    }

    /// Latency of an access to `addr`, updating cache state.
    pub fn access(&mut self, addr: u32) -> u32 {
        if self.cache.access(addr) {
            self.hit_latency
        } else {
            self.miss_latency
        }
    }

    /// Cache counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// Runs `trace`'s memory accesses (in dynamic order) through `hierarchy`,
/// returning one latency per record: the access latency for loads and
/// stores, 0 for everything else. Feed the result to
/// `dee_ilpsim::PreparedTrace::with_mem_latencies`.
#[must_use]
pub fn annotate_latencies(trace: &Trace, hierarchy: &mut MemoryHierarchy) -> Vec<u32> {
    trace
        .records()
        .map(|record| match record.mem_read.or(record.mem_write) {
            Some(addr) => hierarchy.access(addr),
            None => 0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache() -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_words: 4,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny_cache();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(3), "same line");
        assert!(!c.access(4), "next line");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_replacement_evicts_oldest() {
        let mut c = tiny_cache(); // 2 sets x 2 ways x 4 words; set = line % 2
                                  // Lines 0, 2, 4 all map to set 0 (even lines).
        assert!(!c.access(0)); // line 0 -> set 0
        assert!(!c.access(8)); // line 2 -> set 0
        assert!(!c.access(16)); // line 4 -> set 0, evicts line 0
        assert!(!c.access(0), "line 0 was evicted");
        assert!(c.access(16), "line 4 still resident");
    }

    #[test]
    fn associativity_keeps_conflicting_lines() {
        let direct = CacheConfig {
            sets: 4,
            ways: 1,
            line_words: 1,
        };
        let assoc = CacheConfig {
            sets: 4,
            ways: 2,
            line_words: 1,
        };
        let mut d = Cache::new(direct);
        let mut a = Cache::new(assoc);
        // Two addresses conflicting in the same set, alternated.
        for _ in 0..10 {
            d.access(0);
            d.access(4);
            a.access(0);
            a.access(4);
        }
        assert_eq!(d.stats().hits, 0, "direct-mapped thrashes");
        assert_eq!(a.stats().hits, 18, "2-way keeps both");
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig {
            sets: 3,
            ways: 1,
            line_words: 1
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            sets: 4,
            ways: 0,
            line_words: 1
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            sets: 4,
            ways: 1,
            line_words: 3
        }
        .validate()
        .is_err());
        assert!(CacheConfig::default().validate().is_ok());
        assert_eq!(CacheConfig::default().capacity_words(), 2048);
    }

    #[test]
    #[should_panic(expected = "valid cache configuration")]
    fn cache_rejects_bad_config() {
        let _ = Cache::new(CacheConfig {
            sets: 0,
            ways: 1,
            line_words: 1,
        });
    }

    #[test]
    fn hierarchy_latencies() {
        let mut h = MemoryHierarchy::new(
            CacheConfig {
                sets: 2,
                ways: 1,
                line_words: 4,
            },
            1,
            12,
        );
        assert_eq!(h.access(0), 12, "cold miss");
        assert_eq!(h.access(1), 1, "line hit");
        assert!(h.stats().hit_rate() > 0.4);
    }

    #[test]
    fn perfect_memory_is_flat() {
        let mut h = MemoryHierarchy::perfect(2);
        for addr in [0u32, 1000, 54321, 0] {
            assert_eq!(h.access(addr), 2);
        }
    }

    #[test]
    fn annotation_aligns_with_records() {
        let w = dee_workloads::compress::build(dee_workloads::Scale::Tiny);
        let trace = w.capture_trace().expect("runs");
        let mut h = MemoryHierarchy::new(CacheConfig::default(), 1, 10);
        let lats = annotate_latencies(&trace, &mut h);
        assert_eq!(lats.len(), trace.len());
        for (lat, rec) in lats.iter().zip(trace.records()) {
            if rec.mem_read.is_some() || rec.mem_write.is_some() {
                assert!(*lat == 1 || *lat == 10);
            } else {
                assert_eq!(*lat, 0);
            }
        }
        let stats = h.stats();
        assert_eq!(
            stats.accesses as usize,
            trace
                .records()
                .filter(|r| r.mem_read.is_some() || r.mem_write.is_some())
                .count()
        );
        // LZW's hash table has strong locality.
        assert!(stats.hit_rate() > 0.6, "hit rate {}", stats.hit_rate());
    }
}

#[cfg(test)]
mod proptests {
    //! Property tests over a deterministic xorshift sweep (the repo builds
    //! with no external crates, so no `proptest`; failures print the seed).
    use super::*;
    use dee_rng::Rng;

    /// 1 to `max_len` word addresses below `bound`.
    fn addrs(rng: &mut Rng, bound: u32, max_len: usize) -> Vec<u32> {
        let len = 1 + rng.below(max_len);
        (0..len).map(|_| rng.below(bound as usize) as u32).collect()
    }

    /// Hits never exceed accesses; every access is counted.
    #[test]
    fn stats_sane() {
        let mut rng = Rng::from_state(0x5eed_0003);
        for case in 0..128 {
            let addrs = addrs(&mut rng, 4096, 200);
            let mut c = Cache::new(CacheConfig::default());
            for &a in &addrs {
                c.access(a);
            }
            let s = c.stats();
            assert!(s.hits <= s.accesses, "case {case}");
            assert_eq!(s.accesses, addrs.len() as u64, "case {case}");
        }
    }

    /// A larger cache never has fewer hits on the same address stream
    /// (LRU inclusion property across way counts).
    #[test]
    fn more_ways_never_hurt() {
        let mut rng = Rng::from_state(0x5eed_0004);
        for case in 0..128 {
            let addrs = addrs(&mut rng, 256, 300);
            let small = CacheConfig {
                sets: 8,
                ways: 1,
                line_words: 2,
            };
            let big = CacheConfig {
                sets: 8,
                ways: 4,
                line_words: 2,
            };
            let mut c_small = Cache::new(small);
            let mut c_big = Cache::new(big);
            for &a in &addrs {
                c_small.access(a);
                c_big.access(a);
            }
            assert!(c_big.stats().hits >= c_small.stats().hits, "case {case}");
        }
    }
}
