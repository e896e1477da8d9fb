//! A sharded LRU cache of prepared traces.
//!
//! `PreparedTrace::new` — the predictor replay plus CFG/post-dominator
//! analysis — dominates the cost of a simulation request, and parameter
//! sweeps (the Fluid-Petri-Net-style limit studies the service targets)
//! re-query the same workload thousands of times with different models
//! and `E_T` values. Caching the prepared trace by what was traced (a
//! registry workload's name and scale, or an upload's content) and the
//! predictor turns every request after the first into a pure
//! `simulate()` call.
//!
//! Sharding bounds lock contention: a key maps to one of `S` independent
//! `Mutex`-guarded LRU maps, so concurrent workers only serialize when
//! they touch the same shard. Preparation itself runs *outside* the shard
//! lock, and cold keys are *single-flight*: the first worker to miss
//! marks the key pending and prepares it; racing workers for the same
//! key wait on the shard's condvar and are then served from cache (they
//! count as hits — the work was shared, not repeated).

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use dee_ilpsim::PreparedTrace;
use dee_isa::Program;
use dee_workloads::Scale;

pub use dee_vm::{fnv1a, fnv1a_words};

/// Cache key: what was traced, and the preparing predictor's name
/// ("twobit", "gshare", ...).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum CacheKey {
    /// A registry workload, by its registered name and scale. Its build
    /// is a pure function of the two, so a hit need not build it.
    Registry {
        /// The registered workload name.
        workload: String,
        /// The scale it is built at.
        scale: Scale,
        /// The predictor name.
        predictor: String,
    },
    /// An uploaded program, by content. No upload reaches a `Registry`
    /// key, even one whose listing and image equal a workload's.
    Upload {
        /// FNV-1a of the program listing.
        program: u64,
        /// FNV-1a of the initial-memory image.
        memory: u64,
        /// The predictor name.
        predictor: String,
    },
}

/// A cached preparation: the program and its prepared trace, shared by
/// reference with every request that hits.
#[derive(Debug)]
pub struct PreparedEntry {
    /// The program the trace was captured from.
    pub program: Program,
    /// The prepared trace (fully owned columnar data).
    pub prepared: PreparedTrace,
}

struct Shard {
    entries: HashMap<CacheKey, (u64, Arc<PreparedEntry>)>,
    /// Keys some worker is currently preparing (single-flight).
    pending: HashSet<CacheKey>,
}

struct ShardState {
    shard: Mutex<Shard>,
    /// Signals waiters when a pending preparation finishes (or fails).
    ready: Condvar,
}

/// The sharded LRU cache.
pub struct PreparedCache {
    shards: Vec<ShardState>,
    per_shard_capacity: usize,
    tick: AtomicU64,
}

/// Clears a key's pending mark when the preparing worker is done — on
/// success, failure, or panic — and wakes every waiter.
struct PendingGuard<'a> {
    state: &'a ShardState,
    key: CacheKey,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.state.lock().pending.remove(&self.key);
        self.state.ready.notify_all();
    }
}

impl ShardState {
    /// Locks the shard, recovering from poisoning: a worker that panicked
    /// while holding the lock cannot have left the map structurally
    /// broken (every mutation is a single HashMap/HashSet call), and
    /// refusing the whole shard forever would turn one bad request into a
    /// denial of service for every key that hashes there.
    fn lock(&self) -> MutexGuard<'_, Shard> {
        self.shard.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl PreparedCache {
    /// Creates a cache holding roughly `total_entries` across `shards`
    /// shards (each shard gets the ceiling share, minimum 1).
    ///
    /// # Panics
    ///
    /// Panics when `total_entries` or `shards` is zero.
    #[must_use]
    pub fn new(total_entries: usize, shards: usize) -> Self {
        assert!(total_entries >= 1, "cache needs at least one entry");
        assert!(shards >= 1, "cache needs at least one shard");
        let per_shard_capacity = total_entries.div_ceil(shards);
        PreparedCache {
            shards: (0..shards)
                .map(|_| ShardState {
                    shard: Mutex::new(Shard {
                        entries: HashMap::new(),
                        pending: HashSet::new(),
                    }),
                    ready: Condvar::new(),
                })
                .collect(),
            per_shard_capacity,
            tick: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &ShardState {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() % self.shards.len() as u64) as usize]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up `key`, refreshing its recency on a hit.
    #[must_use]
    pub fn get(&self, key: &CacheKey) -> Option<Arc<PreparedEntry>> {
        let mut shard = self.shard(key).lock();
        let tick = self.next_tick();
        shard.entries.get_mut(key).map(|(last_used, entry)| {
            *last_used = tick;
            Arc::clone(entry)
        })
    }

    /// Inserts `entry`, evicting the least-recently-used entry of the
    /// shard when it is at capacity. Returns the shared handle.
    pub fn insert(&self, key: CacheKey, entry: PreparedEntry) -> Arc<PreparedEntry> {
        let entry = Arc::new(entry);
        let mut shard = self.shard(&key).lock();
        if shard.entries.len() >= self.per_shard_capacity && !shard.entries.contains_key(&key) {
            if let Some(victim) = shard
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&victim);
            }
        }
        let tick = self.next_tick();
        shard.entries.insert(key, (tick, Arc::clone(&entry)));
        entry
    }

    /// Looks up `key`, preparing and inserting on a miss. Returns the
    /// entry and whether it was a hit. Preparation runs outside the shard
    /// lock and is single-flight per key: racing callers block until the
    /// first caller's preparation lands, then read it as a hit. If the
    /// preparation fails, one waiter takes over as the new preparer.
    ///
    /// # Errors
    ///
    /// Propagates the preparation error (program did not parse, VM fault,
    /// ...).
    pub fn get_or_insert_with(
        &self,
        key: CacheKey,
        prepare: impl FnOnce() -> Result<PreparedEntry, String>,
    ) -> Result<(Arc<PreparedEntry>, bool), String> {
        let state = self.shard(&key);
        {
            let mut shard = state.lock();
            loop {
                let tick = self.next_tick();
                if let Some((last_used, entry)) = shard.entries.get_mut(&key) {
                    *last_used = tick;
                    return Ok((Arc::clone(entry), true));
                }
                if !shard.pending.contains(&key) {
                    shard.pending.insert(key.clone());
                    break;
                }
                shard = state
                    .ready
                    .wait(shard)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        // We are the single preparer; the guard clears the pending mark
        // and wakes waiters however this exits.
        let _pending = PendingGuard {
            state,
            key: key.clone(),
        };
        let entry = prepare()?;
        Ok((self.insert(key, entry), false))
    }

    /// Total entries currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry (pending preparations are unaffected).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().entries.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dee_isa::{Assembler, Reg};
    use dee_vm::trace_program;

    fn entry(n: i32) -> PreparedEntry {
        let mut asm = Assembler::new();
        asm.li(Reg::new(1), n);
        asm.out(Reg::new(1));
        asm.halt();
        let program = asm.assemble().unwrap();
        let trace = trace_program(&program, &[], 100).unwrap();
        let prepared = PreparedTrace::new(&program, &trace);
        PreparedEntry { program, prepared }
    }

    fn key(n: u64) -> CacheKey {
        CacheKey::Upload {
            program: n,
            memory: 0,
            predictor: String::new(),
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = PreparedCache::new(8, 2);
        let (_, hit) = cache.get_or_insert_with(key(1), || Ok(entry(1))).unwrap();
        assert!(!hit);
        let (e, hit) = cache
            .get_or_insert_with(key(1), || panic!("must not prepare"))
            .unwrap();
        assert!(hit);
        assert_eq!(e.prepared.output(), &[1]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn prepare_errors_propagate_and_cache_nothing() {
        let cache = PreparedCache::new(4, 1);
        let err = cache.get_or_insert_with(key(9), || Err("boom".into()));
        assert_eq!(err.err(), Some("boom".to_string()));
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PreparedCache::new(2, 1);
        cache.insert(key(1), entry(1));
        cache.insert(key(2), entry(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), entry(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn fnv_is_stable_and_distinguishes() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a_words(&[1, 2]), fnv1a_words(&[2, 1]));
        assert_eq!(fnv1a_words(&[]), fnv1a(b""));
    }

    #[test]
    fn cold_key_is_prepared_exactly_once_under_contention() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cache = std::sync::Arc::new(PreparedCache::new(8, 2));
        let preparations = std::sync::Arc::new(AtomicU64::new(0));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = std::sync::Arc::clone(&cache);
                let preparations = std::sync::Arc::clone(&preparations);
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let (_, hit) = cache
                        .get_or_insert_with(key(42), || {
                            preparations.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(entry(42))
                        })
                        .unwrap();
                    hit
                })
            })
            .collect();
        let hits = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&hit| hit)
            .count();
        assert_eq!(preparations.load(Ordering::SeqCst), 1, "single-flight");
        assert_eq!(hits, 7, "waiters are served from cache as hits");
    }

    #[test]
    fn failed_preparation_hands_off_to_a_waiter() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cache = std::sync::Arc::new(PreparedCache::new(8, 2));
        let attempts = std::sync::Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = std::sync::Arc::clone(&cache);
                let attempts = std::sync::Arc::clone(&attempts);
                std::thread::spawn(move || {
                    cache.get_or_insert_with(key(7), || {
                        // First attempt fails; a waiter must retry.
                        if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                            Err("transient".into())
                        } else {
                            Ok(entry(7))
                        }
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
        assert!(results.iter().filter(|r| r.is_ok()).count() >= 1);
        assert!(cache.get(&key(7)).is_some());
    }

    #[test]
    fn sharded_concurrent_access_is_consistent() {
        let cache = std::sync::Arc::new(PreparedCache::new(32, 4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..32u64 {
                        let k = key(i % 8);
                        let (e, _) = cache
                            .get_or_insert_with(k, || Ok(entry((i % 8) as i32)))
                            .unwrap();
                        assert_eq!(e.prepared.output(), &[(i % 8) as i32], "thread {t}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= 8);
    }
}
