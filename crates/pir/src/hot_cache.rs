//! Client-side hot-entry cache, keyed by table generation.
//!
//! The same power-law skew that makes the paper's hot *table* (§4.2)
//! worthwhile makes a small client-local cache of recently reconstructed rows
//! effective. The cache is **privacy-neutral by construction** — it only
//! ever stores rows the client already reconstructed from two honest answer
//! shares, and a hit merely
//! *skips* a lookup the client would otherwise issue. Hit/miss accounting is
//! client-local telemetry; nothing about cache state is ever encoded into a
//! wire query, so the servers' view is unchanged (they see fewer queries, as
//! they would for any client that asks less).
//!
//! Correctness across hot reloads hinges on the **generation key**: every
//! cached row is stamped with the table version that produced it (servers
//! stamp answers, e.g. `pir-serve`'s `AnsweredShare::table_version`). The
//! cache tracks the maximum generation it has seen; the first admit or lookup
//! carrying a newer generation clears everything from older generations, so a
//! reloaded entry can never be served from stale cache. Rows from *older*
//! generations than the current one are rejected on admit (a straggler answer
//! that raced a reload must not repopulate dead data).

use std::collections::HashMap;

/// Client-local hit/miss accounting for a [`HotEntryCache`].
///
/// These counters exist purely for capacity tuning and soak telemetry. They
/// are never transmitted: a deployment that reported them to the server
/// operator would leak the client's access skew, so harness code must keep
/// them on the client side of the wire (see the README's privacy note).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HotCacheStats {
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that fell through to a real PIR query.
    pub misses: u64,
    /// Rows admitted into the cache.
    pub admitted: u64,
    /// Admits rejected because they carried a stale generation.
    pub stale_rejected: u64,
    /// Whole-cache invalidations triggered by a generation bump.
    pub invalidations: u64,
    /// Rows evicted to make room at capacity.
    pub evictions: u64,
}

impl HotCacheStats {
    /// Hit rate over all lookups, or `None` before the first lookup.
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

/// A bounded, generation-keyed cache of reconstructed table rows.
///
/// Eviction is deterministic FIFO by admission order (a ring over admission
/// sequence numbers), so replays with the same request schedule produce the
/// same hit pattern — a property the deterministic soak harness relies on.
#[derive(Debug)]
pub struct HotEntryCache {
    capacity: usize,
    /// Generation currently represented in the cache. Starts at 0 (= empty,
    /// below any real table version, which start at 1).
    generation: u64,
    rows: HashMap<u64, Vec<u8>>,
    /// Admission order, oldest first; drives FIFO eviction.
    order: std::collections::VecDeque<u64>,
    stats: HotCacheStats,
}

impl HotEntryCache {
    /// Create a cache holding at most `capacity` rows.
    ///
    /// A zero capacity is allowed and yields a cache that never hits —
    /// useful for disabling caching through configuration without changing
    /// call sites.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            generation: 0,
            rows: HashMap::new(),
            order: std::collections::VecDeque::new(),
            stats: HotCacheStats::default(),
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The newest table generation observed so far (0 before any).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of rows currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the cache currently holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Accumulated hit/miss accounting.
    #[must_use]
    pub fn stats(&self) -> HotCacheStats {
        self.stats
    }

    /// Observe that the table has reached `generation` (e.g. from a reload
    /// notification) without looking anything up. Bumps and clears if newer.
    pub fn observe_generation(&mut self, generation: u64) {
        self.adopt_if_newer(generation);
    }

    /// Look up `index` against the newest generation the caller knows about.
    ///
    /// Passing the generation here keeps the invalidation rule in one place:
    /// a lookup that *knows* the table moved on (because a previous answer
    /// carried a newer version) first clears the stale contents, then
    /// misses. Callers that have no fresher information pass
    /// [`Self::generation`] back in.
    pub fn lookup(&mut self, index: u64, generation: u64) -> Option<Vec<u8>> {
        self.adopt_if_newer(generation);
        match self.rows.get(&index) {
            Some(row) => {
                self.stats.hits += 1;
                Some(row.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Admit a reconstructed row stamped with the `generation` that produced
    /// it. Returns `true` if the row is now cached.
    ///
    /// A newer generation clears the cache first (reload invalidation); an
    /// older one is rejected outright — a straggler answer from before a
    /// reload must not reintroduce dead data.
    pub fn admit(&mut self, index: u64, generation: u64, row: Vec<u8>) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if generation < self.generation {
            self.stats.stale_rejected += 1;
            return false;
        }
        self.adopt_if_newer(generation);
        if self.rows.insert(index, row).is_none() {
            self.order.push_back(index);
            if self.rows.len() > self.capacity {
                self.evict_oldest();
            }
        }
        self.stats.admitted += 1;
        true
    }

    fn adopt_if_newer(&mut self, generation: u64) {
        if generation > self.generation {
            if !self.rows.is_empty() {
                self.stats.invalidations += 1;
                self.rows.clear();
                self.order.clear();
            }
            self.generation = generation;
        }
    }

    fn evict_oldest(&mut self) {
        // The order queue may hold keys already displaced by a re-admit of
        // the same index; skip those until a live key surfaces.
        while let Some(oldest) = self.order.pop_front() {
            if self.rows.remove(&oldest).is_some() {
                self.stats.evictions += 1;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_after_admit_and_misses_before() {
        let mut cache = HotEntryCache::new(4);
        assert!(cache.lookup(7, 1).is_none());
        assert!(cache.admit(7, 1, vec![1, 2, 3]));
        assert_eq!(cache.lookup(7, 1), Some(vec![1, 2, 3]));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.admitted), (1, 1, 1));
        assert_eq!(stats.hit_rate(), Some(0.5));
    }

    #[test]
    fn generation_bump_invalidates_everything() {
        let mut cache = HotEntryCache::new(4);
        assert!(cache.admit(1, 1, vec![1]));
        assert!(cache.admit(2, 1, vec![2]));
        // A lookup that knows about generation 2 clears generation-1 rows.
        assert!(cache.lookup(1, 2).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.generation(), 2);
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn stale_admit_is_rejected_after_reload() {
        let mut cache = HotEntryCache::new(4);
        cache.observe_generation(3);
        // A straggler answer computed against generation 2 arrives late.
        assert!(!cache.admit(9, 2, vec![9]));
        assert!(cache.lookup(9, 3).is_none());
        assert_eq!(cache.stats().stale_rejected, 1);
    }

    #[test]
    fn newer_admit_clears_then_caches() {
        let mut cache = HotEntryCache::new(4);
        assert!(cache.admit(1, 1, vec![1]));
        assert!(cache.admit(2, 2, vec![2]));
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(1, 2).is_none());
        assert_eq!(cache.lookup(2, 2), Some(vec![2]));
    }

    #[test]
    fn eviction_is_fifo_and_deterministic() {
        let mut cache = HotEntryCache::new(2);
        assert!(cache.admit(1, 1, vec![1]));
        assert!(cache.admit(2, 1, vec![2]));
        assert!(cache.admit(3, 1, vec![3]));
        // 1 was admitted first, so it leaves first.
        assert!(cache.lookup(1, 1).is_none());
        assert_eq!(cache.lookup(2, 1), Some(vec![2]));
        assert_eq!(cache.lookup(3, 1), Some(vec![3]));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn readmitting_an_index_does_not_double_count_slots() {
        let mut cache = HotEntryCache::new(2);
        assert!(cache.admit(1, 1, vec![1]));
        assert!(cache.admit(1, 1, vec![10]));
        assert!(cache.admit(2, 1, vec![2]));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(1, 1), Some(vec![10]));
        assert_eq!(cache.lookup(2, 1), Some(vec![2]));
    }

    #[test]
    fn zero_capacity_never_caches() {
        let mut cache = HotEntryCache::new(0);
        assert!(!cache.admit(1, 1, vec![1]));
        assert!(cache.lookup(1, 1).is_none());
        assert!(cache.is_empty());
    }
}
