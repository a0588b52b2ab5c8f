//! Sharded concurrent memo table for canonical null-space costs.
//!
//! [`ShardedMemo`] is the serving layer's cache for repeat pricing requests:
//! a `CanonicalKey → u64` table split across N `Mutex<HashMap>` shards
//! selected by the key's stable [`gf2::hash_key_words`] hash. Searches do
//! not use it — their candidates rarely recur, so they price through the
//! [`EvalEngine`](crate::EvalEngine) directly — but clients that price the
//! same candidates again and again do. Because Eq. 4 costs are pure
//! functions of the (frozen) profile, the table is only ever a cache —
//! concurrent readers and writers can interleave freely and every answer
//! stays bit-identical; the worst a race can cost is one redundant
//! recomputation.
//!
//! Probes are allocation-free: the caller's [`gf2::PackedBasis`] writes its
//! key words into a stack buffer and the shard map is probed through the
//! `Borrow<[u64]>` impl of [`CanonicalKey`]; the owned boxed key is built
//! only when an entry is actually inserted.
//!
//! The handle is internally reference-counted: cloning a `ShardedMemo` gives
//! a second handle to the *same* table, which is how one application's memo
//! is shared between its serving workers. An optional entry cap bounds
//! memory: once a shard is full, further inserts are rejected (and counted),
//! trading recomputation for a hard memory ceiling — results are unaffected
//! because the table only ever caches exact values.

use std::sync::{Arc, Mutex};

use gf2::{CanonicalKey, PackedBasis};

use crate::hasher::WordMap;
use crate::FrozenKernel;

/// The shard maps hash through the crate's word hasher: a multiply per key
/// word roughly halves the probe cost on the serving hot path against
/// SipHash.
type ShardMap = WordMap<CanonicalKey, u64>;

/// Default number of shards: enough to keep a worker pool of typical width
/// from serializing on one lock, small enough that per-shard stats stay
/// readable.
pub const DEFAULT_MEMO_SHARDS: usize = 16;

/// One shard's map plus its counters, guarded together by the shard lock so
/// a probe updates both atomically.
#[derive(Debug, Default)]
struct Shard {
    map: ShardMap,
    hits: u64,
    misses: u64,
    rejected_inserts: u64,
}

#[derive(Debug)]
struct MemoInner {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry cap (`ceil(total / shards)`), `None` = unbounded.
    per_shard_capacity: Option<usize>,
    /// The configured total cap, kept for reporting.
    capacity: Option<usize>,
}

/// Aggregate counters over all shards of a [`ShardedMemo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Number of shards.
    pub shards: usize,
    /// Entries currently cached across all shards.
    pub entries: usize,
    /// Configured total entry cap, if any.
    pub capacity: Option<usize>,
    /// Probes answered from the table.
    pub hits: u64,
    /// Probes that found no entry.
    pub misses: u64,
    /// Inserts rejected because the target shard was at capacity.
    pub rejected_inserts: u64,
}

/// One shard's counters, as reported by [`ShardedMemo::shard_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoShardStats {
    /// Entries currently cached in this shard.
    pub entries: usize,
    /// Probes answered from this shard.
    pub hits: u64,
    /// Probes of this shard that found no entry.
    pub misses: u64,
    /// Inserts rejected because this shard was at capacity.
    pub rejected_inserts: u64,
}

/// A `CanonicalKey`-sharded concurrent memo of Eq. 4 costs.
///
/// # Example
///
/// ```
/// use gf2::PackedBasis;
/// use xorindex::ShardedMemo;
///
/// let memo = ShardedMemo::new();
/// let ns = PackedBasis::standard_span(16, 8..16);
/// assert_eq!(memo.probe(&ns), None);
/// memo.insert(&ns, 42);
/// assert_eq!(memo.probe(&ns), Some(42));
/// // Clones share the same table.
/// assert_eq!(memo.clone().probe(&ns), Some(42));
/// assert_eq!(memo.stats().hits, 2);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedMemo {
    inner: Arc<MemoInner>,
}

impl Default for ShardedMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedMemo {
    /// An unbounded memo with [`DEFAULT_MEMO_SHARDS`] shards.
    #[must_use]
    pub fn new() -> Self {
        Self::with_shards_and_capacity(DEFAULT_MEMO_SHARDS, None)
    }

    /// An entry-capped memo with [`DEFAULT_MEMO_SHARDS`] shards. The cap is
    /// enforced per shard as `ceil(total_entries / shards)`, so the exact
    /// ceiling is `shards · ceil(total_entries / shards)` — equal to
    /// `total_entries` when it is a multiple of the shard count, and at most
    /// one extra entry per shard otherwise. Overflowing inserts are rejected
    /// and counted; probes for rejected entries simply miss, so capped and
    /// uncapped memos return bit-identical costs — a cap only trades
    /// recomputation for a bounded footprint.
    #[must_use]
    pub fn with_capacity(total_entries: usize) -> Self {
        Self::with_shards_and_capacity(DEFAULT_MEMO_SHARDS, Some(total_entries))
    }

    /// Full-control constructor: `shards` lock domains (minimum 1) and an
    /// optional total entry cap.
    #[must_use]
    pub fn with_shards_and_capacity(shards: usize, capacity: Option<usize>) -> Self {
        let shards = shards.max(1);
        ShardedMemo {
            inner: Arc::new(MemoInner {
                shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
                per_shard_capacity: capacity.map(|total| total.div_ceil(shards)),
                capacity,
            }),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The configured total entry cap, if any.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.inner.capacity
    }

    /// Entries currently cached across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| self.lock(s).map.len())
            .sum()
    }

    /// `true` when no entry is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner
            .shards
            .iter()
            .all(|s| self.lock(s).map.is_empty())
    }

    fn lock<'a>(&self, shard: &'a Mutex<Shard>) -> std::sync::MutexGuard<'a, Shard> {
        shard.lock().expect("memo shard lock poisoned")
    }

    fn shard_of(&self, basis: &PackedBasis) -> &Mutex<Shard> {
        let index = (basis.key_hash() as usize) % self.inner.shards.len();
        &self.inner.shards[index]
    }

    /// Looks up a basis's cached cost, recording a hit or miss. The probe
    /// hashes the stack-buffered key words — no allocation on either outcome.
    #[must_use]
    pub fn probe(&self, basis: &PackedBasis) -> Option<u64> {
        let mut buf = [0u64; 65];
        let words = basis.key_words(&mut buf);
        let mut shard = self.lock(self.shard_of(basis));
        match shard.map.get(words) {
            Some(&cost) => {
                shard.hits += 1;
                Some(cost)
            }
            None => {
                shard.misses += 1;
                None
            }
        }
    }

    /// Caches a basis's cost. Returns `true` when the entry was stored,
    /// `false` when the target shard was at capacity (the rejection is
    /// counted in the shard's stats). Re-inserting an existing key always
    /// succeeds and overwrites (the value is identical by construction).
    pub fn insert(&self, basis: &PackedBasis, cost: u64) -> bool {
        let mut buf = [0u64; 65];
        let mut shard = self.lock(self.shard_of(basis));
        if let Some(cap) = self.inner.per_shard_capacity {
            // Only a genuinely new entry can overflow the shard.
            if shard.map.len() >= cap && !shard.map.contains_key(basis.key_words(&mut buf)) {
                shard.rejected_inserts += 1;
                return false;
            }
        }
        shard.map.insert(basis.canonical_key(), cost);
        true
    }

    /// The memoized cost of `basis`, computing and caching it through the
    /// kernel on a miss — the one-call serving hot path. One key
    /// serialization and one shard-selection hash cover both the probe and
    /// the insert, and the kernel runs outside the lock. Two threads racing
    /// on the same key may both compute; they cache the same value.
    ///
    /// # Panics
    ///
    /// Panics if the basis's ambient width differs from the kernel's hashed
    /// width.
    #[must_use]
    pub fn price(&self, kernel: &FrozenKernel, basis: &PackedBasis) -> u64 {
        let mut buf = [0u64; 65];
        let words = basis.key_words(&mut buf);
        let index = (gf2::hash_key_words(words) as usize) % self.inner.shards.len();
        let shard_mutex = &self.inner.shards[index];
        {
            let mut shard = self.lock(shard_mutex);
            match shard.map.get(words) {
                Some(&cost) => {
                    shard.hits += 1;
                    return cost;
                }
                None => shard.misses += 1,
            }
        }
        let cost = kernel.cost(basis);
        let mut shard = self.lock(shard_mutex);
        if let Some(cap) = self.inner.per_shard_capacity {
            if shard.map.len() >= cap && !shard.map.contains_key(words) {
                shard.rejected_inserts += 1;
                return cost;
            }
        }
        shard.map.insert(basis.canonical_key(), cost);
        cost
    }

    /// Drops every cached entry and resets all counters. Returns the number
    /// of entries dropped. Affects every handle sharing this table.
    pub fn clear(&self) -> usize {
        let mut dropped = 0;
        for shard in &self.inner.shards {
            let mut shard = self.lock(shard);
            dropped += shard.map.len();
            shard.map.clear();
            shard.hits = 0;
            shard.misses = 0;
            shard.rejected_inserts = 0;
        }
        dropped
    }

    /// Aggregate counters over all shards.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        let mut out = MemoStats {
            shards: self.inner.shards.len(),
            capacity: self.inner.capacity,
            ..MemoStats::default()
        };
        for shard in &self.inner.shards {
            let shard = self.lock(shard);
            out.entries += shard.map.len();
            out.hits += shard.hits;
            out.misses += shard.misses;
            out.rejected_inserts += shard.rejected_inserts;
        }
        out
    }

    /// Per-shard counters, in shard order.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<MemoShardStats> {
        self.inner
            .shards
            .iter()
            .map(|shard| {
                let shard = self.lock(shard);
                MemoShardStats {
                    entries: shard.map.len(),
                    hits: shard.hits,
                    misses: shard.misses,
                    rejected_inserts: shard.rejected_inserts,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConflictProfile;
    use cache_sim::BlockAddr;

    fn bases(width: usize, count: usize) -> Vec<PackedBasis> {
        (0..count)
            .map(|i| PackedBasis::standard_span(width, [i % width, (i / width + i + 1) % width]))
            .collect()
    }

    #[test]
    fn memo_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedMemo>();
        assert_send_sync::<MemoStats>();
    }

    #[test]
    fn probe_insert_roundtrip_and_stats() {
        let memo = ShardedMemo::new();
        let ns = PackedBasis::standard_span(12, 6..12);
        assert_eq!(memo.probe(&ns), None);
        assert!(memo.insert(&ns, 7));
        assert_eq!(memo.probe(&ns), Some(7));
        assert_eq!(memo.len(), 1);
        assert!(!memo.is_empty());
        let stats = memo.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.rejected_inserts, 0);
        assert_eq!(stats.shards, DEFAULT_MEMO_SHARDS);
        assert_eq!(stats.capacity, None);
        // Hits + misses aggregate across shards exactly.
        let per_shard = memo.shard_stats();
        assert_eq!(per_shard.len(), DEFAULT_MEMO_SHARDS);
        assert_eq!(per_shard.iter().map(|s| s.hits + s.misses).sum::<u64>(), 2);
    }

    #[test]
    fn clones_share_one_table_and_clear_resets_everything() {
        let memo = ShardedMemo::new();
        let handle = memo.clone();
        let ns = PackedBasis::standard_span(10, 4..10);
        assert!(memo.insert(&ns, 3));
        assert_eq!(handle.probe(&ns), Some(3));
        assert_eq!(handle.clear(), 1);
        assert_eq!(memo.probe(&ns), None);
        // clear() also reset the counters, so only the post-clear miss shows.
        assert_eq!(memo.stats().hits, 0);
        assert_eq!(memo.stats().misses, 1);
    }

    #[test]
    fn capped_memo_rejects_overflow_but_keeps_answers_exact() {
        let memo = ShardedMemo::with_shards_and_capacity(2, Some(2));
        assert_eq!(memo.capacity(), Some(2));
        let all = bases(12, 24);
        let mut stored = 0;
        for (i, b) in all.iter().enumerate() {
            if memo.insert(b, i as u64) {
                stored += 1;
            }
        }
        // Per-shard cap is 1, so at most 2 entries stick.
        assert!(memo.len() <= 2);
        assert!(stored <= 2);
        assert!(memo.stats().rejected_inserts > 0);
        // Whatever was stored answers exactly; everything else just misses.
        for (i, b) in all.iter().enumerate() {
            if let Some(cost) = memo.probe(b) {
                assert_eq!(cost, i as u64);
            }
        }
        // Re-inserting an existing key never counts as overflow.
        let existing = all
            .iter()
            .enumerate()
            .find(|(_, b)| memo.probe(b).is_some())
            .map(|(i, b)| (i, b.clone()))
            .expect("something was stored");
        let rejected_before = memo.stats().rejected_inserts;
        assert!(memo.insert(&existing.1, existing.0 as u64));
        assert_eq!(memo.stats().rejected_inserts, rejected_before);
    }

    #[test]
    fn price_computes_once_then_hits() {
        let trace = (0..100u64).map(|i| BlockAddr((i % 2) * 64));
        let profile = ConflictProfile::from_blocks(trace, 12, 64);
        let kernel = FrozenKernel::new(&profile);
        let memo = ShardedMemo::new();
        let ns = PackedBasis::standard_span(12, 6..12);
        let first = memo.price(&kernel, &ns);
        assert_eq!(first, kernel.cost(&ns));
        assert_eq!(memo.price(&kernel, &ns), first);
        assert_eq!(memo.stats().hits, 1);
        assert_eq!(memo.stats().misses, 1);
    }

    #[test]
    fn concurrent_probes_and_inserts_agree_and_account_exactly() {
        let memo = ShardedMemo::new();
        let all = bases(16, 64);
        const THREADS: usize = 8;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let memo = memo.clone();
                let all = &all;
                scope.spawn(move || {
                    for (i, b) in all.iter().enumerate() {
                        match memo.probe(b) {
                            Some(cost) => assert_eq!(cost, i as u64),
                            None => {
                                memo.insert(b, i as u64);
                            }
                        }
                    }
                });
            }
        });
        let stats = memo.stats();
        // Every probe is accounted as exactly one hit or miss.
        assert_eq!(stats.hits + stats.misses, (THREADS * all.len()) as u64);
        let distinct: std::collections::HashSet<_> =
            all.iter().map(PackedBasis::canonical_key).collect();
        assert_eq!(memo.len(), distinct.len());
    }
}
