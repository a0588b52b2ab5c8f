//! The set-associative cache simulator.

use crate::replacement::{CacheSet, SetAccess};
use crate::{
    Address, BlockAddr, CacheConfig, CacheError, CacheStats, IndexFunction, MissClass,
    MissClassifier,
};

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The block was resident.
    Hit,
    /// The block was not resident and has been fetched.
    Miss,
}

impl AccessOutcome {
    /// `true` for a hit.
    #[must_use]
    pub fn is_hit(self) -> bool {
        self == AccessOutcome::Hit
    }

    /// `true` for a miss.
    #[must_use]
    pub fn is_miss(self) -> bool {
        self == AccessOutcome::Miss
    }
}

/// A trace-driven set-associative cache with a pluggable index function.
///
/// Residency is tracked by full block address, so simulation results are
/// correct for *any* index function without modelling the tag function (the
/// tag-function hardware question is treated separately by the cost model in
/// the `xorindex` crate).
///
/// # Example
///
/// ```
/// use cache_sim::{Cache, CacheConfig, XorIndex};
/// use gf2::BitMatrix;
///
/// let config = CacheConfig::paper_cache(1);
/// // s_c = a_c ^ a_{c+8}: a permutation-based XOR function.
/// let matrix = BitMatrix::from_fn(16, 8, |r, c| r == c || r == c + 8);
/// let mut cache = Cache::new(config, XorIndex::new(matrix));
/// cache.access_addr(0x0000);
/// cache.access_addr(0x0400); // would conflict under modulo indexing
/// assert_eq!(cache.access_addr(0x0000).is_hit(), true);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    index_fn: Box<dyn IndexFunction>,
    sets: Vec<CacheSet>,
    stats: CacheStats,
    classifier: Option<MissClassifier>,
    set_conflicts: Option<Vec<u64>>,
}

impl Cache {
    /// Creates an LRU cache.
    ///
    /// # Panics
    ///
    /// Panics if the index function's set count does not match the
    /// configuration; use [`Cache::try_new`] for a fallible version.
    #[must_use]
    pub fn new<I: IndexFunction + 'static>(config: CacheConfig, index_fn: I) -> Self {
        Self::try_new(config, index_fn).expect("index function must match the cache geometry")
    }

    /// Creates a cache, validating that the index function targets exactly the
    /// cache's number of sets.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::IndexFunctionMismatch`] when the set counts differ.
    pub fn try_new<I: IndexFunction + 'static>(
        config: CacheConfig,
        index_fn: I,
    ) -> Result<Self, CacheError> {
        if index_fn.num_sets() != config.num_sets() {
            return Err(CacheError::IndexFunctionMismatch {
                expected_sets: config.num_sets(),
                actual_sets: index_fn.num_sets(),
            });
        }
        let sets = (0..config.num_sets())
            .map(|_| CacheSet::new(config.associativity() as usize))
            .collect();
        Ok(Cache {
            config,
            index_fn: Box::new(index_fn),
            sets,
            stats: CacheStats::new(),
            classifier: None,
            set_conflicts: None,
        })
    }

    /// Enables 3C miss classification (compulsory / capacity / conflict).
    ///
    /// Classification maintains an unbounded LRU stack, which costs extra time
    /// and memory proportional to the trace footprint, so it is off by default.
    #[must_use]
    pub fn with_classification(mut self) -> Self {
        self.classifier = Some(MissClassifier::new(self.config.num_blocks() as usize));
        self
    }

    /// Enables a per-set conflict-miss breakdown on top of 3C classification
    /// (implies [`Cache::with_classification`]).
    ///
    /// Each conflict miss is attributed to the set the missing block indexed
    /// into, so a verification report can localize *where* an index function
    /// still collides. The per-set counters always sum to the aggregate
    /// [`CacheStats::conflict_misses`] counter.
    #[must_use]
    pub fn with_set_conflict_tracking(mut self) -> Self {
        if self.classifier.is_none() {
            self.classifier = Some(MissClassifier::new(self.config.num_blocks() as usize));
        }
        self.set_conflicts = Some(vec![0; self.config.num_sets() as usize]);
        self
    }

    /// Short description of the index function in use.
    #[must_use]
    pub fn index_description(&self) -> String {
        self.index_fn.describe()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Per-set conflict-miss counters, or `None` when
    /// [`Cache::with_set_conflict_tracking`] was not enabled.
    #[must_use]
    pub fn set_conflicts(&self) -> Option<&[u64]> {
        self.set_conflicts.as_deref()
    }

    /// The sets that still collide, as `(set index, conflict misses)` pairs in
    /// ascending set order with zero entries skipped. Empty when tracking is
    /// off or nothing conflicted.
    #[must_use]
    pub fn nonzero_set_conflicts(&self) -> Vec<(u32, u64)> {
        self.set_conflicts
            .as_deref()
            .unwrap_or(&[])
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count != 0)
            .map(|(set, &count)| (set as u32, count))
            .collect()
    }

    /// `true` when the block is currently resident.
    #[must_use]
    pub fn contains_block(&self, block: BlockAddr) -> bool {
        let set = self.index_fn.set_index(block) as usize;
        self.sets[set].contains(block.as_u64())
    }

    /// Accesses a byte address.
    pub fn access_addr<A: Into<Address>>(&mut self, addr: A) -> AccessOutcome {
        let block = addr.into().block(self.config.block_bits());
        self.access_block(block)
    }

    /// Accesses a block address.
    pub fn access_block(&mut self, block: BlockAddr) -> AccessOutcome {
        let reuse = self.classifier.as_mut().map(|c| c.observe(block));
        let set = self.index_fn.set_index(block) as usize;
        debug_assert!(set < self.sets.len(), "index function out of range");
        match self.sets[set].access(block.as_u64()) {
            SetAccess::Hit => {
                self.stats.record_hit();
                AccessOutcome::Hit
            }
            outcome @ (SetAccess::MissFilled | SetAccess::MissEvicted(_)) => {
                let class = reuse.map(MissClassifier::classify_miss);
                if class == Some(MissClass::Conflict) {
                    if let Some(counters) = &mut self.set_conflicts {
                        counters[set] += 1;
                    }
                }
                self.stats
                    .record_miss(class, matches!(outcome, SetAccess::MissEvicted(_)));
                AccessOutcome::Miss
            }
        }
    }

    /// Runs a whole block-address trace through the cache and returns the
    /// statistics gathered **for this call only** (the cache's cumulative
    /// statistics also advance).
    pub fn simulate_blocks<I>(&mut self, blocks: I) -> CacheStats
    where
        I: IntoIterator<Item = BlockAddr>,
    {
        let before = self.stats;
        for b in blocks {
            self.access_block(b);
        }
        CacheStats {
            accesses: self.stats.accesses - before.accesses,
            hits: self.stats.hits - before.hits,
            misses: self.stats.misses - before.misses,
            compulsory_misses: self.stats.compulsory_misses - before.compulsory_misses,
            capacity_misses: self.stats.capacity_misses - before.capacity_misses,
            conflict_misses: self.stats.conflict_misses - before.conflict_misses,
            evictions: self.stats.evictions - before.evictions,
        }
    }

    /// Invalidates all resident blocks but keeps statistics and history.
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.flush();
        }
    }

    /// Clears contents, statistics and classification history.
    pub fn reset(&mut self) {
        self.flush();
        self.stats = CacheStats::new();
        if let Some(c) = &mut self.classifier {
            c.reset();
        }
        if let Some(counters) = &mut self.set_conflicts {
            counters.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitSelectIndex, ModuloIndex, XorIndex};
    use gf2::BitMatrix;

    fn dm_1kb() -> CacheConfig {
        CacheConfig::paper_cache(1)
    }

    #[test]
    fn mismatched_index_function_is_rejected() {
        let config = dm_1kb();
        let wrong = ModuloIndex::new(4); // 16 sets, cache has 256
        assert!(matches!(
            Cache::try_new(config, wrong),
            Err(CacheError::IndexFunctionMismatch {
                expected_sets: 256,
                actual_sets: 16
            })
        ));
    }

    #[test]
    fn conflicting_strided_accesses_thrash_a_direct_mapped_cache() {
        let config = dm_1kb();
        let mut cache = Cache::new(config, ModuloIndex::for_config(&config));
        assert!(cache.index_description().contains("modulo"));
        // Alternate between two addresses 1 KB apart: every access misses.
        for _ in 0..10 {
            assert_eq!(cache.access_addr(0x0000u64), AccessOutcome::Miss);
            assert_eq!(cache.access_addr(0x0400u64), AccessOutcome::Miss);
        }
        assert_eq!(cache.stats().misses, 20);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn xor_indexing_removes_the_power_of_two_conflict() {
        let config = dm_1kb();
        let matrix = BitMatrix::from_fn(16, 8, |r, c| r == c || r == c + 8);
        let mut cache = Cache::new(config, XorIndex::new(matrix));
        cache.access_addr(0x0000u64);
        cache.access_addr(0x0400u64);
        for _ in 0..10 {
            assert!(cache.access_addr(0x0000u64).is_hit());
            assert!(cache.access_addr(0x0400u64).is_hit());
        }
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn classification_splits_misses_into_3cs() {
        let config = CacheConfig::builder()
            .size_bytes(16)
            .block_bytes(4)
            .associativity(1)
            .build()
            .unwrap();
        let mut cache = Cache::new(config, ModuloIndex::for_config(&config)).with_classification();
        // 4-block cache. Blocks 0 and 4 conflict (same set); blocks 0..8 wrap
        // around capacity.
        let trace: Vec<u64> = vec![0, 4, 0, 4, 1, 2, 3, 5, 6, 7, 0];
        let stats = cache.simulate_blocks(trace.into_iter().map(BlockAddr));
        assert_eq!(stats.misses, stats.classified_misses());
        assert!(stats.compulsory_misses >= 8); // 8 distinct blocks
        assert!(stats.conflict_misses >= 2); // the 0/4 ping-pong
        assert_eq!(stats.accesses, 11);
    }

    #[test]
    fn per_set_conflicts_sum_to_the_aggregate_counter() {
        let config = CacheConfig::builder()
            .size_bytes(16)
            .block_bytes(4)
            .associativity(1)
            .build()
            .unwrap();
        let mut cache =
            Cache::new(config, ModuloIndex::for_config(&config)).with_set_conflict_tracking();
        // Blocks 0 and 4 ping-pong in set 0; blocks 1 and 5 in set 1.
        let trace: Vec<u64> = vec![0, 4, 0, 4, 0, 1, 5, 1, 5, 1];
        let stats = cache.simulate_blocks(trace.into_iter().map(BlockAddr));
        assert!(stats.conflict_misses > 0, "the ping-pongs must conflict");
        let per_set = cache.set_conflicts().expect("tracking enabled");
        assert_eq!(per_set.len(), config.num_sets() as usize);
        assert_eq!(per_set.iter().sum::<u64>(), stats.conflict_misses);
        // Only sets 0 and 1 were ever indexed, so only they may conflict.
        assert!(per_set[2..].iter().all(|&c| c == 0));
        let nonzero = cache.nonzero_set_conflicts();
        assert_eq!(
            nonzero.iter().map(|&(_, c)| c).sum::<u64>(),
            stats.conflict_misses
        );
        assert!(nonzero.iter().all(|&(set, _)| set < 2));
        // Windows are sorted and deduplicated by construction.
        assert!(nonzero.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn set_conflict_tracking_implies_classification_and_resets() {
        let config = CacheConfig::builder()
            .size_bytes(16)
            .block_bytes(4)
            .associativity(1)
            .build()
            .unwrap();
        let mut cache =
            Cache::new(config, ModuloIndex::for_config(&config)).with_set_conflict_tracking();
        let trace: Vec<u64> = vec![0, 4, 0, 4];
        let stats = cache.simulate_blocks(trace.into_iter().map(BlockAddr));
        // Tracking turned classification on even without with_classification().
        assert_eq!(stats.classified_misses(), stats.misses);
        assert!(!cache.nonzero_set_conflicts().is_empty());
        cache.reset();
        assert!(cache.nonzero_set_conflicts().is_empty());
        assert_eq!(cache.set_conflicts().unwrap().iter().sum::<u64>(), 0);
    }

    #[test]
    fn untracked_cache_reports_no_per_set_counters() {
        let config = dm_1kb();
        let mut cache = Cache::new(config, ModuloIndex::for_config(&config));
        cache.access_block(BlockAddr(0));
        assert!(cache.set_conflicts().is_none());
        assert!(cache.nonzero_set_conflicts().is_empty());
    }

    #[test]
    fn simulate_returns_stats_delta_only() {
        let config = dm_1kb();
        let mut cache = Cache::new(config, ModuloIndex::for_config(&config));
        let first = cache.simulate_blocks((0..100).map(BlockAddr));
        assert_eq!(first.accesses, 100);
        let second = cache.simulate_blocks((0..100).map(BlockAddr));
        assert_eq!(second.accesses, 100);
        assert_eq!(second.misses, 0, "everything fits and is now resident");
        assert_eq!(cache.stats().accesses, 200);
    }

    #[test]
    fn flush_invalidates_but_keeps_stats() {
        let config = dm_1kb();
        let mut cache = Cache::new(config, ModuloIndex::for_config(&config));
        cache.access_block(BlockAddr(1));
        assert!(cache.contains_block(BlockAddr(1)));
        cache.flush();
        assert!(!cache.contains_block(BlockAddr(1)));
        assert_eq!(cache.stats().accesses, 1);
        cache.reset();
        assert_eq!(cache.stats().accesses, 0);
    }

    #[test]
    fn set_associative_cache_uses_lru_within_the_set() {
        let config = CacheConfig::builder()
            .size_bytes(64)
            .block_bytes(4)
            .associativity(2)
            .build()
            .unwrap();
        let mut cache = Cache::new(config, ModuloIndex::for_config(&config));
        // Set 0 holds blocks whose low 3 bits are 0: blocks 0, 8, 16, ...
        cache.access_block(BlockAddr(0));
        cache.access_block(BlockAddr(8));
        assert!(cache.access_block(BlockAddr(0)).is_hit());
        // Inserting a third block evicts LRU block 8.
        cache.access_block(BlockAddr(16));
        assert!(cache.contains_block(BlockAddr(0)));
        assert!(!cache.contains_block(BlockAddr(8)));
    }

    #[test]
    fn bit_select_index_changes_the_conflict_pattern() {
        let config = dm_1kb();
        // Selecting bits 8..16 of the block address makes blocks 0 and 0x100
        // (1 KB apart as byte addresses = 0x100 blocks) map to different sets.
        let select: Vec<usize> = (8..16).collect();
        let mut cache = Cache::new(config, BitSelectIndex::new(select));
        cache.access_block(BlockAddr(0x000));
        cache.access_block(BlockAddr(0x100));
        assert!(cache.access_block(BlockAddr(0x000)).is_hit());
    }

    #[test]
    fn access_addr_groups_bytes_into_blocks() {
        let config = dm_1kb();
        let mut cache = Cache::new(config, ModuloIndex::for_config(&config));
        assert!(cache.access_addr(0x100u64).is_miss());
        // Same 4-byte block.
        assert!(cache.access_addr(0x102u64).is_hit());
        assert!(cache.access_addr(0x103u64).is_hit());
        // Next block.
        assert!(cache.access_addr(0x104u64).is_miss());
    }
}
