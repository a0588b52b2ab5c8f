//! Allocation-free LRU tag arrays for the fast replay engine.
//!
//! The general-purpose `CacheSet` keeps one `Vec<u64>` per set and reorders it
//! with `remove`/`push` on every access. That is flexible (any associativity)
//! but costs an allocation per set and memmove traffic per touch.
//! For the replay fast path — LRU only, associativity ≤ [`COMPACT_MAX_WAYS`] —
//! [`CompactSets`] stores every set's tags in one flat array with the recency
//! order packed in place, so a whole cache's simulation state is two
//! allocations total and each access is a short in-register scan.
//!
//! The replay's direct-mapped lanes need no recency order and keep one bare
//! tag per set instead.
//!
//! The hit/fill/evict outcomes are bit-identical to `CacheSet` under LRU:
//! tags are kept least-recently-used first within each set's occupied prefix,
//! a hit rotates the touched tag to the most-recently-used end, and an
//! eviction drops the front.

/// Largest associativity the compact tag arrays support. Beyond this the
/// linear within-set scan stops being a clear win and callers should fall
/// back to the general simulator.
pub const COMPACT_MAX_WAYS: u32 = 8;

/// Outcome of one access to a [`CompactSets`] set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactAccess {
    /// The block was already resident.
    Hit,
    /// The block was inserted into a free way.
    MissFilled,
    /// The block was inserted after evicting the LRU resident.
    MissEvicted,
}

/// Flat LRU tag storage for `num_sets × ways` blocks.
#[derive(Debug, Clone)]
pub struct CompactSets {
    /// `num_sets × ways` tags; within a set the occupied prefix is ordered
    /// least-recently-used first.
    tags: Vec<u64>,
    /// Occupied ways per set.
    occupancy: Vec<u8>,
    ways: usize,
}

impl CompactSets {
    /// Creates empty tag arrays for `num_sets` sets of `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds [`COMPACT_MAX_WAYS`].
    #[must_use]
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(
            ways >= 1 && ways <= COMPACT_MAX_WAYS as usize,
            "CompactSets supports 1..={COMPACT_MAX_WAYS} ways, got {ways}"
        );
        CompactSets {
            tags: vec![0; num_sets * ways],
            occupancy: vec![0; num_sets],
            ways,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.occupancy.len()
    }

    /// Ways per set.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Accesses `block` in `set` under LRU replacement.
    ///
    /// Always inlined: it is the body of the replay engine's per-access loop,
    /// and left to the inliner's judgement across crates it stays a call.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[inline(always)]
    pub fn access(&mut self, set: usize, block: u64) -> CompactAccess {
        let len = self.occupancy[set] as usize;
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        // Scan most-recent-first: temporal locality makes recent ways the
        // likeliest hits.
        for i in (0..len).rev() {
            if slots[i] == block {
                // Rotate the hit tag to the most-recently-used end of the
                // occupied prefix (same order `CacheSet` maintains).
                slots[i..len].rotate_left(1);
                return CompactAccess::Hit;
            }
        }
        if len < self.ways {
            slots[len] = block;
            self.occupancy[set] = (len + 1) as u8;
            return CompactAccess::MissFilled;
        }
        // Full set: evict the LRU front, shift, insert at the MRU end.
        slots.rotate_left(1);
        slots[self.ways - 1] = block;
        CompactAccess::MissEvicted
    }

    /// Empties every set.
    pub fn flush(&mut self) {
        self.occupancy.iter_mut().for_each(|o| *o = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_hit_fill_evict() {
        let mut sets = CompactSets::new(4, 1);
        assert_eq!(sets.access(2, 10), CompactAccess::MissFilled);
        assert_eq!(sets.access(2, 10), CompactAccess::Hit);
        assert_eq!(sets.access(2, 11), CompactAccess::MissEvicted);
        assert_eq!(sets.access(2, 10), CompactAccess::MissEvicted);
        assert_eq!(sets.access(3, 10), CompactAccess::MissFilled);
        assert_eq!(sets.num_sets(), 4);
        assert_eq!(sets.ways(), 1);
    }

    #[test]
    fn lru_order_matches_cache_set() {
        let mut sets = CompactSets::new(1, 2);
        assert_eq!(sets.access(0, 1), CompactAccess::MissFilled);
        assert_eq!(sets.access(0, 2), CompactAccess::MissFilled);
        // Touch 1 so 2 becomes LRU.
        assert_eq!(sets.access(0, 1), CompactAccess::Hit);
        assert_eq!(sets.access(0, 3), CompactAccess::MissEvicted);
        // 2 was evicted; 1 and 3 remain.
        assert_eq!(sets.access(0, 1), CompactAccess::Hit);
        assert_eq!(sets.access(0, 3), CompactAccess::Hit);
        assert_eq!(sets.access(0, 2), CompactAccess::MissEvicted);
    }

    #[test]
    fn mirrors_general_cache_set_on_random_streams() {
        use crate::replacement::{CacheSet, SetAccess};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(42);
        for ways in 1..=COMPACT_MAX_WAYS as usize {
            let mut compact = CompactSets::new(1, ways);
            let mut general = CacheSet::new(ways);
            for _ in 0..2000 {
                let block = rng.gen_range(0u64..(2 * ways as u64 + 3));
                let got = compact.access(0, block);
                let want = general.access(block);
                let same = matches!(
                    (got, want),
                    (CompactAccess::Hit, SetAccess::Hit)
                        | (CompactAccess::MissFilled, SetAccess::MissFilled)
                        | (CompactAccess::MissEvicted, SetAccess::MissEvicted(_))
                );
                assert!(same, "ways {ways}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn flush_empties_all_sets() {
        let mut sets = CompactSets::new(2, 2);
        sets.access(0, 1);
        sets.access(1, 2);
        sets.flush();
        assert_eq!(sets.access(0, 1), CompactAccess::MissFilled);
        assert_eq!(sets.access(1, 2), CompactAccess::MissFilled);
    }

    #[test]
    #[should_panic(expected = "CompactSets supports")]
    fn rejects_too_many_ways() {
        let _ = CompactSets::new(1, COMPACT_MAX_WAYS as usize + 1);
    }
}
