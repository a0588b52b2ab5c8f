//! A small shared cache of neighbourhood-pricing scaffolding.
//!
//! Pricing any neighbourhood of a parent null space first groups the whole
//! histogram by remainder modulo that parent ([`CosetHistogram`], one pass
//! over every entry, [`FrozenKernel::neighborhood_scaffold`]). Regrouping per
//! call would be wasteful for the callers that dominate real runs: the
//! verified pick ranking the neighbourhood the climb's last step just
//! priced, and serve-layer searches repeated against one application.
//!
//! [`ScaffoldCache`] memoizes the grouped histogram per parent
//! ([`gf2::CanonicalKey`]), capacity-capped with FIFO eviction. Entries sit
//! behind `Arc`s, so a hit hands back a shared read-only histogram that
//! scoped worker threads can read while the cache moves on. Like
//! [`ShardedMemo`](crate::ShardedMemo), the cache itself is a cheaply
//! clonable handle: clones share one table, so an engine and the serving
//! layer can pool scaffolding per application.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use gf2::{CanonicalKey, CosetHistogram, PackedBasis};

use crate::FrozenKernel;

/// Default number of parents a [`ScaffoldCache`] retains. Reuse comes from a
/// handful of recent parents (the climb's last parent, ranked again by the
/// verified pick, and the parents a repeated search over one application
/// walks again), so a small window captures nearly all of it while bounding
/// the memory spent on grouped histograms.
pub const DEFAULT_SCAFFOLD_CAPACITY: usize = 16;

/// One checked-out scaffolding: the shared grouped histogram, plus whether
/// the probe was answered from the cache.
#[derive(Debug, Clone)]
pub struct Scaffold {
    /// The kernel's histogram grouped by remainder modulo the parent.
    pub histogram: Arc<CosetHistogram>,
    /// `true` when the parent was already cached.
    pub cached: bool,
}

/// Counters and occupancy of a [`ScaffoldCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaffoldStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that had to group the kernel's histogram.
    pub misses: u64,
    /// Entries evicted to make room (FIFO order).
    pub evictions: u64,
    /// Parents currently cached.
    pub entries: usize,
    /// Maximum number of parents retained.
    pub capacity: usize,
}

#[derive(Debug)]
struct ScaffoldState {
    entries: HashMap<CanonicalKey, Arc<CosetHistogram>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<CanonicalKey>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug)]
struct ScaffoldInner {
    state: Mutex<ScaffoldState>,
    capacity: usize,
}

/// A capacity-capped, thread-safe cache of grouped histograms keyed by the
/// parent subspace. Cloning the cache clones a handle: all clones share
/// one table.
///
/// # Example
///
/// ```
/// use cache_sim::BlockAddr;
/// use gf2::PackedBasis;
/// use xorindex::{ConflictProfile, FrozenKernel, ScaffoldCache};
///
/// let trace = (0..40u64).map(|i| BlockAddr((i % 4) * 0x40));
/// let profile = ConflictProfile::from_blocks(trace, 12, 64);
/// let kernel = FrozenKernel::new(&profile);
/// let parent = PackedBasis::standard_span(12, 6..12);
///
/// let cache = ScaffoldCache::new();
/// let _ = cache.scaffold(&kernel, &parent); // builds
/// let _ = cache.scaffold(&kernel, &parent); // cached
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ScaffoldCache {
    inner: Arc<ScaffoldInner>,
}

impl Default for ScaffoldCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ScaffoldCache {
    /// A cache retaining [`DEFAULT_SCAFFOLD_CAPACITY`] parents.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SCAFFOLD_CAPACITY)
    }

    /// A cache retaining at most `capacity` parents (at least one).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        ScaffoldCache {
            inner: Arc::new(ScaffoldInner {
                state: Mutex::new(ScaffoldState {
                    entries: HashMap::new(),
                    order: VecDeque::new(),
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                }),
                capacity: capacity.max(1),
            }),
        }
    }

    /// The scaffolding for pricing neighbourhoods of `parent`: cached when
    /// the parent was seen before, grouped from the kernel's histogram (and
    /// cached) otherwise.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`FrozenKernel::neighborhood_scaffold`].
    #[must_use]
    pub fn scaffold(&self, kernel: &FrozenKernel, parent: &PackedBasis) -> Scaffold {
        let mut words = [0u64; 65];
        {
            let mut state = self.inner.state.lock().expect("scaffold cache poisoned");
            let probed = state.entries.get(parent.key_words(&mut words)).cloned();
            if let Some(histogram) = probed {
                state.hits += 1;
                return Scaffold {
                    histogram,
                    cached: true,
                };
            }
            state.misses += 1;
        }
        // Group outside the lock: it walks every histogram entry, and
        // concurrent probers of *other* parents must not serialize behind it.
        // A racing build of the same parent is benign — both compute the
        // same histogram and the table keeps one.
        let histogram = Arc::new(kernel.neighborhood_scaffold(parent));
        let key = parent.canonical_key();
        let mut state = self.inner.state.lock().expect("scaffold cache poisoned");
        if state
            .entries
            .insert(key.clone(), Arc::clone(&histogram))
            .is_none()
        {
            state.order.push_back(key);
            while state.entries.len() > self.inner.capacity {
                if let Some(oldest) = state.order.pop_front() {
                    state.entries.remove(&oldest);
                    state.evictions += 1;
                }
            }
        }
        Scaffold {
            histogram,
            cached: false,
        }
    }

    /// Counters and occupancy so far.
    #[must_use]
    pub fn stats(&self) -> ScaffoldStats {
        let state = self.inner.state.lock().expect("scaffold cache poisoned");
        ScaffoldStats {
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            entries: state.entries.len(),
            capacity: self.inner.capacity,
        }
    }

    /// Drops every cached scaffolding and resets the counters, returning how
    /// many entries were evicted.
    pub fn clear(&self) -> usize {
        let mut state = self.inner.state.lock().expect("scaffold cache poisoned");
        let evicted = state.entries.len();
        state.entries.clear();
        state.order.clear();
        state.hits = 0;
        state.misses = 0;
        state.evictions = 0;
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConflictProfile;
    use cache_sim::BlockAddr;

    fn profile() -> ConflictProfile {
        let seq: Vec<u64> = (0..200u64).map(|i| (i % 7) * 0x39).collect();
        ConflictProfile::from_blocks(seq.iter().copied().map(BlockAddr), 12, 64)
    }

    #[test]
    fn cache_is_send_sync_and_clones_share_one_table() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ScaffoldCache>();

        let profile = profile();
        let kernel = FrozenKernel::new(&profile);
        let parent = PackedBasis::standard_span(12, 6..12);
        let cache = ScaffoldCache::new();
        let clone = cache.clone();
        let _ = cache.scaffold(&kernel, &parent);
        let _ = clone.scaffold(&kernel, &parent);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.capacity, DEFAULT_SCAFFOLD_CAPACITY);
    }

    #[test]
    fn hits_return_the_same_scaffolding_and_frame_rebuilds_keep_the_histogram() {
        // A hit hands back the very histogram the miss grouped; there is no
        // per-hyperplane frame left to rebuild, so every revisit of a parent
        // is a plain hit whatever neighbourhood it prices.
        let profile = profile();
        let kernel = FrozenKernel::new(&profile);
        let parent = PackedBasis::standard_span(12, 6..12);
        let cache = ScaffoldCache::new();
        let a = cache.scaffold(&kernel, &parent);
        let b = cache.scaffold(&kernel, &parent);
        assert!(!a.cached && b.cached);
        assert!(Arc::ptr_eq(&a.histogram, &b.histogram));
        assert_eq!(*a.histogram, kernel.neighborhood_scaffold(&parent));
        // Another parent is another entry.
        let other = PackedBasis::standard_span(12, 5..12);
        let c = cache.scaffold(&kernel, &other);
        assert!(!c.cached);
        assert!(!Arc::ptr_eq(&a.histogram, &c.histogram));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    }

    #[test]
    fn capacity_evicts_fifo_and_clear_resets() {
        let profile = profile();
        let kernel = FrozenKernel::new(&profile);
        let parents: Vec<PackedBasis> = (4..=7)
            .map(|m| PackedBasis::standard_span(12, m..12))
            .collect();
        let cache = ScaffoldCache::with_capacity(2);
        for parent in &parents {
            let _ = cache.scaffold(&kernel, parent);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.misses, 4);
        // The two oldest parents were evicted; the newest still hits.
        let _ = cache.scaffold(&kernel, &parents[3]);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.clear(), 2);
        assert_eq!(
            cache.stats(),
            ScaffoldStats {
                capacity: 2,
                ..ScaffoldStats::default()
            }
        );
    }
}
