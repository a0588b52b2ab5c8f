//! A small shared cache of coset-sliced neighbourhood scaffolding.
//!
//! Every coset-sliced neighbourhood evaluation needs two pieces of
//! per-parent precomputation before any block can be stamped: the
//! [`CosetFrame`] of hyperplane functionals (`O(dim²)` per hyperplane) and —
//! far more expensively — the [`CosetHistogram`], a full pass over the
//! histogram grouping every entry by its remainder modulo the parent. The
//! kernel's standalone [`FrozenKernel::cost_neighborhood_bounded`] rebuilds
//! both per call, which is fine for a one-shot pricing but wasteful for the
//! callers that dominate real runs: random restarts walking back through
//! earlier parents, annealing chains re-visiting a parent after a rejected
//! excursion, and serve-layer pricing bursts against one application.
//!
//! [`ScaffoldCache`] memoizes that scaffolding per parent
//! ([`gf2::CanonicalKey`]), capacity-capped with FIFO eviction. Entries hold
//! their pieces behind `Arc`s, so a hit hands back shared read-only
//! scaffolding that scoped worker threads can consume while the cache moves
//! on. Like [`ShardedMemo`](crate::ShardedMemo), the cache itself is a
//! cheaply clonable handle: clones share one table, so an engine and the
//! serving layer can pool scaffolding per application.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use gf2::{CanonicalKey, CosetFrame, CosetHistogram, PackedBasis};

use crate::FrozenKernel;

/// Default number of parents a [`ScaffoldCache`] retains. Search algorithms
/// revisit a handful of recent parents (the current incumbent, its
/// predecessor, restart seeds), so a small window captures nearly all reuse
/// while bounding the memory spent on grouped histograms.
pub const DEFAULT_SCAFFOLD_CAPACITY: usize = 16;

/// One cached scaffolding: the grouped histogram (the expensive half, reused
/// unconditionally) plus the hyperplane frame, remembered together with the
/// hyperplane list it was solved for.
#[derive(Debug, Clone)]
struct CachedScaffold {
    frame: Arc<CosetFrame>,
    histogram: Arc<CosetHistogram>,
    hyperplanes: Vec<PackedBasis>,
}

/// One checked-out scaffolding: shared read-only pieces ready for block
/// stamping, plus whether the probe was answered from the cache.
#[derive(Debug, Clone)]
pub struct Scaffold {
    /// The hyperplane functionals over the parent.
    pub frame: Arc<CosetFrame>,
    /// The kernel's histogram grouped by remainder modulo the parent.
    pub histogram: Arc<CosetHistogram>,
    /// `true` when the parent was already cached (even if the frame was
    /// re-solved for a different hyperplane list).
    pub cached: bool,
}

/// Counters and occupancy of a [`ScaffoldCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaffoldStats {
    /// Probes answered from the cache (including frame-rebuild hits, where
    /// the histogram was reused but the functionals were re-solved for a
    /// different hyperplane list).
    pub hits: u64,
    /// Probes that had to build the scaffolding from the histogram.
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
    entries: HashMap<CanonicalKey, CachedScaffold>,
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

/// A capacity-capped, thread-safe cache of coset-sliced scaffolding keyed by
/// the parent subspace. Cloning the cache clones a handle: all clones share
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
/// let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
///
/// let cache = ScaffoldCache::new();
/// let _ = cache.scaffold(&kernel, &parent, &hyperplanes); // builds
/// let _ = cache.scaffold(&kernel, &parent, &hyperplanes); // cached
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

    /// The scaffolding for pricing neighbourhoods of `parent` whose retained
    /// hyperplanes are `hyperplanes`: cached when the parent was seen before,
    /// built from the kernel's histogram (and cached) otherwise.
    ///
    /// A revisit with a *different* hyperplane list still reuses the grouped
    /// histogram — the expensive full-profile pass — and only re-solves the
    /// frame's functionals; it counts as a hit.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`FrozenKernel::neighborhood_scaffold`].
    #[must_use]
    pub fn scaffold(
        &self,
        kernel: &FrozenKernel,
        parent: &PackedBasis,
        hyperplanes: &[PackedBasis],
    ) -> Scaffold {
        let key = parent.canonical_key();
        let (cached_histogram, cached) = {
            let mut state = self.inner.state.lock().expect("scaffold cache poisoned");
            let probed = state.entries.get(&key).map(|entry| {
                (
                    Arc::clone(&entry.frame),
                    Arc::clone(&entry.histogram),
                    entry.hyperplanes == hyperplanes,
                )
            });
            match probed {
                Some((frame, histogram, same_hyperplanes)) => {
                    state.hits += 1;
                    if same_hyperplanes {
                        return Scaffold {
                            frame,
                            histogram,
                            cached: true,
                        };
                    }
                    (Some(histogram), true)
                }
                None => {
                    state.misses += 1;
                    (None, false)
                }
            }
        };
        // Build outside the lock: the histogram grouping walks every
        // histogram entry, and concurrent probers of *other* parents must not
        // serialize behind it. A racing build of the same parent is benign —
        // both compute identical scaffolding and the table keeps one.
        let (frame, histogram) = match cached_histogram {
            Some(histogram) => (Arc::new(CosetFrame::new(parent, hyperplanes)), histogram),
            None => {
                let (frame, histogram) = kernel.neighborhood_scaffold(parent, hyperplanes);
                (Arc::new(frame), Arc::new(histogram))
            }
        };
        let entry = CachedScaffold {
            frame: Arc::clone(&frame),
            histogram: Arc::clone(&histogram),
            hyperplanes: hyperplanes.to_vec(),
        };
        let mut state = self.inner.state.lock().expect("scaffold cache poisoned");
        if state.entries.insert(key.clone(), entry).is_none() {
            state.order.push_back(key);
            while state.entries.len() > self.inner.capacity {
                if let Some(oldest) = state.order.pop_front() {
                    state.entries.remove(&oldest);
                    state.evictions += 1;
                }
            }
        }
        Scaffold {
            frame,
            histogram,
            cached,
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
        let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
        let cache = ScaffoldCache::new();
        let clone = cache.clone();
        let _ = cache.scaffold(&kernel, &parent, &hyperplanes);
        let _ = clone.scaffold(&kernel, &parent, &hyperplanes);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.capacity, DEFAULT_SCAFFOLD_CAPACITY);
    }

    #[test]
    fn hits_return_the_same_scaffolding_and_frame_rebuilds_keep_the_histogram() {
        let profile = profile();
        let kernel = FrozenKernel::new(&profile);
        let parent = PackedBasis::standard_span(12, 6..12);
        let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
        let cache = ScaffoldCache::new();
        let a = cache.scaffold(&kernel, &parent, &hyperplanes);
        let b = cache.scaffold(&kernel, &parent, &hyperplanes);
        assert!(!a.cached && b.cached);
        assert!(Arc::ptr_eq(&a.frame, &b.frame));
        assert!(Arc::ptr_eq(&a.histogram, &b.histogram));
        // A different hyperplane list over the same parent: the histogram is
        // reused, the frame is re-solved, and it still counts as a hit.
        let fewer = &hyperplanes[..hyperplanes.len() - 1];
        let c = cache.scaffold(&kernel, &parent, fewer);
        assert!(c.cached);
        assert!(Arc::ptr_eq(&a.histogram, &c.histogram));
        assert!(!Arc::ptr_eq(&a.frame, &c.frame));
        assert_eq!(c.frame.hyperplane_count(), fewer.len());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        // The rebuilt frame replaced the entry, so the narrower list now hits
        // without a rebuild.
        let d = cache.scaffold(&kernel, &parent, fewer);
        assert!(Arc::ptr_eq(&c.frame, &d.frame));
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
            let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
            let _ = cache.scaffold(&kernel, parent, &hyperplanes);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.misses, 4);
        // The two oldest parents were evicted; the newest still hits.
        let newest = &parents[3];
        let hyperplanes: Vec<PackedBasis> = newest.hyperplanes().collect();
        let _ = cache.scaffold(&kernel, newest, &hyperplanes);
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
