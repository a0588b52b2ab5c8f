//! Dense evaluation engine for Eq. 4 over whole candidate sets.
//!
//! [`MissEstimator`](crate::MissEstimator) evaluates Eq. 4 literally, one
//! candidate at a time, enumerating the null space or scanning the whole
//! histogram on every call. [`EvalEngine`] is the batch-oriented replacement
//! the search algorithms
//! run on: a thin façade over a shared [`FrozenKernel`] — the immutable
//! pricing core holding the frozen [`ConflictProfile`] and its histogram in
//! the profile's own coordinates plus all Eq. 4 arithmetic, `Send + Sync`
//! and shared via `Arc`, so one kernel per application serves any number of
//! searches and serving workers concurrently.
//!
//! The façade adds what a single search loop needs on top: per-engine work
//! counters ([`EngineStats`]), batch orchestration with
//! `std::thread::scope` parallelism (a batch of unrelated candidates is
//! priced one candidate at a time through the kernel), and
//! incumbent-bounded neighbourhood pricing, lane by lane, from the parent's
//! remainder-grouped histogram kept in a [`ScaffoldCache`]. It caches no
//! costs: every call prices every candidate it is given, so its answers and
//! counters depend only on the kernel and the calls made. (Repeat pricing
//! requests are served from a [`ShardedMemo`](crate::ShardedMemo) one layer
//! up, in the serving layer.) All paths compute the exact Eq. 4 sum;
//! estimates are bit-identical to [`MissEstimator`](crate::MissEstimator)
//! under every [`EstimationStrategy`](crate::EstimationStrategy), however
//! many engines share one kernel.

use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

use gf2::PackedBasis;

use crate::kernel::{lane_groups, price_lanes, LanePricer};
use crate::search::{NeighborLanes, PackedNeighborhood};
use crate::{BoundedCost, ConflictProfile, FrozenKernel, ScaffoldCache};

/// The host's available parallelism (1 when it cannot be determined),
/// resolved once per process: the query reads cgroup files on Linux, which
/// costs more than many of the batches sized by it.
#[must_use]
pub fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Minimum number of fresh candidates before a batch is split across threads
/// (below this the spawn overhead dominates).
const PARALLEL_THRESHOLD: usize = 8;

/// Fewest lanes in one run of a neighbourhood split across threads, so
/// that each run amortizes its share of the thread spawn.
const LANE_RUN: usize = 64;

/// Counters describing the work an [`EvalEngine`] has performed.
///
/// These are per-engine (per-façade) counters: an engine sharing its
/// [`FrozenKernel`] or [`ScaffoldCache`] with other engines still reports
/// only its own work here; the shared scaffold table's global view is
/// [`ScaffoldCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Candidate Eq. 4 evaluations priced exactly (single candidates or
    /// neighbourhood lanes). Nothing is cached, so a candidate priced twice
    /// counts twice.
    pub evaluations: u64,
    /// Batches that were split across threads.
    pub parallel_batches: u64,
    /// Grouped histograms answered from this engine's [`ScaffoldCache`].
    pub scaffold_hits: u64,
    /// Grouped histograms built from the kernel's histogram.
    pub scaffold_misses: u64,
    /// Lanes abandoned by bounded pricing because their running sum reached
    /// the incumbent bound (reported as [`BoundedCost::AtLeast`], not counted
    /// as evaluations).
    pub bounded_abandons: u64,
}

/// Batch evaluator of Eq. 4 (`misses(H) = Σ_{v ∈ N(H)} misses(v)`) over a
/// frozen [`ConflictProfile`] — a façade over an `Arc<`[`FrozenKernel`]`>`.
///
/// Cloning an engine clones the `Arc` and the scaffold cache *handle*: the
/// clone prices against the same kernel and shares the same scaffolds, and
/// counts its own work from a copy of the original's [`EngineStats`].
///
/// # Example
///
/// ```
/// use cache_sim::BlockAddr;
/// use xorindex::{ConflictProfile, EvalEngine, HashFunction, MissEstimator};
///
/// let trace = (0..20u64).map(|i| BlockAddr((i % 2) * 0x100));
/// let profile = ConflictProfile::from_blocks(trace, 16, 256);
/// let conventional = HashFunction::conventional(16, 8)?;
///
/// let mut engine = EvalEngine::new(&profile);
/// let ns = conventional.null_space();
/// assert_eq!(
///     engine.estimate_packed(&ns),
///     MissEstimator::new(&profile).estimate(&conventional)?
/// );
/// // Nothing is cached: the second query is priced again.
/// engine.estimate_packed(&ns);
/// assert_eq!(engine.stats().evaluations, 2);
/// # Ok::<(), xorindex::XorIndexError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EvalEngine {
    kernel: Arc<FrozenKernel>,
    scaffold: ScaffoldCache,
    threads: usize,
    stats: EngineStats,
}

impl EvalEngine {
    /// Builds an engine over a profile, freezing its histogram into a private
    /// kernel. Uses as many threads as the host exposes.
    #[must_use]
    pub fn new(profile: &ConflictProfile) -> Self {
        Self::from_parts(Arc::new(FrozenKernel::new(profile)))
    }

    /// Assembles an engine from an existing kernel — the sharing entry
    /// point: several engines (across searches, threads or serving workers)
    /// built from clones of the same `Arc` answer from one frozen histogram.
    #[must_use]
    pub fn from_parts(kernel: Arc<FrozenKernel>) -> Self {
        EvalEngine {
            kernel,
            scaffold: ScaffoldCache::new(),
            threads: host_threads(),
            stats: EngineStats::default(),
        }
    }

    /// Caps the number of worker threads batches may use (1 = sequential).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Replaces the scaffold cache with the given handle — the sharing entry
    /// point: engines (and a serving layer) holding clones of one cache pool
    /// their per-parent grouped histograms. Also the way to resize it: pass
    /// [`ScaffoldCache::with_capacity`]`(n)`.
    #[must_use]
    pub fn with_scaffold_cache(mut self, cache: ScaffoldCache) -> Self {
        self.scaffold = cache;
        self
    }

    /// The shared pricing kernel. Clone the `Arc` to share it with another
    /// engine or a serving layer.
    #[must_use]
    pub fn kernel(&self) -> &Arc<FrozenKernel> {
        &self.kernel
    }

    /// The scaffold cache handle. Clones share this engine's table.
    #[must_use]
    pub fn scaffold_cache(&self) -> &ScaffoldCache {
        &self.scaffold
    }

    /// Work counters accumulated since construction (or the last
    /// [`EvalEngine::reset`]).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Clears the scaffolding cache and the counters, keeping the frozen
    /// kernel. The scaffold clear affects every handle sharing that table.
    pub fn reset(&mut self) {
        self.scaffold.clear();
        self.stats = EngineStats::default();
    }

    /// Estimated conflict misses of any function whose null space is `basis`
    /// — the packed-native single-candidate entry point.
    ///
    /// # Panics
    ///
    /// Panics if the basis's ambient width differs from the profile's hashed
    /// width.
    pub fn estimate_packed(&mut self, basis: &PackedBasis) -> u64 {
        let cost = self.kernel.cost(basis);
        self.stats.evaluations += 1;
        cost
    }

    /// Prices a whole batch of packed candidates, one candidate at a time
    /// through [`FrozenKernel::cost`], split across threads when the batch is
    /// large enough. Costs are aligned with `candidates`.
    ///
    /// # Panics
    ///
    /// Panics if any candidate's ambient width differs from the profile's
    /// hashed width.
    pub fn estimate_batch(&mut self, candidates: &[PackedBasis]) -> Vec<u64> {
        for basis in candidates {
            self.kernel.check_width(basis);
        }
        let kernel = &*self.kernel;
        self.stats.evaluations += candidates.len() as u64;
        Self::map_parallel(candidates, self.threads, &mut self.stats, |basis| {
            kernel.cost(basis)
        })
    }

    /// Prices a packed neighbourhood exactly: every lane summed to
    /// completion. Returns costs aligned with `neighborhood.candidates`,
    /// bit-identical to [`FrozenKernel::cost`].
    ///
    /// This is [`EvalEngine::estimate_neighborhood_bounded`] at bound
    /// `u64::MAX`, where every lane is exact — the call for a neighbourhood
    /// whose every price is needed. A verified pick needs only the best few,
    /// which [`Searcher::run_with_runners_up`](crate::search::Searcher::run_with_runners_up)
    /// selects without materializing or sorting the neighbourhood; this
    /// route is its test oracle.
    ///
    /// # Panics
    ///
    /// Panics if a candidate's ambient width differs from the profile's
    /// hashed width.
    pub fn estimate_neighborhood(&mut self, neighborhood: &PackedNeighborhood) -> Vec<u64> {
        self.estimate_neighborhood_bounded(neighborhood, u64::MAX)
            .into_iter()
            .map(BoundedCost::lower_bound)
            .collect()
    }

    /// Prices a packed neighbourhood under an incumbent bound: per lane,
    /// either the exact cost (priced below the bound) or
    /// [`BoundedCost::AtLeast`]`(bound)` for a lane whose running sum reached
    /// the incumbent and was abandoned mid-scan.
    ///
    /// Each lane costs its hyperplane's in-parent weight (summed once per
    /// hyperplane) plus one scan of its direction's group in the parent's
    /// cached remainder-grouped histogram; runs of lanes are split across the
    /// engine's threads. Exact lanes are bit-identical to
    /// [`FrozenKernel::cost`] and count as evaluations; abandoned ones count
    /// as abandons. The searches price their lanes the same way before any
    /// candidate basis exists.
    ///
    /// # Panics
    ///
    /// Panics if the neighbourhood's ambient width differs from the
    /// profile's hashed width, or if it is not a hyperplane/direction
    /// decomposition over one parent.
    pub fn estimate_neighborhood_bounded(
        &mut self,
        neighborhood: &PackedNeighborhood,
        bound: u64,
    ) -> Vec<BoundedCost> {
        match NeighborLanes::of(neighborhood) {
            Some(lanes) => self.estimate_lanes_bounded(&lanes, bound),
            None => Vec::new(),
        }
    }

    /// [`EvalEngine::estimate_neighborhood_bounded`] over lanes that carry
    /// no candidate bases — what every search step prices.
    pub(crate) fn estimate_lanes_bounded(
        &mut self,
        lanes: &NeighborLanes,
        bound: u64,
    ) -> Vec<BoundedCost> {
        if lanes.is_empty() {
            return Vec::new();
        }
        self.kernel.check_width(&lanes.parent);
        let histogram = self.cached_histogram(&lanes.parent);
        let groups = lane_groups(&histogram, lanes);
        // A run of lanes is priced independently of the others, so runs
        // split across scoped threads; one thread takes them all at once.
        // Runs end where the hyperplane changes, so no hyperplane's shared
        // in-parent weight is summed twice.
        let min_run = if self.threads > 1 {
            LANE_RUN
        } else {
            lanes.len()
        };
        let mut runs: Vec<&[(u32, u32)]> = Vec::new();
        let mut rest = &lanes.lanes[..];
        while !rest.is_empty() {
            let mut end = min_run.min(rest.len());
            while end < rest.len() && rest[end].0 == rest[end - 1].0 {
                end += 1;
            }
            let (run, tail) = rest.split_at(end);
            runs.push(run);
            rest = tail;
        }
        let priced: Vec<BoundedCost> =
            Self::map_parallel(&runs, self.threads, &mut self.stats, |run| {
                price_lanes(&histogram, lanes, &groups, run, bound)
            })
            .into_iter()
            .flatten()
            .collect();
        for cost in &priced {
            match cost {
                BoundedCost::Exact(_) => self.stats.evaluations += 1,
                BoundedCost::AtLeast(_) => self.stats.bounded_abandons += 1,
            }
        }
        priced
    }

    /// The `k` cheapest lanes whose candidate `admit` accepts, by (Eq. 4
    /// cost, generation order), cheapest first: what `admit` made of each,
    /// with its cost.
    ///
    /// Lanes are priced in generation order, on one thread, under a bound
    /// that is the running k-th best cost (`u64::MAX` until `k` lanes are
    /// held), so most lanes stop early. Only a lane priced strictly below
    /// the bound gets its basis built and handed to `admit`: a later lane
    /// that ties the k-th best ranks after it. At most `min(k, lanes)`
    /// lanes are held, in a heap, so selecting costs O(lanes · log k).
    /// Exact lanes count as evaluations and stopped ones as abandons, as in
    /// [`EvalEngine::estimate_neighborhood_bounded`].
    pub(crate) fn best_lanes<T>(
        &mut self,
        lanes: &NeighborLanes,
        k: usize,
        mut admit: impl FnMut(&PackedBasis) -> Option<T>,
    ) -> Vec<(T, u64)> {
        let capacity = k.min(lanes.len());
        if capacity == 0 {
            return Vec::new();
        }
        self.kernel.check_width(&lanes.parent);
        let histogram = self.cached_histogram(&lanes.parent);
        let groups = lane_groups(&histogram, lanes);
        let mut pricer = LanePricer::new(&histogram, lanes, &groups);
        // A max-heap of (cost, lane, slot): `slot` indexes what `admit` made
        // of the lane. (cost, lane) is unique, so slots never decide order.
        let mut held: BinaryHeap<(u64, usize, usize)> = BinaryHeap::with_capacity(capacity);
        let mut admitted: Vec<Option<T>> = Vec::with_capacity(capacity);
        let mut bound = u64::MAX;
        for (i, &lane) in lanes.lanes.iter().enumerate() {
            let cost = pricer.price(lane, bound);
            if cost >= bound {
                self.stats.bounded_abandons += 1;
                continue;
            }
            self.stats.evaluations += 1;
            let Some(item) = admit(&lanes.basis(i)) else {
                continue;
            };
            let slot = if held.len() < capacity {
                admitted.push(Some(item));
                admitted.len() - 1
            } else {
                let (_, _, slot) = held.pop().expect("the heap is full");
                admitted[slot] = Some(item);
                slot
            };
            held.push((cost, i, slot));
            if held.len() == capacity {
                bound = held.peek().expect("the heap is full").0;
            }
        }
        held.into_sorted_vec()
            .into_iter()
            .map(|(cost, _, slot)| (admitted[slot].take().expect("one lane per slot"), cost))
            .collect()
    }

    /// Checks the grouped histogram for `parent` out of the cache (grouping
    /// it on a miss) and folds the outcome into this engine's counters.
    fn cached_histogram(&mut self, parent: &PackedBasis) -> Arc<gf2::CosetHistogram> {
        let scaffold = self.scaffold.scaffold(&self.kernel, parent);
        if scaffold.cached {
            self.stats.scaffold_hits += 1;
        } else {
            self.stats.scaffold_misses += 1;
        }
        scaffold.histogram
    }

    /// Maps `job_cost` over `jobs` in order, splitting across scoped threads
    /// when the engine is configured for parallelism and the batch is large
    /// enough. Jobs may be single candidates (costing a `u64`) or runs of
    /// neighbourhood lanes (costing a `Vec` each).
    fn map_parallel<J: Sync, R: Send>(
        jobs: &[J],
        threads: usize,
        stats: &mut EngineStats,
        job_cost: impl Fn(&J) -> R + Sync,
    ) -> Vec<R> {
        let workers = threads.min(jobs.len());
        if workers <= 1 || jobs.len() < PARALLEL_THRESHOLD {
            return jobs.iter().map(job_cost).collect();
        }
        stats.parallel_batches += 1;
        let chunk = jobs.len().div_ceil(workers);
        let job_cost = &job_cost;
        let mut out: Vec<R> = Vec::with_capacity(jobs.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .chunks(chunk)
                .map(|chunk_jobs| scope.spawn(move || chunk_jobs.iter().map(job_cost).collect()))
                .collect();
            for handle in handles {
                let chunk_out: Vec<R> = handle.join().expect("evaluation worker panicked");
                out.extend(chunk_out);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::NeighborPool;
    use crate::{EstimationStrategy, FunctionClass, HashFunction, MissEstimator};
    use cache_sim::BlockAddr;
    use gf2::BitMatrix;

    fn profile_from(seq: &[u64], hashed_bits: usize, capacity: usize) -> ConflictProfile {
        ConflictProfile::from_blocks(seq.iter().copied().map(BlockAddr), hashed_bits, capacity)
    }

    fn mixed_profile() -> ConflictProfile {
        let seq: Vec<u64> = (0..400u64)
            .map(|i| match i % 5 {
                0 => 0,
                1 => 0x40,
                2 => 0x80,
                3 => 0x23,
                _ => 0xC0,
            })
            .collect();
        profile_from(&seq, 12, 64)
    }

    /// The unlimited-XOR neighbourhood of the conventional function with
    /// `set_bits` set-index bits.
    fn xor_neighborhood(profile: &ConflictProfile, set_bits: usize) -> PackedNeighborhood {
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(12, profile);
        let parent = PackedBasis::standard_span(12, set_bits..12);
        PackedNeighborhood::generate(&parent, FunctionClass::xor_unlimited(), &pool)
    }

    /// Pins every lane of `nbhd`, priced by a fresh engine, against the
    /// estimator under every strategy.
    fn assert_neighborhood_matches_the_estimator(
        profile: &ConflictProfile,
        nbhd: &PackedNeighborhood,
    ) {
        assert!(!nbhd.is_empty());
        let costs = EvalEngine::new(profile).estimate_neighborhood(nbhd);
        assert_eq!(costs.len(), nbhd.len());
        for strategy in [
            EstimationStrategy::Auto,
            EstimationStrategy::EnumerateNullSpace,
            EstimationStrategy::ScanHistogram,
        ] {
            let estimator = MissEstimator::new(profile).with_strategy(strategy);
            for (basis, &cost) in nbhd.bases().zip(&costs) {
                assert_eq!(cost, estimator.estimate_packed(basis), "{strategy:?}");
            }
        }
    }

    #[test]
    fn engine_matches_the_estimator_under_every_strategy() {
        let profile = mixed_profile();
        let functions = [
            HashFunction::conventional(12, 6).unwrap(),
            HashFunction::new(BitMatrix::from_fn(12, 6, |r, c| r == c || r == c + 6)).unwrap(),
            HashFunction::bit_selecting(12, &[0, 1, 2, 3, 4, 11]).unwrap(),
            HashFunction::conventional(12, 2).unwrap(), // large null space
        ];
        for strategy in [
            EstimationStrategy::Auto,
            EstimationStrategy::EnumerateNullSpace,
            EstimationStrategy::ScanHistogram,
        ] {
            let mut engine = EvalEngine::new(&profile);
            let estimator = MissEstimator::new(&profile).with_strategy(strategy);
            for f in &functions {
                let packed = f.null_space();
                assert_eq!(
                    engine.estimate_packed(&packed),
                    estimator.estimate_packed(&packed),
                    "{strategy:?}"
                );
                assert_eq!(
                    engine.kernel().cost(&packed),
                    engine.estimate_packed(&packed)
                );
            }
        }
    }

    #[test]
    fn all_three_neighborhood_routes_are_bit_identical() {
        // The engine reaches a neighbourhood's prices three ways: the
        // neighbourhood call, its bounded form at `u64::MAX`, and a batch
        // over the materialized candidates. Each must reproduce the scalar
        // costs exactly.
        let profile = mixed_profile();
        let nbhd = xor_neighborhood(&profile, 6);
        let kernel = crate::FrozenKernel::new(&profile);
        let reference: Vec<u64> = nbhd.bases().map(|b| kernel.cost(b)).collect();
        assert_eq!(
            EvalEngine::new(&profile).estimate_neighborhood(&nbhd),
            reference
        );
        let bounded: Vec<BoundedCost> = reference.iter().copied().map(BoundedCost::Exact).collect();
        assert_eq!(
            EvalEngine::new(&profile).estimate_neighborhood_bounded(&nbhd, u64::MAX),
            bounded
        );
        let materialized: Vec<PackedBasis> = nbhd.bases().cloned().collect();
        assert_eq!(
            EvalEngine::new(&profile).estimate_batch(&materialized),
            reference
        );
        assert_neighborhood_matches_the_estimator(&profile, &nbhd);
    }

    #[test]
    fn batch_evaluation_matches_singles_and_reprices() {
        let profile = mixed_profile();
        let mut engine = EvalEngine::new(&profile);
        let candidates: Vec<PackedBasis> = (2..=6)
            .map(|m| PackedBasis::standard_span(12, m..12))
            .collect();
        let batch = engine.estimate_batch(&candidates);
        let estimator = MissEstimator::new(&profile);
        for (basis, &cost) in candidates.iter().zip(&batch) {
            assert_eq!(cost, estimator.estimate_packed(basis));
        }
        assert_eq!(engine.stats().evaluations, candidates.len() as u64);
        // Nothing is cached: a second pass prices every candidate again, to
        // the same costs.
        let again = engine.estimate_batch(&candidates);
        assert_eq!(again, batch);
        assert_eq!(engine.stats().evaluations, 2 * candidates.len() as u64);
        assert!(engine.estimate_batch(&[]).is_empty());
        assert_eq!(engine.stats().evaluations, 2 * candidates.len() as u64);
    }

    #[test]
    fn neighborhood_delta_evaluation_is_exact() {
        // Six set bits leave 6-dimensional null spaces, small enough that a
        // single candidate would be priced by enumeration: every class's
        // neighbourhood must still price exactly lane by lane.
        let profile = mixed_profile();
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(12, &profile);
        let parent = PackedBasis::standard_span(12, 6..12);
        for class in [
            FunctionClass::xor_unlimited(),
            FunctionClass::permutation_based_unlimited(),
            FunctionClass::bit_selecting(),
        ] {
            let nbhd = PackedNeighborhood::generate(&parent, class, &pool);
            assert_neighborhood_matches_the_estimator(&profile, &nbhd);
        }
    }

    #[test]
    fn neighborhood_scan_fallback_is_exact() {
        // A tiny cache (2 set bits) gives 10-dimensional null spaces: 1023
        // non-zero vectors dwarf the handful of distinct conflict vectors, so
        // a single candidate would be priced by scanning the histogram.
        let profile = mixed_profile();
        assert_neighborhood_matches_the_estimator(&profile, &xor_neighborhood(&profile, 2));
    }

    #[test]
    fn parallel_and_sequential_batches_agree() {
        let profile = mixed_profile();
        let nbhd = xor_neighborhood(&profile, 6);
        let candidates: Vec<PackedBasis> = nbhd.bases().cloned().collect();
        let mut sequential = EvalEngine::new(&profile).with_threads(1);
        let mut parallel = EvalEngine::new(&profile).with_threads(4);
        assert_eq!(
            sequential.estimate_neighborhood(&nbhd),
            parallel.estimate_neighborhood(&nbhd)
        );
        sequential.reset();
        parallel.reset();
        assert_eq!(
            sequential.estimate_batch(&candidates),
            parallel.estimate_batch(&candidates)
        );
    }

    #[test]
    fn reset_clears_the_scaffold_cache_and_stats() {
        let profile = mixed_profile();
        let nbhd = xor_neighborhood(&profile, 6);
        let mut engine = EvalEngine::new(&profile);
        let costs = engine.estimate_neighborhood(&nbhd);
        assert_eq!(engine.stats().evaluations, nbhd.len() as u64);
        assert_eq!(engine.scaffold_cache().stats().entries, 1);
        engine.reset();
        assert_eq!(engine.stats(), EngineStats::default());
        assert_eq!(engine.scaffold_cache().stats().entries, 0);
        // The kernel survives: the same prices, from a rebuilt scaffold.
        assert_eq!(engine.estimate_neighborhood(&nbhd), costs);
        assert_eq!(engine.stats().evaluations, nbhd.len() as u64);
        assert_eq!(engine.stats().scaffold_misses, 1);
    }

    #[test]
    fn engines_sharing_a_kernel_answer_from_one_table() {
        let profile = mixed_profile();
        let mut first = EvalEngine::new(&profile);
        let mut second = EvalEngine::from_parts(Arc::clone(first.kernel()));
        assert!(Arc::ptr_eq(first.kernel(), second.kernel()));
        let ns = PackedBasis::standard_span(12, 6..12);
        let cost = first.estimate_packed(&ns);
        // Both engines price from the one frozen histogram; each counts only
        // its own work.
        assert_eq!(second.estimate_packed(&ns), cost);
        assert_eq!(first.stats().evaluations, 1);
        assert_eq!(second.stats().evaluations, 1);
    }

    #[test]
    #[should_panic(expected = "width must match")]
    fn width_mismatch_panics() {
        let profile = mixed_profile();
        let mut engine = EvalEngine::new(&profile);
        let _ = engine.estimate_packed(&PackedBasis::standard_span(8, 0..8));
    }

    #[test]
    fn coset_route_counts_blocks_and_reprices_every_pass() {
        let profile = mixed_profile();
        let nbhd = xor_neighborhood(&profile, 6);
        let mut engine = EvalEngine::new(&profile);
        let first = engine.estimate_neighborhood_bounded(&nbhd, u64::MAX);
        let lanes = nbhd.candidates.len() as u64;
        assert_eq!(engine.stats().evaluations, lanes);
        // Nothing is cached but the scaffold: the second pass prices every
        // lane again from the grouped histogram the first built.
        assert_eq!(engine.estimate_neighborhood_bounded(&nbhd, u64::MAX), first);
        assert_eq!(engine.stats().evaluations, 2 * lanes);
        assert_eq!(engine.stats().scaffold_misses, 1);
        assert_eq!(engine.stats().scaffold_hits, 1);
    }

    #[test]
    fn estimate_neighborhood_prices_every_lane_without_touching_the_memo() {
        let profile = mixed_profile();
        let nbhd = xor_neighborhood(&profile, 6);
        let lanes = nbhd.candidates.len() as u64;
        let mut engine = EvalEngine::new(&profile);
        // A bounded search step first, which abandons some lanes.
        let costliest = nbhd.bases().map(|b| engine.kernel().cost(b)).max();
        let bounded = engine.estimate_neighborhood_bounded(&nbhd, costliest.unwrap());
        assert!(bounded.iter().any(|cost| cost.exact().is_none()));
        let before = engine.stats();

        let costs = engine.estimate_neighborhood(&nbhd);
        let estimator = MissEstimator::new(&profile);
        assert_eq!(costs.len(), nbhd.len());
        for (lane, (basis, &cost)) in nbhd.bases().zip(&costs).enumerate() {
            assert_eq!(cost, estimator.estimate_packed(basis), "lane {lane}");
        }
        let after = engine.stats();
        // Every lane was priced from one scaffold probe.
        assert_eq!(after.evaluations - before.evaluations, lanes);
        assert_eq!(after.bounded_abandons, before.bounded_abandons);
        assert_eq!(
            (after.scaffold_hits + after.scaffold_misses)
                - (before.scaffold_hits + before.scaffold_misses),
            1
        );
        // The scaffold the search step built for this parent was reused.
        assert_eq!(after.scaffold_hits - before.scaffold_hits, 1);
    }

    #[test]
    fn threaded_sliced_coset_route_is_bit_identical_and_actually_splits() {
        let profile = mixed_profile();
        let nbhd = xor_neighborhood(&profile, 6);
        // Enough lanes that the threaded route has ≥ PARALLEL_THRESHOLD
        // runs to split across workers.
        assert!(nbhd.candidates.len() >= PARALLEL_THRESHOLD * LANE_RUN);
        let mut sequential = EvalEngine::new(&profile).with_threads(1);
        let mut parallel = EvalEngine::new(&profile).with_threads(4);
        let reference = sequential.estimate_neighborhood(&nbhd);
        assert_eq!(parallel.estimate_neighborhood(&nbhd), reference);
        // The parallel engine really split the lanes: it spawned one
        // parallel batch, which the sequential engine never does.
        assert_eq!(sequential.stats().parallel_batches, 0);
        assert_eq!(parallel.stats().parallel_batches, 1);
        assert_eq!(sequential.stats().evaluations, parallel.stats().evaluations);
    }

    #[test]
    fn a_direction_inside_the_parent_prices_the_parent_itself() {
        // A hand-built lane whose direction lies in the parent but outside
        // its hyperplane: the candidate re-extends the hyperplane to the
        // parent, and prices exactly as the parent does.
        let profile = mixed_profile();
        let parent = PackedBasis::standard_span(12, 6..12);
        let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().take(2).collect();
        let candidates = hyperplanes
            .iter()
            .enumerate()
            .map(|(h, hyperplane)| {
                let inside = parent
                    .vectors()
                    .find(|&v| v != 0 && !hyperplane.contains(v))
                    .expect("a hyperplane misses half the parent");
                crate::search::PackedCandidate {
                    hyperplane: h,
                    direction: inside,
                    basis: hyperplane.extended(inside),
                }
            })
            .collect();
        let nbhd = PackedNeighborhood {
            width: 12,
            hyperplanes,
            candidates,
        };
        let kernel = FrozenKernel::new(&profile);
        let parent_cost = kernel.cost(&parent);
        for candidate in &nbhd.candidates {
            assert_eq!(candidate.basis, parent);
        }
        assert_eq!(
            EvalEngine::new(&profile).estimate_neighborhood(&nbhd),
            vec![parent_cost; 2]
        );
        assert_eq!(
            EvalEngine::new(&profile).estimate_neighborhood_bounded(&nbhd, parent_cost),
            vec![BoundedCost::AtLeast(parent_cost); 2]
        );
    }

    #[test]
    fn bounded_neighborhood_is_exact_below_and_at_least_above() {
        let profile = mixed_profile();
        let nbhd = xor_neighborhood(&profile, 6);
        let estimator = MissEstimator::new(&profile);
        let exact: Vec<u64> = nbhd.bases().map(|b| estimator.estimate_packed(b)).collect();
        let lo = *exact.iter().min().unwrap();
        let hi = *exact.iter().max().unwrap();
        for bound in [lo, lo + (hi - lo) / 2, hi + 1] {
            let mut engine = EvalEngine::new(&profile);
            let bounded = engine.estimate_neighborhood_bounded(&nbhd, bound);
            let mut abandons = 0u64;
            for (lane, (&true_cost, &got)) in exact.iter().zip(&bounded).enumerate() {
                match got {
                    BoundedCost::Exact(cost) => {
                        assert_eq!(cost, true_cost, "bound={bound} lane={lane}")
                    }
                    BoundedCost::AtLeast(b) => {
                        assert_eq!(b, bound);
                        assert!(true_cost >= bound, "bound={bound} lane={lane}");
                        abandons += 1;
                    }
                }
            }
            assert_eq!(engine.stats().bounded_abandons, abandons);
            assert_eq!(
                engine.stats().evaluations,
                exact.len() as u64 - abandons,
                "only exact lanes count as evaluations"
            );
            // Nothing is cached: a second bounded pass prices the exact lanes
            // again and re-abandons the rest.
            let again = engine.estimate_neighborhood_bounded(&nbhd, bound);
            assert_eq!(again, bounded);
            assert_eq!(engine.stats().bounded_abandons, 2 * abandons);
            assert_eq!(
                engine.stats().evaluations,
                2 * (exact.len() as u64 - abandons)
            );
        }
    }

    #[test]
    fn best_lanes_keep_the_cheapest_admitted_lanes_in_generation_order() {
        let profile = mixed_profile();
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(12, &profile);
        let parent = PackedBasis::standard_span(12, 6..12);
        let lanes = NeighborLanes::generate(&parent, FunctionClass::xor_unlimited(), &pool);
        let nbhd = lanes.materialize();
        let costs = EvalEngine::new(&profile).estimate_neighborhood(&nbhd);
        // Admit every third lane only, recognized by its basis.
        let admit = |basis: &PackedBasis| {
            let i = nbhd
                .bases()
                .position(|b| b == basis)
                .expect("a lane's basis");
            (i % 3 == 0).then_some(i)
        };
        let mut ranked: Vec<(usize, u64)> = costs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i % 3 == 0)
            .map(|(i, &cost)| (i, cost))
            .collect();
        ranked.sort_unstable_by_key(|&(i, cost)| (cost, i));
        assert!(ranked.windows(2).any(|pair| pair[0].1 == pair[1].1));
        for k in [1, 3, 50, lanes.len() + 1] {
            let mut engine = EvalEngine::new(&profile);
            let best = engine.best_lanes(&lanes, k, admit);
            assert_eq!(best, ranked[..k.min(ranked.len())], "k = {k}");
            // Every lane is priced once, from one scaffold probe.
            let stats = engine.stats();
            assert_eq!(
                stats.evaluations + stats.bounded_abandons,
                lanes.len() as u64
            );
            assert_eq!(stats.scaffold_hits + stats.scaffold_misses, 1);
        }
        // Nothing to hold: nothing is priced or probed.
        let mut engine = EvalEngine::new(&profile);
        assert!(engine.best_lanes(&lanes, 0, admit).is_empty());
        assert_eq!(engine.stats(), EngineStats::default());
    }

    #[test]
    fn scaffold_cache_hits_across_neighborhood_revisits() {
        let profile = mixed_profile();
        let nbhd = xor_neighborhood(&profile, 6);
        let mut engine = EvalEngine::new(&profile);
        // Each pass re-prices the lanes, but the scaffolding is built once
        // and reused.
        let first = engine.estimate_neighborhood(&nbhd);
        assert_eq!(engine.estimate_neighborhood(&nbhd), first);
        assert_eq!(engine.stats().scaffold_misses, 1);
        assert!(engine.stats().scaffold_hits >= 1);
        let cache_stats = engine.scaffold_cache().stats();
        assert_eq!(cache_stats.misses, 1);
        assert_eq!(cache_stats.entries, 1);
        // Engines sharing the cache handle pool scaffolding.
        let mut shared = EvalEngine::from_parts(Arc::clone(engine.kernel()))
            .with_scaffold_cache(engine.scaffold_cache().clone());
        assert_eq!(shared.estimate_neighborhood(&nbhd), first);
        assert_eq!(shared.stats().scaffold_misses, 0);
        assert_eq!(shared.stats().scaffold_hits, 1);
        // Reset clears the shared table.
        engine.reset();
        assert_eq!(engine.scaffold_cache().stats().entries, 0);
    }
}
