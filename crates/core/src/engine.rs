//! Dense evaluation engine for Eq. 4 over whole candidate sets.
//!
//! [`MissEstimator`](crate::MissEstimator) evaluates one candidate at a time
//! against the `HashMap` histogram; every search step re-pays key hashing,
//! `Subspace` traversal and — across steps — re-evaluation of candidates the
//! search has already seen. [`EvalEngine`] is the batch-oriented replacement
//! the search algorithms run on. Since the engine split it is a thin façade
//! over two shareable parts:
//!
//! * [`FrozenKernel`] — the immutable pricing core: the [`DenseProfile`]
//!   snapshot plus all Eq. 4 arithmetic (full walks, histogram scans,
//!   coset-sliced neighbourhood sums) and strategy resolution. `Send + Sync`,
//!   shared via `Arc` so one kernel per application serves any number of
//!   searches and serving workers concurrently.
//! * [`ShardedMemo`] — the concurrent `CanonicalKey → u64` memo, sharded
//!   across `Mutex<HashMap>` shards selected by the key hash, probe-able
//!   allocation-free, with per-shard hit/miss stats and an optional entry
//!   cap.
//!
//! The façade adds what a single search loop needs on top: per-engine work
//! counters ([`EngineStats`]), batch orchestration with
//! `std::thread::scope` parallelism, and incumbent-bounded neighbourhood
//! pricing over a cached coset scaffold. All paths compute the exact Eq. 4
//! sum; estimates are bit-identical to
//! [`MissEstimator`](crate::MissEstimator) under every
//! [`EstimationStrategy`](crate::EstimationStrategy), with or without a memo
//! cap, and however many engines share one kernel and memo.

use std::sync::{Arc, OnceLock};

use gf2::{PackedBasis, SLICED_LANES};

use crate::search::PackedNeighborhood;
use crate::{
    BatchStrategy, BoundedCost, ConflictProfile, DenseProfile, FrozenKernel, ScaffoldCache,
    ShardedMemo,
};

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

/// Counters describing the work an [`EvalEngine`] has performed.
///
/// These are per-engine (per-façade) counters: an engine sharing its
/// [`ShardedMemo`] with other engines still reports only its own evaluations
/// and hits here; the shared table's global view is
/// [`ShardedMemo::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Candidate Eq. 4 evaluations priced exactly (full walks, scans or
    /// sliced-block lanes). Memo hits are not counted, so on the memoized
    /// routes these are unique candidates; each
    /// [`EvalEngine::estimate_neighborhood`] call counts all its lanes.
    pub evaluations: u64,
    /// Candidate costs answered from the memo table.
    pub memo_hits: u64,
    /// Batches that were split across threads.
    pub parallel_batches: u64,
    /// Transposed 64-lane blocks priced by one histogram scan each (generic
    /// sliced blocks and neighbourhood coset blocks alike).
    pub sliced_blocks: u64,
    /// Coset scaffoldings (frame + grouped histogram) answered from this
    /// engine's [`ScaffoldCache`].
    pub scaffold_hits: u64,
    /// Coset scaffoldings built from the dense profile.
    pub scaffold_misses: u64,
    /// Lanes abandoned by bounded pricing because their running sum saturated
    /// the incumbent bound (reported as [`BoundedCost::AtLeast`], never
    /// memoized, not counted as evaluations).
    pub bounded_abandons: u64,
}

/// Batch evaluator of Eq. 4 (`misses(H) = Σ_{v ∈ N(H)} misses(v)`) over a
/// frozen [`DenseProfile`] — a compatibility façade over an
/// `Arc<`[`FrozenKernel`]`>` and a [`ShardedMemo`].
///
/// Cloning an engine clones the `Arc` and the memo *handle*: the clone prices
/// against the same kernel and shares the same memo table (its
/// [`EngineStats`] start fresh).
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
/// let ns = conventional.null_space().to_packed();
/// assert_eq!(
///     engine.estimate_packed(&ns),
///     MissEstimator::new(&profile).estimate(&conventional)?
/// );
/// // The second query is a memo hit.
/// engine.estimate_packed(&ns);
/// assert_eq!(engine.stats().evaluations, 1);
/// assert_eq!(engine.stats().memo_hits, 1);
/// # Ok::<(), xorindex::XorIndexError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EvalEngine<'a> {
    profile: &'a ConflictProfile,
    kernel: Arc<FrozenKernel>,
    memo: ShardedMemo,
    scaffold: ScaffoldCache,
    threads: usize,
    stats: EngineStats,
}

impl<'a> EvalEngine<'a> {
    /// Builds an engine over a profile, freezing its histogram into a private
    /// kernel. Uses as many threads as the host exposes.
    #[must_use]
    pub fn new(profile: &'a ConflictProfile) -> Self {
        Self::from_parts(
            profile,
            Arc::new(FrozenKernel::new(profile)),
            ShardedMemo::new(),
        )
    }

    /// Assembles an engine from an existing kernel and memo handle — the
    /// sharing entry point: several engines (across searches, threads or
    /// serving workers) built from clones of the same `Arc` and memo answer
    /// from one frozen histogram and one cache.
    ///
    /// # Panics
    ///
    /// Panics if the kernel was frozen for a different hashed width than
    /// `profile` records.
    #[must_use]
    pub fn from_parts(
        profile: &'a ConflictProfile,
        kernel: Arc<FrozenKernel>,
        memo: ShardedMemo,
    ) -> Self {
        assert_eq!(
            kernel.hashed_bits(),
            profile.hashed_bits(),
            "kernel width must match the profile"
        );
        EvalEngine {
            profile,
            kernel,
            memo,
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

    /// Replaces the memo with a fresh entry-capped table (see
    /// [`ShardedMemo::with_capacity`]); estimates are unaffected, overflow
    /// is recomputed instead of cached. Call at construction time.
    #[must_use]
    pub fn with_memo_capacity(mut self, total_entries: usize) -> Self {
        self.memo = ShardedMemo::with_capacity(total_entries);
        self
    }

    /// Replaces the coset scaffolding cache with the given handle — the
    /// sharing entry point: engines (and a serving layer) holding clones of
    /// one cache pool their per-parent frames and grouped histograms. Also
    /// the way to resize it: pass
    /// [`ScaffoldCache::with_capacity`]`(n)`.
    #[must_use]
    pub fn with_scaffold_cache(mut self, cache: ScaffoldCache) -> Self {
        self.scaffold = cache;
        self
    }

    /// The profile this engine evaluates against.
    #[must_use]
    pub fn profile(&self) -> &ConflictProfile {
        self.profile
    }

    /// The shared pricing kernel. Clone the `Arc` to share it with another
    /// engine or a serving layer.
    #[must_use]
    pub fn kernel(&self) -> &Arc<FrozenKernel> {
        &self.kernel
    }

    /// The memo handle. Clones share this engine's table.
    #[must_use]
    pub fn memo(&self) -> &ShardedMemo {
        &self.memo
    }

    /// The coset scaffolding cache handle. Clones share this engine's table.
    #[must_use]
    pub fn scaffold_cache(&self) -> &ScaffoldCache {
        &self.scaffold
    }

    /// The frozen dense view of the histogram.
    #[must_use]
    pub fn dense(&self) -> &DenseProfile {
        self.kernel.dense()
    }

    /// Work counters accumulated since construction (or the last
    /// [`EvalEngine::reset`]).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Clears the memo table, the scaffolding cache and the counters, keeping
    /// the frozen kernel. The memo and scaffold clears affect every handle
    /// sharing those tables.
    pub fn reset(&mut self) {
        self.memo.clear();
        self.scaffold.clear();
        self.stats = EngineStats::default();
    }

    /// Estimated conflict misses of any function whose null space is `basis`,
    /// memoized on the canonical key — the packed-native single-candidate
    /// entry point.
    ///
    /// # Panics
    ///
    /// Panics if the basis's ambient width differs from the profile's hashed
    /// width.
    pub fn estimate_packed(&mut self, basis: &PackedBasis) -> u64 {
        self.kernel.check_width(basis);
        let kernel = &self.kernel;
        let (cost, hit) = self.memo.price_with(basis, || kernel.cost(basis));
        if hit {
            self.stats.memo_hits += 1;
        } else {
            self.stats.evaluations += 1;
        }
        cost
    }

    /// Prices a whole batch of packed candidates, answering memoized ones
    /// from cache and pricing the rest under the kernel's resolved
    /// [`BatchStrategy`] — per candidate in parallel, or transposed into
    /// 64-lane sliced blocks with whole blocks as the unit of parallelism —
    /// then backfilling the memo from the batch results.
    ///
    /// # Panics
    ///
    /// Panics if any candidate's ambient width differs from the profile's
    /// hashed width.
    pub fn estimate_batch(&mut self, candidates: &[PackedBasis]) -> Vec<u64> {
        let mut out = vec![0u64; candidates.len()];
        let mut pending: Vec<usize> = Vec::new();
        for (i, basis) in candidates.iter().enumerate() {
            self.kernel.check_width(basis);
            if let Some(cost) = self.memo.probe(basis) {
                self.stats.memo_hits += 1;
                out[i] = cost;
            } else {
                pending.push(i);
            }
        }
        if pending.is_empty() {
            return out;
        }
        let kernel = &*self.kernel;
        let dims: Vec<usize> = pending.iter().map(|&i| candidates[i].dim()).collect();
        match kernel.batch_strategy(&dims) {
            BatchStrategy::PerCandidate => {
                let costs = Self::map_parallel(&pending, self.threads, &mut self.stats, |&i| {
                    kernel.cost(&candidates[i])
                });
                self.stats.evaluations += pending.len() as u64;
                for (i, cost) in pending.into_iter().zip(costs) {
                    out[i] = cost;
                    self.memo.insert(&candidates[i], cost);
                }
            }
            BatchStrategy::SlicedScan => {
                let chunks: Vec<&[usize]> = pending.chunks(SLICED_LANES).collect();
                let blocks = Self::map_parallel(&chunks, self.threads, &mut self.stats, |chunk| {
                    let refs: Vec<&PackedBasis> = chunk.iter().map(|&i| &candidates[i]).collect();
                    kernel.cost_batch_sliced(&refs)
                });
                self.stats.evaluations += pending.len() as u64;
                self.stats.sliced_blocks += chunks.len() as u64;
                for (chunk, costs) in chunks.iter().zip(blocks) {
                    for (&i, cost) in chunk.iter().zip(costs) {
                        out[i] = cost;
                        self.memo.insert(&candidates[i], cost);
                    }
                }
            }
        }
        out
    }

    /// Prices a packed neighbourhood exactly, without touching the memo:
    /// every lane is summed to completion from the cached coset scaffold of
    /// the neighbourhood's parent, 64 lanes per block. Returns costs aligned
    /// with `neighborhood.candidates`, bit-identical to
    /// [`FrozenKernel::cost`].
    ///
    /// This is the ranking call for a neighbourhood that is priced once and
    /// then dropped, such as the verified pick's ranking of the search
    /// winner's neighbourhood: probing the memo would miss on most lanes,
    /// and backfilling it would store costs no later step reads. Every lane
    /// counts as an evaluation. A search step that revisits candidates
    /// prices through [`EvalEngine::estimate_neighborhood_bounded`], which
    /// probes and backfills.
    ///
    /// # Panics
    ///
    /// Panics if a candidate's ambient width differs from the profile's
    /// hashed width.
    pub fn estimate_neighborhood(&mut self, neighborhood: &PackedNeighborhood) -> Vec<u64> {
        let Some(parent) = neighborhood.parent_span() else {
            return Vec::new();
        };
        let lanes: Vec<(usize, u64)> = neighborhood
            .candidates
            .iter()
            .map(|candidate| {
                self.kernel.check_width(&candidate.basis);
                (candidate.hyperplane, candidate.direction)
            })
            .collect();
        self.price_lanes(&parent, &neighborhood.hyperplanes, &lanes, u64::MAX)
            .into_iter()
            .map(BoundedCost::lower_bound)
            .collect()
    }

    /// Prices a packed neighbourhood under an incumbent bound — the path
    /// every search step runs on: per lane, either the exact cost (memo hit,
    /// or priced below the bound) or [`BoundedCost::AtLeast`]`(bound)` for a
    /// lane whose running sum saturated the incumbent and was abandoned
    /// mid-scan.
    ///
    /// The memo is probed first; the misses are priced as in
    /// [`EvalEngine::estimate_neighborhood`], each block abandoning once
    /// every lane has saturated. Exact lanes are bit-identical to
    /// [`FrozenKernel::cost`] and are backfilled into the memo; abandoned
    /// lanes are never memoized, so memoization stays bit-correct.
    ///
    /// # Panics
    ///
    /// Panics if a candidate's ambient width differs from the profile's
    /// hashed width.
    pub fn estimate_neighborhood_bounded(
        &mut self,
        neighborhood: &PackedNeighborhood,
        bound: u64,
    ) -> Vec<BoundedCost> {
        let Some(parent) = neighborhood.parent_span() else {
            return Vec::new();
        };
        let mut out = vec![BoundedCost::AtLeast(bound); neighborhood.candidates.len()];
        let mut pending: Vec<usize> = Vec::new();
        for (i, candidate) in neighborhood.candidates.iter().enumerate() {
            self.kernel.check_width(&candidate.basis);
            if let Some(cost) = self.memo.probe(&candidate.basis) {
                // A memo hit is exact whatever the bound.
                self.stats.memo_hits += 1;
                out[i] = BoundedCost::Exact(cost);
            } else {
                pending.push(i);
            }
        }
        if pending.is_empty() {
            return out;
        }
        let lanes: Vec<(usize, u64)> = pending
            .iter()
            .map(|&i| {
                let candidate = &neighborhood.candidates[i];
                (candidate.hyperplane, candidate.direction)
            })
            .collect();
        let priced = self.price_lanes(&parent, &neighborhood.hyperplanes, &lanes, bound);
        for (&i, cost) in pending.iter().zip(priced) {
            if let BoundedCost::Exact(sum) = cost {
                self.memo.insert(&neighborhood.candidates[i].basis, sum);
            }
            out[i] = cost;
        }
        out
    }

    /// Prices `(hyperplane index, direction)` lanes over `parent` under
    /// `bound`: the lanes are transposed, 64 at a time, into
    /// [`gf2::SlicedCosetBlock`]s and priced from the parent's cached
    /// remainder-grouped histogram, whole blocks split across the engine's
    /// threads. Counts the blocks, the scaffold probe, the exact lanes as
    /// evaluations and the saturated ones as abandons.
    fn price_lanes(
        &mut self,
        parent: &PackedBasis,
        hyperplanes: &[PackedBasis],
        lanes: &[(usize, u64)],
        bound: u64,
    ) -> Vec<BoundedCost> {
        // The scaffolding — hyperplane functionals and the remainder-grouped
        // histogram — is cached per parent and shared read-only, so the
        // 64-lane blocks are independent units of work: each touches only the
        // entries its cosets select, and chunks stamp on scoped threads.
        let scaffold = self.cached_scaffold(parent, hyperplanes);
        let chunks: Vec<&[(usize, u64)]> = lanes.chunks(SLICED_LANES).collect();
        let frame = &*scaffold.frame;
        let histogram = &*scaffold.histogram;
        let blocks = Self::map_parallel(&chunks, self.threads, &mut self.stats, |chunk| {
            frame.block(chunk).sum_weights(histogram, bound)
        });
        self.stats.sliced_blocks += chunks.len() as u64;
        let priced: Vec<BoundedCost> = blocks
            .into_iter()
            .flat_map(|block| BoundedCost::from_block(block, bound))
            .collect();
        for cost in &priced {
            match cost {
                BoundedCost::Exact(_) => self.stats.evaluations += 1,
                BoundedCost::AtLeast(_) => self.stats.bounded_abandons += 1,
            }
        }
        priced
    }

    /// Checks the coset scaffolding for `parent` out of the cache (building
    /// it on a miss) and folds the outcome into this engine's counters.
    fn cached_scaffold(
        &mut self,
        parent: &PackedBasis,
        hyperplanes: &[PackedBasis],
    ) -> crate::scaffold::Scaffold {
        let scaffold = self.scaffold.scaffold(&self.kernel, parent, hyperplanes);
        if scaffold.cached {
            self.stats.scaffold_hits += 1;
        } else {
            self.stats.scaffold_misses += 1;
        }
        scaffold
    }

    /// [`EvalEngine::estimate_packed`] under an incumbent bound: a memo hit
    /// answers exactly whatever the bound; a fresh evaluation scans under the
    /// bound and abandons with [`BoundedCost::AtLeast`] once the running sum
    /// saturates it. Only exact results are memoized.
    ///
    /// # Panics
    ///
    /// Panics if the basis's ambient width differs from the profile's hashed
    /// width.
    pub fn estimate_packed_bounded(&mut self, basis: &PackedBasis, bound: u64) -> BoundedCost {
        self.kernel.check_width(basis);
        if let Some(cost) = self.memo.probe(basis) {
            self.stats.memo_hits += 1;
            return BoundedCost::Exact(cost);
        }
        match self.kernel.cost_bounded(basis, bound) {
            BoundedCost::Exact(cost) => {
                self.stats.evaluations += 1;
                self.memo.insert(basis, cost);
                BoundedCost::Exact(cost)
            }
            abandoned => {
                self.stats.bounded_abandons += 1;
                abandoned
            }
        }
    }

    /// Maps `job_cost` over `jobs` in order, splitting across scoped threads
    /// when the engine is configured for parallelism and the batch is large
    /// enough. Jobs may be single candidates (costing a `u64`) or whole
    /// sliced blocks (costing a `Vec<u64>` each).
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
                let ns = f.null_space();
                let packed = ns.to_packed();
                assert_eq!(
                    engine.estimate_packed(&packed),
                    estimator.estimate_null_space(&ns),
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
        // over the materialized candidates. Each, on a fresh engine so no
        // memo carries over, must reproduce the scalar costs exactly.
        let profile = mixed_profile();
        // Wide enough to span several memo shards.
        let nbhd = xor_neighborhood(&profile, 6);
        assert!(nbhd.len() > crate::memo::DEFAULT_MEMO_SHARDS);
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
    fn batch_evaluation_matches_singles_and_memoizes() {
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
        // Second pass is answered entirely from the memo.
        let again = engine.estimate_batch(&candidates);
        assert_eq!(again, batch);
        assert_eq!(engine.stats().evaluations, candidates.len() as u64);
        assert_eq!(engine.stats().memo_hits, candidates.len() as u64);
    }

    #[test]
    fn neighborhood_delta_evaluation_is_exact() {
        // Six set bits leave 6-dimensional null spaces, small enough that a
        // single candidate would be priced by enumeration: every class's
        // neighbourhood must still price exactly through the coset blocks.
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
    fn reset_clears_memo_and_stats() {
        let profile = mixed_profile();
        let mut engine = EvalEngine::new(&profile);
        let ns = PackedBasis::standard_span(12, 6..12);
        engine.estimate_packed(&ns);
        assert_eq!(engine.stats().evaluations, 1);
        engine.reset();
        assert_eq!(engine.stats(), EngineStats::default());
        engine.estimate_packed(&ns);
        assert_eq!(engine.stats().evaluations, 1);
        assert_eq!(engine.stats().memo_hits, 0);
    }

    #[test]
    fn engines_sharing_kernel_and_memo_answer_from_one_table() {
        let profile = mixed_profile();
        let first = EvalEngine::new(&profile);
        let mut second =
            EvalEngine::from_parts(&profile, Arc::clone(first.kernel()), first.memo().clone());
        let mut first = first;
        let ns = PackedBasis::standard_span(12, 6..12);
        let cost = first.estimate_packed(&ns);
        // The second engine hits the shared memo without evaluating.
        assert_eq!(second.estimate_packed(&ns), cost);
        assert_eq!(second.stats().evaluations, 0);
        assert_eq!(second.stats().memo_hits, 1);
        // The shared table saw one miss (first engine) and one hit (second).
        assert_eq!(first.memo().stats().hits, 1);
        assert_eq!(first.memo().stats().misses, 1);
    }

    #[test]
    fn capped_memo_is_bit_identical_with_more_recomputation() {
        let profile = mixed_profile();
        let nbhd = xor_neighborhood(&profile, 6);

        // The memo-backed route is the search step's, at bound `u64::MAX`.
        let mut uncapped = EvalEngine::new(&profile).with_threads(1);
        let mut capped = EvalEngine::new(&profile)
            .with_threads(1)
            .with_memo_capacity(4);
        let reference = uncapped.estimate_neighborhood_bounded(&nbhd, u64::MAX);
        assert!(reference.iter().all(|cost| cost.exact().is_some()));
        assert_eq!(
            capped.estimate_neighborhood_bounded(&nbhd, u64::MAX),
            reference
        );
        // Re-pricing the same neighbourhood: the capped engine recomputes
        // everything it could not cache, still bit-identically.
        assert_eq!(
            capped.estimate_neighborhood_bounded(&nbhd, u64::MAX),
            reference
        );
        assert_eq!(
            uncapped.estimate_neighborhood_bounded(&nbhd, u64::MAX),
            reference
        );
        assert!(capped.stats().evaluations > uncapped.stats().evaluations);
        // Capacity 4 is enforced as ceil(4/shards) per shard.
        assert!(capped.memo().len() <= capped.memo().shards());
        assert!(capped.memo().stats().rejected_inserts > 0);
    }

    #[test]
    #[should_panic(expected = "width must match")]
    fn width_mismatch_panics() {
        let profile = mixed_profile();
        let mut engine = EvalEngine::new(&profile);
        let _ = engine.estimate_packed(&PackedBasis::standard_span(8, 0..8));
    }

    #[test]
    fn coset_route_counts_blocks_and_backfills_the_memo() {
        let profile = mixed_profile();
        let nbhd = xor_neighborhood(&profile, 6);
        // The route that backfills is the search step's, at bound `u64::MAX`.
        let mut engine = EvalEngine::new(&profile);
        let first = engine.estimate_neighborhood_bounded(&nbhd, u64::MAX);
        let lanes = nbhd.candidates.len() as u64;
        assert_eq!(engine.stats().evaluations, lanes);
        assert_eq!(
            engine.stats().sliced_blocks,
            lanes.div_ceil(gf2::SLICED_LANES as u64)
        );
        // Every block result landed in the memo: the second pass is all hits.
        assert_eq!(engine.estimate_neighborhood_bounded(&nbhd, u64::MAX), first);
        assert_eq!(engine.stats().evaluations, lanes);
        assert_eq!(engine.stats().memo_hits, lanes);
    }

    #[test]
    fn estimate_neighborhood_prices_every_lane_without_touching_the_memo() {
        let profile = mixed_profile();
        let nbhd = xor_neighborhood(&profile, 6);
        let lanes = nbhd.candidates.len() as u64;
        let mut engine = EvalEngine::new(&profile);
        // Half-warm the memo through the search step's route, so there are
        // entries a probing ranker would hit.
        let costliest = nbhd.bases().map(|b| engine.kernel().cost(b)).max();
        let _ = engine.estimate_neighborhood_bounded(&nbhd, costliest.unwrap());
        let memo_before = engine.memo().stats();
        assert!(memo_before.entries > 0 && (memo_before.entries as u64) < lanes);
        let before = engine.stats();

        let costs = engine.estimate_neighborhood(&nbhd);
        let estimator = MissEstimator::new(&profile);
        assert_eq!(costs.len(), nbhd.len());
        for (lane, (basis, &cost)) in nbhd.bases().zip(&costs).enumerate() {
            assert_eq!(cost, estimator.estimate_packed(basis), "lane {lane}");
        }
        // Neither probed (hit and miss counters unchanged) nor backfilled.
        assert_eq!(engine.memo().stats(), memo_before);
        assert_eq!(engine.memo().len(), memo_before.entries);
        let after = engine.stats();
        assert_eq!(after.memo_hits, before.memo_hits);
        // Every lane was priced, in full blocks, from one scaffold probe.
        assert_eq!(after.evaluations - before.evaluations, lanes);
        assert_eq!(
            after.sliced_blocks - before.sliced_blocks,
            lanes.div_ceil(gf2::SLICED_LANES as u64)
        );
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
        // Enough candidates that the sliced route has ≥ PARALLEL_THRESHOLD
        // 64-lane chunks to split across workers.
        assert!(nbhd.candidates.len() >= PARALLEL_THRESHOLD * gf2::SLICED_LANES);
        let mut sequential = EvalEngine::new(&profile).with_threads(1);
        let mut parallel = EvalEngine::new(&profile).with_threads(4);
        let reference = sequential.estimate_neighborhood(&nbhd);
        assert_eq!(parallel.estimate_neighborhood(&nbhd), reference);
        // The parallel engine really split the sliced route: it counted the
        // same blocks but spawned at least one parallel batch, which the
        // sequential engine never does.
        let chunks = (nbhd.candidates.len() as u64).div_ceil(gf2::SLICED_LANES as u64);
        assert_eq!(sequential.stats().sliced_blocks, chunks);
        assert_eq!(parallel.stats().sliced_blocks, chunks);
        assert_eq!(sequential.stats().parallel_batches, 0);
        assert_eq!(parallel.stats().parallel_batches, 1);
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
            // Only exact lanes were memoized; a second bounded pass answers
            // them from the memo and re-abandons the rest.
            let again = engine.estimate_neighborhood_bounded(&nbhd, bound);
            assert_eq!(again, bounded);
            assert_eq!(engine.stats().memo_hits, exact.len() as u64 - abandons);
        }
    }

    #[test]
    fn bounded_single_candidate_pricing_memoizes_only_exact_results() {
        let profile = mixed_profile();
        let mut engine = EvalEngine::new(&profile);
        let ns = PackedBasis::standard_span(12, 6..12);
        let exact = engine.kernel().cost(&ns);
        // Below the bound: exact, memoized.
        assert_eq!(
            engine.estimate_packed_bounded(&ns, exact + 1),
            BoundedCost::Exact(exact)
        );
        assert_eq!(engine.stats().evaluations, 1);
        // A memo hit answers exactly even under a tighter bound.
        assert_eq!(
            engine.estimate_packed_bounded(&ns, exact),
            BoundedCost::Exact(exact)
        );
        assert_eq!(engine.stats().memo_hits, 1);
        // A fresh candidate under a saturating bound abandons and stays
        // unmemoized.
        let other = PackedBasis::standard_span(12, 5..12);
        let other_exact = engine.kernel().cost(&other);
        if other_exact > 0 {
            assert_eq!(
                engine.estimate_packed_bounded(&other, other_exact),
                BoundedCost::AtLeast(other_exact)
            );
            assert_eq!(engine.stats().bounded_abandons, 1);
            assert!(engine.memo().probe(&other).is_none());
        }
    }

    #[test]
    fn scaffold_cache_hits_across_neighborhood_revisits() {
        let profile = mixed_profile();
        let nbhd = xor_neighborhood(&profile, 6);
        let mut engine = EvalEngine::new(&profile).with_memo_capacity(1);
        // With the memo effectively disabled, each pass re-prices the lanes —
        // but the scaffolding is built once and reused.
        let first = engine.estimate_neighborhood(&nbhd);
        assert_eq!(engine.estimate_neighborhood(&nbhd), first);
        assert_eq!(engine.stats().scaffold_misses, 1);
        assert!(engine.stats().scaffold_hits >= 1);
        let cache_stats = engine.scaffold_cache().stats();
        assert_eq!(cache_stats.misses, 1);
        assert_eq!(cache_stats.entries, 1);
        // Engines sharing the cache handle pool scaffolding.
        let mut shared = EvalEngine::from_parts(
            &profile,
            Arc::clone(engine.kernel()),
            ShardedMemo::with_capacity(1),
        )
        .with_scaffold_cache(engine.scaffold_cache().clone());
        assert_eq!(shared.estimate_neighborhood(&nbhd), first);
        assert_eq!(shared.stats().scaffold_misses, 0);
        assert_eq!(shared.stats().scaffold_hits, 1);
        // Reset clears the shared table.
        engine.reset();
        assert_eq!(engine.scaffold_cache().stats().entries, 0);
    }

    #[test]
    fn forced_sliced_batches_count_blocks_and_backfill() {
        // 64 two-dimensional-codimension null spaces: wide enough that the
        // kernel resolves the batch to one transposed histogram scan.
        let profile = mixed_profile();
        let candidates: Vec<PackedBasis> = (0..12)
            .flat_map(|i| (i + 1..12).map(move |j| (i, j)))
            .take(SLICED_LANES)
            .map(|(i, j)| PackedBasis::standard_span(12, (0..12).filter(|&b| b != i && b != j)))
            .collect();
        let mut engine = EvalEngine::new(&profile);
        let dims: Vec<usize> = candidates.iter().map(PackedBasis::dim).collect();
        assert_eq!(
            engine.kernel().batch_strategy(&dims),
            BatchStrategy::SlicedScan
        );
        let batch = engine.estimate_batch(&candidates);
        let fresh: Vec<u64> = candidates.iter().map(|b| engine.kernel().cost(b)).collect();
        assert_eq!(batch, fresh);
        assert_eq!(engine.stats().sliced_blocks, 1);
        // Backfilled: re-estimating costs no further evaluations.
        let evaluations = engine.stats().evaluations;
        assert_eq!(engine.estimate_batch(&candidates), batch);
        assert_eq!(engine.stats().evaluations, evaluations);
    }
}
