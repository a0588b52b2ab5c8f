//! End-to-end optimization pipeline: profile → search → verify.

use std::sync::{Arc, OnceLock};

use cache_sim::{BlockAddr, CacheConfig, CacheStats};
use xorindex::search::{NeighborPool, Searcher};
use xorindex::{
    ConflictProfile, FrozenKernel, FunctionClass, HashFunction, ProfileSummary, SearchAlgorithm,
    SearchOutcome, XorIndexError,
};

use crate::{verified_pick, SimStats, TraceReplayer, VerifiedOutcome};

/// Every function here is built for the replayer's cache: replays cannot fail.
const FITS: &str = "searched for this cache";

/// Every requested search over one trace, each verified by simulation.
#[derive(Debug, Clone)]
pub struct TraceVerdicts {
    /// Counters of the trace's one profiling pass.
    pub profile: ProfileSummary,
    /// The replayer every simulation ran on (and its cached reuse stream).
    pub replayer: TraceReplayer,
    /// The conventional function's simulation, replayed once.
    pub baseline: SimStats,
    /// One outcome per requested search, in order; each slate is the winner.
    pub outcomes: Vec<VerifiedOutcome>,
}

/// Profiles `blocks` once for `cache`, freezes one kernel and replays the
/// conventional baseline once, then runs every `(class, algorithm)` search
/// in order (neighbours from `pool`, up to `threads` engine workers, `None`
/// = one per host CPU) and verifies each winner with [`verified_pick`].
///
/// # Errors
///
/// When the geometry is invalid (e.g. more set-index bits than hashed bits)
/// or a search fails.
pub fn verify_trace(
    cache: CacheConfig,
    hashed_bits: usize,
    blocks: Arc<Vec<BlockAddr>>,
    searches: &[(FunctionClass, SearchAlgorithm)],
    pool: &NeighborPool,
    threads: Option<usize>,
) -> Result<TraceVerdicts, XorIndexError> {
    let profile = ConflictProfile::from_blocks(
        blocks.iter().copied(),
        hashed_bits,
        cache.num_blocks() as usize,
    );
    let kernel = Arc::new(FrozenKernel::new(&profile));
    let replayer = TraceReplayer::new(cache, blocks);
    let conventional = HashFunction::conventional(hashed_bits, cache.set_bits())?;
    let baseline = replayer.replay(&conventional).expect(FITS);
    let cached = OnceLock::from(baseline.clone());
    let outcomes = searches
        .iter()
        .map(|&search_for| {
            let search = search(&kernel, cache.set_bits(), search_for, pool, threads)?;
            let slate = vec![search.function.clone()];
            let estimates = vec![search.estimated_misses];
            Ok(verified_pick(&replayer, search, slate, estimates, &cached).expect(FITS))
        })
        .collect::<Result<_, XorIndexError>>()?;
    Ok(TraceVerdicts {
        profile: profile.summary(),
        replayer,
        baseline,
        outcomes,
    })
}

/// One `(class, algorithm)` search priced through `kernel`, with neighbours
/// from `pool` and up to `threads` engine workers (`None` = one per host CPU).
fn search(
    kernel: &Arc<FrozenKernel>,
    set_bits: usize,
    (class, algorithm): (FunctionClass, SearchAlgorithm),
    pool: &NeighborPool,
    threads: Option<usize>,
) -> Result<SearchOutcome, XorIndexError> {
    let mut searcher = Searcher::new(kernel.profile(), class, set_bits)?
        .with_pool(pool.clone())
        .with_kernel(Arc::clone(kernel));
    if let Some(threads) = threads {
        searcher = searcher.with_threads(threads);
    }
    searcher.run(algorithm)
}

/// Result of one end-to-end optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationOutcome {
    /// The application-specific hash function selected for the cache.
    pub function: HashFunction,
    /// Simulated statistics of the conventional (modulo-indexed) cache.
    pub baseline_stats: CacheStats,
    /// Simulated statistics of the cache using the optimized function.
    pub optimized_stats: CacheStats,
    /// The search result, including the estimator's view of both functions.
    pub search: SearchOutcome,
    /// Profiling counters.
    pub profile_summary: ProfileSummary,
    /// `true` when the optimizer fell back to the conventional function
    /// because the candidate increased the simulated miss count (the safety
    /// valve discussed at the end of the paper's Section 6).
    pub reverted: bool,
}

impl OptimizationOutcome {
    /// Percentage of simulated misses removed relative to the baseline — the
    /// metric of the paper's Tables 2 and 3 (negative when misses increased).
    #[must_use]
    pub fn percent_misses_removed(&self) -> f64 {
        CacheStats::percent_misses_removed(&self.baseline_stats, &self.optimized_stats)
    }

    /// Baseline misses per thousand operations (the `base` columns of
    /// Table 2), given the number of executed operations.
    #[must_use]
    pub fn baseline_misses_per_kilo_ops(&self, ops: u64) -> f64 {
        self.baseline_stats.misses_per_kilo_ops(ops)
    }

    /// The outcome of one verified search: the winner against the baseline.
    pub(crate) fn from_verified(verified: VerifiedOutcome, profile: ProfileSummary) -> Self {
        OptimizationOutcome {
            function: verified.winner().function.clone(),
            baseline_stats: verified.baseline.stats,
            optimized_stats: verified.winner().sim.stats,
            search: verified.search,
            profile_summary: profile,
            reverted: false,
        }
    }
}

/// Builder for [`Optimizer`].
#[derive(Debug, Clone)]
pub struct OptimizerBuilder(Optimizer);

impl Default for OptimizerBuilder {
    fn default() -> Self {
        OptimizerBuilder(Optimizer {
            cache: CacheConfig::paper_cache(4),
            hashed_bits: 16,
            class: FunctionClass::permutation_based(2),
            algorithm: SearchAlgorithm::HillClimb,
            revert_if_worse: false,
            search_threads: None,
        })
    }
}

impl OptimizerBuilder {
    /// Target cache geometry (default: the paper's 4 KB direct-mapped cache).
    pub fn cache(&mut self, cache: CacheConfig) -> &mut Self {
        self.0.cache = cache;
        self
    }

    /// Number of low-order block-address bits to hash (default 16, as in the
    /// paper).
    pub fn hashed_bits(&mut self, n: usize) -> &mut Self {
        self.0.hashed_bits = n;
        self
    }

    /// Function class to search (default: 2-input permutation-based, the
    /// class the paper recommends for reconfigurable hardware).
    pub fn function_class(&mut self, class: FunctionClass) -> &mut Self {
        self.0.class = class;
        self
    }

    /// Search algorithm (default: hill climbing).
    pub fn search(&mut self, algorithm: SearchAlgorithm) -> &mut Self {
        self.0.algorithm = algorithm;
        self
    }

    /// When enabled, the optimizer falls back to the conventional function
    /// when the verified winner
    /// [loses to it](VerifiedOutcome::loses_to_baseline).
    pub fn revert_if_worse(&mut self, enable: bool) -> &mut Self {
        self.0.revert_if_worse = enable;
        self
    }

    /// Caps the worker threads the search's evaluation engine may use for
    /// neighbourhood batches (default: one per host CPU; 1 = sequential —
    /// useful when the caller already parallelizes across traces).
    pub fn search_threads(&mut self, threads: usize) -> &mut Self {
        self.0.search_threads = Some(threads.max(1));
        self
    }

    /// Builds the optimizer.
    #[must_use]
    pub fn build(&self) -> Optimizer {
        self.0.clone()
    }
}

/// Profiles a block-address trace, searches for an application-specific hash
/// function, and verifies it by simulation: [`verify_trace`] for one search.
///
/// # Example
///
/// ```
/// use cache_sim::{BlockAddr, CacheConfig};
/// use xorindex::FunctionClass;
/// use xorindex_verify::Optimizer;
///
/// let cache = CacheConfig::paper_cache(1);
/// let optimizer = Optimizer::builder()
///     .cache(cache)
///     .hashed_bits(16)
///     .function_class(FunctionClass::permutation_based(2))
///     .build();
/// // Blocks 0 and 256 collide under modulo indexing in a 256-set cache.
/// let blocks: Vec<BlockAddr> = (0..2000u64).map(|i| BlockAddr((i % 2) * 256)).collect();
/// let outcome = optimizer.optimize(blocks);
/// assert!(outcome.percent_misses_removed() > 90.0);
/// ```
#[derive(Debug, Clone)]
pub struct Optimizer {
    cache: CacheConfig,
    hashed_bits: usize,
    class: FunctionClass,
    algorithm: SearchAlgorithm,
    revert_if_worse: bool,
    search_threads: Option<usize>,
}

impl Optimizer {
    /// Starts building an optimizer.
    #[must_use]
    pub fn builder() -> OptimizerBuilder {
        OptimizerBuilder::default()
    }

    /// The target cache geometry.
    #[must_use]
    pub fn cache(&self) -> CacheConfig {
        self.cache
    }

    /// The function class being searched.
    #[must_use]
    pub fn function_class(&self) -> FunctionClass {
        self.class
    }

    /// Profiles the block addresses (paper Fig. 1) for this optimizer's cache.
    #[must_use]
    pub fn profile<I>(&self, blocks: I) -> ConflictProfile
    where
        I: IntoIterator<Item = BlockAddr>,
    {
        ConflictProfile::from_blocks(blocks, self.hashed_bits, self.cache.num_blocks() as usize)
    }

    /// Searches for the best function of the configured class given a profile:
    /// the search [`Optimizer::optimize`] runs, without the simulation.
    ///
    /// # Errors
    ///
    /// Returns an error when the geometry is invalid for the profile or the
    /// search cannot construct a representative function.
    pub fn search_profile(
        &self,
        profile: &ConflictProfile,
    ) -> Result<SearchOutcome, XorIndexError> {
        search(
            &Arc::new(FrozenKernel::new(profile)),
            self.cache.set_bits(),
            (self.class, self.algorithm),
            &NeighborPool::default(),
            self.search_threads,
        )
    }

    /// Runs the full pipeline on a block-address trace: profile, search, then
    /// simulate both the conventional and the optimized cache on the same
    /// trace (the paper profiles and evaluates on the same input).
    ///
    /// # Panics
    ///
    /// Panics if the search fails, which cannot happen for a well-formed
    /// geometry (`set_bits < hashed_bits`); use [`Optimizer::try_optimize`]
    /// to handle the error explicitly.
    #[must_use]
    pub fn optimize<I>(&self, blocks: I) -> OptimizationOutcome
    where
        I: IntoIterator<Item = BlockAddr>,
    {
        self.try_optimize(blocks)
            .expect("optimization failed; check cache geometry against hashed_bits")
    }

    /// Fallible version of [`Optimizer::optimize`].
    ///
    /// # Errors
    ///
    /// Returns an error when the geometry is invalid (e.g. more set-index bits
    /// than hashed bits) or no representative function can be constructed.
    pub fn try_optimize<I>(&self, blocks: I) -> Result<OptimizationOutcome, XorIndexError>
    where
        I: IntoIterator<Item = BlockAddr>,
    {
        let verdicts = verify_trace(
            self.cache,
            self.hashed_bits,
            Arc::new(blocks.into_iter().collect()),
            &[(self.class, self.algorithm)],
            &NeighborPool::default(),
            self.search_threads,
        )?;
        let verified = verdicts.outcomes.into_iter().next().expect("one search");
        let reverted = self.revert_if_worse && verified.loses_to_baseline();
        let mut outcome = OptimizationOutcome::from_verified(verified, verdicts.profile);
        if reverted {
            outcome.function = HashFunction::conventional(self.hashed_bits, self.cache.set_bits())?;
            outcome.optimized_stats = outcome.baseline_stats;
            outcome.reverted = true;
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conflicting_blocks(count: u64) -> Vec<BlockAddr> {
        // Four blocks that all map to set 0 of a 256-set cache.
        (0..count).map(|i| BlockAddr((i % 4) * 256)).collect()
    }

    #[test]
    fn optimize_removes_power_of_two_conflicts() {
        let cache = CacheConfig::paper_cache(1);
        let optimizer = Optimizer::builder()
            .cache(cache)
            .hashed_bits(16)
            .function_class(FunctionClass::permutation_based(2))
            .build();
        let outcome = optimizer.optimize(conflicting_blocks(2000));
        assert!(outcome.baseline_stats.misses > 1900);
        assert!(outcome.optimized_stats.misses <= 8);
        assert!(outcome.percent_misses_removed() > 99.0);
        assert!(!outcome.reverted);
        assert!(outcome.function.is_permutation_based());
        assert_eq!(outcome.profile_summary.references, 2000);
    }

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Optimizer>();
        assert_send_sync::<TraceVerdicts>();
    }

    #[test]
    fn builder_defaults_match_the_paper() {
        let optimizer = Optimizer::builder().build();
        assert_eq!(optimizer.cache(), CacheConfig::paper_cache(4));
        assert_eq!(
            optimizer.function_class(),
            FunctionClass::permutation_based(2)
        );
    }

    #[test]
    fn revert_if_worse_guarantees_no_regression() {
        // A random-ish trace where the heuristic has little to gain; with the
        // safety valve enabled the outcome can never be worse than baseline.
        let blocks: Vec<BlockAddr> = (0..3000u64).map(|i| BlockAddr((i * 7919) % 4096)).collect();
        let cache = CacheConfig::paper_cache(1);
        let optimizer = Optimizer::builder()
            .cache(cache)
            .function_class(FunctionClass::permutation_based(2))
            .revert_if_worse(true)
            .build();
        let outcome = optimizer.optimize(blocks);
        assert!(outcome.optimized_stats.misses <= outcome.baseline_stats.misses);
        if outcome.reverted {
            assert!(outcome.function.is_conventional());
        }
    }

    #[test]
    fn try_optimize_rejects_impossible_geometry() {
        let cache = CacheConfig::paper_cache(4); // 10 set bits
        let optimizer = Optimizer::builder()
            .cache(cache)
            .hashed_bits(8) // fewer hashed bits than set bits
            .build();
        assert!(optimizer.try_optimize(conflicting_blocks(10)).is_err());
    }

    #[test]
    fn baseline_mpko_uses_the_operation_count() {
        let cache = CacheConfig::paper_cache(1);
        let optimizer = Optimizer::builder().cache(cache).build();
        let outcome = optimizer.optimize(conflicting_blocks(1000));
        let mpko = outcome.baseline_misses_per_kilo_ops(10_000);
        assert!((mpko - outcome.baseline_stats.misses as f64 / 10.0).abs() < 1e-9);
    }

    #[test]
    fn verify_trace_replays_the_baseline_once_for_every_search() {
        let searches = [
            (FunctionClass::bit_selecting(), SearchAlgorithm::HillClimb),
            (FunctionClass::xor_unlimited(), SearchAlgorithm::HillClimb),
            (
                FunctionClass::bit_selecting(),
                SearchAlgorithm::OptimalBitSelect,
            ),
        ];
        let blocks = Arc::new(conflicting_blocks(600));
        let pool = NeighborPool::default();
        let verdicts = verify_trace(
            CacheConfig::paper_cache(1),
            16,
            blocks,
            &searches,
            &pool,
            Some(1),
        )
        .unwrap();
        // One baseline replay and one winner replay per search, all on one
        // pre-classification.
        let stats = verdicts.replayer.replay_stats();
        assert_eq!((stats.replays, stats.preclass_builds), (4, 1));
        for (verified, &(class, _)) in verdicts.outcomes.iter().zip(&searches) {
            assert_eq!(verified.baseline, verdicts.baseline);
            assert_eq!(verified.candidates[0].function, verified.search.function);
            let ns = verified.search.function.null_space();
            assert!(HashFunction::from_null_space(&ns, class).is_ok());
        }
        assert_eq!(verdicts.outcomes.len(), 3);
    }

    #[test]
    fn search_profile_and_profile_are_consistent_with_optimize() {
        let cache = CacheConfig::paper_cache(1);
        let optimizer = Optimizer::builder()
            .cache(cache)
            .function_class(FunctionClass::xor_unlimited())
            .build();
        let blocks = conflicting_blocks(500);
        let profile = optimizer.profile(blocks.iter().copied());
        let search = optimizer.search_profile(&profile).unwrap();
        let outcome = optimizer.optimize(blocks);
        assert_eq!(search.function, outcome.search.function);
    }
}
