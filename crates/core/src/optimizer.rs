//! End-to-end optimization pipeline: profile → search → verify.

use cache_sim::{BlockAddr, Cache, CacheConfig, CacheStats, ModuloIndex};

use crate::{
    ConflictProfile, FunctionClass, HashFunction, ProfileSummary, SearchAlgorithm, SearchOutcome,
    XorIndexError,
};

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
}

/// Builder for [`Optimizer`].
#[derive(Debug, Clone)]
pub struct OptimizerBuilder {
    cache: CacheConfig,
    hashed_bits: usize,
    class: FunctionClass,
    algorithm: SearchAlgorithm,
    revert_if_worse: bool,
    search_threads: Option<usize>,
}

impl Default for OptimizerBuilder {
    fn default() -> Self {
        OptimizerBuilder {
            cache: CacheConfig::paper_cache(4),
            hashed_bits: 16,
            class: FunctionClass::permutation_based(2),
            algorithm: SearchAlgorithm::HillClimb,
            revert_if_worse: false,
            search_threads: None,
        }
    }
}

impl OptimizerBuilder {
    /// Target cache geometry (default: the paper's 4 KB direct-mapped cache).
    pub fn cache(&mut self, cache: CacheConfig) -> &mut Self {
        self.cache = cache;
        self
    }

    /// Number of low-order block-address bits to hash (default 16, as in the
    /// paper).
    pub fn hashed_bits(&mut self, n: usize) -> &mut Self {
        self.hashed_bits = n;
        self
    }

    /// Function class to search (default: 2-input permutation-based, the
    /// class the paper recommends for reconfigurable hardware).
    pub fn function_class(&mut self, class: FunctionClass) -> &mut Self {
        self.class = class;
        self
    }

    /// Search algorithm (default: hill climbing).
    pub fn search(&mut self, algorithm: SearchAlgorithm) -> &mut Self {
        self.algorithm = algorithm;
        self
    }

    /// When enabled, the optimizer verifies the candidate by simulation and
    /// falls back to the conventional function if it would increase misses.
    pub fn revert_if_worse(&mut self, enable: bool) -> &mut Self {
        self.revert_if_worse = enable;
        self
    }

    /// Caps the worker threads the search's evaluation engine may use for
    /// neighbourhood batches (default: one per host CPU; 1 = sequential —
    /// useful when the caller already parallelizes across traces).
    pub fn search_threads(&mut self, threads: usize) -> &mut Self {
        self.search_threads = Some(threads.max(1));
        self
    }

    /// Builds the optimizer.
    #[must_use]
    pub fn build(&self) -> Optimizer {
        Optimizer {
            cache: self.cache,
            hashed_bits: self.hashed_bits,
            class: self.class,
            algorithm: self.algorithm,
            revert_if_worse: self.revert_if_worse,
            search_threads: self.search_threads,
        }
    }
}

/// Profiles a block-address trace, searches for an application-specific hash
/// function, and verifies it by full cache simulation.
///
/// The search runs on the packed-native core: candidate generation and
/// deduplication operate on [`gf2::PackedBasis`], and every candidate is
/// priced through the dense [`EvalEngine`](crate::EvalEngine)'s packed entry
/// points — the Table 2/3 reproductions built on this type inherit that path
/// end-to-end.
///
/// # Example
///
/// ```
/// use cache_sim::{BlockAddr, CacheConfig};
/// use xorindex::{FunctionClass, Optimizer};
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

    /// Searches for the best function of the configured class given a profile.
    ///
    /// # Errors
    ///
    /// Returns an error when the geometry is invalid for the profile or the
    /// search cannot construct a representative function.
    pub fn search_profile(
        &self,
        profile: &ConflictProfile,
    ) -> Result<SearchOutcome, XorIndexError> {
        let mut searcher =
            crate::search::Searcher::new(profile, self.class, self.cache.set_bits())?;
        if let Some(threads) = self.search_threads {
            searcher = searcher.with_threads(threads);
        }
        searcher.run(self.algorithm)
    }

    /// Runs the full pipeline on a block-address trace: profile, search, then
    /// simulate both the conventional and the optimized cache on the same
    /// trace.
    ///
    /// The trace is materialized once and replayed three times (profiling and
    /// two simulations), mirroring the paper's methodology of profiling and
    /// evaluating on the same input.
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
        let blocks: Vec<BlockAddr> = blocks.into_iter().collect();
        let profile = self.profile(blocks.iter().copied());
        let search = self.search_profile(&profile)?;

        let mut baseline_cache =
            Cache::new(self.cache, ModuloIndex::for_config(&self.cache)).with_classification();
        let baseline_stats = baseline_cache.simulate_blocks(blocks.iter().copied());

        let mut optimized_cache = Cache::try_new(self.cache, search.function.to_index_function())
            .expect("hash function geometry matches the cache")
            .with_classification();
        let optimized_stats = optimized_cache.simulate_blocks(blocks.iter().copied());

        let (function, optimized_stats, reverted) =
            if self.revert_if_worse && optimized_stats.misses > baseline_stats.misses {
                (
                    HashFunction::conventional(self.hashed_bits, self.cache.set_bits())?,
                    baseline_stats,
                    true,
                )
            } else {
                (search.function.clone(), optimized_stats, false)
            };

        Ok(OptimizationOutcome {
            function,
            baseline_stats,
            optimized_stats,
            search,
            profile_summary: profile.summary(),
            reverted,
        })
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
