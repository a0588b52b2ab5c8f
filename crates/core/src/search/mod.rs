//! Design-space search for application-specific hash functions.
//!
//! The search operates on *null spaces* rather than matrices (paper Section 3.2):
//! equal null spaces give identical conflict behaviour, and canonical bases
//! make equality checks cheap, so a neighbourhood never holds the same
//! function twice. Every null space in the layer is a [`gf2::PackedBasis`]:
//! candidate generation and deduplication ([`PackedNeighborhood`]), each
//! algorithm's current and best state, and the [`HashFunction`] a move
//! builds all read the same packed `u64` rows, with no conversion between
//! representations.
//! Candidate quality is judged with the profile-based estimator (paper
//! Eq. 4), never by re-simulating the trace; every algorithm routes its
//! evaluations through the dense [`EvalEngine`], which prices each
//! neighbourhood lane by lane (optionally in parallel) under the incumbent's
//! cost as a bound, abandoning candidates that cannot improve on it, before
//! any candidate basis is built. Nothing is memoized, so a search's outcome — its
//! [`SearchOutcome::evaluations`] included — depends only on the profile,
//! the class, the geometry and the algorithm.
//!
//! Available algorithms:
//!
//! * [`SearchAlgorithm::HillClimb`] — the paper's steepest-descent search,
//!   started from the conventional modulo function;
//! * [`SearchAlgorithm::OptimalBitSelect`] — exhaustive enumeration of all
//!   `C(n, m)` bit-selecting functions, the optimal baseline of Patel et al.
//!   reproduced in the paper's Table 3.

mod hill_climb;
mod neighbors;
mod optimal_bitselect;

use std::sync::Arc;

use gf2::PackedBasis;
use serde::{Deserialize, Serialize};

use crate::{
    ConflictProfile, EvalEngine, FrozenKernel, FunctionClass, HashFunction, MissEstimator,
    ScaffoldCache, ShardedMemo, XorIndexError,
};

pub(crate) use neighbors::NeighborLanes;
pub use neighbors::{NeighborPool, PackedCandidate, PackedNeighborhood};

/// Which search algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum SearchAlgorithm {
    /// Steepest-descent hill climbing from the conventional function (the
    /// paper's algorithm).
    #[default]
    HillClimb,
    /// Exhaustive search over all bit-selecting functions (optimal with
    /// respect to the profile, as in Patel et al.).
    OptimalBitSelect,
}

/// Result of a search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The best function found.
    pub function: HashFunction,
    /// Its estimated conflict misses (paper Eq. 4) under the profile.
    pub estimated_misses: u64,
    /// Estimated conflict misses of the conventional function, for reference.
    pub baseline_estimate: u64,
    /// Number of candidate evaluations performed.
    pub evaluations: u64,
    /// Number of accepted moves (hill-climbing steps).
    pub steps: u64,
}

impl SearchOutcome {
    /// Estimated fraction of conflict misses removed relative to the
    /// conventional function, in percent.
    #[must_use]
    pub fn estimated_percent_removed(&self) -> f64 {
        if self.baseline_estimate == 0 {
            0.0
        } else {
            (self.baseline_estimate as f64 - self.estimated_misses as f64) * 100.0
                / self.baseline_estimate as f64
        }
    }
}

/// Orchestrates a search over one profile, function class and cache geometry.
///
/// # Example
///
/// ```
/// use cache_sim::BlockAddr;
/// use xorindex::search::{SearchAlgorithm, Searcher};
/// use xorindex::{ConflictProfile, FunctionClass};
///
/// // A ping-pong pattern that the conventional function maps onto one set.
/// let trace = (0..100u64).map(|i| BlockAddr((i % 2) * 64));
/// let profile = ConflictProfile::from_blocks(trace, 12, 64);
/// let searcher = Searcher::new(&profile, FunctionClass::permutation_based(2), 6)?;
/// let outcome = searcher.run(SearchAlgorithm::HillClimb)?;
/// assert_eq!(outcome.estimated_misses, 0);
/// assert!(outcome.baseline_estimate > 0);
/// # Ok::<(), xorindex::XorIndexError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Searcher<'a> {
    profile: &'a ConflictProfile,
    class: FunctionClass,
    set_bits: usize,
    pool: NeighborPool,
    threads: Option<usize>,
    kernel: Option<Arc<FrozenKernel>>,
    scaffold: Option<ScaffoldCache>,
}

impl<'a> Searcher<'a> {
    /// Creates a searcher for functions hashing the profile's address bits
    /// into `set_bits` set-index bits, restricted to `class`.
    ///
    /// # Errors
    ///
    /// Returns [`XorIndexError::InvalidGeometry`] when `set_bits` is zero or
    /// at least the profile's hashed width.
    pub fn new(
        profile: &'a ConflictProfile,
        class: FunctionClass,
        set_bits: usize,
    ) -> Result<Self, XorIndexError> {
        let n = profile.hashed_bits();
        if set_bits == 0 || set_bits >= n {
            return Err(XorIndexError::InvalidGeometry {
                hashed_bits: n,
                set_bits,
            });
        }
        Ok(Searcher {
            profile,
            class,
            set_bits,
            pool: NeighborPool::UnitsAndPairs,
            threads: None,
            kernel: None,
            scaffold: None,
        })
    }

    /// Selects the pool of replacement directions used when generating
    /// neighbours (default: [`NeighborPool::UnitsAndPairs`]).
    #[must_use]
    pub fn with_pool(mut self, pool: NeighborPool) -> Self {
        self.pool = pool;
        self
    }

    /// Caps the number of worker threads the evaluation engine may use for
    /// neighbourhood batches (default: one per host CPU; 1 = sequential).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Prices through an existing frozen kernel instead of freezing the
    /// profile again — the sharing entry point for callers that search one
    /// application across several classes, geometries or threads.
    ///
    /// The kernel must have been frozen from a profile with the same hashed
    /// width (checked when the engine is assembled, see
    /// [`Searcher::engine`]).
    #[must_use]
    pub fn with_kernel(mut self, kernel: Arc<FrozenKernel>) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// A no-op, kept so existing callers still compile. Searches cache no
    /// costs, so `_memo` is neither probed nor filled, and the outcome never
    /// depends on it.
    #[must_use]
    pub fn with_memo(self, _memo: ShardedMemo) -> Self {
        self
    }

    /// Pools the per-parent remainder-grouped histograms through an existing
    /// [`ScaffoldCache`] handle instead of a fresh private cache — the
    /// sharing entry point for callers running many searches against one
    /// application (the serving layer shares each application's cache
    /// between its searches this way).
    #[must_use]
    pub fn with_scaffold_cache(mut self, cache: ScaffoldCache) -> Self {
        self.scaffold = Some(cache);
        self
    }

    /// The function class being searched.
    #[must_use]
    pub fn class(&self) -> FunctionClass {
        self.class
    }

    /// Number of set-index bits of the target cache.
    #[must_use]
    pub fn set_bits(&self) -> usize {
        self.set_bits
    }

    /// Number of hashed address bits.
    #[must_use]
    pub fn hashed_bits(&self) -> usize {
        self.profile.hashed_bits()
    }

    /// The null space of the conventional modulo function — the starting point
    /// of the paper's hill climb.
    #[must_use]
    pub fn conventional_null_space(&self) -> PackedBasis {
        PackedBasis::standard_span(self.hashed_bits(), self.set_bits..self.hashed_bits())
    }

    /// Builds the dense evaluation engine every search algorithm runs on,
    /// configured with this searcher's thread cap, and any shared kernel or
    /// scaffold cache supplied through [`Searcher::with_kernel`] /
    /// [`Searcher::with_scaffold_cache`].
    ///
    /// Freezing the histogram is the expensive part, so build the engine once
    /// per search (or share one kernel across several searches) rather than
    /// per candidate.
    ///
    /// # Panics
    ///
    /// Panics if a kernel supplied through [`Searcher::with_kernel`] was
    /// frozen for a different hashed width than the profile records.
    #[must_use]
    pub fn engine(&self) -> EvalEngine {
        let kernel = match &self.kernel {
            Some(kernel) => {
                assert_eq!(
                    kernel.hashed_bits(),
                    self.profile.hashed_bits(),
                    "kernel width must match the profile"
                );
                Arc::clone(kernel)
            }
            None => Arc::new(FrozenKernel::new(self.profile)),
        };
        let mut engine = EvalEngine::from_parts(kernel);
        if let Some(threads) = self.threads {
            engine = engine.with_threads(threads);
        }
        if let Some(cache) = &self.scaffold {
            engine = engine.with_scaffold_cache(cache.clone());
        }
        engine
    }

    /// Estimated misses of the conventional function under this profile.
    #[must_use]
    pub fn baseline_estimate(&self) -> u64 {
        MissEstimator::new(self.profile).estimate_packed(&self.conventional_null_space())
    }

    /// Runs the chosen algorithm.
    ///
    /// # Errors
    ///
    /// Propagates representative-construction failures; these indicate the
    /// search converged on a null space the class cannot realize, which the
    /// neighbour generation normally prevents.
    pub fn run(&self, algorithm: SearchAlgorithm) -> Result<SearchOutcome, XorIndexError> {
        match algorithm {
            SearchAlgorithm::HillClimb => self.hill_climb(),
            SearchAlgorithm::OptimalBitSelect => self.optimal_bit_select(),
        }
    }

    /// Runs `algorithm` and ranks the winner's neighbourhood: returns the
    /// outcome with the winner's `k` best admissible neighbours by (Eq. 4
    /// estimate, generation order), cheapest first, each with its estimate.
    /// These are the runners-up a verified pick simulates beside the winner.
    ///
    /// A hill climb ranks the lanes its last iteration generated, on its own
    /// engine and the grouped histogram that iteration cached; the
    /// exhaustive bit-selecting search generates the winner's lanes once.
    /// Lanes are priced under a bound that tightens to the running k-th
    /// best, and a candidate basis is built and checked against the class
    /// only for a lane priced strictly below it, so no neighbourhood is
    /// materialized or sorted. The list is what pricing every candidate of
    /// [`PackedNeighborhood::generate`] around the winner, sorting by
    /// (estimate, position) and keeping the first `k` the class admits
    /// gives.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Searcher::run`].
    pub fn run_with_runners_up(
        &self,
        algorithm: SearchAlgorithm,
        k: usize,
    ) -> Result<(SearchOutcome, Vec<(HashFunction, u64)>), XorIndexError> {
        let (outcome, mut engine, lanes) = match algorithm {
            SearchAlgorithm::HillClimb => {
                let mut engine = self.engine();
                let (outcome, lanes) = self.hill_climb_full(&mut engine)?;
                (outcome, engine, lanes)
            }
            SearchAlgorithm::OptimalBitSelect => {
                let outcome = self.optimal_bit_select()?;
                if k == 0 {
                    return Ok((outcome, Vec::new()));
                }
                let winner = outcome.function.null_space();
                let lanes = NeighborLanes::generate(&winner, self.class, &self.packed_pool());
                (outcome, self.engine(), lanes)
            }
        };
        let runners_up = engine.best_lanes(&lanes, k, |basis| {
            // A lane is a move, not a guaranteed member: a basis whose
            // representative exceeds the class's fan-in bound is skipped,
            // as the climb skips it.
            HashFunction::from_null_space(basis, self.class).ok()
        });
        Ok((outcome, runners_up))
    }

    /// Like [`Searcher::run`], but for hill climbing also returns the
    /// winner's full neighbourhood, every candidate basis built: the
    /// candidate set the final climb iteration generated and found no
    /// improvement in. The exhaustive bit-selecting search carries no
    /// neighbourhood and returns `None`. [`Searcher::run_with_runners_up`] ranks
    /// that neighbourhood without building it.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Searcher::run`].
    pub fn run_with_neighborhood(
        &self,
        algorithm: SearchAlgorithm,
    ) -> Result<(SearchOutcome, Option<PackedNeighborhood>), XorIndexError> {
        match algorithm {
            SearchAlgorithm::HillClimb => {
                let mut engine = self.engine();
                let (outcome, lanes) = self.hill_climb_full(&mut engine)?;
                Ok((outcome, Some(lanes.materialize())))
            }
            SearchAlgorithm::OptimalBitSelect => Ok((self.optimal_bit_select()?, None)),
        }
    }

    /// Pool of replacement directions for this searcher, in the packed form
    /// neighbourhood generation consumes.
    fn packed_pool(&self) -> Vec<u64> {
        self.pool.packed_vectors(self.hashed_bits(), self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::BlockAddr;

    fn ping_pong_profile() -> ConflictProfile {
        let trace = (0..100u64).map(|i| BlockAddr((i % 2) * 64));
        ConflictProfile::from_blocks(trace, 12, 64)
    }

    #[test]
    fn searcher_rejects_bad_geometry() {
        let p = ping_pong_profile();
        assert!(Searcher::new(&p, FunctionClass::xor_unlimited(), 0).is_err());
        assert!(Searcher::new(&p, FunctionClass::xor_unlimited(), 12).is_err());
        assert!(Searcher::new(&p, FunctionClass::xor_unlimited(), 6).is_ok());
    }

    #[test]
    fn conventional_null_space_matches_modulo_function() {
        let p = ping_pong_profile();
        let s = Searcher::new(&p, FunctionClass::xor_unlimited(), 6).unwrap();
        let conventional = HashFunction::conventional(12, 6).unwrap();
        assert_eq!(s.conventional_null_space(), conventional.null_space());
        assert_eq!(
            s.baseline_estimate(),
            MissEstimator::new(&p).estimate(&conventional).unwrap()
        );
    }

    #[test]
    fn shared_kernel_and_memo_do_not_change_search_outcomes() {
        let p = ping_pong_profile();
        let kernel = Arc::new(FrozenKernel::new(&p));
        let memo = ShardedMemo::new();
        for class in [
            FunctionClass::xor_unlimited(),
            FunctionClass::permutation_based(2),
            FunctionClass::bit_selecting(),
        ] {
            let private = Searcher::new(&p, class, 6)
                .unwrap()
                .run(SearchAlgorithm::HillClimb)
                .unwrap();
            let shared = Searcher::new(&p, class, 6)
                .unwrap()
                .with_kernel(Arc::clone(&kernel))
                .with_memo(memo.clone())
                .run(SearchAlgorithm::HillClimb)
                .unwrap();
            // Nothing carries over between searches: the outcome, its
            // evaluation count included, is the private searcher's.
            assert_eq!(shared, private, "{class}");
        }
        // The memo handed to `with_memo` was never probed or filled.
        assert_eq!(memo.stats(), ShardedMemo::new().stats());
    }

    #[test]
    #[should_panic(expected = "width must match")]
    fn a_kernel_of_another_width_is_rejected() {
        let p = ping_pong_profile();
        let wide = ConflictProfile::from_blocks([BlockAddr(0), BlockAddr(64)], 16, 64);
        let searcher = Searcher::new(&p, FunctionClass::xor_unlimited(), 6)
            .unwrap()
            .with_kernel(Arc::new(FrozenKernel::new(&wide)));
        let _ = searcher.engine();
    }

    #[test]
    fn default_algorithm_is_hill_climb() {
        assert_eq!(SearchAlgorithm::default(), SearchAlgorithm::HillClimb);
    }

    #[test]
    fn outcome_percent_removed() {
        let p = ping_pong_profile();
        let outcome = SearchOutcome {
            function: HashFunction::conventional(12, 6).unwrap(),
            estimated_misses: 25,
            baseline_estimate: 100,
            evaluations: 1,
            steps: 0,
        };
        assert!((outcome.estimated_percent_removed() - 75.0).abs() < 1e-12);
        let zero_base = SearchOutcome {
            baseline_estimate: 0,
            ..outcome
        };
        assert_eq!(zero_base.estimated_percent_removed(), 0.0);
        drop(p);
    }
}
