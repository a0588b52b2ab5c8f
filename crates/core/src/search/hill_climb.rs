//! Steepest-descent hill climbing (the paper's search algorithm).

use crate::search::{NeighborLanes, SearchOutcome, Searcher};
use crate::{EvalEngine, HashFunction, XorIndexError};

impl Searcher<'_> {
    /// Runs the paper's steepest-descent search from the conventional
    /// function's null space.
    ///
    /// Every neighbour of the current null space is evaluated in one batch by
    /// the dense evaluation engine; if the best admissible neighbour improves
    /// on the best function found so far, the search moves there, otherwise a
    /// local optimum has been reached and the search stops.
    ///
    /// # Errors
    ///
    /// Propagates representative-construction failures (see
    /// [`Searcher::run`]).
    pub fn hill_climb(&self) -> Result<SearchOutcome, XorIndexError> {
        let mut engine = self.engine();
        Ok(self.hill_climb_full(&mut engine)?.0)
    }

    /// [`Searcher::hill_climb`] on a caller-supplied engine, additionally
    /// returning the lanes of the winner's neighbourhood — the final climb
    /// iteration's candidate set, which the loop would otherwise drop on the
    /// floor. [`Searcher::run_with_runners_up`] ranks them on the climb's
    /// engine instead of paying a second
    /// [`PackedNeighborhood::generate`](crate::search::PackedNeighborhood::generate).
    ///
    /// Reported `evaluations` are the Eq. 4 evaluations this climb completed
    /// on the engine: every lane a step priced exactly. Lanes abandoned under
    /// the incumbent bound are not counted.
    pub(crate) fn hill_climb_full(
        &self,
        engine: &mut EvalEngine,
    ) -> Result<(SearchOutcome, NeighborLanes), XorIndexError> {
        let pool = self.packed_pool();
        let class = self.class();

        // Prime the bookkeeping at the conventional null space. Its price is
        // taken before the evaluation snapshot so it is never charged to
        // this climb (matching the pre-engine accounting, where the baseline
        // went through a separate estimator call), and it is also the
        // start's cost.
        let mut current = self.conventional_null_space();
        let baseline_estimate = engine.estimate_packed(&current);
        let evaluations_before = engine.stats().evaluations;
        let mut best_cost = baseline_estimate;
        let mut best_function = HashFunction::from_null_space(&current, class)?;
        let mut steps: u64 = 0;
        let final_lanes;

        loop {
            // Price every lane in one engine batch, cheapest check first: no
            // candidate basis exists yet, and one is built (and checked
            // against the class's fan-in bound) only for a lane the climb
            // tries as its move. The incumbent is passed down as the bound so
            // the engine can abandon any lane whose running sum reaches
            // `best_cost` — such a lane's true cost is at least the
            // incumbent, so it could never be moved to anyway. The exact
            // lanes are therefore exactly those below the incumbent.
            let lanes = NeighborLanes::generate(&current, class, &pool);
            let mut below: Vec<(u64, usize)> = engine
                .estimate_lanes_bounded(&lanes, best_cost)
                .into_iter()
                .enumerate()
                .filter_map(|(i, cost)| cost.exact().map(|exact| (exact, i)))
                .collect();
            // Sorting (cost, index) tuples reproduces the tie order of a
            // stable sort on cost alone, so the climb visits candidates in
            // the order an exhaustively priced neighbourhood would.
            below.sort_unstable();

            let mut moved = false;
            for (cost, i) in below {
                let basis = lanes.basis(i);
                match HashFunction::from_null_space(&basis, class) {
                    Ok(function) => {
                        current = basis;
                        best_cost = cost;
                        best_function = function;
                        steps += 1;
                        moved = true;
                        break;
                    }
                    Err(_) => {
                        // Structurally admissible but violates a fan-in bound;
                        // try the next-best neighbour.
                        continue;
                    }
                }
            }
            if !moved {
                // No admissible neighbour improves on `current`, so `lanes`
                // are exactly the winner's neighbourhood.
                final_lanes = lanes;
                break;
            }
        }

        let evaluations = engine.stats().evaluations - evaluations_before;
        Ok((
            SearchOutcome {
                function: best_function,
                estimated_misses: best_cost,
                baseline_estimate,
                evaluations,
                steps,
            },
            final_lanes,
        ))
    }
}

#[cfg(test)]
mod tests {
    use crate::search::{NeighborPool, PackedNeighborhood, SearchAlgorithm, Searcher};
    use crate::{ConflictProfile, FunctionClass, HashFunction, MissEstimator};
    use cache_sim::BlockAddr;
    use gf2::PackedBasis;

    /// Profile of a classic power-of-two stride conflict: blocks 0 and 64
    /// alternate and collide in a 64-set direct-mapped cache.
    fn ping_pong_profile() -> ConflictProfile {
        let trace = (0..200u64).map(|i| BlockAddr((i % 2) * 64));
        ConflictProfile::from_blocks(trace, 12, 64)
    }

    /// A profile mixing several strides so the search has real work to do.
    fn multi_stride_profile() -> ConflictProfile {
        let mut blocks = Vec::new();
        for i in 0..400u64 {
            blocks.push(BlockAddr((i % 4) * 64));
            blocks.push(BlockAddr(0x800 + (i % 3) * 128));
        }
        ConflictProfile::from_blocks(blocks, 12, 64)
    }

    #[test]
    fn hill_climb_eliminates_a_single_stride_conflict() {
        let profile = ping_pong_profile();
        for class in [
            FunctionClass::xor_unlimited(),
            FunctionClass::permutation_based(2),
            FunctionClass::bit_selecting(),
        ] {
            let searcher = Searcher::new(&profile, class, 6).unwrap();
            let outcome = searcher.run(SearchAlgorithm::HillClimb).unwrap();
            assert!(outcome.baseline_estimate > 0);
            assert_eq!(
                outcome.estimated_misses, 0,
                "class {class} should eliminate the ping-pong conflict"
            );
            assert!(outcome.steps >= 1);
            assert!(outcome.evaluations > 1);
            // The found function really is in the class.
            class.check(&outcome.function).unwrap();
        }
    }

    #[test]
    fn hill_climb_never_returns_worse_than_the_baseline() {
        let profile = multi_stride_profile();
        for class in [
            FunctionClass::bit_selecting(),
            FunctionClass::permutation_based(2),
            FunctionClass::permutation_based(4),
            FunctionClass::xor_unlimited(),
        ] {
            let searcher = Searcher::new(&profile, class, 6).unwrap();
            let outcome = searcher.run(SearchAlgorithm::HillClimb).unwrap();
            assert!(
                outcome.estimated_misses <= outcome.baseline_estimate,
                "{class}: {} > {}",
                outcome.estimated_misses,
                outcome.baseline_estimate
            );
        }
    }

    #[test]
    fn richer_classes_do_at_least_as_well() {
        // Bit-selecting ⊆ 2-input permutation-based ⊆ unrestricted
        // permutation-based in terms of the searched space's expressiveness;
        // since all searches start from the same point and hill climbing is
        // greedy this is not a theorem, but it holds on this easy profile.
        let profile = ping_pong_profile();
        let est = |class| {
            Searcher::new(&profile, class, 6)
                .unwrap()
                .run(SearchAlgorithm::HillClimb)
                .unwrap()
                .estimated_misses
        };
        let bit = est(FunctionClass::bit_selecting());
        let perm2 = est(FunctionClass::permutation_based(2));
        let unlimited = est(FunctionClass::xor_unlimited());
        assert!(perm2 <= bit);
        assert!(unlimited <= perm2);
    }

    #[test]
    fn estimate_of_found_function_matches_reported_cost() {
        let profile = multi_stride_profile();
        let searcher = Searcher::new(&profile, FunctionClass::permutation_based(2), 6).unwrap();
        let outcome = searcher.run(SearchAlgorithm::HillClimb).unwrap();
        let recomputed = MissEstimator::new(&profile)
            .estimate(&outcome.function)
            .unwrap();
        assert_eq!(recomputed, outcome.estimated_misses);
    }

    #[test]
    fn units_only_pool_still_finds_improvements() {
        let profile = ping_pong_profile();
        let searcher = Searcher::new(&profile, FunctionClass::xor_unlimited(), 6)
            .unwrap()
            .with_pool(NeighborPool::Units);
        let outcome = searcher.run(SearchAlgorithm::HillClimb).unwrap();
        assert!(outcome.estimated_misses < outcome.baseline_estimate);
    }

    /// The climb with every neighbour priced exactly by [`MissEstimator`] —
    /// no bound. Returns the winner, its cost and the step count.
    fn unbounded_climb(
        profile: &ConflictProfile,
        class: FunctionClass,
    ) -> (HashFunction, u64, u64) {
        let estimator = MissEstimator::new(profile);
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(12, profile);
        let mut current = PackedBasis::standard_span(12, 6..12);
        let mut best_function = HashFunction::from_null_space(&current, class).unwrap();
        let mut best_cost = estimator.estimate_packed(&current);
        let mut steps = 0;
        loop {
            let nbhd = PackedNeighborhood::generate(&current, class, &pool);
            let mut priced: Vec<(u64, usize)> = nbhd
                .bases()
                .map(|b| estimator.estimate_packed(b))
                .zip(0..)
                .collect();
            priced.sort_unstable();
            let next = priced
                .into_iter()
                .take_while(|&(cost, _)| cost < best_cost)
                .find_map(|(cost, i)| {
                    let basis = &nbhd.candidates[i].basis;
                    let function = HashFunction::from_null_space(basis, class);
                    function.ok().map(|f| (f, cost, basis.clone()))
                });
            let Some((function, cost, basis)) = next else {
                return (best_function, best_cost, steps);
            };
            (best_function, best_cost, current) = (function, cost, basis);
            steps += 1;
        }
    }

    #[test]
    fn bounded_and_unbounded_climbs_take_the_same_path() {
        let profile = multi_stride_profile();
        for class in [
            FunctionClass::bit_selecting(),
            FunctionClass::permutation_based(2),
            FunctionClass::xor_unlimited(),
        ] {
            let bounded = Searcher::new(&profile, class, 6)
                .unwrap()
                .run(SearchAlgorithm::HillClimb)
                .unwrap();
            let (function, cost, steps) = unbounded_climb(&profile, class);
            assert_eq!(bounded.function, function, "{class}");
            assert_eq!(bounded.estimated_misses, cost, "{class}");
            assert_eq!(bounded.steps, steps, "{class}");
        }
    }

    #[test]
    fn run_with_neighborhood_matches_run_and_a_fresh_generate() {
        use crate::search::PackedNeighborhood;
        let profile = multi_stride_profile();
        for class in [
            FunctionClass::bit_selecting(),
            FunctionClass::permutation_based(2),
            FunctionClass::xor_unlimited(),
        ] {
            let searcher = Searcher::new(&profile, class, 6).unwrap();
            let plain = searcher.run(SearchAlgorithm::HillClimb).unwrap();
            let (outcome, hood) = searcher
                .run_with_neighborhood(SearchAlgorithm::HillClimb)
                .unwrap();
            assert_eq!(outcome, plain);
            // The carried neighbourhood is exactly what regenerating around
            // the winner would produce — callers can skip the regeneration.
            let pool = NeighborPool::UnitsAndPairs.packed_vectors(12, &profile);
            let regenerated =
                PackedNeighborhood::generate(&outcome.function.null_space(), class, &pool);
            assert_eq!(hood.unwrap(), regenerated);
        }
    }
}
