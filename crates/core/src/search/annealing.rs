//! Simulated annealing over the null-space neighbourhood (extension).
//!
//! Hill climbing stops at the first local optimum; simulated annealing
//! occasionally accepts uphill moves, escaping shallow optima at the price of
//! more candidate evaluations. This is one of the "improved search at the
//! expense of execution speed" directions the paper's Section 3.3 anticipates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::search::{NeighborLanes, SearchOutcome, Searcher};
use crate::{HashFunction, XorIndexError};

impl Searcher<'_> {
    /// Simulated annealing from the conventional function.
    ///
    /// Each iteration proposes a uniformly random neighbour of the current
    /// null space; improving moves are always accepted, worsening moves with
    /// probability `exp(−Δ/T)`, and the temperature decays geometrically from
    /// `initial_temperature` to roughly 1 % of it over `iterations` steps. The
    /// best admissible function ever visited is returned, so the result is
    /// never worse than the starting point.
    ///
    /// # Errors
    ///
    /// Propagates representative-construction failures for the starting point.
    pub fn annealing(
        &self,
        iterations: usize,
        initial_temperature: f64,
        seed: u64,
    ) -> Result<SearchOutcome, XorIndexError> {
        let mut engine = self.engine();
        let pool = self.packed_pool();
        let class = self.class();
        let mut rng = StdRng::seed_from_u64(seed);

        // The walk carries packed state; the only `Subspace` materializations
        // are the start validation and the best-so-far function construction.
        let mut current = self.conventional_packed();
        let mut current_cost = engine.estimate_packed(&current);
        let baseline_estimate = current_cost;
        let mut best_function =
            HashFunction::from_null_space(&self.conventional_null_space(), class)?;
        let mut best_cost = current_cost;
        let mut steps: u64 = 0;

        let temperature_floor = (initial_temperature * 0.01).max(1e-9);
        let decay = if iterations > 1 {
            (temperature_floor / initial_temperature.max(1e-9))
                .powf(1.0 / (iterations as f64 - 1.0))
        } else {
            1.0
        };
        let mut temperature = initial_temperature.max(1e-9);

        for _ in 0..iterations {
            // Draw a lane of the neighbourhood, in generation order, and
            // build only its basis.
            let lanes = NeighborLanes::generate(&current, class, &pool);
            if lanes.is_empty() {
                break;
            }
            let candidate = lanes.basis(rng.gen_range(0..lanes.len()));
            // Any proposal pricier than `current + ⌈800·T⌉` is rejected with
            // probability exactly 0: Δ/T ≥ 800 drives exp(−Δ/T) to 0.0 in f64
            // (it underflows below ~exp(−745)), and the true cost of an
            // abandoned lane is at least the bound, so its acceptance
            // probability is 0.0 too. Substituting the lower bound therefore
            // makes the same decision and consumes the same single RNG draw
            // as pricing the proposal exactly.
            let bound = current_cost.saturating_add((800.0 * temperature).ceil() as u64);
            let cost = engine
                .estimate_packed_bounded(&candidate, bound)
                .lower_bound();
            let delta = cost as f64 - current_cost as f64;
            let accept = delta <= 0.0 || rng.random::<f64>() < (-delta / temperature).exp();
            if accept {
                current = candidate;
                current_cost = cost;
                steps += 1;
                if cost < best_cost {
                    if let Ok(function) =
                        HashFunction::from_null_space(&current.to_subspace(), class)
                    {
                        best_cost = cost;
                        best_function = function;
                    }
                }
            }
            temperature = (temperature * decay).max(temperature_floor);
        }

        Ok(SearchOutcome {
            function: best_function,
            estimated_misses: best_cost,
            baseline_estimate,
            evaluations: engine.stats().evaluations,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::search::{NeighborPool, PackedNeighborhood, SearchAlgorithm, Searcher};
    use crate::{ConflictProfile, FunctionClass, HashFunction, MissEstimator};
    use cache_sim::BlockAddr;
    use gf2::PackedBasis;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn profile() -> ConflictProfile {
        let trace = (0..200u64).map(|i| BlockAddr((i % 2) * 64 + (i % 3) * 0x200));
        ConflictProfile::from_blocks(trace, 12, 64)
    }

    #[test]
    fn annealing_never_returns_worse_than_the_baseline() {
        let p = profile();
        let searcher = Searcher::new(&p, FunctionClass::permutation_based(2), 6).unwrap();
        let outcome = searcher
            .run(SearchAlgorithm::Annealing {
                iterations: 60,
                initial_temperature: 50.0,
                seed: 9,
            })
            .unwrap();
        assert!(outcome.estimated_misses <= outcome.baseline_estimate);
        // The reported cost matches the returned function.
        assert_eq!(
            MissEstimator::new(&p).estimate(&outcome.function).unwrap(),
            outcome.estimated_misses
        );
        FunctionClass::permutation_based(2)
            .check(&outcome.function)
            .unwrap();
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let p = profile();
        let searcher = Searcher::new(&p, FunctionClass::xor_unlimited(), 6).unwrap();
        let run = |seed| {
            searcher
                .run(SearchAlgorithm::Annealing {
                    iterations: 40,
                    initial_temperature: 20.0,
                    seed,
                })
                .unwrap()
        };
        let a = run(1);
        let b = run(1);
        assert_eq!(a.function, b.function);
        assert_eq!(a.estimated_misses, b.estimated_misses);
    }

    /// Unlimited-XOR annealing with every proposal priced exactly by
    /// [`MissEstimator`] — the unbounded trajectory. Returns the best
    /// function, its cost and the accepted-move count.
    fn unbounded_annealing(
        profile: &ConflictProfile,
        iterations: usize,
        initial_temperature: f64,
        seed: u64,
    ) -> (HashFunction, u64, u64) {
        let class = FunctionClass::xor_unlimited();
        let estimator = MissEstimator::new(profile);
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(12, profile);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut current = PackedBasis::standard_span(12, 6..12);
        let mut current_cost = estimator.estimate_packed(&current);
        let start = HashFunction::from_null_space(&current.to_subspace(), class).unwrap();
        let mut best = (start, current_cost);
        let mut steps = 0;
        let temperature_floor = (initial_temperature * 0.01).max(1e-9);
        let decay = (temperature_floor / initial_temperature.max(1e-9))
            .powf(1.0 / (iterations as f64 - 1.0));
        let mut temperature = initial_temperature.max(1e-9);
        for _ in 0..iterations {
            let nbhd = PackedNeighborhood::generate(&current, class, &pool);
            let candidate = &nbhd.candidates[rng.gen_range(0..nbhd.len())].basis;
            let cost = estimator.estimate_packed(candidate);
            let delta = cost as f64 - current_cost as f64;
            if delta <= 0.0 || rng.random::<f64>() < (-delta / temperature).exp() {
                (current, current_cost) = (candidate.clone(), cost);
                steps += 1;
                if cost < best.1 {
                    let function = HashFunction::from_null_space(&current.to_subspace(), class);
                    best = (function.unwrap(), cost);
                }
            }
            temperature = (temperature * decay).max(temperature_floor);
        }
        (best.0, best.1, steps)
    }

    #[test]
    fn bounded_annealing_reproduces_the_unbounded_trajectory() {
        let p = profile();
        for seed in [0u64, 7, 42] {
            let bounded = Searcher::new(&p, FunctionClass::xor_unlimited(), 6)
                .unwrap()
                .run(SearchAlgorithm::Annealing {
                    iterations: 80,
                    initial_temperature: 30.0,
                    seed,
                })
                .unwrap();
            let (function, cost, steps) = unbounded_annealing(&p, 80, 30.0, seed);
            assert_eq!(bounded.function, function, "seed {seed}");
            assert_eq!(bounded.estimated_misses, cost, "seed {seed}");
            assert_eq!(bounded.steps, steps, "seed {seed}");
        }
    }

    #[test]
    fn zero_iterations_returns_the_conventional_function() {
        let p = profile();
        let searcher = Searcher::new(&p, FunctionClass::xor_unlimited(), 6).unwrap();
        let outcome = searcher
            .run(SearchAlgorithm::Annealing {
                iterations: 0,
                initial_temperature: 10.0,
                seed: 0,
            })
            .unwrap();
        assert!(outcome.function.is_conventional());
        assert_eq!(outcome.estimated_misses, outcome.baseline_estimate);
        assert_eq!(outcome.steps, 0);
    }
}
