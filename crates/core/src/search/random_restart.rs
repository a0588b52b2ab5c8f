//! Random-restart hill climbing (extension).
//!
//! The paper notes (Section 3.3) that its single hill climb explores only a
//! fraction of the design space and could be improved at the cost of extra
//! search time. Random restarts are the simplest such improvement: run the
//! same steepest-descent climb from several random admissible starting points
//! and keep the best local optimum.

use rand::rngs::StdRng;
use rand::SeedableRng;

use gf2::Subspace;

use crate::search::{SearchOutcome, Searcher};
use crate::{FunctionClass, XorIndexError};

impl Searcher<'_> {
    /// Hill climbing from the conventional starting point plus `restarts`
    /// random admissible starting points.
    ///
    /// All climbs share one evaluation engine, so they price from one frozen
    /// kernel and one scaffold cache; each climb prices its own
    /// neighbourhoods, even where an earlier climb already priced them.
    /// Random starts are drawn as [`Subspace`]s (the random-generation
    /// boundary) and packed once on entry to the climb, which then carries
    /// packed state end-to-end.
    ///
    /// # Errors
    ///
    /// Propagates hill-climbing failures.
    pub fn random_restart(
        &self,
        restarts: usize,
        seed: u64,
    ) -> Result<SearchOutcome, XorIndexError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut engine = self.engine();
        let mut best = self.hill_climb_with(&mut engine, self.conventional_null_space())?;
        let mut total_evaluations = best.evaluations;
        let mut total_steps = best.steps;
        for _ in 0..restarts {
            let start = self.random_admissible_start(&mut rng);
            let outcome = self.hill_climb_with(&mut engine, start)?;
            total_evaluations += outcome.evaluations;
            total_steps += outcome.steps;
            if outcome.estimated_misses < best.estimated_misses {
                best = outcome;
            }
        }
        best.evaluations = total_evaluations;
        best.steps = total_steps;
        Ok(best)
    }

    /// Draws a random null space admissible for the searcher's class
    /// (including any fan-in bound).
    pub(crate) fn random_admissible_start(&self, rng: &mut StdRng) -> Subspace {
        let n = self.hashed_bits();
        let m = self.set_bits();
        match self.class() {
            FunctionClass::BitSelecting => {
                // A random selection of m bits; the null space spans the rest.
                use rand::seq::SliceRandom;
                let mut bits: Vec<usize> = (0..n).collect();
                bits.shuffle(rng);
                let excluded = bits[m..].to_vec();
                Subspace::standard_span(n, excluded)
            }
            FunctionClass::PermutationBased {
                max_inputs: Some(k),
            }
            | FunctionClass::Xor {
                max_inputs: Some(k),
            } => Self::random_bounded_permutation_null_space(rng, n, m, k),
            FunctionClass::PermutationBased { max_inputs: None } => {
                gf2::random::random_permutation_null_space(rng, n, m)
            }
            FunctionClass::Xor { max_inputs: None } => gf2::random::random_subspace(rng, n, n - m),
        }
    }

    /// Builds a random permutation-based matrix whose XOR gates have at most
    /// `max_inputs` inputs and returns its null space. Permutation-based
    /// functions with bounded fan-in are valid members of both the
    /// permutation-based and the general XOR classes, so this start is always
    /// admissible.
    fn random_bounded_permutation_null_space(
        rng: &mut StdRng,
        n: usize,
        m: usize,
        max_inputs: usize,
    ) -> Subspace {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let extra_per_column = max_inputs.saturating_sub(1);
        let mut matrix = gf2::BitMatrix::zero(n, m);
        for c in 0..m {
            matrix.set(c, c, true);
            if n > m && extra_per_column > 0 {
                let mut high_rows: Vec<usize> = (m..n).collect();
                high_rows.shuffle(rng);
                let extras = rng.gen_range(0..=extra_per_column.min(high_rows.len()));
                for &r in high_rows.iter().take(extras) {
                    matrix.set(r, c, true);
                }
            }
        }
        matrix.null_space()
    }
}

#[cfg(test)]
mod tests {
    use crate::search::{SearchAlgorithm, Searcher};
    use crate::{ConflictProfile, FunctionClass};
    use cache_sim::BlockAddr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profile() -> ConflictProfile {
        let mut blocks = Vec::new();
        for i in 0..300u64 {
            blocks.push(BlockAddr((i % 3) * 64));
            blocks.push(BlockAddr(0x400 + (i % 2) * 96));
        }
        ConflictProfile::from_blocks(blocks, 12, 64)
    }

    #[test]
    fn random_restart_is_at_least_as_good_as_plain_hill_climbing() {
        let p = profile();
        for class in [
            FunctionClass::permutation_based(2),
            FunctionClass::xor_unlimited(),
            FunctionClass::bit_selecting(),
        ] {
            let searcher = Searcher::new(&p, class, 6).unwrap();
            let plain = searcher.run(SearchAlgorithm::HillClimb).unwrap();
            let restarted = searcher
                .run(SearchAlgorithm::RandomRestart {
                    restarts: 3,
                    seed: 11,
                })
                .unwrap();
            assert!(restarted.estimated_misses <= plain.estimated_misses);
            assert!(restarted.evaluations >= plain.evaluations);
            class.check(&restarted.function).unwrap();
        }
    }

    #[test]
    fn random_restart_is_deterministic_per_seed() {
        let p = profile();
        let searcher = Searcher::new(&p, FunctionClass::permutation_based(2), 6).unwrap();
        let a = searcher
            .run(SearchAlgorithm::RandomRestart {
                restarts: 2,
                seed: 5,
            })
            .unwrap();
        let b = searcher
            .run(SearchAlgorithm::RandomRestart {
                restarts: 2,
                seed: 5,
            })
            .unwrap();
        assert_eq!(a.function, b.function);
        assert_eq!(a.estimated_misses, b.estimated_misses);
    }

    #[test]
    fn random_starts_are_admissible() {
        let p = profile();
        let mut rng = StdRng::seed_from_u64(3);
        for class in [
            FunctionClass::bit_selecting(),
            FunctionClass::permutation_based(4),
            FunctionClass::xor_unlimited(),
        ] {
            let searcher = Searcher::new(&p, class, 5).unwrap();
            for _ in 0..5 {
                let start = searcher.random_admissible_start(&mut rng);
                assert_eq!(start.dim(), 12 - 5);
                match class {
                    FunctionClass::BitSelecting => {
                        assert!(start.basis().iter().all(|b| b.weight() == 1));
                    }
                    FunctionClass::PermutationBased { .. } => {
                        assert!(start.admits_permutation_based_function(5));
                    }
                    FunctionClass::Xor { .. } => {}
                }
            }
        }
    }
}
