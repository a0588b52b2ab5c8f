//! Exhaustive (optimal) bit-selecting search, after Patel et al.
//!
//! The number of bit-selecting functions is only `C(n, m)`, so — unlike the
//! XOR design space — all of them can be evaluated. Patel et al. exploit this
//! to simulate every bit-selecting function simultaneously; evaluating each
//! selection against the conflict-vector histogram is an equivalent
//! formulation and is what the paper's Table 3 column "opt" compares the
//! heuristic against.

use crate::search::{SearchOutcome, Searcher};
use crate::{HashFunction, XorIndexError};

impl Searcher<'_> {
    /// Evaluates every `C(n, m)` bit-selecting function against the profile
    /// and returns the best one.
    ///
    /// The whole design space is priced as one engine batch (split across
    /// threads when large), and ties keep the lexicographically first
    /// selection, as the sequential enumeration did.
    ///
    /// The result is optimal *with respect to the profile* (the same caveat as
    /// the rest of the framework: the profile itself is a heuristic
    /// abstraction of the trace).
    ///
    /// # Errors
    ///
    /// Propagates construction failures, which cannot normally occur for
    /// bit-selecting functions.
    pub fn optimal_bit_select(&self) -> Result<SearchOutcome, XorIndexError> {
        // Stream the lexicographic enumeration through the engine in bounded
        // chunks: each chunk is priced as one (optionally parallel) batch,
        // but memory stays O(chunk) however large C(n, m) grows.
        const CHUNK: usize = 4096;
        let n = self.hashed_bits();
        let m = self.set_bits();
        let mut engine = self.engine();
        let baseline_estimate = engine.estimate_packed(&self.conventional_null_space());

        let mut best: Option<(u64, Vec<usize>)> = None;
        let mut evaluations = 0u64;
        let mut selection: Vec<usize> = (0..m).collect();
        let mut exhausted = false;
        while !exhausted {
            let mut selections: Vec<Vec<usize>> = Vec::with_capacity(CHUNK);
            let mut candidates: Vec<gf2::PackedBasis> = Vec::with_capacity(CHUNK);
            while selections.len() < CHUNK {
                // The selection's null space is spanned by the complementary
                // unit vectors, built directly in packed form (unit rows need
                // no elimination work).
                let excluded = (0..n).filter(|i| !selection.contains(i));
                candidates.push(gf2::PackedBasis::standard_span(n, excluded));
                selections.push(selection.clone());
                if !next_combination(&mut selection, n) {
                    exhausted = true;
                    break;
                }
            }
            let costs = engine.estimate_batch(&candidates);
            evaluations += candidates.len() as u64;
            for (sel, cost) in selections.into_iter().zip(costs) {
                // Strictly-less keeps the lexicographically first tie, as the
                // pre-engine sequential enumeration did.
                let improves = match &best {
                    Some((best_cost, _)) => cost < *best_cost,
                    None => true,
                };
                if improves {
                    best = Some((cost, sel));
                }
            }
        }

        let (cost, sel) = best.expect("at least one combination exists");
        let function = HashFunction::bit_selecting(n, &sel)?;
        Ok(SearchOutcome {
            function,
            estimated_misses: cost,
            baseline_estimate,
            evaluations,
            steps: 0,
        })
    }
}

/// Advances `combo` (a strictly increasing selection of values in `0..n`) to
/// the next combination in lexicographic order. Returns `false` when `combo`
/// was the last combination.
fn next_combination(combo: &mut [usize], n: usize) -> bool {
    let k = combo.len();
    // Find the rightmost element that can be incremented.
    let mut i = k;
    while i > 0 {
        i -= 1;
        if combo[i] < n - (k - i) {
            combo[i] += 1;
            for j in (i + 1)..k {
                combo[j] = combo[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchAlgorithm;
    use crate::{ConflictProfile, FunctionClass};
    use cache_sim::BlockAddr;
    use gf2::count::bit_selecting_functions;

    #[test]
    fn combination_iterator_visits_every_combination_once() {
        let mut combo: Vec<usize> = vec![0, 1, 2];
        let mut seen = vec![combo.clone()];
        while next_combination(&mut combo, 6) {
            seen.push(combo.clone());
        }
        assert_eq!(seen.len(), 20); // C(6,3)
        let distinct: std::collections::HashSet<_> = seen.iter().cloned().collect();
        assert_eq!(distinct.len(), 20);
        for c in &seen {
            assert!(c.windows(2).all(|w| w[0] < w[1]));
            assert!(c.iter().all(|&x| x < 6));
        }
    }

    fn skewed_profile() -> ConflictProfile {
        // Conflicts concentrated on the vector e4 (= 16): selecting bit 4 in
        // the index removes them; any selection without bit 4 keeps them.
        let trace = (0..300u64).map(|i| BlockAddr((i % 2) * 16));
        ConflictProfile::from_blocks(trace, 10, 256)
    }

    #[test]
    fn optimal_bit_select_evaluates_all_combinations() {
        let profile = skewed_profile();
        let searcher = Searcher::new(&profile, FunctionClass::bit_selecting(), 4).unwrap();
        let outcome = searcher.run(SearchAlgorithm::OptimalBitSelect).unwrap();
        assert_eq!(outcome.evaluations as u128, bit_selecting_functions(10, 4));
        assert_eq!(outcome.estimated_misses, 0);
        assert!(outcome.function.is_bit_selecting());
        // Bit 4 must be part of the winning selection.
        assert!(outcome.function.set_index_of(16) != outcome.function.set_index_of(0));
    }

    #[test]
    fn optimal_is_never_worse_than_hill_climbed_bit_selection() {
        // Mixture of conflict vectors, some of which cannot all be fixed.
        let mut blocks = Vec::new();
        for i in 0..500u64 {
            blocks.push(BlockAddr((i % 3) * 32));
            blocks.push(BlockAddr(0x400 + (i % 5) * 16));
        }
        let profile = ConflictProfile::from_blocks(blocks, 12, 128);
        let searcher = Searcher::new(&profile, FunctionClass::bit_selecting(), 5).unwrap();
        let optimal = searcher.run(SearchAlgorithm::OptimalBitSelect).unwrap();
        let heuristic = searcher.run(SearchAlgorithm::HillClimb).unwrap();
        assert!(optimal.estimated_misses <= heuristic.estimated_misses);
        assert!(optimal.estimated_misses <= optimal.baseline_estimate);
    }
}
