//! Conflict-miss estimation from a profile (paper Eq. 4).
//!
//! [`MissEstimator`] is the pricing oracle: it evaluates Eq. 4 literally, on
//! either side of the sum ([`EstimationStrategy`]), and every fast route —
//! the [`FrozenKernel`](crate::FrozenKernel)'s coordinate table and entry
//! scan, and the engine's neighbourhood lanes — is pinned bit-identical to
//! it under every strategy.

use gf2::PackedBasis;
use serde::{Deserialize, Serialize};

use crate::{ConflictProfile, HashFunction, XorIndexError};

/// How [`MissEstimator::estimate`] evaluates Eq. 4.
///
/// Both strategies compute exactly the same sum
/// `misses(H) = Σ_{v ∈ N(H)} misses(v)`; they differ only in which side they
/// enumerate, and therefore in cost:
///
/// * [`EstimationStrategy::EnumerateNullSpace`] walks the `2^(n−m)` vectors of
///   the null space and looks each up in the histogram — cheap when the cache
///   is large (small null space);
/// * [`EstimationStrategy::ScanHistogram`] walks the recorded conflict vectors
///   and tests membership in the null space — cheap when the profile is small
///   or the cache is small (large null space);
/// * [`EstimationStrategy::Auto`] picks whichever side is smaller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EstimationStrategy {
    /// Choose the cheaper side automatically (the default).
    #[default]
    Auto,
    /// Enumerate the null space, summing histogram lookups.
    EnumerateNullSpace,
    /// Scan the histogram, testing null-space membership.
    ScanHistogram,
}

/// Resolves [`EstimationStrategy::Auto`] for a null space of dimension `dim`
/// against a histogram of `distinct_vectors` recorded conflict vectors:
/// enumerate the `2^dim − 1` *non-zero* null-space vectors (the zero vector
/// is never recorded, so enumeration skips it) when there are no more of them
/// than distinct vectors, otherwise scan the histogram.
#[must_use]
fn resolve_strategy(
    strategy: EstimationStrategy,
    dim: usize,
    distinct_vectors: usize,
) -> EstimationStrategy {
    match strategy {
        EstimationStrategy::Auto => {
            let nonzero_null_vectors = (1u128 << dim) - 1;
            if nonzero_null_vectors <= distinct_vectors as u128 {
                EstimationStrategy::EnumerateNullSpace
            } else {
                EstimationStrategy::ScanHistogram
            }
        }
        other => other,
    }
}

/// An Eq. 4 price under an incumbent bound: either the exact miss count, or
/// the verdict that the candidate costs at least the bound — all a
/// best-improvement search ever needs from a lane it will discard.
///
/// Produced by the bounded pricing surfaces
/// ([`FrozenKernel::cost_bounded`](crate::FrozenKernel::cost_bounded),
/// [`EvalEngine::estimate_neighborhood_bounded`](crate::EvalEngine::estimate_neighborhood_bounded)):
/// a candidate whose running sum reaches the bound is abandoned early
/// instead of being priced to completion. Every surface answers `Exact`
/// exactly when the cost is below the bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundedCost {
    /// The exact Eq. 4 miss count — bit-identical to the unbounded path.
    Exact(u64),
    /// The candidate's true cost is `≥` the carried bound; the exact value
    /// was not computed.
    AtLeast(u64),
}

impl BoundedCost {
    /// The exact cost, when one was computed.
    #[must_use]
    pub fn exact(self) -> Option<u64> {
        match self {
            BoundedCost::Exact(cost) => Some(cost),
            BoundedCost::AtLeast(_) => None,
        }
    }

    /// A lower bound on the true cost, whichever variant this is.
    #[must_use]
    pub fn lower_bound(self) -> u64 {
        match self {
            BoundedCost::Exact(cost) | BoundedCost::AtLeast(cost) => cost,
        }
    }
}

/// Estimates the conflict misses a hash function would incur, using a
/// [`ConflictProfile`] instead of re-simulating the trace (paper Eq. 4).
///
/// The estimate is exact for the conventional function the profile was
/// gathered against and a good approximation for nearby functions; the paper
/// proves no profile of this shape can be exact for *all* XOR functions
/// simultaneously (its Section 3.3), which is what makes the overall algorithm
/// a heuristic.
///
/// # Example
///
/// ```
/// use cache_sim::BlockAddr;
/// use xorindex::{ConflictProfile, HashFunction, MissEstimator};
///
/// let trace = (0..20u64).map(|i| BlockAddr((i % 2) * 0x100));
/// let profile = ConflictProfile::from_blocks(trace, 16, 256);
/// let estimator = MissEstimator::new(&profile);
///
/// // The conventional function keeps colliding: 18 estimated conflict misses.
/// let conventional = HashFunction::conventional(16, 8)?;
/// assert_eq!(estimator.estimate(&conventional)?, 18);
///
/// // A function whose null space avoids the hot vector removes them all.
/// let xor = HashFunction::new(gf2::BitMatrix::from_fn(16, 8, |r, c| r == c || r == c + 8))?;
/// assert_eq!(estimator.estimate(&xor)?, 0);
/// # Ok::<(), xorindex::XorIndexError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MissEstimator<'a> {
    profile: &'a ConflictProfile,
    strategy: EstimationStrategy,
}

impl<'a> MissEstimator<'a> {
    /// Creates an estimator over a profile with the default
    /// ([`EstimationStrategy::Auto`]) strategy.
    #[must_use]
    pub fn new(profile: &'a ConflictProfile) -> Self {
        MissEstimator {
            profile,
            strategy: EstimationStrategy::Auto,
        }
    }

    /// Selects an evaluation strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: EstimationStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The profile this estimator reads.
    #[must_use]
    pub fn profile(&self) -> &ConflictProfile {
        self.profile
    }

    /// Estimated conflict misses of a hash function (paper Eq. 4).
    ///
    /// # Errors
    ///
    /// Returns [`XorIndexError::ProfileMismatch`] when the function hashes a
    /// different number of address bits than the profile recorded.
    pub fn estimate(&self, function: &HashFunction) -> Result<u64, XorIndexError> {
        if function.hashed_bits() != self.profile.hashed_bits() {
            return Err(XorIndexError::ProfileMismatch {
                profile_bits: self.profile.hashed_bits(),
                candidate_bits: function.hashed_bits(),
            });
        }
        Ok(self.estimate_packed(&function.null_space()))
    }

    /// The concrete strategy [`MissEstimator::estimate_packed`] would run
    /// for a null space of this dimension: never
    /// [`EstimationStrategy::Auto`], which enumerates the `2^dim − 1`
    /// non-zero null-space vectors when there are no more of them than
    /// distinct histogram vectors, and scans the histogram otherwise.
    #[must_use]
    pub fn resolved_strategy(&self, ns: &PackedBasis) -> EstimationStrategy {
        resolve_strategy(self.strategy, ns.dim(), self.profile.distinct_vectors())
    }

    /// Estimated conflict misses of any function whose null space is
    /// `basis` (paper Eq. 4).
    ///
    /// # Panics
    ///
    /// Panics if the basis's ambient width differs from the profile's hashed
    /// width.
    #[must_use]
    pub fn estimate_packed(&self, basis: &PackedBasis) -> u64 {
        assert_eq!(
            basis.width(),
            self.profile.hashed_bits(),
            "null space width must match the profile"
        );
        match self.resolved_strategy(basis) {
            // The zero vector carries weight 0, so it needs no special case.
            EstimationStrategy::EnumerateNullSpace => {
                basis.vectors().map(|v| self.profile.misses_of(v)).sum()
            }
            EstimationStrategy::ScanHistogram => self
                .profile
                .entries()
                .iter()
                .filter(|&&(v, _)| basis.contains(v))
                .map(|&(_, w)| w)
                .sum(),
            EstimationStrategy::Auto => unreachable!("Auto resolved above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::BlockAddr;
    use gf2::BitMatrix;

    fn profile_from(seq: &[u64], hashed_bits: usize, capacity: usize) -> ConflictProfile {
        ConflictProfile::from_blocks(seq.iter().copied().map(BlockAddr), hashed_bits, capacity)
    }

    #[test]
    fn strategies_agree_exactly() {
        // A trace mixing several conflict vectors.
        let seq: Vec<u64> = (0..200u64)
            .map(|i| match i % 5 {
                0 => 0,
                1 => 0x40,
                2 => 0x80,
                3 => 0x23,
                _ => 0xC0,
            })
            .collect();
        let profile = profile_from(&seq, 12, 64);
        let functions = [
            HashFunction::conventional(12, 6).unwrap(),
            HashFunction::new(BitMatrix::from_fn(12, 6, |r, c| r == c || r == c + 6)).unwrap(),
            HashFunction::bit_selecting(12, &[0, 1, 2, 3, 4, 11]).unwrap(),
        ];
        for f in &functions {
            let a = MissEstimator::new(&profile)
                .with_strategy(EstimationStrategy::EnumerateNullSpace)
                .estimate(f)
                .unwrap();
            let b = MissEstimator::new(&profile)
                .with_strategy(EstimationStrategy::ScanHistogram)
                .estimate(f)
                .unwrap();
            let c = MissEstimator::new(&profile).estimate(f).unwrap();
            assert_eq!(a, b);
            assert_eq!(a, c);
        }
    }

    #[test]
    fn estimate_is_exact_for_the_conventional_function_on_a_ping_pong() {
        // Two blocks conflicting under modulo indexing in a 64-set cache.
        let seq: Vec<u64> = (0..40).map(|i| (i % 2) * 64).collect();
        let profile = profile_from(&seq, 12, 64);
        let estimator = MissEstimator::new(&profile);
        let conventional = HashFunction::conventional(12, 6).unwrap();
        // 38 conflicting reuses (all but the two first touches).
        assert_eq!(estimator.estimate(&conventional).unwrap(), 38);
        // The permutation-based function s_c = a_c ^ a_{c+6} separates them.
        let fixed =
            HashFunction::new(BitMatrix::from_fn(12, 6, |r, c| r == c || r == c + 6)).unwrap();
        assert_eq!(estimator.estimate(&fixed).unwrap(), 0);
    }

    #[test]
    fn auto_crossover_counts_nonzero_null_vectors() {
        // Exactly 3 distinct conflict vectors: revisiting 1 records 1^2=3 and
        // 1^3=2, revisiting 2 records 2^3=1 (and 2^1=3 again).
        let profile = profile_from(&[1, 2, 3, 1, 2], 8, 16);
        assert_eq!(profile.distinct_vectors(), 3);
        let estimator = MissEstimator::new(&profile);
        // dim 2 → 3 non-zero null vectors == 3 distinct: enumeration is no
        // more expensive, so Auto must pick it. (The old comparison counted
        // the zero vector, saw 4 > 3, and scanned instead.)
        let dim2 = PackedBasis::standard_span(8, [6usize, 7]);
        assert_eq!(
            estimator.resolved_strategy(&dim2),
            EstimationStrategy::EnumerateNullSpace
        );
        // dim 3 → 7 non-zero null vectors > 3 distinct: scan the histogram.
        let dim3 = PackedBasis::standard_span(8, [5usize, 6, 7]);
        assert_eq!(
            estimator.resolved_strategy(&dim3),
            EstimationStrategy::ScanHistogram
        );
        // Explicit strategies resolve to themselves.
        for s in [
            EstimationStrategy::EnumerateNullSpace,
            EstimationStrategy::ScanHistogram,
        ] {
            assert_eq!(
                MissEstimator::new(&profile)
                    .with_strategy(s)
                    .resolved_strategy(&dim2),
                s
            );
        }
        // Either side computes the same value at the boundary.
        let f = HashFunction::conventional(8, 6).unwrap();
        assert_eq!(
            MissEstimator::new(&profile)
                .with_strategy(EstimationStrategy::EnumerateNullSpace)
                .estimate(&f)
                .unwrap(),
            MissEstimator::new(&profile)
                .with_strategy(EstimationStrategy::ScanHistogram)
                .estimate(&f)
                .unwrap()
        );
    }

    #[test]
    fn profile_mismatch_is_detected() {
        let profile = profile_from(&[0, 1, 0], 16, 16);
        let f = HashFunction::conventional(12, 6).unwrap();
        assert!(matches!(
            MissEstimator::new(&profile).estimate(&f),
            Err(XorIndexError::ProfileMismatch { .. })
        ));
    }

    #[test]
    fn estimate_never_exceeds_total_weight() {
        let seq: Vec<u64> = (0..300u64).map(|i| (i * 37) % 97).collect();
        let profile = profile_from(&seq, 10, 32);
        let estimator = MissEstimator::new(&profile);
        for m in 2..=6 {
            let f = HashFunction::conventional(10, m).unwrap();
            assert!(estimator.estimate(&f).unwrap() <= profile.total_weight());
        }
    }

    #[test]
    fn larger_caches_estimate_no_more_misses_under_modulo() {
        // Under modulo indexing, the null space of a bigger cache is contained
        // in that of a smaller cache, so the estimate is monotone.
        let seq: Vec<u64> = (0..500u64).map(|i| (i * 13) % 211).collect();
        let profile = profile_from(&seq, 12, 4096);
        let estimator = MissEstimator::new(&profile);
        let mut previous = u64::MAX;
        for m in 2..=8 {
            let est = estimator
                .estimate(&HashFunction::conventional(12, m).unwrap())
                .unwrap();
            assert!(est <= previous, "m={m}: {est} > {previous}");
            previous = est;
        }
    }

    #[test]
    fn null_space_estimate_matches_function_estimate() {
        let seq: Vec<u64> = (0..100u64)
            .map(|i| (i % 2) * 0x20 + (i % 3) * 0x100)
            .collect();
        let profile = profile_from(&seq, 12, 64);
        let estimator = MissEstimator::new(&profile);
        let f = HashFunction::new(BitMatrix::from_fn(12, 5, |r, c| r == c || r == c + 5)).unwrap();
        assert_eq!(
            estimator.estimate(&f).unwrap(),
            estimator.estimate_packed(&f.null_space())
        );
    }

    #[test]
    fn estimate_is_the_literal_eq4_sum_under_every_strategy() {
        let seq: Vec<u64> = (0..300u64)
            .map(|i| (i % 3) * 0x40 + (i % 5) * 0x200)
            .collect();
        let profile = profile_from(&seq, 12, 64);
        let functions: Vec<HashFunction> = (2..=8)
            .map(|m| HashFunction::conventional(12, m).unwrap())
            .chain([
                HashFunction::new(BitMatrix::from_fn(12, 6, |r, c| r == c || r == c + 6)).unwrap(),
                HashFunction::new(BitMatrix::from_fn(12, 4, |r, c| r == c + 4 || r == c + 8))
                    .unwrap(),
                HashFunction::bit_selecting(12, &[0, 1, 2, 3, 4, 11]).unwrap(),
            ])
            .collect();
        for f in &functions {
            // Eq. 4 with membership read off Eq. 2: v ∈ N(H) iff v · H = 0.
            let literal: u64 = profile
                .entries()
                .iter()
                .filter(|&&(v, _)| f.set_index_of(v) == 0)
                .map(|&(_, w)| w)
                .sum();
            for strategy in [
                EstimationStrategy::Auto,
                EstimationStrategy::EnumerateNullSpace,
                EstimationStrategy::ScanHistogram,
            ] {
                let estimator = MissEstimator::new(&profile).with_strategy(strategy);
                assert_eq!(estimator.estimate(f).unwrap(), literal, "{strategy:?}, {f}");
                assert_eq!(estimator.estimate_packed(&f.null_space()), literal);
            }
        }
    }
}
