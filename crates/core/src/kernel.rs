//! The frozen, shareable pricing core of the evaluation engine.
//!
//! [`FrozenKernel`] is the immutable half of what used to be `EvalEngine`: a
//! [`DenseProfile`] snapshot of one application's conflict histogram plus the
//! Eq. 4 arithmetic (full null-space walks, histogram scans, and the
//! coset-sliced neighbourhood sums) and the strategy-resolution rule. It
//! holds no interior mutability at all, so it is `Send + Sync` by
//! construction and one `Arc<FrozenKernel>` can price candidates from any
//! number of threads simultaneously — the [`EvalEngine`](crate::EvalEngine)
//! façade, the search algorithms, and a multi-tenant serving layer all share
//! the same kernel per application instead of re-freezing the histogram per
//! search.
//!
//! Pricing comes in three shapes. The scalar path ([`FrozenKernel::cost`])
//! prices one candidate under its resolved [`EstimationStrategy`]. The batch
//! path ([`FrozenKernel::cost_batch`] / [`FrozenKernel::cost_batch_sliced`])
//! transposes up to [`SLICED_LANES`] candidates into a [`SlicedBlock`] and
//! scans the histogram once, advancing every candidate per entry with a
//! word-parallel membership mask; [`BatchStrategy`] resolution picks between
//! the two by batch shape. The neighbourhood path
//! ([`FrozenKernel::cost_neighborhood_bounded`]) prices candidates
//! `hyperplane ⊕ span(direction)` over one shared parent in coset-sliced
//! blocks under an incumbent bound. All compute the exact Eq. 4 sum,
//! bit-identically.
//!
//! The kernel never caches, so every method here is a pure function of the
//! frozen histogram. (The serving layer answers repeat pricing requests from
//! a [`ShardedMemo`](crate::ShardedMemo) in front of it.)

use gf2::{CosetFrame, CosetHistogram, PackedBasis, SlicedBlock, SLICED_LANES};

use crate::estimate::{resolve_batch_strategy, resolve_strategy};
use crate::{
    BatchStrategy, BoundedCost, ConflictProfile, DenseProfile, EstimationStrategy, XorIndexError,
};

/// The immutable Eq. 4 pricing core: a frozen [`DenseProfile`], shareable
/// across threads via `Arc`.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use cache_sim::BlockAddr;
/// use gf2::PackedBasis;
/// use xorindex::{ConflictProfile, FrozenKernel, MissEstimator};
///
/// let trace = (0..20u64).map(|i| BlockAddr((i % 2) * 0x100));
/// let profile = ConflictProfile::from_blocks(trace, 16, 256);
/// let kernel = Arc::new(FrozenKernel::new(&profile));
///
/// let ns = PackedBasis::standard_span(16, 8..16);
/// // The kernel prices through &self, so clones of the Arc can evaluate
/// // concurrently; results are bit-identical to the reference estimator.
/// assert_eq!(
///     kernel.cost(&ns),
///     MissEstimator::new(&profile).estimate_packed(&ns)
/// );
/// ```
#[derive(Debug, Clone)]
pub struct FrozenKernel {
    dense: DenseProfile,
}

impl FrozenKernel {
    /// Freezes a profile's histogram into a kernel.
    #[must_use]
    pub fn new(profile: &ConflictProfile) -> Self {
        Self::from_dense(DenseProfile::from_profile(profile))
    }

    /// Builds a kernel over an already-frozen dense profile.
    #[must_use]
    pub fn from_dense(dense: DenseProfile) -> Self {
        FrozenKernel { dense }
    }

    /// The frozen dense view of the histogram.
    #[must_use]
    pub fn dense(&self) -> &DenseProfile {
        &self.dense
    }

    /// Number of hashed address bits the kernel prices against.
    #[must_use]
    pub fn hashed_bits(&self) -> usize {
        self.dense.hashed_bits()
    }

    /// Asserts that a candidate's ambient width matches the profile's hashed
    /// width (the precondition of every pricing method). Public callers use
    /// the typed [`FrozenKernel::ensure_width`].
    ///
    /// # Panics
    ///
    /// Panics on mismatch.
    pub(crate) fn check_width(&self, basis: &PackedBasis) {
        assert_eq!(
            basis.width(),
            self.dense.hashed_bits(),
            "null space width must match the profile"
        );
    }

    /// The exact Eq. 4 sum for one packed null space — a fresh evaluation
    /// on whichever side of Eq. 4 is smaller
    /// ([`EstimationStrategy::Auto`]).
    ///
    /// # Panics
    ///
    /// Panics if the basis's ambient width differs from the profile's hashed
    /// width.
    #[must_use]
    pub fn cost(&self, basis: &PackedBasis) -> u64 {
        self.check_width(basis);
        if self.enumerates(basis) {
            // The zero vector carries weight 0, so it needs no special case.
            basis.vectors().map(|v| self.dense.misses_of(v)).sum()
        } else {
            let members = self.dense.iter().filter(|&(v, _)| basis.contains(v));
            members.map(|(_, w)| w).sum()
        }
    }

    /// Checked width test: `Ok` exactly when `basis` has the profile's hashed
    /// width, the precondition of every pricing method.
    ///
    /// # Errors
    ///
    /// Returns [`XorIndexError::ProfileMismatch`] on mismatch, for callers
    /// (like a serving layer) that must survive malformed requests. The
    /// pricing methods themselves panic on a mismatch.
    pub fn ensure_width(&self, basis: &PackedBasis) -> Result<(), XorIndexError> {
        if basis.width() == self.dense.hashed_bits() {
            Ok(())
        } else {
            Err(XorIndexError::ProfileMismatch {
                profile_bits: self.dense.hashed_bits(),
                candidate_bits: basis.width(),
            })
        }
    }

    /// Prices a batch of candidates, chunking it into blocks of at most
    /// [`SLICED_LANES`] and resolving each block to the bit-sliced scan or
    /// the per-candidate path by shape (see [`BatchStrategy`]). Results are
    /// aligned with `bases` and bit-identical to calling
    /// [`FrozenKernel::cost`] per candidate.
    ///
    /// # Panics
    ///
    /// Panics if any candidate's ambient width differs from the profile's
    /// hashed width.
    #[must_use]
    pub fn cost_batch(&self, bases: &[&PackedBasis]) -> Vec<u64> {
        let mut out = Vec::with_capacity(bases.len());
        for chunk in bases.chunks(SLICED_LANES) {
            out.extend(self.cost_block(chunk).0);
        }
        out
    }

    /// Prices one block of at most [`SLICED_LANES`] candidates, reporting
    /// which [`BatchStrategy`] the block resolved to (so callers can count
    /// sliced work). The building block of [`FrozenKernel::cost_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the block is empty, exceeds [`SLICED_LANES`] lanes, or any
    /// candidate's ambient width differs from the profile's hashed width.
    #[must_use]
    pub fn cost_block(&self, chunk: &[&PackedBasis]) -> (Vec<u64>, BatchStrategy) {
        assert!(
            chunk.len() <= SLICED_LANES,
            "a block holds at most {SLICED_LANES} candidates"
        );
        let dims: Vec<usize> = chunk.iter().map(|b| b.dim()).collect();
        let resolved = self.batch_strategy(&dims);
        let costs = match resolved {
            BatchStrategy::SlicedScan => self.cost_block_sliced(chunk),
            BatchStrategy::PerCandidate => chunk.iter().map(|b| self.cost(b)).collect(),
        };
        (costs, resolved)
    }

    /// Forced bit-sliced batch pricing: every chunk of up to [`SLICED_LANES`]
    /// candidates is transposed into a [`SlicedBlock`] and priced by one
    /// histogram scan, regardless of what strategy resolution would pick.
    /// Bit-identical to [`FrozenKernel::cost`] per candidate; useful for
    /// benchmarking the sliced path and as the batch form of
    /// [`EstimationStrategy::ScanHistogram`].
    ///
    /// # Panics
    ///
    /// Panics if any candidate's ambient width differs from the profile's
    /// hashed width.
    #[must_use]
    pub fn cost_batch_sliced(&self, bases: &[&PackedBasis]) -> Vec<u64> {
        let mut out = Vec::with_capacity(bases.len());
        for chunk in bases.chunks(SLICED_LANES) {
            out.extend(self.cost_block_sliced(chunk));
        }
        out
    }

    /// One transposed scan over the histogram, pricing a whole block: per
    /// entry, the block's membership mask says which lanes' null spaces
    /// contain the vector, and the entry's weight is added to exactly those
    /// lanes' sums — Eq. 4 for all lanes at once.
    fn cost_block_sliced(&self, chunk: &[&PackedBasis]) -> Vec<u64> {
        for basis in chunk {
            self.check_width(basis);
        }
        SlicedBlock::from_bases(chunk.iter().copied()).sum_weights(self.dense.iter())
    }

    /// Resolves how a batch of candidates with the given null-space
    /// dimensions should be priced — the [`BatchStrategy`] the sliced paths
    /// and [`FrozenKernel::cost_block`] act on, exposed so orchestrating
    /// callers (the engine) can pick their work partitioning to match.
    #[must_use]
    pub fn batch_strategy(&self, dims: &[usize]) -> BatchStrategy {
        resolve_batch_strategy(
            self.hashed_bits(),
            self.dense.mean_popcount(),
            dims,
            self.dense.distinct_vectors(),
        )
    }

    /// Builds the per-neighbourhood scaffolding coset-sliced pricing needs:
    /// the [`CosetFrame`] of hyperplane functionals and the [`CosetHistogram`]
    /// grouping of the whole dense profile by parent remainder.
    ///
    /// [`FrozenKernel::cost_neighborhood_bounded`] builds this internally per
    /// call; orchestrating callers (the engine's scaffold cache, parallel
    /// block stamping) build it once here and then stamp and sum blocks
    /// themselves via [`CosetFrame::block`] and
    /// [`gf2::SlicedCosetBlock::sum_weights`].
    ///
    /// # Panics
    ///
    /// Panics if the parent's ambient width differs from the profile's hashed
    /// width, or if a hyperplane is not a hyperplane of the parent.
    #[must_use]
    pub fn neighborhood_scaffold(
        &self,
        parent: &PackedBasis,
        hyperplanes: &[PackedBasis],
    ) -> (CosetFrame, CosetHistogram) {
        self.check_width(parent);
        (
            CosetFrame::new(parent, hyperplanes),
            CosetHistogram::new(parent, self.dense.iter()),
        )
    }

    /// Prices a whole neighbourhood of candidates `hyperplanes[h] ⊕
    /// span(direction)` over one shared `parent` through the coset-sliced
    /// path, under an incumbent bound. The per-neighbourhood work is hoisted
    /// once — hyperplane functionals into a [`CosetFrame`], the histogram
    /// grouped by parent remainder into a [`CosetHistogram`] — then each
    /// block of up to [`SLICED_LANES`] lanes is stamped and summed from only
    /// the entries its lanes' cosets select.
    ///
    /// Lanes whose running sum saturates `bound` are abandoned
    /// ([`BoundedCost::AtLeast`]) and whole blocks stop scanning once every
    /// lane has saturated. Lanes with true cost below the bound are priced
    /// exactly, bit-identical to [`FrozenKernel::cost`] on each materialized
    /// extension; `bound = u64::MAX` prices every lane exactly. Results align
    /// with `lanes`.
    ///
    /// # Panics
    ///
    /// Panics if the parent's ambient width differs from the profile's hashed
    /// width, or if a hyperplane or lane is not a valid hyperplane/direction
    /// decomposition over the parent (see [`CosetFrame::new`] and
    /// [`CosetFrame::block`]).
    #[must_use]
    pub fn cost_neighborhood_bounded(
        &self,
        parent: &PackedBasis,
        hyperplanes: &[PackedBasis],
        lanes: &[(usize, u64)],
        bound: u64,
    ) -> Vec<BoundedCost> {
        self.check_width(parent);
        if lanes.is_empty() {
            return Vec::new();
        }
        let (frame, histogram) = self.neighborhood_scaffold(parent, hyperplanes);
        let mut out = Vec::with_capacity(lanes.len());
        for chunk in lanes.chunks(SLICED_LANES) {
            let block = frame.block(chunk).sum_weights(&histogram, bound);
            out.extend(BoundedCost::from_block(block, bound));
        }
        out
    }

    /// [`FrozenKernel::cost`] under an incumbent bound: the scan abandons as
    /// soon as the running sum saturates `bound`, returning
    /// [`BoundedCost::AtLeast`] instead of the exact count. A candidate whose
    /// true cost is below the bound is priced exactly (the running sum is
    /// monotone, so it never saturates early).
    ///
    /// # Panics
    ///
    /// Panics if the basis's ambient width differs from the profile's hashed
    /// width.
    #[must_use]
    pub fn cost_bounded(&self, basis: &PackedBasis, bound: u64) -> BoundedCost {
        self.check_width(basis);
        let mut sum = 0u64;
        let mut saturates = |w: u64| {
            sum += w;
            sum >= bound
        };
        let saturated = if self.enumerates(basis) {
            basis.vectors().any(|v| saturates(self.dense.misses_of(v)))
        } else {
            let mut members = self.dense.iter().filter(|&(v, _)| basis.contains(v));
            members.any(|(_, w)| saturates(w))
        };
        if saturated {
            BoundedCost::AtLeast(bound)
        } else {
            BoundedCost::Exact(sum)
        }
    }

    /// Whether a single candidate is priced by enumerating its null space
    /// rather than scanning the histogram — whichever side of Eq. 4 is
    /// smaller.
    fn enumerates(&self, basis: &PackedBasis) -> bool {
        let distinct = self.dense.distinct_vectors();
        resolve_strategy(EstimationStrategy::Auto, basis.dim(), distinct)
            == EstimationStrategy::EnumerateNullSpace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HashFunction, MissEstimator};
    use cache_sim::BlockAddr;

    const STRATEGIES: [EstimationStrategy; 3] = [
        EstimationStrategy::Auto,
        EstimationStrategy::EnumerateNullSpace,
        EstimationStrategy::ScanHistogram,
    ];

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
        ConflictProfile::from_blocks(seq.iter().copied().map(BlockAddr), 12, 64)
    }

    /// The first `count` `(hyperplane, direction)` lanes over `hyperplanes`,
    /// directions ascending — enough to cross a block boundary, including
    /// directions inside the parent (whose candidate degenerates to the
    /// parent itself).
    fn lanes_over(hyperplanes: &[PackedBasis], count: usize) -> Vec<(usize, u64)> {
        hyperplanes
            .iter()
            .enumerate()
            .flat_map(|(h, hyperplane)| {
                (1..(1u64 << 12))
                    .filter(move |&v| !hyperplane.contains(v))
                    .map(move |v| (h, v))
            })
            .take(count)
            .collect()
    }

    #[test]
    fn kernel_is_send_sync_and_prices_like_the_estimator() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenKernel>();

        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        for strategy in STRATEGIES {
            let estimator = MissEstimator::new(&profile).with_strategy(strategy);
            for m in 2..=8 {
                let ns = HashFunction::conventional(12, m).unwrap().null_space();
                assert_eq!(
                    kernel.cost(&ns.to_packed()),
                    estimator.estimate_null_space(&ns),
                    "{strategy:?}, m={m}"
                );
            }
        }
    }

    #[test]
    fn one_kernel_prices_identically_from_many_threads() {
        let profile = mixed_profile();
        let kernel = std::sync::Arc::new(FrozenKernel::new(&profile));
        let candidates: Vec<PackedBasis> = (2..=8)
            .map(|m| PackedBasis::standard_span(12, m..12))
            .collect();
        let expected: Vec<u64> = candidates.iter().map(|b| kernel.cost(b)).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let kernel = std::sync::Arc::clone(&kernel);
                let candidates = &candidates;
                let expected = &expected;
                scope.spawn(move || {
                    let got: Vec<u64> = candidates.iter().map(|b| kernel.cost(b)).collect();
                    assert_eq!(&got, expected);
                });
            }
        });
    }

    #[test]
    fn neighbour_cost_matches_a_fresh_evaluation() {
        // Each neighbour priced alone, as a one-lane coset block, costs what
        // a fresh evaluation of its materialized extension costs — for a
        // direction inside the parent and one outside it.
        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        let parent = PackedBasis::standard_span(12, 6..12);
        let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
        for (h, hyperplane) in hyperplanes.iter().enumerate() {
            let inside = parent
                .vectors()
                .find(|&v| v != 0 && !hyperplane.contains(v))
                .expect("a hyperplane misses half the parent");
            for direction in [inside, 1] {
                let costs = kernel.cost_neighborhood_bounded(
                    &parent,
                    &hyperplanes,
                    &[(h, direction)],
                    u64::MAX,
                );
                assert_eq!(
                    costs,
                    [BoundedCost::Exact(
                        kernel.cost(&hyperplane.extended(direction))
                    )],
                    "lane ({h}, {direction:#x})"
                );
            }
        }
    }

    #[test]
    fn cost_neighborhood_sliced_matches_materialized_extensions() {
        // Every lane of a multi-block neighbourhood priced through the
        // coset-sliced route at bound `u64::MAX` costs what a fresh
        // evaluation of its materialized extension costs.
        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        let estimator = MissEstimator::new(&profile);
        let parent = PackedBasis::standard_span(12, 6..12);
        let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
        let lanes = lanes_over(&hyperplanes, 150);
        let costs = kernel.cost_neighborhood_bounded(&parent, &hyperplanes, &lanes, u64::MAX);
        assert_eq!(costs.len(), lanes.len());
        for (&(h, d), &cost) in lanes.iter().zip(&costs) {
            let fresh = estimator.estimate_packed(&hyperplanes[h].extended(d));
            assert_eq!(cost, BoundedCost::Exact(fresh), "lane ({h}, {d:#x})");
        }
        assert!(kernel
            .cost_neighborhood_bounded(&parent, &hyperplanes, &[], u64::MAX)
            .is_empty());
    }

    #[test]
    fn from_dense_and_new_agree() {
        let profile = mixed_profile();
        let a = FrozenKernel::new(&profile);
        let b = FrozenKernel::from_dense(DenseProfile::from_profile(&profile));
        assert_eq!(a.dense(), b.dense());
        assert_eq!(a.hashed_bits(), 12);
    }

    #[test]
    #[should_panic(expected = "width must match")]
    fn width_mismatch_panics() {
        let kernel = FrozenKernel::new(&mixed_profile());
        let _ = kernel.cost(&PackedBasis::standard_span(8, 0..4));
    }

    #[test]
    fn ensure_width_reports_width_mismatch_as_a_typed_error() {
        let kernel = FrozenKernel::new(&mixed_profile());
        assert!(kernel
            .ensure_width(&PackedBasis::standard_span(12, 6..12))
            .is_ok());
        assert!(matches!(
            kernel.ensure_width(&PackedBasis::standard_span(8, 0..4)),
            Err(crate::XorIndexError::ProfileMismatch {
                profile_bits: 12,
                candidate_bits: 8,
            })
        ));
    }

    #[test]
    fn batch_paths_are_bit_identical_under_every_strategy() {
        let profile = mixed_profile();
        let bases: Vec<PackedBasis> = (0..=10)
            .map(|m| PackedBasis::standard_span(12, m..12))
            .chain((2..=8).map(|m| {
                HashFunction::conventional(12, m)
                    .unwrap()
                    .null_space()
                    .to_packed()
            }))
            .collect();
        let refs: Vec<&PackedBasis> = bases.iter().collect();
        let kernel = FrozenKernel::new(&profile);
        for strategy in STRATEGIES {
            let estimator = MissEstimator::new(&profile).with_strategy(strategy);
            let oracle: Vec<u64> = refs.iter().map(|b| estimator.estimate_packed(b)).collect();
            assert_eq!(kernel.cost_batch(&refs), oracle, "{strategy:?} cost_batch");
            assert_eq!(
                kernel.cost_batch_sliced(&refs),
                oracle,
                "{strategy:?} cost_batch_sliced"
            );
        }
    }

    #[test]
    fn cost_block_reports_the_resolved_strategy() {
        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        // Wide blocks of large null spaces share one histogram scan; a pair
        // of one-dimensional null spaces is cheaper to enumerate; a single
        // candidate never slices.
        let wide: Vec<PackedBasis> = (0..12)
            .flat_map(|i| (i + 1..12).map(move |j| (i, j)))
            .take(SLICED_LANES)
            .map(|(i, j)| PackedBasis::standard_span(12, (0..12).filter(|&b| b != i && b != j)))
            .collect();
        let narrow: Vec<PackedBasis> = (0..2)
            .map(|b| PackedBasis::standard_span(12, [b]))
            .collect();
        for (bases, expect) in [
            (&wide[..], BatchStrategy::SlicedScan),
            (&narrow[..], BatchStrategy::PerCandidate),
            (&wide[..1], BatchStrategy::PerCandidate),
        ] {
            let refs: Vec<&PackedBasis> = bases.iter().collect();
            let dims: Vec<usize> = bases.iter().map(PackedBasis::dim).collect();
            assert_eq!(kernel.batch_strategy(&dims), expect);
            // Whichever path a block resolves to, the costs are the scalar
            // costs.
            let scalar: Vec<u64> = refs.iter().map(|b| kernel.cost(b)).collect();
            assert_eq!(kernel.cost_block(&refs), (scalar, expect));
        }
    }

    #[test]
    fn bounded_neighborhood_is_exact_below_the_bound_and_at_least_above() {
        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        let parent = PackedBasis::standard_span(12, 6..12);
        let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
        let lanes = lanes_over(&hyperplanes, 150);
        let exact: Vec<u64> = lanes
            .iter()
            .map(|&(h, d)| kernel.cost(&hyperplanes[h].extended(d)))
            .collect();
        let lo = *exact.iter().min().unwrap();
        let hi = *exact.iter().max().unwrap();
        for bound in [0, lo, lo + (hi - lo) / 2, hi + 1] {
            let bounded = kernel.cost_neighborhood_bounded(&parent, &hyperplanes, &lanes, bound);
            assert_eq!(bounded.len(), exact.len());
            for (lane, (&true_cost, &got)) in exact.iter().zip(&bounded).enumerate() {
                match got {
                    BoundedCost::Exact(cost) => {
                        assert_eq!(cost, true_cost, "bound={bound} lane={lane}")
                    }
                    BoundedCost::AtLeast(b) => {
                        assert_eq!(b, bound);
                        assert!(true_cost >= bound, "bound={bound} lane={lane}");
                    }
                }
            }
        }
        // Above every cost the bounded path is the exact path, lane for lane.
        let bounded = kernel.cost_neighborhood_bounded(&parent, &hyperplanes, &lanes, hi + 1);
        let unwrapped: Vec<u64> = bounded.iter().map(|c| c.exact().unwrap()).collect();
        assert_eq!(unwrapped, exact);
        assert!(kernel
            .cost_neighborhood_bounded(&parent, &hyperplanes, &[], 10)
            .is_empty());
    }

    #[test]
    fn bounded_scalar_cost_matches_under_every_strategy() {
        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        for strategy in STRATEGIES {
            let estimator = MissEstimator::new(&profile).with_strategy(strategy);
            for m in 2..=8 {
                let ns = PackedBasis::standard_span(12, m..12);
                let exact = estimator.estimate_packed(&ns);
                assert_eq!(
                    kernel.cost_bounded(&ns, exact + 1),
                    BoundedCost::Exact(exact),
                    "{strategy:?} m={m}"
                );
                assert_eq!(kernel.cost_bounded(&ns, exact + 1).lower_bound(), exact);
                if exact > 0 {
                    assert_eq!(
                        kernel.cost_bounded(&ns, exact),
                        BoundedCost::AtLeast(exact),
                        "{strategy:?} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn neighborhood_scaffold_prices_like_the_one_shot_path() {
        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        let parent = PackedBasis::standard_span(12, 6..12);
        let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
        let lanes: Vec<(usize, u64)> = hyperplanes
            .iter()
            .enumerate()
            .map(|(h, hyperplane)| {
                let d = (1..(1u64 << 12))
                    .find(|&v| !hyperplane.contains(v))
                    .unwrap();
                (h, d)
            })
            .collect();
        let (frame, histogram) = kernel.neighborhood_scaffold(&parent, &hyperplanes);
        let via_scaffold: Vec<BoundedCost> = lanes
            .chunks(SLICED_LANES)
            .flat_map(|chunk| {
                let block = frame.block(chunk).sum_weights(&histogram, u64::MAX);
                BoundedCost::from_block(block, u64::MAX)
            })
            .collect();
        assert_eq!(
            via_scaffold,
            kernel.cost_neighborhood_bounded(&parent, &hyperplanes, &lanes, u64::MAX)
        );
    }
}
