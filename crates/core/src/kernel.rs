//! The frozen, shareable pricing core of the evaluation engine.
//!
//! [`FrozenKernel`] is the immutable half of what used to be `EvalEngine`:
//! one application's [`ConflictProfile`] — whose sorted `(vector, weight)`
//! entries every pricing path reads — plus a dense point-lookup tail over
//! them, and the Eq. 4 arithmetic (full null-space walks, histogram scans,
//! and the per-lane neighbourhood sums) with the strategy-resolution rule.
//! It holds no interior mutability at all, so it is `Send + Sync` by
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
//! `hyperplane ⊕ span(direction)` over one shared parent lane by lane under
//! an incumbent bound, from the histogram grouped by remainder modulo the
//! parent ([`CosetHistogram`]): each hyperplane's in-parent weight once, then
//! one scan of the lane's direction's remainder group. All compute the exact
//! Eq. 4 sum, bit-identically.
//!
//! The kernel never caches, so every method here is a pure function of the
//! frozen histogram. (The serving layer answers repeat pricing requests from
//! a [`ShardedMemo`](crate::ShardedMemo) in front of it.)

use gf2::{parity_weight, CosetHistogram, PackedBasis, SlicedBlock, SLICED_LANES};

use crate::dense::LookupTail;
use crate::estimate::{resolve_batch_strategy, resolve_strategy};
use crate::search::NeighborLanes;
use crate::{
    BatchStrategy, BoundedCost, ConflictProfile, EstimationStrategy, XorIndexError,
    FLAT_LOOKUP_MAX_BITS,
};

/// The immutable Eq. 4 pricing core: a frozen [`ConflictProfile`] plus its
/// point-lookup tail, shareable across threads via `Arc`.
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
/// // A 16-bit profile gets a lookup table over its whole space.
/// assert!(kernel.has_flat_lookup());
/// assert_eq!(kernel.misses_of(0x100), profile.misses_of(0x100));
/// ```
#[derive(Debug, Clone)]
pub struct FrozenKernel {
    profile: ConflictProfile,
    tail: LookupTail,
    /// Mean set-bit count over the distinct recorded vectors, rounded up (0
    /// for an empty profile) — the batch cost model's estimate of per-entry
    /// sliced work. Conflict vectors are XORs of nearby addresses and are
    /// typically much sparser than random `hashed_bits`-wide words.
    mean_popcount: usize,
}

impl FrozenKernel {
    /// Freezes a copy of a profile's entries into a kernel with the default
    /// lookup tail: the whole space for `hashed_bits ≤`
    /// [`FLAT_LOOKUP_MAX_BITS`], the hot low-index region of wider profiles
    /// when it is occupied densely enough to pay for itself.
    #[must_use]
    pub fn new(profile: &ConflictProfile) -> Self {
        let tail_bits = LookupTail::default_bits(profile.entries(), profile.hashed_bits());
        Self::assemble(profile.clone(), tail_bits)
    }

    /// Builds a kernel over `profile` with a `tail_bits`-wide lookup tail
    /// (0 = none, the pure sorted layout) — the counterpart of
    /// [`FrozenKernel::profile`] and [`FrozenKernel::tail_bits`], used by
    /// snapshot restore. A kernel rebuilt from its own parts answers and
    /// lays out its tail exactly as the original did. Whatever the tail,
    /// prices are bit-identical; only lookup latency and memory change.
    ///
    /// # Errors
    ///
    /// [`XorIndexError::MalformedProfile`] when `tail_bits` exceeds the
    /// profile's hashed width or [`FLAT_LOOKUP_MAX_BITS`].
    pub fn from_parts(profile: ConflictProfile, tail_bits: usize) -> Result<Self, XorIndexError> {
        let hashed_bits = profile.hashed_bits();
        if tail_bits > hashed_bits || tail_bits > FLAT_LOOKUP_MAX_BITS {
            return Err(XorIndexError::MalformedProfile {
                reason: format!(
                    "tail of {tail_bits} bits cannot cover a {hashed_bits}-bit profile \
                     (cap {FLAT_LOOKUP_MAX_BITS})"
                ),
            });
        }
        Ok(Self::assemble(profile, tail_bits))
    }

    fn assemble(profile: ConflictProfile, tail_bits: usize) -> Self {
        let entries = profile.entries();
        let popcount_sum: usize = entries.iter().map(|&(v, _)| v.count_ones() as usize).sum();
        let mean_popcount = popcount_sum.div_ceil(entries.len().max(1));
        let tail = LookupTail::new(entries, tail_bits);
        FrozenKernel {
            profile,
            tail,
            mean_popcount,
        }
    }

    /// The frozen conflict histogram.
    #[must_use]
    pub fn profile(&self) -> &ConflictProfile {
        &self.profile
    }

    /// Number of hashed address bits the kernel prices against.
    #[must_use]
    pub fn hashed_bits(&self) -> usize {
        self.profile.hashed_bits()
    }

    /// Width of the lookup tail in bits (0 when none is materialized; a
    /// materialized tail always covers at least one bit).
    #[must_use]
    pub fn tail_bits(&self) -> usize {
        self.tail.bits()
    }

    /// `true` when the lookup tail covers the *entire* space, so every point
    /// lookup is a single indexed load.
    #[must_use]
    pub fn has_flat_lookup(&self) -> bool {
        self.tail.bits() == self.hashed_bits()
    }

    /// `true` when any lookup tail is materialized (whole-space or hybrid).
    #[must_use]
    pub fn has_dense_tail(&self) -> bool {
        self.tail.bits() > 0
    }

    /// Number of entries the lookup tail answers (the rest go through binary
    /// search over the sorted slice above it).
    #[must_use]
    pub fn tail_covered(&self) -> usize {
        self.tail.covered()
    }

    /// The weight `misses(v)` of a conflict vector's raw bits, through the
    /// lookup tail where it covers `v` and binary search above it.
    #[must_use]
    pub fn misses_of(&self, v: u64) -> u64 {
        debug_assert!(self.hashed_bits() == 64 || v < (1u64 << self.hashed_bits()));
        self.tail.lookup(self.profile.entries(), v)
    }

    /// The histogram's `(vector, weight)` pairs, ascending by vector.
    fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.profile.entries().iter().copied()
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
            self.hashed_bits(),
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
            basis.vectors().map(|v| self.misses_of(v)).sum()
        } else {
            let members = self.entries().filter(|&(v, _)| basis.contains(v));
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
        if basis.width() == self.hashed_bits() {
            Ok(())
        } else {
            Err(XorIndexError::ProfileMismatch {
                profile_bits: self.hashed_bits(),
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
        SlicedBlock::from_bases(chunk.iter().copied()).sum_weights(self.entries())
    }

    /// Resolves how a batch of candidates with the given null-space
    /// dimensions should be priced — the [`BatchStrategy`] the sliced paths
    /// and [`FrozenKernel::cost_block`] act on, exposed so orchestrating
    /// callers (the engine) can pick their work partitioning to match.
    #[must_use]
    pub fn batch_strategy(&self, dims: &[usize]) -> BatchStrategy {
        resolve_batch_strategy(
            self.hashed_bits(),
            self.mean_popcount,
            dims,
            self.profile.distinct_vectors(),
        )
    }

    /// Groups the histogram by remainder modulo `parent` — the scaffolding
    /// every neighbourhood of `parent` is priced from.
    /// [`FrozenKernel::cost_neighborhood_bounded`] builds it per call; the
    /// engine's [`ScaffoldCache`](crate::ScaffoldCache) keeps it per parent.
    ///
    /// # Panics
    ///
    /// Panics if the parent's ambient width differs from the profile's hashed
    /// width.
    #[must_use]
    pub fn neighborhood_scaffold(&self, parent: &PackedBasis) -> CosetHistogram {
        self.check_width(parent);
        CosetHistogram::new(parent, self.entries())
    }

    /// Prices a whole neighbourhood of candidates `hyperplanes[h] ⊕
    /// span(direction)` over one shared `parent`, lane by lane under an
    /// incumbent bound: the histogram is grouped by remainder modulo the
    /// parent once, each hyperplane's in-parent weight is summed once, and
    /// each lane adds one scan of its direction's remainder group.
    ///
    /// A lane whose running sum reaches `bound` is abandoned
    /// ([`BoundedCost::AtLeast`]); a lane whose true cost is below the bound
    /// is priced exactly, bit-identical to [`FrozenKernel::cost`] on its
    /// materialized extension. `bound = u64::MAX` prices every lane exactly.
    /// Results align with `lanes`.
    ///
    /// # Panics
    ///
    /// Panics if the parent's ambient width differs from the profile's hashed
    /// width, if a hyperplane is not a hyperplane of the parent, or if a
    /// lane's direction has bits outside the width or lies inside its
    /// hyperplane.
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
        let lanes = NeighborLanes::over(parent.clone(), hyperplanes, lanes.iter().copied());
        let histogram = self.neighborhood_scaffold(parent);
        let groups = lane_groups(&histogram, &lanes);
        price_lanes(&histogram, &lanes, &groups, &lanes.lanes, bound)
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
            basis.vectors().any(|v| saturates(self.misses_of(v)))
        } else {
            let mut members = self.entries().filter(|&(v, _)| basis.contains(v));
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
        let distinct = self.profile.distinct_vectors();
        resolve_strategy(EstimationStrategy::Auto, basis.dim(), distinct)
            == EstimationStrategy::EnumerateNullSpace
    }
}

/// The remainder group of each of the lanes' directions, in direction order.
pub(crate) fn lane_groups<'h>(
    histogram: &'h CosetHistogram,
    lanes: &NeighborLanes,
) -> Vec<&'h [(u64, u64)]> {
    debug_assert_eq!(
        histogram.parent(),
        &lanes.parent,
        "grouped over another parent"
    );
    lanes
        .directions
        .iter()
        .map(|direction| histogram.group(direction.remainder))
        .collect()
}

/// Prices `chunk`, a run of `lanes.lanes`, from the histogram grouped over
/// the lanes' parent: a lane costs its hyperplane's in-parent entries with
/// parity 0 (summed once per run of lanes sharing the hyperplane) plus the
/// entries of its direction's remainder group whose parity matches the
/// direction's, and is exact exactly when that cost is below `bound`.
pub(crate) fn price_lanes(
    histogram: &CosetHistogram,
    lanes: &NeighborLanes,
    groups: &[&[(u64, u64)]],
    chunk: &[(u32, u32)],
    bound: u64,
) -> Vec<BoundedCost> {
    let in_parent = histogram.group(0);
    let mut out = Vec::with_capacity(chunk.len());
    let mut hyperplane = u32::MAX;
    let mut base = 0;
    for &(h, d) in chunk {
        let functional = lanes.functionals[h as usize];
        if h != hyperplane {
            hyperplane = h;
            base = parity_weight(in_parent, functional, 0, 0, bound);
        }
        let parity = (functional & lanes.directions[d as usize].coordinates).count_ones() & 1;
        let cost = parity_weight(groups[d as usize], functional, parity, base, bound);
        out.push(if cost < bound {
            BoundedCost::Exact(cost)
        } else {
            BoundedCost::AtLeast(bound)
        });
    }
    out
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
        // Each neighbour priced alone, as a one-lane neighbourhood, costs
        // what a fresh evaluation of its materialized extension costs — for a
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
        // Every lane of a many-hyperplane neighbourhood priced through the
        // per-lane route at bound `u64::MAX` costs what a fresh evaluation of
        // its materialized extension costs.
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
        // A kernel rebuilt from its parts holds what `new` froze.
        let profile = mixed_profile();
        let a = FrozenKernel::new(&profile);
        let b = FrozenKernel::from_parts(profile.clone(), a.tail_bits()).unwrap();
        assert_eq!(a.profile(), &profile);
        assert_eq!(a.profile(), b.profile());
        assert_eq!(a.tail, b.tail);
        assert_eq!(a.mean_popcount, b.mean_popcount);
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
        // The grouped histogram the engine caches, read lane by lane with
        // each hyperplane's in-parent weight hoisted, prices what the one-shot
        // kernel call and the histogram's own single-lane sum do.
        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        let parent = PackedBasis::standard_span(12, 6..12);
        let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
        let lanes = lanes_over(&hyperplanes, 150);
        let histogram = kernel.neighborhood_scaffold(&parent);
        let bound = kernel.cost(&parent);
        let lane_set = NeighborLanes::over(parent.clone(), &hyperplanes, lanes.iter().copied());
        let groups = lane_groups(&histogram, &lane_set);
        let via_scaffold = price_lanes(&histogram, &lane_set, &groups, &lane_set.lanes, bound);
        assert_eq!(
            via_scaffold,
            kernel.cost_neighborhood_bounded(&parent, &hyperplanes, &lanes, bound)
        );
        for (&(h, d), cost) in lanes.iter().zip(&via_scaffold) {
            let f = parent.hyperplane_functional(&hyperplanes[h]);
            let one_lane = histogram.lane_weight(f, d, bound);
            assert_eq!(cost.exact(), (one_lane < bound).then_some(one_lane));
        }
    }
}
