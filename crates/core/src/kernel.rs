//! The frozen, shareable pricing core of the evaluation engine.
//!
//! [`FrozenKernel`] is the immutable half of the
//! [`EvalEngine`](crate::EvalEngine): one application's
//! [`ConflictProfile`] — whose sorted `(vector, weight)` entries the
//! neighbourhood lanes, the snapshot and the wire read — plus the same
//! histogram in the profile's own coordinates, and the Eq. 4 arithmetic. It
//! holds no interior mutability at all, so it is `Send + Sync` by
//! construction and one `Arc<FrozenKernel>` can price candidates from any
//! number of threads simultaneously — the engine façade, the search
//! algorithms, and a multi-tenant serving layer all share the same kernel
//! per application instead of re-freezing the histogram per search.
//!
//! Pricing comes in two shapes. A single candidate
//! ([`FrozenKernel::cost_bounded`], and [`FrozenKernel::cost`] at bound
//! `u64::MAX`) is priced over `N(H) ∩ P`, where `P` is the span of the
//! profile's conflict vectors: its null-space rows are reduced to
//! coordinates over `P` and the kernel's `2^dim P` weight table is summed
//! over the intersection. A profile whose span has more than
//! [`FLAT_LOOKUP_MAX_BITS`](crate::FLAT_LOOKUP_MAX_BITS) dimensions keeps no
//! table and scans its entries instead. A neighbourhood — candidates
//! `hyperplane ⊕ span(direction)` over one shared parent — is priced lane by
//! lane under an incumbent bound from the histogram grouped by remainder
//! modulo the parent ([`FrozenKernel::neighborhood_scaffold`]): each
//! hyperplane's in-parent weight once, then one scan of the lane's
//! direction's remainder group. All compute the exact Eq. 4 sum,
//! bit-identically.
//!
//! The kernel never caches, so every method here is a pure function of the
//! frozen histogram. (The serving layer answers repeat pricing requests from
//! a [`ShardedMemo`](crate::ShardedMemo) in front of it.)

use gf2::{parity_weight, CosetHistogram, PackedBasis};

use crate::dense::{span_of, SpanTable};
use crate::search::NeighborLanes;
use crate::{BoundedCost, ConflictProfile, XorIndexError};

/// The immutable Eq. 4 pricing core: a frozen [`ConflictProfile`] plus its
/// histogram in the coordinates of the profile's span, shareable across
/// threads via `Arc`.
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
/// // The one recorded vector spans a line: a two-slot weight table.
/// assert_eq!(kernel.span().dim(), 1);
/// assert!(kernel.has_weight_table());
/// assert_eq!(kernel.misses_of(0x100), profile.misses_of(0x100));
/// ```
#[derive(Debug, Clone)]
pub struct FrozenKernel {
    profile: ConflictProfile,
    /// `P`: the canonical basis of the span of the recorded vectors.
    span: PackedBasis,
    /// The histogram keyed by coordinates over `P`; `None` when `P` has more
    /// than [`FLAT_LOOKUP_MAX_BITS`](crate::FLAT_LOOKUP_MAX_BITS) dimensions.
    table: Option<SpanTable>,
}

impl FrozenKernel {
    /// Freezes a copy of a profile's entries into a kernel.
    #[must_use]
    pub fn new(profile: &ConflictProfile) -> Self {
        Self::from_parts(profile.clone())
    }

    /// Freezes `profile` itself, without copying its entries — the
    /// counterpart of [`FrozenKernel::profile`], used by snapshot restore.
    /// Everything else the kernel holds is derived from the profile, so a
    /// kernel rebuilt from its own profile answers exactly as the original.
    #[must_use]
    pub fn from_parts(profile: ConflictProfile) -> Self {
        let span = span_of(profile.entries(), profile.hashed_bits());
        let table = SpanTable::new(&span, profile.entries());
        FrozenKernel {
            profile,
            span,
            table,
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

    /// The canonical basis of `P`, the span of the recorded conflict vectors:
    /// only a null space's intersection with it carries Eq. 4 weight.
    #[must_use]
    pub fn span(&self) -> &PackedBasis {
        &self.span
    }

    /// `true` when the kernel prices from a `2^dim P` weight table, i.e. when
    /// `P` has at most [`FLAT_LOOKUP_MAX_BITS`](crate::FLAT_LOOKUP_MAX_BITS)
    /// dimensions; otherwise it scans the sorted entries.
    #[must_use]
    pub fn has_weight_table(&self) -> bool {
        self.table.is_some()
    }

    /// The weight `misses(v)` of a conflict vector's raw bits (truncated to
    /// the hashed width), from the weight table where the kernel has one.
    #[must_use]
    pub fn misses_of(&self, v: u64) -> u64 {
        match &self.table {
            Some(table) => table.misses_of(v & (u64::MAX >> (64 - self.hashed_bits()))),
            None => self.profile.misses_of(v),
        }
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

    /// The exact Eq. 4 sum for one packed null space:
    /// [`FrozenKernel::cost_bounded`] at bound `u64::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if the basis's ambient width differs from the profile's hashed
    /// width.
    #[must_use]
    pub fn cost(&self, basis: &PackedBasis) -> u64 {
        self.cost_bounded(basis, u64::MAX).lower_bound()
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

    /// Groups the histogram by remainder modulo `parent` — the scaffolding
    /// every neighbourhood of `parent` is priced from, which the engine's
    /// [`ScaffoldCache`](crate::ScaffoldCache) keeps per parent.
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

    /// The Eq. 4 price of one null space under an incumbent bound: exact
    /// ([`BoundedCost::Exact`]) exactly when the cost is below `bound`,
    /// otherwise [`BoundedCost::AtLeast`]`(bound)` — so bound 0 answers
    /// `AtLeast(0)` for every candidate. The sum stops as soon as it reaches
    /// the bound; it only grows, so a cost below the bound is never cut
    /// short.
    ///
    /// The sum runs over the weight table across `N(H) ∩ P`, or over the
    /// sorted entries inside the null space when the kernel keeps no table.
    ///
    /// # Panics
    ///
    /// Panics if the basis's ambient width differs from the profile's hashed
    /// width.
    #[must_use]
    pub fn cost_bounded(&self, basis: &PackedBasis, bound: u64) -> BoundedCost {
        self.check_width(basis);
        let sum = match &self.table {
            Some(table) => table.null_space_weight(basis, bound),
            None => {
                let mut sum = 0;
                for (_, w) in self.entries().filter(|&(v, _)| basis.contains(v)) {
                    sum += w;
                    if sum >= bound {
                        break;
                    }
                }
                sum
            }
        };
        if sum < bound {
            BoundedCost::Exact(sum)
        } else {
            BoundedCost::AtLeast(bound)
        }
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

/// Prices lanes one after another from the histogram grouped over their
/// parent: a lane costs its hyperplane's in-parent entries with parity 0
/// plus the entries of its direction's remainder group whose parity matches
/// the direction's.
///
/// The in-parent weight is summed once per run of lanes sharing a
/// hyperplane, under the bound of the run's first lane. So the bound may
/// tighten from one lane to the next but must never loosen.
pub(crate) struct LanePricer<'a> {
    lanes: &'a NeighborLanes,
    in_parent: &'a [(u64, u64)],
    groups: &'a [&'a [(u64, u64)]],
    hyperplane: u32,
    base: u64,
}

impl<'a> LanePricer<'a> {
    /// A pricer over `lanes`, whose directions' groups are `groups`
    /// ([`lane_groups`]).
    pub(crate) fn new(
        histogram: &'a CosetHistogram,
        lanes: &'a NeighborLanes,
        groups: &'a [&'a [(u64, u64)]],
    ) -> Self {
        LanePricer {
            lanes,
            in_parent: histogram.group(0),
            groups,
            hyperplane: u32::MAX,
            base: 0,
        }
    }

    /// The cost of lane `(h, d)` when it is below `bound`; otherwise a sum
    /// of at least `bound`, where the scan stopped.
    pub(crate) fn price(&mut self, (h, d): (u32, u32), bound: u64) -> u64 {
        let functional = self.lanes.functionals[h as usize];
        if h != self.hyperplane {
            self.hyperplane = h;
            self.base = parity_weight(self.in_parent, functional, 0, 0, bound);
        }
        let parity = (functional & self.lanes.directions[d as usize].coordinates).count_ones() & 1;
        parity_weight(
            self.groups[d as usize],
            functional,
            parity,
            self.base,
            bound,
        )
    }
}

/// Prices `chunk`, a run of `lanes.lanes`, under one bound: each lane is
/// exact exactly when its cost is below `bound`.
pub(crate) fn price_lanes(
    histogram: &CosetHistogram,
    lanes: &NeighborLanes,
    groups: &[&[(u64, u64)]],
    chunk: &[(u32, u32)],
    bound: u64,
) -> Vec<BoundedCost> {
    let mut pricer = LanePricer::new(histogram, lanes, groups);
    chunk
        .iter()
        .map(|&lane| {
            let cost = pricer.price(lane, bound);
            if cost < bound {
                BoundedCost::Exact(cost)
            } else {
                BoundedCost::AtLeast(bound)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EstimationStrategy, HashFunction, MissEstimator};
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

    /// A 24-bit profile whose vectors span 21 dimensions, one more than a
    /// weight table may cover, so its kernel scans: the unit vectors
    /// `e_0 … e_20` plus a few of their sums.
    fn scanned_profile() -> ConflictProfile {
        let mut vectors: Vec<u64> = (0..21).map(|b| 1u64 << b).collect();
        vectors.extend([0b11, 0x18_0000, 0x1F_FFFF]);
        vectors.sort_unstable();
        let entries = vectors.iter().map(|&v| (v, v % 7 + 1)).collect();
        ConflictProfile::from_parts(24, 64, entries).expect("canonical entries")
    }

    /// The first `count` `(hyperplane, direction)` lanes over `hyperplanes`,
    /// directions ascending — including directions inside the parent (whose
    /// candidate degenerates to the parent itself).
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

    /// Prices `(hyperplane, direction)` lanes over `parent` the way the
    /// engine does: the histogram grouped once, then each lane from its
    /// hyperplane's in-parent weight and its direction's group.
    fn price_over(
        kernel: &FrozenKernel,
        parent: &PackedBasis,
        hyperplanes: &[PackedBasis],
        lanes: &[(usize, u64)],
        bound: u64,
    ) -> Vec<BoundedCost> {
        let lanes = NeighborLanes::over(parent.clone(), hyperplanes, lanes.iter().copied());
        let histogram = kernel.neighborhood_scaffold(parent);
        let groups = lane_groups(&histogram, &lanes);
        price_lanes(&histogram, &lanes, &groups, &lanes.lanes, bound)
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
                    kernel.cost(&ns),
                    estimator.estimate_packed(&ns),
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
                let costs = price_over(&kernel, &parent, &hyperplanes, &[(h, direction)], u64::MAX);
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
        let costs = price_over(&kernel, &parent, &hyperplanes, &lanes, u64::MAX);
        assert_eq!(costs.len(), lanes.len());
        for (&(h, d), &cost) in lanes.iter().zip(&costs) {
            let fresh = estimator.estimate_packed(&hyperplanes[h].extended(d));
            assert_eq!(cost, BoundedCost::Exact(fresh), "lane ({h}, {d:#x})");
        }
    }

    #[test]
    fn from_dense_and_new_agree() {
        // A kernel rebuilt from its profile holds what `new` froze.
        let profile = mixed_profile();
        let a = FrozenKernel::new(&profile);
        let b = FrozenKernel::from_parts(profile.clone());
        assert_eq!(a.profile(), &profile);
        assert_eq!(a.profile(), b.profile());
        assert_eq!(a.span(), b.span());
        assert_eq!(a.table, b.table);
        assert_eq!(a.hashed_bits(), 12);
    }

    #[test]
    fn the_span_is_the_span_of_the_recorded_vectors() {
        for profile in [mixed_profile(), scanned_profile()] {
            let kernel = FrozenKernel::new(&profile);
            let mut span = PackedBasis::trivial(profile.hashed_bits());
            for &(v, _) in profile.entries() {
                span.insert(v);
            }
            assert_eq!(kernel.span(), &span);
            assert_eq!(
                kernel.has_weight_table(),
                span.dim() <= crate::FLAT_LOOKUP_MAX_BITS
            );
        }
        assert!(FrozenKernel::new(&mixed_profile()).has_weight_table());
        assert_eq!(FrozenKernel::new(&scanned_profile()).span().dim(), 21);
        assert!(!FrozenKernel::new(&scanned_profile()).has_weight_table());
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
        // A batch through the engine, single prices and bounded prices at
        // `u64::MAX` all reproduce the oracle, on either side of Eq. 4.
        let profile = mixed_profile();
        let bases: Vec<PackedBasis> = (0..=10)
            .map(|m| PackedBasis::standard_span(12, m..12))
            .chain((2..=8).map(|m| HashFunction::conventional(12, m).unwrap().null_space()))
            .collect();
        let kernel = FrozenKernel::new(&profile);
        let batch = crate::EvalEngine::new(&profile).estimate_batch(&bases);
        for strategy in STRATEGIES {
            let estimator = MissEstimator::new(&profile).with_strategy(strategy);
            let oracle: Vec<u64> = bases.iter().map(|b| estimator.estimate_packed(b)).collect();
            assert_eq!(batch, oracle, "{strategy:?} estimate_batch");
            let single: Vec<u64> = bases.iter().map(|b| kernel.cost(b)).collect();
            assert_eq!(single, oracle, "{strategy:?} cost");
            let bounded: Vec<u64> = bases
                .iter()
                .map(|b| kernel.cost_bounded(b, u64::MAX).lower_bound())
                .collect();
            assert_eq!(bounded, oracle, "{strategy:?} cost_bounded");
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
            let bounded = price_over(&kernel, &parent, &hyperplanes, &lanes, bound);
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
        let bounded = price_over(&kernel, &parent, &hyperplanes, &lanes, hi + 1);
        let unwrapped: Vec<u64> = bounded.iter().map(|c| c.exact().unwrap()).collect();
        assert_eq!(unwrapped, exact);
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
    fn bounded_cost_is_exact_iff_below_the_bound_on_both_routes() {
        // The rule holds whichever route prices: `Exact` exactly when the
        // cost is below the bound — so bound 0 abandons even a zero-cost
        // candidate, however large its null space.
        for profile in [mixed_profile(), scanned_profile()] {
            let kernel = FrozenKernel::new(&profile);
            let n = profile.hashed_bits();
            let estimator = MissEstimator::new(&profile);
            let mut zero_cost = 0;
            for basis in [
                PackedBasis::standard_span(n, [2usize, 3]),
                PackedBasis::standard_span(n, [n - 3, n - 2, n - 1]),
                PackedBasis::standard_span(n, [2usize, 3, 4, 8, 9, 10, 11]),
                PackedBasis::standard_span(n, 1..n),
                PackedBasis::standard_span(n, (0..n).filter(|&b| b != 5 && b != 6)),
                PackedBasis::standard_span(n, [0usize, 1]).extended(0x0F00),
            ] {
                let cost = estimator.estimate_packed(&basis);
                zero_cost += usize::from(cost == 0);
                for bound in [0, cost / 2, cost, cost + 1, u64::MAX] {
                    let expected = if cost < bound {
                        BoundedCost::Exact(cost)
                    } else {
                        BoundedCost::AtLeast(bound)
                    };
                    assert_eq!(
                        kernel.cost_bounded(&basis, bound),
                        expected,
                        "{n} bits, {basis:?}, bound {bound}"
                    );
                }
            }
            assert!(zero_cost >= 1, "{n} bits: no zero-cost candidate");
        }
    }

    #[test]
    fn neighborhood_scaffold_prices_like_the_one_shot_path() {
        // The grouped histogram the engine caches, read lane by lane with
        // each hyperplane's in-parent weight hoisted, prices what the
        // histogram's own single-lane sum does.
        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        let parent = PackedBasis::standard_span(12, 6..12);
        let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
        let lanes = lanes_over(&hyperplanes, 150);
        let histogram = kernel.neighborhood_scaffold(&parent);
        let bound = kernel.cost(&parent);
        let via_scaffold = price_over(&kernel, &parent, &hyperplanes, &lanes, bound);
        for (&(h, d), cost) in lanes.iter().zip(&via_scaffold) {
            let f = parent.hyperplane_functional(&hyperplanes[h]);
            let one_lane = histogram.lane_weight(f, d, bound);
            assert_eq!(cost.exact(), (one_lane < bound).then_some(one_lane));
        }
    }
}
