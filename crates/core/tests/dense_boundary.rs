//! Regression tests at the `FLAT_LOOKUP_MAX_BITS` boundary.
//!
//! A kernel whose profile's vectors span at most 20 dimensions prices from a
//! `2^d`-slot weight table in the span's coordinates; one dimension more, it
//! scans the sorted entries instead. The invariant pinned here: both sides
//! answer bit-identically to the `MissEstimator` oracle, pointwise and
//! through every pricing path, bounded or not, at d = 20 and d = 21 alike.

use std::sync::OnceLock;

use cache_sim::BlockAddr;
use gf2::PackedBasis;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xorindex::{
    BoundedCost, ConflictProfile, EstimationStrategy, FrozenKernel, MissEstimator,
    FLAT_LOOKUP_MAX_BITS,
};

/// Hashed width of the boundary profiles: wider than either span.
const WIDTH: usize = 24;

/// A trace whose conflict vectors span exactly `dim` dimensions: a cyclic
/// sweep over block 0, the unit blocks `e_b` for the low `dim − 1` bits and
/// the top bit, and two blocks mixing them. The footprint fits the 64-block
/// capacity, so every post-warmup access records the XORs with all
/// intermediate blocks.
fn boundary_profile(dim: usize) -> ConflictProfile {
    let top = 1u64 << (WIDTH - 1);
    let footprint: Vec<u64> = [0, top | 0b11, 0x5A5]
        .into_iter()
        .chain((0..dim - 1).map(|b| 1u64 << b))
        .chain([top])
        .collect();
    let trace = (0..6 * footprint.len())
        .map(|i| BlockAddr(footprint[i % footprint.len()]))
        .collect::<Vec<_>>();
    ConflictProfile::from_blocks(trace.iter().copied(), WIDTH, 64)
}

/// The kernels on each side of the cap, frozen once per test binary.
fn kernels() -> &'static [(ConflictProfile, FrozenKernel); 2] {
    static KERNELS: OnceLock<[(ConflictProfile, FrozenKernel); 2]> = OnceLock::new();
    KERNELS.get_or_init(|| {
        [FLAT_LOOKUP_MAX_BITS, FLAT_LOOKUP_MAX_BITS + 1].map(|dim| {
            let profile = boundary_profile(dim);
            let kernel = FrozenKernel::new(&profile);
            (profile, kernel)
        })
    })
}

/// Candidate null-space bases straddling the span: fully inside its low
/// bits, crossing into the top bit, and mixed-row spans — plus one null space
/// too large to enumerate, whose intersection with the span has twelve
/// dimensions.
fn candidate_bases() -> Vec<PackedBasis> {
    let top = WIDTH - 1;
    vec![
        PackedBasis::standard_span(WIDTH, 0..12),
        PackedBasis::standard_span(WIDTH, []),
        PackedBasis::standard_span(WIDTH, [0usize, 1, 2, 3, 4]),
        PackedBasis::standard_span(WIDTH, [top, 0, 3]),
        PackedBasis::standard_span(WIDTH, [top - 1, top]),
        PackedBasis::standard_span(WIDTH, [1usize, 2]).extended((1 << top) | 0b11),
        PackedBasis::standard_span(WIDTH, [0usize, 2, 4]).extended(0b10_1010),
        PackedBasis::standard_span(WIDTH, [20usize, 21, 22]),
    ]
}

/// The price `cost_bounded` must give a candidate of true cost `cost`.
fn bounded(cost: u64, bound: u64) -> BoundedCost {
    if cost < bound {
        BoundedCost::Exact(cost)
    } else {
        BoundedCost::AtLeast(bound)
    }
}

#[test]
fn representations_take_the_expected_shape_on_each_side_of_the_boundary() {
    let [(_, table), (_, scan)] = kernels();
    // At the cap the kernel keeps a table over its span…
    assert_eq!(table.span().dim(), FLAT_LOOKUP_MAX_BITS);
    assert!(table.has_weight_table());
    // …one dimension wider it scans its entries.
    assert_eq!(scan.span().dim(), FLAT_LOOKUP_MAX_BITS + 1);
    assert!(!scan.has_weight_table());
    for (profile, kernel) in kernels() {
        assert_eq!(kernel.hashed_bits(), WIDTH);
        assert!(profile.distinct_vectors() > 200, "trace too tame to test");
        // The span is exactly the span of the recorded vectors.
        for &(v, _) in profile.entries() {
            assert!(kernel.span().contains(v), "{v:#x}");
        }
    }
}

#[test]
fn pointwise_lookups_are_bit_identical_across_representations() {
    for (profile, kernel) in kernels() {
        let entries = profile.entries();
        // Every recorded vector, its neighbours, and a spread of absent
        // probes in and out of the span.
        let mut probes: Vec<u64> = entries.iter().map(|&(v, _)| v).collect();
        probes.extend(entries.iter().map(|&(v, _)| v ^ 1));
        probes.extend(entries.iter().map(|&(v, _)| v ^ (1 << 21)));
        probes.extend((0..64u64).map(|k| k * 31 % (1 << WIDTH)));
        probes.push((1 << WIDTH) - 1);
        for v in probes {
            assert_eq!(
                kernel.misses_of(v),
                profile.misses_of(v),
                "d = {}, v={v:#x}",
                kernel.span().dim()
            );
        }
        assert_eq!(kernel.profile().entries(), entries);
    }
}

#[test]
fn kernel_costs_are_bit_identical_across_representations_and_strategies() {
    let bases = candidate_bases();
    for (profile, kernel) in kernels() {
        let d = kernel.span().dim();
        // Independent reference: a direct scan of the sorted entries.
        let expected: Vec<u64> = bases
            .iter()
            .map(|basis| {
                profile
                    .entries()
                    .iter()
                    .filter(|&&(v, _)| basis.contains(v))
                    .map(|&(_, w)| w)
                    .sum()
            })
            .collect();
        assert!(
            expected.iter().any(|&c| c > 0),
            "no basis caught any weight"
        );
        assert!(expected.contains(&0), "no zero-cost basis");

        // The oracle enumerates the small null spaces and scans the
        // histogram for the large one.
        let sides: Vec<EstimationStrategy> = bases
            .iter()
            .map(|b| MissEstimator::new(profile).resolved_strategy(b))
            .collect();
        assert!(sides.contains(&EstimationStrategy::EnumerateNullSpace));
        assert!(sides.contains(&EstimationStrategy::ScanHistogram));
        for strategy in [
            EstimationStrategy::Auto,
            EstimationStrategy::EnumerateNullSpace,
            EstimationStrategy::ScanHistogram,
        ] {
            let estimator = MissEstimator::new(profile).with_strategy(strategy);
            let oracle: Vec<u64> = bases.iter().map(|b| estimator.estimate_packed(b)).collect();
            assert_eq!(oracle, expected, "{strategy:?} at d = {d}");
        }

        let costs: Vec<u64> = bases.iter().map(|b| kernel.cost(b)).collect();
        assert_eq!(costs, expected, "cost diverged at d = {d}");
        for (basis, &cost) in bases.iter().zip(&expected) {
            for bound in [0, cost / 2, cost, cost + 1, u64::MAX] {
                assert_eq!(
                    kernel.cost_bounded(basis, bound),
                    bounded(cost, bound),
                    "cost_bounded diverged at d = {d}, bound {bound}"
                );
            }
        }
    }
}

/// Prices a random `dim`-dimensional null space on each side of the cap,
/// single and bounded (at 0, the cost, one above it and `u64::MAX`),
/// against the oracle on every side of Eq. 4. Kept outside the `proptest!`
/// macro (its expansion depth scales with statement count).
fn check_random_null_space(seed: u64, dim: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let basis = gf2::random::random_subspace(&mut rng, WIDTH, dim);
    for (profile, kernel) in kernels() {
        let d = kernel.span().dim();
        let cost = kernel.cost(&basis);
        for strategy in [
            EstimationStrategy::Auto,
            EstimationStrategy::EnumerateNullSpace,
            EstimationStrategy::ScanHistogram,
        ] {
            let oracle = MissEstimator::new(profile)
                .with_strategy(strategy)
                .estimate_packed(&basis);
            if cost != oracle {
                return Err(format!("d = {d}, {strategy:?}: {cost} != {oracle}"));
            }
        }
        for bound in [0, cost, cost + 1, u64::MAX] {
            let got = kernel.cost_bounded(&basis, bound);
            if got != bounded(cost, bound) {
                return Err(format!("d = {d}, bound {bound}: {got:?} for cost {cost}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Random null spaces of every small dimension price like the oracle on
    // each side of the cap.
    #[test]
    fn random_null_spaces_price_like_the_oracle_on_each_side_of_the_cap(
        seed in any::<u64>(),
        dim in 0usize..=12,
    ) {
        prop_assert_eq!(check_random_null_space(seed, dim), Ok(()));
    }
}
