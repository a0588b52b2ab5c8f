//! Regression tests at the `FLAT_LOOKUP_MAX_BITS` boundary.
//!
//! PR 5 made the 20-bit limit a cliff: one bit wider and every lookup fell
//! back to binary search. The hybrid layout keeps a dense tail over the hot
//! low-index region on the wide side, and — the invariant pinned here — all
//! three representations (whole-space tail, hybrid tail, pure sorted) answer
//! bit-identically to the `MissEstimator` oracle, pointwise and through the
//! frozen kernel, at 20 and 21 bits alike.

use cache_sim::BlockAddr;
use gf2::PackedBasis;
use xorindex::{
    ConflictProfile, DenseProfile, EstimationStrategy, FrozenKernel, MissEstimator,
    FLAT_LOOKUP_MAX_BITS,
};

/// A trace whose conflict vectors populate both the low-index region (small
/// strides) and the top bit of the hashed space: a cyclic sweep over 32 low
/// blocks plus 16 blocks with the top bit set. The 48-block footprint fits
/// the 64-block capacity, so every post-warmup access records the XORs with
/// all intermediate blocks.
fn boundary_profile(hashed_bits: usize) -> ConflictProfile {
    let high = 1u64 << (hashed_bits - 1);
    let footprint: Vec<u64> = (0..32u64)
        .chain((0..16u64).map(|k| high | (k * 3)))
        .collect();
    let trace = (0..6 * footprint.len())
        .map(|i| BlockAddr(footprint[i % footprint.len()]))
        .collect::<Vec<_>>();
    ConflictProfile::from_blocks(trace.iter().copied(), hashed_bits, 64)
}

/// Candidate null-space bases straddling the tail boundary: fully inside the
/// low region, crossing into the top bit, and mixed-row spans — plus one
/// null space too large to enumerate, so the kernel scans for it.
fn candidate_bases(hashed_bits: usize) -> Vec<PackedBasis> {
    let top = hashed_bits - 1;
    vec![
        PackedBasis::standard_span(hashed_bits, 0..12),
        PackedBasis::standard_span(hashed_bits, []),
        PackedBasis::standard_span(hashed_bits, [0usize, 1, 2, 3, 4]),
        PackedBasis::standard_span(hashed_bits, [top, 0, 3]),
        PackedBasis::standard_span(hashed_bits, [top - 1, top]),
        PackedBasis::standard_span(hashed_bits, [1usize, 2]).extended((1 << top) | 0b11),
        PackedBasis::standard_span(hashed_bits, [0usize, 2, 4]).extended(0b10_1010),
    ]
}

fn representations(profile: &ConflictProfile) -> [(&'static str, DenseProfile); 3] {
    [
        (
            "flat",
            DenseProfile::with_tail_cap(profile, profile.hashed_bits()),
        ),
        ("hybrid", DenseProfile::from_profile(profile)),
        ("sorted", DenseProfile::with_tail_cap(profile, 0)),
    ]
}

#[test]
fn representations_take_the_expected_shape_on_each_side_of_the_boundary() {
    let narrow = boundary_profile(FLAT_LOOKUP_MAX_BITS);
    let [(_, flat), (_, hybrid), (_, sorted)] = representations(&narrow);
    assert!(flat.has_flat_lookup());
    // At the limit the default cap still covers the whole space.
    assert!(hybrid.has_flat_lookup());
    assert_eq!(hybrid.tail_bits(), FLAT_LOOKUP_MAX_BITS);
    assert!(!sorted.has_dense_tail());

    let wide = boundary_profile(FLAT_LOOKUP_MAX_BITS + 1);
    let [(_, flat), (_, hybrid), (_, sorted)] = representations(&wide);
    assert!(flat.has_flat_lookup());
    // One bit past the limit: no whole-space tail, but the hot low-index
    // region is dense enough that a hybrid tail materializes.
    assert!(!hybrid.has_flat_lookup());
    assert!(hybrid.has_dense_tail());
    assert!(hybrid.tail_bits() < FLAT_LOOKUP_MAX_BITS);
    assert!(hybrid.tail_covered() > 0);
    assert!(!sorted.has_dense_tail());
}

#[test]
fn pointwise_lookups_are_bit_identical_across_representations() {
    for hashed_bits in [FLAT_LOOKUP_MAX_BITS, FLAT_LOOKUP_MAX_BITS + 1] {
        let profile = boundary_profile(hashed_bits);
        let reps = representations(&profile);
        let (_, reference) = &reps[2];
        assert!(reference.distinct_vectors() > 32, "trace too tame to test");

        // Every recorded vector, its neighbours, and a spread of absent
        // probes on both sides of any tail boundary.
        let mut probes: Vec<u64> = reference.iter().map(|(v, _)| v).collect();
        probes.extend(reference.iter().map(|(v, _)| v ^ 1));
        probes.extend((0..64u64).map(|k| k * 31 % (1 << hashed_bits)));
        probes.push((1 << hashed_bits) - 1);
        for v in probes {
            let expect = profile.misses_of(v);
            for (name, rep) in &reps {
                assert_eq!(
                    rep.misses_of(v),
                    expect,
                    "{name} at {hashed_bits} bits, v={v:#x}"
                );
            }
        }
        for (name, rep) in &reps {
            assert_eq!(rep.total_weight(), profile.total_weight(), "{name}");
            assert_eq!(rep.distinct_vectors(), profile.distinct_vectors(), "{name}");
        }
    }
}

#[test]
fn kernel_costs_are_bit_identical_across_representations_and_strategies() {
    for hashed_bits in [FLAT_LOOKUP_MAX_BITS, FLAT_LOOKUP_MAX_BITS + 1] {
        let profile = boundary_profile(hashed_bits);
        let bases = candidate_bases(hashed_bits);
        let refs: Vec<&PackedBasis> = bases.iter().collect();

        // Independent reference: a direct scan of the sorted entries.
        let sorted = DenseProfile::with_tail_cap(&profile, 0);
        let expected: Vec<u64> = bases
            .iter()
            .map(|basis| {
                sorted
                    .iter()
                    .filter(|&(v, _)| basis.contains(v))
                    .map(|(_, w)| w)
                    .sum()
            })
            .collect();
        assert!(
            expected.iter().any(|&c| c > 0),
            "no basis caught any weight"
        );

        // The kernel enumerates the small null spaces and scans the
        // histogram for the large one.
        let sides: Vec<EstimationStrategy> = bases
            .iter()
            .map(|b| MissEstimator::new(&profile).resolved_strategy(&b.to_subspace()))
            .collect();
        assert!(sides.contains(&EstimationStrategy::EnumerateNullSpace));
        assert!(sides.contains(&EstimationStrategy::ScanHistogram));
        for strategy in [
            EstimationStrategy::Auto,
            EstimationStrategy::EnumerateNullSpace,
            EstimationStrategy::ScanHistogram,
        ] {
            let estimator = MissEstimator::new(&profile).with_strategy(strategy);
            let oracle: Vec<u64> = bases.iter().map(|b| estimator.estimate_packed(b)).collect();
            assert_eq!(oracle, expected, "{strategy:?} at {hashed_bits} bits");
        }

        for (name, rep) in representations(&profile) {
            let kernel = FrozenKernel::from_dense(rep);
            let scalar: Vec<u64> = bases.iter().map(|b| kernel.cost(b)).collect();
            assert_eq!(
                scalar, expected,
                "scalar path diverged: {name} at {hashed_bits} bits"
            );
            assert_eq!(
                kernel.cost_batch(&refs),
                expected,
                "batch path diverged: {name} at {hashed_bits} bits"
            );
            assert_eq!(
                kernel.cost_batch_sliced(&refs),
                expected,
                "sliced path diverged: {name} at {hashed_bits} bits"
            );
        }
    }
}
