//! Regression tests at the `FLAT_LOOKUP_MAX_BITS` boundary.
//!
//! Up to 20 hashed bits a kernel's lookup tail spans the whole space; one
//! bit wider, it keeps a dense tail over the hot low-index region rather
//! than falling back to binary search everywhere. The invariant pinned here:
//! all three kernel layouts (widest tail, default tail, no tail) answer
//! bit-identically to the `MissEstimator` oracle, pointwise and through
//! every pricing path, at 20 and 21 bits alike.

use cache_sim::BlockAddr;
use gf2::PackedBasis;
use xorindex::{
    ConflictProfile, EstimationStrategy, FrozenKernel, MissEstimator, FLAT_LOOKUP_MAX_BITS,
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

/// The three kernel layouts: the widest tail a kernel may hold (the whole
/// space up to [`FLAT_LOOKUP_MAX_BITS`], the cap beyond it), the default
/// tail, and no tail.
fn representations(profile: &ConflictProfile) -> [(&'static str, FrozenKernel); 3] {
    let layout = |tail_bits| FrozenKernel::from_parts(profile.clone(), tail_bits).unwrap();
    let widest = layout(profile.hashed_bits().min(FLAT_LOOKUP_MAX_BITS));
    [
        ("widest", widest),
        ("hybrid", FrozenKernel::new(profile)),
        ("sorted", layout(0)),
    ]
}

#[test]
fn representations_take_the_expected_shape_on_each_side_of_the_boundary() {
    let narrow = boundary_profile(FLAT_LOOKUP_MAX_BITS);
    let [(_, widest), (_, hybrid), (_, sorted)] = representations(&narrow);
    assert!(widest.has_flat_lookup());
    // At the limit the default tail still covers the whole space.
    assert!(hybrid.has_flat_lookup());
    assert_eq!(hybrid.tail_bits(), FLAT_LOOKUP_MAX_BITS);
    assert!(!sorted.has_dense_tail());

    let wide = boundary_profile(FLAT_LOOKUP_MAX_BITS + 1);
    let [(_, widest), (_, hybrid), (_, sorted)] = representations(&wide);
    // One bit past the limit no layout is flat: the widest tail stops at
    // the cap…
    assert!(!widest.has_flat_lookup());
    assert_eq!(widest.tail_bits(), FLAT_LOOKUP_MAX_BITS);
    assert!(FrozenKernel::from_parts(wide.clone(), FLAT_LOOKUP_MAX_BITS + 1).is_err());
    // …and the hot low-index region is dense enough that a narrower hybrid
    // tail materializes by default.
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
        let entries = profile.entries();
        assert!(entries.len() > 32, "trace too tame to test");

        // Every recorded vector, its neighbours, and a spread of absent
        // probes on both sides of any tail boundary.
        let mut probes: Vec<u64> = entries.iter().map(|&(v, _)| v).collect();
        probes.extend(entries.iter().map(|&(v, _)| v ^ 1));
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
            assert_eq!(rep.profile().entries(), entries, "{name}");
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

        for (name, kernel) in representations(&profile) {
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
