//! Bench for the batch and neighbourhood pricing paths.
//!
//! This target pins three ways one full hill-climbing neighbourhood can be
//! priced, on the paper's susan @ 4 KB configuration (n = 16, 4095
//! candidates of dimension 6):
//!
//! * `scalar` — one [`FrozenKernel::cost`] call per candidate;
//! * `sliced` — the generic transposed batch
//!   ([`FrozenKernel::cost_batch_sliced`]): membership masks for 64
//!   candidates per `u64` word, one histogram scan per block;
//! * `lanes` — the neighbourhood route the searches run
//!   ([`FrozenKernel::cost_neighborhood_bounded`] at bound `u64::MAX`): the
//!   histogram grouped by remainder modulo the parent, each hyperplane's
//!   in-parent weight summed once, then one scan of each lane's remainder
//!   group.
//!
//! A second group reprices a neighbourhood slice at n = 26 through the
//! hybrid profile (dense tail over the hot low region, binary search above
//! it) — the wide-width regime where no flat table exists. The
//! `CRITERION_JSON` records land in `BENCH_sliced.json` on CI.

use std::hint::black_box;

use cache_sim::BlockAddr;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gf2::PackedBasis;
use xorindex::search::{NeighborPool, PackedNeighborhood};
use xorindex::{BoundedCost, ConflictProfile, FrozenKernel, FunctionClass};
use xorindex_bench::{prepare_data, HASHED_BITS};

const WIDE_BITS: usize = 26;

/// The wide-width workload: small-stride blocks feeding the hybrid tail plus
/// bit-22 collision pairs (same shape as the serve-layer wide-width test).
fn wide_profile() -> ConflictProfile {
    let mut footprint: Vec<u64> = (0..128u64).map(|k| k * 3 % 128).collect();
    footprint.extend((0..64u64).flat_map(|k| [k, k | (1 << 22)]));
    let trace = (0..4 * footprint.len()).map(|i| BlockAddr(footprint[i % footprint.len()]));
    ConflictProfile::from_blocks(trace, WIDE_BITS, 1 << 20)
}

struct PreparedNeighborhood {
    kernel: FrozenKernel,
    neighborhood: PackedNeighborhood,
    parent_span: PackedBasis,
    lanes: Vec<(usize, u64)>,
}

fn prepare(profile: &ConflictProfile, hashed_bits: usize, set_bits: usize) -> PreparedNeighborhood {
    let kernel = FrozenKernel::new(profile);
    let pool = NeighborPool::UnitsAndPairs.packed_vectors(hashed_bits, profile);
    let parent = PackedBasis::standard_span(hashed_bits, set_bits..hashed_bits);
    let neighborhood = PackedNeighborhood::generate(&parent, FunctionClass::xor_unlimited(), &pool);
    let parent_span = neighborhood.parent_span().expect("non-empty neighbourhood");
    let lanes: Vec<(usize, u64)> = neighborhood
        .candidates
        .iter()
        .map(|c| (c.hyperplane, c.direction))
        .collect();
    PreparedNeighborhood {
        kernel,
        neighborhood,
        parent_span,
        lanes,
    }
}

fn bench_paths(
    group: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    prep: &PreparedNeighborhood,
) {
    let refs: Vec<&PackedBasis> = prep.neighborhood.bases().collect();
    let n = refs.len();
    let kernel = &prep.kernel;

    let lanes = || {
        kernel.cost_neighborhood_bounded(
            &prep.parent_span,
            &prep.neighborhood.hyperplanes,
            &prep.lanes,
            u64::MAX,
        )
    };

    // Bit-identity across all three paths before timing anything.
    let scalar: Vec<u64> = refs.iter().map(|b| kernel.cost(b)).collect();
    assert_eq!(scalar, kernel.cost_batch_sliced(&refs));
    let exact: Vec<BoundedCost> = scalar.iter().map(|&c| BoundedCost::Exact(c)).collect();
    assert_eq!(exact, lanes());

    group.bench_with_input(
        BenchmarkId::new(format!("{label}/scalar"), n),
        &n,
        |b, _| b.iter(|| refs.iter().map(|basis| kernel.cost(basis)).sum::<u64>()),
    );
    group.bench_with_input(
        BenchmarkId::new(format!("{label}/sliced"), n),
        &n,
        |b, _| b.iter(|| black_box(kernel.cost_batch_sliced(&refs))),
    );
    group.bench_with_input(BenchmarkId::new(format!("{label}/lanes"), n), &n, |b, _| {
        b.iter(|| black_box(lanes()))
    });
}

fn bench_sliced_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("sliced_batch");
    group.sample_size(10);

    // The paper's configuration: susan @ 4 KB, n = 16, dimension-6
    // candidates, one full 4095-candidate neighbourhood.
    let susan = prepare_data("susan", 4);
    let prep = prepare(&susan.profile, HASHED_BITS, susan.cache.set_bits());
    bench_paths(&mut group, "susan", &prep);

    // Wide-width regime: n = 26 through the hybrid profile (no flat table).
    let wide = wide_profile();
    let prep = prepare(&wide, WIDE_BITS, WIDE_BITS - 6);
    assert!(!prep.kernel.has_flat_lookup() && prep.kernel.has_dense_tail());
    bench_paths(&mut group, "wide26", &prep);

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_sliced_batch
}
criterion_main!(benches);
