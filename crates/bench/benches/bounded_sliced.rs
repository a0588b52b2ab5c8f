//! Bench for the incumbent-bounded, parallel, scaffold-cached pricing paths.
//!
//! Every neighbourhood is priced lane by lane: a lane costs its hyperplane's
//! in-parent weight plus one scan of its direction's remainder group in the
//! parent's grouped histogram, and stops once its running Eq. 4 sum reaches
//! an incumbent bound. Runs of lanes split across scoped threads, and the
//! grouped histogram is cached per parent. This target times one hill-climb
//! pricing step — the full susan @ 4 KB neighbourhood under the parent's own
//! cost as the incumbent — in every configuration:
//!
//! * `engine/unbounded` — the engine's ranking call
//!   ([`EvalEngine::estimate_neighborhood`], the bounded route at
//!   `u64::MAX`): every lane summed to completion from the cached histogram;
//! * `engine/t1`, `engine/t4` — the whole engine route under the incumbent
//!   ([`EvalEngine::estimate_neighborhood_bounded`]): cached histogram and
//!   (at `t4`) `map_parallel` runs of lanes;
//! * `scaffold/cold` vs `scaffold/warm` — the same engine step with the
//!   scaffold cache cleared before each iteration vs left warm, isolating
//!   what regrouping the histogram per step costs.
//!
//! Every path is asserted bit-identical to the scalar reference
//! ([`FrozenKernel::cost`]) before any timing. The `CRITERION_JSON` records land in `BENCH_bounded.json` on CI.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gf2::PackedBasis;
use xorindex::search::{NeighborPool, PackedNeighborhood};
use xorindex::{BoundedCost, EvalEngine, FrozenKernel, FunctionClass};
use xorindex_bench::{prepare_data, HASHED_BITS};

fn bench_bounded_sliced(c: &mut Criterion) {
    let mut group = c.benchmark_group("bounded_sliced");
    group.sample_size(10);

    // The paper's configuration: susan @ 4 KB, n = 16, dimension-6
    // candidates, one full 4095-candidate neighbourhood.
    let susan = prepare_data("susan", 4);
    let profile = &susan.profile;
    let kernel = FrozenKernel::new(profile);
    let pool = NeighborPool::UnitsAndPairs.packed_vectors(HASHED_BITS, profile);
    let parent = PackedBasis::standard_span(HASHED_BITS, susan.cache.set_bits()..HASHED_BITS);
    let nbhd = PackedNeighborhood::generate(&parent, FunctionClass::xor_unlimited(), &pool);
    let n = nbhd.candidates.len();
    // The hill-climb incumbent at the first step: the parent's own cost.
    let bound = kernel.cost(&parent);

    // Bit-identity before timing anything: bounded engine pricing is exact
    // for every lane below the incumbent and `AtLeast(bound)` otherwise, at
    // every thread count, and the unbounded engine route is the scalar path.
    let scalar: Vec<u64> = nbhd.bases().map(|b| kernel.cost(b)).collect();
    let price = |threads: usize| {
        let mut engine = EvalEngine::new(profile).with_threads(threads);
        engine.estimate_neighborhood_bounded(&nbhd, bound)
    };
    let bounded = price(1);
    for (cost, &truth) in bounded.iter().zip(&scalar) {
        match *cost {
            BoundedCost::Exact(c) => assert_eq!(c, truth),
            BoundedCost::AtLeast(b) => {
                assert_eq!(b, bound);
                assert!(truth >= bound);
            }
        }
    }
    assert_eq!(price(4), bounded);
    // At bound `u64::MAX` every lane is exact.
    assert_eq!(
        EvalEngine::new(profile).estimate_neighborhood(&nbhd),
        scalar
    );

    // The engine-level baseline: the ranking call, every lane summed to
    // completion from the warm grouped histogram.
    let mut engine = EvalEngine::new(profile).with_threads(1);
    group.bench_with_input(BenchmarkId::new("susan/engine/unbounded", n), &n, |b, _| {
        b.iter(|| black_box(engine.estimate_neighborhood(&nbhd)))
    });
    for threads in [1usize, 4] {
        // The engine caches no costs, so every iteration prices every lane
        // afresh; the scaffold cache warms on the first iteration and stays
        // warm, like the rank step revisiting the climb's last parent.
        let mut engine = EvalEngine::new(profile).with_threads(threads);
        group.bench_with_input(
            BenchmarkId::new(format!("susan/engine/t{threads}"), n),
            &n,
            |b, _| b.iter(|| black_box(engine.estimate_neighborhood_bounded(&nbhd, bound))),
        );
    }

    // Warm-vs-cold scaffold contrast: identical pricing work, with the
    // remainder-grouped histogram either regrouped every iteration or
    // answered from the cache.
    let mut engine = EvalEngine::new(profile).with_threads(1);
    group.bench_with_input(BenchmarkId::new("susan/scaffold/cold", n), &n, |b, _| {
        b.iter(|| {
            engine.scaffold_cache().clear();
            black_box(engine.estimate_neighborhood_bounded(&nbhd, bound))
        })
    });
    let mut engine = EvalEngine::new(profile).with_threads(1);
    let _ = engine.estimate_neighborhood_bounded(&nbhd, bound);
    group.bench_with_input(BenchmarkId::new("susan/scaffold/warm", n), &n, |b, _| {
        b.iter(|| black_box(engine.estimate_neighborhood_bounded(&nbhd, bound)))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_bounded_sliced
}
criterion_main!(benches);
