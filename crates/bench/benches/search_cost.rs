//! Bench for the search-cost claim of Section 3.2: constructing a hash
//! function takes 0.5–10 s on the paper's 2 GHz Pentium 4. This target
//! measures the three pipeline stages separately — profiling (on a typical,
//! a vector-heavy and a short trace), a single Eq. 4 evaluation, and the
//! full hill climb — so the cost model of the search can be compared against
//! that figure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gf2::PackedBasis;
use std::hint::black_box;
use xorindex::search::{NeighborPool, PackedNeighborhood, Searcher};
use xorindex::{
    ConflictProfile, EvalEngine, FrozenKernel, FunctionClass, HashFunction, MissEstimator,
    SearchAlgorithm,
};
use xorindex_bench::{prepare_data, HASHED_BITS};

fn bench_search_cost(c: &mut Criterion) {
    let prepared = prepare_data("susan", 4);
    let mut group = c.benchmark_group("search_cost");
    group.sample_size(10);

    // Profiling rows: susan@4KB; des@16KB, a vector-heavy trace (63,360
    // references, ~10.8 M conflict vectors); and susan@4KB's first 200
    // references, where the fixed cost of the histogram's flat table
    // (allocating and scanning 2^16 slots) dominates.
    let des = prepare_data("des", 16);
    for (id, blocks, cache) in [
        (
            BenchmarkId::from("profiling_pass"),
            &prepared.blocks[..],
            prepared.cache,
        ),
        (
            BenchmarkId::new("profiling_pass", "des@16KB"),
            &des.blocks[..],
            des.cache,
        ),
        (
            BenchmarkId::new("profiling_pass", "susan@4KB/first_200"),
            &prepared.blocks[..200],
            prepared.cache,
        ),
    ] {
        let capacity = cache.num_blocks() as usize;
        let profile =
            || ConflictProfile::from_blocks(blocks.iter().copied(), HASHED_BITS, capacity);
        // Every reference is a first touch, a capacity miss or profiled, and
        // the histogram holds at most the vectors recorded.
        let checked = profile();
        let summary = checked.summary();
        assert_eq!(summary.references, blocks.len() as u64);
        assert_eq!(
            summary.compulsory + summary.capacity + summary.profiled,
            summary.references
        );
        assert!(checked.total_weight() <= summary.conflict_vectors);
        group.bench_function(id, |b| b.iter(|| black_box(profile())));
    }

    let conventional =
        HashFunction::conventional(HASHED_BITS, prepared.cache.set_bits()).expect("valid");
    group.bench_function("single_estimate_eq4", |b| {
        let estimator = MissEstimator::new(&prepared.profile);
        b.iter(|| black_box(estimator.estimate(&conventional).expect("same geometry")))
    });

    // The same single evaluation through the dense kernel (packed basis +
    // flat histogram), without memoization.
    group.bench_function("dense_estimate_eq4", |b| {
        let kernel = FrozenKernel::new(&prepared.profile);
        let ns = conventional.null_space();
        b.iter(|| black_box(kernel.cost(&ns)))
    });

    // One full hill-climbing neighbourhood priced exactly through the
    // ranking call (`estimate_neighborhood`), which prices every
    // lane from the coset scaffold. The reset clears the scaffold cache, so
    // every iteration also rebuilds the scaffold. Generation cost is
    // measured separately by the neighborhood_cost target.
    group.bench_function("packed_neighborhood_batch", |b| {
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(HASHED_BITS, &prepared.profile);
        let parent =
            PackedBasis::standard_span(HASHED_BITS, prepared.cache.set_bits()..HASHED_BITS);
        let nbhd = PackedNeighborhood::generate(&parent, FunctionClass::xor_unlimited(), &pool);
        let mut engine = EvalEngine::new(&prepared.profile);
        b.iter(|| {
            engine.reset();
            black_box(engine.estimate_neighborhood(&nbhd))
        })
    });

    for (label, class) in [
        ("bit_selecting", FunctionClass::bit_selecting()),
        ("permutation_2in", FunctionClass::permutation_based(2)),
        ("xor_unlimited", FunctionClass::xor_unlimited()),
    ] {
        group.bench_with_input(
            BenchmarkId::new("hill_climb", label),
            &class,
            |b, &class| {
                b.iter(|| {
                    let searcher =
                        Searcher::new(&prepared.profile, class, prepared.cache.set_bits())
                            .expect("valid geometry");
                    black_box(searcher.run(SearchAlgorithm::HillClimb).expect("search"))
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_search_cost
}
criterion_main!(benches);
