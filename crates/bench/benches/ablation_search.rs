//! Ablation: search algorithms and neighbour pools.
//!
//! Compares the paper's plain hill climb against the exhaustive optimal
//! bit-selecting search, and measures how much the richer neighbour pool
//! costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xorindex::search::{NeighborPool, Searcher};
use xorindex::{FunctionClass, SearchAlgorithm};
use xorindex_bench::prepare_data;

fn bench_search_algorithms(c: &mut Criterion) {
    let prepared = prepare_data("compress", 4);
    let class = FunctionClass::permutation_based(2);
    let algorithms = [
        ("hill_climb", class, SearchAlgorithm::HillClimb),
        (
            "optimal_bitselect",
            FunctionClass::bit_selecting(),
            SearchAlgorithm::OptimalBitSelect,
        ),
    ];

    // Record achieved quality once per algorithm.
    for (label, class, algorithm) in algorithms {
        let outcome = Searcher::new(&prepared.profile, class, prepared.cache.set_bits())
            .expect("valid geometry")
            .run(algorithm)
            .expect("search succeeds");
        println!(
            "ablation-search compress @4KB {label:>17}: estimated misses {:>8} ({} evaluations)",
            outcome.estimated_misses, outcome.evaluations
        );
    }

    let mut group = c.benchmark_group("ablation_search");
    group.sample_size(10);
    for (label, class, algorithm) in algorithms {
        group.bench_with_input(
            BenchmarkId::new("algorithm", label),
            &algorithm,
            |b, &alg| {
                b.iter(|| {
                    let searcher =
                        Searcher::new(&prepared.profile, class, prepared.cache.set_bits())
                            .expect("valid geometry");
                    black_box(searcher.run(alg).expect("search"))
                })
            },
        );
    }
    for (label, pool) in [
        ("units", NeighborPool::Units),
        ("units_and_pairs", NeighborPool::UnitsAndPairs),
        (
            "units_pairs_profile",
            NeighborPool::UnitsPairsAndProfile(16),
        ),
    ] {
        group.bench_with_input(BenchmarkId::new("pool", label), &pool, |b, pool| {
            b.iter(|| {
                let searcher = Searcher::new(&prepared.profile, class, prepared.cache.set_bits())
                    .expect("valid geometry")
                    .with_pool(pool.clone());
                black_box(searcher.run(SearchAlgorithm::HillClimb).expect("search"))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_search_algorithms
}
criterion_main!(benches);
