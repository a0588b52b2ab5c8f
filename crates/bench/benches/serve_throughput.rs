//! Bench for the serving layer's scaling claim: candidate-pricing throughput
//! of one `IndexService` application (susan @ 4 KB, n = 16 — the paper's
//! configuration) as the worker pool grows from 1 to 8 threads.
//!
//! Each iteration evicts the application's memo and re-prices one full
//! hill-climbing neighbourhood of the conventional function through
//! `PriceBatch` requests, so the measurement is dominated by fresh kernel
//! evaluations (the concurrency-scaling case) rather than by memo hits
//! (which a single shard lookup answers regardless of worker count). The
//! `memo_warm` baseline pins the all-hit path for contrast.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gf2::PackedBasis;
use std::hint::black_box;
use xorindex::search::{NeighborPool, PackedNeighborhood};
use xorindex::FunctionClass;
use xorindex_bench::{prepare_data, HASHED_BITS};
use xorindex_serve::{IndexService, Registration, Request, Response, WorkerPool};

/// Candidates per `PriceBatch` request: small enough to spread one
/// neighbourhood across every worker, large enough to amortize the channel
/// round-trip.
const BATCH: usize = 128;

fn bench_serve_throughput(c: &mut Criterion) {
    let prepared = prepare_data("susan", 4);
    let service = Arc::new(IndexService::new());
    let app = service
        .register(
            Registration::new(prepared.profile.clone(), prepared.cache)
                .with_class(FunctionClass::xor_unlimited()),
        )
        .expect("valid geometry");

    // The request load: one full hill-climb neighbourhood of the conventional
    // null space, generated once outside the timed region.
    let pool_dirs = NeighborPool::UnitsAndPairs.packed_vectors(HASHED_BITS, &prepared.profile);
    let parent = PackedBasis::standard_span(HASHED_BITS, prepared.cache.set_bits()..HASHED_BITS);
    let neighborhood =
        PackedNeighborhood::generate(&parent, FunctionClass::xor_unlimited(), &pool_dirs);
    let batches: Vec<Vec<PackedBasis>> = neighborhood
        .bases()
        .cloned()
        .collect::<Vec<_>>()
        .chunks(BATCH)
        .map(<[PackedBasis]>::to_vec)
        .collect();

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);

    // A fixed set of concurrent clients drives every configuration, so the
    // only variable across bench points is the worker count: client-side
    // request cloning and reply plumbing stay constant and off the critical
    // path.
    const CLIENTS: usize = 4;
    let price_all = |workers: &WorkerPool| -> u64 {
        let total = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let total = &total;
                let batches = &batches;
                scope.spawn(move || {
                    // Pipeline: enqueue every batch first (bounded-queue
                    // backpressure applies), then collect the replies.
                    let pending: Vec<_> = batches
                        .iter()
                        .skip(client)
                        .step_by(CLIENTS)
                        .map(|batch| {
                            workers
                                .submit(Request::PriceBatch {
                                    app,
                                    bases: batch.clone(),
                                })
                                .expect("pool alive")
                        })
                        .collect();
                    let mut sum = 0u64;
                    for p in pending {
                        match p.wait() {
                            Response::Prices(costs) => sum += costs.iter().sum::<u64>(),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    total.fetch_add(sum, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        total.into_inner()
    };

    for workers in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(Arc::clone(&service), workers, 64);
        group.bench_with_input(
            BenchmarkId::new("price_candidates", workers),
            &workers,
            |b, _| {
                b.iter(|| {
                    // Evict so every batch is recomputed through the kernel;
                    // this is the fresh-pricing path that must scale.
                    service.evict(app).expect("registered app");
                    black_box(price_all(&pool))
                })
            },
        );
    }

    // All-hit contrast: the same load answered entirely from the warm memo.
    let pool = WorkerPool::new(Arc::clone(&service), 4, 64);
    let _ = price_all(&pool); // warm it
    group.bench_function("memo_warm/4", |b| b.iter(|| black_box(price_all(&pool))));

    // Wide-width contrast: a second application at n = 26, whose vectors
    // span a dozen dimensions (a small weight table, no flat one). Same
    // request shape, four workers, fresh pricing per iteration.
    const WIDE_BITS: usize = 26;
    let wide_trace: Vec<cache_sim::BlockAddr> = {
        let mut footprint: Vec<u64> = (0..128u64).map(|k| k * 3 % 128).collect();
        footprint.extend((0..64u64).flat_map(|k| [k, k | (1 << 22)]));
        (0..4 * footprint.len())
            .map(|i| cache_sim::BlockAddr(footprint[i % footprint.len()]))
            .collect()
    };
    let wide_profile =
        xorindex::ConflictProfile::from_blocks(wide_trace.iter().copied(), WIDE_BITS, 1 << 20);
    let wide_cache = cache_sim::CacheConfig::builder()
        .size_bytes(32 << 20)
        .block_bytes(32)
        .associativity(1)
        .build()
        .expect("valid geometry");
    let wide_app = service
        .register(
            Registration::new(wide_profile.clone(), wide_cache)
                .with_class(FunctionClass::xor_unlimited()),
        )
        .expect("valid geometry");
    let wide_pool_dirs = NeighborPool::UnitsAndPairs.packed_vectors(WIDE_BITS, &wide_profile);
    let wide_parent = PackedBasis::standard_span(WIDE_BITS, wide_cache.set_bits()..WIDE_BITS);
    let wide_batches: Vec<Vec<PackedBasis>> = PackedNeighborhood::generate(
        &wide_parent,
        FunctionClass::xor_unlimited(),
        &wide_pool_dirs,
    )
    .bases()
    .cloned()
    .collect::<Vec<_>>()
    .chunks(BATCH)
    .map(<[PackedBasis]>::to_vec)
    .collect();
    let wide_workers = WorkerPool::new(Arc::clone(&service), 4, 64);
    group.bench_function("price_candidates_wide26/4", |b| {
        b.iter(|| {
            service.evict(wide_app).expect("registered app");
            let total = std::sync::atomic::AtomicU64::new(0);
            std::thread::scope(|scope| {
                for client in 0..CLIENTS {
                    let total = &total;
                    let wide_batches = &wide_batches;
                    let wide_workers = &wide_workers;
                    scope.spawn(move || {
                        let pending: Vec<_> = wide_batches
                            .iter()
                            .skip(client)
                            .step_by(CLIENTS)
                            .map(|batch| {
                                wide_workers
                                    .submit(Request::PriceBatch {
                                        app: wide_app,
                                        bases: batch.clone(),
                                    })
                                    .expect("pool alive")
                            })
                            .collect();
                        let mut sum = 0u64;
                        for p in pending {
                            match p.wait() {
                                Response::Prices(costs) => sum += costs.iter().sum::<u64>(),
                                other => panic!("unexpected {other:?}"),
                            }
                        }
                        total.fetch_add(sum, std::sync::atomic::Ordering::Relaxed);
                    });
                }
            });
            black_box(total.into_inner())
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_serve_throughput
}
criterion_main!(benches);
