//! Bench for the optimize→verify loop: what trace-replay verification costs
//! on top of the estimate-only search, and how fast the replayer chews
//! through retained block accesses.
//!
//! Measurements on susan @ 4 KB (the paper's cell):
//!
//! * `estimate_only` — `run_search` alone: pick by Eq. 4 estimate, no
//!   simulation (the pre-verification serving path);
//! * `verified_top3` — `optimize_verified` with `top_k = 3`: the same
//!   search plus three trace replays, a baseline replay and the estimator
//!   audit — the full verified pick;
//! * `replay/accesses_N` — one `TraceReplayer::replay` of the conventional
//!   function over the N retained accesses; ns/iter ÷ N is the per-access
//!   replay cost, so replayed-accesses/sec falls out of the JSON directly.
//!   Rides the fast engine (shared 3C pre-classification, then one pass of
//!   byte-table set lookups into compact LRU sets);
//! * `replay_legacy/accesses_N` — the same replay through the legacy
//!   `Cache`-based simulator; the legacy/fast ratio is the headline number
//!   for the fast replay engine. Bit-identity between the two paths is
//!   asserted in setup before anything is timed;
//! * `preclass/accesses_N` — one `ReuseStream::build`, the 3C
//!   pre-classification a replayer pays once per (trace, geometry). Its
//!   codes are asserted equal to a `MissClassifier` walk before timing.
//!
//! Both optimize benches evict the application's caches every iteration so
//! the searches start from identical (cold) scaffolds and the measured gap
//! is the verification work itself.

use std::sync::Arc;

use cache_sim::{MissClassifier, ReuseStream};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xorindex::{FunctionClass, HashFunction, SearchAlgorithm};
use xorindex_bench::prepare_data;
use xorindex_serve::{IndexService, Registration};
use xorindex_verify::TraceReplayer;

fn bench_verify_loop(c: &mut Criterion) {
    let prepared = prepare_data("susan", 4);
    let trace = Arc::new(prepared.blocks.clone());
    let service = Arc::new(IndexService::new());
    let app = service
        .register(
            Registration::new(prepared.profile.clone(), prepared.cache)
                .with_class(FunctionClass::xor_unlimited())
                .with_shared_trace(Arc::clone(&trace)),
        )
        .expect("valid geometry");

    let mut group = c.benchmark_group("verify_loop");
    group.sample_size(10);

    group.bench_function("estimate_only", |b| {
        b.iter(|| {
            service.evict(app).expect("registered app");
            black_box(
                service
                    .run_search(app, SearchAlgorithm::HillClimb)
                    .expect("search succeeds"),
            )
        })
    });

    group.bench_function("verified_top3", |b| {
        b.iter(|| {
            service.evict(app).expect("registered app");
            black_box(
                service
                    .optimize_verified(app, SearchAlgorithm::HillClimb, 3)
                    .expect("verified optimization succeeds"),
            )
        })
    });

    // Raw replay throughput: the access count is in the bench id, so
    // ns/iter ÷ accesses gives the per-access cost.
    let replayer = TraceReplayer::new(prepared.cache, Arc::clone(&trace));
    let conventional =
        HashFunction::conventional(prepared.profile.hashed_bits(), prepared.cache.set_bits())
            .expect("valid geometry");

    // Fast path and legacy path must agree bit-for-bit before either is
    // worth timing.
    assert!(replayer.fast_path(), "susan@4KB must ride the fast engine");
    let fast = replayer.replay(&conventional).expect("geometry matches");
    let legacy = replayer
        .replay_legacy(&conventional)
        .expect("geometry matches");
    assert_eq!(
        fast, legacy,
        "fast replay must be bit-identical to the legacy simulator"
    );
    let capacity = prepared.cache.num_blocks() as usize;
    let reuse = ReuseStream::build(&trace, capacity);
    let mut classifier = MissClassifier::new(capacity);
    for (i, &block) in trace.iter().enumerate() {
        assert_eq!(
            reuse.miss_class(i),
            MissClassifier::classify_miss(classifier.observe(block)),
            "pre-classification must match the classifier at access {i}"
        );
    }

    group.bench_with_input(
        BenchmarkId::new("replay", format!("accesses_{}", trace.len())),
        &trace.len(),
        |b, _| b.iter(|| black_box(replayer.replay(&conventional).expect("geometry matches"))),
    );

    group.bench_with_input(
        BenchmarkId::new("replay_legacy", format!("accesses_{}", trace.len())),
        &trace.len(),
        |b, _| {
            b.iter(|| {
                black_box(
                    replayer
                        .replay_legacy(&conventional)
                        .expect("geometry matches"),
                )
            })
        },
    );

    group.bench_with_input(
        BenchmarkId::new("preclass", format!("accesses_{}", trace.len())),
        &trace.len(),
        |b, _| b.iter(|| black_box(ReuseStream::build(&trace, capacity))),
    );

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_verify_loop
}
criterion_main!(benches);
