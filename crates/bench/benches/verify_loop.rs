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
//!
//! The rank step — picking a verified pick's two runners-up from the hill
//! climb winner's neighbourhood — on crc @ 1 KB under unlimited XOR, whose
//! winner has 19,425 neighbours, on one thread with a cleared scaffold
//! cache each iteration:
//!
//! * `rank/lanes` — `Searcher::run_with_runners_up`: the climb, then its
//!   own last lanes priced under a bound that tightens to the running
//!   second best, bases built only for lanes below it;
//! * `rank/materialized` — `Searcher::run_with_neighborhood` (the climb,
//!   then every neighbour's basis built), `EvalEngine::estimate_neighborhood`
//!   and a full sort;
//! * `rank/climb` — the climb alone (`Searcher::run`), so either row minus
//!   this one is its rank step.
//!
//! Both routes' runners-up are asserted identical before timing.
//!
//! The slate replay — what a first verified top-3 pick simulates: the
//! served winner, its two runners-up and the conventional function — on
//! crc @ 1 KB under unlimited XOR (the three slate members partition the
//! trace's blocks alike: two simulations) and fir @ 4 KB under bit
//! selection (one member partitions like the conventional function: three
//! simulations):
//!
//! * `slate/shared/<cell>` — one `TraceReplayer::replay_many` of the four
//!   functions: one simulation per distinct block partition, all in one
//!   fused pass;
//! * `slate/each/<cell>` — one `TraceReplayer::replay` per function.
//!
//! Both rows' stats and the shared row's simulation count are asserted
//! before timing.

use std::sync::Arc;

use cache_sim::{MissClassifier, ReuseStream};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xorindex::search::Searcher;
use xorindex::{FunctionClass, HashFunction, ScaffoldCache, SearchAlgorithm, SearchOutcome};
use xorindex_bench::{prepare_data, HASHED_BITS};
use xorindex_serve::{IndexService, Registration};
use xorindex_verify::TraceReplayer;

/// Runners-up a verified top-3 pick simulates beside the winner.
const RUNNERS_UP: usize = 2;

/// The climb, then its winner's neighbourhood materialized, priced to
/// completion and sorted by (estimate, position): the first `RUNNERS_UP`
/// candidates the class admits. Also returns the neighbourhood's size.
fn materialized_runners_up(
    searcher: &Searcher<'_>,
) -> (SearchOutcome, Vec<(HashFunction, u64)>, usize) {
    let (search, hood) = searcher
        .run_with_neighborhood(SearchAlgorithm::HillClimb)
        .expect("search succeeds");
    let hood = hood.expect("a hill climb carries its neighbourhood");
    let costs = searcher.engine().estimate_neighborhood(&hood);
    let mut scored: Vec<(u64, usize)> = costs.into_iter().zip(0..).collect();
    scored.sort_unstable();
    let runners_up = scored
        .into_iter()
        .filter_map(|(estimate, i)| {
            let basis = &hood.candidates[i].basis;
            let function = HashFunction::from_null_space(basis, searcher.class()).ok()?;
            Some((function, estimate))
        })
        .take(RUNNERS_UP)
        .collect();
    (search, runners_up, hood.len())
}

/// The four functions a first verified top-3 pick replays for `workload`
/// at `kb` KB under `class` (the served winner, its two runners-up, then the
/// conventional function), with a replayer over the trace.
fn first_pick_slate(
    workload: &str,
    kb: u64,
    class: FunctionClass,
) -> (TraceReplayer, Vec<HashFunction>) {
    let prepared = prepare_data(workload, kb);
    let trace = Arc::new(prepared.blocks);
    let service = IndexService::new();
    let app = service
        .register(
            Registration::new(prepared.profile, prepared.cache)
                .with_class(class)
                .with_shared_trace(Arc::clone(&trace)),
        )
        .expect("valid geometry");
    let outcome = service
        .optimize_verified(app, SearchAlgorithm::HillClimb, 3)
        .expect("verified optimization succeeds");
    let mut slate: Vec<HashFunction> = outcome
        .candidates
        .into_iter()
        .map(|candidate| candidate.function)
        .collect();
    slate.push(
        HashFunction::conventional(HASHED_BITS, prepared.cache.set_bits()).expect("valid geometry"),
    );
    (TraceReplayer::new(prepared.cache, trace), slate)
}

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

    let crc = prepare_data("crc", 1);
    let scaffold = ScaffoldCache::new();
    let searcher = Searcher::new(
        &crc.profile,
        FunctionClass::xor_unlimited(),
        crc.cache.set_bits(),
    )
    .expect("valid geometry")
    .with_scaffold_cache(scaffold.clone())
    .with_threads(1);
    let (search, expected, neighbours) = materialized_runners_up(&searcher);
    assert_eq!(neighbours, 19_425, "crc@1KB/xor's winner neighbourhood");
    assert_eq!(
        searcher
            .run_with_runners_up(SearchAlgorithm::HillClimb, RUNNERS_UP)
            .expect("search succeeds"),
        (search, expected),
        "ranking the climb's lanes must pick what the materialized route picks"
    );

    group.bench_function("rank/lanes", |b| {
        b.iter(|| {
            scaffold.clear();
            black_box(
                searcher
                    .run_with_runners_up(SearchAlgorithm::HillClimb, RUNNERS_UP)
                    .expect("search succeeds"),
            )
        })
    });

    group.bench_function("rank/materialized", |b| {
        b.iter(|| {
            scaffold.clear();
            black_box(materialized_runners_up(&searcher))
        })
    });

    group.bench_function("rank/climb", |b| {
        b.iter(|| {
            scaffold.clear();
            black_box(
                searcher
                    .run(SearchAlgorithm::HillClimb)
                    .expect("search succeeds"),
            )
        })
    });

    for (cell, workload, kb, class, simulations) in [
        ("crc@1KB/xor", "crc", 1, FunctionClass::xor_unlimited(), 2),
        (
            "fir@4KB/bitsel",
            "fir",
            4,
            FunctionClass::bit_selecting(),
            3,
        ),
    ] {
        let (replayer, slate) = first_pick_slate(workload, kb, class);
        let each: Vec<_> = slate
            .iter()
            .map(|f| replayer.replay(f).expect("geometry matches"))
            .collect();
        let before = replayer.replay_stats().replays;
        assert_eq!(
            replayer.replay_many(&slate, 1).expect("geometry matches"),
            each,
            "{cell}: a shared replay must equal one replay per function"
        );
        assert_eq!(
            replayer.replay_stats().replays - before,
            simulations,
            "{cell}: simulations per shared slate replay"
        );
        group.bench_function(format!("slate/shared/{cell}"), |b| {
            b.iter(|| black_box(replayer.replay_many(&slate, 1).expect("geometry matches")))
        });
        group.bench_function(format!("slate/each/{cell}"), |b| {
            b.iter(|| {
                black_box(
                    slate
                        .iter()
                        .map(|f| replayer.replay(f).expect("geometry matches"))
                        .collect::<Vec<_>>(),
                )
            })
        });
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_verify_loop
}
criterion_main!(benches);
