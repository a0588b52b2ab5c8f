//! Concurrency-correctness stress test: N client threads × M requests
//! against one registered application must answer bit-identically to a
//! fresh single-threaded `EvalEngine` over the same profile, and the
//! application's per-shard memo counters must account for every pricing
//! request exactly (searches never touch the memo).

use std::sync::Arc;

use cache_sim::{BlockAddr, CacheConfig};
use gf2::PackedBasis;
use xorindex::search::{NeighborPool, PackedNeighborhood};
use xorindex::{BoundedCost, ConflictProfile, EvalEngine, FunctionClass, SearchAlgorithm};
use xorindex_serve::{IndexService, Registration, Request, Response, WorkerPool};

const HASHED_BITS: usize = 12;

fn stress_profile() -> ConflictProfile {
    let blocks = (0..2000u64).flat_map(|i| {
        [
            BlockAddr((i % 4) * 256),
            BlockAddr(0x800 + (i % 3) * 0x200),
            BlockAddr((i % 5) * 0x90),
        ]
    });
    ConflictProfile::from_blocks(blocks, HASHED_BITS, 256)
}

/// A few hundred distinct candidate null spaces of the geometry the app
/// serves, built the way a real client would: packed neighbourhoods of two
/// parents plus the conventional spans.
fn candidate_set(profile: &ConflictProfile, set_bits: usize) -> Vec<PackedBasis> {
    let pool = NeighborPool::UnitsAndPairs.packed_vectors(HASHED_BITS, profile);
    let conventional = PackedBasis::standard_span(HASHED_BITS, set_bits..HASHED_BITS);
    let mut out = vec![conventional.clone()];
    out.extend(
        PackedNeighborhood::generate(&conventional, FunctionClass::xor_unlimited(), &pool)
            .bases()
            .cloned(),
    );
    let second_parent = PackedBasis::standard_span(
        HASHED_BITS,
        (0..HASHED_BITS - set_bits).map(|i| (i * 2) % HASHED_BITS),
    );
    out.extend(
        PackedNeighborhood::generate(&second_parent, FunctionClass::xor_unlimited(), &pool)
            .bases()
            .cloned(),
    );
    // Dedup: repeated candidates would make the expected-miss count fuzzy.
    let mut seen = std::collections::HashSet::new();
    out.retain(|b| seen.insert(b.canonical_key()));
    out
}

#[test]
fn concurrent_serving_is_bit_identical_and_fully_accounted() {
    const POOL_CLIENTS: usize = 4;
    const DIRECT_CLIENTS: usize = 4;

    let profile = stress_profile();
    let cache = CacheConfig::paper_cache(1);
    let set_bits = cache.set_bits();
    let candidates = candidate_set(&profile, set_bits);
    assert!(
        candidates.len() >= 200,
        "need a real workload, got {}",
        candidates.len()
    );

    // The single-threaded oracle: a fresh engine over the same profile.
    let mut oracle = EvalEngine::new(&profile).with_threads(1);
    let expected: Vec<u64> = candidates
        .iter()
        .map(|c| oracle.estimate_packed(c))
        .collect();

    let service = Arc::new(IndexService::new());
    let app = service
        .register(
            Registration::new(profile.clone(), cache).with_class(FunctionClass::xor_unlimited()),
        )
        .unwrap();
    let pool = WorkerPool::new(Arc::clone(&service), 4, 32);

    std::thread::scope(|scope| {
        // Half the clients go through the worker pool's request queue…
        for client in 0..POOL_CLIENTS {
            let pool = &pool;
            let candidates = &candidates;
            let expected = &expected;
            scope.spawn(move || {
                for step in 0..candidates.len() {
                    // Stagger the iteration per client so threads collide on
                    // different keys at different times.
                    let i = (step + client * 41) % candidates.len();
                    let request = Request::PriceCandidate {
                        app,
                        basis: candidates[i].clone(),
                    };
                    match pool.call(request) {
                        Response::Price(cost) => {
                            assert_eq!(cost, expected[i], "candidate {i} via pool")
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            });
        }
        // …and half price directly against the shared service handle.
        for client in 0..DIRECT_CLIENTS {
            let service = Arc::clone(&service);
            let candidates = &candidates;
            let expected = &expected;
            scope.spawn(move || {
                for i in 0..candidates.len() {
                    let i = (i + client * 97) % candidates.len();
                    let cost = service.price_candidate(app, &candidates[i]).unwrap();
                    assert_eq!(cost, expected[i], "candidate {i} direct");
                }
            });
        }
    });

    // Every pricing request performed exactly one memo probe: the per-shard
    // hit/miss counters must sum to the request count.
    let total_requests = ((POOL_CLIENTS + DIRECT_CLIENTS) * candidates.len()) as u64;
    let stats = service.stats(app).unwrap();
    assert_eq!(
        stats.memo.hits + stats.memo.misses,
        total_requests,
        "per-shard stats must account for every request"
    );
    let shard_sum: u64 = stats.shards.iter().map(|s| s.hits + s.misses).sum();
    assert_eq!(shard_sum, total_requests);
    assert_eq!(
        stats.shards.iter().map(|s| s.entries).sum::<usize>(),
        stats.memo.entries
    );
    // Each distinct candidate was computed at least once and cached once.
    assert_eq!(stats.memo.entries, candidates.len());
    // Racing threads may each compute a key before the first insert lands,
    // so misses can exceed the distinct count — but never the request count,
    // and the overwhelming majority of requests must have been memo hits.
    assert!(stats.memo.misses >= candidates.len() as u64);
    assert!(stats.memo.hits > total_requests / 2);
}

#[test]
fn concurrent_bounded_batches_agree_with_an_unbounded_single_threaded_engine() {
    let profile = stress_profile();
    let cache = CacheConfig::paper_cache(1);
    let candidates = candidate_set(&profile, cache.set_bits());

    // The oracle prices everything exactly, single-threaded and unbounded.
    let mut oracle = EvalEngine::new(&profile).with_threads(1);
    let expected: Vec<u64> = candidates
        .iter()
        .map(|c| oracle.estimate_packed(c))
        .collect();
    let max_cost = expected.iter().copied().max().unwrap();

    let service = Arc::new(IndexService::new());
    let app = service
        .register(
            Registration::new(profile.clone(), cache).with_class(FunctionClass::xor_unlimited()),
        )
        .unwrap();
    let pool = WorkerPool::new(Arc::clone(&service), 4, 32);

    // Clients race bounded batches with *different* bounds over the shared
    // memo. The memo only ever holds exact costs, so a probe hit answers
    // `Exact` even for a candidate another client's tighter bound would
    // abandon — the contract is per-variant: every `Exact` must equal the
    // oracle bit for bit, every `AtLeast` must carry the request's own bound
    // and undershoot the oracle's true cost.
    let bounds = [1, max_cost / 4 + 1, max_cost / 2 + 1, max_cost + 1];
    std::thread::scope(|scope| {
        for (client, &bound) in bounds.iter().enumerate() {
            let pool = &pool;
            let candidates = &candidates;
            let expected = &expected;
            scope.spawn(move || {
                let chunk = 32;
                for start in (0..candidates.len()).step_by(chunk) {
                    let start = (start + client * 3 * chunk) % candidates.len();
                    let end = (start + chunk).min(candidates.len());
                    let bases = candidates[start..end].to_vec();
                    match pool.call(Request::PriceBatchBounded { app, bases, bound }) {
                        Response::BoundedPrices(costs) => {
                            for (cost, &truth) in costs.iter().zip(&expected[start..end]) {
                                match *cost {
                                    BoundedCost::Exact(c) => assert_eq!(c, truth),
                                    BoundedCost::AtLeast(b) => {
                                        assert_eq!(b, bound);
                                        assert!(truth >= bound);
                                    }
                                }
                            }
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            });
        }
    });

    // Abandoned candidates were never memoized, so a final unbounded batch
    // still reproduces the oracle exactly.
    assert_eq!(service.price_batch(app, &candidates).unwrap(), expected);
    let stats = service.stats(app).unwrap();
    assert_eq!(stats.memo.entries, candidates.len());
}

#[test]
fn a_search_and_concurrent_pricing_share_one_memo_consistently() {
    let profile = stress_profile();
    let cache = CacheConfig::paper_cache(1);
    let candidates = candidate_set(&profile, cache.set_bits());
    let mut oracle = EvalEngine::new(&profile).with_threads(1);
    let expected: Vec<u64> = candidates
        .iter()
        .map(|c| oracle.estimate_packed(c))
        .collect();

    let service = Arc::new(IndexService::new());
    let app = service
        .register(
            Registration::new(profile.clone(), cache).with_class(FunctionClass::xor_unlimited()),
        )
        .unwrap();
    let pool = WorkerPool::new(Arc::clone(&service), 3, 16);

    // One client runs a search while two others price candidates. Only the
    // pricing fills the memo, and every answer must stay exact.
    let searched = std::thread::scope(|scope| {
        let pool_ref = &pool;
        let search = scope.spawn(move || {
            match pool_ref.call(Request::RunSearch {
                app,
                algorithm: SearchAlgorithm::HillClimb,
            }) {
                Response::Search(outcome) => outcome,
                other => panic!("unexpected {other:?}"),
            }
        });
        for _ in 0..2 {
            let candidates = &candidates;
            let expected = &expected;
            scope.spawn(move || {
                let chunks: Vec<Vec<PackedBasis>> =
                    candidates.chunks(32).map(<[PackedBasis]>::to_vec).collect();
                let mut offset = 0;
                for bases in chunks {
                    let len = bases.len();
                    match pool_ref.call(Request::PriceBatch { app, bases }) {
                        Response::Prices(costs) => {
                            assert_eq!(&costs[..], &expected[offset..offset + len]);
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                    offset += len;
                }
            });
        }
        search.join().expect("search client panicked")
    });
    assert!(searched.estimated_misses <= searched.baseline_estimate);
    assert_eq!(
        searched.estimated_misses,
        oracle.estimate_packed(&searched.function.null_space())
    );

    // The memo counters account for the pricing requests alone: one probe
    // per priced candidate, one entry per distinct candidate.
    let stats = service.stats(app).unwrap().memo;
    assert_eq!(stats.hits + stats.misses, 2 * candidates.len() as u64);
    assert_eq!(stats.entries, candidates.len());

    // A search on the now-warm application answers exactly as the one that
    // raced the pricing did, and moves no memo counter.
    match pool.call(Request::RunSearch {
        app,
        algorithm: SearchAlgorithm::HillClimb,
    }) {
        Response::Search(outcome) => assert_eq!(outcome, searched),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(service.stats(app).unwrap().memo, stats);
}
