//! End-to-end tests for the optimize→verify loop: `OptimizeVerified` run
//! through worker pools of different sizes, or repeated around pricing
//! requests, answers bit-identically, and on the paper's susan @ 4 KB cell
//! the simulated winner never loses to conventional bit selection.

use std::sync::Arc;

use cache_sim::{BlockAddr, CacheConfig};
use gf2::PackedBasis;
use workloads::mibench::Susan;
use workloads::{Scale, Workload};
use xorindex::search::{NeighborPool, PackedNeighborhood};
use xorindex::{ConflictProfile, FunctionClass, HashFunction, SearchAlgorithm};
use xorindex_serve::{IndexService, Registration, Request, Response, ServeError, WorkerPool};

const HASHED_BITS: usize = 14;

/// The susan data-side block trace for the paper's 4 KB cache.
fn susan_blocks(cache: CacheConfig) -> Vec<BlockAddr> {
    Susan
        .data_trace(Scale::Tiny)
        .data_block_addresses(cache.block_bits())
        .collect()
}

fn susan_service(cache: CacheConfig) -> (Arc<IndexService>, xorindex_serve::AppId) {
    let blocks = susan_blocks(cache);
    let profile = ConflictProfile::from_blocks(
        blocks.iter().copied(),
        HASHED_BITS,
        cache.num_blocks() as usize,
    );
    let service = Arc::new(IndexService::new());
    let app = service
        .register(
            Registration::new(profile, cache)
                .with_class(FunctionClass::xor_unlimited())
                .with_trace(blocks),
        )
        .unwrap();
    (service, app)
}

#[test]
fn susan_4kb_verified_winner_never_loses_to_bit_selection() {
    let cache = CacheConfig::paper_cache(4);
    let (service, app) = susan_service(cache);
    let outcome = service
        .optimize_verified(app, SearchAlgorithm::HillClimb, 3)
        .unwrap();

    // `baseline` is the simulated conventional bit-selecting function; the
    // winner is chosen by *simulated* misses, so it can never lose to it
    // unless the whole candidate set does — and for susan's strided image
    // sweeps the XOR search finds genuine improvements.
    let winner = outcome.winner();
    assert!(
        winner.sim.misses() <= outcome.baseline.misses(),
        "verified winner ({} misses) lost to conventional indexing ({})",
        winner.sim.misses(),
        outcome.baseline.misses()
    );
    // The audit saw every simulated candidate.
    assert_eq!(outcome.audit.candidates, outcome.candidates.len() as u64);
    assert!(outcome.audit.rank_agreement() >= 0.0);
    // The search winner is always the first candidate; the simulated winner
    // may differ, but must point inside the candidate list.
    assert!(outcome.winner < outcome.candidates.len());
    assert_eq!(
        outcome.candidates[0].estimated_misses,
        outcome.search.estimated_misses
    );
}

#[test]
fn optimize_verified_is_bit_identical_across_worker_counts() {
    let cache = CacheConfig::paper_cache(1);
    // One service for every pool size: a search's answer depends only on
    // the registration and the request, so repeating it on a warm
    // application changes nothing, and the claim under test is that the
    // *worker count* never changes the answer either.
    let (service, app) = susan_service(cache);

    let mut outcomes = Vec::new();
    for workers in [1usize, 2, 4] {
        let pool = WorkerPool::new(Arc::clone(&service), workers, 16);
        let pending = pool
            .submit(Request::OptimizeVerified {
                app,
                algorithm: SearchAlgorithm::HillClimb,
                top_k: 3,
            })
            .unwrap();
        match pending.wait() {
            Response::Verified(outcome) => outcomes.push(outcome),
            other => panic!("expected Verified, got {other:?}"),
        }
    }

    // Same request, same retained trace: the full outcome — candidates,
    // winner, per-set conflict breakdowns, audit, search evaluations — is
    // bit-identical no matter how many workers served it.
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[1], outcomes[2]);
    assert_eq!(outcomes[0].audit, outcomes[2].audit);
    let agreement = outcomes[0].audit.rank_agreement();
    assert_eq!(agreement, outcomes[2].audit.rank_agreement());
}

#[test]
fn repeat_search_requests_answer_identically_around_pricing() {
    let cache = CacheConfig::paper_cache(1);
    let (service, app) = susan_service(cache);
    let search = || match service.handle(Request::RunSearch {
        app,
        algorithm: SearchAlgorithm::HillClimb,
    }) {
        Response::Search(outcome) => outcome,
        other => panic!("expected Search, got {other:?}"),
    };
    let verified = || match service.handle(Request::OptimizeVerified {
        app,
        algorithm: SearchAlgorithm::HillClimb,
        top_k: 3,
    }) {
        Response::Verified(outcome) => outcome,
        other => panic!("expected Verified, got {other:?}"),
    };
    let memo = || service.stats(app).unwrap().memo;

    let first_search = search();
    let first_verified = verified();
    assert_eq!(first_verified.search, first_search);
    // Neither request touched the memo.
    let untouched = memo();
    assert_eq!(
        (untouched.entries, untouched.hits, untouched.misses),
        (0, 0, 0)
    );

    // Price the winner's whole neighbourhood: the candidates a search
    // sharing the memo would have found there.
    let blocks = susan_blocks(cache);
    let profile = ConflictProfile::from_blocks(
        blocks.iter().copied(),
        HASHED_BITS,
        cache.num_blocks() as usize,
    );
    let pool = NeighborPool::UnitsAndPairs.packed_vectors(HASHED_BITS, &profile);
    let winner = first_search.function.null_space().to_packed();
    let bases: Vec<PackedBasis> =
        PackedNeighborhood::generate(&winner, FunctionClass::xor_unlimited(), &pool)
            .bases()
            .cloned()
            .collect();
    assert!(!bases.is_empty());
    let Response::Prices(prices) = service.handle(Request::PriceBatch {
        app,
        bases: bases.clone(),
    }) else {
        panic!("expected Prices");
    };
    assert_eq!(prices.len(), bases.len());
    let priced = memo();
    assert_eq!(priced.hits + priced.misses, bases.len() as u64);
    assert_eq!(priced.entries, bases.len());

    // The repeats answer exactly as the first requests did, evaluation
    // counts included, and the memo moved only by the batch's probes.
    assert_eq!(search(), first_search);
    assert_eq!(verified(), first_verified);
    assert_eq!(memo(), priced);
}

#[test]
fn simulate_function_requires_a_retained_trace() {
    let cache = CacheConfig::paper_cache(1);
    let blocks = susan_blocks(cache);
    let profile = ConflictProfile::from_blocks(
        blocks.iter().copied(),
        HASHED_BITS,
        cache.num_blocks() as usize,
    );
    let service = IndexService::new();
    // Registered *without* a trace: simulation requests are typed errors.
    let app = service.register(Registration::new(profile, cache)).unwrap();
    let function = HashFunction::conventional(HASHED_BITS, cache.set_bits()).unwrap();
    assert!(matches!(
        service.simulate_function(app, &function),
        Err(ServeError::NoRetainedTrace(a)) if a == app
    ));
    assert!(matches!(
        service.optimize_verified(app, SearchAlgorithm::HillClimb, 2),
        Err(ServeError::NoRetainedTrace(_))
    ));
}

#[test]
fn trace_caps_are_enforced_at_registration() {
    let cache = CacheConfig::paper_cache(1);
    let blocks = susan_blocks(cache);
    let profile = ConflictProfile::from_blocks(
        blocks.iter().copied(),
        HASHED_BITS,
        cache.num_blocks() as usize,
    );
    let service = IndexService::new();
    let err = service
        .register(
            Registration::new(profile, cache)
                .with_trace(blocks.clone())
                .with_trace_cap_blocks(blocks.len() - 1),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        ServeError::TraceTooLarge { blocks: b, cap_blocks } if b == blocks.len() as u64
            && cap_blocks == blocks.len() as u64 - 1
    ));
}

#[test]
fn simulate_function_matches_direct_replay() {
    let cache = CacheConfig::paper_cache(1);
    let (service, app) = susan_service(cache);
    let function = HashFunction::conventional(HASHED_BITS, cache.set_bits()).unwrap();
    let sim = service.simulate_function(app, &function).unwrap();

    // The service's answer is exactly a TraceReplayer over the same trace.
    let replayer = xorindex_verify::TraceReplayer::new(cache, Arc::new(susan_blocks(cache)));
    assert_eq!(sim, replayer.replay(&function).unwrap());
    assert_eq!(
        sim.stats.accesses,
        susan_blocks(cache).len() as u64,
        "every retained block access is replayed"
    );
    // Per-set conflicts reconcile with the aggregate conflict count.
    let total: u64 = sim.set_conflicts.iter().map(|&(_, c)| c).sum();
    assert_eq!(total, sim.stats.conflict_misses);
}
