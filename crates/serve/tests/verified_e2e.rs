//! End-to-end tests for the optimize→verify loop: `OptimizeVerified` run
//! through worker pools of different sizes, or repeated around pricing
//! requests, answers bit-identically; it answers as the materialized
//! ranking route does, at any `top_k` and on real traces; and on the
//! paper's susan @ 4 KB cell the simulated winner never loses to
//! conventional bit selection.

use std::sync::{Arc, OnceLock};

use cache_sim::{BlockAddr, CacheConfig};
use gf2::PackedBasis;
use workloads::mibench::Susan;
use workloads::{Scale, Workload, WorkloadSuite};
use xorindex::search::{NeighborPool, PackedNeighborhood, Searcher};
use xorindex::{
    ConflictProfile, FrozenKernel, FunctionClass, HashFunction, ScaffoldCache, SearchAlgorithm,
    ShardedMemo,
};
use xorindex_serve::{
    AppId, IndexService, Registration, Request, Response, ServeError, WorkerPool,
};
use xorindex_verify::{verified_pick, SimStats, TraceReplayer, VerifiedOutcome};

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

/// `IndexService::optimize_verified` rebuilt the long way, with caches of
/// its own: the winner's whole neighbourhood materialized
/// (`run_with_neighborhood`, or one generation for other algorithms),
/// priced to completion (`estimate_neighborhood`) and sorted, the first
/// `top_k - 1` admissible candidates joining the winner's slate, which
/// [`verified_pick`] judges.
struct MaterializedRoute {
    kernel: Arc<FrozenKernel>,
    class: FunctionClass,
    set_bits: usize,
    scaffold: ScaffoldCache,
    replayer: TraceReplayer,
    baseline: OnceLock<SimStats>,
}

impl MaterializedRoute {
    fn new(
        profile: &ConflictProfile,
        cache: CacheConfig,
        class: FunctionClass,
        blocks: Arc<Vec<BlockAddr>>,
    ) -> Self {
        MaterializedRoute {
            kernel: Arc::new(FrozenKernel::new(profile)),
            class,
            set_bits: cache.set_bits(),
            scaffold: ScaffoldCache::new(),
            replayer: TraceReplayer::new(cache, blocks),
            baseline: OnceLock::new(),
        }
    }

    fn optimize_verified(&self, algorithm: SearchAlgorithm, top_k: usize) -> VerifiedOutcome {
        let profile = self.kernel.profile();
        let searcher = Searcher::new(profile, self.class, self.set_bits)
            .unwrap()
            .with_pool(NeighborPool::UnitsAndPairs)
            .with_kernel(Arc::clone(&self.kernel))
            .with_scaffold_cache(self.scaffold.clone())
            .with_threads(1);
        let (search, hood) = searcher.run_with_neighborhood(algorithm).unwrap();
        let top_k = top_k.max(1);
        let mut functions = vec![search.function.clone()];
        let mut estimates = vec![search.estimated_misses];
        if top_k > 1 {
            let hood = hood.unwrap_or_else(|| {
                let pool =
                    NeighborPool::UnitsAndPairs.packed_vectors(profile.hashed_bits(), profile);
                let winner = search.function.null_space().to_packed();
                PackedNeighborhood::generate(&winner, self.class, &pool)
            });
            let costs = searcher.engine().estimate_neighborhood(&hood);
            let mut scored: Vec<(u64, usize)> =
                costs.into_iter().enumerate().map(|(i, c)| (c, i)).collect();
            scored.sort_unstable();
            for (estimate, i) in scored {
                if functions.len() == top_k {
                    break;
                }
                let subspace = hood.candidates[i].basis.to_subspace();
                if let Ok(function) = HashFunction::from_null_space(&subspace, self.class) {
                    functions.push(function);
                    estimates.push(estimate);
                }
            }
        }
        verified_pick(&self.replayer, search, functions, estimates, &self.baseline).unwrap()
    }

    /// Asserts that the service's counters for `app` are this route's: no
    /// memo traffic, the same scaffold probes and the same replays.
    fn assert_stats_match(&self, service: &IndexService, app: AppId, label: &str) {
        let stats = service.stats(app).unwrap();
        assert_eq!(stats.memo, ShardedMemo::new().stats(), "{label}");
        assert_eq!(stats.scaffold, self.scaffold.stats(), "{label}");
        assert_eq!(stats.replay, self.replayer.replay_stats(), "{label}");
    }
}

fn verified_answer(
    service: &IndexService,
    app: AppId,
    algorithm: SearchAlgorithm,
    top_k: usize,
) -> VerifiedOutcome {
    match service.handle(Request::OptimizeVerified {
        app,
        algorithm,
        top_k,
    }) {
        Response::Verified(outcome) => outcome,
        other => panic!("expected Verified, got {other:?}"),
    }
}

#[test]
fn every_top_k_answers_as_the_materialized_route() {
    // `top_k` arrives from the wire uncapped: 0 and 1 mean the winner alone,
    // and one past the neighbourhood or `usize::MAX` mean all of it.
    const BITS: usize = 10;
    let cache = CacheConfig::builder()
        .size_bytes(4 << 4)
        .block_bytes(4)
        .associativity(1)
        .build()
        .unwrap();
    let blocks: Arc<Vec<BlockAddr>> = Arc::new(
        (0..300u64)
            .flat_map(|i| {
                [
                    BlockAddr((i % 5) * 16),
                    BlockAddr(0x100 + (i % 3) * 32),
                    BlockAddr(0x2A0 + (i % 7)),
                ]
            })
            .collect(),
    );
    let profile = ConflictProfile::from_blocks(blocks.iter().copied(), BITS, 16);
    let service = IndexService::new();
    for class in [
        FunctionClass::bit_selecting(),
        FunctionClass::permutation_based(2),
        FunctionClass::xor_unlimited(),
    ] {
        let app = service
            .register(
                Registration::new(profile.clone(), cache)
                    .with_class(class)
                    .with_shared_trace(Arc::clone(&blocks)),
            )
            .unwrap();
        let route = MaterializedRoute::new(&profile, cache, class, Arc::clone(&blocks));
        let (_, hood) = Searcher::new(&profile, class, cache.set_bits())
            .unwrap()
            .run_with_neighborhood(SearchAlgorithm::HillClimb)
            .unwrap();
        let lanes = hood.unwrap().len();
        assert!(lanes >= 3, "{class}: {lanes} neighbours");
        for top_k in [0, 1, 2, 3, lanes + 1, usize::MAX] {
            let answer = verified_answer(&service, app, SearchAlgorithm::HillClimb, top_k);
            let expected = route.optimize_verified(SearchAlgorithm::HillClimb, top_k);
            assert_eq!(answer, expected, "{class}, top_k = {top_k}");
        }
        // The exhaustive bit-selecting search carries no neighbourhood, so
        // its runners-up come from lanes generated around its winner.
        if class == FunctionClass::bit_selecting() {
            for top_k in [0, 3] {
                let exhaustive = SearchAlgorithm::OptimalBitSelect;
                let answer = verified_answer(&service, app, exhaustive, top_k);
                let expected = route.optimize_verified(exhaustive, top_k);
                assert_eq!(answer, expected, "{class}, exhaustive, top_k = {top_k}");
            }
        }
        route.assert_stats_match(&service, app, &format!("{class}"));
    }
}

#[test]
#[ignore = "slow in debug: every roster trace at 1/4/16 KB; CI runs it in release"]
fn real_trace_slates_match_the_materialized_route() {
    // Every roster data trace at 1/4/16 KB under both swept classes (n = 16,
    // `Scale::Tiny`): the cells perfbench's `design` draws from, which
    // include its `optimize` workload's 13 served applications. Each app
    // answers twice, the second time after an eviction as `optimize` runs
    // it, and its counters must end where the long route's do.
    let mut cells = 0;
    for workload in WorkloadSuite::all() {
        let trace = workload.data_trace(Scale::Tiny);
        for kb in [1u64, 4, 16] {
            let cache = CacheConfig::paper_cache(kb);
            let blocks: Arc<Vec<BlockAddr>> =
                Arc::new(trace.data_block_addresses(cache.block_bits()).collect());
            let profile = ConflictProfile::from_blocks(
                blocks.iter().copied(),
                16,
                cache.num_blocks() as usize,
            );
            for class in [
                FunctionClass::bit_selecting(),
                FunctionClass::xor_unlimited(),
            ] {
                let label = format!("{}@{kb}KB, class {class}", workload.name());
                let service = IndexService::new();
                let app = service
                    .register(
                        Registration::new(profile.clone(), cache)
                            .with_class(class)
                            .with_shared_trace(Arc::clone(&blocks)),
                    )
                    .unwrap();
                let route = MaterializedRoute::new(&profile, cache, class, Arc::clone(&blocks));
                for pass in 0..2 {
                    if pass > 0 {
                        service.evict(app).unwrap();
                        route.scaffold.clear();
                    }
                    let answer = service
                        .optimize_verified(app, SearchAlgorithm::HillClimb, 3)
                        .unwrap();
                    let expected = route.optimize_verified(SearchAlgorithm::HillClimb, 3);
                    assert_eq!(answer, expected, "{label}, pass {pass}");
                }
                route.assert_stats_match(&service, app, &label);
                cells += 1;
            }
        }
    }
    assert_eq!(cells, WorkloadSuite::all().len() * 6);
}
