//! End-to-end integration tests: workloads → profiling → search → simulation.
//!
//! These tests exercise the whole stack the way the experiment harness does,
//! but at tiny scale so they stay fast in debug builds.

use xorindex_repro::prelude::*;

/// Hashed-address width used throughout these tests. Twelve bits keeps the
/// hill climber's neighbourhood small enough for debug-mode test runs while
/// still covering every conflict in the tiny workloads' footprints.
const HASHED_BITS: usize = 12;

fn data_blocks(workload: &dyn Workload, cache: &CacheConfig) -> Vec<BlockAddr> {
    workload
        .data_trace(Scale::Tiny)
        .data_block_addresses(cache.block_bits())
        .collect()
}

fn optimize(
    blocks: &[BlockAddr],
    cache: CacheConfig,
    class: FunctionClass,
) -> xorindex_verify::OptimizationOutcome {
    Optimizer::builder()
        .cache(cache)
        .hashed_bits(HASHED_BITS)
        .function_class(class)
        .build()
        .optimize(blocks.iter().copied())
}

#[test]
fn fft_data_cache_conflicts_are_substantially_reduced() {
    let cache = CacheConfig::paper_cache(1);
    let workload = WorkloadSuite::by_name("fft").expect("fft exists");
    let blocks = data_blocks(workload.as_ref(), &cache);
    let outcome = optimize(&blocks, cache, FunctionClass::permutation_based(2));
    // The paper's fft row is its best data-cache result (69–82 % removed); at
    // tiny scale and 12 hashed bits we only require a substantial reduction.
    assert!(
        outcome.percent_misses_removed() > 20.0,
        "fft: only {:.1}% of misses removed",
        outcome.percent_misses_removed()
    );
    // The chosen function is implementable by the cheap hardware of Section 5.
    assert!(outcome.function.is_permutation_based());
    assert!(outcome.function.max_xor_inputs() <= 2);
}

#[test]
fn optimized_functions_with_reversion_never_lose() {
    let cache = CacheConfig::paper_cache(1);
    for name in ["dijkstra", "susan", "crc", "ucbqsort", "adpcm enc"] {
        let workload = WorkloadSuite::by_name(name).expect("known benchmark");
        let blocks = data_blocks(workload.as_ref(), &cache);
        let outcome = Optimizer::builder()
            .cache(cache)
            .hashed_bits(HASHED_BITS)
            .function_class(FunctionClass::permutation_based(2))
            .revert_if_worse(true)
            .build()
            .optimize(blocks.iter().copied());
        assert!(
            outcome.optimized_stats.misses <= outcome.baseline_stats.misses,
            "{name}: optimized {} > baseline {}",
            outcome.optimized_stats.misses,
            outcome.baseline_stats.misses
        );
    }
}

#[test]
fn estimator_ranks_functions_consistently_with_simulation() {
    // The profile-based estimate (Eq. 4) is a heuristic, but for the baseline
    // and the selected function it should order the two the same way the full
    // simulation does on conflict misses.
    let cache = CacheConfig::paper_cache(1);
    let workload = WorkloadSuite::by_name("blit").expect("blit exists");
    let trace = workload.data_trace(Scale::Tiny);
    let blocks: Vec<BlockAddr> = trace.data_block_addresses(cache.block_bits()).collect();

    let profile = ConflictProfile::from_blocks(
        blocks.iter().copied(),
        HASHED_BITS,
        cache.num_blocks() as usize,
    );
    let estimator = MissEstimator::new(&profile);
    let searcher = xorindex::search::Searcher::new(
        &profile,
        FunctionClass::permutation_based_unlimited(),
        cache.set_bits(),
    )
    .expect("valid geometry");
    let outcome = searcher
        .run(SearchAlgorithm::HillClimb)
        .expect("search runs");

    let conventional = HashFunction::conventional(HASHED_BITS, cache.set_bits()).unwrap();
    let est_base = estimator.estimate(&conventional).unwrap();
    let est_opt = estimator.estimate(&outcome.function).unwrap();
    assert!(est_opt <= est_base);

    // Simulate both and compare conflict misses in the same direction.
    let mut base_cache = Cache::new(cache, ModuloIndex::for_config(&cache)).with_classification();
    let base = base_cache.simulate_blocks(blocks.iter().copied());
    let mut opt_cache =
        Cache::new(cache, outcome.function.to_index_function()).with_classification();
    let opt = opt_cache.simulate_blocks(blocks.iter().copied());
    if est_opt < est_base {
        assert!(
            opt.misses <= base.misses,
            "estimator said better ({est_opt} < {est_base}) but simulation says {} > {}",
            opt.misses,
            base.misses
        );
    }
    // Compulsory misses never change with the index function.
    assert_eq!(base.compulsory_misses, opt.compulsory_misses);
}

#[test]
fn richer_function_classes_never_do_worse_on_estimates() {
    let cache = CacheConfig::paper_cache(1);
    let workload = WorkloadSuite::by_name("compress").expect("compress exists");
    let blocks = data_blocks(workload.as_ref(), &cache);
    let profile = ConflictProfile::from_blocks(
        blocks.iter().copied(),
        HASHED_BITS,
        cache.num_blocks() as usize,
    );
    let estimate = |class: FunctionClass| {
        xorindex::search::Searcher::new(&profile, class, cache.set_bits())
            .unwrap()
            .run(SearchAlgorithm::HillClimb)
            .unwrap()
            .estimated_misses
    };
    let baseline =
        xorindex::search::Searcher::new(&profile, FunctionClass::bit_selecting(), cache.set_bits())
            .unwrap()
            .baseline_estimate();
    let bitselect = estimate(FunctionClass::bit_selecting());
    let perm2 = estimate(FunctionClass::permutation_based(2));
    let perm_unlimited = estimate(FunctionClass::permutation_based_unlimited());
    // Every class starts from the conventional function, so no local optimum
    // is worse than the baseline estimate.
    assert!(bitselect <= baseline);
    assert!(perm2 <= baseline);
    assert!(perm_unlimited <= baseline);
    // The unlimited permutation-based climb always has at least the moves of
    // the 2-input climb available, and greedy descent over a superset of
    // moves cannot get stuck higher than the same path restricted to the
    // subset on this profile. Allow a small tolerance for tie-breaking noise.
    assert!(
        perm_unlimited as f64 <= perm2 as f64 * 1.05 + 1.0,
        "unlimited {perm_unlimited} vs 2-input {perm2}"
    );
}

#[test]
fn instruction_streams_benefit_like_the_paper_reports() {
    let cache = CacheConfig::paper_cache(1);
    let workload = WorkloadSuite::by_name("jpeg dec").expect("jpeg dec exists");
    let trace = workload.instruction_trace(Scale::Tiny);
    let blocks: Vec<BlockAddr> = trace
        .instruction_block_addresses(cache.block_bits())
        .collect();
    let outcome = Optimizer::builder()
        .cache(cache)
        .hashed_bits(HASHED_BITS)
        .function_class(FunctionClass::permutation_based(2))
        .revert_if_worse(true)
        .build()
        .optimize(blocks.iter().copied());
    // The loop/callee structure gives the index function something to fix; at
    // minimum the safety valve guarantees no regression.
    assert!(outcome.optimized_stats.misses <= outcome.baseline_stats.misses);
}

#[test]
fn evaluation_report_compares_all_classes_on_a_real_workload() {
    let cache = CacheConfig::paper_cache(1);
    let workload = WorkloadSuite::by_name("fir").expect("fir exists");
    let blocks = data_blocks(workload.as_ref(), &cache);
    let report = EvaluationReport::evaluate(
        workload.name(),
        cache,
        HASHED_BITS,
        &[
            FunctionClass::bit_selecting(),
            FunctionClass::permutation_based(2),
            FunctionClass::permutation_based_unlimited(),
        ],
        &blocks,
    );
    assert_eq!(report.rows().len(), 3);
    assert!(report.best_row().is_some());
    let text = report.to_string();
    assert!(text.contains("fir"));
    assert!(text.contains("permutation-based"));
}
