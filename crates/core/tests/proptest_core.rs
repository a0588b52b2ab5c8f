//! Property-based tests for the profiling / estimation / search pipeline.

use std::collections::HashMap;

use cache_sim::{BlockAddr, Cache, CacheConfig, LruStack, StackScan};
use gf2::{BitVec, Subspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{Scale, WorkloadSuite};
use xorindex::search::{
    NeighborCandidate, NeighborPool, Neighborhood, PackedNeighborhood, SearchAlgorithm,
    SearchOutcome, Searcher,
};
use xorindex::{
    BoundedCost, ConflictProfile, EstimationStrategy, EvalEngine, FrozenKernel, FunctionClass,
    HashFunction, MissEstimator, ProfileSummary,
};

/// Every side of Eq. 4 the [`MissEstimator`] oracle can enumerate.
const STRATEGIES: [EstimationStrategy; 3] = [
    EstimationStrategy::Auto,
    EstimationStrategy::EnumerateNullSpace,
    EstimationStrategy::ScanHistogram,
];

const HASHED_BITS: usize = 10;

/// A random block-address trace with a bounded footprint (so conflicts occur)
/// and bounded length (so debug-mode runs stay fast).
fn trace_strategy() -> impl Strategy<Value = Vec<BlockAddr>> {
    (4u64..=96, 20usize..400).prop_flat_map(|(footprint, len)| {
        proptest::collection::vec(
            (0..footprint).prop_map(|k| BlockAddr(k * 13 % (1 << HASHED_BITS))),
            len,
        )
    })
}

/// A small direct-mapped cache whose set count stays below the hashed width.
fn cache_strategy() -> impl Strategy<Value = CacheConfig> {
    (2u32..=6).prop_map(|set_bits| {
        CacheConfig::builder()
            .size_bytes(4u64 << set_bits)
            .block_bytes(4)
            .associativity(1)
            .build()
            .expect("valid geometry")
    })
}

fn profile_of(blocks: &[BlockAddr], cache: &CacheConfig) -> ConflictProfile {
    ConflictProfile::from_blocks(
        blocks.iter().copied(),
        HASHED_BITS,
        cache.num_blocks() as usize,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn profile_counters_are_consistent(blocks in trace_strategy(), cache in cache_strategy()) {
        let profile = profile_of(&blocks, &cache);
        let summary = profile.summary();
        prop_assert_eq!(summary.references, blocks.len() as u64);
        prop_assert_eq!(
            summary.compulsory + summary.capacity + summary.profiled,
            summary.references
        );
        // The histogram's total weight never exceeds the number of recorded
        // conflict vectors (zero-vector truncations are dropped).
        prop_assert!(profile.total_weight() <= summary.conflict_vectors);
        // Distinct first touches equal the footprint.
        let footprint: std::collections::HashSet<_> = blocks.iter().collect();
        prop_assert_eq!(summary.compulsory, footprint.len() as u64);
    }

    #[test]
    fn estimation_strategies_always_agree(blocks in trace_strategy(), cache in cache_strategy(), seed in any::<u64>()) {
        let profile = profile_of(&blocks, &cache);
        let mut rng = StdRng::seed_from_u64(seed);
        let matrix = gf2::random::random_full_rank_matrix(&mut rng, HASHED_BITS, cache.set_bits());
        let function = HashFunction::new(matrix).expect("full rank");
        let a = MissEstimator::new(&profile)
            .with_strategy(EstimationStrategy::EnumerateNullSpace)
            .estimate(&function)
            .expect("same geometry");
        let b = MissEstimator::new(&profile)
            .with_strategy(EstimationStrategy::ScanHistogram)
            .estimate(&function)
            .expect("same geometry");
        prop_assert_eq!(a, b);
    }

    #[test]
    fn estimate_upper_bounds_simulated_conflict_misses_for_the_profiled_function(
        blocks in trace_strategy(),
        cache in cache_strategy(),
        seed in any::<u64>(),
    ) {
        // Every simulated conflict miss of a direct-mapped cache contributes
        // at least one conflict vector inside the indexing function's null
        // space, so the Eq. 4 estimate can never be smaller than the
        // simulated conflict-miss count for that same function — the
        // conventional one the profile was gathered against, a random
        // full-rank one, a few random bit-selecting ones, and the hill
        // climb's pick in each class the system searches.
        use rand::seq::SliceRandom;
        let profile = profile_of(&blocks, &cache);
        let estimator = MissEstimator::new(&profile);
        let set_bits = cache.set_bits();
        let mut rng = StdRng::seed_from_u64(seed);
        let matrix = gf2::random::random_full_rank_matrix(&mut rng, HASHED_BITS, set_bits);
        let mut functions = vec![
            HashFunction::conventional(HASHED_BITS, set_bits).unwrap(),
            HashFunction::new(matrix).expect("full rank"),
        ];
        let mut bits: Vec<usize> = (0..HASHED_BITS).collect();
        for _ in 0..4 {
            bits.shuffle(&mut rng);
            functions.push(HashFunction::bit_selecting(HASHED_BITS, &bits[..set_bits]).unwrap());
        }
        for class in [
            FunctionClass::bit_selecting(),
            FunctionClass::permutation_based(2),
            FunctionClass::xor_unlimited(),
        ] {
            let searcher = Searcher::new(&profile, class, set_bits).unwrap();
            functions.push(searcher.run(SearchAlgorithm::HillClimb).unwrap().function);
        }
        for function in functions {
            let mut sim = Cache::new(cache, function.to_index_function()).with_classification();
            let simulated = sim.simulate_blocks(blocks.iter().copied()).conflict_misses;
            let estimate = estimator.estimate(&function).unwrap();
            prop_assert!(
                estimate >= simulated,
                "estimate {} < simulated conflict misses {} for {:?}",
                estimate,
                simulated,
                function
            );
        }
    }

    #[test]
    fn hill_climb_is_never_worse_than_the_conventional_estimate(
        blocks in trace_strategy(),
        cache in cache_strategy(),
    ) {
        let profile = profile_of(&blocks, &cache);
        for class in [
            FunctionClass::bit_selecting(),
            FunctionClass::permutation_based(2),
            FunctionClass::xor_unlimited(),
        ] {
            let searcher = Searcher::new(&profile, class, cache.set_bits()).unwrap();
            let outcome = searcher.run(SearchAlgorithm::HillClimb).unwrap();
            prop_assert!(outcome.estimated_misses <= outcome.baseline_estimate);
            prop_assert!(class.check(&outcome.function).is_ok());
            prop_assert_eq!(outcome.function.hashed_bits(), HASHED_BITS);
            prop_assert_eq!(outcome.function.set_bits(), cache.set_bits());
        }
    }

    #[test]
    fn optimal_bit_select_is_at_least_as_good_as_heuristic_bit_select(
        blocks in trace_strategy(),
        cache in cache_strategy(),
    ) {
        let profile = profile_of(&blocks, &cache);
        let searcher = Searcher::new(&profile, FunctionClass::bit_selecting(), cache.set_bits()).unwrap();
        let optimal = searcher.run(SearchAlgorithm::OptimalBitSelect).unwrap();
        let heuristic = searcher.run(SearchAlgorithm::HillClimb).unwrap();
        prop_assert!(optimal.estimated_misses <= heuristic.estimated_misses);
        prop_assert!(optimal.function.is_bit_selecting());
    }

    #[test]
    fn dense_profile_agrees_with_the_hashmap_histogram(
        blocks in trace_strategy(),
        cache in cache_strategy(),
    ) {
        let profile = profile_of(&blocks, &cache);
        let kernel = FrozenKernel::new(&profile);
        let (reference, _) =
            reference_profile(blocks.iter().copied(), HASHED_BITS, cache.num_blocks() as usize);
        prop_assert_eq!(kernel.hashed_bits(), profile.hashed_bits());
        prop_assert_eq!(kernel.profile().distinct_vectors(), reference.len());
        // Exhaustive point-lookup agreement over the whole hashed domain:
        // the kernel's coordinate table and the profile's binary search both
        // answer what the reference map holds.
        prop_assert!(kernel.has_weight_table());
        for v in 0..(1u64 << HASHED_BITS) {
            let expected = reference
                .get(&BitVec::from_u64(v, HASHED_BITS))
                .copied()
                .unwrap_or(0);
            prop_assert_eq!(kernel.misses_of(v), expected, "vector {}", v);
            prop_assert_eq!(profile.misses_of(v), expected, "vector {}", v);
        }
    }

    #[test]
    fn sliced_batch_pricing_is_bit_identical_to_scalar(
        blocks in trace_strategy(),
        cache in cache_strategy(),
        seed in any::<u64>(),
    ) {
        // Single, bounded and batch prices from the coordinate table all
        // match the oracle, for candidates of every dimension.
        let profile = profile_of(&blocks, &cache);
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(check_coordinate_pricing(&profile, &mut rng), Ok(()));
    }

    #[test]
    fn coordinate_pricing_matches_the_oracle_on_spans_below_and_at_full_width(
        seed in any::<u64>(),
        dim in 0usize..HASHED_BITS,
    ) {
        // Random profiles whose vectors span `dim < n` dimensions, and
        // random profiles spanning the whole space.
        let mut rng = StdRng::seed_from_u64(seed);
        for dim in [dim, HASHED_BITS] {
            let profile = random_span_profile(&mut rng, dim);
            let kernel = FrozenKernel::new(&profile);
            prop_assert_eq!(kernel.span().dim(), dim);
            prop_assert!(kernel.has_weight_table());
            for v in 0..(1u64 << HASHED_BITS) {
                prop_assert_eq!(kernel.misses_of(v), profile.misses_of(v), "vector {}", v);
            }
            prop_assert_eq!(check_coordinate_pricing(&profile, &mut rng), Ok(()));
        }
    }

    #[test]
    fn coset_neighborhood_pricing_is_bit_identical_to_scalar(
        blocks in trace_strategy(),
        cache in cache_strategy(),
    ) {
        let profile = profile_of(&blocks, &cache);
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(HASHED_BITS, &profile);
        for class in [
            FunctionClass::bit_selecting(),
            FunctionClass::permutation_based_unlimited(),
            FunctionClass::xor_unlimited(),
        ] {
            let parent = gf2::PackedBasis::standard_span(
                HASHED_BITS,
                cache.set_bits()..HASHED_BITS,
            );
            let nbhd = PackedNeighborhood::generate(&parent, class, &pool);
            let costs = EvalEngine::new(&profile).estimate_neighborhood(&nbhd);
            // Reference: every candidate priced alone by the oracle, on
            // every side of Eq. 4.
            for strategy in STRATEGIES {
                let estimator = MissEstimator::new(&profile).with_strategy(strategy);
                let reference: Vec<u64> =
                    nbhd.bases().map(|b| estimator.estimate_packed(b)).collect();
                prop_assert_eq!(
                    &costs, &reference,
                    "class {}, strategy {:?}", class, strategy
                );
            }
        }
    }

    #[test]
    fn engine_estimates_are_bit_identical_to_the_estimator(
        blocks in trace_strategy(),
        cache in cache_strategy(),
        seed in any::<u64>(),
    ) {
        let profile = profile_of(&blocks, &cache);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut engine = EvalEngine::new(&profile);
        for _ in 0..3 {
            let matrix =
                gf2::random::random_full_rank_matrix(&mut rng, HASHED_BITS, cache.set_bits());
            let ns = matrix.null_space();
            let cost = engine.estimate_packed(&ns.to_packed());
            for strategy in STRATEGIES {
                let estimator = MissEstimator::new(&profile).with_strategy(strategy);
                prop_assert_eq!(
                    cost,
                    estimator.estimate_null_space(&ns),
                    "strategy {:?}", strategy
                );
            }
        }
    }

    #[test]
    fn engine_neighborhood_batches_match_per_candidate_estimates(
        blocks in trace_strategy(),
        cache in cache_strategy(),
    ) {
        let profile = profile_of(&blocks, &cache);
        let estimator = MissEstimator::new(&profile);
        for class in [
            FunctionClass::bit_selecting(),
            FunctionClass::permutation_based_unlimited(),
            FunctionClass::xor_unlimited(),
        ] {
            let searcher = Searcher::new(&profile, class, cache.set_bits()).unwrap();
            let pool = NeighborPool::UnitsAndPairs.packed_vectors(HASHED_BITS, &profile);
            let packed = PackedNeighborhood::generate(&searcher.conventional_packed(), class, &pool);
            let costs = searcher.engine().estimate_neighborhood(&packed);
            let nbhd = packed.to_neighborhood();
            prop_assert_eq!(costs.len(), nbhd.len());
            for (candidate, &cost) in nbhd.candidates.iter().zip(&costs) {
                prop_assert_eq!(
                    cost,
                    estimator.estimate_null_space(&candidate.subspace),
                    "class {}", class
                );
            }
        }
    }
}

/// A profile whose recorded vectors span a random `dim`-dimensional subspace
/// of the hashed space: the subspace's basis rows plus random members, with
/// random weights.
fn random_span_profile(rng: &mut StdRng, dim: usize) -> ConflictProfile {
    let span = gf2::random::random_subspace(rng, HASHED_BITS, dim).to_packed();
    let mut vectors: Vec<u64> = span.rows().to_vec();
    for _ in 0..24 {
        let pick = rng.gen_range(0..1u64 << dim);
        let member = span
            .rows()
            .iter()
            .enumerate()
            .filter(|&(k, _)| pick >> k & 1 == 1)
            .fold(0, |v, (_, &row)| v ^ row);
        vectors.push(member);
    }
    vectors.retain(|&v| v != 0);
    vectors.sort_unstable();
    vectors.dedup();
    let entries = vectors
        .into_iter()
        .map(|v| (v, rng.gen_range(1..100u64)))
        .collect();
    ConflictProfile::from_parts(HASHED_BITS, 64, entries).expect("canonical entries")
}

/// Pins the kernel's `cost`, `cost_bounded` (at bounds 0, the cost, one
/// above it and `u64::MAX`) and the engine's batch pricing against the
/// oracle under every strategy, for random candidates of every dimension
/// plus the conventional chain. Kept outside the `proptest!` macro (its
/// expansion depth scales with statement count).
fn check_coordinate_pricing(profile: &ConflictProfile, rng: &mut StdRng) -> Result<(), String> {
    let mut bases: Vec<gf2::PackedBasis> = (0..12)
        .map(|i| gf2::random::random_subspace(rng, HASHED_BITS, i % (HASHED_BITS + 1)).to_packed())
        .collect();
    bases.extend(
        (0..HASHED_BITS).map(|m| gf2::PackedBasis::standard_span(HASHED_BITS, m..HASHED_BITS)),
    );
    let kernel = FrozenKernel::new(profile);
    let costs: Vec<u64> = bases.iter().map(|b| kernel.cost(b)).collect();
    for strategy in STRATEGIES {
        let estimator = MissEstimator::new(profile).with_strategy(strategy);
        let oracle: Vec<u64> = bases.iter().map(|b| estimator.estimate_packed(b)).collect();
        if costs != oracle {
            return Err(format!("{strategy:?}: cost {costs:?} != oracle {oracle:?}"));
        }
    }
    for (basis, &cost) in bases.iter().zip(&costs) {
        for bound in [0, cost, cost + 1, u64::MAX] {
            let expected = if cost < bound {
                BoundedCost::Exact(cost)
            } else {
                BoundedCost::AtLeast(bound)
            };
            let got = kernel.cost_bounded(basis, bound);
            if got != expected {
                return Err(format!(
                    "{basis:?} at bound {bound}: {got:?} != {expected:?}"
                ));
            }
        }
    }
    let batch = EvalEngine::new(profile).estimate_batch(&bases);
    if batch != costs {
        return Err(format!("estimate_batch {batch:?} != cost {costs:?}"));
    }
    Ok(())
}

/// The profiler as it stood while its histogram was a `HashMap<BitVec, u64>`,
/// verbatim: the Fig. 1 LRU-stack walk collecting each access's vectors,
/// then truncating and recording them one key at a time. `from_blocks` must
/// reproduce its histogram and every summary counter exactly.
fn reference_profile<I>(
    blocks: I,
    hashed_bits: usize,
    capacity_blocks: usize,
) -> (HashMap<BitVec, u64>, ProfileSummary)
where
    I: IntoIterator<Item = BlockAddr>,
{
    let mut stack = LruStack::new();
    let mut histogram: HashMap<BitVec, u64> = HashMap::new();
    let mut summary = ProfileSummary::default();
    for block in blocks {
        summary.references += 1;
        let x = block.as_u64();
        let mut vectors: Vec<u64> = Vec::new();
        let scan = stack.access_scan(x, capacity_blocks, |y| vectors.push(x ^ y));
        match scan {
            StackScan::Cold => summary.compulsory += 1,
            StackScan::Beyond => summary.capacity += 1,
            StackScan::Within { .. } => {
                summary.profiled += 1;
                for v in vectors {
                    summary.conflict_vectors += 1;
                    let key = BitVec::from_u64(v, hashed_bits);
                    // The zero vector can only arise from truncation of
                    // high-order bits; it never represents an avoidable
                    // conflict, so it is not recorded.
                    if !key.is_zero() {
                        *histogram.entry(key).or_insert(0) += 1;
                    }
                }
            }
        }
    }
    (histogram, summary)
}

/// Hashed widths the profiling oracle covers, both ends of `1..=64`
/// included.
const PROFILE_WIDTHS: [usize; 7] = [1, 8, 12, 16, 20, 26, 64];

/// A width, a capacity in `1..=4096` blocks (half the time no larger than
/// the largest footprint, so reuses also fall beyond it), and a trace over a
/// small footprint (so reuses conflict) whose blocks carry random bits above
/// the width, plus `u64::MAX` — so conflict vectors truncate to zero and
/// alias. A block's in-width bits are a small offset (so vectors coincide),
/// optionally plus one random in-width bit or a random in-width word, so
/// vectors fall on both sides of the profiler's `2^16`-slot flat table.
fn profiling_case_strategy() -> impl Strategy<Value = (usize, usize, Vec<BlockAddr>)> {
    (
        0..PROFILE_WIDTHS.len(),
        1usize..=4096,
        any::<bool>(),
        1usize..=40,
        0usize..300,
        any::<u64>(),
    )
        .prop_map(|(w, capacity, small, footprint, len, seed)| {
            let width = PROFILE_WIDTHS[w];
            let capacity = if small { 1 + capacity % 40 } else { capacity };
            let mut rng = StdRng::seed_from_u64(seed);
            let in_width = |rng: &mut StdRng| {
                let offset = rng.gen_range(0..64u64);
                let spread = match rng.gen_range(0..3u32) {
                    0 => 0,
                    1 => 1 << rng.gen_range(0..width),
                    _ => rng.gen::<u64>(),
                };
                offset | (spread & (u64::MAX >> (64 - width)))
            };
            let blocks: Vec<u64> = (0..footprint)
                .map(|_| match rng.gen_range(0..8u32) {
                    0 => u64::MAX,
                    1..=3 => in_width(&mut rng),
                    _ => {
                        in_width(&mut rng) | rng.gen::<u64>().checked_shl(width as u32).unwrap_or(0)
                    }
                })
                .collect();
            let trace = (0..len)
                .map(|_| BlockAddr(blocks[rng.gen_range(0..footprint)]))
                .collect();
            (width, capacity, trace)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn profile_entries_and_counters_match_the_reference_walk(
        (width, capacity, blocks) in profiling_case_strategy(),
    ) {
        let profile = ConflictProfile::from_blocks(blocks.iter().copied(), width, capacity);
        let (reference, summary) = reference_profile(blocks.iter().copied(), width, capacity);
        let mut expected: Vec<(u64, u64)> =
            reference.iter().map(|(v, &w)| (v.as_u64(), w)).collect();
        expected.sort_unstable();
        prop_assert_eq!(profile.entries(), &expected[..], "width {}, capacity {}", width, capacity);
        prop_assert_eq!(profile.summary(), summary, "width {}, capacity {}", width, capacity);
    }
}

/// Real traces against the reference walk: every `WorkloadSuite::all()`
/// data trace at 1, 4 and 16 KB, 16 hashed bits. Proptest traces are short;
/// only real ones push a 4,097-block window through thousands of evictions.
/// Slow in debug builds; CI runs it in release.
#[test]
#[ignore = "real traces; run with --release --include-ignored"]
fn real_trace_profiles_match_the_reference_walk() {
    for workload in WorkloadSuite::all() {
        let trace = workload.data_trace(Scale::Tiny);
        for kb in [1u64, 4, 16] {
            let config = CacheConfig::paper_cache(kb);
            let blocks: Vec<BlockAddr> = trace.data_block_addresses(config.block_bits()).collect();
            let capacity = config.num_blocks() as usize;
            let profile = ConflictProfile::from_blocks(blocks.iter().copied(), 16, capacity);
            let (reference, summary) = reference_profile(blocks.iter().copied(), 16, capacity);
            let mut expected: Vec<(u64, u64)> =
                reference.iter().map(|(v, &w)| (v.as_u64(), w)).collect();
            expected.sort_unstable();
            let cell = format!("{}@{kb}KB", workload.name());
            assert_eq!(profile.entries(), &expected[..], "{cell}");
            assert_eq!(profile.summary(), summary, "{cell}");
        }
    }
}

/// The pre-refactor (PR 2) neighbourhood generation, verbatim: heap-allocated
/// `Subspace` candidates, full Gaussian re-canonicalization per extension, and
/// a `HashSet<Subspace>` dedup. The packed generation must reproduce its
/// output exactly — same candidate set, same deterministic order, same
/// hyperplane/direction decomposition.
fn reference_neighborhood(
    null_space: &Subspace,
    class: FunctionClass,
    pool: &[BitVec],
) -> Neighborhood {
    let n = null_space.ambient_width();
    let m = n - null_space.dim();
    if class == FunctionClass::BitSelecting {
        return reference_bit_select_neighborhood(null_space);
    }
    let admissible = |candidate: &Subspace| match class {
        FunctionClass::BitSelecting => candidate.basis().iter().all(|b| b.weight() == 1),
        FunctionClass::Xor { .. } => true,
        FunctionClass::PermutationBased { .. } => candidate.admits_permutation_based_function(m),
    };
    let mut seen: std::collections::HashSet<Subspace> = std::collections::HashSet::new();
    let mut hyperplanes = Vec::new();
    let mut candidates = Vec::new();
    for hyperplane in null_space.hyperplanes() {
        let hyperplane_index = hyperplanes.len();
        let mut used = false;
        for &v in pool {
            if null_space.contains(v) {
                continue;
            }
            let candidate = hyperplane.extended(v);
            if candidate == *null_space || seen.contains(&candidate) {
                continue;
            }
            if admissible(&candidate) {
                seen.insert(candidate.clone());
                candidates.push(NeighborCandidate {
                    hyperplane: hyperplane_index,
                    direction: v,
                    subspace: candidate,
                });
                used = true;
            }
        }
        if used {
            hyperplanes.push(hyperplane);
        }
    }
    Neighborhood {
        hyperplanes,
        candidates,
    }
}

/// The pre-refactor structural bit-select neighbourhood, verbatim.
fn reference_bit_select_neighborhood(null_space: &Subspace) -> Neighborhood {
    let n = null_space.ambient_width();
    let excluded: Vec<usize> = null_space
        .basis()
        .iter()
        .filter_map(|b| {
            if b.weight() == 1 {
                b.trailing_bit()
            } else {
                None
            }
        })
        .collect();
    if excluded.len() != null_space.dim() {
        return Neighborhood {
            hyperplanes: Vec::new(),
            candidates: Vec::new(),
        };
    }
    let selected: Vec<usize> = (0..n).filter(|i| !excluded.contains(i)).collect();
    let mut hyperplanes = Vec::new();
    let mut candidates = Vec::new();
    for &drop in &excluded {
        let retained: Vec<usize> = excluded.iter().copied().filter(|&b| b != drop).collect();
        let hyperplane_index = hyperplanes.len();
        hyperplanes.push(Subspace::standard_span(n, retained.iter().copied()));
        for &add in &selected {
            let mut new_excluded = retained.clone();
            new_excluded.push(add);
            candidates.push(NeighborCandidate {
                hyperplane: hyperplane_index,
                direction: BitVec::unit(add, n),
                subspace: Subspace::standard_span(n, new_excluded),
            });
        }
    }
    Neighborhood {
        hyperplanes,
        candidates,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_hill_climb_matches_the_reference_implementation(
        blocks in trace_strategy(),
        cache in cache_strategy(),
    ) {
        let profile = profile_of(&blocks, &cache);
        let set_bits = cache.set_bits();
        for class in [
            FunctionClass::bit_selecting(),
            FunctionClass::permutation_based(2),
            FunctionClass::xor_unlimited(),
        ] {
            let reference = reference_engine_hill_climb(&profile, class, set_bits);
            let searcher = Searcher::new(&profile, class, set_bits).unwrap();
            let outcome = searcher.run(SearchAlgorithm::HillClimb).unwrap();
            assert_matches_reference(&outcome, &reference, &format!("class {class}"));
        }
    }

    #[test]
    fn search_outcomes_are_estimation_strategy_independent(
        blocks in trace_strategy(),
        cache in cache_strategy(),
    ) {
        // Each algorithm's reported winner and baseline costs must be what
        // the oracle computes on either side of Eq. 4.
        let profile = profile_of(&blocks, &cache);
        let searches = [
            (FunctionClass::xor_unlimited(), SearchAlgorithm::HillClimb),
            (FunctionClass::bit_selecting(), SearchAlgorithm::OptimalBitSelect),
        ];
        for (class, algorithm) in searches {
            let outcome = Searcher::new(&profile, class, cache.set_bits())
                .unwrap()
                .run(algorithm)
                .unwrap();
            let conventional = HashFunction::conventional(HASHED_BITS, cache.set_bits()).unwrap();
            for strategy in STRATEGIES {
                let estimator = MissEstimator::new(&profile).with_strategy(strategy);
                prop_assert_eq!(
                    estimator.estimate(&outcome.function).unwrap(),
                    outcome.estimated_misses,
                    "{:?}, strategy {:?}", algorithm, strategy
                );
                prop_assert_eq!(
                    estimator.estimate(&conventional).unwrap(),
                    outcome.baseline_estimate,
                    "{:?}, strategy {:?}", algorithm, strategy
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pre-refactor (PR 2, Subspace-native) search algorithms, verbatim except
// that they price through the `MissEstimator` oracle. They run on the
// verbatim reference neighbourhood generation above, price every candidate
// exactly, and count every pricing they perform — the work counter of an
// exhaustively pricing engine that caches nothing. The packed-native
// algorithms must reach the same function, estimate, baseline and step
// count, with no more evaluations (bounded pricing leaves abandoned
// candidates uncounted).
// ---------------------------------------------------------------------------

/// The reference searches' pricing: the [`MissEstimator`] oracle plus the
/// number of pricings it has performed, repeats included.
struct OraclePricer<'p> {
    estimator: MissEstimator<'p>,
    pricings: u64,
}

impl<'p> OraclePricer<'p> {
    fn new(profile: &'p ConflictProfile) -> Self {
        OraclePricer {
            estimator: MissEstimator::new(profile),
            pricings: 0,
        }
    }

    fn price(&mut self, ns: &Subspace) -> u64 {
        self.pricings += 1;
        self.estimator.estimate_null_space(ns)
    }

    fn evaluations(&self) -> u64 {
        self.pricings
    }
}

fn reference_conventional(n: usize, set_bits: usize) -> Subspace {
    Subspace::standard_span(n, set_bits..n)
}

/// The Subspace-native hill climb, verbatim, from the conventional null
/// space.
fn reference_engine_hill_climb(
    profile: &ConflictProfile,
    class: FunctionClass,
    set_bits: usize,
) -> SearchOutcome {
    let n = profile.hashed_bits();
    let mut pricer = OraclePricer::new(profile);
    let pool = NeighborPool::UnitsAndPairs.vectors(n, profile);
    let start = reference_conventional(n, set_bits);
    let start_function = HashFunction::from_null_space(&start, class).unwrap();
    let baseline_estimate = pricer.price(&start);
    let evaluations_before = pricer.evaluations();
    let mut current = start;
    let mut best_cost = pricer.price(&current);
    let mut best_function = start_function;
    let mut steps: u64 = 0;
    loop {
        let nbhd = reference_neighborhood(&current, class, &pool);
        let costs: Vec<u64> = nbhd.iter_subspaces().map(|ns| pricer.price(ns)).collect();
        let mut order: Vec<usize> = (0..nbhd.candidates.len()).collect();
        order.sort_by_key(|&i| costs[i]);
        let mut moved = false;
        for i in order {
            if costs[i] >= best_cost {
                break;
            }
            let ns = &nbhd.candidates[i].subspace;
            if let Ok(function) = HashFunction::from_null_space(ns, class) {
                current = ns.clone();
                best_cost = costs[i];
                best_function = function;
                steps += 1;
                moved = true;
                break;
            }
        }
        if !moved {
            break;
        }
    }
    SearchOutcome {
        function: best_function,
        estimated_misses: best_cost,
        baseline_estimate,
        evaluations: pricer.evaluations() - evaluations_before,
        steps,
    }
}

/// PR 2's `optimal_bit_select`, verbatim on the Subspace path.
fn reference_engine_optimal_bit_select(
    profile: &ConflictProfile,
    set_bits: usize,
) -> SearchOutcome {
    fn next_combination(combo: &mut [usize], n: usize) -> bool {
        let k = combo.len();
        let mut i = k;
        while i > 0 {
            i -= 1;
            if combo[i] < n - (k - i) {
                combo[i] += 1;
                for j in (i + 1)..k {
                    combo[j] = combo[j - 1] + 1;
                }
                return true;
            }
        }
        false
    }
    const CHUNK: usize = 4096;
    let n = profile.hashed_bits();
    let m = set_bits;
    let mut pricer = OraclePricer::new(profile);
    let baseline_estimate = pricer.price(&reference_conventional(n, m));
    let mut best: Option<(u64, Vec<usize>)> = None;
    let mut evaluations = 0u64;
    let mut selection: Vec<usize> = (0..m).collect();
    let mut exhausted = false;
    while !exhausted {
        let mut selections: Vec<Vec<usize>> = Vec::with_capacity(CHUNK);
        let mut candidates: Vec<Subspace> = Vec::with_capacity(CHUNK);
        while selections.len() < CHUNK {
            let excluded = (0..n).filter(|i| !selection.contains(i));
            candidates.push(Subspace::standard_span(n, excluded));
            selections.push(selection.clone());
            if !next_combination(&mut selection, n) {
                exhausted = true;
                break;
            }
        }
        let costs: Vec<u64> = candidates.iter().map(|ns| pricer.price(ns)).collect();
        evaluations += candidates.len() as u64;
        for (sel, cost) in selections.into_iter().zip(costs) {
            let improves = match &best {
                Some((best_cost, _)) => cost < *best_cost,
                None => true,
            };
            if improves {
                best = Some((cost, sel));
            }
        }
    }
    let (cost, sel) = best.expect("at least one combination exists");
    SearchOutcome {
        function: HashFunction::bit_selecting(n, &sel).unwrap(),
        estimated_misses: cost,
        baseline_estimate,
        evaluations,
        steps: 0,
    }
}

/// A raw direction list aimed at the cases per-hyperplane coset dedup
/// decides: the zero vector and members of the parent (never neighbours),
/// repeated directions, and pairs `v`, `v ⊕ p` with `p` in the parent — the
/// same candidate under exactly the hyperplanes that contain `p`, distinct
/// ones under the rest.
fn coset_edge_directions(rng: &mut StdRng, parent: &Subspace) -> Vec<BitVec> {
    use rand::Rng;
    let n = parent.ambient_width();
    let member = |rng: &mut StdRng| {
        parent
            .basis()
            .iter()
            .filter(|_| rng.gen::<bool>())
            .fold(BitVec::zero(n), |acc, &row| acc ^ row)
    };
    let mut directions = vec![BitVec::zero(n)];
    directions.extend(parent.basis().iter().copied());
    for _ in 0..8 {
        let v = gf2::random::random_nonzero_vector(rng, n);
        let p = member(rng);
        directions.extend([v, v ^ p, v]);
    }
    directions.push(member(rng));
    directions
}

/// Asserts `packed` equals the reference field for field — same candidates,
/// same order, same hyperplane/direction decomposition — and that no
/// candidate's canonical key repeats, within a hyperplane or across them.
fn assert_matches_reference_neighborhood(
    packed: &Neighborhood,
    reference: &Neighborhood,
    label: &str,
) {
    assert_eq!(packed, reference, "{label}");
    let keys: std::collections::HashSet<_> = packed
        .packed_candidates()
        .map(|basis| basis.canonical_key())
        .collect();
    assert_eq!(keys.len(), packed.len(), "{label}: repeated candidate");
}

/// Width of the wide-parent case: the hybrid-profile regime.
const WIDE_BITS: usize = 26;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn packed_neighborhood_matches_the_subspace_reference(
        blocks in trace_strategy(),
        cache in cache_strategy(),
        seed in any::<u64>(),
        heaviest in 1usize..=12,
    ) {
        let profile = profile_of(&blocks, &cache);
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = HASHED_BITS - cache.set_bits();
        for class in [
            FunctionClass::bit_selecting(),
            FunctionClass::permutation_based_unlimited(),
            FunctionClass::permutation_based(2),
            FunctionClass::xor_unlimited(),
        ] {
            // The conventional start, a random subspace (possibly not even
            // admissible for the class) and a random coordinate subspace all
            // must decompose identically.
            let random_coordinate = {
                use rand::seq::SliceRandom;
                let mut bits: Vec<usize> = (0..HASHED_BITS).collect();
                bits.shuffle(&mut rng);
                Subspace::standard_span(HASHED_BITS, bits[cache.set_bits()..].to_vec())
            };
            let parents = [
                reference_conventional(HASHED_BITS, cache.set_bits()),
                gf2::random::random_subspace(&mut rng, HASHED_BITS, dim),
                random_coordinate,
            ];
            for parent in parents {
                let edge = coset_edge_directions(&mut rng, &parent);
                let pools = [
                    NeighborPool::UnitsAndPairs.vectors(HASHED_BITS, &profile),
                    NeighborPool::UnitsPairsAndProfile(heaviest).vectors(HASHED_BITS, &profile),
                    NeighborPool::Custom(edge.clone()).vectors(HASHED_BITS, &profile),
                    // Undeduplicated, zero included, straight into generation.
                    edge,
                ];
                for (p, pool) in pools.iter().enumerate() {
                    let packed_pool: Vec<u64> = pool.iter().map(|v| v.as_u64()).collect();
                    let packed =
                        PackedNeighborhood::generate(&parent.to_packed(), class, &packed_pool);
                    assert_matches_reference_neighborhood(
                        &packed.to_neighborhood(),
                        &reference_neighborhood(&parent, class, pool),
                        &format!("class {class}, pool {p}, parent {parent}"),
                    );
                }
            }
        }

        // One wide parent, through the `Subspace` boundary entry point.
        let wide_profile = ConflictProfile::from_blocks(
            blocks.iter().copied(),
            WIDE_BITS,
            cache.num_blocks() as usize,
        );
        let wide_parent = gf2::random::random_subspace(&mut rng, WIDE_BITS, 4);
        let mut wide_pool = NeighborPool::UnitsPairsAndProfile(heaviest)
            .vectors(WIDE_BITS, &wide_profile);
        wide_pool.extend(coset_edge_directions(&mut rng, &wide_parent));
        for class in [
            FunctionClass::permutation_based_unlimited(),
            FunctionClass::xor_unlimited(),
        ] {
            assert_matches_reference_neighborhood(
                &xorindex::search::neighborhood(&wide_parent, class, &wide_pool),
                &reference_neighborhood(&wide_parent, class, &wide_pool),
                &format!("n = {WIDE_BITS}, class {class}, parent {wide_parent}"),
            );
        }
    }
}

/// Real traces against the search oracles: every `WorkloadSuite::all()`
/// data trace at 1 and 4 KB (16 hashed bits), climbed under unlimited XOR
/// and 2-input permutation-based indexing. At every step the generated
/// neighbourhood must equal [`reference_neighborhood`], and every lane's
/// price under the incumbent must be the [`MissEstimator`] cost of its
/// materialized basis when that is below the incumbent, `AtLeast` the
/// incumbent otherwise. The climb this test walks must end where
/// `Searcher::run` does. Proptest profiles are small; only real ones reach
/// 2,047-entry histograms and neighbourhoods of 11–19 thousand lanes.
/// Slow in debug builds; CI runs it in release.
#[test]
#[ignore = "real traces; run with --release --include-ignored"]
fn real_trace_climbs_match_the_search_oracles() {
    use xorindex::search::SearchAlgorithm;
    for workload in WorkloadSuite::all() {
        let trace = workload.data_trace(Scale::Tiny);
        for kb in [1u64, 4] {
            let config = CacheConfig::paper_cache(kb);
            let blocks = trace.data_block_addresses(config.block_bits());
            let profile = ConflictProfile::from_blocks(blocks, 16, config.num_blocks() as usize);
            let estimator = MissEstimator::new(&profile);
            let pool = NeighborPool::UnitsAndPairs.vectors(16, &profile);
            let packed_pool: Vec<u64> = pool.iter().map(|v| v.as_u64()).collect();
            for class in [
                FunctionClass::xor_unlimited(),
                FunctionClass::permutation_based(2),
            ] {
                let cell = format!("{}@{kb}KB, class {class}", workload.name());
                let searcher = Searcher::new(&profile, class, config.set_bits()).unwrap();
                let mut engine = searcher.engine().with_threads(1);
                let mut current = searcher.conventional_packed();
                let mut incumbent = estimator.estimate_packed(&current);
                let mut steps = 0u64;
                loop {
                    let nbhd = PackedNeighborhood::generate(&current, class, &packed_pool);
                    assert_eq!(
                        nbhd.to_neighborhood(),
                        reference_neighborhood(&current.to_subspace(), class, &pool),
                        "{cell}, step {steps}"
                    );
                    let priced = engine.estimate_neighborhood_bounded(&nbhd, incumbent);
                    assert_eq!(priced.len(), nbhd.len(), "{cell}, step {steps}");
                    let mut below = Vec::new();
                    for (i, (basis, &cost)) in nbhd.bases().zip(&priced).enumerate() {
                        let truth = estimator.estimate_packed(basis);
                        if truth < incumbent {
                            assert_eq!(
                                cost,
                                BoundedCost::Exact(truth),
                                "{cell}, step {steps}, lane {i}"
                            );
                            below.push((truth, i));
                        } else {
                            assert_eq!(
                                cost,
                                BoundedCost::AtLeast(incumbent),
                                "{cell}, step {steps}, lane {i}"
                            );
                        }
                    }
                    below.sort_unstable();
                    let next = below.into_iter().find(|&(_, i)| {
                        HashFunction::from_null_space(
                            &nbhd.candidates[i].basis.to_subspace(),
                            class,
                        )
                        .is_ok()
                    });
                    let Some((cost, i)) = next else { break };
                    current = nbhd.candidates[i].basis.clone();
                    incumbent = cost;
                    steps += 1;
                }
                let outcome = searcher.run(SearchAlgorithm::HillClimb).unwrap();
                assert_eq!(outcome.function.null_space().to_packed(), current, "{cell}");
                assert_eq!(outcome.estimated_misses, incumbent, "{cell}");
                assert_eq!(outcome.steps, steps, "{cell}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn permutation_lanes_are_exactly_the_admissible_xor_lanes(
        seed in any::<u64>(),
        dim in 1usize..=7,
        extra in 0usize..12,
    ) {
        // Eq. 5 is decided per lane from its hyperplane, before any basis
        // exists. The permutation-based neighbourhood must be the unlimited
        // one with exactly the candidates `admits_permutation_based` rejects
        // on their materialized bases taken out, in the same order.
        let mut rng = StdRng::seed_from_u64(seed);
        let m = HASHED_BITS - dim;
        let parent = gf2::random::random_subspace(&mut rng, HASHED_BITS, dim).to_packed();
        let empty = ConflictProfile::from_blocks(std::iter::empty(), HASHED_BITS, 4);
        let mut pool = NeighborPool::UnitsAndPairs.packed_vectors(HASHED_BITS, &empty);
        pool.extend(
            (0..extra).map(|_| gf2::random::random_nonzero_vector(&mut rng, HASHED_BITS).as_u64()),
        );
        let unlimited = PackedNeighborhood::generate(&parent, FunctionClass::xor_unlimited(), &pool);
        let permutation = PackedNeighborhood::generate(
            &parent,
            FunctionClass::permutation_based_unlimited(),
            &pool,
        );
        let admissible: Vec<(u64, &gf2::PackedBasis)> = unlimited
            .candidates
            .iter()
            .filter(|c| c.basis.admits_permutation_based(m))
            .map(|c| (c.direction, &c.basis))
            .collect();
        let kept: Vec<(u64, &gf2::PackedBasis)> = permutation
            .candidates
            .iter()
            .map(|c| (c.direction, &c.basis))
            .collect();
        prop_assert_eq!(kept, admissible);
        for c in &permutation.candidates {
            prop_assert_eq!(&permutation.hyperplanes[c.hyperplane].extended(c.direction), &c.basis);
        }
    }
}

/// The packed-native search must reach the reference's function, estimate,
/// baseline and step count, completing no more pricings than the reference's
/// exhaustive pricing performs.
fn assert_matches_reference(outcome: &SearchOutcome, reference: &SearchOutcome, label: &str) {
    assert_eq!(&outcome.function, &reference.function, "{label}");
    assert_eq!(
        outcome.estimated_misses, reference.estimated_misses,
        "{label}"
    );
    assert_eq!(
        outcome.baseline_estimate, reference.baseline_estimate,
        "{label}"
    );
    assert_eq!(outcome.steps, reference.steps, "{label}");
    assert!(
        outcome.evaluations <= reference.evaluations,
        "{label}: {} evaluations, reference priced {}",
        outcome.evaluations,
        reference.evaluations
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn both_algorithms_match_the_pre_refactor_path_bit_for_bit(
        blocks in trace_strategy(),
        cache in cache_strategy(),
    ) {
        // The references price every candidate exactly; the searches price
        // under the incumbent bound. Matching outcomes therefore also pin
        // that bounded pricing never changes either algorithm's decisions,
        // and each reported estimate is the exact Eq. 4 price of the
        // function found.
        let profile = profile_of(&blocks, &cache);
        let set_bits = cache.set_bits();
        let estimator = MissEstimator::new(&profile);
        let exact = |outcome: &SearchOutcome| {
            estimator.estimate_null_space(&outcome.function.null_space())
        };

        // Hill climbing, every class.
        for class in [
            FunctionClass::bit_selecting(),
            FunctionClass::permutation_based(2),
            FunctionClass::xor_unlimited(),
        ] {
            let reference = reference_engine_hill_climb(&profile, class, set_bits);
            let searcher = Searcher::new(&profile, class, set_bits).unwrap();
            let outcome = searcher.run(SearchAlgorithm::HillClimb).unwrap();
            assert_matches_reference(&outcome, &reference, &format!("hill climb, class {class}"));
            prop_assert_eq!(outcome.estimated_misses, exact(&outcome), "hill climb, class {}", class);
        }

        // Exhaustive bit selection prices every combination exactly.
        let reference = reference_engine_optimal_bit_select(&profile, set_bits);
        let searcher = Searcher::new(&profile, FunctionClass::bit_selecting(), set_bits).unwrap();
        let outcome = searcher.run(SearchAlgorithm::OptimalBitSelect).unwrap();
        prop_assert_eq!(&outcome, &reference, "optimal bit select");
        prop_assert_eq!(outcome.estimated_misses, exact(&outcome), "optimal bit select");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_sliced_pricing_is_thread_count_independent(
        blocks in trace_strategy(),
        cache in cache_strategy(),
    ) {
        // Every neighbourhood prices lane by lane, in runs split across
        // `map_parallel` workers when threaded: every thread count must
        // reproduce the sequential costs bit for bit, bounded and unbounded
        // alike.
        let profile = profile_of(&blocks, &cache);
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(HASHED_BITS, &profile);
        let parent = gf2::PackedBasis::standard_span(
            HASHED_BITS,
            cache.set_bits()..HASHED_BITS,
        );
        let nbhd = PackedNeighborhood::generate(&parent, FunctionClass::xor_unlimited(), &pool);
        let price = |threads: usize| {
            EvalEngine::new(&profile).with_threads(threads).estimate_neighborhood(&nbhd)
        };
        let price_bounded = |threads: usize, bound: u64| {
            EvalEngine::new(&profile)
                .with_threads(threads)
                .estimate_neighborhood_bounded(&nbhd, bound)
        };
        let sequential = price(1);
        let bound = sequential.iter().copied().max().unwrap_or(0) / 2 + 1;
        let sequential_bounded = price_bounded(1, bound);
        for threads in [2usize, 4, 7] {
            prop_assert_eq!(&price(threads), &sequential, "{} threads", threads);
            prop_assert_eq!(
                &price_bounded(threads, bound), &sequential_bounded,
                "{} threads, bound {}", threads, bound
            );
        }
    }

    #[test]
    fn bounded_neighborhood_pricing_is_exact_below_the_bound(
        blocks in trace_strategy(),
        cache in cache_strategy(),
    ) {
        // Contract, at every thread count: a lane whose true Eq. 4 cost (the
        // oracle's) is below the bound is priced exactly; every other lane
        // is abandoned as `AtLeast(bound)`.
        let profile = profile_of(&blocks, &cache);
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(HASHED_BITS, &profile);
        let parent = gf2::PackedBasis::standard_span(
            HASHED_BITS,
            cache.set_bits()..HASHED_BITS,
        );
        let nbhd = PackedNeighborhood::generate(&parent, FunctionClass::xor_unlimited(), &pool);
        let estimator = MissEstimator::new(&profile);
        let exact: Vec<u64> = nbhd.bases().map(|b| estimator.estimate_packed(b)).collect();
        let lo = exact.iter().copied().min().unwrap_or(0);
        let hi = exact.iter().copied().max().unwrap_or(0);
        for threads in [1usize, 2, 4, 7] {
            for bound in [0, lo, lo + (hi - lo) / 2, hi, hi + 1] {
                // A fresh engine per bound and thread count.
                let priced = EvalEngine::new(&profile)
                    .with_threads(threads)
                    .estimate_neighborhood_bounded(&nbhd, bound);
                prop_assert_eq!(priced.len(), exact.len());
                for (i, (cost, &truth)) in priced.iter().zip(&exact).enumerate() {
                    match *cost {
                        BoundedCost::Exact(c) => {
                            prop_assert!(truth < bound, "lane {} not abandoned at bound {}", i, bound);
                            prop_assert_eq!(c, truth, "lane {} bound {} threads {}", i, bound, threads);
                        }
                        BoundedCost::AtLeast(b) => {
                            prop_assert_eq!(b, bound, "lane {}", i);
                            prop_assert!(truth >= bound, "lane {} wrongly abandoned", i);
                        }
                    }
                }
            }
        }
    }
}

/// A trace over two to six blocks: few distinct conflict vectors, so most of
/// a winner's neighbours tie on their estimate and the ranking's tie-break
/// decides which are kept.
fn tie_heavy_trace_strategy() -> impl Strategy<Value = Vec<BlockAddr>> {
    (2u64..=6, 20usize..200).prop_flat_map(|(footprint, len)| {
        proptest::collection::vec(
            (0..footprint).prop_map(|k| BlockAddr(k * 0x45 % (1 << HASHED_BITS))),
            len,
        )
    })
}

/// The winner's neighbourhood ranked the long way: every candidate of
/// [`PackedNeighborhood::generate`] around it priced by [`MissEstimator`],
/// sorted by (estimate, position), those the class admits. The best `k`
/// are its first `k`.
fn reference_ranking(
    profile: &ConflictProfile,
    class: FunctionClass,
    winner: &HashFunction,
) -> Vec<(HashFunction, u64)> {
    let estimator = MissEstimator::new(profile);
    let pool = NeighborPool::UnitsAndPairs.packed_vectors(profile.hashed_bits(), profile);
    let nbhd = PackedNeighborhood::generate(&winner.null_space().to_packed(), class, &pool);
    let mut priced: Vec<(u64, usize)> = nbhd
        .bases()
        .map(|basis| estimator.estimate_packed(basis))
        .zip(0..)
        .collect();
    priced.sort_unstable();
    priced
        .into_iter()
        .filter_map(|(estimate, i)| {
            let basis = nbhd.candidates[i].basis.to_subspace();
            let function = HashFunction::from_null_space(&basis, class).ok()?;
            Some((function, estimate))
        })
        .collect()
}

/// Checks `run_with_runners_up` against [`reference_ranking`] for the hill
/// climb under every class and the exhaustive bit-selecting search, at
/// k = 0, 1, 2, 5 and more than can be held.
fn check_runners_up(profile: &ConflictProfile, set_bits: usize) {
    let searches = [
        (FunctionClass::bit_selecting(), SearchAlgorithm::HillClimb),
        (
            FunctionClass::permutation_based(2),
            SearchAlgorithm::HillClimb,
        ),
        (FunctionClass::xor_unlimited(), SearchAlgorithm::HillClimb),
        (
            FunctionClass::bit_selecting(),
            SearchAlgorithm::OptimalBitSelect,
        ),
    ];
    for (class, algorithm) in searches {
        let searcher = Searcher::new(profile, class, set_bits).unwrap();
        let outcome = searcher.run(algorithm).unwrap();
        let ranking = reference_ranking(profile, class, &outcome.function);
        for k in [0, 1, 2, 5, ranking.len() + 3] {
            let label = format!("{algorithm:?}, class {class}, k = {k}");
            let (ranked, runners_up) = searcher.run_with_runners_up(algorithm, k).unwrap();
            assert_eq!(ranked, outcome, "{label}");
            assert_eq!(runners_up, ranking[..k.min(ranking.len())], "{label}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn runners_up_match_the_materialized_ranking(
        blocks in trace_strategy(),
        few_blocks in tie_heavy_trace_strategy(),
        cache in cache_strategy(),
    ) {
        // The ranking prices lanes under a bound that tightens to the
        // running k-th best and checks the class only below it; the
        // reference prices every materialized candidate exactly and sorts.
        for trace in [&blocks, &few_blocks] {
            check_runners_up(&profile_of(trace, &cache), cache.set_bits());
        }
    }
}

#[test]
fn runners_up_break_ties_in_generation_order() {
    // Two blocks one set apart in a 16-set cache: one conflict vector, so
    // almost every neighbour of the winner ties on its estimate and the
    // generation order alone decides the list.
    let blocks: Vec<BlockAddr> = (0..50u64).map(|i| BlockAddr((i % 2) * 0x40)).collect();
    let profile = ConflictProfile::from_blocks(blocks, HASHED_BITS, 16);
    for class in [
        FunctionClass::permutation_based(2),
        FunctionClass::xor_unlimited(),
    ] {
        let searcher = Searcher::new(&profile, class, 4).unwrap();
        let (outcome, runners_up) = searcher
            .run_with_runners_up(SearchAlgorithm::HillClimb, 5)
            .unwrap();
        let ranking = reference_ranking(&profile, class, &outcome.function);
        assert_eq!(runners_up, ranking[..5], "{class}");
        assert!(
            runners_up.windows(2).any(|pair| pair[0].1 == pair[1].1),
            "{class}: no tie among {:?}",
            runners_up.iter().map(|(_, e)| e).collect::<Vec<_>>()
        );
    }
}
