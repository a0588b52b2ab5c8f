//! Property-based tests for the cache simulator.

use cache_sim::{
    BitSelectIndex, BlockAddr, Cache, CacheConfig, CacheStats, FullyAssociativeCache,
    IndexFunction, LruStack, MissClassifier, ModuloIndex, ReuseStream, StackScan, XorIndex,
};
use gf2::BitMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small random block-address trace with a bounded footprint so that
/// interesting reuse actually happens.
fn trace_strategy() -> impl Strategy<Value = Vec<BlockAddr>> {
    (1u64..=64, 1usize..400).prop_flat_map(|(footprint, len)| {
        proptest::collection::vec((0..footprint).prop_map(BlockAddr), len)
    })
}

fn small_config_strategy() -> impl Strategy<Value = CacheConfig> {
    (2u32..=6, 0u32..=2, 0u32..=2).prop_map(|(size_log, block_log, assoc_log)| {
        CacheConfig::builder()
            .size_bytes(1 << (size_log + block_log + assoc_log))
            .block_bytes(1 << block_log)
            .associativity(1 << assoc_log)
            .build()
            .expect("powers of two are valid")
    })
}

/// A capacity in `1..=64` and a trace whose footprint is at most
/// `2 * capacity + 2` blocks, so reuses land at stack distances
/// `capacity - 1`, `capacity` and `capacity + 1`. In "wide" traces the
/// footprint's blocks are drawn from the whole `u64` range, `u64::MAX` among
/// them; otherwise they are `0..footprint`.
fn preclass_case_strategy() -> impl Strategy<Value = (usize, Vec<BlockAddr>)> {
    (1usize..=64, any::<bool>()).prop_flat_map(|(capacity, wide)| {
        (1usize..=2 * capacity + 2).prop_flat_map(move |footprint| {
            let names = proptest::collection::vec(any::<u64>(), footprint);
            let picks = proptest::collection::vec(0..footprint, 1usize..600);
            (names, picks).prop_map(move |(mut names, picks)| {
                if wide {
                    names[0] = u64::MAX;
                } else {
                    names = (0..footprint as u64).collect();
                }
                let trace = picks.into_iter().map(|p| BlockAddr(names[p])).collect();
                (capacity, trace)
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reuse_stream_matches_the_classifier_around_the_capacity(
        (capacity, trace) in preclass_case_strategy(),
    ) {
        let stream = ReuseStream::build(&trace, capacity);
        prop_assert_eq!(stream.len(), trace.len());
        let mut classifier = MissClassifier::new(capacity);
        for (i, &block) in trace.iter().enumerate() {
            prop_assert_eq!(
                stream.miss_class(i),
                MissClassifier::classify_miss(classifier.observe(block)),
                "access {} of {:?} at capacity {}",
                i,
                block,
                capacity
            );
        }
    }
}

proptest! {
    #[test]
    fn hits_plus_misses_equals_accesses(trace in trace_strategy(), config in small_config_strategy()) {
        let mut cache = Cache::new(config, ModuloIndex::for_config(&config)).with_classification();
        let stats = cache.simulate_blocks(trace.iter().copied());
        prop_assert_eq!(stats.accesses, trace.len() as u64);
        prop_assert_eq!(stats.hits + stats.misses, stats.accesses);
        prop_assert_eq!(stats.classified_misses(), stats.misses);
    }

    #[test]
    fn misses_bounded_below_by_distinct_blocks_touched(trace in trace_strategy(), config in small_config_strategy()) {
        let mut cache = Cache::new(config, ModuloIndex::for_config(&config));
        let stats = cache.simulate_blocks(trace.iter().copied());
        let distinct: std::collections::HashSet<_> = trace.iter().collect();
        prop_assert!(stats.misses >= distinct.len() as u64);
    }

    #[test]
    fn fully_associative_cache_has_no_conflict_misses(trace in trace_strategy()) {
        // A fully-associative LRU cache never suffers conflict misses, and its
        // compulsory misses equal the number of distinct blocks touched.
        // (Note: it is NOT always better than a direct-mapped cache of equal
        // capacity — the paper exploits exactly that LRU sub-optimality.)
        let config = CacheConfig::builder().size_bytes(64).block_bytes(4).associativity(1).build().unwrap();
        let mut fa = FullyAssociativeCache::for_config(&config);
        let fa_stats = fa.simulate_blocks(trace.iter().copied());
        let distinct: std::collections::HashSet<_> = trace.iter().collect();
        prop_assert_eq!(fa_stats.conflict_misses, 0);
        prop_assert_eq!(fa_stats.compulsory_misses, distinct.len() as u64);
        prop_assert_eq!(fa_stats.accesses, trace.len() as u64);
    }

    #[test]
    fn compulsory_misses_are_index_function_independent(trace in trace_strategy(), seed in any::<u64>()) {
        // First-touch misses occur under every index function; capacity and
        // conflict counts may shift between functions (a far-reuse block can
        // survive by luck in one mapping and not another), so only the
        // compulsory count and the access count are invariant.
        let config = CacheConfig::builder().size_bytes(64).block_bytes(4).associativity(1).build().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let matrix = gf2::random::random_full_rank_matrix(&mut rng, 16, config.set_bits());
        let mut modulo = Cache::new(config, ModuloIndex::for_config(&config)).with_classification();
        let mut xor = Cache::new(config, XorIndex::new(matrix)).with_classification();
        let m = modulo.simulate_blocks(trace.iter().copied());
        let x = xor.simulate_blocks(trace.iter().copied());
        prop_assert_eq!(m.compulsory_misses, x.compulsory_misses);
        prop_assert_eq!(m.accesses, x.accesses);
        prop_assert_eq!(m.hits + m.misses, x.hits + x.misses);
    }

    #[test]
    fn bit_select_of_low_bits_is_equivalent_to_modulo(trace in trace_strategy()) {
        let config = CacheConfig::builder().size_bytes(128).block_bytes(4).associativity(1).build().unwrap();
        let select: Vec<usize> = (0..config.set_bits()).collect();
        let mut a = Cache::new(config, ModuloIndex::for_config(&config));
        let mut b = Cache::new(config, BitSelectIndex::new(select));
        let sa = a.simulate_blocks(trace.iter().copied());
        let sb = b.simulate_blocks(trace.iter().copied());
        prop_assert_eq!(sa, sb);
    }

    #[test]
    fn equal_null_spaces_give_identical_miss_counts(trace in trace_strategy(), seed in any::<u64>()) {
        // Paper Section 2: matrices with the same null space produce exactly
        // the same cache misses.
        let config = CacheConfig::builder().size_bytes(64).block_bytes(4).associativity(1).build().unwrap();
        let m = config.set_bits();
        let mut rng = StdRng::seed_from_u64(seed);
        let h1 = gf2::random::random_full_rank_matrix(&mut rng, 12, m);
        let ns = h1.null_space();
        let h2 = BitMatrix::with_null_space(&ns).unwrap();
        let mut c1 = Cache::new(config, XorIndex::new(h1));
        let mut c2 = Cache::new(config, XorIndex::new(h2));
        let s1 = c1.simulate_blocks(trace.iter().copied());
        let s2 = c2.simulate_blocks(trace.iter().copied());
        prop_assert_eq!(s1.misses, s2.misses);
        prop_assert_eq!(s1.hits, s2.hits);
    }

    #[test]
    fn lru_stack_distances_are_consistent_with_fa_cache(trace in trace_strategy()) {
        // A fully-associative LRU cache of capacity C hits exactly when the
        // stack distance is < C.
        let capacity = 8usize;
        let mut stack = LruStack::new();
        let mut fa = FullyAssociativeCache::new(capacity, 0);
        for &b in &trace {
            let scan = stack.access(b.as_u64(), capacity);
            let outcome = fa.access_block(b);
            let expect_hit = matches!(scan, StackScan::Within { distance } if distance < capacity);
            prop_assert_eq!(outcome.is_hit(), expect_hit);
        }
    }

    #[test]
    fn stats_addition_is_consistent_with_split_simulation(trace in trace_strategy()) {
        let config = CacheConfig::builder().size_bytes(64).block_bytes(4).associativity(2).build().unwrap();
        let mid = trace.len() / 2;
        let mut whole = Cache::new(config, ModuloIndex::for_config(&config));
        let total = whole.simulate_blocks(trace.iter().copied());
        let mut split = Cache::new(config, ModuloIndex::for_config(&config));
        let first = split.simulate_blocks(trace[..mid].iter().copied());
        let second = split.simulate_blocks(trace[mid..].iter().copied());
        let combined: CacheStats = first + second;
        prop_assert_eq!(combined.accesses, total.accesses);
        prop_assert_eq!(combined.misses, total.misses);
    }

    #[test]
    fn wider_lru_sets_never_increase_misses_at_equal_set_count(trace in trace_strategy()) {
        // LRU stack inclusion holds per set when the set mapping is identical:
        // with the same 16 sets, a 2-way cache never misses more than a 1-way
        // cache (each set sees the same reference substream).
        let c1 = CacheConfig::builder().size_bytes(64).block_bytes(4).associativity(1).build().unwrap();
        let c2 = CacheConfig::builder().size_bytes(128).block_bytes(4).associativity(2).build().unwrap();
        prop_assert_eq!(c1.num_sets(), c2.num_sets());
        let mut direct = Cache::new(c1, ModuloIndex::for_config(&c1));
        let mut two_way = Cache::new(c2, ModuloIndex::for_config(&c2));
        let s1 = direct.simulate_blocks(trace.iter().copied());
        let s2 = two_way.simulate_blocks(trace.iter().copied());
        prop_assert!(s2.misses <= s1.misses);
    }

    #[test]
    fn index_functions_stay_in_range(seed in any::<u64>(), blocks in proptest::collection::vec(any::<u64>(), 1..100)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let matrix = gf2::random::random_full_rank_matrix(&mut rng, 16, 6);
        let xor = XorIndex::new(matrix);
        let modulo = ModuloIndex::new(6);
        let select = BitSelectIndex::new(vec![1, 3, 5, 7, 9, 11]);
        for b in blocks {
            let block = BlockAddr(b);
            prop_assert!(xor.set_index(block) < xor.num_sets());
            prop_assert!(modulo.set_index(block) < modulo.num_sets());
            prop_assert!(select.set_index(block) < select.num_sets());
        }
    }
}
