//! Property tests pinning the fast replay engine bit-identical to the legacy
//! `Cache`-based replayer.
//!
//! The fast path (shared 3C pre-classification + byte-table set indices +
//! compact-LRU simulation in one pass) must reproduce the legacy simulator's
//! [`SimStats`] exactly — aggregate counters *and* the per-set conflict
//! breakdown — across hashed widths, cache geometries, candidate function
//! classes and thread counts. Hashed widths span one, two, three and four
//! byte tables, including partial last bytes, and some traces carry address
//! bits above the hashed width.

use std::sync::{Arc, OnceLock};

use cache_sim::{BlockAddr, Cache, CacheConfig, MissClassifier, ModuloIndex, ReuseStream};
use gf2::BitMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{Scale, WorkloadSuite};
use xorindex::{HashFunction, SearchOutcome};
use xorindex_verify::{verified_pick, EstimateAudit, TraceReplayer};

/// Hashed address widths the candidates consume: 1 to 4 byte tables, with
/// full and partial last bytes.
const WIDTHS: [usize; 6] = [8, 12, 13, 16, 20, 26];

fn width_strategy() -> impl Strategy<Value = usize> {
    (0..WIDTHS.len()).prop_map(|i| WIDTHS[i])
}

/// A trace with a bounded footprint (so reuse happens) scattered by a stride
/// (so different sets are exercised), folded below `2^hashed_bits`. In some
/// traces each footprint block also carries one of a few random high parts
/// above the hashed width: the index functions ignore those bits, the tags
/// do not.
fn trace_strategy(hashed_bits: usize) -> impl Strategy<Value = Arc<Vec<BlockAddr>>> {
    let stride = (0usize..4).prop_map(|i| [1u64, 17, 64, 257][i]);
    let highs = proptest::collection::vec(any::<u64>(), 1..4);
    (1u64..=96, 1usize..400, stride, any::<bool>(), highs).prop_flat_map(
        move |(footprint, len, stride, high_bits, highs)| {
            let low_mask = (1u64 << hashed_bits) - 1;
            proptest::collection::vec(
                (0..footprint).prop_map(move |b| {
                    let high = if high_bits {
                        highs[b as usize % highs.len()] & !low_mask
                    } else {
                        0
                    };
                    BlockAddr(((b * stride) & low_mask) | high)
                }),
                len,
            )
            .prop_map(Arc::new)
        },
    )
}

/// Cache geometries inside (associativity ≤ 8) and outside (16) the fast
/// path's gate, so the routing itself is exercised too.
fn config_strategy() -> impl Strategy<Value = CacheConfig> {
    (1u32..=6, 0u32..=2, 0u32..=4).prop_map(|(set_bits, block_log, assoc_log)| {
        CacheConfig::builder()
            .size_bytes(1u64 << (set_bits + block_log + assoc_log))
            .block_bytes(1 << block_log)
            .associativity(1 << assoc_log)
            .build()
            .expect("powers of two are valid")
    })
}

/// Builds one candidate of the given class hashing `n` bits for an
/// `m`-set-bit cache: `0` → conventional, `1` → random bit selection, `2` →
/// random XOR function (identity over the low rows, random folding of the
/// high rows — always full column rank).
fn function_for(class: u8, seed: u64, n: usize, m: usize) -> HashFunction {
    match class % 3 {
        0 => HashFunction::conventional(n, m).expect("m <= hashed bits"),
        1 => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bits: Vec<usize> = (0..n).collect();
            for i in (1..bits.len()).rev() {
                let j = rng.gen_range(0..=i);
                bits.swap(i, j);
            }
            HashFunction::bit_selecting(n, &bits[..m]).expect("distinct bits")
        }
        _ => xor_function(seed, n, m),
    }
}

/// A seeded XOR function: identity over the low `m` rows, random folding of
/// the high rows.
fn xor_function(seed: u64, n: usize, m: usize) -> HashFunction {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut matrix = BitMatrix::zero(n, m);
    for c in 0..m {
        matrix.set(c, c, true);
    }
    for r in m..n {
        for c in 0..m {
            if rng.gen_range(0u32..2) == 1 {
                matrix.set(r, c, true);
            }
        }
    }
    HashFunction::new(matrix).expect("identity block gives full column rank")
}

proptest! {
    #[test]
    fn fast_replay_is_bit_identical_to_legacy(
        (hashed_bits, trace) in width_strategy().prop_flat_map(|n| (Just(n), trace_strategy(n))),
        config in config_strategy(),
        class in 0u8..3,
        seed in any::<u64>(),
    ) {
        let function = function_for(class, seed, hashed_bits, config.set_bits());
        let replayer = TraceReplayer::new(config, Arc::clone(&trace));
        let legacy = replayer.replay_legacy(&function).unwrap();
        let fast = replayer.replay(&function).unwrap();
        prop_assert_eq!(&fast, &legacy, "width {}", hashed_bits);
        // The legacy replay is the classified simulator's answer.
        let mut cache = Cache::new(config, function.to_index_function()).with_classification();
        prop_assert_eq!(&legacy.stats, &cache.simulate_blocks(trace.iter().copied()));
    }

    #[test]
    fn verified_pick_matches_the_legacy_simulator(
        (hashed_bits, trace) in width_strategy().prop_flat_map(|n| (Just(n), trace_strategy(n))),
        config in config_strategy(),
        seeds in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let m = config.set_bits();
        let functions: Vec<_> = seeds.iter().map(|&s| function_for(s as u8, s, hashed_bits, m)).collect();
        let estimates: Vec<u64> = seeds.iter().map(|s| s % 500).collect();
        let (function, estimated_misses) = (functions[0].clone(), estimates[0]);
        let search = SearchOutcome { function, estimated_misses, baseline_estimate: 0, evaluations: 0, steps: 0 };
        let replayer = TraceReplayer::new(config, Arc::clone(&trace));
        let baseline = OnceLock::new();
        let pick = || {
            verified_pick(&replayer, search.clone(), functions.clone(), estimates.clone(), &baseline)
        };
        let first = pick().unwrap();
        let sims: Vec<_> = functions.iter().map(|f| replayer.replay_legacy(f).unwrap()).collect();
        let mut modulo = Cache::new(config, ModuloIndex::for_config(&config)).with_classification();
        prop_assert_eq!(first.baseline.stats, modulo.simulate_blocks(trace.iter().copied()));
        let fewest = sims.iter().map(|s| s.misses()).min().unwrap();
        prop_assert_eq!(first.winner, sims.iter().position(|s| s.misses() == fewest).unwrap());
        prop_assert_eq!(first.loses_to_baseline(), fewest > first.baseline.misses());
        let pairs: Vec<_> = estimates.iter().zip(&sims).map(|(&e, s)| (e, s.conflict_misses())).collect();
        prop_assert_eq!(first.audit, EstimateAudit::new(&pairs));
        prop_assert!(first.candidates.iter().map(|c| &c.sim).eq(&sims));
        // A second pick reuses the cached baseline: it replays the slate only.
        let replays = replayer.replay_stats().replays;
        prop_assert_eq!(pick().unwrap(), first);
        prop_assert_eq!(replayer.replay_stats().replays, replays + sims.len() as u64);
    }

    #[test]
    fn replay_many_is_thread_invariant_and_matches_legacy(
        (hashed_bits, trace) in width_strategy().prop_flat_map(|n| (Just(n), trace_strategy(n))),
        config in config_strategy(),
        seeds in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let functions: Vec<HashFunction> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| function_for(i as u8, seed, hashed_bits, config.set_bits()))
            .collect();
        let replayer = TraceReplayer::new(config, Arc::clone(&trace));
        let sequential = replayer.replay_many(&functions, 1).unwrap();
        for threads in [2usize, 4, 7] {
            let parallel = replayer.replay_many(&functions, threads).unwrap();
            prop_assert_eq!(&parallel, &sequential, "threads {}", threads);
        }
        for (function, sim) in functions.iter().zip(&sequential) {
            prop_assert_eq!(sim, &replayer.replay_legacy(function).unwrap());
        }
    }
}

/// Real traces against both oracles: the reuse stream against a
/// `MissClassifier` walk, and the fast replay against the legacy simulator
/// for the conventional function and seeded XOR functions at 16 and 26
/// hashed bits. Slow in debug builds; CI runs it in release.
#[test]
#[ignore = "real traces; run with --release --include-ignored"]
fn real_traces_match_both_oracles() {
    for name in ["crc", "susan"] {
        let workload = WorkloadSuite::by_name(name).expect("roster workload");
        let trace = workload.data_trace(Scale::Tiny);
        for kb in [1u64, 4, 16] {
            let config = CacheConfig::paper_cache(kb);
            let blocks: Arc<Vec<BlockAddr>> =
                Arc::new(trace.data_block_addresses(config.block_bits()).collect());
            let capacity = config.num_blocks() as usize;
            let stream = ReuseStream::build(&blocks, capacity);
            let mut classifier = MissClassifier::new(capacity);
            for (i, &block) in blocks.iter().enumerate() {
                assert_eq!(
                    stream.miss_class(i),
                    MissClassifier::classify_miss(classifier.observe(block)),
                    "{name}@{kb}KB access {i}"
                );
            }
            let m = config.set_bits();
            let mut functions = vec![HashFunction::conventional(16, m).unwrap()];
            functions.extend((0..3).map(|seed| xor_function(seed, 16, m)));
            functions.extend((0..2).map(|seed| xor_function(seed, 26, m)));
            let replayer = TraceReplayer::new(config, Arc::clone(&blocks));
            assert!(replayer.fast_path());
            let batch = replayer.replay_many(&functions, 0).unwrap();
            for (function, sim) in functions.iter().zip(&batch) {
                let legacy = replayer.replay_legacy(function).unwrap();
                assert_eq!(sim, &legacy, "{name}@{kb}KB\n{function}");
                assert_eq!(&replayer.replay(function).unwrap(), &legacy);
            }
        }
    }
}
