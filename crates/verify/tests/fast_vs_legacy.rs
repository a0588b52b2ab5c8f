//! Property tests pinning the fast replay engine bit-identical to the legacy
//! `Cache`-based replayer.
//!
//! The fast path (shared 3C pre-classification + byte-table set indices +
//! one fused tag-array pass over the candidates that partition the trace's
//! blocks differently) must reproduce the legacy simulator's [`SimStats`]
//! exactly — aggregate counters *and* the per-set conflict breakdown —
//! across hashed widths, cache geometries, candidate function classes and
//! thread counts, whether a candidate is simulated or takes a relabelled
//! simulation of another that partitions the blocks alike. Hashed widths
//! span one, two, three and four byte tables, including partial last bytes;
//! some traces carry address bits above the hashed width, and some touch
//! blocks `0` and `u64::MAX`, so no empty-tag value can pass for a block.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use cache_sim::{BlockAddr, Cache, CacheConfig, MissClassifier, ModuloIndex, ReuseStream};
use gf2::{BitMatrix, BitVec, PackedBasis};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{Scale, WorkloadSuite};
use xorindex::search::Searcher;
use xorindex::{ConflictProfile, FunctionClass, HashFunction, SearchAlgorithm, SearchOutcome};
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
/// do not. Some traces also touch blocks `0` and `u64::MAX`, the two values
/// an empty tag would most likely hold.
fn trace_strategy(hashed_bits: usize) -> impl Strategy<Value = Arc<Vec<BlockAddr>>> {
    let stride = (0usize..4).prop_map(|i| [1u64, 17, 64, 257][i]);
    let highs = proptest::collection::vec(any::<u64>(), 1..4);
    (
        1u64..=96,
        1usize..400,
        stride,
        any::<bool>(),
        highs,
        any::<bool>(),
    )
        .prop_flat_map(
            move |(footprint, len, stride, high_bits, highs, extremes)| {
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
                .prop_map(move |trace| Arc::new(with_extremes(trace, extremes)))
            },
        )
}

/// `trace` with every fifth access turned into block `0` or `u64::MAX`, in
/// turn, when `extremes` holds.
fn with_extremes(mut trace: Vec<BlockAddr>, extremes: bool) -> Vec<BlockAddr> {
    if extremes {
        for (i, access) in trace.iter_mut().enumerate().skip(1).step_by(5) {
            *access = BlockAddr(if i % 2 == 0 { 0 } else { u64::MAX });
        }
    }
    trace
}

/// Every cache geometry the proptests draw: inside (associativity ≤ 8) and
/// outside (16) the fast path's gate, so the routing itself is exercised
/// too.
fn configs() -> Vec<CacheConfig> {
    let mut configs = Vec::new();
    for set_bits in 1u32..=6 {
        for block_log in 0u32..=2 {
            for assoc_log in 0u32..=4 {
                configs.push(
                    CacheConfig::builder()
                        .size_bytes(1u64 << (set_bits + block_log + assoc_log))
                        .block_bytes(1 << block_log)
                        .associativity(1 << assoc_log)
                        .build()
                        .expect("powers of two are valid"),
                );
            }
        }
    }
    configs
}

fn config_strategy() -> impl Strategy<Value = CacheConfig> {
    let configs = configs();
    (0..configs.len()).prop_map(move |i| configs[i])
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

/// The trace's distinct blocks in first-touch order.
fn distinct_blocks(trace: &[BlockAddr]) -> Vec<u64> {
    let mut seen = HashSet::new();
    trace
        .iter()
        .map(|b| b.as_u64())
        .filter(|&b| seen.insert(b))
        .collect()
}

/// `true` when `f` and `g` put the same blocks in a common set.
fn partition_alike(f: &HashFunction, g: &HashFunction, blocks: &[u64]) -> bool {
    let (mut forward, mut backward) = (HashMap::new(), HashMap::new());
    blocks.iter().all(|&b| {
        let (sf, sg) = (f.set_index_of(b), g.set_index_of(b));
        *forward.entry(sf).or_insert(sg) == sg && *backward.entry(sg).or_insert(sf) == sf
    })
}

/// Number of distinct block partitions among `functions`.
fn distinct_partitions(functions: &[HashFunction], blocks: &[u64]) -> usize {
    let mut leaders: Vec<&HashFunction> = Vec::new();
    for f in functions {
        if !leaders.iter().any(|g| partition_alike(g, f, blocks)) {
            leaders.push(f);
        }
    }
    leaders.len()
}

/// A seeded invertible `m × m` matrix.
fn invertible(seed: u64, m: usize) -> BitMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let a = BitMatrix::from_fn(m, m, |_, _| rng.gen_range(0u32..2) == 1);
        if a.rank() == m {
            return a;
        }
    }
}

/// A function that partitions `blocks` like `h` but has another null space:
/// `h` plus `u · e_j` for a nonzero `u` orthogonal to every pairwise XOR of
/// the blocks' hashed bits, so set indices on the trace move by a constant.
/// `None` when those XORs span everything or no such sum keeps full rank.
fn agreeing_on_the_trace(h: &HashFunction, blocks: &[u64], seed: u64) -> Option<HashFunction> {
    let n = h.hashed_bits();
    let hashed = |b: u64| b & ((1u64 << n) - 1);
    let first = hashed(*blocks.first()?);
    let mut xors = PackedBasis::trivial(n);
    for &b in blocks {
        xors.insert(hashed(b) ^ first);
    }
    let outside = xors.orthogonal_complement();
    let u = *outside
        .rows()
        .get(seed as usize % outside.rows().len().max(1))?;
    (0..h.set_bits()).find_map(|j| {
        let mut matrix = h.matrix().clone();
        for r in BitVec::from_u64(u, n).set_bits() {
            matrix.set(r, j, !matrix.get(r, j));
        }
        HashFunction::new(matrix)
            .ok()
            .filter(|g| g.null_space() != h.null_space())
    })
}

/// A batch with every kind of sharing: a function `h`, `h · A` for an
/// invertible `A` (the same partition of every block, other set names), a
/// function that partitions only the trace's blocks like `h`, the
/// conventional function, an unrelated XOR function and an exact duplicate
/// of `h`, rotated by the seed so any of them can lead.
fn sharing_batch(seed: u64, n: usize, m: usize, blocks: &[u64]) -> Vec<HashFunction> {
    let h = function_for(1 + (seed % 2) as u8, seed, n, m);
    let h_a = HashFunction::new(
        h.matrix()
            .mul(&invertible(seed, m))
            .expect("n × m times m × m"),
    )
    .expect("an invertible factor keeps full column rank");
    let agreeing = agreeing_on_the_trace(&h, blocks, seed).unwrap_or_else(|| h_a.clone());
    let mut batch = vec![
        h.clone(),
        h_a,
        agreeing,
        HashFunction::conventional(n, m).expect("m <= n"),
        xor_function(seed ^ 0x5eed, n, m),
        h,
    ];
    batch.rotate_left(seed as usize % 6);
    batch
}

/// Replays `batch` through `replay_many` at one, two and all host threads
/// and checks every result, `set_conflicts` included, against the legacy
/// simulator, and that each call simulates once per distinct partition,
/// which it returns.
fn check_shared_replays(
    config: CacheConfig,
    trace: &Arc<Vec<BlockAddr>>,
    batch: &[HashFunction],
    label: &str,
) -> u64 {
    let replayer = TraceReplayer::new(config, Arc::clone(trace));
    let legacy: Vec<_> = batch
        .iter()
        .map(|f| replayer.replay_legacy(f).unwrap())
        .collect();
    let partitions = distinct_partitions(batch, &distinct_blocks(trace)) as u64;
    for threads in [1usize, 2, 0] {
        let replays = replayer.replay_stats().replays;
        let shared = replayer.replay_many(batch, threads).unwrap();
        assert_eq!(shared, legacy, "{label}, threads {threads}");
        assert_eq!(
            replayer.replay_stats().replays - replays,
            partitions,
            "{label}, threads {threads}"
        );
    }
    partitions
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
        let blocks = distinct_blocks(&trace);
        let conventional = HashFunction::conventional(hashed_bits, m).unwrap();
        let partitions = distinct_partitions(&functions, &blocks) as u64;
        let like_conventional =
            u64::from(functions.iter().any(|f| partition_alike(f, &conventional, &blocks)));
        // The first pick simulates each distinct partition of the slate and
        // the conventional function once.
        prop_assert_eq!(replayer.replay_stats().replays, partitions + 1 - like_conventional);
        let sims: Vec<_> = functions.iter().map(|f| replayer.replay_legacy(f).unwrap()).collect();
        let mut modulo = Cache::new(config, ModuloIndex::for_config(&config)).with_classification();
        prop_assert_eq!(first.baseline.stats, modulo.simulate_blocks(trace.iter().copied()));
        let fewest = sims.iter().map(|s| s.misses()).min().unwrap();
        prop_assert_eq!(first.winner, sims.iter().position(|s| s.misses() == fewest).unwrap());
        prop_assert_eq!(first.loses_to_baseline(), fewest > first.baseline.misses());
        let pairs: Vec<_> = estimates.iter().zip(&sims).map(|(&e, s)| (e, s.conflict_misses())).collect();
        prop_assert_eq!(first.audit, EstimateAudit::new(&pairs));
        prop_assert!(first.candidates.iter().map(|c| &c.sim).eq(&sims));
        // A second pick reuses the cached baseline: it simulates each of the
        // slate's distinct partitions once, except conventional's.
        let replays = replayer.replay_stats().replays;
        prop_assert_eq!(pick().unwrap(), first);
        prop_assert_eq!(
            replayer.replay_stats().replays,
            replays + partitions - like_conventional
        );
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

    #[test]
    fn shared_replays_match_the_legacy_simulator(
        (hashed_bits, trace) in width_strategy().prop_flat_map(|n| (Just(n), trace_strategy(n))),
        config in config_strategy(),
        seed in any::<u64>(),
    ) {
        let batch = sharing_batch(seed, hashed_bits, config.set_bits(), &distinct_blocks(&trace));
        check_shared_replays(config, &trace, &batch, &format!("{config:?}, width {hashed_bits}"));
    }
}

/// [`shared_replays_match_the_legacy_simulator`] at every geometry the
/// proptests draw and every width in [`WIDTHS`], on a seeded trace per cell
/// that touches blocks `0` and `u64::MAX`.
#[test]
fn shared_replays_cover_every_geometry_and_width() {
    let mut rng = StdRng::seed_from_u64(30);
    for config in configs() {
        for n in WIDTHS {
            let footprint = rng.gen_range(8u64..64);
            let low_mask = (1u64 << n) - 1;
            let trace: Vec<BlockAddr> = (0..120)
                .map(|_| BlockAddr((rng.gen_range(0..footprint) * 37) & low_mask))
                .collect();
            let trace = Arc::new(with_extremes(trace, true));
            let batch = sharing_batch(rng.gen(), n, config.set_bits(), &distinct_blocks(&trace));
            check_shared_replays(config, &trace, &batch, &format!("{config:?}, width {n}"));
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

/// Every roster data trace at 1/4/16 KB under bit-selecting and unlimited
/// XOR (n = 16): each cell's hill-climb winner, its two runners-up and the
/// conventional function, replayed through `replay_many` at one, two and
/// all host threads against the legacy simulator, with one simulation per
/// distinct block partition. Slow in debug builds; CI runs it in release.
#[test]
#[ignore = "real traces; run with --release --include-ignored"]
fn real_trace_slates_share_replays_exactly() {
    let (mut cells, mut candidates, mut simulated) = (0, 0, 0);
    for workload in WorkloadSuite::all() {
        let trace = workload.data_trace(Scale::Tiny);
        for kb in [1u64, 4, 16] {
            let config = CacheConfig::paper_cache(kb);
            let blocks: Arc<Vec<BlockAddr>> =
                Arc::new(trace.data_block_addresses(config.block_bits()).collect());
            let profile = ConflictProfile::from_blocks(
                blocks.iter().copied(),
                16,
                config.num_blocks() as usize,
            );
            for class in [
                FunctionClass::bit_selecting(),
                FunctionClass::xor_unlimited(),
            ] {
                let (search, runners_up) = Searcher::new(&profile, class, config.set_bits())
                    .unwrap()
                    .run_with_runners_up(SearchAlgorithm::HillClimb, 2)
                    .unwrap();
                let mut slate = vec![search.function];
                slate.extend(runners_up.into_iter().map(|(function, _)| function));
                slate.push(HashFunction::conventional(16, config.set_bits()).unwrap());
                let label = format!("{}@{kb}KB, class {class}", workload.name());
                simulated += check_shared_replays(config, &blocks, &slate, &label);
                candidates += slate.len() as u64;
                cells += 1;
            }
        }
    }
    assert_eq!(cells, 144);
    assert!(
        simulated < candidates,
        "{simulated} of {candidates} candidates simulated"
    );
}
