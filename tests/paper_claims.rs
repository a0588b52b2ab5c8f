//! Cross-crate checks of the paper's analytical claims: the design-space
//! arithmetic of Section 2, the hardware costs of Section 5 / Table 1, and the
//! structural properties of permutation-based functions from Section 4.

use xorindex::hardware::{self, IndexingScheme};
use xorindex_repro::prelude::*;

#[test]
fn design_space_figures_match_section_2() {
    // 3.4e38 distinct matrices vs 6.3e19 distinct null spaces for n=16, m=8.
    let matrices = gf2::count::distinct_matrices(16, 8);
    let spaces = gf2::count::distinct_null_spaces(16, 8);
    assert!((matrices / 3.4e38 - 1.0).abs() < 0.1);
    assert!((spaces / 6.3e19 - 1.0).abs() < 0.1);
    assert!(matrices / spaces > 1e18);
}

#[test]
fn table1_switch_counts_match_the_paper() {
    let rows = experiments::table1::paper_table();
    let columns: Vec<(u64, Vec<usize>)> = rows
        .columns
        .iter()
        .map(|c| (c.cache_kb, c.costs.iter().map(|h| h.switches).collect()))
        .collect();
    assert_eq!(
        columns,
        vec![
            (1, vec![256, 144, 252, 72]),
            (4, vec![256, 136, 261, 70]),
            (16, vec![256, 112, 250, 60]),
        ]
    );
}

#[test]
fn permutation_based_hardware_beats_bit_selecting_hardware() {
    // Section 5's conclusion: the reconfigurable 2-input permutation-based
    // network needs fewer devices and fewer wire crossings than any of the
    // reconfigurable bit-selecting networks, at every evaluated geometry.
    for m in [8usize, 10, 12] {
        let perm = hardware::cost(IndexingScheme::PermutationBased2, 16, m);
        for scheme in [
            IndexingScheme::BitSelect,
            IndexingScheme::OptimizedBitSelect,
        ] {
            let other = hardware::cost(scheme, 16, m);
            assert!(perm.total_devices() < other.total_devices());
            assert!(perm.wire_crossings() < other.wire_crossings());
        }
    }
}

#[test]
fn permutation_based_functions_keep_the_conventional_tag() {
    // Section 4: for permutation-based functions the high-order address bits
    // remain a correct tag, because the null space avoids span(e_0..e_{m-1}).
    let h = HashFunction::new(BitMatrix::from_fn(16, 10, |r, c| r == c || r == c + 10)).unwrap();
    assert!(h.is_permutation_based());
    assert!(h.conventional_tag_is_correct());
    assert!(h.null_space().admits_permutation_based_function(10));

    // And (tag, index) is a bijection on the hashed field: two addresses that
    // agree on the conventional tag and on the XOR set index are identical.
    let tag = |a: u64| a >> 10;
    for a in (0..1u64 << 16).step_by(97) {
        for delta in [1u64, 3, 64, 1023, 1024, 4096] {
            let b = (a + delta) & 0xFFFF;
            if a == b {
                continue;
            }
            let same_tag = tag(a) == tag(b);
            let same_index = h.set_index_of(a) == h.set_index_of(b);
            assert!(
                !(same_tag && same_index),
                "{a:#x} and {b:#x} would be indistinguishable in the cache"
            );
        }
    }
}

#[test]
fn permutation_based_representative_is_unique() {
    // Any two matrices with the same null space and identity low rows are the
    // same matrix: the reconfigurable hardware stores exactly one
    // configuration per application.
    let original = HashFunction::new(BitMatrix::from_fn(12, 6, |r, c| {
        r == c || r == (c * 7) % 6 + 6
    }))
    .unwrap();
    assert!(original.is_permutation_based());
    let ns = original.null_space();
    let rebuilt =
        HashFunction::from_null_space(&ns, FunctionClass::permutation_based_unlimited()).unwrap();
    assert_eq!(rebuilt, original);
}

#[test]
fn null_space_determines_miss_behaviour_exactly() {
    // Section 2's motivation for searching null spaces: different matrices
    // with equal null spaces produce identical cache behaviour on any trace.
    let workload = WorkloadSuite::by_name("engine").expect("engine exists");
    let cache = CacheConfig::paper_cache(1);
    let blocks: Vec<BlockAddr> = workload
        .data_trace(Scale::Tiny)
        .data_block_addresses(cache.block_bits())
        .collect();

    let h1 = HashFunction::new(BitMatrix::from_fn(16, 8, |r, c| r == c || r == c + 8)).unwrap();
    let h2 =
        HashFunction::from_null_space(&h1.null_space(), FunctionClass::xor_unlimited()).unwrap();

    let mut c1 = Cache::new(cache, h1.to_index_function());
    let mut c2 = Cache::new(cache, h2.to_index_function());
    let s1 = c1.simulate_blocks(blocks.iter().copied());
    let s2 = c2.simulate_blocks(blocks.iter().copied());
    assert_eq!(s1.misses, s2.misses);
    assert_eq!(s1.hits, s2.hits);
}

#[test]
fn fully_associative_caches_are_not_always_better_than_good_xor_indexing() {
    // The paper's Table 3 discussion: hashing may out-perform full
    // associativity because LRU replacement is sub-optimal. Construct the
    // classic case: a cyclic scan over capacity+1 blocks, where LRU always
    // evicts the block needed next, while a direct-mapped cache keeps most of
    // them pinned.
    let cache = CacheConfig::builder()
        .size_bytes(64)
        .block_bytes(4)
        .associativity(1)
        .build()
        .unwrap();
    let blocks: Vec<BlockAddr> = (0..2000u64).map(|i| BlockAddr(i % 17)).collect();

    // Table 3's `FA` column: read from the replayer's reuse stream.
    let fa_stats =
        TraceReplayer::new(cache, std::sync::Arc::new(blocks.clone())).fully_associative();

    let mut dm = Cache::new(cache, ModuloIndex::for_config(&cache));
    let dm_stats = dm.simulate_blocks(blocks.iter().copied());

    assert!(
        dm_stats.misses < fa_stats.misses,
        "direct-mapped {} vs fully-associative {}",
        dm_stats.misses,
        fa_stats.misses
    );
}
