//! The fast replay engine: pre-classified reuse and a single-pass byte-table
//! replay kernel.
//!
//! Replaying a candidate through the general [`Cache`](cache_sim::Cache)
//! spends almost all of its time on work that is *not* candidate-specific:
//! the `MissClassifier`'s LRU-stack walk (a HashMap probe plus pointer chase
//! per access) and the per-access `dyn IndexFunction` virtual call that
//! allocates a `BitVec` inside `XorIndex::set_index`. This module restructures
//! the replay around what actually varies per candidate:
//!
//! 1. **Shared 3C pre-classification** — one [`ReuseStream`] pass per
//!    (trace, geometry) records each access's reuse class. Compulsory and
//!    capacity misses are index-function-independent (the paper's Eq. 2/3
//!    decomposition), so `k`-candidate replay pays the classification once.
//! 2. **Byte-table set indices** — a candidate's set index is linear over
//!    GF(2), so `a · H` is the XOR over the address bytes of each byte's own
//!    contribution. Per candidate, 256-entry tables per byte of hashed
//!    address hold those contributions, and a set index costs one lookup per
//!    byte instead of a parity per set-index bit.
//! 3. **One fused pass** — a single loop over the trace looks up each
//!    access's set, runs it through [`CompactSets`] tag arrays and, on a
//!    miss, reads its 3C class from the reuse stream. No per-access index
//!    vector is materialized and no thread is started.
//!
//! The engine is bit-identical to the legacy replayer — same [`SimStats`],
//! including the per-set conflict breakdown; the equivalence is pinned by
//! proptests in `tests/fast_vs_legacy.rs`.

use std::sync::atomic::{AtomicU64, Ordering};

use cache_sim::{
    BlockAddr, CacheConfig, CacheStats, CompactAccess, CompactSets, MissClass, ReuseStream,
    COMPACT_MAX_WAYS,
};
use xorindex::HashFunction;

use crate::SimStats;

/// `true` when `config` can be simulated by the fast engine: LRU (the
/// replayer's only policy), compact associativity, and set indices that fit
/// the `u32` table entries.
pub(crate) fn fast_eligible(config: &CacheConfig) -> bool {
    config.associativity() <= COMPACT_MAX_WAYS && config.set_bits() <= 32
}

/// A candidate's set-index function as byte tables: entry `v` of table `k`
/// is the set index of the address whose only nonzero byte is byte `k` with
/// value `v`. Because `a · H` is linear over GF(2), the set index of any
/// block is the XOR of its bytes' entries, so [`set_index`] equals
/// [`HashFunction::set_index_of`] for every `u64`, including addresses with
/// bits above the hashed width (rows at or above it contribute zero).
///
/// There are ⌈n/8⌉ tables for `n` hashed bits, padded with all-zero tables
/// to a power of two so [`replay_fast`] needs only four fixed table counts.
/// `function` must have at most 32 set bits, as every `fast_eligible`
/// geometry does.
fn byte_tables(function: &HashFunction) -> Vec<[u32; 256]> {
    let n = function.hashed_bits();
    // Row r of H is the set index of address bit r alone.
    let rows: Vec<u32> = (0..n)
        .map(|r| function.matrix().row(r).as_u64() as u32)
        .collect();
    (0..n.div_ceil(8).next_power_of_two())
        .map(|k| {
            let mut table = [0u32; 256];
            for v in 1..256usize {
                // Entry v extends entry v-without-its-lowest-bit by the row
                // of that bit.
                let bit = 8 * k + v.trailing_zeros() as usize;
                table[v] = table[v & (v - 1)] ^ rows.get(bit).copied().unwrap_or(0);
            }
            table
        })
        .collect()
}

/// The set index of `block`: one lookup per byte table.
#[inline(always)]
fn set_index(tables: &[[u32; 256]], block: u64) -> u32 {
    tables.iter().enumerate().fold(0, |set, (k, table)| {
        set ^ table[((block >> (8 * k)) & 0xff) as usize]
    })
}

/// Replays one candidate in a single pass over the trace: byte-table set
/// lookups into compact LRU tag arrays, with misses classified by the shared
/// reuse stream.
pub(crate) fn replay_fast(
    config: &CacheConfig,
    trace: &[BlockAddr],
    reuse: &ReuseStream,
    function: &HashFunction,
) -> SimStats {
    let tables = byte_tables(function);
    // A table count known at compile time unrolls the per-access lookups;
    // measured, that and the inlined tag-array access together cut the pass
    // by about a third.
    match tables.len() {
        1 => replay_with::<1>(config, trace, reuse, &tables),
        2 => replay_with::<2>(config, trace, reuse, &tables),
        4 => replay_with::<4>(config, trace, reuse, &tables),
        _ => replay_with::<8>(config, trace, reuse, &tables),
    }
}

fn replay_with<const K: usize>(
    config: &CacheConfig,
    trace: &[BlockAddr],
    reuse: &ReuseStream,
    tables: &[[u32; 256]],
) -> SimStats {
    let tables: &[[u32; 256]; K] = tables
        .try_into()
        .expect("byte_tables pads to 1, 2, 4 or 8 tables");
    let num_sets = config.num_sets() as usize;
    let mut sets = CompactSets::new(num_sets, config.associativity() as usize);
    let mut conflicts = vec![0u64; num_sets];
    let mut stats = CacheStats::new();
    for (i, &block) in trace.iter().enumerate() {
        let set = set_index(tables, block.as_u64()) as usize;
        match sets.access(set, block.as_u64()) {
            CompactAccess::Hit => stats.record_hit(),
            outcome @ (CompactAccess::MissFilled | CompactAccess::MissEvicted) => {
                let class = reuse.miss_class(i);
                if class == MissClass::Conflict {
                    conflicts[set] += 1;
                }
                stats.record_miss(Some(class), outcome == CompactAccess::MissEvicted);
            }
        }
    }
    let set_conflicts = conflicts
        .into_iter()
        .enumerate()
        .filter(|&(_, count)| count > 0)
        .map(|(set, count)| (set as u32, count))
        .collect();
    SimStats {
        stats,
        set_conflicts,
    }
}

/// Counters describing how a [`TraceReplayer`](crate::TraceReplayer) has been
/// exercised: replays run and how often the shared 3C pre-classification was
/// built vs reused. Shared across clones of the replayer, so a service sees
/// the totals for an application across requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Candidate replays run (fast or legacy path).
    pub replays: u64,
    /// Times the function-independent reuse stream was built from scratch.
    pub preclass_builds: u64,
    /// Replays that reused an already-built reuse stream.
    pub preclass_hits: u64,
}

/// Shared atomic backing store for [`ReplayStats`].
#[derive(Debug, Default)]
pub(crate) struct ReplayCounters {
    replays: AtomicU64,
    preclass_builds: AtomicU64,
    preclass_hits: AtomicU64,
}

impl ReplayCounters {
    pub(crate) fn note_replays(&self, n: u64) {
        self.replays.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_preclass_build(&self) {
        self.preclass_builds.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_preclass_hit(&self) {
        self.preclass_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ReplayStats {
        ReplayStats {
            replays: self.replays.load(Ordering::Relaxed),
            preclass_builds: self.preclass_builds.load(Ordering::Relaxed),
            preclass_hits: self.preclass_hits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn trace() -> Vec<BlockAddr> {
        (0..500u64)
            .map(|i| BlockAddr((i * 37) % 97 + (i % 3) * 256))
            .collect()
    }

    #[test]
    fn sliced_indices_match_the_hash_function() {
        let trace = trace();
        for function in [
            HashFunction::conventional(16, 8).unwrap(),
            HashFunction::bit_selecting(16, &[1, 3, 5, 7, 9, 11, 13, 15]).unwrap(),
        ] {
            let tables = byte_tables(&function);
            for (i, &b) in trace.iter().enumerate() {
                assert_eq!(
                    u64::from(set_index(&tables, b.as_u64())),
                    function.set_index_of(b.as_u64()),
                    "access {i}"
                );
            }
        }
    }

    /// The byte tables of a neighbour (one differing column) and of a
    /// narrower function agree with the hash function at every width the
    /// tables cover in part: partial last bytes and bits above the width.
    #[test]
    fn derive_equals_build_for_neighbours() {
        let parent_fn = HashFunction::conventional(16, 8).unwrap();
        let child_fn = HashFunction::bit_selecting(16, &[0, 1, 2, 3, 4, 5, 6, 15]).unwrap();
        let narrow_fn = HashFunction::conventional(13, 4).unwrap();
        let wide_fn = HashFunction::bit_selecting(26, &[25, 17, 8, 0]).unwrap();
        let blocks = trace().into_iter().map(|b| b.as_u64()).chain([
            u64::MAX,
            1 << 63,
            0x00ff_00ff_00ff_00ff,
            (1 << 26) - 1,
        ]);
        for block in blocks {
            for function in [&parent_fn, &child_fn, &narrow_fn, &wide_fn] {
                assert_eq!(
                    u64::from(set_index(&byte_tables(function), block)),
                    function.set_index_of(block),
                    "block {block:#x}"
                );
            }
        }
    }

    /// `with_set_partitions` survives as a no-op: no partition count changes
    /// what a replay returns.
    #[test]
    fn partitioned_replay_is_partition_count_invariant() {
        let trace = trace();
        let config = CacheConfig::paper_cache(1);
        let function = HashFunction::conventional(16, config.set_bits()).unwrap();
        let reuse = ReuseStream::build(&trace, config.num_blocks() as usize);
        let one = replay_fast(&config, &trace, &reuse, &function);
        for partitions in [0usize, 1, 2, 3, 7, 1024] {
            let replayer = crate::TraceReplayer::new(config, Arc::new(trace.clone()))
                .with_set_partitions(partitions);
            assert_eq!(
                replayer.replay(&function).unwrap(),
                one,
                "partitions {partitions}"
            );
        }
        assert_eq!(one.stats.accesses, trace.len() as u64);
    }

    #[test]
    fn counters_snapshot_roundtrip() {
        let counters = ReplayCounters::default();
        counters.note_replays(3);
        counters.note_preclass_build();
        counters.note_preclass_hit();
        counters.note_preclass_hit();
        assert_eq!(
            counters.snapshot(),
            ReplayStats {
                replays: 3,
                preclass_builds: 1,
                preclass_hits: 2
            }
        );
        let _ = Arc::new(counters);
    }
}
