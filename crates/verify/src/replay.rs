//! The fast replay engine: pre-classified reuse, one simulation per block
//! partition and fused byte-table passes.
//!
//! Replaying a candidate through the general [`Cache`](cache_sim::Cache)
//! spends almost all of its time on work that is *not* candidate-specific:
//! the `MissClassifier`'s LRU-stack walk (a HashMap probe plus pointer chase
//! per access) and the per-access `dyn IndexFunction` virtual call that
//! allocates a `BitVec` inside `XorIndex::set_index`. This module restructures
//! the replay around what actually varies per candidate:
//!
//! 1. **Shared 3C pre-classification** — one [`ReuseStream`] pass per
//!    (trace, geometry) records each access's reuse class and the trace's
//!    distinct blocks. Compulsory and capacity misses are
//!    index-function-independent (the paper's Eq. 2/3 decomposition), so a
//!    `k`-candidate replay pays the classification once.
//! 2. **One simulation per block partition** — a candidate acts on the trace
//!    only through which distinct blocks share a set, and an LRU set's state
//!    depends only on the ordered accesses of the blocks mapped to it. So two
//!    candidates that partition the blocks alike simulate alike, up to the
//!    names of their sets: `share` groups a batch by partition, comparing
//!    each candidate with each group's leader block by block and stopping at
//!    the first block whose set maps to two sets. Only leaders are simulated;
//!    every other member takes its leader's [`SimStats`] with the per-set
//!    conflicts renamed through the block-wise set map (`relabel`).
//! 3. **Byte-table set indices** — a candidate's set index is linear over
//!    GF(2), so `a · H` is the XOR over the address bytes of each byte's own
//!    contribution. Per candidate, 256-entry tables per byte of hashed
//!    address hold those contributions, and a set index costs one lookup per
//!    byte instead of a parity per set-index bit.
//! 4. **Fused passes** — `replay_fused` runs the leaders as lanes of one
//!    loop over the trace, two lanes per pass: each access is split into
//!    bytes once, then every lane looks its set up and runs it through its
//!    own tags, and only a miss reads the access's reuse class. Direct-mapped
//!    lanes keep one bare tag per set, every set starting at the trace's
//!    [unused block](ReuseStream::unused_block), so a hit is a single
//!    compare; set-associative lanes use [`CompactSets`]. Compulsory misses
//!    are the distinct blocks, so a lane tallies only capacity misses,
//!    evictions and per-set conflicts. No per-access index vector is
//!    materialized. A single replay is the one-lane case.
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

/// A candidate's set-index function as byte tables; see [`byte_tables`].
pub(crate) type ByteTables = Vec<[u32; 256]>;

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
/// to a power of two so [`replay_fused`] needs only four fixed table
/// counts. `function` must have at most 32 set bits, as every geometry a
/// replayer can simulate has: 2^33 sets do not fit in memory.
pub(crate) fn byte_tables(function: &HashFunction) -> ByteTables {
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
#[inline]
fn set_index(tables: &[[u32; 256]], block: BlockAddr) -> usize {
    tables.iter().enumerate().fold(0, |set, (k, table)| {
        set ^ table[((block.as_u64() >> (8 * k)) & 0xff) as usize]
    }) as usize
}

/// Marks a set that [`PartitionMatch`] has not paired yet.
const UNPAIRED: u32 = u32::MAX;

/// Pairs the sets of two candidates while checking that they partition the
/// trace's distinct blocks alike. Both maps are `num_sets` long and reset
/// entry by entry after each comparison, so a comparison that stops early
/// costs only the blocks it read.
struct PartitionMatch {
    /// Set of the leader → set of the candidate.
    forward: Vec<u32>,
    /// Set of the candidate → set of the leader.
    backward: Vec<u32>,
    /// Leader sets paired by the current comparison.
    paired: Vec<usize>,
}

impl PartitionMatch {
    fn new(num_sets: usize) -> Self {
        PartitionMatch {
            forward: vec![UNPAIRED; num_sets],
            backward: vec![UNPAIRED; num_sets],
            paired: Vec::new(),
        }
    }

    /// The leader's-set → candidate's-set map when `leader` and `candidate`
    /// put the same blocks together, `None` at the first block whose set
    /// under one maps to two sets under the other.
    fn relabeling(
        &mut self,
        leader: &ByteTables,
        candidate: &ByteTables,
        blocks: &[BlockAddr],
    ) -> Option<Vec<u32>> {
        let mut same = true;
        for &block in blocks {
            let (from, to) = (set_index(leader, block), set_index(candidate, block));
            if self.forward[from] == to as u32 {
                continue;
            }
            if self.forward[from] != UNPAIRED || self.backward[to] != UNPAIRED {
                same = false;
                break;
            }
            self.forward[from] = to as u32;
            self.backward[to] = from as u32;
            self.paired.push(from);
        }
        let map = same.then(|| self.forward.clone());
        for from in self.paired.drain(..) {
            self.backward[self.forward[from] as usize] = UNPAIRED;
            self.forward[from] = UNPAIRED;
        }
        map
    }
}

/// Where one candidate of a batch gets its simulation from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Share {
    /// Position of the group leader whose simulation this candidate takes:
    /// the candidate's own position when it leads.
    pub(crate) leader: usize,
    /// Leader's set → this candidate's set; `None` for a leader.
    pub(crate) sets: Option<Vec<u32>>,
}

/// Groups candidates by the partition of `blocks` their set-index
/// functions induce. Each candidate is compared with every earlier leader
/// in order and joins the first that partitions alike; otherwise it leads a
/// group of its own. Exact: equal partitions simulate alike.
pub(crate) fn share(blocks: &[BlockAddr], num_sets: usize, tables: &[ByteTables]) -> Vec<Share> {
    let mut matcher = None;
    let mut leaders = Vec::new();
    (0..tables.len())
        .map(|i| {
            for &leader in &leaders {
                let matcher = matcher.get_or_insert_with(|| PartitionMatch::new(num_sets));
                let sets = matcher.relabeling(&tables[leader], &tables[i], blocks);
                if sets.is_some() {
                    return Share { leader, sets };
                }
            }
            leaders.push(i);
            Share {
                leader: i,
                sets: None,
            }
        })
        .collect()
}

/// `sim` with each conflicting set renamed through `sets` (the leader's set
/// → the member's), re-sorted by the new names.
pub(crate) fn relabel(sim: &SimStats, sets: &[u32]) -> SimStats {
    let mut set_conflicts: Vec<(u32, u64)> = sim
        .set_conflicts
        .iter()
        .map(|&(set, count)| (sets[set as usize], count))
        .collect();
    set_conflicts.sort_unstable();
    SimStats {
        stats: sim.stats,
        set_conflicts,
    }
}

/// A lane's tag storage.
trait Tags {
    fn access(&mut self, set: usize, block: u64) -> CompactAccess;
}

/// Direct-mapped tags: one per set and no occupancy byte. Every set starts
/// at a block the trace never touches, so no access hits an empty set and a
/// miss evicts exactly when the old tag is not that block.
struct DirectTags {
    tags: Vec<u64>,
    empty: u64,
}

impl Tags for DirectTags {
    #[inline(always)]
    fn access(&mut self, set: usize, block: u64) -> CompactAccess {
        let tag = &mut self.tags[set];
        if *tag == block {
            return CompactAccess::Hit;
        }
        if std::mem::replace(tag, block) == self.empty {
            CompactAccess::MissFilled
        } else {
            CompactAccess::MissEvicted
        }
    }
}

impl Tags for CompactSets {
    #[inline(always)]
    fn access(&mut self, set: usize, block: u64) -> CompactAccess {
        CompactSets::access(self, set, block)
    }
}

/// One candidate in a fused pass: its `K` byte tables, its tags and its
/// miss tallies. Compulsory misses need none: every first touch misses.
struct Lane<const K: usize, T> {
    tables: [[u32; 256]; K],
    tags: T,
    capacity_misses: u64,
    evictions: u64,
    /// Conflict misses per set.
    conflicts: Vec<u64>,
}

impl<const K: usize, T> Lane<K, T> {
    fn into_sim(self, accesses: u64, compulsory_misses: u64) -> SimStats {
        let set_conflicts: Vec<(u32, u64)> = self
            .conflicts
            .into_iter()
            .enumerate()
            .filter(|&(_, count)| count > 0)
            .map(|(set, count)| (set as u32, count))
            .collect();
        let conflict_misses = set_conflicts.iter().map(|&(_, count)| count).sum::<u64>();
        let misses = compulsory_misses + self.capacity_misses + conflict_misses;
        SimStats {
            stats: CacheStats {
                accesses,
                hits: accesses - misses,
                misses,
                compulsory_misses,
                capacity_misses: self.capacity_misses,
                conflict_misses,
                evictions: self.evictions,
            },
            set_conflicts,
        }
    }
}

/// Replays one candidate per entry of `tables` as the lanes of passes over
/// the trace, [`MAX_LANES`] per pass: per access, every lane looks its set
/// up in its byte tables, runs its tags and, on a miss, tallies the access's
/// reuse class from the shared stream. Results are in `tables` order.
pub(crate) fn replay_fused(
    config: &CacheConfig,
    trace: &[BlockAddr],
    reuse: &ReuseStream,
    tables: &[&ByteTables],
) -> Vec<SimStats> {
    let num_sets = config.num_sets() as usize;
    let ways = config.associativity() as usize;
    if ways == 1 {
        let empty = reuse.unused_block().as_u64();
        let tags = move || DirectTags {
            tags: vec![empty; num_sets],
            empty,
        };
        fused_with(trace, reuse, tables, num_sets, tags)
    } else {
        fused_with(trace, reuse, tables, num_sets, || {
            CompactSets::new(num_sets, ways)
        })
    }
}

/// [`replay_fused`] with the batch's widest table count fixed at compile
/// time, which unrolls the per-access lookups; narrower candidates are
/// padded with all-zero tables.
fn fused_with<T: Tags>(
    trace: &[BlockAddr],
    reuse: &ReuseStream,
    tables: &[&ByteTables],
    num_sets: usize,
    tags: impl Fn() -> T + Copy,
) -> Vec<SimStats> {
    match tables.iter().map(|t| t.len()).max().unwrap_or(1) {
        1 => lanes_of::<1, T>(trace, reuse, tables, num_sets, tags),
        2 => lanes_of::<2, T>(trace, reuse, tables, num_sets, tags),
        4 => lanes_of::<4, T>(trace, reuse, tables, num_sets, tags),
        _ => lanes_of::<8, T>(trace, reuse, tables, num_sets, tags),
    }
}

/// Most lanes one pass carries; a longer batch runs in passes of this many.
/// A lane count known at compile time unrolls the per-access lane loop and
/// keeps each lane's tallies out of memory. Measured on crc @ 1 KB and
/// fir @ 4 KB, a two-lane pass costs 0.8–0.9× two one-lane passes, but a
/// three- or four-lane pass costs more than as many one-lane passes.
const MAX_LANES: usize = 2;

fn lanes_of<const K: usize, T: Tags>(
    trace: &[BlockAddr],
    reuse: &ReuseStream,
    tables: &[&ByteTables],
    num_sets: usize,
    tags: impl Fn() -> T + Copy,
) -> Vec<SimStats> {
    tables
        .chunks(MAX_LANES)
        .flat_map(|chunk| match chunk {
            [_] => pass::<K, 1, T>(trace, reuse, chunk, num_sets, tags),
            _ => pass::<K, 2, T>(trace, reuse, chunk, num_sets, tags),
        })
        .collect()
}

fn pass<const K: usize, const L: usize, T: Tags>(
    trace: &[BlockAddr],
    reuse: &ReuseStream,
    tables: &[&ByteTables],
    num_sets: usize,
    tags: impl Fn() -> T,
) -> Vec<SimStats> {
    let mut lanes: [Lane<K, T>; L] = std::array::from_fn(|lane| Lane {
        tables: std::array::from_fn(|k| tables[lane].get(k).copied().unwrap_or([0; 256])),
        tags: tags(),
        capacity_misses: 0,
        evictions: 0,
        conflicts: vec![0; num_sets],
    });
    for (i, &block) in trace.iter().enumerate() {
        let block = block.as_u64();
        let bytes: [usize; K] = std::array::from_fn(|k| ((block >> (8 * k)) & 0xff) as usize);
        for lane in &mut lanes {
            let set = bytes
                .iter()
                .zip(&lane.tables)
                .fold(0, |set, (&byte, table)| set ^ table[byte]) as usize;
            let outcome = lane.tags.access(set, block);
            if outcome != CompactAccess::Hit {
                lane.evictions += u64::from(outcome == CompactAccess::MissEvicted);
                match reuse.miss_class(i) {
                    MissClass::Conflict => lane.conflicts[set] += 1,
                    MissClass::Capacity => lane.capacity_misses += 1,
                    MissClass::Compulsory => {}
                }
            }
        }
    }
    let compulsory_misses = reuse.distinct_blocks().len() as u64;
    lanes
        .into_iter()
        .map(|lane| lane.into_sim(trace.len() as u64, compulsory_misses))
        .collect()
}

/// Counters describing how a [`TraceReplayer`](crate::TraceReplayer) has been
/// exercised: replays run and how often the shared 3C pre-classification was
/// built vs reused. Shared across clones of the replayer, so a service sees
/// the totals for an application across requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Candidates simulated by a pass over the trace (fast or legacy path);
    /// a relabelled candidate does not count.
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
                    set_index(&tables, b) as u64,
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
                    set_index(&byte_tables(function), BlockAddr(block)) as u64,
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
        let one = replay_fused(&config, &trace, &reuse, &[&byte_tables(&function)]).remove(0);
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

    /// A column permutation of a function renames its sets but keeps its
    /// partition, so it shares the function's simulation; a function that
    /// separates two blocks the first one pairs leads a group of its own.
    #[test]
    fn shared_candidates_take_their_leaders_relabelled_simulation() {
        // Seven blocks in each of five conventional sets, all reused within
        // capacity: every set conflicts.
        let trace: Vec<BlockAddr> = (0..500u64)
            .map(|i| BlockAddr((i % 7) * 256 + i % 5))
            .collect();
        let config = CacheConfig::paper_cache(1);
        let reuse = ReuseStream::build(&trace, config.num_blocks() as usize);
        let functions = [
            HashFunction::conventional(16, 8).unwrap(),
            HashFunction::bit_selecting(16, &[7, 6, 5, 4, 3, 2, 1, 0]).unwrap(),
            HashFunction::bit_selecting(16, &[0, 1, 2, 3, 4, 5, 6, 9]).unwrap(),
            HashFunction::bit_selecting(16, &[9, 1, 2, 3, 4, 5, 6, 0]).unwrap(),
        ];
        let tables: Vec<ByteTables> = functions.iter().map(byte_tables).collect();
        let shares = share(reuse.distinct_blocks(), config.num_sets() as usize, &tables);
        let leaders: Vec<usize> = shares.iter().map(|s| s.leader).collect();
        assert_eq!(leaders, [0, 0, 2, 2]);
        let each: Vec<SimStats> = tables
            .iter()
            .map(|t| replay_fused(&config, &trace, &reuse, &[t]).remove(0))
            .collect();
        assert!(each[0].conflict_misses() > 0);
        assert_ne!(each[0].set_conflicts, each[1].set_conflicts);
        for (i, share) in shares.iter().enumerate() {
            let sim = match &share.sets {
                Some(sets) => relabel(&each[share.leader], sets),
                None => each[i].clone(),
            };
            assert_eq!(sim, each[i], "candidate {i}");
        }
        let fused = replay_fused(&config, &trace, &reuse, &tables.iter().collect::<Vec<_>>());
        assert_eq!(fused, each);
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
