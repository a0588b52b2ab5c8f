//! Conflict-vector profiling (paper Fig. 1).

use cache_sim::BlockAddr;
use gf2::BitVec;
use serde::{Deserialize, Serialize};

use crate::hasher::WordMap;
use crate::XorIndexError;

/// Summary counters of a profiling run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileSummary {
    /// References profiled.
    pub references: u64,
    /// First-touch (compulsory) accesses, excluded from the histogram.
    pub compulsory: u64,
    /// Accesses whose reuse distance exceeds the cache capacity (capacity
    /// misses under any index function), excluded from the histogram.
    pub capacity: u64,
    /// Accesses that contributed conflict vectors to the histogram.
    pub profiled: u64,
    /// Total conflict vectors accumulated (one per intermediate block of each
    /// profiled access).
    pub conflict_vectors: u64,
}

/// The conflict-vector histogram `misses(v)` produced by the paper's profiling
/// algorithm (Fig. 1).
///
/// One pass over the block-address trace keeps the top of the paper's LRU
/// stack: the `capacity + 1` most recently used distinct blocks, in recency
/// order — as deep as a reuse within the cache capacity reaches. For every
/// access to a block `x` still in that window, the blocks `y` above it are
/// exactly those touched since its previous use, and the algorithm
/// increments `misses(x ⊕ y)` for each (truncated to the hashed width `n`).
/// One word-hashed probe per reference tells such a reuse from a first touch
/// (compulsory) and from a block that has left the window (reuse distance
/// larger than the cache capacity); both of those are filtered out because
/// no index function can avoid their misses. A reuse at distance `d` costs
/// O(1 + d): it scans only the `d` blocks whose vectors it records.
///
/// Each recorded vector below `2^min(n, 16)` is one indexed add into a flat
/// counter table (512 KiB at the paper's `n = 16`); only wider vectors go
/// through a word-hashed map. One ascending scan of the table, followed by
/// the sorted map, yields the entries, so at `n ≤ 16` no vector is hashed
/// or sorted.
///
/// The histogram then estimates the conflict misses of *any* hash function `H`
/// as `Σ_{v ∈ N(H)} misses(v)` (paper Eq. 4) — see
/// [`MissEstimator`](crate::MissEstimator).
///
/// The histogram is held in the one form every pricing path reads: raw
/// `(vector, weight)` pairs sorted ascending by vector, with neither the zero
/// vector nor a zero weight ([`ConflictProfile::entries`]). Point lookups
/// binary-search them; a [`FrozenKernel`](crate::FrozenKernel) adds a dense
/// lookup table on top.
///
/// # Example
///
/// ```
/// use cache_sim::BlockAddr;
/// use xorindex::ConflictProfile;
///
/// // Two blocks 256 apart ping-pong; with a 256-block cache their conflicts
/// // are recorded under the vector 0x100.
/// let trace = (0..20u64).map(|i| BlockAddr((i % 2) * 0x100));
/// let profile = ConflictProfile::from_blocks(trace, 16, 256);
/// assert_eq!(profile.misses_of(0x100), 18);
/// assert_eq!(profile.summary().compulsory, 2);
/// assert_eq!(profile.entries(), &[(0x100, 18)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConflictProfile {
    hashed_bits: usize,
    capacity_blocks: usize,
    summary: ProfileSummary,
    /// `(vector, weight)` pairs, strictly ascending by vector; neither the
    /// zero vector nor a zero weight appears.
    entries: Vec<(u64, u64)>,
}

/// Conflict vectors below `2^FLAT_BITS` are counted in a flat table indexed
/// by the vector; wider ones in a word-hashed map. At 16 bits the table is
/// 512 KiB of `u64` counters and stays cache-resident; a 20-bit table
/// (8 MiB) measured slower on 20- and 26-bit profiles too.
const FLAT_BITS: usize = 16;

/// Table slots tested together (one OR) before the extraction scan looks at
/// them one by one, so that the mostly empty table of a short trace is
/// skipped 16 slots at a time.
const SCAN_CHUNK: usize = 16;

/// The low `hashed_bits` bits of a word.
fn width_mask(hashed_bits: usize) -> u64 {
    if hashed_bits == 64 {
        u64::MAX
    } else {
        (1u64 << hashed_bits) - 1
    }
}

impl ConflictProfile {
    /// Profiles a block-address stream for a cache of `capacity_blocks`
    /// blocks, hashing the low `hashed_bits` bits of the block address.
    ///
    /// # Panics
    ///
    /// Panics if `hashed_bits` is 0 or larger than 64, or if
    /// `capacity_blocks` is 0.
    #[must_use]
    pub fn from_blocks<I>(blocks: I, hashed_bits: usize, capacity_blocks: usize) -> Self
    where
        I: IntoIterator<Item = BlockAddr>,
    {
        assert!(
            (1..=64).contains(&hashed_bits),
            "hashed_bits must be in 1..=64"
        );
        assert!(capacity_blocks > 0, "cache capacity must be positive");
        let mask = width_mask(hashed_bits);
        // The `capacity + 1` most recent distinct blocks, least recent first,
        // live in `window[start..]`; evicting slides `start` and the dead
        // prefix is dropped once it is as long as the window.
        let span = capacity_blocks.saturating_add(1);
        let mut window: Vec<u64> = Vec::new();
        let mut start = 0usize;
        // Every block seen, and whether it is still inside the window.
        let mut in_window: WordMap<u64, bool> = WordMap::default();
        // `flat[v]` counts vector `v` below `slots`, `2^min(n, FLAT_BITS)`
        // but at least one whole scan chunk; `wide` the rest. The table is
        // allocated at the first near reuse, so a trace without one costs
        // nothing extra. Slot 0 collects the zero vector, which only
        // truncation of high-order bits produces: it never represents an
        // avoidable conflict, so it is dropped from the entries (it still
        // counts in `conflict_vectors`).
        let slots = (1u64 << hashed_bits.min(FLAT_BITS)).max(SCAN_CHUNK as u64);
        let mut flat: Vec<u64> = Vec::new();
        let mut wide: WordMap<u64, u64> = WordMap::default();
        let mut summary = ProfileSummary::default();
        for block in blocks {
            summary.references += 1;
            let x = block.as_u64();
            match in_window.insert(x, true) {
                Some(true) => {
                    if flat.is_empty() {
                        flat = vec![0; slots as usize];
                    }
                    // The blocks above `x` are the ones touched since its
                    // last use, at most `capacity` of them.
                    let live = &mut window[start..];
                    let mut distance = 0usize;
                    for &y in live.iter().rev().take_while(|&&y| y != x) {
                        distance += 1;
                        let v = (x ^ y) & mask;
                        if v < slots {
                            flat[v as usize] += 1;
                        } else {
                            *wide.entry(v).or_insert(0) += 1;
                        }
                    }
                    let at = live.len() - 1 - distance;
                    live[at..].rotate_left(1);
                    summary.profiled += 1;
                    summary.conflict_vectors += distance as u64;
                }
                seen => {
                    if seen.is_none() {
                        summary.compulsory += 1;
                    } else {
                        summary.capacity += 1;
                    }
                    window.push(x);
                    if window.len() - start > span {
                        in_window.insert(window[start], false);
                        start += 1;
                        if start == span {
                            window.drain(..start);
                            start = 0;
                        }
                    }
                }
            }
        }
        let mut entries: Vec<(u64, u64)> = Vec::new();
        for (chunk, counts) in flat.chunks_exact(SCAN_CHUNK).enumerate() {
            if counts.iter().fold(0, |any, &w| any | w) != 0 {
                let base = (chunk * SCAN_CHUNK) as u64;
                entries.extend(
                    (base..)
                        .zip(counts.iter().copied())
                        .filter(|&(v, w)| v != 0 && w != 0),
                );
            }
        }
        // Every map key lies above the table, so the sorted map follows it.
        let table_entries = entries.len();
        entries.extend(wide);
        entries[table_entries..].sort_unstable_by_key(|&(v, _)| v);
        ConflictProfile {
            hashed_bits,
            capacity_blocks,
            summary,
            entries,
        }
    }

    /// Reassembles a profile from its serialized parts — the counterpart of
    /// [`ConflictProfile::hashed_bits`], [`ConflictProfile::capacity_blocks`]
    /// and [`ConflictProfile::entries`], used by snapshot restore. The
    /// entries are taken as they are, never re-sorted. The summary keeps
    /// only what the entries retain: `conflict_vectors` and `profiled` carry
    /// their total weight, while `references`, `compulsory` and `capacity`
    /// are zero because no trace is at hand.
    ///
    /// # Errors
    ///
    /// [`XorIndexError::MalformedProfile`] when the parts violate the
    /// histogram's invariants: `hashed_bits` in `1..=64`, a non-zero
    /// capacity, and entries strictly ascending by vector, with non-zero
    /// vectors inside the hashed width, non-zero weights, and a total weight
    /// that fits a `u64`.
    pub fn from_parts(
        hashed_bits: usize,
        capacity_blocks: usize,
        entries: Vec<(u64, u64)>,
    ) -> Result<Self, XorIndexError> {
        let malformed = |reason: String| XorIndexError::MalformedProfile { reason };
        if !(1..=64).contains(&hashed_bits) {
            return Err(malformed(format!(
                "hashed_bits {hashed_bits} not in 1..=64"
            )));
        }
        if capacity_blocks == 0 {
            return Err(malformed("capacity_blocks is zero".to_string()));
        }
        let mask = width_mask(hashed_bits);
        let mut total = 0u64;
        let mut last: Option<u64> = None;
        for &(v, w) in &entries {
            if v == 0 {
                return Err(malformed("zero conflict vector recorded".to_string()));
            }
            if v & !mask != 0 {
                return Err(malformed(format!(
                    "vector {v:#x} outside the {hashed_bits}-bit hashed space"
                )));
            }
            if w == 0 {
                return Err(malformed(format!("vector {v:#x} has zero weight")));
            }
            if last.is_some_and(|prev| prev >= v) {
                return Err(malformed(
                    "entries not strictly ascending by vector".to_string(),
                ));
            }
            last = Some(v);
            total = total
                .checked_add(w)
                .ok_or_else(|| malformed("total weight overflows u64".to_string()))?;
        }
        Ok(ConflictProfile {
            hashed_bits,
            capacity_blocks,
            summary: ProfileSummary {
                profiled: total,
                conflict_vectors: total,
                ..ProfileSummary::default()
            },
            entries,
        })
    }

    /// Number of hashed address bits `n`.
    #[must_use]
    pub fn hashed_bits(&self) -> usize {
        self.hashed_bits
    }

    /// Cache capacity (in blocks) used to filter capacity misses.
    #[must_use]
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_blocks
    }

    /// Profiling counters.
    #[must_use]
    pub fn summary(&self) -> ProfileSummary {
        self.summary
    }

    /// Number of distinct conflict vectors observed.
    #[must_use]
    pub fn distinct_vectors(&self) -> usize {
        self.entries.len()
    }

    /// The accumulated weight `misses(v)` of a conflict vector.
    #[must_use]
    pub fn misses(&self, v: BitVec) -> u64 {
        debug_assert_eq!(v.width(), self.hashed_bits);
        self.misses_of(v.as_u64())
    }

    /// Convenience form of [`ConflictProfile::misses`] taking the raw bits of
    /// the vector (truncated to the hashed width).
    #[must_use]
    pub fn misses_of(&self, v: u64) -> u64 {
        let v = v & width_mask(self.hashed_bits);
        self.entries
            .binary_search_by_key(&v, |&(vector, _)| vector)
            .map_or(0, |i| self.entries[i].1)
    }

    /// The `(vector, weight)` pairs as raw words, ascending by vector.
    #[must_use]
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    /// Iterates over `(vector, weight)` pairs in ascending vector order.
    pub fn iter(&self) -> impl Iterator<Item = (BitVec, u64)> + '_ {
        self.entries
            .iter()
            .map(|&(v, w)| (BitVec::from_u64(v, self.hashed_bits), w))
    }

    /// The `count` heaviest conflict vectors, sorted by decreasing weight
    /// (ties broken by vector value for determinism).
    #[must_use]
    pub fn heaviest(&self, count: usize) -> Vec<(BitVec, u64)> {
        let mut all: Vec<(BitVec, u64)> = self.iter().collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(count);
        all
    }

    /// Total weight over all vectors: an upper bound on the number of conflict
    /// misses any single hash function can be charged with by Eq. 4.
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.entries.iter().map(|&(_, w)| w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(seq: &[u64]) -> Vec<BlockAddr> {
        seq.iter().copied().map(BlockAddr).collect()
    }

    #[test]
    fn ping_pong_conflicts_are_counted() {
        // x=0 and y=0x100 alternate; every non-first access sees exactly the
        // other block above it on the stack.
        let trace: Vec<BlockAddr> = (0..10u64).map(|i| BlockAddr((i % 2) * 0x100)).collect();
        let p = ConflictProfile::from_blocks(trace, 16, 64);
        assert_eq!(p.misses_of(0x100), 8);
        assert_eq!(p.distinct_vectors(), 1);
        assert_eq!(p.summary().compulsory, 2);
        assert_eq!(p.summary().profiled, 8);
        assert_eq!(p.summary().references, 10);
        assert_eq!(p.total_weight(), 8);
    }

    #[test]
    fn from_parts_rebuilds_the_histogram_without_its_trace() {
        let trace: Vec<BlockAddr> = (0..200u64)
            .map(|i| BlockAddr((i % 3) * 0x40 + (i % 5) * 0x900))
            .collect();
        let original = ConflictProfile::from_blocks(trace, 13, 64);
        let rebuilt = ConflictProfile::from_parts(13, 64, original.entries().to_vec()).unwrap();
        // Histogram and geometry are exact…
        assert_eq!(rebuilt.hashed_bits(), 13);
        assert_eq!(rebuilt.capacity_blocks(), 64);
        assert_eq!(rebuilt.entries(), original.entries());
        assert_eq!(rebuilt.heaviest(5), original.heaviest(5));
        // …while the summary records only what the entries retain.
        let total = original.total_weight();
        assert!(total > 0);
        assert_eq!(
            rebuilt.summary(),
            ProfileSummary {
                profiled: total,
                conflict_vectors: total,
                ..ProfileSummary::default()
            }
        );
    }

    #[test]
    fn capacity_misses_are_filtered() {
        // Touch 10 distinct blocks then revisit the first: with a capacity of
        // 4 blocks the revisit is a capacity miss and records nothing.
        let mut seq: Vec<u64> = (0..10).collect();
        seq.push(0);
        let p = ConflictProfile::from_blocks(blocks(&seq), 16, 4);
        assert_eq!(p.total_weight(), 0);
        assert_eq!(p.summary().capacity, 1);
        assert_eq!(p.summary().compulsory, 10);
    }

    #[test]
    fn reuse_at_distance_exactly_capacity_is_near_and_one_more_is_far() {
        // Five cyclic sweeps over `footprint` distinct blocks: every reuse
        // has the other `footprint - 1` blocks above it.
        let sweeps = |footprint: u64| (0..5 * footprint).map(move |i| BlockAddr(i % footprint));
        let p = ConflictProfile::from_blocks(sweeps(9), 16, 8);
        assert_eq!(
            p.summary(),
            ProfileSummary {
                references: 45,
                compulsory: 9,
                capacity: 0,
                profiled: 36,
                conflict_vectors: 36 * 8,
            }
        );
        assert_eq!(p.total_weight(), 36 * 8);
        let p = ConflictProfile::from_blocks(sweeps(10), 16, 8);
        assert_eq!(
            p.summary(),
            ProfileSummary {
                references: 50,
                compulsory: 10,
                capacity: 40,
                profiled: 0,
                conflict_vectors: 0,
            }
        );
        assert!(p.entries().is_empty());
    }

    #[test]
    fn reuses_after_a_long_slide_see_only_the_window() {
        // 102 first touches slide a 5-block window (capacity 4) past 97
        // evictions, leaving 97..=101 in it.
        let mut seq: Vec<u64> = (0..102).collect();
        // 99 sees {100, 101}; 97 sees {98, 100, 101, 99} at distance
        // exactly 4; 96 and then 98 have left the window; 101 sees
        // {99, 97, 96, 98}.
        seq.extend([99, 97, 96, 98, 101]);
        // None of the 96 blocks that slid out and stayed out is near.
        seq.extend(0..96);
        let p = ConflictProfile::from_blocks(blocks(&seq), 8, 4);
        assert_eq!(
            p.summary(),
            ProfileSummary {
                references: 203,
                compulsory: 102,
                capacity: 98,
                profiled: 3,
                conflict_vectors: 10,
            }
        );
        assert_eq!(
            p.entries(),
            &[(2, 1), (3, 1), (4, 2), (5, 2), (6, 2), (7, 2)]
        );
    }

    #[test]
    fn unbounded_capacity_keeps_every_reuse_near() {
        let seq = [1, 2, 3, 1, 2, 3, 4, 1];
        let p = ConflictProfile::from_blocks(blocks(&seq), 8, usize::MAX);
        assert_eq!(
            p.summary(),
            ProfileSummary {
                references: 8,
                compulsory: 4,
                capacity: 0,
                profiled: 4,
                conflict_vectors: 9,
            }
        );
        assert_eq!(
            p.entries(),
            ConflictProfile::from_blocks(blocks(&seq), 8, 4).entries()
        );
    }

    #[test]
    fn all_intermediate_blocks_contribute_vectors() {
        // Access 1, 2, 3, then 1 again: vectors 1^2=3 and 1^3=2 are recorded.
        let p = ConflictProfile::from_blocks(blocks(&[1, 2, 3, 1]), 8, 16);
        assert_eq!(p.misses_of(3), 1);
        assert_eq!(p.misses_of(2), 1);
        assert_eq!(p.misses_of(1), 0);
        assert_eq!(p.summary().conflict_vectors, 2);
        assert_eq!(p.distinct_vectors(), 2);
    }

    #[test]
    fn vectors_are_truncated_to_hashed_bits() {
        // Blocks 0 and 0x1_0000 differ only above bit 15; truncated to 16 bits
        // the difference vector is zero and must not be recorded.
        let p = ConflictProfile::from_blocks(blocks(&[0, 0x1_0000, 0, 0x1_0000]), 16, 64);
        assert_eq!(p.total_weight(), 0);
        assert_eq!(p.distinct_vectors(), 0);
        // With 20 hashed bits the vector is visible.
        let p = ConflictProfile::from_blocks(blocks(&[0, 0x1_0000, 0, 0x1_0000]), 20, 64);
        assert_eq!(p.misses_of(0x1_0000), 2);
    }

    #[test]
    fn entries_straddle_the_flat_table_in_ascending_order() {
        // a = 0, b = 0xffff (the table's last slot at n ≥ 16), c = 0x1_0000
        // (the first vector above it), d = 2^26 - 1, e = 2^26. Reusing a
        // sees e, d, c, b above it; reusing b then sees a, e, d, c.
        let (a, b, c, d, e) = (0, 0xffff, 0x1_0000, 0x3ff_ffff, 0x400_0000);
        let seq = [a, b, c, d, e, a, b];
        let counters = ProfileSummary {
            references: 7,
            compulsory: 5,
            capacity: 0,
            profiled: 2,
            conflict_vectors: 8,
        };
        // At n = 26, a ^ e truncates to zero and b ^ e to b.
        let p = ConflictProfile::from_blocks(blocks(&seq), 26, 8);
        assert_eq!(p.summary(), counters);
        assert_eq!(
            p.entries(),
            &[
                (0xffff, 3),
                (0x1_0000, 1),
                (0x1_ffff, 1),
                (0x3ff_0000, 1),
                (0x3ff_ffff, 1),
            ]
        );
        let p = ConflictProfile::from_blocks(blocks(&seq), 64, 8);
        assert_eq!(p.summary(), counters);
        assert_eq!(
            p.entries(),
            &[
                (0xffff, 2),
                (0x1_0000, 1),
                (0x1_ffff, 1),
                (0x3ff_0000, 1),
                (0x3ff_ffff, 1),
                (0x400_0000, 1),
                (0x400_ffff, 1),
            ]
        );
    }

    #[test]
    fn tables_narrower_than_a_scan_chunk_keep_their_top_slot() {
        // Reusing 0 sees 8, 7, 6, 1 above it; 0 ^ 8 truncates to zero at
        // every width below 4.
        let seq = [0, 1, 6, 7, 8, 0];
        for (width, expected) in [
            (1, &[(1, 2)][..]),
            (2, &[(1, 1), (2, 1), (3, 1)][..]),
            (3, &[(1, 1), (6, 1), (7, 1)][..]),
        ] {
            let p = ConflictProfile::from_blocks(blocks(&seq), width, 8);
            assert_eq!(p.entries(), expected, "width {width}");
            assert_eq!(p.summary().conflict_vectors, 4, "width {width}");
        }
    }

    #[test]
    fn heaviest_sorts_by_weight() {
        // Vector 0x10 appears twice as often as 0x20.
        let p = ConflictProfile::from_blocks(blocks(&[0, 0x10, 0, 0x10, 0, 0x20, 0]), 16, 64);
        let top = p.heaviest(2);
        assert_eq!(top[0].0.as_u64(), 0x10);
        assert!(top[0].1 > top[1].1);
        assert_eq!(p.heaviest(100).len(), p.distinct_vectors());
    }

    #[test]
    fn empty_trace_gives_empty_profile() {
        let p = ConflictProfile::from_blocks(std::iter::empty(), 16, 64);
        assert_eq!(p.summary().references, 0);
        assert_eq!(p.distinct_vectors(), 0);
        assert_eq!(p.total_weight(), 0);
    }
}
