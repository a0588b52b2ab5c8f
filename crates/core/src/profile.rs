//! Conflict-vector profiling (paper Fig. 1).

use cache_sim::{BlockAddr, LruStack, StackScan};
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
/// One pass over the block-address trace maintains an LRU stack. For every
/// access to a block `x` whose previous use is within the cache capacity, the
/// algorithm walks the blocks `y` touched since then and increments
/// `misses(x ⊕ y)` (truncated to the hashed width `n`). Compulsory accesses
/// and accesses with reuse distance larger than the cache capacity are
/// filtered out because no index function can avoid those misses.
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

/// The low `hashed_bits` bits of a word.
fn width_mask(hashed_bits: usize) -> u64 {
    if hashed_bits == 64 {
        u64::MAX
    } else {
        (1u64 << hashed_bits) - 1
    }
}

fn assert_geometry(hashed_bits: usize, capacity_blocks: usize) {
    assert!(
        (1..=64).contains(&hashed_bits),
        "hashed_bits must be in 1..=64"
    );
    assert!(capacity_blocks > 0, "cache capacity must be positive");
}

/// Sorts accumulated counts into the entry layout, ascending by vector.
fn sorted(counts: WordMap<u64, u64>) -> Vec<(u64, u64)> {
    let mut entries: Vec<(u64, u64)> = counts.into_iter().collect();
    entries.sort_unstable_by_key(|&(v, _)| v);
    entries
}

/// The accumulate-then-sort normaliser of [`ConflictProfile::from_histogram`]
/// and [`ConflictProfile::merge`]: weights add up per vector in a
/// word-hashed map, the zero vector and zero weights are dropped, and one
/// sort at the end yields the entry layout.
///
/// # Panics
///
/// Panics if a vector has bits outside the hashed width.
fn normalise(hashed_bits: usize, pairs: impl IntoIterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
    let mask = width_mask(hashed_bits);
    let mut counts: WordMap<u64, u64> = WordMap::default();
    for (v, w) in pairs {
        assert!(
            v & !mask == 0,
            "vector {v:#x} has bits outside the {hashed_bits}-bit hashed width"
        );
        if v != 0 && w != 0 {
            *counts.entry(v).or_insert(0) += w;
        }
    }
    sorted(counts)
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
        assert_geometry(hashed_bits, capacity_blocks);
        let mask = width_mask(hashed_bits);
        let mut stack = LruStack::new();
        let mut counts: WordMap<u64, u64> = WordMap::default();
        let mut summary = ProfileSummary::default();
        for block in blocks {
            summary.references += 1;
            let x = block.as_u64();
            let scan = stack.access_scan(x, capacity_blocks, |y| {
                // The zero vector can only arise from truncation of
                // high-order bits; it never represents an avoidable
                // conflict, so it is not recorded (it still counts in
                // `conflict_vectors`).
                let v = (x ^ y) & mask;
                if v != 0 {
                    *counts.entry(v).or_insert(0) += 1;
                }
            });
            match scan {
                StackScan::Cold => summary.compulsory += 1,
                StackScan::Beyond => summary.capacity += 1,
                StackScan::Within { distance } => {
                    summary.profiled += 1;
                    summary.conflict_vectors += distance as u64;
                }
            }
        }
        ConflictProfile {
            hashed_bits,
            capacity_blocks,
            summary,
            entries: sorted(counts),
        }
    }

    /// Reconstructs a profile from a recorded `misses(v)` histogram, in any
    /// order. Entries with zero weight or a zero vector are dropped, exactly
    /// as profiling itself would never have recorded them; duplicate vectors
    /// accumulate.
    ///
    /// The [`ProfileSummary`] of a rebuilt profile reflects only what the
    /// histogram retains: `conflict_vectors` (and `profiled`) carry the total
    /// recorded weight, while the trace-level counters (`references`,
    /// `compulsory`, `capacity`) are zero because no trace is at hand.
    /// Everything search and estimation consume — the histogram, widths, and
    /// capacity — is reconstructed exactly.
    ///
    /// # Panics
    ///
    /// Panics if `hashed_bits` is 0 or larger than 64, `capacity_blocks` is
    /// 0, or a vector has bits outside the hashed width.
    #[must_use]
    pub fn from_histogram<I>(entries: I, hashed_bits: usize, capacity_blocks: usize) -> Self
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        assert_geometry(hashed_bits, capacity_blocks);
        Self::rebuilt(
            hashed_bits,
            capacity_blocks,
            normalise(hashed_bits, entries),
        )
    }

    /// Reassembles a profile from its serialized parts — the counterpart of
    /// [`ConflictProfile::hashed_bits`], [`ConflictProfile::capacity_blocks`]
    /// and [`ConflictProfile::entries`], used by snapshot restore. The
    /// entries are taken as they are, never re-sorted; the summary is the
    /// one [`ConflictProfile::from_histogram`] gives.
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
        Ok(Self::rebuilt(hashed_bits, capacity_blocks, entries))
    }

    /// A profile over already-normalised entries, with the summary of a
    /// profile rebuilt without its trace.
    fn rebuilt(hashed_bits: usize, capacity_blocks: usize, entries: Vec<(u64, u64)>) -> Self {
        let total = entries.iter().map(|&(_, w)| w).sum();
        ConflictProfile {
            hashed_bits,
            capacity_blocks,
            summary: ProfileSummary {
                profiled: total,
                conflict_vectors: total,
                ..ProfileSummary::default()
            },
            entries,
        }
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

    /// Merges another profile into this one (histograms and counters add).
    ///
    /// # Panics
    ///
    /// Panics if the two profiles disagree on `hashed_bits` or capacity.
    pub fn merge(&mut self, other: &ConflictProfile) {
        assert_eq!(self.hashed_bits, other.hashed_bits, "hashed bits differ");
        assert_eq!(
            self.capacity_blocks, other.capacity_blocks,
            "capacities differ"
        );
        let pairs = self.entries.iter().chain(&other.entries).copied();
        self.entries = normalise(self.hashed_bits, pairs);
        self.summary.references += other.summary.references;
        self.summary.compulsory += other.summary.compulsory;
        self.summary.capacity += other.summary.capacity;
        self.summary.profiled += other.summary.profiled;
        self.summary.conflict_vectors += other.summary.conflict_vectors;
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
    fn from_histogram_rebuilds_the_recorded_state() {
        let trace: Vec<BlockAddr> = (0..200u64)
            .map(|i| BlockAddr((i % 3) * 0x40 + (i % 5) * 0x900))
            .collect();
        let original = ConflictProfile::from_blocks(trace, 13, 64);
        let rebuilt =
            ConflictProfile::from_histogram(original.iter().map(|(v, w)| (v.as_u64(), w)), 13, 64);
        // Histogram, geometry and totals are exact…
        assert_eq!(rebuilt.hashed_bits(), 13);
        assert_eq!(rebuilt.capacity_blocks(), 64);
        assert_eq!(rebuilt.distinct_vectors(), original.distinct_vectors());
        assert_eq!(rebuilt.total_weight(), original.total_weight());
        for (v, w) in original.iter() {
            assert_eq!(rebuilt.misses(v), w);
        }
        assert_eq!(rebuilt.heaviest(5), original.heaviest(5));
        assert_eq!(rebuilt.entries(), original.entries());
        // …while the trace-level summary counters record only what the
        // histogram retains.
        assert_eq!(rebuilt.summary().conflict_vectors, original.total_weight());
        assert_eq!(rebuilt.summary().references, 0);
        // Zero vectors and zero weights are dropped; duplicates accumulate.
        let p = ConflictProfile::from_histogram([(0, 9), (5, 0), (3, 2), (3, 4)], 8, 16);
        assert_eq!(p.distinct_vectors(), 1);
        assert_eq!(p.misses_of(3), 6);
    }

    #[test]
    #[should_panic(expected = "outside the 8-bit hashed width")]
    fn from_histogram_rejects_vectors_outside_the_hashed_width() {
        // Truncating would record 0x100 as the zero vector and fold 0x103
        // into 0x3.
        let _ = ConflictProfile::from_histogram([(0x100, 5), (0x103, 2), (0x3, 1)], 8, 16);
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
    fn heaviest_sorts_by_weight() {
        // Vector 0x10 appears twice as often as 0x20.
        let p = ConflictProfile::from_blocks(blocks(&[0, 0x10, 0, 0x10, 0, 0x20, 0]), 16, 64);
        let top = p.heaviest(2);
        assert_eq!(top[0].0.as_u64(), 0x10);
        assert!(top[0].1 > top[1].1);
        assert_eq!(p.heaviest(100).len(), p.distinct_vectors());
    }

    #[test]
    fn merge_adds_histograms() {
        let a = ConflictProfile::from_blocks(blocks(&[0, 1, 0]), 8, 16);
        let b = ConflictProfile::from_blocks(blocks(&[0, 1, 0, 1]), 8, 16);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.misses_of(1), a.misses_of(1) + b.misses_of(1));
        assert_eq!(merged.entries(), &[(1, a.misses_of(1) + b.misses_of(1))]);
        assert_eq!(
            merged.summary().references,
            a.summary().references + b.summary().references
        );
    }

    #[test]
    #[should_panic(expected = "hashed bits differ")]
    fn merge_rejects_mismatched_profiles() {
        let a = ConflictProfile::from_blocks(blocks(&[0, 1]), 8, 16);
        let b = ConflictProfile::from_blocks(blocks(&[0, 1]), 16, 16);
        let mut a = a;
        a.merge(&b);
    }

    #[test]
    fn empty_trace_gives_empty_profile() {
        let p = ConflictProfile::from_blocks(std::iter::empty(), 16, 64);
        assert_eq!(p.summary().references, 0);
        assert_eq!(p.distinct_vectors(), 0);
        assert_eq!(p.total_weight(), 0);
    }
}
