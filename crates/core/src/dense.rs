//! The dense point-lookup tail a [`FrozenKernel`] lays over its profile.
//!
//! A [`ConflictProfile`](crate::ConflictProfile) holds its histogram as
//! `(vector, weight)` pairs sorted by vector — the cache-friendly layout for
//! scanning the whole histogram. Eq. 4 also looks single vectors up, up to
//! `2^(n−m)` of them per candidate, and each binary search over the entries
//! costs a dozen dependent loads. So the kernel adds a dense *tail*: a flat
//! weight array covering the vectors below `2^tail_bits`, sized to the
//! hottest low-index region of the histogram rather than to the full
//! address space. Point lookups that land under the tail are one indexed
//! load; the rest binary-search only the entries above it.
//!
//! Narrow profiles (`hashed_bits ≤` [`FLAT_LOOKUP_MAX_BITS`]) get a tail
//! spanning the whole space, so every lookup is a flat load (at the 20-bit
//! limit that is `2^20 × 8 B = 8 MB`; the paper's configuration uses
//! n = 16, i.e. 512 KB). Wider profiles do not fall off a cliff into pure
//! binary search: conflict vectors are XORs of addresses and cluster heavily
//! in the low-index region (small strides), so the kernel materializes a
//! tail over that region whenever it is occupied densely enough to pay for
//! itself. Whatever the tail, lookups answer bit-identically.
//!
//! [`FrozenKernel`]: crate::FrozenKernel

/// Widest `hashed_bits` for which a kernel's tail covers the *entire* space
/// (the flat lookup), and the widest tail any kernel holds.
pub const FLAT_LOOKUP_MAX_BITS: usize = 20;

/// A candidate tail must cover at least three quarters of the entries any
/// tail under the cap could cover; otherwise a smaller tail is chosen.
const TAIL_COVERAGE_NUM: usize = 3;
const TAIL_COVERAGE_DEN: usize = 4;

/// A tail is only materialized when at least one slot in 64 would be
/// occupied (and never for fewer than four entries) — sparser regions are
/// cheaper to binary-search than to cache-miss through.
const TAIL_MIN_OCCUPANCY_SHIFT: usize = 6;
const TAIL_MIN_ENTRIES: usize = 4;

/// A flat weight table over the vectors below `2^bits`, answering point
/// lookups over a sorted entry slice together with a binary search above
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LookupTail {
    /// `misses(v)` for every `v < 2^bits`; empty when no tail is
    /// materialized.
    table: Vec<u64>,
    /// Width of the tail in bits; 0 exactly when `table` is empty.
    bits: usize,
    /// Index of the first entry `≥ 2^bits`: entries below it are answered
    /// by the table, the slice above it by binary search.
    split: usize,
}

impl LookupTail {
    /// The default tail width for a profile's sorted entries: the whole
    /// space for narrow profiles (kept even when they are empty); for wider
    /// ones, the smallest width covering three quarters of what a
    /// [`FLAT_LOOKUP_MAX_BITS`]-wide tail would cover — provided that region
    /// is occupied densely enough to be worth materializing, else 0 (no
    /// tail).
    pub(crate) fn default_bits(entries: &[(u64, u64)], hashed_bits: usize) -> usize {
        if hashed_bits <= FLAT_LOOKUP_MAX_BITS {
            return hashed_bits;
        }
        let target = covered_below(entries, FLAT_LOOKUP_MAX_BITS);
        let bits = (1..FLAT_LOOKUP_MAX_BITS)
            .find(|&t| covered_below(entries, t) * TAIL_COVERAGE_DEN >= target * TAIL_COVERAGE_NUM)
            .unwrap_or(FLAT_LOOKUP_MAX_BITS);
        let covered = covered_below(entries, bits);
        let occupancy_floor = ((1usize << bits) >> TAIL_MIN_OCCUPANCY_SHIFT).max(TAIL_MIN_ENTRIES);
        if covered >= occupancy_floor {
            bits
        } else {
            0
        }
    }

    /// Builds a `bits`-wide tail (0 = none) over sorted entries.
    pub(crate) fn new(entries: &[(u64, u64)], bits: usize) -> Self {
        if bits == 0 {
            return LookupTail {
                table: Vec::new(),
                bits: 0,
                split: 0,
            };
        }
        let split = covered_below(entries, bits);
        let mut table = vec![0u64; 1usize << bits];
        for &(v, w) in &entries[..split] {
            table[v as usize] = w;
        }
        LookupTail { table, bits, split }
    }

    /// Width of the tail in bits (0 when none is materialized).
    pub(crate) fn bits(&self) -> usize {
        self.bits
    }

    /// Number of entries the table answers.
    pub(crate) fn covered(&self) -> usize {
        self.split
    }

    /// `misses(v)` over the `entries` the tail was built from.
    pub(crate) fn lookup(&self, entries: &[(u64, u64)], v: u64) -> u64 {
        if self.bits > 0 && (v >> self.bits) == 0 {
            return self.table[v as usize];
        }
        let above = &entries[self.split..];
        above
            .binary_search_by_key(&v, |&(vector, _)| vector)
            .map_or(0, |i| above[i].1)
    }
}

/// Number of sorted entries with vector `< 2^bits` (`bits` below 64).
fn covered_below(entries: &[(u64, u64)], bits: usize) -> usize {
    entries.partition_point(|&(v, _)| v < (1u64 << bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConflictProfile, FrozenKernel, XorIndexError};
    use cache_sim::BlockAddr;
    use gf2::BitVec;

    fn profile(seq: &[u64], hashed_bits: usize) -> ConflictProfile {
        ConflictProfile::from_blocks(seq.iter().copied().map(BlockAddr), hashed_bits, 64)
    }

    #[test]
    fn dense_lookups_match_the_hashmap_histogram() {
        let seq: Vec<u64> = (0..300u64).map(|i| (i * 37) % 97).collect();
        let p = profile(&seq, 10);
        let k = FrozenKernel::new(&p);
        assert!(k.has_flat_lookup());
        assert!(k.has_dense_tail());
        assert_eq!(k.tail_bits(), 10);
        assert_eq!(k.tail_covered(), p.distinct_vectors());
        for v in 0..(1u64 << 10) {
            assert_eq!(k.misses_of(v), p.misses(BitVec::from_u64(v, 10)), "v={v}");
        }
        assert_eq!(k.profile().hashed_bits(), 10);
        assert_eq!(k.profile().capacity_blocks(), 64);
    }

    #[test]
    fn wide_profiles_get_no_flat_lookup() {
        let seq: Vec<u64> = (0..100u64).map(|i| (i % 5) << 40).collect();
        let p = ConflictProfile::from_blocks(seq.iter().copied().map(BlockAddr), 48, 64);
        let k = FrozenKernel::new(&p);
        assert!(!k.has_flat_lookup());
        // All mass sits at bit 40 and above: no low-index tail pays off.
        assert!(!k.has_dense_tail());
        assert_eq!(k.tail_bits(), 0);
        for (v, w) in p.iter() {
            assert_eq!(k.misses_of(v.as_u64()), w);
        }
        assert_eq!(k.misses_of(0x1234), 0);
    }

    #[test]
    fn wide_profile_with_hot_low_region_gets_a_hybrid_tail() {
        // Low-stride conflicts (vectors < 2^8) plus a couple of high outliers.
        let mut seq = Vec::new();
        for i in 0..400u64 {
            seq.push((i % 13) * 0x11); // dense low region
            seq.push((i % 2) << 40); // two far-apart blocks
        }
        let p = ConflictProfile::from_blocks(seq.iter().copied().map(BlockAddr), 48, 64);
        let k = FrozenKernel::new(&p);
        assert!(!k.has_flat_lookup());
        assert!(k.has_dense_tail(), "hot low region should be materialized");
        assert!(k.tail_bits() <= FLAT_LOOKUP_MAX_BITS);
        assert!(k.tail_covered() > 0);
        // Every lookup still agrees with the histogram, tail or not.
        for (v, w) in p.iter() {
            assert_eq!(k.misses_of(v.as_u64()), w, "v={:#x}", v.as_u64());
        }
        assert_eq!(k.misses_of(0x3), 0);
        assert_eq!(k.misses_of(0x3 << 30), 0);
    }

    #[test]
    fn representations_answer_identically() {
        let seq: Vec<u64> = (0..500u64)
            .map(|i| (i % 7) * 0x21 + (i % 3) * 0x4000)
            .collect();
        let p = profile(&seq, 18);
        let flat = FrozenKernel::new(&p); // whole-space tail
        let sorted = FrozenKernel::from_parts(p.clone(), 0).unwrap(); // no tail
        let hybrid = FrozenKernel::from_parts(p.clone(), 10).unwrap(); // partial tail
        assert!(flat.has_flat_lookup());
        assert!(!sorted.has_dense_tail());
        assert!(hybrid.has_dense_tail() && !hybrid.has_flat_lookup());
        for v in (0..(1u64 << 18)).step_by(7) {
            let w = flat.misses_of(v);
            assert_eq!(sorted.misses_of(v), w, "v={v:#x}");
            assert_eq!(hybrid.misses_of(v), w, "v={v:#x}");
            assert_eq!(p.misses_of(v), w, "v={v:#x}");
        }
        assert_eq!(flat.profile().entries(), sorted.profile().entries());
        assert_eq!(flat.profile().entries(), hybrid.profile().entries());
    }

    #[test]
    fn entries_are_sorted_nonzero_and_complete() {
        let seq: Vec<u64> = (0..200u64).map(|i| (i % 7) * 13).collect();
        let p = profile(&seq, 12);
        assert!(p.entries().windows(2).all(|w| w[0].0 < w[1].0));
        assert!(p.entries().iter().all(|&(v, w)| v != 0 && w > 0));
        // Every block fits the width, so no vector truncated away: the
        // weights add up to every conflict vector the walk recorded.
        let total: u64 = p.entries().iter().map(|&(_, w)| w).sum();
        assert_eq!(total, p.summary().conflict_vectors);
        // The kernel prices from a copy of exactly these entries.
        assert_eq!(FrozenKernel::new(&p).profile().entries(), p.entries());
    }

    #[test]
    fn empty_profile_gives_empty_dense_view() {
        let p = ConflictProfile::from_blocks(std::iter::empty(), 16, 64);
        let k = FrozenKernel::new(&p);
        assert_eq!(k.profile().distinct_vectors(), 0);
        assert_eq!(k.profile().total_weight(), 0);
        assert_eq!(k.misses_of(0x10), 0);
        // Narrow widths keep the whole-space tail even when empty.
        assert!(k.has_flat_lookup());
    }

    #[test]
    fn from_parts_rebuilds_every_layout_bit_identically() {
        let seq: Vec<u64> = (0..500u64)
            .map(|i| (i % 7) * 0x21 + (i % 3) * 0x4000)
            .collect();
        let p = profile(&seq, 18);
        for original in [
            FrozenKernel::new(&p),                            // whole-space tail
            FrozenKernel::from_parts(p.clone(), 0).unwrap(),  // no tail
            FrozenKernel::from_parts(p.clone(), 10).unwrap(), // hybrid tail
        ] {
            let parts = original.profile();
            let profile = ConflictProfile::from_parts(
                parts.hashed_bits(),
                parts.capacity_blocks(),
                parts.entries().to_vec(),
            )
            .expect("own parts are valid");
            let rebuilt = FrozenKernel::from_parts(profile, original.tail_bits())
                .expect("own tail width is valid");
            assert_eq!(rebuilt.profile().entries(), parts.entries());
            assert_eq!(rebuilt.profile().hashed_bits(), 18);
            assert_eq!(rebuilt.profile().capacity_blocks(), 64);
            assert_eq!(rebuilt.tail_bits(), original.tail_bits());
            assert_eq!(rebuilt.tail_covered(), original.tail_covered());
            for v in 0..(1u64 << 18) {
                assert_eq!(rebuilt.misses_of(v), original.misses_of(v), "v={v:#x}");
            }
        }
        // The empty flat profile round-trips too.
        let empty = FrozenKernel::new(&ConflictProfile::from_blocks(std::iter::empty(), 16, 64));
        let rebuilt = FrozenKernel::from_parts(
            ConflictProfile::from_parts(16, 64, Vec::new()).unwrap(),
            empty.tail_bits(),
        )
        .unwrap();
        assert!(rebuilt.has_flat_lookup());
        assert_eq!(rebuilt.profile(), empty.profile());
    }

    #[test]
    fn from_parts_rejects_malformed_data() {
        let bad = |r: Result<ConflictProfile, XorIndexError>| {
            assert!(matches!(r, Err(XorIndexError::MalformedProfile { .. })));
        };
        let bad_tail = |r: Result<FrozenKernel, XorIndexError>| {
            assert!(matches!(r, Err(XorIndexError::MalformedProfile { .. })));
        };
        let empty = |bits| ConflictProfile::from_parts(bits, 64, vec![]).unwrap();
        bad(ConflictProfile::from_parts(0, 64, vec![]));
        bad(ConflictProfile::from_parts(65, 64, vec![]));
        bad(ConflictProfile::from_parts(12, 0, vec![]));
        bad_tail(FrozenKernel::from_parts(empty(12), 13)); // tail wider than space
        bad_tail(FrozenKernel::from_parts(empty(40), 21)); // tail above the cap
        assert!(FrozenKernel::from_parts(empty(40), FLAT_LOOKUP_MAX_BITS).is_ok());
        bad(ConflictProfile::from_parts(12, 64, vec![(0, 5)])); // zero vector
        bad(ConflictProfile::from_parts(12, 64, vec![(1 << 12, 5)])); // outside width
        bad(ConflictProfile::from_parts(12, 64, vec![(3, 0)])); // zero weight
        bad(ConflictProfile::from_parts(12, 64, vec![(7, 1), (3, 1)])); // unsorted
        bad(ConflictProfile::from_parts(12, 64, vec![(3, 1), (3, 2)])); // duplicate
        let overflowing = vec![(3, u64::MAX), (5, 1)];
        bad(ConflictProfile::from_parts(12, 64, overflowing)); // total overflows
    }
}
