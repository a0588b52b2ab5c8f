//! The dense weight table a [`FrozenKernel`] prices from, in the profile's
//! own coordinates.
//!
//! Eq. 4 sums `misses(v)` over a null space `N(H)`, but every recorded
//! conflict vector lies in `P`, the span of the profile's vectors, so only
//! `N(H) ∩ P` can carry weight. At freeze the kernel takes `P`'s canonical
//! basis (`d = dim P` rows) and re-keys the histogram by each vector's
//! coordinates over those rows ([`PackedBasis::decompose`]) into a flat
//! `2^d`-slot weight table. `decompose` is linear, so a word's remainder and
//! coordinates are the XOR of its bytes' entries in `⌈n/8⌉` 256-entry
//! tables built once.
//!
//! A candidate is priced by decomposing its null-space rows and eliminating
//! their remainders: a combination of rows lies in `P` exactly when its
//! remainders cancel, so the eliminations that reach remainder 0 leave a
//! coordinate basis of `N(H) ∩ P`. The Gray-code sum of the table over that
//! basis is the Eq. 4 cost. On the paper's roster `d ≤ 15` at n = 16, 20 and
//! 26 alike, and on the served apps `dim(N(H) ∩ P)` averages 0–3, so a
//! candidate costs a handful of loads whatever its null space's dimension.
//!
//! A profile whose span is wider than [`FLAT_LOOKUP_MAX_BITS`] gets no table
//! (it would exceed `2^20 × 8 B = 8 MB`); its kernel scans the sorted
//! entries instead.
//!
//! [`FrozenKernel`]: crate::FrozenKernel

use gf2::PackedBasis;

/// Widest span dimension `d` for which a kernel keeps a `2^d`-slot weight
/// table; a profile whose conflict vectors span more dimensions is priced by
/// scanning its entries.
pub const FLAT_LOOKUP_MAX_BITS: usize = 20;

/// The canonical basis of the span of `entries`' vectors in GF(2)^`width`.
///
/// Vectors are reduced against an echelon basis indexed by leading bit.
/// While the span is all of the coordinate subspace of the bits seen so far
/// (its dimension equals their count), a vector inside those bits is a
/// member without any reduction; on address-XOR profiles that holds for
/// almost every entry.
pub(crate) fn span_of(entries: &[(u64, u64)], width: usize) -> PackedBasis {
    let mut by_lead = [0u64; 64];
    let mut dim = 0;
    let mut seen = 0u64;
    for &(v, _) in entries {
        if v & !seen == 0 && dim == seen.count_ones() {
            continue;
        }
        seen |= v;
        let mut rest = v;
        while rest != 0 {
            let lead = 63 - rest.leading_zeros() as usize;
            if by_lead[lead] == 0 {
                by_lead[lead] = rest;
                dim += 1;
                break;
            }
            rest ^= by_lead[lead];
        }
    }
    let mut span = PackedBasis::trivial(width);
    for &row in by_lead.iter().filter(|&&row| row != 0) {
        span.insert(row);
    }
    span
}

/// The profile's histogram keyed by coordinates over its span `P`, with the
/// per-byte tables that map a word to its remainder and coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SpanTable {
    /// `bytes[k][b]`: the remainder modulo `P` and the coordinates over `P`'s
    /// rows of the word `b << 8k`.
    bytes: Box<[[(u64, u64); 256]]>,
    /// `misses(v)` at `v`'s coordinates, for every `v ∈ P`.
    weights: Box<[u64]>,
}

impl SpanTable {
    /// Re-keys sorted `entries`, all inside `span`, by their coordinates over
    /// `span`; `None` when `span` has more than [`FLAT_LOOKUP_MAX_BITS`]
    /// dimensions.
    pub(crate) fn new(span: &PackedBasis, entries: &[(u64, u64)]) -> Option<Self> {
        if span.dim() > FLAT_LOOKUP_MAX_BITS {
            return None;
        }
        let bytes = (0..span.width().div_ceil(8))
            .map(|k| {
                let mut table = [(0u64, 0u64); 256];
                for b in 1..256 {
                    let (remainder, coordinates) = table[b & (b - 1)];
                    let (bit_remainder, bit_coordinates) =
                        span.decompose(1u64 << (8 * k + b.trailing_zeros() as usize));
                    table[b] = (remainder ^ bit_remainder, coordinates ^ bit_coordinates);
                }
                table
            })
            .collect();
        let mut table = SpanTable {
            bytes,
            weights: vec![0; 1 << span.dim()].into_boxed_slice(),
        };
        for &(v, w) in entries {
            let (remainder, coordinates) = table.decompose(v);
            debug_assert_eq!(remainder, 0, "entry {v:#x} outside the span");
            table.weights[coordinates as usize] = w;
        }
        Some(table)
    }

    /// [`PackedBasis::decompose`] over the span, from the byte tables.
    fn decompose(&self, v: u64) -> (u64, u64) {
        let mut out = (0, 0);
        for (k, table) in self.bytes.iter().enumerate() {
            let (remainder, coordinates) = table[(v >> (8 * k)) as usize & 0xFF];
            out = (out.0 ^ remainder, out.1 ^ coordinates);
        }
        out
    }

    /// `misses(v)` for a vector inside the profile's width.
    pub(crate) fn misses_of(&self, v: u64) -> u64 {
        match self.decompose(v) {
            (0, coordinates) => self.weights[coordinates as usize],
            _ => 0,
        }
    }

    /// The Eq. 4 weight of the null space `basis`, summed until it reaches
    /// `bound`: exact when below `bound`, otherwise some sum `≥ bound`.
    pub(crate) fn null_space_weight(&self, basis: &PackedBasis, bound: u64) -> u64 {
        // Rows whose remainders did not cancel, by the remainder's leading
        // bit, each with its coordinates; and the coordinates of the
        // combinations that landed inside the span.
        let mut outside = [(0u64, 0u64); 64];
        let mut inside = [0u64; FLAT_LOOKUP_MAX_BITS];
        let mut dim = 0;
        for &row in basis.rows() {
            let (mut remainder, mut coordinates) = self.decompose(row);
            while remainder != 0 {
                let pivot = 63 - remainder.leading_zeros() as usize;
                let (held_remainder, held_coordinates) = outside[pivot];
                if held_remainder == 0 {
                    outside[pivot] = (remainder, coordinates);
                    break;
                }
                remainder ^= held_remainder;
                coordinates ^= held_coordinates;
            }
            if remainder == 0 {
                // Independent of the earlier ones: it is the first to use
                // this row, and coordinates over `P` are injective.
                inside[dim] = coordinates;
                dim += 1;
            }
        }
        let mut sum = 0;
        let mut coordinates = 0;
        let mut step = 1u64;
        while sum < bound && step < 1 << dim {
            coordinates ^= inside[step.trailing_zeros() as usize];
            sum += self.weights[coordinates as usize];
            step += 1;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConflictProfile, FrozenKernel, XorIndexError};
    use cache_sim::BlockAddr;

    fn profile(seq: &[u64], hashed_bits: usize) -> ConflictProfile {
        ConflictProfile::from_blocks(seq.iter().copied().map(BlockAddr), hashed_bits, 64)
    }

    #[test]
    fn dense_lookups_match_the_hashmap_histogram() {
        let seq: Vec<u64> = (0..300u64).map(|i| (i * 37) % 97).collect();
        let p = profile(&seq, 10);
        let k = FrozenKernel::new(&p);
        assert!(k.has_weight_table());
        for v in 0..(1u64 << 10) {
            assert_eq!(k.misses_of(v), p.misses_of(v), "v={v}");
        }
        // Bits above the width are truncated, as the profile truncates them.
        assert_eq!(k.misses_of((1 << 10) | 0x3F), p.misses_of(0x3F));
        assert_eq!(k.profile().hashed_bits(), 10);
        assert_eq!(k.profile().capacity_blocks(), 64);
    }

    #[test]
    fn wide_profiles_get_no_flat_lookup() {
        // Vectors at bits 40–42: the table covers their three-dimensional
        // span, eight slots, not the 2^48-vector space.
        let seq: Vec<u64> = (0..100u64).map(|i| (i % 5) << 40).collect();
        let p = ConflictProfile::from_blocks(seq.iter().copied().map(BlockAddr), 48, 64);
        let k = FrozenKernel::new(&p);
        assert!(k.has_weight_table());
        assert_eq!(k.span().dim(), 3);
        for &(v, w) in p.entries() {
            assert_eq!(k.misses_of(v), w);
        }
        assert_eq!(k.misses_of(0x1234), 0);
        assert_eq!(k.misses_of(3 << 40 | 1), 0);
    }

    #[test]
    fn representations_answer_identically() {
        // The table at every vector of an 18-bit space, in and out of the
        // span, answers what the profile's binary search does.
        let seq: Vec<u64> = (0..500u64)
            .map(|i| (i % 7) * 0x21 + (i % 3) * 0x4000)
            .collect();
        let p = profile(&seq, 18);
        let k = FrozenKernel::new(&p);
        assert!(k.span().dim() < 18);
        for v in (0..(1u64 << 18)).step_by(7) {
            assert_eq!(k.misses_of(v), p.misses_of(v), "v={v:#x}");
        }
        for &(v, w) in p.entries() {
            assert_eq!(k.misses_of(v), w, "v={v:#x}");
        }
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
        // An empty span gets the one-slot table, and every null space costs 0.
        assert_eq!(k.span().dim(), 0);
        assert!(k.has_weight_table());
        assert_eq!(k.cost(&gf2::PackedBasis::standard_span(16, 0..16)), 0);
    }

    #[test]
    fn from_parts_rebuilds_every_layout_bit_identically() {
        let seq: Vec<u64> = (0..500u64)
            .map(|i| (i % 7) * 0x21 + (i % 3) * 0x4000)
            .collect();
        for p in [
            profile(&seq, 18),
            ConflictProfile::from_blocks(std::iter::empty(), 16, 64),
        ] {
            let original = FrozenKernel::new(&p);
            let parts = original.profile();
            let rebuilt = FrozenKernel::from_parts(
                ConflictProfile::from_parts(
                    parts.hashed_bits(),
                    parts.capacity_blocks(),
                    parts.entries().to_vec(),
                )
                .expect("own parts are valid"),
            );
            assert_eq!(rebuilt.profile().entries(), parts.entries());
            assert_eq!(rebuilt.span(), original.span());
            assert_eq!(rebuilt.has_weight_table(), original.has_weight_table());
            for v in 0..(1u64 << p.hashed_bits()) {
                assert_eq!(rebuilt.misses_of(v), original.misses_of(v), "v={v:#x}");
            }
        }
    }

    #[test]
    fn from_parts_rejects_malformed_data() {
        let bad = |r: Result<ConflictProfile, XorIndexError>| {
            assert!(matches!(r, Err(XorIndexError::MalformedProfile { .. })));
        };
        bad(ConflictProfile::from_parts(0, 64, vec![]));
        bad(ConflictProfile::from_parts(65, 64, vec![]));
        bad(ConflictProfile::from_parts(12, 0, vec![]));
        bad(ConflictProfile::from_parts(12, 64, vec![(0, 5)])); // zero vector
        bad(ConflictProfile::from_parts(12, 64, vec![(1 << 12, 5)])); // outside width
        bad(ConflictProfile::from_parts(12, 64, vec![(3, 0)])); // zero weight
        bad(ConflictProfile::from_parts(12, 64, vec![(7, 1), (3, 1)])); // unsorted
        bad(ConflictProfile::from_parts(12, 64, vec![(3, 1), (3, 2)])); // duplicate
        let overflowing = vec![(3, u64::MAX), (5, 1)];
        bad(ConflictProfile::from_parts(12, 64, overflowing)); // total overflows
    }

    #[test]
    fn byte_tables_decompose_like_the_basis() {
        // Every width's last partial byte, and a 64-bit span whose rows
        // reach the top byte.
        for (width, rows) in [
            (5usize, vec![0b1_0110u64, 0b0_0101]),
            (12, vec![0x9A5, 0x0F0, 0x00C]),
            (64, vec![u64::MAX, 1 << 40 | 0xFF, 0x8000_0000_0000_0001]),
        ] {
            let mut span = PackedBasis::trivial(width);
            for row in rows {
                span.insert(row);
            }
            let table = SpanTable::new(&span, &[]).expect("narrow span");
            let mask = u64::MAX >> (64 - width);
            for i in 0..4096u64 {
                let v = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;
                assert_eq!(
                    table.decompose(v),
                    span.decompose(v),
                    "{width} bits, v={v:#x}"
                );
            }
        }
    }
}
