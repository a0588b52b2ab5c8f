//! Histogram scans for many candidates at once: bit-sliced membership tests
//! for blocks of up to 64 unrelated candidate subspaces, and the
//! remainder-grouped histogram a neighbourhood of one parent is priced from,
//! one lane at a time.
//!
//! The Eq. 4 histogram scan asks one question per `(candidate, vector)` pair:
//! does the conflict vector `v` lie in the candidate's null space? A
//! [`PackedBasis`] answers it for one candidate at a time by reducing `v`
//! against its rows. A [`SlicedBlock`] transposes that computation: it lays
//! the membership checks of up to [`SLICED_LANES`] candidates out
//! *column-wise*, one candidate per bit position ("lane") of a `u64` word, so
//! a single pass over `v`'s set bits advances every candidate in the block at
//! once.
//!
//! The transposition rests on the remainder map being *linear* in `v` for a
//! basis in reduced row-echelon form: each pivot column is zero in every
//! other row, so reducing `v` XORs in exactly the rows whose pivot bit is set
//! in `v`, independent of order. Writing `row(b)` for the row with pivot `b`,
//!
//! ```text
//! remainder(v) = Σ_b v_b · col(b),   col(b) = e_b ⊕ row(b)   (b a pivot)
//!                                    col(b) = e_b             (otherwise)
//! ```
//!
//! and `v` is a member exactly when the remainder is zero. Remainder bits at
//! pivot positions are identically zero (each `col(b)` is supported on
//! non-pivot coordinates only), so the block stores just the `width − dim`
//! non-pivot *check* coordinates per candidate: `checks` bit-planes, each a
//! `u64` whose bit `j` belongs to lane `j`. Testing `v` then costs
//! `popcount(v) × checks` word XORs for the whole block — under one word
//! operation per candidate for typical conflict vectors, against the
//! `dim`-row reduction [`PackedBasis::contains`] pays per candidate.
//!
//! Neighbours `hyperplane ⊕ span(direction)` of one parent `P` share far more
//! than a block can exploit. A conflict vector lies in such a neighbour only
//! if its remainder modulo `P` is 0 or the direction's, and then one parity
//! over `P`'s coordinates decides. A [`CosetHistogram`] groups the histogram
//! by that remainder once per parent, so a lane costs its hyperplane's
//! in-parent weight (shared by all of that hyperplane's lanes) plus one
//! [`parity_weight`] scan of a single group — the handful of entries that can
//! possibly lie in it, instead of a test of every entry.

use crate::PackedBasis;

/// Maximum number of candidates ("lanes") a [`SlicedBlock`] holds: one per
/// bit of the `u64` membership mask.
pub const SLICED_LANES: usize = 64;

/// A transposed block of up to [`SLICED_LANES`] candidate subspaces of one
/// ambient width, answering membership for all of them in one word-parallel
/// pass.
///
/// # Example
///
/// ```
/// use gf2::{PackedBasis, SlicedBlock};
///
/// let a = PackedBasis::standard_span(8, [0usize, 1]);
/// let b = PackedBasis::standard_span(8, [1usize, 2]);
/// let block = SlicedBlock::from_bases([&a, &b]);
///
/// // Bit j of the mask is lane j's membership verdict.
/// assert_eq!(block.member_mask(0b0000_0011), 0b01); // in a, not in b
/// assert_eq!(block.member_mask(0b0000_0110), 0b10); // in b, not in a
/// assert_eq!(block.member_mask(0b0000_0010), 0b11); // in both
/// assert_eq!(block.member_mask(0b1000_0000), 0b00); // in neither
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlicedBlock {
    width: usize,
    lanes: usize,
    /// Check bit-planes per input bit: the largest `width − dim` over the
    /// lanes. Lanes of higher dimension simply leave their surplus planes
    /// zero (no constraint).
    checks: usize,
    /// `columns[b * checks + r]`: bit `j` is lane `j`'s coefficient of input
    /// bit `b` on check row `r`.
    columns: Vec<u64>,
    /// Low `lanes` bits set.
    lane_mask: u64,
    /// Low `width` bits set: vectors outside the ambient space are members of
    /// no lane.
    low_mask: u64,
}

impl SlicedBlock {
    /// Builds a block from 1..=[`SLICED_LANES`] candidate bases of equal
    /// ambient width. Dimensions may differ across lanes.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields no basis, more than [`SLICED_LANES`], or
    /// bases of differing ambient widths.
    #[must_use]
    pub fn from_bases<'a>(bases: impl IntoIterator<Item = &'a PackedBasis>) -> Self {
        let bases: Vec<&PackedBasis> = bases.into_iter().collect();
        assert!(!bases.is_empty(), "a sliced block needs at least one lane");
        assert!(
            bases.len() <= SLICED_LANES,
            "a sliced block holds at most {SLICED_LANES} lanes, got {}",
            bases.len()
        );
        let width = bases[0].width();
        let lanes = bases.len();
        let checks = bases
            .iter()
            .map(|b| {
                assert_eq!(b.width(), width, "sliced lanes must share one width");
                width - b.dim()
            })
            .max()
            .unwrap_or(0);
        let mut columns = vec![0u64; width * checks];
        for (j, basis) in bases.iter().enumerate() {
            let lane_bit = 1u64 << j;
            // Index the RREF rows by their pivot coordinate.
            let mut pivot_row = [0u64; 64];
            let mut pivots = 0u64;
            for &row in basis.rows() {
                let p = 63 - row.leading_zeros() as usize;
                pivots |= 1 << p;
                pivot_row[p] = row;
            }
            // Check rows are this lane's non-pivot coordinates, ascending.
            let mut check_of = [usize::MAX; 64];
            let mut next = 0usize;
            for (c, slot) in check_of.iter_mut().enumerate().take(width) {
                if pivots & (1u64 << c) == 0 {
                    *slot = next;
                    next += 1;
                }
            }
            for b in 0..width {
                // col(b) = e_b ⊕ row(b) for pivots, e_b otherwise; supported
                // on non-pivot coordinates only (RREF zeroes pivot columns in
                // every other row).
                let mut col = if pivots & (1u64 << b) != 0 {
                    pivot_row[b] ^ (1u64 << b)
                } else {
                    1u64 << b
                };
                while col != 0 {
                    let c = col.trailing_zeros() as usize;
                    col &= col - 1;
                    columns[b * checks + check_of[c]] |= lane_bit;
                }
            }
        }
        SlicedBlock {
            width,
            lanes,
            checks,
            columns,
            lane_mask: mask_low(lanes),
            low_mask: mask_low(width),
        }
    }

    /// Ambient width shared by every lane.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of candidate lanes in the block.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Check bit-planes per input bit (the widest `width − dim` over lanes).
    #[must_use]
    pub fn checks(&self) -> usize {
        self.checks
    }

    /// Mask with one bit set per occupied lane.
    #[must_use]
    pub fn lane_mask(&self) -> u64 {
        self.lane_mask
    }

    /// The word-parallel membership test: bit `j` of the result is set exactly
    /// when `v` lies in lane `j`'s subspace, i.e. when
    /// [`PackedBasis::contains`] would return `true` for that lane.
    #[must_use]
    pub fn member_mask(&self, v: u64) -> u64 {
        let mut scratch = [0u64; SLICED_LANES];
        self.member_mask_scratch(v, &mut scratch)
    }

    /// Sums entry weights into every lane at once: lane `j` of the result is
    /// `Σ w` over the entries `(v, w)` with `v` in lane `j`'s subspace —
    /// Eq. 4 for the whole block in one sweep.
    #[must_use]
    pub fn sum_weights(&self, entries: impl IntoIterator<Item = (u64, u64)>) -> Vec<u64> {
        let mut scratch = [0u64; SLICED_LANES];
        let mut sums = vec![0u64; self.lanes];
        for (v, w) in entries {
            let mut mask = self.member_mask_scratch(v, &mut scratch);
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                sums[lane] += w;
            }
        }
        sums
    }

    /// [`SlicedBlock::member_mask`] with a caller-owned scratch buffer, for
    /// hot loops testing many vectors against one block: only the block's
    /// `checks` planes of the scratch are touched per call, instead of
    /// zero-initializing a fresh 64-word array each time.
    #[must_use]
    pub fn member_mask_scratch(&self, v: u64, scratch: &mut [u64; SLICED_LANES]) -> u64 {
        if v & !self.low_mask != 0 {
            return 0;
        }
        if self.checks == 0 {
            // Every lane is the full space.
            return self.lane_mask;
        }
        let planes = &mut scratch[..self.checks];
        planes.fill(0);
        let mut rest = v;
        while rest != 0 {
            let b = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let col = &self.columns[b * self.checks..(b + 1) * self.checks];
            for (plane, &word) in planes.iter_mut().zip(col) {
                *plane ^= word;
            }
        }
        let mut nonzero = 0u64;
        for &plane in planes.iter() {
            nonzero |= plane;
        }
        !nonzero & self.lane_mask
    }
}

/// A weighted histogram grouped by remainder modulo one parent subspace `P`,
/// in one flat array: what pricing a neighbourhood of `P` reads.
///
/// Every entry `(v, w)` is stored as `(c(v), w)`, where `c(v)` is `v`'s
/// coordinate vector over `P`'s rows ([`PackedBasis::decompose`]), and the
/// entries sharing a remainder `reduce_P(v)` sit together, the in-parent
/// group (remainder 0) first. A neighbour of `P` is a hyperplane
/// `H_f = {x ∈ P : f · c(x) = 0}` extended by a direction `d ∉ H_f`, and
///
/// ```text
/// v ∈ H_f        ⟺  reduce_P(v) = 0             and  f · c(v) = 0
/// v ∈ H_f ⊕ d    ⟺  reduce_P(v) = reduce_P(d)   and  f · c(v) = f · c(d)
/// ```
///
/// So the lane's Eq. 4 cost is the hyperplane's in-parent weight, shared by
/// every lane of that hyperplane, plus one [`parity_weight`] scan of its
/// direction's remainder group. A direction inside `P` has remainder 0 and
/// parity 1, so its lane rescans the in-parent group for the other parity:
/// that candidate is `P` itself.
///
/// # Example
///
/// ```
/// use gf2::{CosetHistogram, PackedBasis};
///
/// let parent = PackedBasis::standard_span(8, [0usize, 1]);
/// let entries = [(0b0000_0001, 5), (0b0000_0010, 7), (0b0001_0001, 3)];
/// let histogram = CosetHistogram::new(&parent, entries);
///
/// // Rows run by decreasing pivot, so functional 0b01 weighs row 0 = e_1:
/// // its hyperplane is span{e_0}, and this lane is span{e_0, e_4}.
/// assert_eq!(histogram.lane_weight(0b01, 1 << 4, u64::MAX), 5 + 3);
/// // e_1 lies in the parent, outside the hyperplane: the parent itself.
/// assert_eq!(histogram.lane_weight(0b01, 0b10, u64::MAX), 5 + 7);
/// // Bounded: the scan stops once the running sum reaches the bound.
/// assert!(histogram.lane_weight(0b01, 1 << 4, 6) >= 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CosetHistogram {
    parent: PackedBasis,
    /// `(c, w)` per entry, grouped by ascending remainder.
    entries: Vec<(u64, u64)>,
    /// `(remainder, start)` per distinct remainder, ascending: a group runs
    /// from its start to the next group's.
    groups: Vec<(u64, usize)>,
}

impl CosetHistogram {
    /// Groups weighted entries by their remainder modulo `parent`.
    #[must_use]
    pub fn new(parent: &PackedBasis, entries: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut tagged: Vec<(u64, u64, u64)> = entries
            .into_iter()
            .map(|(v, w)| {
                let (remainder, c) = parent.decompose(v);
                (remainder, c, w)
            })
            .collect();
        tagged.sort_unstable_by_key(|&(remainder, _, _)| remainder);
        let mut groups: Vec<(u64, usize)> = Vec::new();
        let mut entries = Vec::with_capacity(tagged.len());
        for (remainder, c, w) in tagged {
            if groups.last().map(|&(last, _)| last) != Some(remainder) {
                groups.push((remainder, entries.len()));
            }
            entries.push((c, w));
        }
        CosetHistogram {
            parent: parent.clone(),
            entries,
            groups,
        }
    }

    /// The parent the entries are grouped over.
    #[must_use]
    pub fn parent(&self) -> &PackedBasis {
        &self.parent
    }

    /// The `(c, w)` entries whose remainder is `remainder`; empty when none.
    /// Remainder 0 is the in-parent group.
    #[must_use]
    pub fn group(&self, remainder: u64) -> &[(u64, u64)] {
        match self.groups.binary_search_by_key(&remainder, |&(r, _)| r) {
            Ok(i) => {
                let end = self
                    .groups
                    .get(i + 1)
                    .map_or(self.entries.len(), |&(_, s)| s);
                &self.entries[self.groups[i].1..end]
            }
            Err(_) => &[],
        }
    }

    /// The Eq. 4 weight of one lane `H_f ⊕ span(direction)` under a bound:
    /// exact when below `bound`, otherwise some sum `≥ bound` (the scan stops
    /// there). `bound = u64::MAX` prices exactly. A caller pricing many lanes
    /// of one hyperplane hoists the shared in-parent term instead (see the
    /// type docs).
    ///
    /// # Panics
    ///
    /// Panics if `direction` has bits outside the ambient width or lies
    /// inside the hyperplane.
    #[must_use]
    pub fn lane_weight(&self, functional: u64, direction: u64, bound: u64) -> u64 {
        assert_eq!(
            direction & !mask_low(self.parent.width()),
            0,
            "direction {direction:#x} exceeds the ambient width"
        );
        let (remainder, c) = self.parent.decompose(direction);
        let parity = (functional & c).count_ones() & 1;
        assert!(
            remainder != 0 || parity == 1,
            "direction {direction:#x} lies inside its hyperplane"
        );
        let base = parity_weight(self.group(0), functional, 0, 0, bound);
        parity_weight(self.group(remainder), functional, parity, base, bound)
    }
}

/// `start` plus the weights of the `(c, w)` entries of `group` whose parity
/// `functional · c` equals `parity`, stopping as soon as the running sum
/// reaches `bound` — one lane's scan of one [`CosetHistogram`] group. Sums
/// are monotone, so a result below `bound` is exact and one at or above it
/// only says the true sum is at least `bound`.
#[must_use]
pub fn parity_weight(
    group: &[(u64, u64)],
    functional: u64,
    parity: u32,
    start: u64,
    bound: u64,
) -> u64 {
    let mut sum = start;
    if sum >= bound {
        return sum;
    }
    for &(c, w) in group {
        let matches = u64::from(((functional & c).count_ones() & 1) ^ parity ^ 1);
        sum += w & matches.wrapping_neg();
        if sum >= bound {
            break;
        }
    }
    sum
}

/// Mask with the low `bits` bits set (`bits ≤ 64`).
fn mask_low(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Exhaustively pins `member_mask` against per-lane `contains`.
    fn assert_matches_contains(bases: &[PackedBasis], width: usize) {
        let block = SlicedBlock::from_bases(bases.iter());
        assert_eq!(block.lanes(), bases.len());
        assert_eq!(block.width(), width);
        let top = if width >= 16 {
            1u64 << 16
        } else {
            1u64 << width
        };
        for v in 0..top {
            let expect = bases
                .iter()
                .enumerate()
                .fold(0u64, |m, (j, b)| m | (u64::from(b.contains(v)) << j));
            assert_eq!(block.member_mask(v), expect, "v={v:#x}");
        }
    }

    #[test]
    fn single_lane_matches_contains_exhaustively() {
        for width in [1usize, 2, 5, 8] {
            for dim in 0..=width {
                let basis = PackedBasis::standard_span(width, 0..dim);
                assert_matches_contains(std::slice::from_ref(&basis), width);
            }
        }
    }

    #[test]
    fn random_mixed_dimension_block_matches_contains() {
        let mut rng = StdRng::seed_from_u64(0x51CED);
        let width = 10;
        let bases: Vec<PackedBasis> = (0..17)
            .map(|i| random::random_subspace(&mut rng, width, i % (width + 1)).to_packed())
            .collect();
        assert_matches_contains(&bases, width);
    }

    #[test]
    fn sixty_four_lanes_fill_the_word() {
        let mut rng = StdRng::seed_from_u64(7);
        let width = 9;
        let bases: Vec<PackedBasis> = (0..SLICED_LANES)
            .map(|i| random::random_subspace(&mut rng, width, 1 + i % width).to_packed())
            .collect();
        let block = SlicedBlock::from_bases(bases.iter());
        assert_eq!(block.lane_mask(), u64::MAX);
        // The zero vector is in every subspace.
        assert_eq!(block.member_mask(0), u64::MAX);
        for v in [1u64, 0b101, 0x1FF] {
            let expect = bases
                .iter()
                .enumerate()
                .fold(0u64, |m, (j, b)| m | (u64::from(b.contains(v)) << j));
            assert_eq!(block.member_mask(v), expect);
        }
    }

    #[test]
    fn width_64_and_out_of_range_vectors() {
        let full = PackedBasis::standard_span(64, 0..64);
        let half = PackedBasis::standard_span(64, 0..32);
        let block = SlicedBlock::from_bases([&full, &half]);
        assert_eq!(block.member_mask(u64::MAX), 0b01);
        assert_eq!(block.member_mask(0xFFFF_FFFF), 0b11);
        // A narrow block rejects vectors outside its ambient width outright.
        let narrow = PackedBasis::standard_span(4, 0..4);
        let block = SlicedBlock::from_bases([&narrow]);
        assert_eq!(block.member_mask(0b1111), 0b1);
        assert_eq!(block.member_mask(0b1_0000), 0);
    }

    #[test]
    fn full_dimension_lanes_accept_everything() {
        let a = PackedBasis::standard_span(6, 0..6);
        let b = PackedBasis::standard_span(6, 0..6);
        let block = SlicedBlock::from_bases([&a, &b]);
        assert_eq!(block.checks(), 0);
        for v in 0..(1u64 << 6) {
            assert_eq!(block.member_mask(v), 0b11);
        }
    }

    /// Every seventh `(functional, direction)` lane of `parent`, including
    /// directions inside the parent (whose candidate is the parent itself).
    fn lanes_of(parent: &PackedBasis) -> Vec<(u64, u64)> {
        let width = parent.width();
        (1..(1u64 << parent.dim()))
            .flat_map(|f| {
                let hyperplane = parent.hyperplane(f);
                (1..(1u64 << width))
                    .filter(move |&d| !hyperplane.contains(d))
                    .step_by(7)
                    .map(move |d| (f, d))
            })
            .collect()
    }

    /// A synthetic weighted histogram over every vector of `width` bits, so
    /// the in-parent group and every coset group are exercised.
    fn every_vector(width: usize) -> Vec<(u64, u64)> {
        (0..(1u64 << width)).map(|v| (v, v % 7 + 1)).collect()
    }

    /// Random parents of every dimension up to 5 in GF(2)^9, with their
    /// lanes and grouped histograms.
    fn cases(seed: u64) -> Vec<(CosetHistogram, Vec<(u64, u64)>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (1..=5)
            .map(|dim| {
                let parent = random::random_subspace(&mut rng, 9, dim).to_packed();
                let histogram = CosetHistogram::new(&parent, every_vector(9));
                let lanes = lanes_of(&parent);
                (histogram, lanes)
            })
            .collect()
    }

    #[test]
    fn coset_block_matches_contains_over_every_hyperplane_and_direction() {
        let entries = every_vector(9);
        for (histogram, lanes) in cases(0xC05E7) {
            let parent = histogram.parent();
            for (f, d) in lanes {
                let candidate = parent.hyperplane(f).extended(d);
                let exact: u64 = entries
                    .iter()
                    .filter(|&&(v, _)| candidate.contains(v))
                    .map(|&(_, w)| w)
                    .sum();
                assert_eq!(
                    histogram.lane_weight(f, d, u64::MAX),
                    exact,
                    "f={f:#x} d={d:#x}"
                );
            }
        }
    }

    #[test]
    fn coset_block_matches_the_generic_sliced_block() {
        let entries = every_vector(9);
        for (histogram, lanes) in cases(0x5EED) {
            for chunk in lanes.chunks(SLICED_LANES) {
                let materialized: Vec<PackedBasis> = chunk
                    .iter()
                    .map(|&(f, d)| histogram.parent().hyperplane(f).extended(d))
                    .collect();
                let generic = SlicedBlock::from_bases(materialized.iter());
                let per_lane: Vec<u64> = chunk
                    .iter()
                    .map(|&(f, d)| histogram.lane_weight(f, d, u64::MAX))
                    .collect();
                assert_eq!(per_lane, generic.sum_weights(entries.iter().copied()));
            }
        }
    }

    #[test]
    fn sum_weights_matches_a_member_mask_sweep() {
        let entries = every_vector(9);
        for (histogram, lanes) in cases(0x5A11E) {
            // Every vector is an entry: each coset of the parent is a group.
            let dim = histogram.parent().dim();
            assert_eq!(histogram.group(0).len(), 1usize << dim);
            assert_eq!(histogram.groups.len(), 1usize << (9 - dim));
            for &(f, d) in lanes.iter().step_by(5) {
                let block =
                    SlicedBlock::from_bases([&histogram.parent().hyperplane(f).extended(d)]);
                let swept: u64 = entries
                    .iter()
                    .filter(|&&(v, _)| block.member_mask(v) == 1)
                    .map(|&(_, w)| w)
                    .sum();
                assert_eq!(histogram.lane_weight(f, d, u64::MAX), swept);
            }
        }
    }

    #[test]
    fn bounded_sum_weights_is_exact_below_the_bound_and_saturated_above() {
        for (histogram, lanes) in cases(0xB0D) {
            for &(f, d) in lanes.iter().step_by(3) {
                let exact = histogram.lane_weight(f, d, u64::MAX);
                // Bounds straddling the cost, plus the degenerate zero bound.
                for bound in [0, 1, exact / 2, exact, exact + 1] {
                    let got = histogram.lane_weight(f, d, bound);
                    if exact < bound {
                        assert_eq!(got, exact, "f={f:#x} d={d:#x} bound={bound}");
                    } else {
                        assert!(got >= bound, "f={f:#x} d={d:#x} bound={bound}");
                    }
                }
            }
        }
    }

    #[test]
    fn frame_block_matches_the_standalone_constructor() {
        // The hoisted route a neighbourhood pricer runs — the hyperplane's
        // in-parent weight once, then one group scan per lane — answers what
        // the one-shot `lane_weight` does, at every bound.
        for (histogram, lanes) in cases(0xF4A3E) {
            let parent = histogram.parent();
            for &(f, d) in &lanes {
                let (remainder, c) = parent.decompose(d);
                let parity = (f & c).count_ones() & 1;
                for bound in [0, 9, 40, u64::MAX] {
                    let base = parity_weight(histogram.group(0), f, 0, 0, bound);
                    let hoisted = parity_weight(histogram.group(remainder), f, parity, base, bound);
                    let one_shot = histogram.lane_weight(f, d, bound);
                    assert_eq!(hoisted.min(bound), one_shot.min(bound), "f={f:#x} d={d:#x}");
                }
            }
        }
    }

    #[test]
    fn coset_block_handles_width_64_parents() {
        let parent = PackedBasis::standard_span(64, 32..64);
        // Functional weighing row 31 (pivot 32) alone: the hyperplane is
        // span{e_33, …, e_63}.
        let f = 1u64 << 31;
        let entries = [
            ((1u64 << 3) | (1 << 33), 2),
            ((1u64 << 32) | (1 << 33), 3),
            (1u64 << 40, 5),
            (u64::MAX, 7),
        ];
        let histogram = CosetHistogram::new(&parent, entries);
        assert_eq!(histogram.lane_weight(f, 1 << 3, u64::MAX), 2 + 5);
        // e_32 re-extends the hyperplane to the parent.
        assert_eq!(histogram.lane_weight(f, 1 << 32, u64::MAX), 3 + 5);
    }

    #[test]
    fn parity_weight_starts_from_its_base_and_stops_at_the_bound() {
        // Under functional 0b01 the first two entries have parity 1.
        let group = [(0b01u64, 4u64), (0b11, 5), (0b10, 6)];
        assert_eq!(parity_weight(&group, 0b01, 1, 0, u64::MAX), 4 + 5);
        assert_eq!(parity_weight(&group, 0b01, 0, 0, u64::MAX), 6);
        assert_eq!(parity_weight(&group, 0b01, 0, 10, u64::MAX), 16);
        // A base at the bound scans nothing; a bound hit mid-group stops.
        assert_eq!(parity_weight(&group, 0b01, 0, 10, 10), 10);
        assert_eq!(parity_weight(&group, 0b01, 1, 0, 4), 4);
        assert_eq!(parity_weight(&[], 0b01, 0, 3, u64::MAX), 3);
    }

    #[test]
    fn generic_block_sum_weights_matches_member_mask_sweep_and_bounds() {
        let mut rng = StdRng::seed_from_u64(0x6E4E);
        let width = 9;
        let bases: Vec<PackedBasis> = (0..23)
            .map(|i| random::random_subspace(&mut rng, width, 1 + i % width).to_packed())
            .collect();
        let block = SlicedBlock::from_bases(bases.iter());
        let entries: Vec<(u64, u64)> = (0..(1u64 << width)).map(|v| (v, v % 5 + 1)).collect();
        let mut expect = vec![0u64; bases.len()];
        for &(v, w) in &entries {
            let mut mask = block.member_mask(v);
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                expect[lane] += w;
            }
        }
        let sums = block.sum_weights(entries.iter().copied());
        assert_eq!(sums, expect);
        // Every lane holds the zero vector and at most the whole space; the
        // full-dimension lanes reach the total weight.
        let total: u64 = entries.iter().map(|&(_, w)| w).sum();
        for (lane, basis) in bases.iter().enumerate() {
            assert!((1..=total).contains(&sums[lane]), "lane={lane}");
            assert_eq!(sums[lane] == total, basis.dim() == width, "lane={lane}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the ambient width")]
    fn frame_direction_outside_width_panics() {
        let parent = PackedBasis::standard_span(8, 0..2);
        let histogram = CosetHistogram::new(&parent, [(1, 1)]);
        let _ = histogram.lane_weight(0b01, 1u64 << 9, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "inside its hyperplane")]
    fn coset_direction_inside_hyperplane_panics() {
        let parent = PackedBasis::standard_span(8, 0..2);
        let histogram = CosetHistogram::new(&parent, [(1, 1)]);
        // Functional 0b01 vanishes on e_0 (row 1).
        let _ = histogram.lane_weight(0b01, 1, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "inside the parent")]
    fn coset_foreign_hyperplane_panics() {
        let parent = PackedBasis::standard_span(8, 0..2);
        let foreign = PackedBasis::standard_span(8, [5usize]);
        let _ = parent.hyperplane_functional(&foreign);
    }

    #[test]
    #[should_panic(expected = "no hyperplanes")]
    fn coset_trivial_parent_panics() {
        let parent = PackedBasis::trivial(8);
        let _ = parent.hyperplane_functional(&PackedBasis::trivial(8));
    }

    #[test]
    #[should_panic(expected = "share one width")]
    fn mismatched_widths_panic() {
        let a = PackedBasis::trivial(8);
        let b = PackedBasis::trivial(9);
        let _ = SlicedBlock::from_bases([&a, &b]);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_block_panics() {
        let _ = SlicedBlock::from_bases(std::iter::empty());
    }
}
