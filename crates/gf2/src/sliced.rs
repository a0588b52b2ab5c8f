//! Bit-sliced membership tests for blocks of up to 64 candidate subspaces.
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

/// A transposed block of up to [`SLICED_LANES`] *neighbour* candidates
/// `M_j ⊕ span(w_j)`, where every retained hyperplane `M_j` is a hyperplane
/// of one shared parent subspace `P` — the shape a search neighbourhood
/// arrives in.
///
/// A generic [`SlicedBlock`] must carry `width − dim` check planes per lane.
/// The shared parent collapses almost all of that work: membership in
/// `C_j = M_j ∪ (M_j ⊕ w_j)` factors through `P`. Writing `r = reduce_P(v)`
/// and `c(v)` for `v`'s coordinate vector over `P`'s RREF rows (both linear
/// in `v`, and `c` is a plain gather of `v`'s pivot bits),
///
/// ```text
/// v ∈ M_j       ⟺  r = 0    and  α_j · c(v) = 0
/// v ∈ M_j ⊕ w_j ⟺  r = ρ_j  and  α_j · c(v) = α_j · c(w_j)
/// ```
///
/// where `α_j` is the linear functional on `P` whose kernel is `M_j` and
/// `ρ_j = reduce_P(w_j)`. So one `dim(P)`-row reduction plus a lookup of `r`
/// among the (at most [`SLICED_LANES`]) direction remainders answers the
/// whole block; only when `r` hits `0` or some `ρ_j` does a single
/// word-parallel parity pass over `α` run. Histogram vectors far from the
/// parent — the vast majority — reject for all 64 lanes in a handful of word
/// operations.
///
/// # Example
///
/// ```
/// use gf2::{PackedBasis, SlicedCosetBlock};
///
/// let parent = PackedBasis::standard_span(8, [0usize, 1]);
/// let hyperplane = PackedBasis::standard_span(8, [0usize]);
/// let block = SlicedCosetBlock::new(&parent, &[(&hyperplane, 1 << 4), (&hyperplane, 1 << 5)]);
///
/// // Lane j's candidate is span{e_0} ⊕ span{direction_j}.
/// assert_eq!(block.member_mask(0b0001_0001), 0b01);
/// assert_eq!(block.member_mask(0b0010_0000), 0b10);
/// assert_eq!(block.member_mask(0b0000_0001), 0b11); // in the shared hyperplane
/// assert_eq!(block.member_mask(0b0000_0010), 0b00); // in the parent, in no candidate
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlicedCosetBlock {
    width: usize,
    lanes: usize,
    /// Parent RREF rows paired with their pivot positions.
    rows: Vec<(u64, u32)>,
    /// `alpha[k]`: bit `j` is the coefficient of lane `j`'s hyperplane
    /// functional on parent coordinate `k`.
    alpha: Vec<u64>,
    /// Bit `j` is `α_j · c(w_j)`, the parity the coset branch compares
    /// against.
    direction_parity: u64,
    /// Distinct direction remainders `ρ = reduce_P(w)` with the mask of lanes
    /// whose direction reduces to each, sorted by remainder for binary search.
    cosets: Vec<(u64, u64)>,
    /// Low `lanes` bits set.
    lane_mask: u64,
    /// Low `width` bits set.
    low_mask: u64,
}

impl SlicedCosetBlock {
    /// Builds a block from 1..=[`SLICED_LANES`] `(hyperplane, direction)`
    /// lanes sharing one `parent`: lane `j`'s candidate is
    /// `hyperplane_j ⊕ span(direction_j)`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty or longer than [`SLICED_LANES`]; if the
    /// parent has dimension 0; if a hyperplane is not in fact a hyperplane of
    /// the parent (wrong width or dimension, or not contained in it); or if a
    /// direction lies inside its hyperplane (the candidate would not be an
    /// extension).
    #[must_use]
    pub fn new(parent: &PackedBasis, lanes: &[(&PackedBasis, u64)]) -> Self {
        // The standalone constructor treats each lane's hyperplane as its
        // own: a one-lane-per-hyperplane frame. Callers pricing a whole
        // neighbourhood (many lanes per distinct hyperplane) should build one
        // [`CosetFrame`] and stamp blocks from it instead.
        let frame = CosetFrame::new(parent, lanes.iter().map(|&(hyperplane, _)| hyperplane));
        let indexed: Vec<(usize, u64)> = lanes
            .iter()
            .enumerate()
            .map(|(j, &(_, direction))| (j, direction))
            .collect();
        frame.block(&indexed)
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

    /// Mask with one bit set per occupied lane.
    #[must_use]
    pub fn lane_mask(&self) -> u64 {
        self.lane_mask
    }

    /// The word-parallel membership test: bit `j` of the result is set exactly
    /// when `v` lies in lane `j`'s candidate `hyperplane_j ⊕ span(direction_j)`
    /// — the same verdict [`PackedBasis::contains`] gives on the materialized
    /// extension.
    #[must_use]
    pub fn member_mask(&self, v: u64) -> u64 {
        if v & !self.low_mask != 0 {
            return 0;
        }
        // One shared reduction: remainder modulo the parent plus the pivot-bit
        // gather that is v's coordinate vector over the parent rows.
        let mut c = 0u64;
        let mut r = v;
        for (k, &(row, pivot)) in self.rows.iter().enumerate() {
            let bit = (v >> pivot) & 1;
            c |= bit << k;
            r ^= row & bit.wrapping_neg();
        }
        let coset_lanes = self.coset_lane_mask(r);
        if r != 0 && coset_lanes == 0 {
            // Neither in the parent nor in any direction's coset of it: a
            // member of no candidate. The common early exit.
            return 0;
        }
        let parity = self.parity_word(c);
        let mut mask = coset_lanes & !(parity ^ self.direction_parity);
        if r == 0 {
            mask |= !parity & self.lane_mask;
        }
        mask & self.lane_mask
    }

    /// Sums entry weights into every lane at once under an incumbent bound:
    /// lane `j`'s sum is `Σ w` over the histogram entries `(v, w)` with `v` in
    /// lane `j`'s candidate — Eq. 4 for the whole block from one pre-grouped
    /// histogram.
    ///
    /// A lane whose running sum reaches `bound` is *saturated*: it stops
    /// accumulating, and once every lane is saturated the scan abandons the
    /// remaining entries (checked per entry in the in-parent pass and per
    /// coset group). Returns `(sums, saturated)` where bit `j` of `saturated`
    /// marks lane `j` as saturated. An unsaturated lane's sum is its exact
    /// Eq. 4 cost (running sums are monotone, so a lane with true cost
    /// `< bound` never saturates); a saturated lane's true cost is `≥ bound`.
    /// `bound = u64::MAX` prices every lane exactly.
    ///
    /// The histogram must have been grouped over the same parent this block
    /// was built from. Unlike a [`SlicedCosetBlock::member_mask`] sweep, this
    /// never visits entries outside the parent and its represented cosets:
    /// per block the work is `(|parent entries| + Σ |this block's coset
    /// entries|)` parity passes, not one test per histogram entry.
    #[must_use]
    pub fn sum_weights(&self, histogram: &CosetHistogram, bound: u64) -> (Vec<u64>, u64) {
        debug_assert_eq!(
            self.rows, histogram.rows,
            "histogram was grouped over a different parent"
        );
        let mut sums = vec![0u64; self.lanes];
        let mut saturated = if bound == 0 { self.lane_mask } else { 0 };
        // Entries inside the parent: candidates contain them through their
        // hyperplane (parity 0) or — for the rare in-parent directions —
        // through the direction's coset of the hyperplane.
        let rho0 = self.coset_lane_mask(0);
        if saturated != self.lane_mask {
            for &(c, w) in &histogram.in_parent {
                let parity = self.parity_word(c);
                let mut mask = ((!parity & self.lane_mask)
                    | (rho0 & !(parity ^ self.direction_parity)))
                    & !saturated;
                while mask != 0 {
                    let lane = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    sums[lane] += w;
                    if sums[lane] >= bound {
                        saturated |= 1u64 << lane;
                    }
                }
                if saturated == self.lane_mask {
                    return (sums, saturated);
                }
            }
        }
        // Entries in a direction's coset of the parent: only the lanes with
        // that direction remainder can contain them.
        for &(rho, rho_lanes) in &self.cosets {
            if rho == 0 || rho_lanes & !saturated == 0 {
                continue;
            }
            for &(c, w) in histogram.coset_group(rho) {
                let mut mask =
                    rho_lanes & !(self.parity_word(c) ^ self.direction_parity) & !saturated;
                while mask != 0 {
                    let lane = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    sums[lane] += w;
                    if sums[lane] >= bound {
                        saturated |= 1u64 << lane;
                    }
                }
                if saturated == self.lane_mask {
                    return (sums, saturated);
                }
            }
        }
        (sums, saturated)
    }

    /// XOR of the `alpha` planes selected by the set bits of a coordinate
    /// vector: bit `j` is `α_j · c`.
    #[inline]
    fn parity_word(&self, c: u64) -> u64 {
        let mut parity = 0u64;
        let mut rest = c;
        while rest != 0 {
            let k = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            parity ^= self.alpha[k];
        }
        parity
    }

    /// Mask of lanes whose direction remainder equals `rho` (0 when none).
    #[inline]
    fn coset_lane_mask(&self, rho: u64) -> u64 {
        match self.cosets.binary_search_by_key(&rho, |&(r, _)| r) {
            Ok(i) => self.cosets[i].1,
            Err(_) => 0,
        }
    }
}

/// Per-neighbourhood precomputation for coset-sliced pricing: the parent's
/// RREF rows plus one hyperplane functional per distinct retained hyperplane,
/// validated and solved **once** and shared by every block stamped from it.
///
/// A search neighbourhood has far more candidates than distinct hyperplanes
/// (`2^dim − 1` hyperplanes fan out over every direction), so recomputing
/// each lane's functional inside [`SlicedCosetBlock::new`] would dominate the
/// whole evaluation. The frame hoists that: [`CosetFrame::new`] pays the
/// `O(dim²)` validation and functional solve per *hyperplane*, and
/// [`CosetFrame::block`] then costs only a parent reduction and a handful of
/// word operations per *lane*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CosetFrame {
    width: usize,
    /// Parent RREF rows paired with their pivot positions.
    rows: Vec<(u64, u32)>,
    /// The functional vanishing on hyperplane `h`, expressed on the parent's
    /// coordinates: bit `k` is 1 exactly when parent row `k` falls outside
    /// hyperplane `h`.
    alphas: Vec<u64>,
    /// Low `width` bits set.
    low_mask: u64,
}

impl CosetFrame {
    /// Builds a frame over `parent` for the given distinct hyperplanes —
    /// lanes passed to [`CosetFrame::block`] refer to them by index.
    ///
    /// # Panics
    ///
    /// Panics if the parent has dimension 0, or if any hyperplane is not in
    /// fact a hyperplane of the parent (wrong width or dimension, or not
    /// contained in it).
    #[must_use]
    pub fn new<'a>(
        parent: &PackedBasis,
        hyperplanes: impl IntoIterator<Item = &'a PackedBasis>,
    ) -> Self {
        let width = parent.width();
        let dim = parent.dim();
        assert!(dim >= 1, "a dimension-0 parent has no hyperplanes");
        let rows: Vec<(u64, u32)> = parent
            .rows()
            .iter()
            .map(|&row| (row, 63 - row.leading_zeros()))
            .collect();
        let alphas = hyperplanes
            .into_iter()
            .map(|hyperplane| {
                assert_eq!(
                    hyperplane.width(),
                    width,
                    "hyperplane width must match the parent"
                );
                assert_eq!(
                    hyperplane.dim(),
                    dim - 1,
                    "a hyperplane of the parent has dimension {}",
                    dim - 1
                );
                assert!(
                    parent.contains_subspace(hyperplane),
                    "hyperplane must lie inside the parent"
                );
                let mut a = 0u64;
                for (k, &(row, _)) in rows.iter().enumerate() {
                    if !hyperplane.contains(row) {
                        a |= 1u64 << k;
                    }
                }
                a
            })
            .collect();
        CosetFrame {
            width,
            rows,
            alphas,
            low_mask: mask_low(width),
        }
    }

    /// Ambient width of the parent.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Dimension of the parent.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.rows.len()
    }

    /// Number of hyperplanes the frame carries functionals for.
    #[must_use]
    pub fn hyperplane_count(&self) -> usize {
        self.alphas.len()
    }

    /// Stamps a [`SlicedCosetBlock`] for 1..=[`SLICED_LANES`] lanes, each a
    /// `(hyperplane index, direction)` pair: lane `j`'s candidate is
    /// `hyperplane_{lanes[j].0} ⊕ span(lanes[j].1)`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty or longer than [`SLICED_LANES`]; if a
    /// hyperplane index is out of range; if a direction has bits outside the
    /// ambient width; or if a direction lies inside its hyperplane (the
    /// candidate would not be an extension).
    #[must_use]
    pub fn block(&self, lanes: &[(usize, u64)]) -> SlicedCosetBlock {
        assert!(!lanes.is_empty(), "a coset block needs at least one lane");
        assert!(
            lanes.len() <= SLICED_LANES,
            "a coset block holds at most {SLICED_LANES} lanes, got {}",
            lanes.len()
        );
        let dim = self.rows.len();
        let mut alpha = vec![0u64; dim];
        let mut direction_parity = 0u64;
        let mut rho: Vec<(u64, u64)> = Vec::with_capacity(lanes.len());
        for (j, &(h, direction)) in lanes.iter().enumerate() {
            let lane_bit = 1u64 << j;
            let a = self.alphas[h];
            assert_eq!(
                direction & !self.low_mask,
                0,
                "direction {direction:#x} exceeds the ambient width"
            );
            // One reduction serves both the remainder ρ and the coordinate
            // gather feeding the parity q = α · c(direction).
            let mut c = 0u64;
            let mut r = direction;
            for (k, &(row, pivot)) in self.rows.iter().enumerate() {
                let bit = (direction >> pivot) & 1;
                c |= bit << k;
                r ^= row & bit.wrapping_neg();
            }
            let q = u64::from((a & c).count_ones() & 1);
            // direction ∈ hyperplane ⟺ it is in the parent (ρ = 0) and the
            // functional vanishes on it (q = 0).
            assert!(
                r != 0 || q == 1,
                "direction {direction:#x} lies inside its hyperplane"
            );
            for (k, slot) in alpha.iter_mut().enumerate() {
                *slot |= ((a >> k) & 1) * lane_bit;
            }
            direction_parity |= q << j;
            rho.push((r, lane_bit));
        }
        rho.sort_unstable_by_key(|&(r, _)| r);
        let mut cosets: Vec<(u64, u64)> = Vec::with_capacity(rho.len());
        for (r, bit) in rho {
            match cosets.last_mut() {
                Some(entry) if entry.0 == r => entry.1 |= bit,
                _ => cosets.push((r, bit)),
            }
        }
        SlicedCosetBlock {
            width: self.width,
            lanes: lanes.len(),
            rows: self.rows.clone(),
            alpha,
            direction_parity,
            cosets,
            lane_mask: mask_low(lanes.len()),
            low_mask: self.low_mask,
        }
    }
}

/// A weighted histogram grouped by remainder modulo one parent subspace —
/// the shared half of the coset-sliced neighbourhood scan.
///
/// Built once per `(parent, histogram)` pair and reused by every
/// [`SlicedCosetBlock`] over that parent: each entry `(v, w)` is tagged with
/// its parent remainder `reduce_P(v)` and coordinate vector `c(v)`, then
/// bucketed — entries inside the parent in one list, the rest grouped by
/// remainder. A block then visits only the buckets its lanes' directions
/// select, skipping the (typically vast) majority of entries whose remainder
/// matches no lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CosetHistogram {
    /// Parent RREF rows with pivots, kept to assert block/histogram pairing.
    rows: Vec<(u64, u32)>,
    /// `(c, w)` for entries inside the parent (`reduce_P(v) = 0`).
    in_parent: Vec<(u64, u64)>,
    /// `(ρ, entries)` for the non-zero remainders, sorted by `ρ`; each entry
    /// is `(c, w)`.
    groups: Vec<(u64, Vec<(u64, u64)>)>,
}

impl CosetHistogram {
    /// Groups weighted entries by their remainder modulo `parent`.
    ///
    /// # Panics
    ///
    /// Panics if the parent has dimension 0 (no hyperplanes, so no
    /// [`SlicedCosetBlock`] could consume the grouping).
    #[must_use]
    pub fn new(parent: &PackedBasis, entries: impl IntoIterator<Item = (u64, u64)>) -> Self {
        assert!(parent.dim() >= 1, "a dimension-0 parent has no hyperplanes");
        let rows: Vec<(u64, u32)> = parent
            .rows()
            .iter()
            .map(|&row| (row, 63 - row.leading_zeros()))
            .collect();
        let mut tagged: Vec<(u64, u64, u64)> = entries
            .into_iter()
            .map(|(v, w)| {
                let mut c = 0u64;
                let mut r = v;
                for (k, &(row, pivot)) in rows.iter().enumerate() {
                    let bit = (v >> pivot) & 1;
                    c |= bit << k;
                    r ^= row & bit.wrapping_neg();
                }
                (r, c, w)
            })
            .collect();
        tagged.sort_unstable_by_key(|&(r, _, _)| r);
        let mut in_parent = Vec::new();
        let mut groups: Vec<(u64, Vec<(u64, u64)>)> = Vec::new();
        for (r, c, w) in tagged {
            if r == 0 {
                in_parent.push((c, w));
            } else {
                match groups.last_mut() {
                    Some((rho, group)) if *rho == r => group.push((c, w)),
                    _ => groups.push((r, vec![(c, w)])),
                }
            }
        }
        CosetHistogram {
            rows,
            in_parent,
            groups,
        }
    }

    /// Number of entries that lie inside the parent.
    #[must_use]
    pub fn in_parent_len(&self) -> usize {
        self.in_parent.len()
    }

    /// Number of distinct non-zero remainders observed.
    #[must_use]
    pub fn distinct_cosets(&self) -> usize {
        self.groups.len()
    }

    /// The `(c, w)` entries whose remainder is `rho` (empty when none; `rho`
    /// must be non-zero — in-parent entries live in their own bucket).
    fn coset_group(&self, rho: u64) -> &[(u64, u64)] {
        match self.groups.binary_search_by_key(&rho, |&(r, _)| r) {
            Ok(i) => &self.groups[i].1,
            Err(_) => &[],
        }
    }
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

    /// Exhaustively pins a coset block against `contains` on the materialized
    /// extensions.
    fn assert_coset_matches_contains(parent: &PackedBasis, lanes: &[(&PackedBasis, u64)]) {
        let width = parent.width();
        let block = SlicedCosetBlock::new(parent, lanes);
        assert_eq!(block.lanes(), lanes.len());
        assert_eq!(block.width(), width);
        let materialized: Vec<PackedBasis> = lanes
            .iter()
            .map(|&(hyperplane, direction)| hyperplane.extended(direction))
            .collect();
        for v in 0..(1u64 << width) {
            let expect = materialized
                .iter()
                .enumerate()
                .fold(0u64, |m, (j, b)| m | (u64::from(b.contains(v)) << j));
            assert_eq!(block.member_mask(v), expect, "v={v:#x}");
        }
        // Out-of-width vectors are members of nothing.
        if width < 64 {
            assert_eq!(block.member_mask(1u64 << width), 0);
        }
    }

    #[test]
    fn coset_block_matches_contains_over_every_hyperplane_and_direction() {
        let mut rng = StdRng::seed_from_u64(0xC05E7);
        for width in [4usize, 7, 10] {
            for dim in 1..=4 {
                let parent = random::random_subspace(&mut rng, width, dim).to_packed();
                let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
                // All (hyperplane, direction) pairs over directions outside
                // each hyperplane — including directions *inside* the parent,
                // whose candidate degenerates to the parent itself.
                let mut lanes: Vec<(&PackedBasis, u64)> = Vec::new();
                for hyperplane in &hyperplanes {
                    for v in 1..(1u64 << width) {
                        if !hyperplane.contains(v) {
                            lanes.push((hyperplane, v));
                        }
                        if lanes.len() == SLICED_LANES {
                            break;
                        }
                    }
                    if lanes.len() == SLICED_LANES {
                        break;
                    }
                }
                assert_coset_matches_contains(&parent, &lanes);
            }
        }
    }

    #[test]
    fn coset_block_matches_the_generic_sliced_block() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let width = 9;
        let parent = random::random_subspace(&mut rng, width, 5).to_packed();
        let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
        let directions: Vec<u64> = (1..(1u64 << width))
            .filter(|&v| !parent.contains(v))
            .take(4)
            .collect();
        let lanes: Vec<(&PackedBasis, u64)> = hyperplanes
            .iter()
            .flat_map(|h| directions.iter().map(move |&d| (h, d)))
            .take(SLICED_LANES)
            .collect();
        let materialized: Vec<PackedBasis> = lanes.iter().map(|&(h, d)| h.extended(d)).collect();
        let coset = SlicedCosetBlock::new(&parent, &lanes);
        let generic = SlicedBlock::from_bases(materialized.iter());
        assert_eq!(coset.lane_mask(), generic.lane_mask());
        for v in 0..(1u64 << width) {
            assert_eq!(coset.member_mask(v), generic.member_mask(v), "v={v:#x}");
        }
    }

    #[test]
    fn coset_block_handles_width_64_parents() {
        let parent = PackedBasis::standard_span(64, 32..64);
        let hyperplane = PackedBasis::standard_span(64, 33..64);
        let lanes = [(&hyperplane, 1u64 << 3), (&hyperplane, 1u64 << 32)];
        let block = SlicedCosetBlock::new(&parent, &lanes);
        // e_3 ⊕ e_33 is in lane 0 (e_3 joined the span), not lane 1.
        assert_eq!(block.member_mask((1 << 3) | (1 << 33)), 0b01);
        // e_32 ⊕ e_33: lane 1's direction re-extends to the parent.
        assert_eq!(block.member_mask((1 << 32) | (1 << 33)), 0b10);
        assert_eq!(block.member_mask(0), 0b11);
    }

    #[test]
    fn frame_block_matches_the_standalone_constructor() {
        let mut rng = StdRng::seed_from_u64(0xF4A3E);
        let width = 11;
        let parent = random::random_subspace(&mut rng, width, 4).to_packed();
        let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
        let directions: Vec<u64> = (1..(1u64 << width))
            .filter(|&v| !parent.contains(v))
            .take(6)
            .collect();
        // Many lanes per distinct hyperplane — the shape the frame exists for.
        let indexed: Vec<(usize, u64)> = (0..hyperplanes.len())
            .flat_map(|h| directions.iter().map(move |&d| (h, d)))
            .take(SLICED_LANES)
            .collect();
        let frame = CosetFrame::new(&parent, &hyperplanes);
        assert_eq!(frame.width(), width);
        assert_eq!(frame.dim(), 4);
        assert_eq!(frame.hyperplane_count(), hyperplanes.len());
        let expanded: Vec<(&PackedBasis, u64)> =
            indexed.iter().map(|&(h, d)| (&hyperplanes[h], d)).collect();
        assert_eq!(
            frame.block(&indexed),
            SlicedCosetBlock::new(&parent, &expanded)
        );
    }

    #[test]
    fn sum_weights_matches_a_member_mask_sweep() {
        let mut rng = StdRng::seed_from_u64(0x5A11E);
        let width = 10;
        for dim in 2..=5 {
            let parent = random::random_subspace(&mut rng, width, dim).to_packed();
            let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
            let lanes: Vec<(usize, u64)> = (0..hyperplanes.len())
                .flat_map(|h| {
                    let hyperplane = &hyperplanes[h];
                    (1..(1u64 << width))
                        .filter(move |&v| !hyperplane.contains(v))
                        .take(3)
                        .map(move |d| (h, d))
                })
                .take(SLICED_LANES)
                .collect();
            let frame = CosetFrame::new(&parent, &hyperplanes);
            let block = frame.block(&lanes);
            // A synthetic weighted histogram covering every vector, so both
            // the in-parent and every coset bucket are exercised.
            let entries: Vec<(u64, u64)> = (0..(1u64 << width)).map(|v| (v, v % 7 + 1)).collect();
            let histogram = CosetHistogram::new(&parent, entries.iter().copied());
            // Every parent vector (including zero) appears as an entry here.
            assert_eq!(histogram.in_parent_len(), 1usize << dim);
            let mut expect = vec![0u64; lanes.len()];
            for &(v, w) in &entries {
                let mut mask = block.member_mask(v);
                while mask != 0 {
                    let lane = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    expect[lane] += w;
                }
            }
            assert_eq!(
                block.sum_weights(&histogram, u64::MAX),
                (expect, 0),
                "dim={dim}"
            );
        }
    }

    #[test]
    fn bounded_sum_weights_is_exact_below_the_bound_and_saturated_above() {
        let mut rng = StdRng::seed_from_u64(0xB0D);
        let width = 10;
        for dim in 2..=5 {
            let parent = random::random_subspace(&mut rng, width, dim).to_packed();
            let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
            let lanes: Vec<(usize, u64)> = (0..hyperplanes.len())
                .flat_map(|h| {
                    let hyperplane = &hyperplanes[h];
                    (1..(1u64 << width))
                        .filter(move |&v| !hyperplane.contains(v))
                        .take(3)
                        .map(move |d| (h, d))
                })
                .take(SLICED_LANES)
                .collect();
            let frame = CosetFrame::new(&parent, &hyperplanes);
            let block = frame.block(&lanes);
            let entries: Vec<(u64, u64)> = (0..(1u64 << width)).map(|v| (v, v % 7 + 1)).collect();
            let histogram = CosetHistogram::new(&parent, entries.iter().copied());
            let (exact, none) = block.sum_weights(&histogram, u64::MAX);
            assert_eq!(none, 0);
            let lo = *exact.iter().min().unwrap();
            let hi = *exact.iter().max().unwrap();
            // Bounds straddling the cost range, plus the degenerate extremes.
            for bound in [0, lo, lo + 1, lo + (hi - lo) / 2, hi, hi + 1] {
                let (sums, saturated) = block.sum_weights(&histogram, bound);
                for (lane, &true_cost) in exact.iter().enumerate() {
                    if saturated & (1u64 << lane) == 0 {
                        assert_eq!(sums[lane], true_cost, "dim={dim} bound={bound} lane={lane}");
                        assert!(true_cost < bound);
                    } else {
                        assert!(true_cost >= bound, "dim={dim} bound={bound} lane={lane}");
                        assert!(sums[lane] >= bound || bound == 0);
                    }
                }
            }
            // A bound above every cost completes exactly.
            let (sums, saturated) = block.sum_weights(&histogram, hi + 1);
            assert_eq!(sums, exact);
            assert_eq!(saturated, 0);
            // A zero bound abandons immediately with every lane saturated.
            let (sums, saturated) = block.sum_weights(&histogram, 0);
            assert_eq!(sums, vec![0u64; block.lanes()]);
            assert_eq!(saturated, block.lane_mask());
        }
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
        let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
        let frame = CosetFrame::new(&parent, &hyperplanes);
        let _ = frame.block(&[(0, 1u64 << 9)]);
    }

    #[test]
    #[should_panic(expected = "inside its hyperplane")]
    fn coset_direction_inside_hyperplane_panics() {
        let parent = PackedBasis::standard_span(8, 0..2);
        let hyperplane = PackedBasis::standard_span(8, 0..1);
        let _ = SlicedCosetBlock::new(&parent, &[(&hyperplane, 1)]);
    }

    #[test]
    #[should_panic(expected = "inside the parent")]
    fn coset_foreign_hyperplane_panics() {
        let parent = PackedBasis::standard_span(8, 0..2);
        let foreign = PackedBasis::standard_span(8, [5usize]);
        let _ = SlicedCosetBlock::new(&parent, &[(&foreign, 1 << 6)]);
    }

    #[test]
    #[should_panic(expected = "no hyperplanes")]
    fn coset_trivial_parent_panics() {
        let parent = PackedBasis::trivial(8);
        let hyperplane = PackedBasis::trivial(8);
        let _ = SlicedCosetBlock::new(&parent, &[(&hyperplane, 1)]);
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
