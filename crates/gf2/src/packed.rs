//! Subspaces of GF(2)^n as packed word-level bases.
//!
//! The search works on null spaces, not matrices (paper Section 3.2), and
//! its hot path (Eq. 4) reduces millions of raw `u64` conflict vectors
//! against the same null space. [`PackedBasis`] is the library's one
//! representation of such a subspace: its reduced-row-echelon basis packed
//! into bare `u64` words, with
//!
//! * a branch-light [`PackedBasis::reduce`] / [`PackedBasis::contains`]
//!   membership test,
//! * *incremental* basis updates — [`PackedBasis::insert`] /
//!   [`PackedBasis::extended`] extend the span by one generator and
//!   [`PackedBasis::replaced`] swaps one basis row for a new direction, both
//!   restoring canonical form without re-running a full Gaussian elimination,
//! * *incremental* hyperplane enumeration — [`PackedBasis::hyperplanes`]
//!   produces every codimension-1 subspace by removing one (combined)
//!   generator, again without re-elimination, which is what the search's
//!   neighbourhood generation iterates over,
//! * the orthogonal complement ([`PackedBasis::orthogonal_complement`]),
//!   read off the reduced rows, from which [`crate::BitMatrix`] builds a
//!   matrix with a given null space, and
//! * Gray-code enumeration of the subspace ([`PackedBasis::vectors`]) and of
//!   any coset ([`PackedBasis::coset`]), so consecutive enumerated vectors
//!   differ by a single row XOR.
//!
//! A `PackedBasis` in canonical form is a unique representative of its
//! subspace, so derived equality is subspace equality, and
//! [`PackedBasis::canonical_key`] yields a compact boxed word slice suitable
//! as a hash-map key for memoization.

use crate::{BitVec, Gf2Error};

/// A subspace of GF(2)^width (width ≤ 64) as a packed reduced-row-echelon
/// basis of `u64` words.
///
/// Rows are kept sorted by strictly decreasing leading (pivot) bit, and every
/// pivot bit occurs in exactly one row: the reduced row-echelon form, which
/// is unique to the subspace however its generators were given.
///
/// # Example
///
/// ```
/// use gf2::PackedBasis;
///
/// let mut b = PackedBasis::trivial(4);
/// assert!(b.insert(0b0011));
/// assert!(b.insert(0b0110));
/// assert!(!b.insert(0b0101)); // dependent on the first two
/// assert_eq!(b.dim(), 2);
/// assert!(b.contains(0b0101));
/// assert!(!b.contains(0b1000));
/// ```
/// The derived ordering compares the packed rows lexicographically (then the
/// width); it is an arbitrary but total and deterministic order, suitable for
/// sorted containers and reproducible tie-breaking.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackedBasis {
    /// RREF rows, sorted by strictly decreasing leading bit.
    rows: Vec<u64>,
    width: usize,
}

/// A compact, owned map key identifying a [`PackedBasis`] (and therefore a
/// subspace): the ambient width followed by the canonical packed rows, boxed
/// into a single `[u64]` allocation.
///
/// Because the packed rows are a unique canonical representative of the
/// subspace, two keys compare (and hash) equal exactly when the subspaces are
/// equal. Keys are cheaper to hash and store than a `PackedBasis` clone, which
/// is what makes them the memoization currency of the evaluation engine.
///
/// # Example
///
/// ```
/// use gf2::PackedBasis;
///
/// let a = PackedBasis::standard_span(8, [3usize, 5]);
/// let b = PackedBasis::standard_span(8, [5usize, 3]);
/// assert_eq!(a.canonical_key(), b.canonical_key());
/// assert_ne!(
///     a.canonical_key(),
///     PackedBasis::standard_span(8, [3usize, 6]).canonical_key()
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalKey(Box<[u64]>);

impl CanonicalKey {
    /// The raw key words: the ambient width followed by the canonical rows.
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.0
    }

    /// A stable 64-bit hash of the key, equal to
    /// [`hash_key_words`]`(self.as_words())` and to the owning basis's
    /// [`PackedBasis::key_hash`]. Intended for shard selection in concurrent
    /// memo tables, where the hash must be computable from a borrowed
    /// `[u64]` probe without allocating the owned key first.
    #[must_use]
    pub fn hash64(&self) -> u64 {
        hash_key_words(&self.0)
    }
}

/// Hashes a canonical key's words (ambient width followed by the canonical
/// rows) into a stable, well-mixed 64 bits.
///
/// This is the shard-selection hash of concurrent memo tables keyed by
/// [`CanonicalKey`]: the borrowed probe path ([`PackedBasis::key_words`]) and
/// the owned key ([`CanonicalKey::hash64`]) hash identically, so a shard can
/// be chosen without allocating. The function is a SplitMix64-style word mixer
/// — deterministic across processes and platforms (unlike `std`'s seeded
/// `SipHash`), which keeps shard assignment reproducible.
#[must_use]
pub fn hash_key_words(words: &[u64]) -> u64 {
    // Seed on the length so prefixes hash differently, then fold each word in
    // through the SplitMix64 finalizer (invertible, full avalanche).
    let mut h = (words.len() as u64) ^ 0x9E37_79B9_7F4A_7C15;
    for &w in words {
        h = splitmix64(h.rotate_left(5) ^ w);
    }
    h
}

/// The SplitMix64 finalizer: a bijective full-avalanche mix of one word.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Keyed collections can be probed with a borrowed `[u64]` produced by
/// [`PackedBasis::key_words`], so a lookup hit never allocates; the owned
/// boxed key is only built ([`PackedBasis::canonical_key`]) when an entry is
/// actually inserted.
impl std::borrow::Borrow<[u64]> for CanonicalKey {
    fn borrow(&self) -> &[u64] {
        &self.0
    }
}

impl PackedBasis {
    /// The trivial subspace `{0}` of GF(2)^width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or larger than [`BitVec::MAX_WIDTH`].
    #[must_use]
    pub fn trivial(width: usize) -> Self {
        let _ = BitVec::zero(width); // validates the width
        PackedBasis {
            rows: Vec::new(),
            width,
        }
    }

    /// The full space GF(2)^width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or larger than [`BitVec::MAX_WIDTH`].
    #[must_use]
    pub fn full(width: usize) -> Self {
        Self::standard_span(width, 0..width)
    }

    /// The span of the standard basis vectors `e_k` for the given bit indices.
    /// `standard_span(n, m..n)` is the null space of the conventional
    /// modulo-`2^m` function (paper Section 4).
    ///
    /// Unit vectors are their own canonical rows, so construction is a handful
    /// of incremental inserts with no elimination work.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= width` or the width is unsupported.
    #[must_use]
    pub fn standard_span(width: usize, bits: impl IntoIterator<Item = usize>) -> Self {
        let mut out = Self::trivial(width);
        for bit in bits {
            assert!(bit < width, "bit index {bit} outside GF(2)^{width}");
            out.insert(1u64 << bit);
        }
        out
    }

    /// Reconstructs a basis from rows that are already in canonical RREF
    /// form — the deserialization counterpart of [`PackedBasis::rows`].
    ///
    /// The rows are *validated*, not re-eliminated: each must be non-zero and
    /// lie inside the ambient width, leading (pivot) bits must be strictly
    /// decreasing, and every pivot bit must be zero in all other rows. The
    /// row vector is taken over as the basis storage, so deserializing a
    /// candidate costs no allocation beyond the vector the caller already
    /// read its words into.
    ///
    /// # Errors
    ///
    /// [`Gf2Error::UnsupportedWidth`] for a width outside `1..=64`, and
    /// [`Gf2Error::Impossible`] when the rows are not a canonical RREF basis.
    pub fn try_from_rows(width: usize, rows: Vec<u64>) -> Result<Self, Gf2Error> {
        if width == 0 || width > BitVec::MAX_WIDTH {
            return Err(Gf2Error::UnsupportedWidth(width));
        }
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let mut pivot_mask = 0u64;
        let mut last_pivot = u32::MAX;
        for &row in &rows {
            if row == 0 {
                return Err(Gf2Error::Impossible("zero basis row".to_string()));
            }
            if row & !mask != 0 {
                return Err(Gf2Error::Impossible(format!(
                    "row {row:#x} has bits outside GF(2)^{width}"
                )));
            }
            let pivot = 63 - row.leading_zeros();
            if last_pivot != u32::MAX && pivot >= last_pivot {
                return Err(Gf2Error::Impossible(
                    "rows not sorted by strictly decreasing pivot".to_string(),
                ));
            }
            last_pivot = pivot;
            pivot_mask |= 1u64 << pivot;
        }
        // RREF: below its own leading 1, a row may only have 1s at non-pivot
        // columns. One masked check per row covers all pairs at once.
        for &row in &rows {
            let own_pivot = 1u64 << (63 - row.leading_zeros());
            if row & (pivot_mask ^ own_pivot) != 0 {
                return Err(Gf2Error::Impossible(
                    "row has a 1 in another row's pivot column".to_string(),
                ));
            }
        }
        Ok(PackedBasis { rows, width })
    }

    /// A clone of this basis. Kept for the `perfbench` package, which still
    /// calls it; nothing in the workspace does.
    #[must_use]
    pub fn to_subspace(&self) -> PackedBasis {
        self.clone()
    }

    /// A clone of this basis. Kept for the `perfbench` package, which still
    /// calls it; nothing in the workspace does.
    #[must_use]
    pub fn to_packed(&self) -> PackedBasis {
        self.clone()
    }

    /// Width of the ambient space GF(2)^n.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Dimension of the subspace.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.rows.len()
    }

    /// The packed canonical rows, sorted by strictly decreasing leading bit.
    #[must_use]
    pub fn rows(&self) -> &[u64] {
        &self.rows
    }

    /// Reduces `v` modulo the subspace: zero exactly when `v` is a member.
    #[must_use]
    pub fn reduce(&self, mut v: u64) -> u64 {
        // Each row's pivot occurs in no other row, so one pass fully reduces.
        for &row in &self.rows {
            let pivot = 1u64 << (63 - row.leading_zeros());
            if v & pivot != 0 {
                v ^= row;
            }
        }
        v
    }

    /// Splits `v` into its remainder modulo the subspace and its coordinates
    /// over the rows: `v = remainder ⊕ Σ_k c_k · row_k`, where bit `k` of the
    /// returned coordinates is `c_k`. The remainder is
    /// [`PackedBasis::reduce`]'s, and the coordinates are a gather of `v`'s
    /// pivot bits (each pivot occurs in one row only).
    #[must_use]
    pub fn decompose(&self, v: u64) -> (u64, u64) {
        let mut remainder = v;
        let mut coordinates = 0u64;
        for (k, &row) in self.rows.iter().enumerate() {
            let bit = (v >> (63 - row.leading_zeros())) & 1;
            coordinates |= bit << k;
            remainder ^= row & bit.wrapping_neg();
        }
        (remainder, coordinates)
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, v: u64) -> bool {
        // Bits outside the ambient width are never members.
        if v & !self.low_mask() != 0 {
            return false;
        }
        self.reduce(v) == 0
    }

    /// `true` when every vector of `other` lies in `self`.
    ///
    /// # Panics
    ///
    /// Panics if the ambient widths differ.
    #[must_use]
    pub fn contains_subspace(&self, other: &PackedBasis) -> bool {
        assert_eq!(self.width, other.width, "ambient width mismatch");
        other.rows.iter().all(|&r| self.reduce(r) == 0)
    }

    /// The compact memoization key of this basis: width plus canonical rows in
    /// one boxed `[u64]`. See [`CanonicalKey`].
    #[must_use]
    pub fn canonical_key(&self) -> CanonicalKey {
        let mut words = Vec::with_capacity(self.rows.len() + 1);
        words.push(self.width as u64);
        words.extend_from_slice(&self.rows);
        CanonicalKey(words.into_boxed_slice())
    }

    /// Writes this basis's key words (the ambient width, then the canonical
    /// rows) into `buf` and returns the filled prefix — the borrowed form of
    /// [`PackedBasis::canonical_key`], equal (and hashing equal) to the owned
    /// key's words via `Borrow<[u64]>`. A `[u64; 65]` buffer always suffices
    /// (width ≤ 64 ⇒ dim ≤ 64), so map probes on the search hot path never
    /// allocate.
    pub fn key_words<'a>(&self, buf: &'a mut [u64; 65]) -> &'a [u64] {
        buf[0] = self.width as u64;
        buf[1..=self.rows.len()].copy_from_slice(&self.rows);
        &buf[..self.rows.len() + 1]
    }

    /// The stable 64-bit hash of this basis's canonical key, computed without
    /// materializing the key — equal to
    /// [`CanonicalKey::hash64`]`()` of [`PackedBasis::canonical_key`] and to
    /// [`hash_key_words`] over [`PackedBasis::key_words`]. This is what a
    /// sharded memo uses to pick a shard allocation-free.
    #[must_use]
    pub fn key_hash(&self) -> u64 {
        let mut h = ((self.rows.len() + 1) as u64) ^ 0x9E37_79B9_7F4A_7C15;
        h = splitmix64(h.rotate_left(5) ^ self.width as u64);
        for &row in &self.rows {
            h = splitmix64(h.rotate_left(5) ^ row);
        }
        h
    }

    /// `true` when this subspace intersects `span(e_0, …, e_{m-1})` only in
    /// the zero vector — the defining property (Eq. 5 of the paper) of the
    /// null space of a permutation-based hash function.
    ///
    /// Evaluated as a projected-rank test: the intersection with the low span
    /// is trivial exactly when projecting the rows onto the high bits `m..n`
    /// keeps them linearly independent (a dependency among the projections is
    /// a non-zero member supported on the low bits, and vice versa).
    #[must_use]
    pub fn admits_permutation_based(&self, m: usize) -> bool {
        if self.rows.is_empty() {
            return true;
        }
        let high_mask = if m >= 64 { 0 } else { u64::MAX << m };
        let mut projected = PackedBasis::trivial(self.width);
        self.rows.iter().all(|&r| projected.insert(r & high_mask))
    }

    /// `true` when the subspace is spanned by standard basis vectors — the
    /// null-space shape of a bit-selecting function.
    #[must_use]
    pub fn is_coordinate_subspace(&self) -> bool {
        self.rows.iter().all(|r| r.count_ones() == 1)
    }

    /// Orthogonal complement with respect to the standard GF(2) inner
    /// product: the vectors `x` with `x · row = 0` for every row.
    ///
    /// Read off the reduced rows: for each non-pivot column `j`, the vector
    /// with ones at `j` and at the pivot of every row that has a one at `j`
    /// is orthogonal to every row (each pivot occurs in one row only). These
    /// `width − dim` vectors are independent, and are inserted in increasing
    /// `j` to canonical form.
    #[must_use]
    pub fn orthogonal_complement(&self) -> PackedBasis {
        let pivot = |row: u64| 1u64 << (63 - row.leading_zeros());
        let pivots = self.rows.iter().fold(0u64, |acc, &row| acc | pivot(row));
        let mut out = PackedBasis::trivial(self.width);
        for column in (0..self.width).filter(|&j| pivots >> j & 1 == 0) {
            let v = self
                .rows
                .iter()
                .filter(|&&row| row >> column & 1 == 1)
                .fold(1u64 << column, |v, &row| v | pivot(row));
            out.insert(v);
        }
        out
    }

    fn low_mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Extends the span by one generator, restoring canonical form
    /// incrementally (no full re-elimination).
    ///
    /// Returns `true` when the dimension grew, `false` when `v` was already in
    /// the span.
    ///
    /// # Panics
    ///
    /// Panics if `v` has bits outside the ambient width.
    pub fn insert(&mut self, v: u64) -> bool {
        assert_eq!(
            v & !self.low_mask(),
            0,
            "generator has bits outside GF(2)^{}",
            self.width
        );
        let remainder = self.reduce(v);
        if remainder == 0 {
            return false;
        }
        // The remainder has zeros at every existing pivot, so it becomes a new
        // row as-is; back-substitute its pivot out of the other rows, then
        // insert at the position that keeps rows sorted by decreasing pivot.
        let pivot_bit = 63 - remainder.leading_zeros();
        let pivot = 1u64 << pivot_bit;
        for row in &mut self.rows {
            if *row & pivot != 0 {
                *row ^= remainder;
            }
        }
        let pos = self
            .rows
            .iter()
            .position(|&row| row < remainder)
            .unwrap_or(self.rows.len());
        self.rows.insert(pos, remainder);
        true
    }

    /// Span of this subspace and one extra generator — the owned counterpart
    /// of [`PackedBasis::insert`]. The result is built in one allocation.
    ///
    /// When `v` already lies in the span the result equals `self`.
    ///
    /// # Panics
    ///
    /// Panics if `v` has bits outside the ambient width.
    #[must_use]
    pub fn extended(&self, v: u64) -> Self {
        assert_eq!(
            v & !self.low_mask(),
            0,
            "generator has bits outside GF(2)^{}",
            self.width
        );
        match self.reduce(v) {
            0 => self.clone(),
            remainder => self.extended_reduced(remainder),
        }
    }

    /// Span of this subspace and `remainder`, a non-zero vector already
    /// reduced modulo it (as [`PackedBasis::reduce`] returns it) — the form
    /// of [`PackedBasis::extended`] for a caller that holds the remainder
    /// anyway, so nothing is reduced twice. One allocation.
    ///
    /// The remainder is zero at every existing pivot, so it becomes a row
    /// as-is; its pivot is cleared from the rows that carry it, which keeps
    /// their own leading bits, and it goes where the decreasing-pivot order
    /// puts it.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `remainder` is zero, not reduced, or has bits
    /// outside the ambient width.
    #[must_use]
    pub fn extended_reduced(&self, remainder: u64) -> Self {
        debug_assert_ne!(remainder, 0, "a zero remainder does not extend the span");
        debug_assert_eq!(
            remainder & !self.low_mask(),
            0,
            "remainder outside the width"
        );
        debug_assert_eq!(self.reduce(remainder), remainder, "remainder not reduced");
        let pivot = 1u64 << (63 - remainder.leading_zeros());
        let mut rows = Vec::with_capacity(self.rows.len() + 1);
        let mut placed = false;
        for &row in &self.rows {
            // Rows with a higher pivot compare greater than the remainder,
            // rows with a lower pivot smaller.
            if !placed && row < remainder {
                rows.push(remainder);
                placed = true;
            }
            rows.push(if row & pivot != 0 {
                row ^ remainder
            } else {
                row
            });
        }
        if !placed {
            rows.push(remainder);
        }
        PackedBasis {
            rows,
            width: self.width,
        }
    }

    /// Enumerates all `2^dim − 1` hyperplanes (subspaces of dimension
    /// `dim − 1`) of this subspace, each already in canonical form.
    ///
    /// Every non-zero linear functional over the basis rows determines one
    /// hyperplane ([`PackedBasis::hyperplane`]), and the enumeration visits
    /// functionals in increasing order, with no re-elimination.
    #[must_use]
    pub fn hyperplanes(&self) -> PackedHyperplanes<'_> {
        PackedHyperplanes {
            basis: self,
            functional: 1,
            count: 1u128 << self.rows.len(),
        }
    }

    /// The hyperplane `{x : f · c(x) = 0}` of this subspace, where `c(x)` is
    /// `x`'s coordinate vector over the rows (see [`PackedBasis::decompose`])
    /// and bit `k` of the non-zero `functional` `f` weighs row `k`. Already
    /// canonical: the selected row with the smallest pivot is XOR-ed into the
    /// other selected rows and removed. That row is zero above its own pivot
    /// and at every other pivot, so the remaining rows keep their leading
    /// bits and stay reduced.
    ///
    /// # Panics
    ///
    /// Panics if `functional` is zero or weighs a row the basis lacks.
    #[must_use]
    pub fn hyperplane(&self, functional: u64) -> PackedBasis {
        assert!(
            functional != 0 && (self.rows.len() >= 64 || functional >> self.rows.len() == 0),
            "functional {functional:#x} is not a non-zero functional over {} rows",
            self.rows.len()
        );
        let j = 63 - functional.leading_zeros() as usize;
        let mut out = Vec::with_capacity(self.rows.len() - 1);
        for (i, &row) in self.rows.iter().enumerate() {
            if i != j {
                out.push(row ^ (self.rows[j] & ((functional >> i) & 1).wrapping_neg()));
            }
        }
        PackedBasis {
            rows: out,
            width: self.width,
        }
    }

    /// The functional [`PackedBasis::hyperplane`] takes to `hyperplane`: bit
    /// `k` is set exactly when row `k` lies outside it.
    ///
    /// Canonical bases are unique, so a hyperplane's rows are exactly those
    /// [`PackedBasis::hyperplane`] builds: the row `j` it drops is the first
    /// whose pivot it lacks, and every other row `i` appears as itself or,
    /// when the functional weighs it, as `row_i ⊕ row_j`. Reading that off
    /// costs one comparison per row, and the comparisons also check that
    /// `hyperplane` is one.
    ///
    /// # Panics
    ///
    /// Panics if `hyperplane` is not a hyperplane of this subspace, the
    /// parent (another width or dimension, or not contained in it).
    #[must_use]
    pub fn hyperplane_functional(&self, hyperplane: &PackedBasis) -> u64 {
        assert_eq!(hyperplane.width, self.width, "hyperplane width must match");
        assert!(
            !self.rows.is_empty(),
            "a dimension-0 parent has no hyperplanes"
        );
        assert_eq!(
            hyperplane.dim() + 1,
            self.dim(),
            "a hyperplane of the parent has dimension {}",
            self.dim() - 1
        );
        let rows = &self.rows;
        let kept = &hyperplane.rows;
        let pivot = |row: u64| row.leading_zeros();
        let j = (0..kept.len())
            .find(|&i| pivot(kept[i]) != pivot(rows[i]))
            .unwrap_or(kept.len());
        let mut functional = 1u64 << j;
        for (i, &row) in rows.iter().enumerate().filter(|&(i, _)| i != j) {
            let seen = kept[if i < j { i } else { i - 1 }];
            if seen == row ^ rows[j] && i < j {
                functional |= 1 << i;
            } else {
                assert_eq!(seen, row, "hyperplane must lie inside the parent");
            }
        }
        functional
    }

    /// The basis with row `index` removed — a canonical basis of a hyperplane
    /// of this subspace.
    ///
    /// Removing a row of an RREF basis leaves the remaining rows in RREF
    /// (every pivot column is zero in all other rows), so no re-elimination is
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()`.
    #[must_use]
    pub fn without_row(&self, index: usize) -> Self {
        assert!(index < self.rows.len(), "row index {index} out of range");
        let mut rows = self.rows.clone();
        rows.remove(index);
        PackedBasis {
            rows,
            width: self.width,
        }
    }

    /// Replaces the generator at `index` with direction `v`, preserving the
    /// dimension: returns the span of the remaining rows plus `v`, or `None`
    /// when `v` already lies in that remaining span (which would drop the
    /// dimension).
    ///
    /// This is the one-generator-delta move of the null-space search: a
    /// neighbour of `N` is `(hyperplane of N) ⊕ span(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()` or `v` has bits outside the width.
    #[must_use]
    pub fn replaced(&self, index: usize, v: u64) -> Option<Self> {
        let mut out = self.without_row(index);
        if out.insert(v) {
            Some(out)
        } else {
            None
        }
    }

    /// Gray-code enumeration of all `2^dim` vectors, starting with zero.
    #[must_use]
    pub fn vectors(&self) -> PackedVectors<'_> {
        self.coset(0)
    }

    /// Gray-code enumeration of the coset `offset ⊕ span(self)`, starting with
    /// `offset`.
    ///
    /// Consecutive vectors differ by a single basis row, so each step is one
    /// XOR.
    #[must_use]
    pub fn coset(&self, offset: u64) -> PackedVectors<'_> {
        PackedVectors {
            rows: &self.rows,
            index: 0,
            count: 1u128 << self.rows.len(),
            current: offset,
        }
    }
}

/// Iterator over the vectors of a [`PackedBasis`] coset, produced by
/// [`PackedBasis::vectors`] / [`PackedBasis::coset`].
#[derive(Debug, Clone)]
pub struct PackedVectors<'a> {
    rows: &'a [u64],
    index: u128,
    count: u128,
    current: u64,
}

impl Iterator for PackedVectors<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.index >= self.count {
            return None;
        }
        if self.index > 0 {
            // Gray code: between index-1 and index exactly one coordinate flips.
            let prev_gray = (self.index - 1) ^ ((self.index - 1) >> 1);
            let gray = self.index ^ (self.index >> 1);
            let changed = (prev_gray ^ gray).trailing_zeros() as usize;
            self.current ^= self.rows[changed];
        }
        self.index += 1;
        Some(self.current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.count - self.index) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for PackedVectors<'_> {}

/// Iterator over the hyperplanes of a [`PackedBasis`], produced by
/// [`PackedBasis::hyperplanes`].
#[derive(Debug, Clone)]
pub struct PackedHyperplanes<'a> {
    basis: &'a PackedBasis,
    functional: u128,
    count: u128,
}

impl Iterator for PackedHyperplanes<'_> {
    type Item = PackedBasis;

    fn next(&mut self) -> Option<PackedBasis> {
        if self.functional >= self.count {
            return None;
        }
        let f = self.functional as u64;
        self.functional += 1;
        Some(self.basis.hyperplane(f))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.count - self.functional) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for PackedHyperplanes<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The span of `gens`, built by incremental insertion.
    fn basis(width: usize, gens: &[u64]) -> PackedBasis {
        let mut out = PackedBasis::trivial(width);
        for &g in gens {
            out.insert(g);
        }
        out
    }

    /// Every XOR of a subset of `gens`, by brute force.
    fn span_of(gens: &[u64]) -> HashSet<u64> {
        (0..1u64 << gens.len())
            .map(|mask| {
                (0..gens.len())
                    .filter(|&i| mask >> i & 1 == 1)
                    .fold(0, |v, i| v ^ gens[i])
            })
            .collect()
    }

    /// `true` when `b`'s rows pass [`PackedBasis::try_from_rows`]'s
    /// canonical-form validation unchanged.
    fn is_canonical(b: &PackedBasis) -> bool {
        PackedBasis::try_from_rows(b.width(), b.rows().to_vec()).as_ref() == Ok(b)
    }

    #[test]
    fn contains_rejects_out_of_width_bits() {
        let packed = PackedBasis::full(4);
        assert!(packed.contains(0b1111));
        assert!(!packed.contains(0b1_0000));
    }

    #[test]
    fn insert_reports_dimension_growth() {
        let mut packed = PackedBasis::trivial(5);
        assert!(packed.insert(0b00011));
        assert!(packed.insert(0b00110));
        assert!(!packed.insert(0b00101)); // dependent
        assert!(!packed.insert(0));
        assert_eq!(packed.dim(), 2);
    }

    #[test]
    fn without_row_is_a_hyperplane_in_canonical_form() {
        let packed = basis(8, &[0b0000_1111, 0b1111_0000, 0b1010_1010]);
        for i in 0..packed.dim() {
            let hyper = packed.without_row(i);
            assert_eq!(hyper.dim(), packed.dim() - 1);
            // Canonical form survives the removal untouched.
            assert!(is_canonical(&hyper), "row {i}");
            for v in hyper.vectors() {
                assert!(packed.contains(v));
            }
        }
    }

    #[test]
    fn replaced_swaps_one_dimension() {
        let packed = basis(6, &[0b000011, 0b001100, 0b110000]);
        let swapped = packed.replaced(1, 0b000100).expect("independent direction");
        assert_eq!(swapped.dim(), 3);
        assert!(swapped.contains(0b000100));
        // Replacing with a vector of the remaining span would drop the
        // dimension — rejected. (0b001111 = 0b001100 ^ 0b000011.)
        assert!(packed.replaced(0, 0b001111).is_none());
        // The swap equals the from-scratch construction.
        assert_eq!(swapped, basis(6, &[0b000011, 0b110000, 0b000100]));
    }

    #[test]
    fn vectors_enumerate_exactly_the_span() {
        let gens = [0b000111, 0b011100, 0b110000];
        let packed = basis(6, &gens);
        let got: HashSet<u64> = packed.vectors().collect();
        assert_eq!(got, span_of(&gens));
        assert_eq!(packed.vectors().len(), 1 << packed.dim());
        // Gray-code order: consecutive vectors differ by one row.
        let order: Vec<u64> = packed.vectors().collect();
        assert_eq!(order[0], 0);
        for pair in order.windows(2) {
            assert!(packed.rows().contains(&(pair[0] ^ pair[1])));
        }
    }

    #[test]
    fn coset_enumerates_offset_plus_span() {
        let gens = [0b000011, 0b001100];
        let packed = basis(6, &gens);
        let offset = 0b110000u64;
        let got: HashSet<u64> = packed.coset(offset).collect();
        let expected: HashSet<u64> = span_of(&gens).iter().map(|v| v ^ offset).collect();
        assert_eq!(got, expected);
        assert_eq!(got.len(), 1 << packed.dim());
        // The coset never touches the subspace itself (offset ∉ span).
        assert!(got.iter().all(|&v| !packed.contains(v)));
    }

    #[test]
    fn trivial_basis_behaviour() {
        let t = PackedBasis::trivial(8);
        assert_eq!(t.dim(), 0);
        assert!(t.contains(0));
        assert!(!t.contains(1));
        assert_eq!(t.vectors().collect::<Vec<_>>(), vec![0]);
        assert_eq!(t.coset(42).collect::<Vec<_>>(), vec![42]);
    }

    #[test]
    fn full_width_64_round_trips() {
        let packed = PackedBasis::full(64);
        assert_eq!(packed.dim(), 64);
        assert!(packed.contains(u64::MAX));
        assert!(packed.is_coordinate_subspace());
        assert!(is_canonical(&packed));
        assert_eq!(
            PackedBasis::full(8),
            basis(8, &[0xFF, 0x7F, 0x3F, 0x1F, 0xF, 7, 3, 1])
        );
    }

    #[test]
    fn orthogonal_complement_is_orthogonal_and_involutive() {
        for packed in [
            basis(8, &[0b0000_1111, 0b1111_0000, 0b1010_1010]),
            basis(8, &[0b1011_0001, 0b0010_0110, 0b0000_1100, 0b1000_0000]),
            PackedBasis::standard_span(8, [0usize, 3, 7]),
            basis(64, &[u64::MAX, 1 << 63 | 1, 0xF0]),
        ] {
            let c = packed.orthogonal_complement();
            assert_eq!(c.dim(), packed.width() - packed.dim());
            assert!(is_canonical(&c));
            for &x in c.rows() {
                for &row in packed.rows() {
                    assert_eq!((x & row).count_ones() % 2, 0, "{x:#x} · {row:#x}");
                }
            }
            assert_eq!(c.orthogonal_complement(), packed);
        }
        // Complement of the trivial space is everything and vice versa.
        assert_eq!(
            PackedBasis::trivial(8).orthogonal_complement(),
            PackedBasis::full(8)
        );
        assert_eq!(
            PackedBasis::full(8).orthogonal_complement(),
            PackedBasis::trivial(8)
        );
    }

    #[test]
    #[should_panic(expected = "outside GF(2)^4")]
    fn standard_span_rejects_out_of_width_bits() {
        let _ = PackedBasis::standard_span(4, [4usize]);
    }

    #[test]
    fn extended_reduced_matches_insert_in_one_allocation() {
        let bases = [
            PackedBasis::trivial(8),
            PackedBasis::standard_span(8, [0usize, 7]),
            basis(8, &[0b1011_0001, 0b0010_0110, 0b0000_1100]),
        ];
        for basis in &bases {
            for v in 1..(1u64 << 8) {
                let remainder = basis.reduce(v);
                if remainder == 0 {
                    continue;
                }
                let mut reference = basis.clone();
                assert!(reference.insert(v));
                let grown = basis.extended_reduced(remainder);
                assert_eq!(grown, reference, "basis {basis:?}, direction {v:08b}");
                assert_eq!(basis.extended(v), reference);
                // Built at exact capacity: nothing reallocated or left over.
                assert_eq!(grown.rows.capacity(), grown.dim());
            }
        }
    }

    #[test]
    fn hyperplanes_are_the_kernels_of_their_functionals() {
        let packed = basis(8, &[0b0000_0111, 0b0011_1000, 0b1100_0000, 0b1010_1010]);
        for (f, hyper) in (1u64..).zip(packed.hyperplanes()) {
            assert_eq!(packed.hyperplane(f), hyper);
            assert_eq!(packed.hyperplane_functional(&hyper), f);
            assert!(is_canonical(&hyper));
            // A parent vector lies in the hyperplane iff the functional
            // vanishes on its coordinates, and decompose splits it exactly.
            for v in packed.vectors() {
                let (remainder, c) = packed.decompose(v);
                assert_eq!(remainder, 0);
                assert_eq!(hyper.contains(v), (f & c).count_ones() % 2 == 0);
            }
        }
        for v in 0..256u64 {
            let (remainder, c) = packed.decompose(v);
            assert_eq!(remainder, packed.reduce(v));
            let span = (0..packed.dim())
                .filter(|&k| (c >> k) & 1 == 1)
                .fold(0, |acc, k| acc ^ packed.rows()[k]);
            assert_eq!(remainder ^ span, v);
        }
    }

    #[test]
    #[should_panic(expected = "not a non-zero functional")]
    fn hyperplane_rejects_a_functional_beyond_the_rows() {
        let _ = PackedBasis::standard_span(8, [0usize, 1]).hyperplane(0b100);
    }

    #[test]
    #[should_panic(expected = "inside the parent")]
    fn hyperplane_functional_rejects_a_foreign_hyperplane() {
        let parent = PackedBasis::standard_span(8, [0usize, 1]);
        let _ = parent.hyperplane_functional(&PackedBasis::standard_span(8, [5usize]));
    }

    #[test]
    #[should_panic(expected = "inside the parent")]
    fn hyperplane_functional_rejects_a_stranger_with_the_right_pivots() {
        // span{e_4 ⊕ e_0} has the pivot of the parent's row e_4 but is not
        // inside span{e_4, e_1}.
        let parent = PackedBasis::standard_span(8, [4usize, 1]);
        let mut stranger = PackedBasis::trivial(8);
        stranger.insert(0b1_0001);
        let _ = parent.hyperplane_functional(&stranger);
    }

    #[test]
    fn hyperplane_extended_by_an_outside_member_recovers_the_parent() {
        let packed = basis(6, &[0b000111, 0b011100, 0b110000]);
        for hyper in packed.hyperplanes() {
            let v = packed
                .vectors()
                .find(|&v| v != 0 && !hyper.contains(v))
                .expect("a hyperplane misses half the parent");
            assert_eq!(hyper.extended(v), packed);
        }
    }

    #[test]
    fn contains_subspace_orders_and_rejects_width_mismatch() {
        let small = PackedBasis::standard_span(6, [1usize, 2]);
        let big = PackedBasis::standard_span(6, [0usize, 1, 2, 3]);
        assert!(big.contains_subspace(&small));
        assert!(!small.contains_subspace(&big));
        assert!(small.contains_subspace(&small));
        assert!(small.contains_subspace(&PackedBasis::trivial(6)));
    }

    #[test]
    fn canonical_key_identifies_the_subspace() {
        let a = basis(8, &[0b0011_0011, 0b0101_0101]);
        let b = basis(8, &[0b0101_0101, 0b0110_0110]);
        assert_eq!(a, b);
        assert_eq!(a.canonical_key(), b.canonical_key());
        let c = basis(8, &[0b0011_0011]);
        assert_ne!(a.canonical_key(), c.canonical_key());
        // The width participates, so equal rows in different ambient spaces
        // yield different keys.
        let narrow = PackedBasis::standard_span(6, [1usize]);
        let wide = PackedBasis::standard_span(8, [1usize]);
        assert_eq!(narrow.rows(), wide.rows());
        assert_ne!(narrow.canonical_key(), wide.canonical_key());
        assert_eq!(a.canonical_key().as_words()[0], 8);
    }

    #[test]
    fn key_hash_agrees_across_all_three_paths() {
        let bases = [
            PackedBasis::trivial(8),
            PackedBasis::standard_span(8, [1usize, 4]),
            basis(8, &[0b0011_0011, 0b0101_0101]),
            PackedBasis::full(64),
        ];
        let mut buf = [0u64; 65];
        for b in &bases {
            let owned = b.canonical_key();
            assert_eq!(b.key_hash(), owned.hash64());
            assert_eq!(b.key_hash(), hash_key_words(b.key_words(&mut buf)));
            assert_eq!(owned.hash64(), hash_key_words(owned.as_words()));
        }
        // Equal subspaces hash equal; the width participates.
        let a = basis(8, &[0b0011_0011, 0b0101_0101]);
        let b = basis(8, &[0b0101_0101, 0b0110_0110]);
        assert_eq!(a, b);
        assert_eq!(a.key_hash(), b.key_hash());
        assert_ne!(
            PackedBasis::standard_span(6, [1usize]).key_hash(),
            PackedBasis::standard_span(8, [1usize]).key_hash()
        );
    }

    #[test]
    fn key_hash_spreads_nearby_keys() {
        // Shard selection uses the low bits; single-unit subspaces of one
        // ambient width must not all collapse into a few shards.
        let mut low_bits: HashSet<u64> = HashSet::new();
        for bit in 0..16usize {
            low_bits.insert(PackedBasis::standard_span(16, [bit]).key_hash() % 16);
        }
        assert!(low_bits.len() >= 8, "low bits collapsed: {low_bits:?}");
    }

    #[test]
    fn ordering_is_total_and_consistent_with_equality() {
        let mut bases = [
            PackedBasis::standard_span(6, [5usize]),
            PackedBasis::standard_span(6, [0usize, 1]),
            PackedBasis::trivial(6),
            PackedBasis::standard_span(6, [5usize]),
        ];
        bases.sort();
        for w in bases.windows(2) {
            assert!(w[0] <= w[1]);
            assert_eq!(w[0] == w[1], w[0].cmp(&w[1]).is_eq());
        }
    }

    #[test]
    fn try_from_rows_roundtrips_canonical_rows_and_rejects_everything_else() {
        // Round trip: any basis's own rows reconstruct it exactly.
        for basis in [
            PackedBasis::trivial(9),
            PackedBasis::standard_span(9, [0usize, 3, 7]),
            {
                let mut b = PackedBasis::trivial(9);
                b.insert(0b1_0110_0001);
                b.insert(0b0_0101_0011);
                b.insert(0b0_0000_0111);
                b
            },
        ] {
            let rebuilt = PackedBasis::try_from_rows(basis.width(), basis.rows().to_vec())
                .expect("canonical rows");
            assert_eq!(rebuilt, basis);
        }
        // Width 64 is the edge the mask arithmetic must survive.
        let wide = PackedBasis::standard_span(64, [63usize, 0]);
        assert_eq!(
            PackedBasis::try_from_rows(64, wide.rows().to_vec()).unwrap(),
            wide
        );

        assert!(matches!(
            PackedBasis::try_from_rows(0, vec![]),
            Err(Gf2Error::UnsupportedWidth(0))
        ));
        assert!(matches!(
            PackedBasis::try_from_rows(65, vec![]),
            Err(Gf2Error::UnsupportedWidth(65))
        ));
        // Zero row, out-of-width bits, unsorted pivots, duplicate pivots,
        // and a dirty pivot column are each rejected.
        for rows in [
            vec![0u64],
            vec![0b1_0000_0000u64],
            vec![0b0001u64, 0b0110],
            vec![0b0110u64, 0b0101],
            vec![0b1100u64, 0b0110],
        ] {
            assert!(
                matches!(
                    PackedBasis::try_from_rows(8, rows.clone()),
                    Err(Gf2Error::Impossible(_))
                ),
                "rows {rows:?} should be rejected"
            );
        }
    }

    // The comparisons against the `BitVec` reference basis, kept beside it
    // under `tests/`.
    include!("../tests/reference/packed_tests.rs");
}
