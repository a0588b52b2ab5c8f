//! Dense matrices over GF(2).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{BitVec, Gf2Error, PackedBasis, Result};

/// A dense matrix over GF(2) with at most 64 columns and 64 rows.
///
/// Following the convention of the paper, a hash function hashing `n` address
/// bits into `m` set-index bits is an `n × m` matrix `H`; row `r` describes to
/// which set-index bits address bit `a_r` contributes, and column `c` lists
/// the address bits feeding the XOR gate that produces set-index bit `c`.
/// The set index of a block address `a` (a row vector) is `a · H`
/// ([`BitMatrix::mul_vec`]).
///
/// # Example
///
/// ```
/// use gf2::{BitMatrix, BitVec};
///
/// let id = BitMatrix::identity(4);
/// let v = BitVec::from_u64(0b1010, 4);
/// assert_eq!(id.mul_vec(v), v);
/// assert_eq!(id.rank(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitMatrix {
    /// `rows[r]` holds row `r` as a bitmask over the columns.
    rows: Vec<u64>,
    n_rows: usize,
    n_cols: usize,
}

impl BitMatrix {
    /// Maximum supported dimension (rows or columns).
    pub const MAX_DIM: usize = 64;

    fn check_dims(n_rows: usize, n_cols: usize) {
        assert!(
            (1..=Self::MAX_DIM).contains(&n_rows),
            "unsupported row count {n_rows}"
        );
        assert!(
            (1..=Self::MAX_DIM).contains(&n_cols),
            "unsupported column count {n_cols}"
        );
    }

    /// Creates the zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is 0 or larger than [`BitMatrix::MAX_DIM`].
    #[must_use]
    pub fn zero(n_rows: usize, n_cols: usize) -> Self {
        Self::check_dims(n_rows, n_cols);
        BitMatrix {
            rows: vec![0; n_rows],
            n_rows,
            n_cols,
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or larger than [`BitMatrix::MAX_DIM`].
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m.rows[i] = 1 << i;
        }
        m
    }

    /// Builds a matrix from its rows. All rows must share the same width,
    /// which becomes the column count.
    ///
    /// # Errors
    ///
    /// Returns [`Gf2Error::DimensionMismatch`] when rows have differing widths
    /// and [`Gf2Error::UnsupportedWidth`] when `rows` is empty.
    pub fn from_rows(rows: &[BitVec]) -> Result<Self> {
        let first = rows.first().ok_or(Gf2Error::UnsupportedWidth(0))?;
        let n_cols = first.width();
        for r in rows {
            if r.width() != n_cols {
                return Err(Gf2Error::DimensionMismatch {
                    expected: n_cols,
                    actual: r.width(),
                });
            }
        }
        Self::check_dims(rows.len(), n_cols);
        Ok(BitMatrix {
            rows: rows.iter().map(|r| r.as_u64()).collect(),
            n_rows: rows.len(),
            n_cols,
        })
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is unsupported.
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> bool>(n_rows: usize, n_cols: usize, mut f: F) -> Self {
        let mut m = Self::zero(n_rows, n_cols);
        for r in 0..n_rows {
            for c in 0..n_cols {
                if f(r, c) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// Builds the `n × m` bit-selecting matrix whose column `c` selects
    /// address bit `selected[c]`.
    ///
    /// The conventional modulo-`2^m` index function is
    /// `bit_selection(n, &[0, 1, ..., m-1])` (see [`BitMatrix::modulo_index`]).
    ///
    /// # Panics
    ///
    /// Panics if any selected bit is `>= n`, if `selected` is empty, or if a
    /// dimension is unsupported.
    #[must_use]
    pub fn bit_selection(n: usize, selected: &[usize]) -> Self {
        assert!(!selected.is_empty(), "at least one bit must be selected");
        let mut m = Self::zero(n, selected.len());
        for (c, &r) in selected.iter().enumerate() {
            assert!(r < n, "selected bit {r} out of range for {n} address bits");
            m.set(r, c, true);
        }
        m
    }

    /// Builds the conventional modulo-`2^m` index matrix selecting the `m`
    /// low-order bits of an `n`-bit address.
    ///
    /// # Panics
    ///
    /// Panics if `m > n` or a dimension is unsupported.
    #[must_use]
    pub fn modulo_index(n: usize, m: usize) -> Self {
        assert!(m <= n, "cannot select {m} bits from {n}");
        let selected: Vec<usize> = (0..m).collect();
        Self::bit_selection(n, &selected)
    }

    /// Number of rows (hashed address bits for a hash-function matrix).
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (set-index bits for a hash-function matrix).
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Returns entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of range.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.n_rows && c < self.n_cols, "index out of range");
        (self.rows[r] >> c) & 1 == 1
    }

    /// Sets entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of range.
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        assert!(r < self.n_rows && c < self.n_cols, "index out of range");
        if value {
            self.rows[r] |= 1 << c;
        } else {
            self.rows[r] &= !(1 << c);
        }
    }

    /// Returns row `r` as a [`BitVec`] of width [`BitMatrix::n_cols`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> BitVec {
        assert!(r < self.n_rows, "row {r} out of range");
        BitVec::from_u64(self.rows[r], self.n_cols)
    }

    /// Overwrites row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or the width differs from the column count.
    pub fn set_row(&mut self, r: usize, row: BitVec) {
        assert!(r < self.n_rows, "row {r} out of range");
        assert_eq!(row.width(), self.n_cols, "row width mismatch");
        self.rows[r] = row.as_u64();
    }

    /// Returns column `c` as a [`BitVec`] of width [`BitMatrix::n_rows`].
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[must_use]
    pub fn column(&self, c: usize) -> BitVec {
        assert!(c < self.n_cols, "column {c} out of range");
        let mut v = BitVec::zero(self.n_rows);
        for r in 0..self.n_rows {
            if self.get(r, c) {
                v.set(r, true);
            }
        }
        v
    }

    /// Iterates over the rows as [`BitVec`]s.
    pub fn iter_rows(&self) -> impl Iterator<Item = BitVec> + '_ {
        (0..self.n_rows).map(move |r| self.row(r))
    }

    /// Number of ones in column `c`: the fan-in of the XOR gate producing
    /// set-index bit `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[must_use]
    pub fn column_weight(&self, c: usize) -> usize {
        self.column(c).weight()
    }

    /// Largest column weight, i.e. the widest XOR gate required to implement
    /// this matrix as an index function.
    #[must_use]
    pub fn max_column_weight(&self) -> usize {
        (0..self.n_cols)
            .map(|c| self.column_weight(c))
            .max()
            .unwrap_or(0)
    }

    /// Total number of ones in the matrix (total XOR-gate inputs).
    #[must_use]
    pub fn total_weight(&self) -> usize {
        self.rows.iter().map(|r| r.count_ones() as usize).sum()
    }

    /// `true` when the matrix is all zeroes.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.rows.iter().all(|&r| r == 0)
    }

    /// `true` when the matrix is square and equal to the identity.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.n_rows == self.n_cols && (0..self.n_rows).all(|r| self.rows[r] == 1 << r)
    }

    /// Row-vector × matrix product `a · H` over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if `a.width() != self.n_rows()`.
    #[must_use]
    pub fn mul_vec(&self, a: BitVec) -> BitVec {
        assert_eq!(
            a.width(),
            self.n_rows,
            "vector width must equal the matrix row count"
        );
        let mut acc = 0u64;
        let mut bits = a.as_u64();
        while bits != 0 {
            let r = bits.trailing_zeros() as usize;
            acc ^= self.rows[r];
            bits &= bits - 1;
        }
        BitVec::from_u64(acc, self.n_cols)
    }

    /// Matrix product `self · rhs` over GF(2).
    ///
    /// # Errors
    ///
    /// Returns [`Gf2Error::DimensionMismatch`] when `self.n_cols() != rhs.n_rows()`.
    pub fn mul(&self, rhs: &BitMatrix) -> Result<BitMatrix> {
        if self.n_cols != rhs.n_rows {
            return Err(Gf2Error::DimensionMismatch {
                expected: self.n_cols,
                actual: rhs.n_rows,
            });
        }
        let mut out = BitMatrix::zero(self.n_rows, rhs.n_cols);
        for r in 0..self.n_rows {
            out.rows[r] = rhs.mul_vec(self.row(r)).as_u64();
        }
        Ok(out)
    }

    /// Returns the transpose.
    #[must_use]
    pub fn transpose(&self) -> BitMatrix {
        let mut t = BitMatrix::zero(self.n_cols, self.n_rows);
        for r in 0..self.n_rows {
            for c in 0..self.n_cols {
                if self.get(r, c) {
                    t.set(c, r, true);
                }
            }
        }
        t
    }

    /// Reduced row-echelon form together with the pivot column of each
    /// non-zero row (in order).
    #[must_use]
    pub fn rref(&self) -> (BitMatrix, Vec<usize>) {
        let mut rows = self.rows.clone();
        let mut pivots = Vec::new();
        let mut row = 0usize;
        for col in (0..self.n_cols).rev() {
            // Pivot on the most significant columns first so that the
            // canonical basis vectors come out ordered by leading bit.
            if row >= rows.len() {
                break;
            }
            let mask = 1u64 << col;
            if let Some(p) = (row..rows.len()).find(|&r| rows[r] & mask != 0) {
                rows.swap(row, p);
                let pivot_row = rows[row];
                for (r, other) in rows.iter_mut().enumerate() {
                    if r != row && *other & mask != 0 {
                        *other ^= pivot_row;
                    }
                }
                pivots.push(col);
                row += 1;
            }
        }
        // Move zero rows to the bottom (they already are, by construction).
        let m = BitMatrix {
            rows,
            n_rows: self.n_rows,
            n_cols: self.n_cols,
        };
        (m, pivots)
    }

    /// Rank of the matrix over GF(2).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rref().1.len()
    }

    /// `true` when the matrix has full column rank, i.e. it maps `n`-bit
    /// addresses *onto* all `2^m` set indices. Hash-function matrices must
    /// have this property to use the whole cache.
    #[must_use]
    pub fn has_full_column_rank(&self) -> bool {
        self.rank() == self.n_cols
    }

    /// Inverse of a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`Gf2Error::DimensionMismatch`] for non-square matrices and
    /// [`Gf2Error::Singular`] when no inverse exists.
    pub fn inverse(&self) -> Result<BitMatrix> {
        if self.n_rows != self.n_cols {
            return Err(Gf2Error::DimensionMismatch {
                expected: self.n_rows,
                actual: self.n_cols,
            });
        }
        let n = self.n_rows;
        // Gauss-Jordan on [self | I].
        let mut left = self.rows.clone();
        let mut right: Vec<u64> = (0..n).map(|i| 1u64 << i).collect();
        // A square matrix is invertible iff every column yields a pivot, so
        // the pivot row always equals the current column.
        for col in 0..n {
            let mask = 1u64 << col;
            let Some(p) = (col..n).find(|&r| left[r] & mask != 0) else {
                return Err(Gf2Error::Singular);
            };
            left.swap(col, p);
            right.swap(col, p);
            let (lp, rp) = (left[col], right[col]);
            for r in 0..n {
                if r != col && left[r] & mask != 0 {
                    left[r] ^= lp;
                    right[r] ^= rp;
                }
            }
        }
        Ok(BitMatrix {
            rows: right,
            n_rows: n,
            n_cols: n,
        })
    }

    /// Right kernel: the subspace of vectors `v` (width = `n_cols`) with
    /// `row_r · v = 0` for every row — the orthogonal complement of the row
    /// space.
    #[must_use]
    pub fn kernel(&self) -> PackedBasis {
        let mut row_space = PackedBasis::trivial(self.n_cols);
        for &row in &self.rows {
            row_space.insert(row);
        }
        row_space.orthogonal_complement()
    }

    /// Left null space: the subspace of row vectors `x` (width = `n_rows`)
    /// with `x · H = 0`. Two block addresses `x` and `y` map to the same set
    /// exactly when `x ⊕ y` lies in this space (paper Eq. 2).
    #[must_use]
    pub fn null_space(&self) -> PackedBasis {
        self.transpose().kernel()
    }

    /// Constructs an `n × m` full-column-rank matrix whose left null space is
    /// exactly `null_space`, where `m = n - null_space.dim()`.
    ///
    /// Column `c` is row `c` of the canonical basis of the null space's
    /// orthogonal complement, so equal subspaces give equal matrices.
    ///
    /// # Errors
    ///
    /// Returns [`Gf2Error::Impossible`] if the null space has dimension `n`
    /// (no index bits would remain).
    pub fn with_null_space(null_space: &PackedBasis) -> Result<BitMatrix> {
        let n = null_space.width();
        let m = n - null_space.dim();
        if m == 0 {
            return Err(Gf2Error::Impossible(
                "null space covers the whole space; no set-index bits remain".to_string(),
            ));
        }
        let complement = null_space.orthogonal_complement();
        debug_assert_eq!(complement.dim(), m);
        let mut h = BitMatrix::zero(n, m);
        for (c, &column) in complement.rows().iter().enumerate() {
            for (r, row) in h.rows.iter_mut().enumerate() {
                *row |= (column >> r & 1) << c;
            }
        }
        debug_assert!(h.has_full_column_rank());
        Ok(h)
    }

    /// Constructs the *permutation-based* matrix with the given left null
    /// space: the unique matrix with that null space whose `m` low-order rows
    /// form the identity (paper Section 4).
    ///
    /// # Errors
    ///
    /// Returns [`Gf2Error::Impossible`] when the null space intersects
    /// `span(e_0, …, e_{m-1})` non-trivially (Eq. 5 violated), in which case no
    /// permutation-based representative exists.
    pub fn permutation_based_with_null_space(null_space: &PackedBasis) -> Result<BitMatrix> {
        let m = null_space.width() - null_space.dim();
        let h = Self::with_null_space(null_space)?;
        // The m low-order rows form an m×m submatrix; Eq. 5 holds exactly when
        // it is invertible. Multiplying on the right by its inverse keeps the
        // null space and turns the low rows into the identity.
        let mut low = BitMatrix::zero(m, m);
        for r in 0..m {
            low.set_row(r, h.row(r));
        }
        let low_inv = low.inverse().map_err(|_| {
            Gf2Error::Impossible(
                "null space intersects span(e_0..e_{m-1}); no permutation-based form".to_string(),
            )
        })?;
        let p = h.mul(&low_inv)?;
        debug_assert!(p.null_space() == *null_space);
        for r in 0..m {
            debug_assert_eq!(p.row(r), BitVec::unit(r, m));
        }
        Ok(p)
    }

    /// `true` when the `m` low-order rows form the identity, i.e. the matrix
    /// is in permutation-based form (paper Section 4).
    #[must_use]
    pub fn is_permutation_based(&self) -> bool {
        if self.n_rows < self.n_cols {
            return false;
        }
        (0..self.n_cols).all(|r| self.rows[r] == 1 << r)
    }
}

impl fmt::Display for BitMatrix {
    /// Renders the matrix with one row per line, column 0 rightmost.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.n_rows {
            for c in (0..self.n_cols).rev() {
                write!(f, "{}", u8::from(self.get(r, c)))?;
            }
            if r + 1 != self.n_rows {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_properties() {
        let id = BitMatrix::identity(8);
        assert!(id.is_identity());
        assert!(!id.is_zero());
        assert_eq!(id.rank(), 8);
        assert!(id.has_full_column_rank());
        let v = BitVec::from_u64(0xA5, 8);
        assert_eq!(id.mul_vec(v), v);
        assert_eq!(id.inverse().unwrap(), id);
        assert_eq!(id.transpose(), id);
    }

    #[test]
    fn bit_selection_selects_bits() {
        let h = BitMatrix::bit_selection(8, &[1, 3, 5]);
        let v = BitVec::from_u64(0b0010_1010, 8);
        assert_eq!(h.mul_vec(v).as_u64(), 0b111);
        let w = BitVec::from_u64(0b0001_0101, 8);
        assert_eq!(h.mul_vec(w).as_u64(), 0b000);
        assert_eq!(h.max_column_weight(), 1);
    }

    #[test]
    fn modulo_index_is_low_bits() {
        let h = BitMatrix::modulo_index(16, 4);
        let v = BitVec::from_u64(0xABCD, 16);
        assert_eq!(h.mul_vec(v).as_u64(), 0xD);
        assert!(h.is_permutation_based());
    }

    #[test]
    fn mul_vec_matches_manual_xor() {
        // H computes s0 = a0^a2, s1 = a1^a3.
        let mut h = BitMatrix::zero(4, 2);
        h.set(0, 0, true);
        h.set(2, 0, true);
        h.set(1, 1, true);
        h.set(3, 1, true);
        for a in 0..16u64 {
            let v = BitVec::from_u64(a, 4);
            let s = h.mul_vec(v);
            let expect = ((a & 1) ^ ((a >> 2) & 1)) | ((((a >> 1) & 1) ^ ((a >> 3) & 1)) << 1);
            assert_eq!(s.as_u64(), expect, "address {a:04b}");
        }
        assert_eq!(h.total_weight(), 4);
        assert_eq!(h.column_weight(0), 2);
    }

    #[test]
    fn matrix_multiplication_associates_with_vector_product() {
        let a = BitMatrix::from_fn(4, 4, |r, c| (r * 3 + c) % 2 == 0);
        let b = BitMatrix::from_fn(4, 3, |r, c| (r + 2 * c) % 3 == 0);
        let ab = a.mul(&b).unwrap();
        for bits in 0..16u64 {
            let v = BitVec::from_u64(bits, 4);
            assert_eq!(ab.mul_vec(v), b.mul_vec(a.mul_vec(v)));
        }
    }

    #[test]
    fn mul_dimension_mismatch_errors() {
        let a = BitMatrix::identity(3);
        let b = BitMatrix::identity(4);
        assert!(matches!(
            a.mul(&b),
            Err(Gf2Error::DimensionMismatch {
                expected: 3,
                actual: 4
            })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = BitMatrix::from_fn(5, 3, |r, c| (r ^ c) % 2 == 1);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().n_rows(), 3);
        assert_eq!(a.transpose().n_cols(), 5);
    }

    #[test]
    fn rank_of_dependent_rows() {
        let rows = [
            BitVec::from_u64(0b1010, 4),
            BitVec::from_u64(0b0101, 4),
            BitVec::from_u64(0b1111, 4), // sum of the first two
        ];
        let m = BitMatrix::from_rows(&rows).unwrap();
        assert_eq!(m.rank(), 2);
        assert!(!m.has_full_column_rank());
    }

    #[test]
    fn from_rows_rejects_mixed_widths() {
        let rows = [BitVec::zero(4), BitVec::zero(5)];
        assert!(matches!(
            BitMatrix::from_rows(&rows),
            Err(Gf2Error::DimensionMismatch {
                expected: 4,
                actual: 5
            })
        ));
        assert!(matches!(
            BitMatrix::from_rows(&[]),
            Err(Gf2Error::UnsupportedWidth(0))
        ));
    }

    #[test]
    fn inverse_roundtrip() {
        // An invertible 4x4 matrix.
        let rows = [
            BitVec::from_u64(0b0011, 4),
            BitVec::from_u64(0b0110, 4),
            BitVec::from_u64(0b1100, 4),
            BitVec::from_u64(0b1001, 4),
        ];
        let m = BitMatrix::from_rows(&rows).unwrap();
        // This particular matrix has rank 3, so it must be reported singular.
        assert_eq!(m.rank(), 3);
        assert_eq!(m.inverse().unwrap_err(), Gf2Error::Singular);

        let rows = [
            BitVec::from_u64(0b0011, 4),
            BitVec::from_u64(0b0110, 4),
            BitVec::from_u64(0b1100, 4),
            BitVec::from_u64(0b1000, 4),
        ];
        let m = BitMatrix::from_rows(&rows).unwrap();
        let inv = m.inverse().unwrap();
        assert!(m.mul(&inv).unwrap().is_identity());
        assert!(inv.mul(&m).unwrap().is_identity());
    }

    #[test]
    fn inverse_of_non_square_is_error() {
        let m = BitMatrix::zero(3, 4);
        assert!(matches!(
            m.inverse(),
            Err(Gf2Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn kernel_contains_exactly_the_annihilated_vectors() {
        // Matrix with a 1-dimensional kernel.
        let rows = [
            BitVec::from_u64(0b0111, 4),
            BitVec::from_u64(0b1010, 4),
            BitVec::from_u64(0b0001, 4),
        ];
        let m = BitMatrix::from_rows(&rows).unwrap();
        let k = m.kernel();
        assert_eq!(k.dim(), 4 - m.rank());
        for bits in 0..16u64 {
            let v = BitVec::from_u64(bits, 4);
            let annihilated = (0..3).all(|r| !m.row(r).dot(v));
            assert_eq!(k.contains(bits), annihilated, "vector {bits:04b}");
        }
    }

    #[test]
    fn null_space_characterizes_conflicts() {
        let h = BitMatrix::modulo_index(8, 3);
        let ns = h.null_space();
        assert_eq!(ns.dim(), 5);
        for x in 0..256u64 {
            for y in (x + 1)..256 {
                let vx = BitVec::from_u64(x, 8);
                let vy = BitVec::from_u64(y, 8);
                let same_set = h.mul_vec(vx) == h.mul_vec(vy);
                assert_eq!(same_set, ns.contains(x ^ y));
            }
        }
    }

    #[test]
    fn with_null_space_roundtrip() {
        let h = BitMatrix::from_fn(8, 3, |r, c| (r + c) % 3 == 0 || r == c);
        assert!(h.has_full_column_rank());
        let ns = h.null_space();
        let h2 = BitMatrix::with_null_space(&ns).unwrap();
        assert_eq!(h2.n_rows(), 8);
        assert_eq!(h2.n_cols(), 3);
        assert_eq!(h2.null_space(), ns);
    }

    #[test]
    fn with_null_space_rejects_full_space() {
        let full = BitMatrix::zero(4, 4).kernel();
        assert_eq!(full.dim(), 4);
        assert!(matches!(
            BitMatrix::with_null_space(&full),
            Err(Gf2Error::Impossible(_))
        ));
    }

    #[test]
    fn permutation_based_form_has_identity_low_rows() {
        // The modulo index is permutation-based; a rotated bit-selection is not.
        let h = BitMatrix::modulo_index(16, 4);
        let p = BitMatrix::permutation_based_with_null_space(&h.null_space()).unwrap();
        assert!(p.is_permutation_based());
        assert_eq!(p.null_space(), h.null_space());

        // Null space of the function selecting bits 4..8 contains e0..e3, so a
        // permutation-based representative cannot exist.
        let h = BitMatrix::bit_selection(16, &[4, 5, 6, 7]);
        assert!(matches!(
            BitMatrix::permutation_based_with_null_space(&h.null_space()),
            Err(Gf2Error::Impossible(_))
        ));
    }

    #[test]
    fn permutation_based_xor_function_roundtrip() {
        // A genuine XOR function in permutation-based form: s_c = a_c ^ a_{c+4}.
        let h = BitMatrix::from_fn(8, 4, |r, c| r == c || r == c + 4);
        assert!(h.is_permutation_based());
        let p = BitMatrix::permutation_based_with_null_space(&h.null_space()).unwrap();
        // The permutation-based representative of a null space is unique, so we
        // must get the very same matrix back.
        assert_eq!(p, h);
    }

    #[test]
    fn display_renders_rows() {
        let m = BitMatrix::identity(2);
        assert_eq!(m.to_string(), "01\n10");
    }

    #[test]
    fn rref_pivots_are_decreasing_columns() {
        let m = BitMatrix::from_fn(6, 6, |r, c| (r * 5 + c * 3) % 7 < 3);
        let (rref, pivots) = m.rref();
        assert_eq!(pivots.len(), m.rank());
        for w in pivots.windows(2) {
            assert!(w[0] > w[1], "pivot columns must strictly decrease");
        }
        // Every pivot column has exactly one 1 in the reduced form.
        for (row_idx, &col) in pivots.iter().enumerate() {
            let ones = (0..6).filter(|&r| rref.get(r, col)).count();
            assert_eq!(ones, 1);
            assert!(rref.get(row_idx, col));
        }
    }
}
