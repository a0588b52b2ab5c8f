//! The reference subspace: a canonical basis of [`BitVec`]s, re-eliminated
//! from scratch on every construction, and the matrix constructions built
//! on it.
//!
//! This is the representation the library's null-space code once used,
//! kept verbatim as an oracle for the packed one. [`gf2::PackedBasis`] must
//! agree with it value for value (membership, reduction, extension,
//! hyperplanes in enumeration order, Eq. 5 admission), and
//! [`BitMatrix::kernel`], [`BitMatrix::with_null_space`] and
//! [`BitMatrix::permutation_based_with_null_space`] must return exactly
//! what [`kernel`], [`with_null_space`] and
//! [`permutation_based_with_null_space`] return here. Test crates, and
//! `gf2`'s own unit tests, include it with `#[path]`; nothing outside tests
//! uses it.

#![allow(dead_code)]

use std::fmt;

use gf2::{BitMatrix, BitVec, Gf2Error, PackedBasis};

/// A linear subspace of GF(2)^n, stored as a canonical (reduced row-echelon)
/// basis of [`BitVec`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Subspace {
    /// Canonical basis: RREF rows sorted by strictly decreasing leading bit.
    basis: Vec<BitVec>,
    ambient_width: usize,
}

impl Subspace {
    /// The trivial subspace `{0}` of GF(2)^width.
    pub fn trivial(width: usize) -> Self {
        // Constructing a BitVec validates the width.
        let _ = BitVec::zero(width);
        Subspace {
            basis: Vec::new(),
            ambient_width: width,
        }
    }

    /// The full space GF(2)^width.
    pub fn full(width: usize) -> Self {
        let gens: Vec<BitVec> = (0..width).map(|i| BitVec::unit(i, width)).collect();
        Self::from_generators(width, &gens)
    }

    /// The span of the standard basis vectors `e_k` for the given bit indices.
    pub fn standard_span(width: usize, bits: impl IntoIterator<Item = usize>) -> Self {
        let gens: Vec<BitVec> = bits.into_iter().map(|i| BitVec::unit(i, width)).collect();
        Self::from_generators(width, &gens)
    }

    /// Builds the subspace spanned by the given generators (which may be
    /// dependent, repeated, or zero).
    pub fn from_generators(width: usize, generators: &[BitVec]) -> Self {
        let _ = BitVec::zero(width);
        let mut basis: Vec<BitVec> = Vec::new();
        for &g in generators {
            assert_eq!(
                g.width(),
                width,
                "generator width {} does not match ambient width {width}",
                g.width()
            );
        }
        // Incremental Gaussian elimination keeping rows sorted by leading bit.
        for &g in generators {
            Self::insert_reduced(&mut basis, g);
        }
        Self::recanonicalize(&mut basis);
        Subspace {
            basis,
            ambient_width: width,
        }
    }

    /// Re-eliminates a packed basis's rows from scratch.
    pub fn from_packed(packed: &PackedBasis) -> Self {
        let gens: Vec<BitVec> = packed
            .rows()
            .iter()
            .map(|&r| BitVec::from_u64(r, packed.width()))
            .collect();
        Self::from_generators(packed.width(), &gens)
    }

    /// The canonical basis as a [`PackedBasis`], validated as canonical
    /// rather than re-eliminated.
    pub fn packed(&self) -> PackedBasis {
        let rows = self.basis.iter().map(|b| b.as_u64()).collect();
        PackedBasis::try_from_rows(self.ambient_width, rows).expect("a canonical basis")
    }

    /// Reduces `v` against `basis` and inserts the remainder if non-zero,
    /// keeping `basis` sorted by strictly decreasing leading bit.
    fn insert_reduced(basis: &mut Vec<BitVec>, mut v: BitVec) {
        loop {
            let Some(lv) = v.leading_bit() else { return };
            match basis.iter().position(|b| b.leading_bit() == Some(lv)) {
                // XOR-ing a vector with the same leading bit strictly lowers
                // v's leading bit, so this loop terminates.
                Some(i) => v ^= basis[i],
                None => {
                    let pos = basis
                        .iter()
                        .position(|b| b.leading_bit() < Some(lv))
                        .unwrap_or(basis.len());
                    basis.insert(pos, v);
                    return;
                }
            }
        }
    }

    /// Back-substitutes so each leading bit appears in exactly one basis vector.
    fn recanonicalize(basis: &mut [BitVec]) {
        for i in (0..basis.len()).rev() {
            let lead = basis[i].leading_bit().expect("basis vectors are non-zero");
            for j in 0..i {
                if basis[j].get(lead) {
                    basis[j] ^= basis[i];
                }
            }
        }
    }

    /// Dimension of the subspace.
    pub fn dim(&self) -> usize {
        self.basis.len()
    }

    /// Codimension (`ambient_width - dim`).
    pub fn codim(&self) -> usize {
        self.ambient_width - self.basis.len()
    }

    /// Width of the ambient space GF(2)^n.
    pub fn ambient_width(&self) -> usize {
        self.ambient_width
    }

    /// `true` for the trivial subspace `{0}`.
    pub fn is_trivial(&self) -> bool {
        self.basis.is_empty()
    }

    /// The canonical basis, sorted by strictly decreasing leading bit.
    pub fn basis(&self) -> &[BitVec] {
        &self.basis
    }

    /// Membership test.
    pub fn contains(&self, v: BitVec) -> bool {
        assert_eq!(v.width(), self.ambient_width, "ambient width mismatch");
        self.reduce(v).is_zero()
    }

    /// Reduces `v` modulo the subspace: the returned vector is zero exactly
    /// when `v` is a member.
    pub fn reduce(&self, mut v: BitVec) -> BitVec {
        // The basis is sorted by strictly decreasing leading bit and each
        // leading bit occurs in exactly one basis vector, so a single
        // high-to-low pass fully reduces v.
        for b in &self.basis {
            let lead = b.leading_bit().expect("basis vectors are non-zero");
            if v.get(lead) {
                v ^= *b;
            }
        }
        v
    }

    /// `true` when every vector of `other` lies in `self`.
    pub fn contains_subspace(&self, other: &Subspace) -> bool {
        assert_eq!(self.ambient_width, other.ambient_width);
        other.basis.iter().all(|&b| self.contains(b))
    }

    /// Sum (join) of two subspaces: the span of both bases.
    pub fn sum(&self, other: &Subspace) -> Subspace {
        assert_eq!(self.ambient_width, other.ambient_width);
        let mut gens = self.basis.clone();
        gens.extend_from_slice(&other.basis);
        Subspace::from_generators(self.ambient_width, &gens)
    }

    /// Span of this subspace and one extra vector.
    pub fn extended(&self, v: BitVec) -> Subspace {
        assert_eq!(v.width(), self.ambient_width, "ambient width mismatch");
        let mut gens = self.basis.clone();
        gens.push(v);
        Subspace::from_generators(self.ambient_width, &gens)
    }

    /// Intersection (meet) of two subspaces, through the identity
    /// `U ∩ V = (U^⊥ + V^⊥)^⊥` (exact over GF(2), since
    /// `dim S^⊥ = n − dim S` always holds).
    pub fn intersection(&self, other: &Subspace) -> Subspace {
        assert_eq!(self.ambient_width, other.ambient_width);
        self.orthogonal_complement()
            .sum(&other.orthogonal_complement())
            .orthogonal_complement()
    }

    /// Orthogonal complement with respect to the standard GF(2) inner product.
    pub fn orthogonal_complement(&self) -> Subspace {
        if self.basis.is_empty() {
            return Subspace::full(self.ambient_width);
        }
        kernel(&BitMatrix::from_rows(&self.basis).expect("non-empty canonical basis"))
    }

    /// Iterates over all `2^dim` vectors of the subspace in Gray-code order,
    /// starting with zero.
    pub fn vectors(&self) -> impl ExactSizeIterator<Item = BitVec> + '_ {
        let mut current = BitVec::zero(self.ambient_width);
        (0..1usize << self.basis.len()).map(move |index| {
            if index > 0 {
                // Gray code: between index-1 and index exactly one
                // coordinate flips.
                let prev_gray = (index - 1) ^ ((index - 1) >> 1);
                let gray = index ^ (index >> 1);
                let changed = (prev_gray ^ gray).trailing_zeros() as usize;
                current ^= self.basis[changed];
            }
            current
        })
    }

    /// Enumerates all hyperplanes (subspaces of dimension `dim − 1`), one
    /// per non-zero linear functional on the subspace, in increasing
    /// functional order.
    pub fn hyperplanes(&self) -> Vec<Subspace> {
        let d = self.dim();
        if d == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity((1usize << d) - 1);
        for functional in 1u64..(1u64 << d) {
            // Pick the lowest basis index with a non-zero coefficient.
            let j = functional.trailing_zeros() as usize;
            let mut gens = Vec::with_capacity(d - 1);
            for i in 0..d {
                if i == j {
                    continue;
                }
                if (functional >> i) & 1 == 1 {
                    gens.push(self.basis[i] ^ self.basis[j]);
                } else {
                    gens.push(self.basis[i]);
                }
            }
            out.push(Subspace::from_generators(self.ambient_width, &gens));
        }
        out
    }

    /// Dimension of the intersection with `other` without materializing it.
    pub fn intersection_dim(&self, other: &Subspace) -> usize {
        // dim(U ∩ V) = dim U + dim V − dim(U + V)
        self.dim() + other.dim() - self.sum(other).dim()
    }

    /// `true` when this subspace intersects `span(e_0, …, e_{m-1})` only in
    /// the zero vector (Eq. 5), decided by whether projecting the basis onto
    /// the high bits `m..n` keeps it linearly independent.
    pub fn admits_permutation_based_function(&self, m: usize) -> bool {
        if self.basis.is_empty() {
            return true;
        }
        let high_mask = if m >= 64 { 0 } else { u64::MAX << m };
        let mut projected = PackedBasis::trivial(self.ambient_width);
        self.basis
            .iter()
            .all(|b| projected.insert(b.as_u64() & high_mask))
    }
}

impl fmt::Display for Subspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "span{{")?;
        for (i, b) in self.basis.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, "}} ⊆ GF(2)^{}", self.ambient_width)
    }
}

/// Right kernel of `matrix`: the subspace of vectors `v` (width =
/// `n_cols`) with `row_r · v = 0` for every row, read off its RREF.
pub fn kernel(matrix: &BitMatrix) -> Subspace {
    let n_cols = matrix.n_cols();
    let (rref, pivots) = matrix.rref();
    let pivot_set: u64 = pivots.iter().fold(0, |acc, &c| acc | (1 << c));
    let mut basis = Vec::new();
    for free_col in 0..n_cols {
        if pivot_set & (1 << free_col) != 0 {
            continue;
        }
        // Basis vector: 1 in the free column, and for every pivot row whose
        // row contains the free column, a 1 in that row's pivot column.
        let mut v = BitVec::zero(n_cols);
        v.set(free_col, true);
        for (row_idx, &pivot_col) in pivots.iter().enumerate() {
            if rref.get(row_idx, free_col) {
                v.set(pivot_col, true);
            }
        }
        basis.push(v);
    }
    Subspace::from_generators(n_cols, &basis)
}

/// Left null space of `matrix`: the row vectors `x` with `x · H = 0`.
pub fn null_space(matrix: &BitMatrix) -> Subspace {
    kernel(&matrix.transpose())
}

/// The `n × m` matrix whose columns are the canonical basis of the null
/// space's orthogonal complement, `m = n - dim`.
pub fn with_null_space(null_space: &Subspace) -> Result<BitMatrix, Gf2Error> {
    let n = null_space.ambient_width();
    let m = n - null_space.dim();
    if m == 0 {
        return Err(Gf2Error::Impossible(
            "null space covers the whole space; no set-index bits remain".to_string(),
        ));
    }
    let complement = null_space.orthogonal_complement();
    assert_eq!(complement.dim(), m);
    let mut h = BitMatrix::zero(n, m);
    for (c, basis_vec) in complement.basis().iter().enumerate() {
        for r in basis_vec.set_bits() {
            h.set(r, c, true);
        }
    }
    assert!(h.has_full_column_rank());
    Ok(h)
}

/// The permutation-based matrix with the given null space: the
/// [`with_null_space`] matrix times the inverse of its `m` low-order rows,
/// which exists iff Eq. 5 holds.
pub fn permutation_based_with_null_space(null_space: &Subspace) -> Result<BitMatrix, Gf2Error> {
    let n = null_space.ambient_width();
    let m = n - null_space.dim();
    let h = with_null_space(null_space)?;
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
    assert!(self::null_space(&p) == *null_space);
    for r in 0..m {
        assert_eq!(p.row(r), BitVec::unit(r, m));
    }
    Ok(p)
}
