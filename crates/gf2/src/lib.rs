//! Linear algebra over GF(2), sized for cache-indexing problems.
//!
//! The XOR-indexing work of Vandierendonck et al. (DATE 2006) represents a
//! cache set-index function as an `n × m` binary matrix `H`: an `n`-bit block
//! address `a` (a row vector) is mapped to the `m`-bit set index `s = a · H`,
//! where addition is XOR and multiplication is logical AND.
//!
//! This crate provides the small, dense GF(2) toolkit that the rest of the
//! workspace builds on:
//!
//! * [`BitVec`] — a fixed-width (≤ 64 bit) vector over GF(2);
//! * [`BitMatrix`] — a dense matrix over GF(2) with rank, row reduction,
//!   inversion, matrix/vector products, and null-space extraction;
//! * [`Subspace`] — a linear subspace of GF(2)^n in canonical (reduced
//!   row-echelon) basis form, with membership tests, intersection, sum,
//!   orthogonal complements and vector enumeration;
//! * [`PackedBasis`] — the same canonical basis packed into bare `u64` words
//!   for hot-path evaluation: fast reduce/membership, remainder plus
//!   coordinates ([`PackedBasis::decompose`]), incremental extend/replace of
//!   one generator, hyperplanes named by their functionals,
//!   Gray-code coset enumeration, and compact [`CanonicalKey`] map keys;
//! * [`SlicedBlock`] — up to 64 packed bases transposed into column-wise
//!   `u64` check planes, so one pass over a vector's set bits answers the
//!   membership test for every candidate in the block at once;
//! * [`CosetHistogram`] — a weighted histogram grouped by remainder modulo
//!   one parent subspace in one flat array, so a neighbour
//!   `hyperplane ⊕ span(direction)` of that parent is priced from the
//!   hyperplane's in-parent weight plus one [`parity_weight`] scan of its
//!   direction's remainder group;
//! * [`count`] — Gaussian binomials and the matrix/subspace counting formulas
//!   quoted in Section 2 of the paper (Eq. 3);
//! * [`random`] — seeded random generation of vectors, full-rank matrices and
//!   subspaces, used by randomized searches and by the test-suite.
//!
//! # Example
//!
//! ```
//! use gf2::{BitMatrix, BitVec};
//!
//! // The conventional modulo-2^m index function selects the m low-order bits.
//! let h = BitMatrix::bit_selection(16, &[0, 1, 2, 3]);
//! let addr = BitVec::from_u64(0b1010_0110, 16);
//! assert_eq!(h.mul_vec(addr).as_u64(), 0b0110);
//!
//! // Two addresses conflict exactly when their XOR lies in the null space.
//! let ns = h.null_space();
//! let a = BitVec::from_u64(0x1234, 16);
//! let b = BitVec::from_u64(0x5634, 16);
//! assert_eq!(h.mul_vec(a) == h.mul_vec(b), ns.contains(a ^ b));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitvec;
mod matrix;
mod packed;
mod sliced;
mod subspace;

pub mod count;
pub mod random;

pub use bitvec::{BitVec, SetBits};
pub use matrix::BitMatrix;
pub use packed::{hash_key_words, CanonicalKey, PackedBasis, PackedHyperplanes, PackedVectors};
pub use sliced::{parity_weight, CosetHistogram, SlicedBlock, SLICED_LANES};
pub use subspace::{Subspace, SubspaceVectors};

/// Errors reported by GF(2) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gf2Error {
    /// A width outside the supported `1..=64` range was requested.
    UnsupportedWidth(usize),
    /// Two operands had incompatible dimensions.
    DimensionMismatch {
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension that was supplied.
        actual: usize,
    },
    /// A square matrix was singular where an invertible one was required.
    Singular,
    /// A requested object does not exist (e.g. a subspace of impossible dimension).
    Impossible(String),
}

impl std::fmt::Display for Gf2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Gf2Error::UnsupportedWidth(w) => {
                write!(f, "unsupported bit width {w}, expected 1..=64")
            }
            Gf2Error::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            Gf2Error::Singular => write!(f, "matrix is singular"),
            Gf2Error::Impossible(msg) => write!(f, "impossible request: {msg}"),
        }
    }
}

impl std::error::Error for Gf2Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Gf2Error>;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let errs = [
            Gf2Error::UnsupportedWidth(65),
            Gf2Error::DimensionMismatch {
                expected: 4,
                actual: 5,
            },
            Gf2Error::Singular,
            Gf2Error::Impossible("n < m".to_string()),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
            assert!(!format!("{e:?}").is_empty());
        }
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Gf2Error>();
        assert_send_sync::<BitVec>();
        assert_send_sync::<BitMatrix>();
        assert_send_sync::<Subspace>();
    }
}
