//! Hash-function representation.

use std::fmt;

use cache_sim::XorIndex;
use gf2::{BitMatrix, BitVec, PackedBasis};
use serde::{Deserialize, Serialize};

use crate::{FunctionClass, XorIndexError};

/// A cache set-index hash function: an `n × m` full-column-rank matrix over
/// GF(2) together with convenience queries used throughout the search and the
/// hardware cost model.
///
/// The paper's central observation (its Eq. 2) is that the conflict behaviour
/// of a hash function is fully characterized by its null space
/// ([`HashFunction::null_space`]): blocks `x` and `y` collide exactly when
/// `x ⊕ y` lies in it.
///
/// # Example
///
/// ```
/// use xorindex::HashFunction;
/// use gf2::BitMatrix;
///
/// // s_c = a_c ^ a_{c+8}: the classic 2-input permutation-based function.
/// let h = HashFunction::new(BitMatrix::from_fn(16, 8, |r, c| r == c || r == c + 8))?;
/// assert!(h.is_permutation_based());
/// assert_eq!(h.max_xor_inputs(), 2);
/// assert_eq!(h.set_index_of(0x0100), h.set_index_of(0x0001));
/// # Ok::<(), xorindex::XorIndexError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HashFunction {
    matrix: BitMatrix,
}

impl HashFunction {
    /// Wraps a matrix as a hash function.
    ///
    /// # Errors
    ///
    /// Returns [`XorIndexError::RankDeficient`] when the matrix does not have
    /// full column rank (some cache sets would be unreachable).
    pub fn new(matrix: BitMatrix) -> Result<Self, XorIndexError> {
        if !matrix.has_full_column_rank() {
            return Err(XorIndexError::RankDeficient);
        }
        Ok(HashFunction { matrix })
    }

    /// The conventional modulo-`2^m` function hashing `n` address bits.
    ///
    /// # Errors
    ///
    /// Returns [`XorIndexError::InvalidGeometry`] when `m > n`.
    pub fn conventional(hashed_bits: usize, set_bits: usize) -> Result<Self, XorIndexError> {
        if set_bits > hashed_bits || set_bits == 0 {
            return Err(XorIndexError::InvalidGeometry {
                hashed_bits,
                set_bits,
            });
        }
        Ok(HashFunction {
            matrix: BitMatrix::modulo_index(hashed_bits, set_bits),
        })
    }

    /// A bit-selecting function choosing the given block-address bits.
    ///
    /// # Errors
    ///
    /// Returns [`XorIndexError::InvalidGeometry`] when no bits or out-of-range
    /// bits are selected, or [`XorIndexError::RankDeficient`] on duplicates.
    pub fn bit_selecting(hashed_bits: usize, selected: &[usize]) -> Result<Self, XorIndexError> {
        if selected.is_empty()
            || selected.len() > hashed_bits
            || selected.iter().any(|&b| b >= hashed_bits)
        {
            return Err(XorIndexError::InvalidGeometry {
                hashed_bits,
                set_bits: selected.len(),
            });
        }
        Self::new(BitMatrix::bit_selection(hashed_bits, selected))
    }

    /// Reconstructs the function of a given class whose null space is `ns`.
    ///
    /// For [`FunctionClass::PermutationBased`] the representative is the unique
    /// matrix with identity low-order rows; for the other classes it is the
    /// canonical representative derived from the orthogonal complement.
    ///
    /// # Errors
    ///
    /// Returns [`XorIndexError::NoRepresentative`] when the null space admits
    /// no function of the class (e.g. Eq. 5 fails for permutation-based
    /// functions), and [`XorIndexError::NotInClass`] when the representative
    /// exists but violates a fan-in bound.
    pub fn from_null_space(ns: &PackedBasis, class: FunctionClass) -> Result<Self, XorIndexError> {
        let function = class.representative(ns)?;
        class.check(&function)?;
        Ok(function)
    }

    /// The underlying matrix.
    #[must_use]
    pub fn matrix(&self) -> &BitMatrix {
        &self.matrix
    }

    /// Number of hashed address bits `n`.
    #[must_use]
    pub fn hashed_bits(&self) -> usize {
        self.matrix.n_rows()
    }

    /// Number of set-index bits `m`.
    #[must_use]
    pub fn set_bits(&self) -> usize {
        self.matrix.n_cols()
    }

    /// The null space `N(H)`: the set of XOR-difference vectors that map two
    /// blocks to the same set.
    #[must_use]
    pub fn null_space(&self) -> PackedBasis {
        self.matrix.null_space()
    }

    /// `true` when every column selects exactly one address bit.
    #[must_use]
    pub fn is_bit_selecting(&self) -> bool {
        (0..self.matrix.n_cols()).all(|c| self.matrix.column_weight(c) == 1)
    }

    /// `true` when the function equals the conventional modulo function.
    #[must_use]
    pub fn is_conventional(&self) -> bool {
        self.matrix == BitMatrix::modulo_index(self.hashed_bits(), self.set_bits())
    }

    /// `true` when the low-order `m` rows form the identity (paper Section 4).
    #[must_use]
    pub fn is_permutation_based(&self) -> bool {
        self.matrix.is_permutation_based()
    }

    /// Fan-in of the widest XOR gate needed to implement the function.
    #[must_use]
    pub fn max_xor_inputs(&self) -> usize {
        self.matrix.max_column_weight()
    }

    /// Total number of XOR-gate inputs over all set-index bits.
    #[must_use]
    pub fn total_xor_inputs(&self) -> usize {
        self.matrix.total_weight()
    }

    /// The set index of a block address (only the low `n` bits participate).
    #[must_use]
    pub fn set_index_of(&self, block_addr: u64) -> u64 {
        self.matrix
            .mul_vec(BitVec::from_u64(block_addr, self.hashed_bits()))
            .as_u64()
    }

    /// `true` when the tag can remain the conventional high-order address
    /// bits. This holds exactly for permutation-based functions (paper
    /// Section 4); other functions need a bit-selecting tag that covers the
    /// unselected bits.
    #[must_use]
    pub fn conventional_tag_is_correct(&self) -> bool {
        self.is_permutation_based()
    }

    /// Converts into the cache simulator's index-function type.
    #[must_use]
    pub fn to_index_function(&self) -> XorIndex {
        XorIndex::new(self.matrix.clone())
    }

    /// Consumes the function, returning the matrix.
    #[must_use]
    pub fn into_matrix(self) -> BitMatrix {
        self.matrix
    }
}

impl fmt::Display for HashFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "hash function {}x{} (max fan-in {}){}",
            self.hashed_bits(),
            self.set_bits(),
            self.max_xor_inputs(),
            if self.is_permutation_based() {
                ", permutation-based"
            } else {
                ""
            }
        )?;
        write!(f, "{}", self.matrix)
    }
}

impl From<HashFunction> for XorIndex {
    fn from(h: HashFunction) -> XorIndex {
        XorIndex::new(h.matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conventional_function_properties() {
        let h = HashFunction::conventional(16, 8).unwrap();
        assert!(h.is_conventional());
        assert!(h.is_bit_selecting());
        assert!(h.is_permutation_based());
        assert!(h.conventional_tag_is_correct());
        assert_eq!(h.max_xor_inputs(), 1);
        assert_eq!(h.set_index_of(0x1234), 0x34);
        assert_eq!(h.hashed_bits(), 16);
        assert_eq!(h.set_bits(), 8);
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        assert!(matches!(
            HashFunction::conventional(8, 10),
            Err(XorIndexError::InvalidGeometry { .. })
        ));
        assert!(matches!(
            HashFunction::conventional(8, 0),
            Err(XorIndexError::InvalidGeometry { .. })
        ));
    }

    #[test]
    fn rank_deficient_matrices_are_rejected() {
        let zero = BitMatrix::zero(8, 2);
        assert_eq!(HashFunction::new(zero), Err(XorIndexError::RankDeficient));
        // Duplicate bit selection is rank deficient too.
        let dup = BitMatrix::from_fn(8, 2, |r, _| r == 3);
        assert_eq!(HashFunction::new(dup), Err(XorIndexError::RankDeficient));
    }

    #[test]
    fn bit_selecting_constructor_and_classification() {
        let h = HashFunction::bit_selecting(16, &[2, 5, 9, 14]).unwrap();
        assert!(h.is_bit_selecting());
        assert!(!h.is_conventional());
        assert!(!h.is_permutation_based());
        assert!(!h.conventional_tag_is_correct());
        assert_eq!(h.set_bits(), 4);
        assert!(matches!(
            HashFunction::bit_selecting(8, &[9]),
            Err(XorIndexError::InvalidGeometry { .. })
        ));
        assert!(matches!(
            HashFunction::bit_selecting(8, &[]),
            Err(XorIndexError::InvalidGeometry { .. })
        ));
    }

    #[test]
    fn xor_function_properties() {
        let h = HashFunction::new(BitMatrix::from_fn(12, 4, |r, c| {
            r == c || r == c + 4 || r == c + 8
        }))
        .unwrap();
        assert!(!h.is_bit_selecting());
        assert!(h.is_permutation_based());
        assert_eq!(h.max_xor_inputs(), 3);
        assert_eq!(h.total_xor_inputs(), 12);
        // XOR of bits c, c+4, c+8.
        assert_eq!(h.set_index_of(0b0000_0001_0001), 0b0000);
        assert_eq!(h.set_index_of(0b0001_0001_0001), 0b0001);
    }

    #[test]
    fn null_space_roundtrip_for_general_class() {
        let h = HashFunction::new(BitMatrix::from_fn(10, 4, |r, c| {
            (r + 2 * c) % 5 == 0 || r == c
        }))
        .unwrap();
        let ns = h.null_space();
        let rebuilt = HashFunction::from_null_space(&ns, FunctionClass::xor_unlimited()).unwrap();
        assert_eq!(rebuilt.null_space(), ns);
        assert_eq!(rebuilt.set_bits(), h.set_bits());
    }

    #[test]
    fn display_and_conversion() {
        let h = HashFunction::conventional(8, 3).unwrap();
        assert!(h.to_string().contains("8x3"));
        let idx: XorIndex = h.clone().into();
        use cache_sim::IndexFunction as _;
        assert_eq!(idx.num_sets(), 8);
        assert_eq!(h.to_index_function().num_sets(), 8);
        assert_eq!(h.into_matrix().n_cols(), 3);
    }
}
