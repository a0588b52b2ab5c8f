//! Constraint classes of hash functions.

use std::fmt;

use gf2::{BitMatrix, PackedBasis};
use serde::{Deserialize, Serialize};

use crate::{HashFunction, XorIndexError};

/// The family of hash functions a search is allowed to choose from.
///
/// The paper compares four families of increasing hardware cost:
///
/// * plain **bit-selecting** functions (each set-index bit is one address
///   bit), the space explored by earlier work (Givargis; Patel et al.);
/// * **XOR functions with bounded fan-in** (at most `k` address bits per XOR
///   gate);
/// * **permutation-based** XOR functions (paper Section 4): the low-order `m`
///   matrix rows are the identity, which maps every aligned run of `2^m`
///   blocks conflict-free and keeps the conventional tag correct, enabling the
///   cheap reconfigurable implementation of Section 5;
/// * unrestricted XOR functions.
///
/// # Example
///
/// ```
/// use xorindex::{FunctionClass, HashFunction};
/// use gf2::BitMatrix;
///
/// let h = HashFunction::new(BitMatrix::from_fn(16, 8, |r, c| r == c || r == c + 8))?;
/// assert!(FunctionClass::permutation_based(2).check(&h).is_ok());
/// assert!(FunctionClass::bit_selecting().check(&h).is_err());
/// # Ok::<(), xorindex::XorIndexError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FunctionClass {
    /// Each set-index bit is a single address bit.
    BitSelecting,
    /// General XOR functions, optionally bounding the per-gate fan-in.
    Xor {
        /// Maximum number of address bits feeding one XOR gate
        /// (`None` = unrestricted, the paper's "16-in" columns).
        max_inputs: Option<usize>,
    },
    /// Permutation-based XOR functions (identity low-order rows), optionally
    /// bounding the per-gate fan-in.
    PermutationBased {
        /// Maximum fan-in per XOR gate (`None` = unrestricted).
        max_inputs: Option<usize>,
    },
}

impl FunctionClass {
    /// Plain bit-selecting functions.
    #[must_use]
    pub fn bit_selecting() -> Self {
        FunctionClass::BitSelecting
    }

    /// XOR functions with at most `max_inputs` inputs per gate.
    #[must_use]
    pub fn xor(max_inputs: usize) -> Self {
        FunctionClass::Xor {
            max_inputs: Some(max_inputs),
        }
    }

    /// Unrestricted XOR functions (the paper's "general XOR" / "16-in").
    #[must_use]
    pub fn xor_unlimited() -> Self {
        FunctionClass::Xor { max_inputs: None }
    }

    /// Permutation-based functions with at most `max_inputs` inputs per gate.
    /// The paper's reconfigurable hardware uses `permutation_based(2)`.
    #[must_use]
    pub fn permutation_based(max_inputs: usize) -> Self {
        FunctionClass::PermutationBased {
            max_inputs: Some(max_inputs),
        }
    }

    /// Permutation-based functions with unrestricted fan-in
    /// (the paper's "16-in" permutation-based column).
    #[must_use]
    pub fn permutation_based_unlimited() -> Self {
        FunctionClass::PermutationBased { max_inputs: None }
    }

    /// The fan-in bound, if any. Bit-selecting functions always have fan-in 1.
    #[must_use]
    pub fn max_inputs(&self) -> Option<usize> {
        match self {
            FunctionClass::BitSelecting => Some(1),
            FunctionClass::Xor { max_inputs } | FunctionClass::PermutationBased { max_inputs } => {
                *max_inputs
            }
        }
    }

    /// Checks that a concrete function belongs to the class.
    ///
    /// # Errors
    ///
    /// Returns [`XorIndexError::NotInClass`] describing the violated
    /// constraint.
    pub fn check(&self, function: &HashFunction) -> Result<(), XorIndexError> {
        match self {
            FunctionClass::BitSelecting => {
                if !function.is_bit_selecting() {
                    return Err(XorIndexError::NotInClass {
                        reason: "a column combines more than one address bit".to_string(),
                    });
                }
            }
            FunctionClass::Xor { max_inputs } => {
                if let Some(k) = max_inputs {
                    if function.max_xor_inputs() > *k {
                        return Err(XorIndexError::NotInClass {
                            reason: format!(
                                "XOR fan-in {} exceeds the bound {k}",
                                function.max_xor_inputs()
                            ),
                        });
                    }
                }
            }
            FunctionClass::PermutationBased { max_inputs } => {
                if !function.is_permutation_based() {
                    return Err(XorIndexError::NotInClass {
                        reason: "low-order rows are not the identity".to_string(),
                    });
                }
                if let Some(k) = max_inputs {
                    if function.max_xor_inputs() > *k {
                        return Err(XorIndexError::NotInClass {
                            reason: format!(
                                "XOR fan-in {} exceeds the bound {k}",
                                function.max_xor_inputs()
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Builds the class's canonical representative with the given null space.
    ///
    /// * `BitSelecting` — requires the null space to be a coordinate subspace
    ///   (spanned by standard basis vectors); the representative selects the
    ///   complementary bits.
    /// * `PermutationBased` — the unique matrix with identity low-order rows
    ///   (exists iff paper Eq. 5 holds).
    /// * `Xor` — prefers the permutation-based representative when it exists
    ///   (it usually has the smallest fan-in), falling back to the canonical
    ///   orthogonal-complement representative.
    ///
    /// # Errors
    ///
    /// Returns [`XorIndexError::NoRepresentative`] when the null space cannot
    /// be realized within the class structure. Fan-in bounds are *not* checked
    /// here; use [`FunctionClass::check`] or
    /// [`HashFunction::from_null_space`], which checks them.
    pub fn representative(&self, null_space: &PackedBasis) -> Result<HashFunction, XorIndexError> {
        let n = null_space.width();
        let m = n - null_space.dim();
        if m == 0 {
            return Err(XorIndexError::InvalidGeometry {
                hashed_bits: n,
                set_bits: m,
            });
        }
        match self {
            FunctionClass::BitSelecting => {
                if !null_space.is_coordinate_subspace() {
                    return Err(XorIndexError::NoRepresentative {
                        reason: "null space is not spanned by standard basis vectors".to_string(),
                    });
                }
                let excluded = null_space.rows().iter().fold(0u64, |acc, &row| acc | row);
                let selected: Vec<usize> = (0..n).filter(|i| excluded >> i & 1 == 0).collect();
                HashFunction::bit_selecting(n, &selected)
            }
            FunctionClass::PermutationBased { .. } => {
                let matrix =
                    BitMatrix::permutation_based_with_null_space(null_space).map_err(|e| {
                        XorIndexError::NoRepresentative {
                            reason: e.to_string(),
                        }
                    })?;
                HashFunction::new(matrix)
            }
            FunctionClass::Xor { .. } => {
                if null_space.admits_permutation_based(m) {
                    let matrix = BitMatrix::permutation_based_with_null_space(null_space)
                        .map_err(XorIndexError::from)?;
                    HashFunction::new(matrix)
                } else {
                    let matrix =
                        BitMatrix::with_null_space(null_space).map_err(XorIndexError::from)?;
                    HashFunction::new(matrix)
                }
            }
        }
    }

    /// Short label used in reports and tables (mirrors the paper's column
    /// headers: `1-in`, `2-in`, `4-in`, `16-in`, …).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            FunctionClass::BitSelecting => "bit-select (1-in)".to_string(),
            FunctionClass::Xor { max_inputs: None } => "xor (unlimited)".to_string(),
            FunctionClass::Xor {
                max_inputs: Some(k),
            } => format!("xor ({k}-in)"),
            FunctionClass::PermutationBased { max_inputs: None } => {
                "permutation-based (unlimited)".to_string()
            }
            FunctionClass::PermutationBased {
                max_inputs: Some(k),
            } => format!("permutation-based ({k}-in)"),
        }
    }
}

impl fmt::Display for FunctionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `true` when `class` realizes `ns` within its fan-in bound.
    fn admits(class: FunctionClass, ns: &PackedBasis) -> bool {
        HashFunction::from_null_space(ns, class).is_ok()
    }

    #[test]
    fn constructors_and_labels() {
        assert_eq!(FunctionClass::bit_selecting().max_inputs(), Some(1));
        assert_eq!(FunctionClass::xor(2).max_inputs(), Some(2));
        assert_eq!(FunctionClass::xor_unlimited().max_inputs(), None);
        assert_eq!(FunctionClass::permutation_based(4).max_inputs(), Some(4));
        assert!(FunctionClass::permutation_based(2).label().contains("2-in"));
        assert!(FunctionClass::bit_selecting()
            .to_string()
            .contains("bit-select"));
    }

    #[test]
    fn check_accepts_and_rejects_by_structure() {
        let perm2 =
            HashFunction::new(BitMatrix::from_fn(16, 8, |r, c| r == c || r == c + 8)).unwrap();
        assert!(FunctionClass::permutation_based(2).check(&perm2).is_ok());
        assert!(FunctionClass::xor(2).check(&perm2).is_ok());
        assert!(FunctionClass::xor_unlimited().check(&perm2).is_ok());
        assert!(FunctionClass::bit_selecting().check(&perm2).is_err());

        let conventional = HashFunction::conventional(16, 8).unwrap();
        assert!(FunctionClass::bit_selecting().check(&conventional).is_ok());
        assert!(FunctionClass::permutation_based(2)
            .check(&conventional)
            .is_ok());

        // A 3-input permutation-based function violates the 2-input bound.
        let perm3 = HashFunction::new(BitMatrix::from_fn(16, 4, |r, c| {
            r == c || r == c + 4 || r == c + 8
        }))
        .unwrap();
        assert!(FunctionClass::permutation_based(2).check(&perm3).is_err());
        assert!(FunctionClass::permutation_based(4).check(&perm3).is_ok());
        assert!(FunctionClass::xor(2).check(&perm3).is_err());
    }

    #[test]
    fn bit_selecting_representative_requires_coordinate_null_space() {
        // Null space of selecting bits {0, 2} from 4 bits: span{e1, e3}.
        let ns = PackedBasis::standard_span(4, [1, 3]);
        let rep = FunctionClass::bit_selecting().representative(&ns).unwrap();
        assert!(rep.is_bit_selecting());
        assert_eq!(rep.null_space(), ns);
        // A non-coordinate null space has no bit-selecting representative.
        let mut ns = PackedBasis::trivial(4);
        ns.insert(0b0110);
        assert!(matches!(
            FunctionClass::bit_selecting().representative(&ns),
            Err(XorIndexError::NoRepresentative { .. })
        ));
    }

    #[test]
    fn permutation_based_representative_matches_eq5() {
        let good = HashFunction::new(BitMatrix::from_fn(12, 6, |r, c| r == c || r == c + 6))
            .unwrap()
            .null_space();
        let rep = FunctionClass::permutation_based_unlimited()
            .representative(&good)
            .unwrap();
        assert!(rep.is_permutation_based());
        assert_eq!(rep.null_space(), good);

        // A null space containing e0 violates Eq. 5.
        let bad = PackedBasis::standard_span(12, [0usize, 7, 8, 9, 10, 11]);
        assert!(matches!(
            FunctionClass::permutation_based(2).representative(&bad),
            Err(XorIndexError::NoRepresentative { .. })
        ));
        assert!(!admits(FunctionClass::permutation_based(2), &bad));
    }

    #[test]
    fn xor_class_always_has_a_representative() {
        // Even a null space violating Eq. 5 is representable by a general XOR
        // function (selecting high bits).
        let ns = PackedBasis::standard_span(12, [0usize, 1, 2, 3, 4, 5]);
        let rep = FunctionClass::xor_unlimited().representative(&ns).unwrap();
        assert_eq!(rep.null_space(), ns);
        assert!(admits(FunctionClass::xor_unlimited(), &ns));
    }

    #[test]
    fn admits_respects_fan_in_bound() {
        // This null space's permutation-based representative needs 3 inputs on
        // some gate: s0 = a0 ^ a4 ^ a5 (null space from that matrix).
        let mut m = BitMatrix::from_fn(8, 4, |r, c| r == c);
        m.set(4, 0, true);
        m.set(5, 0, true);
        let h = HashFunction::new(m).unwrap();
        let ns = h.null_space();
        assert!(admits(FunctionClass::permutation_based(4), &ns));
        assert!(!admits(FunctionClass::permutation_based(2), &ns));
        assert!(admits(FunctionClass::xor(3), &ns));
    }

    #[test]
    fn from_null_space_enforces_class() {
        let h = HashFunction::new(BitMatrix::from_fn(16, 8, |r, c| r == c || r == c + 8)).unwrap();
        let ns = h.null_space();
        let back = HashFunction::from_null_space(&ns, FunctionClass::permutation_based(2)).unwrap();
        assert_eq!(back, h);
        assert!(HashFunction::from_null_space(&ns, FunctionClass::bit_selecting()).is_err());
    }
}
