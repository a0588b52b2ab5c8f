// `PackedBasis` against the `BitVec` reference on hand-picked spaces.
// `include!`d into `packed.rs`'s unit tests, so these run as
// `packed::tests::*` while the reference they name stays under `tests/`.

use crate::subspace::Subspace;

fn subspace(width: usize, gens: &[u64]) -> Subspace {
    let gens: Vec<BitVec> = gens.iter().map(|&g| BitVec::from_u64(g, width)).collect();
    Subspace::from_generators(width, &gens)
}

#[test]
fn roundtrip_preserves_identity() {
    let s = subspace(6, &[0b000111, 0b011100, 0b110000]);
    let packed = s.packed();
    assert_eq!(packed.dim(), s.dim());
    assert_eq!(packed.width(), 6);
    assert_eq!(Subspace::from_packed(&packed), s);
    let full = Subspace::full(64);
    assert_eq!(full.packed(), PackedBasis::full(64));
    assert_eq!(Subspace::from_packed(&full.packed()), full);
}

#[test]
fn membership_matches_subspace() {
    let s = subspace(8, &[0b0011_0011, 0b0101_0101, 0b1000_0001]);
    let packed = s.packed();
    for bits in 0..256u64 {
        assert_eq!(
            packed.contains(bits),
            s.contains(BitVec::from_u64(bits, 8)),
            "vector {bits:08b}"
        );
        assert_eq!(
            packed.reduce(bits),
            s.reduce(BitVec::from_u64(bits, 8)).as_u64()
        );
    }
}

#[test]
fn incremental_insert_matches_batch_construction() {
    let gens = [0b1100u64, 0b0110, 0b1010, 0b0001, 0b1111];
    let mut packed = PackedBasis::trivial(4);
    for &g in &gens {
        packed.insert(g);
    }
    assert_eq!(packed, subspace(4, &gens).packed());
    // Canonical: rows strictly decreasing, unique pivots.
    assert!(packed.rows().windows(2).all(|w| w[0] > w[1]));
}

#[test]
fn standard_span_matches_subspace_standard_span() {
    let packed = PackedBasis::standard_span(10, [7usize, 2, 9, 2]);
    let reference = Subspace::standard_span(10, [7usize, 2, 9, 2]);
    assert_eq!(packed, reference.packed());
    assert_eq!(packed.dim(), 3);
    assert!(packed.is_coordinate_subspace());
    assert_eq!(PackedBasis::standard_span(6, []).dim(), 0);
    assert_eq!(PackedBasis::full(8), Subspace::full(8).packed());
}

#[test]
fn extended_matches_subspace_extended() {
    let s = subspace(6, &[0b000011, 0b001100]);
    let packed = s.packed();
    for v in 0..(1u64 << 6) {
        let grown = packed.extended(v);
        assert_eq!(
            Subspace::from_packed(&grown),
            s.extended(BitVec::from_u64(v, 6)),
            "direction {v:06b}"
        );
        // Dependent directions leave the basis unchanged.
        assert_eq!(grown.dim() == packed.dim(), packed.contains(v));
    }
}

#[test]
fn hyperplanes_match_subspace_hyperplanes_in_order() {
    let s = subspace(8, &[0b0000_0111, 0b0011_1000, 0b1100_0000, 0b1010_1010]);
    let packed = s.packed();
    let reference = s.hyperplanes();
    let got: Vec<PackedBasis> = packed.hyperplanes().collect();
    assert_eq!(packed.hyperplanes().len(), reference.len());
    assert_eq!(got.len(), reference.len());
    for (i, (p, r)) in got.iter().zip(&reference).enumerate() {
        assert_eq!(p, &r.packed(), "hyperplane {i}");
        assert!(packed.contains_subspace(p));
        // Canonical with no re-elimination: round-tripping changes nothing.
        assert_eq!(p, &Subspace::from_packed(p).packed());
    }
    assert_eq!(PackedBasis::trivial(8).hyperplanes().count(), 0);
}

#[test]
fn admits_permutation_based_matches_subspace_check() {
    for (gens, m) in [
        (vec![0b110000u64, 0b001100, 0b000011], 2usize),
        (vec![0b000001, 0b110000], 2),
        (vec![0b101010, 0b010101], 3),
        (vec![], 4),
    ] {
        let s = subspace(6, &gens);
        assert_eq!(
            s.packed().admits_permutation_based(m),
            s.admits_permutation_based_function(m),
            "gens {gens:?}, m {m}"
        );
    }
}
