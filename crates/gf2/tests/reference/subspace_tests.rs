//! The reference subspace's own invariants. `gf2`'s unit tests compile
//! this file as `subspace::tests`, beside the reference it checks; the test
//! crates that include the reference do not include these.

use super::*;
use gf2::BitVec;
use std::collections::HashSet;

#[test]
fn trivial_and_full() {
    let t = Subspace::trivial(8);
    assert_eq!(t.dim(), 0);
    assert!(t.is_trivial());
    assert!(t.contains(BitVec::zero(8)));
    assert!(!t.contains(BitVec::unit(1, 8)));

    let f = Subspace::full(8);
    assert_eq!(f.dim(), 8);
    for bits in [0u64, 1, 0xFF, 0xA5] {
        assert!(f.contains(BitVec::from_u64(bits, 8)));
    }
}

#[test]
fn canonical_form_is_generator_order_independent() {
    let g1 = [
        BitVec::from_u64(0b1100, 4),
        BitVec::from_u64(0b0110, 4),
        BitVec::from_u64(0b1010, 4),
    ];
    let g2 = [BitVec::from_u64(0b0110, 4), BitVec::from_u64(0b1010, 4)];
    let s1 = Subspace::from_generators(4, &g1);
    let s2 = Subspace::from_generators(4, &g2);
    assert_eq!(s1, s2);
    assert_eq!(s1.dim(), 2);
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h1 = DefaultHasher::new();
    let mut h2 = DefaultHasher::new();
    s1.hash(&mut h1);
    s2.hash(&mut h2);
    assert_eq!(h1.finish(), h2.finish());
}

#[test]
fn membership_matches_exhaustive_span() {
    let gens = [
        BitVec::from_u64(0b00110, 5),
        BitVec::from_u64(0b01100, 5),
        BitVec::from_u64(0b10001, 5),
    ];
    let s = Subspace::from_generators(5, &gens);
    // Exhaustive span.
    let mut span = HashSet::new();
    for mask in 0u32..8 {
        let mut v = BitVec::zero(5);
        for (i, g) in gens.iter().enumerate() {
            if (mask >> i) & 1 == 1 {
                v ^= *g;
            }
        }
        span.insert(v);
    }
    for bits in 0..32u64 {
        let v = BitVec::from_u64(bits, 5);
        assert_eq!(s.contains(v), span.contains(&v), "vector {bits:05b}");
    }
    assert_eq!(span.len(), 1 << s.dim());
}

#[test]
fn vectors_enumerates_exactly_the_span() {
    let s = Subspace::from_generators(
        6,
        &[
            BitVec::from_u64(0b000111, 6),
            BitVec::from_u64(0b011100, 6),
            BitVec::from_u64(0b110000, 6),
        ],
    );
    let vecs: HashSet<BitVec> = s.vectors().collect();
    assert_eq!(vecs.len(), 1 << s.dim());
    assert_eq!(s.vectors().len(), 1 << s.dim());
    for v in &vecs {
        assert!(s.contains(*v));
    }
    assert!(vecs.contains(&BitVec::zero(6)));
}

#[test]
fn sum_and_intersection_dimensions() {
    let u = Subspace::standard_span(6, [0, 1, 2]);
    let v = Subspace::standard_span(6, [2, 3, 4]);
    let sum = u.sum(&v);
    let inter = u.intersection(&v);
    assert_eq!(sum.dim(), 5);
    assert_eq!(inter.dim(), 1);
    assert!(inter.contains(BitVec::unit(2, 6)));
    assert_eq!(u.intersection_dim(&v), 1);
    // dim(U) + dim(V) = dim(U+V) + dim(U∩V)
    assert_eq!(u.dim() + v.dim(), sum.dim() + inter.dim());
}

#[test]
fn intersection_with_xor_heavy_spaces() {
    // U = span{1100, 0011}, V = span{1111, 1010}; U ∩ V = span{1111}.
    let u = Subspace::from_generators(
        4,
        &[BitVec::from_u64(0b1100, 4), BitVec::from_u64(0b0011, 4)],
    );
    let v = Subspace::from_generators(
        4,
        &[BitVec::from_u64(0b1111, 4), BitVec::from_u64(0b1010, 4)],
    );
    let inter = u.intersection(&v);
    assert_eq!(inter.dim(), 1);
    assert!(inter.contains(BitVec::from_u64(0b1111, 4)));
}

#[test]
fn orthogonal_complement_dimension_and_double_complement() {
    let s = Subspace::from_generators(
        8,
        &[
            BitVec::from_u64(0b0000_1111, 8),
            BitVec::from_u64(0b1111_0000, 8),
            BitVec::from_u64(0b1010_1010, 8),
        ],
    );
    let c = s.orthogonal_complement();
    assert_eq!(c.dim(), 8 - s.dim());
    assert_eq!(c.orthogonal_complement(), s);
    // Complement of the trivial space is everything and vice versa.
    assert_eq!(
        Subspace::trivial(8).orthogonal_complement(),
        Subspace::full(8)
    );
    assert_eq!(
        Subspace::full(8).orthogonal_complement(),
        Subspace::trivial(8)
    );
}

#[test]
fn hyperplane_count_and_dimension() {
    let s = Subspace::standard_span(8, [0, 2, 4]);
    let hps = s.hyperplanes();
    assert_eq!(hps.len(), (1 << 3) - 1);
    let distinct: HashSet<_> = hps.iter().cloned().collect();
    assert_eq!(distinct.len(), hps.len(), "hyperplanes must be distinct");
    for h in &hps {
        assert_eq!(h.dim(), 2);
        assert!(s.contains_subspace(h));
    }
    assert!(Subspace::trivial(4).hyperplanes().is_empty());
}

#[test]
fn extended_grows_dimension_only_for_outside_vectors() {
    let s = Subspace::standard_span(6, [0, 1]);
    assert_eq!(s.extended(BitVec::from_u64(0b11, 6)).dim(), 2);
    assert_eq!(s.extended(BitVec::unit(5, 6)).dim(), 3);
}

#[test]
fn permutation_based_admission() {
    // The null space of the modulo function is span(e_m..e_{n-1}), which
    // intersects span(e_0..e_{m-1}) trivially.
    let ns = Subspace::standard_span(16, 4..16);
    assert!(ns.admits_permutation_based_function(4));
    // A null space containing e_0 cannot be permutation-based.
    let bad = Subspace::standard_span(16, [0usize, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);
    assert!(!bad.admits_permutation_based_function(4));
}

#[test]
fn display_mentions_ambient_space() {
    let s = Subspace::standard_span(4, [1]);
    let text = s.to_string();
    assert!(text.contains("GF(2)^4"));
    assert!(text.contains("0b0010"));
}

#[test]
fn contains_subspace_is_reflexive_and_orders() {
    let small = Subspace::standard_span(6, [1, 2]);
    let big = Subspace::standard_span(6, [0, 1, 2, 3]);
    assert!(big.contains_subspace(&small));
    assert!(!small.contains_subspace(&big));
    assert!(small.contains_subspace(&small));
    assert!(small.contains_subspace(&Subspace::trivial(6)));
}
