//! Property-based tests for the GF(2) linear-algebra kernel.
//!
//! These check the algebraic invariants that the XOR-indexing machinery relies
//! on: XOR is a group operation, null spaces characterize set conflicts,
//! canonical subspace bases are representation-independent, and the dimension
//! formulas hold. [`PackedBasis`] and the matrix constructions built on it
//! are compared against the [`BitVec`] reference [`Subspace`], which
//! re-eliminates from scratch on every construction.

#[path = "reference/subspace.rs"]
mod reference;

use gf2::{count, random, BitMatrix, BitVec, PackedBasis};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use reference::Subspace;

/// Strategy producing a width in the interesting range and a value fitting it.
fn vec_strategy() -> impl Strategy<Value = BitVec> {
    (1usize..=24).prop_flat_map(|w| {
        (Just(w), 0u64..(1u64 << w)).prop_map(|(w, bits)| BitVec::from_u64(bits, w))
    })
}

/// Strategy producing two vectors of the same width.
fn vec_pair_strategy() -> impl Strategy<Value = (BitVec, BitVec)> {
    (1usize..=24).prop_flat_map(|w| {
        (
            (0u64..(1u64 << w)).prop_map(move |b| BitVec::from_u64(b, w)),
            (0u64..(1u64 << w)).prop_map(move |b| BitVec::from_u64(b, w)),
        )
    })
}

/// Strategy producing a random (n, m, seed) triple for matrix properties.
fn matrix_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (2usize..=16).prop_flat_map(|n| (Just(n), 1usize..=n, any::<u64>()))
}

proptest! {
    #[test]
    fn xor_is_an_involution(v in vec_strategy()) {
        prop_assert!((v ^ v).is_zero());
        let zero = BitVec::zero(v.width());
        prop_assert_eq!(v ^ zero, v);
    }

    #[test]
    fn xor_commutes_and_weight_bounds((a, b) in vec_pair_strategy()) {
        prop_assert_eq!(a ^ b, b ^ a);
        prop_assert!((a ^ b).weight() <= a.weight() + b.weight());
        // Parity of the weight is additive over GF(2).
        prop_assert_eq!((a ^ b).weight() % 2, (a.weight() + b.weight()) % 2);
    }

    #[test]
    fn dot_product_is_bilinear((a, b) in vec_pair_strategy(), c_bits in any::<u64>()) {
        let c = BitVec::from_u64(c_bits, a.width());
        // <a ^ c, b> = <a, b> ^ <c, b>
        prop_assert_eq!((a ^ c).dot(b), a.dot(b) ^ c.dot(b));
    }

    #[test]
    fn set_bits_roundtrip(v in vec_strategy()) {
        let rebuilt = BitVec::with_bits(&v.set_bits().collect::<Vec<_>>(), v.width());
        prop_assert_eq!(rebuilt, v);
        prop_assert_eq!(v.set_bits().count(), v.weight());
    }

    #[test]
    fn mul_vec_is_linear((n, m, seed) in matrix_params(), a_bits in any::<u64>(), b_bits in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random::random_matrix(&mut rng, n, m);
        let a = BitVec::from_u64(a_bits, n);
        let b = BitVec::from_u64(b_bits, n);
        prop_assert_eq!(h.mul_vec(a ^ b), h.mul_vec(a) ^ h.mul_vec(b));
    }

    #[test]
    fn rank_is_bounded_and_transpose_invariant((n, m, seed) in matrix_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random::random_matrix(&mut rng, n, m);
        let r = h.rank();
        prop_assert!(r <= n.min(m));
        prop_assert_eq!(r, h.transpose().rank());
    }

    #[test]
    fn null_space_dimension_is_n_minus_rank((n, m, seed) in matrix_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random::random_matrix(&mut rng, n, m);
        let ns = h.null_space();
        prop_assert_eq!(ns.dim(), n - h.rank());
        // Every basis vector of the null space really maps to zero.
        for &v in ns.rows() {
            prop_assert!(h.mul_vec(BitVec::from_u64(v, n)).is_zero());
        }
    }

    #[test]
    fn conflict_condition_matches_null_space(
        (n, m, seed) in matrix_params(),
        x_bits in any::<u64>(),
        y_bits in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random::random_full_rank_matrix(&mut rng, n, m);
        let ns = h.null_space();
        let x = BitVec::from_u64(x_bits, n);
        let y = BitVec::from_u64(y_bits, n);
        // Paper Eq. 2: x·H = y·H  <=>  (x ⊕ y) ∈ N(H)
        prop_assert_eq!(h.mul_vec(x) == h.mul_vec(y), ns.contains((x ^ y).as_u64()));
    }

    #[test]
    fn with_null_space_reconstructs_the_same_space((n, m, seed) in matrix_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random::random_full_rank_matrix(&mut rng, n, m);
        let ns = h.null_space();
        let h2 = BitMatrix::with_null_space(&ns).unwrap();
        prop_assert_eq!(h2.null_space(), ns);
        prop_assert!(h2.has_full_column_rank());
        prop_assert_eq!(h2.n_cols(), m);
    }

    #[test]
    fn subspace_canonicalization_is_stable((n, m, seed) in matrix_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let packed = random::random_subspace(&mut rng, n, m.min(n));
        let s = Subspace::from_packed(&packed);
        // Rebuilding from shuffled/extended generator sets gives the same
        // space, through the reference elimination and incremental insertion
        // alike.
        let mut gens: Vec<BitVec> = s.basis().to_vec();
        if gens.len() >= 2 {
            let extra = gens[0] ^ gens[1];
            gens.push(extra);
        }
        gens.reverse();
        let rebuilt = Subspace::from_generators(n, &gens);
        prop_assert_eq!(&rebuilt, &s);
        let mut inserted = PackedBasis::trivial(n);
        for g in &gens {
            inserted.insert(g.as_u64());
        }
        prop_assert_eq!(inserted, packed);
    }

    #[test]
    fn dimension_formula_for_sum_and_intersection(seed in any::<u64>(), n in 3usize..=12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = Subspace::from_packed(&random::random_subspace(&mut rng, n, n / 2));
        let v = Subspace::from_packed(&random::random_subspace(&mut rng, n, n / 3 + 1));
        let sum = u.sum(&v);
        let inter = u.intersection(&v);
        prop_assert_eq!(u.dim() + v.dim(), sum.dim() + inter.dim());
        prop_assert!(sum.contains_subspace(&u));
        prop_assert!(sum.contains_subspace(&v));
        prop_assert!(u.contains_subspace(&inter));
        prop_assert!(v.contains_subspace(&inter));
    }

    #[test]
    fn orthogonal_complement_is_involutive(seed in any::<u64>(), n in 2usize..=14) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = random::random_subspace(&mut rng, n, n / 2);
        let c = s.orthogonal_complement();
        prop_assert_eq!(c.dim(), n - s.dim());
        prop_assert_eq!(c.orthogonal_complement(), s.clone());
        // The reference's complement, re-eliminated through its kernel.
        prop_assert_eq!(c, Subspace::from_packed(&s).orthogonal_complement().packed());
    }

    #[test]
    fn subspace_vectors_are_members_and_distinct(seed in any::<u64>(), n in 2usize..=10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = random::random_subspace(&mut rng, n, (n / 2).min(6));
        let vectors: Vec<u64> = s.vectors().collect();
        prop_assert_eq!(vectors.len(), 1 << s.dim());
        let distinct: std::collections::HashSet<_> = vectors.iter().copied().collect();
        prop_assert_eq!(distinct.len(), vectors.len());
        let reference: std::collections::HashSet<u64> =
            Subspace::from_packed(&s).vectors().map(|v| v.as_u64()).collect();
        prop_assert_eq!(distinct, reference);
        for v in vectors {
            prop_assert!(s.contains(v));
        }
    }

    #[test]
    fn hyperplanes_have_codimension_one_in_parent(seed in any::<u64>(), n in 2usize..=10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = (n / 2).clamp(1, 5);
        let s = Subspace::from_packed(&random::random_subspace(&mut rng, n, dim));
        let hps = s.hyperplanes();
        prop_assert_eq!(hps.len(), (1usize << dim) - 1);
        for h in hps {
            prop_assert_eq!(h.dim(), dim - 1);
            prop_assert!(s.contains_subspace(&h));
            prop_assert_eq!(s.intersection_dim(&h), dim - 1);
        }
    }

    #[test]
    fn gaussian_binomial_symmetry(n in 1u32..=20, k_frac in 0.0f64..1.0) {
        let k = (k_frac * n as f64) as u32;
        let a = count::gaussian_binomial(n, k);
        let b = count::gaussian_binomial(n, n - k);
        prop_assert!((a / b - 1.0).abs() < 1e-9);
    }

    #[test]
    fn permutation_based_matrix_has_identity_low_rows(seed in any::<u64>(), n in 4usize..=16) {
        let m = n / 2;
        let mut rng = StdRng::seed_from_u64(seed);
        let ns = random::random_permutation_null_space(&mut rng, n, m);
        let p = BitMatrix::permutation_based_with_null_space(&ns).unwrap();
        prop_assert!(p.is_permutation_based());
        prop_assert_eq!(p.null_space(), ns.clone());
        for r in 0..m {
            prop_assert_eq!(p.row(r), BitVec::unit(r, m));
        }
    }
}

proptest! {
    #[test]
    fn packed_basis_agrees_with_subspace(seed in any::<u64>(), n in 2usize..=14) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = (seed as usize) % (n + 1);
        let packed = random::random_subspace(&mut rng, n, dim);
        let space = Subspace::from_packed(&packed);
        prop_assert_eq!(packed.dim(), space.dim());
        prop_assert_eq!(space.packed(), packed.clone());
        // Membership and reduction agree on random probes.
        for _ in 0..32 {
            let v = random::random_vector(&mut rng, n);
            prop_assert_eq!(packed.contains(v.as_u64()), space.contains(v));
            prop_assert_eq!(packed.reduce(v.as_u64()), space.reduce(v).as_u64());
        }
        // Incremental insertion from scratch reproduces the canonical form.
        let mut incremental = PackedBasis::trivial(n);
        for b in space.basis() {
            prop_assert!(incremental.insert(b.as_u64()));
        }
        prop_assert_eq!(incremental, packed);
    }

    #[test]
    fn packed_replace_matches_subspace_rebuild(seed in any::<u64>(), n in 3usize..=12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 1 + (seed as usize) % (n - 1);
        let packed = random::random_subspace(&mut rng, n, dim);
        let space = Subspace::from_packed(&packed);
        let index = (seed as usize) % dim;
        let direction = random::random_nonzero_vector(&mut rng, n);
        // Reference: rebuild from the surviving generators plus the direction.
        let mut gens: Vec<BitVec> = space.basis().to_vec();
        gens.remove(index);
        let remaining = Subspace::from_generators(n, &gens);
        gens.push(direction);
        let rebuilt = Subspace::from_generators(n, &gens);
        match packed.replaced(index, direction.as_u64()) {
            Some(swapped) => {
                prop_assert_eq!(swapped.dim(), dim);
                prop_assert_eq!(Subspace::from_packed(&swapped), rebuilt);
                prop_assert!(!remaining.contains(direction));
            }
            None => prop_assert!(remaining.contains(direction)),
        }
    }

    #[test]
    fn permutation_admission_matches_explicit_intersection(
        seed in any::<u64>(),
        n in 2usize..=12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = (seed as usize) % (n + 1);
        let packed = random::random_subspace(&mut rng, n, dim);
        let space = Subspace::from_packed(&packed);
        for m in 0..=n {
            let low = Subspace::standard_span(n, 0..m);
            prop_assert_eq!(
                space.admits_permutation_based_function(m),
                space.intersection(&low).is_trivial(),
                "n={} m={} space={}", n, m, &space
            );
        }
        // The packed check agrees with the subspace check everywhere.
        for m in 0..=n {
            prop_assert_eq!(
                packed.admits_permutation_based(m),
                space.admits_permutation_based_function(m)
            );
        }
    }

    #[test]
    fn packed_hyperplanes_match_subspace_hyperplanes_in_order(
        seed in any::<u64>(),
        n in 2usize..=12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = ((seed as usize) % n).clamp(1, 6);
        let packed = random::random_subspace(&mut rng, n, dim);
        let space = Subspace::from_packed(&packed);
        let reference = space.hyperplanes();
        let got: Vec<PackedBasis> = packed.hyperplanes().collect();
        prop_assert_eq!(got.len(), reference.len());
        prop_assert_eq!(packed.hyperplanes().len(), reference.len());
        for (i, (p, r)) in got.iter().zip(&reference).enumerate() {
            // Same subspace, same canonical rows, same enumeration position —
            // and already canonical without any re-elimination.
            prop_assert_eq!(p, &r.packed(), "hyperplane {}", i);
            prop_assert!(packed.contains_subspace(p));
            prop_assert_eq!(p.dim(), dim - 1);
        }
    }

    #[test]
    fn packed_extended_round_trips_through_hyperplanes(
        seed in any::<u64>(),
        n in 2usize..=12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = ((seed as usize) % n).clamp(1, 6);
        let packed = random::random_subspace(&mut rng, n, dim);
        let space = Subspace::from_packed(&packed);
        for hyper in packed.hyperplanes() {
            // Extending a hyperplane by any parent member outside it recovers
            // the parent exactly (the move the neighbourhood generator makes
            // with pool directions).
            let outside = packed
                .vectors()
                .find(|&v| !hyper.contains(v))
                .expect("a strict subspace misses some parent vector");
            prop_assert_eq!(hyper.extended(outside), packed.clone());
            // Extending by a hyperplane member (a non-zero one when the
            // hyperplane has any) changes nothing.
            let inside = hyper.vectors().find(|&v| v != 0).unwrap_or(0);
            prop_assert_eq!(hyper.extended(inside), hyper.clone());
        }
        // extended agrees with the Subspace-level construction on random
        // directions.
        for _ in 0..16 {
            let v = random::random_vector(&mut rng, n);
            prop_assert_eq!(
                Subspace::from_packed(&packed.extended(v.as_u64())),
                space.extended(v)
            );
        }
    }

    #[test]
    fn canonical_keys_are_injective_on_subspaces(
        seed in any::<u64>(),
        n in 2usize..=12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random::random_subspace(&mut rng, n, (seed as usize) % (n + 1));
        let b = random::random_subspace(&mut rng, n, (seed as usize / 7) % (n + 1));
        let ka = a.canonical_key();
        let kb = b.canonical_key();
        prop_assert_eq!(Subspace::from_packed(&a) == Subspace::from_packed(&b), ka == kb);
        prop_assert_eq!(ka.as_words()[0] as usize, n);
    }
}

/// Pins the matrices the library builds from a null space, column for
/// column, to the reference construction: every function the search
/// reports, and every digest of one, reads these columns. Kept outside the
/// `proptest!` macro (its expansion depth scales with statement count).
fn check_null_space_matrices(seed: u64, n: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for m in 0..=n {
        let packed = random::random_subspace(&mut rng, n, n - m);
        let space = Subspace::from_packed(&packed);
        let label = format!("n={n} m={m} space={space}");
        let h = BitMatrix::with_null_space(&packed);
        assert_eq!(&h, &reference::with_null_space(&space), "{}", label);
        // Eq. 5 decides whether the permutation-based form exists.
        let p = BitMatrix::permutation_based_with_null_space(&packed);
        assert_eq!(
            p.is_ok(),
            m > 0 && space.admits_permutation_based_function(m)
        );
        assert_eq!(
            &p,
            &reference::permutation_based_with_null_space(&space),
            "{}",
            label
        );
        // The null space read back from each matrix is the reference
        // kernel, and the space it was built from.
        for matrix in [h, p].into_iter().flatten() {
            assert_eq!(matrix.null_space(), reference::null_space(&matrix).packed());
            assert_eq!(matrix.null_space(), packed.clone());
        }
    }
    // Rank-deficient matrices too: the kernel of any matrix.
    let matrix = random::random_matrix(&mut rng, n, 1 + (seed as usize) % n);
    assert_eq!(matrix.kernel(), reference::kernel(&matrix).packed());
    assert_eq!(matrix.null_space(), reference::null_space(&matrix).packed());
}

proptest! {
    #[test]
    fn null_space_matrices_match_the_subspace_construction(
        seed in any::<u64>(),
        n in 1usize..=16,
    ) {
        check_null_space_matrices(seed, n);
    }
}
