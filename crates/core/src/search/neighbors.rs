//! Neighbourhood generation over null spaces.
//!
//! The paper defines two null spaces as neighbours when they differ in exactly
//! one dimension: the dimension of their intersection is one less than their
//! own dimension. A neighbour of `N` is therefore obtained by choosing a
//! hyperplane `M ⊂ N` and a replacement direction `v ∉ N`, giving
//! `N' = M ⊕ span(v)`.
//!
//! Enumerating every possible replacement direction (`2^n − 2^d` of them) is
//! unnecessary; a pool of low-weight directions (standard basis vectors and
//! their pairwise XORs) already reaches the functions the hardware can afford
//! (small fan-in) while keeping each hill-climbing step fast. The pool is
//! configurable through [`NeighborPool`].
//!
//! Generation is *packed-native*: [`PackedNeighborhood::generate`] works
//! entirely on [`PackedBasis`] word arithmetic — incremental hyperplane
//! enumeration, one-allocation extensions and per-hyperplane deduplication
//! on coset representatives (reduced directions) — so no heap-allocated
//! [`Subspace`], no hashed basis key and no full Gaussian elimination
//! appears anywhere on the search hot path. The [`Subspace`]-based
//! [`Neighborhood`] view remains as the public boundary representation,
//! converted from the packed form on demand.

use std::collections::HashSet;

use gf2::{BitVec, PackedBasis, Subspace};
use serde::{Deserialize, Serialize};

use crate::{ConflictProfile, FunctionClass};

/// The pool of replacement directions used to build neighbours.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum NeighborPool {
    /// Standard basis vectors only (`n` directions). Fastest, coarsest.
    Units,
    /// Standard basis vectors and all pairwise XORs
    /// (`n + n(n−1)/2` directions). The default.
    #[default]
    UnitsAndPairs,
    /// `UnitsAndPairs` plus the `k` heaviest conflict vectors of the profile,
    /// which lets the search explicitly steer the null space around them.
    UnitsPairsAndProfile(usize),
    /// An explicit list of directions.
    Custom(Vec<BitVec>),
}

impl NeighborPool {
    /// Materializes the pool for `n` hashed address bits.
    ///
    /// Directions are deduplicated (first occurrence wins) and the zero
    /// vector is dropped.
    #[must_use]
    pub fn vectors(&self, n: usize, profile: &ConflictProfile) -> Vec<BitVec> {
        let mut out: Vec<BitVec> = Vec::new();
        let mut seen: HashSet<BitVec> = HashSet::new();
        let mut push_unique = |v: BitVec, out: &mut Vec<BitVec>| {
            if !v.is_zero() && seen.insert(v) {
                out.push(v);
            }
        };
        match self {
            NeighborPool::Custom(vectors) => {
                for &v in vectors {
                    push_unique(v, &mut out);
                }
            }
            NeighborPool::Units => {
                for i in 0..n {
                    out.push(BitVec::unit(i, n));
                }
            }
            NeighborPool::UnitsAndPairs | NeighborPool::UnitsPairsAndProfile(_) => {
                for i in 0..n {
                    push_unique(BitVec::unit(i, n), &mut out);
                }
                for i in 0..n {
                    for j in (i + 1)..n {
                        push_unique(BitVec::unit(i, n) ^ BitVec::unit(j, n), &mut out);
                    }
                }
                if let NeighborPool::UnitsPairsAndProfile(k) = self {
                    for (v, _) in profile.heaviest(*k) {
                        push_unique(v, &mut out);
                    }
                }
            }
        }
        out
    }

    /// Materializes the pool as packed `u64` directions, the form the
    /// packed-native search algorithms consume. Same contents and order as
    /// [`NeighborPool::vectors`].
    #[must_use]
    pub fn packed_vectors(&self, n: usize, profile: &ConflictProfile) -> Vec<u64> {
        self.vectors(n, profile)
            .iter()
            .map(|v| v.as_u64())
            .collect()
    }
}

/// A candidate null space of a packed neighbourhood, together with its
/// decomposition `candidate = hyperplane ⊕ span(direction)`.
///
/// The decomposition is what lets the evaluation engine price a whole
/// neighbourhood in coset-sliced blocks: every retained hyperplane is a
/// hyperplane of one shared parent, so one parent reduction per histogram
/// entry answers membership for 64 candidates at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedCandidate {
    /// Index into [`PackedNeighborhood::hyperplanes`] of the retained
    /// hyperplane.
    pub hyperplane: usize,
    /// The packed replacement direction `v ∉ parent`.
    pub direction: u64,
    /// The candidate null space `hyperplane ⊕ span(direction)`, canonical.
    pub basis: PackedBasis,
}

/// The full neighbourhood of a null space in packed form, grouped by retained
/// hyperplane — the representation that flows through candidate generation,
/// pricing and all four search algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedNeighborhood {
    /// Ambient width of the hashed address space.
    pub width: usize,
    /// The distinct hyperplanes of the parent that candidates retain.
    pub hyperplanes: Vec<PackedBasis>,
    /// The admissible candidates, in deterministic generation order.
    pub candidates: Vec<PackedCandidate>,
}

impl PackedNeighborhood {
    /// Generates the neighbours of `parent` admissible for `class`, using the
    /// given packed replacement-direction pool.
    ///
    /// For the bit-selecting class the neighbourhood is generated structurally
    /// (swap one selected address bit for an unselected one), which is both
    /// exact and far smaller.
    #[must_use]
    pub fn generate(parent: &PackedBasis, class: FunctionClass, pool: &[u64]) -> Self {
        let n = parent.width();
        let m = n - parent.dim();
        if class == FunctionClass::BitSelecting {
            return Self::bit_select(parent);
        }
        // Directions inside the parent span never produce a neighbour, and
        // the test does not depend on the hyperplane — filter the pool once
        // instead of once per hyperplane.
        let pool: Vec<u64> = pool
            .iter()
            .copied()
            .filter(|&v| !parent.contains(v))
            .collect();
        // With every direction outside the parent P, a candidate
        // `H ⊕ span(v)` meets P in exactly H, so candidates of distinct
        // hyperplanes never coincide; within one hyperplane, two directions
        // give the same candidate iff they differ by a member of H, i.e.
        // iff they reduce to the same coset representative. Duplicates are
        // therefore found per hyperplane, on reduced directions.
        let mut cosets = CosetSet::with_room_for(pool.len());
        let mut hyperplanes = Vec::new();
        let mut candidates = Vec::new();
        for hyperplane in parent.hyperplanes() {
            let hyperplane_index = hyperplanes.len();
            let mut used = false;
            cosets.clear();
            for &v in &pool {
                let remainder = hyperplane.reduce(v);
                // Only the first direction of each coset builds a basis
                // (and is checked for admissibility, a property of the
                // candidate shared by the whole coset).
                if !cosets.insert(remainder) {
                    continue;
                }
                let candidate = hyperplane.extended_reduced(remainder);
                debug_assert_eq!(candidate.dim(), parent.dim());
                // candidate contains v and parent does not (the pool is
                // pre-filtered), so candidate can never equal parent.
                debug_assert_ne!(&candidate, parent);
                if Self::admissible(&candidate, class, m) {
                    candidates.push(PackedCandidate {
                        hyperplane: hyperplane_index,
                        direction: v,
                        basis: candidate,
                    });
                    used = true;
                }
            }
            if used {
                hyperplanes.push(hyperplane);
            }
        }
        PackedNeighborhood {
            width: n,
            hyperplanes,
            candidates,
        }
    }

    /// Cheap admissibility pre-filter. The permutation-based structural
    /// condition (Eq. 5) is checked here; fan-in bounds are cheaper to check
    /// on the chosen candidate only, so they are left to the caller via
    /// [`FunctionClass::admits`].
    fn admissible(candidate: &PackedBasis, class: FunctionClass, m: usize) -> bool {
        match class {
            FunctionClass::BitSelecting => candidate.is_coordinate_subspace(),
            FunctionClass::Xor { .. } => true,
            FunctionClass::PermutationBased { .. } => candidate.admits_permutation_based(m),
        }
    }

    /// Structural neighbourhood for bit-selecting functions: the null space is
    /// a coordinate subspace `span{e_i : i ∉ S}`; a neighbour swaps one
    /// excluded bit for one selected bit. The retained hyperplane is the span
    /// of the excluded bits minus the dropped one, and the direction is the
    /// newly excluded unit vector.
    fn bit_select(parent: &PackedBasis) -> Self {
        let n = parent.width();
        if !parent.is_coordinate_subspace() {
            // Not a coordinate subspace: no structural neighbours.
            return PackedNeighborhood {
                width: n,
                hyperplanes: Vec::new(),
                candidates: Vec::new(),
            };
        }
        // Canonical rows are sorted by decreasing pivot, so the excluded bits
        // come out in decreasing order (the order the Subspace path produced).
        let excluded: Vec<usize> = parent
            .rows()
            .iter()
            .map(|r| r.trailing_zeros() as usize)
            .collect();
        let selected: Vec<usize> = (0..n).filter(|i| !excluded.contains(i)).collect();
        let mut hyperplanes = Vec::new();
        let mut candidates = Vec::new();
        for &drop in &excluded {
            let retained: Vec<usize> = excluded.iter().copied().filter(|&b| b != drop).collect();
            let hyperplane_index = hyperplanes.len();
            hyperplanes.push(PackedBasis::standard_span(n, retained.iter().copied()));
            for &add in &selected {
                let mut new_excluded = retained.clone();
                new_excluded.push(add);
                candidates.push(PackedCandidate {
                    hyperplane: hyperplane_index,
                    direction: 1u64 << add,
                    basis: PackedBasis::standard_span(n, new_excluded),
                });
            }
        }
        PackedNeighborhood {
            width: n,
            hyperplanes,
            candidates,
        }
    }

    /// Number of candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// `true` when there are no candidates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Borrowing iterator over the candidate bases, in generation order.
    pub fn bases(&self) -> impl Iterator<Item = &PackedBasis> {
        self.candidates.iter().map(|c| &c.basis)
    }

    /// A subspace every retained hyperplane is a hyperplane *of* — the shared
    /// parent the coset-sliced evaluation path reduces against. `None` for an
    /// empty neighbourhood.
    ///
    /// The parent is reconstructed rather than stored: two distinct
    /// hyperplanes of it sum to it, and when only one hyperplane was
    /// retained, any candidate (`hyperplane ⊕ span(direction)`) serves — the
    /// decomposition identities only need the hyperplanes to sit one
    /// dimension below the returned span, which that candidate satisfies.
    #[must_use]
    pub fn parent_span(&self) -> Option<PackedBasis> {
        if self.candidates.is_empty() {
            return None;
        }
        if self.hyperplanes.len() >= 2 {
            let mut parent = self.hyperplanes[0].clone();
            for &row in self.hyperplanes[1].rows() {
                parent.insert(row);
            }
            debug_assert_eq!(parent.dim(), self.hyperplanes[0].dim() + 1);
            Some(parent)
        } else {
            Some(self.candidates[0].basis.clone())
        }
    }

    /// Converts to the [`Subspace`]-based boundary view, preserving order and
    /// decomposition. The packed bases are already canonical, so this is pure
    /// unpacking.
    #[must_use]
    pub fn to_neighborhood(&self) -> Neighborhood {
        Neighborhood {
            hyperplanes: self
                .hyperplanes
                .iter()
                .map(PackedBasis::to_subspace)
                .collect(),
            candidates: self
                .candidates
                .iter()
                .map(|c| NeighborCandidate {
                    hyperplane: c.hyperplane,
                    direction: BitVec::from_u64(c.direction, self.width),
                    subspace: c.basis.to_subspace(),
                })
                .collect(),
        }
    }
}

/// The coset representatives (directions reduced modulo one hyperplane) seen
/// so far while extending that hyperplane: a set of non-zero words, open
/// addressed with linear probing in a power-of-two table at most half full,
/// with zero marking an empty slot. Cleared once per hyperplane.
struct CosetSet {
    slots: Vec<u64>,
    shift: u32,
}

impl CosetSet {
    /// A set with room for `len` representatives.
    fn with_room_for(len: usize) -> Self {
        let slots = (2 * len).next_power_of_two().max(2);
        CosetSet {
            slots: vec![0; slots],
            shift: 64 - slots.trailing_zeros(),
        }
    }

    fn clear(&mut self) {
        self.slots.fill(0);
    }

    /// Adds the non-zero `key`; `false` when it was already present.
    fn insert(&mut self, key: u64) -> bool {
        debug_assert_ne!(key, 0, "zero marks an empty slot");
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the high bits of the product mix every key bit.
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            match self.slots[i] {
                0 => {
                    self.slots[i] = key;
                    return true;
                }
                seen if seen == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }
}

/// A candidate null space of a neighbourhood at the [`Subspace`] boundary,
/// together with its decomposition `candidate = hyperplane ⊕ span(direction)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborCandidate {
    /// Index into [`Neighborhood::hyperplanes`] of the retained hyperplane.
    pub hyperplane: usize,
    /// The replacement direction `v ∉ parent`.
    pub direction: BitVec,
    /// The candidate null space `hyperplane ⊕ span(direction)`, canonical.
    pub subspace: Subspace,
}

/// The full neighbourhood of a null space, grouped by retained hyperplane —
/// the [`Subspace`]-based boundary view of a [`PackedNeighborhood`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Neighborhood {
    /// The distinct hyperplanes of the parent that candidates retain.
    pub hyperplanes: Vec<Subspace>,
    /// The admissible candidates, in deterministic generation order.
    pub candidates: Vec<NeighborCandidate>,
}

impl Neighborhood {
    /// Number of candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// `true` when there are no candidates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Borrowing iterator over the candidate subspaces, in generation order.
    /// Prefer this over [`Neighborhood::subspaces`] when a reference is
    /// enough.
    pub fn iter_subspaces(&self) -> impl Iterator<Item = &Subspace> {
        self.candidates.iter().map(|c| &c.subspace)
    }

    /// The candidate subspaces alone, cloned, in generation order.
    #[must_use]
    pub fn subspaces(&self) -> Vec<Subspace> {
        self.iter_subspaces().cloned().collect()
    }

    /// The candidates re-packed into [`PackedBasis`] form, in generation
    /// order — the entry point for feeding a boundary neighbourhood back to
    /// the packed evaluation kernel (e.g. a serving layer that received the
    /// `Subspace` view).
    pub fn packed_candidates(&self) -> impl Iterator<Item = PackedBasis> + '_ {
        self.candidates
            .iter()
            .map(|c| PackedBasis::from_subspace(&c.subspace))
    }
}

/// Generates the neighbours of `null_space` admissible for `class`, using the
/// given replacement-direction pool.
///
/// Boundary convenience over [`PackedNeighborhood::generate`].
#[must_use]
pub fn neighbors(null_space: &Subspace, class: FunctionClass, pool: &[BitVec]) -> Vec<Subspace> {
    let packed_pool: Vec<u64> = pool.iter().map(|v| v.as_u64()).collect();
    PackedNeighborhood::generate(&null_space.to_packed(), class, &packed_pool)
        .candidates
        .iter()
        .map(|c| c.basis.to_subspace())
        .collect()
}

/// Generates the neighbourhood of `null_space` with its hyperplane/direction
/// structure preserved.
///
/// Candidates appear in the same deterministic order as [`neighbors`]
/// produces. Boundary convenience over [`PackedNeighborhood::generate`];
/// packed-native callers should use that directly and skip the `Subspace`
/// round-trip.
#[must_use]
pub fn neighborhood(null_space: &Subspace, class: FunctionClass, pool: &[BitVec]) -> Neighborhood {
    let packed_pool: Vec<u64> = pool.iter().map(|v| v.as_u64()).collect();
    PackedNeighborhood::generate(&null_space.to_packed(), class, &packed_pool).to_neighborhood()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::BlockAddr;

    fn dummy_profile(n: usize) -> ConflictProfile {
        ConflictProfile::from_blocks((0..10u64).map(|i| BlockAddr((i % 2) * 16)), n, 64)
    }

    #[test]
    fn pool_sizes() {
        let p = dummy_profile(8);
        assert_eq!(NeighborPool::Units.vectors(8, &p).len(), 8);
        assert_eq!(NeighborPool::UnitsAndPairs.vectors(8, &p).len(), 8 + 28);
        let with_profile = NeighborPool::UnitsPairsAndProfile(4).vectors(8, &p);
        assert!(with_profile.len() >= 8 + 28);
        let custom = NeighborPool::Custom(vec![
            BitVec::from_u64(0b101, 8),
            BitVec::from_u64(0b101, 8),
            BitVec::zero(8),
        ]);
        assert_eq!(custom.vectors(8, &p).len(), 1);
        assert_eq!(NeighborPool::default(), NeighborPool::UnitsAndPairs);
    }

    #[test]
    fn pool_deduplication_preserves_first_occurrence_order() {
        let p = dummy_profile(8);
        let custom = NeighborPool::Custom(vec![
            BitVec::from_u64(0b1000, 8),
            BitVec::from_u64(0b0001, 8),
            BitVec::from_u64(0b1000, 8),
            BitVec::from_u64(0b0110, 8),
            BitVec::from_u64(0b0001, 8),
        ]);
        let got = custom.vectors(8, &p);
        assert_eq!(
            got,
            vec![
                BitVec::from_u64(0b1000, 8),
                BitVec::from_u64(0b0001, 8),
                BitVec::from_u64(0b0110, 8),
            ]
        );
    }

    #[test]
    fn packed_pool_matches_bitvec_pool() {
        let p = dummy_profile(8);
        for pool in [
            NeighborPool::Units,
            NeighborPool::UnitsAndPairs,
            NeighborPool::UnitsPairsAndProfile(4),
        ] {
            let bitvecs: Vec<u64> = pool.vectors(8, &p).iter().map(|v| v.as_u64()).collect();
            assert_eq!(pool.packed_vectors(8, &p), bitvecs);
        }
    }

    #[test]
    fn neighbors_differ_in_exactly_one_dimension() {
        let p = dummy_profile(8);
        let ns = Subspace::standard_span(8, 3..8);
        let pool = NeighborPool::UnitsAndPairs.vectors(8, &p);
        let nbrs = neighbors(&ns, FunctionClass::xor_unlimited(), &pool);
        assert!(!nbrs.is_empty());
        for nb in &nbrs {
            assert_eq!(nb.dim(), ns.dim());
            assert_eq!(ns.intersection_dim(nb), ns.dim() - 1, "neighbour {nb}");
            assert_ne!(*nb, ns);
        }
        // No duplicates.
        let distinct: HashSet<_> = nbrs.iter().cloned().collect();
        assert_eq!(distinct.len(), nbrs.len());
    }

    #[test]
    fn permutation_based_neighbors_satisfy_eq5() {
        let p = dummy_profile(8);
        let m = 3;
        let ns = Subspace::standard_span(8, m..8);
        let pool = NeighborPool::UnitsAndPairs.vectors(8, &p);
        let nbrs = neighbors(&ns, FunctionClass::permutation_based_unlimited(), &pool);
        assert!(!nbrs.is_empty());
        for nb in &nbrs {
            assert!(nb.admits_permutation_based_function(m));
        }
        // The permutation-based neighbourhood is a subset of the general one.
        let general = neighbors(&ns, FunctionClass::xor_unlimited(), &pool);
        assert!(nbrs.len() <= general.len());
    }

    #[test]
    fn bit_select_neighbors_swap_one_bit() {
        let ns = Subspace::standard_span(8, [3usize, 4, 5, 6, 7]);
        let nbrs = neighbors(&ns, FunctionClass::bit_selecting(), &[]);
        // 5 excluded bits × 3 selected bits = 15 swaps.
        assert_eq!(nbrs.len(), 15);
        for nb in &nbrs {
            assert_eq!(nb.dim(), 5);
            assert!(nb.basis().iter().all(|b| b.weight() == 1));
            assert_eq!(ns.intersection_dim(nb), 4);
        }
    }

    #[test]
    fn bit_select_of_a_non_coordinate_subspace_is_empty() {
        let parent =
            PackedBasis::from_subspace(&Subspace::from_generators(8, &[BitVec::from_u64(0b11, 8)]));
        let nbhd = PackedNeighborhood::generate(&parent, FunctionClass::bit_selecting(), &[]);
        assert!(nbhd.is_empty());
        assert!(nbhd.hyperplanes.is_empty());
    }

    #[test]
    fn neighborhood_decomposition_is_consistent() {
        // Every candidate must equal its hyperplane extended by its direction,
        // with the direction outside the hyperplane — the invariant the
        // engine's coset-sliced pricing relies on.
        let p = dummy_profile(8);
        let pool = NeighborPool::UnitsAndPairs.vectors(8, &p);
        for (ns, class) in [
            (
                Subspace::standard_span(8, 3..8),
                FunctionClass::xor_unlimited(),
            ),
            (
                Subspace::standard_span(8, 3..8),
                FunctionClass::permutation_based_unlimited(),
            ),
            (
                Subspace::standard_span(8, [3usize, 4, 5, 6, 7]),
                FunctionClass::bit_selecting(),
            ),
        ] {
            let nbhd = neighborhood(&ns, class, &pool);
            assert!(!nbhd.is_empty(), "{class}");
            assert_eq!(nbhd.len(), nbhd.candidates.len());
            for c in &nbhd.candidates {
                let hyperplane = &nbhd.hyperplanes[c.hyperplane];
                assert_eq!(hyperplane.dim(), ns.dim() - 1);
                assert!(ns.contains_subspace(hyperplane));
                assert!(!hyperplane.contains(c.direction), "{class}");
                assert_eq!(hyperplane.extended(c.direction), c.subspace, "{class}");
            }
            // The flat views match the structured view, in order.
            assert_eq!(nbhd.subspaces(), neighbors(&ns, class, &pool));
            let borrowed: Vec<&Subspace> = nbhd.iter_subspaces().collect();
            assert_eq!(borrowed.len(), nbhd.len());
            let repacked: Vec<Subspace> =
                nbhd.packed_candidates().map(|b| b.to_subspace()).collect();
            assert_eq!(repacked, nbhd.subspaces());
        }
    }

    #[test]
    fn packed_and_boundary_views_agree() {
        let p = dummy_profile(8);
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(8, &p);
        let parent = PackedBasis::standard_span(8, 3..8);
        for class in [
            FunctionClass::xor_unlimited(),
            FunctionClass::permutation_based_unlimited(),
        ] {
            let packed = PackedNeighborhood::generate(&parent, class, &pool);
            assert_eq!(packed.width, 8);
            let view = packed.to_neighborhood();
            assert_eq!(view.len(), packed.len());
            assert_eq!(view.hyperplanes.len(), packed.hyperplanes.len());
            for (pc, vc) in packed.candidates.iter().zip(&view.candidates) {
                assert_eq!(pc.hyperplane, vc.hyperplane);
                assert_eq!(pc.direction, vc.direction.as_u64());
                assert_eq!(pc.basis.to_subspace(), vc.subspace);
            }
            for (b, _) in packed.bases().zip(packed.candidates.iter()) {
                assert_eq!(b.width(), 8);
            }
        }
    }

    #[test]
    fn pool_vectors_never_contain_zero() {
        let p = dummy_profile(10);
        for pool in [
            NeighborPool::Units,
            NeighborPool::UnitsAndPairs,
            NeighborPool::UnitsPairsAndProfile(8),
        ] {
            assert!(pool.vectors(10, &p).iter().all(|v| !v.is_zero()));
        }
    }
}
