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
//! Generation is *packed-native* and works in the parent's own
//! coordinates. Every pool direction is reduced once modulo the parent `P`
//! into its remainder and its coordinates over `P`'s rows; a hyperplane of
//! `P` is named by the functional `f` whose kernel it is. Two directions
//! give the same candidate under that hyperplane exactly when their
//! remainders and their parities under `f` agree, so deduplication is a
//! table lookup, and a set of `(hyperplane, direction)` lanes is produced
//! without building a single candidate basis. The evaluation engine prices
//! lanes as they are; a search builds the basis of a lane only when it
//! moves there, and [`PackedNeighborhood::generate`] is the same lanes with
//! every basis built. The [`Subspace`]-based
//! [`Neighborhood`] view remains as the public boundary representation,
//! converted from the packed form on demand.

use std::collections::HashSet;

use gf2::{BitVec, PackedBasis, Subspace};
use serde::{Deserialize, Serialize};

use crate::hasher::WordMap;
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
/// neighbourhood lane by lane: every retained hyperplane is a hyperplane of
/// one shared parent, so a lane's cost is its hyperplane's in-parent weight
/// plus one scan of its direction's remainder group (see
/// [`gf2::CosetHistogram`]).
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
/// hyperplane — the representation that flows through candidate generation
/// and pricing.
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
    /// given packed replacement-direction pool: the `(hyperplane, direction)`
    /// lanes the searches price, with every candidate basis built.
    ///
    /// For the bit-selecting class the neighbourhood is generated structurally
    /// (swap one selected address bit for an unselected one), which is both
    /// exact and far smaller.
    #[must_use]
    pub fn generate(parent: &PackedBasis, class: FunctionClass, pool: &[u64]) -> Self {
        NeighborLanes::generate(parent, class, pool).materialize()
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
    /// parent the per-lane evaluation path reduces against. `None` for an
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

/// A pool direction outside the parent, split once per parent into its
/// remainder modulo the parent and its coordinates over the parent's rows
/// ([`PackedBasis::decompose`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReducedDirection {
    /// The direction itself.
    pub(crate) vector: u64,
    /// Its remainder modulo the parent (non-zero for generated lanes).
    pub(crate) remainder: u64,
    /// Its coordinates over the parent's rows.
    pub(crate) coordinates: u64,
}

/// A neighbourhood as `(hyperplane, direction)` lanes over one parent,
/// before any candidate basis is built: what the searches generate each
/// step and the evaluation engine prices.
///
/// Lane `i` is the candidate `H ⊕ span(v)`, where `H` is the hyperplane
/// `parent.hyperplane(functionals[h])` and `v` is `directions[d].vector`
/// for `(h, d) = lanes[i]`. Lanes come in [`PackedNeighborhood::generate`]'s
/// order, and hyperplane indices count only the hyperplanes that keep a
/// lane, so [`NeighborLanes::materialize`] is that neighbourhood exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NeighborLanes {
    /// The parent every hyperplane is a hyperplane of.
    pub(crate) parent: PackedBasis,
    /// The functional of each retained hyperplane over the parent's rows.
    pub(crate) functionals: Vec<u64>,
    /// The directions the lanes extend by.
    pub(crate) directions: Vec<ReducedDirection>,
    /// `(hyperplane index, direction index)` per lane.
    pub(crate) lanes: Vec<(u32, u32)>,
}

impl NeighborLanes {
    /// The lanes of [`PackedNeighborhood::generate`]`(parent, class, pool)`.
    ///
    /// Hyperplanes come in increasing functional order and directions in
    /// pool order, as they always have. Under the hyperplane `H` of
    /// functional `f`, the directions `v, w ∉ P` give the same candidate
    /// exactly when `v ⊕ w ∈ H`, that is when their remainders modulo `P`
    /// agree and so do their parities `f · c`. Each distinct remainder gets a
    /// small index once per parent, so that test is one lookup in a table
    /// stamped with the current functional. Admissibility is a property of
    /// the candidate, so only the first direction of each key is checked.
    pub(crate) fn generate(parent: &PackedBasis, class: FunctionClass, pool: &[u64]) -> Self {
        if class == FunctionClass::BitSelecting {
            return Self::bit_select(parent);
        }
        let n = parent.width();
        let dim = parent.dim();
        // Reduce the pool once. Directions inside the parent never produce a
        // neighbour, whatever the hyperplane.
        let mut remainders: Vec<u64> = Vec::new();
        let mut directions = Vec::new();
        let mut keys: Vec<usize> = Vec::new();
        for &vector in pool {
            let (remainder, coordinates) = parent.decompose(vector);
            if remainder == 0 {
                continue;
            }
            let class_index = match remainders.iter().position(|&r| r == remainder) {
                Some(i) => i,
                None => {
                    remainders.push(remainder);
                    remainders.len() - 1
                }
            };
            keys.push(2 * class_index);
            directions.push(ReducedDirection {
                vector,
                remainder,
                coordinates,
            });
        }
        // `seen[key]` holds the functional under which `key` last appeared.
        let mut seen = vec![0u64; 2 * remainders.len()];
        let last = if dim >= 64 {
            u64::MAX
        } else {
            (1u64 << dim) - 1
        };
        let high_mask = u64::MAX.checked_shl((n - dim) as u32).unwrap_or(0);
        let mut functionals = Vec::new();
        let mut lanes = Vec::new();
        for f in 1..=last {
            // Eq. 5 for the permutation-based class: `H ⊕ span(v)` meets the
            // low bits `0..m` only in zero iff projecting `H` onto the high
            // bits keeps its rank and `v`'s projection falls outside it.
            let projected = match class {
                FunctionClass::PermutationBased { .. } => {
                    let mut projected = PackedBasis::trivial(n);
                    let hyperplane = parent.hyperplane(f);
                    if !hyperplane
                        .rows()
                        .iter()
                        .all(|&r| projected.insert(r & high_mask))
                    {
                        continue;
                    }
                    Some(projected)
                }
                _ => None,
            };
            let h = functionals.len() as u32;
            let mut fresh = 0usize;
            for (d, direction) in directions.iter().enumerate() {
                let key = keys[d] + ((f & direction.coordinates).count_ones() & 1) as usize;
                if seen[key] == f {
                    continue;
                }
                seen[key] = f;
                fresh += 1;
                let admissible = projected
                    .as_ref()
                    .map_or(true, |p| p.reduce(direction.vector & high_mask) != 0);
                if admissible {
                    lanes.push((h, d as u32));
                }
                if fresh == seen.len() {
                    // Every key is taken: the rest of the pool repeats them.
                    break;
                }
            }
            if lanes.last().is_some_and(|&(last_h, _)| last_h == h) {
                functionals.push(f);
            }
        }
        NeighborLanes {
            parent: parent.clone(),
            functionals,
            directions,
            lanes,
        }
    }

    /// Structural lanes for bit-selecting functions: the null space is a
    /// coordinate subspace `span{e_i : i ∉ S}`; a neighbour swaps one
    /// excluded bit for one selected bit. Dropping the excluded bit of row
    /// `k` is the hyperplane of functional `1 << k`, and the direction is the
    /// newly excluded unit vector, which the parent leaves unreduced.
    fn bit_select(parent: &PackedBasis) -> Self {
        let mut lanes = NeighborLanes {
            parent: parent.clone(),
            functionals: Vec::new(),
            directions: Vec::new(),
            lanes: Vec::new(),
        };
        if !parent.is_coordinate_subspace() {
            // Not a coordinate subspace: no structural neighbours.
            return lanes;
        }
        let excluded = parent.rows().iter().fold(0u64, |acc, &r| acc | r);
        lanes.directions = (0..parent.width())
            .map(|bit| 1u64 << bit)
            .filter(|&unit| excluded & unit == 0)
            .map(|unit| ReducedDirection {
                vector: unit,
                remainder: unit,
                coordinates: 0,
            })
            .collect();
        lanes.functionals = (0..parent.dim()).map(|k| 1u64 << k).collect();
        lanes.lanes = (0..parent.dim() as u32)
            .flat_map(|h| (0..lanes.directions.len() as u32).map(move |d| (h, d)))
            .collect();
        lanes
    }

    /// The lanes of a materialized neighbourhood over the parent it
    /// reconstructs ([`PackedNeighborhood::parent_span`]); `None` when it is
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if a retained hyperplane is not a hyperplane of that parent, or
    /// a lane's direction has bits outside the ambient width or lies inside
    /// its hyperplane.
    pub(crate) fn of(neighborhood: &PackedNeighborhood) -> Option<Self> {
        let parent = neighborhood.parent_span()?;
        Some(Self::over(
            parent,
            &neighborhood.hyperplanes,
            neighborhood
                .candidates
                .iter()
                .map(|c| (c.hyperplane, c.direction)),
        ))
    }

    /// Lanes `hyperplanes[h] ⊕ span(direction)` over `parent`, in the given
    /// order.
    ///
    /// # Panics
    ///
    /// As [`NeighborLanes::of`].
    pub(crate) fn over(
        parent: PackedBasis,
        hyperplanes: &[PackedBasis],
        lanes: impl IntoIterator<Item = (usize, u64)>,
    ) -> Self {
        let functionals: Vec<u64> = hyperplanes
            .iter()
            .map(|h| parent.hyperplane_functional(h))
            .collect();
        let low_mask = u64::MAX >> (64 - parent.width());
        // Lanes share a few pool directions: reduce each distinct one once.
        let mut index: WordMap<u64, u32> = WordMap::default();
        let mut directions: Vec<ReducedDirection> = Vec::new();
        let lanes = lanes
            .into_iter()
            .map(|(h, vector)| {
                let d = *index.entry(vector).or_insert_with(|| {
                    assert_eq!(
                        vector & !low_mask,
                        0,
                        "direction {vector:#x} exceeds the ambient width"
                    );
                    let (remainder, coordinates) = parent.decompose(vector);
                    directions.push(ReducedDirection {
                        vector,
                        remainder,
                        coordinates,
                    });
                    directions.len() as u32 - 1
                });
                // The direction lies in its hyperplane when it is in the
                // parent and the functional vanishes on it.
                let direction = &directions[d as usize];
                assert!(
                    direction.remainder != 0
                        || (functionals[h] & direction.coordinates).count_ones() % 2 == 1,
                    "direction {vector:#x} lies inside its hyperplane"
                );
                (h as u32, d)
            })
            .collect();
        NeighborLanes {
            parent,
            functionals,
            directions,
            lanes,
        }
    }

    /// Number of lanes.
    pub(crate) fn len(&self) -> usize {
        self.lanes.len()
    }

    /// `true` when there are no lanes.
    pub(crate) fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The candidate basis of lane `i`, canonical.
    pub(crate) fn basis(&self, i: usize) -> PackedBasis {
        let (h, d) = self.lanes[i];
        extend(
            &self.parent.hyperplane(self.functionals[h as usize]),
            self.directions[d as usize].vector,
        )
    }

    /// The neighbourhood with every hyperplane and candidate basis built.
    pub(crate) fn materialize(&self) -> PackedNeighborhood {
        let hyperplanes: Vec<PackedBasis> = self
            .functionals
            .iter()
            .map(|&f| self.parent.hyperplane(f))
            .collect();
        let candidates = self
            .lanes
            .iter()
            .map(|&(h, d)| {
                let direction = self.directions[d as usize].vector;
                PackedCandidate {
                    hyperplane: h as usize,
                    direction,
                    basis: extend(&hyperplanes[h as usize], direction),
                }
            })
            .collect();
        PackedNeighborhood {
            width: self.parent.width(),
            hyperplanes,
            candidates,
        }
    }
}

/// `hyperplane ⊕ span(direction)` for a direction outside the hyperplane, in
/// one allocation.
fn extend(hyperplane: &PackedBasis, direction: u64) -> PackedBasis {
    hyperplane.extended_reduced(hyperplane.reduce(direction))
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
        // engine's per-lane pricing relies on.
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
