//! The remainder-grouped histogram a neighbourhood of one parent is priced
//! from, one lane at a time.
//!
//! Neighbours `hyperplane ⊕ span(direction)` of one parent `P` share most of
//! their Eq. 4 work. A conflict vector lies in such a neighbour only if its
//! remainder modulo `P` is 0 or the direction's, and then one parity over
//! `P`'s coordinates decides. A [`CosetHistogram`] groups the histogram by
//! that remainder once per parent, so a lane costs its hyperplane's
//! in-parent weight (shared by all of that hyperplane's lanes) plus one
//! [`parity_weight`] scan of a single group — the handful of entries that can
//! possibly lie in it, instead of a test of every entry.

use crate::PackedBasis;

/// A weighted histogram grouped by remainder modulo one parent subspace `P`,
/// in one flat array: what pricing a neighbourhood of `P` reads.
///
/// Every entry `(v, w)` is stored as `(c(v), w)`, where `c(v)` is `v`'s
/// coordinate vector over `P`'s rows ([`PackedBasis::decompose`]), and the
/// entries sharing a remainder `reduce_P(v)` sit together, the in-parent
/// group (remainder 0) first. A neighbour of `P` is a hyperplane
/// `H_f = {x ∈ P : f · c(x) = 0}` extended by a direction `d ∉ H_f`, and
///
/// ```text
/// v ∈ H_f        ⟺  reduce_P(v) = 0             and  f · c(v) = 0
/// v ∈ H_f ⊕ d    ⟺  reduce_P(v) = reduce_P(d)   and  f · c(v) = f · c(d)
/// ```
///
/// So the lane's Eq. 4 cost is the hyperplane's in-parent weight, shared by
/// every lane of that hyperplane, plus one [`parity_weight`] scan of its
/// direction's remainder group. A direction inside `P` has remainder 0 and
/// parity 1, so its lane rescans the in-parent group for the other parity:
/// that candidate is `P` itself.
///
/// # Example
///
/// ```
/// use gf2::{CosetHistogram, PackedBasis};
///
/// let parent = PackedBasis::standard_span(8, [0usize, 1]);
/// let entries = [(0b0000_0001, 5), (0b0000_0010, 7), (0b0001_0001, 3)];
/// let histogram = CosetHistogram::new(&parent, entries);
///
/// // Rows run by decreasing pivot, so functional 0b01 weighs row 0 = e_1:
/// // its hyperplane is span{e_0}, and this lane is span{e_0, e_4}.
/// assert_eq!(histogram.lane_weight(0b01, 1 << 4, u64::MAX), 5 + 3);
/// // e_1 lies in the parent, outside the hyperplane: the parent itself.
/// assert_eq!(histogram.lane_weight(0b01, 0b10, u64::MAX), 5 + 7);
/// // Bounded: the scan stops once the running sum reaches the bound.
/// assert!(histogram.lane_weight(0b01, 1 << 4, 6) >= 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CosetHistogram {
    parent: PackedBasis,
    /// `(c, w)` per entry, grouped by ascending remainder.
    entries: Vec<(u64, u64)>,
    /// `(remainder, start)` per distinct remainder, ascending: a group runs
    /// from its start to the next group's.
    groups: Vec<(u64, usize)>,
}

impl CosetHistogram {
    /// Groups weighted entries by their remainder modulo `parent`.
    #[must_use]
    pub fn new(parent: &PackedBasis, entries: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut tagged: Vec<(u64, u64, u64)> = entries
            .into_iter()
            .map(|(v, w)| {
                let (remainder, c) = parent.decompose(v);
                (remainder, c, w)
            })
            .collect();
        tagged.sort_unstable_by_key(|&(remainder, _, _)| remainder);
        let mut groups: Vec<(u64, usize)> = Vec::new();
        let mut entries = Vec::with_capacity(tagged.len());
        for (remainder, c, w) in tagged {
            if groups.last().map(|&(last, _)| last) != Some(remainder) {
                groups.push((remainder, entries.len()));
            }
            entries.push((c, w));
        }
        CosetHistogram {
            parent: parent.clone(),
            entries,
            groups,
        }
    }

    /// The parent the entries are grouped over.
    #[must_use]
    pub fn parent(&self) -> &PackedBasis {
        &self.parent
    }

    /// The `(c, w)` entries whose remainder is `remainder`; empty when none.
    /// Remainder 0 is the in-parent group.
    #[must_use]
    pub fn group(&self, remainder: u64) -> &[(u64, u64)] {
        match self.groups.binary_search_by_key(&remainder, |&(r, _)| r) {
            Ok(i) => {
                let end = self
                    .groups
                    .get(i + 1)
                    .map_or(self.entries.len(), |&(_, s)| s);
                &self.entries[self.groups[i].1..end]
            }
            Err(_) => &[],
        }
    }

    /// The Eq. 4 weight of one lane `H_f ⊕ span(direction)` under a bound:
    /// exact when below `bound`, otherwise some sum `≥ bound` (the scan stops
    /// there). `bound = u64::MAX` prices exactly. A caller pricing many lanes
    /// of one hyperplane hoists the shared in-parent term instead (see the
    /// type docs).
    ///
    /// # Panics
    ///
    /// Panics if `direction` has bits outside the ambient width or lies
    /// inside the hyperplane.
    #[must_use]
    pub fn lane_weight(&self, functional: u64, direction: u64, bound: u64) -> u64 {
        assert_eq!(
            direction & !mask_low(self.parent.width()),
            0,
            "direction {direction:#x} exceeds the ambient width"
        );
        let (remainder, c) = self.parent.decompose(direction);
        let parity = (functional & c).count_ones() & 1;
        assert!(
            remainder != 0 || parity == 1,
            "direction {direction:#x} lies inside its hyperplane"
        );
        let base = parity_weight(self.group(0), functional, 0, 0, bound);
        parity_weight(self.group(remainder), functional, parity, base, bound)
    }
}

/// `start` plus the weights of the `(c, w)` entries of `group` whose parity
/// `functional · c` equals `parity`, stopping as soon as the running sum
/// reaches `bound` — one lane's scan of one [`CosetHistogram`] group. Sums
/// are monotone, so a result below `bound` is exact and one at or above it
/// only says the true sum is at least `bound`.
#[must_use]
pub fn parity_weight(
    group: &[(u64, u64)],
    functional: u64,
    parity: u32,
    start: u64,
    bound: u64,
) -> u64 {
    let mut sum = start;
    if sum >= bound {
        return sum;
    }
    for &(c, w) in group {
        let matches = u64::from(((functional & c).count_ones() & 1) ^ parity ^ 1);
        sum += w & matches.wrapping_neg();
        if sum >= bound {
            break;
        }
    }
    sum
}

/// Mask with the low `bits` bits set (`bits ≤ 64`).
fn mask_low(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every seventh `(functional, direction)` lane of `parent`, including
    /// directions inside the parent (whose candidate is the parent itself).
    fn lanes_of(parent: &PackedBasis) -> Vec<(u64, u64)> {
        let width = parent.width();
        (1..(1u64 << parent.dim()))
            .flat_map(|f| {
                let hyperplane = parent.hyperplane(f);
                (1..(1u64 << width))
                    .filter(move |&d| !hyperplane.contains(d))
                    .step_by(7)
                    .map(move |d| (f, d))
            })
            .collect()
    }

    /// A synthetic weighted histogram over every vector of `width` bits, so
    /// the in-parent group and every coset group are exercised.
    fn every_vector(width: usize) -> Vec<(u64, u64)> {
        (0..(1u64 << width)).map(|v| (v, v % 7 + 1)).collect()
    }

    /// Random parents of every dimension up to 5 in GF(2)^9, with their
    /// lanes and grouped histograms.
    fn cases(seed: u64) -> Vec<(CosetHistogram, Vec<(u64, u64)>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (1..=5)
            .map(|dim| {
                let parent = random::random_subspace(&mut rng, 9, dim);
                let histogram = CosetHistogram::new(&parent, every_vector(9));
                let lanes = lanes_of(&parent);
                (histogram, lanes)
            })
            .collect()
    }

    #[test]
    fn coset_block_matches_contains_over_every_hyperplane_and_direction() {
        let entries = every_vector(9);
        for (histogram, lanes) in cases(0xC05E7) {
            let parent = histogram.parent();
            for (f, d) in lanes {
                let candidate = parent.hyperplane(f).extended(d);
                let exact: u64 = entries
                    .iter()
                    .filter(|&&(v, _)| candidate.contains(v))
                    .map(|&(_, w)| w)
                    .sum();
                assert_eq!(
                    histogram.lane_weight(f, d, u64::MAX),
                    exact,
                    "f={f:#x} d={d:#x}"
                );
            }
        }
    }

    #[test]
    fn coset_block_matches_the_generic_sliced_block() {
        // A sparse histogram: many remainders have no group at all, so lanes
        // whose direction's group is empty cost their in-parent weight
        // alone. Each lane still costs the weight of the entries its
        // materialized candidate contains.
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let entries: Vec<(u64, u64)> = every_vector(9)
            .into_iter()
            .filter(|_| rng.gen_bool(0.1))
            .collect();
        for (histogram, lanes) in cases(0x5EED) {
            let histogram = CosetHistogram::new(histogram.parent(), entries.iter().copied());
            for &(f, d) in &lanes {
                let candidate = histogram.parent().hyperplane(f).extended(d);
                let contained: u64 = entries
                    .iter()
                    .filter(|&&(v, _)| candidate.contains(v))
                    .map(|&(_, w)| w)
                    .sum();
                assert_eq!(histogram.lane_weight(f, d, u64::MAX), contained);
            }
        }
    }

    #[test]
    fn sum_weights_matches_a_member_mask_sweep() {
        let entries = every_vector(9);
        for (histogram, lanes) in cases(0x5A11E) {
            // Every vector is an entry: each coset of the parent is a group.
            let dim = histogram.parent().dim();
            assert_eq!(histogram.group(0).len(), 1usize << dim);
            assert_eq!(histogram.groups.len(), 1usize << (9 - dim));
            for &(f, d) in lanes.iter().step_by(5) {
                let candidate = histogram.parent().hyperplane(f).extended(d);
                let swept: u64 = entries
                    .iter()
                    .filter(|&&(v, _)| candidate.contains(v))
                    .map(|&(_, w)| w)
                    .sum();
                assert_eq!(histogram.lane_weight(f, d, u64::MAX), swept);
            }
        }
    }

    #[test]
    fn bounded_sum_weights_is_exact_below_the_bound_and_saturated_above() {
        for (histogram, lanes) in cases(0xB0D) {
            for &(f, d) in lanes.iter().step_by(3) {
                let exact = histogram.lane_weight(f, d, u64::MAX);
                // Bounds straddling the cost, plus the degenerate zero bound.
                for bound in [0, 1, exact / 2, exact, exact + 1] {
                    let got = histogram.lane_weight(f, d, bound);
                    if exact < bound {
                        assert_eq!(got, exact, "f={f:#x} d={d:#x} bound={bound}");
                    } else {
                        assert!(got >= bound, "f={f:#x} d={d:#x} bound={bound}");
                    }
                }
            }
        }
    }

    #[test]
    fn frame_block_matches_the_standalone_constructor() {
        // The hoisted route a neighbourhood pricer runs — the hyperplane's
        // in-parent weight once, then one group scan per lane — answers what
        // the one-shot `lane_weight` does, at every bound.
        for (histogram, lanes) in cases(0xF4A3E) {
            let parent = histogram.parent();
            for &(f, d) in &lanes {
                let (remainder, c) = parent.decompose(d);
                let parity = (f & c).count_ones() & 1;
                for bound in [0, 9, 40, u64::MAX] {
                    let base = parity_weight(histogram.group(0), f, 0, 0, bound);
                    let hoisted = parity_weight(histogram.group(remainder), f, parity, base, bound);
                    let one_shot = histogram.lane_weight(f, d, bound);
                    assert_eq!(hoisted.min(bound), one_shot.min(bound), "f={f:#x} d={d:#x}");
                }
            }
        }
    }

    #[test]
    fn coset_block_handles_width_64_parents() {
        let parent = PackedBasis::standard_span(64, 32..64);
        // Functional weighing row 31 (pivot 32) alone: the hyperplane is
        // span{e_33, …, e_63}.
        let f = 1u64 << 31;
        let entries = [
            ((1u64 << 3) | (1 << 33), 2),
            ((1u64 << 32) | (1 << 33), 3),
            (1u64 << 40, 5),
            (u64::MAX, 7),
        ];
        let histogram = CosetHistogram::new(&parent, entries);
        assert_eq!(histogram.lane_weight(f, 1 << 3, u64::MAX), 2 + 5);
        // e_32 re-extends the hyperplane to the parent.
        assert_eq!(histogram.lane_weight(f, 1 << 32, u64::MAX), 3 + 5);
    }

    #[test]
    fn parity_weight_starts_from_its_base_and_stops_at_the_bound() {
        // Under functional 0b01 the first two entries have parity 1.
        let group = [(0b01u64, 4u64), (0b11, 5), (0b10, 6)];
        assert_eq!(parity_weight(&group, 0b01, 1, 0, u64::MAX), 4 + 5);
        assert_eq!(parity_weight(&group, 0b01, 0, 0, u64::MAX), 6);
        assert_eq!(parity_weight(&group, 0b01, 0, 10, u64::MAX), 16);
        // A base at the bound scans nothing; a bound hit mid-group stops.
        assert_eq!(parity_weight(&group, 0b01, 0, 10, 10), 10);
        assert_eq!(parity_weight(&group, 0b01, 1, 0, 4), 4);
        assert_eq!(parity_weight(&[], 0b01, 0, 3, u64::MAX), 3);
    }

    #[test]
    #[should_panic(expected = "exceeds the ambient width")]
    fn frame_direction_outside_width_panics() {
        let parent = PackedBasis::standard_span(8, 0..2);
        let histogram = CosetHistogram::new(&parent, [(1, 1)]);
        let _ = histogram.lane_weight(0b01, 1u64 << 9, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "inside its hyperplane")]
    fn coset_direction_inside_hyperplane_panics() {
        let parent = PackedBasis::standard_span(8, 0..2);
        let histogram = CosetHistogram::new(&parent, [(1, 1)]);
        // Functional 0b01 vanishes on e_0 (row 1).
        let _ = histogram.lane_weight(0b01, 1, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "inside the parent")]
    fn coset_foreign_hyperplane_panics() {
        let parent = PackedBasis::standard_span(8, 0..2);
        let foreign = PackedBasis::standard_span(8, [5usize]);
        let _ = parent.hyperplane_functional(&foreign);
    }

    #[test]
    #[should_panic(expected = "no hyperplanes")]
    fn coset_trivial_parent_panics() {
        let parent = PackedBasis::trivial(8);
        let _ = parent.hyperplane_functional(&PackedBasis::trivial(8));
    }
}
