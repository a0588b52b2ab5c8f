//! Bench for the neighbourhood-generation hot path.
//!
//! PR 2's dense engine made Eq. 4 evaluation cheap enough that candidate
//! *generation* dominates the unlimited-XOR hill climb. This target pins the
//! cost of producing one full hill-climbing neighbourhood two ways at
//! n = 12 / 16 / 20 / 26 hashed bits (26 is the wide-width regime where the
//! pricing side runs on the hybrid profile):
//!
//! * `packed` — the packed-native path ([`PackedNeighborhood::generate`]):
//!   the pool reduced once in the parent's coordinates, per-hyperplane dedup
//!   on (remainder, parity) keys, Eq. 5 decided per hyperplane before any
//!   basis exists, then one allocation per admitted candidate (the searches
//!   run the same generation but build only the bases they move to);
//! * `subspace` — the pre-refactor representation, reproduced verbatim:
//!   heap-allocated [`Subspace`] candidates, full Gaussian re-canonicalization
//!   per extension, `HashSet<Subspace>` dedup.
//!
//! Both are generated from the conventional null space with the default
//! `UnitsAndPairs` pool, for the unlimited-XOR and unrestricted
//! permutation-based classes (bit selection uses the tiny structural
//! neighbourhood and is not interesting here). Both paths must produce the
//! same number of candidates before either is timed. The `CRITERION_JSON`
//! records land in `BENCH_neighborhood.json` on CI, extending the perf
//! trajectory started by `BENCH_search_cost.json`.

use std::collections::HashSet;
use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gf2::{BitVec, PackedBasis, Subspace};
use xorindex::search::{NeighborPool, PackedNeighborhood};
use xorindex::{ConflictProfile, FunctionClass};

/// Verbatim pre-refactor generation: the comparison baseline the packed path
/// replaced. Kept local to the bench so the library carries no dead code.
fn subspace_neighbors(null_space: &Subspace, class: FunctionClass, pool: &[BitVec]) -> usize {
    let m = null_space.ambient_width() - null_space.dim();
    let admissible = |candidate: &Subspace| match class {
        FunctionClass::BitSelecting => candidate.basis().iter().all(|b| b.weight() == 1),
        FunctionClass::Xor { .. } => true,
        FunctionClass::PermutationBased { .. } => candidate.admits_permutation_based_function(m),
    };
    let mut seen: HashSet<Subspace> = HashSet::new();
    let mut count = 0usize;
    for hyperplane in null_space.hyperplanes() {
        for &v in pool {
            if null_space.contains(v) {
                continue;
            }
            let candidate = hyperplane.extended(v);
            if candidate == *null_space || seen.contains(&candidate) {
                continue;
            }
            if admissible(&candidate) {
                seen.insert(candidate.clone());
                count += 1;
            }
        }
    }
    count
}

fn bench_neighborhood_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighborhood_cost");
    group.sample_size(10);

    for n in [12usize, 16, 20, 26] {
        // Fix the null-space dimension at 6 (the paper's 4 KB / n = 16 shape)
        // so the hyperplane count stays comparable across widths and only the
        // pool size and word arithmetic scale with n.
        let set_bits = n - 6;
        // The profile is only consulted by profile-extended pools; a minimal
        // one keeps the prepared input honest.
        let profile = ConflictProfile::from_blocks((0..8u64).map(cache_sim::BlockAddr), n, 64);
        let pool = NeighborPool::UnitsAndPairs.vectors(n, &profile);
        let packed_pool = NeighborPool::UnitsAndPairs.packed_vectors(n, &profile);
        let parent = Subspace::standard_span(n, set_bits..n);
        let packed_parent = PackedBasis::standard_span(n, set_bits..n);

        for (label, class) in [
            ("xor_unlimited", FunctionClass::xor_unlimited()),
            (
                "permutation_unlimited",
                FunctionClass::permutation_based_unlimited(),
            ),
        ] {
            assert_eq!(
                PackedNeighborhood::generate(&packed_parent, class, &packed_pool).len(),
                subspace_neighbors(&parent, class, &pool),
                "{label} at n = {n}: the two generators disagree"
            );
            group.bench_with_input(
                BenchmarkId::new(format!("packed/{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        black_box(PackedNeighborhood::generate(
                            &packed_parent,
                            class,
                            &packed_pool,
                        ))
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("subspace/{label}"), n),
                &n,
                |b, _| b.iter(|| black_box(subspace_neighbors(&parent, class, &pool))),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_neighborhood_cost
}
criterion_main!(benches);
