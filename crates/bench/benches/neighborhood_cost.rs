//! Bench for the neighbourhood-generation hot path.
//!
//! PR 2's dense engine made Eq. 4 evaluation cheap enough that candidate
//! *generation* dominates the unlimited-XOR hill climb. This target pins the
//! cost of producing one full hill-climbing neighbourhood with
//! [`PackedNeighborhood::generate`] at n = 12 / 16 / 20 / 26 hashed bits (26
//! is the wide-width regime where the pricing side runs on the hybrid
//! profile): the pool reduced once in the parent's coordinates,
//! per-hyperplane dedup on (remainder, parity) keys, Eq. 5 decided per
//! hyperplane before any basis exists, then one allocation per admitted
//! candidate (the searches run the same generation but build only the bases
//! they move to).
//!
//! Each neighbourhood is generated from the conventional null space with the
//! default `UnitsAndPairs` pool, for the unlimited-XOR and unrestricted
//! permutation-based classes (bit selection uses the tiny structural
//! neighbourhood and is not interesting here). `proptest_core`'s
//! `packed_neighborhood_matches_the_subspace_reference` pins the generated
//! candidates to the pre-refactor generation. The `CRITERION_JSON` records
//! land in `BENCH_neighborhood.json` on CI, extending the perf trajectory
//! started by `BENCH_search_cost.json`.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gf2::PackedBasis;
use xorindex::search::{NeighborPool, PackedNeighborhood};
use xorindex::{ConflictProfile, FunctionClass};

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
        let packed_pool = NeighborPool::UnitsAndPairs.packed_vectors(n, &profile);
        let packed_parent = PackedBasis::standard_span(n, set_bits..n);

        for (label, class) in [
            ("xor_unlimited", FunctionClass::xor_unlimited()),
            (
                "permutation_unlimited",
                FunctionClass::permutation_based_unlimited(),
            ),
        ] {
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
