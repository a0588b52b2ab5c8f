//! Wide-width end-to-end scenario: a 26-bit hashed space priced through the
//! hybrid profile, with no flat lookup table.
//!
//! At `hashed_bits = 26` a whole-space flat table would be `2^26 × 8 B =
//! 512 MB`; the hybrid layout must instead materialize a small dense tail
//! over the hot low-index region and binary-search the rest. This test runs
//! the full pipeline — trace → profile → registration → batch pricing →
//! search — through the serving layer and pins every answer against a fresh
//! [`MissEstimator`] forced to `ScanHistogram`, the reference path that never
//! touches a dense table at all.

use std::sync::Arc;

use cache_sim::{BlockAddr, CacheConfig};
use gf2::PackedBasis;
use xorindex::search::{NeighborPool, PackedNeighborhood, SearchAlgorithm};
use xorindex::{ConflictProfile, EstimationStrategy, FunctionClass, MissEstimator};
use xorindex_serve::{IndexService, Registration, Request, Response};

const HASHED_BITS: usize = 26;

/// A 32 MB direct-mapped cache: 2^20 sets of 32-byte blocks, so the
/// conventional null space has dimension 26 − 20 = 6.
fn wide_cache() -> CacheConfig {
    CacheConfig::builder()
        .size_bytes(32 << 20)
        .block_bytes(32)
        .associativity(1)
        .build()
        .expect("valid geometry")
}

/// A trace with two conflict populations: 128 small-stride blocks whose
/// pairwise XORs populate the hot low-index region (feeding the hybrid
/// tail), and 64 block pairs `k` / `k | 2^22` that collide in the
/// conventional index (same low 20 bits), producing heavy avoidable
/// conflict vectors with bit 22 set — misses a XOR index can eliminate.
fn wide_trace() -> Vec<BlockAddr> {
    let mut footprint: Vec<u64> = (0..128u64).map(|k| k * 3 % 128).collect();
    footprint.extend((0..64u64).flat_map(|k| [k, k | (1 << 22)]));
    (0..4 * footprint.len())
        .map(|i| BlockAddr(footprint[i % footprint.len()]))
        .collect()
}

#[test]
fn a_26_bit_application_prices_through_the_hybrid_profile() {
    let cache = wide_cache();
    let profile =
        ConflictProfile::from_blocks(wide_trace(), HASHED_BITS, cache.num_blocks() as usize);
    assert!(profile.distinct_vectors() > 64, "trace too tame");

    let oracle = MissEstimator::new(&profile).with_strategy(EstimationStrategy::ScanHistogram);

    let service = Arc::new(IndexService::new());
    let app = service
        .register(
            Registration::new(profile.clone(), cache).with_class(FunctionClass::xor_unlimited()),
        )
        .unwrap();

    // The frozen kernel serves a hybrid profile: no 512 MB flat table, just
    // a small dense tail over the hot low-index region.
    let kernel = service.kernel(app).unwrap();
    assert_eq!(kernel.hashed_bits(), HASHED_BITS);
    assert_eq!(kernel.profile().entries(), profile.entries());
    assert!(!kernel.has_flat_lookup());
    assert!(kernel.has_dense_tail());
    assert!(
        kernel.tail_bits() <= 10,
        "tail unexpectedly wide: {}",
        kernel.tail_bits()
    );
    assert!(kernel.tail_covered() > 0);

    // Single-candidate pricing: the conventional null space.
    let set_bits = cache.set_bits();
    let conventional = PackedBasis::standard_span(HASHED_BITS, set_bits..HASHED_BITS);
    let conventional_cost = service.price_candidate(app, &conventional).unwrap();
    assert_eq!(conventional_cost, oracle.estimate_packed(&conventional));
    // The bit-22 collisions land in the conventional null space.
    assert!(conventional_cost > 0);

    // Batch pricing: a slice of the conventional parent's neighbourhood
    // through the Request enum, pinned candidate-by-candidate.
    let pool = NeighborPool::UnitsAndPairs.packed_vectors(HASHED_BITS, &profile);
    let neighborhood =
        PackedNeighborhood::generate(&conventional, FunctionClass::xor_unlimited(), &pool);
    let bases: Vec<PackedBasis> = neighborhood.bases().take(256).cloned().collect();
    assert!(
        bases.len() >= 64,
        "neighbourhood too small: {}",
        bases.len()
    );
    let response = service.handle(Request::PriceBatch {
        app,
        bases: bases.clone(),
    });
    let Response::Prices(prices) = response else {
        panic!("unexpected {response:?}");
    };
    let expected: Vec<u64> = bases.iter().map(|b| oracle.estimate_packed(b)).collect();
    assert_eq!(prices, expected);

    // Full search through the serving layer: the outcome must be priced
    // exactly as the reference estimator prices it, and the bit-22
    // conflicts make an improvement over the conventional index possible.
    let outcome = service.run_search(app, SearchAlgorithm::HillClimb).unwrap();
    assert_eq!(outcome.baseline_estimate, conventional_cost);
    assert_eq!(
        outcome.estimated_misses,
        oracle.estimate(&outcome.function).unwrap()
    );
    assert!(
        outcome.estimated_misses < outcome.baseline_estimate,
        "search found no improvement: {} vs {}",
        outcome.estimated_misses,
        outcome.baseline_estimate
    );

    // The memo saw every pricing request; repeating the batch is all hits.
    let before = service.stats(app).unwrap().memo;
    let again = service.price_batch(app, &bases).unwrap();
    assert_eq!(again, expected);
    let after = service.stats(app).unwrap().memo;
    assert_eq!(after.hits - before.hits, bases.len() as u64);
    assert_eq!(after.misses, before.misses);
}
