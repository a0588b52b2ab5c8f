//! A guided tour of the XOR-indexing design space.
//!
//! This example walks through the concepts the paper builds on, using the
//! library's primitives directly rather than the end-to-end optimizer:
//!
//! 1. hash functions as GF(2) matrices and their null spaces (Eq. 1–2);
//! 2. why the search works on null spaces (Eq. 3: the design space collapses);
//! 3. the profiling histogram (Fig. 1) and the Eq. 4 miss estimate;
//! 4. permutation-based functions and their unique representative.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example design_space_tour
//! ```

use xorindex_repro::prelude::*;

fn main() {
    // --- 1. Hash functions and conflicts -----------------------------------
    let n = 16;
    let m = 8;
    let conventional = HashFunction::conventional(n, m).expect("valid geometry");
    let xor = HashFunction::new(BitMatrix::from_fn(n, m, |r, c| r == c || r == c + m))
        .expect("full rank");

    let a = 0x0100u64; // two block addresses 256 blocks apart
    let b = 0x0200u64;
    println!(
        "conventional: set({a:#06x}) = {:#x}, set({b:#06x}) = {:#x}",
        conventional.set_index_of(a),
        conventional.set_index_of(b)
    );
    println!(
        "xor function: set({a:#06x}) = {:#x}, set({b:#06x}) = {:#x}",
        xor.set_index_of(a),
        xor.set_index_of(b)
    );

    // Conflicts are characterized by the null space (paper Eq. 2).
    let difference = a ^ b;
    println!(
        "a ^ b in N(conventional)? {}   in N(xor)? {}",
        conventional.null_space().contains(difference),
        xor.null_space().contains(difference)
    );

    // --- 2. The design space ------------------------------------------------
    println!();
    println!(
        "distinct {n}x{m} matrices : {:.2e}",
        gf2::count::distinct_matrices(n as u32, m as u32)
    );
    println!(
        "distinct null spaces    : {:.2e}",
        gf2::count::distinct_null_spaces(n as u32, m as u32)
    );
    println!(
        "bit-selecting functions : {}",
        gf2::count::bit_selecting_functions(n as u64, m as u64)
    );

    // --- 3. Profiling and estimation ----------------------------------------
    println!();
    let blocks: Vec<BlockAddr> = (0..4000u64).map(|i| BlockAddr((i % 4) * 0x100)).collect();
    let profile = ConflictProfile::from_blocks(blocks.iter().copied(), n, 256);
    println!(
        "profile: {} references, {} distinct conflict vectors, total weight {}",
        profile.summary().references,
        profile.distinct_vectors(),
        profile.total_weight()
    );
    for (vector, weight) in profile.heaviest(3) {
        println!("  heavy conflict vector {vector:#06x}  seen {weight} times");
    }
    let estimator = MissEstimator::new(&profile);
    println!(
        "estimated conflict misses: conventional = {}, xor = {}",
        estimator.estimate(&conventional).expect("same geometry"),
        estimator.estimate(&xor).expect("same geometry"),
    );

    // --- 4. Permutation-based functions -------------------------------------
    println!();
    let ns = xor.null_space();
    println!(
        "N(xor) admits a permutation-based representative: {}",
        ns.admits_permutation_based(m)
    );
    let rebuilt = HashFunction::from_null_space(&ns, FunctionClass::permutation_based(2))
        .expect("Eq. 5 holds for this null space");
    println!(
        "unique permutation-based representative equals the original: {}",
        rebuilt == xor
    );
    println!(
        "conventional tag bits remain correct: {}",
        rebuilt.conventional_tag_is_correct()
    );
}
