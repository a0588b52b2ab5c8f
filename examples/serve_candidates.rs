//! Serving-layer quickstart: register two applications with an
//! `IndexService`, drive a worker pool with typed requests, and watch the
//! sharded memo absorb repeat pricing.
//!
//! The hot path is the one the paper's reconfigurable cache needs in
//! production: per-application conflict profiles frozen into shared kernels,
//! candidate null spaces priced as packed `u64` bases, repeat pricing
//! answered from the memo, and a full design-space search served through the
//! same kernel. Searches leave the memo alone, so their answers never depend
//! on what was priced before.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serve_candidates
//! ```

use std::sync::Arc;

use xorindex_repro::prelude::*;
use xorindex_repro::xorindex_serve::{self, Registration, Request, Response};

fn main() {
    let cache = CacheConfig::paper_cache(1);

    // 1. Two "applications": a strided loop and a ping-pong access pattern,
    //    each profiled once for the same 1 KB cache.
    let strided = memtrace::generators::StridedGenerator::new(0x4_0000, 1024, 16, 200).generate();
    let ping_pong: Vec<BlockAddr> = (0..4000u64).map(|i| BlockAddr((i % 2) * 256)).collect();

    let service = Arc::new(xorindex_serve::IndexService::new());
    let loop_app = service
        .register(
            Registration::new(
                ConflictProfile::from_blocks(
                    strided.data_block_addresses(cache.block_bits()),
                    16,
                    cache.num_blocks() as usize,
                ),
                cache,
            )
            .with_class(FunctionClass::permutation_based(2)),
        )
        .expect("valid geometry");
    let pong_app = service
        .register(
            Registration::new(
                ConflictProfile::from_blocks(
                    ping_pong.iter().copied(),
                    16,
                    cache.num_blocks() as usize,
                ),
                cache,
            )
            .with_class(FunctionClass::xor_unlimited()),
        )
        .expect("valid geometry");
    println!("registered {} applications", service.len());

    // 2. Spin up the worker pool: 4 threads draining a bounded request queue.
    let pool = xorindex_serve::WorkerPool::new(Arc::clone(&service), 4, 32);

    // 3. Price candidates for both applications concurrently. Requests carry
    //    packed bases — here, the null spaces of conventional indexing with
    //    the low set-index bits swapped for various high bits.
    let candidates: Vec<(usize, gf2::PackedBasis)> = (8..16)
        .map(|high_bit| {
            let excluded = (8..16).map(|b| if b == high_bit { 0 } else { b });
            (high_bit, gf2::PackedBasis::standard_span(16, excluded))
        })
        .collect();
    let mut pending = Vec::new();
    for app in [loop_app, pong_app] {
        for (high_bit, basis) in &candidates {
            pending.push((
                app,
                high_bit,
                pool.submit(Request::PriceCandidate {
                    app,
                    basis: basis.clone(),
                }),
            ));
        }
    }
    for (app, high_bit, submitted) in pending {
        match submitted.expect("pool alive").wait() {
            Response::Price(cost) => {
                println!("{app}: swap bit {high_bit:2} for bit 0 -> {cost:5} estimated misses");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // 4. Run a full search for each application through the same pool. It
    //    prices through the application's kernel, not the memo.
    for app in [loop_app, pong_app] {
        match pool.call(Request::RunSearch {
            app,
            algorithm: SearchAlgorithm::HillClimb,
        }) {
            Response::Search(outcome) => println!(
                "{app}: search removed {:.1}% of estimated conflict misses ({} -> {})",
                outcome.estimated_percent_removed(),
                outcome.baseline_estimate,
                outcome.estimated_misses
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    // 5. Price the same candidates again, as one batch per application: every
    //    price is now a memo hit.
    let bases: Vec<gf2::PackedBasis> = candidates.into_iter().map(|(_, basis)| basis).collect();
    for app in [loop_app, pong_app] {
        match pool.call(Request::PriceBatch {
            app,
            bases: bases.clone(),
        }) {
            Response::Prices(costs) => println!("{app}: repriced {} candidates", costs.len()),
            other => panic!("unexpected {other:?}"),
        }
    }

    // 6. The memo stats show the repeats: hits are pricing requests answered
    //    without re-running Eq. 4.
    for app in [loop_app, pong_app] {
        match pool.call(Request::Stats { app }) {
            Response::Stats(stats) => println!(
                "{app}: {} distinct conflict vectors, memo {} entries over {} shards, {} hits / {} misses",
                stats.distinct_vectors,
                stats.memo.entries,
                stats.memo.shards,
                stats.memo.hits,
                stats.memo.misses
            ),
            other => panic!("unexpected {other:?}"),
        }
    }
}
