//! Bench for the binary wire protocol and the TCP serving path: loopback
//! round-trip latency, pipelined throughput at window depths 1/8/64, and
//! snapshot save/load for a warm-restart.
//!
//! The server prices susan @ 4 KB (the paper's configuration) with a warm
//! memo, so every timed request is answered without re-running Eq. 4 — the
//! measurement isolates the wire: encode, syscalls, decode, and the
//! reader/writer hand-off. Depth-1 pipelining pays one full round trip per
//! request; depth 8 and 64 overlap them, which is the protocol's throughput
//! claim. The snapshot benches time serializing and restoring a registry
//! holding both the susan application and a wide n = 26 application served
//! through the hybrid profile.
//!
//! Before any timing, the harness asserts the TCP path is bit-identical to
//! a fresh single-threaded `EvalEngine` and that a snapshot round-trips to
//! the same bytes.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gf2::PackedBasis;
use std::hint::black_box;
use xorindex::search::{NeighborPool, PackedNeighborhood};
use xorindex::{ConflictProfile, EvalEngine, FunctionClass};
use xorindex_bench::{prepare_data, HASHED_BITS};
use xorindex_serve::{
    Client, IndexService, Registration, Request, Response, ServerConfig, TcpServer,
};

/// Requests per pipelined-throughput iteration.
const PIPELINE_REQUESTS: usize = 256;

/// The wide contrast application: n = 26 hashed bits, hybrid profile.
fn wide_registration() -> Registration {
    const WIDE_BITS: usize = 26;
    let footprint: Vec<u64> = {
        let mut f: Vec<u64> = (0..128u64).map(|k| k * 3 % 128).collect();
        f.extend((0..64u64).flat_map(|k| [k, k | (1 << 22)]));
        f
    };
    let trace =
        (0..4 * footprint.len()).map(|i| cache_sim::BlockAddr(footprint[i % footprint.len()]));
    let profile = ConflictProfile::from_blocks(trace, WIDE_BITS, 1 << 20);
    let cache = cache_sim::CacheConfig::builder()
        .size_bytes(32 << 20)
        .block_bytes(32)
        .associativity(1)
        .build()
        .expect("valid geometry");
    Registration::new(profile, cache).with_class(FunctionClass::xor_unlimited())
}

fn bench_serve_wire(c: &mut Criterion) {
    let prepared = prepare_data("susan", 4);
    let service = Arc::new(IndexService::new());
    let app = service
        .register(
            Registration::new(prepared.profile.clone(), prepared.cache)
                .with_class(FunctionClass::xor_unlimited()),
        )
        .expect("valid geometry");
    let wide_app = service
        .register(wide_registration())
        .expect("valid geometry");

    let server = TcpServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        ServerConfig::default(),
    )
    .expect("ephemeral loopback bind");
    let mut client = Client::connect(server.local_addr()).expect("loopback connect");

    // The request load: one hill-climb neighbourhood of the conventional
    // function, capped so every depth prices the identical request list.
    let pool_dirs = NeighborPool::UnitsAndPairs.packed_vectors(HASHED_BITS, &prepared.profile);
    let parent = PackedBasis::standard_span(HASHED_BITS, prepared.cache.set_bits()..HASHED_BITS);
    let candidates: Vec<PackedBasis> =
        PackedNeighborhood::generate(&parent, FunctionClass::xor_unlimited(), &pool_dirs)
            .bases()
            .take(PIPELINE_REQUESTS)
            .cloned()
            .collect();
    assert_eq!(
        candidates.len(),
        PIPELINE_REQUESTS,
        "neighbourhood too small"
    );
    let requests: Vec<Request> = candidates
        .iter()
        .map(|basis| Request::PriceCandidate {
            app,
            basis: basis.clone(),
        })
        .collect();

    // Bit-identity guard: the TCP answers (which also warm the memo for the
    // timed runs) must match a fresh single-threaded engine.
    let mut oracle = EvalEngine::new(&prepared.profile).with_threads(1);
    let served = client
        .call_pipelined(&requests, 8)
        .expect("warm-up pipeline");
    for (response, candidate) in served.iter().zip(&candidates) {
        assert_eq!(
            response,
            &Response::Price(oracle.estimate_packed(candidate))
        );
    }

    // Snapshot guard: restore(snapshot()) re-serializes to the same bytes,
    // and the wide application survives too.
    let image = service.snapshot();
    let restored = IndexService::restore(&image).expect("valid snapshot");
    assert_eq!(restored.snapshot(), image, "snapshot must round-trip");
    assert!(restored.kernel(wide_app).is_ok());

    let mut group = c.benchmark_group("serve_wire");
    group.sample_size(10);

    // One request, one response: the protocol's floor on loopback.
    let rtt_request = requests[0].clone();
    group.bench_function("rtt/price_candidate", |b| {
        b.iter(|| match client.call(&rtt_request) {
            Ok(Response::Price(cost)) => black_box(cost),
            other => panic!("unexpected {other:?}"),
        })
    });

    // The same 256 requests at increasing window depths. Depth 1 degenerates
    // to sequential round trips; 8 and 64 overlap them.
    for depth in [1usize, 8, 64] {
        group.bench_with_input(
            BenchmarkId::new("pipelined_256", depth),
            &depth,
            |b, &depth| {
                b.iter(|| {
                    let responses = client
                        .call_pipelined(&requests, depth)
                        .expect("pipelined call");
                    black_box(responses.len())
                })
            },
        );
    }

    // Warm-restart costs: serialize the two-application registry, and
    // rebuild a service (validated profile entries, each kernel re-frozen)
    // from the image.
    group.bench_function("snapshot/save", |b| {
        b.iter(|| black_box(service.snapshot().len()))
    });
    group.bench_function("snapshot/load", |b| {
        b.iter(|| {
            let restored = IndexService::restore(&image).expect("valid snapshot");
            black_box(restored.len())
        })
    });

    group.finish();
    drop(client);
    drop(server);
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_serve_wire
}
criterion_main!(benches);
