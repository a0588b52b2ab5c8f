//! End-to-end smoke test for the TCP serving path: an in-process server on
//! an ephemeral loopback port, four concurrent pipelined clients, and every
//! priced answer bit-identical to a fresh single-threaded `EvalEngine`
//! oracle over the same profile. Also covers in-stream decode-error
//! recovery, wire-level counters, and the snapshot → restart → warm-pricing
//! lifecycle the examples demonstrate.

use std::sync::Arc;

use cache_sim::{BlockAddr, CacheConfig};
use gf2::PackedBasis;
use xorindex::search::{NeighborPool, PackedNeighborhood};
use xorindex::{BoundedCost, ConflictProfile, EvalEngine, FunctionClass, SearchAlgorithm};
use xorindex_serve::{
    encode_request, split_frame, AppId, Client, IndexService, Registration, Request, Response,
    ServeError, ServerConfig, ServerFrame, TcpServer, WireError, FRAME_HEADER_BYTES, WIRE_VERSION,
};

const HASHED_BITS: usize = 12;

fn e2e_profile() -> ConflictProfile {
    let blocks = (0..1500u64).flat_map(|i| {
        [
            BlockAddr((i % 4) * 256),
            BlockAddr(0x800 + (i % 3) * 0x200),
            BlockAddr((i % 7) * 0x120),
        ]
    });
    ConflictProfile::from_blocks(blocks, HASHED_BITS, 256)
}

/// Distinct candidate null spaces, the way a search client would produce
/// them: a conventional parent's packed neighbourhood plus the parent itself.
fn candidate_set(profile: &ConflictProfile, set_bits: usize) -> Vec<PackedBasis> {
    let pool = NeighborPool::UnitsAndPairs.packed_vectors(HASHED_BITS, profile);
    let conventional = PackedBasis::standard_span(HASHED_BITS, set_bits..HASHED_BITS);
    let mut out = vec![conventional.clone()];
    out.extend(
        PackedNeighborhood::generate(&conventional, FunctionClass::xor_unlimited(), &pool)
            .bases()
            .cloned(),
    );
    let mut seen = std::collections::HashSet::new();
    out.retain(|b| seen.insert(b.canonical_key()));
    out
}

fn serve(service: Arc<IndexService>) -> TcpServer {
    TcpServer::bind(
        ("127.0.0.1", 0),
        service,
        ServerConfig {
            workers: 4,
            queue_capacity: 32,
            max_in_flight: 16,
        },
    )
    .expect("binding an ephemeral loopback port")
}

#[test]
fn pipelined_tcp_clients_match_the_single_threaded_oracle() {
    const CLIENTS: usize = 4;
    const DEPTH: usize = 8;

    let profile = e2e_profile();
    let service = Arc::new(IndexService::new());
    let app = service
        .register(Registration::new(
            profile.clone(),
            CacheConfig::paper_cache(1),
        ))
        .unwrap();
    let server = serve(Arc::clone(&service));
    let addr = server.local_addr();

    let candidates = candidate_set(&profile, 8);
    assert!(candidates.len() >= 20, "need a meaningful workload");

    // The oracle: a fresh single-threaded engine over the same profile.
    let mut oracle = EvalEngine::new(&profile).with_threads(1);
    let expected: Vec<u64> = candidates
        .iter()
        .map(|c| oracle.estimate_packed(c))
        .collect();
    let bound = expected.iter().copied().max().unwrap() / 2 + 1;

    std::thread::scope(|scope| {
        for client_idx in 0..CLIENTS {
            let candidates = &candidates;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Mixed workload: single prices, one batch, one bounded batch.
                let mut requests: Vec<Request> = candidates
                    .iter()
                    .map(|basis| Request::PriceCandidate {
                        app,
                        basis: basis.clone(),
                    })
                    .collect();
                requests.push(Request::PriceBatch {
                    app,
                    bases: candidates.clone(),
                });
                requests.push(Request::PriceBatchBounded {
                    app,
                    bases: candidates.clone(),
                    bound,
                });
                requests.push(Request::Stats { app });

                let responses = client
                    .call_pipelined(&requests, DEPTH)
                    .expect("pipelined call");
                assert_eq!(responses.len(), requests.len());
                for (i, response) in responses[..candidates.len()].iter().enumerate() {
                    assert_eq!(
                        response,
                        &Response::Price(expected[i]),
                        "client {client_idx} candidate {i}"
                    );
                }
                let batch = &responses[candidates.len()];
                assert_eq!(batch, &Response::Prices(expected.clone()));
                let Response::BoundedPrices(bounded) = &responses[candidates.len() + 1] else {
                    panic!("expected BoundedPrices");
                };
                for (cost, &truth) in bounded.iter().zip(expected) {
                    match *cost {
                        BoundedCost::Exact(c) => assert_eq!(c, truth),
                        BoundedCost::AtLeast(b) => {
                            assert_eq!(b, bound);
                            assert!(truth >= bound);
                        }
                    }
                }
                assert!(matches!(
                    responses[candidates.len() + 2],
                    Response::Stats(_)
                ));
            });
        }
    });

    // Wire-level counters saw the pipelining.
    let stats = server.wire_stats();
    assert_eq!(stats.connections, CLIENTS as u64);
    assert!(stats.max_pipeline_depth >= 2, "pipelining never overlapped");
    // The per-connection cap is max_in_flight (16) queued responses, plus
    // one the writer holds while encoding and one the reader counts just
    // before it blocks on the full channel.
    assert!(stats.max_pipeline_depth <= 18, "in-flight cap exceeded");
    assert_eq!(stats.decode_errors, 0);
    assert!(stats.frames_in >= (CLIENTS * (candidates.len() + 3)) as u64);
    assert_eq!(stats.frames_in, stats.frames_out);
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
}

/// Prefixes `payload` with its big-endian length, as the wire frames it.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(payload);
    frame
}

/// `request`'s frame with its algorithm tag (the payload byte after the
/// version, id, request tag and app) replaced by `tag` and followed by
/// `params`.
fn with_algorithm_tag(id: u64, request: &Request, tag: u8, params: &[u64]) -> Vec<u8> {
    const ALGORITHM_AT: usize = 1 + 8 + 1 + 8;
    let mut raw = Vec::new();
    encode_request(id, request, &mut raw);
    let mut payload = raw[FRAME_HEADER_BYTES..].to_vec();
    payload[ALGORITHM_AT] = tag;
    let rest = payload.split_off(ALGORITHM_AT + 1);
    for param in params {
        payload.extend_from_slice(&param.to_be_bytes());
    }
    payload.extend_from_slice(&rest);
    framed(&payload)
}

#[test]
fn decode_errors_are_answered_in_stream_without_desync() {
    let service = Arc::new(IndexService::new());
    let app = service
        .register(Registration::new(
            e2e_profile(),
            CacheConfig::paper_cache(1),
        ))
        .unwrap();
    let server = serve(Arc::clone(&service));
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Hand-craft a well-framed payload with an unknown tag.
    let mut garbage_payload = vec![WIRE_VERSION];
    garbage_payload.extend_from_slice(&77u64.to_be_bytes());
    garbage_payload.push(0x5A);
    // A search under retired algorithm tag 1 (two `u64` parameters) and a
    // verified pick under retired tag 2 (three), as an older client sends
    // them.
    let tag1_search = with_algorithm_tag(
        78,
        &Request::RunSearch {
            app,
            algorithm: SearchAlgorithm::HillClimb,
        },
        1,
        &[2, 7],
    );
    let tag2_pick = with_algorithm_tag(
        79,
        &Request::OptimizeVerified {
            app,
            algorithm: SearchAlgorithm::HillClimb,
            top_k: 3,
        },
        2,
        &[100, 10f64.to_bits(), 7],
    );

    // Interleave them with valid requests on the same connection.
    let basis = PackedBasis::standard_span(HASHED_BITS, 8..HASHED_BITS);
    let price = Request::PriceCandidate { app, basis };
    let mut raw = Vec::new();
    encode_request(1, &price, &mut raw);
    raw.extend_from_slice(&framed(&garbage_payload));
    encode_request(2, &price, &mut raw);
    raw.extend_from_slice(&tag1_search);
    encode_request(3, &price, &mut raw);
    raw.extend_from_slice(&tag2_pick);
    encode_request(4, &price, &mut raw);

    use std::io::Write as _;
    let stream = client.raw_stream();
    stream.write_all(&raw).unwrap();
    stream.flush().unwrap();

    let mut prices = Vec::new();
    for expected_id in [1, 77, 2, 78, 3, 79, 4] {
        let (id, frame) = client.recv().unwrap();
        assert_eq!(id, expected_id, "answers arrive in request order");
        match (expected_id, frame) {
            (77, frame) => assert_eq!(
                frame,
                ServerFrame::Response(Response::Error(ServeError::Wire(WireError::BadTag(0x5A)))),
                "error echoes the malformed frame's id"
            ),
            (78 | 79, frame) => assert!(
                matches!(
                    frame,
                    ServerFrame::Response(Response::Error(ServeError::Wire(WireError::Invalid(_))))
                ),
                "frame {expected_id}: {frame:?}"
            ),
            (_, ServerFrame::Response(Response::Price(cost))) => prices.push(cost),
            (_, frame) => panic!("pricing around the bad frames failed: {frame:?}"),
        }
    }
    assert!(
        prices.windows(2).all(|pair| pair[0] == pair[1]),
        "the same candidate priced before, between and after: {prices:?}"
    );
    assert_eq!(server.wire_stats().decode_errors, 3);
}

#[test]
fn snapshot_restart_serves_warm_and_bit_identical() {
    let profile = e2e_profile();
    let service = Arc::new(IndexService::new());
    let app = service
        .register(Registration::new(
            profile.clone(),
            CacheConfig::paper_cache(1),
        ))
        .unwrap();

    let candidates = candidate_set(&profile, 8);
    let dir = std::env::temp_dir().join("xorindex_tcp_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("snap_{}.bin", std::process::id()));

    // First server generation: price everything, snapshot, shut down.
    let first_prices: Vec<u64> = {
        let server = serve(Arc::clone(&service));
        let mut client = Client::connect(server.local_addr()).unwrap();
        let responses = client
            .call_pipelined(
                &candidates
                    .iter()
                    .map(|basis| Request::PriceCandidate {
                        app,
                        basis: basis.clone(),
                    })
                    .collect::<Vec<_>>(),
                8,
            )
            .unwrap();
        server.service().snapshot_to(&path).unwrap();
        responses
            .into_iter()
            .map(|r| match r {
                Response::Price(c) => c,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }; // server dropped: listener closed, connections joined.

    // Second generation restores from disk — no profiling, no re-freezing.
    let restored = Arc::new(IndexService::restore_from(&path).unwrap());
    std::fs::remove_file(&path).unwrap();
    let server = serve(Arc::clone(&restored));
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Same AppId works, and every price is bit-identical to generation one.
    let responses = client
        .call_pipelined(
            &candidates
                .iter()
                .map(|basis| Request::PriceCandidate {
                    app,
                    basis: basis.clone(),
                })
                .collect::<Vec<_>>(),
            8,
        )
        .unwrap();
    for (response, expected) in responses.iter().zip(&first_prices) {
        assert_eq!(response, &Response::Price(*expected));
    }

    // The restored kernel was warm: all pricing ran without a registry
    // rebuild, and the memo filled exactly once per distinct candidate.
    let Response::Stats(stats) = client.call(&Request::Stats { app }).unwrap() else {
        panic!("expected stats");
    };
    assert_eq!(stats.memo.entries, candidates.len());
    assert_eq!(stats.memo.misses, candidates.len() as u64);
    assert_eq!(stats.hashed_bits, HASHED_BITS);

    // Eviction over the wire clears both caches (regression: scaffold too).
    let Response::Evicted(counts) = client.call(&Request::Evict { app }).unwrap() else {
        panic!("expected evicted counts");
    };
    assert_eq!(counts.memo, candidates.len());
    assert_eq!(counts.scaffold, 0);
    let Response::Stats(after) = client.call(&Request::Stats { app }).unwrap() else {
        panic!("expected stats");
    };
    assert_eq!(after.memo.entries, 0);
    assert_eq!(after.scaffold.entries, 0);

    // Unknown apps fail over the wire exactly as in-process.
    let ghost = AppId::from_raw(99);
    assert_eq!(
        client.call(&Request::Stats { app: ghost }).unwrap(),
        Response::Error(ServeError::UnknownApp(ghost))
    );

    // The wire-level control frame answers without touching the pool.
    let wire = client.server_stats().unwrap();
    assert!(wire.frames_in > 0);
    assert_eq!(wire.connections, 1);
}

#[test]
fn oversized_frames_close_the_connection_with_one_error() {
    let service = Arc::new(IndexService::new());
    service
        .register(Registration::new(
            e2e_profile(),
            CacheConfig::paper_cache(1),
        ))
        .unwrap();
    let server = serve(Arc::clone(&service));
    let mut client = Client::connect(server.local_addr()).unwrap();

    use std::io::Write as _;
    let stream = client.raw_stream();
    // A header claiming 1 GiB: framing is untrustworthy, connection closes.
    stream.write_all(&(1u32 << 30).to_be_bytes()).unwrap();
    stream.flush().unwrap();

    let (_, frame) = client.recv().unwrap();
    assert_eq!(
        frame,
        ServerFrame::Response(Response::Error(ServeError::Wire(
            WireError::OversizedFrame { len: 1 << 30 }
        )))
    );
    // After the error the server hangs up.
    assert!(client.recv().is_err());
    assert_eq!(server.wire_stats().decode_errors, 1);
}

/// Sanity: the codec helpers used above really do frame the way the server
/// reads (guards against the test crafting frames the server would not).
#[test]
fn handcrafted_frames_agree_with_split_frame() {
    let mut out = Vec::new();
    encode_request(
        5,
        &Request::Stats {
            app: AppId::from_raw(1),
        },
        &mut out,
    );
    let (payload, consumed) = split_frame(&out).unwrap().unwrap();
    assert_eq!(consumed, out.len());
    assert_eq!(payload.len(), out.len() - 4);
}
