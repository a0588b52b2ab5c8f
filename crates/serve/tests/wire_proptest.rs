//! Property tests for the binary wire codec: every [`Request`]/[`Response`]
//! variant round-trips encode → decode bit-identically, and malformed frames
//! of every flavour come back as typed [`WireError`]s — never a panic, never
//! a desynchronized stream.

use cache_sim::{CacheError, CacheStats};
use gf2::PackedBasis;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xorindex::{
    BoundedCost, HashFunction, MemoShardStats, MemoStats, ScaffoldStats, SearchAlgorithm,
    SearchOutcome, XorIndexError,
};
use xorindex_serve::{
    decode_client_frame, decode_server_frame, encode_request, encode_response, split_frame, AppId,
    AppStats, ClientFrame, EvictCounts, Request, Response, ServeError, ServerFrame, WireError,
    FRAME_HEADER_BYTES, MAX_FRAME_BYTES, WIRE_VERSION,
};
use xorindex_verify::{
    CandidateVerdict, EstimateAudit, ReplayStats, SimStats, VerifiedOutcome, VerifyError,
};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn basis_strategy() -> impl Strategy<Value = PackedBasis> {
    (1usize..=64).prop_flat_map(|width| {
        proptest::collection::vec(any::<u64>(), 0..6).prop_map(move |generators| {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let mut basis = PackedBasis::trivial(width);
            for g in generators {
                basis.insert(g & mask);
            }
            basis
        })
    })
}

fn bases_strategy() -> impl Strategy<Value = Vec<PackedBasis>> {
    proptest::collection::vec(basis_strategy(), 0..5)
}

fn algorithm_strategy() -> impl Strategy<Value = SearchAlgorithm> {
    any::<bool>().prop_map(|exhaustive| {
        if exhaustive {
            SearchAlgorithm::OptimalBitSelect
        } else {
            SearchAlgorithm::HillClimb
        }
    })
}

/// A random full-column-rank hash function (what searches produce).
fn function_strategy() -> impl Strategy<Value = HashFunction> {
    (2usize..=16, any::<u64>()).prop_flat_map(|(n, seed)| {
        (1usize..n).prop_map(move |m| {
            let mut rng = StdRng::seed_from_u64(seed);
            HashFunction::new(gf2::random::random_full_rank_matrix(&mut rng, n, m))
                .expect("generated matrix has full column rank")
        })
    })
}

fn outcome_strategy() -> impl Strategy<Value = SearchOutcome> {
    (
        function_strategy(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(function, estimated_misses, baseline_estimate, evaluations, steps)| SearchOutcome {
                function,
                estimated_misses,
                baseline_estimate,
                evaluations,
                steps,
            },
        )
}

fn string_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127, 0..24)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII"))
}

fn memo_stats_strategy() -> impl Strategy<Value = MemoStats> {
    (
        (1u32..64, any::<u32>(), 0u8..2, any::<u32>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((shards, entries, has_cap, cap), (hits, misses, rejected_inserts))| MemoStats {
                shards: shards as usize,
                entries: entries as usize,
                capacity: (has_cap == 1).then_some(cap as usize),
                hits,
                misses,
                rejected_inserts,
            },
        )
}

fn app_stats_strategy() -> impl Strategy<Value = AppStats> {
    (
        (any::<u64>(), 1usize..=64, 1usize..=64, any::<u32>()),
        memo_stats_strategy(),
        proptest::collection::vec(
            (any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
                |(entries, hits, misses, rejected_inserts)| MemoShardStats {
                    entries: entries as usize,
                    hits,
                    misses,
                    rejected_inserts,
                },
            ),
            0..8,
        ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
        ),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (app, hashed_bits, set_bits, distinct),
                memo,
                shards,
                (hits, misses, evictions, entries, capacity),
                (replays, preclass_builds, preclass_hits),
            )| AppStats {
                app: AppId::from_raw(app),
                hashed_bits,
                set_bits,
                distinct_vectors: distinct as usize,
                memo,
                shards,
                scaffold: ScaffoldStats {
                    hits,
                    misses,
                    evictions,
                    entries: entries as usize,
                    capacity: capacity as usize,
                },
                replay: ReplayStats {
                    replays,
                    preclass_builds,
                    preclass_hits,
                },
            },
        )
}

fn gf2_error_strategy() -> impl Strategy<Value = gf2::Gf2Error> {
    (0u8..4, any::<u32>(), any::<u32>(), string_strategy()).prop_map(|(variant, a, b, reason)| {
        match variant {
            0 => gf2::Gf2Error::UnsupportedWidth(a as usize),
            1 => gf2::Gf2Error::DimensionMismatch {
                expected: a as usize,
                actual: b as usize,
            },
            2 => gf2::Gf2Error::Singular,
            _ => gf2::Gf2Error::Impossible(reason),
        }
    })
}

fn xor_error_strategy() -> impl Strategy<Value = XorIndexError> {
    (
        0u8..7,
        any::<u32>(),
        any::<u32>(),
        string_strategy(),
        gf2_error_strategy(),
    )
        .prop_map(|(variant, a, b, reason, gf2e)| match variant {
            0 => XorIndexError::InvalidGeometry {
                hashed_bits: a as usize,
                set_bits: b as usize,
            },
            1 => XorIndexError::NotInClass { reason },
            2 => XorIndexError::RankDeficient,
            3 => XorIndexError::NoRepresentative { reason },
            4 => XorIndexError::Linear(gf2e),
            5 => XorIndexError::ProfileMismatch {
                profile_bits: a as usize,
                candidate_bits: b as usize,
            },
            _ => XorIndexError::MalformedProfile { reason },
        })
}

fn wire_error_strategy() -> impl Strategy<Value = WireError> {
    (0u8..6, any::<u8>(), any::<u64>(), string_strategy()).prop_map(
        |(variant, byte, value, reason)| match variant {
            0 => WireError::UnsupportedVersion(byte),
            1 => WireError::OversizedFrame { len: value },
            2 => WireError::Truncated,
            3 => WireError::BadTag(byte),
            4 => WireError::TrailingBytes { count: value },
            _ => WireError::Invalid(reason),
        },
    )
}

fn cache_stats_strategy() -> impl Strategy<Value = CacheStats> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (accesses, hits, misses, compulsory_misses),
                (capacity_misses, conflict_misses, evictions),
            )| CacheStats {
                accesses,
                hits,
                misses,
                compulsory_misses,
                capacity_misses,
                conflict_misses,
                evictions,
            },
        )
}

/// Canonical per-set conflict lists: strictly ascending sets, nonzero counts
/// — the only shape the encoder emits and the decoder accepts.
fn sim_stats_strategy() -> impl Strategy<Value = SimStats> {
    (
        cache_stats_strategy(),
        proptest::collection::vec((0u32..512, 1u64..1_000_000), 0..6),
    )
        .prop_map(|(stats, gaps)| {
            let mut set_conflicts = Vec::with_capacity(gaps.len());
            let mut next = 0u32;
            for (gap, count) in gaps {
                let set = next.saturating_add(gap);
                set_conflicts.push((set, count));
                next = set + 1;
            }
            SimStats {
                stats,
                set_conflicts,
            }
        })
}

fn audit_strategy() -> impl Strategy<Value = EstimateAudit> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((candidates, total_abs_error, max_abs_error), (concordant, discordant, tied))| {
                EstimateAudit {
                    candidates,
                    total_abs_error,
                    max_abs_error,
                    concordant,
                    discordant,
                    tied,
                }
            },
        )
}

fn verdict_strategy() -> impl Strategy<Value = CandidateVerdict> {
    (function_strategy(), any::<u64>(), sim_stats_strategy()).prop_map(
        |(function, estimated_misses, sim)| CandidateVerdict {
            function,
            estimated_misses,
            sim,
        },
    )
}

fn verified_strategy() -> impl Strategy<Value = VerifiedOutcome> {
    (
        outcome_strategy(),
        proptest::collection::vec(verdict_strategy(), 1..4),
        any::<u32>(),
        sim_stats_strategy(),
        audit_strategy(),
    )
        .prop_map(|(search, candidates, pick, baseline, audit)| {
            let winner = pick as usize % candidates.len();
            VerifiedOutcome {
                search,
                candidates,
                winner,
                baseline,
                audit,
            }
        })
}

fn cache_error_strategy() -> impl Strategy<Value = CacheError> {
    (0u8..4, 0u8..3, any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
        |(variant, which, a, b, assoc)| match variant {
            0 => CacheError::NotPowerOfTwo {
                parameter: ["cache size", "block size", "associativity"][which as usize],
                value: a,
            },
            1 => CacheError::BlockLargerThanCache {
                size_bytes: a,
                block_bytes: b,
            },
            2 => CacheError::AssociativityTooLarge {
                associativity: assoc,
                blocks: b,
            },
            _ => CacheError::IndexFunctionMismatch {
                expected_sets: a,
                actual_sets: b,
            },
        },
    )
}

fn verify_error_strategy() -> impl Strategy<Value = VerifyError> {
    (0u8..3, any::<u32>(), any::<u32>(), cache_error_strategy()).prop_map(
        |(variant, a, b, cache_error)| match variant {
            0 => VerifyError::SetBitsMismatch {
                expected: a as usize,
                actual: b as usize,
            },
            1 => VerifyError::Cache(cache_error),
            _ => VerifyError::EmptyCandidates,
        },
    )
}

fn serve_error_strategy() -> impl Strategy<Value = ServeError> {
    (
        0u8..10,
        any::<u64>(),
        (any::<u32>(), any::<u32>()),
        xor_error_strategy(),
        wire_error_strategy(),
        verify_error_strategy(),
    )
        .prop_map(|(variant, raw, (a, b), xe, we, ve)| match variant {
            0 => ServeError::UnknownApp(AppId::from_raw(raw)),
            1 => ServeError::InvalidGeometry {
                hashed_bits: a as usize,
                set_bits: b as usize,
            },
            2 => ServeError::WidthMismatch {
                expected: a as usize,
                actual: b as usize,
            },
            3 => ServeError::Search(xe),
            4 => ServeError::QueueFull,
            5 => ServeError::Disconnected,
            6 => ServeError::Wire(we),
            7 => ServeError::NoRetainedTrace(AppId::from_raw(raw)),
            8 => ServeError::TraceTooLarge {
                blocks: u64::from(a),
                cap_blocks: u64::from(b),
            },
            _ => ServeError::Verify(ve),
        })
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        0u8..8,
        any::<u64>(),
        basis_strategy(),
        bases_strategy(),
        any::<u64>(),
        algorithm_strategy(),
        function_strategy(),
    )
        .prop_map(|(variant, raw, basis, bases, bound, algorithm, function)| {
            let app = AppId::from_raw(raw);
            match variant {
                0 => Request::PriceCandidate { app, basis },
                1 => Request::PriceBatch { app, bases },
                2 => Request::PriceBatchBounded { app, bases, bound },
                3 => Request::RunSearch { app, algorithm },
                4 => Request::Stats { app },
                5 => Request::Evict { app },
                6 => Request::SimulateFunction { app, function },
                _ => Request::OptimizeVerified {
                    app,
                    algorithm,
                    top_k: (bound % 64) as usize,
                },
            }
        })
}

fn response_strategy() -> impl Strategy<Value = Response> {
    (
        0u8..9,
        any::<u64>(),
        proptest::collection::vec(any::<u64>(), 0..6),
        proptest::collection::vec((0u8..2, any::<u64>()), 0..6),
        outcome_strategy(),
        app_stats_strategy(),
        serve_error_strategy(),
        (sim_stats_strategy(), verified_strategy()),
    )
        .prop_map(
            |(variant, value, prices, bounded, outcome, stats, error, (sim, verified))| {
                match variant {
                    0 => Response::Price(value),
                    1 => Response::Prices(prices),
                    2 => Response::BoundedPrices(
                        bounded
                            .into_iter()
                            .map(|(tag, cost)| {
                                if tag == 0 {
                                    BoundedCost::Exact(cost)
                                } else {
                                    BoundedCost::AtLeast(cost)
                                }
                            })
                            .collect(),
                    ),
                    3 => Response::Search(outcome),
                    4 => Response::Stats(stats),
                    5 => Response::Evicted(EvictCounts {
                        memo: (value >> 32) as usize,
                        scaffold: (value & 0xFFFF_FFFF) as usize,
                    }),
                    6 => Response::Simulated(sim),
                    7 => Response::Verified(verified),
                    _ => Response::Error(error),
                }
            },
        )
}

// ---------------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn requests_roundtrip_bit_identically(id in any::<u64>(), request in request_strategy()) {
        let mut out = Vec::new();
        encode_request(id, &request, &mut out);
        let (payload, consumed) = split_frame(&out).expect("well-formed").expect("complete");
        prop_assert_eq!(consumed, out.len());
        let (got_id, frame) = decode_client_frame(payload).expect("decodes");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(frame, ClientFrame::Request(request));
    }

    #[test]
    fn responses_roundtrip_bit_identically(id in any::<u64>(), response in response_strategy()) {
        let mut out = Vec::new();
        encode_response(id, &response, &mut out);
        let (payload, consumed) = split_frame(&out).expect("well-formed").expect("complete");
        prop_assert_eq!(consumed, out.len());
        let (got_id, frame) = decode_server_frame(payload).expect("decodes");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(frame, ServerFrame::Response(response));
    }

    #[test]
    fn back_to_back_frames_split_without_loss(requests in proptest::collection::vec(request_strategy(), 1..5)) {
        // Pipelining concatenates frames; splitting must recover each one.
        let mut out = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            encode_request(i as u64, request, &mut out);
        }
        let mut cursor: &[u8] = &out;
        for (i, request) in requests.iter().enumerate() {
            let (payload, consumed) = split_frame(cursor).expect("framed").expect("complete");
            let (id, frame) = decode_client_frame(payload).expect("decodes");
            prop_assert_eq!(id, i as u64);
            prop_assert_eq!(frame, ClientFrame::Request(request.clone()));
            cursor = &cursor[consumed..];
        }
        prop_assert!(cursor.is_empty());
    }

    #[test]
    fn truncating_a_valid_frame_never_panics(request in request_strategy(), keep_num in any::<u16>()) {
        let mut out = Vec::new();
        encode_request(1, &request, &mut out);
        let payload = &out[FRAME_HEADER_BYTES..];
        let keep = keep_num as usize % payload.len().max(1);
        // Every strict prefix decodes to an error (usually Truncated; a
        // prefix that cuts inside a count can surface as Invalid), never a
        // panic, never a bogus success.
        prop_assert!(decode_client_frame(&payload[..keep]).is_err());
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = split_frame(&bytes);
        let _ = decode_client_frame(&bytes);
        let _ = decode_server_frame(&bytes);
    }
}

// ---------------------------------------------------------------------------
// Malformed-frame unit tests
// ---------------------------------------------------------------------------

#[test]
fn truncated_header_is_incomplete_not_an_error() {
    // 0..3 bytes cannot even spell a length: the stream just waits.
    for len in 0..FRAME_HEADER_BYTES {
        assert_eq!(split_frame(&vec![0u8; len]).unwrap(), None);
    }
}

#[test]
fn oversized_length_is_rejected_before_buffering() {
    let header = ((MAX_FRAME_BYTES as u32) + 1).to_be_bytes();
    assert_eq!(
        split_frame(&header),
        Err(WireError::OversizedFrame {
            len: MAX_FRAME_BYTES as u64 + 1
        })
    );
    // The cap itself is fine framing-wise (the body just isn't here yet).
    let at_cap = (MAX_FRAME_BYTES as u32).to_be_bytes();
    assert_eq!(split_frame(&at_cap).unwrap(), None);
}

#[test]
fn bad_tags_and_versions_are_typed_errors() {
    let mut payload = vec![WIRE_VERSION];
    payload.extend_from_slice(&7u64.to_be_bytes());
    payload.push(0x42); // not a request tag
    assert_eq!(decode_client_frame(&payload), Err(WireError::BadTag(0x42)));
    assert_eq!(decode_server_frame(&payload), Err(WireError::BadTag(0x42)));

    let mut wrong_version = payload.clone();
    wrong_version[0] = WIRE_VERSION + 1;
    assert_eq!(
        decode_client_frame(&wrong_version),
        Err(WireError::UnsupportedVersion(WIRE_VERSION + 1))
    );
}

#[test]
fn trailing_garbage_is_detected_exactly() {
    let mut out = Vec::new();
    encode_response(3, &Response::Price(9), &mut out);
    let mut payload = out[FRAME_HEADER_BYTES..].to_vec();
    payload.extend_from_slice(&[1, 2, 3]);
    assert_eq!(
        decode_server_frame(&payload),
        Err(WireError::TrailingBytes { count: 3 })
    );
}

#[test]
fn truncated_bodies_report_truncated() {
    let mut out = Vec::new();
    encode_request(
        1,
        &Request::PriceCandidate {
            app: AppId::from_raw(0),
            basis: PackedBasis::standard_span(12, 4..12),
        },
        &mut out,
    );
    let payload = &out[FRAME_HEADER_BYTES..];
    // Chop mid-row: the basis claims 8 rows but the bytes stop short.
    assert_eq!(
        decode_client_frame(&payload[..payload.len() - 5]),
        Err(WireError::Truncated)
    );
}

#[test]
fn non_canonical_bases_are_invalid_not_panics() {
    // width 12, dim 2, rows not in strictly-decreasing-pivot order.
    let mut payload = vec![WIRE_VERSION];
    payload.extend_from_slice(&1u64.to_be_bytes());
    payload.push(0x01); // PriceCandidate
    payload.extend_from_slice(&0u64.to_be_bytes()); // app
    payload.push(12); // width
    payload.push(2); // dim
    payload.extend_from_slice(&1u64.to_be_bytes()); // pivot 0 first...
    payload.extend_from_slice(&2u64.to_be_bytes()); // ...then pivot 1: unsorted
    assert!(matches!(
        decode_client_frame(&payload),
        Err(WireError::Invalid(_))
    ));
}
