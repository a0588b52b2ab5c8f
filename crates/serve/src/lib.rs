//! Multi-tenant serving of application-specific XOR index functions.
//!
//! The paper's end state is a *reconfigurable* cache whose index function is
//! re-derived per application from that application's conflict profile.
//! Operationally that is a service: it holds one profile per registered
//! application and answers "price this candidate" / "optimize this workload"
//! requests, many applications and many clients at a time. This crate is
//! that layer, built directly on the engine split in `xorindex`:
//!
//! * [`IndexService`] — the registry. [`IndexService::register`] freezes an
//!   application's [`ConflictProfile`](xorindex::ConflictProfile) into an
//!   `Arc<`[`FrozenKernel`](xorindex::FrozenKernel)`>` and pairs it with a
//!   [`ShardedMemo`](xorindex::ShardedMemo); every request for that
//!   application — from any thread — prices through the same kernel, and
//!   the pricing requests answer repeats from the same memo. Searches price
//!   through the kernel alone, so their answers never depend on how warm
//!   the memo is.
//! * [`Request`] / [`Response`] — the typed protocol:
//!   [`Request::PriceCandidate`], [`Request::PriceBatch`],
//!   [`Request::RunSearch`], [`Request::Stats`], [`Request::Evict`],
//!   [`Request::SimulateFunction`], [`Request::OptimizeVerified`].
//!   Pricing requests carry [`gf2::PackedBasis`] candidates, priced as they
//!   arrive and cached under [`gf2::CanonicalKey`] hashes. The two
//!   simulation requests replay an
//!   application's retained trace (opt-in at registration, capped by
//!   [`DEFAULT_TRACE_CAP_BLOCKS`]) through `cache_sim` via
//!   [`xorindex_verify`], turning Eq. 4 *estimates* into measured
//!   hit/miss truth before a function is adopted.
//! * [`WorkerPool`] — N worker threads draining a bounded `crossbeam`
//!   channel of request envelopes; each reply arrives on a per-request
//!   [`PendingResponse`]. Because the kernel is immutable and the memo is
//!   sharded, pricing workers scale with cores instead of serializing on one
//!   engine.
//! * the wire codec — a length-prefixed binary encoding
//!   of the request/response enums ([`encode_request`], [`split_frame`],
//!   [`decode_server_frame`], …). Total on malformed input: every bad
//!   payload decodes to a typed [`WireError`], never a panic.
//! * [`TcpServer`] / [`Client`] — the protocol over TCP with request
//!   pipelining and per-connection backpressure: a slow client stalls only
//!   itself, never the shared worker pool. [`TcpServer::wire_stats`] counts
//!   connections, frames, bytes, decode errors and pipeline depth.
//! * snapshot/restore — [`IndexService::snapshot`] serializes every
//!   application's frozen profile entries and registry metadata into a
//!   versioned, checksummed image; [`IndexService::restore`] rebuilds a
//!   bit-identical service from it, so a restarted server comes back warm
//!   without re-profiling (memo and scaffold caches restart cold — they
//!   are performance state, not pricing state).
//!
//! Correctness is pinned by the crate's stress test: every concurrent answer
//! is bit-identical to a fresh single-threaded
//! [`EvalEngine`](xorindex::EvalEngine) over the same profile, and the
//! memo's per-shard hit/miss counters account for every pricing request
//! exactly.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use cache_sim::{BlockAddr, CacheConfig};
//! use gf2::PackedBasis;
//! use xorindex::ConflictProfile;
//! use xorindex_serve::{IndexService, Registration, Request, Response, WorkerPool};
//!
//! // Profile one application's trace for a 1 KB cache.
//! let trace = (0..200u64).map(|i| BlockAddr((i % 2) * 256));
//! let profile = ConflictProfile::from_blocks(trace, 12, 256);
//! let service = Arc::new(IndexService::new());
//! let app = service.register(Registration::new(profile, CacheConfig::paper_cache(1)))?;
//!
//! // Price a candidate null space through a 2-worker pool.
//! let pool = WorkerPool::new(Arc::clone(&service), 2, 16);
//! let candidate = PackedBasis::standard_span(12, 8..12);
//! let pending = pool.submit(Request::PriceCandidate { app, basis: candidate })?;
//! match pending.wait() {
//!     Response::Price(cost) => assert!(cost > 0), // the stride conflicts
//!     other => panic!("unexpected {other:?}"),
//! }
//! # Ok::<(), xorindex_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod server;
mod service;
mod snapshot;
mod wire;
mod worker;

pub use server::{Client, ClientError, ServerConfig, TcpServer};
pub use service::{
    AppId, AppStats, EvictCounts, IndexService, Registration, Request, Response, ServeError,
    DEFAULT_TRACE_CAP_BLOCKS,
};
pub use snapshot::{SnapshotError, MIN_SNAPSHOT_VERSION, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use wire::{
    decode_client_frame, decode_server_frame, encode_request, encode_response,
    encode_server_stats_request, encode_server_stats_response, split_frame, ClientFrame,
    ServerFrame, WireError, WireStats, FRAME_HEADER_BYTES, MAX_FRAME_BYTES, WIRE_VERSION,
};
pub use worker::{PendingResponse, RejectedRequest, WorkerPool};
