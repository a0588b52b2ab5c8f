//! The binary wire protocol: a versioned, length-prefixed frame codec for
//! the typed [`Request`]/[`Response`] protocol, so the serving layer can be
//! driven over a socket instead of an in-process channel.
//!
//! # Frame format
//!
//! ```text
//! frame   := length:u32be payload
//! payload := version:u8 request_id:u64be tag:u8 body
//! ```
//!
//! The length prefix counts the payload only and is capped at
//! [`MAX_FRAME_BYTES`]; anything larger is rejected *before* buffering, so a
//! hostile peer cannot make the server allocate from a forged header. The
//! `request_id` is an opaque correlation token: the server echoes it on the
//! matching response, which is what lets a client pipeline many requests on
//! one connection and still match answers to questions (responses also come
//! back in order, but ids make the pairing checkable).
//!
//! Request bodies use tags `0x01..=0x09`, response bodies `0x81..=0x89` plus
//! `0xFF` for [`Response::Error`]. All integers are big-endian.
//! [`PackedBasis`] candidates are the hot path: a basis is its width, its
//! dimension, and its raw `u64` rows copied straight between the frame
//! buffer and the basis's own row storage — encoding or decoding a candidate
//! performs no heap allocation beyond the row vector the decoded basis itself
//! owns.
//!
//! Decoding is total: every malformed input maps to a typed [`WireError`]
//! (never a panic), and a well-framed but undecodable payload leaves the
//! stream synchronized — the connection can answer
//! `Response::Error(ServeError::Wire(..))` and keep serving.

use std::fmt;

use bytes::{Buf, BufMut};
use cache_sim::{CacheError, CacheStats};
use gf2::{BitMatrix, BitVec, PackedBasis};
use xorindex::{
    BoundedCost, HashFunction, MemoShardStats, MemoStats, ScaffoldStats, SearchAlgorithm,
    SearchOutcome,
};
use xorindex_verify::{
    CandidateVerdict, EstimateAudit, ReplayStats, SimStats, VerifiedOutcome, VerifyError,
};

use crate::service::{AppId, AppStats, EvictCounts, Request, Response, ServeError};

/// Protocol version carried in every payload; bumped on any layout change.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on a frame's payload length (64 MiB). A header claiming more
/// is rejected as [`WireError::OversizedFrame`] without buffering.
pub const MAX_FRAME_BYTES: usize = 1 << 26;

/// Size of the length prefix preceding every payload.
pub const FRAME_HEADER_BYTES: usize = 4;

// Request tags.
const TAG_PRICE_CANDIDATE: u8 = 0x01;
const TAG_PRICE_BATCH: u8 = 0x02;
const TAG_PRICE_BATCH_BOUNDED: u8 = 0x03;
const TAG_RUN_SEARCH: u8 = 0x04;
const TAG_STATS: u8 = 0x05;
const TAG_EVICT: u8 = 0x06;
const TAG_SERVER_STATS_REQUEST: u8 = 0x07;
const TAG_SIMULATE_FUNCTION: u8 = 0x08;
const TAG_OPTIMIZE_VERIFIED: u8 = 0x09;

// Response tags.
const TAG_PRICE: u8 = 0x81;
const TAG_PRICES: u8 = 0x82;
const TAG_BOUNDED_PRICES: u8 = 0x83;
const TAG_SEARCH: u8 = 0x84;
const TAG_APP_STATS: u8 = 0x85;
const TAG_EVICTED: u8 = 0x86;
const TAG_SERVER_STATS: u8 = 0x87;
const TAG_SIMULATED: u8 = 0x88;
const TAG_VERIFIED: u8 = 0x89;
const TAG_ERROR: u8 = 0xFF;

/// Decoding failures. Every variant owns its data, so a `WireError` itself
/// travels over the wire inside [`ServeError::Wire`] and still compares equal
/// after the round trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload's version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// A frame header claimed more than [`MAX_FRAME_BYTES`] of payload.
    OversizedFrame {
        /// The claimed payload length.
        len: u64,
    },
    /// The payload ended before the structure it claimed to carry.
    Truncated,
    /// An unknown request or response tag.
    BadTag(u8),
    /// The payload decoded fully but bytes were left over — the frame length
    /// and the body disagree.
    TrailingBytes {
        /// How many bytes were left unconsumed.
        count: u64,
    },
    /// The bytes parsed but the value they spell violates an invariant
    /// (non-canonical basis rows, rank-deficient matrix, invalid UTF-8, …).
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            WireError::OversizedFrame { len } => write!(
                f,
                "frame header claims {len} payload bytes (cap {MAX_FRAME_BYTES})"
            ),
            WireError::Truncated => write!(f, "payload ended mid-structure"),
            WireError::BadTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete body")
            }
            WireError::Invalid(reason) => write!(f, "invalid payload: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Wire-level counters for one server, as answered to the
/// server-stats control frame (tag `0x07`) and exposed by
/// [`TcpServer::wire_stats`](crate::TcpServer::wire_stats). These count the
/// network edge itself — the per-application pricing counters live in
/// [`AppStats`] behind [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Connections accepted since the server started.
    pub connections: u64,
    /// Request frames fully decoded (or rejected as decode errors).
    pub frames_in: u64,
    /// Response frames written back.
    pub frames_out: u64,
    /// Payload + header bytes read.
    pub bytes_in: u64,
    /// Payload + header bytes written.
    pub bytes_out: u64,
    /// Well-framed payloads that failed to decode (answered with
    /// [`ServeError::Wire`], connection kept).
    pub decode_errors: u64,
    /// High-water mark of requests in flight on any single connection.
    pub max_pipeline_depth: u64,
}

/// A decoded client-to-server payload: an API request for the worker pool,
/// or the wire-level server-stats control frame the server answers itself.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// A typed API request to hand to the [`IndexService`](crate::IndexService).
    Request(Request),
    /// "Report your wire-level counters" — answered by the connection layer
    /// without touching the worker pool.
    ServerStats,
}

/// A decoded server-to-client payload.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// A typed API response.
    Response(Response),
    /// The wire-level counters answering [`ClientFrame::ServerStats`].
    ServerStats(WireStats),
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Splits one frame off the front of an accumulation buffer.
///
/// Returns `Ok(None)` when `buf` does not yet hold a complete frame,
/// `Ok(Some((payload, consumed)))` when it does (`consumed` covers the
/// header too).
///
/// # Errors
///
/// [`WireError::OversizedFrame`] when the header claims more than
/// [`MAX_FRAME_BYTES`] — the caller should drop the connection, since the
/// stream can no longer be trusted to be framed at all.
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, WireError> {
    if buf.len() < FRAME_HEADER_BYTES {
        return Ok(None);
    }
    let mut header = buf;
    let len = header.get_u32() as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::OversizedFrame { len: len as u64 });
    }
    let total = FRAME_HEADER_BYTES + len;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((&buf[FRAME_HEADER_BYTES..total], total)))
}

/// Appends a length-prefixed frame to `out`, letting `body` write the
/// payload. Panics if the payload exceeds [`MAX_FRAME_BYTES`] — that is an
/// encoder bug (a request that large cannot be answered), not peer input.
fn frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.put_u32(0);
    body(out);
    let len = out.len() - start - FRAME_HEADER_BYTES;
    assert!(len <= MAX_FRAME_BYTES, "encoded payload exceeds frame cap");
    let header = (len as u32).to_be_bytes();
    out[start..start + FRAME_HEADER_BYTES].copy_from_slice(&header);
}

// ---------------------------------------------------------------------------
// Primitive readers (all total: underflow is WireError::Truncated)
// ---------------------------------------------------------------------------

fn get_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    buf.try_get_u8().map_err(|_| WireError::Truncated)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    buf.try_get_u32().map_err(|_| WireError::Truncated)
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    buf.try_get_u64().map_err(|_| WireError::Truncated)
}

fn get_usize(buf: &mut &[u8]) -> Result<usize, WireError> {
    let v = get_u64(buf)?;
    usize::try_from(v).map_err(|_| WireError::Invalid(format!("value {v} overflows usize")))
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Reads a `u32` element count and rejects counts that could not possibly
/// fit in the remaining payload (`min_element_bytes` each) — so a forged
/// count never drives a huge allocation.
fn get_count(buf: &mut &[u8], min_element_bytes: usize) -> Result<usize, WireError> {
    let count = get_u32(buf)? as usize;
    if count.saturating_mul(min_element_bytes) > buf.len() {
        return Err(WireError::Truncated);
    }
    Ok(count)
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.put_u32(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn get_string(buf: &mut &[u8]) -> Result<String, WireError> {
    let len = get_u32(buf)? as usize;
    let bytes = take(buf, len)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| WireError::Invalid("string is not UTF-8".to_string()))
}

fn get_app(buf: &mut &[u8]) -> Result<AppId, WireError> {
    Ok(AppId::from_raw(get_u64(buf)?))
}

// ---------------------------------------------------------------------------
// Domain values
// ---------------------------------------------------------------------------

fn put_basis(out: &mut Vec<u8>, basis: &PackedBasis) {
    out.put_u8(basis.width() as u8);
    out.put_u8(basis.dim() as u8);
    for &row in basis.rows() {
        out.put_u64(row);
    }
}

fn get_basis(buf: &mut &[u8]) -> Result<PackedBasis, WireError> {
    let width = get_u8(buf)? as usize;
    let dim = get_u8(buf)? as usize;
    let mut raw = take(buf, dim * 8)?;
    let mut rows = Vec::with_capacity(dim);
    for _ in 0..dim {
        rows.push(get_u64(&mut raw)?);
    }
    PackedBasis::try_from_rows(width, rows).map_err(|e| WireError::Invalid(e.to_string()))
}

fn put_bases(out: &mut Vec<u8>, bases: &[PackedBasis]) {
    out.put_u32(bases.len() as u32);
    for basis in bases {
        put_basis(out, basis);
    }
}

fn get_bases(buf: &mut &[u8]) -> Result<Vec<PackedBasis>, WireError> {
    let count = get_count(buf, 2)?;
    let mut bases = Vec::with_capacity(count);
    for _ in 0..count {
        bases.push(get_basis(buf)?);
    }
    Ok(bases)
}

fn put_algorithm(out: &mut Vec<u8>, algorithm: &SearchAlgorithm) {
    match algorithm {
        SearchAlgorithm::HillClimb => out.put_u8(0),
        SearchAlgorithm::OptimalBitSelect => out.put_u8(3),
    }
}

/// Decodes an algorithm tag. Tags 1 and 2 stay unassigned: older clients
/// may still send them, followed by parameters, and they must keep decoding
/// as unknown rather than as some other algorithm.
fn get_algorithm(buf: &mut &[u8]) -> Result<SearchAlgorithm, WireError> {
    match get_u8(buf)? {
        0 => Ok(SearchAlgorithm::HillClimb),
        3 => Ok(SearchAlgorithm::OptimalBitSelect),
        tag => Err(WireError::Invalid(format!("unknown algorithm tag {tag}"))),
    }
}

fn put_function(out: &mut Vec<u8>, function: &HashFunction) {
    let matrix = function.matrix();
    out.put_u8(matrix.n_rows() as u8);
    out.put_u8(matrix.n_cols() as u8);
    for r in 0..matrix.n_rows() {
        out.put_u64(matrix.row(r).as_u64());
    }
}

fn get_function(buf: &mut &[u8]) -> Result<HashFunction, WireError> {
    let n_rows = get_u8(buf)? as usize;
    let n_cols = get_u8(buf)? as usize;
    if n_rows == 0 || n_cols == 0 || n_cols > 64 {
        return Err(WireError::Invalid(format!(
            "hash-function matrix shape {n_rows}x{n_cols} is unrepresentable"
        )));
    }
    let mut raw = take(buf, n_rows * 8)?;
    let mask = if n_cols == 64 {
        u64::MAX
    } else {
        (1u64 << n_cols) - 1
    };
    let mut rows = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let word = get_u64(&mut raw)?;
        if word & !mask != 0 {
            return Err(WireError::Invalid(format!(
                "matrix row {word:#x} has bits outside width {n_cols}"
            )));
        }
        rows.push(BitVec::from_u64(word, n_cols));
    }
    let matrix = BitMatrix::from_rows(&rows).map_err(|e| WireError::Invalid(e.to_string()))?;
    HashFunction::new(matrix).map_err(|e| WireError::Invalid(e.to_string()))
}

fn put_outcome(out: &mut Vec<u8>, outcome: &SearchOutcome) {
    put_function(out, &outcome.function);
    out.put_u64(outcome.estimated_misses);
    out.put_u64(outcome.baseline_estimate);
    out.put_u64(outcome.evaluations);
    out.put_u64(outcome.steps);
}

fn get_outcome(buf: &mut &[u8]) -> Result<SearchOutcome, WireError> {
    Ok(SearchOutcome {
        function: get_function(buf)?,
        estimated_misses: get_u64(buf)?,
        baseline_estimate: get_u64(buf)?,
        evaluations: get_u64(buf)?,
        steps: get_u64(buf)?,
    })
}

fn put_cache_stats(out: &mut Vec<u8>, stats: &CacheStats) {
    out.put_u64(stats.accesses);
    out.put_u64(stats.hits);
    out.put_u64(stats.misses);
    out.put_u64(stats.compulsory_misses);
    out.put_u64(stats.capacity_misses);
    out.put_u64(stats.conflict_misses);
    out.put_u64(stats.evictions);
}

fn get_cache_stats(buf: &mut &[u8]) -> Result<CacheStats, WireError> {
    Ok(CacheStats {
        accesses: get_u64(buf)?,
        hits: get_u64(buf)?,
        misses: get_u64(buf)?,
        compulsory_misses: get_u64(buf)?,
        capacity_misses: get_u64(buf)?,
        conflict_misses: get_u64(buf)?,
        evictions: get_u64(buf)?,
    })
}

fn put_sim_stats(out: &mut Vec<u8>, sim: &SimStats) {
    put_cache_stats(out, &sim.stats);
    out.put_u32(sim.set_conflicts.len() as u32);
    for &(set, count) in &sim.set_conflicts {
        out.put_u32(set);
        out.put_u64(count);
    }
}

fn get_sim_stats(buf: &mut &[u8]) -> Result<SimStats, WireError> {
    let stats = get_cache_stats(buf)?;
    let count = get_count(buf, 12)?;
    let mut set_conflicts = Vec::with_capacity(count);
    let mut previous: Option<u32> = None;
    for _ in 0..count {
        let set = get_u32(buf)?;
        let conflicts = get_u64(buf)?;
        // The breakdown is canonical: strictly ascending sets, zeros omitted.
        if previous.is_some_and(|p| p >= set) {
            return Err(WireError::Invalid(format!(
                "set-conflict breakdown is not strictly ascending at set {set}"
            )));
        }
        if conflicts == 0 {
            return Err(WireError::Invalid(format!(
                "set-conflict breakdown carries a zero entry for set {set}"
            )));
        }
        previous = Some(set);
        set_conflicts.push((set, conflicts));
    }
    Ok(SimStats {
        stats,
        set_conflicts,
    })
}

fn put_audit(out: &mut Vec<u8>, audit: &EstimateAudit) {
    out.put_u64(audit.candidates);
    out.put_u64(audit.total_abs_error);
    out.put_u64(audit.max_abs_error);
    out.put_u64(audit.concordant);
    out.put_u64(audit.discordant);
    out.put_u64(audit.tied);
}

fn get_audit(buf: &mut &[u8]) -> Result<EstimateAudit, WireError> {
    Ok(EstimateAudit {
        candidates: get_u64(buf)?,
        total_abs_error: get_u64(buf)?,
        max_abs_error: get_u64(buf)?,
        concordant: get_u64(buf)?,
        discordant: get_u64(buf)?,
        tied: get_u64(buf)?,
    })
}

fn put_verdict(out: &mut Vec<u8>, verdict: &CandidateVerdict) {
    put_function(out, &verdict.function);
    out.put_u64(verdict.estimated_misses);
    put_sim_stats(out, &verdict.sim);
}

fn get_verdict(buf: &mut &[u8]) -> Result<CandidateVerdict, WireError> {
    Ok(CandidateVerdict {
        function: get_function(buf)?,
        estimated_misses: get_u64(buf)?,
        sim: get_sim_stats(buf)?,
    })
}

fn put_verified(out: &mut Vec<u8>, outcome: &VerifiedOutcome) {
    put_outcome(out, &outcome.search);
    out.put_u32(outcome.candidates.len() as u32);
    for verdict in &outcome.candidates {
        put_verdict(out, verdict);
    }
    out.put_u64(outcome.winner as u64);
    put_sim_stats(out, &outcome.baseline);
    put_audit(out, &outcome.audit);
}

fn get_verified(buf: &mut &[u8]) -> Result<VerifiedOutcome, WireError> {
    let search = get_outcome(buf)?;
    let count = get_count(buf, 70)?;
    let mut candidates = Vec::with_capacity(count);
    for _ in 0..count {
        candidates.push(get_verdict(buf)?);
    }
    let winner = get_usize(buf)?;
    if winner >= candidates.len() {
        return Err(WireError::Invalid(format!(
            "winner index {winner} out of range for {} candidates",
            candidates.len()
        )));
    }
    Ok(VerifiedOutcome {
        search,
        candidates,
        winner,
        baseline: get_sim_stats(buf)?,
        audit: get_audit(buf)?,
    })
}

fn put_memo_stats(out: &mut Vec<u8>, stats: &MemoStats) {
    out.put_u64(stats.shards as u64);
    out.put_u64(stats.entries as u64);
    match stats.capacity {
        Some(cap) => {
            out.put_u8(1);
            out.put_u64(cap as u64);
        }
        None => out.put_u8(0),
    }
    out.put_u64(stats.hits);
    out.put_u64(stats.misses);
    out.put_u64(stats.rejected_inserts);
}

fn get_memo_stats(buf: &mut &[u8]) -> Result<MemoStats, WireError> {
    let shards = get_usize(buf)?;
    let entries = get_usize(buf)?;
    let capacity = match get_u8(buf)? {
        0 => None,
        1 => Some(get_usize(buf)?),
        tag => {
            return Err(WireError::Invalid(format!(
                "capacity flag must be 0 or 1, got {tag}"
            )))
        }
    };
    Ok(MemoStats {
        shards,
        entries,
        capacity,
        hits: get_u64(buf)?,
        misses: get_u64(buf)?,
        rejected_inserts: get_u64(buf)?,
    })
}

fn put_shard_stats(out: &mut Vec<u8>, stats: &MemoShardStats) {
    out.put_u64(stats.entries as u64);
    out.put_u64(stats.hits);
    out.put_u64(stats.misses);
    out.put_u64(stats.rejected_inserts);
}

fn get_shard_stats(buf: &mut &[u8]) -> Result<MemoShardStats, WireError> {
    Ok(MemoShardStats {
        entries: get_usize(buf)?,
        hits: get_u64(buf)?,
        misses: get_u64(buf)?,
        rejected_inserts: get_u64(buf)?,
    })
}

fn put_scaffold_stats(out: &mut Vec<u8>, stats: &ScaffoldStats) {
    out.put_u64(stats.hits);
    out.put_u64(stats.misses);
    out.put_u64(stats.evictions);
    out.put_u64(stats.entries as u64);
    out.put_u64(stats.capacity as u64);
}

fn get_scaffold_stats(buf: &mut &[u8]) -> Result<ScaffoldStats, WireError> {
    Ok(ScaffoldStats {
        hits: get_u64(buf)?,
        misses: get_u64(buf)?,
        evictions: get_u64(buf)?,
        entries: get_usize(buf)?,
        capacity: get_usize(buf)?,
    })
}

fn put_app_stats(out: &mut Vec<u8>, stats: &AppStats) {
    out.put_u64(stats.app.raw());
    out.put_u64(stats.hashed_bits as u64);
    out.put_u64(stats.set_bits as u64);
    out.put_u64(stats.distinct_vectors as u64);
    put_memo_stats(out, &stats.memo);
    out.put_u32(stats.shards.len() as u32);
    for shard in &stats.shards {
        put_shard_stats(out, shard);
    }
    put_scaffold_stats(out, &stats.scaffold);
    put_replay_stats(out, &stats.replay);
}

fn put_replay_stats(out: &mut Vec<u8>, stats: &ReplayStats) {
    out.put_u64(stats.replays);
    out.put_u64(stats.preclass_builds);
    out.put_u64(stats.preclass_hits);
}

fn get_replay_stats(buf: &mut &[u8]) -> Result<ReplayStats, WireError> {
    Ok(ReplayStats {
        replays: get_u64(buf)?,
        preclass_builds: get_u64(buf)?,
        preclass_hits: get_u64(buf)?,
    })
}

fn get_app_stats(buf: &mut &[u8]) -> Result<AppStats, WireError> {
    let app = get_app(buf)?;
    let hashed_bits = get_usize(buf)?;
    let set_bits = get_usize(buf)?;
    let distinct_vectors = get_usize(buf)?;
    let memo = get_memo_stats(buf)?;
    let count = get_count(buf, 32)?;
    let mut shards = Vec::with_capacity(count);
    for _ in 0..count {
        shards.push(get_shard_stats(buf)?);
    }
    Ok(AppStats {
        app,
        hashed_bits,
        set_bits,
        distinct_vectors,
        memo,
        shards,
        scaffold: get_scaffold_stats(buf)?,
        replay: get_replay_stats(buf)?,
    })
}

fn put_gf2_error(out: &mut Vec<u8>, error: &gf2::Gf2Error) {
    match error {
        gf2::Gf2Error::UnsupportedWidth(w) => {
            out.put_u8(0);
            out.put_u64(*w as u64);
        }
        gf2::Gf2Error::DimensionMismatch { expected, actual } => {
            out.put_u8(1);
            out.put_u64(*expected as u64);
            out.put_u64(*actual as u64);
        }
        gf2::Gf2Error::Singular => out.put_u8(2),
        gf2::Gf2Error::Impossible(reason) => {
            out.put_u8(3);
            put_string(out, reason);
        }
    }
}

fn get_gf2_error(buf: &mut &[u8]) -> Result<gf2::Gf2Error, WireError> {
    match get_u8(buf)? {
        0 => Ok(gf2::Gf2Error::UnsupportedWidth(get_usize(buf)?)),
        1 => Ok(gf2::Gf2Error::DimensionMismatch {
            expected: get_usize(buf)?,
            actual: get_usize(buf)?,
        }),
        2 => Ok(gf2::Gf2Error::Singular),
        3 => Ok(gf2::Gf2Error::Impossible(get_string(buf)?)),
        tag => Err(WireError::Invalid(format!("unknown GF(2) error tag {tag}"))),
    }
}

fn put_xor_error(out: &mut Vec<u8>, error: &xorindex::XorIndexError) {
    use xorindex::XorIndexError as E;
    match error {
        E::InvalidGeometry {
            hashed_bits,
            set_bits,
        } => {
            out.put_u8(0);
            out.put_u64(*hashed_bits as u64);
            out.put_u64(*set_bits as u64);
        }
        E::NotInClass { reason } => {
            out.put_u8(1);
            put_string(out, reason);
        }
        E::RankDeficient => out.put_u8(2),
        E::NoRepresentative { reason } => {
            out.put_u8(3);
            put_string(out, reason);
        }
        E::Linear(e) => {
            out.put_u8(4);
            put_gf2_error(out, e);
        }
        E::ProfileMismatch {
            profile_bits,
            candidate_bits,
        } => {
            out.put_u8(5);
            out.put_u64(*profile_bits as u64);
            out.put_u64(*candidate_bits as u64);
        }
        E::MalformedProfile { reason } => {
            out.put_u8(6);
            put_string(out, reason);
        }
    }
}

fn get_xor_error(buf: &mut &[u8]) -> Result<xorindex::XorIndexError, WireError> {
    use xorindex::XorIndexError as E;
    match get_u8(buf)? {
        0 => Ok(E::InvalidGeometry {
            hashed_bits: get_usize(buf)?,
            set_bits: get_usize(buf)?,
        }),
        1 => Ok(E::NotInClass {
            reason: get_string(buf)?,
        }),
        2 => Ok(E::RankDeficient),
        3 => Ok(E::NoRepresentative {
            reason: get_string(buf)?,
        }),
        4 => Ok(E::Linear(get_gf2_error(buf)?)),
        5 => Ok(E::ProfileMismatch {
            profile_bits: get_usize(buf)?,
            candidate_bits: get_usize(buf)?,
        }),
        6 => Ok(E::MalformedProfile {
            reason: get_string(buf)?,
        }),
        tag => Err(WireError::Invalid(format!(
            "unknown search error tag {tag}"
        ))),
    }
}

fn put_wire_error(out: &mut Vec<u8>, error: &WireError) {
    match error {
        WireError::UnsupportedVersion(v) => {
            out.put_u8(0);
            out.put_u8(*v);
        }
        WireError::OversizedFrame { len } => {
            out.put_u8(1);
            out.put_u64(*len);
        }
        WireError::Truncated => out.put_u8(2),
        WireError::BadTag(tag) => {
            out.put_u8(3);
            out.put_u8(*tag);
        }
        WireError::TrailingBytes { count } => {
            out.put_u8(4);
            out.put_u64(*count);
        }
        WireError::Invalid(reason) => {
            out.put_u8(5);
            put_string(out, reason);
        }
    }
}

fn get_wire_error(buf: &mut &[u8]) -> Result<WireError, WireError> {
    match get_u8(buf)? {
        0 => Ok(WireError::UnsupportedVersion(get_u8(buf)?)),
        1 => Ok(WireError::OversizedFrame { len: get_u64(buf)? }),
        2 => Ok(WireError::Truncated),
        3 => Ok(WireError::BadTag(get_u8(buf)?)),
        4 => Ok(WireError::TrailingBytes {
            count: get_u64(buf)?,
        }),
        5 => Ok(WireError::Invalid(get_string(buf)?)),
        tag => Err(WireError::Invalid(format!("unknown wire error tag {tag}"))),
    }
}

fn put_cache_error(out: &mut Vec<u8>, error: &CacheError) {
    match error {
        CacheError::NotPowerOfTwo { parameter, value } => {
            out.put_u8(0);
            put_string(out, parameter);
            out.put_u64(*value);
        }
        CacheError::BlockLargerThanCache {
            size_bytes,
            block_bytes,
        } => {
            out.put_u8(1);
            out.put_u64(*size_bytes);
            out.put_u64(*block_bytes);
        }
        CacheError::AssociativityTooLarge {
            associativity,
            blocks,
        } => {
            out.put_u8(2);
            out.put_u32(*associativity);
            out.put_u64(*blocks);
        }
        CacheError::IndexFunctionMismatch {
            expected_sets,
            actual_sets,
        } => {
            out.put_u8(3);
            out.put_u64(*expected_sets);
            out.put_u64(*actual_sets);
        }
    }
}

fn get_cache_error(buf: &mut &[u8]) -> Result<CacheError, WireError> {
    match get_u8(buf)? {
        0 => {
            // The parameter is a `&'static str` on the sending side; only the
            // names the builder actually uses are representable.
            let parameter = match get_string(buf)?.as_str() {
                "cache size" => "cache size",
                "block size" => "block size",
                "associativity" => "associativity",
                other => {
                    return Err(WireError::Invalid(format!(
                        "unknown cache parameter {other:?}"
                    )))
                }
            };
            Ok(CacheError::NotPowerOfTwo {
                parameter,
                value: get_u64(buf)?,
            })
        }
        1 => Ok(CacheError::BlockLargerThanCache {
            size_bytes: get_u64(buf)?,
            block_bytes: get_u64(buf)?,
        }),
        2 => Ok(CacheError::AssociativityTooLarge {
            associativity: get_u32(buf)?,
            blocks: get_u64(buf)?,
        }),
        3 => Ok(CacheError::IndexFunctionMismatch {
            expected_sets: get_u64(buf)?,
            actual_sets: get_u64(buf)?,
        }),
        tag => Err(WireError::Invalid(format!("unknown cache error tag {tag}"))),
    }
}

fn put_verify_error(out: &mut Vec<u8>, error: &VerifyError) {
    match error {
        VerifyError::SetBitsMismatch { expected, actual } => {
            out.put_u8(0);
            out.put_u64(*expected as u64);
            out.put_u64(*actual as u64);
        }
        VerifyError::Cache(e) => {
            out.put_u8(1);
            put_cache_error(out, e);
        }
        VerifyError::EmptyCandidates => out.put_u8(2),
    }
}

fn get_verify_error(buf: &mut &[u8]) -> Result<VerifyError, WireError> {
    match get_u8(buf)? {
        0 => Ok(VerifyError::SetBitsMismatch {
            expected: get_usize(buf)?,
            actual: get_usize(buf)?,
        }),
        1 => Ok(VerifyError::Cache(get_cache_error(buf)?)),
        2 => Ok(VerifyError::EmptyCandidates),
        tag => Err(WireError::Invalid(format!(
            "unknown verify error tag {tag}"
        ))),
    }
}

fn put_serve_error(out: &mut Vec<u8>, error: &ServeError) {
    match error {
        ServeError::UnknownApp(app) => {
            out.put_u8(0);
            out.put_u64(app.raw());
        }
        ServeError::InvalidGeometry {
            hashed_bits,
            set_bits,
        } => {
            out.put_u8(1);
            out.put_u64(*hashed_bits as u64);
            out.put_u64(*set_bits as u64);
        }
        ServeError::WidthMismatch { expected, actual } => {
            out.put_u8(2);
            out.put_u64(*expected as u64);
            out.put_u64(*actual as u64);
        }
        ServeError::Search(e) => {
            out.put_u8(3);
            put_xor_error(out, e);
        }
        ServeError::QueueFull => out.put_u8(4),
        ServeError::Disconnected => out.put_u8(5),
        ServeError::Wire(e) => {
            out.put_u8(6);
            put_wire_error(out, e);
        }
        ServeError::NoRetainedTrace(app) => {
            out.put_u8(7);
            out.put_u64(app.raw());
        }
        ServeError::TraceTooLarge { blocks, cap_blocks } => {
            out.put_u8(8);
            out.put_u64(*blocks);
            out.put_u64(*cap_blocks);
        }
        ServeError::Verify(e) => {
            out.put_u8(9);
            put_verify_error(out, e);
        }
    }
}

fn get_serve_error(buf: &mut &[u8]) -> Result<ServeError, WireError> {
    match get_u8(buf)? {
        0 => Ok(ServeError::UnknownApp(get_app(buf)?)),
        1 => Ok(ServeError::InvalidGeometry {
            hashed_bits: get_usize(buf)?,
            set_bits: get_usize(buf)?,
        }),
        2 => Ok(ServeError::WidthMismatch {
            expected: get_usize(buf)?,
            actual: get_usize(buf)?,
        }),
        3 => Ok(ServeError::Search(get_xor_error(buf)?)),
        4 => Ok(ServeError::QueueFull),
        5 => Ok(ServeError::Disconnected),
        6 => Ok(ServeError::Wire(get_wire_error(buf)?)),
        7 => Ok(ServeError::NoRetainedTrace(get_app(buf)?)),
        8 => Ok(ServeError::TraceTooLarge {
            blocks: get_u64(buf)?,
            cap_blocks: get_u64(buf)?,
        }),
        9 => Ok(ServeError::Verify(get_verify_error(buf)?)),
        tag => Err(WireError::Invalid(format!("unknown serve error tag {tag}"))),
    }
}

fn put_wire_stats(out: &mut Vec<u8>, stats: &WireStats) {
    out.put_u64(stats.connections);
    out.put_u64(stats.frames_in);
    out.put_u64(stats.frames_out);
    out.put_u64(stats.bytes_in);
    out.put_u64(stats.bytes_out);
    out.put_u64(stats.decode_errors);
    out.put_u64(stats.max_pipeline_depth);
}

fn get_wire_stats(buf: &mut &[u8]) -> Result<WireStats, WireError> {
    Ok(WireStats {
        connections: get_u64(buf)?,
        frames_in: get_u64(buf)?,
        frames_out: get_u64(buf)?,
        bytes_in: get_u64(buf)?,
        bytes_out: get_u64(buf)?,
        decode_errors: get_u64(buf)?,
        max_pipeline_depth: get_u64(buf)?,
    })
}

// ---------------------------------------------------------------------------
// Top-level encode / decode
// ---------------------------------------------------------------------------

/// Appends one request frame (header + payload) to `out`.
pub fn encode_request(id: u64, request: &Request, out: &mut Vec<u8>) {
    frame(out, |out| {
        out.put_u8(WIRE_VERSION);
        out.put_u64(id);
        match request {
            Request::PriceCandidate { app, basis } => {
                out.put_u8(TAG_PRICE_CANDIDATE);
                out.put_u64(app.raw());
                put_basis(out, basis);
            }
            Request::PriceBatch { app, bases } => {
                out.put_u8(TAG_PRICE_BATCH);
                out.put_u64(app.raw());
                put_bases(out, bases);
            }
            Request::PriceBatchBounded { app, bases, bound } => {
                out.put_u8(TAG_PRICE_BATCH_BOUNDED);
                out.put_u64(app.raw());
                out.put_u64(*bound);
                put_bases(out, bases);
            }
            Request::RunSearch { app, algorithm } => {
                out.put_u8(TAG_RUN_SEARCH);
                out.put_u64(app.raw());
                put_algorithm(out, algorithm);
            }
            Request::Stats { app } => {
                out.put_u8(TAG_STATS);
                out.put_u64(app.raw());
            }
            Request::Evict { app } => {
                out.put_u8(TAG_EVICT);
                out.put_u64(app.raw());
            }
            Request::SimulateFunction { app, function } => {
                out.put_u8(TAG_SIMULATE_FUNCTION);
                out.put_u64(app.raw());
                put_function(out, function);
            }
            Request::OptimizeVerified {
                app,
                algorithm,
                top_k,
            } => {
                out.put_u8(TAG_OPTIMIZE_VERIFIED);
                out.put_u64(app.raw());
                put_algorithm(out, algorithm);
                out.put_u64(*top_k as u64);
            }
        }
    });
}

/// Appends the wire-level server-stats control request to `out`.
pub fn encode_server_stats_request(id: u64, out: &mut Vec<u8>) {
    frame(out, |out| {
        out.put_u8(WIRE_VERSION);
        out.put_u64(id);
        out.put_u8(TAG_SERVER_STATS_REQUEST);
    });
}

/// Appends one response frame (header + payload) to `out`.
pub fn encode_response(id: u64, response: &Response, out: &mut Vec<u8>) {
    frame(out, |out| {
        out.put_u8(WIRE_VERSION);
        out.put_u64(id);
        match response {
            Response::Price(cost) => {
                out.put_u8(TAG_PRICE);
                out.put_u64(*cost);
            }
            Response::Prices(costs) => {
                out.put_u8(TAG_PRICES);
                out.put_u32(costs.len() as u32);
                for &cost in costs {
                    out.put_u64(cost);
                }
            }
            Response::BoundedPrices(costs) => {
                out.put_u8(TAG_BOUNDED_PRICES);
                out.put_u32(costs.len() as u32);
                for cost in costs {
                    match cost {
                        BoundedCost::Exact(c) => {
                            out.put_u8(0);
                            out.put_u64(*c);
                        }
                        BoundedCost::AtLeast(b) => {
                            out.put_u8(1);
                            out.put_u64(*b);
                        }
                    }
                }
            }
            Response::Search(outcome) => {
                out.put_u8(TAG_SEARCH);
                put_outcome(out, outcome);
            }
            Response::Stats(stats) => {
                out.put_u8(TAG_APP_STATS);
                put_app_stats(out, stats);
            }
            Response::Evicted(counts) => {
                out.put_u8(TAG_EVICTED);
                out.put_u64(counts.memo as u64);
                out.put_u64(counts.scaffold as u64);
            }
            Response::Simulated(sim) => {
                out.put_u8(TAG_SIMULATED);
                put_sim_stats(out, sim);
            }
            Response::Verified(outcome) => {
                out.put_u8(TAG_VERIFIED);
                put_verified(out, outcome);
            }
            Response::Error(error) => {
                out.put_u8(TAG_ERROR);
                put_serve_error(out, error);
            }
        }
    });
}

/// Appends the wire-level server-stats response to `out`.
pub fn encode_server_stats_response(id: u64, stats: &WireStats, out: &mut Vec<u8>) {
    frame(out, |out| {
        out.put_u8(WIRE_VERSION);
        out.put_u64(id);
        out.put_u8(TAG_SERVER_STATS);
        put_wire_stats(out, stats);
    });
}

/// Best-effort extraction of the request id from a payload that may not
/// decode, so even the error response for a malformed frame can carry the
/// right correlation token. `None` when the payload is shorter than the
/// fixed `version + id` prologue (the server answers those with id 0).
#[must_use]
pub fn frame_request_id(payload: &[u8]) -> Option<u64> {
    let mut id_bytes = payload.get(1..9)?;
    id_bytes.try_get_u64().ok()
}

fn decode_prologue(payload: &[u8]) -> Result<(u64, u8, &[u8]), WireError> {
    let mut buf = payload;
    let version = get_u8(&mut buf)?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let id = get_u64(&mut buf)?;
    let tag = get_u8(&mut buf)?;
    Ok((id, tag, buf))
}

fn finish<T>(value: T, buf: &[u8]) -> Result<T, WireError> {
    if buf.is_empty() {
        Ok(value)
    } else {
        Err(WireError::TrailingBytes {
            count: buf.len() as u64,
        })
    }
}

/// Decodes a client-to-server payload (the bytes after the length prefix).
///
/// # Errors
///
/// Any [`WireError`]; the input is never panicked on.
pub fn decode_client_frame(payload: &[u8]) -> Result<(u64, ClientFrame), WireError> {
    let (id, tag, mut buf) = decode_prologue(payload)?;
    let frame = match tag {
        TAG_PRICE_CANDIDATE => ClientFrame::Request(Request::PriceCandidate {
            app: get_app(&mut buf)?,
            basis: get_basis(&mut buf)?,
        }),
        TAG_PRICE_BATCH => ClientFrame::Request(Request::PriceBatch {
            app: get_app(&mut buf)?,
            bases: get_bases(&mut buf)?,
        }),
        TAG_PRICE_BATCH_BOUNDED => {
            let app = get_app(&mut buf)?;
            let bound = get_u64(&mut buf)?;
            ClientFrame::Request(Request::PriceBatchBounded {
                app,
                bases: get_bases(&mut buf)?,
                bound,
            })
        }
        TAG_RUN_SEARCH => ClientFrame::Request(Request::RunSearch {
            app: get_app(&mut buf)?,
            algorithm: get_algorithm(&mut buf)?,
        }),
        TAG_STATS => ClientFrame::Request(Request::Stats {
            app: get_app(&mut buf)?,
        }),
        TAG_EVICT => ClientFrame::Request(Request::Evict {
            app: get_app(&mut buf)?,
        }),
        TAG_SIMULATE_FUNCTION => ClientFrame::Request(Request::SimulateFunction {
            app: get_app(&mut buf)?,
            function: get_function(&mut buf)?,
        }),
        TAG_OPTIMIZE_VERIFIED => ClientFrame::Request(Request::OptimizeVerified {
            app: get_app(&mut buf)?,
            algorithm: get_algorithm(&mut buf)?,
            top_k: get_usize(&mut buf)?,
        }),
        TAG_SERVER_STATS_REQUEST => ClientFrame::ServerStats,
        other => return Err(WireError::BadTag(other)),
    };
    finish((id, frame), buf)
}

/// Decodes a server-to-client payload (the bytes after the length prefix).
///
/// # Errors
///
/// Any [`WireError`]; the input is never panicked on.
pub fn decode_server_frame(payload: &[u8]) -> Result<(u64, ServerFrame), WireError> {
    let (id, tag, mut buf) = decode_prologue(payload)?;
    let frame = match tag {
        TAG_PRICE => ServerFrame::Response(Response::Price(get_u64(&mut buf)?)),
        TAG_PRICES => {
            let count = get_count(&mut buf, 8)?;
            let mut costs = Vec::with_capacity(count);
            for _ in 0..count {
                costs.push(get_u64(&mut buf)?);
            }
            ServerFrame::Response(Response::Prices(costs))
        }
        TAG_BOUNDED_PRICES => {
            let count = get_count(&mut buf, 9)?;
            let mut costs = Vec::with_capacity(count);
            for _ in 0..count {
                let cost = match get_u8(&mut buf)? {
                    0 => BoundedCost::Exact(get_u64(&mut buf)?),
                    1 => BoundedCost::AtLeast(get_u64(&mut buf)?),
                    tag => {
                        return Err(WireError::Invalid(format!(
                            "unknown bounded-cost tag {tag}"
                        )))
                    }
                };
                costs.push(cost);
            }
            ServerFrame::Response(Response::BoundedPrices(costs))
        }
        TAG_SEARCH => ServerFrame::Response(Response::Search(get_outcome(&mut buf)?)),
        TAG_APP_STATS => ServerFrame::Response(Response::Stats(get_app_stats(&mut buf)?)),
        TAG_EVICTED => ServerFrame::Response(Response::Evicted(EvictCounts {
            memo: get_usize(&mut buf)?,
            scaffold: get_usize(&mut buf)?,
        })),
        TAG_SIMULATED => ServerFrame::Response(Response::Simulated(get_sim_stats(&mut buf)?)),
        TAG_VERIFIED => ServerFrame::Response(Response::Verified(get_verified(&mut buf)?)),
        TAG_ERROR => ServerFrame::Response(Response::Error(get_serve_error(&mut buf)?)),
        TAG_SERVER_STATS => ServerFrame::ServerStats(get_wire_stats(&mut buf)?),
        other => return Err(WireError::BadTag(other)),
    };
    finish((id, frame), buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_roundtrip(request: Request) {
        let mut out = Vec::new();
        encode_request(7, &request, &mut out);
        let (payload, consumed) = split_frame(&out).unwrap().unwrap();
        assert_eq!(consumed, out.len());
        let (id, frame) = decode_client_frame(payload).unwrap();
        assert_eq!(id, 7);
        assert_eq!(frame, ClientFrame::Request(request));
    }

    fn response_roundtrip(response: Response) {
        let mut out = Vec::new();
        encode_response(99, &response, &mut out);
        let (payload, consumed) = split_frame(&out).unwrap().unwrap();
        assert_eq!(consumed, out.len());
        let (id, frame) = decode_server_frame(payload).unwrap();
        assert_eq!(id, 99);
        assert_eq!(frame, ServerFrame::Response(response));
    }

    #[test]
    fn every_request_variant_roundtrips() {
        let app = AppId::from_raw(3);
        let basis = PackedBasis::standard_span(12, 8..12);
        request_roundtrip(Request::PriceCandidate {
            app,
            basis: basis.clone(),
        });
        request_roundtrip(Request::PriceBatch {
            app,
            bases: vec![basis.clone(), PackedBasis::standard_span(12, 4..12)],
        });
        request_roundtrip(Request::PriceBatchBounded {
            app,
            bases: vec![basis],
            bound: u64::MAX,
        });
        request_roundtrip(Request::RunSearch {
            app,
            algorithm: SearchAlgorithm::OptimalBitSelect,
        });
        request_roundtrip(Request::Stats { app });
        request_roundtrip(Request::Evict { app });
        request_roundtrip(Request::SimulateFunction {
            app,
            function: HashFunction::conventional(12, 8).unwrap(),
        });
        request_roundtrip(Request::OptimizeVerified {
            app,
            algorithm: SearchAlgorithm::HillClimb,
            top_k: 5,
        });
    }

    #[test]
    fn every_response_variant_roundtrips() {
        response_roundtrip(Response::Price(123));
        response_roundtrip(Response::Prices(vec![1, 2, u64::MAX]));
        response_roundtrip(Response::BoundedPrices(vec![
            BoundedCost::Exact(7),
            BoundedCost::AtLeast(100),
        ]));
        response_roundtrip(Response::Evicted(EvictCounts {
            memo: 12,
            scaffold: 3,
        }));
        response_roundtrip(Response::Error(ServeError::Wire(WireError::Invalid(
            "nested".to_string(),
        ))));
        let sim = SimStats {
            stats: CacheStats {
                accesses: 100,
                hits: 60,
                misses: 40,
                compulsory_misses: 10,
                capacity_misses: 5,
                conflict_misses: 25,
                evictions: 30,
            },
            set_conflicts: vec![(0, 20), (7, 5)],
        };
        response_roundtrip(Response::Simulated(sim.clone()));
        let function = HashFunction::conventional(12, 8).unwrap();
        response_roundtrip(Response::Verified(VerifiedOutcome {
            search: SearchOutcome {
                function: function.clone(),
                estimated_misses: 25,
                baseline_estimate: 40,
                evaluations: 99,
                steps: 3,
            },
            candidates: vec![CandidateVerdict {
                function,
                estimated_misses: 25,
                sim: sim.clone(),
            }],
            winner: 0,
            baseline: sim,
            audit: EstimateAudit {
                candidates: 1,
                total_abs_error: 0,
                max_abs_error: 0,
                concordant: 0,
                discordant: 0,
                tied: 0,
            },
        }));
        response_roundtrip(Response::Error(ServeError::NoRetainedTrace(
            AppId::from_raw(2),
        )));
        response_roundtrip(Response::Error(ServeError::TraceTooLarge {
            blocks: 1 << 30,
            cap_blocks: 1 << 22,
        }));
        response_roundtrip(Response::Error(ServeError::Verify(
            VerifyError::SetBitsMismatch {
                expected: 8,
                actual: 4,
            },
        )));
        response_roundtrip(Response::Error(ServeError::Verify(VerifyError::Cache(
            CacheError::NotPowerOfTwo {
                parameter: "cache size",
                value: 3,
            },
        ))));
        response_roundtrip(Response::Error(ServeError::Verify(
            VerifyError::EmptyCandidates,
        )));
    }

    #[test]
    fn non_canonical_sim_payloads_are_rejected() {
        // Encode a Simulated response, then corrupt the set-conflict list.
        let sim = SimStats {
            stats: CacheStats::default(),
            set_conflicts: vec![(3, 4), (1, 2)], // out of order
        };
        let mut out = Vec::new();
        encode_response(1, &Response::Simulated(sim), &mut out);
        let (payload, _) = split_frame(&out).unwrap().unwrap();
        assert!(matches!(
            decode_server_frame(payload),
            Err(WireError::Invalid(_))
        ));
        // A verified outcome whose winner is out of range never decodes.
        let mut bad = Vec::new();
        frame(&mut bad, |out| {
            out.put_u8(WIRE_VERSION);
            out.put_u64(0);
            out.put_u8(TAG_VERIFIED);
            put_outcome(
                out,
                &SearchOutcome {
                    function: HashFunction::conventional(12, 8).unwrap(),
                    estimated_misses: 0,
                    baseline_estimate: 0,
                    evaluations: 0,
                    steps: 0,
                },
            );
            out.put_u32(0); // zero candidates
            out.put_u64(0); // ... but winner index 0
            put_sim_stats(out, &SimStats::default());
            put_audit(out, &EstimateAudit::default());
        });
        let (payload, _) = split_frame(&bad).unwrap().unwrap();
        assert!(matches!(
            decode_server_frame(payload),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn server_stats_control_frames_roundtrip() {
        let mut out = Vec::new();
        encode_server_stats_request(5, &mut out);
        let (payload, _) = split_frame(&out).unwrap().unwrap();
        assert_eq!(
            decode_client_frame(payload).unwrap(),
            (5, ClientFrame::ServerStats)
        );

        let stats = WireStats {
            connections: 1,
            frames_in: 2,
            frames_out: 3,
            bytes_in: 4,
            bytes_out: 5,
            decode_errors: 6,
            max_pipeline_depth: 7,
        };
        let mut out = Vec::new();
        encode_server_stats_response(6, &stats, &mut out);
        let (payload, _) = split_frame(&out).unwrap().unwrap();
        assert_eq!(
            decode_server_frame(payload).unwrap(),
            (6, ServerFrame::ServerStats(stats))
        );
    }

    #[test]
    fn split_frame_handles_partial_input_and_oversize() {
        let mut out = Vec::new();
        encode_request(
            1,
            &Request::Stats {
                app: AppId::from_raw(0),
            },
            &mut out,
        );
        // Every strict prefix is "not yet a frame".
        for cut in 0..out.len() {
            assert_eq!(split_frame(&out[..cut]).unwrap(), None);
        }
        // Two frames back to back split cleanly.
        let double: Vec<u8> = out.iter().chain(out.iter()).copied().collect();
        let (_, consumed) = split_frame(&double).unwrap().unwrap();
        assert_eq!(consumed, out.len());
        assert!(split_frame(&double[consumed..]).unwrap().is_some());
        // A forged oversized header is rejected without needing the payload.
        let huge = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes();
        assert_eq!(
            split_frame(&huge),
            Err(WireError::OversizedFrame {
                len: (MAX_FRAME_BYTES + 1) as u64
            })
        );
    }

    #[test]
    fn malformed_payloads_are_typed_errors_not_panics() {
        // Wrong version.
        assert_eq!(
            decode_client_frame(&[9, 0, 0, 0, 0, 0, 0, 0, 0, TAG_STATS]),
            Err(WireError::UnsupportedVersion(9))
        );
        // Empty payload.
        assert_eq!(decode_client_frame(&[]), Err(WireError::Truncated));
        // Unknown tag.
        assert_eq!(
            decode_client_frame(&[WIRE_VERSION, 0, 0, 0, 0, 0, 0, 0, 0, 0x70]),
            Err(WireError::BadTag(0x70))
        );
        // Trailing garbage after a complete body.
        let mut out = Vec::new();
        encode_request(
            1,
            &Request::Stats {
                app: AppId::from_raw(0),
            },
            &mut out,
        );
        let mut payload = out[FRAME_HEADER_BYTES..].to_vec();
        payload.extend_from_slice(&[0xAA, 0xBB]);
        assert_eq!(
            decode_client_frame(&payload),
            Err(WireError::TrailingBytes { count: 2 })
        );
        // A non-canonical basis is Invalid, not a panic.
        let mut bad = Vec::new();
        frame(&mut bad, |out| {
            out.put_u8(WIRE_VERSION);
            out.put_u64(0);
            out.put_u8(TAG_PRICE_CANDIDATE);
            out.put_u64(0); // app
            out.put_u8(12); // width
            out.put_u8(1); // dim
            out.put_u64(0); // zero row: not a basis
        });
        let (payload, _) = split_frame(&bad).unwrap().unwrap();
        assert!(matches!(
            decode_client_frame(payload),
            Err(WireError::Invalid(_))
        ));
        // Algorithm tags 1 and 2, followed by the parameters they used to
        // carry, and the never-assigned tag 4 are Invalid under both
        // requests that carry an algorithm.
        let cases: [(u8, &[u64]); 3] = [(1, &[2, 7]), (2, &[100, 2.5f64.to_bits(), 7]), (4, &[])];
        for (tag, params) in cases {
            for request in [TAG_RUN_SEARCH, TAG_OPTIMIZE_VERIFIED] {
                let mut out = Vec::new();
                frame(&mut out, |out| {
                    out.put_u8(WIRE_VERSION);
                    out.put_u64(5);
                    out.put_u8(request);
                    out.put_u64(0); // app
                    out.put_u8(tag);
                    for &param in params {
                        out.put_u64(param);
                    }
                    if request == TAG_OPTIMIZE_VERIFIED {
                        out.put_u64(3); // top_k
                    }
                });
                let (payload, _) = split_frame(&out).unwrap().unwrap();
                assert_eq!(
                    decode_client_frame(payload),
                    Err(WireError::Invalid(format!("unknown algorithm tag {tag}"))),
                    "request tag {request}, algorithm tag {tag}"
                );
            }
        }
    }
}
