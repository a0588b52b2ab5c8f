//! Kernel snapshot/restore: serialize a whole [`IndexService`] registry to a
//! versioned, checksummed byte image, so a restarted server comes back with
//! every application's frozen pricing kernel already warm — no re-profiling,
//! no re-freezing from traces.
//!
//! # Format
//!
//! ```text
//! snapshot := magic:"XIDXSNAP" version:u32be app_count:u32be app* checksum:u64be
//! app      := cache class pool memo_capacity dense trace
//! cache    := size_bytes:u64 block_bytes:u64 associativity:u32
//! class    := tag:u8 [max_inputs:opt]          (0 BitSelecting, 1 Xor, 2 PermutationBased)
//! pool     := tag:u8 [..]                      (0 Units, 1 UnitsAndPairs,
//!                                               2 UnitsPairsAndProfile k:u64,
//!                                               3 Custom count:u32 (width:u8 bits:u64)*)
//! memo_capacity := opt
//! opt      := flag:u8 [value:u64]              (0 = None, 1 = Some)
//! dense    := hashed_bits:u64 capacity_blocks:u64 [tail_bits:u64]   (versions 1–2 only)
//!             entry_count:u64 (vector:u64 weight:u64)*
//! trace    := flag:u8 [block_count:u64 block:u64*]   (version >= 2 only)
//! ```
//!
//! The trailing checksum is FNV-1a over every preceding byte; a snapshot
//! that does not verify is rejected before any of it is interpreted. The
//! `dense` section *is* the application's [`FrozenKernel`] — its profile's
//! widths and sorted `(vector, weight)` entries — and restore rebuilds it
//! with [`ConflictProfile::from_parts`], which revalidates every histogram
//! invariant without re-sorting, and [`FrozenKernel::from_parts`], which
//! derives everything else the kernel holds from the profile. Round-tripping
//! is therefore an identity: `snapshot(restore(snapshot())) == snapshot()`,
//! and a restored application prices every candidate bit-identically to the
//! application that was snapshotted. Application order is preserved, so
//! [`AppId`](crate::AppId)s issued before the snapshot stay valid after
//! restore.
//!
//! What a snapshot does *not* carry: memo contents, scaffold caches, and
//! live statistics. Those are performance state, not pricing state — they
//! refill on use and carrying them would couple the format to cache
//! internals that change per PR.
//!
//! # Versions
//!
//! Version 3 drops the `tail_bits` word, the width of a lookup table kernels
//! no longer keep. Version-1 and version-2 images still restore: their tail
//! word is range-checked (at most `hashed_bits` and at most
//! [`FLAT_LOOKUP_MAX_BITS`]) and then ignored. Version 2 appended the per-app
//! retained-trace section, so a restored server can keep answering
//! `SimulateFunction` / `OptimizeVerified` without re-registering traces;
//! every application of a version-1 image comes back with no retained trace.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use bytes::{Buf, BufMut};
use cache_sim::{BlockAddr, CacheConfig};
use gf2::BitVec;
use xorindex::search::NeighborPool;
use xorindex::{ConflictProfile, FrozenKernel, FunctionClass, ShardedMemo, FLAT_LOOKUP_MAX_BITS};

use crate::service::{Application, IndexService};

/// Leading magic bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"XIDXSNAP";

/// Current snapshot format version; bumped on any layout change.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Oldest snapshot version [`IndexService::restore`] still accepts.
pub const MIN_SNAPSHOT_VERSION: u32 = 1;

/// Why a snapshot failed to load (or save).
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the file failed.
    Io(io::Error),
    /// The input does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The trailing FNV-1a checksum does not match the content.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// The input ended before the structure it claimed to carry.
    Truncated,
    /// The bytes parsed but spell an invalid value (bad geometry,
    /// non-canonical profile entries, unknown tag, …).
    Invalid(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} \
                     (supported: {MIN_SNAPSHOT_VERSION}..={SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: file says {expected:#018x}, content hashes to {actual:#018x}"
            ),
            SnapshotError::Truncated => write!(f, "snapshot ended mid-structure"),
            SnapshotError::Invalid(reason) => write!(f, "invalid snapshot: {reason}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a over a byte slice — cheap, dependency-free corruption detection
/// (not cryptographic; the threat model is truncated or bit-rotted files).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, SnapshotError> {
    buf.try_get_u8().map_err(|_| SnapshotError::Truncated)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, SnapshotError> {
    buf.try_get_u32().map_err(|_| SnapshotError::Truncated)
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, SnapshotError> {
    buf.try_get_u64().map_err(|_| SnapshotError::Truncated)
}

fn get_usize(buf: &mut &[u8]) -> Result<usize, SnapshotError> {
    let v = get_u64(buf)?;
    usize::try_from(v).map_err(|_| SnapshotError::Invalid(format!("value {v} overflows usize")))
}

fn put_opt_usize(out: &mut Vec<u8>, value: Option<usize>) {
    match value {
        Some(v) => {
            out.put_u8(1);
            out.put_u64(v as u64);
        }
        None => out.put_u8(0),
    }
}

fn get_opt_usize(buf: &mut &[u8]) -> Result<Option<usize>, SnapshotError> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => Ok(Some(get_usize(buf)?)),
        tag => Err(SnapshotError::Invalid(format!(
            "option flag must be 0 or 1, got {tag}"
        ))),
    }
}

fn put_class(out: &mut Vec<u8>, class: &FunctionClass) {
    match class {
        FunctionClass::BitSelecting => out.put_u8(0),
        FunctionClass::Xor { max_inputs } => {
            out.put_u8(1);
            put_opt_usize(out, *max_inputs);
        }
        FunctionClass::PermutationBased { max_inputs } => {
            out.put_u8(2);
            put_opt_usize(out, *max_inputs);
        }
    }
}

fn get_class(buf: &mut &[u8]) -> Result<FunctionClass, SnapshotError> {
    match get_u8(buf)? {
        0 => Ok(FunctionClass::BitSelecting),
        1 => Ok(FunctionClass::Xor {
            max_inputs: get_opt_usize(buf)?,
        }),
        2 => Ok(FunctionClass::PermutationBased {
            max_inputs: get_opt_usize(buf)?,
        }),
        tag => Err(SnapshotError::Invalid(format!(
            "unknown function-class tag {tag}"
        ))),
    }
}

fn put_pool(out: &mut Vec<u8>, pool: &NeighborPool) {
    match pool {
        NeighborPool::Units => out.put_u8(0),
        NeighborPool::UnitsAndPairs => out.put_u8(1),
        NeighborPool::UnitsPairsAndProfile(k) => {
            out.put_u8(2);
            out.put_u64(*k as u64);
        }
        NeighborPool::Custom(directions) => {
            out.put_u8(3);
            out.put_u32(directions.len() as u32);
            for v in directions {
                out.put_u8(v.width() as u8);
                out.put_u64(v.as_u64());
            }
        }
    }
}

fn get_pool(buf: &mut &[u8]) -> Result<NeighborPool, SnapshotError> {
    match get_u8(buf)? {
        0 => Ok(NeighborPool::Units),
        1 => Ok(NeighborPool::UnitsAndPairs),
        2 => Ok(NeighborPool::UnitsPairsAndProfile(get_usize(buf)?)),
        3 => {
            let count = get_u32(buf)? as usize;
            if count.saturating_mul(9) > buf.len() {
                return Err(SnapshotError::Truncated);
            }
            let mut directions = Vec::with_capacity(count);
            for _ in 0..count {
                let width = get_u8(buf)? as usize;
                let bits = get_u64(buf)?;
                if width == 0 || width > 64 {
                    return Err(SnapshotError::Invalid(format!(
                        "direction width {width} not in 1..=64"
                    )));
                }
                if width < 64 && bits >> width != 0 {
                    return Err(SnapshotError::Invalid(format!(
                        "direction {bits:#x} has bits outside width {width}"
                    )));
                }
                directions.push(BitVec::from_u64(bits, width));
            }
            Ok(NeighborPool::Custom(directions))
        }
        tag => Err(SnapshotError::Invalid(format!(
            "unknown neighbour-pool tag {tag}"
        ))),
    }
}

/// Writes an application's `cache class pool memo_capacity` fields.
fn put_settings(out: &mut Vec<u8>, app: &Application) {
    out.put_u64(app.cache.size_bytes());
    out.put_u64(app.cache.block_bytes());
    out.put_u32(app.cache.associativity());
    put_class(out, &app.class);
    put_pool(out, &app.pool);
    put_opt_usize(out, app.memo.stats().capacity);
}

fn put_app(out: &mut Vec<u8>, app: &Application) {
    put_settings(out, app);
    let profile = app.kernel.profile();
    out.put_u64(profile.hashed_bits() as u64);
    out.put_u64(profile.capacity_blocks() as u64);
    out.put_u64(profile.entries().len() as u64);
    for &(vector, weight) in profile.entries() {
        out.put_u64(vector);
        out.put_u64(weight);
    }
    match &app.trace {
        Some(trace) => {
            out.put_u8(1);
            out.put_u64(trace.len() as u64);
            for block in trace.iter() {
                out.put_u64(block.0);
            }
        }
        None => out.put_u8(0),
    }
}

fn get_trace(buf: &mut &[u8]) -> Result<Option<Arc<Vec<BlockAddr>>>, SnapshotError> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => {
            let block_count = get_usize(buf)?;
            if block_count.saturating_mul(8) > buf.len() {
                return Err(SnapshotError::Truncated);
            }
            let mut trace = Vec::with_capacity(block_count);
            for _ in 0..block_count {
                trace.push(BlockAddr(get_u64(buf)?));
            }
            Ok(Some(Arc::new(trace)))
        }
        tag => Err(SnapshotError::Invalid(format!(
            "trace flag must be 0 or 1, got {tag}"
        ))),
    }
}

fn get_app(buf: &mut &[u8], version: u32) -> Result<Application, SnapshotError> {
    let size_bytes = get_u64(buf)?;
    let block_bytes = get_u64(buf)?;
    let associativity = get_u32(buf)?;
    let cache = CacheConfig::builder()
        .size_bytes(size_bytes)
        .block_bytes(block_bytes)
        .associativity(associativity)
        .build()
        .map_err(|e| SnapshotError::Invalid(e.to_string()))?;
    let class = get_class(buf)?;
    let pool = get_pool(buf)?;
    let memo_capacity = get_opt_usize(buf)?;
    let hashed_bits = get_usize(buf)?;
    let capacity_blocks = get_usize(buf)?;
    if version < 3 {
        // The width of the lookup table kernels no longer keep: checked as
        // versions 1 and 2 checked it, then dropped.
        let tail_bits = get_usize(buf)?;
        if tail_bits > hashed_bits || tail_bits > FLAT_LOOKUP_MAX_BITS {
            return Err(SnapshotError::Invalid(format!(
                "tail of {tail_bits} bits cannot cover a {hashed_bits}-bit profile \
                 (cap {FLAT_LOOKUP_MAX_BITS})"
            )));
        }
    }
    let entry_count = get_usize(buf)?;
    if entry_count.saturating_mul(16) > buf.len() {
        return Err(SnapshotError::Truncated);
    }
    let mut entries = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        let vector = get_u64(buf)?;
        let weight = get_u64(buf)?;
        entries.push((vector, weight));
    }
    // `from_parts` revalidates every invariant, and the kernel derives the
    // rest from the profile, so it prices bit-identically.
    let profile = ConflictProfile::from_parts(hashed_bits, capacity_blocks, entries)
        .map_err(|e| SnapshotError::Invalid(e.to_string()))?;
    let kernel = FrozenKernel::from_parts(profile);
    let set_bits = cache.set_bits();
    if set_bits == 0 || set_bits >= hashed_bits {
        return Err(SnapshotError::Invalid(format!(
            "cache with {set_bits} set bits cannot serve a {hashed_bits}-bit profile"
        )));
    }
    let memo = match memo_capacity {
        Some(cap) => ShardedMemo::with_capacity(cap),
        None => ShardedMemo::new(),
    };
    // Version 1 predates trace retention: every app restores trace-free.
    let trace = if version >= 2 { get_trace(buf)? } else { None };
    let replayer = Application::build_replayer(cache, trace.as_ref());
    let baseline = Arc::new(std::sync::OnceLock::new());
    Ok(Application {
        cache,
        class,
        pool,
        kernel: Arc::new(kernel),
        memo,
        scaffold: xorindex::ScaffoldCache::new(),
        trace,
        replayer,
        baseline,
    })
}

impl IndexService {
    /// Serializes the whole registry to a checksummed byte image.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        let apps = self.applications();
        let mut out = Vec::new();
        out.put_slice(&SNAPSHOT_MAGIC);
        out.put_u32(SNAPSHOT_VERSION);
        out.put_u32(apps.len() as u32);
        for app in &apps {
            put_app(&mut out, app);
        }
        let checksum = fnv1a(&out);
        out.put_u64(checksum);
        out
    }

    /// Writes [`IndexService::snapshot`] to a file.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`].
    pub fn snapshot_to(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(&self.snapshot())?;
        file.sync_all()?;
        Ok(())
    }

    /// Rebuilds a registry from a snapshot image. Applications come back in
    /// snapshot order, so pre-snapshot [`AppId`](crate::AppId)s remain
    /// valid; memos and scaffold caches start cold (they are performance
    /// state, not pricing state) while every kernel is immediately warm.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; corrupt input never panics and never yields a
    /// partially restored service.
    pub fn restore(bytes: &[u8]) -> Result<IndexService, SnapshotError> {
        if bytes.len() < SNAPSHOT_MAGIC.len() {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < SNAPSHOT_MAGIC.len() + 4 + 4 + 8 {
            return Err(SnapshotError::Truncated);
        }
        let (content, mut trailer) = bytes.split_at(bytes.len() - 8);
        let expected = trailer.get_u64();
        let actual = fnv1a(content);
        if expected != actual {
            return Err(SnapshotError::ChecksumMismatch { expected, actual });
        }
        let mut buf = &content[SNAPSHOT_MAGIC.len()..];
        let version = get_u32(&mut buf)?;
        if !(MIN_SNAPSHOT_VERSION..=SNAPSHOT_VERSION).contains(&version) {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let app_count = get_u32(&mut buf)? as usize;
        let service = IndexService::new();
        for _ in 0..app_count {
            let app = get_app(&mut buf, version)?;
            service.install(app);
        }
        if !buf.is_empty() {
            return Err(SnapshotError::Invalid(format!(
                "{} trailing bytes before the checksum",
                buf.len()
            )));
        }
        Ok(service)
    }

    /// Reads and [`IndexService::restore`]s a snapshot file.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`].
    pub fn restore_from(path: impl AsRef<Path>) -> Result<IndexService, SnapshotError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Self::restore(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Registration, ServeError};
    use cache_sim::BlockAddr;
    use gf2::PackedBasis;

    fn profile(hashed_bits: usize) -> ConflictProfile {
        let blocks = (0..500u64)
            .flat_map(|i| [BlockAddr((i % 5) * 128), BlockAddr(0x400 + (i % 3) * 0x200)]);
        ConflictProfile::from_blocks(blocks, hashed_bits, 256)
    }

    fn populated_service() -> (IndexService, crate::AppId, crate::AppId) {
        let service = IndexService::new();
        let a = service
            .register(
                Registration::new(profile(12), CacheConfig::paper_cache(1))
                    .with_class(FunctionClass::xor_unlimited())
                    .with_pool(NeighborPool::UnitsPairsAndProfile(4)),
            )
            .unwrap();
        let b = service
            .register(
                Registration::new(profile(14), CacheConfig::paper_cache(2)).with_memo_capacity(64),
            )
            .unwrap();
        (service, a, b)
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let (service, a, b) = populated_service();
        let image = service.snapshot();
        let restored = IndexService::restore(&image).unwrap();
        // The image of the restored service is byte-for-byte the original.
        assert_eq!(restored.snapshot(), image);
        assert_eq!(restored.len(), 2);
        // Same handles, same kernels, bit-identical prices.
        for (app, width) in [(a, 12usize), (b, 14)] {
            let candidates: Vec<PackedBasis> = (1..=4)
                .map(|m| PackedBasis::standard_span(width, m..width))
                .collect();
            assert_eq!(
                service.price_batch(app, &candidates).unwrap(),
                restored.price_batch(app, &candidates).unwrap()
            );
            let (kernel, back) = (service.kernel(app).unwrap(), restored.kernel(app).unwrap());
            assert_eq!(kernel.profile().entries(), back.profile().entries());
            assert_eq!(kernel.span(), back.span());
        }
        // Performance state starts cold: the restored memo holds exactly the
        // one batch priced above, and no scaffolds exist yet.
        let stats = restored.stats(a).unwrap();
        assert_eq!(stats.memo.entries, 4);
        assert_eq!(stats.memo.misses, 4);
        assert_eq!(stats.scaffold.entries, 0);
        // Memo capacity survived the trip.
        assert_eq!(restored.stats(b).unwrap().memo.capacity, Some(64));
    }

    #[test]
    fn snapshot_survives_a_file_roundtrip() {
        let (service, a, _) = populated_service();
        let dir = std::env::temp_dir().join("xorindex_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("snap_{}.bin", std::process::id()));
        service.snapshot_to(&path).unwrap();
        let restored = IndexService::restore_from(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(restored.snapshot(), service.snapshot());
        let candidate = PackedBasis::standard_span(12, 8..12);
        assert_eq!(
            service.price_candidate(a, &candidate).unwrap(),
            restored.price_candidate(a, &candidate).unwrap()
        );
    }

    #[test]
    fn corrupt_snapshots_are_rejected_with_typed_errors() {
        let (service, _, _) = populated_service();
        let image = service.snapshot();

        assert!(matches!(
            IndexService::restore(b"XIDX"),
            Err(SnapshotError::Truncated)
        ));
        assert!(matches!(
            IndexService::restore(b"NOTASNAP"),
            Err(SnapshotError::BadMagic)
        ));
        let mut wrong_magic = image.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            IndexService::restore(&wrong_magic),
            Err(SnapshotError::BadMagic)
        ));
        // Any flipped content bit trips the checksum.
        let mut flipped = image.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(matches!(
            IndexService::restore(&flipped),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // A truncated file loses its checksum.
        assert!(matches!(
            IndexService::restore(&image[..image.len() - 3]),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // A future version is refused even with a valid checksum.
        let mut future = image.clone();
        let at = SNAPSHOT_MAGIC.len();
        let next = SNAPSHOT_VERSION + 1;
        future[at..at + 4].copy_from_slice(&next.to_be_bytes());
        let body_len = future.len() - 8;
        let sum = fnv1a(&future[..body_len]).to_be_bytes();
        future[body_len..].copy_from_slice(&sum);
        assert!(matches!(
            IndexService::restore(&future),
            Err(SnapshotError::UnsupportedVersion(v)) if v == next
        ));
        // Unrelated: restoring never touches the source service.
        assert_eq!(
            service.price_candidate(
                crate::AppId::from_raw(9),
                &PackedBasis::standard_span(12, 8..12)
            ),
            Err(ServeError::UnknownApp(crate::AppId::from_raw(9)))
        );
    }

    /// Serializes `service` in the version-1 or version-2 layout: each app's
    /// current encoding with a tail word of `tails[i]` after the profile's
    /// two widths and, for version 1, no trace section (so only
    /// services with no retained traces have a version-1 image).
    fn legacy_image(service: &IndexService, version: u32, tails: &[u64]) -> Vec<u8> {
        let apps = service.applications();
        let mut out = Vec::new();
        out.put_slice(&SNAPSHOT_MAGIC);
        out.put_u32(version);
        out.put_u32(apps.len() as u32);
        for (app, &tail) in apps.iter().zip(tails) {
            let mut bytes = Vec::new();
            put_app(&mut bytes, app);
            let mut settings = Vec::new();
            put_settings(&mut settings, app);
            let at = settings.len() + 16;
            bytes.splice(at..at, tail.to_be_bytes());
            if version == 1 {
                // A trace-free app is the version-1 encoding plus a 0 flag.
                assert_eq!(bytes.pop(), Some(0u8));
            }
            out.put_slice(&bytes);
        }
        let checksum = fnv1a(&out);
        out.put_u64(checksum);
        out
    }

    #[test]
    fn version_1_snapshots_still_restore_without_traces() {
        let (service, a, _) = populated_service();
        let restored = IndexService::restore(&legacy_image(&service, 1, &[12, 14])).unwrap();
        assert_eq!(restored.len(), 2);
        // Pricing state survives; re-snapshotting upgrades to the current
        // version, bit-identical to a fresh snapshot of the original.
        assert_eq!(restored.snapshot(), service.snapshot());
        let candidate = PackedBasis::standard_span(12, 8..12);
        assert_eq!(
            service.price_candidate(a, &candidate).unwrap(),
            restored.price_candidate(a, &candidate).unwrap()
        );
        // No trace section in v1, so simulation requests are refused.
        let function =
            xorindex::HashFunction::conventional(12, CacheConfig::paper_cache(1).set_bits())
                .unwrap();
        assert!(matches!(
            restored.simulate_function(a, &function),
            Err(ServeError::NoRetainedTrace(_))
        ));
    }

    /// A fixed two-application registry: a 12-bit app with a retained trace,
    /// and a 26-bit app whose vectors span only a few dimensions.
    fn pinned_registry() -> IndexService {
        let service = IndexService::new();
        let trace: Vec<BlockAddr> = (0..600u64).map(|i| BlockAddr((i * 7) % 96)).collect();
        service
            .register(
                Registration::new(profile(12), CacheConfig::paper_cache(1))
                    .with_class(FunctionClass::xor_unlimited())
                    .with_trace(trace),
            )
            .unwrap();
        let footprint: Vec<u64> = (0..40u64)
            .chain((0..8u64).map(|k| (1 << 24) | (k * 5)))
            .collect();
        let blocks = (0..4 * footprint.len()).map(|i| BlockAddr(footprint[i % footprint.len()]));
        service
            .register(
                Registration::new(
                    ConflictProfile::from_blocks(blocks, 26, 64),
                    CacheConfig::paper_cache(2),
                )
                .with_memo_capacity(32),
            )
            .unwrap();
        service
    }

    /// The lookup-tail widths the version-2 writer stored for
    /// [`pinned_registry`]'s two apps.
    const PINNED_TAILS: [u64; 2] = [12, 6];

    #[test]
    fn snapshot_bytes_are_pinned() {
        // The round-trip tests cannot see a layout change that the writer
        // and the reader make together; a fixed registry's image can.
        let service = pinned_registry();
        let wide = service.kernel(crate::AppId::from_raw(1)).unwrap();
        assert!(wide.has_weight_table() && wide.span().dim() < 26);
        let image = service.snapshot();
        assert_eq!(image.len(), 7_330);
        assert_eq!(fnv1a(&image), 0xaf0a_4e0d_7def_56c0);
    }

    #[test]
    fn version_2_images_restore_and_reprice_bit_identically() {
        // The version-2 writer's image of the pinned registry, byte for byte
        // as that writer left it (its length and hash are the ones version 2
        // pinned), restores to a registry that prices as the original and
        // re-snapshots to the current image.
        let service = pinned_registry();
        let v2 = legacy_image(&service, 2, &PINNED_TAILS);
        assert_eq!(v2.len(), 7_346);
        assert_eq!(fnv1a(&v2), 0xb61d_f5b3_11d7_3734);
        let restored = IndexService::restore(&v2).unwrap();
        assert_eq!(restored.snapshot(), service.snapshot());
        for (raw, width) in [(0, 12usize), (1, 26)] {
            let app = crate::AppId::from_raw(raw);
            let (kernel, back) = (service.kernel(app).unwrap(), restored.kernel(app).unwrap());
            assert_eq!(back.span(), kernel.span());
            let candidates: Vec<PackedBasis> = (1..=6)
                .map(|m| PackedBasis::standard_span(width, m..width))
                .chain([PackedBasis::standard_span(width, [0usize, 2, 3])])
                .collect();
            for candidate in &candidates {
                for bound in [0, 1, 40, u64::MAX] {
                    assert_eq!(
                        back.cost_bounded(candidate, bound),
                        kernel.cost_bounded(candidate, bound)
                    );
                }
            }
            assert_eq!(
                restored.price_batch(app, &candidates).unwrap(),
                service.price_batch(app, &candidates).unwrap()
            );
        }
        // A tail word wider than its profile or the cap is still refused.
        for tails in [[13, 6], [12, 21]] {
            assert!(matches!(
                IndexService::restore(&legacy_image(&service, 2, &tails)),
                Err(SnapshotError::Invalid(_))
            ));
        }
    }

    #[test]
    fn retained_traces_survive_snapshot_restore_bit_identically() {
        let service = IndexService::new();
        let trace: Vec<BlockAddr> = (0..600u64).map(|i| BlockAddr((i * 7) % 96)).collect();
        let cache = CacheConfig::paper_cache(1);
        let app = service
            .register(
                Registration::new(profile(12), cache)
                    .with_class(FunctionClass::xor_unlimited())
                    .with_trace(trace.clone()),
            )
            .unwrap();
        // One app with a trace, one without, to cover both flags in one image.
        let bare = service
            .register(Registration::new(profile(12), cache))
            .unwrap();

        let image = service.snapshot();
        let restored = IndexService::restore(&image).unwrap();
        assert_eq!(restored.snapshot(), image);

        // The restored trace replays to the exact same simulated counts.
        let function = xorindex::HashFunction::conventional(12, cache.set_bits()).unwrap();
        assert_eq!(
            service.simulate_function(app, &function).unwrap(),
            restored.simulate_function(app, &function).unwrap()
        );
        assert!(matches!(
            restored.simulate_function(bare, &function),
            Err(ServeError::NoRetainedTrace(_))
        ));
    }
}
