//! Trace-driven cache simulation with pluggable index functions.
//!
//! This crate provides the cache-model substrate for the XOR-indexing study:
//!
//! * [`CacheConfig`] — parameters of a cache (size, block size, associativity)
//!   with the derived geometry (sets, index bits, offset bits);
//! * [`IndexFunction`] — how a block address is mapped to a set: conventional
//!   modulo indexing ([`ModuloIndex`]), arbitrary bit selection
//!   ([`BitSelectIndex`]) and XOR/matrix indexing ([`XorIndex`]);
//! * [`Cache`] — a set-associative cache simulator with LRU/FIFO/random
//!   replacement and full hit/miss accounting, including 3C miss
//!   classification (compulsory / capacity / conflict);
//! * [`FullyAssociativeCache`] — the fully-associative LRU reference used by
//!   the paper's Table 3 (`FA` column);
//! * [`LruStack`] — the stack-distance structure shared by the classifier and
//!   by the conflict-vector profiler in the `xorindex` crate;
//! * [`CacheStats`] — counters and the `misses / K-uop` metric reported in the
//!   paper's tables;
//! * [`ReuseStream`] / [`CompactSets`] — the function-independent 3C
//!   pre-classification (one O(1)-per-access fully-associative LRU pass,
//!   pinned to [`MissClassifier`]) and allocation-free LRU tag arrays backing
//!   the fast replay engine in the `xorindex-verify` crate.
//!
//! # Example
//!
//! ```
//! use cache_sim::{Cache, CacheConfig, ModuloIndex, AccessOutcome};
//!
//! let config = CacheConfig::builder()
//!     .size_bytes(1024)
//!     .block_bytes(4)
//!     .associativity(1)
//!     .build()?;
//! let mut cache = Cache::new(config, ModuloIndex::for_config(&config));
//!
//! // Two addresses 1024 bytes apart collide in a 1 KB direct-mapped cache.
//! assert_eq!(cache.access_addr(0x0000), AccessOutcome::Miss);
//! assert_eq!(cache.access_addr(0x0400), AccessOutcome::Miss);
//! assert_eq!(cache.access_addr(0x0000), AccessOutcome::Miss); // evicted: conflict
//! assert_eq!(cache.stats().misses, 3);
//! # Ok::<(), cache_sim::CacheError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cache;
mod classify;
mod compact;
mod config;
mod fully_assoc;
mod lru_stack;
mod preclass;
mod replacement;
mod stats;

pub mod index;

pub use addr::{Address, BlockAddr};
pub use cache::{AccessOutcome, Cache};
pub use classify::{MissClass, MissClassifier, ReuseClass};
pub use compact::{CompactAccess, CompactSets, COMPACT_MAX_WAYS};
pub use config::{CacheConfig, CacheConfigBuilder, CacheError};
pub use fully_assoc::FullyAssociativeCache;
pub use index::{BitSelectIndex, IndexFunction, ModuloIndex, XorIndex};
pub use lru_stack::{LruStack, StackScan};
pub use preclass::ReuseStream;
pub use replacement::ReplacementPolicy;
pub use stats::CacheStats;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CacheConfig>();
        assert_send_sync::<Cache>();
        assert_send_sync::<CacheStats>();
        assert_send_sync::<FullyAssociativeCache>();
        assert_send_sync::<LruStack>();
        assert_send_sync::<XorIndex>();
        assert_send_sync::<ReuseStream>();
        assert_send_sync::<CompactSets>();
    }
}
