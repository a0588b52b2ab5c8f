//! Umbrella crate for the XOR-indexing reproduction.
//!
//! This crate re-exports the individual workspace crates under one roof so the
//! examples and integration tests can use a single dependency. Library users
//! should normally depend on the individual crates ([`xorindex`], [`cache_sim`],
//! [`memtrace`], [`workloads`], [`gf2`], [`experiments`], [`xorindex_serve`],
//! [`xorindex_verify`]) directly.
//!
//! # Quick start
//!
//! ```
//! use xorindex_repro::prelude::*;
//!
//! // A power-of-two strided trace that thrashes a 1 KB direct-mapped cache.
//! let trace = memtrace::generators::StridedGenerator::new(0, 1024, 512, 4).generate();
//! let cache = CacheConfig::paper_cache(1);
//!
//! let optimizer = Optimizer::builder()
//!     .cache(cache)
//!     .hashed_bits(16)
//!     .function_class(FunctionClass::permutation_based(2))
//!     .revert_if_worse(true)
//!     .build();
//! let outcome = optimizer.optimize(trace.data_block_addresses(cache.block_bits()));
//! assert!(outcome.optimized_stats.misses <= outcome.baseline_stats.misses);
//! ```

pub use cache_sim;
pub use experiments;
pub use gf2;
pub use memtrace;
pub use workloads;
pub use xorindex;
pub use xorindex_serve;
pub use xorindex_verify;

/// Commonly used items, re-exported for examples and quick experiments.
pub mod prelude {
    pub use cache_sim::{
        AccessOutcome, BlockAddr, Cache, CacheConfig, CacheStats, IndexFunction, ModuloIndex,
        XorIndex,
    };
    pub use gf2::{BitMatrix, BitVec, PackedBasis};
    pub use memtrace::{AccessKind, Trace, TraceBuilder, TraceRecord};
    pub use workloads::{Scale, Workload, WorkloadSuite};
    pub use xorindex::{
        ConflictProfile, FrozenKernel, FunctionClass, HashFunction, MissEstimator, SearchAlgorithm,
        ShardedMemo,
    };
    pub use xorindex_serve::{IndexService, Registration, Request, Response, WorkerPool};
    pub use xorindex_verify::{
        EstimateAudit, EvaluationReport, Optimizer, SimStats, TraceReplayer, VerifiedOutcome,
    };
}
