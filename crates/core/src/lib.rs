//! Application-specific XOR-indexing to eliminate cache conflict misses.
//!
//! This crate implements the primary contribution of Vandierendonck, Manet &
//! Legat, *"Application-Specific Reconfigurable XOR-Indexing to Eliminate
//! Cache Conflict Misses"* (DATE 2006):
//!
//! 1. **Conflict-vector profiling** ([`ConflictProfile`], paper Fig. 1): a
//!    single pass over a program's block-address trace with an LRU stack
//!    accumulates a histogram `misses(v)` of XOR-difference vectors between
//!    blocks whose reuse would fit in the cache, filtering out compulsory and
//!    capacity misses.
//! 2. **Miss estimation** ([`MissEstimator`], paper Eq. 4): the conflict-miss
//!    count of *any* candidate hash function `H` is estimated without
//!    re-simulating the trace as `Σ_{v ∈ N(H)} misses(v)` over its null space.
//!    The searches run this sum through the dense evaluation engine
//!    ([`EvalEngine`] over the profile's sorted entries): packed `u64` bases,
//!    incumbent-bounded neighbourhood pricing lane by lane from the parent's
//!    remainder-grouped histogram, and scoped-thread parallelism, with
//!    results bit-identical to [`MissEstimator`]. The
//!    engine is a façade over an immutable, `Arc`-shareable [`FrozenKernel`]
//!    (the Eq. 4 arithmetic), so one kernel per application can serve many
//!    searches and threads at once; a concurrent [`ShardedMemo`] in front of
//!    it answers repeat pricing requests in the serving layer.
//! 3. **Design-space search** ([`search`]): steepest-descent hill climbing over
//!    null spaces (neighbours differ in exactly one dimension) from the
//!    conventional function, plus the exhaustive optimal bit-selecting
//!    baseline of Patel et al. used in the paper's Table 3. Every null space
//!    is a [`gf2::PackedBasis`]: candidate generation and dedup
//!    ([`search::PackedNeighborhood`]), algorithm state and the
//!    [`HashFunction`] a move builds all read the same packed rows.
//! 4. **Function classes** ([`FunctionClass`]): unrestricted XOR functions,
//!    XOR functions with bounded gate fan-in, permutation-based functions
//!    (paper Section 4) and plain bit-selecting functions.
//! 5. **Reconfigurable-hardware cost model** ([`hardware`], paper Section 5 /
//!    Table 1): switch, memory-cell and wire counts of the reconfigurable
//!    selector networks for each indexing scheme.
//!
//! This crate never simulates. Judging a search winner by replaying the
//! trace through the cache (the paper's Section 6), and the end-to-end
//! `Optimizer` and `EvaluationReport` built on that step, live in the
//! `xorindex_verify` crate.
//!
//! # Quick example
//!
//! ```
//! use cache_sim::CacheConfig;
//! use memtrace::generators::StridedGenerator;
//! use xorindex::search::Searcher;
//! use xorindex::{ConflictProfile, FunctionClass, SearchAlgorithm};
//!
//! // 16 addresses 1 KB apart thrash set 0 of a 1 KB direct-mapped cache.
//! let trace = StridedGenerator::new(0, 1024, 16, 8).generate();
//! let cache = CacheConfig::paper_cache(1);
//! let profile = ConflictProfile::from_blocks(
//!     trace.data_block_addresses(cache.block_bits()),
//!     16,
//!     cache.num_blocks() as usize,
//! );
//! let searcher = Searcher::new(&profile, FunctionClass::permutation_based(2), cache.set_bits())?;
//! let outcome = searcher.run(SearchAlgorithm::HillClimb)?;
//! assert!(outcome.estimated_misses < outcome.baseline_estimate);
//! # Ok::<(), xorindex::XorIndexError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod engine;
mod error;
mod estimate;
mod function_class;
mod hasher;
mod hashfn;
mod kernel;
mod memo;
mod profile;
mod scaffold;

pub mod hardware;
pub mod search;

pub use dense::FLAT_LOOKUP_MAX_BITS;
pub use engine::{host_threads, EngineStats, EvalEngine};
pub use error::XorIndexError;
pub use estimate::{BoundedCost, EstimationStrategy, MissEstimator};
pub use function_class::FunctionClass;
pub use hashfn::HashFunction;
pub use kernel::FrozenKernel;
pub use memo::{MemoShardStats, MemoStats, ShardedMemo, DEFAULT_MEMO_SHARDS};
pub use profile::{ConflictProfile, ProfileSummary};
pub use scaffold::{Scaffold, ScaffoldCache, ScaffoldStats, DEFAULT_SCAFFOLD_CAPACITY};
pub use search::{SearchAlgorithm, SearchOutcome};

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConflictProfile>();
        assert_send_sync::<HashFunction>();
        assert_send_sync::<FunctionClass>();
        assert_send_sync::<XorIndexError>();
        assert_send_sync::<FrozenKernel>();
        assert_send_sync::<ShardedMemo>();
        assert_send_sync::<ScaffoldCache>();
        assert_send_sync::<BoundedCost>();
    }
}
