//! Experiment harness reproducing the paper's tables and figures.
//!
//! Each module regenerates one piece of the evaluation:
//!
//! * [`design_space`] — the design-space size figures of Section 2 (Eq. 3):
//!   ≈ 3.4e38 distinct matrices vs ≈ 6.3e19 distinct null spaces for
//!   `n = 16, m = 8`;
//! * [`table1`] — Table 1: switch counts of the reconfigurable indexing
//!   schemes for the 1 / 4 / 16 KB caches;
//! * [`general_vs_permutation`] — the first experiment of Section 6: average
//!   data-cache miss reduction of general XOR functions vs permutation-based
//!   functions;
//! * [`table2`] — Table 2: per-benchmark baseline misses/K-uop and the
//!   percentage of misses removed by permutation-based functions with 2, 4 and
//!   unlimited XOR inputs, for data caches and instruction caches of 1, 4 and
//!   16 KB;
//! * [`table3`] — Table 3: PowerStone, 4 KB data cache — optimal bit-selecting
//!   vs heuristic bit-selecting vs permutation-based XOR functions vs a
//!   fully-associative cache;
//! * [`sweep`] — the design-space sweep: a (workload × cache geometry ×
//!   function class) grid pushed through the serving layer's
//!   optimize→verify loop, reporting *simulated* miss counts and the
//!   estimator audit per cell.
//!
//! The numbers come from the re-implemented workloads of the [`workloads`]
//! crate rather than the original ARM binaries, so absolute values differ from
//! the paper; the *relationships* the paper reports (who wins, by roughly what
//! factor, how the gap changes with cache size) are what these experiments
//! reproduce. `repro all` prints every table; its quick-mode output is pinned
//! byte for byte by `crates/experiments/tests/golden/all_quick.txt`.
//!
//! Run everything from the command line:
//!
//! ```text
//! cargo run --release -p experiments --bin repro -- all --scale small
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod design_space;
pub mod general_vs_permutation;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;

mod harness;

pub use harness::{evaluate_trace, CellResult, ExperimentConfig, TraceSide};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_cheap() {
        let c = ExperimentConfig::quick();
        assert!(c.hashed_bits <= 12);
        assert_eq!(c.cache_sizes_kb, vec![1]);
    }

    #[test]
    fn paper_config_matches_the_paper() {
        let c = ExperimentConfig::paper();
        assert_eq!(c.hashed_bits, 16);
        assert_eq!(c.cache_sizes_kb, vec![1, 4, 16]);
    }
}
