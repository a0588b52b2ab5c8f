//! Shared experiment plumbing: configuration and per-trace evaluation.

use std::sync::Arc;

use cache_sim::{BlockAddr, CacheConfig, CacheStats};
use memtrace::Trace;
use workloads::Scale;
use xorindex::search::NeighborPool;
use xorindex::{FunctionClass, HashFunction, SearchAlgorithm};

/// Which side of a workload trace an experiment evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSide {
    /// Loads and stores (the paper's data caches).
    Data,
    /// Instruction fetches (the paper's instruction caches).
    Instruction,
}

impl TraceSide {
    /// Extracts the block addresses of this side from a trace.
    #[must_use]
    pub fn blocks(self, trace: &Trace, block_bits: u32) -> Vec<BlockAddr> {
        match self {
            TraceSide::Data => trace.data_block_addresses(block_bits).collect(),
            TraceSide::Instruction => trace.instruction_block_addresses(block_bits).collect(),
        }
    }

    /// Human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TraceSide::Data => "data",
            TraceSide::Instruction => "instruction",
        }
    }
}

/// Configuration shared by the table-generating experiments.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Workload input scale.
    pub scale: Scale,
    /// Number of hashed address bits `n` (the paper uses 16).
    pub hashed_bits: usize,
    /// Cache sizes to evaluate, in KB (the paper uses 1, 4 and 16).
    pub cache_sizes_kb: Vec<u64>,
    /// Search algorithm used to construct the functions.
    pub algorithm: SearchAlgorithm,
    /// Neighbour pool used by the hill climber.
    pub pool: NeighborPool,
    /// Worker-thread cap for the evaluation engine's neighbourhood batches.
    ///
    /// The experiments already fan out across workloads with scoped threads
    /// (see `table2::compute_for`), so per-search parallelism defaults to 1
    /// to avoid oversubscribing; single-trace callers can raise it.
    pub search_threads: usize,
}

impl ExperimentConfig {
    /// The paper's configuration: 16 hashed bits, 1 / 4 / 16 KB direct-mapped
    /// caches with 4-byte blocks, hill-climbing search.
    #[must_use]
    pub fn paper() -> Self {
        ExperimentConfig {
            scale: Scale::Small,
            hashed_bits: 16,
            cache_sizes_kb: vec![1, 4, 16],
            algorithm: SearchAlgorithm::HillClimb,
            pool: NeighborPool::UnitsAndPairs,
            search_threads: 1,
        }
    }

    /// The paper's configuration at the largest workload scale.
    #[must_use]
    pub fn reference() -> Self {
        ExperimentConfig {
            scale: Scale::Reference,
            ..Self::paper()
        }
    }

    /// A deliberately small configuration for unit tests and smoke runs:
    /// tiny workloads, 12 hashed bits and only the 1 KB cache.
    ///
    /// The neighbour pool keeps the pairwise-XOR directions: they are what
    /// allows the permutation-based search to move at all (single-unit
    /// replacements either fall inside the current null space or violate
    /// Eq. 5).
    #[must_use]
    pub fn quick() -> Self {
        ExperimentConfig {
            scale: Scale::Tiny,
            hashed_bits: 12,
            cache_sizes_kb: vec![1],
            algorithm: SearchAlgorithm::HillClimb,
            pool: NeighborPool::UnitsAndPairs,
            search_threads: 1,
        }
    }

    /// The cache configuration for one of the configured sizes.
    #[must_use]
    pub fn cache(&self, size_kb: u64) -> CacheConfig {
        CacheConfig::paper_cache(size_kb)
    }
}

/// The evaluation of one (trace, cache, function class) cell: the simulated
/// baseline and optimized miss counts plus the chosen function.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Simulated statistics of the conventional modulo-indexed cache.
    pub baseline: CacheStats,
    /// Simulated statistics with the optimized function.
    pub optimized: CacheStats,
    /// The function the search selected.
    pub function: HashFunction,
    /// Operations executed by the traced program (for misses/K-uop).
    pub ops: u64,
}

impl CellResult {
    /// Baseline misses per thousand operations.
    #[must_use]
    pub fn baseline_mpko(&self) -> f64 {
        self.baseline.misses_per_kilo_ops(self.ops)
    }

    /// Percentage of misses removed by the optimized function.
    #[must_use]
    pub fn percent_removed(&self) -> f64 {
        CacheStats::percent_misses_removed(&self.baseline, &self.optimized)
    }
}

/// Evaluates every function class on `blocks` through one
/// [`xorindex_verify::verify_trace`] call, under the configuration's
/// neighbour pool and search thread cap: one [`CellResult`] per class.
///
/// # Panics
///
/// Panics if the geometry is invalid (`set_bits >= hashed_bits`).
#[must_use]
pub fn evaluate_trace(
    config: &ExperimentConfig,
    cache: CacheConfig,
    blocks: &[BlockAddr],
    ops: u64,
    classes: &[FunctionClass],
) -> Vec<CellResult> {
    let searches: Vec<_> = classes
        .iter()
        .map(|&class| (class, config.algorithm))
        .collect();
    let verdicts = xorindex_verify::verify_trace(
        cache,
        config.hashed_bits,
        Arc::new(blocks.to_vec()),
        &searches,
        &config.pool,
        Some(config.search_threads),
    )
    .expect("experiment geometry is valid");
    verdicts
        .outcomes
        .iter()
        .map(|verified| CellResult {
            baseline: verdicts.baseline.stats,
            optimized: verified.winner().sim.stats,
            function: verified.winner().function.clone(),
            ops,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::generators::StridedGenerator;

    #[test]
    fn evaluate_trace_produces_one_cell_per_class() {
        let config = ExperimentConfig::quick();
        let cache = config.cache(1);
        // 16 blocks, 1 KB apart: they all collide in set 0 of the 256-set
        // cache but stay within the 12 hashed bits of the quick config, so an
        // optimized function can spread them out completely.
        let trace = StridedGenerator::new(0, 1024, 16, 50).generate();
        let blocks: Vec<BlockAddr> = trace.data_block_addresses(cache.block_bits()).collect();
        let classes = [
            FunctionClass::bit_selecting(),
            FunctionClass::permutation_based(2),
        ];
        let cells = evaluate_trace(&config, cache, &blocks, trace.ops(), &classes);
        assert_eq!(cells.len(), 2);
        for cell in &cells {
            assert_eq!(cell.baseline.accesses, blocks.len() as u64);
            assert!(cell.baseline_mpko() > 0.0);
            // A pure power-of-two stride is fully repaired by both classes.
            assert!(cell.percent_removed() > 50.0);
        }
    }

    #[test]
    fn trace_side_extraction() {
        let mut b = memtrace::TraceBuilder::new("t");
        b.fetch(0x8000);
        b.load(0x100);
        b.store(0x200);
        let t = b.finish();
        assert_eq!(TraceSide::Data.blocks(&t, 2).len(), 2);
        assert_eq!(TraceSide::Instruction.blocks(&t, 2).len(), 1);
        assert_eq!(TraceSide::Data.label(), "data");
        assert_eq!(TraceSide::Instruction.label(), "instruction");
    }
}
