//! Table 3: PowerStone, 4 KB data cache — optimal bit-selecting functions vs
//! the heuristic search (bit-selecting and permutation-based XOR with 2, 4 and
//! unlimited inputs) vs a fully-associative cache.

use cache_sim::{BlockAddr, Cache, CacheConfig, CacheStats, FullyAssociativeCache, ModuloIndex};
use crossbeam::channel;
use workloads::{Workload, WorkloadSuite};
use xorindex::{ConflictProfile, FunctionClass, SearchAlgorithm};

use crate::{ExperimentConfig, TraceSide};

/// One PowerStone benchmark row of Table 3: percentage of misses removed by
/// each approach relative to the conventional modulo-indexed cache.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline (conventional) miss count, for reference.
    pub baseline_misses: u64,
    /// Optimal bit-selecting function (exhaustive search, Patel et al.).
    pub optimal_bitselect: f64,
    /// Heuristically found bit-selecting function (the paper's `1-in`).
    pub heuristic_bitselect: f64,
    /// 2-input permutation-based XOR function.
    pub xor_2in: f64,
    /// 4-input permutation-based XOR function.
    pub xor_4in: f64,
    /// Unrestricted permutation-based XOR function (`16-in`).
    pub xor_16in: f64,
    /// Fully-associative LRU cache of the same capacity (`FA`).
    pub fully_associative: f64,
}

/// The reproduced Table 3.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Cache size used (the paper reports the 4 KB data cache).
    pub cache_kb: u64,
    /// Per-benchmark rows.
    pub rows: Vec<Table3Row>,
    /// Arithmetic averages over the rows, in the same column order.
    pub averages: [f64; 6],
}

/// Evaluates one PowerStone benchmark.
#[must_use]
pub fn evaluate_workload(
    config: &ExperimentConfig,
    workload: &dyn Workload,
    cache: CacheConfig,
) -> Table3Row {
    let trace = workload.data_trace(config.scale);
    let blocks: Vec<BlockAddr> = TraceSide::Data.blocks(&trace, cache.block_bits());

    let mut baseline_cache = Cache::new(cache, ModuloIndex::for_config(&cache));
    let baseline = baseline_cache.simulate_blocks(blocks.iter().copied());

    let profile = ConflictProfile::from_blocks(
        blocks.iter().copied(),
        config.hashed_bits,
        cache.num_blocks() as usize,
    );
    // One frozen kernel backs all six searches of this row: candidate costs
    // depend only on the profile, so the histogram is frozen once.
    let kernel = std::sync::Arc::new(xorindex::FrozenKernel::new(&profile));

    let removed = |optimized: &CacheStats| CacheStats::percent_misses_removed(&baseline, optimized);

    let run = |class: FunctionClass, algorithm: SearchAlgorithm| -> f64 {
        let outcome = xorindex::search::Searcher::new(&profile, class, cache.set_bits())
            .expect("valid geometry")
            .with_pool(config.pool.clone())
            .with_kernel(std::sync::Arc::clone(&kernel))
            .run(algorithm)
            .expect("search succeeds");
        let mut optimized = Cache::new(cache, outcome.function.to_index_function());
        let stats = optimized.simulate_blocks(blocks.iter().copied());
        removed(&stats)
    };

    // Fully-associative reference.
    let mut fa = FullyAssociativeCache::for_config(&cache);
    let fa_stats = fa.simulate_blocks(blocks.iter().copied());

    Table3Row {
        benchmark: workload.name().to_string(),
        baseline_misses: baseline.misses,
        optimal_bitselect: run(
            FunctionClass::bit_selecting(),
            SearchAlgorithm::OptimalBitSelect,
        ),
        heuristic_bitselect: run(FunctionClass::bit_selecting(), config.algorithm),
        xor_2in: run(FunctionClass::permutation_based(2), config.algorithm),
        xor_4in: run(FunctionClass::permutation_based(4), config.algorithm),
        xor_16in: run(
            FunctionClass::permutation_based_unlimited(),
            config.algorithm,
        ),
        fully_associative: removed(&fa_stats),
    }
}

/// Reproduces Table 3 over the full PowerStone suite (in parallel), using the
/// first configured cache size (the paper uses 4 KB).
#[must_use]
pub fn compute(config: &ExperimentConfig, cache_kb: u64) -> Table3 {
    compute_for(config, cache_kb, &WorkloadSuite::powerstone())
}

/// Reproduces Table 3 for an explicit set of workloads.
#[must_use]
pub fn compute_for(
    config: &ExperimentConfig,
    cache_kb: u64,
    workloads: &[Box<dyn Workload>],
) -> Table3 {
    let cache = config.cache(cache_kb);
    let (tx, rx) = channel::unbounded();
    crossbeam::scope(|scope| {
        for (index, workload) in workloads.iter().enumerate() {
            let tx = tx.clone();
            let config = config.clone();
            scope.spawn(move |_| {
                let row = evaluate_workload(&config, workload.as_ref(), cache);
                tx.send((index, row)).expect("result channel stays open");
            });
        }
        drop(tx);
    })
    .expect("worker threads do not panic");
    let mut indexed: Vec<(usize, Table3Row)> = rx.iter().collect();
    indexed.sort_by_key(|(i, _)| *i);
    let rows: Vec<Table3Row> = indexed.into_iter().map(|(_, r)| r).collect();

    let n = rows.len().max(1) as f64;
    let avg = |f: &dyn Fn(&Table3Row) -> f64| rows.iter().map(f).sum::<f64>() / n;
    let averages = [
        avg(&|r| r.optimal_bitselect),
        avg(&|r| r.heuristic_bitselect),
        avg(&|r| r.xor_2in),
        avg(&|r| r.xor_4in),
        avg(&|r| r.xor_16in),
        avg(&|r| r.fully_associative),
    ];
    Table3 {
        cache_kb,
        rows,
        averages,
    }
}

/// Renders the table in the paper's layout.
#[must_use]
pub fn render(table: &Table3) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 3: % misses removed, PowerStone, {} KB data cache\n",
        table.cache_kb
    ));
    out.push_str(&format!(
        "{:<10} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
        "bench", "base", "opt", "1-in", "2-in", "4-in", "16-in", "FA"
    ));
    for r in &table.rows {
        out.push_str(&format!(
            "{:<10} {:>9} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1}\n",
            r.benchmark,
            r.baseline_misses,
            r.optimal_bitselect,
            r.heuristic_bitselect,
            r.xor_2in,
            r.xor_4in,
            r.xor_16in,
            r.fully_associative
        ));
    }
    out.push_str(&format!(
        "{:<10} {:>9} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1}\n",
        "average",
        "",
        table.averages[0],
        table.averages[1],
        table.averages[2],
        table.averages[3],
        table.averages[4],
        table.averages[5]
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::powerstone::{Blit, Crc};

    #[test]
    fn single_row_columns_are_consistent() {
        let config = ExperimentConfig::quick();
        let cache = config.cache(1);
        let row = evaluate_workload(&config, &Blit, cache);
        assert_eq!(row.benchmark, "blit");
        // The optimal bit-selecting search is never worse than the heuristic
        // bit-selecting search (both judged by simulation of the same trace,
        // and the optimum is exhaustive over the same space the heuristic
        // explores). Allow a tiny tolerance for profile-vs-simulation noise.
        assert!(row.optimal_bitselect >= row.heuristic_bitselect - 5.0);
        // Percentages stay in a sane range.
        for v in [
            row.optimal_bitselect,
            row.heuristic_bitselect,
            row.xor_2in,
            row.xor_4in,
            row.xor_16in,
            row.fully_associative,
        ] {
            assert!(v <= 100.0);
            assert!(v > -200.0);
        }
    }

    #[test]
    fn table_over_two_benchmarks_averages_columns() {
        let config = ExperimentConfig::quick();
        let workloads: Vec<Box<dyn workloads::Workload>> = vec![Box::new(Crc), Box::new(Blit)];
        let table = compute_for(&config, 1, &workloads);
        assert_eq!(table.rows.len(), 2);
        let expect_avg = (table.rows[0].xor_2in + table.rows[1].xor_2in) / 2.0;
        assert!((table.averages[2] - expect_avg).abs() < 1e-9);
        let text = render(&table);
        assert!(text.contains("crc"));
        assert!(text.contains("FA"));
        assert!(text.contains("average"));
    }
}
