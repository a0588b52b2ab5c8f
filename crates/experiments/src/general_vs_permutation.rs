//! The first experiment of Section 6: do permutation-based functions give up
//! anything relative to general (unrestricted) XOR functions?
//!
//! The paper reports average data-cache miss reductions of 34.6 / 44.0 / 26.9 %
//! for general XOR functions and 32.3 / 43.9 / 26.7 % for permutation-based
//! functions at 1 / 4 / 16 KB — i.e. restricting the design space to
//! permutation-based functions costs almost nothing, which is what justifies
//! the cheap reconfigurable hardware of Section 5.

use cache_sim::BlockAddr;
use crossbeam::channel;
use workloads::{Workload, WorkloadSuite};
use xorindex::FunctionClass;

use crate::{evaluate_trace, ExperimentConfig, TraceSide};

/// Average miss reduction of both function families at one cache size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneralVsPermutationRow {
    /// Cache size in KB.
    pub cache_kb: u64,
    /// Average % of data-cache misses removed by general XOR functions.
    pub general_xor: f64,
    /// Average % of data-cache misses removed by permutation-based functions.
    pub permutation_based: f64,
}

impl GeneralVsPermutationRow {
    /// How much restricting to permutation-based functions costs, in
    /// percentage points (positive = general XOR removed more).
    #[must_use]
    pub fn restriction_cost(&self) -> f64 {
        self.general_xor - self.permutation_based
    }
}

/// Runs the experiment over the Table 2 suite.
#[must_use]
pub fn compute(config: &ExperimentConfig) -> Vec<GeneralVsPermutationRow> {
    compute_for(config, &WorkloadSuite::table2())
}

/// Runs the experiment over an explicit set of workloads.
#[must_use]
pub fn compute_for(
    config: &ExperimentConfig,
    workloads: &[Box<dyn Workload>],
) -> Vec<GeneralVsPermutationRow> {
    let classes = [
        FunctionClass::xor_unlimited(),
        FunctionClass::permutation_based_unlimited(),
    ];
    // Evaluate (workload, cache size) cells in parallel, then sum per size
    // in workload order, whichever cell finished first.
    let (tx, rx) = channel::unbounded();
    crossbeam::scope(|scope| {
        for (workload_index, workload) in workloads.iter().enumerate() {
            for (size_index, &kb) in config.cache_sizes_kb.iter().enumerate() {
                let tx = tx.clone();
                let config = config.clone();
                scope.spawn(move |_| {
                    let cache = config.cache(kb);
                    let trace = workload.data_trace(config.scale);
                    let blocks: Vec<BlockAddr> = TraceSide::Data.blocks(&trace, cache.block_bits());
                    let results = evaluate_trace(&config, cache, &blocks, trace.ops(), &classes);
                    tx.send((
                        workload_index,
                        size_index,
                        results[0].percent_removed(),
                        results[1].percent_removed(),
                    ))
                    .expect("result channel stays open");
                });
            }
        }
        drop(tx);
    })
    .expect("worker threads do not panic");

    let mut cells: Vec<(usize, usize, f64, f64)> = rx.iter().collect();
    cells.sort_by_key(|&(workload_index, ..)| workload_index);
    let mut sums: Vec<(f64, f64, usize)> = vec![(0.0, 0.0, 0); config.cache_sizes_kb.len()];
    for (_, size_index, general, permutation) in cells {
        sums[size_index].0 += general;
        sums[size_index].1 += permutation;
        sums[size_index].2 += 1;
    }
    config
        .cache_sizes_kb
        .iter()
        .zip(sums)
        .map(|(&kb, (general, permutation, count))| {
            let n = count.max(1) as f64;
            GeneralVsPermutationRow {
                cache_kb: kb,
                general_xor: general / n,
                permutation_based: permutation / n,
            }
        })
        .collect()
}

/// Renders the comparison as text.
#[must_use]
pub fn render(rows: &[GeneralVsPermutationRow]) -> String {
    let mut out = String::new();
    out.push_str("Section 6, experiment 1: general XOR vs permutation-based (data caches)\n");
    out.push_str(&format!(
        "{:>8} {:>14} {:>20} {:>12}\n",
        "cache", "general XOR %", "permutation-based %", "difference"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>6}KB {:>14.1} {:>20.1} {:>12.1}\n",
            r.cache_kb,
            r.general_xor,
            r.permutation_based,
            r.restriction_cost()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_restriction_costs_little_on_a_stride_heavy_workload() {
        let config = ExperimentConfig::quick();
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(workloads::mibench::Fft),
            Box::new(workloads::powerstone::Blit),
        ];
        let rows = compute_for(&config, &workloads);
        assert_eq!(rows.len(), 1);
        let row = rows[0];
        assert_eq!(row.cache_kb, 1);
        // Both families remove a substantial share of misses on these
        // stride-dominated kernels, and the permutation restriction costs at
        // most a few percentage points (the paper's core claim).
        assert!(row.general_xor > 5.0, "general {:.1}", row.general_xor);
        assert!(
            row.permutation_based > row.general_xor - 15.0,
            "general {:.1} vs permutation {:.1}",
            row.general_xor,
            row.permutation_based
        );
        let text = render(&rows);
        assert!(text.contains("permutation-based"));
    }
}
