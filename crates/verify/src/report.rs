//! Multi-class evaluation reports.

use std::fmt;
use std::sync::Arc;

use cache_sim::{BlockAddr, CacheConfig, CacheStats};
use xorindex::search::NeighborPool;
use xorindex::{hardware, FunctionClass, SearchAlgorithm};

use crate::{verify_trace, OptimizationOutcome};

/// One row of an [`EvaluationReport`]: the outcome of optimizing one function
/// class for the trace.
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// The function class evaluated.
    pub class: FunctionClass,
    /// Full optimization outcome (search + simulation).
    pub outcome: OptimizationOutcome,
    /// Switch count of the closest reconfigurable-hardware scheme.
    pub hardware_switches: usize,
}

impl ReportRow {
    /// Percentage of misses removed relative to the conventional function.
    #[must_use]
    pub fn percent_removed(&self) -> f64 {
        self.outcome.percent_misses_removed()
    }
}

/// Compares several function classes on the same block-address trace, the way
/// the paper's Table 2/3 rows compare `1-in`, `2-in`, `4-in` and `16-in`
/// functions for one benchmark.
///
/// # Example
///
/// ```
/// use cache_sim::{BlockAddr, CacheConfig};
/// use xorindex::FunctionClass;
/// use xorindex_verify::EvaluationReport;
///
/// let blocks: Vec<BlockAddr> = (0..500u64).map(|i| BlockAddr((i % 2) * 256)).collect();
/// let report = EvaluationReport::evaluate(
///     "ping-pong",
///     CacheConfig::paper_cache(1),
///     16,
///     &[FunctionClass::bit_selecting(), FunctionClass::permutation_based(2)],
///     &blocks,
/// );
/// assert_eq!(report.rows().len(), 2);
/// println!("{report}");
/// ```
#[derive(Debug, Clone)]
pub struct EvaluationReport {
    name: String,
    cache: CacheConfig,
    baseline: CacheStats,
    rows: Vec<ReportRow>,
}

impl EvaluationReport {
    /// Optimizes each class for the trace and collects the results.
    #[must_use]
    pub fn evaluate(
        name: impl Into<String>,
        cache: CacheConfig,
        hashed_bits: usize,
        classes: &[FunctionClass],
        blocks: &[BlockAddr],
    ) -> Self {
        Self::evaluate_with(
            name,
            cache,
            hashed_bits,
            classes,
            blocks,
            SearchAlgorithm::HillClimb,
        )
    }

    /// Same as [`EvaluationReport::evaluate`] with an explicit search
    /// algorithm, through one [`verify_trace`] call for all classes.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (`set_bits >= hashed_bits`).
    #[must_use]
    pub fn evaluate_with(
        name: impl Into<String>,
        cache: CacheConfig,
        hashed_bits: usize,
        classes: &[FunctionClass],
        blocks: &[BlockAddr],
        algorithm: SearchAlgorithm,
    ) -> Self {
        let searches: Vec<_> = classes.iter().map(|&class| (class, algorithm)).collect();
        let verdicts = verify_trace(
            cache,
            hashed_bits,
            Arc::new(blocks.to_vec()),
            &searches,
            &NeighborPool::default(),
            None,
        )
        .expect("optimization failed; check cache geometry against hashed_bits");
        let rows = classes
            .iter()
            .zip(verdicts.outcomes)
            .map(|(&class, verified)| {
                let scheme = match class {
                    FunctionClass::BitSelecting => hardware::IndexingScheme::OptimizedBitSelect,
                    FunctionClass::PermutationBased { .. } => {
                        hardware::IndexingScheme::PermutationBased2
                    }
                    FunctionClass::Xor { .. } => hardware::IndexingScheme::GeneralXor2,
                };
                ReportRow {
                    class,
                    outcome: OptimizationOutcome::from_verified(verified, verdicts.profile),
                    hardware_switches: hardware::cost(scheme, hashed_bits, cache.set_bits())
                        .switches,
                }
            })
            .collect();
        EvaluationReport {
            name: name.into(),
            cache,
            baseline: verdicts.baseline.stats,
            rows,
        }
    }

    /// Name of the evaluated trace/workload.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cache geometry used.
    #[must_use]
    pub fn cache(&self) -> CacheConfig {
        self.cache
    }

    /// Statistics of the conventional (modulo-indexed) cache on the trace.
    #[must_use]
    pub fn baseline(&self) -> &CacheStats {
        &self.baseline
    }

    /// The per-class rows, in the order the classes were given.
    #[must_use]
    pub fn rows(&self) -> &[ReportRow] {
        &self.rows
    }

    /// The row with the fewest simulated misses, if any.
    #[must_use]
    pub fn best_row(&self) -> Option<&ReportRow> {
        self.rows
            .iter()
            .min_by_key(|r| r.outcome.optimized_stats.misses)
    }
}

impl fmt::Display for EvaluationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "workload {:<20} cache {} — baseline: {} misses",
            self.name, self.cache, self.baseline.misses
        )?;
        writeln!(
            f,
            "  {:<30} {:>10} {:>10} {:>9}",
            "function class", "misses", "% removed", "switches"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "  {:<30} {:>10} {:>9.1}% {:>9}",
                row.class.label(),
                row.outcome.optimized_stats.misses,
                row.percent_removed(),
                row.hardware_switches
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_compares_classes_on_one_trace() {
        let blocks: Vec<BlockAddr> = (0..600u64).map(|i| BlockAddr((i % 2) * 256)).collect();
        let report = EvaluationReport::evaluate(
            "ping-pong",
            CacheConfig::paper_cache(1),
            16,
            &[
                FunctionClass::bit_selecting(),
                FunctionClass::permutation_based(2),
            ],
            &blocks,
        );
        assert_eq!(report.rows().len(), 2);
        assert_eq!(report.name(), "ping-pong");
        assert!(report.baseline().misses > 500);
        for row in report.rows() {
            assert!(row.percent_removed() > 90.0, "{}", row.class);
            assert!(row.hardware_switches > 0);
        }
        // Permutation-based hardware is cheaper than the bit-selecting network.
        assert!(report.rows()[1].hardware_switches < report.rows()[0].hardware_switches);
        let best = report.best_row().unwrap();
        assert!(
            best.outcome.optimized_stats.misses <= report.rows()[0].outcome.optimized_stats.misses
        );
        let text = report.to_string();
        assert!(text.contains("% removed"));
        assert!(text.contains("permutation-based"));
    }
}
