//! Design-space sweep: every (workload × cache geometry × function class)
//! cell registered as its own [`IndexService`] application with a retained
//! trace, answered by the full optimize→verify loop, and rendered as a
//! Table-2-style report with *simulated* (not just estimated) miss counts.
//!
//! The sweep is the service-level counterpart of [`crate::table2`]: where
//! Table 2 evaluates each cell with the library directly, the sweep pushes
//! every cell through [`IndexService::optimize_verified`] — search, top-k
//! trace replay, estimator audit — so one run exercises registration, trace
//! retention, and verified optimization over the whole grid. Per (workload,
//! geometry) group, the block trace is materialized once and shared
//! (`Arc`) across that group's class cells, and the conflict profile is
//! cloned from one computation; only the per-app kernel freeze repeats.

use std::sync::Arc;

use cache_sim::{BlockAddr, CacheConfig};
use workloads::{Scale, WorkloadSuite};
use xorindex::{ConflictProfile, FunctionClass, SearchAlgorithm};
use xorindex_serve::{IndexService, Registration};

/// The sweep grid: which workloads, cache geometries and function classes to
/// run, and how the per-cell optimize→verify request is parameterized.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Workload input scale.
    pub scale: Scale,
    /// Number of hashed address bits `n`.
    pub hashed_bits: usize,
    /// Cache sizes to sweep, in KB (the paper's geometries are 1, 4, 16).
    pub cache_sizes_kb: Vec<u64>,
    /// Workload names, resolved through [`WorkloadSuite::by_name`].
    pub workloads: Vec<String>,
    /// Function classes to sweep, with a short label for the report.
    pub classes: Vec<(String, FunctionClass)>,
    /// Search algorithm run in every cell.
    pub algorithm: SearchAlgorithm,
    /// Candidates simulated per cell (search winner + best `top_k - 1`
    /// neighbours by estimate).
    pub top_k: usize,
}

impl SweepConfig {
    /// The default sweep: three benchmarks × two geometries × two classes —
    /// twelve cells, six (workload × geometry) groups.
    #[must_use]
    pub fn default_grid() -> Self {
        SweepConfig {
            scale: Scale::Small,
            hashed_bits: 14,
            cache_sizes_kb: vec![1, 4],
            workloads: vec!["crc".into(), "fir".into(), "susan".into()],
            classes: vec![
                ("bitsel".into(), FunctionClass::bit_selecting()),
                ("xor".into(), FunctionClass::xor_unlimited()),
            ],
            algorithm: SearchAlgorithm::HillClimb,
            top_k: 3,
        }
    }

    /// The full grid: the entire MiBench/MediaBench/Powerstone roster
    /// ([`WorkloadSuite::all`], 24 workloads) × the paper's three geometries
    /// (1/4/16 KB) × both function classes — 144 cells. This is the sweep the
    /// ROADMAP folded forward from the verified-loop PR; the fast replay
    /// engine is what makes its per-cell top-k trace replay affordable, and
    /// CI runs it nightly (or on manual dispatch) rather than per-push.
    #[must_use]
    pub fn full() -> Self {
        SweepConfig {
            scale: Scale::Small,
            hashed_bits: 16,
            cache_sizes_kb: vec![1, 4, 16],
            workloads: WorkloadSuite::all()
                .iter()
                .map(|w| w.name().to_string())
                .collect(),
            classes: vec![
                ("bitsel".into(), FunctionClass::bit_selecting()),
                ("xor".into(), FunctionClass::xor_unlimited()),
            ],
            algorithm: SearchAlgorithm::HillClimb,
            top_k: 3,
        }
    }

    /// The CI smoke grid: two workloads × two geometries × one class at tiny
    /// scale — four cells, done in seconds.
    #[must_use]
    pub fn quick() -> Self {
        SweepConfig {
            scale: Scale::Tiny,
            hashed_bits: 12,
            cache_sizes_kb: vec![1, 2],
            workloads: vec!["crc".into(), "fir".into()],
            classes: vec![("xor".into(), FunctionClass::xor_unlimited())],
            algorithm: SearchAlgorithm::HillClimb,
            top_k: 2,
        }
    }

    /// Human-readable scale label, for the report header.
    #[must_use]
    pub fn scale_label(&self) -> &'static str {
        match self.scale {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Reference => "reference",
        }
    }
}

/// One completed sweep cell: the verified outcome's headline numbers.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Benchmark name.
    pub workload: String,
    /// Cache size in KB.
    pub cache_kb: u64,
    /// Function-class label from the config.
    pub class: String,
    /// Block accesses replayed per candidate.
    pub trace_blocks: usize,
    /// Eq. 4 estimate of the search winner's conflict misses.
    pub estimated_misses: u64,
    /// Simulated total misses of the verified winner.
    pub simulated_misses: u64,
    /// Simulated total misses of the conventional bit-selection baseline.
    pub baseline_misses: u64,
    /// Percentage of simulated misses removed by the verified winner.
    pub percent_removed: f64,
    /// `true` when simulation picked a different candidate than the
    /// estimate-ranked search did.
    pub estimate_overruled: bool,
    /// Estimator rank agreement over the simulated candidates (1.0 = the
    /// estimate orders candidates exactly as simulation does).
    pub rank_agreement: f64,
    /// Mean |estimate − simulated conflict misses| over the candidates.
    pub mean_abs_error: f64,
}

/// A finished sweep: the configuration echo plus one cell per grid point.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Hashed address bits used for every profile.
    pub hashed_bits: usize,
    /// Scale label (`"tiny"`, `"small"`, `"reference"`).
    pub scale: String,
    /// Candidates simulated per cell.
    pub top_k: usize,
    /// Cells in (workload, geometry, class) iteration order.
    pub cells: Vec<SweepCell>,
}

impl SweepReport {
    /// Number of distinct (workload × geometry) groups in the report.
    #[must_use]
    pub fn group_count(&self) -> usize {
        let mut groups: Vec<(&str, u64)> = self
            .cells
            .iter()
            .map(|c| (c.workload.as_str(), c.cache_kb))
            .collect();
        groups.sort_unstable();
        groups.dedup();
        groups.len()
    }
}

/// Runs the whole grid through one [`IndexService`].
///
/// # Errors
///
/// Unknown workload names, invalid geometry for the configured
/// `hashed_bits`, and any [`xorindex_serve::ServeError`] from registration
/// or the per-cell optimize→verify request — all rendered as strings for
/// the CLI.
pub fn run(config: &SweepConfig) -> Result<SweepReport, String> {
    let service = IndexService::new();
    let mut cells = Vec::new();
    for name in &config.workloads {
        let workload = WorkloadSuite::by_name(name)
            .ok_or_else(|| format!("unknown workload {name:?} (see WorkloadSuite::all)"))?;
        let trace = workload.data_trace(config.scale);
        for &kb in &config.cache_sizes_kb {
            let cache = CacheConfig::paper_cache(kb);
            // One block trace and one profile per (workload, geometry)
            // group; class cells share both.
            let blocks: Arc<Vec<BlockAddr>> =
                Arc::new(trace.data_block_addresses(cache.block_bits()).collect());
            let profile = ConflictProfile::from_blocks(
                blocks.iter().copied(),
                config.hashed_bits,
                cache.num_blocks() as usize,
            );
            for (label, class) in &config.classes {
                let app = service
                    .register(
                        Registration::new(profile.clone(), cache)
                            .with_class(*class)
                            .with_shared_trace(Arc::clone(&blocks)),
                    )
                    .map_err(|e| format!("registering {name}@{kb}KB/{label}: {e}"))?;
                let outcome = service
                    .optimize_verified(app, config.algorithm, config.top_k)
                    .map_err(|e| format!("verifying {name}@{kb}KB/{label}: {e}"))?;
                cells.push(SweepCell {
                    workload: name.clone(),
                    cache_kb: kb,
                    class: label.clone(),
                    trace_blocks: blocks.len(),
                    estimated_misses: outcome.search.estimated_misses,
                    simulated_misses: outcome.winner().sim.misses(),
                    baseline_misses: outcome.baseline.misses(),
                    percent_removed: outcome.simulated_percent_removed(),
                    estimate_overruled: outcome.estimate_overruled(),
                    rank_agreement: outcome.audit.rank_agreement(),
                    mean_abs_error: outcome.audit.mean_abs_error(),
                });
            }
        }
    }
    Ok(SweepReport {
        hashed_bits: config.hashed_bits,
        scale: config.scale_label().to_string(),
        top_k: config.top_k,
        cells,
    })
}

/// Renders the report as an aligned text table.
#[must_use]
pub fn render(report: &SweepReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Design-space sweep: {} cells over {} (workload x geometry) groups \
         (n={}, scale={}, top-k={})\n",
        report.cells.len(),
        report.group_count(),
        report.hashed_bits,
        report.scale,
        report.top_k,
    ));
    out.push_str(&format!(
        "{:<10} {:>5} {:>8} {:>9} {:>9} {:>9} {:>9} {:>7} {:>9} {:>10}\n",
        "benchmark",
        "cache",
        "class",
        "est",
        "sim",
        "base",
        "removed%",
        "agree",
        "meanerr",
        "overruled"
    ));
    for c in &report.cells {
        out.push_str(&format!(
            "{:<10} {:>4}K {:>8} {:>9} {:>9} {:>9} {:>8.1}% {:>7.2} {:>9.1} {:>10}\n",
            c.workload,
            c.cache_kb,
            c.class,
            c.estimated_misses,
            c.simulated_misses,
            c.baseline_misses,
            c.percent_removed,
            c.rank_agreement,
            c.mean_abs_error,
            if c.estimate_overruled { "yes" } else { "no" },
        ));
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the report as JSON (hand-rolled: the vendored `serde` is an API
/// stub without a serializer).
#[must_use]
pub fn render_json(report: &SweepReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"hashed_bits\": {},\n  \"scale\": \"{}\",\n  \"top_k\": {},\n  \"cells\": [\n",
        report.hashed_bits,
        json_escape(&report.scale),
        report.top_k,
    ));
    for (i, c) in report.cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"cache_kb\": {}, \"class\": \"{}\", \
             \"trace_blocks\": {}, \"estimated_misses\": {}, \
             \"simulated_misses\": {}, \"baseline_misses\": {}, \
             \"percent_removed\": {:.4}, \"estimate_overruled\": {}, \
             \"rank_agreement\": {:.4}, \"mean_abs_error\": {:.4}}}{}\n",
            json_escape(&c.workload),
            c.cache_kb,
            json_escape(&c.class),
            c.trace_blocks,
            c.estimated_misses,
            c.simulated_misses,
            c.baseline_misses,
            c.percent_removed,
            c.estimate_overruled,
            c.rank_agreement,
            c.mean_abs_error,
            if i + 1 == report.cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_covers_its_grid() {
        let config = SweepConfig::quick();
        let report = run(&config).unwrap();
        // 2 workloads x 2 geometries x 1 class.
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.group_count(), 4);
        for cell in &report.cells {
            assert!(cell.trace_blocks > 0);
            // The baseline is the legacy simulator's conventional cache on
            // the cell's own trace.
            let cache = CacheConfig::paper_cache(cell.cache_kb);
            let trace = WorkloadSuite::by_name(&cell.workload)
                .unwrap()
                .data_trace(config.scale);
            let blocks: Vec<_> = trace.data_block_addresses(cache.block_bits()).collect();
            let conventional =
                xorindex::HashFunction::conventional(config.hashed_bits, cache.set_bits()).unwrap();
            let replayer = xorindex_verify::TraceReplayer::new(cache, Arc::new(blocks));
            assert_eq!(replayer.trace().len(), cell.trace_blocks);
            let legacy = replayer.replay_legacy(&conventional).unwrap();
            assert_eq!(cell.baseline_misses, legacy.misses());
            let (base, sim) = (cell.baseline_misses as f64, cell.simulated_misses as f64);
            assert_eq!(cell.percent_removed, (base - sim) * 100.0 / base);
            assert!((0.0..=1.0).contains(&cell.rank_agreement));
        }
    }

    #[test]
    fn reports_render_as_text_and_json() {
        let config = SweepConfig::quick();
        let report = run(&config).unwrap();
        let text = render(&report);
        assert!(text.contains("crc"));
        assert!(text.contains("fir"));
        assert!(text.contains("(workload x geometry)"));
        let json = render_json(&report);
        assert!(json.contains("\"cells\": ["));
        assert!(json.contains("\"workload\": \"crc\""));
        // Structural sanity: balanced braces/brackets, one object per cell.
        assert_eq!(json.matches("\"cache_kb\"").count(), report.cells.len());
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "JSON braces balance"
        );
    }

    #[test]
    fn unknown_workloads_are_reported_not_panicked() {
        let mut config = SweepConfig::quick();
        config.workloads = vec!["no-such-benchmark".into()];
        let err = run(&config).unwrap_err();
        assert!(err.contains("no-such-benchmark"));
    }

    #[test]
    fn default_grid_names_resolve() {
        for name in SweepConfig::default_grid().workloads {
            assert!(
                WorkloadSuite::by_name(&name).is_some(),
                "default sweep workload {name:?} must exist"
            );
        }
    }

    #[test]
    fn full_grid_covers_the_whole_roster() {
        let config = SweepConfig::full();
        assert_eq!(config.workloads.len(), WorkloadSuite::all().len());
        for name in &config.workloads {
            assert!(
                WorkloadSuite::by_name(name).is_some(),
                "full sweep workload {name:?} must exist"
            );
        }
        assert_eq!(config.cache_sizes_kb, vec![1, 4, 16]);
        assert_eq!(config.classes.len(), 2);
        // 24 workloads x 3 geometries x 2 classes.
        let cells = config.workloads.len() * config.cache_sizes_kb.len() * config.classes.len();
        assert_eq!(cells, 144);
    }
}
