//! Benchmark of the trace → profile → search → verify → serve pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload design|optimize|explore --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run does fixed work made from the seed, checks every answer against
//! the scalar and legacy oracles outside the timed region, prints each
//! metric by name with its unit and sample count, and ends with one JSON
//! line. `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! same jobs again with spans around every call into a layer and reports
//! the per-layer metrics. See `perfbench/README.md` for what each metric
//! should move.

mod design;
mod digest;
mod explore;
mod optimize;
mod oracle;
mod pipeline;
mod roster;
mod serving;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use stats::Spent;

/// End-to-end metrics, reported with tracing off. Times are CPU time (see
/// [`stats::cpu_now`]); the wall clock's view is printed beside them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_cpu_s", "1/s"),
    ("cpu_ms_p50", "ms"),
    ("cpu_ms_tail", "ms"),
    ("miss_removed_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.trace.ms", "ms"),
    ("core.profile.ms", "ms"),
    ("core.profile.ms_1k", "ms"),
    ("core.profile.ms_4k", "ms"),
    ("core.profile.ms_16k", "ms"),
    ("core.profile.mrefs_per_s", "Mref/s"),
    ("core.profile.vectors_per_ref", "count"),
    ("serve.register.ms", "ms"),
    ("cache_sim.preclass.ms", "ms"),
    ("core.search.ms", "ms"),
    ("core.search.evaluations", "count"),
    ("core.search.steps", "count"),
    ("core.rank.ms", "ms"),
    ("core.rank.candidates", "count"),
    ("core.hashfn.ms", "ms"),
    ("core.scaffold.hit_ratio", "ratio"),
    ("core.memo.hit_ratio", "ratio"),
    ("core.price.us", "us"),
    ("core.price.ns_per_candidate", "ns"),
    ("verify.replay.ms", "ms"),
    ("verify.replay.maccesses_per_s", "Macc/s"),
    ("verify.replays", "count"),
    ("verify.simulate.ms", "ms"),
    ("verify.audit.rank_agreement", "ratio"),
    ("verify.audit.mean_abs_err", "misses"),
    ("verify.winner_worse_than_baseline", "count"),
    ("serve.handle.ms", "ms"),
    ("serve.queue.us", "us"),
    ("serve.wire.us", "us"),
    ("serve.codec.us", "us"),
    ("serve.wire.bytes_per_request", "bytes"),
    ("serve.rtt_us", "us"),
    ("serve.decode_errors", "count"),
    ("trace.other_pct", "%"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Design,
    Optimize,
    Explore,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn name(&self) -> &'static str {
        match self.workload {
            Workload::Design => "design",
            Workload::Optimize => "optimize",
            Workload::Explore => "explore",
        }
    }
}

const USAGE: &str =
    "usage: perfbench --workload design|optimize|explore --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key, value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .copied()
            .ok_or(format!("--{key} is required"))
    };
    let number = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("--{key} must be a whole number"))
    };
    let workload = match get("workload")? {
        "design" => Workload::Design,
        "optimize" => Workload::Optimize,
        "explore" => Workload::Explore,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("seed")?,
        seconds: number("seconds")?.max(1),
        trace,
    })
}

/// Metric values gathered by a workload, keyed by name: `(value, samples)`.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, usize)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name, (value, samples));
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Counts that must repeat exactly for a seed, printed and stored with
    /// the digest.
    pub exact: Vec<(&'static str, u64)>,
    pub digest: u64,
    /// Human-readable facts printed before the result (percentiles used,
    /// layer-picture checks, ...).
    pub notes: Vec<String>,
}

impl Report {
    pub fn fail(&mut self, what: String) {
        eprintln!("perfbench: FAILED: {what}");
        self.failed += 1;
    }
}

/// Renders a library error for a failure message.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The timing metrics of a run from what each of its jobs spent: jobs
/// completed per CPU-second, and the median and the tail of the CPU time
/// per job, the tail being the highest percentile with at least ten jobs
/// beyond it. The same figures on the wall clock are printed beside them.
pub fn job_metrics(report: &mut Report, spent: &[Spent]) {
    let n = spent.len();
    let tail = if n >= 1000 {
        99.0
    } else if n >= 100 {
        90.0
    } else {
        50.0
    };
    let cpu: Vec<f64> = spent.iter().map(|s| stats::ms(s.cpu)).collect();
    let wall: Vec<f64> = spent.iter().map(|s| stats::ms(s.wall)).collect();
    let m = &mut report.metrics;
    m.set(
        "throughput_per_cpu_s",
        stats::ratio(n as f64 * 1e3, cpu.iter().sum()),
        n,
    );
    m.set("cpu_ms_p50", stats::median(&cpu), n);
    m.set("cpu_ms_tail", stats::percentile(&cpu, tail), n);
    report.notes.push(format!(
        "cpu_ms_tail is p{tail}; on the wall clock: {:.4} jobs/s, p50 {:.4} ms, \
         p{tail} {:.4} ms (n={n})",
        stats::ratio(n as f64 * 1e3, wall.iter().sum()),
        stats::median(&wall),
        stats::percentile(&wall, tail),
    ));
}

/// Whole passes over a workload's fixed job list for a run of `seconds`,
/// given how long one pass takes on the reference machine.
pub fn passes_for(seconds: u64, pass_seconds: f64) -> usize {
    ((seconds as f64 / pass_seconds).round() as usize).max(1)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload {
        Workload::Design => design::run(&args),
        Workload::Optimize => optimize::run_optimize(&args),
        Workload::Explore => explore::run_explore(&args),
    };

    let exact: Vec<String> = report
        .exact
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    let line = format!(
        "digest={:016x} attempted={} {}",
        report.digest,
        report.attempted,
        exact.join(" ")
    );
    let key = format!("{}-seed{}-s{}", args.name(), args.seed, args.seconds);
    if let Err(previous) = digest::check_repeat(&key, &line) {
        report.fail(format!(
            "outputs differ from an earlier run of the same seed:\n  now:     {line}\n  earlier: {}",
            previous.trim()
        ));
    }

    let failed_pct = stats::ratio(report.failed as f64, report.attempted as f64) * 100.0;
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    println!("  exact: {line}");
    println!(
        "  failed_pct = {failed_pct} % (n={}, failed={})",
        report.attempted, report.failed
    );
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = Vec::new();
    for &(name, unit) in names {
        let (value, samples) = report.metrics.0.get(name).copied().unwrap_or((0.0, 0));
        println!("  {name} = {value} {unit} (n={samples})");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
