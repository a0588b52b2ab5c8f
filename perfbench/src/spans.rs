//! Spans recorded by the traced run around the benchmark's calls into each
//! layer. Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

use crate::{Args, Report};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub job: Option<u64>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: Option<u64>,
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: None,
            enabled: true,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing, for the untraced twin of a traced loop.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::default()
        }
    }

    /// Runs `work` inside a span named `name`, nested under the innermost
    /// open span and tagged with the current job.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        self.span_with(name, |_| work())
    }

    /// Like [`Tracer::span`], but for work that itself records child spans.
    pub fn span_with<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return work(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        let out = work(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Runs `work` as job `job`: one `job` span whose layer spans nest inside.
    pub fn job<T>(&mut self, job: u64, work: impl FnOnce(&mut Self) -> T) -> T {
        let previous = self.job.replace(job);
        let out = self.span_with("job", work);
        self.job = previous;
        out
    }

    /// Records a span measured elsewhere (e.g. by another thread).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, job: Option<u64>) {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent: None,
            job,
        });
    }

    /// Self time of every span: its duration minus the time its children
    /// cover (children run sequentially inside their parent).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut out: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                out[parent] = out[parent].saturating_sub(span.duration());
            }
        }
        out
    }

    /// Per-job self time of each layer span named `name`, in job order.
    pub fn per_job(&self, name: &str) -> Vec<Duration> {
        let self_times = self.self_times();
        let mut by_job: BTreeMap<u64, Duration> = BTreeMap::new();
        for (span, &t) in self.spans.iter().zip(&self_times) {
            if span.name == name {
                if let Some(job) = span.job {
                    *by_job.entry(job).or_default() += t;
                }
            }
        }
        by_job.into_values().collect()
    }

    /// Number of spans named `name` inside jobs.
    pub fn count_in_jobs(&self, name: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.job.is_some())
            .count()
    }

    /// Share of all job-span time, in percent, that no layer span covers.
    pub fn other_pct(&self) -> f64 {
        let self_times = self.self_times();
        let (mut other, mut total) = (0.0, 0.0);
        for (span, t) in self.spans.iter().zip(&self_times) {
            if span.name == "job" {
                other += t.as_secs_f64();
                total += span.duration().as_secs_f64();
            }
        }
        crate::stats::ratio(other, total) * 100.0
    }

    /// Sum of job-span durations.
    pub fn job_time(&self) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == "job")
            .map(Span::duration)
            .sum()
    }

    /// Notes each layer's self time over all jobs in `report` and checks
    /// that `expected`, if given, is the largest.
    pub fn check_layers(&self, report: &mut Report, expected: Option<&str>) {
        let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
        for (span, t) in self.spans.iter().zip(self.self_times()) {
            if span.job.is_some() && span.name != "job" {
                *totals.entry(span.name).or_default() += t.as_secs_f64();
            }
        }
        // A pre-classification timed on its own was also built inside the
        // replay span; count it once.
        if let Some(&pre) = totals.get("cache_sim.preclass") {
            if let Some(replay) = totals.get_mut("verify.replay") {
                *replay -= pre;
            }
        }
        let largest = totals
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or("none", |(name, _)| *name);
        let shares: Vec<String> = totals
            .iter()
            .map(|(name, t)| format!("{name} {:.0} ms", t * 1e3))
            .collect();
        report
            .notes
            .push(format!("layer self time: {}", shares.join(", ")));
        match expected {
            Some(expected) if expected == largest => report.notes.push(format!(
                "layer picture holds: {expected} has the largest self time"
            )),
            Some(expected) => report.fail(format!(
                "layer picture: expected {expected} to dominate, found {largest}"
            )),
            None => {}
        }
    }

    /// Writes the spans as JSON lines into the build directory, beside the
    /// executable: `perfbench-spans/<workload>-seed<N>.jsonl`.
    pub fn write_out(&self, args: &Args) {
        let Some(dir) = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|d| d.join("perfbench-spans")))
        else {
            return;
        };
        let path = dir.join(format!("{}-seed{}.jsonl", args.name(), args.seed));
        if let Err(e) = self.write(&path) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
        }
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.job.map_or("null".to_string(), |j| j.to_string()),
            )?;
        }
        out.flush()
    }
}
