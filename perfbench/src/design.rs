//! `design`: the paper's whole per-application pipeline, run cold, in
//! process, by one caller, one job at a time. Each job profiles one roster
//! cell's block trace, registers it with a fresh `IndexService` (retained
//! shared trace) and runs `optimize_verified(HillClimb, 3)`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cache_sim::ReuseStream;
use xorindex::{ConflictProfile, SearchAlgorithm};
use xorindex_serve::{AppStats, IndexService, Registration};
use xorindex_verify::{TraceReplayer, VerifiedOutcome};

use crate::digest::Digest;
use crate::roster::{self, CellTrace, Rng, HASHED_BITS};
use crate::spans::Tracer;
use crate::stats::{mean, median, ms, peak_rss_mb, ratio, Spent, Stopwatch};
use crate::{err, job_metrics, oracle, passes_for, pipeline, Args, Report};

/// Set-up is trace generation alone (~5 ms); it is repeated and the median
/// kept.
const SETUP_REPEATS: usize = 15;

/// A run makes one pass over the roster per this many seconds of
/// `--seconds`; a pass takes about that long on a 2-vCPU guest.
const SECONDS_PER_PASS: f64 = 2.5;

/// What the timed loop keeps from one job.
struct Done {
    cell: usize,
    spent: Spent,
    outcome: VerifiedOutcome,
    stats: AppStats,
}

fn job(t: &CellTrace) -> Result<(Spent, ConflictProfile, VerifiedOutcome, AppStats), String> {
    let clock = Stopwatch::start();
    let profile = ConflictProfile::from_blocks(
        t.blocks.iter().copied(),
        HASHED_BITS,
        t.cache.num_blocks() as usize,
    );
    let profiled = clock.stop();
    // The oracle re-prices estimates against this copy; cloning is untimed.
    let kept = profile.clone();
    let clock = Stopwatch::start();
    let service = IndexService::new();
    let app = service
        .register(
            Registration::new(profile, t.cache)
                .with_class(t.cell.class)
                .with_shared_trace(Arc::clone(&t.blocks)),
        )
        .map_err(err)?;
    let outcome = service
        .optimize_verified(app, SearchAlgorithm::HillClimb, pipeline::TOP_K)
        .map_err(err)?;
    let spent = profiled + clock.stop();
    let stats = service.stats(app).map_err(err)?;
    Ok((spent, kept, outcome, stats))
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let roster = roster::design_roster();
    let mut setup = Vec::new();
    let mut generated = None;
    for _ in 0..SETUP_REPEATS {
        let clock = Stopwatch::start();
        generated = Some(roster::generate_traces(&roster));
        setup.push(clock.stop().cpu.as_secs_f64());
    }
    let (traces, trace_spans) = generated.expect("set-up ran");

    let mut rng = Rng::new(args.seed);
    let jobs: Vec<usize> = (0..passes_for(args.seconds, SECONDS_PER_PASS))
        .flat_map(|_| {
            let mut order: Vec<usize> = (0..traces.len()).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();

    // Timed loop; each job's oracle check runs after its clock stops. A
    // cell's answer is checked against the oracles once; its answers in
    // later passes must equal that checked one.
    let mut done: Vec<Done> = Vec::with_capacity(jobs.len());
    let mut checked: Vec<Option<usize>> = vec![None; traces.len()];
    let mut digest = Digest::default();
    for &cell in &jobs {
        report.attempted += 1;
        let t = &traces[cell];
        match job(t) {
            Ok((spent, profile, outcome, stats)) => {
                let verdict = match checked[cell] {
                    Some(first) if done[first].outcome == outcome => Ok(()),
                    Some(_) => Err("answer differs from an earlier pass".to_string()),
                    None => {
                        checked[cell] = Some(done.len());
                        oracle::check_verified(t.cache, &t.blocks, &profile, &outcome)
                    }
                };
                if let Err(e) = verdict {
                    report.fail(format!("{}: {e}", t.cell.name()));
                }
                digest.verified(&outcome);
                done.push(Done {
                    cell,
                    spent,
                    outcome,
                    stats,
                });
            }
            Err(e) => report.fail(format!("{}: {e}", t.cell.name())),
        }
    }
    report.digest = digest.value();

    let n = done.len();
    let sum = |f: &dyn Fn(&Done) -> u64| done.iter().map(f).sum::<u64>();
    let worse = sum(&|d| u64::from(d.outcome.winner().sim.misses() > d.outcome.baseline.misses()));
    report.exact = vec![
        ("jobs", n as u64),
        ("search_evaluations", sum(&|d| d.outcome.search.evaluations)),
        ("search_steps", sum(&|d| d.outcome.search.steps)),
        ("replays", sum(&|d| d.stats.replay.replays)),
        ("winner_misses", sum(&|d| d.outcome.winner().sim.misses())),
        ("baseline_misses", sum(&|d| d.outcome.baseline.misses())),
        ("winner_worse_than_baseline", worse),
    ];

    if !args.trace {
        report.notes.push(format!(
            "{n} jobs: {} passes over {} roster cells",
            jobs.len() / traces.len(),
            traces.len()
        ));
        let spent: Vec<Spent> = done.iter().map(|d| d.spent).collect();
        job_metrics(&mut report, &spent);
        let m = &mut report.metrics;
        // Summed in roster order, so the mean repeats to the last digit.
        let mut removed: Vec<(usize, f64)> = done
            .iter()
            .map(|d| (d.cell, d.outcome.simulated_percent_removed()))
            .collect();
        removed.sort_by_key(|&(cell, _)| cell);
        let removed: Vec<f64> = removed.into_iter().map(|(_, r)| r).collect();
        m.set("miss_removed_pct", mean(&removed), n);
        m.set("setup_s", median(&setup), setup.len());
        m.set("peak_rss_mb", peak_rss_mb(), 1);
        return report;
    }

    // The traced run rebuilds the first pass; its overhead is taken against
    // the last untraced pass, which ran just before it.
    let pass = traces.len().min(done.len());
    let last_busy: f64 = done[done.len() - pass..]
        .iter()
        .map(|d| d.spent.wall.as_secs_f64())
        .sum();
    traced(
        args,
        &mut report,
        &traces,
        &trace_spans,
        &done[..pass],
        last_busy,
    );
    report
}

/// The traced run: the same jobs again, rebuilt from their public parts
/// with a span around each call, checked equal to the service's outcomes.
fn traced(
    args: &Args,
    report: &mut Report,
    traces: &[CellTrace],
    trace_spans: &[Duration],
    done: &[Done],
    untraced_busy: f64,
) {
    let mut tracer = Tracer::default();
    let mut profile_by_kb: [Vec<f64>; 3] = Default::default();
    let (mut references, mut vectors, mut neighborhoods) = (0u64, 0u64, 0u64);
    let mut accesses_replayed = 0u64;
    for (j, d) in done.iter().enumerate() {
        let t = &traces[d.cell];
        let job_id = j as u64;
        let rebuilt = tracer.job(job_id, |tr| -> Result<_, String> {
            let profile = tr.span("core.profile", || {
                ConflictProfile::from_blocks(
                    t.blocks.iter().copied(),
                    HASHED_BITS,
                    t.cache.num_blocks() as usize,
                )
            });
            let summary = profile.summary();
            let kept = profile.clone();
            let service = IndexService::new();
            let app = tr
                .span("serve.register", || {
                    service.register(
                        Registration::new(profile, t.cache)
                            .with_class(t.cell.class)
                            .with_shared_trace(Arc::clone(&t.blocks)),
                    )
                })
                .map_err(err)?;
            let kernel = service.kernel(app).map_err(err)?;
            let replayer =
                TraceReplayer::new(t.cache, Arc::clone(&t.blocks)).with_set_partitions(0);
            let rebuilt = pipeline::optimize_verified(
                tr,
                &kept,
                t.cell.class,
                t.cache,
                kernel,
                &replayer,
                None,
            )?;
            Ok((rebuilt, summary))
        });
        // The pre-classification, timed on its own outside the job span; the
        // replay span above built the same stream once, first.
        let start = Instant::now();
        std::hint::black_box(ReuseStream::build(&t.blocks, t.cache.num_blocks() as usize));
        tracer.record("cache_sim.preclass", start, Instant::now(), Some(job_id));
        match rebuilt {
            Ok((rebuilt, summary)) => {
                if rebuilt.outcome != d.outcome {
                    report.fail(format!("{}: rebuilt outcome differs", t.cell.name()));
                }
                references += summary.references;
                vectors += summary.conflict_vectors;
                neighborhoods += rebuilt.neighborhood as u64;
                accesses_replayed +=
                    t.blocks.len() as u64 * (rebuilt.outcome.candidates.len() as u64 + 1);
            }
            Err(e) => report.fail(format!("{}: rebuild: {e}", t.cell.name())),
        }
    }

    let per = |name: &str| -> Vec<f64> { tracer.per_job(name).into_iter().map(ms).collect() };
    let profile_ms = per("core.profile");
    for (d, &p) in done.iter().zip(&profile_ms) {
        let slot = match traces[d.cell].cell.kb {
            1 => 0,
            4 => 1,
            _ => 2,
        };
        profile_by_kb[slot].push(p);
    }
    let preclass = per("cache_sim.preclass");
    let replay_net: Vec<f64> = per("verify.replay")
        .iter()
        .zip(&preclass)
        .map(|(r, p)| r - p)
        .collect();
    let n = done.len();
    let jobs = n as f64;
    let sum_f = |f: &dyn Fn(&Done) -> f64| done.iter().map(f).sum::<f64>();
    let sum_u = |f: &dyn Fn(&Done) -> u64| done.iter().map(f).sum::<u64>() as f64;
    let m = &mut report.metrics;
    m.set(
        "workloads.trace.ms",
        trace_spans.iter().map(|&d| ms(d)).sum(),
        trace_spans.len(),
    );
    m.set("core.profile.ms", median(&profile_ms), n);
    for (name, values) in [
        "core.profile.ms_1k",
        "core.profile.ms_4k",
        "core.profile.ms_16k",
    ]
    .into_iter()
    .zip(&profile_by_kb)
    {
        m.set(name, median(values), values.len());
    }
    let profile_s: f64 = profile_ms.iter().sum::<f64>() / 1e3;
    m.set(
        "core.profile.mrefs_per_s",
        ratio(references as f64, profile_s) / 1e6,
        n,
    );
    m.set(
        "core.profile.vectors_per_ref",
        ratio(vectors as f64, references as f64),
        n,
    );
    m.set("serve.register.ms", median(&per("serve.register")), n);
    m.set("cache_sim.preclass.ms", median(&preclass), n);
    m.set("core.search.ms", median(&per("core.search")), n);
    m.set(
        "core.search.evaluations",
        sum_u(&|d| d.outcome.search.evaluations) / jobs,
        n,
    );
    m.set(
        "core.search.steps",
        sum_u(&|d| d.outcome.search.steps) / jobs,
        n,
    );
    m.set("core.rank.ms", median(&per("core.rank")), n);
    m.set("core.rank.candidates", neighborhoods as f64 / jobs, n);
    m.set("core.hashfn.ms", median(&per("core.hashfn")), n);
    m.set(
        "core.scaffold.hit_ratio",
        ratio(
            sum_u(&|d| d.stats.scaffold.hits),
            sum_u(&|d| d.stats.scaffold.hits + d.stats.scaffold.misses),
        ),
        n,
    );
    m.set(
        "core.memo.hit_ratio",
        ratio(
            sum_u(&|d| d.stats.memo.hits),
            sum_u(&|d| d.stats.memo.hits + d.stats.memo.misses),
        ),
        n,
    );
    m.set("verify.replay.ms", median(&replay_net), n);
    m.set(
        "verify.replay.maccesses_per_s",
        ratio(
            accesses_replayed as f64,
            replay_net.iter().sum::<f64>() / 1e3,
        ) / 1e6,
        n,
    );
    m.set(
        "verify.replays",
        sum_u(&|d| d.stats.replay.replays) / jobs,
        n,
    );
    m.set(
        "verify.audit.rank_agreement",
        sum_f(&|d| d.outcome.audit.rank_agreement()) / jobs,
        n,
    );
    m.set(
        "verify.audit.mean_abs_err",
        sum_f(&|d| d.outcome.audit.mean_abs_error()) / jobs,
        n,
    );
    m.set(
        "verify.winner_worse_than_baseline",
        sum_u(&|d| u64::from(d.outcome.winner().sim.misses() > d.outcome.baseline.misses())),
        n,
    );
    m.set("trace.other_pct", tracer.other_pct(), n);
    let traced_busy = tracer.job_time().as_secs_f64();
    m.set(
        "trace.overhead_pct",
        (1.0 - ratio(untraced_busy, traced_busy)) * 100.0,
        n,
    );
    tracer.check_layers(report, Some("core.profile"));
    tracer.write_out(args);
}
