//! `optimize`: one connection at depth 1 to the served apps; each job is an
//! untimed `Evict` then a timed `OptimizeVerified(HillClimb, 3)` on a seeded
//! app, so every search starts from a cold memo and scaffold.

use std::sync::Arc;
use std::time::Instant;

use xorindex::HashFunction;
use xorindex_serve::{Client, Request, Response, WorkerPool};
use xorindex_verify::{SimStats, TraceReplayer, VerifiedOutcome};

use crate::digest::Digest;
use crate::roster::{Rng, HASHED_BITS};
use crate::serving::{
    codec_time, encode, measure_rtt, off_main, optimize_request, round_trip, setup_layers,
    setup_repeated, twin, wire_delta, Counters,
};
use crate::spans::Tracer;
use crate::stats::{mean, median, ms, nproc, peak_rss_mb, ratio, us, Spent, Stopwatch};
use crate::{err, job_metrics, oracle, passes_for, pipeline, Args, Report};

/// `optimize` pass: every app this many times, in seeded order. A pass
/// takes about `OPTIMIZE_PASS_SECONDS` on a 2-vCPU guest; a run makes as
/// many as fit `--seconds`.
const OPTIMIZE_JOBS_PER_APP: usize = 4;
const OPTIMIZE_PASS_SECONDS: f64 = 2.5;

pub fn run_optimize(args: &Args) -> Report {
    let mut report = Report::default();
    if let Err(e) = optimize(args, &mut report) {
        report.fail(e);
    }
    report
}

fn optimize(args: &Args, report: &mut Report) -> Result<(), String> {
    let (served, (), setup_times) = setup_repeated(|_| ())?;
    let apps = &served.apps;

    let mut rng = Rng::new(args.seed);
    let passes = passes_for(args.seconds, OPTIMIZE_PASS_SECONDS);
    let jobs: Vec<usize> = (0..passes)
        .flat_map(|_| {
            let mut order: Vec<usize> = (0..apps.len())
                .flat_map(|a| std::iter::repeat(a).take(OPTIMIZE_JOBS_PER_APP))
                .collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    let frames: Vec<(Vec<u8>, Vec<u8>)> = jobs
        .iter()
        .enumerate()
        .map(|(j, &a)| {
            let id = apps[a].id;
            let j = j as u64;
            (
                encode(2 * j + 1, &Request::Evict { app: id }),
                encode(2 * j + 2, &optimize_request(id)),
            )
        })
        .collect();

    // Oracle: a twin's answer per app, itself checked against the legacy
    // simulator and the scalar estimator; every answer must equal it.
    let oracle_twin = twin(&served)?;
    let mut expected = Vec::new();
    for (a, app) in apps.iter().enumerate() {
        // Search counters depend on memo warmth: answer from a cold memo,
        // as every job does after its `Evict`.
        oracle_twin.evict(app.id).map_err(err)?;
        let outcome = match oracle_twin.handle(optimize_request(app.id)) {
            Response::Verified(outcome) => outcome,
            other => {
                return Err(format!(
                    "twin answer for {}: {other:?}",
                    app.trace.cell.name()
                ))
            }
        };
        oracle::check_verified(app.trace.cache, &app.trace.blocks, &app.profile, &outcome)
            .map_err(|e| format!("{}: {e}", app.trace.cell.name()))?;
        if served.warm[a] != outcome {
            report.fail(format!(
                "{}: warm-up answer differs from twin",
                app.trace.cell.name()
            ));
        }
        expected.push(outcome);
    }
    drop(oracle_twin);

    let mut client = Client::connect(served.server.local_addr()).map_err(err)?;
    let replays_before = Counters::read(&served.service, apps).replays;
    let mut counters = Counters::default();
    let wire_before = served.server.wire_stats();
    let mut spent_of = vec![None; jobs.len()];
    let mut digest = Digest::default();
    for (j, (&a, (evict, optimize))) in jobs.iter().zip(&frames).enumerate() {
        report.attempted += 1;
        let j = j as u64;
        let name = apps[a].trace.cell.name();
        match round_trip(&mut client, evict, 2 * j + 1) {
            Ok(Response::Evicted(_)) => {}
            other => {
                report.fail(format!("{name}: evict answered {other:?}"));
                continue;
            }
        }
        let clock = Stopwatch::start();
        let answer = round_trip(&mut client, optimize, 2 * j + 2);
        let spent = clock.stop();
        match answer {
            Ok(Response::Verified(outcome)) => {
                digest.verified(&outcome);
                if outcome != expected[a] {
                    report.fail(format!("{name}: answer differs from the twin's"));
                }
                spent_of[j as usize] = Some(spent);
                counters.add_caches(Counters::read(
                    &served.service,
                    std::slice::from_ref(&apps[a]),
                ));
            }
            other => report.fail(format!("{name}: answered {other:?}")),
        }
    }
    counters.replays = Counters::read(&served.service, apps).replays - replays_before;
    let (bytes_per_request, decode_errors) = wire_delta(served.server.wire_stats(), wire_before);
    drop(client);
    report.digest = digest.value();

    let spent: Vec<Spent> = spent_of.iter().flatten().copied().collect();
    let n = spent.len();
    let per_job =
        |f: &dyn Fn(&VerifiedOutcome) -> u64| jobs.iter().map(|&a| f(&expected[a])).sum::<u64>();
    let worse = per_job(&|o| u64::from(o.winner().sim.misses() > o.baseline.misses()));
    report.exact = vec![
        ("jobs", n as u64),
        ("search_evaluations", per_job(&|o| o.search.evaluations)),
        ("search_steps", per_job(&|o| o.search.steps)),
        ("replays", counters.replays),
        ("winner_misses", per_job(&|o| o.winner().sim.misses())),
        ("winner_worse_than_baseline", worse),
        ("decode_errors", decode_errors),
    ];

    if !args.trace {
        report.notes.push(format!(
            "{n} jobs over {} apps on {} workers",
            apps.len(),
            nproc()
        ));
        job_metrics(report, &spent);
        let m = &mut report.metrics;
        let removed: Vec<f64> = expected
            .iter()
            .map(|o| o.simulated_percent_removed())
            .collect();
        m.set("miss_removed_pct", mean(&removed), removed.len());
        m.set("setup_s", median(&setup_times), setup_times.len());
        m.set("peak_rss_mb", peak_rss_mb(), 1);
        return Ok(());
    }

    // Traced run, over the first pass's jobs. Phase A: the jobs rebuilt from
    // public parts, on replayers whose pre-classification and baseline are
    // warm like the served apps', first untraced, then traced.
    let traced_jobs = &jobs[..jobs.len() / passes];
    let replayers: Vec<(TraceReplayer, SimStats)> = apps
        .iter()
        .map(|app| {
            let replayer = TraceReplayer::new(app.trace.cache, Arc::clone(&app.trace.blocks))
                .with_set_partitions(0);
            let conventional =
                HashFunction::conventional(HASHED_BITS, app.trace.cache.set_bits()).map_err(err)?;
            let baseline = replayer.replay(&conventional).map_err(err)?;
            Ok((replayer, baseline))
        })
        .collect::<Result<_, String>>()?;
    let rebuild = |tracer: &mut Tracer, report: &mut Report| -> Result<(u64, u64), String> {
        let (mut neighborhoods, mut accesses_replayed) = (0u64, 0u64);
        for (j, &a) in traced_jobs.iter().enumerate() {
            let app = &apps[a];
            let (replayer, baseline) = &replayers[a];
            let kernel = served.service.kernel(app.id).map_err(err)?;
            let rebuilt = tracer.job(j as u64, |tr| {
                pipeline::optimize_verified(
                    tr,
                    &app.profile,
                    app.trace.cell.class,
                    app.trace.cache,
                    kernel,
                    replayer,
                    Some(baseline),
                )
            })?;
            if rebuilt.outcome != expected[a] {
                report.fail(format!(
                    "{}: rebuilt outcome differs",
                    app.trace.cell.name()
                ));
            }
            neighborhoods += rebuilt.neighborhood as u64;
            accesses_replayed +=
                app.trace.blocks.len() as u64 * rebuilt.outcome.candidates.len() as u64;
        }
        Ok((neighborhoods, accesses_replayed))
    };
    let start = Instant::now();
    rebuild(&mut Tracer::off(), report)?;
    let untraced_time = start.elapsed().as_secs_f64();
    let mut tracer = Tracer::default();
    let (neighborhoods, accesses_replayed) = rebuild(&mut tracer, report)?;

    // Phase B: the same requests through `handle` and `WorkerPool::call` on
    // identically warmed twins, to split the TCP latency.
    let handle_twin = twin(&served)?;
    let handled = off_main(|| {
        traced_jobs
            .iter()
            .map(|&a| {
                let id = apps[a].id;
                handle_twin.evict(id).expect("registered app");
                let start = Instant::now();
                let answer = handle_twin.handle(optimize_request(id));
                (start.elapsed(), answer)
            })
            .collect::<Vec<_>>()
    });
    let pool_twin = twin(&served)?;
    let pool = WorkerPool::new(Arc::clone(&pool_twin), nproc(), 64);
    let (mut handle_ms, mut queue_us, mut wire_us, mut codec_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (j, (&a, (handle, answer))) in traced_jobs.iter().zip(&handled).enumerate() {
        let id = apps[a].id;
        pool_twin.evict(id).map_err(err)?;
        let start = Instant::now();
        let pooled = pool.call(optimize_request(id));
        let pool_time = start.elapsed();
        for r in [answer, &pooled] {
            if !matches!(r, Response::Verified(o) if *o == expected[a]) {
                report.fail(format!(
                    "{}: twin answer differs",
                    apps[a].trace.cell.name()
                ));
            }
        }
        handle_ms.push(ms(*handle));
        queue_us.push(us(pool_time) - us(*handle));
        if let Some(client) = spent_of[j] {
            wire_us.push(us(client.wall) - us(pool_time));
        }
        codec_us.push(us(codec_time(j as u64, &optimize_request(id), answer)?));
    }
    drop(pool);

    let m = &mut report.metrics;
    let nj = traced_jobs.len();
    let jobs_f = nj as f64;
    setup_layers(m, &served);
    let per = |name: &str| -> Vec<f64> { tracer.per_job(name).into_iter().map(ms).collect() };
    m.set("core.search.ms", median(&per("core.search")), nj);
    let all_jobs = jobs.len() as f64;
    m.set(
        "core.search.evaluations",
        per_job(&|o| o.search.evaluations) as f64 / all_jobs,
        n,
    );
    m.set(
        "core.search.steps",
        per_job(&|o| o.search.steps) as f64 / all_jobs,
        n,
    );
    m.set("core.rank.ms", median(&per("core.rank")), nj);
    m.set("core.rank.candidates", neighborhoods as f64 / jobs_f, nj);
    m.set("core.hashfn.ms", median(&per("core.hashfn")), nj);
    m.set(
        "core.scaffold.hit_ratio",
        ratio(
            counters.scaffold_hits as f64,
            counters.scaffold_probes as f64,
        ),
        n,
    );
    m.set(
        "core.memo.hit_ratio",
        ratio(counters.memo_hits as f64, counters.memo_probes as f64),
        n,
    );
    let replay = per("verify.replay");
    m.set("verify.replay.ms", median(&replay), nj);
    m.set(
        "verify.replay.maccesses_per_s",
        ratio(accesses_replayed as f64, replay.iter().sum::<f64>() / 1e3) / 1e6,
        nj,
    );
    m.set("verify.replays", counters.replays as f64 / all_jobs, n);
    let audit = |f: &dyn Fn(&VerifiedOutcome) -> f64| {
        jobs.iter().map(|&a| f(&expected[a])).sum::<f64>() / all_jobs
    };
    m.set(
        "verify.audit.rank_agreement",
        audit(&|o| o.audit.rank_agreement()),
        n,
    );
    m.set(
        "verify.audit.mean_abs_err",
        audit(&|o| o.audit.mean_abs_error()),
        n,
    );
    m.set("verify.winner_worse_than_baseline", worse as f64, n);
    m.set("serve.handle.ms", median(&handle_ms), nj);
    m.set("serve.queue.us", median(&queue_us), nj);
    m.set("serve.wire.us", median(&wire_us), wire_us.len());
    m.set("serve.codec.us", median(&codec_us), nj);
    m.set("serve.wire.bytes_per_request", bytes_per_request, n);
    measure_rtt(m, &served)?;
    m.set("serve.decode_errors", decode_errors as f64, n);
    m.set("trace.other_pct", tracer.other_pct(), nj);
    m.set(
        "trace.overhead_pct",
        (1.0 - ratio(untraced_time, tracer.job_time().as_secs_f64())) * 100.0,
        nj,
    );
    tracer.check_layers(report, Some("core.search"));
    tracer.write_out(args);
    Ok(())
}
