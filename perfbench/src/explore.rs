//! `explore`: one connection at depth 1 to the served apps, over a seeded,
//! pre-encoded mix of 70% `PriceBatch` (64 candidates from a per-app pool)
//! and 30% `SimulateFunction` requests. Every pass starts from evicted
//! memos. One connection keeps one request in flight, so the process CPU
//! time read around a request is that request's.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gf2::PackedBasis;
use xorindex::HashFunction;
use xorindex_serve::{
    decode_client_frame, decode_server_frame, encode_request, encode_response, split_frame, Client,
    ClientFrame, IndexService, Request, Response, ServerFrame, WorkerPool,
};
use xorindex_verify::{TraceReplayer, VerifiedOutcome};

use crate::digest::Digest;
use crate::roster::{self, Rng, HASHED_BITS};
use crate::serving::{
    encode, evict_all, measure_rtt, off_main, round_trip, setup_layers, setup_repeated, twin,
    wire_delta, Counters, Served,
};
use crate::spans::Tracer;
use crate::stats::{mean, median, ms, nproc, peak_rss_mb, ratio, us, Spent, Stopwatch};
use crate::{err, job_metrics, oracle, passes_for, Args, Report};

/// `explore` pass: per app, this many `PriceBatch` and `SimulateFunction`
/// requests, in seeded order; about `EXPLORE_PASS_SECONDS` on a 2-vCPU
/// guest.
const EXPLORE_BATCHES_PER_APP: usize = 70;
const EXPLORE_SIMULATES_PER_APP: usize = 30;
const EXPLORE_PASS_SECONDS: f64 = 0.8;
/// Candidates per `PriceBatch`, drawn from a pool of this many per app.
const BATCH: usize = 64;
const POOL_PER_APP: usize = 2048;
/// Distinct `SimulateFunction` functions per app.
const FUNCTIONS_PER_APP: usize = 8;

/// What each request of a pass spent and its answer's digest, by request
/// index.
type PassAnswers = Vec<(Spent, Option<u64>)>;

/// What a request asks for, for the oracle.
#[derive(Clone, Copy)]
enum Ask {
    /// `PriceBatch` of pool candidates `picks[start..start + BATCH]`.
    Price { app: usize, start: usize },
    /// `SimulateFunction` of the app's function `f`.
    Simulate { app: usize, f: usize },
}

/// The seeded inputs of `explore`, generated during set-up.
struct Inputs {
    pools: Vec<Vec<PackedBasis>>,
    functions: Vec<Vec<HashFunction>>,
    picks: Vec<usize>,
    asks: Vec<Ask>,
    requests: Vec<Request>,
    frames: Vec<Vec<u8>>,
}

fn explore_inputs(seed: u64, served: &Served) -> Inputs {
    let mut rng = Rng::new(seed);
    let apps = &served.apps;
    let mut pools = Vec::new();
    let mut functions = Vec::new();
    for app in apps {
        let set_bits = app.trace.cache.set_bits();
        pools.push(
            (0..POOL_PER_APP)
                .map(|_| {
                    roster::permutation_function(&mut rng, HASHED_BITS, set_bits)
                        .null_space()
                        .to_packed()
                })
                .collect::<Vec<_>>(),
        );
        functions.push(
            (0..FUNCTIONS_PER_APP)
                .map(|_| roster::permutation_function(&mut rng, HASHED_BITS, set_bits))
                .collect::<Vec<_>>(),
        );
    }
    // Every app gets the same number of each kind, and every block of ten
    // requests holds seven batches and three simulations, so seeds differ
    // in content and order but not in mix.
    let mut per_kind = |count: usize| -> Vec<usize> {
        let mut order: Vec<usize> = (0..apps.len())
            .flat_map(|a| std::iter::repeat(a).take(count))
            .collect();
        rng.shuffle(&mut order);
        order
    };
    let batch_apps = per_kind(EXPLORE_BATCHES_PER_APP);
    let simulate_apps = per_kind(EXPLORE_SIMULATES_PER_APP);
    let mut kinds: Vec<(usize, bool)> = Vec::new();
    for (batches, simulates) in batch_apps.chunks(7).zip(simulate_apps.chunks(3)) {
        let start = kinds.len();
        kinds.extend(batches.iter().map(|&a| (a, true)));
        kinds.extend(simulates.iter().map(|&a| (a, false)));
        rng.shuffle(&mut kinds[start..]);
    }
    let mut simulated = vec![0usize; apps.len()];
    let mut picks = Vec::new();
    let mut asks = Vec::new();
    let mut requests = Vec::new();
    for (a, price) in kinds {
        let app = apps[a].id;
        if price {
            let start = picks.len();
            picks.extend(rng.sample(POOL_PER_APP, BATCH));
            let bases = picks[start..]
                .iter()
                .map(|&i| pools[a][i].clone())
                .collect();
            asks.push(Ask::Price { app: a, start });
            requests.push(Request::PriceBatch { app, bases });
        } else {
            let f = simulated[a] % FUNCTIONS_PER_APP;
            simulated[a] += 1;
            asks.push(Ask::Simulate { app: a, f });
            requests.push(Request::SimulateFunction {
                app,
                function: functions[a][f].clone(),
            });
        }
    }
    let frames = requests
        .iter()
        .enumerate()
        .map(|(i, r)| encode(i as u64 + 1, r))
        .collect();
    Inputs {
        pools,
        functions,
        picks,
        asks,
        requests,
        frames,
    }
}

/// Digest of one answer, as the oracle expects it.
fn answer_digest(response: &Response) -> Option<u64> {
    let mut d = Digest::default();
    match response {
        Response::Prices(prices) => d.u64(1).u64s(prices),
        Response::Simulated(sim) => d.u64(2).sim(sim),
        _ => return None,
    };
    Some(d.value())
}

/// The oracle's answer digest for every request: scalar prices and legacy
/// simulations, each distinct candidate or function computed once.
fn expected_digests(served: &Served, inputs: &Inputs) -> Result<Vec<u64>, String> {
    let apps = &served.apps;
    let mut prices: Vec<Vec<Option<u64>>> = vec![vec![None; POOL_PER_APP]; apps.len()];
    let mut sims: Vec<Vec<Option<u64>>> = vec![vec![None; FUNCTIONS_PER_APP]; apps.len()];
    let mut out = Vec::with_capacity(inputs.asks.len());
    for ask in &inputs.asks {
        match *ask {
            Ask::Price { app, start } => {
                let batch: Vec<u64> = inputs.picks[start..start + BATCH]
                    .iter()
                    .map(|&i| {
                        *prices[app][i].get_or_insert_with(|| {
                            oracle::scalar_price(&apps[app].profile, &inputs.pools[app][i])
                        })
                    })
                    .collect();
                out.push(answer_digest(&Response::Prices(batch)).expect("prices"));
            }
            Ask::Simulate { app, f } => {
                if sims[app][f].is_none() {
                    let t = &apps[app].trace;
                    let replayer = TraceReplayer::new(t.cache, Arc::clone(&t.blocks));
                    let sim = replayer
                        .replay_legacy(&inputs.functions[app][f])
                        .map_err(err)?;
                    sims[app][f] = answer_digest(&Response::Simulated(sim));
                }
                out.push(sims[app][f].expect("filled above"));
            }
        }
    }
    Ok(out)
}

/// One pass of the request list over one connection, each request sent as
/// soon as the previous one is answered. Returns what each request spent
/// and its answer's digest, by request index.
fn explore_pass(client: &mut Client, frames: &[Vec<u8>]) -> PassAnswers {
    frames
        .iter()
        .enumerate()
        .map(|(i, frame)| {
            let clock = Stopwatch::start();
            let answer = round_trip(client, frame, i as u64 + 1);
            let spent = clock.stop();
            (spent, answer.ok().as_ref().and_then(answer_digest))
        })
        .collect()
}

pub fn run_explore(args: &Args) -> Report {
    let mut report = Report::default();
    if let Err(e) = explore(args, &mut report) {
        report.fail(e);
    }
    report
}

fn explore(args: &Args, report: &mut Report) -> Result<(), String> {
    let (served, inputs, setup_times) = setup_repeated(|s| explore_inputs(args.seed, s))?;
    let apps = &served.apps;
    let mut client = Client::connect(served.server.local_addr()).map_err(err)?;

    // One untimed warm-up pass, then timed passes; each starts from evicted
    // memos, so every pass does identical work.
    evict_all(&served.service, apps);
    explore_pass(&mut client, &inputs.frames);
    let mut counters = Counters::default();
    let wire_before = served.server.wire_stats();
    let mut spent = Vec::new();
    let mut answers: Vec<Vec<Option<u64>>> = Vec::new();
    let passes = passes_for(args.seconds, EXPLORE_PASS_SECONDS);
    for _ in 0..passes {
        evict_all(&served.service, apps);
        let results = explore_pass(&mut client, &inputs.frames);
        counters.add_caches(Counters::read(&served.service, apps));
        let mut pass_answers = Vec::with_capacity(results.len());
        for (s, digest) in results {
            report.attempted += 1;
            spent.push(s);
            pass_answers.push(digest);
        }
        answers.push(pass_answers);
    }
    let (bytes_per_request, decode_errors) = wire_delta(served.server.wire_stats(), wire_before);
    drop(client);

    let expected = expected_digests(&served, &inputs)?;
    let mut digest = Digest::default();
    for answer in &answers[0] {
        digest.u64(answer.unwrap_or(0));
    }
    report.digest = digest.value();
    for pass in &answers {
        for (i, (got, &want)) in pass.iter().zip(&expected).enumerate() {
            if *got != Some(want) {
                report.fail(format!(
                    "request {} answer differs from the oracle's",
                    i + 1
                ));
            }
        }
    }
    let batches = inputs
        .asks
        .iter()
        .filter(|a| matches!(a, Ask::Price { .. }))
        .count();
    report.exact = vec![
        ("requests", report.attempted),
        ("price_batches_per_pass", batches as u64),
        ("simulates_per_pass", (inputs.asks.len() - batches) as u64),
        ("decode_errors", decode_errors),
    ];

    let n = spent.len();
    if !args.trace {
        report.notes.push(format!(
            "{n} requests in {passes} passes over one connection, {} apps",
            apps.len()
        ));
        job_metrics(report, &spent);
        let m = &mut report.metrics;
        let removed: Vec<f64> = served
            .warm
            .iter()
            .map(VerifiedOutcome::simulated_percent_removed)
            .collect();
        m.set("miss_removed_pct", mean(&removed), removed.len());
        m.set("setup_s", median(&setup_times), setup_times.len());
        m.set("peak_rss_mb", peak_rss_mb(), 1);
        return Ok(());
    }

    explore_traced(args, report, &served, &inputs, &expected)?;
    let m = &mut report.metrics;
    m.set(
        "core.memo.hit_ratio",
        ratio(counters.memo_hits as f64, counters.memo_probes as f64),
        n,
    );
    m.set("serve.wire.bytes_per_request", bytes_per_request, n);
    m.set("serve.decode_errors", decode_errors as f64, n);
    Ok(())
}

/// A twin in the state every timed `explore` pass starts from: warmed, one
/// untimed pass of the requests answered, memos evicted.
fn explore_twin(served: &Served, requests: &[Request]) -> Result<Arc<IndexService>, String> {
    let service = twin(served)?;
    off_main(|| {
        for request in requests {
            let _ = service.handle(request.clone());
        }
    });
    evict_all(&service, &served.apps);
    Ok(service)
}

/// The in-process request path of one request: encode, decode, the direct
/// service call, encode and decode the answer.
fn in_process(
    tracer: &mut Tracer,
    service: &IndexService,
    id: u64,
    request: &Request,
) -> Result<Response, String> {
    let decoded = tracer.span("serve.codec", || -> Result<Request, String> {
        let mut buf = Vec::new();
        encode_request(id, request, &mut buf);
        let (payload, _) = split_frame(&buf).map_err(err)?.ok_or("short frame")?;
        match decode_client_frame(payload).map_err(err)? {
            (_, ClientFrame::Request(r)) => Ok(r),
            _ => Err("not a request".to_string()),
        }
    })?;
    let response = match decoded {
        Request::PriceBatch { app, bases } => tracer
            .span("core.price", || service.price_batch(app, &bases))
            .map(Response::Prices),
        Request::SimulateFunction { app, function } => tracer
            .span("verify.simulate", || {
                service.simulate_function(app, &function)
            })
            .map(Response::Simulated),
        other => return Err(format!("unexpected request {other:?}")),
    }
    .unwrap_or_else(Response::Error);
    tracer.span("serve.codec", || -> Result<Response, String> {
        let mut out = Vec::new();
        encode_response(id, &response, &mut out);
        let (payload, _) = split_frame(&out).map_err(err)?.ok_or("short frame")?;
        match decode_server_frame(payload).map_err(err)? {
            (_, ServerFrame::Response(r)) => Ok(r),
            _ => Err("not a response".to_string()),
        }
    })
}

fn explore_traced(
    args: &Args,
    report: &mut Report,
    served: &Served,
    inputs: &Inputs,
    expected: &[u64],
) -> Result<(), String> {
    let apps = &served.apps;
    let requests = &inputs.requests;

    // In-process path, untraced then traced, each from evicted memos.
    let direct = explore_twin(served, requests)?;
    let (untraced_time, tracer, answers) = off_main(|| -> Result<_, String> {
        let start = Instant::now();
        for (i, request) in requests.iter().enumerate() {
            in_process(&mut Tracer::off(), &direct, i as u64 + 1, request)?;
        }
        let untraced_time = start.elapsed().as_secs_f64();
        evict_all(&direct, apps);
        let mut tracer = Tracer::default();
        let mut answers = Vec::with_capacity(requests.len());
        for (i, request) in requests.iter().enumerate() {
            answers.push(tracer.job(i as u64, |tr| {
                in_process(tr, &direct, i as u64 + 1, request)
            })?);
        }
        Ok((untraced_time, tracer, answers))
    })?;
    drop(direct);

    // `handle`, `WorkerPool::call` and one TCP connection, request by
    // request, each on its own identically warmed and evicted service.
    let handle_twin = explore_twin(served, requests)?;
    let handled = off_main(|| {
        requests
            .iter()
            .map(|request| {
                let request = request.clone();
                let start = Instant::now();
                let answer = handle_twin.handle(request);
                (start.elapsed(), answer)
            })
            .collect::<Vec<_>>()
    });
    drop(handle_twin);
    let pool_twin = explore_twin(served, requests)?;
    let pool = WorkerPool::new(Arc::clone(&pool_twin), nproc(), 64);
    let pooled: Vec<(Duration, Response)> = requests
        .iter()
        .map(|request| {
            let request = request.clone();
            let start = Instant::now();
            let answer = pool.call(request);
            (start.elapsed(), answer)
        })
        .collect();
    evict_all(&served.service, apps);
    let mut client = Client::connect(served.server.local_addr()).map_err(err)?;
    let (mut handle_ms, mut queue_us, mut wire_us) = (Vec::new(), Vec::new(), Vec::new());
    for (i, ((inproc, (handle, answer)), (pool_time, pooled))) in
        answers.iter().zip(&handled).zip(&pooled).enumerate()
    {
        let start = Instant::now();
        let remote = round_trip(&mut client, &inputs.frames[i], i as u64 + 1)?;
        let client_time = start.elapsed();
        for r in [inproc, answer, pooled, &remote] {
            if answer_digest(r) != Some(expected[i]) {
                report.fail(format!("request {}: twin answer differs", i + 1));
            }
        }
        handle_ms.push(ms(*handle));
        queue_us.push(us(*pool_time) - us(*handle));
        wire_us.push(us(client_time) - us(*pool_time));
    }
    drop(client);
    drop(pool);

    let nreq = requests.len();
    let m = &mut report.metrics;
    setup_layers(m, served);
    let price = tracer.per_job("core.price");
    let price_us: Vec<f64> = price.iter().map(|&d| us(d)).collect();
    m.set("core.price.us", median(&price_us), price.len());
    let price_s: f64 = price.iter().map(Duration::as_secs_f64).sum();
    m.set(
        "core.price.ns_per_candidate",
        ratio(price_s * 1e9, (price.len() * BATCH) as f64),
        price.len(),
    );
    let simulate: Vec<f64> = tracer
        .per_job("verify.simulate")
        .into_iter()
        .map(ms)
        .collect();
    m.set("verify.simulate.ms", median(&simulate), simulate.len());
    m.set("serve.handle.ms", median(&handle_ms), nreq);
    m.set("serve.queue.us", median(&queue_us), nreq);
    m.set("serve.wire.us", median(&wire_us), nreq);
    let codec: Vec<f64> = tracer.per_job("serve.codec").into_iter().map(us).collect();
    m.set("serve.codec.us", median(&codec), codec.len());
    measure_rtt(m, served)?;
    m.set("trace.other_pct", tracer.other_pct(), nreq);
    m.set(
        "trace.overhead_pct",
        (1.0 - ratio(untraced_time, tracer.job_time().as_secs_f64())) * 100.0,
        nreq,
    );
    let forbidden: usize = ["core.profile", "core.search"]
        .iter()
        .map(|name| tracer.count_in_jobs(name))
        .sum();
    if forbidden == 0 {
        report
            .notes
            .push("layer picture holds: no profile or search span inside any request".into());
    } else {
        report.fail(format!("{forbidden} profile/search spans inside requests"));
    }
    tracer.check_layers(report, None);
    tracer.write_out(args);
    Ok(())
}
