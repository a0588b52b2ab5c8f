//! Shared parts of the serving workloads, `optimize` and `explore`: the
//! served apps behind a loopback `TcpServer` with one worker per CPU, their
//! in-process twins, and the wire helpers both drive them with.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cache_sim::ReuseStream;
use xorindex::{ConflictProfile, SearchAlgorithm};
use xorindex_serve::{
    decode_client_frame, decode_server_frame, encode_request, encode_response, split_frame, AppId,
    Client, IndexService, Registration, Request, Response, ServerConfig, ServerFrame, TcpServer,
    WireStats,
};
use xorindex_verify::VerifiedOutcome;

use crate::roster::{self, CellTrace, HASHED_BITS};
use crate::stats::{median, ms, nproc, ratio, us, Stopwatch};
use crate::{err, pipeline, Metrics};

/// Set-up (traces, profiles, registration, warm-up, server start, and for
/// `explore` the encoded requests) is repeated and the median kept.
const SETUP_REPEATS: usize = 3;

/// Idle-connection `Stats` round trips timed for `serve.rtt_us`.
const RTT_PROBES: usize = 200;

/// One served application.
pub(crate) struct App {
    pub(crate) trace: CellTrace,
    pub(crate) profile: ConflictProfile,
    pub(crate) id: AppId,
}

/// Layer timings of one set-up, kept for the traced run.
#[derive(Default)]
pub(crate) struct SetupSpans {
    pub(crate) trace: Vec<Duration>,
    pub(crate) profile: Vec<(u64, Duration)>,
    pub(crate) register: Vec<Duration>,
}

pub(crate) struct Served {
    pub(crate) apps: Vec<App>,
    pub(crate) service: Arc<IndexService>,
    pub(crate) server: TcpServer,
    pub(crate) warm: Vec<VerifiedOutcome>,
    pub(crate) spans: SetupSpans,
}

/// Runs `work` on a thread of its own, as the server's workers run
/// requests, rather than on the main thread whose allocator arena holds the
/// whole set-up.
pub(crate) fn off_main<T: Send>(work: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| scope.spawn(work).join().expect("worker thread panicked"))
}

pub(crate) fn optimize_request(app: AppId) -> Request {
    Request::OptimizeVerified {
        app,
        algorithm: SearchAlgorithm::HillClimb,
        top_k: pipeline::TOP_K,
    }
}

/// A warmed service, its app ids and the warm-up answers.
pub(crate) type Warmed = (Arc<IndexService>, Vec<AppId>, Vec<VerifiedOutcome>);

/// Registers every app on a fresh service and warms each with one
/// `OptimizeVerified`, returning the service, its app ids and the warm-up
/// answers.
pub(crate) fn register_and_warm(
    traces: &[CellTrace],
    profiles: &[ConflictProfile],
    register: &mut Vec<Duration>,
) -> Result<Warmed, String> {
    let service = Arc::new(IndexService::new());
    let mut ids = Vec::new();
    for (t, profile) in traces.iter().zip(profiles) {
        let registration = Registration::new(profile.clone(), t.cache)
            .with_class(t.cell.class)
            .with_shared_trace(Arc::clone(&t.blocks));
        let start = Instant::now();
        let id = service.register(registration).map_err(err)?;
        register.push(start.elapsed());
        ids.push(id);
    }
    let mut warm = Vec::new();
    for &id in &ids {
        match service.handle(optimize_request(id)) {
            Response::Verified(outcome) => warm.push(outcome),
            other => return Err(format!("warm-up of app {id}: {other:?}")),
        }
    }
    Ok((service, ids, warm))
}

pub(crate) fn setup() -> Result<Served, String> {
    let mut spans = SetupSpans::default();
    let (traces, trace_spans) = roster::generate_traces(&roster::served_apps());
    spans.trace = trace_spans;
    let profiles: Vec<ConflictProfile> = traces
        .iter()
        .map(|t| {
            let start = Instant::now();
            let profile = ConflictProfile::from_blocks(
                t.blocks.iter().copied(),
                HASHED_BITS,
                t.cache.num_blocks() as usize,
            );
            spans.profile.push((t.cell.kb, start.elapsed()));
            profile
        })
        .collect();
    let (service, ids, warm) = register_and_warm(&traces, &profiles, &mut spans.register)?;
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            workers: nproc(),
            queue_capacity: 64,
            max_in_flight: 64,
        },
    )
    .map_err(err)?;
    let apps = traces
        .into_iter()
        .zip(profiles)
        .zip(ids)
        .map(|((trace, profile), id)| App { trace, profile, id })
        .collect();
    Ok(Served {
        apps,
        service,
        server,
        warm,
        spans,
    })
}

/// An identically registered and warmed in-process twin of the served
/// service.
pub(crate) fn twin(served: &Served) -> Result<Arc<IndexService>, String> {
    let traces: Vec<CellTrace> = served.apps.iter().map(|a| a.trace.clone()).collect();
    let profiles: Vec<ConflictProfile> = served.apps.iter().map(|a| a.profile.clone()).collect();
    Ok(register_and_warm(&traces, &profiles, &mut Vec::new())?.0)
}

pub(crate) fn evict_all(service: &IndexService, apps: &[App]) {
    for app in apps {
        service.evict(app.id).expect("registered app");
    }
}

/// Runs set-up `SETUP_REPEATS` times (plus `extra`, the workload's own
/// seeded inputs), keeping the last one and the median time.
pub(crate) fn setup_repeated<T>(
    mut extra: impl FnMut(&Served) -> T,
) -> Result<(Served, T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Stop the previous server before timing the next set-up.
        drop(last.take());
        let clock = Stopwatch::start();
        let served = setup()?;
        let inputs = extra(&served);
        times.push(clock.stop().cpu.as_secs_f64());
        last = Some((served, inputs));
    }
    let (served, inputs) = last.expect("set-up ran");
    Ok((served, inputs, times))
}

/// One request/response round trip of a pre-encoded frame.
pub(crate) fn round_trip(client: &mut Client, frame: &[u8], id: u64) -> Result<Response, String> {
    let stream = client.raw_stream();
    stream.write_all(frame).map_err(err)?;
    stream.flush().map_err(err)?;
    match client.recv().map_err(err)? {
        (got, ServerFrame::Response(response)) if got == id => Ok(response),
        (got, _) => Err(format!("expected the response to {id}, got frame {got}")),
    }
}

pub(crate) fn encode(id: u64, request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request(id, request, &mut out);
    out
}

/// Time of `encode_request + decode_client_frame + encode_response +
/// decode_server_frame` for one message pair.
pub(crate) fn codec_time(
    id: u64,
    request: &Request,
    response: &Response,
) -> Result<Duration, String> {
    let start = Instant::now();
    let mut buf = Vec::new();
    encode_request(id, request, &mut buf);
    let (payload, _) = split_frame(&buf).map_err(err)?.ok_or("short frame")?;
    let decoded = decode_client_frame(payload).map_err(err)?;
    let mut out = Vec::new();
    encode_response(id, response, &mut out);
    let (payload, _) = split_frame(&out).map_err(err)?.ok_or("short frame")?;
    let answer = decode_server_frame(payload).map_err(err)?;
    let elapsed = start.elapsed();
    std::hint::black_box((decoded, answer));
    Ok(elapsed)
}

/// `serve.rtt_us`: the median `Stats` round trip on an idle connection.
pub(crate) fn measure_rtt(m: &mut Metrics, served: &Served) -> Result<(), String> {
    let mut client = Client::connect(served.server.local_addr()).map_err(err)?;
    let request = Request::Stats {
        app: served.apps[0].id,
    };
    let mut samples = Vec::with_capacity(RTT_PROBES);
    for _ in 0..RTT_PROBES {
        let start = Instant::now();
        client.call(&request).map_err(err)?;
        samples.push(us(start.elapsed()));
    }
    m.set("serve.rtt_us", median(&samples), RTT_PROBES);
    Ok(())
}

/// Memo / scaffold / replay counters summed over the served apps.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counters {
    pub(crate) memo_hits: u64,
    pub(crate) memo_probes: u64,
    pub(crate) scaffold_hits: u64,
    pub(crate) scaffold_probes: u64,
    pub(crate) replays: u64,
}

impl Counters {
    pub(crate) fn read(service: &IndexService, apps: &[App]) -> Counters {
        let mut c = Counters::default();
        for app in apps {
            let s = service.stats(app.id).expect("registered app");
            c.memo_hits += s.memo.hits;
            c.memo_probes += s.memo.hits + s.memo.misses;
            c.scaffold_hits += s.scaffold.hits;
            c.scaffold_probes += s.scaffold.hits + s.scaffold.misses;
            c.replays += s.replay.replays;
        }
        c
    }

    /// Adds the memo and scaffold counters of `other`, read just before an
    /// eviction resets them. Replay counters never reset, so they are taken
    /// as one difference over the whole loop instead.
    pub(crate) fn add_caches(&mut self, other: Counters) {
        self.memo_hits += other.memo_hits;
        self.memo_probes += other.memo_probes;
        self.scaffold_hits += other.scaffold_hits;
        self.scaffold_probes += other.scaffold_probes;
    }
}

pub(crate) fn wire_delta(after: WireStats, before: WireStats) -> (f64, u64) {
    let frames = after.frames_in - before.frames_in;
    let bytes = (after.bytes_in - before.bytes_in) + (after.bytes_out - before.bytes_out);
    (ratio(bytes as f64, frames as f64), after.decode_errors)
}

/// Per-layer metrics every serving workload takes from its set-up: trace
/// generation, profiling, registration, and the apps' 3C pre-classification
/// timed on its own.
pub(crate) fn setup_layers(m: &mut Metrics, served: &Served) {
    let (apps, spans) = (&served.apps, &served.spans);
    let trace_ms: f64 = spans.trace.iter().map(|&d| ms(d)).sum();
    m.set("workloads.trace.ms", trace_ms, spans.trace.len());
    let profile: Vec<f64> = spans.profile.iter().map(|&(_, d)| ms(d)).collect();
    m.set("core.profile.ms", median(&profile), profile.len());
    for (name, kb) in [
        ("core.profile.ms_1k", 1),
        ("core.profile.ms_4k", 4),
        ("core.profile.ms_16k", 16),
    ] {
        let v: Vec<f64> = spans
            .profile
            .iter()
            .filter(|&&(k, _)| k == kb)
            .map(|&(_, d)| ms(d))
            .collect();
        m.set(name, median(&v), v.len());
    }
    let refs: u64 = apps.iter().map(|a| a.profile.summary().references).sum();
    let vectors: u64 = apps
        .iter()
        .map(|a| a.profile.summary().conflict_vectors)
        .sum();
    let secs: f64 = spans.profile.iter().map(|&(_, d)| d.as_secs_f64()).sum();
    m.set(
        "core.profile.mrefs_per_s",
        ratio(refs as f64, secs) / 1e6,
        apps.len(),
    );
    m.set(
        "core.profile.vectors_per_ref",
        ratio(vectors as f64, refs as f64),
        apps.len(),
    );
    let register: Vec<f64> = spans.register.iter().map(|&d| ms(d)).collect();
    m.set("serve.register.ms", median(&register), register.len());
    let preclass: Vec<f64> = apps
        .iter()
        .map(|a| {
            let start = Instant::now();
            std::hint::black_box(ReuseStream::build(
                &a.trace.blocks,
                a.trace.cache.num_blocks() as usize,
            ));
            ms(start.elapsed())
        })
        .collect();
    m.set("cache_sim.preclass.ms", median(&preclass), preclass.len());
}
