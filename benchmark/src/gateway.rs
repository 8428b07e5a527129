//! The `gateway` workload: an in-process live gateway driven over real HTTP.
//!
//! `nproc` closed-loop clients (each waits for its stream to finish before
//! sending the next request, one connection at a time) post completions
//! with ShareGPT input lengths until `--seconds` have passed. This is the
//! only workload through the parse → inject → ring → SSE-write path; the
//! gateway's own `gw-sim` / `gw-io-0` threads are the program under test.

use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use aegaeon::{AegaeonConfig, InvariantAuditor, RunResult, ServingSession, TokenEv};
use aegaeon_bench::{market_models, sweep::derive_seed};
use aegaeon_gateway::client::{self, SseStream};
use aegaeon_gateway::http::HttpParser;
use aegaeon_gateway::outbuf::WriteQueue;
use aegaeon_gateway::ring::{self, RingTag};
use aegaeon_gateway::{api, sse, ClockMode, Gateway, GatewayConfig, GatewayReport};
use aegaeon_model::{ModelId, ModelSpec};
use aegaeon_sim::{SimRng, SimTime};
use aegaeon_workload::{LengthDist, RequestId, SloSpec};

use crate::procfs;
use crate::report::{Gates, Outcome, Value};
use crate::sim::{self, SimAcc, SETUP_REPS};
use crate::spans::{self, Recorder, Span, SpanId};
use crate::stats;
use crate::Opts;

/// Models the gateway serves.
const MODELS: usize = 4;
/// Simulated seconds per wall second.
const WARP: f64 = 1000.0;
/// Output tokens per completion.
const MAX_TOKENS: u32 = 32;
/// Distinct request bodies; clients cycle through them.
const BODIES: usize = 8192;
/// Every stream read must make progress within this long, or the stream
/// counts as stalled (failed).
const READ_DEADLINE: Duration = Duration::from_secs(5);
/// The live session stops serving once simulated time passes
/// `live_horizon + drain_window`; the horizon covers the planned simulated
/// span this many times over.
const HORIZON_HEADROOM: f64 = 100.0;

/// How one stream ended badly.
enum Failure {
    /// Non-200 head (a 429 included).
    Status(u16),
    /// Connect/read/write error; a timed-out read is a stall.
    Io(io::Error),
    /// Stream closed without `[DONE]` or short of `max_tokens` tokens.
    Truncated(u32),
}

/// Client-side tally of one load phase.
#[derive(Default)]
struct Load {
    completed: u64,
    failed: u64,
    tokens: u64,
    ttft_s: Vec<f64>,
    head_s: Vec<f64>,
    wall_s: f64,
    first_failure: Option<String>,
    spans: Vec<Span>,
}

/// The live deployment under test.
struct Deployment {
    sys: AegaeonConfig,
    models: Vec<ModelSpec>,
    gw: GatewayConfig,
}

impl Deployment {
    fn new(seconds: f64) -> Deployment {
        let mut gw = GatewayConfig::local(ClockMode::Timewarp(WARP));
        // Sized from the planned simulated span, so a run never reaches the
        // hard stop (after which streams would hang without a terminal
        // frame).
        gw.live_horizon = SimTime::from_secs_f64(HORIZON_HEADROOM * WARP * seconds.max(1.0));
        Deployment {
            sys: AegaeonConfig::small_testbed(1, 1),
            models: market_models(MODELS),
            gw,
        }
    }

    /// Simulated instant after which the live session stops serving.
    fn hard_stop_secs(&self) -> f64 {
        self.gw.live_horizon.as_secs_f64() + self.sys.drain_window.as_secs_f64()
    }

    /// Starts a gateway and waits for its first `/healthz` 200; returns it
    /// with the elapsed time.
    fn start(&self) -> io::Result<(Gateway, f64)> {
        let t0 = Instant::now();
        let gw = Gateway::start(&self.sys, &self.models, self.gw.clone())?;
        loop {
            if let Ok(r) =
                client::request(gw.addr(), "GET", "/healthz", None, Duration::from_secs(1))
            {
                if r.status == 200 {
                    return Ok((gw, t0.elapsed().as_secs_f64()));
                }
            }
            if t0.elapsed() > Duration::from_secs(10) {
                gw.shutdown();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "gateway never became healthy",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Completion bodies drawn from the seed: a uniform model and a ShareGPT
/// prompt length each.
fn bodies(seed: u64) -> Vec<String> {
    let mut rng = SimRng::seed_from_u64(derive_seed(seed, 0));
    let lengths = LengthDist::sharegpt();
    (0..BODIES)
        .map(|_| {
            let model = rng.below(MODELS);
            let (input, _) = lengths.sample(&mut rng);
            format!(
                "{{\"model\":\"m{model}\",\"input_tokens\":{input},\"max_tokens\":{MAX_TOKENS}}}"
            )
        })
        .collect()
}

/// The exact bytes `client::SseStream::post` sends for `body`.
fn request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/completions HTTP/1.1\r\nHost: gateway\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Streams one completion; returns (head secs, first-token secs).
fn stream_one(
    addr: SocketAddr,
    body: &str,
    rec: &mut Recorder,
    group: u64,
    req: SpanId,
) -> Result<(f64, f64), Failure> {
    let t0 = Instant::now();
    let head = rec.begin("gateway.head", group, req);
    let mut s =
        SseStream::post(addr, "/v1/completions", body, READ_DEADLINE).map_err(Failure::Io)?;
    rec.end(head);
    let head_s = t0.elapsed().as_secs_f64();
    if s.status != 200 {
        return Err(Failure::Status(s.status));
    }
    let first = rec.begin("gateway.first_token", group, req);
    let mut stream = None;
    let mut ttft_s = None;
    let mut tokens = 0u32;
    let mut done = false;
    while let Some(payload) = s.next_data().map_err(Failure::Io)? {
        if payload == sse::DONE {
            done = true;
            break;
        }
        tokens += 1;
        if ttft_s.is_none() {
            ttft_s = Some(t0.elapsed().as_secs_f64());
            rec.end(first);
            stream = Some(rec.begin("gateway.stream", group, req));
        }
    }
    if let Some(sp) = stream {
        rec.end(sp);
    }
    match ttft_s {
        Some(ttft) if done && tokens == MAX_TOKENS => Ok((head_s, ttft)),
        _ => Err(Failure::Truncated(tokens)),
    }
}

/// Drives `nproc` closed-loop clients against `addr` for `--seconds`;
/// `started` is when the gateway started (its simulated clock's origin).
fn drive(
    d: &Deployment,
    addr: SocketAddr,
    started: Instant,
    bodies: &[String],
    opts: &Opts,
    trace_epoch: Option<Instant>,
) -> Load {
    let cursor = AtomicUsize::new(0);
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs_f64(opts.seconds);
    let epoch = trace_epoch.unwrap_or(begin);
    let parts: Vec<(Load, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..opts.nproc)
            .map(|lane| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut rec = Recorder::new(trace_epoch.is_some(), epoch, lane as u32 + 1);
                    let mut load = Load::default();
                    while Instant::now() < deadline {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let group = i as u64;
                        let req = rec.begin("gateway.request", group, SpanId::ROOT);
                        let result = stream_one(addr, &bodies[i % bodies.len()], &mut rec, group, req);
                        rec.end(req);
                        match result {
                            Ok((head, ttft)) => {
                                load.completed += 1;
                                load.tokens += u64::from(MAX_TOKENS);
                                load.head_s.push(head);
                                load.ttft_s.push(ttft);
                            }
                            Err(f) => {
                                load.failed += 1;
                                if load.first_failure.is_none() {
                                    let what = match f {
                                        Failure::Status(code) => format!("HTTP {code}"),
                                        Failure::Io(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                                            format!("stalled: no progress within {READ_DEADLINE:?} ({e})")
                                        }
                                        Failure::Io(e) => format!("I/O error: {e}"),
                                        Failure::Truncated(n) => format!("stream ended after {n} tokens without [DONE]"),
                                    };
                                    let sim_now = started.elapsed().as_secs_f64() * WARP;
                                    load.first_failure = Some(format!(
                                        "stream #{i} ({}) {what}; sim time ~{sim_now:.0} s, hard stop {:.0} s",
                                        bodies[i % bodies.len()],
                                        d.hard_stop_secs()
                                    ));
                                }
                            }
                        }
                    }
                    (load, rec.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut load = Load {
        wall_s: begin.elapsed().as_secs_f64(),
        ..Load::default()
    };
    let mut span_parts = Vec::new();
    for (part, spans) in parts {
        load.completed += part.completed;
        load.failed += part.failed;
        load.tokens += part.tokens;
        load.ttft_s.extend(part.ttft_s);
        load.head_s.extend(part.head_s);
        load.first_failure = load.first_failure.or(part.first_failure);
        span_parts.push(spans);
    }
    load.spans = spans::merge(span_parts);
    load
}

/// Server-thread accounting read just before shutdown.
struct ServerCpu {
    sim_s: f64,
    io_s: f64,
    ctx_switches: u64,
}

fn server_cpu() -> ServerCpu {
    let mut c = ServerCpu {
        sim_s: 0.0,
        io_s: 0.0,
        ctx_switches: 0,
    };
    for t in procfs::threads("gw-") {
        if t.comm == "gw-sim" {
            c.sim_s += t.cpu_secs;
        } else {
            c.io_s += t.cpu_secs;
        }
        c.ctx_switches += t.ctx_switches;
    }
    c
}

/// `wall_clock_lag_secs` from a `/metrics` scrape.
fn scrape_lag(addr: SocketAddr) -> Option<f64> {
    let r = client::request(addr, "GET", "/metrics", None, Duration::from_secs(5)).ok()?;
    r.text()
        .lines()
        .find_map(|l| l.strip_prefix("wall_clock_lag_secs "))
        .and_then(|v| v.trim().parse().ok())
}

/// One full live phase: load, accounting, shutdown, and the gates.
struct Phase {
    load: Load,
    cpu: ServerCpu,
    lag_s: Option<f64>,
    report: GatewayReport,
}

/// Runs the load against a started gateway (recording spans against
/// `trace_epoch` when set), then reads its accounting and shuts it down.
fn phase(
    d: &Deployment,
    gw: Gateway,
    started: Instant,
    bodies: &[String],
    opts: &Opts,
    trace_epoch: Option<Instant>,
) -> Phase {
    let load = drive(d, gw.addr(), started, bodies, opts, trace_epoch);
    let lag_s = scrape_lag(gw.addr());
    let cpu = server_cpu();
    let report = gw.shutdown();
    Phase {
        load,
        cpu,
        lag_s,
        report,
    }
}

/// Replays the live run's recorded trace offline; with `audit`, the auditor
/// observes the replay.
fn replay(
    d: &Deployment,
    report: &GatewayReport,
    telemetry: bool,
    audit: bool,
    rec: &mut Recorder,
) -> (RunResult, u64) {
    let mut cfg = d.sys.clone();
    cfg.telemetry = if telemetry {
        aegaeon_telemetry::TelemetrySpec::enabled()
    } else {
        aegaeon_telemetry::TelemetrySpec::disabled()
    };
    let s = rec.begin("core.setup", 0, SpanId::ROOT);
    let mut session = ServingSession::replay(&cfg, &d.models, &report.trace);
    if audit {
        session.install_auditor(Box::new(InvariantAuditor::new()));
    }
    rec.end(s);
    let (result, _, events) = sim::serve(session, rec, 0, SpanId::ROOT);
    (result, events)
}

/// Counts one live phase's streams as operations and checks its gates.
fn gate_phase(g: &mut Gates, d: &Deployment, p: &Phase) {
    g.attempted += p.load.completed + p.load.failed;
    g.failed += p.load.failed;
    g.check(
        "every stream completes (no 429, I/O error, stall or truncation)",
        p.load.failed == 0,
        || p.load.first_failure.clone().unwrap_or_default(),
    );
    let audit = p.report.audit.as_ref();
    g.gate("gateway audit clean", audit.is_some_and(|a| a.ok()), || {
        audit.map_or("no audit report".into(), |a| a.to_string())
    });
    let server = p.report.result.completed as u64;
    g.gate(
        "server completed == client completed",
        server == p.load.completed,
        || format!("server {server}, client {}", p.load.completed),
    );
    let (replayed, _) = replay(
        d,
        &p.report,
        true,
        false,
        &mut Recorder::new(false, Instant::now(), 0),
    );
    let (live, off) = (p.report.result.fingerprint(), replayed.fingerprint());
    g.gate(
        "offline replay reproduces the live fingerprint",
        live == off,
        || format!("live {live:016x}, replay {off:016x}"),
    );
}

/// Median ns per call of `f` over three rounds of `n` calls.
fn ns_per(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut rounds = Vec::with_capacity(3);
    for _ in 0..3 {
        let t = Instant::now();
        for i in 0..n {
            f(i);
        }
        rounds.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    stats::median(&rounds).expect("three rounds")
}

/// Per-request and per-token costs of the gateway path's public functions,
/// fed the workload's own request bytes.
fn path_costs(bodies: &[String], g: &mut Gates) -> Vec<Value> {
    let requests: Vec<Vec<u8>> = bodies.iter().map(|b| request_bytes(b)).collect();
    let parsed = requests.iter().all(|r| match HttpParser::new().feed(r) {
        Ok(Some(req)) => api::parse_completion(&req.body, MODELS as u32).is_ok(),
        _ => false,
    });
    g.gate("gateway path parses every request body", parsed, || {
        "a request failed to parse".into()
    });
    let http_ns = ns_per(requests.len(), |i| {
        black_box(HttpParser::new().feed(black_box(&requests[i])).ok());
    });
    let api_ns = ns_per(bodies.len(), |i| {
        black_box(api::parse_completion(black_box(bodies[i].as_bytes()), MODELS as u32).ok());
    });
    let toks = bodies.len() * MAX_TOKENS as usize;
    let tok = |i: usize| TokenEv {
        req: RequestId((i / MAX_TOKENS as usize) as u64),
        index: (i % MAX_TOKENS as usize) as u32,
        at: SimTime::from_nanos(i as u64 * 1_000_000),
        done: i % MAX_TOKENS as usize == MAX_TOKENS as usize - 1,
        prefix_hit: false,
    };
    let chunk = |i: usize| {
        let t = tok(i);
        api::completion_chunk(
            t.req.0,
            ModelId((t.req.0 % MODELS as u64) as u32),
            t.index,
            t.at.as_nanos(),
            t.done,
            t.prefix_hit,
        )
    };
    let chunk_ns = ns_per(toks, |i| {
        black_box(chunk(black_box(i)));
    });
    let chunks: Vec<String> = (0..MAX_TOKENS as usize).map(chunk).collect();
    let sse_ns = ns_per(toks, |i| {
        black_box(sse::event(black_box(&chunks[i % chunks.len()])));
    });
    let (prod, cons) = ring::ring::<TokenEv>(MAX_TOKENS as usize, RingTag::new(0, 0, 0));
    let ring_ns = ns_per(toks, |i| {
        let pushed = prod.push(black_box(tok(i))).is_ok();
        black_box((pushed, cons.pop()));
    });
    let frames: Vec<String> = chunks.iter().map(|c| sse::event(c)).collect();
    let mut queue = WriteQueue::new(256 * 1024);
    let mut sink = io::sink();
    let outbuf_ns = ns_per(toks, |i| {
        let pushed = queue.push(frames[i % frames.len()].as_bytes()).is_ok();
        black_box((pushed, queue.pump(&mut sink).ok()));
    });
    vec![
        Value::wall("gateway.http.parse_ns", http_ns),
        Value::wall("gateway.api.parse_ns", api_ns),
        Value::wall("gateway.api.chunk_ns", chunk_ns),
        Value::wall("gateway.sse.event_ns", sse_ns),
        Value::wall("gateway.ring.ns", ring_ns),
        Value::wall("gateway.outbuf.ns", outbuf_ns),
    ]
}

/// Runs the `gateway` workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let d = Deployment::new(opts.seconds);
    let bodies = bodies(opts.seed);

    // Set-up: Gateway::start until the first /healthz 200; the last
    // gateway started serves the timed phase.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for rep in 0..SETUP_REPS {
        match d.start() {
            Ok((gw, secs)) => {
                setup.push(secs);
                if rep + 1 == SETUP_REPS {
                    live = Some(gw);
                } else {
                    gw.shutdown();
                }
            }
            Err(e) => {
                out.gates
                    .gate("gateway starts and turns healthy", false, || e.to_string());
                return out;
            }
        }
    }
    let gw = live.expect("last set-up kept");
    let p = phase(&d, gw, Instant::now(), &bodies, opts, None);
    gate_phase(&mut out.gates, &d, &p);
    if let Some(f) = &p.load.first_failure {
        out.notes.push(format!("first failed stream: {f}"));
    }
    out.notes.push(format!(
        "{} streams completed, {} failed, {} clients, {:.2} s; live horizon {:.0} sim-s (hard stop {:.0} sim-s)",
        p.load.completed,
        p.load.failed,
        opts.nproc,
        p.load.wall_s,
        d.gw.live_horizon.as_secs_f64(),
        d.hard_stop_secs()
    ));

    let server_cpu = p.cpu.sim_s + p.cpu.io_s;
    let per_tok = |x: f64| x * 1e6 / p.load.tokens.max(1) as f64;
    let attainment = p.report.result.attainment(SloSpec::paper_default());
    let mut ttft = p.load.ttft_s.clone();
    out.e2e.push(Value::wall(
        "setup_s",
        stats::median(&setup).expect("set-ups ran"),
    ));
    out.e2e.push(Value::wall(
        "req_per_s",
        p.load.completed as f64 / p.load.wall_s,
    ));
    out.e2e
        .push(Value::wall("cpu_us_per_tok", per_tok(server_cpu)));
    out.e2e
        .push(Value::sim_live("slo_attainment", attainment.ratio()));
    out.e2e.extend(SimAcc::ttft_values(&mut ttft, true));

    if opts.traced {
        let epoch = Instant::now();
        let mut rec = Recorder::new(true, epoch, 0);
        let g = rec.begin("workload.gen", 0, SpanId::ROOT);
        let traced_bodies = black_box(self::bodies(opts.seed));
        rec.end(g);
        let traced = match d.start() {
            Ok((gw, _)) => phase(&d, gw, Instant::now(), &traced_bodies, opts, Some(epoch)),
            Err(e) => {
                out.gates
                    .gate("gateway starts and turns healthy", false, || e.to_string());
                return out;
            }
        };
        gate_phase(&mut out.gates, &d, &traced);
        // The simulation layer, replayed offline from the live trace.
        let (replayed, events) = replay(&d, &p.report, true, true, &mut rec);
        let a = rec.begin("metrics.attainment", 0, SpanId::ROOT);
        black_box(replayed.attainment(SloSpec::paper_default()));
        rec.end(a);
        out.spans = spans::merge(vec![rec.into_spans(), traced.load.spans]);
        out.layers.extend(sim::core_layers(&out.spans, events));

        let mut acc = SimAcc::default();
        acc.add(
            &p.report.result,
            &attainment,
            &p.report.trace,
            p.report.audit.as_ref(),
        );
        out.layers.extend(acc.layer_values(false));

        let mut off = Recorder::new(false, epoch, 0);
        let mut wall = |telemetry: bool, audit: bool| {
            let t = Instant::now();
            black_box(replay(&d, &p.report, telemetry, audit, &mut off));
            t.elapsed().as_secs_f64()
        };
        let (w_off, w_audit, w_tel) = (wall(false, false), wall(false, true), wall(true, false));
        out.layers.push(Value::wall(
            "observers.audit_tax_pct",
            (w_audit / w_off - 1.0) * 100.0,
        ));
        out.layers.push(Value::wall(
            "observers.telemetry_tax_pct",
            (w_tel / w_off - 1.0) * 100.0,
        ));
        out.layers
            .push(Value::sim("shard.window_overhead_pct", 0.0));

        let untraced_per = p.load.wall_s / p.load.completed.max(1) as f64;
        let traced_per = traced.load.wall_s / traced.load.completed.max(1) as f64;
        out.layers.push(Value::wall(
            "trace.overhead_pct",
            (traced_per / untraced_per - 1.0) * 100.0,
        ));

        let mut heads = p.load.head_s.clone();
        out.layers.push(Value::wall(
            "gateway.head_ms_p50",
            stats::percentile(&mut heads, 50.0).unwrap_or(0.0) * 1e3,
        ));
        out.layers.extend(path_costs(&bodies, &mut out.gates));
        out.layers.push(Value::wall(
            "gateway.sim_thread.cpu_us_per_tok",
            per_tok(p.cpu.sim_s),
        ));
        out.layers.push(Value::wall(
            "gateway.io_thread.cpu_us_per_tok",
            per_tok(p.cpu.io_s),
        ));
        out.layers.push(Value::wall(
            "gateway.ctx_switches_per_tok",
            p.cpu.ctx_switches as f64 / p.load.tokens.max(1) as f64,
        ));
        out.gates.gate(
            "/metrics scrape reports wall_clock_lag_secs",
            p.lag_s.is_some(),
            || "gauge missing or unreadable".into(),
        );
        out.layers
            .push(Value::wall("gateway.sim_lag_s", p.lag_s.unwrap_or(0.0)));
    }
    out
}
