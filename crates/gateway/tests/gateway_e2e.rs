//! End-to-end gateway tests over real sockets: SSE streaming in both
//! clock modes, live-vs-replay determinism, admission control, slow-reader
//! backpressure, and graceful drain (including under four-digit stream
//! counts). std-only — every client is `std::net`.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use aegaeon::session::ServingSession;
use aegaeon::AegaeonConfig;
use aegaeon_gateway::client::{request, SseStream};
use aegaeon_gateway::server::{Gateway, GatewayConfig, GatewayReport, STEP_SLICE};
use aegaeon_gateway::swarm::{Swarm, SwarmOptions};
use aegaeon_gateway::{sse, ClockMode};
use aegaeon_model::{ModelSpec, Zoo};
use aegaeon_sim::SimTime;
use aegaeon_workload::SessionId;
use serde_json::Value;

const RTT: Duration = Duration::from_secs(30);

fn cfg() -> AegaeonConfig {
    AegaeonConfig::small_testbed(1, 1)
}

fn models(n: usize) -> Vec<ModelSpec> {
    let zoo = Zoo::standard();
    Zoo::replicate(&zoo.market_band(), n)
}

fn start(mode: ClockMode, n_models: usize) -> Gateway {
    Gateway::start(&cfg(), &models(n_models), GatewayConfig::local(mode)).expect("gateway start")
}

/// Reads one full SSE completion: returns (token payloads, saw_done_frame).
fn consume_stream(stream: &mut SseStream) -> (Vec<String>, bool) {
    let mut chunks = Vec::new();
    let mut done = false;
    while let Ok(Some(data)) = stream.next_data() {
        if data == sse::DONE {
            done = true;
            break;
        }
        chunks.push(data);
    }
    (chunks, done)
}

/// `clients` closed-loop clients: each posts a completion, reads it to
/// `[DONE]` and posts the next, until `run` has passed. Returns the
/// number of streams completed.
fn closed_loop(addr: SocketAddr, clients: usize, run: Duration) -> usize {
    let deadline = Instant::now() + run;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut done = 0;
                    while Instant::now() < deadline {
                        let i = c + done * clients;
                        let body = format!(
                            r#"{{"model":"m{}","input_tokens":{},"max_tokens":{}}}"#,
                            i % 3,
                            4 + i % 7,
                            8 + i % 25
                        );
                        let mut s = SseStream::post(addr, "/v1/completions", &body, RTT).unwrap();
                        assert_eq!(s.status, 200);
                        let (_, fin) = consume_stream(&mut s);
                        assert!(fin, "stream {i} ended without [DONE]");
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    })
}

/// Replays the report's injected trace offline and asserts the live run's
/// fingerprint is reproduced.
fn assert_replays(report: &GatewayReport, n_models: usize, run: &str) {
    let mut replay = ServingSession::replay(&cfg(), &models(n_models), &report.trace);
    replay.step_until(SimTime::MAX);
    let (offline, _) = replay.finish();
    assert_eq!(
        report.result.fingerprint(),
        offline.fingerprint(),
        "{run} and offline replay must be indistinguishable"
    );
}

/// The value of the unlabeled sample `name` in a Prometheus scrape.
fn sample(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no `{name}` in:\n{text}"))
        .parse()
        .expect("numeric sample")
}

fn finish_reason(chunk: &str) -> Option<String> {
    let Ok(Value::Object(o)) = serde_json::from_str::<Value>(chunk) else {
        return None;
    };
    let Some(Value::Array(choices)) = o.get("choices") else {
        return None;
    };
    let Some(Value::Object(choice)) = choices.first() else {
        return None;
    };
    match choice.get("finish_reason") {
        Some(Value::String(s)) => Some(s.clone()),
        _ => None,
    }
}

#[test]
fn timewarp_gateway_streams_sse_end_to_end() {
    let gw = start(ClockMode::Timewarp(50.0), 2);
    let addr = gw.addr();

    let health = request(addr, "GET", "/healthz", None, RTT).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), "ok\n");

    let mut stream = SseStream::post(
        addr,
        "/v1/completions",
        r#"{"model":"m0","input_tokens":8,"max_tokens":5}"#,
        RTT,
    )
    .unwrap();
    assert_eq!(stream.status, 200);
    assert_eq!(
        stream.header("content-type").map(str::to_ascii_lowercase),
        Some("text/event-stream".to_string())
    );
    let (chunks, done) = consume_stream(&mut stream);
    assert_eq!(chunks.len(), 5, "one SSE frame per generated token");
    assert!(done, "stream must end with the [DONE] sentinel");
    assert_eq!(finish_reason(&chunks[4]).as_deref(), Some("stop"));
    for c in &chunks[..4] {
        assert_eq!(finish_reason(c), None);
    }

    let metrics = request(addr, "GET", "/metrics", None, RTT).unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .header("content-type")
        .unwrap()
        .starts_with("text/plain"));
    let text = metrics.text();
    assert!(text.contains("http_completions_requests"));
    assert!(text.contains("http_healthz_requests"));
    assert!(text.contains("wall_clock_lag_secs"));

    let report = gw.shutdown();
    assert_eq!(report.trace.requests.len(), 1);
    assert_eq!(report.result.completed, 1);
    let audit = report.audit.expect("auditor installed");
    assert!(audit.ok(), "violations: {:?}", audit.violations);
}

#[test]
fn realtime_gateway_streams_sse_at_wall_pace() {
    let gw = start(ClockMode::Realtime, 1);
    let addr = gw.addr();

    let wall_start = std::time::Instant::now();
    let mut stream = SseStream::post(
        addr,
        "/v1/completions",
        r#"{"model":"m0","input_tokens":4,"max_tokens":3}"#,
        RTT,
    )
    .unwrap();
    assert_eq!(stream.status, 200);
    let (chunks, done) = consume_stream(&mut stream);
    let wall = wall_start.elapsed();
    assert_eq!(chunks.len(), 3);
    assert!(done);

    let report = gw.shutdown();
    assert_eq!(report.result.completed, 1);
    // In realtime mode simulated token timestamps are honored on the wall
    // clock: the stream cannot complete faster than the simulated end of
    // the request (TTFT alone is ~0.5 simulated seconds on a cold start).
    let sim_done = report.result.end_time.as_secs_f64();
    assert!(
        wall.as_secs_f64() >= sim_done * 0.5,
        "realtime stream finished in {wall:?} but simulation ended at {sim_done:.3}s"
    );
}

/// The tentpole acceptance: a live timewarp run and an offline replay of
/// its recorded trace are fingerprint-identical.
#[test]
fn live_gateway_run_replays_fingerprint_identical() {
    let gw = start(ClockMode::Timewarp(200.0), 3);
    let addr = gw.addr();

    let mut streams = Vec::new();
    for i in 0..8 {
        let body = format!(
            r#"{{"model":"m{}","input_tokens":{},"max_tokens":{}}}"#,
            i % 3,
            4 + i,
            2 + i % 4
        );
        streams.push(SseStream::post(addr, "/v1/completions", &body, RTT).unwrap());
        // Stagger injections so arrivals land at distinct sim instants.
        std::thread::sleep(Duration::from_millis(15));
    }
    for mut s in streams {
        assert_eq!(s.status, 200);
        let (chunks, done) = consume_stream(&mut s);
        assert!(done);
        assert!(!chunks.is_empty());
    }

    let report = gw.shutdown();
    assert_eq!(report.trace.requests.len(), 8);
    assert_eq!(report.result.completed, 8);

    assert_replays(&report, 3, "live gateway run");
}

/// Agentic session fields posted over a socket reach the recorded trace as
/// posted, the prefix clamped to leave one fresh prompt token, and the run
/// replays. Each completion is read to `[DONE]` before the next is posted,
/// so the trace lists them in posting order.
#[test]
fn session_fields_reach_the_recorded_trace_as_posted() {
    // Each body with the (model, input, output, session, turn, prefix) the
    // trace must record for it.
    let posts = [
        (
            r#"{"model":"m0","input_tokens":12,"max_tokens":3}"#,
            (0, 12, 3, SessionId::NONE, 0, 0),
        ),
        (
            r#"{"model":"m1","input_tokens":20,"max_tokens":4,"session_id":7,"turn_index":0,"prefix_tokens":0}"#,
            (1, 20, 4, SessionId(7), 0, 0),
        ),
        (
            r#"{"model":"m1","input_tokens":40,"max_tokens":2,"session_id":7,"turn_index":1,"prefix_tokens":25}"#,
            (1, 40, 2, SessionId(7), 1, 25),
        ),
        (
            r#"{"model":"m0","input_tokens":10,"max_tokens":3,"session_id":"9","turn_index":2,"prefix_tokens":500}"#,
            (0, 10, 3, SessionId(9), 2, 9),
        ),
        (
            r#"{"model":"m1","input_tokens":60,"max_tokens":5,"session_id":7,"turn_index":2,"prefix_tokens":45}"#,
            (1, 60, 5, SessionId(7), 2, 45),
        ),
    ];
    let gw = start(ClockMode::Timewarp(200.0), 2);
    for (body, _) in &posts {
        let mut s = SseStream::post(gw.addr(), "/v1/completions", body, RTT).unwrap();
        assert_eq!(s.status, 200, "{body}");
        let (_, done) = consume_stream(&mut s);
        assert!(done, "{body}: stream ended without [DONE]");
    }
    let report = gw.shutdown();
    assert_eq!(report.trace.requests.len(), posts.len());
    assert_eq!(report.result.completed, posts.len());
    for (r, (body, want)) in report.trace.requests.iter().zip(&posts) {
        let got = (
            r.model.0,
            r.input_tokens,
            r.output_tokens,
            r.session,
            r.turn_index,
            r.prefix_tokens,
        );
        assert_eq!(got, *want, "{body}");
    }

    assert_replays(&report, 2, "live session-field run");
}

/// Live-vs-replay identity in the benchmark's regime: warp 1000 with
/// concurrent closed-loop clients, where the sim thread steps in wall
/// slices and stamps arrivals while its clock trails the wall target.
#[test]
fn warp_1000_concurrent_clients_replay_fingerprint_identical() {
    let gw = start(ClockMode::Timewarp(1000.0), 3);
    let streams = closed_loop(gw.addr(), 3, Duration::from_millis(500));
    let report = gw.shutdown();
    assert_eq!(report.trace.requests.len(), streams);
    assert_eq!(report.result.completed, streams);

    assert_replays(&report, 3, "live warp-1000 run");
}

/// The sim loop steps at most once per `STEP_SLICE` unless a control
/// message or a truncated chunk ends its wait, so every pass is paid for by
/// a slice of wall time, a ping (one per completion, at most one per
/// snapshot read, one at start-up) or a truncation.
#[test]
fn sim_wakes_are_bounded_by_slices_and_signals() {
    let started = Instant::now();
    let gw = start(ClockMode::Timewarp(1000.0), 3);
    let streams = closed_loop(gw.addr(), 2, Duration::from_secs(1));
    let text = request(gw.addr(), "GET", "/metrics", None, RTT)
        .unwrap()
        .text();
    let elapsed = started.elapsed();
    let wakes = sample(&text, "gateway_sim_wakes");
    let signals = [
        "http_completions_requests",
        "http_metrics_requests",
        "http_slo_requests",
        "gateway_sim_truncated_chunks",
    ]
    .map(|name| sample(&text, name));
    assert_eq!(signals[0], streams as f64);
    let slices = elapsed.as_secs_f64() / STEP_SLICE.as_secs_f64();
    let bound = slices + signals.iter().sum::<f64>() + 2.0;
    assert!(
        wakes > 0.0 && wakes <= bound,
        "{wakes} sim wakes in {elapsed:?} for {streams} streams; bound {bound:.0}"
    );
    gw.shutdown();
}

/// `wall_clock_lag_secs` measures how far the session trails its target,
/// not how long ago its last event ran: an idle gateway reports 0.
#[test]
fn idle_gateway_reports_zero_wall_clock_lag() {
    let gw = start(ClockMode::Timewarp(1000.0), 1);
    let addr = gw.addr();
    let mut stream = SseStream::post(
        addr,
        "/v1/completions",
        r#"{"model":"m0","input_tokens":8,"max_tokens":5}"#,
        RTT,
    )
    .unwrap();
    let (chunks, done) = consume_stream(&mut stream);
    assert!(done && chunks.len() == 5);
    for pause in [300, 700] {
        std::thread::sleep(Duration::from_millis(pause));
        let text = request(addr, "GET", "/metrics", None, RTT).unwrap().text();
        let lag = sample(&text, "wall_clock_lag_secs");
        assert_eq!(lag, 0.0, "idle for {pause} ms more, lag read {lag}");
    }
    gw.shutdown();
}

/// `GET /v1/slo` serves the observatory's JSON document — per-model
/// cumulative attainment, windowed quantiles, and the switch-cost ledger —
/// rendered by the sim thread, and `/metrics` carries the per-model
/// summaries next to it.
#[test]
fn slo_endpoint_reports_per_model_attainment() {
    let gw = start(ClockMode::Timewarp(100.0), 2);
    let addr = gw.addr();

    for i in 0..4 {
        let body = format!(
            r#"{{"model":"m{}","input_tokens":6,"max_tokens":4}}"#,
            i % 2
        );
        let mut s = SseStream::post(addr, "/v1/completions", &body, RTT).unwrap();
        assert_eq!(s.status, 200);
        let (_, done) = consume_stream(&mut s);
        assert!(done);
    }

    // First scrape may see a stale snapshot and nudges a re-render; the
    // second (past the refresh interval) must carry the retired requests.
    let _ = request(addr, "GET", "/v1/slo", None, RTT).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let slo = request(addr, "GET", "/v1/slo", None, RTT).unwrap();
    assert_eq!(slo.status, 200);
    assert!(slo
        .header("content-type")
        .unwrap()
        .starts_with("application/json"));
    let text = slo.text();
    assert!(text.contains("\"models\""), "missing models: {text}");
    assert!(text.contains("\"windows\""), "missing windows: {text}");
    assert!(text.contains("\"attribution\""), "missing ledger: {text}");
    assert!(
        text.contains("\"model\":\"m0\"") && text.contains("\"model\":\"m1\""),
        "both models must appear in the cumulative table: {text}"
    );

    let metrics = request(addr, "GET", "/metrics", None, RTT).unwrap().text();
    for needle in [
        "ttft_seconds{model=\"m0\",quantile=\"0.5\"} ",
        "tbt_seconds{model=\"m0\",quantile=\"0.99\"} ",
        "slo_attainment{model=\"m0\"} ",
        "metrics_snapshot_age_ms ",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
    }

    let report = gw.shutdown();
    assert_eq!(report.result.completed, 4);
}

/// The admission gate answers 429 + `Retry-After`, and the gateway's books
/// are exact the moment they are scraped: a `/metrics` request issued
/// right after the traffic, with no sleep, reads every health check and
/// every 429 the client saw, as does the shutdown report.
#[test]
fn admission_quota_rejects_with_retry_after_and_books_match() {
    // One total slot: a held stream forces every concurrent POST to bounce.
    // Keep the warp factor low and the held stream long so the slot stays
    // occupied for hundreds of wall milliseconds while the probes fire.
    let mut gw_cfg = GatewayConfig::local(ClockMode::Timewarp(4.0));
    gw_cfg.max_inflight = 1;
    let gw = Gateway::start(&cfg(), &models(1), gw_cfg).expect("gateway start");
    let addr = gw.addr();
    let health = || request(addr, "GET", "/healthz", None, RTT).unwrap().status;
    assert_eq!([health(), health(), health()], [200; 3]);

    // Occupy the single slot with a long-running stream...
    let mut holder = SseStream::post(
        addr,
        "/v1/completions",
        r#"{"model":"m0","input_tokens":8,"max_tokens":400}"#,
        RTT,
    )
    .unwrap();
    assert_eq!(holder.status, 200);
    // ...then observe that concurrent requests bounce with 429.
    let mut rejected = 0u64;
    for _ in 0..4 {
        let resp = request(
            addr,
            "POST",
            "/v1/completions",
            Some(r#"{"model":"m0","max_tokens":1}"#),
            RTT,
        )
        .unwrap();
        if resp.status == 429 {
            assert_eq!(resp.header("retry-after"), Some("1"));
            assert!(resp.text().contains("rate_limit_exceeded"));
            rejected += 1;
        }
    }
    assert!(rejected > 0, "at least one request must hit the quota");
    // The scrape counts itself.
    let text = request(addr, "GET", "/metrics", None, RTT).unwrap().text();
    for line in [
        "http_healthz_requests 3".to_string(),
        "http_metrics_requests 1".to_string(),
        format!("http_completions_requests {}", 5 - rejected),
        format!("gateway_rejected_requests {rejected}"),
    ] {
        let found = text.lines().any(|l| l == line);
        assert!(found, "missing `{line}` in:\n{text}");
    }
    let (_, done) = consume_stream(&mut holder);
    assert!(done);

    let report = gw.shutdown();
    assert_eq!(
        report.rejections, rejected,
        "client-observed 429s must equal the gateway's rejection book"
    );
    // Rejected requests never reach the simulation: every sent request is
    // either in the replayable trace or in the rejection book, never both.
    assert_eq!(report.trace.requests.len() as u64 + report.rejections, 5);
}

#[test]
fn graceful_drain_completes_inflight_streams() {
    let gw = start(ClockMode::Timewarp(20.0), 2);
    let addr = gw.addr();

    let mut stream = SseStream::post(
        addr,
        "/v1/completions",
        r#"{"model":"m1","input_tokens":16,"max_tokens":12}"#,
        RTT,
    )
    .unwrap();
    assert_eq!(stream.status, 200);

    // Shut down while the stream is (very likely) still in flight; the
    // drain fast-forwards the session so every admitted token flushes.
    let reader = std::thread::spawn(move || consume_stream(&mut stream));
    let report = gw.shutdown();
    let (chunks, done) = reader.join().unwrap();
    assert_eq!(chunks.len(), 12, "drain must flush the complete stream");
    assert!(done, "drained stream still ends with [DONE]");
    assert_eq!(report.result.completed, 1);

    // After shutdown the port is closed or refusing; new requests fail.
    let followup = request(
        addr,
        "POST",
        "/v1/completions",
        Some(r#"{"model":"m0","max_tokens":1}"#),
        Duration::from_secs(2),
    );
    match followup {
        Err(_) => {}
        Ok(resp) => assert_ne!(resp.status, 200),
    }
}

/// Backpressure contract: a client that stops reading mid-stream fills its
/// bounded output queue and is *dropped* — bounded buffering, a counted
/// drop, zero auditor violations — instead of buffering without bound.
#[test]
fn slow_reader_is_dropped_after_bounded_buffering() {
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;

    // Tiny app-level queue and a shrunken kernel send buffer so the
    // overflow trips within one request's token volume; the client also
    // clamps its receive buffer so the kernel cannot absorb the stream.
    let mut gw_cfg = GatewayConfig::local(ClockMode::Timewarp(100.0));
    gw_cfg.max_conn_buffer = 2 * 1024;
    gw_cfg.sock_sndbuf = Some(4 * 1024);
    let gw = Gateway::start(&cfg(), &models(1), gw_cfg).expect("gateway start");
    let addr = gw.addr();

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let _ = aegaeon_gateway::poll::shrink_socket_buffers(
        stream.as_raw_fd(),
        None,
        Some(4 * 1024),
    );
    let body = r#"{"model":"m0","input_tokens":8,"max_tokens":2000}"#;
    let req = format!(
        "POST /v1/completions HTTP/1.1\r\nHost: gw\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(req.as_bytes()).unwrap();
    // Read just the response head plus a frame or two, then stop reading
    // entirely — the kernel buffers fill, then the gateway's bounded queue
    // overflows, and the reactor drops us.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut first = [0u8; 1024];
    let n = stream.read(&mut first).unwrap();
    assert!(String::from_utf8_lossy(&first[..n]).starts_with("HTTP/1.1 200"));

    // The drop is observable in live metrics while the gateway keeps
    // serving other clients.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut dropped = false;
    while Instant::now() < deadline && !dropped {
        let metrics = request(addr, "GET", "/metrics", None, RTT).unwrap();
        assert_eq!(metrics.status, 200);
        dropped = metrics
            .text()
            .lines()
            .any(|l| l.starts_with("gateway_slow_drops") && l.ends_with(" 1"));
        if !dropped {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    assert!(dropped, "slow reader was never dropped");
    drop(stream);

    let report = gw.shutdown();
    assert_eq!(report.slow_drops, 1, "exactly one counted drop");
    // The request itself still completes inside the simulation (its sink
    // is gone, which is harmless), and no rejection was booked: drops and
    // 429s are distinct counters.
    assert_eq!(report.result.completed, 1);
    assert_eq!(report.rejections, 0);
    let audit = report.audit.expect("auditor installed");
    assert!(audit.ok(), "violations: {:?}", audit.violations);
}

/// Drain regression at four-digit concurrency: a shutdown issued with ≥1k
/// streams in flight must complete *every* stream — all tokens, all DONE
/// sentinels, all buffers flushed — and the drained run must still replay
/// fingerprint-identically.
#[test]
fn drain_under_load_completes_every_stream() {
    const N: usize = 1400;
    const TOKENS: u32 = 48;
    const MODELS: usize = 8;

    let mut gw_cfg = GatewayConfig::local(ClockMode::Timewarp(20.0));
    gw_cfg.max_inflight = 4096;
    let gw = Gateway::start(&cfg(), &models(MODELS), gw_cfg).expect("gateway start");
    let addr = gw.addr();

    // Open-loop: fire all N within ~1.2s of wall time, spread over eight
    // models thrashing the two-GPU testbed — the pooling-pressure regime
    // the paper targets. Completions cannot keep up with arrivals, so
    // in-flight concurrency climbs into the four digits.
    let window = Duration::from_millis(1200);
    let schedule: Vec<(Duration, String)> = (0..N)
        .map(|i| {
            (
                window.mul_f64(i as f64 / N as f64),
                format!(
                    r#"{{"model":"m{}","input_tokens":64,"max_tokens":{TOKENS}}}"#,
                    i % MODELS
                ),
            )
        })
        .collect();
    let swarm = Swarm::launch(addr, schedule, SwarmOptions::default()).expect("swarm launch");

    // Trigger the drain once every request has been admitted (the gateway
    // sent its SSE head) and ≥1k streams are still mid-flight. Waiting for
    // full admission keeps the contract crisp: every admitted stream must
    // complete, with no post-drain 503s muddying the count.
    let deadline = Instant::now() + Duration::from_secs(60);
    while swarm.gauges().responded() < N || swarm.gauges().open() < 1000 {
        assert!(
            Instant::now() < deadline,
            "never reached full admission at 1k concurrency \
             (open={}, fired={}, responded={}, finished={})",
            swarm.gauges().open(),
            swarm.gauges().fired(),
            swarm.gauges().responded(),
            swarm.gauges().finished()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = gw.shutdown();
    let samples = swarm.join();

    assert!(
        samples.iter().filter(|s| s.status == 200).count() >= 1000,
        "expected ≥1k accepted streams"
    );
    for (i, s) in samples.iter().enumerate() {
        assert_eq!(s.status, 200, "stream {i} failed: {s:?}");
        assert!(s.done, "stream {i} lost its DONE sentinel: {s:?}");
        assert_eq!(s.tokens, TOKENS, "stream {i} dropped tokens: {s:?}");
    }
    assert_eq!(report.result.completed, N);
    assert_eq!(report.slow_drops, 0);
    assert_eq!(report.rejections, 0);
    let audit = report.audit.as_ref().expect("auditor installed");
    assert!(audit.ok(), "violations: {:?}", audit.violations);

    // The reactor path preserves replay identity at four-digit scale.
    assert_replays(&report, MODELS, "drained live run");
}

/// Tentpole acceptance for the multi-reactor I/O plane, in-process: four
/// `SO_REUSEPORT` reactors share one port under three-digit concurrency,
/// every reactor's connections drain to completion at shutdown, the
/// labeled per-reactor gauges appear in `/metrics`, and the run still
/// replays fingerprint-identically — reactor count is an I/O-plane knob,
/// never a simulation input.
#[test]
#[cfg(target_os = "linux")]
fn four_reactor_drain_under_load_is_fingerprint_identical() {
    const N: usize = 600;
    const TOKENS: u32 = 24;
    const MODELS: usize = 6;
    const REACTORS: usize = 4;

    let mut gw_cfg = GatewayConfig::local(ClockMode::Timewarp(20.0));
    gw_cfg.max_inflight = 4096;
    gw_cfg.reactors = REACTORS;
    let gw = Gateway::start(&cfg(), &models(MODELS), gw_cfg).expect("gateway start");
    let addr = gw.addr();

    let window = Duration::from_millis(900);
    let schedule: Vec<(Duration, String)> = (0..N)
        .map(|i| {
            (
                window.mul_f64(i as f64 / N as f64),
                format!(
                    r#"{{"model":"m{}","input_tokens":48,"max_tokens":{TOKENS}}}"#,
                    i % MODELS
                ),
            )
        })
        .collect();
    let swarm = Swarm::launch(addr, schedule, SwarmOptions::default()).expect("swarm launch");

    // Wait for full admission with a few hundred streams still open, then
    // check the observability satellite: every reactor's labeled gauges
    // are present in one scrape.
    let deadline = Instant::now() + Duration::from_secs(60);
    while swarm.gauges().responded() < N || swarm.gauges().open() < 300 {
        assert!(
            Instant::now() < deadline,
            "never reached full admission at 300 concurrency \
             (open={}, responded={}, finished={})",
            swarm.gauges().open(),
            swarm.gauges().responded(),
            swarm.gauges().finished()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let metrics = request(addr, "GET", "/metrics", None, RTT).unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    for r in 0..REACTORS {
        for gauge in ["reactor_registered_fds", "reactor_ready_depth", "reactor_peak_streams"] {
            assert!(
                text.contains(&format!("{gauge}{{reactor=\"{r}\"}}")),
                "missing {gauge} for reactor {r} in:\n{text}"
            );
        }
        assert!(
            text.contains(&format!("gateway_accept_errors{{reactor=\"{r}\"}} 0")),
            "missing a zero accept-error count for reactor {r} in:\n{text}"
        );
    }

    // Drain with streams in flight on every reactor.
    let report = gw.shutdown();
    let samples = swarm.join();
    for (i, s) in samples.iter().enumerate() {
        assert_eq!(s.status, 200, "stream {i} failed: {s:?}");
        assert!(s.done, "stream {i} lost its DONE sentinel: {s:?}");
        assert_eq!(s.tokens, TOKENS, "stream {i} dropped tokens: {s:?}");
    }
    assert_eq!(report.result.completed, N);
    assert_eq!(report.slow_drops, 0);
    assert_eq!(report.accept_errors, [0; REACTORS]);
    let audit = report.audit.as_ref().expect("auditor installed");
    assert!(audit.ok(), "violations: {:?}", audit.violations);

    // The kernel sharded accepts across the group: with 600 connections
    // over 4 listeners every reactor must have seen some (the hash spread
    // is not exactly even, but zero on a reactor means the group broke).
    assert_eq!(report.per_reactor_peak.len(), REACTORS);
    assert!(
        report.per_reactor_peak.iter().all(|&p| p > 0),
        "a reactor accepted nothing: {:?}",
        report.per_reactor_peak
    );

    assert_replays(&report, MODELS, "4-reactor live run");
}

/// The full deployment shape: the `gateway` binary with four reactors and
/// an active chaos plan, driven over real sockets, drained by a real
/// SIGTERM — then its recorded trace replayed in-process. The subprocess's
/// reported fingerprint and the offline replay's must match, and the
/// process must exit 0 (its own audit gate).
#[test]
#[cfg(target_os = "linux")]
fn gateway_binary_sigterm_drain_replays_fingerprint_identical() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    const MODELS: usize = 4;
    const SEED: u64 = 7;
    const CHAOS: &str = "cp=0.002;cd=0.002;stall=0.02:1";

    let dir = std::env::temp_dir().join(format!("gw_sigterm_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report_path = dir.join("report.json");
    let trace_path = dir.join("trace.json");

    let mut child = Command::new(env!("CARGO_BIN_EXE_gateway"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--mode",
            "timewarp",
            "--factor",
            "100",
            "--models",
            "4",
            "--seed",
            "7",
            "--reactors",
            "4",
            "--max-inflight",
            "4096",
            "--chaos",
            CHAOS,
        ])
        .arg("--report-out")
        .arg(&report_path)
        .arg("--trace-out")
        .arg(&trace_path)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gateway binary");

    // The binary logs its bound address on stderr; keep draining the pipe
    // afterwards so the child never blocks on it.
    let stderr = BufReader::new(child.stderr.take().unwrap());
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let logger = std::thread::spawn(move || {
        let mut log = String::new();
        for line in stderr.lines() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.split("http://").nth(1) {
                let _ = addr_tx.send(rest.split_whitespace().next().unwrap().to_string());
            }
            log.push_str(&line);
            log.push('\n');
        }
        log
    });
    let addr: std::net::SocketAddr = addr_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("gateway never logged its address")
        .parse()
        .unwrap();

    // Drive real traffic at the subprocess across its models.
    let mut streams = Vec::new();
    for i in 0..24 {
        let body = format!(
            r#"{{"model":"m{}","input_tokens":{},"max_tokens":{}}}"#,
            i % MODELS,
            8 + i,
            2 + i % 5
        );
        streams.push(SseStream::post(addr, "/v1/completions", &body, RTT).unwrap());
        std::thread::sleep(Duration::from_millis(5));
    }
    // SIGTERM while the tail of the batch is still streaming: the drain
    // must still complete every admitted stream.
    assert_eq!(unsafe { kill(child.id() as i32, SIGTERM) }, 0);
    for mut s in streams {
        assert_eq!(s.status, 200);
        let (chunks, done) = consume_stream(&mut s);
        assert!(done, "drained subprocess stream lost its DONE sentinel");
        assert!(!chunks.is_empty());
    }

    let status = child.wait().expect("wait on gateway binary");
    let log = logger.join().unwrap();
    assert!(
        status.success(),
        "gateway binary exited {status:?} (audit gate); log:\n{log}"
    );

    // The subprocess's own report: 4 reactors, audit clean.
    let report_text = std::fs::read_to_string(&report_path).unwrap();
    let Ok(Value::Object(report)) = serde_json::from_str::<Value>(&report_text) else {
        panic!("unparseable report: {report_text}");
    };
    let field = |name: &str| -> u64 {
        match report.get(name) {
            Some(Value::U64(n)) => *n,
            other => panic!("report field {name} = {other:?} in: {report_text}"),
        }
    };
    assert_eq!(field("reactors"), 4, "report: {report_text}");
    assert_eq!(field("audit_violations"), 0, "report: {report_text}");
    assert_eq!(field("requests"), 24, "report: {report_text}");
    let Some(Value::String(fp)) = report.get("fingerprint") else {
        panic!("report missing fingerprint: {report_text}");
    };
    let live_fp = u64::from_str_radix(fp.trim_start_matches("0x"), 16).unwrap();

    // Replay the recorded trace in-process under the identical config
    // (seed, chaos plan, testbed, models) — 4 live reactors must be
    // indistinguishable from a reactor-free offline run.
    let trace = aegaeon_workload::Trace::from_json(
        &std::fs::read_to_string(&trace_path).unwrap(),
    )
    .unwrap();
    let mut replay_cfg = cfg();
    replay_cfg.seed = SEED;
    replay_cfg.faults = CHAOS.parse().expect("chaos plan parses");
    let mut replay = ServingSession::replay(&replay_cfg, &models(MODELS), &trace);
    replay.step_until(SimTime::MAX);
    let (offline, _) = replay.finish();
    assert_eq!(
        live_fp,
        offline.fingerprint(),
        "SIGTERM-drained 4-reactor binary and offline replay must be indistinguishable"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_routes_methods_and_bodies_get_clean_errors() {
    let gw = start(ClockMode::Timewarp(100.0), 1);
    let addr = gw.addr();

    let resp = request(addr, "GET", "/nope", None, RTT).unwrap();
    assert_eq!(resp.status, 404);
    let resp = request(addr, "DELETE", "/healthz", None, RTT).unwrap();
    assert_eq!(resp.status, 405);
    let resp = request(addr, "POST", "/v1/completions", Some("not json"), RTT).unwrap();
    assert_eq!(resp.status, 400);
    let resp = request(
        addr,
        "POST",
        "/v1/completions",
        Some(r#"{"model":"m99"}"#),
        RTT,
    )
    .unwrap();
    assert_eq!(resp.status, 404);

    let report = gw.shutdown();
    assert_eq!(report.trace.requests.len(), 0);
}
