//! Open-loop soak harness for the live serving gateway.
//!
//! Generates a multi-model arrival schedule with the standard workload
//! synthesizer, compresses it onto the wall clock with
//! [`Trace::time_scaled`](aegaeon_workload::Trace::time_scaled), and
//! fires each request at its scheduled wall instant regardless of
//! completions (open-system load, the paper's §7
//! methodology — closed-loop clients understate tail latency). Each
//! request is a real `POST /v1/completions`; the SSE stream is consumed
//! frame by frame to timestamp first and subsequent tokens.
//!
//! Load is driven by the [`Swarm`]: a small
//! connector pool fires requests off a shared cursor and one reactor
//! thread reads every live stream, so tens of thousands of streams can be
//! simultaneously open from a handful of threads. The harness is honest
//! about its own limits and **gates on them**:
//!
//! * `--max-lag-ticks T` (default 1.0): exit 3 when the worst firing lag
//!   exceeds `T` timewarped ticks (`T / warp` wall-seconds) — a late
//!   generator means the measured tail is the client's fault, so the run
//!   is not allowed to pass.
//! * `--min-concurrent N`: exit 4 when peak simultaneously open streams
//!   never reached `N` — a soak that never achieved its concurrency
//!   target proved nothing.
//! * Any failed stream (connect error, non-200/429 status, reset) exits 1.
//!
//! ```text
//! gateway_bench [--addr HOST:PORT[,HOST:PORT...]] [--models N] [--rps R]
//!               [--secs S] [--warp K] [--cap-tokens N] [--seed S]
//!               [--connectors N] [--reactors N|auto] [--prefill N]
//!               [--decode N] [--max-inflight N] [--chaos PLAN]
//!               [--min-concurrent N] [--max-lag-ticks T] [--out FILE]
//! ```
//!
//! With `--addr`, drives an externally started gateway (two-process mode:
//! the client's 10k+ stream fds and the server's live in one fd budget
//! each); otherwise boots an in-process gateway in timewarp mode and
//! drives that. `--addr` accepts a comma-separated list: a single
//! client→server address pair caps out at the ephemeral-port range (~28k
//! concurrent streams), so 100k-class soaks list several loopback aliases
//! of a gateway bound to `0.0.0.0` (round-robined per request). Writes
//! `BENCH_gateway_throughput.json` at the repository root (or `--out`),
//! including the generator's own peak fd count, peak RSS, the host's core
//! count, and the per-reactor peak-stream balance scraped from the
//! gateway's `/metrics` — so resource and sharding claims are part of the
//! artifact.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use aegaeon::AegaeonConfig;
use aegaeon_bench::analyze::Analysis;
use aegaeon_bench::{banner, market_models, uniform_trace, SEED};
use aegaeon_gateway::server::{Gateway, GatewayConfig};
use aegaeon_gateway::swarm::{StreamSample, Swarm, SwarmOptions};
use aegaeon_gateway::ClockMode;
use aegaeon_telemetry::QuantileSketch;
use aegaeon_workload::LengthDist;

/// Relative accuracy of the client-side latency sketches (matches the
/// server-side observatory, so client and server quantiles are comparable).
const SKETCH_ALPHA: f64 = 0.01;

struct Args {
    addr: Option<String>,
    models: usize,
    rps: f64,
    secs: f64,
    warp: f64,
    cap_tokens: u32,
    seed: u64,
    connectors: usize,
    prefill: usize,
    decode: usize,
    max_inflight: u32,
    chaos: Option<String>,
    min_concurrent: usize,
    max_lag_ticks: f64,
    out: Option<String>,
    reactors: usize,
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        models: 4,
        rps: 1.0,
        secs: 40.0,
        warp: 20.0,
        cap_tokens: 16,
        seed: SEED,
        connectors: host_parallelism(),
        prefill: 1,
        decode: 1,
        max_inflight: 1024,
        chaos: None,
        min_concurrent: 0,
        max_lag_ticks: 1.0,
        out: None,
        reactors: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        fn num<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("{name}: {e}"))
        }
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--models" => args.models = num("--models", value("--models")?)?,
            "--rps" => args.rps = num("--rps", value("--rps")?)?,
            "--secs" => args.secs = num("--secs", value("--secs")?)?,
            "--warp" => args.warp = num("--warp", value("--warp")?)?,
            "--cap-tokens" => args.cap_tokens = num("--cap-tokens", value("--cap-tokens")?)?,
            "--seed" => args.seed = num("--seed", value("--seed")?)?,
            // Back-compat alias: the old thread-per-stream harness called
            // its pool size --clients.
            "--connectors" | "--clients" => {
                args.connectors = num("--connectors", value("--connectors")?)?
            }
            "--prefill" => args.prefill = num("--prefill", value("--prefill")?)?,
            "--decode" => args.decode = num("--decode", value("--decode")?)?,
            "--max-inflight" => args.max_inflight = num("--max-inflight", value("--max-inflight")?)?,
            "--chaos" => args.chaos = Some(value("--chaos")?),
            "--min-concurrent" => {
                args.min_concurrent = num("--min-concurrent", value("--min-concurrent")?)?
            }
            "--max-lag-ticks" => {
                args.max_lag_ticks = num("--max-lag-ticks", value("--max-lag-ticks")?)?
            }
            "--out" => args.out = Some(value("--out")?),
            // Reactor count for the in-process gateway (ignored with --addr;
            // there the external gateway picks its own).
            "--reactors" => {
                let v = value("--reactors")?;
                args.reactors = if v == "auto" {
                    host_parallelism()
                } else {
                    num("--reactors", v)?
                };
                if args.reactors == 0 {
                    return Err("--reactors must be >= 1".to_string());
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Sorted-vector percentile: the exact oracle the sketch-based path is
/// tested against (rank convention matches [`QuantileSketch::quantile`]).
#[cfg(test)]
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).floor() as usize;
    sorted[idx]
}

/// Folds an iterator of seconds into a quantile sketch. Replaces the old
/// sort-the-whole-vector percentile path: memory is O(buckets) instead of
/// O(streams), and per-connector sketches could be merged exactly.
fn sketch_of(vals: impl Iterator<Item = f64>) -> QuantileSketch {
    let mut s = QuantileSketch::new(SKETCH_ALPHA);
    for v in vals {
        s.insert(v);
    }
    s
}

/// Open fds of this process right now (Linux; 0 elsewhere).
fn current_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count())
}

/// One blocking HTTP GET against the gateway; whole response text (headers
/// included) on success.
fn http_get(addr: SocketAddr, path: &str) -> Option<String> {
    (|| -> std::io::Result<String> {
        let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        s.write_all(
            format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
        )?;
        let mut text = String::new();
        s.read_to_string(&mut text)?;
        Ok(text)
    })()
    .ok()
}

/// Body of one HTTP GET (everything after the header terminator).
fn http_get_body(addr: SocketAddr, path: &str) -> Option<String> {
    let text = http_get(addr, path)?;
    let at = text.find("\r\n\r\n")?;
    Some(text[at + 4..].to_string())
}

/// `reactor_peak_streams{reactor="i"}` gauges out of a `/metrics` body, in
/// reactor order. Empty when absent (the balance then reports as
/// unavailable rather than failing the soak).
fn parse_reactor_peaks(text: &str) -> Vec<u64> {
    let mut peaks: Vec<(usize, u64)> = text
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("reactor_peak_streams{reactor=\"")?;
            let (id, rest) = rest.split_once("\"}")?;
            Some((id.parse().ok()?, rest.trim().parse().ok()?))
        })
        .collect();
    peaks.sort_by_key(|(id, _)| *id);
    peaks.into_iter().map(|(_, v)| v).collect()
}

/// Per-model SLO evidence scraped from the gateway's `/metrics` summaries:
/// `(model, slo_attainment, ttft p50/p90/p99, tbt p50/p90/p99)`, in model
/// order. Models with no completed requests report NaN quantiles.
fn scrape_per_model_slo(text: &str, n_models: usize) -> Vec<(String, f64, [f64; 3], [f64; 3])> {
    fn quantile_line(text: &str, fam: &str, model: &str, q: &str) -> f64 {
        let prefix = format!("{fam}{{model=\"{model}\",quantile=\"{q}\"}} ");
        text.lines()
            .find_map(|l| l.strip_prefix(prefix.as_str()))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(f64::NAN)
    }
    (0..n_models)
        .map(|m| {
            let model = format!("m{m}");
            let attain = {
                let prefix = format!("slo_attainment{{model=\"{model}\"}} ");
                text.lines()
                    .find_map(|l| l.strip_prefix(prefix.as_str()))
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(f64::NAN)
            };
            let q3 = |fam: &str| {
                ["0.5", "0.9", "0.99"].map(|q| quantile_line(text, fam, &model, q))
            };
            let (ttft, tbt) = (q3("ttft_seconds"), q3("tbt_seconds"));
            (model, attain, ttft, tbt)
        })
        .collect()
}

/// Peak resident set of this process in bytes (Linux VmHWM; 0 elsewhere).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gateway_bench: {e}");
            std::process::exit(2);
        }
    };
    banner("gateway_bench", "open-loop soak against the live gateway");

    // The arrival schedule: a standard synthesized trace, compressed onto
    // the wall clock so `--secs` of simulated traffic plays out in
    // `--secs / --warp` wall seconds.
    let trace = uniform_trace(args.models, args.rps, args.secs, args.seed, LengthDist::sharegpt());
    let wall_plan = trace.time_scaled(args.warp);
    let n = wall_plan.requests.len();
    if n == 0 {
        eprintln!("gateway_bench: empty schedule (raise --rps or --secs)");
        std::process::exit(2);
    }

    // Self-host unless an external gateway was given. `--addr` may list
    // several destinations (loopback aliases of one gateway) to widen the
    // 4-tuple space past one ephemeral-port range.
    let (addrs, hosted): (Vec<SocketAddr>, _) = match &args.addr {
        Some(a) => (
            a.split(',')
                .map(|s| s.trim().parse().expect("--addr must be HOST:PORT[,HOST:PORT...]"))
                .collect(),
            None,
        ),
        None => {
            let mut cfg = AegaeonConfig::small_testbed(args.prefill, args.decode);
            cfg.seed = args.seed;
            if let Some(plan) = &args.chaos {
                cfg.faults = match plan.parse() {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("gateway_bench: --chaos: {e}");
                        std::process::exit(2);
                    }
                };
            }
            let models = market_models(args.models);
            let mut gw_cfg = GatewayConfig::local(ClockMode::Timewarp(args.warp));
            gw_cfg.max_inflight = args.max_inflight;
            gw_cfg.reactors = args.reactors;
            let gw = Gateway::start(&cfg, &models, gw_cfg).expect("start in-process gateway");
            (vec![gw.addr()], Some(gw))
        }
    };
    println!(
        "driving {} requests over {:.1}s wall ({} models, offered {:.2} rps/model sim, warp {}x) -> {:?}",
        n,
        args.secs / args.warp,
        args.models,
        args.rps,
        args.warp,
        addrs
    );

    // Pre-render the schedule (time-ordered: the synthesizer emits sorted
    // arrivals and time scaling preserves order).
    let schedule: Vec<(Duration, String)> = wall_plan
        .requests
        .iter()
        .map(|r| {
            let body = format!(
                r#"{{"model":"m{}","input_tokens":{},"max_tokens":{}}}"#,
                r.model.0,
                r.input_tokens.max(1),
                r.output_tokens.clamp(1, args.cap_tokens)
            );
            (Duration::from_nanos(r.arrival_ns), body)
        })
        .collect();

    let started = Instant::now();
    let opts = SwarmOptions {
        connectors: args.connectors.max(1),
        ..SwarmOptions::default()
    };
    let connectors = opts.connectors;
    let swarm = Swarm::launch_multi(addrs.clone(), schedule, opts).expect("launch swarm");

    // Progress + resource high-water loop until every stream resolves.
    // The per-reactor peak gauges and the SLO observatory snapshots are
    // scraped *during* the run — in two-process mode the gateway may exit
    // (SIGTERM + drain) before the last stream is accounted here; gauges
    // are monotone and the observatory is cumulative, so the last
    // successful scrape is the honest value.
    let mut peak_fds = current_fds();
    let mut last_print = Instant::now();
    let mut reactor_peaks: Vec<u64> = Vec::new();
    let mut metrics_text = String::new();
    let mut slo_doc = String::new();
    let mut last_scrape = Instant::now();
    while swarm.gauges().finished() < n {
        std::thread::sleep(Duration::from_millis(100));
        peak_fds = peak_fds.max(current_fds());
        if last_scrape.elapsed() >= Duration::from_secs(1) {
            if let Some(text) = http_get_body(addrs[0], "/metrics") {
                let scraped = parse_reactor_peaks(&text);
                if !scraped.is_empty() {
                    reactor_peaks = scraped;
                }
                metrics_text = text;
            }
            if let Some(doc) = http_get_body(addrs[0], "/v1/slo") {
                slo_doc = doc;
            }
            last_scrape = Instant::now();
        }
        if last_print.elapsed() >= Duration::from_secs(2) {
            let g = swarm.gauges();
            println!(
                "  t={:6.1}s fired {}/{} open {} (peak {}) finished {} lag {:.3}s fds {}",
                started.elapsed().as_secs_f64(),
                g.fired(),
                n,
                g.open(),
                g.peak_open(),
                g.finished(),
                g.max_fire_lag().as_secs_f64(),
                peak_fds,
            );
            last_print = Instant::now();
        }
    }
    let peak_open = swarm.gauges().peak_open();
    let max_fire_lag = swarm.gauges().max_fire_lag().as_secs_f64();
    let samples: Vec<StreamSample> = swarm.join();
    let wall_secs = started.elapsed().as_secs_f64();
    let rss = peak_rss_bytes();
    // Accept-sharding + SLO evidence: prefer a final scrape (the gateway
    // may still be up, e.g. in-process mode), else the last mid-run scrape.
    // The per-model summaries come from the sim thread's snapshot: the
    // first fetch pings a stale one into a re-render, and the retry one
    // refresh interval later reads it.
    let _ = http_get(addrs[0], "/metrics");
    std::thread::sleep(Duration::from_millis(300));
    if let Some(text) = http_get_body(addrs[0], "/metrics") {
        let scraped = parse_reactor_peaks(&text);
        if !scraped.is_empty() {
            reactor_peaks = scraped;
        }
        metrics_text = text;
    }
    if let Some(doc) = http_get_body(addrs[0], "/v1/slo") {
        slo_doc = doc;
    }
    let per_model = scrape_per_model_slo(&metrics_text, args.models);
    let balance = match (
        reactor_peaks.iter().copied().max(),
        reactor_peaks.iter().copied().min(),
    ) {
        (Some(max), Some(min)) if min > 0 => max as f64 / min as f64,
        _ => 0.0,
    };

    // Outcome taxonomy: `dropped` streams got a 200 head but no [DONE] —
    // the server's slow-reader backpressure (or a truncation fault) cut
    // them; they are *accounted*, not failures of the harness contract.
    let completed = samples
        .iter()
        .filter(|s| s.status == 200 && s.done && !s.io_error)
        .count();
    let rejected = samples.iter().filter(|s| s.status == 429).count();
    let dropped = samples
        .iter()
        .filter(|s| s.status == 200 && (!s.done || s.io_error))
        .count();
    let failed = n - completed - rejected - dropped;
    let total_tokens: u64 = samples.iter().map(|s| s.tokens as u64).sum();
    let ttfts = sketch_of(samples.iter().filter_map(|s| s.ttft.map(|d| d.as_secs_f64())));
    let tbts = sketch_of(
        samples
            .iter()
            .flat_map(|s| s.tbts.iter().map(|d| d.as_secs_f64())),
    );

    let offered_rps = n as f64 / wall_secs;
    let goodput = total_tokens as f64 / wall_secs;
    // One timewarped tick = one simulated second on the wall clock.
    let lag_limit = args.max_lag_ticks / args.warp.max(f64::MIN_POSITIVE);
    println!("\nresults over {wall_secs:.2}s wall:");
    println!("  offered   : {n} requests ({offered_rps:.2} rps wall, {connectors} connectors)");
    println!("  concurrent: peak {peak_open} streams open at once");
    println!("  fire lag  : worst {max_fire_lag:.4}s behind schedule (gate {lag_limit:.4}s)");
    println!(
        "  completed : {completed}   rejected(429): {rejected}   dropped: {dropped}   failed: {failed}"
    );
    println!("  goodput   : {goodput:.1} tokens/s ({total_tokens} tokens)");
    println!(
        "  TTFT      : p50 {:.3}s  p90 {:.3}s  p99 {:.3}s",
        ttfts.quantile(0.50),
        ttfts.quantile(0.90),
        ttfts.quantile(0.99)
    );
    println!(
        "  TBT       : p50 {:.3}s  p90 {:.3}s  p99 {:.3}s",
        tbts.quantile(0.50),
        tbts.quantile(0.90),
        tbts.quantile(0.99)
    );
    for (model, attain, ttft, tbt) in &per_model {
        println!(
            "  {model:<9} : attain {attain:.4}  ttft p50/p90/p99 {:.3}/{:.3}/{:.3}s  \
             tbt {:.3}/{:.3}/{:.3}s",
            ttft[0], ttft[1], ttft[2], tbt[0], tbt[1], tbt[2]
        );
    }
    println!(
        "  client    : peak {} fds, peak RSS {:.1} MiB",
        peak_fds,
        rss as f64 / (1024.0 * 1024.0)
    );
    println!(
        "  reactors  : {} peaks {:?} balance(max/min) {:.3}",
        reactor_peaks.len(),
        reactor_peaks,
        balance
    );

    if let Some(gw) = hosted {
        let report = gw.shutdown();
        println!(
            "  gateway   : admitted {} completed {} slow_drops {} rejections {}",
            report.trace.requests.len(),
            report.result.completed,
            report.slow_drops,
            report.rejections
        );
        let audit = report.audit.expect("the gateway always audits");
        assert!(audit.ok(), "audit violations: {:?}", audit.violations);
    }

    let json = serde_json::json!({
        "offered_requests": n as u64,
        "offered_rps_wall": offered_rps,
        "wall_secs": wall_secs,
        "warp": args.warp,
        "connectors": connectors as u64,
        "max_fire_lag_secs": max_fire_lag,
        "fire_lag_gate_secs": lag_limit,
        "peak_concurrent_streams": peak_open as u64,
        "min_concurrent_gate": args.min_concurrent as u64,
        "completed": completed as u64,
        "rejected": rejected as u64,
        "dropped": dropped as u64,
        "failed": failed as u64,
        "total_tokens": total_tokens,
        "goodput_tokens_per_sec": goodput,
        "peak_client_fds": peak_fds as u64,
        "peak_client_rss_bytes": rss,
        "host_parallelism": host_parallelism() as u64,
        "reactors": reactor_peaks.len() as u64,
        "per_reactor_peak_streams": reactor_peaks,
        "reactor_balance_max_over_min": balance,
        "ttft_secs": serde_json::json!({
            "p50": ttfts.quantile(0.50),
            "p90": ttfts.quantile(0.90),
            "p99": ttfts.quantile(0.99),
        }),
        "tbt_secs": serde_json::json!({
            "p50": tbts.quantile(0.50),
            "p90": tbts.quantile(0.90),
            "p99": tbts.quantile(0.99),
        }),
        "per_model_slo": per_model
            .iter()
            .map(|(model, attain, ttft, tbt)| {
                serde_json::json!({
                    "model": model.clone(),
                    "slo_attainment": *attain,
                    "ttft_p50": ttft[0],
                    "ttft_p90": ttft[1],
                    "ttft_p99": ttft[2],
                    "tbt_p50": tbt[0],
                    "tbt_p90": tbt[1],
                    "tbt_p99": tbt[2],
                })
            })
            .collect::<Vec<serde_json::Value>>(),
    });
    let default_path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gateway_throughput.json").to_string();
    let path = args.out.unwrap_or(default_path);
    match serde_json::to_string_pretty(&json) {
        Ok(s) => {
            std::fs::write(&path, s + "\n").expect("write bench report");
            println!("\n[json] {path}");
        }
        Err(e) => eprintln!("failed to serialize report: {e}"),
    }

    // Combined server+client report: the scraped /v1/slo document plus this
    // bench's own numbers, through the same analyzer CI runs post-hoc. The
    // raw document is kept next to the report so `aegaeon-analyze --check`
    // can re-verify it offline.
    if !slo_doc.is_empty() {
        let slo_path = format!("{path}.slo.json");
        match std::fs::write(&slo_path, &slo_doc) {
            Ok(()) => println!("[slo] {slo_path}"),
            Err(e) => eprintln!("[slo] failed to write {slo_path}: {e}"),
        }
        match Analysis::from_slo_text(&slo_doc) {
            Ok(a) => {
                let a = a.with_bench_value(&json);
                let md_path = format!("{path}.slo.md");
                match std::fs::write(&md_path, a.to_markdown()) {
                    Ok(()) => println!("[slo] {md_path}"),
                    Err(e) => eprintln!("[slo] failed to write {md_path}: {e}"),
                }
                for e in a.consistency_errors() {
                    eprintln!("[consistency] {e}");
                }
            }
            Err(e) => eprintln!("[slo] failed to parse /v1/slo body: {e}"),
        }
    }

    // Honesty gates, in blame order: a late generator invalidates the
    // measurement entirely; a missed concurrency target means the soak
    // proved nothing; failed streams are a server defect.
    if max_fire_lag > lag_limit {
        eprintln!(
            "gateway_bench: FAIL: fire lag {max_fire_lag:.4}s exceeds one timewarped tick \
             ({lag_limit:.4}s) — the load generator fell behind its own schedule"
        );
        std::process::exit(3);
    }
    if peak_open < args.min_concurrent {
        eprintln!(
            "gateway_bench: FAIL: peak concurrency {peak_open} never reached --min-concurrent {}",
            args.min_concurrent
        );
        std::process::exit(4);
    }
    if failed > 0 {
        eprintln!("gateway_bench: FAIL: {failed} streams failed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sketch path that replaced the sort-based percentiles must agree
    /// with the sorted-vector oracle within the sketch's relative-accuracy
    /// contract at every reported quantile.
    #[test]
    fn sketch_quantiles_match_sorted_oracle() {
        // Deterministic latency-shaped values spanning ~4 decades.
        let mut state = 0x9e3779b97f4a7c15u64;
        let vals: Vec<f64> = (0..5000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                0.001 * (1.0 / (1.0 - u * 0.9999)).powi(2)
            })
            .collect();
        let sketch = sketch_of(vals.iter().copied());
        let mut sorted = vals;
        sorted.sort_by(|a, b| a.total_cmp(b));
        for q in [0.50, 0.90, 0.99] {
            let exact = percentile(&sorted, q);
            let approx = sketch.quantile(q);
            assert!(
                (approx - exact).abs() <= SKETCH_ALPHA * 1.01 * exact,
                "q={q}: sketch {approx} vs oracle {exact}"
            );
        }
    }

    #[test]
    fn empty_inputs_agree_on_nan() {
        assert!(percentile(&[], 0.5).is_nan());
        assert!(sketch_of(std::iter::empty()).quantile(0.5).is_nan());
    }
}
