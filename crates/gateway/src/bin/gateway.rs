//! `gateway` — serve the Aegaeon simulator live over HTTP.
//!
//! ```text
//! gateway [--addr HOST:PORT] [--mode realtime|timewarp] [--factor K]
//!         [--models N] [--prefill N] [--decode N] [--horizon-secs S]
//!         [--max-inflight N] [--seed S] [--session-affinity]
//! ```
//!
//! Runs until SIGTERM/SIGINT, then drains gracefully: in-flight streams
//! complete, the run summary and the replayable arrival count go to
//! stderr, and the process exits 0 (1 on audit violations).

use std::time::Duration;

use aegaeon::AegaeonConfig;
use aegaeon_gateway::server::{Gateway, GatewayConfig};
use aegaeon_gateway::signal;
use aegaeon_gateway::ClockMode;
use aegaeon_model::{ModelSpec, Zoo};
use aegaeon_sim::SimTime;

struct Args {
    addr: String,
    mode: ClockMode,
    models: usize,
    prefill: usize,
    decode: usize,
    horizon_secs: f64,
    max_inflight: u32,
    seed: u64,
    chaos: Option<String>,
    report_out: Option<String>,
    trace_out: Option<String>,
    max_connections: usize,
    reactors: usize,
    session_affinity: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:8080".to_string(),
        mode: ClockMode::Realtime,
        models: 4,
        prefill: 1,
        decode: 1,
        horizon_secs: 3600.0,
        max_inflight: 64,
        seed: 7,
        chaos: None,
        report_out: None,
        trace_out: None,
        max_connections: 16 * 1024,
        reactors: 1,
        session_affinity: false,
    };
    let mut factor = 10.0;
    let mut timewarp = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--mode" => match value("--mode")?.as_str() {
                "realtime" => timewarp = false,
                "timewarp" => timewarp = true,
                other => return Err(format!("unknown mode {other:?}")),
            },
            "--factor" => {
                factor = value("--factor")?
                    .parse()
                    .map_err(|e| format!("--factor: {e}"))?
            }
            "--models" => {
                args.models = value("--models")?
                    .parse()
                    .map_err(|e| format!("--models: {e}"))?
            }
            "--prefill" => {
                args.prefill = value("--prefill")?
                    .parse()
                    .map_err(|e| format!("--prefill: {e}"))?
            }
            "--decode" => {
                args.decode = value("--decode")?
                    .parse()
                    .map_err(|e| format!("--decode: {e}"))?
            }
            "--horizon-secs" => {
                args.horizon_secs = value("--horizon-secs")?
                    .parse()
                    .map_err(|e| format!("--horizon-secs: {e}"))?
            }
            "--max-inflight" => {
                args.max_inflight = value("--max-inflight")?
                    .parse()
                    .map_err(|e| format!("--max-inflight: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--session-affinity" => args.session_affinity = true,
            "--chaos" => args.chaos = Some(value("--chaos")?),
            "--report-out" => args.report_out = Some(value("--report-out")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--max-connections" => {
                args.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?
            }
            "--reactors" => {
                let v = value("--reactors")?;
                args.reactors = if v == "auto" {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                } else {
                    v.parse().map_err(|e| format!("--reactors: {e}"))?
                };
                if args.reactors == 0 {
                    return Err("--reactors must be >= 1".to_string());
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: gateway [--addr HOST:PORT] [--mode realtime|timewarp] [--factor K] \
                     [--models N] [--prefill N] [--decode N] [--horizon-secs S] \
                     [--max-inflight N] [--seed S] [--chaos PLAN] [--report-out FILE] \
                     [--trace-out FILE] [--max-connections N] [--reactors N|auto] \
                     [--session-affinity]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if timewarp {
        args.mode = ClockMode::Timewarp(factor);
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gateway: {e}");
            std::process::exit(2);
        }
    };
    signal::install();

    let mut cfg = AegaeonConfig::small_testbed(args.prefill, args.decode);
    cfg.seed = args.seed;
    cfg.session_affinity = args.session_affinity;
    if let Some(plan) = &args.chaos {
        cfg.faults = match plan.parse() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("gateway: --chaos: {e}");
                std::process::exit(2);
            }
        };
    }
    let zoo = Zoo::standard();
    let models: Vec<ModelSpec> = Zoo::replicate(&zoo.market_band(), args.models);
    let mut gw_cfg = GatewayConfig::local(args.mode);
    gw_cfg.addr = args.addr;
    gw_cfg.live_horizon = SimTime::from_secs_f64(args.horizon_secs);
    gw_cfg.max_inflight = args.max_inflight;
    gw_cfg.max_connections = args.max_connections;
    gw_cfg.reactors = args.reactors;

    let gateway = match Gateway::start(&cfg, &models, gw_cfg) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("gateway: failed to start: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "gateway: serving {} models on http://{} (mode: {:?}, reactors: {})",
        models.len(),
        gateway.addr(),
        args.mode,
        args.reactors,
    );

    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }

    eprintln!("gateway: shutdown requested, draining...");
    let report = gateway.shutdown();
    let r = &report.result;
    let audit = report.audit.as_ref().expect("the gateway always audits");
    eprintln!(
        "gateway: drained. requests={} completed={} rejections={} slow_drops={} accept_errors={} \
         sim_end={:.3}s",
        report.trace.requests.len(),
        r.completed,
        report.rejections,
        report.slow_drops,
        report.accept_errors.iter().sum::<u64>(),
        r.end_time.as_secs_f64(),
    );
    if let Some(out) = &args.report_out {
        // Gateway-side half of the two-process soak: the bench harness
        // merges this with its client-side samples.
        let join = |v: Vec<String>| v.join(", ");
        let peaks = join(
            report
                .per_reactor_peak
                .iter()
                .map(|p| p.to_string())
                .collect(),
        );
        let accept_errors = join(report.accept_errors.iter().map(|e| e.to_string()).collect());
        // Accept-sharding balance: max/min per-reactor peak (1.0 = even).
        let max_peak = report.per_reactor_peak.iter().copied().max().unwrap_or(0);
        let min_peak = report.per_reactor_peak.iter().copied().min().unwrap_or(0);
        let balance = if min_peak > 0 {
            max_peak as f64 / min_peak as f64
        } else {
            0.0
        };
        let json = format!(
            "{{\n  \"requests\": {},\n  \"completed\": {},\n  \"rejections\": {},\n  \
             \"slow_drops\": {},\n  \"peak_connections\": {},\n  \"sim_end_secs\": {:.6},\n  \
             \"audit_events_checked\": {},\n  \"audit_violations\": {},\n  \
             \"reactors\": {},\n  \"per_reactor_peak\": [{}],\n  \
             \"per_reactor_accept_errors\": [{}],\n  \
             \"reactor_balance_max_over_min\": {:.3},\n  \
             \"fingerprint\": \"{:#018x}\"\n}}\n",
            report.trace.requests.len(),
            r.completed,
            report.rejections,
            report.slow_drops,
            report.peak_connections,
            r.end_time.as_secs_f64(),
            audit.events_checked,
            audit.violations.len(),
            args.reactors,
            peaks,
            accept_errors,
            balance,
            r.fingerprint(),
        );
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("gateway: failed to write {out}: {e}");
            std::process::exit(1);
        }
        eprintln!("gateway: report written to {out}");
    }
    if let Some(out) = &args.trace_out {
        // Replayable arrival trace: `ServingSession::replay` on this file
        // (same config/seed/chaos) must reproduce the fingerprint above —
        // regardless of how many reactors served the live run.
        if let Err(e) = std::fs::write(out, report.trace.to_json()) {
            eprintln!("gateway: failed to write {out}: {e}");
            std::process::exit(1);
        }
        eprintln!("gateway: trace written to {out}");
    }
    eprintln!(
        "gateway: audit events_checked={} violations={}",
        audit.events_checked,
        audit.violations.len()
    );
    if !audit.violations.is_empty() {
        std::process::exit(1);
    }
}
