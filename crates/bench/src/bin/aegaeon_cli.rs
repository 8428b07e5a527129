//! `aegaeon_cli` — a CLI for running custom pooling scenarios.
//!
//! ```text
//! cargo run --release -p aegaeon-bench --bin aegaeon_cli -- \
//!     --models 40 --rps 0.1 --gpus 16 --prefill 6 --secs 400 \
//!     --system aegaeon --opts t3 --dataset sharegpt --seed 42
//! ```
//!
//! Systems: `aegaeon`, `sllm`, `sllm+`, `muxserve`. Datasets: `sharegpt`,
//! `ix2`, `ox2`. Optimization levels: `t0`..`t3`.
//!
//! Telemetry: `--trace-out run.json` writes a Chrome Trace Event Format
//! file (open in Perfetto / `chrome://tracing`), `--telemetry-out run.jsonl`
//! writes spans + metric samples as JSONL, and `--sample-every SECS` sets
//! the sim-time metric sampling interval (default 0.1 s).

use aegaeon::{AegaeonConfig, ServingSystem};
use aegaeon_baselines::engine_loop::WorldConfig;
use aegaeon_baselines::{MuxServe, ServerlessLlm, SllmConfig};
use aegaeon_engine::AutoscaleOpts;
use aegaeon_gpu::{ClusterSpec, GpuSpec, NodeSpec};
use aegaeon_metrics::slo::attainment_per_model;
use aegaeon_model::Zoo;
use aegaeon_sim::{SimRng, SimTime};
use aegaeon_workload::{LengthDist, SloSpec, TraceBuilder};

#[derive(Debug)]
struct Args {
    models: usize,
    rps: f64,
    gpus: u32,
    prefill: usize,
    secs: f64,
    seed: u64,
    system: String,
    opts: String,
    dataset: String,
    gpu: String,
    ttft: f64,
    tbt: f64,
    trace_out: Option<String>,
    telemetry_out: Option<String>,
    sample_every: f64,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut a = Args {
            models: 16,
            rps: 0.1,
            gpus: 8,
            prefill: 3,
            secs: 300.0,
            seed: 42,
            system: "aegaeon".into(),
            opts: "t3".into(),
            dataset: "sharegpt".into(),
            gpu: "h800".into(),
            ttft: 10.0,
            tbt: 0.1,
            trace_out: None,
            telemetry_out: None,
            sample_every: 0.1,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--help" || flag == "-h" {
                return Err("help".into());
            }
            let val = it
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            match flag.as_str() {
                "--models" => a.models = val.parse().map_err(|e| format!("--models: {e}"))?,
                "--rps" => a.rps = val.parse().map_err(|e| format!("--rps: {e}"))?,
                "--gpus" => a.gpus = val.parse().map_err(|e| format!("--gpus: {e}"))?,
                "--prefill" => a.prefill = val.parse().map_err(|e| format!("--prefill: {e}"))?,
                "--secs" => a.secs = val.parse().map_err(|e| format!("--secs: {e}"))?,
                "--seed" => a.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
                "--system" => a.system = val.clone(),
                "--opts" => a.opts = val.clone(),
                "--dataset" => a.dataset = val.clone(),
                "--gpu" => a.gpu = val.clone(),
                "--ttft" => a.ttft = val.parse().map_err(|e| format!("--ttft: {e}"))?,
                "--tbt" => a.tbt = val.parse().map_err(|e| format!("--tbt: {e}"))?,
                "--trace-out" => a.trace_out = Some(val.clone()),
                "--telemetry-out" => a.telemetry_out = Some(val.clone()),
                "--sample-every" => {
                    a.sample_every = val.parse().map_err(|e| format!("--sample-every: {e}"))?
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(a)
    }
}

fn usage() {
    eprintln!(
        "usage: aegaeon_cli [--models N] [--rps R] [--gpus G] [--prefill P] \
         [--secs S] [--seed K] [--system aegaeon|sllm|sllm+|muxserve] \
         [--opts t0|t1|t2|t3] [--dataset sharegpt|ix2|ox2] \
         [--gpu h800|h20|a10|a100] [--ttft SECS] [--tbt SECS] \
         [--trace-out FILE.json] [--telemetry-out FILE.jsonl] \
         [--sample-every SECS]"
    );
}

/// Writes the requested telemetry artifacts, consuming the run's spans,
/// metrics, and (for Aegaeon) schedule trace.
fn export(
    args: &Args,
    schedule: &aegaeon_telemetry::SpanLog,
    tel: &aegaeon_telemetry::Telemetry,
) {
    if let Some(err) = tel.spans.validate() {
        eprintln!("warning: span log failed validation: {err}");
    }
    if let Some(path) = &args.trace_out {
        let json = aegaeon_telemetry::chrome_trace(schedule, &tel.spans, &tel.metrics);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "wrote {path}: {} spans, {} counter series (open in Perfetto)",
            tel.spans.spans().len(),
            tel.metrics.counter_series().count() + tel.metrics.gauge_series().count(),
        );
    }
    if let Some(path) = &args.telemetry_out {
        let lines = aegaeon_telemetry::jsonl(&tel.spans, &tel.metrics);
        if let Err(e) = std::fs::write(path, &lines) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}");
            }
            usage();
            std::process::exit(if e == "help" { 0 } else { 2 });
        }
    };
    let gpu = match args.gpu.as_str() {
        "h800" => GpuSpec::h800(),
        "h20" => GpuSpec::h20(),
        "a10" => GpuSpec::a10(),
        "a100" => GpuSpec::a100(),
        other => {
            eprintln!("unknown GPU {other}");
            std::process::exit(2);
        }
    };
    let dataset = match args.dataset.as_str() {
        "sharegpt" => LengthDist::sharegpt(),
        "ix2" => LengthDist::sharegpt_ix2(),
        "ox2" => LengthDist::sharegpt_ox2(),
        other => {
            eprintln!("unknown dataset {other}");
            std::process::exit(2);
        }
    };
    let cluster = ClusterSpec::homogeneous(
        1,
        NodeSpec {
            gpus: args.gpus,
            gpu,
            nic_bw: 25e9,
        },
    );
    let models = Zoo::replicate(&Zoo::standard().market_band(), args.models);
    let mut rng = SimRng::seed_from_u64(args.seed);
    let trace = TraceBuilder::new(SimTime::from_secs_f64(args.secs), dataset)
        .uniform_models(&mut rng, args.models as u32, args.rps)
        .build(&mut rng);
    let slo = SloSpec {
        ttft: aegaeon_sim::SimDur::from_secs_f64(args.ttft),
        tbt: aegaeon_sim::SimDur::from_secs_f64(args.tbt),
    };
    println!(
        "{} | {} models x {} req/s on {} {} GPUs | {} requests over {}s | SLO {}s/{}ms",
        args.system,
        args.models,
        args.rps,
        args.gpus,
        args.gpu,
        trace.len(),
        args.secs,
        args.ttft,
        args.tbt * 1e3,
    );

    let want_telemetry = args.trace_out.is_some() || args.telemetry_out.is_some();
    let tel_spec = if want_telemetry {
        aegaeon_telemetry::TelemetrySpec::with_sample_every(aegaeon_sim::SimDur::from_secs_f64(
            args.sample_every,
        ))
    } else {
        aegaeon_telemetry::TelemetrySpec::disabled()
    };

    let r = match args.system.as_str() {
        "aegaeon" => {
            let mut cfg = AegaeonConfig::paper_testbed();
            cfg.cluster = cluster;
            cfg.prefill_instances = args.prefill;
            cfg.seed = args.seed;
            cfg.target_tbt = args.tbt;
            cfg.telemetry = tel_spec;
            cfg.trace_schedule = want_telemetry;
            cfg.opts = match args.opts.as_str() {
                "t0" => AutoscaleOpts::t0(),
                "t1" => AutoscaleOpts::t1(),
                "t2" => AutoscaleOpts::t2(),
                "t3" => AutoscaleOpts::t3(),
                other => {
                    eprintln!("unknown opts {other}");
                    std::process::exit(2);
                }
            };
            ServingSystem::run(&cfg, &models, &trace)
        }
        "sllm" | "sllm+" => {
            let mut cfg = if args.system == "sllm+" {
                SllmConfig::plus(cluster)
            } else {
                SllmConfig::new(cluster)
            };
            cfg.world.seed = args.seed;
            cfg.world.telemetry = tel_spec;
            ServerlessLlm::run(&cfg, &models, &trace)
        }
        "muxserve" => {
            let mut cfg = WorldConfig::sllm_default(cluster);
            cfg.seed = args.seed;
            cfg.telemetry = tel_spec;
            let rates = vec![args.rps; args.models];
            MuxServe::run(&cfg, &models, &rates, &trace)
        }
        other => {
            eprintln!("unknown system {other}");
            std::process::exit(2);
        }
    };

    let rep = r.attainment(slo);
    println!(
        "attainment {:.1}% | completed {}/{} | rejected {} | switches {} (prefetch {:.0}%) | swaps {} | util {:.1}%",
        rep.percent(),
        r.completed,
        r.total_requests,
        r.rejected,
        r.scale_count,
        r.prefetch_hit_ratio() * 100.0,
        r.swaps,
        r.mean_gpu_utilization() * 100.0
    );
    let s = aegaeon_metrics::summarize(&r.outcomes, r.horizon);
    println!(
        "tokens {} ({:.0}/s) | TTFT p50/p90/p99 {:.2}/{:.2}/{:.2}s | gap p50/p99 {:.0}/{:.0}ms",
        s.tokens,
        s.token_rate,
        s.ttft.0,
        s.ttft.1,
        s.ttft.2,
        s.tbt.0 * 1e3,
        s.tbt.2 * 1e3
    );
    let per_model = attainment_per_model(&r.outcomes, slo, r.horizon, args.models);
    // `min_by` keeps the first of equal minima: the lowest model id.
    let worst = per_model.iter().enumerate().min_by(|a, b| {
        a.1.ratio()
            .partial_cmp(&b.1.ratio())
            .expect("finite ratios")
    });
    if let Some((model, worst)) = worst {
        println!(
            "worst model m{model} at {:.1}% over {} requests",
            worst.percent(),
            worst.requests
        );
    }
    export(&args, &r.schedule, &r.telemetry);
}
