//! Renders a live token-level schedule as an ASCII timeline (the Figure 2
//! intuition, on the real system): prefill (P), decoding turns (D) and
//! preemptive auto-scaling (S) interleaving on each GPU.
//!
//! ```text
//! cargo run --release -p aegaeon-bench --example schedule_timeline
//! ```
//!
//! Pass `--trace-out FILE.json` to also export the run as a Chrome Trace
//! Event Format file with full request-lifecycle spans and metric series
//! (open in Perfetto / `chrome://tracing`).

use aegaeon::{AegaeonConfig, ServingSystem};
use aegaeon_model::Zoo;
use aegaeon_sim::{SimRng, SimTime};
use aegaeon_telemetry::render_timeline;
use aegaeon_workload::{LengthDist, SloSpec, TraceBuilder};

fn main() {
    let mut trace_out: Option<String> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--trace-out" => {
                trace_out = Some(it.next().expect("--trace-out FILE.json").clone());
            }
            other => {
                eprintln!("usage: schedule_timeline [--trace-out FILE.json] (got {other})");
                std::process::exit(2);
            }
        }
    }
    let zoo = Zoo::standard();
    let models = Zoo::replicate(&zoo.market_band(), 5);
    let mut rng = SimRng::seed_from_u64(5);
    let trace = TraceBuilder::new(SimTime::from_secs_f64(60.0), LengthDist::sharegpt())
        .uniform_models(&mut rng, 5, 0.15)
        .build(&mut rng);

    let mut cfg = AegaeonConfig::small_testbed(1, 2);
    cfg.seed = 5;
    cfg.trace_schedule = true;
    if trace_out.is_some() {
        cfg.telemetry = aegaeon_telemetry::TelemetrySpec::enabled();
    }
    let r = ServingSystem::run(&cfg, &models, &trace);

    println!(
        "5 models / 3 GPUs / {} requests; attainment {:.1}%\n",
        trace.len(),
        r.attainment(SloSpec::paper_default()).percent()
    );
    println!("first 30 s (gpu0 = prefill instance, gpu1-2 = decoding):");
    print!(
        "{}",
        render_timeline(
            &r.schedule,
            SimTime::ZERO,
            SimTime::from_secs_f64(30.0),
            110
        )
    );
    println!("\nP prefill | D decoding turn | S preemptive auto-scaling");
    println!(
        "{} switches across the window; each decoding lane rotates its models'\n\
         batches per Algorithm 2 while prefills stream through gpu0 (Algorithm 1).",
        r.scale_count
    );
    if let Some(path) = trace_out {
        let json =
            aegaeon_telemetry::chrome_trace(&r.schedule, &r.telemetry.spans, &r.telemetry.metrics);
        std::fs::write(&path, json).expect("write trace file");
        println!("\nwrote {path} (open in Perfetto / chrome://tracing)");
    }
}
