//! Shared experiment harness: standard workloads, system runners and
//! reporting for the figure/table regeneration binaries.
//!
//! Every binary under `src/bin/` regenerates one table or figure of the
//! paper; it prints the series the paper plots and writes a JSON copy under
//! `target/experiments/` so EXPERIMENTS.md stays regenerable.

pub mod analyze;
pub mod sweep;

use aegaeon::{AegaeonConfig, RunResult, ServingSystem};
use aegaeon_baselines::engine_loop::WorldConfig;
use aegaeon_baselines::{MuxServe, ServerlessLlm, SllmConfig};
use aegaeon_metrics::AttainmentReport;
use aegaeon_model::{ModelSpec, Zoo};
use aegaeon_sim::{SimRng, SimTime};
use aegaeon_workload::{LengthDist, SessionBuilder, SloSpec, Trace, TraceBuilder};

/// Standard measurement horizon for the end-to-end sweeps, seconds.
pub const HORIZON_SECS: f64 = 400.0;

/// Env var: when set to a path, the first Aegaeon run the harness performs
/// in this process executes with telemetry enabled and is exported there as
/// a Chrome Trace Event Format file (open in Perfetto). Works with every
/// figure binary, e.g.:
///
/// ```text
/// AEGAEON_TRACE_OUT=fig11.trace.json cargo run --release --bin fig11_end_to_end
/// ```
pub(crate) const TRACE_OUT_ENV: &str = "AEGAEON_TRACE_OUT";

static TRACE_DUMPED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn trace_out_requested() -> Option<String> {
    if TRACE_DUMPED.load(std::sync::atomic::Ordering::Relaxed) {
        return None;
    }
    std::env::var(TRACE_OUT_ENV).ok().filter(|p| !p.is_empty())
}

/// Enables telemetry + schedule tracing on `cfg` when [`TRACE_OUT_ENV`] is
/// set and no trace has been dumped yet. Telemetry is observer-only, so
/// figure numbers are unchanged either way.
pub(crate) fn apply_env_telemetry(cfg: &mut AegaeonConfig) {
    if trace_out_requested().is_some() {
        cfg.telemetry = aegaeon_telemetry::TelemetrySpec::enabled();
        cfg.trace_schedule = true;
    }
}

/// Exports `r` as a Chrome trace when [`TRACE_OUT_ENV`] is set (first run
/// in the process wins; later runs are skipped).
pub(crate) fn maybe_dump_trace(r: &RunResult) {
    let Some(path) = trace_out_requested() else {
        return;
    };
    if TRACE_DUMPED.swap(true, std::sync::atomic::Ordering::Relaxed) {
        return;
    }
    let json =
        aegaeon_telemetry::chrome_trace(&r.schedule, &r.telemetry.spans, &r.telemetry.metrics);
    match std::fs::write(&path, json) {
        Ok(()) => println!("[trace] {path}"),
        Err(e) => eprintln!("[trace] failed to write {path}: {e}"),
    }
    // The same telemetry-enabled run feeds the SLO observatory; drop the
    // analyzer's markdown report next to the trace.
    match analyze::analyze_run(&r.telemetry) {
        Ok(a) => {
            let md_path = format!("{path}.slo.md");
            match std::fs::write(&md_path, a.to_markdown()) {
                Ok(()) => println!("[slo] {md_path}"),
                Err(e) => eprintln!("[slo] failed to write {md_path}: {e}"),
            }
        }
        Err(e) => eprintln!("[slo] analysis failed: {e}"),
    }
}

/// Base seed for all experiments (vary per point for independence).
pub const SEED: u64 = 20250713;

/// `n` distinct market-band (6–14B) serving targets.
pub fn market_models(n: usize) -> Vec<ModelSpec> {
    let zoo = Zoo::standard();
    Zoo::replicate(&zoo.market_band(), n)
}

/// Models in an [`agentic_trace`].
pub const AGENTIC_MODELS: usize = 4;
/// Sessions started per second per model in an [`agentic_trace`].
pub const AGENTIC_SESSION_RATE: f64 = 0.012;

/// One cell of the agentic-session figure (`fig_agentic`): sessions of
/// exactly `depth` turns over [`AGENTIC_MODELS`] models, starting at
/// [`AGENTIC_SESSION_RATE`], with `gap_secs` think gaps (±50%) over
/// `horizon_secs`. The seed derives from the cell, so a test builds the
/// very trace the binary runs.
pub fn agentic_trace(depth: u32, gap_secs: f64, horizon_secs: f64) -> Trace {
    let seed = SEED + depth as u64 * 101 + (gap_secs * 10.0) as u64;
    let mut rng = SimRng::seed_from_u64(seed);
    let (models, rate) = (AGENTIC_MODELS as u32, AGENTIC_SESSION_RATE);
    SessionBuilder::new(SimTime::from_secs_f64(horizon_secs), models, rate)
        .depth(depth, depth)
        .think_gap(gap_secs, 0.5)
        .generate(&mut rng)
        .lower()
}

/// A uniform-rate multi-model trace (the §7.2 synthesis).
pub fn uniform_trace(
    n_models: usize,
    rate: f64,
    secs: f64,
    seed: u64,
    dataset: LengthDist,
) -> Trace {
    let mut rng = SimRng::seed_from_u64(seed);
    TraceBuilder::new(SimTime::from_secs_f64(secs), dataset)
        .uniform_models(&mut rng, n_models as u32, rate)
        .build(&mut rng)
}

/// Which serving system to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Aegaeon (token-level auto-scaling, T3).
    Aegaeon,
    /// ServerlessLLM (request-level auto-scaling).
    ServerlessLlm,
    /// ServerlessLLM+ (oracle SJF queue).
    ServerlessLlmPlus,
    /// MuxServe (static spatial multiplexing).
    MuxServe,
}

impl System {
    /// Paper display name.
    pub fn label(&self) -> &'static str {
        match self {
            System::Aegaeon => "Aegaeon",
            System::ServerlessLlm => "ServerlessLLM",
            System::ServerlessLlmPlus => "ServerlessLLM+",
            System::MuxServe => "MuxServe",
        }
    }

    /// The four systems in the paper's legend order.
    pub const ALL: [System; 4] = [
        System::Aegaeon,
        System::ServerlessLlm,
        System::ServerlessLlmPlus,
        System::MuxServe,
    ];
}

/// Attainment of `sys` on the paper testbed for `models`/`trace`.
pub fn run_system(
    sys: System,
    models: &[ModelSpec],
    trace: &Trace,
    slo: SloSpec,
    per_model_rate: f64,
) -> AttainmentReport {
    let cluster = aegaeon_gpu::ClusterSpec::paper_testbed();
    match sys {
        System::Aegaeon => {
            let mut cfg = AegaeonConfig::paper_testbed();
            // The scheduler's quota equations take the target TBT `d` as an
            // input (§4.3); deployments configure it from their SLO.
            cfg.target_tbt = slo.tbt.as_secs_f64();
            apply_env_telemetry(&mut cfg);
            let r = ServingSystem::run(&cfg, models, trace);
            maybe_dump_trace(&r);
            r.attainment(slo)
        }
        System::ServerlessLlm => {
            let cfg = SllmConfig::new(cluster);
            ServerlessLlm::run(&cfg, models, trace).attainment(slo)
        }
        System::ServerlessLlmPlus => {
            let cfg = SllmConfig::plus(cluster);
            ServerlessLlm::run(&cfg, models, trace).attainment(slo)
        }
        System::MuxServe => {
            let cfg = WorldConfig::sllm_default(cluster);
            let rates = vec![per_model_rate; models.len()];
            MuxServe::run(&cfg, models, &rates, trace).attainment(slo)
        }
    }
}

/// A full Aegaeon run on the paper testbed (detailed metrics).
pub fn run_aegaeon(models: &[ModelSpec], trace: &Trace) -> RunResult {
    let mut cfg = AegaeonConfig::paper_testbed();
    apply_env_telemetry(&mut cfg);
    let r = ServingSystem::run(&cfg, models, trace);
    maybe_dump_trace(&r);
    r
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, paper: &str) {
    println!("==============================================================");
    println!("{id}  —  reproduces {paper}");
    println!("==============================================================");
}

/// Writes machine-readable results next to the printed table.
pub fn dump_json(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(s) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(&path, s);
        println!("[json] {}", path.display());
    }
}

/// Formats an attainment sweep as the paper's "(load, attainment%)" series
/// and reports the max load meeting the 90% requirement (the figures'
/// vertical lines).
pub fn print_sweep(title: &str, xlabel: &str, series: &[(String, Vec<(f64, f64)>)]) {
    println!("\n{title}");
    let mut headers = vec![xlabel.to_string()];
    headers.extend(series.iter().map(|(n, _)| n.clone()));
    let n_points = series[0].1.len();
    let mut rows = Vec::new();
    for i in 0..n_points {
        let mut row = vec![format!("{}", series[0].1[i].0)];
        for (_, pts) in series {
            row.push(format!("{:.1}%", pts[i].1 * 100.0));
        }
        rows.push(row);
    }
    let hdr: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print!("{}", aegaeon_metrics::report::table(&hdr, &rows));
    for (name, pts) in series {
        match aegaeon_metrics::max_load_meeting(pts, 0.9) {
            Some(x) => println!("  {name}: max {xlabel} at >=90% SLO ~= {x:.1}"),
            None => println!("  {name}: never reaches 90%"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn market_models_are_distinct() {
        let m = market_models(12);
        assert_eq!(m.len(), 12);
        let mut names: Vec<&str> = m.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn uniform_trace_rate() {
        let t = uniform_trace(4, 0.1, 500.0, 1, LengthDist::sharegpt());
        assert!((t.aggregate_rate() - 0.4).abs() < 0.1);
    }
}
