//! Seeded crash-sweep harness: chaos engine × invariant auditor.
//!
//! Runs hundreds of independently-seeded fault scenarios — instance
//! crashes, transient link degradation, staging-buffer OOM windows, proxy
//! stalls — against Aegaeon *and* both baselines with the always-on
//! invariant auditor installed, and fails (non-zero exit) if any scenario
//! violates an invariant or loses a request. A fourth leg runs the same
//! plan through a 2-node, 2-shard `run_sharded` at 1 and at 2 workers,
//! which must agree bit for bit; in a seeded half of the scenarios it also
//! kills one shard's whole prefill or decoding tier, so the shard windows
//! derived from each shard's crash schedule are exercised across the
//! handoffs that schedule allows. Every scenario is a pure
//! function of `(base seed, scenario index)`, so a failure reproduces
//! exactly from its printed `(seed, plan)` line:
//!
//! ```text
//! cargo run --release --bin crash_sweep -- --seed <seed> --plan "<spec>"
//! ```
//!
//! Usage:
//!   crash_sweep [--scenarios N] [--seed BASE] [--scenario K]
//!   crash_sweep --seed SEED --plan "SPEC"   (single-scenario reproduction)

use aegaeon::chaos::FaultPlan;
use aegaeon::events::InstKind;
use aegaeon::shard::{run_sharded, ShardPlan};
use aegaeon::{AegaeonConfig, RunResult, ServingSystem};
use aegaeon_baselines::{MuxServe, ServerlessLlm, SllmConfig};
use aegaeon_bench::{analyze, sweep};
use aegaeon_bench::{banner, market_models, uniform_trace, SEED};
use aegaeon_gpu::ClusterSpec;
use aegaeon_sim::{SimDur, SimRng};
use aegaeon_workload::{LengthDist, Trace};

/// Scenario shape: a small pool under light multi-model load, short enough
/// that 200 scenarios × 5 audited runs finish in CI, long enough that crashes
/// land mid-request.
const N_MODELS: usize = 3;
const PER_MODEL_RATE: f64 = 0.04;
const HORIZON: f64 = 80.0;
const DRAIN_SECS: u64 = 500;
/// Audited runs per scenario: three serial systems, and the sharded run at
/// 1 and at 2 workers.
const RUNS_PER_SCENARIO: usize = 5;

struct Outcome {
    scenario: u64,
    seed: u64,
    plan: String,
    events_checked: u64,
    /// The sharded leg's plan empties one shard's tier.
    tier_loss: bool,
    failures: Vec<String>,
}

/// Draws the scenario's fault plan from its derived seed: every process is
/// exercised across the sweep, with intensities varied per scenario.
fn scenario_plan(seed: u64) -> FaultPlan {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x00c7_a05c_11a0_5eed);
    FaultPlan {
        seed,
        crashes: Vec::new(),
        crash_rate_prefill: rng.range_f64(0.0, 0.015),
        crash_rate_decode: rng.range_f64(0.0, 0.02),
        link_rate: rng.range_f64(0.0, 0.05),
        link_factor: rng.range_f64(0.2, 0.8),
        link_secs: rng.range_f64(1.0, 8.0),
        stage_oom_rate: rng.range_f64(0.0, 0.04),
        stage_oom_secs: rng.range_f64(2.0, 8.0),
        stall_rate: rng.range_f64(0.0, 0.03),
        stall_secs: rng.range_f64(0.2, 2.0),
    }
}

/// The sharded leg's configuration: two copies of the serial legs' node,
/// one per shard, each keeping the serial legs' 2 prefill + 3 decoding
/// instances. In a seeded half of the scenarios, explicit crashes empty one
/// shard's prefill or decoding tier at a seeded instant, forcing handoffs
/// to the other shard.
fn sharded_cfg(cfg: &AegaeonConfig, trace: &Trace, seed: u64) -> AegaeonConfig {
    let mut sharded = cfg.clone();
    sharded.cluster = ClusterSpec {
        nodes: [&cfg.cluster.nodes[..], &cfg.cluster.nodes[..]].concat(),
    };
    sharded.prefill_instances = 2 * cfg.prefill_instances;
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5a4d_0ff1_7e55_a11e);
    if rng.below(2) == 0 {
        return sharded;
    }
    let shard = rng.below(2);
    let kind = [InstKind::Prefill, InstKind::Decode][rng.below(2)];
    let at = rng.range_f64(1.0, HORIZON);
    let tier = |c: &AegaeonConfig| match kind {
        InstKind::Prefill => c.prefill_instances,
        InstKind::Decode => c.instance_count() - c.prefill_instances,
    };
    // A tier's global indexes concatenate the shards' tiers in order.
    let plan = ShardPlan::partition(&sharded, trace, 2);
    let first: usize = plan.cfgs[..shard].iter().map(tier).sum();
    let n = tier(&plan.cfgs[shard]);
    sharded
        .faults
        .crashes
        .extend((first..first + n).map(|i| (at, kind, i as u32)));
    sharded
}

/// Runs one audited leg. An audited run panics on an invariant violation,
/// with the report and its `(seed, plan)` repro in the message; the panic
/// message becomes the leg's failure instead of aborting the sweep.
fn audited(run: impl FnOnce() -> RunResult) -> Result<RunResult, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).map_err(|panic| {
        let text = panic.downcast_ref::<&str>().copied();
        panic
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| text.unwrap_or("panic").into())
    })
}

/// Runs one scenario across all four legs and collects any failures.
fn run_scenario(scenario: u64, seed: u64, plan: &FaultPlan) -> Outcome {
    let models = market_models(N_MODELS);
    let trace = uniform_trace(N_MODELS, PER_MODEL_RATE, HORIZON, seed, LengthDist::sharegpt());
    let total = trace.len();
    let repro = format!("--seed {seed} --plan \"{plan}\"");

    // Aegaeon under the full fault plan; the baselines under the same trace
    // (no fault wiring of their own, but the same invariant suite, seeded
    // identically).
    let mut cfg = AegaeonConfig::small_testbed(2, 3);
    cfg.seed = seed;
    cfg.faults = plan.clone();
    cfg.drain_window = SimDur::from_secs(DRAIN_SECS);
    cfg.audit = true;
    let mut scfg = SllmConfig::new(cfg.cluster.clone());
    scfg.world.seed = seed;
    scfg.world.drain_window = SimDur::from_secs(DRAIN_SECS);
    scfg.world.audit = true;
    let mcfg = scfg.world.clone();
    let rates = vec![PER_MODEL_RATE; N_MODELS];
    let mut failures = Vec::new();
    let mut events_checked = 0u64;
    let aegaeon = audited(|| ServingSystem::run(&cfg, &models, &trace));
    let sllm = audited(|| ServerlessLlm::run(&scfg, &models, &trace));
    let mux = audited(|| MuxServe::run(&mcfg, &models, &rates, &trace));
    let shcfg = sharded_cfg(&cfg, &trace, seed);
    let tier_loss = !shcfg.faults.crashes.is_empty();
    let sharded_1 = audited(|| run_sharded(&shcfg, &models, &trace, 2, 1));
    let sharded_2 = audited(|| run_sharded(&shcfg, &models, &trace, 2, 2));
    if let (Ok(a), Ok(b)) = (&sharded_1, &sharded_2) {
        if a.fingerprint() != b.fingerprint() {
            failures.push(format!(
                "sharded fingerprint {:016x} at 1 worker, {:016x} at 2 ({repro})",
                a.fingerprint(),
                b.fingerprint()
            ));
        }
        // Only a tier loss lets a shard hand off, so only a tier loss may
        // cost a barrier before the end of the run.
        if (a.shard_windows > 1) != tier_loss {
            failures.push(format!(
                "sharded run took {} window(s) with tier_loss={tier_loss} ({repro})",
                a.shard_windows
            ));
        }
    }

    for (name, leg) in [
        ("aegaeon", aegaeon),
        ("serverless-llm", sllm),
        ("muxserve", mux),
        ("sharded x1", sharded_1),
        ("sharded x2", sharded_2),
    ] {
        match leg {
            Err(msg) => failures.push(format!("{name} audit: {msg}")),
            Ok(r) => {
                events_checked += r.audit.map_or(0, |a| a.events_checked);
                if r.completed + r.rejected != total {
                    failures.push(format!(
                        "{name} served {}+{} of {total} requests ({repro})",
                        r.completed, r.rejected
                    ));
                }
            }
        }
    }
    Outcome {
        scenario,
        seed,
        plan: plan.to_string(),
        events_checked,
        tier_loss,
        failures,
    }
}

/// Re-runs a failing scenario's Aegaeon leg with telemetry + schedule
/// tracing enabled and dumps a Chrome trace for post-mortem inspection in
/// Perfetto. Telemetry is observer-only, so the re-run reproduces the
/// failing execution exactly.
fn dump_failing_trace(scenario: u64, seed: u64, plan: &FaultPlan) -> Option<String> {
    let models = market_models(N_MODELS);
    let trace = uniform_trace(N_MODELS, PER_MODEL_RATE, HORIZON, seed, LengthDist::sharegpt());
    let mut cfg = AegaeonConfig::small_testbed(2, 3);
    cfg.seed = seed;
    cfg.faults = plan.clone();
    cfg.drain_window = SimDur::from_secs(DRAIN_SECS);
    cfg.trace_schedule = true;
    cfg.telemetry = aegaeon_telemetry::TelemetrySpec::enabled();
    let r = ServingSystem::run(&cfg, &models, &trace);
    let json =
        aegaeon_telemetry::chrome_trace(&r.schedule, &r.telemetry.spans, &r.telemetry.metrics);
    let path = format!("crash_scenario_{scenario}_seed{seed}.trace.json");
    std::fs::write(&path, json).ok()?;
    Some(path)
}

/// Re-runs the base scenario's Aegaeon leg with the SLO observatory on and
/// writes the analyzer artifacts under `target/experiments/`: the raw
/// `/v1/slo`-shaped document (for `aegaeon-analyze --check` in CI) and the
/// rendered markdown report. Telemetry is observer-only, so the re-run
/// matches the audited execution exactly. Exits non-zero on any internal
/// consistency failure (malformed quantiles or attainment out of range).
fn dump_slo_report(base: u64) {
    let seed = sweep::derive_seed(base, 0);
    let plan = scenario_plan(seed);
    let models = market_models(N_MODELS);
    let trace = uniform_trace(N_MODELS, PER_MODEL_RATE, HORIZON, seed, LengthDist::sharegpt());
    let mut cfg = AegaeonConfig::small_testbed(2, 3);
    cfg.seed = seed;
    cfg.faults = plan;
    cfg.drain_window = SimDur::from_secs(DRAIN_SECS);
    cfg.telemetry = aegaeon_telemetry::TelemetrySpec::enabled();
    let r = ServingSystem::run(&cfg, &models, &trace);

    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let slo_path = dir.join("crash_sweep.slo.json");
    let doc = aegaeon_telemetry::slo_json(&r.telemetry.slo, &r.telemetry.attrib);
    if std::fs::write(&slo_path, &doc).is_ok() {
        println!("[slo] {}", slo_path.display());
    }
    match analyze::analyze_run(&r.telemetry) {
        Ok(a) => {
            let md_path = dir.join("crash_sweep.slo.md");
            if std::fs::write(&md_path, a.to_markdown()).is_ok() {
                println!("[slo] {}", md_path.display());
            }
            let errs = a.consistency_errors();
            if !errs.is_empty() {
                for e in &errs {
                    eprintln!("[consistency] {e}");
                }
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("[slo] analysis failed: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_args() -> (usize, u64, Option<u64>, Option<FaultPlan>) {
    let mut scenarios = 200usize;
    let mut base = SEED;
    let mut only: Option<u64> = None;
    let mut plan: Option<FaultPlan> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let val = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("missing value after {}", args[i]))
        };
        match args[i].as_str() {
            "--scenarios" => scenarios = val(i).parse().expect("--scenarios N"),
            "--seed" => base = val(i).parse().expect("--seed BASE"),
            "--scenario" => only = Some(val(i).parse().expect("--scenario K")),
            "--plan" => plan = Some(val(i).parse().expect("--plan SPEC")),
            other => panic!("unknown argument {other}"),
        }
        i += 2;
    }
    (scenarios, base, only, plan)
}

fn main() {
    banner("crash_sweep", "chaos engine + invariant auditor (seeded fault sweep)");
    let (scenarios, base, only, plan) = parse_args();

    // Reproduction mode: one exact (seed, plan) scenario, verbose.
    if let Some(plan) = plan {
        println!("reproducing seed={base} plan=\"{plan}\"");
        let o = run_scenario(0, base, &plan);
        if o.failures.is_empty() {
            println!("clean: {} events audited, no violations", o.events_checked);
            return;
        }
        for f in &o.failures {
            eprintln!("FAIL {f}");
        }
        if let Some(path) = dump_failing_trace(0, base, &plan) {
            eprintln!("  telemetry trace dumped to {path} (open in Perfetto)");
        }
        std::process::exit(1);
    }

    let points: Vec<u64> = match only {
        Some(k) => vec![k],
        None => (0..scenarios as u64).collect(),
    };
    println!(
        "{} scenario(s) from base seed {base} ({} threads; override with {})",
        points.len(),
        sweep::threads(),
        sweep::THREADS_ENV
    );

    let outcomes = sweep::map(&points, |&i| {
        let seed = sweep::derive_seed(base, i);
        let plan = scenario_plan(seed);
        run_scenario(i, seed, &plan)
    });

    let total_events: u64 = outcomes.iter().map(|o| o.events_checked).sum();
    let failed: Vec<&Outcome> = outcomes.iter().filter(|o| !o.failures.is_empty()).collect();
    for o in &failed {
        eprintln!(
            "scenario {} FAILED — reproduce with: cargo run --release --bin crash_sweep -- --seed {} --plan \"{}\"",
            o.scenario, o.seed, o.plan
        );
        for f in &o.failures {
            eprintln!("  {f}");
        }
        let plan: FaultPlan = o.plan.parse().expect("round-trips");
        if let Some(path) = dump_failing_trace(o.scenario, o.seed, &plan) {
            eprintln!("  telemetry trace dumped to {path} (open in Perfetto)");
        }
    }
    println!(
        "{}/{} scenarios clean; {} events audited across {} runs",
        outcomes.len() - failed.len(),
        outcomes.len(),
        total_events,
        outcomes.len() * RUNS_PER_SCENARIO
    );
    println!(
        "sharded leg: {} of {} scenarios emptied a shard's tier",
        outcomes.iter().filter(|o| o.tier_loss).count(),
        outcomes.len()
    );
    if !failed.is_empty() {
        std::process::exit(1);
    }
    // Clean sweep: leave the SLO-under-chaos artifacts for CI to verify.
    dump_slo_report(base);
}
