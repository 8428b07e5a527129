//! Failure injection: the Fig. 5 proxy status-sync path must recover
//! stranded requests when serving instances die mid-run.
//!
//! Crashes are injected through the seeded chaos engine
//! (`FaultPlan::crashes`), and every recovery test runs with the invariant
//! auditor enabled, so a run that completes has also been checked for
//! request conservation, token ordering, and memory/bandwidth accounting
//! at every event.

use aegaeon::chaos::FaultPlan;
use aegaeon::events::InstKind;
use aegaeon::{AegaeonConfig, ServingSystem};
use aegaeon_bench::{market_models, uniform_trace};
use aegaeon_workload::{LengthDist, SloSpec};

const SEED: u64 = 777;

fn base_cfg() -> AegaeonConfig {
    let mut cfg = AegaeonConfig::small_testbed(2, 3);
    cfg.seed = SEED;
    cfg.audit = true;
    cfg
}

#[test]
fn decode_instance_failure_recovers_all_requests() {
    let models = market_models(8);
    let trace = uniform_trace(8, 0.1, 200.0, SEED, LengthDist::sharegpt());
    let mut cfg = base_cfg();
    cfg.faults = FaultPlan::crashes(&[(60.0, InstKind::Decode, 1)]);
    let r = ServingSystem::run(&cfg, &models, &trace);
    assert_eq!(
        r.completed, r.total_requests,
        "every request must eventually complete despite the failure"
    );
    // Tokens stay well-formed: at most the oracle count, nondecreasing.
    for (o, req) in r.outcomes.iter().zip(&trace.requests) {
        assert!(o.token_times.len() as u32 <= req.output_tokens);
        let times: Vec<_> = o.token_times.iter().collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}

#[test]
fn prefill_instance_failure_recovers_all_requests() {
    let models = market_models(8);
    let trace = uniform_trace(8, 0.1, 200.0, SEED + 1, LengthDist::sharegpt());
    let mut cfg = base_cfg();
    cfg.faults = FaultPlan::crashes(&[(45.0, InstKind::Prefill, 0)]);
    let r = ServingSystem::run(&cfg, &models, &trace);
    assert_eq!(r.completed, r.total_requests);
}

#[test]
fn double_failure_still_drains() {
    let models = market_models(6);
    let trace = uniform_trace(6, 0.08, 200.0, SEED + 2, LengthDist::sharegpt());
    let mut cfg = base_cfg();
    cfg.faults = FaultPlan::crashes(&[
        (40.0, InstKind::Prefill, 1),
        (80.0, InstKind::Decode, 2),
    ]);
    let r = ServingSystem::run(&cfg, &models, &trace);
    assert_eq!(r.completed, r.total_requests);
    let rep = r.attainment(SloSpec::paper_default());
    assert!(
        rep.ratio() > 0.5,
        "losing 2 of 5 instances degrades but must not collapse: {}",
        rep.ratio()
    );
}

#[test]
fn concurrent_prefill_and_decode_failures_recover() {
    // Both tiers lose an instance at the same instant: the proxy has to
    // re-dispatch stranded prefills and migrate stranded decodes in the
    // same failover wave.
    let models = market_models(8);
    let trace = uniform_trace(8, 0.1, 200.0, SEED + 6, LengthDist::sharegpt());
    let mut cfg = base_cfg();
    cfg.faults = FaultPlan::crashes(&[
        (55.0, InstKind::Prefill, 0),
        (55.0, InstKind::Decode, 2),
    ]);
    let r = ServingSystem::run(&cfg, &models, &trace);
    assert_eq!(r.completed, r.total_requests);
}

#[test]
fn failure_during_model_load_still_completes() {
    // Crash the prefill instance right as the run starts, while the very
    // first auto-scale (host→GPU model load) is still copying. Requests
    // whose model never finished loading must be re-dispatched elsewhere.
    let models = market_models(8);
    let trace = uniform_trace(8, 0.15, 150.0, SEED + 7, LengthDist::sharegpt());
    let mut cfg = base_cfg();
    cfg.faults = FaultPlan::crashes(&[(1.5, InstKind::Prefill, 0)]);
    let r = ServingSystem::run(&cfg, &models, &trace);
    assert_eq!(
        r.completed, r.total_requests,
        "crash mid-load must not strand the loading model's requests"
    );
}

#[test]
fn back_to_back_failures_of_same_instance_recover() {
    // Decode 0 fails, recovers after failover_latency (2s in the paper
    // testbed), then fails again immediately after taking work back — twice.
    // Each re-crash strands the replacement's freshly migrated requests.
    let models = market_models(6);
    let trace = uniform_trace(6, 0.1, 200.0, SEED + 8, LengthDist::sharegpt());
    let mut cfg = base_cfg();
    cfg.faults = FaultPlan::crashes(&[
        (30.0, InstKind::Decode, 0),
        (33.0, InstKind::Decode, 0),
        (36.0, InstKind::Decode, 0),
    ]);
    let r = ServingSystem::run(&cfg, &models, &trace);
    assert_eq!(r.completed, r.total_requests);
}

#[test]
fn failure_costs_attainment_relative_to_healthy_run() {
    let models = market_models(10);
    let trace = uniform_trace(10, 0.12, 200.0, SEED + 3, LengthDist::sharegpt());
    let healthy = ServingSystem::run(&base_cfg(), &models, &trace);
    let mut cfg = base_cfg();
    cfg.faults = FaultPlan::crashes(&[(50.0, InstKind::Decode, 0)]);
    let failed = ServingSystem::run(&cfg, &models, &trace);
    let h = healthy.attainment(SloSpec::paper_default()).ratio();
    let f = failed.attainment(SloSpec::paper_default()).ratio();
    assert!(
        f <= h + 0.01,
        "a failure cannot improve attainment: healthy {h:.3} vs failed {f:.3}"
    );
    assert_eq!(failed.completed, failed.total_requests);
}

#[test]
fn failure_runs_are_deterministic() {
    let models = market_models(6);
    let trace = uniform_trace(6, 0.1, 150.0, SEED + 4, LengthDist::sharegpt());
    let mut cfg = base_cfg();
    cfg.faults = FaultPlan::crashes(&[(30.0, InstKind::Decode, 1)]);
    let a = ServingSystem::run(&cfg, &models, &trace);
    let b = ServingSystem::run(&cfg, &models, &trace);
    assert_eq!(a.events, b.events);
    assert_eq!(a.completed, b.completed);
}

#[test]
#[should_panic(expected = "every decoding instance has failed")]
fn losing_all_decoders_is_fatal() {
    let models = market_models(4);
    let trace = uniform_trace(4, 0.2, 120.0, SEED + 5, LengthDist::sharegpt());
    let mut cfg = AegaeonConfig::small_testbed(1, 1);
    cfg.seed = SEED;
    cfg.faults = FaultPlan::crashes(&[(10.0, InstKind::Decode, 0)]);
    let _ = ServingSystem::run(&cfg, &models, &trace);
}

#[test]
fn stage_buffer_oom_slows_model_loads() {
    // With the pinned stage buffer exhausted for the whole run, host loads
    // fall back to pageable DMA; every request still completes.
    let models = market_models(6);
    let trace = uniform_trace(6, 0.08, 120.0, SEED + 9, LengthDist::sharegpt());
    let healthy = ServingSystem::run(&base_cfg(), &models, &trace);
    let mut cfg = base_cfg();
    cfg.faults = FaultPlan {
        stage_oom_rate: 1.0,
        stage_oom_secs: 1e4,
        ..FaultPlan::none()
    };
    let oom = ServingSystem::run(&cfg, &models, &trace);
    assert_eq!(oom.completed, oom.total_requests);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (h, o) = (mean(&healthy.scale_latencies), mean(&oom.scale_latencies));
    assert!(o > h, "stage OOM mean scale latency {o}s vs healthy {h}s");
}
