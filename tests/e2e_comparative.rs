//! Cross-system integration tests: the paper's comparative claims must
//! hold end to end on the full stack (workload → schedulers → fabric →
//! metrics).

use aegaeon::{AegaeonConfig, RunResult, ServingSession, ServingSystem};
use aegaeon_baselines::engine_loop::{World, WorldConfig};
use aegaeon_baselines::{MuxServe, ServerlessLlm, SllmConfig};
use aegaeon_bench::{market_models, uniform_trace};
use aegaeon_gpu::{ClusterSpec, GpuSpec, NodeSpec};
use aegaeon_model::ModelId;
use aegaeon_sim::{SimDur, SimTime};
use aegaeon_workload::{LengthDist, Request, RequestId, SloSpec, Trace};

const SEED: u64 = 99;

#[test]
fn aegaeon_beats_request_level_scaling_under_pooling_pressure() {
    // The §7.2 regime: many more models than GPUs, sporadic rates.
    let n = 48;
    let models = market_models(n);
    let trace = uniform_trace(n, 0.1, 300.0, SEED, LengthDist::sharegpt());
    let slo = SloSpec::paper_default();

    let aeg = ServingSystem::run(&AegaeonConfig::paper_testbed(), &models, &trace);
    let sllm = ServerlessLlm::run(
        &SllmConfig::new(ClusterSpec::paper_testbed()),
        &models,
        &trace,
    );
    let a = aeg.attainment(slo).ratio();
    let s = sllm.attainment(slo).ratio();
    assert!(a > s + 0.1, "Aegaeon {a:.3} must clearly beat SLLM {s:.3}");
    assert!(a > 0.9, "Aegaeon should still meet the 90% bar at 48 models: {a:.3}");
}

#[test]
fn muxserve_is_hard_capped_by_memory() {
    // §7.2: the placement optimizer cannot serve more than 32 models on
    // 16 × 80 GB GPUs; beyond that, attainment is bounded by placement.
    let n = 48;
    let models = market_models(n);
    let trace = uniform_trace(n, 0.1, 200.0, SEED + 1, LengthDist::sharegpt());
    let cfg = WorldConfig::sllm_default(ClusterSpec::paper_testbed());
    let rates = vec![0.1; n];
    let r = MuxServe::run(&cfg, &models, &rates, &trace);
    assert!(r.rejected > 0, "over-capacity models must be unplaced");
    let ratio = r.attainment(SloSpec::paper_default()).ratio();
    assert!(
        ratio < 0.85,
        "48 models cannot fully attain with a 32-model cap: {ratio:.3}"
    );
}

#[test]
fn sjf_extension_degrades_under_heavy_load() {
    // §7.2: "ServerlessLLM outperforms ServerlessLLM+ in this scenario, as
    // prioritizing shorter requests ... leads to overly frequent
    // auto-scaling."
    let n = 32;
    let models = market_models(n);
    let trace = uniform_trace(n, 0.5, 240.0, SEED + 2, LengthDist::sharegpt());
    let slo = SloSpec::paper_default();
    let fcfs = ServerlessLlm::run(
        &SllmConfig::new(ClusterSpec::paper_testbed()),
        &models,
        &trace,
    );
    let sjf = ServerlessLlm::run(
        &SllmConfig::plus(ClusterSpec::paper_testbed()),
        &models,
        &trace,
    );
    let f = fcfs.attainment(slo).ratio();
    let s = sjf.attainment(slo).ratio();
    assert!(
        f >= s - 0.02,
        "FCFS ({f:.3}) should not lose clearly to oracle SJF ({s:.3}) at RPS 0.5"
    );
}

#[test]
fn all_systems_are_deterministic_across_runs() {
    let n = 12;
    let models = market_models(n);
    let trace = uniform_trace(n, 0.1, 120.0, SEED + 3, LengthDist::sharegpt());
    let slo = SloSpec::paper_default();

    let a1 = ServingSystem::run(&AegaeonConfig::paper_testbed(), &models, &trace);
    let a2 = ServingSystem::run(&AegaeonConfig::paper_testbed(), &models, &trace);
    assert_eq!(a1.events, a2.events);
    assert_eq!(a1.attainment(slo).tokens_met, a2.attainment(slo).tokens_met);

    let s1 = ServerlessLlm::run(&SllmConfig::new(ClusterSpec::paper_testbed()), &models, &trace);
    let s2 = ServerlessLlm::run(&SllmConfig::new(ClusterSpec::paper_testbed()), &models, &trace);
    assert_eq!(s1.attainment(slo).tokens_met, s2.attainment(slo).tokens_met);

    let cfg = WorldConfig::sllm_default(ClusterSpec::paper_testbed());
    let rates = vec![0.1; n];
    let m1 = MuxServe::run(&cfg, &models, &rates, &trace);
    let m2 = MuxServe::run(&cfg, &models, &rates, &trace);
    assert_eq!(m1.attainment(slo).tokens_met, m2.attainment(slo).tokens_met);
}

#[test]
fn ablation_ladder_is_monotone() {
    // T0 ≤ T1 ≤ T2 within tolerance: each optimization level should not
    // hurt under multi-model pressure.
    use aegaeon_engine::AutoscaleOpts;
    let n = 10;
    let models = market_models(n);
    let trace = uniform_trace(n, 0.08, 200.0, SEED + 4, LengthDist::sharegpt());
    let slo = SloSpec::paper_default();
    let mut ratios = Vec::new();
    for opts in [AutoscaleOpts::t0(), AutoscaleOpts::t1(), AutoscaleOpts::t2()] {
        let mut cfg = AegaeonConfig::small_testbed(1, 2);
        cfg.opts = opts;
        let r = ServingSystem::run(&cfg, &models, &trace);
        ratios.push(r.attainment(slo).ratio());
    }
    assert!(
        ratios[1] >= ratios[0] - 0.02 && ratios[2] >= ratios[1] - 0.02,
        "ladder must be monotone-ish: {ratios:?}"
    );
    assert!(
        ratios[2] > ratios[0] + 0.2,
        "full memory optimizations must clearly beat T0: {ratios:?}"
    );
}

/// Asserts that every completed outcome holds exactly one instant per
/// target token, in a record with no spare capacity.
fn assert_token_vectors_exact(system: &str, r: &RunResult) {
    let mut completed = 0;
    for o in r.outcomes.iter().filter(|o| o.finished()) {
        let (id, len) = (o.id, o.token_times.len());
        assert_eq!(len, o.target_tokens as usize, "{system}: {id:?}");
        assert_eq!(o.token_times.capacity(), len, "{system}: {id:?} has slack");
        completed += 1;
    }
    assert_eq!(completed, r.completed, "{system}: completed outcomes");
    assert!(completed > 0, "{system}: the trace completes requests");
}

#[test]
fn completed_token_vectors_are_sized_once_to_their_target() {
    let n = 8;
    let models = market_models(n);
    let trace = uniform_trace(n, 0.5, 60.0, SEED, LengthDist::sharegpt());

    let mut session = ServingSession::closed(&AegaeonConfig::paper_testbed(), &models, &trace);
    session.step_until(SimTime::MAX);
    let (aeg, _) = session.finish();
    assert_token_vectors_exact("Aegaeon", &aeg);

    let sllm = ServerlessLlm::run(
        &SllmConfig::new(ClusterSpec::paper_testbed()),
        &models,
        &trace,
    );
    assert_token_vectors_exact("ServerlessLLM", &sllm);
}

/// Token instants cost four bytes a token. On one fixed market run (40
/// models at 1.0 rps for 400 s through Aegaeon on the paper testbed) the
/// outcomes store at most 4.25 bytes per produced token, the first
/// instants and wide gaps included; eight-byte storage reads about 8.0.
/// Some gaps are wide (waits between quota rounds), so the run also
/// exercises the side list.
#[test]
fn token_instants_cost_four_bytes_a_token() {
    let n = 40;
    let trace = uniform_trace(n, 1.0, 400.0, aegaeon_bench::SEED, LengthDist::sharegpt());
    let r = ServingSystem::run(&AegaeonConfig::paper_testbed(), &market_models(n), &trace);
    let tokens: usize = r.outcomes.iter().map(|o| o.token_times.len()).sum();
    let bytes: usize = r
        .outcomes
        .iter()
        .map(|o| o.token_times.stored_bytes())
        .sum();
    let wide: usize = r.outcomes.iter().map(|o| o.token_times.wide_gaps()).sum();
    let per_token = bytes as f64 / tokens as f64;
    println!("{bytes} bytes for {tokens} tokens ({per_token:.3} per token), {wide} wide gaps");
    assert!(tokens > 1_000_000, "{tokens} tokens");
    assert!(
        per_token <= 4.25,
        "{per_token:.3} stored bytes per token, over 4.25"
    );
    assert!(wide > 0, "the run has no wide gap");
}

fn one_gpu_cluster() -> ClusterSpec {
    ClusterSpec::homogeneous(
        1,
        NodeSpec {
            gpus: 1,
            gpu: GpuSpec::h800(),
            nic_bw: 25e9,
        },
    )
}

/// One 64-token prompt for model 0 arriving at 1 s, asking for 8 tokens.
fn one_request_trace() -> Trace {
    Trace {
        requests: vec![Request::single(RequestId(0), ModelId(0), 1_000_000_000, 64, 8)],
        horizon: SimTime::from_secs_f64(10.0),
    }
}

#[test]
fn baseline_usable_vram_is_the_engine_share_of_the_gpu() {
    let cfg = WorldConfig::sllm_default(one_gpu_cluster());
    let w = World::new(cfg, &market_models(1), one_request_trace());
    let vram = w.cfg.cluster.nodes[0].gpu.vram_bytes;
    assert_eq!(w.usable_vram(), (vram as f64 * 0.90) as u64);
}

#[test]
fn baseline_admission_keeps_a_tenth_of_kv_in_reserve() {
    let cfg = WorldConfig::sllm_default(one_gpu_cluster());
    let mut w = World::new(cfg, &market_models(1), one_request_trace());
    let req = RequestId(0);
    let ctx = w.final_ctx(req);
    assert_eq!(ctx, 64 + 8);
    w.insts[0].kv_cap_tokens = 1_000;
    w.insts[0].kv_reserved_tokens = 900 - ctx;
    assert!(w.can_admit(0, req));
    w.insts[0].kv_reserved_tokens += 1;
    assert!(!w.can_admit(0, req));
}

#[test]
fn sllm_cold_start_waits_out_the_engine_restart() {
    // One request on an idle GPU: its first token waits for the load plus
    // the 6 s engine restart ServerlessLLM still pays per switch.
    let cfg = SllmConfig::new(one_gpu_cluster());
    let r = ServerlessLlm::run(&cfg, &market_models(1), &one_request_trace());
    assert_eq!((r.completed, r.scale_count), (1, 1));
    let ttft = r.outcomes[0].ttft().expect("served");
    assert!(ttft > 6.0 && ttft < 8.0, "ttft {ttft}");
}

#[test]
fn sllm_utilization_is_sampled_every_second() {
    let cfg = SllmConfig::new(ClusterSpec::paper_testbed());
    let trace = uniform_trace(2, 0.2, 60.0, SEED + 5, LengthDist::sharegpt());
    let r = ServerlessLlm::run(&cfg, &market_models(2), &trace);
    assert!(r.util_samples.len() > 1);
    assert_eq!(r.util_samples[0].0, SimTime::from_secs_f64(1.0));
    for w in r.util_samples.windows(2) {
        assert_eq!(w[1].0.saturating_since(w[0].0), SimDur::from_secs(1));
    }
}
