//! Capacity planning for the deployment study (§7.5, Figure 18).
//!
//! The production "before" provisions dedicated, redundant instances per
//! model; Aegaeon provisions one shared pool sized by aggregate token
//! demand plus switching overhead. The planner reproduces the 1,192 → 213
//! H20 consolidation *shape* from the paper's published deployment facts
//! (28 models at TP=1, 19 at TP=4, per-model rates 0.01–1.13 req/s).

use aegaeon_engine::PerfModel;
use aegaeon_gpu::{ClusterSpec, GpuSpec, NodeSpec};
use aegaeon_model::ModelSpec;
use aegaeon_workload::{SloSpec, Trace};

use crate::config::AegaeonConfig;
use crate::system::ServingSystem;

/// One model's deployment demand.
#[derive(Debug, Clone)]
pub struct ModelDemand {
    /// The model (TP degree set).
    pub spec: ModelSpec,
    /// Mean request arrival rate, req/s.
    pub rate: f64,
    /// Mean output tokens per request.
    pub mean_output: f64,
    /// Mean input tokens per request.
    pub mean_input: f64,
}

/// Planner knobs.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Peak-to-mean ratio dedicated serving must absorb (bursts, Fig. 1b).
    pub peak_factor: f64,
    /// Redundancy multiplier for fault tolerance (§7.5 "redundant
    /// resources that exceed the minimum requirements"). Applied to both
    /// deployments, so the *saving ratio* is redundancy-independent.
    pub redundancy: f64,
    /// Minimum dedicated instances per model (availability floor).
    pub min_instances: u32,
    /// Utilization target the shared pool is sized for.
    pub pool_util_target: f64,
    /// Fraction of pool time lost to auto-scaling.
    pub switch_overhead: f64,
    /// Decode batch size assumed for throughput estimates.
    pub batch: usize,
    /// Mean request wall time assumed for the active-model count, seconds
    /// (outputs delivered near the TBT pace).
    pub mean_service_secs: f64,
    /// Concurrently *active* models one pooled TP-group sustains (≈ 7 for
    /// TP=1 per §7.2; fewer for TP=4 whose switches are larger).
    pub active_models_per_instance: f64,
}

impl PlannerConfig {
    /// Defaults calibrated against the §7.5 deployment facts.
    pub fn production_default() -> PlannerConfig {
        PlannerConfig {
            // Dedicated serving provisions for burst peaks (Figure 1b) at
            // comfortable utilization; production keeps hot instances near
            // a third busy (Figure 18 "Before (high load)" ≈ 34%).
            peak_factor: 5.0,
            redundancy: 2.0,
            min_instances: 2,
            pool_util_target: 0.6,
            switch_overhead: 0.10,
            // Sporadic traffic rarely accumulates deep batches.
            batch: 4,
            mean_service_secs: 25.0,
            active_models_per_instance: 7.0,
        }
    }
}

/// Sustainable request rate of one dedicated instance of `spec` on `gpu`.
pub fn instance_capacity_rps(gpu: &GpuSpec, d: &ModelDemand, batch: usize) -> f64 {
    let perf = PerfModel::new(gpu, &d.spec);
    let mean_ctx = (d.mean_input + d.mean_output / 2.0) as u64;
    let tokens_per_sec = perf.decode_token_rate(batch, mean_ctx);
    tokens_per_sec / d.mean_output.max(1.0)
}

/// Dedicated instances (before redundancy) one model needs.
pub fn dedicated_instances(gpu: &GpuSpec, d: &ModelDemand, cfg: &PlannerConfig) -> u32 {
    let cap = instance_capacity_rps(gpu, d, cfg.batch);
    let needed = (d.rate * cfg.peak_factor / cap).ceil() as u32;
    needed.max(cfg.min_instances)
}

/// GPUs needed by the dedicated ("before") deployment.
pub fn dedicated_gpus(gpu: &GpuSpec, demands: &[ModelDemand], cfg: &PlannerConfig) -> u64 {
    demands
        .iter()
        .map(|d| {
            let instances =
                (dedicated_instances(gpu, d, cfg) as f64 * cfg.redundancy).ceil() as u64;
            instances * d.spec.tp as u64
        })
        .sum()
}

/// GPUs needed by one Aegaeon pool serving `demands` (same TP degree).
///
/// Two constraints size the pool: aggregate *throughput* demand at the
/// target utilization, and the *active-model* floor — at any instant
/// `E[m] = Σ (1 − e^{−λT})` models are mid-request (Theorem 3.1), and one
/// pooled instance sustains only a bounded number of concurrently active
/// models at the token level (§7.2's "seven models per GPU"). One extra
/// instance covers the disaggregated prefill partition.
pub fn aegaeon_pool_gpus(gpu: &GpuSpec, demands: &[ModelDemand], cfg: &PlannerConfig) -> u64 {
    if demands.is_empty() {
        return 0;
    }
    let tp = demands[0].spec.tp as u64;
    let mut fractional = 0.0;
    let mut active = 0.0;
    for d in demands {
        assert_eq!(d.spec.tp as u64, tp, "one pool per TP configuration");
        let cap = instance_capacity_rps(gpu, d, cfg.batch);
        fractional += d.rate / cap;
        active += 1.0 - (-d.rate * cfg.mean_service_secs).exp();
    }
    let eff = cfg.pool_util_target * (1.0 - cfg.switch_overhead);
    let by_throughput = (fractional / eff).ceil();
    let per_inst = if tp > 1 {
        // Larger models switch slower; fewer concurrently active models fit.
        (cfg.active_models_per_instance / 2.0).max(1.0)
    } else {
        cfg.active_models_per_instance
    };
    let by_activity = (active / per_inst).ceil() + 1.0; // +1 prefill instance
    let instances = (by_throughput.max(by_activity).max(1.0) * cfg.redundancy).ceil() as u64;
    instances * tp
}

/// Empirically searches the minimum GPU pool that serves `trace` at
/// `threshold` SLO attainment — the paper's §3 objective ("minimize the
/// number of GPU instances N required to meet the SLOs for all models").
///
/// Instances are TP groups of `base.tp`; roughly a third of them prefill.
/// Returns `(total_gpus, attainment_at_that_size)`, or `None` if even
/// `max_gpus` misses the threshold.
pub fn search_min_pool(
    base: &AegaeonConfig,
    gpu: &GpuSpec,
    models: &[ModelSpec],
    trace: &Trace,
    slo: SloSpec,
    threshold: f64,
    max_gpus: u32,
) -> Option<(u32, f64)> {
    let tp = base.tp;
    let mut g = 2 * tp; // at least one prefill + one decoding instance
    while g <= max_gpus {
        let mut cfg = base.clone();
        cfg.cluster = ClusterSpec::homogeneous(
            1,
            NodeSpec {
                gpus: g,
                gpu: gpu.clone(),
                nic_bw: 25e9,
            },
        );
        let instances = (g / tp) as usize;
        cfg.prefill_instances = (instances / 3).max(1);
        let r = ServingSystem::run(&cfg, models, trace);
        let att = r.attainment(slo).ratio();
        if att >= threshold {
            return Some((g, att));
        }
        g += tp;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegaeon_model::Zoo;

    /// The §7.5 deployment mix: twenty-eight 1.8–7B models at TP=1 and
    /// nineteen 32–72B models at TP=4, rates 0.01–1.13 (mean 0.037... the
    /// paper's stated average over the mix).
    fn production_mix() -> (Vec<ModelDemand>, Vec<ModelDemand>) {
        let zoo = Zoo::standard();
        let small_bases = ["Qwen-1.8B", "Yi-6B", "Qwen-7B", "InternLM2.5-7B"];
        let large_bases = ["Yi-34B", "Qwen-72B"];
        let mut small = Vec::new();
        for i in 0..28 {
            let base = zoo.get(small_bases[i % small_bases.len()]).unwrap();
            small.push(ModelDemand {
                spec: base.with_tp(1),
                rate: 0.01 + 0.02 * (i as f64 % 5.0),
                mean_output: 250.0,
                mean_input: 330.0,
            });
        }
        let mut large = Vec::new();
        for i in 0..19 {
            let base = zoo.get(large_bases[i % large_bases.len()]).unwrap();
            large.push(ModelDemand {
                spec: base.with_tp(4),
                rate: if i == 0 {
                    1.13
                } else {
                    0.01 + 0.015 * (i as f64 % 4.0)
                },
                mean_output: 250.0,
                mean_input: 330.0,
            });
        }
        (small, large)
    }

    #[test]
    fn consolidation_saves_most_gpus() {
        let gpu = GpuSpec::h20();
        let cfg = PlannerConfig::production_default();
        let (small, large) = production_mix();
        let before = dedicated_gpus(&gpu, &small, &cfg) + dedicated_gpus(&gpu, &large, &cfg);
        let after = aegaeon_pool_gpus(&gpu, &small, &cfg) + aegaeon_pool_gpus(&gpu, &large, &cfg);
        let saving = 1.0 - after as f64 / before as f64;
        // Paper: 1,192 → 213 (82% saving). The shape — an order-of-GPUs
        // consolidation driven by sporadic rates — must reproduce.
        assert!(before > 200, "before = {before}");
        assert!(after < before / 3, "after = {after}, before = {before}");
        assert!(saving > 0.6, "saving = {saving:.2}");
    }

    #[test]
    fn min_pool_search_finds_a_small_pool_for_light_load() {
        use aegaeon_sim::{SimRng, SimTime};
        use aegaeon_workload::{LengthDist, TraceBuilder};
        let zoo = Zoo::standard();
        let models: Vec<ModelSpec> = Zoo::replicate(&zoo.market_band(), 8);
        let mut rng = SimRng::seed_from_u64(3);
        let trace = TraceBuilder::new(SimTime::from_secs_f64(150.0), LengthDist::sharegpt())
            .uniform_models(&mut rng, 8, 0.05)
            .build(&mut rng);
        let base = AegaeonConfig::small_testbed(1, 1);
        let (gpus, att) = search_min_pool(
            &base,
            &GpuSpec::h800(),
            &models,
            &trace,
            SloSpec::paper_default(),
            0.9,
            16,
        )
        .expect("a pool within 16 GPUs must suffice");
        assert!(
            gpus <= 6,
            "8 sporadic models should pool onto few GPUs, got {gpus}"
        );
        assert!(att >= 0.9);
    }

    #[test]
    fn capacity_is_several_rps_for_small_models() {
        let zoo = Zoo::standard();
        let d = ModelDemand {
            spec: zoo.get("Qwen-7B").unwrap().clone(),
            rate: 0.1,
            mean_output: 250.0,
            mean_input: 330.0,
        };
        let cap = instance_capacity_rps(&GpuSpec::h800(), &d, 16);
        assert!(cap > 1.0 && cap < 50.0, "cap {cap}");
    }

    #[test]
    #[should_panic(expected = "one pool per TP")]
    fn mixed_tp_pools_are_rejected() {
        let zoo = Zoo::standard();
        let mk = |tp| ModelDemand {
            spec: zoo.get("Qwen-7B").unwrap().with_tp(tp),
            rate: 0.1,
            mean_output: 250.0,
            mean_input: 330.0,
        };
        let _ = aegaeon_pool_gpus(
            &GpuSpec::h20(),
            &[mk(1), mk(4)],
            &PlannerConfig::production_default(),
        );
    }
}
