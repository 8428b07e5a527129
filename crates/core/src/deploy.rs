//! Per-model deployment state: latency models and size data.

use aegaeon_engine::{fit_model, FittedModel, PerfModel};
use aegaeon_gpu::GpuSpec;
use aegaeon_model::ModelSpec;
use aegaeon_sim::SimRng;

/// Eq. (4) switch-estimate correction factor β (×`size/bw`).
const BETA: f64 = 1.25;

/// A model as deployed: its spec plus ground-truth and fitted latency
/// models for the cluster's GPU type.
#[derive(Debug, Clone)]
pub struct ModelDeploy {
    /// The architecture (with the deployment's TP degree).
    pub(crate) spec: ModelSpec,
    /// Ground-truth latency (drives execution).
    pub perf: PerfModel,
    /// Appendix A.2 estimator (drives scheduling decisions).
    pub(crate) fitted: FittedModel,
    /// Weight bytes per GPU shard.
    pub shard_bytes: u64,
    /// KV bytes per token per GPU shard.
    pub kv_token_bytes: u64,
}

impl ModelDeploy {
    /// Profiles and fits a model for `gpu` at TP degree `tp`.
    pub(crate) fn new(spec: &ModelSpec, gpu: &GpuSpec, tp: u32, rng: &mut SimRng) -> ModelDeploy {
        let spec = spec.with_tp(tp);
        let perf = PerfModel::new(gpu, &spec);
        let fitted = fit_model(&perf, &spec, rng);
        ModelDeploy {
            shard_bytes: spec.weight_bytes_per_gpu(),
            kv_token_bytes: spec.kv_bytes_per_token_per_gpu(),
            perf,
            fitted,
            spec,
        }
    }

    /// Eq. (4) switch-time estimate, seconds.
    pub(crate) fn est_switch_secs(&self, pcie_bw: f64) -> f64 {
        aegaeon_engine::analytical::estimate_switch_secs(self.shard_bytes, pcie_bw, BETA)
    }
}

/// Builds the deployment table for a model list.
pub fn build_deploys(
    models: &[ModelSpec],
    gpu: &GpuSpec,
    tp: u32,
    rng: &mut SimRng,
) -> Vec<ModelDeploy> {
    models
        .iter()
        .map(|m| ModelDeploy::new(m, gpu, tp, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegaeon_model::Zoo;

    #[test]
    fn deploy_builds_consistent_sizes() {
        let zoo = Zoo::standard();
        let mut rng = SimRng::seed_from_u64(1);
        let d = ModelDeploy::new(zoo.get("LLaMA-13B").unwrap(), &GpuSpec::h800(), 2, &mut rng);
        assert_eq!(d.spec.tp, 2);
        assert_eq!(
            d.shard_bytes,
            zoo.get("LLaMA-13B").unwrap().weight_bytes() / 2
        );
        assert_eq!(d.kv_token_bytes, 800 * 1024 / 2);
        assert!(d.fitted.r2_decode > 0.9);
    }

    #[test]
    fn switch_estimate_scales_with_size() {
        let zoo = Zoo::standard();
        let mut rng = SimRng::seed_from_u64(1);
        let small = ModelDeploy::new(zoo.get("Yi-6B").unwrap(), &GpuSpec::h800(), 1, &mut rng);
        let big = ModelDeploy::new(zoo.get("Qwen-14B").unwrap(), &GpuSpec::h800(), 1, &mut rng);
        assert!(big.est_switch_secs(32e9) > small.est_switch_secs(32e9));
    }

    #[test]
    fn switch_estimate_applies_the_eq4_beta() {
        let zoo = Zoo::standard();
        let mut rng = SimRng::seed_from_u64(1);
        let d = ModelDeploy::new(zoo.get("LLaMA-13B").unwrap(), &GpuSpec::h800(), 2, &mut rng);
        let raw = d.shard_bytes as f64 / 32e9;
        assert_eq!(
            d.est_switch_secs(32e9),
            aegaeon_engine::analytical::estimate_switch_secs(d.shard_bytes, 32e9, 1.25)
        );
        assert!((d.est_switch_secs(32e9) - 1.25 * raw).abs() < 1e-12);
    }
}
