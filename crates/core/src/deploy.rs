//! Per-model deployment state: latency models and size data.

use std::cell::OnceCell;

use aegaeon_engine::{fit_model, FittedModel, PerfModel, FIT_DRAWS};
use aegaeon_gpu::GpuSpec;
use aegaeon_model::{ModelId, ModelSpec};
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
    /// The profiling stream as it stood at this model's turn in
    /// [`build_deploys`]: a deferred fit draws from a copy of it.
    profile_rng: SimRng,
    /// Appendix A.2 estimator (drives scheduling decisions); read it
    /// through [`ModelDeploy::fitted`].
    fitted: OnceCell<FittedModel>,
    /// Weight bytes per GPU shard.
    pub shard_bytes: u64,
    /// KV bytes per token per GPU shard.
    pub kv_token_bytes: u64,
}

impl ModelDeploy {
    /// Deploys a model for `gpu` at TP degree `tp`, taking its profiling
    /// turn on `rng`. With `fit_now` the model is profiled and fitted here;
    /// otherwise its turn's draws are skipped and the fit is deferred to
    /// the first [`ModelDeploy::fitted`] call. Either way `rng` ends in the
    /// same state and the fit has the same value.
    pub(crate) fn new(
        spec: &ModelSpec,
        gpu: &GpuSpec,
        tp: u32,
        rng: &mut SimRng,
        fit_now: bool,
    ) -> ModelDeploy {
        let spec = spec.with_tp(tp);
        let perf = PerfModel::new(gpu, &spec);
        let profile_rng = rng.clone();
        let fitted = OnceCell::new();
        if fit_now {
            let _ = fitted.set(fit_model(&perf, &spec, rng));
        } else {
            rng.discard(FIT_DRAWS);
        }
        ModelDeploy {
            shard_bytes: spec.weight_bytes_per_gpu(),
            kv_token_bytes: spec.kv_bytes_per_token_per_gpu(),
            perf,
            profile_rng,
            fitted,
            spec,
        }
    }

    /// The fitted Eq. (5)/(6) estimator, fitted from this model's
    /// profiling turn on first use if [`build_deploys`] deferred it.
    pub(crate) fn fitted(&self) -> &FittedModel {
        self.fitted
            .get_or_init(|| fit_model(&self.perf, &self.spec, &mut self.profile_rng.clone()))
    }

    /// Whether the estimator has been fitted yet.
    pub(crate) fn is_fitted(&self) -> bool {
        self.fitted.get().is_some()
    }

    /// Eq. (4) switch-time estimate, seconds.
    pub(crate) fn est_switch_secs(&self, pcie_bw: f64) -> f64 {
        aegaeon_engine::analytical::estimate_switch_secs(self.shard_bytes, pcie_bw, BETA)
    }
}

/// Builds the deployment table for a model list, fitting now exactly the
/// models `fit_now` selects. Each model takes its profiling turn on `rng`
/// in list order, fitted or not, so `rng` leaves in the same state and
/// every fit (now or deferred) is bit-identical to a table that fitted
/// all of them.
pub fn build_deploys(
    models: &[ModelSpec],
    gpu: &GpuSpec,
    tp: u32,
    rng: &mut SimRng,
    fit_now: impl Fn(ModelId) -> bool,
) -> Vec<ModelDeploy> {
    models
        .iter()
        .enumerate()
        .map(|(i, m)| ModelDeploy::new(m, gpu, tp, rng, fit_now(ModelId(i as u32))))
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
        let d = ModelDeploy::new(
            zoo.get("LLaMA-13B").unwrap(),
            &GpuSpec::h800(),
            2,
            &mut rng,
            true,
        );
        assert_eq!(d.spec.tp, 2);
        assert_eq!(
            d.shard_bytes,
            zoo.get("LLaMA-13B").unwrap().weight_bytes() / 2
        );
        assert_eq!(d.kv_token_bytes, 800 * 1024 / 2);
        assert!(d.fitted().r2_decode > 0.9);
    }

    #[test]
    fn switch_estimate_scales_with_size() {
        let zoo = Zoo::standard();
        let mut rng = SimRng::seed_from_u64(1);
        let small = ModelDeploy::new(
            zoo.get("Yi-6B").unwrap(),
            &GpuSpec::h800(),
            1,
            &mut rng,
            true,
        );
        let big = ModelDeploy::new(
            zoo.get("Qwen-14B").unwrap(),
            &GpuSpec::h800(),
            1,
            &mut rng,
            true,
        );
        assert!(big.est_switch_secs(32e9) > small.est_switch_secs(32e9));
    }

    #[test]
    fn switch_estimate_applies_the_eq4_beta() {
        let zoo = Zoo::standard();
        let mut rng = SimRng::seed_from_u64(1);
        let d = ModelDeploy::new(
            zoo.get("LLaMA-13B").unwrap(),
            &GpuSpec::h800(),
            2,
            &mut rng,
            true,
        );
        let raw = d.shard_bytes as f64 / 32e9;
        assert_eq!(
            d.est_switch_secs(32e9),
            aegaeon_engine::analytical::estimate_switch_secs(d.shard_bytes, 32e9, 1.25)
        );
        assert!((d.est_switch_secs(32e9) - 1.25 * raw).abs() < 1e-12);
    }

    #[test]
    fn a_deferred_fit_matches_the_eager_one_bit_for_bit() {
        let models = Zoo::replicate(&Zoo::standard().market_band(), 4);
        let gpu = GpuSpec::h800();
        let mut eager_rng = SimRng::seed_from_u64(29);
        let eager = build_deploys(&models, &gpu, 1, &mut eager_rng, |_| true);
        // Fit only the last model now: every earlier one is skipped, so
        // its fit comes later from its own snapshot.
        let last = ModelId(models.len() as u32 - 1);
        let mut lazy_rng = SimRng::seed_from_u64(29);
        let lazy = build_deploys(&models, &gpu, 1, &mut lazy_rng, |m| m == last);
        assert_eq!(
            eager_rng.f64(),
            lazy_rng.f64(),
            "the main stream leaves alike"
        );
        let fitted: Vec<bool> = lazy.iter().map(ModelDeploy::is_fitted).collect();
        assert_eq!(fitted.iter().filter(|&&f| f).count(), 1);
        assert!(fitted[last.0 as usize]);
        for (e, l) in eager.iter().zip(&lazy) {
            // `{:?}` prints every coefficient and both R² in round-trip
            // precision, so equal text is equal bits.
            assert_eq!(format!("{:?}", e.fitted()), format!("{:?}", l.fitted()));
        }
        assert!(lazy.iter().all(ModelDeploy::is_fitted));
    }
}
