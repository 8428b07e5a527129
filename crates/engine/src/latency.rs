//! Ground-truth token-generation latency.
//!
//! The simulation needs a "physics" for how long prefill and decode steps
//! take. We derive it from hardware roofline parameters — the same
//! functional form the paper's Appendix A.2 fits empirically:
//!
//! * **Prefill** is compute-bound: GEMM FLOPs scale with the token count
//!   `t`, attention FLOPs with the squared lengths `t2`.
//! * **Decode** is bandwidth-bound: every step streams the weights plus the
//!   batch's accumulated KV cache from HBM.
//! * **Tensor parallelism** divides both terms across shards and adds a
//!   per-layer collective (all-reduce) latency.
//!
//! Calls that execute jobs apply multiplicative log-normal noise; the
//! schedulers' *estimates* come from [`crate::analytical`] instead.

use aegaeon_gpu::GpuSpec;
use aegaeon_model::ModelSpec;
use aegaeon_sim::{SimDur, SimRng};

/// Per-(GPU, model) ground-truth latency model.
#[derive(Debug, Clone)]
pub struct PerfModel {
    /// Linear FLOPs per prefilled token (≈ 2·params).
    flops_per_token: f64,
    /// Quadratic attention FLOPs coefficient (≈ 4·layers·hidden).
    attn_coeff: f64,
    /// Effective FLOP/s across all TP shards.
    eff_flops_total: f64,
    /// Weight bytes resident per GPU shard.
    weight_bytes_per_gpu: f64,
    /// KV bytes per token per GPU shard.
    kv_bytes_per_token_per_gpu: f64,
    /// Effective HBM bytes/s per GPU.
    eff_bw: f64,
    /// Per-step collective overhead for TP > 1 (seconds).
    collective: f64,
    /// Fixed prefill overhead (launch, sampling), seconds.
    prefill_const: f64,
    /// Fixed decode-step overhead, seconds.
    decode_const: f64,
    /// Relative noise sigma.
    noise_sigma: f64,
}

/// Latency of an all-reduce-style collective per layer per step, seconds.
const COLLECTIVE_PER_LAYER: f64 = 25e-6;

impl PerfModel {
    /// Builds the model for `model` served on `gpu` with the spec's TP
    /// degree.
    pub fn new(gpu: &GpuSpec, model: &ModelSpec) -> PerfModel {
        let tp = model.tp.max(1) as f64;
        let collective = if model.tp > 1 {
            // Two all-reduces per layer (attention + FFN).
            2.0 * model.layers as f64 * COLLECTIVE_PER_LAYER
        } else {
            0.0
        };
        PerfModel {
            flops_per_token: 2.0 * model.params as f64,
            attn_coeff: 4.0 * model.layers as f64 * model.hidden as f64,
            eff_flops_total: gpu.effective_flops() * tp,
            weight_bytes_per_gpu: model.weight_bytes_per_gpu() as f64,
            kv_bytes_per_token_per_gpu: model.kv_bytes_per_token_per_gpu() as f64,
            eff_bw: gpu.effective_hbm_bw(),
            collective,
            // Fixed per-step engine overheads (kernel launches, sampling,
            // scheduler). Calibrated so a 7B decode step at small batch is
            // ~12 ms on an H800 — the regime in which ~6-7 concurrently
            // active models per decoding GPU can still sustain the 100 ms
            // TBT pace, which is the paper's reported pooling frontier.
            prefill_const: 20e-3,
            decode_const: 5e-3,
            noise_sigma: 0.03,
        }
    }

    /// Mean prefill time for a batch with the given input lengths.
    pub(crate) fn prefill_mean_secs(&self, lens: &[u32]) -> f64 {
        let t: f64 = lens.iter().map(|&l| l as f64).sum();
        let t2: f64 = lens.iter().map(|&l| (l as f64) * (l as f64)).sum();
        (self.flops_per_token * t + self.attn_coeff * t2) / self.eff_flops_total
            + self.collective
            + self.prefill_const
    }

    /// Mean decode-step time for `batch` requests whose context lengths sum
    /// to `ctx_total` tokens.
    pub(crate) fn decode_mean_secs(&self, batch: usize, ctx_total: u64) -> f64 {
        debug_assert!(batch > 0, "decode step needs a non-empty batch");
        (self.weight_bytes_per_gpu + ctx_total as f64 * self.kv_bytes_per_token_per_gpu)
            / self.eff_bw
            + self.collective
            + self.decode_const
    }

    /// Samples an actual prefill duration (noise applied).
    pub fn prefill_secs(&self, lens: &[u32], rng: &mut SimRng) -> SimDur {
        SimDur::from_secs_f64(self.prefill_mean_secs(lens) * rng.noise(self.noise_sigma))
    }

    /// Samples an actual decode-step duration (noise applied).
    pub(crate) fn decode_secs(&self, batch: usize, ctx_total: u64, rng: &mut SimRng) -> SimDur {
        self.decode_step(batch, ctx_total, self.step_noise(rng))
    }

    /// Draws one step's noise factor, the multiplier
    /// [`PerfModel::decode_step`] applies to the mean.
    pub fn step_noise(&self, rng: &mut SimRng) -> f64 {
        rng.noise(self.noise_sigma)
    }

    /// A decode step's duration under a noise factor drawn ahead of it.
    pub fn decode_step(&self, batch: usize, ctx_total: u64, noise: f64) -> SimDur {
        SimDur::from_secs_f64(self.decode_mean_secs(batch, ctx_total) * noise)
    }

    /// Steady-state decode token rate at a given batch size and mean
    /// context (tokens/s across the batch); used for capacity planning.
    pub fn decode_token_rate(&self, batch: usize, mean_ctx: u64) -> f64 {
        batch as f64 / self.decode_mean_secs(batch, mean_ctx * batch as u64)
    }

    /// Disables noise, for tests that compare against the mean model.
    #[cfg(test)]
    pub(crate) fn without_noise(mut self) -> PerfModel {
        self.noise_sigma = 0.0;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegaeon_model::Zoo;

    fn qwen7() -> ModelSpec {
        Zoo::standard().get("Qwen-7B").unwrap().clone()
    }

    #[test]
    fn prefill_is_subsecond_on_h800() {
        // §4.2: "the time for a prefill batch regularly falls below one
        // second on contemporary GPUs".
        let pm = PerfModel::new(&GpuSpec::h800(), &qwen7());
        let t = pm.prefill_mean_secs(&[330]);
        assert!(t > 0.005 && t < 0.2, "prefill {t}s");
        let t8k = pm.prefill_mean_secs(&[8192]);
        assert!(t8k < 1.0, "8k prefill {t8k}s");
    }

    #[test]
    fn decode_step_is_tens_of_ms() {
        // §4.3: "t is typically small (e.g., tens of milliseconds)".
        let pm = PerfModel::new(&GpuSpec::h800(), &qwen7());
        let t = pm.decode_mean_secs(8, 8 * 500);
        assert!(t > 0.004 && t < 0.05, "decode {t}s");
    }

    #[test]
    fn single_model_gpu_sustains_several_rps() {
        // §2.2: single-model serving achieves up to several requests per
        // second per GPU. At batch 32, mean output 250 tokens:
        let pm = PerfModel::new(&GpuSpec::h800(), &qwen7());
        let rate = pm.decode_token_rate(32, 600);
        let rps = rate / 250.0;
        assert!(rps > 2.0, "rps {rps}");
    }

    #[test]
    fn tp_divides_work_but_adds_collectives() {
        let zoo = Zoo::standard();
        let m72 = zoo.get("Qwen-72B").unwrap().with_tp(4);
        let pm = PerfModel::new(&GpuSpec::h800(), &m72);
        let t = pm.decode_mean_secs(4, 4 * 500);
        // 36 GB per shard over 2.5 TB/s ≈ 14 ms + 4 ms collectives.
        assert!(t > 0.01 && t < 0.04, "72B TP4 decode {t}s");
        let pm1 = PerfModel::new(&GpuSpec::h800(), zoo.get("Qwen-72B").unwrap());
        assert!(
            pm1.decode_mean_secs(4, 2000) > t,
            "TP must shorten the step"
        );
    }

    #[test]
    fn longer_context_costs_more() {
        let pm = PerfModel::new(&GpuSpec::h800(), &qwen7());
        assert!(pm.decode_mean_secs(8, 16_000) > pm.decode_mean_secs(8, 1_000));
        assert!(pm.prefill_mean_secs(&[2000]) > pm.prefill_mean_secs(&[100]));
    }

    #[test]
    fn noise_is_small_and_centered() {
        let pm = PerfModel::new(&GpuSpec::h800(), &qwen7());
        let mut rng = SimRng::seed_from_u64(1);
        let mean = pm.decode_mean_secs(4, 1000);
        let n = 2000;
        let avg: f64 = (0..n)
            .map(|_| pm.decode_secs(4, 1000, &mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!((avg - mean).abs() / mean < 0.02, "avg {avg} vs {mean}");
    }

    #[test]
    fn without_noise_is_deterministic() {
        let pm = PerfModel::new(&GpuSpec::h800(), &qwen7()).without_noise();
        let mut rng = SimRng::seed_from_u64(1);
        let a = pm.decode_secs(4, 1000, &mut rng);
        let b = pm.decode_secs(4, 1000, &mut rng);
        assert_eq!(a, b);
    }

    #[test]
    fn prefill_noise_is_small_and_centered() {
        let pm = PerfModel::new(&GpuSpec::h800(), &qwen7());
        let mut rng = SimRng::seed_from_u64(2);
        let lens = [512, 1024, 96];
        let mean = pm.prefill_mean_secs(&lens);
        let n = 2000;
        let samples: Vec<f64> = (0..n)
            .map(|_| pm.prefill_secs(&lens, &mut rng).as_secs_f64())
            .collect();
        let avg = samples.iter().sum::<f64>() / n as f64;
        assert!((avg - mean).abs() / mean < 0.02, "avg {avg} vs {mean}");
        assert!(samples.iter().all(|&s| (s - mean).abs() / mean < 0.25));
    }
}
