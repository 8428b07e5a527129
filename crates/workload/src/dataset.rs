//! Request length distributions.
//!
//! The paper samples prompts from ShareGPT and derives two variants by
//! doubling input (`ShareGPT-ix2`) or output (`ShareGPT-ox2`) lengths
//! (§7.1). We model the length marginals with log-normal distributions
//! calibrated to published ShareGPT statistics (mean prompt ≈ 330 tokens,
//! mean output ≈ 250 tokens, heavy right tails); content is irrelevant to
//! scheduling.

use aegaeon_sim::SimRng;
use serde::{Deserialize, Serialize};

/// A log-normal input/output token length distribution.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LengthDist {
    /// Mean prompt length (tokens).
    pub(crate) input_mean: f64,
    /// Sigma of the underlying normal for inputs.
    pub(crate) input_sigma: f64,
    /// Mean output length (tokens).
    pub(crate) output_mean: f64,
    /// Sigma of the underlying normal for outputs.
    pub(crate) output_sigma: f64,
    /// Clamp for inputs.
    pub(crate) max_input: u32,
    /// Clamp for outputs.
    pub(crate) max_output: u32,
}

impl LengthDist {
    /// ShareGPT-like lengths.
    pub fn sharegpt() -> LengthDist {
        LengthDist {
            input_mean: 330.0,
            input_sigma: 1.0,
            output_mean: 250.0,
            output_sigma: 0.85,
            max_input: 8192,
            max_output: 4096,
        }
    }

    /// ShareGPT with input lengths scaled 2× (`ShareGPT-ix2`).
    pub fn sharegpt_ix2() -> LengthDist {
        let mut d = Self::sharegpt();
        d.input_mean *= 2.0;
        d
    }

    /// ShareGPT with output lengths scaled 2× (`ShareGPT-ox2`).
    pub fn sharegpt_ox2() -> LengthDist {
        let mut d = Self::sharegpt();
        d.output_mean *= 2.0;
        d
    }

    /// Samples `(input_tokens, output_tokens)`.
    pub fn sample(&self, rng: &mut SimRng) -> (u32, u32) {
        let i = self.input_mean_sample(rng);
        let o = rng
            .lognormal_mean(self.output_mean, self.output_sigma)
            .round()
            .clamp(1.0, self.max_output as f64) as u32;
        (i, o)
    }

    fn input_mean_sample(&self, rng: &mut SimRng) -> u32 {
        rng.lognormal_mean(self.input_mean, self.input_sigma)
            .round()
            .clamp(4.0, self.max_input as f64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_means(d: &LengthDist, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut si = 0.0;
        let mut so = 0.0;
        for _ in 0..n {
            let (i, o) = d.sample(&mut rng);
            si += i as f64;
            so += o as f64;
        }
        (si / n as f64, so / n as f64)
    }

    #[test]
    fn sharegpt_means_are_calibrated() {
        let (mi, mo) = empirical_means(&LengthDist::sharegpt(), 50_000, 1);
        // Clamping shaves a little off the heavy tail; allow 10%.
        assert!((mi - 330.0).abs() / 330.0 < 0.10, "input mean {mi}");
        assert!((mo - 250.0).abs() / 250.0 < 0.10, "output mean {mo}");
    }

    #[test]
    fn variants_scale_the_right_marginal() {
        let (mi, mo) = empirical_means(&LengthDist::sharegpt(), 30_000, 2);
        let (mi2, mo2) = empirical_means(&LengthDist::sharegpt_ix2(), 30_000, 2);
        let (mi3, mo3) = empirical_means(&LengthDist::sharegpt_ox2(), 30_000, 2);
        assert!((mi2 / mi - 2.0).abs() < 0.15, "ix2 input ratio {}", mi2 / mi);
        assert!((mo2 / mo - 1.0).abs() < 0.05);
        assert!((mi3 / mi - 1.0).abs() < 0.05);
        assert!((mo3 / mo - 2.0).abs() < 0.15, "ox2 output ratio {}", mo3 / mo);
    }

    #[test]
    fn samples_respect_clamps() {
        let d = LengthDist {
            input_mean: 10_000.0,
            input_sigma: 1.5,
            output_mean: 10_000.0,
            output_sigma: 1.5,
            max_input: 512,
            max_output: 256,
        };
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let (i, o) = d.sample(&mut rng);
            assert!((4..=512).contains(&i));
            assert!((1..=256).contains(&o));
        }
    }
}
