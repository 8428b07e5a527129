//! Deterministic randomness for simulations.
//!
//! All stochastic inputs (arrival processes, request lengths, latency noise)
//! draw from a [`SimRng`] seeded once per experiment; identical seeds yield
//! identical traces, which an integration test asserts end to end.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp, LogNormal};

/// Derives an independent seed from a base seed and an index (SplitMix64
/// mix), so sweep points and shards decorrelate without depending on
/// evaluation order or shard count.
pub fn derive_seed(base: u64, idx: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9e3779b97f4a7c15)
        .wrapping_add(idx.wrapping_mul(0xbf58476d1ce4e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A seeded random source with the distributions the workloads need.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Splits off an independent generator (for per-component streams).
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.inner.gen())
    }

    /// Uniform sample in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        self.inner.gen_range(0..n)
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.inner.gen_range(lo..hi)
    }

    /// Exponential sample with rate `lambda` (mean `1/lambda`).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive.
    pub fn exp(&mut self, lambda: f64) -> f64 {
        Exp::new(lambda)
            .expect("exp rate must be positive")
            .sample(&mut self.inner)
    }

    /// Log-normal sample parameterized by the *target* mean and the sigma of
    /// the underlying normal (a common fit for LLM request lengths).
    pub fn lognormal_mean(&mut self, mean: f64, sigma: f64) -> f64 {
        // E[LogNormal(mu, sigma)] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
        let mu = mean.ln() - sigma * sigma / 2.0;
        LogNormal::new(mu, sigma)
            .expect("lognormal parameters must be finite")
            .sample(&mut self.inner)
    }

    /// Multiplicative noise factor `exp(N(0, sigma))`, used for latency jitter.
    pub fn noise(&mut self, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return 1.0;
        }
        LogNormal::new(0.0, sigma)
            .expect("noise sigma must be finite")
            .sample(&mut self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.f64(), b.f64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.f64() == b.f64()).count();
        assert!(same < 4);
    }

    #[test]
    fn exp_mean_is_one_over_lambda() {
        let mut r = SimRng::seed_from_u64(42);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exp(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn lognormal_hits_target_mean() {
        let mut r = SimRng::seed_from_u64(42);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.lognormal_mean(300.0, 0.8)).sum::<f64>() / n as f64;
        assert!((mean - 300.0).abs() / 300.0 < 0.05, "mean {mean}");
    }

    #[test]
    fn noise_with_zero_sigma_is_identity() {
        let mut r = SimRng::seed_from_u64(3);
        assert_eq!(r.noise(0.0), 1.0);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut a = SimRng::seed_from_u64(5);
        let mut c = a.fork();
        // Consuming from the fork must not disturb the parent's determinism.
        let mut b = SimRng::seed_from_u64(5);
        let _ = b.fork();
        let _: Vec<f64> = (0..10).map(|_| c.f64()).collect();
        for _ in 0..10 {
            assert_eq!(a.f64(), b.f64());
        }
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = SimRng::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            let i = r.below(5);
            assert!(i < 5);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn range_f64_stays_in_its_half_open_range_and_replays() {
        let mut a = SimRng::seed_from_u64(21);
        let xs: Vec<f64> = (0..1000).map(|_| a.range_f64(-2.0, 3.0)).collect();
        assert!(xs.iter().all(|&x| (-2.0..3.0).contains(&x)));
        // The samples spread over the range rather than sticking to an end.
        assert!(xs.iter().any(|&x| x < -1.0) && xs.iter().any(|&x| x > 2.0));
        let mut b = SimRng::seed_from_u64(21);
        let ys: Vec<f64> = (0..1000).map(|_| b.range_f64(-2.0, 3.0)).collect();
        assert_eq!(xs, ys, "same seed, same samples");
    }
}
