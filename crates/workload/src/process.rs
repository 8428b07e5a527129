//! Arrival processes: Poisson and two-state burst (MMPP).

use aegaeon_sim::{SimRng, SimTime};

/// Arrival instants of a Poisson process with rate `rate` (req/s) over
/// `[0, horizon)`.
pub(crate) fn poisson_arrivals(rng: &mut SimRng, rate: f64, horizon: SimTime) -> Vec<SimTime> {
    let mut out = Vec::new();
    if rate <= 0.0 {
        return out;
    }
    let mut t = 0.0;
    let end = horizon.as_secs_f64();
    loop {
        t += rng.exp(rate);
        if t >= end {
            return out;
        }
        out.push(SimTime::from_secs_f64(t));
    }
}

/// A Markov-modulated Poisson process alternating between a base rate and a
/// burst rate, reproducing the short-term bursts on hot models (Figure 1b).
#[derive(Debug, Clone, Copy)]
pub struct BurstProcess {
    /// Rate outside bursts (req/s).
    pub base_rate: f64,
    /// Rate during bursts (req/s).
    pub burst_rate: f64,
    /// Mean duration of quiet periods (s).
    pub mean_quiet: f64,
    /// Mean duration of bursts (s).
    pub mean_burst: f64,
}

impl BurstProcess {
    /// Generates arrivals over `[0, horizon)`.
    pub fn arrivals(&self, rng: &mut SimRng, horizon: SimTime) -> Vec<SimTime> {
        let mut out = Vec::new();
        let end = horizon.as_secs_f64();
        let mut t = 0.0;
        let mut bursting = false;
        while t < end {
            let sojourn = if bursting {
                rng.exp(1.0 / self.mean_burst)
            } else {
                rng.exp(1.0 / self.mean_quiet)
            };
            let rate = if bursting { self.burst_rate } else { self.base_rate };
            let phase_end = (t + sojourn).min(end);
            if rate > 0.0 {
                let mut a = t;
                loop {
                    a += rng.exp(rate);
                    if a >= phase_end {
                        break;
                    }
                    out.push(SimTime::from_secs_f64(a));
                }
            }
            t = phase_end;
            bursting = !bursting;
        }
        out
    }

    /// Long-run average rate.
    pub fn mean_rate(&self) -> f64 {
        (self.base_rate * self.mean_quiet + self.burst_rate * self.mean_burst)
            / (self.mean_quiet + self.mean_burst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_is_respected() {
        let mut rng = SimRng::seed_from_u64(1);
        let horizon = SimTime::from_secs_f64(10_000.0);
        let arr = poisson_arrivals(&mut rng, 0.5, horizon);
        let rate = arr.len() as f64 / 10_000.0;
        assert!((rate - 0.5).abs() < 0.03, "rate {rate}");
        assert!(arr.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(arr.iter().all(|&t| t < horizon));
    }

    #[test]
    fn zero_rate_yields_nothing() {
        let mut rng = SimRng::seed_from_u64(1);
        assert!(poisson_arrivals(&mut rng, 0.0, SimTime::from_secs_f64(100.0)).is_empty());
    }

    #[test]
    fn burst_process_mean_rate() {
        let p = BurstProcess {
            base_rate: 1.0,
            burst_rate: 10.0,
            mean_quiet: 90.0,
            mean_burst: 10.0,
        };
        assert!((p.mean_rate() - 1.9).abs() < 1e-9);
        let mut rng = SimRng::seed_from_u64(7);
        let horizon = SimTime::from_secs_f64(50_000.0);
        let arr = p.arrivals(&mut rng, horizon);
        let rate = arr.len() as f64 / 50_000.0;
        assert!((rate - 1.9).abs() < 0.15, "rate {rate}");
    }

    #[test]
    fn bursts_create_rate_spikes() {
        let p = BurstProcess {
            base_rate: 1.0,
            burst_rate: 50.0,
            mean_quiet: 60.0,
            mean_burst: 20.0,
        };
        let mut rng = SimRng::seed_from_u64(11);
        let arr = p.arrivals(&mut rng, SimTime::from_secs_f64(2_000.0));
        // Bucket into 10 s windows; the max window must far exceed the base.
        let mut buckets = vec![0u32; 200];
        for t in &arr {
            buckets[(t.as_secs_f64() / 10.0) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap() as f64 / 10.0;
        let min = *buckets.iter().min().unwrap() as f64 / 10.0;
        assert!(max > 20.0, "max windowed rate {max}");
        assert!(min < 5.0, "min windowed rate {min}");
    }
}
