//! Diurnal (time-varying) arrival processes.
//!
//! Production traffic follows day/night cycles on top of the Poisson noise
//! (the 70-hour utilization timeline of Figure 18 shows the pattern). This
//! models a non-homogeneous Poisson process with a sinusoidal rate,
//! sampled by thinning.

use aegaeon_sim::{SimRng, SimTime};

/// A sinusoidally modulated Poisson process.
#[derive(Debug, Clone, Copy)]
pub struct DiurnalProcess {
    /// Mean rate, req/s.
    pub mean_rate: f64,
    /// Relative amplitude in `[0, 1)`: rate swings between
    /// `mean·(1−amp)` and `mean·(1+amp)`.
    pub amplitude: f64,
    /// Cycle period, seconds (86_400 for a day).
    pub period_secs: f64,
    /// Phase offset in `[0, 1)` of a period (staggers models' peaks).
    pub phase: f64,
}

impl DiurnalProcess {
    /// Instantaneous rate at time `t` (seconds).
    pub(crate) fn rate_at(&self, t: f64) -> f64 {
        let theta = std::f64::consts::TAU * (t / self.period_secs + self.phase);
        (self.mean_rate * (1.0 + self.amplitude * theta.sin())).max(0.0)
    }

    /// Samples arrivals over `[0, horizon)` by thinning a homogeneous
    /// process at the peak rate.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ amplitude < 1` and the rate/period are positive.
    pub fn arrivals(&self, rng: &mut SimRng, horizon: SimTime) -> Vec<SimTime> {
        assert!(
            (0.0..1.0).contains(&self.amplitude),
            "amplitude must be in [0, 1)"
        );
        assert!(self.period_secs > 0.0, "period must be positive");
        let mut out = Vec::new();
        if self.mean_rate <= 0.0 {
            return out;
        }
        let peak = self.mean_rate * (1.0 + self.amplitude);
        let end = horizon.as_secs_f64();
        let mut t = 0.0;
        loop {
            t += rng.exp(peak);
            if t >= end {
                return out;
            }
            // Thinning: accept with probability rate(t)/peak.
            if rng.f64() * peak <= self.rate_at(t) {
                out.push(SimTime::from_secs_f64(t));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_rate_is_preserved() {
        let p = DiurnalProcess {
            mean_rate: 0.5,
            amplitude: 0.6,
            period_secs: 1000.0,
            phase: 0.0,
        };
        let mut rng = SimRng::seed_from_u64(1);
        let horizon = SimTime::from_secs_f64(50_000.0); // 50 full cycles
        let arr = p.arrivals(&mut rng, horizon);
        let rate = arr.len() as f64 / 50_000.0;
        assert!((rate - 0.5).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn peaks_and_troughs_differ() {
        let p = DiurnalProcess {
            mean_rate: 1.0,
            amplitude: 0.8,
            period_secs: 2000.0,
            phase: 0.0,
        };
        let mut rng = SimRng::seed_from_u64(2);
        let arr = p.arrivals(&mut rng, SimTime::from_secs_f64(20_000.0));
        // First quarter-cycle (rising, near peak) vs third quarter (trough).
        let count_in = |lo: f64, hi: f64| {
            arr.iter()
                .filter(|t| {
                    let s = t.as_secs_f64() % 2000.0;
                    s >= lo && s < hi
                })
                .count() as f64
        };
        let peak_window = count_in(250.0, 750.0); // sin ≈ +1 around t=500
        let trough_window = count_in(1250.0, 1750.0); // sin ≈ −1 around t=1500
        assert!(
            peak_window > trough_window * 3.0,
            "peak {peak_window} vs trough {trough_window}"
        );
    }

    #[test]
    fn phase_staggers_the_peak() {
        let a = DiurnalProcess {
            mean_rate: 1.0,
            amplitude: 0.9,
            period_secs: 100.0,
            phase: 0.0,
        };
        let b = DiurnalProcess { phase: 0.5, ..a };
        assert!(a.rate_at(25.0) > 1.5);
        assert!(b.rate_at(25.0) < 0.5);
    }

    #[test]
    fn zero_rate_is_empty() {
        let p = DiurnalProcess {
            mean_rate: 0.0,
            amplitude: 0.5,
            period_secs: 100.0,
            phase: 0.0,
        };
        let mut rng = SimRng::seed_from_u64(3);
        assert!(p.arrivals(&mut rng, SimTime::from_secs_f64(100.0)).is_empty());
    }
}
