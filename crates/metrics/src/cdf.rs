//! Empirical CDFs (Figures 15 and 1a).

/// A sample collector with quantile and CDF-curve queries.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Cdf::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite CDF sample");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub(crate) fn count(&self) -> usize {
        self.samples.len()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`q` in `[0,1]`), by linear interpolation.
    ///
    /// # Panics
    ///
    /// Panics if empty or `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        assert!(!self.samples.is_empty(), "quantile of empty CDF");
        self.ensure_sorted();
        let n = self.samples.len();
        if n == 1 {
            return self.samples[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
    }

    /// Fraction of samples at or below `x`.
    pub fn prob_at_most(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let k = self.samples.partition_point(|&s| s <= x);
        k as f64 / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_data() {
        let mut c = Cdf::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            c.push(x);
        }
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 5.0);
        assert_eq!(c.quantile(0.5), 3.0);
        assert_eq!(c.quantile(0.25), 2.0);
    }

    #[test]
    fn prob_at_most_is_consistent() {
        let mut c = Cdf::new();
        for x in 0..100 {
            c.push(x as f64);
        }
        assert!((c.prob_at_most(49.0) - 0.5).abs() < 1e-9);
        assert_eq!(c.prob_at_most(-1.0), 0.0);
        assert_eq!(c.prob_at_most(1000.0), 1.0);
    }

    #[test]
    fn push_after_query_resorts() {
        let mut c = Cdf::new();
        c.push(10.0);
        assert_eq!(c.quantile(1.0), 10.0);
        c.push(1.0);
        assert_eq!(c.quantile(0.0), 1.0);
    }

    #[test]
    fn quantile_interpolates_between_neighbours() {
        let mut c = Cdf::new();
        c.push(10.0);
        c.push(0.0);
        assert_eq!(c.quantile(0.1), 1.0);
        assert_eq!(c.quantile(0.75), 7.5);
        assert_eq!(c.count(), 2);
    }

    #[test]
    fn empty_cdf_has_no_mass() {
        let mut c = Cdf::new();
        assert_eq!(c.count(), 0);
        assert_eq!(c.prob_at_most(f64::MAX), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile of empty CDF")]
    fn quantile_of_empty_panics() {
        let _ = Cdf::new().quantile(0.5);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_outside_unit_interval_panics() {
        let mut c = Cdf::new();
        c.push(1.0);
        let _ = c.quantile(1.5);
    }
}
