//! Small online statistics helpers shared across crates.

/// Welford's online mean accumulator.
///
/// # Examples
///
/// ```
/// use aegaeon_sim::Welford;
///
/// let mut w = Welford::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 2.5);
/// assert_eq!(w.count(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_matches_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn empty_accumulator_is_sane() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn single_sample_is_its_own_mean() {
        let mut w = Welford::new();
        w.push(-3.5);
        assert_eq!(w.count(), 1);
        assert_eq!(w.mean(), -3.5);
    }
}
