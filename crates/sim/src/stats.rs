//! Small online statistics helpers shared across crates.

/// Welford's online mean accumulator, with the running min and max.
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
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
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

    /// Smallest sample seen (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = (self.n + other.n) as f64;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n;
        self.n += other.n;
        self.mean = mean;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_min_max_sum_match_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
        assert!((w.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 3 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert!((a.sum() - whole.sum()).abs() < 1e-9);
    }

    #[test]
    fn empty_accumulator_is_sane() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.sum(), 0.0);
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn merge_of_two_empties_stays_empty() {
        let mut a = Welford::new();
        a.merge(&Welford::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.sum(), 0.0);
        assert_eq!(a.min(), f64::INFINITY);
        assert_eq!(a.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn merge_empty_into_populated_is_identity() {
        let mut a = Welford::new();
        for x in [1.0, 2.0, 3.0] {
            a.push(x);
        }
        let before = (a.count(), a.mean(), a.min(), a.max(), a.sum());
        a.merge(&Welford::new());
        assert_eq!((a.count(), a.mean(), a.min(), a.max(), a.sum()), before);
    }

    #[test]
    fn merge_populated_into_empty_copies_everything() {
        let mut src = Welford::new();
        for x in [4.0, 6.0, 11.0] {
            src.push(x);
        }
        let mut a = Welford::new();
        a.merge(&src);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), src.mean());
        assert_eq!(a.sum(), src.sum());
        assert_eq!(a.min(), 4.0);
        assert_eq!(a.max(), 11.0);
    }

    #[test]
    fn merge_single_samples_matches_push_order_independent() {
        // Two singleton accumulators merged either way agree with a plain
        // two-sample push (the weighted-mean update's base case).
        let mut a = Welford::new();
        a.push(3.0);
        let mut b = Welford::new();
        b.push(9.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        let mut whole = Welford::new();
        whole.push(3.0);
        whole.push(9.0);
        for w in [&ab, &ba] {
            assert_eq!(w.count(), 2);
            assert!((w.mean() - whole.mean()).abs() < 1e-12);
            assert_eq!(w.min(), 3.0);
            assert_eq!(w.max(), 9.0);
            assert!((w.sum() - whole.sum()).abs() < 1e-12);
        }
    }

    #[test]
    fn single_sample_is_its_own_mean_min_and_max() {
        let mut w = Welford::new();
        w.push(-3.5);
        assert_eq!(w.count(), 1);
        assert_eq!((w.mean(), w.min(), w.max(), w.sum()), (-3.5, -3.5, -3.5, -3.5));
    }
}
