//! Order statistics: exact nearest-rank percentiles for latency samples and
//! Python-compatible quartiles for run-to-run spread.

/// Exact nearest-rank percentile (`p` in `[0, 100]`): the smallest sample
/// with at least `p`% of the samples at or below it. Selects in linear time
/// (the sample buffer is reordered). `None` for an empty sample.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    let (_, v, _) = samples.select_nth_unstable_by(idx, f64::total_cmp);
    Some(*v)
}

/// Median of a sample (mean of the two middle values for even counts, as
/// Python's `statistics.median`). `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First and third quartiles by Python's `statistics.quantiles(data, n=4)`
/// (the default "exclusive" method), so spreads printed here match the ones
/// a Python check computes from the same values. A single sample is its own
/// quartiles. `None` for an empty sample.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return None,
        1 => return Some((v[0], v[0])),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Lower bound on the wall time of `parts` run on `workers` threads: the
/// larger of the perfectly balanced share and the longest single part.
pub fn makespan_bound(parts: &[f64], workers: usize) -> f64 {
    let sum: f64 = parts.iter().sum();
    let longest = parts.iter().copied().fold(0.0, f64::max);
    (sum / workers.max(1) as f64).max(longest)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sorted-vector oracle for the nearest-rank definition.
    fn oracle(samples: &[f64], p: f64) -> f64 {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.max(1) - 1]
    }

    #[test]
    fn percentile_matches_sorted_oracle() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 6000] {
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 10_000) as f64 / 7.0
                })
                .collect();
            for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let mut buf = samples.clone();
                assert_eq!(
                    percentile(&mut buf, p),
                    Some(oracle(&samples, p)),
                    "n={n} p={p}"
                );
            }
        }
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    /// Makespan of the longest-processing-time-first greedy schedule: an
    /// achievable schedule, so it can never beat the lower bound.
    fn lpt_makespan(parts: &[f64], workers: usize) -> f64 {
        let mut sorted = parts.to_vec();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let mut loads = vec![0.0f64; workers];
        for p in sorted {
            let least = loads
                .iter_mut()
                .min_by(|a, b| a.total_cmp(b))
                .expect("at least one worker");
            *least += p;
        }
        loads.into_iter().fold(0.0, f64::max)
    }

    #[test]
    fn makespan_bound_is_balanced_share_or_longest_part() {
        // Balanced: 4 equal parts on 2 workers finish in half the sum.
        assert_eq!(makespan_bound(&[1.0, 1.0, 1.0, 1.0], 2), 2.0);
        // One dominant part: nothing beats running it alone.
        assert_eq!(makespan_bound(&[5.0, 1.0, 1.0], 2), 5.0);
        // More workers than parts: the longest part bounds it.
        assert_eq!(makespan_bound(&[2.0, 3.0], 8), 3.0);
        // The ideal speedup it implies never exceeds the worker count, and
        // the bound never exceeds what an LPT schedule achieves, which in
        // turn stays within Graham's list-scheduling guarantee.
        let parts = [0.9, 1.1, 1.0, 1.2, 0.8, 1.0, 0.3, 2.1];
        let sum: f64 = parts.iter().sum();
        for workers in 1..=6 {
            let bound = makespan_bound(&parts, workers);
            let lpt = lpt_makespan(&parts, workers);
            assert!(sum / bound <= workers as f64 + 1e-12);
            assert!(bound <= lpt + 1e-12, "workers={workers}");
            assert!(
                lpt <= sum / workers as f64 + 2.1 + 1e-12,
                "workers={workers}"
            );
        }
    }
}
