//! Parallel sweep execution for the figure binaries.
//!
//! Every figure sweep evaluates an embarrassingly-parallel grid: each point
//! builds its own trace from a derived seed and runs one simulation, sharing
//! nothing with its neighbours. [`map`] fans those points across **scoped
//! threads** while keeping the output *bit-identical* to a serial run:
//! results are stitched back in input order, and determinism comes from
//! each point being a pure function of its inputs (so thread count and
//! completion order cannot leak into the numbers).
//!
//! Each call spawns `nt - 1` helper threads inside [`std::thread::scope`],
//! which lets them borrow `points` and `f` for the length of the call; the
//! calling thread works too. Work is claimed in chunks off a shared cursor,
//! so a slow point never leaves the other threads idle behind a static
//! partition. A nested sweep simply spawns its own helpers. A panic in any
//! point reaches the caller with its original payload.
//!
//! The thread count defaults to the machine's parallelism and can be pinned
//! with the `AEGAEON_SWEEP_THREADS` environment variable (`1` forces the
//! serial path, useful for timing comparisons).

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

pub use aegaeon_sim::derive_seed;

/// Environment variable overriding the sweep thread count.
pub const THREADS_ENV: &str = "AEGAEON_SWEEP_THREADS";

/// Upper bound on helper threads per sweep (backstop against absurd `nt`
/// requests, since `AEGAEON_SWEEP_THREADS` comes from outside).
const MAX_WORKERS: usize = 32;

/// The sweep thread count: `AEGAEON_SWEEP_THREADS` if set (minimum 1),
/// otherwise the machine's available parallelism.
pub fn threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Evaluates `f` over `points` on [`threads()`] threads, returning results
/// in input order. Equivalent to `points.iter().map(f).collect()` whenever
/// `f` is pure.
pub fn map<P, R, F>(points: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    map_with_threads(points, threads(), f)
}

/// Evaluates a figure's (series × x) grid through [`map`]: `f(s, x)` is
/// the `(x, y)` point at `x` of the series whose payload is `s`. Returns
/// each series' label with its points in `xs` order, series in input
/// order.
pub fn grid<S, X, F>(series: &[(String, S)], xs: &[X], f: F) -> Vec<(String, Vec<(f64, f64)>)>
where
    S: Sync,
    X: Sync,
    F: Fn(&S, &X) -> (f64, f64) + Sync,
{
    let points: Vec<(&S, &X)> = series
        .iter()
        .flat_map(|(_, s)| xs.iter().map(move |x| (s, x)))
        .collect();
    let mut ys = map(&points, |&(s, x)| f(s, x)).into_iter();
    let line = |(label, _): &(String, S)| (label.clone(), ys.by_ref().take(xs.len()).collect());
    series.iter().map(line).collect()
}

/// [`map`] with an explicit thread count: the calling thread plus up to
/// `nt - 1` scoped helper threads.
pub fn map_with_threads<P, R, F>(points: &[P], nt: usize, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let nt = nt.max(1).min(points.len().max(1));
    if nt == 1 {
        return points.iter().map(f).collect();
    }

    // Shared claim cursor; chunks amortize cursor contention while staying
    // small enough (≥ 4 chunks per thread) that stealing balances skew.
    let next = AtomicUsize::new(0);
    let chunk = (points.len() / (nt * 4)).max(1);
    let claim = || {
        let mut out = Vec::new();
        loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= points.len() {
                break out;
            }
            let end = (start + chunk).min(points.len());
            for (i, p) in points.iter().enumerate().take(end).skip(start) {
                out.push((i, f(p)));
            }
        }
    };

    let mut pairs = std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..(nt - 1).min(MAX_WORKERS))
            .map(|_| scope.spawn(claim))
            .collect();
        let mut pairs = claim();
        // Join by hand: the scope's own check would replace a helper's
        // panic payload with a generic message.
        for h in helpers {
            match h.join() {
                Ok(theirs) => pairs.extend(theirs),
                Err(payload) => resume_unwind(payload),
            }
        }
        pairs
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(
        pairs.iter().enumerate().all(|(k, &(i, _))| k == i),
        "every point evaluated exactly once"
    );
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let points: Vec<u64> = (0..97).collect();
        let out = map_with_threads(&points, 8, |&p| p * p);
        assert_eq!(out, points.iter().map(|&p| p * p).collect::<Vec<_>>());
    }

    #[test]
    fn handles_fewer_points_than_threads() {
        let out = map_with_threads(&[1u32, 2], 16, |&p| p + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = map_with_threads(&[] as &[u32], 4, |&p| p);
        assert!(out.is_empty());
    }

    #[test]
    fn repeated_short_sweeps_stay_ordered() {
        // Many short sweeps in a row, each with its own helpers: results
        // stay in input order every time.
        for round in 0..50u64 {
            let points: Vec<u64> = (0..13).map(|i| i + round).collect();
            let out = map_with_threads(&points, 4, |&p| p * 3);
            assert_eq!(out, points.iter().map(|&p| p * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_sweeps_do_not_deadlock() {
        let outer: Vec<u64> = (0..8).collect();
        let out = map_with_threads(&outer, 4, |&o| {
            let inner: Vec<u64> = (0..8).collect();
            map_with_threads(&inner, 4, |&i| o * 100 + i)
                .into_iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = outer
            .iter()
            .map(|&o| (0..8).map(|i| o * 100 + i).sum())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let points: Vec<u64> = (0..32).collect();
        let caller = std::thread::current().id();
        let r = std::panic::catch_unwind(|| {
            map_with_threads(&points, 4, |&p| {
                // Hold the calling thread back so a helper claims point 17:
                // the payload under test is a helper's.
                if std::thread::current().id() == caller {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                if p == 17 {
                    panic!("boom at {p}");
                }
                p
            })
        });
        let payload = r.expect_err("worker panic must surface on the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("boom at 17"),
            "the caller sees the worker's own payload"
        );
        // A panicking sweep leaves nothing behind: the next one runs clean.
        let out = map_with_threads(&points, 4, |&p| p + 1);
        assert_eq!(out, points.iter().map(|&p| p + 1).collect::<Vec<_>>());
    }

    #[test]
    fn grid_groups_points_by_series_in_input_order() {
        let series = [("a".to_string(), 10.0), ("b".to_string(), 20.0)];
        let out = grid(&series, &[1usize, 2, 3], |&s, &x| (x as f64, s + x as f64));
        let a = vec![(1.0, 11.0), (2.0, 12.0), (3.0, 13.0)];
        let b = vec![(1.0, 21.0), (2.0, 22.0), (3.0, 23.0)];
        assert_eq!(out, [("a".to_string(), a), ("b".to_string(), b)]);
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> =
            (0..1000).map(|i| derive_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    /// The acceptance property: a real sweep over serving simulations gives
    /// bit-identical attainment whether it runs serially or on N threads.
    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        use crate::{market_models, run_system, uniform_trace, System, SEED};
        use aegaeon_workload::{LengthDist, SloSpec};

        let points: Vec<(usize, f64)> = vec![(1, 0.2), (2, 0.3), (3, 0.4), (2, 0.5)];
        let eval = |&(n, rate): &(usize, f64)| {
            let seed = derive_seed(SEED, (n as u64) << 16 | (rate * 100.0) as u64);
            let models = market_models(n);
            let trace = uniform_trace(n, rate, 60.0, seed, LengthDist::sharegpt());
            run_system(
                System::ServerlessLlm,
                &models,
                &trace,
                SloSpec::paper_default(),
                rate,
            )
            .ratio()
        };
        let serial = map_with_threads(&points, 1, eval);
        let parallel = map_with_threads(&points, 4, eval);
        let serial_bits: Vec<u64> = serial.iter().map(|r| r.to_bits()).collect();
        let parallel_bits: Vec<u64> = parallel.iter().map(|r| r.to_bits()).collect();
        assert_eq!(serial_bits, parallel_bits);
    }
}
