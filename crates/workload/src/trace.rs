//! Trace synthesis: turning arrival processes, popularity and length
//! distributions into a concrete request stream.

use aegaeon_model::ModelId;
use aegaeon_sim::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::dataset::LengthDist;
use crate::process::{poisson_arrivals, BurstProcess};
use crate::request::{Request, RequestId};

/// A time-sorted request stream plus its horizon.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// Requests sorted by arrival time.
    pub requests: Vec<Request>,
    /// End of the generation window.
    pub horizon: SimTime,
}

impl Trace {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Aggregate arrival rate (req/s).
    pub fn aggregate_rate(&self) -> f64 {
        self.requests.len() as f64 / self.horizon.as_secs_f64()
    }

    /// Requests per model.
    pub fn per_model_counts(&self, n_models: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_models];
        for r in &self.requests {
            counts[r.model.0 as usize] += 1;
        }
        counts
    }

    /// Serializes the trace to JSON (replayable across runs and tools).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("traces are plain data")
    }

    /// Parses a trace previously produced by [`Self::to_json`].
    pub fn from_json(s: &str) -> Result<Trace, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// The same request stream compressed (`factor > 1`) or stretched
    /// (`factor < 1`) in time: every arrival and the horizon are divided by
    /// `factor`. Lengths, models and relative order are untouched. Load
    /// harnesses use this to replay a recorded trace faster or slower than
    /// it was generated.
    pub fn time_scaled(&self, factor: f64) -> Trace {
        assert!(factor.is_finite() && factor > 0.0, "bad time-scale factor {factor}");
        let requests = self
            .requests
            .iter()
            .map(|r| Request {
                arrival_ns: (r.arrival_ns as f64 / factor).round() as u64,
                ..*r
            })
            .collect();
        Trace {
            requests,
            horizon: SimTime::from_nanos((self.horizon.as_nanos() as f64 / factor).round() as u64),
        }
    }
}

/// Builder assembling a [`Trace`] from per-model arrival processes.
#[derive(Debug)]
pub struct TraceBuilder {
    horizon: SimTime,
    dataset: LengthDist,
    arrivals: Vec<(ModelId, Vec<SimTime>)>,
}

impl TraceBuilder {
    /// Starts a trace over `[0, horizon)` with the given length distribution.
    pub fn new(horizon: SimTime, dataset: LengthDist) -> Self {
        TraceBuilder {
            horizon,
            dataset,
            arrivals: Vec::new(),
        }
    }

    /// Adds a Poisson-arrival model at `rate` req/s (the §7.2 setup where
    /// every model gets the same per-model RPS).
    pub fn poisson_model(mut self, rng: &mut SimRng, model: ModelId, rate: f64) -> Self {
        let a = poisson_arrivals(rng, rate, self.horizon);
        self.arrivals.push((model, a));
        self
    }

    /// Adds `n` models with identical Poisson rate (convenience).
    pub fn uniform_models(mut self, rng: &mut SimRng, n: u32, rate: f64) -> Self {
        for m in 0..n {
            self = self.poisson_model(rng, ModelId(m), rate);
        }
        self
    }

    /// Adds models with rates proportional to `weights`, with aggregate rate
    /// `total_rate` (the skewed market mix of Figure 1a / Figure 18).
    pub fn weighted_models(mut self, rng: &mut SimRng, weights: &[f64], total_rate: f64) -> Self {
        let wsum: f64 = weights.iter().sum();
        for (m, w) in weights.iter().enumerate() {
            let rate = total_rate * w / wsum;
            self = self.poisson_model(rng, ModelId(m as u32), rate);
        }
        self
    }

    /// Adds a bursty (hot) model.
    pub fn bursty_model(mut self, rng: &mut SimRng, model: ModelId, p: BurstProcess) -> Self {
        let a = p.arrivals(rng, self.horizon);
        self.arrivals.push((model, a));
        self
    }

    /// Adds explicit arrival instants for a model (replay of external traces).
    pub fn explicit_model(mut self, model: ModelId, arrivals: Vec<SimTime>) -> Self {
        self.arrivals.push((model, arrivals));
        self
    }

    /// Samples lengths, merges all models and sorts by time.
    pub fn build(self, rng: &mut SimRng) -> Trace {
        let mut requests = Vec::new();
        for (model, arrivals) in self.arrivals {
            for t in arrivals {
                let (input_tokens, output_tokens) = self.dataset.sample(rng);
                // Id 0 is a placeholder; ids are assigned after sorting.
                requests.push(Request::single(
                    RequestId(0),
                    model,
                    t.as_nanos(),
                    input_tokens,
                    output_tokens,
                ));
            }
        }
        requests.sort_by_key(|r| (r.arrival_ns, r.model));
        for (i, r) in requests.iter_mut().enumerate() {
            r.id = RequestId(i as u64);
        }
        Trace {
            requests,
            horizon: self.horizon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_trace_has_expected_volume_and_order() {
        let mut rng = SimRng::seed_from_u64(5);
        let horizon = SimTime::from_secs_f64(1000.0);
        let t = TraceBuilder::new(horizon, LengthDist::sharegpt())
            .uniform_models(&mut rng, 10, 0.1)
            .build(&mut rng);
        // 10 models × 0.1 rps × 1000 s = 1000 expected.
        assert!((t.len() as f64 - 1000.0).abs() < 120.0, "n={}", t.len());
        assert!(t
            .requests
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        let ids: Vec<u64> = t.requests.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, (0..t.len() as u64).collect::<Vec<_>>());
        assert!((t.aggregate_rate() - 1.0).abs() < 0.15);
    }

    #[test]
    fn weighted_trace_respects_skew() {
        let mut rng = SimRng::seed_from_u64(6);
        let horizon = SimTime::from_secs_f64(5000.0);
        let w = vec![0.8, 0.15, 0.05];
        let t = TraceBuilder::new(horizon, LengthDist::sharegpt())
            .weighted_models(&mut rng, &w, 1.0)
            .build(&mut rng);
        let counts = t.per_model_counts(3);
        let total: usize = counts.iter().sum();
        let share0 = counts[0] as f64 / total as f64;
        assert!((share0 - 0.8).abs() < 0.05, "share0={share0}");
    }

    #[test]
    fn json_round_trip_preserves_the_trace() {
        let mut rng = SimRng::seed_from_u64(8);
        let t = TraceBuilder::new(SimTime::from_secs_f64(100.0), LengthDist::sharegpt())
            .uniform_models(&mut rng, 3, 0.2)
            .build(&mut rng);
        let back = Trace::from_json(&t.to_json()).expect("valid JSON");
        assert_eq!(back.requests, t.requests);
        assert_eq!(back.horizon, t.horizon);
    }

    #[test]
    fn time_scaled_compresses_arrivals_preserving_order() {
        let mut rng = SimRng::seed_from_u64(9);
        let t = TraceBuilder::new(SimTime::from_secs_f64(200.0), LengthDist::sharegpt())
            .uniform_models(&mut rng, 2, 0.3)
            .build(&mut rng);
        let fast = t.time_scaled(4.0);
        assert_eq!(fast.len(), t.len());
        assert_eq!(fast.horizon.as_secs_f64(), 50.0);
        for (a, b) in t.requests.iter().zip(&fast.requests) {
            assert_eq!(b.arrival_ns, ((a.arrival_ns as f64) / 4.0).round() as u64);
            assert_eq!((b.id, b.model, b.input_tokens, b.output_tokens),
                       (a.id, a.model, a.input_tokens, a.output_tokens));
        }
        assert!(fast
            .requests
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        let slow = t.time_scaled(0.5);
        assert_eq!(slow.horizon.as_secs_f64(), 400.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let build = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            TraceBuilder::new(SimTime::from_secs_f64(500.0), LengthDist::sharegpt())
                .uniform_models(&mut rng, 5, 0.2)
                .build(&mut rng)
        };
        let a = build(42);
        let b = build(42);
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn explicit_arrivals_merge_by_time_then_model() {
        let mut rng = SimRng::seed_from_u64(3);
        let t = |s: u64| SimTime::from_secs_f64(s as f64);
        let trace = TraceBuilder::new(t(100), LengthDist::sharegpt())
            .explicit_model(ModelId(1), vec![t(5), t(1)])
            .explicit_model(ModelId(0), vec![t(5)])
            .build(&mut rng);
        let order: Vec<(u64, u32)> = trace
            .requests
            .iter()
            .map(|r| (r.arrival_ns / 1_000_000_000, r.model.0))
            .collect();
        assert_eq!(order, vec![(1, 1), (5, 0), (5, 1)]);
        let ids: Vec<u64> = trace.requests.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2], "ids follow the merged order");
        assert!(!trace.is_empty());
    }

    #[test]
    fn a_builder_without_models_yields_an_empty_trace() {
        let mut rng = SimRng::seed_from_u64(4);
        let trace =
            TraceBuilder::new(SimTime::from_secs_f64(60.0), LengthDist::sharegpt()).build(&mut rng);
        assert!(trace.is_empty());
        assert_eq!(trace.len(), 0);
        assert_eq!(trace.aggregate_rate(), 0.0);
    }
}
