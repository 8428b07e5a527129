//! Request-level summary statistics derived from outcomes: TTFT/TBT
//! percentiles and throughput — the operator-facing view a serving
//! deployment reports next to raw SLO attainment.

use aegaeon_sim::SimTime;

use crate::cdf::Cdf;
use crate::slo::RequestOutcome;

/// Aggregate latency/throughput summary of a run.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Output tokens produced.
    pub tokens: u64,
    /// Token throughput over the horizon, tokens/s.
    pub token_rate: f64,
    /// TTFT percentiles `(p50, p90, p99)`, seconds.
    pub ttft: (f64, f64, f64),
    /// Inter-token gap percentiles `(p50, p90, p99)`, seconds.
    pub tbt: (f64, f64, f64),
}

fn pcts(c: &mut Cdf) -> (f64, f64, f64) {
    if c.count() == 0 {
        return (0.0, 0.0, 0.0);
    }
    (c.quantile(0.5), c.quantile(0.9), c.quantile(0.99))
}

/// Builds a [`Summary`] over `[0, horizon)`.
pub fn summarize(outcomes: &[RequestOutcome], horizon: SimTime) -> Summary {
    let mut ttft = Cdf::new();
    let mut tbt = Cdf::new();
    let mut tokens = 0u64;
    for o in outcomes {
        tokens += o.token_times.len() as u64;
        if let Some(t) = o.ttft() {
            ttft.push(t);
        }
        for gap in o.token_times.gaps() {
            tbt.push(gap.as_secs_f64());
        }
    }
    Summary {
        tokens,
        token_rate: tokens as f64 / horizon.as_secs_f64().max(1e-9),
        ttft: pcts(&mut ttft),
        tbt: pcts(&mut tbt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegaeon_model::ModelId;
    use aegaeon_workload::RequestId;

    fn outcome(model: u32, start: f64, n: u32, gap: f64) -> RequestOutcome {
        RequestOutcome {
            id: RequestId(model as u64),
            model: ModelId(model),
            arrival: SimTime::ZERO,
            token_times: (0..n)
                .map(|i| SimTime::from_secs_f64(start + gap * i as f64))
                .collect(),
            target_tokens: n,
        }
    }

    #[test]
    fn summary_counts_and_percentiles() {
        let o = vec![outcome(0, 1.0, 11, 0.05), outcome(1, 2.0, 21, 0.1)];
        let s = summarize(&o, SimTime::from_secs_f64(10.0));
        assert_eq!(s.tokens, 32);
        assert!((s.token_rate - 3.2).abs() < 1e-9);
        // TTFTs are 1.0 and 2.0 → p50 = 1.5 by interpolation.
        assert!((s.ttft.0 - 1.5).abs() < 1e-9);
        // Gaps: ten of 0.05 and twenty of 0.1.
        assert!(s.tbt.0 >= 0.05 && s.tbt.2 <= 0.1 + 1e-9);
    }

    #[test]
    fn out_of_order_stamp_is_a_zero_gap() {
        // 2.0 s after 2.5 s steps backwards: a zero gap, as in every TBT
        // reader, where an unchecked subtraction panicked in debug builds
        // and wrapped in release ones.
        let mut o = outcome(0, 1.0, 0, 0.0);
        o.token_times = [1.0, 2.5, 2.0, 2.1]
            .into_iter()
            .map(SimTime::from_secs_f64)
            .collect();
        let s = summarize(&[o], SimTime::from_secs_f64(10.0));
        assert_eq!(s.tokens, 4);
        // Gaps 1.5, 0 and 0.1: the median is 0.1, the p99 below 1.5.
        assert!((s.tbt.0 - 0.1).abs() < 1e-9, "{:?}", s.tbt);
        assert!(s.tbt.2 <= 1.5 + 1e-9, "{:?}", s.tbt);
    }

    #[test]
    fn empty_run_is_safe() {
        let s = summarize(&[], SimTime::from_secs_f64(1.0));
        assert_eq!(s.tokens, 0);
        assert_eq!(s.ttft, (0.0, 0.0, 0.0));
    }
}
