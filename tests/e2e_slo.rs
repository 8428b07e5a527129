//! SLO semantics end to end: attainment behaves per Figure 3 over real
//! serving runs.

use aegaeon::{AegaeonConfig, ServingSystem};
use aegaeon_bench::{market_models, uniform_trace};
use aegaeon_workload::{LengthDist, SloSpec};

const SEED: u64 = 123;

#[test]
fn light_load_attains_nearly_everything() {
    let models = market_models(4);
    let trace = uniform_trace(4, 0.05, 200.0, SEED, LengthDist::sharegpt());
    let mut cfg = AegaeonConfig::small_testbed(1, 2);
    cfg.seed = SEED;
    let r = ServingSystem::run(&cfg, &models, &trace);
    let rep = r.attainment(SloSpec::paper_default());
    assert_eq!(r.completed, r.total_requests);
    assert!(rep.ratio() > 0.98, "attainment {}", rep.ratio());
    assert_eq!(rep.ttft_met, rep.requests, "all first tokens within 10 s");
}

#[test]
fn attainment_is_monotone_in_slo_strictness() {
    let models = market_models(16);
    let trace = uniform_trace(16, 0.1, 250.0, SEED + 1, LengthDist::sharegpt());
    let cfg = AegaeonConfig::small_testbed(2, 3);
    let r = ServingSystem::run(&cfg, &models, &trace);
    let base = SloSpec::paper_default();
    let mut last = 1.01;
    for f in [1.0, 0.5, 0.3, 0.2] {
        let ratio = r.attainment(base.scaled(f)).ratio();
        assert!(
            ratio <= last + 1e-9,
            "stricter SLO must not raise attainment (factor {f}: {ratio} > {last})"
        );
        last = ratio;
    }
}

#[test]
fn token_counts_are_conserved() {
    let models = market_models(8);
    let trace = uniform_trace(8, 0.1, 150.0, SEED + 2, LengthDist::sharegpt());
    let cfg = AegaeonConfig::small_testbed(1, 2);
    let r = ServingSystem::run(&cfg, &models, &trace);
    for (o, req) in r.outcomes.iter().zip(&trace.requests) {
        assert!(
            o.token_times.len() as u32 <= req.output_tokens,
            "no request may over-produce"
        );
        let times: Vec<_> = o.token_times.iter().collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "token times must be nondecreasing"
        );
        if let Some(first) = o.token_times.first() {
            assert!(first >= req.arrival(), "tokens cannot precede arrival");
        }
    }
    let produced: usize = r.outcomes.iter().map(|o| o.token_times.len()).sum();
    let expected: u32 = trace.requests.iter().map(|r| r.output_tokens).sum();
    assert_eq!(
        r.completed, r.total_requests,
        "light load must finish everything"
    );
    assert_eq!(produced as u32, expected);
}

#[test]
fn longer_outputs_strain_the_same_pool_more() {
    let models = market_models(24);
    let slo = SloSpec::paper_default();
    let cfg = AegaeonConfig::small_testbed(2, 3);
    let base = uniform_trace(24, 0.1, 250.0, SEED + 3, LengthDist::sharegpt());
    let ox2 = uniform_trace(24, 0.1, 250.0, SEED + 3, LengthDist::sharegpt_ox2());
    let a = ServingSystem::run(&cfg, &models, &base).attainment(slo).ratio();
    let b = ServingSystem::run(&cfg, &models, &ox2).attainment(slo).ratio();
    assert!(b <= a + 0.02, "ox2 ({b:.3}) must not beat the base dataset ({a:.3})");
}

#[test]
fn tp4_serves_large_models() {
    use aegaeon_model::Zoo;
    let zoo = Zoo::standard();
    let models = Zoo::replicate(&[zoo.get("Qwen-72B").expect("zoo")], 2);
    let trace = uniform_trace(2, 0.05, 200.0, SEED + 4, LengthDist::sharegpt());
    let mut cfg = AegaeonConfig::tp4_testbed();
    cfg.seed = SEED;
    let r = ServingSystem::run(&cfg, &models, &trace);
    assert_eq!(r.completed, r.total_requests);
    let rep = r.attainment(SloSpec::paper_default());
    assert!(rep.ratio() > 0.8, "72B TP4 light load: {}", rep.ratio());
}
