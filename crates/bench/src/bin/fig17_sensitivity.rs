//! Figure 17: sensitivity studies.
//!
//! Left: a 4×A10 node (2 prefill + 2 decoding instances, prefetching
//! disabled because 24 GB cannot hold two models) serving 6–7B models at
//! RPS 0.1 with increasing model counts, under Strict (0.5×), Normal and
//! Loose (2×) TBT.
//!
//! Right: an 8×H800 node serving 72B models at TP = 4 (one prefill + one
//! decoding instance), 4 models, increasing per-model rates, under Strict
//! (0.5×), Normal and Loose (2×) TTFT.
//!
//! Both (SLO scale × load) grids fan out through [`sweep::grid`].

use aegaeon::{AegaeonConfig, ServingSystem};
use aegaeon_bench::{banner, dump_json, print_sweep, sweep, uniform_trace, HORIZON_SECS, SEED};
use aegaeon_model::Zoo;
use aegaeon_workload::{LengthDist, SloSpec};

const SLO_SCALES: [(&str, f64); 3] = [("Strict", 0.5), ("Normal", 1.0), ("Loose", 2.0)];

fn main() {
    banner("fig17_sensitivity", "Figure 17 (lower-end hardware and larger models)");
    let zoo = Zoo::standard();

    // Left: A10 node, 6–7B models.
    let small: Vec<&aegaeon_model::ModelSpec> = vec![
        zoo.get("Yi-6B").expect("zoo"),
        zoo.get("Llama-2-7B").expect("zoo"),
        zoo.get("Qwen-7B").expect("zoo"),
    ];
    let counts = [4usize, 6, 8, 10];
    let scales = SLO_SCALES.map(|(name, f)| (format!("{name} TBT"), f));
    let series = sweep::grid(&scales, &counts, |&f, &n| {
        let slo = SloSpec::paper_default().with_tbt_scaled(f);
        let models = Zoo::replicate(&small, n);
        let trace = uniform_trace(n, 0.1, HORIZON_SECS, SEED + n as u64, LengthDist::sharegpt());
        let mut cfg = AegaeonConfig::a10_testbed();
        cfg.seed = SEED;
        cfg.target_tbt = slo.tbt.as_secs_f64();
        let r = ServingSystem::run(&cfg, &models, &trace);
        (n as f64, r.attainment(slo).ratio())
    });
    print_sweep("(left) 4xA10, RPS = 0.1, 6-7B models", "#models", &series);

    // Right: 72B at TP=4 on one 8×H800 node.
    let m72 = zoo.get("Qwen-72B").expect("zoo");
    let rates = [0.4, 0.9, 1.4, 1.9, 2.4];
    let scales = SLO_SCALES.map(|(name, f)| (format!("{name} TTFT"), f));
    let series_r = sweep::grid(&scales, &rates, |&f, &rate| {
        let slo = SloSpec::paper_default().with_ttft_scaled(f);
        let models = Zoo::replicate(&[m72], 4);
        let trace = uniform_trace(
            4,
            rate / 4.0,
            HORIZON_SECS,
            SEED + (rate * 100.0) as u64,
            LengthDist::sharegpt(),
        );
        let mut cfg = AegaeonConfig::tp4_testbed();
        cfg.seed = SEED;
        cfg.target_tbt = slo.tbt.as_secs_f64();
        let r = ServingSystem::run(&cfg, &models, &trace);
        (rate, r.attainment(slo).ratio())
    });
    print_sweep(
        "(right) 8xH800, TP = 4, four 72B models, varying aggregate rate",
        "agg req/s",
        &series_r,
    );

    dump_json(
        "fig17_sensitivity",
        &serde_json::json!({ "a10": series, "tp4_72b": series_r }),
    );
}
