//! Figure 11: end-to-end SLO attainment on the 16×H800 testbed (6 prefill +
//! 10 decoding instances, ShareGPT).
//!
//! (a) RPS = 0.1 per model, sweeping the model count;
//! (b) RPS = 0.5 per model, sweeping the model count;
//! (c) 40 models, sweeping the per-model arrival rate.
//!
//! Paper headlines: Aegaeon sustains 2× (RPS 0.1) / 2.5× (RPS 0.5) higher
//! goodput than ServerlessLLM, supporting up to seven models per decoding
//! GPU; MuxServe cannot place more than 32 models on 16 GPUs.
//!
//! Every (system, load) grid point is an independent simulation, so each
//! grid fans out through [`sweep::grid`]; results are identical to the
//! serial loop for any thread count.

use aegaeon_bench::{
    banner, dump_json, market_models, print_sweep, run_system, sweep, uniform_trace, System,
    HORIZON_SECS, SEED,
};
use aegaeon_workload::{LengthDist, SloSpec};

/// Every system, labelled.
fn systems() -> Vec<(String, System)> {
    System::ALL.map(|s| (s.label().to_string(), s)).to_vec()
}

fn sweep_models(rps: f64, counts: &[usize]) -> Vec<(String, Vec<(f64, f64)>)> {
    let slo = SloSpec::paper_default();
    sweep::grid(&systems(), counts, |&sys, &n| {
        let models = market_models(n);
        let trace = uniform_trace(n, rps, HORIZON_SECS, SEED + n as u64, LengthDist::sharegpt());
        (n as f64, run_system(sys, &models, &trace, slo, rps).ratio())
    })
}

fn main() {
    banner("fig11_end_to_end", "Figure 11 (end-to-end SLO attainment)");

    let counts_a = [20usize, 30, 40, 50, 60, 70, 80];
    let a = sweep_models(0.1, &counts_a);
    print_sweep("(a) RPS = 0.1, varying #models", "#models", &a);

    let counts_b = [16usize, 24, 32, 40, 48];
    let b = sweep_models(0.5, &counts_b);
    print_sweep("(b) RPS = 0.5, varying #models", "#models", &b);

    let slo = SloSpec::paper_default();
    let rates = [0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75];
    let c = sweep::grid(&systems(), &rates, |&sys, &r| {
        let models = market_models(40);
        let trace = uniform_trace(
            40,
            r,
            HORIZON_SECS,
            SEED + (r * 1000.0) as u64,
            LengthDist::sharegpt(),
        );
        (r, run_system(sys, &models, &trace, slo, r).ratio())
    });
    print_sweep("(c) 40 models, varying per-model RPS", "req/s", &c);

    // Headline ratios at the 90% goodput frontier.
    let frontier = |s: &[(String, Vec<(f64, f64)>)], name: &str| -> f64 {
        s.iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, pts)| aegaeon_metrics::max_load_meeting(pts, 0.9))
            .unwrap_or(f64::NAN)
    };
    let ra = frontier(&a, "Aegaeon") / frontier(&a, "ServerlessLLM");
    let rb = frontier(&b, "Aegaeon") / frontier(&b, "ServerlessLLM");
    println!(
        "\nheadline: Aegaeon/ServerlessLLM goodput ratio = {ra:.2}x at RPS 0.1 (paper 2x), {rb:.2}x at RPS 0.5 (paper 2.5x)"
    );
    println!(
        "models per decoding GPU at 90%: {:.1} (paper: seven)",
        frontier(&a, "Aegaeon") / 10.0
    );

    dump_json(
        "fig11_end_to_end",
        &serde_json::json!({ "a_rps01": a, "b_rps05": b, "c_40models": c,
            "ratio_rps01": ra, "ratio_rps05": rb }),
    );
}
