//! Figure 12: end-to-end SLO attainment on the ShareGPT-ix2 (doubled
//! inputs) and ShareGPT-ox2 (doubled outputs) datasets.
//!
//! Paper: up to 2.5× higher goodput than ServerlessLLM for longer outputs
//! (more HOL blocking to exploit); every system dips slightly on longer
//! inputs.
//!
//! Each (system, count) grid fans out through [`sweep::grid`].

use aegaeon_bench::{
    banner, dump_json, market_models, print_sweep, run_system, sweep, uniform_trace, System,
    HORIZON_SECS, SEED,
};
use aegaeon_workload::{LengthDist, SloSpec};

fn sweep(
    dataset: LengthDist,
    rps: f64,
    counts: &[usize],
) -> Vec<(String, Vec<(f64, f64)>)> {
    let slo = SloSpec::paper_default();
    let systems = System::ALL.map(|s| (s.label().to_string(), s));
    sweep::grid(&systems, counts, |&sys, &n| {
        let models = market_models(n);
        let trace = uniform_trace(n, rps, HORIZON_SECS, SEED + n as u64, dataset);
        (n as f64, run_system(sys, &models, &trace, slo, rps).ratio())
    })
}

fn main() {
    banner("fig12_datasets", "Figure 12 (alternative datasets)");
    let counts_01 = [20usize, 30, 40, 50, 60, 70, 80];
    let counts_05 = [16usize, 24, 32, 40, 48];

    let a = sweep(LengthDist::sharegpt_ix2(), 0.1, &counts_01);
    print_sweep("(a) RPS = 0.1, ShareGPT-ix2", "#models", &a);
    let b = sweep(LengthDist::sharegpt_ox2(), 0.1, &counts_01);
    print_sweep("(b) RPS = 0.1, ShareGPT-ox2", "#models", &b);
    let c = sweep(LengthDist::sharegpt_ix2(), 0.5, &counts_05);
    print_sweep("(c) RPS = 0.5, ShareGPT-ix2", "#models", &c);
    let d = sweep(LengthDist::sharegpt_ox2(), 0.5, &counts_05);
    print_sweep("(d) RPS = 0.5, ShareGPT-ox2", "#models", &d);

    dump_json(
        "fig12_datasets",
        &serde_json::json!({ "a_ix2_rps01": a, "b_ox2_rps01": b, "c_ix2_rps05": c, "d_ox2_rps05": d }),
    );
}
