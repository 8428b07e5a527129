//! Figure 13: end-to-end SLO attainment under stricter SLOs (0.5×, 0.3×,
//! 0.2× of the default 10 s TTFT / 100 ms TBT).
//!
//! Paper: Aegaeon stays ahead at 0.5× and 0.3×; at 0.2× (2 s / 20 ms) the
//! slack disappears and static multiplexing (MuxServe) wins, though
//! Aegaeon still beats request-level auto-scaling.
//!
//! All three SLO panels share one [`sweep::grid`] fan-out: one series per
//! (factor, system) pair.

use aegaeon_bench::{
    banner, dump_json, market_models, print_sweep, run_system, sweep, uniform_trace, System,
    HORIZON_SECS, SEED,
};
use aegaeon_workload::{LengthDist, SloSpec};

fn main() {
    banner("fig13_strict_slo", "Figure 13 (stricter SLOs)");
    let counts = [16usize, 24, 32, 40, 50, 60];
    let systems = [System::Aegaeon, System::ServerlessLlm, System::MuxServe];
    let panels = [("(a) 0.5x SLO", 0.5), ("(b) 0.3x SLO", 0.3), ("(c) 0.2x SLO", 0.2)];

    let series: Vec<(String, (f64, System))> = panels
        .iter()
        .flat_map(|&(_, factor)| systems.map(|sys| (sys.label().to_string(), (factor, sys))))
        .collect();
    let all = sweep::grid(&series, &counts, |&(factor, sys), &n| {
        let slo = SloSpec::paper_default().scaled(factor);
        let models = market_models(n);
        let trace = uniform_trace(n, 0.1, HORIZON_SECS, SEED + n as u64, LengthDist::sharegpt());
        (n as f64, run_system(sys, &models, &trace, slo, 0.1).ratio())
    });

    let mut json = serde_json::Map::new();
    for ((label, factor), series) in panels.iter().zip(all.chunks(systems.len())) {
        print_sweep(
            &format!("{label} (TTFT {:.1}s, TBT {:.0}ms)", 10.0 * factor, 100.0 * factor),
            "#models",
            series,
        );
        json.insert(label.to_string(), serde_json::json!(series));
    }
    dump_json("fig13_strict_slo", &serde_json::Value::Object(json));
}
