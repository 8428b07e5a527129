//! Figures 2 and 6: exemplar token-level schedules on two GPUs.
//!
//! Prefill-first unified scheduling harms TBT under bursts; decoding-first
//! harms TTFT; disaggregation balances both. Rendered as ASCII Gantt
//! timelines (P prefill, D decode, S auto-scaling).

use aegaeon::unified::{figure6_scenario, run_unified, UnifiedPolicy};
use aegaeon_bench::{banner, dump_json};
use aegaeon_sim::SimTime;
use aegaeon_telemetry::render_timeline;

fn main() {
    banner("fig06_schedules", "Figure 6 (and the Figure 2 comparison)");
    let (cfg, reqs) = figure6_scenario();
    println!(
        "scenario: {} requests, 3 models, 2 GPUs; switch {:.1}s, decode step {:.0}ms, TTFT {:.1}s, TBT {:.0}ms",
        reqs.len(),
        cfg.switch_secs,
        cfg.decode_step * 1e3,
        cfg.ttft,
        cfg.tbt * 1e3
    );
    let mut json = Vec::new();
    for (name, policy) in [
        ("(a) prefill-prioritized", UnifiedPolicy::PrefillFirst),
        ("(b) decoding-prioritized", UnifiedPolicy::DecodeFirst),
        (
            "(c) disaggregated (Aegaeon)",
            UnifiedPolicy::Disaggregated { prefill_gpus: 1 },
        ),
    ] {
        let r = run_unified(policy, &cfg, &reqs);
        println!(
            "\n{name}: {}/{} token deadlines missed; worst TTFT {:.2}s; makespan {:.1}s",
            r.violations,
            r.tokens,
            r.ttft.iter().cloned().fold(0.0, f64::max),
            r.makespan
        );
        let end = SimTime::from_secs_f64(r.makespan.min(20.0));
        print!(
            "{}",
            render_timeline(&r.trace, SimTime::ZERO, end, 100)
        );
        json.push(serde_json::json!({
            "policy": name,
            "violations": r.violations,
            "tokens": r.tokens,
            "worst_ttft": r.ttft.iter().cloned().fold(0.0, f64::max),
        }));
    }
    println!("\n(glyphs: P prefill, D decode, S model switch; one row per GPU)");
    dump_json("fig06_schedules", &serde_json::json!(json));
}
