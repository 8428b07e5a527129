//! Agentic-session figure: prefix reuse under session affinity.
//!
//! Sweeps session depth × think-gap × affinity on/off over a multi-turn
//! agentic trace and reports, per point, the prefix-hit rate, reused vs
//! recomputed prefill tokens, and SLO attainment. The differential the
//! figure exists to show: with `session_affinity` on, consecutive turns of
//! a session prefill only their delta off the retained KV prefix, so
//! recomputed prefill tokens drop and attainment holds at depths where the
//! affinity-off system re-prefills the entire conversation every turn.
//!
//! A final telemetry-enabled run exports the SLO observatory document
//! (`target/experiments/fig_agentic.slo.json`, with its per-model session
//! turn series) plus the `aegaeon-analyze` markdown report next to it; CI
//! re-checks that artifact with `aegaeon-analyze --check`.
//!
//! `--smoke` shrinks the sweep to one (depth, gap) point on a short
//! horizon for the CI gate. In both modes the binary exits nonzero if the
//! affinity differential does not hold (hits with affinity on, zero hits
//! and zero reuse with affinity off).

use aegaeon::{AegaeonConfig, RunResult, ServingSystem};
use aegaeon_bench::{
    agentic_trace, analyze, banner, dump_json, market_models, sweep, AGENTIC_MODELS,
    AGENTIC_SESSION_RATE, SEED,
};
use aegaeon_workload::{SloSpec, Trace};

fn config(affinity: bool) -> AegaeonConfig {
    let mut cfg = AegaeonConfig::small_testbed(2, 3);
    cfg.seed = SEED;
    cfg.session_affinity = affinity;
    cfg
}

struct Point {
    depth: u32,
    gap: f64,
    affinity: bool,
    turns: u64,
    prefix_hits: u64,
    hit_rate: f64,
    tokens_reused: u64,
    tokens_recomputed: u64,
    attainment: f64,
}

fn measure(depth: u32, gap: f64, affinity: bool, horizon: f64, r: &RunResult, t: &Trace) -> Point {
    let turns = t.requests.iter().filter(|r| r.session.is_some()).count() as u64;
    let _ = horizon;
    Point {
        depth,
        gap,
        affinity,
        turns,
        prefix_hits: r.prefix_hits,
        hit_rate: if turns > 0 {
            r.prefix_hits as f64 / turns as f64
        } else {
            0.0
        },
        tokens_reused: r.prefill_tokens_reused,
        tokens_recomputed: r.prefill_tokens_recomputed,
        attainment: r.attainment(SloSpec::paper_default()).ratio(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "fig_agentic",
        "agentic sessions: prefix reuse under session affinity",
    );

    let (depths, gaps, horizon): (Vec<u32>, Vec<f64>, f64) = if smoke {
        (vec![3], vec![10.0], 120.0)
    } else {
        (vec![2, 4, 6], vec![5.0, 20.0, 60.0], 300.0)
    };
    let models = market_models(AGENTIC_MODELS);

    let cells: Vec<(u32, f64, bool)> = depths
        .iter()
        .flat_map(|&d| {
            gaps.iter()
                .flat_map(move |&g| [(d, g, false), (d, g, true)])
        })
        .collect();
    let points = sweep::map(&cells, |&(depth, gap, affinity)| {
        let trace = agentic_trace(depth, gap, horizon);
        let r = ServingSystem::run(&config(affinity), &models, &trace);
        measure(depth, gap, affinity, horizon, &r, &trace)
    });

    let hdr = [
        "depth",
        "gap (s)",
        "affinity",
        "turns",
        "prefix hits",
        "hit rate",
        "reused tok",
        "recomputed tok",
        "attainment",
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.depth.to_string(),
                format!("{:.0}", p.gap),
                if p.affinity { "on" } else { "off" }.to_string(),
                p.turns.to_string(),
                p.prefix_hits.to_string(),
                format!("{:.3}", p.hit_rate),
                p.tokens_reused.to_string(),
                p.tokens_recomputed.to_string(),
                format!("{:.1}%", p.attainment * 100.0),
            ]
        })
        .collect();
    let h: Vec<&str> = hdr.to_vec();
    print!("{}", aegaeon_metrics::report::table(&h, &rows));

    // The CI differential gate: affinity off is fully inert (no hits, no
    // reused tokens); affinity on lands hits at every sweep point and
    // never recomputes more than off does.
    let mut gate_ok = true;
    for (cell, pair) in points.chunks(2).enumerate() {
        let (off, on) = (&pair[0], &pair[1]);
        assert!(!off.affinity && on.affinity, "cell layout");
        if off.prefix_hits != 0 || off.tokens_reused != 0 {
            eprintln!(
                "[gate] FAIL depth={} gap={}: affinity off reused a prefix (hits={}, reused={})",
                off.depth, off.gap, off.prefix_hits, off.tokens_reused
            );
            gate_ok = false;
        }
        if on.prefix_hits == 0 || on.hit_rate <= 0.0 {
            eprintln!(
                "[gate] FAIL depth={} gap={}: affinity on landed no prefix hits",
                on.depth, on.gap
            );
            gate_ok = false;
        }
        if on.tokens_recomputed > off.tokens_recomputed {
            eprintln!(
                "[gate] FAIL depth={} gap={}: affinity on recomputed more than off ({} > {})",
                on.depth, on.gap, on.tokens_recomputed, off.tokens_recomputed
            );
            gate_ok = false;
        }
        let _ = cell;
    }
    if gate_ok {
        println!(
            "[gate] ok: affinity-on hit rate > 0 and affinity-off reuse == 0 at all {} cells",
            points.len() / 2
        );
    }

    // Telemetry-enabled export run (affinity on, mid sweep point): the SLO
    // observatory document with its session turn series, plus the analyzer
    // report. CI re-verifies the JSON with `aegaeon-analyze --check`.
    let (depth, gap) = (depths[depths.len() / 2], gaps[gaps.len() / 2]);
    let trace = agentic_trace(depth, gap, horizon);
    let mut tcfg = config(true);
    tcfg.telemetry = aegaeon_telemetry::TelemetrySpec::enabled();
    let r = ServingSystem::run(&tcfg, &models, &trace);
    let slo_doc = aegaeon_telemetry::slo_json(&r.telemetry.slo, &r.telemetry.attrib);
    let dir = std::path::Path::new("target/experiments");
    let _ = std::fs::create_dir_all(dir);
    let slo_path = dir.join("fig_agentic.slo.json");
    match std::fs::write(&slo_path, &slo_doc) {
        Ok(()) => println!("[slo] {}", slo_path.display()),
        Err(e) => eprintln!("[slo] failed to write {}: {e}", slo_path.display()),
    }
    match analyze::Analysis::from_slo_text(&slo_doc) {
        Ok(a) => {
            if !a.sessions.is_empty() {
                let md_path = dir.join("fig_agentic.slo.md");
                match std::fs::write(&md_path, a.to_markdown()) {
                    Ok(()) => println!("[slo] {}", md_path.display()),
                    Err(e) => eprintln!("[slo] failed to write {}: {e}", md_path.display()),
                }
            } else {
                eprintln!("[gate] FAIL: telemetry run exported no session turn series");
                gate_ok = false;
            }
        }
        Err(e) => {
            eprintln!("[gate] FAIL: SLO document unparseable: {e}");
            gate_ok = false;
        }
    }

    let json_points: Vec<serde_json::Value> = points
        .iter()
        .map(|p| {
            serde_json::json!({
                "depth": p.depth,
                "think_gap_secs": p.gap,
                "affinity": p.affinity,
                "turns": p.turns,
                "prefix_hits": p.prefix_hits,
                "prefix_hit_rate": p.hit_rate,
                "prefill_tokens_reused": p.tokens_reused,
                "prefill_tokens_recomputed": p.tokens_recomputed,
                "attainment": p.attainment,
            })
        })
        .collect();
    dump_json(
        "fig_agentic",
        &serde_json::json!({
            "smoke": smoke,
            "n_models": AGENTIC_MODELS,
            "session_rate": AGENTIC_SESSION_RATE,
            "horizon_secs": horizon,
            "points": json_points,
        }),
    );

    if !gate_ok {
        std::process::exit(1);
    }
}
