//! Telemetry end-to-end tests: the span/metrics subsystem must be a pure
//! observer (bit-identical behavior on or off, across every system), its
//! exports must be deterministic byte-for-byte, and real runs must produce
//! well-formed span trees with the lifecycle phases the paper's figures
//! need (queue wait, prefill, decode rounds, switches, KV transfers).

use aegaeon::chaos::FaultPlan;
use aegaeon::{AegaeonConfig, ServingSystem};
use aegaeon_baselines::engine_loop::WorldConfig;
use aegaeon_baselines::{MuxServe, ServerlessLlm, SllmConfig};
use aegaeon_bench::{analyze, market_models, uniform_trace};
use aegaeon_metrics::slo::attainment_per_model;
use aegaeon_sim::{SimDur, TraceLog};
use aegaeon_telemetry::{
    chrome_trace, looks_like_trace_event_json, QuantileSketch, SpanKind, TelemetrySpec,
};
use aegaeon_workload::{LengthDist, SloSpec};

const SEEDS: [u64; 3] = [7, 42, 20250713];
const N_MODELS: usize = 5;
const RATE: f64 = 0.12;
const SECS: f64 = 90.0;

fn aegaeon_cfg(seed: u64, telemetry: bool) -> AegaeonConfig {
    let mut cfg = AegaeonConfig::small_testbed(2, 3);
    cfg.seed = seed;
    cfg.telemetry = if telemetry {
        TelemetrySpec::enabled()
    } else {
        TelemetrySpec::disabled()
    };
    cfg
}

// ----- Differential: telemetry must not perturb the simulation ----------

#[test]
fn aegaeon_results_are_bit_identical_with_telemetry_on() {
    for seed in SEEDS {
        let models = market_models(N_MODELS);
        let trace = uniform_trace(N_MODELS, RATE, SECS, seed, LengthDist::sharegpt());
        let off = ServingSystem::run(&aegaeon_cfg(seed, false), &models, &trace);
        let on = ServingSystem::run(&aegaeon_cfg(seed, true), &models, &trace);
        assert!(!off.telemetry.is_enabled());
        assert!(on.telemetry.is_enabled());
        assert!(
            !on.telemetry.spans.spans().is_empty(),
            "enabled telemetry must record spans"
        );
        assert_eq!(
            off.fingerprint(),
            on.fingerprint(),
            "seed {seed}: telemetry perturbed the Aegaeon run"
        );
    }
}

#[test]
fn aegaeon_results_are_bit_identical_under_chaos() {
    // The observer property must survive failover/retry/preemption paths.
    for seed in SEEDS {
        let models = market_models(N_MODELS);
        let trace = uniform_trace(N_MODELS, RATE, SECS, seed, LengthDist::sharegpt());
        let plan = FaultPlan {
            seed,
            crashes: Vec::new(),
            crash_rate_prefill: 0.01,
            crash_rate_decode: 0.015,
            link_rate: 0.03,
            link_factor: 0.4,
            link_secs: 4.0,
            stage_oom_rate: 0.02,
            stage_oom_secs: 4.0,
            stall_rate: 0.02,
            stall_secs: 0.8,
        };
        let mut off_cfg = aegaeon_cfg(seed, false);
        off_cfg.faults = plan.clone();
        let mut on_cfg = aegaeon_cfg(seed, true);
        on_cfg.faults = plan;
        let off = ServingSystem::run(&off_cfg, &models, &trace);
        let on = ServingSystem::run(&on_cfg, &models, &trace);
        assert_eq!(
            off.fingerprint(),
            on.fingerprint(),
            "seed {seed}: telemetry perturbed the chaos run"
        );
    }
}

#[test]
fn serverlessllm_results_are_bit_identical_with_telemetry_on() {
    for seed in SEEDS {
        let models = market_models(N_MODELS);
        let trace = uniform_trace(N_MODELS, RATE, SECS, seed, LengthDist::sharegpt());
        let cluster = aegaeon_cfg(seed, false).cluster;
        let mut off_cfg = SllmConfig::new(cluster.clone());
        off_cfg.world.seed = seed;
        let mut on_cfg = SllmConfig::new(cluster);
        on_cfg.world.seed = seed;
        on_cfg.world.telemetry = TelemetrySpec::enabled();
        let off = ServerlessLlm::run(&off_cfg, &models, &trace);
        let on = ServerlessLlm::run(&on_cfg, &models, &trace);
        assert!(!on.telemetry.spans.spans().is_empty());
        assert_eq!(
            off.fingerprint(),
            on.fingerprint(),
            "seed {seed}: telemetry perturbed the ServerlessLLM run"
        );
    }
}

#[test]
fn muxserve_results_are_bit_identical_with_telemetry_on() {
    for seed in SEEDS {
        let models = market_models(N_MODELS);
        let trace = uniform_trace(N_MODELS, RATE, SECS, seed, LengthDist::sharegpt());
        let cluster = aegaeon_cfg(seed, false).cluster;
        let rates = vec![RATE; N_MODELS];
        let mut off_cfg = WorldConfig::sllm_default(cluster.clone());
        off_cfg.seed = seed;
        let mut on_cfg = WorldConfig::sllm_default(cluster);
        on_cfg.seed = seed;
        on_cfg.telemetry = TelemetrySpec::enabled();
        let off = MuxServe::run(&off_cfg, &models, &rates, &trace);
        let on = MuxServe::run(&on_cfg, &models, &rates, &trace);
        assert_eq!(
            off.fingerprint(),
            on.fingerprint(),
            "seed {seed}: telemetry perturbed the MuxServe run"
        );
    }
}

// ----- Export determinism -----------------------------------------------

#[test]
fn chrome_trace_is_byte_identical_across_same_seed_runs() {
    let models = market_models(N_MODELS);
    let trace = uniform_trace(N_MODELS, RATE, SECS, 42, LengthDist::sharegpt());
    let render = || {
        let mut cfg = aegaeon_cfg(42, true);
        cfg.trace_schedule = true;
        let r = ServingSystem::run(&cfg, &models, &trace);
        (
            chrome_trace(&r.schedule, &r.telemetry.spans, &r.telemetry.metrics),
            aegaeon_telemetry::jsonl(&r.telemetry.spans, &r.telemetry.metrics),
        )
    };
    let (json_a, jsonl_a) = render();
    let (json_b, jsonl_b) = render();
    assert!(looks_like_trace_event_json(&json_a));
    assert_eq!(json_a, json_b, "Chrome trace export must be deterministic");
    assert_eq!(jsonl_a, jsonl_b, "JSONL export must be deterministic");
}

// ----- Span-tree well-formedness and coverage on real runs --------------

#[test]
fn aegaeon_span_log_is_well_formed_and_covers_the_lifecycle() {
    let models = market_models(N_MODELS);
    let trace = uniform_trace(N_MODELS, RATE, SECS, 7, LengthDist::sharegpt());
    let mut cfg = aegaeon_cfg(7, true);
    cfg.telemetry = TelemetrySpec::with_sample_every(SimDur::from_millis(250));
    let r = ServingSystem::run(&cfg, &models, &trace);
    let tel = &r.telemetry;

    if let Some(err) = tel.spans.validate() {
        panic!("span log invalid: {err}");
    }

    let has = |k: SpanKind| tel.spans.spans().iter().any(|s| s.kind == k);
    assert!(has(SpanKind::Request), "missing request root spans");
    assert!(has(SpanKind::QueueWait), "missing queue-wait spans");
    assert!(has(SpanKind::Prefill), "missing prefill spans");
    assert!(has(SpanKind::DecodeRound), "missing decode-round spans");
    assert!(has(SpanKind::Switch), "missing model-switch spans");
    assert!(has(SpanKind::Decision), "missing scheduler-decision instants");
    assert!(
        r.swaps == 0 || has(SpanKind::KvTransfer),
        "run performed {} swaps but recorded no kv-transfer spans",
        r.swaps
    );

    // Roots cover every arrival; phases parent back to their root.
    let roots = tel
        .spans
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Request)
        .count();
    assert_eq!(roots, trace.len(), "one root span per request");

    // The counter/gauge series the figures need, sampled on the grid.
    let step = SimDur::from_millis(250).as_nanos();
    for name in [
        "prefill_queue_depth",
        "vram_kv_used_bytes",
        "active_models",
        "events_dispatched",
        "kv_swaps",
        "switches",
    ] {
        let series = tel
            .metrics
            .counter_series()
            .chain(tel.metrics.gauge_series())
            .find(|(n, _)| *n == name);
        let (_, samples) = series.unwrap_or_else(|| panic!("missing series {name}"));
        assert!(!samples.is_empty(), "series {name} never sampled");
        for s in samples {
            assert_eq!(
                s.at.as_nanos() % step,
                0,
                "sample for {name} off the sampling grid"
            );
        }
    }
}

#[test]
fn baseline_span_logs_are_well_formed() {
    let models = market_models(N_MODELS);
    let trace = uniform_trace(N_MODELS, RATE, SECS, 42, LengthDist::sharegpt());
    let cluster = aegaeon_cfg(42, false).cluster;

    let mut scfg = SllmConfig::new(cluster.clone());
    scfg.world.seed = 42;
    scfg.world.telemetry = TelemetrySpec::enabled();
    let sr = ServerlessLlm::run(&scfg, &models, &trace);
    if let Some(err) = sr.telemetry.spans.validate() {
        panic!("serverless-llm span log invalid: {err}");
    }

    let mut mcfg = WorldConfig::sllm_default(cluster);
    mcfg.seed = 42;
    mcfg.telemetry = TelemetrySpec::enabled();
    let rates = vec![RATE; N_MODELS];
    let mr = MuxServe::run(&mcfg, &models, &rates, &trace);
    if let Some(err) = mr.telemetry.spans.validate() {
        panic!("muxserve span log invalid: {err}");
    }
    assert!(mr
        .telemetry
        .spans
        .spans()
        .iter()
        .any(|s| s.kind == SpanKind::Switch));
}

#[test]
fn baseline_runs_feed_the_slo_observatory() {
    // Light load, so every request retires and the observatory (fed at
    // retirement) must agree exactly with the offline per-model figure.
    let models = market_models(N_MODELS);
    let trace = uniform_trace(N_MODELS, 0.02, 60.0, 7, LengthDist::sharegpt());
    let mut cfg = SllmConfig::new(aegaeon_cfg(7, false).cluster);
    cfg.world.seed = 7;
    cfg.world.telemetry = TelemetrySpec::enabled();
    let r = ServerlessLlm::run(&cfg, &models, &trace);
    assert_eq!(r.completed, r.total_requests, "light load must drain");
    let offline = attainment_per_model(&r.outcomes, SloSpec::paper_default(), r.horizon, N_MODELS);
    let cum = r.telemetry.slo.cumulative();
    assert_eq!(cum.len(), N_MODELS);
    for (m, (online, offline)) in cum.iter().zip(&offline).enumerate() {
        assert_eq!(online.tokens, offline.tokens_total, "model {m}: tokens");
        assert_eq!(online.tokens_met, offline.tokens_met, "model {m}: tokens met");
    }
    assert!(cum.iter().any(|c| c.requests > 0), "observatory never fed");
    let a = analyze::analyze_run(&r.telemetry).expect("analyzable baseline run");
    assert!(a.consistency_errors().is_empty(), "{:?}", a.consistency_errors());
}

#[test]
fn chaos_run_span_log_stays_well_formed() {
    // Crashes strand phases, retries reopen them, and degraded links let KV
    // transfers outlive their request roots: validate() must still pass.
    let models = market_models(N_MODELS);
    let trace = uniform_trace(N_MODELS, RATE, SECS, 11, LengthDist::sharegpt());
    let mut cfg = aegaeon_cfg(11, true);
    cfg.faults = FaultPlan {
        seed: 11,
        crashes: Vec::new(),
        crash_rate_prefill: 0.012,
        crash_rate_decode: 0.018,
        link_rate: 0.04,
        link_factor: 0.3,
        link_secs: 5.0,
        stage_oom_rate: 0.03,
        stage_oom_secs: 5.0,
        // Stalls dense enough that some arrivals land inside a window and
        // take the retry-with-backoff path.
        stall_rate: 0.1,
        stall_secs: 5.0,
    };
    cfg.drain_window = SimDur::from_secs(500);
    let r = ServingSystem::run(&cfg, &models, &trace);
    if let Some(err) = r.telemetry.spans.validate() {
        panic!("chaos span log invalid: {err}");
    }
    assert!(
        r.telemetry.spans.spans().iter().any(|s| s.kind == SpanKind::Retry),
        "chaos run should record retry instants"
    );
    let totals: std::collections::HashMap<&str, f64> =
        r.telemetry.metrics.counter_totals().collect();
    assert!(totals["chaos_crashes"] > 0.0, "chaos crashes not counted");
    assert_eq!(totals["events_dispatched"], r.events as f64);
}

// ----- SLO observatory ---------------------------------------------------

#[test]
fn slo_observatory_populates_on_telemetry_runs() {
    let models = market_models(N_MODELS);
    let trace = uniform_trace(N_MODELS, RATE, SECS, 42, LengthDist::sharegpt());
    let r = ServingSystem::run(&aegaeon_cfg(42, true), &models, &trace);
    let tel = &r.telemetry;

    // Cumulative per-model accounting covers every retired token.
    assert!(tel.slo.is_enabled());
    assert_eq!(tel.slo.n_models(), N_MODELS);
    let cum = tel.slo.cumulative();
    let requests: u64 = cum.iter().map(|c| c.requests).sum();
    assert_eq!(requests, r.completed as u64, "every completion observed");
    for (m, c) in cum.iter().enumerate() {
        assert!(c.tokens_met <= c.tokens, "model {m}: met > produced");
        let a = tel.slo.attainment(m);
        assert!((0.0..=1.0).contains(&a), "model {m}: attainment {a}");
    }
    assert!(!tel.slo.points().is_empty(), "no windowed SLO points");

    // The per-model latency sketches carry one TTFT sample per completion.
    let ttft_count: u64 = tel
        .metrics
        .sketches()
        .filter(|(n, _)| n.starts_with("ttft_seconds{"))
        .map(|(_, s)| s.count())
        .sum();
    assert_eq!(ttft_count, r.completed as u64);

    // The attribution ledger saw both useful and overhead GPU time, and
    // every cell is finite and non-negative.
    assert!(tel.attrib.is_enabled());
    assert!(tel.attrib.useful_secs() > 0.0, "no useful time attributed");
    assert!(
        r.scale_count == 0 || tel.attrib.overhead_secs() > 0.0,
        "run switched {} times but attributed no overhead",
        r.scale_count
    );
    for (inst, model, kind, secs) in tel.attrib.rows() {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "ledger cell {inst}/{model}/{} = {secs}",
            kind.name()
        );
    }
}

#[test]
fn slo_exports_are_byte_identical_across_same_seed_runs() {
    let models = market_models(N_MODELS);
    let trace = uniform_trace(N_MODELS, RATE, SECS, 7, LengthDist::sharegpt());
    let render = || {
        let r = ServingSystem::run(&aegaeon_cfg(7, true), &models, &trace);
        aegaeon_telemetry::slo_json(&r.telemetry.slo, &r.telemetry.attrib)
    };
    let a = render();
    assert_eq!(a, render(), "SLO export must be deterministic");
    assert!(a.contains("\"models\""));
    assert!(a.contains("\"attribution\""));
}

// ----- Surfaced engine statistics ---------------------------------------

#[test]
fn registry_surfaces_queue_auditor_and_chaos_counts() {
    let models = market_models(N_MODELS);
    let trace = uniform_trace(N_MODELS, RATE, SECS, 42, LengthDist::sharegpt());
    let mut cfg = aegaeon_cfg(42, true);
    cfg.audit = true;
    let (r, report) = ServingSystem::run_audited(&cfg, &models, &trace);
    assert!(report.ok());
    let totals: std::collections::HashMap<&str, f64> =
        r.telemetry.metrics.counter_totals().collect();
    assert_eq!(totals["events_dispatched"], r.events as f64);
    assert_eq!(totals["audit_checks"], report.events_checked as f64);
    assert_eq!(totals["audit_violations"], report.violations.len() as f64);
    assert_eq!(totals["completed_requests"], r.completed as f64);
    assert_eq!(totals["switches"], r.scale_count as f64);
    assert_eq!(totals["kv_swaps"], r.swaps as f64);
    assert_eq!(totals["prefetch_hits"], r.prefetch_hits as f64);
    // The distribution sketches see the same observations as the result:
    // one scale latency per scale-up, summed in the same order.
    assert!(!r.scale_latencies.is_empty());
    let scale = sketch(&r.telemetry, "scale_latency_secs");
    assert_eq!(scale.count(), r.scale_latencies.len() as u64);
    let sum = r.scale_latencies.iter().fold(0.0f64, |acc, &v| acc + v);
    assert_eq!(scale.sum().to_bits(), sum.to_bits());
    assert!(sketch(&r.telemetry, "batch_size").count() > 0);

    // The baselines report the same RunResult fields, fed by the same
    // registry counters. MuxServe on two GPUs leaves one of the five
    // models unplaced, so its requests are rejected.
    let mut scfg = SllmConfig::new(cfg.cluster.clone());
    scfg.world.seed = 42;
    scfg.world.telemetry = TelemetrySpec::enabled();
    let sllm = ServerlessLlm::run(&scfg, &models, &trace);
    let mut mcfg = WorldConfig::sllm_default(AegaeonConfig::small_testbed(1, 1).cluster);
    mcfg.seed = 42;
    mcfg.telemetry = TelemetrySpec::enabled();
    let mux = MuxServe::run(&mcfg, &models, &[RATE; N_MODELS], &trace);
    assert!(mux.rejected > 0, "an unplaced model must reject requests");
    for (name, r) in [("serverlessllm", &sllm), ("muxserve", &mux)] {
        let totals: std::collections::HashMap<&str, f64> =
            r.telemetry.metrics.counter_totals().collect();
        assert_eq!(totals["events_dispatched"], r.events as f64, "{name}");
        assert_eq!(totals["switches"], r.scale_count as f64, "{name}");
        assert_eq!(totals["completed_requests"], r.completed as f64, "{name}");
        assert_eq!(totals["rejected_requests"], r.rejected as f64, "{name}");
        assert!(sketch(&r.telemetry, "batch_size").count() > 0, "{name}");
    }
}

/// The registry sketch named `name`.
fn sketch<'a>(tel: &'a aegaeon_telemetry::Telemetry, name: &str) -> &'a QuantileSketch {
    tel.metrics
        .sketches()
        .find(|&(n, _)| n == name)
        .unwrap_or_else(|| panic!("no sketch {name}"))
        .1
}

#[test]
fn exported_chrome_trace_validates_structurally() {
    let models = market_models(N_MODELS);
    let trace = uniform_trace(N_MODELS, RATE, SECS, 42, LengthDist::sharegpt());
    let mut cfg = aegaeon_cfg(42, true);
    cfg.trace_schedule = true;
    let r = ServingSystem::run(&cfg, &models, &trace);
    let json = chrome_trace(&r.schedule, &r.telemetry.spans, &r.telemetry.metrics);
    assert!(looks_like_trace_event_json(&json));
    let events = parse_trace_events(&json);
    assert!(!events.is_empty());
    let mut phases = std::collections::HashSet::new();
    for e in &events {
        let serde_json::Value::Object(obj) = e else {
            panic!("trace event is not an object: {e:?}");
        };
        let Some(serde_json::Value::String(ph)) = obj.get("ph") else {
            panic!("event missing ph: {obj:?}");
        };
        phases.insert(ph.clone());
        if ph != "M" {
            assert!(obj.get("ts").is_some(), "event missing ts: {obj:?}");
        }
        assert!(obj.get("pid").is_some(), "event missing pid: {obj:?}");
    }
    for need in ["M", "X", "C"] {
        assert!(phases.contains(need), "no {need} events in export");
    }

    // Telemetry off exports an empty-but-valid JSON document (the
    // `looks_like` heuristic wants real events, so only parse it).
    let empty = chrome_trace(
        &TraceLog::disabled(),
        &aegaeon_telemetry::SpanLog::disabled(),
        &aegaeon_telemetry::MetricsRegistry::disabled(),
    );
    parse_trace_events(&empty);
}

/// Parses a Chrome trace export and returns its `traceEvents` array.
fn parse_trace_events(json: &str) -> Vec<serde_json::Value> {
    let v: serde_json::Value = serde_json::from_str(json).expect("valid JSON");
    let serde_json::Value::Object(top) = v else {
        panic!("trace export is not an object");
    };
    match top.get("traceEvents") {
        Some(serde_json::Value::Array(events)) => events.clone(),
        other => panic!("traceEvents is not an array: {other:?}"),
    }
}

// ----- Cross-commit export golden -----------------------------------------

/// Digests of every telemetry export for two fixed-seed runs, pinned in
/// `tests/golden/telemetry_exports.txt`. The determinism tests above compare
/// two runs of one build; this compares against earlier builds, so a change
/// to the span log, the sketches or the observatory that claims to keep
/// exports byte-identical can prove it. Regenerate after an intentional
/// export change with:
///
/// ```text
/// REGEN_GOLDEN=1 cargo test -p aegaeon-bench --test telemetry export_digests_match_golden
/// ```
const EXPORT_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/telemetry_exports.txt"
);

/// 64-bit FNV-1a: stable across platforms and toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn export_digests() -> String {
    let models = market_models(N_MODELS);
    let trace = uniform_trace(N_MODELS, RATE, SECS, 11, LengthDist::sharegpt());
    let mut cfg = aegaeon_cfg(11, true);
    cfg.trace_schedule = true;
    cfg.faults = FaultPlan {
        seed: 11,
        crashes: Vec::new(),
        crash_rate_prefill: 0.012,
        crash_rate_decode: 0.018,
        link_rate: 0.04,
        link_factor: 0.3,
        link_secs: 5.0,
        stage_oom_rate: 0.03,
        stage_oom_secs: 5.0,
        stall_rate: 0.1,
        stall_secs: 5.0,
    };
    let a = ServingSystem::run(&cfg, &models, &trace);
    let mut scfg = SllmConfig::new(cfg.cluster.clone());
    scfg.world.seed = 11;
    scfg.world.telemetry = TelemetrySpec::enabled();
    let s = ServerlessLlm::run(&scfg, &models, &trace);

    let mut out = String::new();
    for (run, schedule, tel) in [
        ("aegaeon seed=11 chaos", &a.schedule, &a.telemetry),
        ("serverlessllm seed=11", &TraceLog::disabled(), &s.telemetry),
    ] {
        for (name, text) in [
            (
                "chrome_trace",
                chrome_trace(schedule, &tel.spans, &tel.metrics),
            ),
            ("jsonl", aegaeon_telemetry::jsonl(&tel.spans, &tel.metrics)),
            (
                "prometheus_text",
                aegaeon_telemetry::prometheus_text(&tel.metrics),
            ),
            (
                "slo_json",
                aegaeon_telemetry::slo_json(&tel.slo, &tel.attrib),
            ),
        ] {
            out.push_str(&format!(
                "{run} {name}: {} bytes {:016x}\n",
                text.len(),
                fnv1a(text.as_bytes())
            ));
        }
    }
    out
}

#[test]
fn export_digests_match_golden() {
    let text = export_digests();
    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(EXPORT_GOLDEN, &text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(EXPORT_GOLDEN)
        .expect("golden file missing — run with REGEN_GOLDEN=1 to create it");
    assert!(
        text == golden,
        "telemetry exports drifted from tests/golden/telemetry_exports.txt:\n\
         golden:\n{golden}now:\n{text}\
         regenerate with REGEN_GOLDEN=1 only if the export change is intended"
    );
}
