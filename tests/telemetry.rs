//! Telemetry end-to-end tests: the span/metrics subsystem must be a pure
//! observer (bit-identical behavior on or off, across every system), its
//! exports must be deterministic byte-for-byte, and real runs must produce
//! well-formed span trees with the lifecycle phases the paper's figures
//! need (queue wait, prefill, decode rounds, switches, KV transfers).

use aegaeon::chaos::FaultPlan;
use aegaeon::events::InstKind;
use aegaeon::runtime::{CoreIds, Requests};
use aegaeon::session::LiveRequest;
use aegaeon::{AegaeonConfig, RunResult, ServingSession, ServingSystem};
use aegaeon_baselines::engine_loop::WorldConfig;
use aegaeon_baselines::{MuxServe, ServerlessLlm, SllmConfig};
use aegaeon_bench::{analyze, market_models, uniform_trace};
use aegaeon_metrics::slo::attainment_per_model;
use aegaeon_model::{ModelId, ModelSpec};
use aegaeon_sim::{EventQueue, SimDur, SimRng, SimTime};
use aegaeon_telemetry::observatory::SloCum;
use aegaeon_telemetry::{
    chrome_trace, expand, labeled, looks_like_trace_event_json, render_timeline, QuantileSketch,
    SpanKind, SpanLog, TelemetrySpec,
};
use aegaeon_workload::{LengthDist, Request, RequestId, SessionBuilder, SloSpec, Trace};

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

/// The "on" run also records the GPU schedule, so this covers both
/// observers: telemetry and `trace_schedule`.
#[test]
fn aegaeon_results_are_bit_identical_with_telemetry_on() {
    for seed in SEEDS {
        let models = market_models(N_MODELS);
        let trace = uniform_trace(N_MODELS, RATE, SECS, seed, LengthDist::sharegpt());
        let off = ServingSystem::run(&aegaeon_cfg(seed, false), &models, &trace);
        let mut on_cfg = aegaeon_cfg(seed, true);
        on_cfg.trace_schedule = true;
        let on = ServingSystem::run(&on_cfg, &models, &trace);
        assert!(!off.telemetry.is_enabled());
        assert!(on.telemetry.is_enabled());
        assert!(
            !on.telemetry.spans.spans().is_empty(),
            "enabled telemetry must record spans"
        );
        assert!(off.schedule.spans().is_empty(), "schedule recorded while off");
        assert!(!on.schedule.spans().is_empty(), "schedule recorded nothing");
        for s in on.schedule.spans() {
            assert!(
                s.track.strip_prefix("gpu").is_some_and(|n| n.parse::<u32>().is_ok()),
                "seed {seed}: schedule interval on non-GPU track {}",
                s.track
            );
            assert!(
                matches!(s.kind, SpanKind::Prefill | SpanKind::DecodeRound | SpanKind::Switch),
                "seed {seed}: schedule interval of kind {:?}",
                s.kind
            );
        }
        assert_eq!(
            off.fingerprint(),
            on.fingerprint(),
            "seed {seed}: telemetry or schedule recording perturbed the Aegaeon run"
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
    // Overloaded runs: requests cut off by the hard stop, starved or
    // rejected never retire, yet after finish the observatory, the final
    // registry sample and `/metrics` must all equal the offline figure.
    let models = market_models(N_MODELS);
    let trace = uniform_trace(N_MODELS, RATE, SECS, 7, LengthDist::sharegpt());
    let mut acfg = AegaeonConfig::small_testbed(1, 1);
    acfg.seed = 7;
    acfg.telemetry = TelemetrySpec::enabled();
    acfg.drain_window = SimDur::from_secs(5);
    let aegaeon = ServingSystem::run(&acfg, &models, &trace);
    let mut scfg = SllmConfig::new(aegaeon_cfg(7, false).cluster);
    scfg.world.seed = 7;
    scfg.world.telemetry = TelemetrySpec::enabled();
    let sllm = ServerlessLlm::run(&scfg, &models, &trace);
    // Two GPUs leave one of the five models unplaced.
    let mut mcfg = WorldConfig::sllm_default(AegaeonConfig::small_testbed(1, 1).cluster);
    mcfg.seed = 7;
    mcfg.telemetry = TelemetrySpec::enabled();
    let mux = MuxServe::run(&mcfg, &models, &[RATE; N_MODELS], &trace);
    assert!(aegaeon.completed < aegaeon.total_requests, "hard stop must cut requests off");
    assert!(mux.rejected > 0, "an unplaced model must reject requests");

    for (name, r) in [("aegaeon", &aegaeon), ("serverlessllm", &sllm), ("muxserve", &mux)] {
        let offline =
            attainment_per_model(&r.outcomes, SloSpec::paper_default(), r.horizon, N_MODELS);
        let cum = r.telemetry.slo.cumulative();
        assert_eq!(cum.len(), N_MODELS, "{name}");
        let metrics = &r.telemetry.metrics;
        let gauges: std::collections::HashMap<&str, f64> = metrics.gauge_values().collect();
        let last_sample: std::collections::HashMap<&str, f64> = metrics
            .gauge_series()
            .map(|(n, s)| (n, s.last().expect("final sample").value))
            .collect();
        for (m, (online, offline)) in cum.iter().zip(&offline).enumerate() {
            assert_eq!(online.tokens, offline.tokens_total, "{name} m{m}: tokens");
            assert_eq!(online.tokens_met, offline.tokens_met, "{name} m{m}: tokens met");
            let gauge = labeled("slo_attainment", "model", &format!("m{m}"));
            assert_eq!(gauges[gauge.as_str()], offline.ratio(), "{name} {gauge}");
            assert_eq!(last_sample[gauge.as_str()], offline.ratio(), "{name} {gauge} sample");
        }
        assert!(cum.iter().any(|c| c.requests > 0), "{name}: observatory never fed");
        let a = analyze::analyze_run(&r.telemetry).expect("analyzable run");
        assert!(a.consistency_errors().is_empty(), "{name}: {:?}", a.consistency_errors());
    }
}

#[test]
fn finish_scores_only_requests_left_unresolved() {
    // Request 0 finished (its loop retired it), request 1 migrated to
    // another shard, request 2 was never served: finish scores request 2
    // alone, against the trace horizon.
    let req = |id, model| Request::single(RequestId(id), ModelId(model), 0, 16, 50);
    let trace = Trace {
        requests: vec![req(0, 0), req(1, 0), req(2, 1)],
        horizon: SimTime::from_secs_f64(10.25),
    };
    let mut reqs = Requests::new(&trace);
    for i in 0..50 {
        reqs.push_token(RequestId(0), SimTime::from_secs_f64(1.0 + 0.01 * i as f64));
    }
    reqs.completed = 1;
    reqs[1].migrated = true;
    reqs.migrated = 1;
    let (mut tel, ids) = CoreIds::telemetry(&TelemetrySpec::enabled(), 2);
    let q = EventQueue::<()>::new();
    ids.finish(&mut tel, &reqs, &trace, &q, SimTime::ZERO, None);
    let cum = tel.slo.cumulative();
    assert_eq!(cum[0], SloCum::default(), "retired and migrated requests are not rescored");
    // Tokens due at 10.0, 10.1 and 10.2 s were owed by the horizon.
    let owed = SloCum {
        requests: 0,
        tokens: 3,
        tokens_met: 0,
    };
    assert_eq!(cum[1], owed);
    let gauges: std::collections::HashMap<&str, f64> = tel.metrics.gauge_values().collect();
    assert_eq!(gauges[labeled("slo_attainment", "model", "m0").as_str()], 1.0);
    assert_eq!(gauges[labeled("slo_attainment", "model", "m1").as_str()], 0.0);
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
    let r = ServingSystem::run(&cfg, &models, &trace);
    let report = r.audit.as_ref().expect("audited run");
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

/// An offline run's Prometheus export carries only what the simulation
/// counts: the live gateway's families are rendered by the gateway itself,
/// so an offline run never prints them as always-zero lines.
#[test]
fn offline_export_names_no_gateway_family() {
    let models = market_models(N_MODELS);
    let trace = uniform_trace(N_MODELS, RATE, SECS, 7, LengthDist::sharegpt());
    let r = ServingSystem::run(&aegaeon_cfg(7, true), &models, &trace);
    let text = aegaeon_telemetry::prometheus_text(&r.telemetry.metrics);
    assert!(
        text.contains("events_dispatched "),
        "export is empty:\n{text}"
    );
    let gateway = [
        "http_",
        "gateway_",
        "reactor_",
        "wall_clock_lag_secs",
        "metrics_snapshot_age_ms",
    ];
    for line in text.lines() {
        let name = line.strip_prefix("# TYPE ").unwrap_or(line);
        let offline = gateway.iter().any(|g| name.starts_with(g));
        assert!(!offline, "gateway family in an offline export: {line}");
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
        &SpanLog::disabled(),
        &SpanLog::disabled(),
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

/// The seed-11 chaos Aegaeon run both goldens pin: `(cfg, models, trace)`.
fn chaos_setup() -> (AegaeonConfig, Vec<ModelSpec>, Trace) {
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
    (cfg, models, trace)
}

/// Compares `text` with the golden file at `path`, or rewrites the file
/// when `REGEN_GOLDEN` is set.
fn check_golden(path: &str, text: &str) {
    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(path, text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — run with REGEN_GOLDEN=1 to create it");
    assert!(
        text == golden,
        "output drifted from {path}:\n\
         golden:\n{golden}now:\n{text}\
         regenerate with REGEN_GOLDEN=1 only if the change is intended"
    );
}

fn export_digests() -> String {
    let (cfg, models, trace) = chaos_setup();
    let a = ServingSystem::run(&cfg, &models, &trace);
    let mut scfg = SllmConfig::new(cfg.cluster.clone());
    scfg.world.seed = 11;
    scfg.world.telemetry = TelemetrySpec::enabled();
    let s = ServerlessLlm::run(&scfg, &models, &trace);

    let mut out = String::new();
    for (run, schedule, tel) in [
        ("aegaeon seed=11 chaos", &a.schedule, &a.telemetry),
        ("serverlessllm seed=11", &SpanLog::disabled(), &s.telemetry),
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
    check_golden(EXPORT_GOLDEN, &export_digests());
}

// ----- Cross-commit series golden -----------------------------------------

/// Digests of every counter and gauge series of two fixed-seed runs, pinned
/// in `tests/golden/telemetry_series.txt`: per series its name, its point
/// count and an FNV-1a of every `(at, value bits)` point, on the dense grid
/// of one point per sample boundary plus the final point. The registry
/// stores change-only series; [`expand`] rebuilds that grid from them, so
/// this pins both what each sample holds and that no change is dropped.
/// Regenerate after an intentional change to what a sample holds with:
///
/// ```text
/// REGEN_GOLDEN=1 cargo test -p aegaeon-bench --test telemetry series_digests_match_golden
/// ```
const SERIES_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/telemetry_series.txt"
);

fn series_digests() -> String {
    let (cfg, models, trace) = chaos_setup();
    let chaos = ServingSystem::run(&cfg, &models, &trace);
    let mut rng = SimRng::seed_from_u64(4242);
    let trace = SessionBuilder::new(SimTime::from_secs_f64(300.0), 4, 0.012)
        .depth(2, 5)
        .think_gap(15.0, 0.5)
        .generate(&mut rng)
        .lower();
    let mut cfg = aegaeon_cfg(4242, true);
    cfg.session_affinity = true;
    let agentic = ServingSystem::run(&cfg, &market_models(4), &trace);
    assert!(agentic.prefix_hits > 0, "the agentic run must reuse prefixes");

    let mut out = String::new();
    for (run, tel) in [
        ("aegaeon seed=11 chaos", &chaos.telemetry),
        ("aegaeon seed=4242 agentic", &agentic.telemetry),
    ] {
        for (class, series) in [
            ("counter", tel.metrics.counter_series().collect::<Vec<_>>()),
            ("gauge", tel.metrics.gauge_series().collect::<Vec<_>>()),
        ] {
            for (name, points) in series {
                let points = expand(points, tel.sample_every(), tel.metrics.samples_taken());
                let mut bytes = Vec::with_capacity(points.len() * 16);
                for p in &points {
                    bytes.extend(p.at.as_nanos().to_le_bytes());
                    bytes.extend(p.value.to_bits().to_le_bytes());
                }
                out.push_str(&format!(
                    "{run} {class} {name}: {} points {:016x}\n",
                    points.len(),
                    fnv1a(&bytes)
                ));
            }
        }
    }
    out
}

#[test]
fn series_digests_match_golden() {
    check_golden(SERIES_GOLDEN, &series_digests());
}

// ----- Cross-commit timeline golden ---------------------------------------

/// The ASCII Gantt renders of `fig06_schedules` and `schedule_timeline`,
/// pinned verbatim in `tests/golden/timelines.txt`, so a change to how the
/// schedule is recorded or rendered must show each row it moves.
/// Regenerate after an intentional change with:
///
/// ```text
/// REGEN_GOLDEN=1 cargo test -p aegaeon-bench --test telemetry timelines_match_golden
/// ```
const TIMELINES_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/timelines.txt"
);

fn timelines() -> String {
    use aegaeon::unified::{figure6_scenario, run_unified, UnifiedPolicy};

    let mut out = String::new();
    let (ucfg, reqs) = figure6_scenario();
    for (name, policy) in [
        ("fig06 prefill-first", UnifiedPolicy::PrefillFirst),
        ("fig06 decode-first", UnifiedPolicy::DecodeFirst),
        ("fig06 disaggregated", UnifiedPolicy::Disaggregated { prefill_gpus: 1 }),
    ] {
        let r = run_unified(policy, &ucfg, &reqs);
        let end = SimTime::from_secs_f64(r.makespan.min(20.0));
        out.push_str(&format!("{name}\n"));
        out.push_str(&render_timeline(&r.trace, SimTime::ZERO, end, 100));
    }

    // The `schedule_timeline` example's run and window.
    let zoo = aegaeon_model::Zoo::standard();
    let models = aegaeon_model::Zoo::replicate(&zoo.market_band(), 5);
    let mut rng = SimRng::seed_from_u64(5);
    let horizon = SimTime::from_secs_f64(60.0);
    let trace = aegaeon_workload::TraceBuilder::new(horizon, LengthDist::sharegpt())
        .uniform_models(&mut rng, 5, 0.15)
        .build(&mut rng);
    let mut cfg = AegaeonConfig::small_testbed(1, 2);
    cfg.seed = 5;
    cfg.trace_schedule = true;
    let r = ServingSystem::run(&cfg, &models, &trace);
    out.push_str("schedule_timeline seed=5 first 30 s\n");
    out.push_str(&render_timeline(
        &r.schedule,
        SimTime::ZERO,
        SimTime::from_secs_f64(30.0),
        110,
    ));
    out
}

#[test]
fn timelines_match_golden() {
    check_golden(TIMELINES_GOLDEN, &timelines());
}

// ----- Live session vs. its replay ----------------------------------------

/// Digests of the replay's exports in [`live_session_exports_equal_its_replays`],
/// pinned in `tests/golden/live_replay_exports.txt`. Regenerate after an
/// intentional export change with:
///
/// ```text
/// REGEN_GOLDEN=1 cargo test -p aegaeon-bench --test telemetry live_session_exports_equal_its_replays
/// ```
const LIVE_REPLAY_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/live_replay_exports.txt"
);

/// A finished run's four exports as `(name, text)`.
fn run_exports(r: &RunResult) -> [(&'static str, String); 4] {
    let tel = &r.telemetry;
    [
        (
            "chrome_trace",
            chrome_trace(&r.schedule, &tel.spans, &tel.metrics),
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
    ]
}

/// An open session with telemetry on: 3 models on 2 prefill and 3 decode
/// GPUs, proxy stalls and one explicit decode crash, fed in dribbles
/// across ragged `step_until` slices and stepped to quiescence (not
/// finished).
fn live_session() -> (AegaeonConfig, Vec<ModelSpec>, ServingSession) {
    let models = market_models(3);
    let plan = uniform_trace(3, 0.15, 60.0, 12, LengthDist::sharegpt());
    let mut cfg = aegaeon_cfg(12, true);
    cfg.faults = FaultPlan {
        seed: 12,
        crashes: vec![(18.0, InstKind::Decode, 1)],
        stall_rate: 0.08,
        stall_secs: 2.0,
        ..FaultPlan::none()
    };
    let mut live = ServingSession::open(&cfg, &models, plan.horizon);
    let inj = live.injector();
    let mut slice = SimTime::ZERO;
    for (i, &req) in plan.requests.iter().enumerate() {
        assert!(inj.send(req.arrival(), LiveRequest { req, sink: None }));
        if i % 3 == 0 {
            slice += SimDur::from_millis(900 * (i as u64 % 4 + 1));
            live.step_until(slice);
        }
    }
    live.step_until(SimTime::MAX);
    assert!(live.quiescent(), "the live session must drain");
    assert_eq!(live.injected_trace().len(), plan.len());
    (cfg, models, live)
}

/// Point counts of every counter and gauge series.
fn series_lengths(tel: &aegaeon_telemetry::Telemetry) -> Vec<usize> {
    let m = &tel.metrics;
    m.counter_series().chain(m.gauge_series()).map(|(_, p)| p.len()).collect()
}

/// A live session keeps only its instruments: before finish it holds no
/// span and no series point, yet its SLO document, sketches, ledger and
/// counters equal those of the replay of its injected trace, and the
/// replay's full exports are pinned.
#[test]
fn live_session_exports_equal_its_replays() {
    let (cfg, models, live) = live_session();
    let tel = live.telemetry();
    assert!(tel.is_enabled());
    assert!(tel.spans.spans().is_empty(), "a live session records no span");
    assert!(series_lengths(tel).iter().all(|&n| n == 0), "a live session samples no series");
    assert_eq!(tel.metrics.samples_taken(), 0);
    let trace = live.injected_trace();
    let (live, _) = live.finish();
    let mut replay = ServingSession::replay(&cfg, &models, &trace);
    replay.step_until(SimTime::MAX);
    let (replay, _) = replay.finish();
    assert_eq!(live.fingerprint(), replay.fingerprint());
    let (l, r) = (&live.telemetry, &replay.telemetry);
    let totals: std::collections::HashMap<&str, f64> = r.metrics.counter_totals().collect();
    assert!(totals["proxy_retries"] > 0.0, "no arrival hit a proxy stall");
    assert_eq!(totals["chaos_crashes"], 1.0);

    let (exported, replayed) = (run_exports(&live), run_exports(&replay));
    assert!(exported[3].1 == replayed[3].1, "live and replay slo_json differ");
    let sketches = |t: &aegaeon_telemetry::Telemetry| {
        format!("{:?}", t.metrics.sketches().collect::<Vec<_>>())
    };
    assert_eq!(sketches(l), sketches(r), "live and replay sketches differ");
    assert_eq!(l.attrib.rows().collect::<Vec<_>>(), r.attrib.rows().collect::<Vec<_>>());
    assert!(l.attrib.rows().count() > 0, "the ledger booked nothing");
    assert_eq!(
        l.metrics.counter_totals().collect::<Vec<_>>(),
        r.metrics.counter_totals().collect::<Vec<_>>()
    );
    assert!(series_lengths(l).iter().all(|&n| n == 1), "only the final point");

    let mut digests = String::new();
    for (name, text) in &replayed {
        digests.push_str(&format!(
            "replay {name}: {} bytes {:016x}\n",
            text.len(),
            fnv1a(text.as_bytes())
        ));
    }
    check_golden(LIVE_REPLAY_GOLDEN, &digests);
}
