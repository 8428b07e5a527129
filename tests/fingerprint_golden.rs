//! Cross-commit fingerprint golden: every serving system's result
//! fingerprint on a fixed set of small runs, pinned in
//! `tests/golden/fingerprints.txt` beside each run's event and token
//! counts (the fingerprint is taken with the event count zeroed, so a
//! change that only moves how many events a run takes shows on `events=`
//! alone), and the invariant auditor's counts on
//! audited chaos runs, pinned in `tests/golden/audit_counts.txt`. The other
//! differential tests compare two runs of the same build; these compare
//! against what earlier builds produced, so a refactor that claims to
//! preserve behaviour — or what the auditor checks — can prove it.
//! Regenerate after an intentional behaviour change with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p aegaeon-bench --test fingerprint_golden
//! ```

use aegaeon::chaos::FaultPlan;
use aegaeon::events::InstKind;
use aegaeon::shard::{run_sharded, ShardPlan};
use aegaeon::{AegaeonConfig, ServingSystem};
use aegaeon_baselines::engine_loop::WorldConfig;
use aegaeon_baselines::{Dedicated, MuxServe, ServerlessLlm, SllmConfig};
use aegaeon_bench::{market_models, uniform_trace};
use aegaeon_gpu::{ClusterSpec, GpuSpec, NodeSpec};
use aegaeon_sim::{SimRng, SimTime};
use aegaeon_telemetry::TelemetrySpec;
use aegaeon_workload::{LengthDist, SessionBuilder};

const SEEDS: [u64; 3] = [7, 42, 20250713];

fn one_node(gpus: u32) -> ClusterSpec {
    ClusterSpec::homogeneous(
        1,
        NodeSpec {
            gpus,
            gpu: GpuSpec::h800(),
            nic_bw: 25e9,
        },
    )
}

fn chaos(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        crashes: vec![(20.0, InstKind::Decode, 0)],
        crash_rate_prefill: 0.01,
        crash_rate_decode: 0.015,
        link_rate: 0.03,
        link_factor: 0.4,
        link_secs: 4.0,
        stage_oom_rate: 0.02,
        stage_oom_secs: 4.0,
        stall_rate: 0.02,
        stall_secs: 0.8,
    }
}

/// Aegaeon on the 2+3 testbed under [`chaos`], with a drain window long
/// enough for every request to finish.
fn chaos_cfg(seed: u64) -> AegaeonConfig {
    let mut cfg = AegaeonConfig::small_testbed(2, 3);
    cfg.seed = seed;
    cfg.faults = chaos(seed);
    cfg.drain_window = aegaeon_sim::SimDur::from_secs(400);
    cfg
}

/// Agentic sessions over six models whose retained prefixes spill to the
/// CPU caches and are claimed across decode crashes.
fn agentic_trace(seed: u64) -> aegaeon_workload::Trace {
    let mut rng = SimRng::seed_from_u64(seed);
    SessionBuilder::new(SimTime::from_secs_f64(300.0), 6, 0.05)
        .depth(2, 5)
        .think_gap(15.0, 0.5)
        .generate(&mut rng)
        .lower()
}

/// One golden line's fields: the fingerprint of `r` with its event count
/// zeroed, then the event and produced-token counts. A change that only
/// moves how many events a run takes moves `events=` alone.
fn line(r: aegaeon::RunResult) -> String {
    let events = r.events;
    let tokens: usize = r.outcomes.iter().map(|o| o.token_times.len()).sum();
    let fp = aegaeon::RunResult { events: 0, ..r }.fingerprint();
    format!("{fp:016x} events={events} tokens={tokens}")
}

/// Every pinned run as `(name, line)`, in golden-file order.
fn fingerprints() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let models = market_models(5);

    // Aegaeon: seeds x {healthy, chaos}, plus observers on (auditor and
    // telemetry must reproduce the plain fingerprint) and a TP=2 cluster
    // (the multi-GPU completion join).
    for seed in SEEDS {
        let trace = uniform_trace(5, 0.12, 60.0, seed, LengthDist::sharegpt());
        for (label, plan) in [("healthy", FaultPlan::none()), ("chaos", chaos(seed))] {
            let mut cfg = AegaeonConfig::small_testbed(2, 3);
            cfg.seed = seed;
            cfg.faults = plan;
            cfg.drain_window = aegaeon_sim::SimDur::from_secs(400);
            let r = ServingSystem::run(&cfg, &models, &trace);
            out.push((format!("aegaeon seed={seed} {label}"), line(r)));
        }
    }
    let trace = uniform_trace(5, 0.12, 60.0, 7, LengthDist::sharegpt());
    let mut observed = AegaeonConfig::small_testbed(2, 3);
    observed.seed = 7;
    observed.audit = true;
    observed.telemetry = TelemetrySpec::enabled();
    let r = ServingSystem::run(&observed, &models, &trace);
    out.push(("aegaeon seed=7 healthy audit+telemetry".into(), line(r)));
    let mut tp2 = AegaeonConfig::small_testbed(2, 2);
    tp2.tp = 2;
    tp2.prefill_instances = 1;
    tp2.seed = 7;
    let r = ServingSystem::run(&tp2, &models, &trace);
    out.push(("aegaeon seed=7 tp=2".into(), line(r)));
    // Two weight slots (§8 colocation): activations of a colocated model
    // and prefetches that land in the spare slot, evicting by recency.
    let slots_trace = uniform_trace(5, 0.2, 60.0, 7, LengthDist::sharegpt());
    let mut slots = AegaeonConfig::small_testbed(1, 2);
    slots.weight_slots = 2;
    slots.seed = 7;
    let r = ServingSystem::run(&slots, &models, &slots_trace);
    out.push(("aegaeon seed=7 weight_slots=2".into(), line(r)));
    // Blocking KV transfers (no fine-grained sync), with requests joining
    // running turns: a step issued behind a queued copy waits for it to
    // drain, and a copy submitted while a step runs queues behind it on
    // the hold stream.
    let joining = uniform_trace(2, 0.5, 60.0, 7, LengthDist::sharegpt());
    let mut blocking = AegaeonConfig::small_testbed(2, 3);
    blocking.opts.fine_sync = false;
    blocking.seed = 7;
    let r = ServingSystem::run(&blocking, &models, &joining);
    out.push(("aegaeon seed=7 blocking kv".into(), line(r)));
    // Cut at the hard stop: a short drain window halts the run with steps
    // in flight.
    let mut halted = AegaeonConfig::small_testbed(2, 3);
    halted.seed = 7;
    halted.drain_window = aegaeon_sim::SimDur::from_secs(1);
    let r = ServingSystem::run(&halted, &models, &trace);
    let hard_stop = trace.horizon + halted.drain_window;
    assert!(r.end_time > hard_stop, "the run must halt at the hard stop");
    out.push(("aegaeon seed=7 halted".into(), line(r)));
    // Agentic sessions under chaos: seed 9 is the run `audit_counts` pins;
    // at seeds 16 and 271 a crashed decoder holds outstanding prefix
    // claims, of requests in its work list (16) and of requests still
    // prefilling elsewhere (271).
    for seed in [9, 16, 271] {
        let mut cfg = chaos_cfg(seed);
        cfg.session_affinity = true;
        let r = ServingSystem::run(&cfg, &market_models(6), &agentic_trace(seed));
        let name = format!("aegaeon seed={seed} agentic affinity chaos");
        out.push((name, line(r)));
    }

    // Two shards over the paper testbed's two nodes.
    let sharded_models = market_models(8);
    let sharded_trace = uniform_trace(8, 0.1, 60.0, 3, LengthDist::sharegpt());
    let mut cfg = AegaeonConfig::paper_testbed();
    cfg.seed = 3;
    let r = run_sharded(&cfg, &sharded_models, &sharded_trace, 2, 2);
    out.push(("sharded shards=2 seed=3".into(), line(r)));
    // Agentic turns migrate off a shard that loses its whole prefill tier:
    // each handoff must carry the turn's session, turn index and prefix.
    let mut rng = SimRng::seed_from_u64(4251);
    let sessions = SessionBuilder::new(SimTime::from_secs_f64(300.0), 4, 0.01)
        .depth(2, 5)
        .think_gap(15.0, 0.5)
        .generate(&mut rng)
        .lower();
    let mut cfg = AegaeonConfig::paper_testbed();
    cfg.seed = 4242;
    cfg.session_affinity = true;
    cfg.audit = true;
    let shard0_prefills = ShardPlan::partition(&cfg, &sessions, 2).cfgs[0].prefill_instances;
    let crashes: Vec<_> = (0..shard0_prefills as u32)
        .map(|i| (60.0, InstKind::Prefill, i))
        .collect();
    cfg.faults = FaultPlan::crashes(&crashes);
    let r = run_sharded(&cfg, &market_models(4), &sessions, 2, 2);
    assert!(r.shard_windows > 1, "the tier loss must window the run");
    assert_eq!(r.completed, r.total_requests);
    out.push((
        "sharded shards=2 seed=4242 agentic prefill loss".into(),
        line(r),
    ));

    // Baselines.
    for seed in SEEDS {
        let trace = uniform_trace(5, 0.12, 60.0, seed, LengthDist::sharegpt());
        let mut plain = SllmConfig::new(one_node(2));
        plain.world.seed = seed;
        let r = ServerlessLlm::run(&plain, &models, &trace);
        out.push((format!("serverlessllm seed={seed}"), line(r)));
        let mut plus = SllmConfig::plus(one_node(2));
        plus.world.seed = seed;
        let r = ServerlessLlm::run(&plus, &models, &trace);
        out.push((format!("serverlessllm+ seed={seed}"), line(r)));
    }
    let mut observed = SllmConfig::new(one_node(2));
    observed.world.seed = 7;
    observed.world.audit = true;
    observed.world.telemetry = TelemetrySpec::enabled();
    let r = ServerlessLlm::run(&observed, &models, &trace);
    out.push(("serverlessllm seed=7 audit+telemetry".into(), line(r)));
    let mut tp2 = SllmConfig::new(one_node(4));
    tp2.world.tp = 2;
    tp2.world.seed = 7;
    let r = ServerlessLlm::run(&tp2, &models, &trace);
    out.push(("serverlessllm seed=7 tp=2".into(), line(r)));

    // MuxServe on 2 GPUs for 8 models: half the models stay unplaced and
    // their requests are rejected at arrival.
    let mux_models = market_models(8);
    for seed in SEEDS {
        let trace = uniform_trace(8, 0.1, 60.0, seed, LengthDist::sharegpt());
        let mut cfg = WorldConfig::sllm_default(one_node(2));
        cfg.seed = seed;
        let r = MuxServe::run(&cfg, &mux_models, &[0.1; 8], &trace);
        assert!(r.rejected > 0, "seed {seed}: the trace must exercise rejection");
        out.push((format!("muxserve seed={seed}"), line(r)));
    }
    let trace = uniform_trace(8, 0.1, 60.0, 7, LengthDist::sharegpt());
    let mut observed = WorldConfig::sllm_default(one_node(2));
    observed.seed = 7;
    observed.audit = true;
    observed.telemetry = TelemetrySpec::enabled();
    let r = MuxServe::run(&observed, &mux_models, &[0.1; 8], &trace);
    out.push(("muxserve seed=7 audit+telemetry".into(), line(r)));

    // Dedicated: one instance per model, then TP=2 replicas.
    let ded_models = market_models(4);
    let ded_trace = uniform_trace(4, 0.1, 60.0, 7, LengthDist::sharegpt());
    let mut cfg = WorldConfig::sllm_default(one_node(4));
    cfg.seed = 7;
    let r = Dedicated::run(&cfg, &ded_models, &ded_trace);
    out.push(("dedicated seed=7".into(), line(r)));
    let mut cfg = WorldConfig::sllm_default(one_node(8));
    cfg.tp = 2;
    cfg.seed = 7;
    let r = Dedicated::run(&cfg, &ded_models, &ded_trace);
    out.push(("dedicated seed=7 tp=2".into(), line(r)));
    // Two replicas per model on A10s, loaded past what they admit: each
    // model's queue forms, and a replica's admission from it changes the
    // head its sibling checks next.
    let a10 = ClusterSpec::homogeneous(
        1,
        NodeSpec {
            gpus: 4,
            gpu: GpuSpec::a10(),
            nic_bw: 25e9,
        },
    );
    let queued = uniform_trace(2, 4.0, 60.0, 7, LengthDist::sharegpt_ix2());
    let mut cfg = WorldConfig::sllm_default(a10);
    cfg.seed = 7;
    let r = Dedicated::run(&cfg, &market_models(2), &queued);
    out.push(("dedicated seed=7 a10 shared queue".into(), line(r)));

    // ServerlessLLM cut at the hard stop: a short drain window halts the
    // run with steps in flight.
    let mut halted = SllmConfig::new(one_node(2));
    halted.world.seed = 7;
    halted.world.drain_window = aegaeon_sim::SimDur::from_secs(2);
    let trace = uniform_trace(5, 0.12, 60.0, 7, LengthDist::sharegpt());
    let r = ServerlessLlm::run(&halted, &models, &trace);
    let hard_stop = trace.horizon + halted.world.drain_window;
    assert!(r.end_time > hard_stop, "the run must halt at the hard stop");
    out.push(("serverlessllm seed=7 halted".into(), line(r)));

    out
}

fn render(rows: &[(String, String)]) -> String {
    let mut s = String::new();
    for (name, line) in rows {
        s.push_str(&format!("{name}: {line}\n"));
    }
    s
}

/// The auditor's counts on every pinned audited run, one line each: the
/// chaos Aegaeon runs above with the auditor on, and an agentic run with
/// session affinity and chaos, whose retained prefixes spill to the CPU
/// caches and are released from there.
fn audit_counts() -> String {
    let mut runs = Vec::new();
    for seed in SEEDS {
        let trace = uniform_trace(5, 0.12, 60.0, seed, LengthDist::sharegpt());
        runs.push((format!("aegaeon seed={seed} chaos"), seed, false, 5, trace));
    }
    runs.push((
        "aegaeon seed=9 agentic affinity chaos".into(),
        9,
        true,
        6,
        agentic_trace(9),
    ));
    let mut s = String::new();
    for (name, seed, affinity, n_models, trace) in runs {
        let mut cfg = chaos_cfg(seed);
        cfg.session_affinity = affinity;
        cfg.audit = true;
        let r = ServingSystem::run(&cfg, &market_models(n_models), &trace);
        assert!(
            !affinity || r.prefix_hits > 0,
            "{name}: no retained prefix claimed"
        );
        let a = r.audit.expect("audited run");
        assert!(a.ok(), "{name}: {a}");
        s.push_str(&format!(
            "{name}: events={} requests={} books={} blocks={}\n",
            a.events_checked, a.requests_checked, a.books_checked, a.blocks_checked
        ));
    }
    s
}

/// Compares `text` with `tests/golden/{name}` line by line, or writes it
/// there under `REGEN_GOLDEN=1`.
fn check_golden(name: &str, text: &str) {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run with REGEN_GOLDEN=1 to create it");
    if text != golden {
        let diff: Vec<String> = golden
            .lines()
            .zip(text.lines())
            .filter(|(g, t)| g != t)
            .map(|(g, t)| format!("  golden {g}\n  now    {t}"))
            .collect();
        panic!(
            "tests/golden/{name} drifted:\n{}\n\
             regenerate with REGEN_GOLDEN=1 only if the behaviour change is intended",
            diff.join("\n")
        );
    }
}

#[test]
fn fingerprints_match_golden() {
    check_golden("fingerprints.txt", &render(&fingerprints()));
}

#[test]
fn audit_counts_match_golden() {
    check_golden("audit_counts.txt", &audit_counts());
}
