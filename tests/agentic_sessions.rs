//! Agentic session workloads end to end: prefix/KV reuse, session-affinity
//! scheduling, crash-forced recomputation, and determinism.
//!
//! Every run here is audited (`cfg.audit = true` panics on any invariant
//! violation), so the differential claims below — affinity strictly reduces
//! recomputed prefill tokens, crashes force recomputation without leaking
//! blocks — are checked against the double-entry memory books after every
//! event that changes them, not just at the end.

use aegaeon::chaos::FaultPlan;
use aegaeon::events::InstKind;
use aegaeon::shard::run_sharded;
use aegaeon::{AegaeonConfig, LiveRequest, ServingSession, ServingSystem};
use aegaeon_bench::{agentic_trace, market_models, AGENTIC_MODELS};
use aegaeon_sim::{SimDur, SimRng, SimTime};
use aegaeon_workload::{SessionBuilder, Trace};

const SEED: u64 = 4242;

/// A seeded multi-turn session trace: `n_models` models, sessions starting
/// at `rate`/s per model, 2–5 turns deep, generous think gaps so most
/// follow-ups arrive after their predecessor retired.
fn session_trace(seed: u64, n_models: u32, rate: f64, secs: f64) -> Trace {
    let mut rng = SimRng::seed_from_u64(seed);
    SessionBuilder::new(SimTime::from_secs_f64(secs), n_models, rate)
        .depth(2, 5)
        .think_gap(15.0, 0.5)
        .generate(&mut rng)
        .lower()
}

fn cfg(affinity: bool) -> AegaeonConfig {
    let mut cfg = AegaeonConfig::small_testbed(2, 3);
    cfg.seed = SEED;
    cfg.audit = true;
    cfg.session_affinity = affinity;
    cfg
}

/// The headline differential: the same seeded agentic trace run with
/// affinity on must show at least one prefix hit and strictly fewer
/// recomputed prefill tokens than with affinity off, and affinity off must
/// be fully inert (zero hits, zero reused tokens). The second input is
/// `fig_agentic --smoke`'s one cell (depth 3, 10 s think gaps, 120 s) under
/// the binary's seed: the same trace and configuration, audited.
#[test]
fn affinity_reuses_prefixes_and_recomputes_strictly_less() {
    let cases = [
        ("seeded trace", session_trace(SEED, 4, 0.01, 400.0), SEED),
        ("fig_agentic smoke cell", agentic_trace(3, 10.0, 120.0), aegaeon_bench::SEED),
    ];
    for (name, trace, seed) in cases {
        assert!(
            trace.requests.iter().any(|r| r.session.is_some()),
            "{name}: trace must contain session turns"
        );
        let models = market_models(AGENTIC_MODELS);
        let run = |affinity| {
            let cfg = AegaeonConfig { seed, ..cfg(affinity) };
            ServingSystem::run(&cfg, &models, &trace)
        };
        let (off, on) = (run(false), run(true));

        assert_eq!(off.completed, off.total_requests, "{name}");
        assert_eq!(on.completed, on.total_requests, "{name}");

        assert_eq!(off.prefix_hits, 0, "{name}: affinity off must never claim");
        assert_eq!(off.prefill_tokens_reused, 0, "{name}");
        assert!(
            on.prefix_hits >= 1,
            "{name}: affinity on must land at least one prefix hit"
        );
        assert!(on.prefill_tokens_reused > 0, "{name}");
        assert!(
            on.prefill_tokens_recomputed < off.prefill_tokens_recomputed,
            "{name}: affinity must strictly reduce recomputed prefill tokens: on={} off={}",
            on.prefill_tokens_recomputed,
            off.prefill_tokens_recomputed
        );
        // Conservation: every shared-prefix token is either reused or
        // recomputed, and affinity-off recomputes all of them.
        let total_prefix: u64 = trace
            .requests
            .iter()
            .map(|r| u64::from(r.prefix_tokens.min(r.input_tokens.saturating_sub(1))))
            .sum();
        assert_eq!(off.prefill_tokens_recomputed, total_prefix, "{name}");
        assert!(
            on.prefill_tokens_reused + on.prefill_tokens_recomputed >= total_prefix,
            "{name}"
        );
    }
}

/// Affinity-on runs are deterministic: identical fingerprints across
/// repeated runs (the SessionBook iterates BTreeMaps, never hash order).
#[test]
fn affinity_run_is_deterministic() {
    let models = market_models(3);
    let trace = session_trace(SEED + 1, 3, 0.012, 300.0);
    let a = ServingSystem::run(&cfg(true), &models, &trace);
    let b = ServingSystem::run(&cfg(true), &models, &trace);
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.prefix_hits, b.prefix_hits);
}

/// Chaos: a decoding-instance crash mid-run strands in-flight turns and
/// wipes that instance's retained session KV. Later turns of the affected
/// sessions must recompute their prefix instead of claiming a dead
/// holder's blocks, every request still completes, and the audited memory
/// books balance throughout.
#[test]
fn mid_session_crash_forces_prefix_recomputation() {
    let models = market_models(4);
    let trace = session_trace(SEED + 2, 4, 0.012, 400.0);
    let mut chaotic = cfg(true);
    chaotic.faults = FaultPlan::crashes(&[(60.0, InstKind::Decode, 1)]);
    let r = ServingSystem::run(&chaotic, &models, &trace);
    assert_eq!(
        r.completed, r.total_requests,
        "crash mid-session must not strand turns"
    );
    assert!(
        r.prefill_tokens_recomputed > 0,
        "a wiped holder forces at least some prefix recomputation"
    );

    // The crash must cost reuse relative to the same run without it.
    let clean = ServingSystem::run(&cfg(true), &models, &trace);
    assert_eq!(clean.completed, clean.total_requests);
    assert!(
        r.prefill_tokens_reused <= clean.prefill_tokens_reused,
        "a crash cannot create reuse: crashed={} clean={}",
        r.prefill_tokens_reused,
        clean.prefill_tokens_reused
    );
}

/// A tiny retention TTL expires session KV inside most think gaps: reuse
/// can only shrink relative to the default TTL, and the daemon's sweep
/// must free expired entries without tripping the audit.
#[test]
fn ttl_expiry_shrinks_reuse_and_stays_audit_clean() {
    let models = market_models(3);
    let trace = session_trace(SEED + 3, 3, 0.012, 300.0);
    let normal = ServingSystem::run(&cfg(true), &models, &trace);
    let mut short = cfg(true);
    short.session_kv_ttl = SimDur::from_secs_f64(0.5);
    let expired = ServingSystem::run(&short, &models, &trace);
    assert_eq!(expired.completed, expired.total_requests);
    assert!(
        expired.prefill_tokens_reused <= normal.prefill_tokens_reused,
        "expiring retained KV cannot increase reuse"
    );
    assert!(
        expired.prefill_tokens_recomputed >= normal.prefill_tokens_recomputed,
        "expired prefixes must be recomputed"
    );
}

/// Open-session injection of an agentic trace replays fingerprint-identical
/// through [`ServingSession::replay`], with session metadata round-tripping
/// through the recorded trace.
#[test]
fn session_injection_replays_fingerprint_identical() {
    let models = market_models(3);
    let plan = session_trace(SEED + 4, 3, 0.012, 200.0);
    let c = cfg(true);

    let mut live = ServingSession::open(&c, &models, plan.horizon);
    let inj = live.injector();
    for (i, &req) in plan.requests.iter().enumerate() {
        inj.send(req.arrival(), LiveRequest { req, sink: None });
        if i % 4 == 0 {
            live.step_until(live.now() + SimDur::from_secs(3));
        }
    }
    live.step_until(SimTime::MAX);
    assert!(live.quiescent());
    let recorded = live.injected_trace();
    // Session metadata survives the recording round trip.
    for (orig, rec) in plan.requests.iter().zip(&recorded.requests) {
        assert_eq!(orig.session, rec.session);
        assert_eq!(orig.turn_index, rec.turn_index);
        assert_eq!(orig.prefix_tokens, rec.prefix_tokens);
    }
    let (live_result, _) = live.finish();
    assert!(live_result.prefix_hits >= 1, "injected sessions must reuse");

    let mut replayed = ServingSession::replay(&c, &models, &recorded);
    replayed.step_until(SimTime::MAX);
    let (replay_result, _) = replayed.finish();
    assert_eq!(live_result.fingerprint(), replay_result.fingerprint());
}

/// Sharded runs over a session trace are invariant across worker-thread
/// counts, with affinity on and chaos enabled.
#[test]
fn sharded_session_runs_are_thread_invariant() {
    let models = market_models(4);
    let trace = session_trace(SEED + 5, 4, 0.01, 300.0);
    let mut c = AegaeonConfig::paper_testbed();
    c.seed = SEED;
    c.audit = true;
    c.session_affinity = true;
    c.faults = FaultPlan::crashes(&[(80.0, InstKind::Decode, 1)]);
    let serial = run_sharded(&c, &models, &trace, 2, 1);
    let parallel = run_sharded(&c, &models, &trace, 2, 4);
    assert_eq!(serial.fingerprint(), parallel.fingerprint());
    assert_eq!(serial.completed, serial.total_requests);
    assert!(
        serial.prefix_hits >= 1,
        "sharded affinity must still land prefix hits"
    );
}
