//! Simulator throughput report: raw event-dispatch speed of the new indexed
//! 4-ary event heap versus the retained `BinaryHeap` reference, events/sec
//! of a real serving run (serial), the invariant auditor's tax on a chaos
//! run, the sharded parallel engine's speedup on one big run, and the
//! parallel sweep harness speedup.
//!
//! Speedup numbers are only as honest as the host: `host_parallelism` is
//! recorded alongside them, and on a single-core machine the expected
//! speedup is ~1x. Speedups are recorded, never asserted here (a noisy
//! host can dip below 1.0); the CI `bench-parallel` job runs this on
//! multi-core runners and gates them there.
//!
//! Writes `BENCH_sim_throughput.json` at the repository root so the numbers
//! ride along with the code they describe.

use std::time::Instant;

use aegaeon::shard::run_sharded;
use aegaeon::{
    AegaeonConfig, AuditReport, AuditView, Auditor, FaultPlan, InvariantAuditor, RunResult,
    ServingSession, ServingSystem,
};
use aegaeon_bench::{banner, market_models, sweep, uniform_trace, HORIZON_SECS, SEED};
use aegaeon_gpu::{ClusterSpec, NodeSpec};
use aegaeon_sim::{BinaryHeapQueue, EventQueue, SimDur, SimTime, ThroughputReport, Timeline};
use aegaeon_workload::LengthDist;

/// Standing event population for the synthetic dispatch benchmark.
const STANDING: u64 = 4096;
/// Dispatches measured per synthetic run.
const DISPATCHES: u64 = 4_000_000;

/// One pop + one push per step against a standing population — the DES
/// steady state — returning events/sec. Identical work for both queues.
macro_rules! drive_queue {
    ($queue:expr) => {{
        let mut q = $queue;
        for i in 0..STANDING {
            q.schedule_after(SimDur::from_nanos(i.wrapping_mul(2654435761) % 100_000), i);
        }
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..DISPATCHES {
            let (_, e) = q.pop().expect("standing population");
            acc = acc.wrapping_add(e).wrapping_mul(6364136223846793005);
            q.schedule_after(SimDur::from_nanos(acc % 100_000), e);
        }
        let wall = start.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        DISPATCHES as f64 / wall
    }};
}

/// Timed repeats of each observer setting (the median is reported).
const OBSERVER_REPEATS: usize = 5;

/// The invariant suite plus a deep check of every memory book after every
/// event, epochs ignored: what the auditor would cost without them.
struct EveryBook(InvariantAuditor);

impl Auditor for EveryBook {
    fn after_event(&mut self, now: SimTime, view: &dyn AuditView) {
        self.0.after_event(now, view);
        for i in 0..view.book_count() {
            std::hint::black_box(view.book_audit(i));
        }
    }
    fn at_finish(&mut self, now: SimTime, view: &dyn AuditView) {
        self.0.at_finish(now, view);
    }
    fn take_report(&mut self) -> AuditReport {
        self.0.take_report()
    }
}

/// Median wall seconds of [`OBSERVER_REPEATS`] runs of `cfg` over `trace`
/// with `auditor` installed, plus the last run's result and report.
fn observed_run(
    cfg: &AegaeonConfig,
    models: &[aegaeon_model::ModelSpec],
    trace: &aegaeon_workload::Trace,
    auditor: impl Fn() -> Option<Box<dyn Auditor + Send>>,
) -> (f64, RunResult, Option<AuditReport>) {
    let mut walls = Vec::with_capacity(OBSERVER_REPEATS);
    let mut last = None;
    for _ in 0..OBSERVER_REPEATS {
        let mut s = ServingSession::closed(cfg, models, trace);
        if let Some(a) = auditor() {
            s.install_auditor(a);
        }
        let start = Instant::now();
        s.step_until(SimTime::MAX);
        let out = s.finish();
        walls.push(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    walls.sort_by(f64::total_cmp);
    let (r, report) = last.expect("at least one repeat");
    (walls[walls.len() / 2], r, report)
}

fn main() {
    banner("bench_throughput", "simulator hot-path throughput");

    // --- Synthetic queue dispatch throughput --------------------------------
    // Warm-up pass, then the measured pass.
    let _ = drive_queue!(EventQueue::<u64>::new());
    let fast_eps = drive_queue!(EventQueue::<u64>::new());
    let _ = drive_queue!(BinaryHeapQueue::<u64>::new());
    let ref_eps = drive_queue!(BinaryHeapQueue::<u64>::new());
    let speedup = fast_eps / ref_eps;
    println!("queue dispatch (standing {STANDING}, {DISPATCHES} events):");
    println!("  indexed 4-ary heap : {:.2}M events/s", fast_eps / 1e6);
    println!("  BinaryHeap (ref)   : {:.2}M events/s", ref_eps / 1e6);
    println!("  speedup            : {speedup:.2}x");

    // --- Real serving run (serial) ------------------------------------------
    let models = market_models(24);
    let trace = uniform_trace(24, 0.2, HORIZON_SECS, SEED, LengthDist::sharegpt());
    let cfg = AegaeonConfig::paper_testbed();
    let start = Instant::now();
    let r = ServingSystem::run(&cfg, &models, &trace);
    let wall = start.elapsed().as_secs_f64();
    let serving = ThroughputReport::new(r.events, HORIZON_SECS, wall);
    println!("\nserving run (24 models, RPS 0.2, {HORIZON_SECS:.0}s horizon):");
    println!(
        "  {} events in {:.2}s = {:.2}M events/s, {:.2}ms wall per sim-s",
        serving.events,
        serving.wall_secs,
        serving.events_per_sec() / 1e6,
        serving.wall_per_sim_sec() * 1e3,
    );

    // --- Observer tax: the invariant auditor ---------------------------------
    // A chaos run under the auditor's full-scan threshold: after every event
    // the requests that produced a token are checked, and a memory book (one
    // KV cache and its move list) is deep-checked only when the event moved
    // its epoch.
    let omodels = market_models(16);
    let otrace = uniform_trace(16, 0.3, 30.0, SEED, LengthDist::sharegpt());
    let mut ocfg = AegaeonConfig::paper_testbed();
    ocfg.faults = "cp=0.0005;cd=0.001;stall=0.01:2;link=0.01:0.5:3"
        .parse::<FaultPlan>()
        .expect("valid chaos plan");
    let (bare_secs, bare, _) = observed_run(&ocfg, &omodels, &otrace, || None);
    let (audit_secs, audited, report) = observed_run(&ocfg, &omodels, &otrace, || {
        Some(Box::new(InvariantAuditor::new()))
    });
    let (every_secs, every, _) = observed_run(&ocfg, &omodels, &otrace, || {
        Some(Box::new(EveryBook(InvariantAuditor::new())))
    });
    let report = report.expect("auditor installed");
    assert!(report.ok(), "{report}");
    assert_eq!(
        bare.fingerprint(),
        audited.fingerprint(),
        "the auditor is an observer"
    );
    assert_eq!(
        bare.fingerprint(),
        every.fingerprint(),
        "the auditor is an observer"
    );
    let books = ocfg.instance_count() + ocfg.cluster.nodes.len();
    let audits_per_event = report.books_checked as f64 / report.events_checked as f64;
    let tokens: u64 = bare
        .outcomes
        .iter()
        .map(|o| o.token_times.len() as u64)
        .sum();
    let request_audits_per_event = report.requests_checked as f64 / report.events_checked as f64;
    let tax = |secs: f64| (secs / bare_secs - 1.0) * 100.0;
    println!(
        "\nauditor tax ({} requests, chaos, full scan, median of {OBSERVER_REPEATS}):",
        otrace.len()
    );
    println!(
        "  off                 : {bare_secs:.3}s ({} events)",
        bare.events
    );
    println!(
        "  on (changed books)  : {audit_secs:.3}s (+{:.0}%), {audits_per_event:.2} of {books} books audited per event",
        tax(audit_secs)
    );
    println!(
        "  on (every book)     : {every_secs:.3}s (+{:.0}%)",
        tax(every_secs)
    );
    println!(
        "  request checks      : {} for {tokens} tokens ({request_audits_per_event:.2} per event)",
        report.requests_checked
    );

    // --- Sharded parallel run -----------------------------------------------
    // One big run (4 nodes x 8 H800, 32 models) partitioned into 4 shards,
    // stepped in conservative windows. The 1-thread sharded run is the
    // reference: bit-identical fingerprints across worker counts is a hard
    // contract (tested in tests/shard_determinism.rs; asserted again here
    // on the bench workload).
    let host_parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let shards = 4usize;
    let mut pcfg = AegaeonConfig::paper_testbed();
    pcfg.cluster = ClusterSpec::homogeneous(shards as u32, NodeSpec::h800_node());
    pcfg.prefill_instances = 12;
    let pmodels = market_models(32);
    let ptrace = uniform_trace(32, 0.2, HORIZON_SECS, SEED, LengthDist::sharegpt());
    let start = Instant::now();
    let shard_serial = run_sharded(&pcfg, &pmodels, &ptrace, shards, 1);
    let shard_serial_secs = start.elapsed().as_secs_f64();
    let run_threads = sweep::threads().clamp(2, shards);
    let start = Instant::now();
    let shard_parallel = run_sharded(&pcfg, &pmodels, &ptrace, shards, run_threads);
    let shard_parallel_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        shard_serial.fingerprint(),
        shard_parallel.fingerprint(),
        "sharded run must be bit-identical across worker counts"
    );
    let run_speedup = shard_serial_secs / shard_parallel_secs;
    println!("\nsharded serving run (32 models, 4x8 GPUs, {shards} shards):");
    println!("  1 thread            : {shard_serial_secs:.2}s ({} events)", shard_serial.events);
    println!("  {run_threads:>2} threads          : {shard_parallel_secs:.2}s  ({run_speedup:.2}x)");
    println!("  fingerprint         : {:016x} (identical)", shard_serial.fingerprint());

    // --- Parallel sweep speedup ---------------------------------------------
    let points: Vec<u64> = (0..8).collect();
    let eval = |&i: &u64| {
        let models = market_models(16);
        let trace = uniform_trace(
            16,
            0.2,
            HORIZON_SECS / 2.0,
            sweep::derive_seed(SEED, i),
            LengthDist::sharegpt(),
        );
        ServingSystem::run(&AegaeonConfig::paper_testbed(), &models, &trace).completed
    };
    let start = Instant::now();
    let serial = sweep::map_with_threads(&points, 1, eval);
    let serial_secs = start.elapsed().as_secs_f64();
    // At least two workers so the threaded path is what gets measured, even
    // on single-core machines (where the honest speedup is ~1x).
    let threads = sweep::threads().clamp(2, points.len());
    let start = Instant::now();
    let parallel = sweep::map_with_threads(&points, threads, eval);
    let parallel_secs = start.elapsed().as_secs_f64();
    assert_eq!(serial, parallel, "parallel sweep must be bit-identical");
    let sweep_speedup = serial_secs / parallel_secs;
    println!("\nsweep of {} serving runs:", points.len());
    println!("  serial              : {serial_secs:.2}s");
    println!("  {threads:>2} threads          : {parallel_secs:.2}s  ({sweep_speedup:.2}x)");

    // --- Report -------------------------------------------------------------
    let json = serde_json::json!({
        "host_parallelism": host_parallelism as u64,
        "queue_microbench": serde_json::json!({
            "standing_events": STANDING,
            "dispatches": DISPATCHES,
            "indexed_d4_events_per_sec": fast_eps,
            "binary_heap_ref_events_per_sec": ref_eps,
            "speedup": speedup,
        }),
        "serving_serial": serde_json::json!({
            "events": serving.events,
            "sim_secs": serving.sim_secs,
            "wall_secs": serving.wall_secs,
            "events_per_sec": serving.events_per_sec(),
            "wall_per_sim_sec": serving.wall_per_sim_sec(),
        }),
        "auditor_tax": serde_json::json!({
            "requests": otrace.len() as u64,
            "events": bare.events,
            "repeats": OBSERVER_REPEATS as u64,
            "books": books as u64,
            "off_secs": bare_secs,
            "changed_books_secs": audit_secs,
            "every_book_secs": every_secs,
            "changed_books_tax_pct": tax(audit_secs),
            "every_book_tax_pct": tax(every_secs),
            "book_audits": report.books_checked,
            "book_audits_per_event": audits_per_event,
            "request_audits": report.requests_checked,
            "tokens": tokens,
            "request_audits_per_event": request_audits_per_event,
            "fingerprint": format!("{:016x}", bare.fingerprint()),
        }),
        "parallel_run": serde_json::json!({
            "shards": shards as u64,
            "threads": run_threads as u64,
            "events": shard_serial.events,
            "serial_secs": shard_serial_secs,
            "parallel_secs": shard_parallel_secs,
            "speedup": run_speedup,
            "serial_fingerprint": format!("{:016x}", shard_serial.fingerprint()),
            "parallel_fingerprint": format!("{:016x}", shard_parallel.fingerprint()),
        }),
        "parallel_sweep": serde_json::json!({
            "points": points.len() as u64,
            "threads": threads as u64,
            "serial_secs": serial_secs,
            "parallel_secs": parallel_secs,
            "speedup": sweep_speedup,
        }),
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_throughput.json");
    match serde_json::to_string_pretty(&json) {
        Ok(s) => {
            std::fs::write(path, s + "\n").expect("write BENCH_sim_throughput.json");
            println!("\n[json] {path}");
        }
        Err(e) => eprintln!("failed to serialize report: {e}"),
    }
}
