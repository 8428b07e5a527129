//! Simulator throughput report: raw event-dispatch speed of the new indexed
//! 4-ary event heap versus the retained `BinaryHeap` reference, events/sec
//! of a real serving run (serial), the sharded parallel engine's speedup
//! on one big run, and the parallel sweep harness speedup.
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
use aegaeon::{AegaeonConfig, ServingSystem};
use aegaeon_bench::{banner, market_models, sweep, uniform_trace, HORIZON_SECS, SEED};
use aegaeon_gpu::{ClusterSpec, NodeSpec};
use aegaeon_sim::{BinaryHeapQueue, EventQueue, SimDur, ThroughputReport, Timeline};
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
