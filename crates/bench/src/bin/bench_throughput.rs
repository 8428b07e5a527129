//! Simulator observer and parallelism report: the invariant auditor's tax
//! on a chaos run, the telemetry tax split by instrument, the sharded
//! parallel engine's speedup on one big run, and the parallel sweep
//! harness speedup. The CI `bench-parallel` job gates every section.
//!
//! The event queue's speed and a serial run's events/sec are not measured
//! here: the benchmark package reports them as `sim.queue.ns_per_op` and
//! `core.dispatch.events_per_s`.
//!
//! Speedup numbers are only as honest as the host: `host_parallelism` is
//! recorded alongside them, and on a single-core machine the expected
//! speedup is ~1x. Speedups are recorded, never asserted here (a noisy
//! host can dip below 1.0); the CI `bench-parallel` job runs this on
//! multi-core runners and gates them there.
//!
//! Writes `BENCH_sim_throughput.json` at the repository root so the numbers
//! ride along with the code they describe.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use aegaeon::shard::run_sharded;
use aegaeon::{
    AegaeonConfig, AuditReport, AuditView, Auditor, FaultPlan, InvariantAuditor, RunResult,
    ServingSession, ServingSystem,
};
use aegaeon_bench::{banner, market_models, sweep, uniform_trace, HORIZON_SECS, SEED};
use aegaeon_gpu::{ClusterSpec, NodeSpec};
use aegaeon_metrics::slo::score_tokens;
use aegaeon_metrics::RequestOutcome;
use aegaeon_model::{ModelId, ModelSpec};
use aegaeon_sim::{SimRng, SimTime};
use aegaeon_telemetry::observatory::SLO_WINDOW_NS;
use aegaeon_telemetry::{
    expand, labeled, MetricsRegistry, Sample, SloObservatory, SpanLog, Telemetry, TelemetrySpec,
};
use aegaeon_workload::{LengthDist, SloSpec, Trace, TraceBuilder};

/// Timed repeats of each observer setting (the median is reported).
const OBSERVER_REPEATS: usize = 7;

/// Block allocations and frees the slab pools logged during the last
/// [`EveryBook`] run, counted by reading every book's log after every event.
static LOGGED_BLOCK_OPS: AtomicU64 = AtomicU64::new(0);

/// The invariant suite plus a dense check of every memory book after every
/// event, touch logs ignored: what the auditor would cost without them.
/// It also counts the block ops every pool logged, an independent tally of
/// what the suite's incremental checks must have replayed.
struct EveryBook(InvariantAuditor, u64);

impl Auditor for EveryBook {
    fn after_event(&mut self, now: SimTime, view: &dyn AuditView) {
        self.0.after_event(now, view);
        view.books(true, &mut |i, book| {
            std::hint::black_box((book.audit(), view.sessions_audit(i)));
            self.1 += book.kv.block_ops() as u64;
        });
    }
    fn at_finish(&mut self, now: SimTime, view: &dyn AuditView) {
        self.0.at_finish(now, view);
    }
    fn report(&self) -> &AuditReport {
        self.0.report()
    }
    fn take_report(&mut self) -> AuditReport {
        LOGGED_BLOCK_OPS.store(self.1, Ordering::Relaxed);
        self.0.take_report()
    }
}

/// An observer setting: a config and the auditor to install, if any.
type Setting<'a> = (&'a AegaeonConfig, fn() -> Option<Box<dyn Auditor + Send>>);

fn no_auditor() -> Option<Box<dyn Auditor + Send>> {
    None
}

fn invariant_auditor() -> Option<Box<dyn Auditor + Send>> {
    Some(Box::new(InvariantAuditor::new()))
}

fn every_book_auditor() -> Option<Box<dyn Auditor + Send>> {
    Some(Box::new(EveryBook(InvariantAuditor::new(), 0)))
}

/// Runs every setting over `trace` [`OBSERVER_REPEATS`] times, interleaved
/// so a host that changes speed mid-measurement slows every setting alike.
/// Returns each setting's median wall seconds with its last result and
/// audit report.
fn observed_runs(
    models: &[ModelSpec],
    trace: &Trace,
    settings: &[Setting<'_>],
) -> Vec<(f64, RunResult, Option<AuditReport>)> {
    let mut walls = vec![Vec::with_capacity(OBSERVER_REPEATS); settings.len()];
    let mut last = Vec::new();
    for _ in 0..OBSERVER_REPEATS {
        last.clear();
        for (k, (cfg, auditor)) in settings.iter().enumerate() {
            let mut s = ServingSession::closed(cfg, models, trace);
            if let Some(a) = auditor() {
                s.install_auditor(a);
            }
            let start = Instant::now();
            s.step_until(SimTime::MAX);
            let out = s.finish();
            walls[k].push(start.elapsed().as_secs_f64());
            last.push(out);
        }
    }
    walls
        .into_iter()
        .zip(last)
        .map(|(mut w, (r, report))| {
            w.sort_by(f64::total_cmp);
            (w[w.len() / 2], r, report)
        })
        .collect()
}

/// Median wall seconds of [`OBSERVER_REPEATS`] calls of `f`, plus the last
/// call's output.
fn median_secs<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(OBSERVER_REPEATS);
    let mut last = None;
    for _ in 0..OBSERVER_REPEATS {
        let start = Instant::now();
        let out = black_box(f());
        walls.push(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    walls.sort_by(f64::total_cmp);
    (walls[walls.len() / 2], last.expect("at least one repeat"))
}

/// Poisson arrivals conditioned on their count: exactly `rate × secs`
/// requests per model at uniform random instants (the benchmark's
/// `observed` trace shape).
fn counted_trace(n_models: usize, rate: f64, secs: f64, seed: u64) -> Trace {
    let mut rng = SimRng::seed_from_u64(seed);
    let per_model = (rate * secs).round() as usize;
    let mut b = TraceBuilder::new(SimTime::from_secs_f64(secs), LengthDist::sharegpt());
    for m in 0..n_models {
        let mut at: Vec<SimTime> = (0..per_model)
            .map(|_| SimTime::from_secs_f64(rng.f64() * secs))
            .collect();
        at.sort_unstable();
        b = b.explicit_model(ModelId(m as u32), at);
    }
    b.build(&mut rng)
}

/// Re-records every span of `log` into a fresh log, in recording order.
fn replay_spans(log: &SpanLog) -> SpanLog {
    let mut fresh = SpanLog::enabled();
    for s in log.spans() {
        let id = fresh.start(
            || &*s.track,
            s.kind,
            s.start,
            s.parent,
            s.cause,
            || s.label.as_str(),
        );
        fresh.end(id, s.end);
    }
    fresh
}

/// Re-feeds every retired request's TTFT and TBT gaps into fresh per-model
/// registry sketches and a fresh SLO observatory, in retirement order, the
/// way the runtime's retirement hook does.
fn replay_sketches(
    retired: &[&RequestOutcome],
    n_models: usize,
) -> (MetricsRegistry, SloObservatory) {
    let alpha = aegaeon_telemetry::observatory::SLO_SKETCH_ALPHA;
    let mut reg = MetricsRegistry::enabled();
    let ids: Vec<_> = (0..n_models)
        .map(|m| {
            let model = ModelId(m as u32).to_string();
            (
                reg.sketch(&labeled("ttft_seconds", "model", &model), alpha),
                reg.sketch(&labeled("tbt_seconds", "model", &model), alpha),
            )
        })
        .collect();
    let mut slo = SloObservatory::new(n_models, SLO_WINDOW_NS);
    let spec = SloSpec::paper_default();
    let mut tbt = Vec::new();
    for o in retired {
        tbt.clear();
        tbt.extend(o.token_times.gaps().map(|g| g.as_secs_f64()));
        let ttft = o.ttft().unwrap_or(f64::NAN);
        let (s_ttft, s_tbt) = ids[o.model.0 as usize];
        reg.observe_sketch(s_ttft, ttft);
        reg.observe_sketch_all(s_tbt, &tbt);
        let at = o.token_times.last().unwrap_or(SimTime::ZERO);
        let s = score_tokens(o.arrival, &o.token_times, o.target_tokens, spec, at);
        slo.observe_request(at.as_nanos(), o.model.0, ttft, &tbt, s.tokens, s.met);
    }
    (reg, slo)
}

/// A finished run's counter and gauge series, each expanded onto the dense
/// grid of one point per sample call plus the final point.
struct DenseSeries<'a> {
    counters: Vec<(&'a str, Vec<Sample>)>,
    gauges: Vec<(&'a str, Vec<Sample>)>,
}

impl<'a> DenseSeries<'a> {
    fn of(tel: &'a Telemetry) -> DenseSeries<'a> {
        let (every, taken) = (tel.sample_every(), tel.metrics.samples_taken());
        let dense = |(name, points)| (name, expand(points, every, taken));
        DenseSeries {
            counters: tel.metrics.counter_series().map(dense).collect(),
            gauges: tel.metrics.gauge_series().map(dense).collect(),
        }
    }
}

/// Re-takes every registry sample of a run on a fresh registry with the
/// same counters and gauges: before each sample call it sets every series
/// to the value it held at that grid instant, as the host's poll does, so
/// the replay pays the same compare-and-push work. The final points are
/// appended as `Telemetry::finish` does.
fn replay_samples(run: &DenseSeries) -> MetricsRegistry {
    let mut fresh = MetricsRegistry::enabled();
    let counters: Vec<_> = run.counters.iter().map(|(n, s)| (fresh.counter(n), s)).collect();
    let gauges: Vec<_> = run.gauges.iter().map(|(n, s)| (fresh.gauge(n), s)).collect();
    let Some((_, grid)) = run.counters.first().or(run.gauges.first()) else {
        return fresh;
    };
    for (k, point) in grid.iter().enumerate() {
        for (id, s) in &counters {
            fresh.set_counter(*id, s[k].value as u64);
        }
        for (id, s) in &gauges {
            fresh.set(*id, s[k].value);
        }
        if k + 1 < grid.len() {
            fresh.sample(point.at);
        } else {
            fresh.sample_final(point.at);
        }
    }
    fresh
}

/// True when both registries hold the same series, bit for bit.
fn same_series(a: &MetricsRegistry, b: &MetricsRegistry) -> bool {
    let bits = |(name, points): (&str, &[Sample])| {
        let points: Vec<_> = points.iter().map(|p| (p.at, p.value.to_bits())).collect();
        (name.to_string(), points)
    };
    let all = |r: &MetricsRegistry| -> Vec<_> {
        r.counter_series().chain(r.gauge_series()).map(bits).collect()
    };
    all(a) == all(b)
}

/// Points the registry's counter and gauge series store.
fn points_stored(metrics: &MetricsRegistry) -> u64 {
    let series = metrics.counter_series().chain(metrics.gauge_series());
    series.map(|(_, s)| s.len() as u64).sum()
}

/// Observations held by the per-model TTFT and TBT sketches — the ones
/// [`replay_sketches`] re-feeds. The run's other sketches (batch size,
/// scale latency) are fed from the dispatch path, so their cost stays in
/// the `other` remainder.
fn sketch_count(metrics: &MetricsRegistry) -> u64 {
    metrics
        .sketches()
        .filter(|(name, _)| name.starts_with("ttft_seconds{") || name.starts_with("tbt_seconds{"))
        .map(|(_, s)| s.count())
        .sum()
}

fn main() {
    banner("bench_throughput", "observer taxes and parallel speedups");

    // --- Observer tax: the invariant auditor ---------------------------------
    // A 16-model chaos trace the size of the benchmark's small `observed`
    // trace: after every event the requests that produced a token are
    // checked, and each memory book (one KV cache, parked blocks included)
    // the event touched replays its touch log and checks the blocks it names.
    // The "every book" leg densely checks every book after every event
    // instead: the reference the logs replace.
    let omodels = market_models(16);
    let otrace = uniform_trace(16, 0.3, 30.0, SEED, LengthDist::sharegpt());
    let mut ocfg = AegaeonConfig::paper_testbed();
    ocfg.faults = "cp=0.0005;cd=0.001;stall=0.01:2;link=0.01:0.5:3"
        .parse::<FaultPlan>()
        .expect("valid chaos plan");
    let mut runs = observed_runs(
        &omodels,
        &otrace,
        &[
            (&ocfg, no_auditor),
            (&ocfg, invariant_auditor),
            (&ocfg, every_book_auditor),
        ],
    )
    .into_iter();
    let (bare_secs, bare, _) = runs.next().expect("off");
    let (audit_secs, audited, report) = runs.next().expect("touched books");
    let (every_secs, every, every_report) = runs.next().expect("every book");
    let report = report.expect("auditor installed");
    assert!(report.ok(), "{report}");
    let logged_ops = LOGGED_BLOCK_OPS.load(Ordering::Relaxed);
    assert_eq!(
        report.blocks_checked, logged_ops,
        "the auditor checks every block op the pools log"
    );
    assert_eq!(every_report.map(|r| r.blocks_checked), Some(logged_ops));
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
    let blocks_per_event = report.blocks_checked as f64 / report.events_checked as f64;
    let tokens: u64 = bare
        .outcomes
        .iter()
        .map(|o| o.token_times.len() as u64)
        .sum();
    let request_audits_per_event = report.requests_checked as f64 / report.events_checked as f64;
    let tax = |secs: f64| (secs / bare_secs - 1.0) * 100.0;
    println!(
        "\nauditor tax ({} requests, chaos, median of {OBSERVER_REPEATS}):",
        otrace.len()
    );
    println!(
        "  off                 : {bare_secs:.3}s ({} events)",
        bare.events
    );
    println!(
        "  on (touched books)  : {audit_secs:.3}s (+{:.0}%), {audits_per_event:.2} of {books} books and {blocks_per_event:.2} blocks checked per event",
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

    // --- Observer tax: telemetry, split by instrument ------------------------
    // The benchmark's large `observed` trace (40 models at 0.3 rps for 180 s,
    // 2,160 requests, chaos) with telemetry off, telemetry on, and the
    // auditor on. Each instrument is then costed by replaying the inputs the
    // run recorded into a fresh instance; `other` is what the replays do not
    // cover (the attribution ledger, the batch-size and scale-latency
    // sketches, span-handle bookkeeping and the gauges computed before each
    // sample).
    let tmodels = market_models(40);
    let ttrace = counted_trace(tmodels.len(), 0.3, 180.0, SEED);
    let mut ton = ocfg.clone();
    ton.telemetry = TelemetrySpec::enabled();
    let mut runs = observed_runs(
        &tmodels,
        &ttrace,
        &[
            (&ocfg, no_auditor),
            (&ton, no_auditor),
            (&ocfg, invariant_auditor),
        ],
    )
    .into_iter();
    let (toff_secs, toff_r, _) = runs.next().expect("off");
    let (ton_secs, ton_r, _) = runs.next().expect("telemetry");
    let (taudit_secs, taudit_r, treport) = runs.next().expect("auditor");
    let treport = treport.expect("auditor installed");
    assert!(treport.ok(), "{treport}");
    for (what, r) in [("telemetry", &ton_r), ("the auditor", &taudit_r)] {
        assert_eq!(
            toff_r.fingerprint(),
            r.fingerprint(),
            "{what} is an observer"
        );
    }
    let tel = &ton_r.telemetry;

    let (span_secs, spans_again) = median_secs(|| replay_spans(&tel.spans));
    let spans = tel.spans.spans().len();
    let tracks = tel.spans.tracks().len();
    assert_eq!(spans_again.spans().len(), spans, "span replay is exact");
    assert_eq!(
        spans_again.tracks(),
        tel.spans.tracks(),
        "track replay is exact"
    );

    let mut retired: Vec<&RequestOutcome> =
        ton_r.outcomes.iter().filter(|o| o.finished()).collect();
    retired.sort_by_key(|o| (o.token_times.last(), o.id));
    let (sketch_secs, (reg_again, slo_again)) =
        median_secs(|| replay_sketches(&retired, tmodels.len()));
    assert_eq!(retired.len(), ton_r.completed, "every completion retires");
    assert_eq!(
        slo_again.cumulative(),
        tel.slo.cumulative(),
        "observatory replay is exact"
    );
    let registry_obs = sketch_count(&tel.metrics);
    assert_eq!(
        sketch_count(&reg_again),
        registry_obs,
        "sketch replay is exact"
    );
    // The observatory's windows take one TTFT and every TBT gap per retired
    // request: exactly its token count.
    let observatory_obs: u64 = tel.slo.cumulative().iter().map(|c| c.tokens).sum();
    let sketch_obs = registry_obs + observatory_obs;

    let dense = DenseSeries::of(tel);
    let (sample_secs, samples_again) = median_secs(|| replay_samples(&dense));
    let samples = tel.metrics.samples_taken();
    let series_points = points_stored(&tel.metrics);
    assert_eq!(samples_again.samples_taken(), samples, "sample replay is exact");
    assert!(same_series(&samples_again, &tel.metrics), "sample replay is exact");

    let tel_tax_secs = ton_secs - toff_secs;
    let other_secs = tel_tax_secs - span_secs - sketch_secs - sample_secs;
    let ttax = |secs: f64| secs / toff_secs * 100.0;
    let ns_per = |secs: f64, ops: u64| secs * 1e9 / ops.max(1) as f64;
    println!(
        "\ntelemetry tax ({} requests, chaos, median of {OBSERVER_REPEATS}):",
        ttrace.len()
    );
    println!(
        "  off                 : {toff_secs:.3}s ({} events)",
        toff_r.events
    );
    println!(
        "  telemetry on        : {ton_secs:.3}s (+{:.0}%)",
        ttax(tel_tax_secs)
    );
    println!(
        "  auditor on          : {taudit_secs:.3}s (+{:.0}%)",
        ttax(taudit_secs - toff_secs)
    );
    println!(
        "  span log            : {span_secs:.4}s (+{:.1}%), {spans} spans on {tracks} tracks, {:.0} ns/span",
        ttax(span_secs),
        ns_per(span_secs, spans as u64)
    );
    println!(
        "  sketches + SLO      : {sketch_secs:.4}s (+{:.1}%), {sketch_obs} observations, {:.0} ns/observation",
        ttax(sketch_secs),
        ns_per(sketch_secs, sketch_obs)
    );
    println!(
        "  registry sampling   : {sample_secs:.4}s (+{:.1}%), {samples} samples, {series_points} points, {:.0} ns/sample",
        ttax(sample_secs),
        ns_per(sample_secs, samples)
    );
    println!(
        "  other               : {other_secs:.4}s (+{:.1}%)",
        ttax(other_secs)
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
    println!("  windows             : {}", shard_parallel.shard_windows);

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
            "blocks_checked": report.blocks_checked,
            "blocks_checked_per_event": blocks_per_event,
            "block_ops_logged": logged_ops,
            "request_audits": report.requests_checked,
            "tokens": tokens,
            "request_audits_per_event": request_audits_per_event,
            "fingerprint": format!("{:016x}", bare.fingerprint()),
        }),
        "telemetry_tax": serde_json::json!({
            "requests": ttrace.len() as u64,
            "events": toff_r.events,
            "repeats": OBSERVER_REPEATS as u64,
            "off_secs": toff_secs,
            "telemetry_secs": ton_secs,
            "auditor_secs": taudit_secs,
            "telemetry_tax_pct": ttax(tel_tax_secs),
            "auditor_tax_pct": ttax(taudit_secs - toff_secs),
            "instruments": serde_json::json!({
                "span_log": serde_json::json!({
                    "ops": spans as u64,
                    "tracks": tracks as u64,
                    "secs": span_secs,
                    "ns_per_op": ns_per(span_secs, spans as u64),
                    "tax_pct": ttax(span_secs),
                }),
                "sketches_and_slo": serde_json::json!({
                    "ops": sketch_obs,
                    "retired_requests": retired.len() as u64,
                    "secs": sketch_secs,
                    "ns_per_op": ns_per(sketch_secs, sketch_obs),
                    "tax_pct": ttax(sketch_secs),
                }),
                "registry_sampling": serde_json::json!({
                    "ops": samples,
                    "points": series_points,
                    "secs": sample_secs,
                    "ns_per_op": ns_per(sample_secs, samples),
                    "tax_pct": ttax(sample_secs),
                }),
                "other": serde_json::json!({
                    "secs": other_secs,
                    "tax_pct": ttax(other_secs),
                }),
            }),
            "fingerprint": format!("{:016x}", toff_r.fingerprint()),
        }),
        "parallel_run": serde_json::json!({
            "shards": shards as u64,
            "threads": run_threads as u64,
            "events": shard_serial.events,
            "windows": shard_parallel.shard_windows,
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
