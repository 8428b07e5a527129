//! The four simulated workloads: `market`, `agentic`, `observed`, `sharded`.
//!
//! Each runs in *cycles*. A pass is a fixed number of cycles whose inputs
//! come from the seed, so every simulated-clock metric covers exactly one
//! pass and repeats bit for bit. The timed phase runs the pass, then repeats
//! its cycles in order until `--seconds` have gone by; repeats add timing
//! samples and are checked to reproduce the first pass's fingerprints.
//! Timing covers only the serving runs of a cycle: sessions are built before
//! the timed block and scored after it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use aegaeon::{
    run_sharded, AegaeonConfig, AuditReport, FaultPlan, InvariantAuditor, RunResult,
    ServingSession, ShardPlan,
};
use aegaeon_baselines::engine_loop::WorldConfig;
use aegaeon_baselines::{MuxServe, ServerlessLlm, SllmConfig};
use aegaeon_bench::{market_models, sweep::derive_seed, uniform_trace};
use aegaeon_gpu::{ClusterSpec, NodeSpec};
use aegaeon_metrics::{max_load_meeting, AttainmentReport, RequestOutcome};
use aegaeon_model::{ModelId, ModelSpec};
use aegaeon_sim::{EventQueue, SimDur, SimRng, SimTime, Timeline};
use aegaeon_workload::{LengthDist, SessionBuilder, SloSpec, Trace, TraceBuilder};

use crate::procfs;
use crate::report::{Gates, Outcome, Value};
use crate::spans::{self, Recorder, SpanId};
use crate::stats;
use crate::Opts;

/// Events per `step_bounded` call; each call is one chunk span.
const CHUNK: u64 = 4096;
/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 5;

/// Sim-clock aggregates over the Aegaeon runs of the first pass.
#[derive(Debug, Default)]
pub struct SimAcc {
    tokens_total: u64,
    tokens_met: u64,
    ttft_s: Vec<f64>,
    runs: u64,
    completed: u64,
    total: u64,
    scale_ups: u64,
    prefetch_hits: u64,
    swaps: u64,
    kv_sync_s: Vec<f64>,
    util_sum: f64,
    turns: u64,
    prefix_hits: u64,
    reused: u64,
    recomputed: u64,
    audit_checks: u64,
}

impl SimAcc {
    pub fn add(
        &mut self,
        r: &RunResult,
        att: &AttainmentReport,
        trace: &Trace,
        audit: Option<&AuditReport>,
    ) {
        self.tokens_total += att.tokens_total;
        self.tokens_met += att.tokens_met;
        self.ttft_s
            .extend(r.outcomes.iter().filter_map(RequestOutcome::ttft));
        self.runs += 1;
        self.completed += r.completed as u64;
        self.total += r.total_requests as u64;
        self.scale_ups += r.scale_count;
        self.prefetch_hits += r.prefetch_hits;
        self.swaps += r.swaps;
        self.kv_sync_s.extend_from_slice(&r.kv_sync_per_request);
        self.util_sum += r.mean_gpu_utilization();
        self.turns += trace
            .requests
            .iter()
            .filter(|q| q.session.is_some())
            .count() as u64;
        self.prefix_hits += r.prefix_hits;
        self.reused += r.prefill_tokens_reused;
        self.recomputed += r.prefill_tokens_recomputed;
        self.audit_checks += audit.map_or(0, |a| a.events_checked);
    }

    /// Token-level attainment, pooled over every run.
    fn attainment(&self) -> f64 {
        if self.tokens_total == 0 {
            1.0
        } else {
            self.tokens_met as f64 / self.tokens_total as f64
        }
    }

    /// `ttft_ms_p50`, `_p90`, `_p99` and `ttft_samples` from TTFT samples
    /// in seconds (wall-clock samples when `live`).
    pub fn ttft_values(samples: &mut [f64], live: bool) -> Vec<Value> {
        let mk = if live { Value::wall } else { Value::sim };
        let mut ms = |p: f64| stats::percentile(samples, p).unwrap_or(0.0) * 1e3;
        let (p50, p90, p99) = (ms(50.0), ms(90.0), ms(99.0));
        vec![
            mk("ttft_ms_p50", p50),
            mk("ttft_ms_p90", p90),
            mk("ttft_ms_p99", p99),
            mk("ttft_samples", samples.len() as f64),
        ]
    }

    /// The sim-clock per-layer counts (all workloads).
    pub fn layer_values(&mut self, deterministic: bool) -> Vec<Value> {
        let mk = if deterministic {
            Value::sim
        } else {
            Value::sim_live
        };
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let kv_p50 = stats::percentile(&mut self.kv_sync_s, 50.0).unwrap_or(0.0) * 1e3;
        vec![
            mk("engine.scale_ups", self.scale_ups as f64),
            mk(
                "engine.prefetch_hit_ratio",
                ratio(self.prefetch_hits, self.scale_ups),
            ),
            mk("mem.kv_swaps", self.swaps as f64),
            mk("mem.kv_sync_ms_p50", kv_p50),
            mk(
                "gpu.mean_util",
                if self.runs == 0 {
                    0.0
                } else {
                    self.util_sum / self.runs as f64
                },
            ),
            mk("core.completed_share", ratio(self.completed, self.total)),
            mk(
                "core.sessionbook.prefix_hit_rate",
                ratio(self.prefix_hits, self.turns),
            ),
            mk("core.sessionbook.tokens_reused", self.reused as f64),
            mk("core.sessionbook.tokens_recomputed", self.recomputed as f64),
            mk("observers.audit_events_checked", self.audit_checks as f64),
        ]
    }
}

/// Output tokens a run produced.
fn tokens(outcomes: &[RequestOutcome]) -> u64 {
    outcomes.iter().map(|o| o.token_times.len() as u64).sum()
}

/// Builds a closed session (optionally audited) inside a `core.setup` span.
fn closed(
    cfg: &AegaeonConfig,
    models: &[ModelSpec],
    trace: &Trace,
    audit: bool,
    rec: &mut Recorder,
    group: u64,
    parent: SpanId,
) -> ServingSession {
    let s = rec.begin("core.setup", group, parent);
    let mut session = ServingSession::closed(cfg, models, trace);
    if audit {
        session.install_auditor(Box::new(InvariantAuditor::new()));
    }
    rec.end(s);
    session
}

/// Steps a session to completion in [`CHUNK`]-event calls inside a
/// `core.dispatch` span (one child span per call); returns events.
fn dispatch(session: &mut ServingSession, rec: &mut Recorder, group: u64, parent: SpanId) -> u64 {
    let d = rec.begin("core.dispatch", group, parent);
    let mut events = 0;
    loop {
        let c = rec.begin("core.dispatch.chunk", group, d);
        let (n, more) = session.step_bounded(SimTime::MAX, CHUNK);
        rec.end(c);
        events += n;
        if !more {
            break;
        }
    }
    rec.end(d);
    events
}

/// Dispatches and finishes a session.
pub fn serve(
    mut session: ServingSession,
    rec: &mut Recorder,
    group: u64,
    parent: SpanId,
) -> (RunResult, Option<AuditReport>, u64) {
    let events = dispatch(&mut session, rec, group, parent);
    let f = rec.begin("core.finish", group, parent);
    let (result, audit) = session.finish();
    rec.end(f);
    (result, audit, events)
}

/// Token-level attainment under the paper SLO, inside a
/// `metrics.attainment` span.
fn score(
    outcomes: &[RequestOutcome],
    horizon: SimTime,
    rec: &mut Recorder,
    group: u64,
) -> AttainmentReport {
    let s = rec.begin("metrics.attainment", group, SpanId::ROOT);
    let rep = aegaeon_metrics::attainment(outcomes, SloSpec::paper_default(), horizon);
    rec.end(s);
    rep
}

/// The checks every run passes: no more completions than requests, and an
/// attainment inside `[0, 1]`.
fn basic_gates(g: &mut Gates, label: &str, completed: usize, total: usize, ratio: f64) -> bool {
    let a = g.check("completed <= total", completed <= total, || {
        format!("{label}: {completed} completed of {total}")
    });
    let b = g.check("attainment in [0, 1]", (0.0..=1.0).contains(&ratio), || {
        format!("{label}: attainment {ratio}")
    });
    a && b
}

/// Which pass a cycle belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// First run of each cycle: feeds the sim-clock metrics.
    First,
    /// A timing repeat of an earlier cycle.
    Repeat,
    /// The traced re-run.
    Traced,
}

/// What one cycle reports.
#[derive(Debug, Default)]
struct CycleOut {
    /// Wall time of the serving runs.
    wall_s: f64,
    /// Process CPU time over the same block.
    cpu_s: f64,
    /// Simulated requests served.
    requests: u64,
    /// Output tokens produced.
    tokens: u64,
    /// One fingerprint per serving run, in order.
    fingerprints: Vec<u64>,
    /// Events dispatched through [`dispatch`].
    events: u64,
}

/// Shared state of a sim workload run.
struct Env {
    rec: Recorder,
    gates: Gates,
    acc: SimAcc,
    next_group: u64,
    nproc: usize,
}

impl Env {
    /// A fresh span group (one per serving run).
    fn group(&mut self) -> u64 {
        self.next_group += 1;
        self.next_group
    }
}

/// A simulated workload: its inputs, set-up, and one cycle of runs.
trait SimWorkload {
    type Inputs;
    /// Cycles in one pass.
    const CYCLES: usize;
    /// Generates the pass's inputs from the seed.
    fn generate(&self, seed: u64) -> Self::Inputs;
    /// Set-up work beyond generation that `setup_s` includes (closed
    /// sessions, partitions); its products are dropped.
    fn prepare(&self, inputs: &Self::Inputs);
    /// Runs cycle `idx`.
    fn cycle(&mut self, inputs: &Self::Inputs, idx: usize, pass: Pass, env: &mut Env) -> CycleOut;
    /// Workload-specific end-to-end values and notes.
    fn e2e_extras(&self, _out: &mut Outcome) {}
    /// Workload-specific ledger values after the traced pass.
    fn layer_extras(&mut self, _inputs: &Self::Inputs, _env: &mut Env, _out: &mut Outcome) {}
}

fn run_sim<W: SimWorkload>(mut w: W, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut env = Env {
        rec: Recorder::new(false, Instant::now(), 0),
        gates: Gates::default(),
        acc: SimAcc::default(),
        next_group: 0,
        nproc: opts.nproc,
    };

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t = Instant::now();
        let inp = w.generate(opts.seed);
        w.prepare(&inp);
        setup.push(t.elapsed().as_secs_f64());
        inputs = Some(inp);
    }
    let inputs = inputs.expect("at least one set-up");

    // Timed phase: the pass, then repeats until the deadline.
    let start = Instant::now();
    let mut first: Vec<Vec<u64>> = Vec::with_capacity(W::CYCLES);
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); W::CYCLES];
    let (mut rates, mut cpus) = (Vec::new(), Vec::new());
    let mut c = 0;
    while c < W::CYCLES || start.elapsed().as_secs_f64() < opts.seconds {
        let idx = c % W::CYCLES;
        let pass = if c < W::CYCLES {
            Pass::First
        } else {
            Pass::Repeat
        };
        let o = w.cycle(&inputs, idx, pass, &mut env);
        if pass == Pass::First {
            first.push(o.fingerprints.clone());
        } else {
            let same = o.fingerprints == first[idx];
            env.gates
                .gate("repeated cycle reproduces its fingerprints", same, || {
                    format!("cycle {idx}: {:x?} vs {:x?}", o.fingerprints, first[idx])
                });
        }
        walls[idx].push(o.wall_s);
        rates.push(o.requests as f64 / o.wall_s);
        cpus.push(o.cpu_s * 1e6 / o.tokens.max(1) as f64);
        c += 1;
    }
    out.notes.push(format!(
        "{} cycles of {} per pass; {} cycles timed in {:.2} s",
        W::CYCLES,
        first.first().map_or(0, Vec::len),
        c,
        start.elapsed().as_secs_f64()
    ));

    out.e2e.push(Value::wall(
        "setup_s",
        stats::median(&setup).expect("set-ups ran"),
    ));
    out.e2e.push(Value::wall(
        "req_per_s",
        stats::median(&rates).expect("cycles ran"),
    ));
    out.e2e.push(Value::wall(
        "cpu_us_per_tok",
        stats::median(&cpus).expect("cycles ran"),
    ));
    out.e2e
        .push(Value::sim("slo_attainment", env.acc.attainment()));
    out.e2e
        .extend(SimAcc::ttft_values(&mut env.acc.ttft_s, false));
    w.e2e_extras(&mut out);

    if opts.traced {
        let untraced: f64 = walls
            .iter()
            .map(|w| stats::median(w).expect("each cycle ran"))
            .sum();
        env.rec = Recorder::new(true, Instant::now(), 0);
        let g = env.rec.begin("workload.gen", 0, SpanId::ROOT);
        let inputs = w.generate(opts.seed);
        env.rec.end(g);
        let (mut traced, mut events) = (0.0, 0u64);
        for (idx, want) in first.iter().enumerate() {
            let o = w.cycle(&inputs, idx, Pass::Traced, &mut env);
            env.gates.gate(
                "traced cycle reproduces its fingerprints",
                &o.fingerprints == want,
                || format!("cycle {idx}"),
            );
            traced += o.wall_s;
            events += o.events;
        }
        out.spans =
            std::mem::replace(&mut env.rec, Recorder::new(false, Instant::now(), 0)).into_spans();
        out.layers.extend(core_layers(&out.spans, events));
        out.layers.extend(env.acc.layer_values(true));
        out.layers.push(Value::wall(
            "trace.overhead_pct",
            (traced / untraced - 1.0) * 100.0,
        ));
        w.layer_extras(&inputs, &mut env, &mut out);
        out.layer_default(Value::sim("observers.audit_tax_pct", 0.0));
        out.layer_default(Value::sim("observers.telemetry_tax_pct", 0.0));
        out.layer_default(Value::sim("shard.window_overhead_pct", 0.0));
    }
    out.gates = env.gates;
    out
}

/// Span-derived core ledger entries plus the event-queue microbenchmark.
pub fn core_layers(spans: &[spans::Span], events: u64) -> Vec<Value> {
    let dispatch = spans::total_secs(spans, "core.dispatch");
    let ns_per_event = dispatch * 1e9 / events.max(1) as f64;
    let mut chunks = spans::durations(spans, "core.dispatch.chunk");
    let queue = queue_ns_per_op();
    vec![
        Value::wall("sim.queue.ns_per_op", queue),
        Value::wall("sim.queue.share", queue / ns_per_event),
        Value::wall("workload.gen_s", spans::total_secs(spans, "workload.gen")),
        Value::wall("core.setup_s", spans::total_secs(spans, "core.setup")),
        Value::wall("core.finish_s", spans::total_secs(spans, "core.finish")),
        Value::sim("core.dispatch.events", events as f64),
        Value::wall("core.dispatch.ns_per_event", ns_per_event),
        Value::wall("core.dispatch.events_per_s", events as f64 / dispatch),
        Value::wall(
            "core.dispatch.chunk_ms_p50",
            stats::percentile(&mut chunks, 50.0).unwrap_or(0.0) * 1e3,
        ),
        Value::wall(
            "core.dispatch.chunk_ms_p99",
            stats::percentile(&mut chunks, 99.0).unwrap_or(0.0) * 1e3,
        ),
        Value::wall(
            "metrics.attainment_s",
            spans::total_secs(spans, "metrics.attainment"),
        ),
    ]
}

/// One pop plus one push against 4,096 standing events (the discrete-event
/// steady state), ns per pair; median of three runs.
fn queue_ns_per_op() -> f64 {
    const STANDING: u64 = 4096;
    const OPS: u64 = 1_000_000;
    let mut runs = Vec::with_capacity(3);
    for _ in 0..3 {
        let mut q = EventQueue::<u64>::new();
        for i in 0..STANDING {
            q.schedule_after(
                SimDur::from_nanos(i.wrapping_mul(2_654_435_761) % 100_000),
                i,
            );
        }
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..OPS {
            let (_, e) = q.pop().expect("standing population");
            acc = acc.wrapping_add(e).wrapping_mul(6_364_136_223_846_793_005);
            q.schedule_after(SimDur::from_nanos(acc % 100_000), e);
        }
        black_box(acc);
        runs.push(t.elapsed().as_nanos() as f64 / OPS as f64);
    }
    stats::median(&runs).expect("three runs")
}

// ---------------------------------------------------------------------------
// market
// ---------------------------------------------------------------------------

const MARKET_MODELS: usize = 40;
const MARKET_RATES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
const MARKET_HORIZON: f64 = 400.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum System {
    Aegaeon,
    Serverless,
    MuxServe,
}

/// Fig. 11c around Aegaeon's 90% frontier: Aegaeon and both baselines at
/// four per-model rates, one seed per cycle.
struct Market {
    models: Vec<ModelSpec>,
    cfg: AegaeonConfig,
    sllm: SllmConfig,
    mux: WorldConfig,
    /// First pass: attainment per (system, cycle, rate).
    curves: Vec<(System, usize, f64, f64)>,
    /// Traced pass: (group, rate, system, events) per run.
    units: Vec<(u64, f64, System, u64)>,
}

/// Aegaeon's 90% frontier on the seed-mean attainment curve: per rate, the
/// mean attainment over seeds, then `max_load_meeting` at 0.9.
fn frontier(per_seed: &[Vec<(f64, f64)>]) -> Option<f64> {
    let first = per_seed.first()?;
    let curve: Vec<(f64, f64)> = first
        .iter()
        .enumerate()
        .map(|(i, &(rate, _))| {
            let mean = per_seed.iter().map(|c| c[i].1).sum::<f64>() / per_seed.len() as f64;
            (rate, mean)
        })
        .collect();
    max_load_meeting(&curve, 0.9)
}

impl SimWorkload for Market {
    type Inputs = Vec<Vec<Trace>>;
    const CYCLES: usize = 3;

    fn generate(&self, seed: u64) -> Vec<Vec<Trace>> {
        (0..Self::CYCLES)
            .map(|c| {
                MARKET_RATES
                    .iter()
                    .enumerate()
                    .map(|(r, &rate)| {
                        let i = (c * MARKET_RATES.len() + r) as u64;
                        uniform_trace(
                            MARKET_MODELS,
                            rate,
                            MARKET_HORIZON,
                            derive_seed(seed, i),
                            LengthDist::sharegpt(),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn prepare(&self, inputs: &Vec<Vec<Trace>>) {
        for t in inputs.iter().flatten() {
            drop(ServingSession::closed(&self.cfg, &self.models, t));
        }
    }

    fn cycle(
        &mut self,
        inputs: &Vec<Vec<Trace>>,
        idx: usize,
        pass: Pass,
        env: &mut Env,
    ) -> CycleOut {
        let traces = &inputs[idx];
        let groups: Vec<[u64; 3]> = traces
            .iter()
            .map(|_| [env.group(), env.group(), env.group()])
            .collect();
        let sessions: Vec<ServingSession> = traces
            .iter()
            .zip(&groups)
            .map(|(t, g)| {
                closed(
                    &self.cfg,
                    &self.models,
                    t,
                    false,
                    &mut env.rec,
                    g[0],
                    SpanId::ROOT,
                )
            })
            .collect();
        let cpu0 = procfs::process_cpu_secs();
        let t0 = Instant::now();
        let mut aeg = Vec::with_capacity(traces.len());
        let mut base = Vec::with_capacity(2 * traces.len());
        for ((t, s), (g, &rate)) in traces
            .iter()
            .zip(sessions)
            .zip(groups.iter().zip(&MARKET_RATES))
        {
            aeg.push(serve(s, &mut env.rec, g[0], SpanId::ROOT));
            let b = env.rec.begin("baselines.run", g[1], SpanId::ROOT);
            base.push((
                System::Serverless,
                rate,
                g[1],
                ServerlessLlm::run(&self.sllm, &self.models, t),
            ));
            env.rec.end(b);
            let rates = vec![rate; self.models.len()];
            let b = env.rec.begin("baselines.run", g[2], SpanId::ROOT);
            base.push((
                System::MuxServe,
                rate,
                g[2],
                MuxServe::run(&self.mux, &self.models, &rates, t),
            ));
            env.rec.end(b);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = procfs::process_cpu_secs() - cpu0;

        let mut out = CycleOut {
            wall_s,
            cpu_s,
            ..CycleOut::default()
        };
        for (((r, _, events), t), (g, &rate)) in
            aeg.iter().zip(traces).zip(groups.iter().zip(&MARKET_RATES))
        {
            let att = score(&r.outcomes, r.horizon, &mut env.rec, g[0]);
            let label = format!("Aegaeon rate {rate} cycle {idx}");
            let ok = basic_gates(
                &mut env.gates,
                &label,
                r.completed,
                r.total_requests,
                att.ratio(),
            );
            env.gates.op(ok);
            out.requests += t.len() as u64;
            out.tokens += tokens(&r.outcomes);
            out.fingerprints.push(r.fingerprint());
            out.events += events;
            match pass {
                Pass::First => {
                    env.acc.add(r, &att, t, None);
                    self.curves.push((System::Aegaeon, idx, rate, att.ratio()));
                }
                Pass::Traced => self.units.push((g[0], rate, System::Aegaeon, *events)),
                Pass::Repeat => {}
            }
        }
        for ((sys, rate, g, r), t) in base.iter().zip(traces.iter().flat_map(|t| [t, t])) {
            let att = score(&r.outcomes, r.horizon, &mut env.rec, *g);
            let label = format!("{sys:?} rate {rate} cycle {idx}");
            let ok = basic_gates(
                &mut env.gates,
                &label,
                r.completed,
                r.total_requests,
                att.ratio(),
            );
            env.gates.op(ok);
            out.requests += t.len() as u64;
            out.tokens += tokens(&r.outcomes);
            out.fingerprints.push(r.fingerprint());
            match pass {
                Pass::First => self.curves.push((*sys, idx, *rate, att.ratio())),
                Pass::Traced => self.units.push((*g, *rate, *sys, 0)),
                Pass::Repeat => {}
            }
        }
        out
    }

    fn e2e_extras(&self, out: &mut Outcome) {
        let curve = |sys: System| -> Vec<Vec<(f64, f64)>> {
            (0..Self::CYCLES)
                .map(|c| {
                    self.curves
                        .iter()
                        .filter(|p| p.0 == sys && p.1 == c)
                        .map(|p| (p.2, p.3))
                        .collect()
                })
                .collect()
        };
        for sys in [System::Aegaeon, System::Serverless, System::MuxServe] {
            let per_seed = curve(sys);
            let means: Vec<String> = MARKET_RATES
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let m = per_seed.iter().map(|c| c[i].1).sum::<f64>() / per_seed.len() as f64;
                    format!("{r}:{:.4}", m)
                })
                .collect();
            out.notes.push(format!(
                "{sys:?} seed-mean attainment by rps/model {}",
                means.join(" ")
            ));
        }
        let front = frontier(&curve(System::Aegaeon));
        if front.is_none() {
            out.notes
                .push("Aegaeon never reaches 90% attainment: max_rps_at_slo reads 0".into());
        }
        out.e2e
            .push(Value::sim("max_rps_at_slo", front.unwrap_or(0.0)));
    }

    fn layer_extras(&mut self, _inputs: &Vec<Vec<Trace>>, _env: &mut Env, out: &mut Outcome) {
        // Per span group: (core.dispatch, core.finish + baselines.run) secs.
        let mut by_group: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for s in &out.spans {
            let e = by_group.entry(s.group).or_default();
            match s.name {
                "core.dispatch" => e.0 += s.secs(),
                "core.finish" | "baselines.run" => e.1 += s.secs(),
                _ => {}
            }
        }
        let run_s = |sys: System| -> f64 {
            self.units
                .iter()
                .filter(|u| u.2 == sys)
                .map(|u| by_group.get(&u.0).map_or(0.0, |g| g.0 + g.1))
                .sum()
        };
        let ns_per_event = |rate: f64| -> f64 {
            let (secs, events) = self
                .units
                .iter()
                .filter(|u| u.2 == System::Aegaeon && u.1 == rate)
                .fold((0.0, 0u64), |(s, e), u| {
                    (s + by_group.get(&u.0).map_or(0.0, |g| g.0), e + u.3)
                });
            secs * 1e9 / events.max(1) as f64
        };
        out.layers.extend([
            Value::wall(
                "core.dispatch.ns_per_event.low",
                ns_per_event(MARKET_RATES[0]),
            ),
            Value::wall(
                "core.dispatch.ns_per_event.high",
                ns_per_event(MARKET_RATES[3]),
            ),
            Value::wall("core.aegaeon.run_s", run_s(System::Aegaeon)),
            Value::wall("baselines.serverless.run_s", run_s(System::Serverless)),
            Value::wall("baselines.muxserve.run_s", run_s(System::MuxServe)),
        ]);
    }
}

/// Runs the `market` workload.
pub fn market(opts: &Opts) -> Outcome {
    let cluster = ClusterSpec::paper_testbed();
    run_sim(
        Market {
            models: market_models(MARKET_MODELS),
            cfg: AegaeonConfig::paper_testbed(),
            sllm: SllmConfig::new(cluster.clone()),
            mux: WorldConfig::sllm_default(cluster),
            curves: Vec::new(),
            units: Vec::new(),
        },
        opts,
    )
}

// ---------------------------------------------------------------------------
// agentic
// ---------------------------------------------------------------------------

const AGENTIC_MODELS: usize = 40;
const AGENTIC_DEPTHS: [u32; 3] = [2, 4, 6];
const AGENTIC_GAPS: [f64; 3] = [5.0, 20.0, 60.0];

/// Multi-turn sessions with session affinity on: the KV/slab books retain,
/// spill and claim prefixes across think gaps. One seed per cycle.
struct Agentic {
    models: Vec<ModelSpec>,
    cfg: AegaeonConfig,
}

impl SimWorkload for Agentic {
    type Inputs = Vec<Vec<Trace>>;
    const CYCLES: usize = 6;

    fn generate(&self, seed: u64) -> Vec<Vec<Trace>> {
        (0..Self::CYCLES)
            .map(|c| {
                let cells = AGENTIC_DEPTHS
                    .iter()
                    .flat_map(|&d| AGENTIC_GAPS.iter().map(move |&g| (d, g)));
                cells
                    .enumerate()
                    .map(|(u, (depth, gap))| {
                        let i = (c * AGENTIC_DEPTHS.len() * AGENTIC_GAPS.len() + u) as u64;
                        let mut rng = SimRng::seed_from_u64(derive_seed(seed, i));
                        SessionBuilder::new(
                            SimTime::from_secs_f64(400.0),
                            AGENTIC_MODELS as u32,
                            0.02,
                        )
                        .depth(depth, depth)
                        .think_gap(gap, 0.5)
                        .fanout(0.2, 2)
                        .generate(&mut rng)
                        .lower()
                    })
                    .collect()
            })
            .collect()
    }

    fn prepare(&self, inputs: &Vec<Vec<Trace>>) {
        for t in inputs.iter().flatten() {
            drop(ServingSession::closed(&self.cfg, &self.models, t));
        }
    }

    fn cycle(
        &mut self,
        inputs: &Vec<Vec<Trace>>,
        idx: usize,
        pass: Pass,
        env: &mut Env,
    ) -> CycleOut {
        let traces = &inputs[idx];
        serve_cycle(
            &self.cfg,
            |_| &self.models,
            traces,
            false,
            idx,
            pass,
            env,
            |g, label, r, t, _| {
                let prefix: u64 = t.requests.iter().map(|q| u64::from(q.prefix_tokens)).sum();
                let moved = r.prefill_tokens_reused + r.prefill_tokens_recomputed;
                let a = g.check(
                    "reused + recomputed prefix tokens == trace prefix tokens",
                    moved == prefix,
                    || format!("{label}: {moved} vs {prefix}"),
                );
                let b = g.check("prefix hits > 0", r.prefix_hits > 0, || {
                    format!("{label}: no prefix hit")
                });
                a && b
            },
        )
    }
}

/// Runs the `agentic` workload.
pub fn agentic(opts: &Opts) -> Outcome {
    let mut cfg = AegaeonConfig::paper_testbed();
    cfg.session_affinity = true;
    run_sim(
        Agentic {
            models: market_models(AGENTIC_MODELS),
            cfg,
        },
        opts,
    )
}

/// One cycle of Aegaeon-only runs: build every session, serve them all in
/// one timed block, then score and gate each. `models_for(u)` gives run
/// `u`'s model list; `extra` adds workload gates per run.
#[allow(clippy::too_many_arguments)]
fn serve_cycle<'m>(
    cfg: &AegaeonConfig,
    models_for: impl Fn(usize) -> &'m [ModelSpec],
    traces: &[Trace],
    audit: bool,
    idx: usize,
    pass: Pass,
    env: &mut Env,
    mut extra: impl FnMut(&mut Gates, &str, &RunResult, &Trace, Option<&AuditReport>) -> bool,
) -> CycleOut {
    let groups: Vec<u64> = traces.iter().map(|_| env.group()).collect();
    let sessions: Vec<ServingSession> = traces
        .iter()
        .enumerate()
        .map(|(u, t)| {
            closed(
                cfg,
                models_for(u),
                t,
                audit,
                &mut env.rec,
                groups[u],
                SpanId::ROOT,
            )
        })
        .collect();
    let cpu0 = procfs::process_cpu_secs();
    let t0 = Instant::now();
    let runs: Vec<_> = sessions
        .into_iter()
        .zip(&groups)
        .map(|(s, &g)| serve(s, &mut env.rec, g, SpanId::ROOT))
        .collect();
    let mut out = CycleOut {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: procfs::process_cpu_secs() - cpu0,
        ..CycleOut::default()
    };
    for (u, ((r, audit, events), t)) in runs.iter().zip(traces).enumerate() {
        let att = score(&r.outcomes, r.horizon, &mut env.rec, groups[u]);
        let label = format!("cycle {idx} run {u}");
        let basic = basic_gates(
            &mut env.gates,
            &label,
            r.completed,
            r.total_requests,
            att.ratio(),
        );
        let more = extra(&mut env.gates, &label, r, t, audit.as_ref());
        env.gates.op(basic && more);
        out.requests += t.len() as u64;
        out.tokens += tokens(&r.outcomes);
        out.fingerprints.push(r.fingerprint());
        out.events += events;
        if pass == Pass::First {
            env.acc.add(r, &att, t, audit.as_ref());
        }
    }
    out
}

// ---------------------------------------------------------------------------
// observed
// ---------------------------------------------------------------------------

/// The chaos plan every `observed` run carries.
const CHAOS: &str = "cp=0.0005;cd=0.001;stall=0.01:2;link=0.01:0.5:3";
/// `(models, rps/model, seconds)`: the first trace stays under the
/// auditor's 2,048-request full-scan threshold, the second goes over it.
const OBSERVED_TRACES: [(usize, f64, f64); 2] = [(16, 0.3, 30.0), (40, 0.3, 180.0)];

/// Poisson arrivals conditioned on their count: exactly `rate × secs`
/// requests per model at uniform random instants. The full-scan auditor
/// checks every request after every event, so its cost grows faster than
/// the request count; a free Poisson count would widen the run-to-run spread
/// of `observed`.
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

/// Chaos with the auditor and telemetry (SLO observatory included) on:
/// observers take most of the wall time. One seed per cycle.
struct Observed {
    models: [Vec<ModelSpec>; 2],
    cfg: AegaeonConfig,
}

impl SimWorkload for Observed {
    type Inputs = Vec<Vec<Trace>>;
    const CYCLES: usize = 4;

    fn generate(&self, seed: u64) -> Vec<Vec<Trace>> {
        (0..Self::CYCLES)
            .map(|c| {
                OBSERVED_TRACES
                    .iter()
                    .enumerate()
                    .map(|(u, &(n, rate, secs))| {
                        let i = (c * OBSERVED_TRACES.len() + u) as u64;
                        counted_trace(n, rate, secs, derive_seed(seed, i))
                    })
                    .collect()
            })
            .collect()
    }

    fn prepare(&self, inputs: &Vec<Vec<Trace>>) {
        for cycle in inputs {
            for (u, t) in cycle.iter().enumerate() {
                let mut s = ServingSession::closed(&self.cfg, &self.models[u], t);
                s.install_auditor(Box::new(InvariantAuditor::new()));
            }
        }
    }

    fn cycle(
        &mut self,
        inputs: &Vec<Vec<Trace>>,
        idx: usize,
        pass: Pass,
        env: &mut Env,
    ) -> CycleOut {
        let models = &self.models;
        serve_cycle(
            &self.cfg,
            |u| &models[u],
            &inputs[idx],
            true,
            idx,
            pass,
            env,
            |g, label, _, _, audit| {
                let clean = audit.is_some_and(AuditReport::ok);
                g.check("audit reports no violations", clean, || {
                    format!(
                        "{label}: {}",
                        audit.map_or("no report".to_string(), |a| a.to_string())
                    )
                })
            },
        )
    }

    fn layer_extras(&mut self, inputs: &Vec<Vec<Trace>>, env: &mut Env, out: &mut Outcome) {
        // Observer tax: each trace of the first cycle with observers off,
        // auditor only, telemetry only, and both.
        let mut off_cfg = self.cfg.clone();
        off_cfg.telemetry = aegaeon_telemetry::TelemetrySpec::disabled();
        let mut rec = Recorder::new(false, Instant::now(), 0);
        let mut sums = [0.0f64; 3]; // off, audit, telemetry
        for (u, t) in inputs[0].iter().enumerate() {
            let mut wall = [0.0f64; 4];
            let mut prints = [0u64; 4];
            for (k, (audit, tel)) in [(false, false), (true, false), (false, true), (true, true)]
                .into_iter()
                .enumerate()
            {
                let cfg = if tel { &self.cfg } else { &off_cfg };
                let s = closed(cfg, &self.models[u], t, audit, &mut rec, 0, SpanId::ROOT);
                let t0 = Instant::now();
                let (r, _, _) = serve(s, &mut rec, 0, SpanId::ROOT);
                wall[k] = t0.elapsed().as_secs_f64();
                prints[k] = r.fingerprint();
            }
            env.gates.gate(
                "fingerprint identical across observer settings",
                prints.iter().all(|&p| p == prints[0]),
                || format!("trace {u}: {prints:x?}"),
            );
            let (mode, audit_name, tel_name) = if t.len() <= InvariantAuditor::FULL_SCAN_MAX {
                (
                    "fullscan",
                    "observers.audit_tax_pct.fullscan",
                    "observers.telemetry_tax_pct.fullscan",
                )
            } else {
                (
                    "windowed",
                    "observers.audit_tax_pct.windowed",
                    "observers.telemetry_tax_pct.windowed",
                )
            };
            let tax = |on: f64| (on / wall[0] - 1.0) * 100.0;
            out.layers.push(Value::wall(audit_name, tax(wall[1])));
            out.layers.push(Value::wall(tel_name, tax(wall[2])));
            out.notes.push(format!(
                "observer walls, trace {u} ({} requests, {mode}): off {:.3} s, auditor {:.3} s, telemetry {:.3} s, both {:.3} s",
                t.len(),
                wall[0],
                wall[1],
                wall[2],
                wall[3]
            ));
            for (sum, w) in sums.iter_mut().zip(wall) {
                *sum += w;
            }
        }
        out.layers.push(Value::wall(
            "observers.audit_tax_pct",
            (sums[1] / sums[0] - 1.0) * 100.0,
        ));
        out.layers.push(Value::wall(
            "observers.telemetry_tax_pct",
            (sums[2] / sums[0] - 1.0) * 100.0,
        ));
    }
}

/// Runs the `observed` workload.
pub fn observed(opts: &Opts) -> Outcome {
    let mut cfg = AegaeonConfig::paper_testbed();
    cfg.faults = CHAOS.parse::<FaultPlan>().expect("valid chaos plan");
    cfg.telemetry = aegaeon_telemetry::TelemetrySpec::enabled();
    run_sim(
        Observed {
            models: OBSERVED_TRACES.map(|(n, _, _)| market_models(n)),
            cfg,
        },
        opts,
    )
}

// ---------------------------------------------------------------------------
// sharded
// ---------------------------------------------------------------------------

const SHARDS: usize = 16;
const SHARDED_MODELS: usize = 256;

/// A 16-node cluster in 16 shards through the conservative-window barrier
/// on `nproc` worker threads. One seed per cycle.
struct Sharded {
    models: Vec<ModelSpec>,
    cfg: AegaeonConfig,
    /// Traced pass, per cycle: (1-thread wall, nproc wall, standalone
    /// walls, standalone events).
    traced: Vec<(f64, f64, Vec<f64>, Vec<u64>)>,
}

impl SimWorkload for Sharded {
    type Inputs = Vec<Trace>;
    const CYCLES: usize = 5;

    fn generate(&self, seed: u64) -> Vec<Trace> {
        (0..Self::CYCLES as u64)
            .map(|c| {
                uniform_trace(
                    SHARDED_MODELS,
                    0.2,
                    400.0,
                    derive_seed(seed, c),
                    LengthDist::sharegpt(),
                )
            })
            .collect()
    }

    fn prepare(&self, inputs: &Vec<Trace>) {
        for t in inputs {
            let plan = ShardPlan::partition(&self.cfg, t, SHARDS);
            for (cfg, trace) in plan.cfgs.iter().zip(&plan.traces) {
                drop(ServingSession::closed(cfg, &self.models, trace));
            }
        }
    }

    fn cycle(&mut self, inputs: &Vec<Trace>, idx: usize, pass: Pass, env: &mut Env) -> CycleOut {
        let trace = &inputs[idx];
        let group = env.group();
        let cpu0 = procfs::process_cpu_secs();
        let t0 = Instant::now();
        let s = env.rec.begin("shard.run", group, SpanId::ROOT);
        let r = run_sharded(&self.cfg, &self.models, trace, SHARDS, env.nproc);
        env.rec.end(s);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = procfs::process_cpu_secs() - cpu0;
        let att = score(&r.outcomes, r.horizon, &mut env.rec, group);
        let ok = basic_gates(
            &mut env.gates,
            &format!("cycle {idx}"),
            r.completed,
            r.total_requests,
            att.ratio(),
        );
        env.gates.op(ok);
        let mut out = CycleOut {
            wall_s,
            cpu_s,
            requests: trace.len() as u64,
            tokens: tokens(&r.outcomes),
            fingerprints: vec![r.fingerprint()],
            events: 0,
        };
        match pass {
            Pass::First => env.acc.add(&r, &att, trace, None),
            Pass::Repeat => {}
            Pass::Traced => {
                let p = env.rec.begin("shard.partition", group, SpanId::ROOT);
                let plan = ShardPlan::partition(&self.cfg, trace, SHARDS);
                env.rec.end(p);
                let one_group = env.group();
                let t1 = Instant::now();
                let s = env.rec.begin("shard.run", one_group, SpanId::ROOT);
                let serial = run_sharded(&self.cfg, &self.models, trace, SHARDS, 1);
                env.rec.end(s);
                let serial_s = t1.elapsed().as_secs_f64();
                env.gates.gate(
                    "1-thread and nproc-thread fingerprints equal",
                    serial.fingerprint() == r.fingerprint(),
                    || {
                        format!(
                            "cycle {idx}: {:016x} vs {:016x}",
                            serial.fingerprint(),
                            r.fingerprint()
                        )
                    },
                );
                let (mut walls, mut events) = (Vec::new(), Vec::new());
                for (cfg, t) in plan.cfgs.iter().zip(&plan.traces) {
                    let g = env.group();
                    let ts = Instant::now();
                    let root = env.rec.begin("shard.standalone", g, SpanId::ROOT);
                    let session = closed(cfg, &self.models, t, false, &mut env.rec, g, root);
                    let (_, _, n) = serve(session, &mut env.rec, g, root);
                    env.rec.end(root);
                    walls.push(ts.elapsed().as_secs_f64());
                    events.push(n);
                }
                let sum: u64 = events.iter().sum();
                env.gates.gate(
                    "shards run alone sum to the sharded run's events",
                    sum == r.events,
                    || format!("cycle {idx}: {sum} vs {}", r.events),
                );
                out.events = sum;
                self.traced.push((serial_s, wall_s, walls, events));
            }
        }
        out
    }

    fn layer_extras(&mut self, _inputs: &Vec<Trace>, env: &mut Env, out: &mut Outcome) {
        let max_over_mean = |v: &[f64]| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().copied().fold(0.0, f64::max) / mean
        };
        let (mut serial, mut parallel, mut alone, mut bound) = (0.0, 0.0, 0.0, 0.0);
        let (mut imb, mut ev_imb) = (Vec::new(), Vec::new());
        for (one, n, walls, events) in &self.traced {
            serial += one;
            parallel += n;
            alone += walls.iter().sum::<f64>();
            bound += stats::makespan_bound(walls, env.nproc);
            imb.push(max_over_mean(walls));
            ev_imb.push(max_over_mean(
                &events.iter().map(|&e| e as f64).collect::<Vec<_>>(),
            ));
        }
        out.layers.extend([
            Value::wall(
                "shard.partition_s",
                spans::total_secs(&out.spans, "shard.partition"),
            ),
            Value::wall("shard.imbalance", stats::median(&imb).unwrap_or(0.0)),
            Value::sim(
                "shard.event_imbalance",
                stats::median(&ev_imb).unwrap_or(0.0),
            ),
            Value::wall("shard.window_overhead_pct", (serial / alone - 1.0) * 100.0),
            Value::wall("shard.parallel_speedup", serial / parallel),
            Value::wall("shard.ideal_speedup", alone / bound),
        ]);
    }
}

/// Runs the `sharded` workload.
pub fn sharded(opts: &Opts) -> Outcome {
    let mut cfg = AegaeonConfig::paper_testbed();
    cfg.cluster = ClusterSpec::homogeneous(SHARDS as u32, NodeSpec::h800_node());
    cfg.prefill_instances = 48;
    run_sim(
        Sharded {
            models: market_models(SHARDED_MODELS),
            cfg,
            traced: Vec::new(),
        },
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_interpolates_the_seed_mean_curve() {
        // Seed means: 0.25 -> 1.0, 0.5 -> 0.96, 0.75 -> 0.92, 1.0 -> 0.72.
        let per_seed = vec![
            vec![(0.25, 1.0), (0.5, 0.98), (0.75, 0.95), (1.0, 0.74)],
            vec![(0.25, 1.0), (0.5, 0.94), (0.75, 0.89), (1.0, 0.70)],
        ];
        // Crossing 0.9 between 0.75 (0.92) and 1.0 (0.72): 0.75 + 0.25 * 0.1.
        let got = frontier(&per_seed).expect("starts above 90%");
        assert!((got - 0.775).abs() < 1e-12, "{got}");
        let mean_curve = [(0.25, 1.0), (0.5, 0.96), (0.75, 0.92), (1.0, 0.72)];
        let direct = max_load_meeting(&mean_curve, 0.9).expect("starts above 90%");
        assert!((got - direct).abs() < 1e-12, "{got} vs {direct}");
        // A single seed is its own mean.
        let one = vec![vec![(0.25, 0.95), (0.5, 0.85)]];
        assert_eq!(frontier(&one), max_load_meeting(&one[0], 0.9));
        // Never reaching 90% has no frontier.
        assert_eq!(frontier(&[vec![(0.25, 0.5)]]), None);
        assert_eq!(frontier(&[]), None);
    }
}
