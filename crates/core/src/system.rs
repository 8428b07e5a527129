//! The Aegaeon serving system: disaggregated instances, token-level
//! scheduling and preemptive auto-scaling over the simulated cluster.
//!
//! One [`ServingSystem`] drives a whole run: requests arrive at the proxy,
//! Algorithm 1 places their prefill, prefilled requests hand their KV cache
//! to a decoding instance chosen per Algorithm 2, and every model switch
//! goes through the §5 preemptive auto-scaling pipeline (stage plan on the
//! default stream, prefetching on a separate stream, KV transfers on
//! dedicated streams synchronized with CUDA-like events, move lists plus a
//! reclamation daemon for §5.3 rule ❸).

use std::collections::VecDeque;

use aegaeon_engine::init::{PIPELINED_LOAD_EFFICIENCY, UNPINNED_FALLBACK_EFFICIENCY};
use aegaeon_engine::{scale_up_plan, KvCache, KvCacheConfig, ScaleCost};
use aegaeon_gpu::{ClusterTopology, EventId, GpuId, LinkId, StreamId, StreamOp};
use aegaeon_mem::journal::marked_books;
use aegaeon_mem::{FragSampler, Journal, ModelCache};
use aegaeon_metrics::Stage;
use aegaeon_model::ModelId;
use aegaeon_sim::{EventQueue, Lift, SimDur, SimRng, SimTime, Timeline};
use aegaeon_telemetry::{
    CostKind, CounterId, GaugeId, SketchId, SpanId, SpanKind, SpanLog, Telemetry,
};
use aegaeon_workload::{Request, RequestId, SessionId, Trace};

use crate::audit::{AuditReport, AuditView, Book};
use crate::chaos::{FaultEvent, FaultKind};
use crate::config::AegaeonConfig;
use crate::decode::{dispatch_decode, BatchId, WorkList};
use crate::deploy::{build_deploys, ModelDeploy};
use crate::events::{Ev, InstKind, InstRef, Tag};
use crate::prefill::{dispatch_prefill, PrefillQueue};
use crate::proxy::MetaStore;
use crate::quota::{decode_quotas, QuotaInputs};
use crate::reqstate::{KvPlace, Phase, ReqState};
use crate::result::RunResult;
use crate::runtime::{
    checked, CoreIds, DecodeRun, FabricPort, Host, Requests, SpanBook, SAMPLE_PERIOD,
};
use crate::scaler::Scaler;
use crate::sessionbook::{PrefixClaim, SessEntry, SessPlace, SessionBook};

/// Proxy dispatch latency (metadata sync via the shared store).
const PROXY_LATENCY: SimDur = SimDur::from_micros(500);
/// Per-request control-plane overhead charged per KV swap (index tracking,
/// CUDA event manipulation) — Figure 14's "control overhead".
const CONTROL_OVERHEAD_PER_SWAP: SimDur = SimDur::from_micros(300);
/// Host Model Cache capacity per node.
const MODEL_CACHE_BYTES: u64 = 1536 << 30;
/// Unified CPU KV cache capacity per node.
const CPU_KV_BYTES: u64 = 320 << 30;
/// Tokens per KV block.
const BLOCK_TOKENS: u32 = 16;
/// Move-list reclamation daemon period.
const DAEMON_PERIOD: SimDur = SimDur::from_millis(50);
/// Expected decode tokens used for batch-size headroom when the oracle
/// output length is unknown (Aegaeon never reads the oracle).
const EXPECTED_OUTPUT_TOKENS: u32 = 256;
/// Delay before the proxy's status sync notices a dead instance and
/// recovers its requests (two heartbeat periods).
pub(crate) const FAILOVER_LATENCY: SimDur = SimDur::from_secs(2);

/// One open KV-transfer span (only tracked when telemetry is on). Each
/// request has two, indexed by direction (`[swap-in, offload]`), on separate
/// subtracks because they can overlap under §5.3 rule ❷.
#[derive(Debug, Clone, Copy)]
struct KvSpan {
    span: SpanId,
    /// Ledger instance that issued the transfer (`u32::MAX` = none) and
    /// when it started, for switch-cost attribution at transfer close.
    inst: u32,
    start: SimTime,
}

impl KvSpan {
    const NONE: KvSpan = KvSpan {
        span: SpanId::NONE,
        inst: u32::MAX,
        start: SimTime::ZERO,
    };
}

/// Aegaeon's own metric ids, registered after the runtime's
/// [`CoreIds`] (all nulls when telemetry is off, making every hot-path op
/// a single branch).
#[derive(Debug)]
struct TelIds {
    c_prefetch_hits: CounterId,
    c_swaps: CounterId,
    c_preemptions: CounterId,
    c_retries: CounterId,
    c_chaos_crashes: CounterId,
    c_chaos_windows: CounterId,
    c_meta_writes: CounterId,
    g_decode_batches: GaugeId,
    g_vram_kv_used: GaugeId,
    g_cpu_kv_used: GaugeId,
    g_link_bytes_in_flight: GaugeId,
    s_scale_latency: SketchId,
    // Agentic-session instruments (prefix reuse + affinity scheduling).
    c_sess_prefix_hits: CounterId,
    c_sess_reused_tokens: CounterId,
    c_sess_recomputed_tokens: CounterId,
    c_sess_retained_gpu: CounterId,
    c_sess_retained_cpu: CounterId,
    c_sess_evicted: CounterId,
    c_sess_expired: CounterId,
    c_sess_affinity_routed: CounterId,
    c_sess_affinity_fallback: CounterId,
}

impl TelIds {
    /// Registers every instrument; on a disabled registry all ids are null.
    fn register(reg: &mut aegaeon_telemetry::MetricsRegistry) -> TelIds {
        TelIds {
            c_prefetch_hits: reg.counter("prefetch_hits"),
            c_swaps: reg.counter("kv_swaps"),
            c_preemptions: reg.counter("preemptions"),
            c_retries: reg.counter("proxy_retries"),
            c_chaos_crashes: reg.counter("chaos_crashes"),
            c_chaos_windows: reg.counter("chaos_windows"),
            c_meta_writes: reg.counter("metastore_writes"),
            g_decode_batches: reg.gauge("decode_batches"),
            g_vram_kv_used: reg.gauge("vram_kv_used_bytes"),
            g_cpu_kv_used: reg.gauge("cpu_kv_used_bytes"),
            g_link_bytes_in_flight: reg.gauge("link_bytes_in_flight"),
            s_scale_latency: reg.sketch(
                "scale_latency_secs",
                aegaeon_telemetry::observatory::SLO_SKETCH_ALPHA,
            ),
            c_sess_prefix_hits: reg.counter("session_prefix_hits"),
            c_sess_reused_tokens: reg.counter("session_prefill_tokens_reused"),
            c_sess_recomputed_tokens: reg.counter("session_prefill_tokens_recomputed"),
            c_sess_retained_gpu: reg.counter("session_kv_retained_gpu"),
            c_sess_retained_cpu: reg.counter("session_kv_retained_cpu"),
            c_sess_evicted: reg.counter("session_kv_evicted"),
            c_sess_expired: reg.counter("session_kv_expired"),
            c_sess_affinity_routed: reg.counter("session_affinity_routed"),
            c_sess_affinity_fallback: reg.counter("session_affinity_fallback"),
        }
    }
}

/// What every instance carries whichever scheduler drives it (Alg. 1 or
/// Alg. 2): its TP group, the §5 auto-scaling state, and the §5.3 KV book,
/// which parks blocks behind in-flight copies.
#[derive(Debug)]
struct Inst {
    gpus: Vec<GpuId>,
    node: u32,
    scaler: Scaler,
    gpu_kv: KvCache,
    dead: bool,
}

#[derive(Debug)]
struct PrefillInst {
    inst: Inst,
    queue: PrefillQueue,
    active: Option<RequestId>,
    retry: bool,
}

#[derive(Debug)]
struct TurnState {
    batch: BatchId,
    gen: u64,
    quota: f64,
    decode_started: Option<SimTime>,
    /// The members the turn's steps decode, refilled in place at each
    /// issue.
    step_reqs: Vec<RequestId>,
    /// Members of `step_reqs` whose swap-in landed during the step in
    /// flight: they decode from the next step on.
    late: Vec<RequestId>,
    /// An issued step's duration and context while it waits for the KV
    /// copies queued ahead of it on the default stream (blocking
    /// transfers only); it starts in the instance's run at
    /// [`Tag::StepStart`].
    blocked: Option<(SimDur, u64)>,
    /// A KV copy queues behind the step in flight or the blocked one (see
    /// [`ServingSystem::queue_behind_step`]).
    held: bool,
    /// Blocks the plan's steps before its last take from the batch's
    /// shape, less what its applied steps took since: the cache must keep
    /// this many free.
    need: u64,
    kv_stall_since: Option<SimTime>,
    /// Open telemetry span covering this turn ([`SpanId::NONE`] when off).
    span: SpanId,
}

#[derive(Debug)]
struct DecodeInst {
    inst: Inst,
    /// The stepping turn's decode run, on the instance's own noise stream.
    run: DecodeRun,
    work: WorkList,
    round: VecDeque<BatchId>,
    turn: Option<TurnState>,
    turn_gen: u64,
    /// Stands in for a step in flight that a blocking KV copy must queue
    /// behind (see [`ServingSystem::queue_behind_step`]).
    hold: StreamId,
}

impl DecodeInst {
    /// The model of the batch whose turn is running, if any.
    fn turn_model(&self) -> Option<ModelId> {
        self.turn
            .as_ref()
            .and_then(|t| self.work.get(t.batch))
            .map(|b| b.model)
    }
}

#[derive(Debug)]
struct NodeState {
    cpu_kv: KvCache,
    model_cache: ModelCache,
    /// Requests whose prefill finished but whose KV offload could not yet
    /// allocate CPU space, with their prefill instance (retried by the
    /// daemon).
    offload_retry: Vec<(usize, RequestId)>,
}

/// The serving system (see module docs).
pub struct ServingSystem {
    pub(crate) cfg: AegaeonConfig,
    port: FabricPort<Tag>,
    topo: ClusterTopology,
    deploys: Vec<ModelDeploy>,
    prefills: Vec<PrefillInst>,
    decodes: Vec<DecodeInst>,
    nodes: Vec<NodeState>,
    /// The books (prefill, decode, then node caches) whose touch logs the
    /// current event wrote to; the logs record only once an auditor is
    /// installed.
    journal: Journal,
    pub(crate) reqs: Requests,
    pub(crate) trace: Trace,
    rng: SimRng,
    meta: MetaStore,
    /// Materialized fault schedule (chaos engine), sorted by time.
    faults: Vec<FaultEvent>,
    /// Nesting depth of active degradation windows per fabric link.
    link_degrade_depth: Vec<u32>,
    /// Nesting depth of active staging-OOM windows per node.
    stage_oom_depth: Vec<u32>,
    /// Each planned member's context, held blocks and whether it sits out
    /// the step in flight (a buffer [`ServingSystem::plan`] refills).
    plan_kv: Vec<(u64, u64, bool)>,
    // Metrics.
    breakdown: aegaeon_metrics::BreakdownAcc,
    /// Decode execution summed in integer nanoseconds (per step, its
    /// duration times its batch), so the total does not depend on how the
    /// instances' steps interleave; it joins `breakdown` at finish.
    decode_exec: SimDur,
    scale_latencies: Vec<f64>,
    frag: FragSampler,
    util_samples: Vec<(SimTime, Vec<f64>)>,
    schedule: SpanLog,
    /// Request-lifecycle spans + sampled metrics (observer only).
    pub(crate) tel: Telemetry,
    /// Pre-registered metric ids: the runtime's and Aegaeon's own.
    ids: CoreIds,
    tm: TelIds,
    /// Per-request span handles and the retirement hook.
    spans: SpanBook,
    /// Per-request KV-transfer spans and their start times; empty when
    /// telemetry is off. Kept without a span log too: the attribution
    /// ledger's `kv_swap_*` seconds come from the start times.
    kv_tel: Vec<[KvSpan; 2]>,
    swaps: u64,
    scale_count: u64,
    prefetch_hits: u64,
    /// Retained-prefix map + outstanding claims (session affinity).
    sessions: SessionBook,
    prefix_hits: u64,
    prefill_tokens_reused: u64,
    prefill_tokens_recomputed: u64,
    ticks_live: bool,
    /// Tick-stream generation: bumped each time ticks restart so an
    /// idle-stopped tick still in the queue cannot fork a second stream.
    tick_gen: u64,
    pub(crate) hard_stop: SimTime,
    /// Sharded-run mode: a total tier loss hands stranded requests to the
    /// shard coordinator via [`ServingSystem::outbox`] instead of being a
    /// fatal condition. Off (the default) preserves the historical asserts.
    pub(crate) shard_mode: bool,
    /// Requests handed off to the shard coordinator this window (drained at
    /// every synchronization barrier; always empty outside shard mode).
    pub(crate) outbox: Vec<crate::shard::Handoff>,
}

type Q = EventQueue<Ev>;

impl ServingSystem {
    /// Runs a full serving simulation and returns its results. With
    /// `cfg.audit` set, the invariant auditor observes the run and its
    /// report lands on [`RunResult::audit`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (e.g. a model's TP shard
    /// does not fit in VRAM), or, with `cfg.audit` set, on any invariant
    /// violation, printing the report and the `(seed, plan)` that
    /// reproduces it.
    pub fn run(
        cfg: &AegaeonConfig,
        models: &[aegaeon_model::ModelSpec],
        trace: &Trace,
    ) -> RunResult {
        let mut session = crate::session::ServingSession::closed(cfg, models, trace);
        if cfg.audit {
            session.install_auditor(Box::new(crate::audit::InvariantAuditor::new()));
        }
        session.step_until(SimTime::MAX);
        checked(
            session.into_result(),
            format_args!("seed={} plan=\"{}\"", cfg.seed, cfg.faults),
        )
    }

    pub(crate) fn new(
        cfg: AegaeonConfig,
        models: &[aegaeon_model::ModelSpec],
        trace: Trace,
    ) -> ServingSystem {
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let (mut port, topo) = FabricPort::build(&cfg.cluster);
        let gpu_spec = cfg.cluster.nodes[0].gpu.clone();
        // Profile before serving (§5.1) every model the trace names; a
        // model first seen later (a migrant, a live request) is fitted
        // from its profiling turn when it is first estimated.
        let mut named = vec![false; models.len()];
        for r in &trace.requests {
            named[r.model.0 as usize] = true;
        }
        let deploys = build_deploys(models, &gpu_spec, cfg.tp, &mut rng, |m| named[m.0 as usize]);

        let (scaler, kv_cap) = Scaler::fit(&cfg, &deploys);

        // Instances: TP-sized groups of consecutive GPUs; the first
        // `prefill_instances` groups prefill, the rest decode.
        let n_inst = cfg.instance_count();
        let mut gpu_iter = topo.gpu_ids().collect::<Vec<_>>().into_iter();
        let journal = Journal::default();
        journal.record(false);
        let mut prefills = Vec::new();
        let mut decodes = Vec::new();
        for i in 0..n_inst {
            let gpus: Vec<GpuId> = (&mut gpu_iter).take(cfg.tp as usize).collect();
            let mut gpu_kv = KvCache::new(KvCacheConfig {
                capacity_bytes: kv_cap,
                slab_bytes: cfg.slab_bytes,
                block_tokens: BLOCK_TOKENS,
            });
            for (m, d) in deploys.iter().enumerate() {
                gpu_kv.register_model(ModelId(m as u32), &d.spec);
            }
            gpu_kv.join(journal.member(i));
            let inst = Inst {
                node: topo.gpu(gpus[0]).node.0,
                gpus,
                scaler: scaler.clone(),
                gpu_kv,
                dead: false,
            };
            if i < cfg.prefill_instances {
                prefills.push(PrefillInst {
                    inst,
                    queue: PrefillQueue::new(),
                    active: None,
                    retry: false,
                });
            } else {
                let di = (i - cfg.prefill_instances) as u64;
                decodes.push(DecodeInst {
                    inst,
                    run: DecodeRun::new(cfg.seed, di),
                    work: WorkList::new(),
                    round: VecDeque::new(),
                    turn: None,
                    turn_gen: 0,
                    hold: port.fabric.add_stream(format!("decode{di}.hold")),
                });
            }
        }

        // Node state: CPU caches pre-warmed with as many checkpoints as fit.
        let mut nodes = Vec::new();
        for ni in 0..topo.node_count() {
            let mut cpu_kv = KvCache::new(KvCacheConfig {
                capacity_bytes: CPU_KV_BYTES,
                slab_bytes: cfg.slab_bytes,
                block_tokens: BLOCK_TOKENS,
            });
            let mut model_cache = ModelCache::new(MODEL_CACHE_BYTES);
            for (i, d) in deploys.iter().enumerate() {
                cpu_kv.register_model(ModelId(i as u32), &d.spec);
                let _ = model_cache.insert(i as u32, d.spec.weight_bytes());
            }
            cpu_kv.join(journal.member(n_inst + ni));
            nodes.push(NodeState {
                cpu_kv,
                model_cache,
                offload_retry: Vec::new(),
            });
        }

        let reqs = Requests::new(&trace);
        let hard_stop = trace.horizon + cfg.drain_window;
        let mut schedule = if cfg.trace_schedule {
            SpanLog::enabled()
        } else {
            SpanLog::disabled()
        };
        // Every instance records on its first GPU's lane; interning them
        // here fixes the lane order whatever order the lanes record in.
        let lanes = prefills
            .iter()
            .map(|p| &p.inst)
            .chain(decodes.iter().map(|d| &d.inst));
        for inst in lanes {
            schedule.add_track(|| inst.gpus[0].to_string());
        }
        let (mut tel, ids) = CoreIds::telemetry(&cfg.telemetry, deploys.len());
        let tm = TelIds::register(&mut tel.metrics);
        if tel.is_enabled() {
            // The attribution ledger is sized by the instance roster.
            for i in 0..prefills.len() {
                tel.attrib.instance(&format!("p{i}"));
            }
            for i in 0..decodes.len() {
                tel.attrib.instance(&format!("d{i}"));
            }
        }
        let spans = SpanBook::new(&tel, trace.len());
        let kv_tel = vec![[KvSpan::NONE; 2]; if tel.is_enabled() { trace.len() } else { 0 }];
        let meta = MetaStore::new(PROXY_LATENCY, FAILOVER_LATENCY / 2);
        let links = port.fabric.link_count();
        let faults = cfg.faults.materialize(
            cfg.seed,
            hard_stop.as_secs_f64(),
            cfg.prefill_instances as u32,
            (n_inst - cfg.prefill_instances) as u32,
            links as u32,
            topo.node_count() as u32,
        );
        let stage_oom_depth = vec![0; topo.node_count()];
        ServingSystem {
            cfg,
            port,
            topo,
            deploys,
            prefills,
            decodes,
            nodes,
            journal,
            reqs,
            trace,
            rng,
            meta,
            faults,
            link_degrade_depth: vec![0; links],
            stage_oom_depth,
            plan_kv: Vec::new(),
            breakdown: aegaeon_metrics::BreakdownAcc::new(),
            decode_exec: SimDur::ZERO,
            scale_latencies: Vec::new(),
            frag: FragSampler::new(),
            util_samples: Vec::new(),
            schedule,
            tel,
            ids,
            tm,
            spans,
            kv_tel,
            swaps: 0,
            scale_count: 0,
            prefetch_hits: 0,
            sessions: SessionBook::default(),
            prefix_hits: 0,
            prefill_tokens_reused: 0,
            prefill_tokens_recomputed: 0,
            ticks_live: false,
            tick_gen: 0,
            hard_stop,
            shard_mode: false,
            outbox: Vec::new(),
        }
    }

    pub(crate) fn start(&mut self, q: &mut Q) {
        for (i, r) in self.trace.requests.iter().enumerate() {
            q.schedule_at(r.arrival(), Ev::Arrive(i as u32));
        }
        for i in 0..self.faults.len() {
            let f = self.faults[i];
            let ev = match f.kind {
                FaultKind::Crash { .. } => Ev::Fail(i as u32),
                _ => Ev::FaultStart(i as u32),
            };
            q.schedule_at(SimTime::from_secs_f64(f.at), ev);
        }
        self.ensure_ticks(q);
    }

    /// Admits one externally injected request arriving at `stamp`
    /// (strictly increasing and strictly in the future — the injection port
    /// guarantees both) and returns the id it was assigned: `r`'s id and
    /// arrival are replaced. Open-mode sessions grow the trace in place, so
    /// a later offline replay of the recorded trace walks an identical data
    /// structure.
    pub(crate) fn admit_live(&mut self, r: Request, stamp: SimTime, q: &mut Q) -> RequestId {
        let id = RequestId(self.trace.requests.len() as u64);
        let arrival_ns = stamp.as_nanos();
        let r = Request { id, arrival_ns, ..r };
        // The horizon only grows; the fault schedule and hard stop were
        // materialized from the construction-time horizon, so live and
        // replay sessions see identical fault plans.
        if stamp > self.trace.horizon {
            self.trace.horizon = stamp;
        }
        self.reqs.push(ReqState::from_request(&r));
        self.trace.requests.push(r);
        self.spans.push(&self.tel);
        if self.tel.is_enabled() {
            self.kv_tel.push([KvSpan::NONE; 2]);
        }
        q.schedule_at(stamp, Ev::Arrive(id.0 as u32));
        id
    }

    /// Writes the run-level counters a live `/metrics` reads before finish.
    pub(crate) fn set_run_counters(&mut self, q: &Q, audit: Option<&AuditReport>) {
        self.ids.set_run_counters(&mut self.tel, q, audit);
    }

    /// When the earliest decode step in flight ends, if any: steps are not
    /// events, so a session whose sinks stream tokens asks for it.
    pub(crate) fn next_step_end(&self) -> Option<SimTime> {
        let live = self.decodes.iter().filter(|d| !d.inst.dead);
        live.filter_map(|d| d.run.end()).min()
    }

    pub(crate) fn live(&self) -> bool {
        self.reqs.unresolved() > 0
    }

    fn ensure_ticks(&mut self, q: &mut Q) {
        if !self.ticks_live && self.live() {
            self.ticks_live = true;
            // A fresh generation invalidates any idle-stopped tick that is
            // still sitting in the queue; without this, an open-mode session
            // that goes idle and then admits a new arrival would fork a
            // second tick stream.
            self.tick_gen += 1;
            let gen = self.tick_gen;
            q.schedule_after(DAEMON_PERIOD, Ev::Daemon { gen });
            q.schedule_after(SAMPLE_PERIOD, Ev::Sample { gen });
        }
    }

    /// Handles every completion released so far (the driver drains after
    /// each event; the daemon also drains before rescheduling itself).
    fn drain(&mut self, q: &mut Q) {
        while let Some(tag) = self.port.pop() {
            self.on_tag(tag, q);
        }
    }

    fn inst(&self, at: InstRef) -> &Inst {
        match at.kind {
            InstKind::Prefill => &self.prefills[at.idx as usize].inst,
            InstKind::Decode => &self.decodes[at.idx as usize].inst,
        }
    }

    fn inst_mut(&mut self, at: InstRef) -> &mut Inst {
        match at.kind {
            InstKind::Prefill => &mut self.prefills[at.idx as usize].inst,
            InstKind::Decode => &mut self.decodes[at.idx as usize].inst,
        }
    }

    /// Every instance, prefills first (the ledger's registration order).
    fn insts(&self) -> impl Iterator<Item = &Inst> {
        let prefills = self.prefills.iter().map(|p| &p.inst);
        prefills.chain(self.decodes.iter().map(|d| &d.inst))
    }

    // ----- Telemetry hooks (observer only) ------------------------------
    //
    // Every hook is a single branch when telemetry is off; label closures
    // never run. None of them touches the event queue, the RNG, or any
    // state the simulation reads, so results are bit-identical either way
    // (proven by the differential test in tests/telemetry.rs).

    /// Retires a completed request: counts it and feeds the shared
    /// retirement hook (spans, latency sketches, SLO observatory).
    fn retire(&mut self, req: RequestId, now: SimTime) {
        self.reqs.completed += 1;
        let model = self.trace.requests[req.0 as usize].model;
        let rs = &self.reqs[req.0 as usize];
        self.spans
            .retire(&mut self.tel, &self.ids, req, model, rs, now);
    }

    /// Records a scheduler-decision instant and remembers it as the cause
    /// for the request's next phase span.
    fn tel_decision<S: Into<String>>(
        &mut self,
        req: RequestId,
        now: SimTime,
        label: impl FnOnce() -> S,
    ) {
        if !self.tel.spans.is_enabled() {
            return;
        }
        let id =
            self.tel
                .spans
                .instant(|| "scheduler", SpanKind::Decision, now, SpanId::NONE, label);
        self.spans.set_cause(req, id);
    }

    /// Opens a KV-transfer span on the request's `kv-out` / `kv-in`
    /// subtrack (separate subtracks: an offload and the matching swap-in
    /// can overlap under §5.3 rule ❷).
    fn tel_kv_start(&mut self, req: RequestId, now: SimTime, out: bool, inst: u32) {
        if !self.tel.is_enabled() {
            return;
        }
        // A crash can strand an in-flight transfer whose completion tag
        // never fires; the replacement transfer closes it here (and settles
        // its partial time in the attribution ledger).
        self.tel_kv_end(req, now, out);
        let i = req.0 as usize;
        let dir = if out { "kv-out" } else { "kv-in" };
        // Cause, not parent: a transfer stranded on a slow link can outlive
        // the root span when the request re-prefills and completes first.
        let span = self.tel.spans.start(
            || format!("req{i}/{dir}"),
            SpanKind::KvTransfer,
            now,
            SpanId::NONE,
            self.spans.root(req),
            || dir,
        );
        self.kv_tel[i][out as usize] = KvSpan {
            span,
            inst,
            start: now,
        };
    }

    /// Closes the request's open KV-transfer span and books its wall time
    /// against the issuing instance in the attribution ledger.
    fn tel_kv_end(&mut self, req: RequestId, now: SimTime, out: bool) {
        if !self.tel.is_enabled() {
            return;
        }
        let k = std::mem::replace(&mut self.kv_tel[req.0 as usize][out as usize], KvSpan::NONE);
        self.tel.spans.end(k.span, now);
        if k.inst != u32::MAX {
            let model = self.trace.requests[req.0 as usize].model;
            let kind = if out {
                CostKind::KvSwapOut
            } else {
                CostKind::KvSwapIn
            };
            let secs = now.saturating_since(k.start).as_secs_f64();
            self.tel.attrib.add(k.inst, model.0, kind, secs);
        }
    }

    /// Dense attribution-ledger id of an instance (prefills first, then
    /// decodes — the registration order used at construction).
    #[inline]
    fn ledger_inst(&self, at: InstRef) -> u32 {
        match at.kind {
            InstKind::Prefill => at.idx,
            InstKind::Decode => self.prefills.len() as u32 + at.idx,
        }
    }

    // ----- Fault tolerance (Fig. 5 status sync) -------------------------

    /// An instance process dies: it stops serving instantly; the proxy
    /// learns about it one heartbeat later (`Ev::Failover`).
    fn on_fail(&mut self, i: usize, q: &mut Q) {
        self.tel.metrics.inc(self.tm.c_chaos_crashes, 1);
        let FaultKind::Crash { kind, idx } = self.faults[i].kind else {
            unreachable!("Ev::Fail scheduled for a non-crash fault");
        };
        if kind == InstKind::Decode {
            // The steps that ended by now happened; the one in flight dies.
            self.advance(idx as usize, q.now());
        }
        // A crash of an already-dead instance (back-to-back failures) is a
        // no-op: there is no process left to kill, and re-running failover
        // would double-recover the stranded requests.
        let inst = self.inst_mut(InstRef { kind, idx });
        if inst.dead {
            return;
        }
        inst.dead = true;
        // The store stops seeing heartbeats; the proxy presumes death after
        // the detection window and recovers the stranded requests.
        self.meta.confirm_dead();
        q.schedule_after(self.meta.detection_latency(), Ev::Failover(i as u32));
    }

    /// The proxy's status sync recovers every request stranded on the dead
    /// instance: requests whose KV survives in the unified CPU cache are
    /// re-dispatched to another decoding instance; requests whose GPU-side
    /// state was lost are re-prefilled from their full context.
    fn on_failover(&mut self, i: usize, q: &mut Q) {
        let FaultKind::Crash { kind, idx } = self.faults[i].kind else {
            unreachable!("Ev::Failover scheduled for a non-crash fault");
        };
        let mut stranded: Vec<RequestId> = Vec::new();
        match kind {
            InstKind::Prefill => {
                let p = &mut self.prefills[idx as usize];
                if let Some(r) = p.active.take() {
                    stranded.push(r);
                }
                while let Some((_, r)) = p.queue.pop_request() {
                    stranded.push(r);
                }
                // A finished prefill awaiting CPU space for its offload held
                // its KV only on the dead GPU.
                let retry = &mut self.nodes[p.inst.node as usize].offload_retry;
                stranded.extend(retry.iter().filter(|e| e.0 == idx as usize).map(|e| e.1));
                retry.retain(|e| e.0 != idx as usize);
            }
            InstKind::Decode => {
                let d = &mut self.decodes[idx as usize];
                d.turn = None;
                d.round.clear();
                for b in d.work.iter() {
                    stranded.extend(b.reqs.iter().copied());
                }
                d.work = WorkList::new();
            }
        }
        for req in stranded {
            // A request pinned to this dead decoder by an unabsorbed prefix
            // claim lost that prefix with the instance: its delta-only KV
            // (wherever it sits) is unusable, so recompute from scratch.
            let lost_claim = kind == InstKind::Decode
                && matches!(
                    self.claim(req),
                    Some(PrefixClaim { src: SessPlace::DecodeGpu(h), .. }) if h == idx
                );
            let rs = &mut self.reqs[req.0 as usize];
            if rs.is_done() || rs.migrated {
                continue;
            }
            rs.kv_ready = false;
            rs.swapin_inflight = false;
            if lost_claim {
                self.abandon_claim_and_recompute(req, q);
                continue;
            }
            let rs = &mut self.reqs[req.0 as usize];
            match rs.kv {
                KvPlace::Cpu { .. } if rs.phase == Phase::Decode => {
                    // KV survives in host memory: rejoin another decoder.
                    self.dispatch_decode_req(req, q);
                }
                _ => {
                    // GPU-side state lost: re-prefill the full context.
                    rs.kv = KvPlace::None;
                    rs.phase = Phase::Prefill;
                    self.route_prefill(req, q);
                }
            }
        }
        if kind == InstKind::Decode {
            // Retained prefixes on the dead instance died with its VRAM;
            // drop their book entries (no KV to free — the dead cache keeps
            // its stale holdings, which the audit knows to expect).
            for (_, _e) in self.sessions.drain_place(SessPlace::DecodeGpu(idx)) {
                self.tel.metrics.inc(self.tm.c_sess_evicted, 1);
            }
            // Claims against the dead holder whose owners were not in its
            // work list (still prefilling, queued, or awaiting offload
            // retry): flag them so the next prefill touchpoint recomputes.
            for (sess, req) in self.sessions.claims_at(SessPlace::DecodeGpu(idx)) {
                let rs = &mut self.reqs[req.0 as usize];
                if rs.is_done() || rs.migrated {
                    continue;
                }
                rs.prefix_hit = false;
                rs.prefix_lost = true;
                self.sessions.unclaim(sess, req);
            }
        }
    }

    /// The earliest instant [`ServingSystem::migrate_out`] can run: its only
    /// callers are the total-tier-loss branches of prefill and decode
    /// routing, and crashes are permanent, so nothing is handed off before
    /// the materialized schedule first empties a tier. `None` when no tier
    /// is ever lost.
    pub(crate) fn first_tier_loss(&self) -> Option<SimTime> {
        crate::chaos::first_tier_loss(
            &self.faults,
            self.prefills.len() as u32,
            self.decodes.len() as u32,
        )
        .map(SimTime::from_secs_f64)
    }

    /// Hands a request off to the shard coordinator (sharded runs only):
    /// the shard has lost an entire tier, so the request is re-served from
    /// scratch on a peer shard after the failover detection window. The
    /// request is locally resolved — it never completes here, its outcome
    /// slot is superseded by the destination shard's at merge time, and any
    /// KV footprint it left behind stays with the functionally lost tier.
    fn migrate_out(&mut self, req: RequestId, now: SimTime) {
        self.unclaim_for_migration(req, now);
        let i = req.0 as usize;
        {
            let rs = &mut self.reqs[i];
            debug_assert!(!rs.migrated, "request {i} migrated twice");
            rs.migrated = true;
            rs.kv_ready = false;
            rs.swapin_inflight = false;
        }
        self.outbox.push(crate::shard::Handoff {
            emitted: now,
            req: Request {
                id: req,
                ..self.trace.requests[i]
            },
        });
        self.reqs.migrated += 1;
    }

    // ----- Windowed chaos faults ----------------------------------------

    /// A windowed fault activates: link degradation and staging OOM count
    /// nesting depth (overlapping windows extend, not double-apply); proxy
    /// stalls are handed to the metadata store, whose window self-expires.
    fn on_fault_start(&mut self, i: usize, q: &mut Q) {
        self.tel.metrics.inc(self.tm.c_chaos_windows, 1);
        let f = self.faults[i];
        let until = SimTime::from_secs_f64(f.until);
        match f.kind {
            FaultKind::Crash { .. } => unreachable!("crashes route through Ev::Fail"),
            FaultKind::LinkDegrade { link, factor } => {
                let l = link as usize;
                self.link_degrade_depth[l] += 1;
                if self.link_degrade_depth[l] == 1 {
                    self.port
                        .fabric
                        .degrade_link(LinkId(link), factor, &mut Lift::new(q, Ev::Fabric));
                }
                q.schedule_at(until, Ev::FaultEnd(i as u32));
            }
            FaultKind::StageOom { node } => {
                self.stage_oom_depth[node as usize] += 1;
                q.schedule_at(until, Ev::FaultEnd(i as u32));
            }
            FaultKind::ProxyStall => self.meta.begin_stall(until),
        }
    }

    /// A windowed fault clears; the resource recovers once the last
    /// overlapping window ends.
    fn on_fault_end(&mut self, i: usize, q: &mut Q) {
        match self.faults[i].kind {
            FaultKind::LinkDegrade { link, .. } => {
                let l = link as usize;
                self.link_degrade_depth[l] -= 1;
                if self.link_degrade_depth[l] == 0 {
                    self.port
                        .fabric
                        .restore_link(LinkId(link), &mut Lift::new(q, Ev::Fabric));
                }
            }
            FaultKind::StageOom { node } => self.stage_oom_depth[node as usize] -= 1,
            FaultKind::Crash { .. } | FaultKind::ProxyStall => {
                unreachable!("no FaultEnd is scheduled for this kind")
            }
        }
    }

    /// Submits the same compute to every GPU of the instance; `tag` fires
    /// when all shards finish.
    fn compute_all(&mut self, at: InstRef, dur: SimDur, tag: Tag, q: &mut Q) {
        // `self.inst(at)` would borrow all of `self` while the port submits.
        let gpus = match at.kind {
            InstKind::Prefill => &self.prefills[at.idx as usize].inst.gpus,
            InstKind::Decode => &self.decodes[at.idx as usize].inst.gpus,
        };
        let topo = &self.topo;
        let lanes = gpus.iter().map(|&g| topo.gpu(g).default_stream);
        self.port.compute_all(lanes, dur, tag, q);
    }

    // ----- Agentic sessions: prefix claims & retention -------------------

    /// Frees the KV retained under a session's handle at `e.place`. Stale
    /// holdings on dead instances died with their VRAM and are skipped; a
    /// CPU holding whose spill copy is still in flight is parked in the
    /// node's cache instead of freed (§5.3 rule ❸).
    fn free_sess_entry(&mut self, sess: SessionId, e: &SessEntry, now: SimTime) {
        let h = SessionBook::handle(sess);
        match e.place {
            SessPlace::DecodeGpu(di) => {
                self.advance(di as usize, now);
                let inst = &mut self.decodes[di as usize].inst;
                if !inst.dead && inst.gpu_kv.holds(h) {
                    inst.gpu_kv.free(h);
                }
            }
            SessPlace::Cpu(node) => self.release_cpu_kv(node as usize, h, e.guard),
        }
    }

    /// `req`'s outstanding claim on its session's retained prefix, if any.
    fn claim(&self, req: RequestId) -> Option<PrefixClaim> {
        self.sessions.claim_of(self.reqs[req.0 as usize].session, req)
    }

    /// Tries to claim the session's retained prefix for `req` at prefill
    /// routing time. On success the book entry becomes the request's
    /// claim; the handle's blocks stay where they are until the claimant
    /// absorbs them (at swap-in for GPU prefixes, at offload for spilled
    /// ones).
    fn try_claim_prefix(&mut self, req: RequestId, now: SimTime) {
        if !self.cfg.session_affinity {
            return;
        }
        let i = req.0 as usize;
        {
            let rs = &self.reqs[i];
            // Crash-recovered requests (produced > 0) rebuild their full
            // context claimless.
            if !rs.session.is_some()
                || rs.prefix_tokens == 0
                || rs.produced > 0
                || rs.prefix_lost
            {
                return;
            }
        }
        let sess = self.reqs[i].session;
        if self.sessions.is_claimed(sess) {
            return; // this or an overlapping turn already holds the prefix
        }
        let model = self.trace.requests[i].model;
        let Some(e) = self.sessions.get(sess).copied() else {
            return;
        };
        if e.model != model {
            return; // a DAG fan-out child on another model shares no KV
        }
        if e.tokens > self.reqs[i].prefix_tokens {
            // The retained KV outgrew this turn's shared prefix (an
            // out-of-order turn); partial use is impossible, so evict.
            let e = self.sessions.remove(sess).expect("entry just read");
            self.free_sess_entry(sess, &e, now);
            self.tel.metrics.inc(self.tm.c_sess_evicted, 1);
            return;
        }
        match e.place {
            SessPlace::DecodeGpu(di) if self.decodes[di as usize].inst.dead => {
                // The holder died; its VRAM (and this entry) are gone.
                self.sessions.remove(sess);
                self.tel.metrics.inc(self.tm.c_sess_evicted, 1);
            }
            SessPlace::Cpu(_) if e.guard.is_some_and(|ev| !self.port.fabric.query_event(ev)) => {
                // Spill copy still in flight: a miss, but keep the entry.
            }
            _ => {
                self.sessions.claim(sess, req);
                self.reqs[i].prefix_hit = true;
                self.tel.metrics.inc(self.tm.c_sess_affinity_routed, 1);
            }
        }
    }

    /// Returns an unabsorbed claim to the book (routing fell back, or a
    /// single-token turn retired without reaching a merge point). Does not
    /// touch `prefix_hit`: the caller knows whether the claim sized a
    /// prefill before coming back.
    fn release_claim(&mut self, req: RequestId, now: SimTime) {
        let i = req.0 as usize;
        let sess = self.reqs[i].session;
        let Some(c) = self.sessions.unclaim(sess, req) else {
            return;
        };
        let e = SessEntry {
            model: self.trace.requests[i].model,
            tokens: c.tokens,
            place: c.src,
            retained_at: now,
            guard: None,
        };
        if self.sessions.get(sess).is_some() {
            // A newer prefix appeared meanwhile; the handle must stay
            // unique, so the older KV goes.
            self.free_sess_entry(sess, &e, now);
            self.tel.metrics.inc(self.tm.c_sess_evicted, 1);
        } else {
            self.sessions.insert(sess, e);
        }
    }

    /// Abandons an unabsorbed claim whose holder died: the delta-only KV
    /// computed against it is discarded and the request re-prefills its
    /// full context (the chaos recovery path).
    fn abandon_claim_and_recompute(&mut self, req: RequestId, q: &mut Q) {
        let i = req.0 as usize;
        self.sessions.unclaim(self.reqs[i].session, req);
        if let KvPlace::Cpu { node } = self.reqs[i].kv {
            // The offload copy may still be writing these blocks.
            self.release_cpu_kv(node as usize, req, self.reqs[i].offload_event);
        }
        // KvPlace::Gpu can only mean the dead holder here (claimed requests
        // are pinned to it), whose cache died with it: nothing to free.
        let rs = &mut self.reqs[i];
        rs.swapin_inflight = false;
        rs.offload_event = None;
        rs.phase = Phase::Prefill;
        self.recompute_full(req, q);
    }

    /// Re-prefills `req` from its full context once the delta-only KV it
    /// computed against a lost prefix has been discarded (the chaos
    /// recovery path).
    fn recompute_full(&mut self, req: RequestId, q: &mut Q) {
        let rs = &mut self.reqs[req.0 as usize];
        rs.prefix_hit = false;
        rs.kv = KvPlace::None;
        rs.kv_ready = false;
        self.tel.metrics.inc(self.tm.c_sess_affinity_fallback, 1);
        self.route_prefill(req, q);
    }

    /// Clears any outstanding claim before a request leaves this shard,
    /// returning the prefix to the book when its holder is still alive.
    fn unclaim_for_migration(&mut self, req: RequestId, now: SimTime) {
        let i = req.0 as usize;
        let Some(c) = self.claim(req) else {
            return;
        };
        let holder_dead =
            matches!(c.src, SessPlace::DecodeGpu(di) if self.decodes[di as usize].inst.dead);
        if holder_dead {
            self.sessions.unclaim(self.reqs[i].session, req);
        } else {
            self.release_claim(req, now);
        }
        self.reqs[i].prefix_hit = false;
    }

    /// Retires a finished decode request's KV: frees it, unless session
    /// affinity retains it under the session's handle — resident on this
    /// GPU when the unified cache keeps ample headroom (the same 2× rule as
    /// the KV-residency extension), spilled to the node's CPU cache via a
    /// real d2h copy otherwise.
    fn retire_decode_kv(&mut self, di: usize, req: RequestId, q: &mut Q) {
        let i = req.0 as usize;
        let sess = self.reqs[i].session;
        let retain = self.cfg.session_affinity && sess.is_some() && !self.sessions.is_claimed(sess);
        if !retain {
            self.decodes[di].inst.gpu_kv.free(req);
            self.reqs[i].kv = KvPlace::None;
            self.reqs[i].kv_ready = false;
            return;
        }
        let now = q.now();
        let model = self.trace.requests[i].model;
        let tokens = self.decodes[di].inst.gpu_kv.tokens_of(req);
        // The handle must stay unique: retire any prior retention first.
        if let Some(old) = self.sessions.remove(sess) {
            self.free_sess_entry(sess, &old, now);
            self.tel.metrics.inc(self.tm.c_sess_evicted, 1);
        }
        let h = SessionBook::handle(sess);
        let node = self.decodes[di].inst.node as usize;
        let retained = if self.decodes[di].inst.gpu_kv.token_capacity(model) > tokens as u64 * 2 {
            // Keep the conversation KV resident across the think gap: pure
            // relabeling, no bytes move.
            self.decodes[di].inst.gpu_kv.rekey(req, h);
            self.tel.metrics.inc(self.tm.c_sess_retained_gpu, 1);
            Some((SessPlace::DecodeGpu(di as u32), None))
        } else if self.nodes[node].cpu_kv.alloc(h, model, tokens).is_ok() {
            let kv_bytes = self.deploys[model.0 as usize].kv_token_bytes * tokens as u64;
            // Noop, not KvOut: the handle is not a request and must not feed
            // request-indexed telemetry.
            let ev = self.copy_out(InstRef::decode(di), req, kv_bytes, Tag::Noop, q);
            self.tel.metrics.inc(self.tm.c_sess_retained_cpu, 1);
            Some((SessPlace::Cpu(node as u32), Some(ev)))
        } else {
            // Pressure on both tiers: give up retention.
            self.decodes[di].inst.gpu_kv.free(req);
            self.tel.metrics.inc(self.tm.c_sess_evicted, 1);
            None
        };
        if let Some((place, guard)) = retained {
            let e = SessEntry {
                model,
                tokens,
                place,
                retained_at: now,
                guard,
            };
            self.sessions.insert(sess, e);
        }
        self.reqs[i].kv = KvPlace::None;
        self.reqs[i].kv_ready = false;
    }

    // ----- Prefill path -------------------------------------------------

    /// Algorithm 1 placement for a (possibly re-prefilled) request.
    fn route_prefill(&mut self, req: RequestId, q: &mut Q) {
        let model = self.trace.requests[req.0 as usize].model;
        self.try_claim_prefix(req, q.now());
        // A spilled prefix only merges on its own node: bias routing there,
        // or release the claim when that node has no live prefill left.
        let want_node = self.claim(req).and_then(|c| match c.src {
            SessPlace::Cpu(n) => Some(n),
            SessPlace::DecodeGpu(_) => None,
        });
        let want_node = match want_node {
            Some(n)
                if !self
                    .prefills
                    .iter()
                    .any(|p| !p.inst.dead && p.inst.node == n) =>
            {
                self.release_claim(req, q.now());
                self.reqs[req.0 as usize].prefix_hit = false;
                self.tel.metrics.inc(self.tm.c_sess_affinity_fallback, 1);
                None
            }
            w => w,
        };
        // Algorithm 1 over the live instances (on the pinned node, if any).
        let eligible = |p: &PrefillInst| !p.inst.dead && want_node.is_none_or(|n| p.inst.node == n);
        if !self.prefills.iter().any(eligible) {
            assert!(self.shard_mode, "every prefill instance has failed");
            self.migrate_out(req, q.now());
            return;
        }
        let (deploys, reqs, cfg) = (&self.deploys, &self.reqs, &self.cfg);
        let pcie = cfg.cluster.nodes[0].gpu.pcie_bw;
        let est_exec = |m: ModelId, r: RequestId| {
            let input = reqs[r.0 as usize].input_tokens;
            deploys[m.0 as usize].fitted().estimate_prefill(&[input])
        };
        let est_switch = |m: ModelId| deploys[m.0 as usize].est_switch_secs(pcie);
        let (ids, (mut queues, currents)): (Vec<usize>, (Vec<_>, Vec<_>)) = self
            .prefills
            .iter_mut()
            .enumerate()
            .filter(|(_, p)| eligible(p))
            .map(|(i, p)| (i, (&mut p.queue, p.inst.scaler.current())))
            .unzip();
        let k = dispatch_prefill(
            &mut queues,
            &currents,
            model,
            req,
            cfg.max_gpsize,
            est_exec,
            est_switch,
        );
        let pi = ids[k];
        let now = q.now();
        self.tel_decision(req, now, || format!("prefill:{model}->p{pi}"));
        self.spans.begin_phase(&mut self.tel, req, SpanKind::QueueWait, "prefill-wait", now);
        self.prefill_try_start(pi, q);
    }

    fn prefill_try_start(&mut self, pi: usize, q: &mut Q) {
        if self.prefills[pi].inst.dead || self.prefills[pi].active.is_some() {
            return;
        }
        let Some(front_model) = self.prefills[pi].queue.front_model() else {
            return;
        };
        let at = InstRef::prefill(pi);
        let ready = self.ensure_model(at, front_model, q);
        // Prefetch the next group's model while serving/scaling this one.
        if let Some(nm) = self.prefills[pi].queue.next_model() {
            if nm != front_model {
                self.start_prefetch(at, nm, q);
            }
        }
        if !ready {
            return;
        }
        let (model, req) = self.prefills[pi]
            .queue
            .pop_request()
            .expect("front model implies a pending request");
        // Fresh requests prefill their prompt (+1 slot for the first
        // token); failure-recovered requests rebuild their full context. A
        // request holding a prefix claim prefills only its delta — the
        // retained blocks merge in downstream.
        let fresh = self.reqs[req.0 as usize].produced == 0;
        let claimed = self.claim(req).map_or(0, |c| c.tokens);
        if claimed == 0 {
            // Any lost-prefix flag is moot once the sizing below covers the
            // full context (the claim was already dropped while queued).
            self.reqs[req.0 as usize].prefix_lost = false;
        }
        let full = self.reqs[req.0 as usize].ctx_tokens() + u32::from(fresh);
        let ptokens = full.saturating_sub(claimed);
        if self.prefills[pi]
            .inst
            .gpu_kv
            .alloc(req, model, ptokens)
            .is_err()
        {
            // VRAM KV backpressure: requeue and retry after reclamation.
            self.prefills[pi].queue.push_front(model, req);
            self.prefills[pi].retry = true;
            return;
        }
        // Reuse accounting happens here, at compute issue, so alloc-retry
        // loops cannot double-count and a crash-forced second prefill of
        // the same turn honestly recounts its prefix as recomputed.
        {
            let rs = &self.reqs[req.0 as usize];
            if rs.session.is_some() && rs.prefix_tokens > 0 {
                if claimed > 0 {
                    self.prefix_hits += 1;
                    self.prefill_tokens_reused += claimed as u64;
                    self.prefill_tokens_recomputed += (rs.prefix_tokens - claimed) as u64;
                    self.tel.metrics.inc(self.tm.c_sess_prefix_hits, 1);
                    self.tel
                        .metrics
                        .inc(self.tm.c_sess_reused_tokens, claimed as u64);
                    self.tel.metrics.inc(
                        self.tm.c_sess_recomputed_tokens,
                        (rs.prefix_tokens - claimed) as u64,
                    );
                } else {
                    self.prefill_tokens_recomputed += rs.prefix_tokens as u64;
                    self.tel
                        .metrics
                        .inc(self.tm.c_sess_recomputed_tokens, rs.prefix_tokens as u64);
                }
            }
        }
        let now = q.now();
        {
            let rs = &mut self.reqs[req.0 as usize];
            rs.prefill_start = Some(now);
        }
        self.spans.begin_phase(&mut self.tel, req, SpanKind::Prefill, "prefill", now);
        self.breakdown.add_secs(
            Stage::PrefillWait,
            now.saturating_since(self.reqs[req.0 as usize].arrival)
                .as_secs_f64(),
        );
        let dur = self.deploys[model.0 as usize]
            .perf
            .prefill_secs(&[ptokens], &mut self.rng);
        self.prefills[pi].active = Some(req);
        self.compute_all(
            at,
            dur,
            Tag::PrefillDone {
                inst: pi as u32,
                req,
            },
            q,
        );
    }

    fn on_prefill_done(&mut self, pi: usize, req: RequestId, q: &mut Q) {
        if self.prefills[pi].inst.dead {
            return; // completion from a failed instance
        }
        let now = q.now();
        let model = self.trace.requests[req.0 as usize].model;
        if self.reqs[req.0 as usize].prefix_lost {
            // The claimed prefix died while this delta-only prefill ran:
            // the KV just computed is unusable without it. Discard and
            // recompute the full context (chaos recovery path).
            self.spans.end_phase(&mut self.tel, req, now);
            self.prefills[pi].inst.gpu_kv.free(req);
            let rs = &mut self.reqs[req.0 as usize];
            rs.prefix_lost = false;
            rs.prefill_start = None;
            self.prefills[pi].active = None;
            self.recompute_full(req, q);
            self.prefill_try_start(pi, q);
            return;
        }
        {
            // First token; re-prefills only rebuild KV.
            let first = self.reqs[req.0 as usize].produced == 0;
            if first {
                self.reqs.push_token(req, now);
            }
            let rs = &mut self.reqs[req.0 as usize];
            rs.kv = KvPlace::Gpu;
            rs.kv_ready = false;
        }
        let start = self.reqs[req.0 as usize]
            .prefill_start
            .expect("prefill started");
        self.breakdown.add_secs(
            Stage::PrefillExec,
            now.saturating_since(start).as_secs_f64(),
        );
        self.tel.attrib.add(
            pi as u32,
            model.0,
            CostKind::PrefillExec,
            now.saturating_since(start).as_secs_f64(),
        );
        self.schedule.record_with(
            || self.prefills[pi].inst.gpus[0].to_string(),
            SpanKind::Prefill,
            start,
            now,
            || format!("P:{model}"),
        );
        self.spans.end_phase(&mut self.tel, req, now);
        self.prefills[pi].active = None;
        if self.reqs[req.0 as usize].is_done() {
            // Single-token request: the prefill's first token is also its
            // last. Retire here — decode batches skip done requests, so
            // dispatching it would park it (and its admission slot) forever.
            // An unabsorbed claim goes back to the book (the reuse was
            // real; the merge point simply never came), and the delta KV is
            // freed without retention.
            self.release_claim(req, now);
            self.prefills[pi].inst.gpu_kv.free(req);
            let rs = &mut self.reqs[req.0 as usize];
            rs.kv = KvPlace::None;
            rs.kv_ready = false;
            self.retire(req, now);
        } else if self.issue_offload(InstRef::prefill(pi), req, q) {
            // Offload the fresh KV to the unified CPU cache, then hand the
            // request to a decoding instance (the swap-in will synchronize
            // on the offload event, §5.3 rule ❷).
            self.dispatch_decode_req(req, q);
        } else {
            let node = self.prefills[pi].inst.node as usize;
            self.nodes[node].offload_retry.push((pi, req));
        }
        self.prefill_try_start(pi, q);
    }

    // ----- Decode path --------------------------------------------------

    fn dispatch_decode_req(&mut self, req: RequestId, q: &mut Q) {
        // Algorithm 2 reads every candidate's work list and KV room.
        for di in 0..self.decodes.len() {
            self.advance(di, q.now());
        }
        let model = self.trace.requests[req.0 as usize].model;
        let expected_ctx = self.reqs[req.0 as usize].input_tokens + EXPECTED_OUTPUT_TOKENS;
        let req_node = match self.reqs[req.0 as usize].kv {
            KvPlace::Cpu { node } => node,
            _ => self.prefills.first().map(|p| p.inst.node).unwrap_or(0),
        };
        if self.decodes.iter().all(|d| d.inst.dead) {
            assert!(self.shard_mode, "every decoding instance has failed");
            self.migrate_out(req, q.now());
            return;
        }
        // A GPU-resident claimed prefix pins the request to its holder —
        // that is the whole point of session affinity. A dead holder means
        // the prefix is gone: fall back to a full recompute.
        let forced = self.claim(req).and_then(|c| match c.src {
            SessPlace::DecodeGpu(h) => Some(h as usize),
            SessPlace::Cpu(_) => None,
        });
        if let Some(h) = forced {
            if self.decodes[h].inst.dead {
                self.abandon_claim_and_recompute(req, q);
                return;
            }
        }
        let (di, join) = {
            // Algorithm 2's join-or-new over the candidates: the holder
            // alone when a claimed prefix forces it, else every live decoder.
            let decodes = &self.decodes;
            let cands: Vec<usize> = match forced {
                Some(h) => vec![h],
                None => (0..decodes.len())
                    .filter(|&i| !decodes[i].inst.dead)
                    .collect(),
            };
            let lists: Vec<&WorkList> = cands.iter().map(|&i| &decodes[i].work).collect();
            let (k, join) = dispatch_decode(
                &lists,
                model,
                |k, b| {
                    let cap = decodes[cands[k]].inst.gpu_kv.max_batch(model, expected_ctx);
                    b.reqs.len() < cap.max(1)
                },
                |k| forced.is_some() || decodes[cands[k]].inst.node == req_node,
            );
            (cands[k], join)
        };
        let batch_id = match join {
            Some(b) => {
                self.decodes[di]
                    .work
                    .get_mut(b)
                    .expect("joinable batch exists")
                    .reqs
                    .push(req);
                b
            }
            None => {
                let b = self.decodes[di].work.add_batch(model, req);
                // A fresh batch joins the *current* round at its tail with a
                // conservative quota, rather than stalling a whole round
                // (the "longer stalls for new decode batches" §4.3 warns
                // about). Its proper quota comes at the next round start.
                let d = &mut self.decodes[di];
                if d.turn.is_some() {
                    let default_quota = d
                        .work
                        .iter()
                        .map(|x| x.quota)
                        .fold(0.0f64, f64::max)
                        .max(self.cfg.qmax.min(1.0));
                    d.work.get_mut(b).expect("fresh batch").quota = default_quota;
                    d.round.push_back(b);
                }
                b
            }
        };
        {
            let rs = &mut self.reqs[req.0 as usize];
            rs.decode_dispatch = Some(q.now());
            rs.phase = Phase::Decode;
        }
        let now = q.now();
        self.tel_decision(req, now, || format!("decode:{model}->d{di}"));
        self.spans.begin_phase(&mut self.tel, req, SpanKind::QueueWait, "decode-wait", now);
        // If this batch is currently mid-turn, pull the request straight in.
        let active_now = self.decodes[di]
            .turn
            .as_ref()
            .is_some_and(|t| t.batch == batch_id);
        if active_now {
            self.spans.begin_phase(&mut self.tel, req, SpanKind::DecodeRound, "decode-round", now);
            self.issue_swap_in(di, req, q);
            self.maybe_start_stepping(di, q);
        }
        self.decode_kick(di, q);
        self.recheck(di, q);
    }

    fn decode_kick(&mut self, di: usize, q: &mut Q) {
        if self.decodes[di].inst.dead {
            return;
        }
        if self.decodes[di].turn.is_none() {
            self.start_round(di, q);
        }
    }

    fn start_round(&mut self, di: usize, q: &mut Q) {
        let pcie = self.cfg.cluster.nodes[0].gpu.pcie_bw;
        let (order, quotas) = {
            let d = &mut self.decodes[di];
            d.work.remove_empty();
            if d.work.is_empty() {
                d.turn = None;
                return;
            }
            d.work.reorder_by_model();
            // Equation (2)/(3) inputs from the *fitted* estimator.
            let step_times: Vec<f64> = d
                .work
                .iter()
                .map(|b| {
                    let ctx = self.reqs.ctx_tokens(&b.reqs);
                    self.deploys[b.model.0 as usize]
                        .fitted()
                        .estimate_decode(ctx)
                })
                .collect();
            let distinct = d.work.distinct_models();
            let est = |m: ModelId| self.deploys[m.0 as usize].est_switch_secs(pcie);
            let switch_total = d.inst.scaler.round_switch_secs(&distinct, est);
            let rq = decode_quotas(&QuotaInputs {
                step_times,
                tbt: self.cfg.target_tbt,
                switch_total,
                qmax: self.cfg.qmax,
            });
            (d.work.order(), rq.quotas)
        };
        {
            let d = &mut self.decodes[di];
            for (id, quota) in order.iter().zip(&quotas) {
                if let Some(b) = d.work.get_mut(*id) {
                    b.quota = *quota;
                }
            }
            d.round = order.into_iter().collect();
        }
        self.begin_turn(di, q);
    }

    fn begin_turn(&mut self, di: usize, q: &mut Q) {
        // Find the next non-empty batch in the round.
        let (batch_id, model, quota, reqs) = loop {
            let d = &mut self.decodes[di];
            let Some(&front) = d.round.front() else {
                self.start_round(di, q);
                return;
            };
            match d.work.get(front) {
                Some(b) if !b.reqs.is_empty() => {
                    break (front, b.model, b.quota, b.reqs.clone());
                }
                _ => {
                    d.round.pop_front();
                }
            }
        };
        let gen = {
            let d = &mut self.decodes[di];
            d.turn_gen += 1;
            d.turn = Some(TurnState {
                batch: batch_id,
                gen: d.turn_gen,
                quota,
                decode_started: None,
                step_reqs: Vec::new(),
                late: Vec::new(),
                blocked: None,
                held: false,
                need: 0,
                kv_stall_since: None,
                span: SpanId::NONE,
            });
            d.turn_gen
        };
        debug_assert!(gen > 0);
        let now = q.now();
        self.tel
            .metrics
            .observe_sketch(self.ids.s_batch_size, reqs.len() as f64);
        if self.tel.spans.is_enabled() {
            let span = self.tel.spans.start(
                || format!("decode{di}"),
                SpanKind::DecodeRound,
                now,
                SpanId::NONE,
                SpanId::NONE,
                || format!("turn:{model}"),
            );
            if let Some(t) = self.decodes[di].turn.as_mut() {
                t.span = span;
            }
            for r in &reqs {
                // The turn is the cause of each member's decode-round phase.
                self.spans.set_cause(*r, span);
                let kind = SpanKind::DecodeRound;
                self.spans
                    .begin_phase(&mut self.tel, *r, kind, "decode-round", now);
            }
        }
        let at = InstRef::decode(di);
        // Prefetch the next different model: look ahead in this round, and
        // across the boundary into the (reordered) next round.
        let next_model = self.decodes[di]
            .round
            .iter()
            .skip(1)
            .filter_map(|id| self.decodes[di].work.get(*id))
            .map(|b| b.model)
            .find(|&m| m != model)
            .or_else(|| {
                self.decodes[di]
                    .work
                    .iter()
                    .map(|b| b.model)
                    .find(|&m| m != model)
            });
        // Scale first (possibly consuming the prefetch region), then start
        // prefetching the turn after — the §5.2 "may even start prefetching
        // the next model" once the promotion copy finishes.
        self.ensure_model(at, model, q);
        if let Some(nm) = next_model {
            self.start_prefetch(at, nm, q);
        }
        for req in reqs {
            self.issue_swap_in(di, req, q);
        }
        self.maybe_start_stepping(di, q);
    }

    fn maybe_start_stepping(&mut self, di: usize, q: &mut Q) {
        let now = q.now();
        let Some(batch_model) = self.decodes[di].turn_model() else {
            return;
        };
        let d = &mut self.decodes[di];
        let scaler_ready = d.inst.scaler.serves(batch_model);
        let Some(turn) = d.turn.as_mut() else { return };
        if turn.blocked.is_some() || d.run.step().is_some() {
            return;
        }
        if !scaler_ready {
            return;
        }
        let batch = d.work.get(turn.batch).expect("turn batch exists");
        let total = batch.reqs.len();
        let ready = batch
            .reqs
            .iter()
            .filter(|r| self.reqs[r.0 as usize].kv_ready)
            .count();
        let need_all = !self.cfg.opts.fine_sync;
        let can_start = if need_all {
            ready == total && total > 0
        } else {
            ready > 0
        };
        if !can_start {
            if turn.kv_stall_since.is_none() {
                turn.kv_stall_since = Some(now);
            }
            return;
        }
        if let Some(s) = turn.kv_stall_since.take() {
            let stall = now.saturating_since(s).as_secs_f64();
            self.breakdown.add_secs(Stage::DataOverhead, stall);
            for r in &batch.reqs.clone() {
                let rs = &mut self.reqs[r.0 as usize];
                if rs.kv_ready {
                    rs.data_wait_secs += stall;
                }
            }
        }
        let t = self.decodes[di].turn.as_mut().expect("turn exists");
        if t.decode_started.is_none() {
            t.decode_started = Some(now);
        }
        self.issue_step(di, q);
    }

    /// Issues the turn's next step at `now`. The turn ends once its quota
    /// is spent or its batch is gone, and stalls while every member left
    /// awaits its swap-in; otherwise the step's members and duration are
    /// fixed here. It starts at once or, under blocking KV transfers, when
    /// the copies queued ahead of it on the default stream drain
    /// ([`Tag::StepStart`]); [`Self::plan`] then lays out the steps after
    /// it.
    fn issue_step(&mut self, di: usize, q: &mut Q) {
        let now = q.now();
        let (batch_id, gen, quota, started) = {
            let t = self.decodes[di].turn.as_ref().expect("stepping turn");
            (
                t.batch,
                t.gen,
                t.quota,
                t.decode_started.expect("decoding started"),
            )
        };
        let elapsed = now.saturating_since(started).as_secs_f64();
        if elapsed >= quota {
            self.end_turn(di, q);
            return;
        }
        // Refill the turn's member buffer in place: issuing a step
        // allocates nothing.
        let t = self.decodes[di].turn.as_mut().expect("turn");
        let mut active = std::mem::take(&mut t.step_reqs);
        active.clear();
        active.extend(self.next_members(di));
        let model = self.decodes[di].turn_model().expect("turn batch exists");
        if active.is_empty() {
            let d = &mut self.decodes[di];
            let any_left = !d.work.get(batch_id).expect("batch").reqs.is_empty();
            let t = d.turn.as_mut().expect("turn");
            t.step_reqs = active;
            if any_left {
                // Waiting on swap-ins; KvIn completions resume stepping.
                t.kv_stall_since = Some(now);
            } else {
                self.end_turn(di, q);
            }
            return;
        }
        let ctx = self.reqs.ctx_tokens(&active);
        let d = &mut self.decodes[di];
        let noise = d.run.factor(0, &self.deploys[0].perf);
        let dur = self.deploys[model.0 as usize]
            .perf
            .decode_step(active.len(), ctx, noise);
        // Only the first GPU carries KV copies.
        let lane = self.topo.gpu(d.inst.gpus[0]).default_stream;
        let shards = d.inst.gpus.len();
        let t = d.turn.as_mut().expect("turn");
        t.step_reqs = active;
        t.late.clear();
        t.held = false;
        t.need = 0;
        if self.port.fabric.stream_idle(lane) {
            d.run.start(now, dur, ctx);
            self.charge(di, 0..shards, dur);
            self.plan(di, false, q);
            return;
        }
        t.blocked = Some((dur, ctx));
        // The other GPUs' shards start now.
        if shards > 1 {
            d.run.started(now + dur);
            self.charge(di, 1..shards, dur);
        }
        let tag = Tag::StepStart {
            inst: di as u32,
            turn: gen,
        };
        self.port
            .submit(lane, StreamOp::Marker { tag: tag.into() }, q);
    }

    /// The copies a blocked step waited behind drained: it starts now on
    /// the first GPU, and the turn plans on from it.
    fn on_step_start(&mut self, di: usize, gen: u64, q: &mut Q) {
        let now = q.now();
        let d = &mut self.decodes[di];
        if d.inst.dead {
            return;
        }
        let turn = d.turn.as_mut().filter(|t| t.gen == gen);
        let Some((dur, ctx)) = turn.and_then(|t| t.blocked.take()) else {
            return;
        };
        d.run.start(now, dur, ctx);
        self.charge(di, 0..1, dur);
        // Swap-ins may have landed while it waited.
        let changed = !self.same_members(di);
        self.plan(di, changed, q);
    }

    /// Lays out the turn's steps from the one in flight and schedules one
    /// wake at the end of the last (DESIGN §3.1). Each later step decodes
    /// every member, late joiners included, with one more token of context
    /// each, under its own noise draw. The plan ends with the first step
    /// after which the quota is spent, a member has produced its last token
    /// or an extend found the pool short, so retirement, offload and the
    /// turn's end run in an event at their own instants. It is one step
    /// long when `one_step` (the next step's members would differ), while
    /// more of the batch is swapping in, or while a KV copy waits on the
    /// default stream: that step issues against the new state. A step
    /// ending past the hard stop is never applied and gets no wake.
    fn plan(&mut self, di: usize, one_step: bool, q: &mut Q) {
        let model = self.decodes[di].turn_model().expect("stepping turn");
        let one_step = one_step || {
            let lane = self.topo.gpu(self.decodes[di].inst.gpus[0]).default_stream;
            !self.port.fabric.stream_idle(lane) || self.swapping_in(di)
        };
        let d = &mut self.decodes[di];
        let t = d.turn.as_mut().expect("turn");
        let (start, dur, ctx) = d.run.step().expect("step in flight");
        let (started, quota) = (t.decode_started.expect("decoding started"), t.quota);
        let kv = &d.inst.gpu_kv;
        let supply = kv.token_capacity(model) / BLOCK_TOKENS as u64;
        let (members, late) = (&t.step_reqs, &t.late);
        let reqs = &self.reqs;
        // Per member: its context and held blocks, and whether it sits out
        // the step in flight (not needed for a one-step plan, whose step's
        // extends run at its wake).
        let plan_kv = &mut self.plan_kv;
        plan_kv.clear();
        if !one_step {
            plan_kv.extend(members.iter().map(|r| {
                let rs = &reqs[r.0 as usize];
                let joins = late.contains(r);
                (rs.ctx_tokens() as u64, kv.blocks_of(*r) as u64, joins)
            }));
        }
        let mut last = if one_step {
            1
        } else {
            let left = |r: &RequestId| {
                let rs = &reqs[r.0 as usize];
                rs.target_tokens - rs.produced + u32::from(late.contains(r))
            };
            members.iter().map(left).min().expect("members")
        };
        // Every step before the last must find the blocks its extends take
        // free; otherwise the plan ends with the first step that would not.
        if kv_need(plan_kv, last - 1) > supply {
            let (mut lo, mut hi) = (1, last - 1);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if kv_need(plan_kv, mid) > supply {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            last = lo;
        }
        // The step in flight has its duration; each later one decodes
        // every member, late joiners included.
        let n = members.len();
        let late_ctx: u64 = plan_kv.iter().filter(|m| m.2).map(|m| m.0).sum();
        let mut ctx = ctx + (n - late.len()) as u64 + late_ctx;
        let spent = |end: SimTime| end.saturating_since(started).as_secs_f64() >= quota;
        let perf = &self.deploys[model.0 as usize].perf;
        d.run.cut();
        let (mut k, mut end) = (1, start + dur);
        while k < last && !spent(end) && end <= self.hard_stop {
            let noise = d.run.factor(k as usize, &self.deploys[0].perf);
            let dur = perf.decode_step(n, ctx, noise);
            d.run.plan(dur);
            end += dur;
            ctx += n as u64;
            k += 1;
        }
        t.need = kv_need(plan_kv, k - 1);
        if let Some(seq) = d.run.wake(end, self.hard_stop) {
            let inst = di as u32;
            q.schedule_at(end, Ev::Wake { inst, seq });
        }
    }

    /// The batch members the turn's next step would decode: those whose
    /// KV is in and that have tokens left, in batch order.
    fn next_members(&self, di: usize) -> impl Iterator<Item = RequestId> + '_ {
        let d = &self.decodes[di];
        let t = d.turn.as_ref().expect("turn");
        let b = d.work.get(t.batch).expect("turn batch exists");
        let reqs = &self.reqs;
        let ready = |r: &RequestId| reqs[r.0 as usize].kv_ready && !reqs[r.0 as usize].is_done();
        b.reqs.iter().copied().filter(ready)
    }

    /// True while a member of the turn's batch is still swapping in.
    fn swapping_in(&self, di: usize) -> bool {
        let d = &self.decodes[di];
        let t = d.turn.as_ref().expect("turn");
        let b = d.work.get(t.batch).expect("turn batch exists");
        b.reqs
            .iter()
            .any(|r| self.reqs[r.0 as usize].swapin_inflight)
    }

    /// True when the turn's next step would decode exactly its members.
    fn same_members(&self, di: usize) -> bool {
        let t = self.decodes[di].turn.as_ref().expect("turn");
        self.next_members(di).eq(t.step_reqs.iter().copied())
    }

    /// After a touch: a plan whose next members or KV room changed is laid
    /// out again from its step in flight, swap-ins that landed meanwhile
    /// joining from the next step on. While more of the batch is still
    /// swapping in, the plan instead ends with the step in flight: one wake
    /// then serves every swap-in that lands before it.
    fn recheck(&mut self, di: usize, q: &mut Q) {
        let Some(model) = self.decodes[di].turn_model() else {
            return;
        };
        let d = &self.decodes[di];
        let Some(t) = d.turn.as_ref().filter(|_| d.run.planned() > 0) else {
            return;
        };
        let room = d.inst.gpu_kv.token_capacity(model) / BLOCK_TOKENS as u64;
        let same = self.same_members(di);
        if same && room >= t.need {
            return;
        }
        if !same && self.swapping_in(di) {
            self.end_plan_here(di, q);
            return;
        }
        if !same {
            // A member keeps its place; one that joins sits out the step
            // in flight.
            let mut next: Vec<RequestId> = self.next_members(di).collect();
            let t = self.decodes[di].turn.as_mut().expect("turn");
            let (old, late) = (&t.step_reqs, &t.late);
            let stepping = |r: &RequestId| old.contains(r) && !late.contains(r);
            let joins: Vec<RequestId> = next.iter().copied().filter(|r| !stepping(r)).collect();
            debug_assert!(
                old.iter().all(|r| next.contains(r)),
                "a member left mid-step"
            );
            std::mem::swap(&mut t.step_reqs, &mut next);
            t.late = joins;
        }
        self.plan(di, false, q);
    }

    /// Cuts the plan to its step in flight and wakes at that step's end,
    /// the wake scheduled before going stale even if the plan ended there
    /// already.
    fn end_plan_here(&mut self, di: usize, q: &mut Q) {
        let run = &mut self.decodes[di].run;
        run.cut();
        let end = run.end().expect("step in flight");
        if let Some(seq) = run.wake(end, self.hard_stop) {
            let inst = di as u32;
            q.schedule_at(end, Ev::Wake { inst, seq });
        }
    }

    /// Adds a step's `dur` to the compute-busy time of GPUs `gpus` (by
    /// position) of instance `di`, at the step's start.
    fn charge(&mut self, di: usize, gpus: std::ops::Range<usize>, dur: SimDur) {
        for &g in &self.decodes[di].inst.gpus[gpus] {
            let lane = self.topo.gpu(g).default_stream;
            self.port.fabric.charge_compute(lane, dur);
        }
    }

    /// Brings instance `di` up to `now` (advance before touch, DESIGN
    /// §3.1): applies each planned step that ended by then, except the
    /// plan's last, which its wake applies, and charges the step that
    /// follows to the GPUs at its start. Never goes past the hard stop.
    /// Returns the number of steps applied.
    fn advance(&mut self, di: usize, now: SimTime) -> u64 {
        let now = now.min(self.hard_stop);
        let mut applied = 0;
        loop {
            let d = &mut self.decodes[di];
            let Some(t) = d.turn.as_mut().filter(|_| !d.inst.dead) else {
                return applied;
            };
            // The next step decodes one more token of each member and the
            // whole context of each late joiner.
            let grow = (t.step_reqs.len() - t.late.len()) as u64 + self.reqs.ctx_tokens(&t.late);
            let Some((start, dur)) = d.run.hand_over(now, grow) else {
                return applied;
            };
            let overflow = self.apply_step(di, start, dur, None);
            debug_assert!(!overflow, "an extend failed before the plan's last step");
            applied += 1;
            let d = &mut self.decodes[di];
            let t = d.turn.as_mut().expect("turn");
            t.late.clear();
            t.held = false;
            let ((_, next, _), shards) = (d.run.step().expect("handed over"), d.inst.gpus.len());
            self.charge(di, 0..shards, next);
        }
    }

    /// Applies the turn's step that ran `step_dur` from `start`: the
    /// schedule interval, the decode-exec and attribution seconds, and for
    /// each member its token, then its retirement or its KV extension.
    /// Only the plan's last step can retire a member, and its wake (`q`)
    /// applies it. Returns whether an extend failed.
    fn apply_step(
        &mut self,
        di: usize,
        start: SimTime,
        step_dur: SimDur,
        mut q: Option<&mut Q>,
    ) -> bool {
        let (members, late) = {
            let t = self.decodes[di].turn.as_mut().expect("turn");
            (
                std::mem::take(&mut t.step_reqs),
                std::mem::take(&mut t.late),
            )
        };
        let end = start + step_dur;
        let dur = step_dur.as_secs_f64();
        let n = members.len() - late.len();
        if self.schedule.is_enabled() {
            self.schedule.record_with(
                || self.decodes[di].inst.gpus[0].to_string(),
                SpanKind::DecodeRound,
                start,
                end,
                || format!("D:{}", self.trace.requests[members[0].0 as usize].model),
            );
        }
        self.decode_exec += step_dur * n as u64;
        if let Some(&r0) = members.first() {
            // A decode step batches one model's requests; attribute the
            // instance's busy seconds (per request, like the breakdown).
            let m = self.trace.requests[r0.0 as usize].model;
            let inst = self.ledger_inst(InstRef::decode(di));
            self.tel
                .attrib
                .add(inst, m.0, CostKind::DecodeExec, dur * n as f64);
        }
        let (mut overflow, mut taken) = (false, 0);
        for &req in members.iter().filter(|r| !late.contains(r)) {
            self.reqs.push_token(req, end);
            let rs = &mut self.reqs[req.0 as usize];
            rs.decode_exec_secs += dur;
            let done = rs.is_done();
            let ctx = rs.ctx_tokens();
            if done {
                let q = q.as_deref_mut().expect("only a wake retires a member");
                self.retire_decode_kv(di, req, q);
                self.decodes[di].work.remove_request(req);
                self.retire(req, end);
            } else {
                match self.decodes[di].inst.gpu_kv.extend(req, ctx) {
                    Ok(grown) => taken += grown as u64,
                    Err(_) => overflow = true,
                }
            }
        }
        // Hand the buffers back; late joiners step from the next step on.
        let t = self.decodes[di].turn.as_mut().expect("turn");
        t.step_reqs = members;
        t.late = late;
        t.need = t.need.saturating_sub(taken);
        overflow
    }

    /// A stepping turn's wake: its plan's last step ended now. Applies it,
    /// then issues the next step, or ends the turn when an extend failed
    /// (KV pool pressure: finishing the turn offloads peers and lets the
    /// daemon reclaim parked blocks).
    fn on_wake(&mut self, di: usize, seq: u64, q: &mut Q) {
        let d = &self.decodes[di];
        if d.inst.dead || d.run.is_stale(seq) {
            return; // superseded by a later plan
        }
        self.advance(di, q.now());
        let (start, dur) = self.decodes[di].run.take_last(q.now());
        if self.apply_step(di, start, dur, Some(q)) {
            self.end_turn(di, q);
        } else {
            self.issue_step(di, q);
        }
    }

    /// Under blocking KV transfers a decoding instance's copies share its
    /// first GPU's default stream with its steps, and a copy submitted
    /// while a step runs queues behind that step. Steps are not fabric
    /// ops, so before such a copy the turn stands its step in on the
    /// instance's hold stream (which no GPU's busy time counts) and parks
    /// the default stream on it; the plan then ends with that step, whose
    /// successor issues behind the copy.
    fn queue_behind_step(&mut self, di: usize, q: &mut Q) {
        let now = q.now();
        self.advance(di, now);
        let d = &mut self.decodes[di];
        let Some(t) = d.turn.as_mut().filter(|t| !t.held) else {
            return;
        };
        let (hold, lane) = (d.hold, self.topo.gpu(d.inst.gpus[0]).default_stream);
        let rest = if let Some((dur, _)) = t.blocked {
            t.held = true;
            // A blocked step: it starts once what is queued ahead of it
            // drains.
            let started = self.port.record_event(lane, q);
            self.port.wait_event(hold, started, q);
            dur
        } else if let Some(end) = d.run.end().filter(|&end| end > now) {
            t.held = true;
            self.end_plan_here(di, q);
            end.saturating_since(now)
        } else {
            return;
        };
        let tag = Tag::Noop.into();
        self.port
            .submit(hold, StreamOp::Compute { dur: rest, tag }, q);
        let done = self.port.record_event(hold, q);
        self.port.wait_event(lane, done, q);
    }

    fn end_turn(&mut self, di: usize, q: &mut Q) {
        let Some(turn) = self.decodes[di].turn.take() else {
            return;
        };
        let batch_id = turn.batch;
        // A single-model work list never needs to offload: the same model
        // decodes again next round. With the residency extension enabled,
        // batches also stay resident while the unified GPU cache keeps
        // ample headroom (> 2x this batch's footprint free).
        let mut skip_offload = self.decodes[di].work.distinct_models().len() <= 1;
        let reqs: Vec<RequestId> = self.decodes[di]
            .work
            .get(batch_id)
            .map(|b| b.reqs.clone())
            .unwrap_or_default();
        {
            let now = q.now();
            if !reqs.is_empty() {
                // Quota expired with members still decoding: a preemption.
                self.tel.metrics.inc(self.tm.c_preemptions, 1);
                if self.tel.spans.is_enabled() {
                    self.tel.spans.instant(
                        || format!("decode{di}"),
                        SpanKind::Preempt,
                        now,
                        turn.span,
                        || "preempt",
                    );
                }
            }
            if self.tel.spans.is_enabled() {
                for r in &reqs {
                    self.spans.end_phase(&mut self.tel, *r, now);
                }
            }
            self.tel.spans.end(turn.span, now);
        }
        if !skip_offload && self.cfg.kv_residency {
            if let Some(b) = self.decodes[di].work.get(batch_id) {
                let ctx = self.reqs.ctx_tokens(&b.reqs);
                skip_offload = self.decodes[di].inst.gpu_kv.token_capacity(b.model) > ctx * 2;
            }
        }
        if !skip_offload {
            // Under CPU cache pressure an offload fails and the KV stays
            // resident; decode can still proceed next time from VRAM.
            for req in reqs {
                if self.reqs[req.0 as usize].kv_ready {
                    self.issue_offload(InstRef::decode(di), req, q);
                }
            }
        }
        self.decodes[di].round.pop_front();
        if self.decodes[di].round.is_empty() {
            self.start_round(di, q);
        } else {
            self.begin_turn(di, q);
        }
    }

    fn on_kv_in(&mut self, di: usize, req: RequestId, q: &mut Q) {
        self.tel_kv_end(req, q.now(), false);
        if self.decodes[di].inst.dead {
            return;
        }
        self.advance(di, q.now());
        {
            let rs = &mut self.reqs[req.0 as usize];
            rs.swapin_inflight = false;
            rs.kv_ready = true;
        }
        // The delta KV and the GPU-resident claimed prefix now share this
        // GPU: merge them into one entry (token counts line up with the
        // full context by the claim rule).
        if let Some(PrefixClaim { src: SessPlace::DecodeGpu(h), .. }) = self.claim(req) {
            debug_assert_eq!(h as usize, di, "claimed request dispatched off-holder");
            let sess = self.reqs[req.0 as usize].session;
            self.decodes[di]
                .inst
                .gpu_kv
                .absorb(req, SessionBook::handle(sess));
            self.sessions.unclaim(sess, req);
        }
        self.maybe_start_stepping(di, q);
        self.recheck(di, q);
    }

    // ----- KV movement --------------------------------------------------

    /// Starts offloading a request's GPU KV to its node's unified CPU
    /// cache. Returns false if the CPU cache cannot hold it right now.
    fn issue_offload(&mut self, at: InstRef, req: RequestId, q: &mut Q) -> bool {
        let node = self.inst(at).node as usize;
        let model = self.trace.requests[req.0 as usize].model;
        let ctx = self.reqs[req.0 as usize].ctx_tokens();
        // Only the freshly computed tokens move: a claimed prefix already
        // lives in its own cache (and merges below when that cache is this
        // node's).
        let claim = self.claim(req);
        let move_tokens = ctx.saturating_sub(claim.map_or(0, |c| c.tokens));
        if self.nodes[node].cpu_kv.alloc(req, model, move_tokens).is_err() {
            return false;
        }
        // A spilled prefix on this node merges with the arriving delta into
        // one CPU entry (routing pinned the prefill to this node).
        if let Some(PrefixClaim { src: SessPlace::Cpu(cn), .. }) = claim {
            debug_assert_eq!(cn as usize, node, "claimed request offloaded off-node");
            let sess = self.reqs[req.0 as usize].session;
            self.nodes[node]
                .cpu_kv
                .absorb(req, SessionBook::handle(sess));
            self.sessions.unclaim(sess, req);
        }
        let kv_bytes = self.deploys[model.0 as usize].kv_token_bytes * move_tokens as u64;
        let ev = self.copy_out(at, req, kv_bytes, Tag::KvOut { req }, q);
        let rs = &mut self.reqs[req.0 as usize];
        rs.kv = KvPlace::Cpu { node: node as u32 };
        rs.kv_ready = false;
        rs.offload_event = Some(ev);
        self.count_swap(at, req, true, q.now());
        true
    }

    /// Copies `bytes` of `id`'s KV from instance `at`'s GPU to host memory
    /// (on the KV-out stream under fine-grained sync, else the default
    /// stream) and parks the source blocks in the instance's cache until
    /// the copy's event fires (§5.3 rule ❸). Returns that event.
    fn copy_out(&mut self, at: InstRef, id: RequestId, bytes: u64, tag: Tag, q: &mut Q) -> EventId {
        if !self.cfg.opts.fine_sync && at.kind == InstKind::Decode {
            self.queue_behind_step(at.idx as usize, q);
        }
        let g = self.topo.gpu(self.inst(at).gpus[0]);
        let stream = if self.cfg.opts.fine_sync {
            g.kv_out
        } else {
            g.default_stream
        };
        let tag = tag.into();
        let op = StreamOp::Copy {
            link: g.d2h,
            bytes,
            tag,
        };
        self.port.submit(stream, op, q);
        let ev = self.port.record_event(stream, q);
        self.inst_mut(at).gpu_kv.park(id, ev);
        ev
    }

    /// Books one KV swap of `req` issued by instance `at` (an offload when
    /// `out`): the run's swap count, the request's per-swap control
    /// overhead (Figure 14), and the transfer's telemetry span.
    fn count_swap(&mut self, at: InstRef, req: RequestId, out: bool, now: SimTime) {
        let overhead = CONTROL_OVERHEAD_PER_SWAP.as_secs_f64();
        self.reqs[req.0 as usize].control_secs += overhead;
        self.breakdown.add_secs(Stage::ControlOverhead, overhead);
        self.swaps += 1;
        self.tel.metrics.inc(self.tm.c_swaps, 1);
        let inst = self.ledger_inst(at);
        self.tel_kv_start(req, now, out, inst);
    }

    /// Frees `key`'s blocks, if any, in node `node`'s CPU cache, or parks
    /// them there while `guard` (a copy still writing them) is pending
    /// (§5.3 rule ❸).
    fn release_cpu_kv(&mut self, node: usize, key: RequestId, guard: Option<EventId>) {
        let kv = &mut self.nodes[node].cpu_kv;
        if !kv.holds(key) {
            return;
        }
        match guard {
            Some(ev) if !self.port.fabric.query_event(ev) => kv.park(key, ev),
            _ => kv.free(key),
        }
    }

    /// Starts swapping a request's KV from the CPU cache into decoding
    /// instance `di`. No-op if it is already resident or in flight.
    fn issue_swap_in(&mut self, di: usize, req: RequestId, q: &mut Q) {
        let (src_node, ctx, model) = {
            let rs = &self.reqs[req.0 as usize];
            if rs.kv_ready || rs.swapin_inflight {
                return;
            }
            let KvPlace::Cpu { node } = rs.kv else {
                return;
            };
            (
                node as usize,
                rs.ctx_tokens(),
                self.trace.requests[req.0 as usize].model,
            )
        };
        // A GPU-resident claimed prefix is already on this instance (the
        // dispatch pinned us to its holder): only the delta moves up.
        let claimed = self.claim(req).map_or(0, |c| c.tokens);
        let move_tokens = ctx.saturating_sub(claimed);
        if self
            .decodes[di]
            .inst
            .gpu_kv
            .alloc(req, model, move_tokens)
            .is_err()
        {
            // GPU KV pressure; the daemon retries after reclamation.
            return;
        }
        let kv_bytes = self.deploys[model.0 as usize].kv_token_bytes * move_tokens as u64;
        if !self.cfg.opts.fine_sync {
            self.queue_behind_step(di, q);
        }
        let g = self.topo.gpu(self.decodes[di].inst.gpus[0]).clone();
        let stream = if self.cfg.opts.fine_sync {
            g.kv_in
        } else {
            g.default_stream
        };
        if let Some(ev) = self.reqs[req.0 as usize].offload_event {
            // §5.3 rule ❷: wait for the offload writing these blocks.
            self.port.wait_event(stream, ev, q);
        }
        if src_node as u32 != self.decodes[di].inst.node {
            let nic = self.topo.node(aegaeon_gpu::NodeId(src_node as u32)).nic_tx;
            self.port.submit(
                stream,
                StreamOp::Copy {
                    link: nic,
                    bytes: kv_bytes,
                    tag: Tag::Noop.into(),
                },
                q,
            );
        }
        self.port.submit(
            stream,
            StreamOp::Copy {
                link: g.h2d,
                bytes: kv_bytes,
                tag: Tag::KvIn {
                    inst: di as u32,
                    req,
                }
                .into(),
            },
            q,
        );
        let ev_in = self.port.record_event(stream, q);
        // §5.3 rule ❸: the CPU blocks stay unsafe until the copy completes;
        // the daemon reclaims them.
        self.nodes[src_node].cpu_kv.park(req, ev_in);
        let rs = &mut self.reqs[req.0 as usize];
        rs.kv = KvPlace::Gpu;
        rs.swapin_inflight = true;
        self.count_swap(InstRef::decode(di), req, false, q.now());
    }

    // ----- Auto-scaling -------------------------------------------------

    /// Ensures `target` is the instance's resident model. Returns true when
    /// it already is (and no scaling is in progress).
    fn ensure_model(&mut self, at: InstRef, target: ModelId, q: &mut Q) -> bool {
        let s = &mut self.inst_mut(at).scaler;
        if s.switching() {
            // Either already scaling to `target`, or to a stale target; the
            // completion handler re-evaluates what the instance needs.
            return false;
        }
        if s.activate(target) {
            return true;
        }
        self.start_scale(at, target, q);
        false
    }

    fn start_scale(&mut self, at: InstRef, target: ModelId, q: &mut Q) {
        let now = q.now();
        debug_assert!(
            at.kind == InstKind::Prefill || {
                let d = &self.decodes[at.idx as usize];
                d.run.step().is_none() && d.turn.as_ref().is_none_or(|t| t.blocked.is_none())
            },
            "a scale-up on the default stream of a stepping instance"
        );
        let node = self.inst(at).node as usize;
        let deploy = &self.deploys[target.0 as usize];
        let shard = deploy.shard_bytes;
        let cached = self.nodes[node].model_cache.lookup(target.0);
        if !cached {
            let bytes = deploy.spec.weight_bytes();
            // The fetch below brings it into the cache (LRU-evicting).
            let _ = self.nodes[node].model_cache.insert(target.0, bytes);
        }
        let (seq, prefetch_hit, wait) = self.inst_mut(at).scaler.begin_switch(target, now);
        let mut plan = scale_up_plan(&self.cfg.opts, shard, prefetch_hit, cached);
        if self.stage_oom_depth[node] > 0 {
            // Chaos injection: while the node's pinned stage buffer is
            // exhausted, loads fall back to pageable DMA at a fraction of
            // the pipelined rate.
            for st in &mut plan.stages {
                if let ScaleCost::HostLoad { efficiency, .. } = &mut st.cost {
                    *efficiency *= UNPINNED_FALLBACK_EFFICIENCY;
                }
            }
        }
        let gpus = self.inst(at).gpus.to_vec();
        self.scale_count += 1;
        self.tel.metrics.inc(self.ids.c_switches, 1);
        if self.tel.spans.is_enabled() {
            let span = self.tel.spans.start(
                || match at.kind {
                    InstKind::Prefill => format!("prefill{}", at.idx),
                    InstKind::Decode => format!("decode{}", at.idx),
                },
                SpanKind::Switch,
                now,
                SpanId::NONE,
                SpanId::NONE,
                || format!("S:{target}"),
            );
            // A crash can strand the previous switch span open: close it
            // as a new switch starts on the same instance track.
            let old = self.inst_mut(at).scaler.swap_switch_span(span);
            self.tel.spans.end(old, now);
        }
        let tag = self.port.join(plan.stages.len() * gpus.len(), Tag::ScaleDone { at, seq });
        for (gi, g) in gpus.iter().enumerate() {
            let h = self.topo.gpu(*g);
            if let Some(&ev) = wait.get(gi) {
                self.port.wait_event(h.default_stream, ev, q);
            }
            self.port
                .submit_stages(h.default_stream, h, &plan.stages, &tag, q);
        }
    }

    fn on_scale_done(&mut self, at: InstRef, seq: u64, q: &mut Q) {
        if self.inst(at).dead {
            return;
        }
        let Some((target, started, hit)) = self.inst_mut(at).scaler.finish_switch(seq) else {
            return;
        };
        let now = q.now();
        if hit {
            self.prefetch_hits += 1;
            self.tel.metrics.inc(self.tm.c_prefetch_hits, 1);
        }
        let secs = now.saturating_since(started).as_secs_f64();
        self.scale_latencies.push(secs);
        self.tel
            .metrics
            .observe_sketch(self.tm.s_scale_latency, secs);
        let inst = self.ledger_inst(at);
        self.tel
            .attrib
            .add(inst, target.0, CostKind::ModelSwitch, secs);
        let span = self.inst_mut(at).scaler.swap_switch_span(SpanId::NONE);
        self.tel.spans.end(span, now);
        let gpu = self.inst(at).gpus[0];
        self.schedule.record_with(
            || gpu.to_string(),
            SpanKind::Switch,
            started,
            now,
            || format!("S:{target}"),
        );
        match at.kind {
            InstKind::Prefill => self.prefill_try_start(at.idx as usize, q),
            InstKind::Decode => {
                let di = at.idx as usize;
                // The turn may need a *different* model by now.
                match self.decodes[di].turn_model() {
                    Some(m) if m != target => {
                        self.start_scale(at, m, q);
                    }
                    Some(_) => self.maybe_start_stepping(di, q),
                    None => {}
                }
            }
        }
    }

    fn start_prefetch(&mut self, at: InstRef, model: ModelId, q: &mut Q) {
        if !self.inst(at).scaler.wants_prefetch(model) {
            return;
        }
        let node = self.inst(at).node as usize;
        if !self.nodes[node].model_cache.contains(model.0) {
            return; // prefetch only cache-resident checkpoints
        }
        self.nodes[node].model_cache.touch(model.0);
        let shard = self.deploys[model.0 as usize].shard_bytes;
        let seq = self.inst(at).scaler.next_prefetch_seq();
        let gpus = self.inst(at).gpus.to_vec();
        let tag = self
            .port
            .join(gpus.len(), Tag::PrefetchDone { at, model, seq });
        let mut events = Vec::with_capacity(gpus.len());
        for g in gpus {
            let h = self.topo.gpu(g);
            let bytes = (shard as f64 / PIPELINED_LOAD_EFFICIENCY) as u64;
            let tag = tag.clone();
            let op = StreamOp::Copy { link: h.h2d, bytes, tag };
            self.port.submit(h.prefetch, op, q);
            events.push(self.port.record_event(h.prefetch, q));
        }
        self.inst_mut(at).scaler.prefetch_issued(model, events);
    }

    // ----- Housekeeping -------------------------------------------------

    fn daemon(&mut self, q: &mut Q) {
        // Reclaim GPU-side parked blocks (offload sources).
        for pi in 0..self.prefills.len() {
            let p = &mut self.prefills[pi];
            p.inst.gpu_kv.reclaim(|ev| self.port.fabric.query_event(ev));
            if p.retry {
                p.retry = false;
                self.prefill_try_start(pi, q);
            }
        }
        for di in 0..self.decodes.len() {
            self.advance(di, q.now());
            let kv = &mut self.decodes[di].inst.gpu_kv;
            if !kv.reclaim(|ev| self.port.fabric.query_event(ev)) {
                continue;
            }
            // Retry swap-ins that failed on GPU KV pressure.
            if let Some(t) = self.decodes[di].turn.as_ref() {
                let pending: Vec<RequestId> = self.decodes[di]
                    .work
                    .get(t.batch)
                    .map(|b| {
                        b.reqs
                            .iter()
                            .copied()
                            .filter(|r| {
                                let rs = &self.reqs[r.0 as usize];
                                !rs.kv_ready && !rs.swapin_inflight
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                for req in pending {
                    self.issue_swap_in(di, req, q);
                }
                self.maybe_start_stepping(di, q);
                self.recheck(di, q);
            }
        }
        // Reclaim CPU-side parked blocks and retry stalled offloads.
        for ni in 0..self.nodes.len() {
            let n = &mut self.nodes[ni];
            n.cpu_kv.reclaim(|ev| self.port.fabric.query_event(ev));
            let retries = std::mem::take(&mut n.offload_retry);
            for (pi, req) in retries {
                // A retrying request whose claimed prefix died holds
                // delta-only KV: discard it and recompute instead of
                // offloading an incomplete context.
                if self.reqs[req.0 as usize].prefix_lost {
                    let inst = &mut self.prefills[pi].inst;
                    if !inst.dead && inst.gpu_kv.holds(req) {
                        inst.gpu_kv.free(req);
                    }
                    let rs = &mut self.reqs[req.0 as usize];
                    rs.prefix_lost = false;
                    rs.phase = Phase::Prefill;
                    self.recompute_full(req, q);
                    continue;
                }
                if self.issue_offload(InstRef::prefill(pi), req, q) {
                    self.dispatch_decode_req(req, q);
                } else {
                    self.nodes[ni].offload_retry.push((pi, req));
                }
            }
        }
        // Session-KV TTL: a retained prefix idle past the think-gap budget
        // stops paying for its residency and is evicted.
        if self.cfg.session_affinity && !self.sessions.is_empty() {
            let now = q.now();
            for sess in self.sessions.expired(now, self.cfg.session_kv_ttl) {
                let e = self.sessions.remove(sess).expect("expired entry exists");
                self.free_sess_entry(sess, &e, now);
                self.tel.metrics.inc(self.tm.c_sess_expired, 1);
            }
        }
        self.drain(q);
    }

    /// Sends arrival `idx` on to prefill dispatch after the proxy latency;
    /// while the metadata path is stalled, schedules retry `attempt + 1`
    /// after its backoff instead of dispatching against stale state.
    fn proxy_dispatch(&self, idx: u32, attempt: u32, q: &mut Q) {
        if self.meta.stalled(q.now()) {
            let attempt = attempt + 1;
            let wait = self.meta.retry_backoff(attempt);
            q.schedule_after(wait, Ev::Retry { req: idx, attempt });
        } else {
            q.schedule_after(PROXY_LATENCY, Ev::DispatchPrefill { idx });
        }
    }

    fn sample(&mut self, q: &mut Q) {
        let now = q.now();
        // The GPUs' busy time counts every step started by now.
        for di in 0..self.decodes.len() {
            self.advance(di, now);
        }
        // Live instances publish heartbeats to the status store.
        for _ in 0..self.insts().filter(|i| !i.dead).count() {
            self.meta.heartbeat();
        }
        // Combined CPU-cache usage across nodes (aligned shape order).
        let mut combined = self.nodes[0].cpu_kv.usage();
        for n in &self.nodes[1..] {
            for (acc, u) in combined.iter_mut().zip(n.cpu_kv.usage()) {
                acc.allocated_bytes += u.allocated_bytes;
                acc.used_bytes += u.used_bytes;
                acc.peak_allocated_bytes += u.peak_allocated_bytes;
            }
        }
        self.frag.sample(&combined);
        self.util_samples.push((now, self.port.gpu_busy(&self.topo)));
    }
}

impl Host for ServingSystem {
    type Ev = Ev;
    type Tag = Tag;
    type Output = RunResult;

    fn on_event(&mut self, ev: Ev, q: &mut Q) {
        match ev {
            Ev::Fabric(fe) => self.port.advance(fe, q),
            Ev::Arrive(idx) => {
                let r = &self.trace.requests[idx as usize];
                self.spans.arrive(&mut self.tel, r.id, r.model, q.now());
                self.proxy_dispatch(idx, 0, q);
                self.ensure_ticks(q);
            }
            Ev::Retry { req, attempt } => {
                self.tel.metrics.inc(self.tm.c_retries, 1);
                if self.tel.spans.is_enabled() {
                    let rid = self.trace.requests[req as usize].id;
                    let (i, cause) = (rid.0, self.spans.root(rid));
                    self.tel.spans.instant(
                        || format!("req{i}"),
                        SpanKind::Retry,
                        q.now(),
                        cause,
                        || format!("retry#{attempt}"),
                    );
                }
                self.proxy_dispatch(req, attempt, q);
            }
            Ev::DispatchPrefill { idx } => {
                self.route_prefill(self.trace.requests[idx as usize].id, q)
            }
            Ev::Daemon { gen } => {
                // Stale generations (a tick queued before an idle stop) are
                // dropped entirely: no side effects, no reschedule.
                if gen == self.tick_gen {
                    self.daemon(q);
                    if self.live() {
                        q.schedule_after(DAEMON_PERIOD, Ev::Daemon { gen });
                    } else {
                        self.ticks_live = false;
                    }
                }
            }
            Ev::Sample { gen } => {
                if gen == self.tick_gen {
                    self.sample(q);
                    if self.live() {
                        q.schedule_after(SAMPLE_PERIOD, Ev::Sample { gen });
                    } else {
                        self.ticks_live = false;
                    }
                }
            }
            Ev::Wake { inst, seq } => self.on_wake(inst as usize, seq, q),
            Ev::Fail(i) => self.on_fail(i as usize, q),
            Ev::Failover(i) => self.on_failover(i as usize, q),
            Ev::FaultStart(i) => self.on_fault_start(i as usize, q),
            Ev::FaultEnd(i) => self.on_fault_end(i as usize, q),
        }
    }

    fn on_tag(&mut self, tag: Tag, q: &mut Q) {
        match tag {
            Tag::PrefillDone { inst, req } => self.on_prefill_done(inst as usize, req, q),
            Tag::ScaleDone { at, seq } => self.on_scale_done(at, seq, q),
            Tag::PrefetchDone { at, model, seq } => {
                self.inst_mut(at).scaler.prefetch_landed(model, seq)
            }
            Tag::StepStart { inst, turn } => self.on_step_start(inst as usize, turn, q),
            Tag::KvIn { inst, req } => self.on_kv_in(inst as usize, req, q),
            // The offload copy's completion only matters to telemetry (the
            // daemon reclaims its blocks via the recorded fabric event).
            Tag::KvOut { req } => self.tel_kv_end(req, q.now(), true),
            Tag::Noop => {}
        }
    }

    fn port(&mut self) -> &mut FabricPort<Tag> {
        &mut self.port
    }

    fn settle(&mut self, until: SimTime) -> bool {
        let mut applied = 0;
        for di in 0..self.decodes.len() {
            applied += self.advance(di, until);
        }
        applied > 0
    }

    fn set_gauges(&mut self) {
        let batches: usize = self.decodes.iter().map(|d| d.work.iter().count()).sum();
        let vram: u64 = self.insts().map(|i| i.gpu_kv.used_bytes()).sum();
        let cpu: u64 = self.nodes.iter().map(|n| n.cpu_kv.used_bytes()).sum();
        let fabric = &self.port.fabric;
        let inflight: f64 = (0..fabric.link_count())
            .map(|l| fabric.link(LinkId(l as u32)).bytes_in_flight())
            .sum();
        let m = &mut self.tel.metrics;
        m.set(self.tm.g_decode_batches, batches as f64);
        m.set(self.tm.g_vram_kv_used, vram as f64);
        m.set(self.tm.g_cpu_kv_used, cpu as f64);
        m.set(self.tm.g_link_bytes_in_flight, inflight);
        let resident = self.prefills.iter().map(|p| p.inst.scaler.current());
        let resident = resident.chain(self.decodes.iter().map(|d| d.inst.scaler.current()));
        self.ids.set_gauges(
            &mut self.tel,
            self.reqs.completed,
            self.prefills.iter().map(|p| p.queue.pending()).sum(),
            self.decodes.iter().map(|d| d.work.len()).sum(),
            resident.flatten(),
        );
    }

    fn telemetry(&mut self) -> &mut Telemetry {
        &mut self.tel
    }

    fn view(&self) -> &dyn AuditView {
        self
    }

    fn record_touches(&mut self) {
        self.journal.record(true);
    }

    fn clear_logs(&mut self) {
        self.reqs.clear_progress();
        self.port.fabric.clear_dirty_links();
        let marked = self.journal.take();
        if marked == 0 {
            return;
        }
        let (np, nd) = (self.prefills.len(), self.decodes.len());
        for i in marked_books(marked, np + nd + self.nodes.len()) {
            let kv = if i < np {
                &mut self.prefills[i].inst.gpu_kv
            } else if i < np + nd {
                &mut self.decodes[i - np].inst.gpu_kv
            } else {
                &mut self.nodes[i - np - nd].cpu_kv
            };
            kv.clear_touches();
        }
    }

    fn finish(mut self, q: &Q, audit: Option<AuditReport>) -> RunResult {
        // Residual decode waiting per finished request.
        let mut kv_sync = Vec::new();
        for rs in self.reqs.iter() {
            kv_sync.push(rs.data_wait_secs + rs.control_secs);
            let finished = rs.token_times.last().filter(|_| rs.is_done());
            if let (Some(d), Some(f)) = (rs.decode_dispatch, finished) {
                let total = f.saturating_since(d).as_secs_f64();
                let wait = (total - rs.decode_exec_secs - rs.data_wait_secs).max(0.0);
                self.breakdown.add_secs(Stage::DecodeWait, wait);
            }
        }
        self.breakdown
            .add_secs(Stage::DecodeExec, self.decode_exec.as_secs_f64());
        let meta_writes = self.meta.writes();
        self.tel.metrics.set_counter(self.tm.c_meta_writes, meta_writes);
        let completed = self.reqs.completed;
        let runs = self.decodes.iter().map(|d| &d.run);
        let end_time = DecodeRun::end_time(runs, self.hard_stop, q.now(), q.now());
        self.ids.finish(
            &mut self.tel,
            &self.reqs,
            &self.trace,
            q,
            q.now(),
            audit.as_ref(),
        );
        RunResult {
            outcomes: self.reqs.outcomes(&self.trace),
            horizon: self.trace.horizon,
            end_time,
            breakdown: self.breakdown,
            scale_latencies: self.scale_latencies,
            kv_sync_per_request: kv_sync,
            frag_rows: self.frag.report(),
            gpu_busy: self.port.gpu_busy(&self.topo),
            util_samples: self.util_samples,
            completed,
            rejected: 0,
            total_requests: self.trace.len(),
            model_count: self.deploys.len(),
            models_profiled: self.deploys.iter().filter(|d| d.is_fitted()).count(),
            scale_count: self.scale_count,
            prefetch_hits: self.prefetch_hits,
            swaps: self.swaps,
            prefix_hits: self.prefix_hits,
            prefill_tokens_reused: self.prefill_tokens_reused,
            prefill_tokens_recomputed: self.prefill_tokens_recomputed,
            events: q.events_dispatched(),
            shard_windows: 0,
            schedule: self.schedule,
            telemetry: self.tel,
            audit,
        }
    }
}

/// Blocks the extends of a plan's first `steps` steps take, per member
/// `(context, held blocks, sits out the step in flight)`: each member's
/// blocks for its context after those steps, less what it holds (blocks
/// held past its context are spare room).
fn kv_need(members: &[(u64, u64, bool)], steps: u32) -> u64 {
    let need = |&(ctx, held, joins): &(u64, u64, bool)| {
        let tokens = u64::from(steps).saturating_sub(u64::from(joins));
        (ctx + tokens)
            .div_ceil(BLOCK_TOKENS as u64)
            .saturating_sub(held)
    };
    members.iter().map(need).sum()
}

/// Where a memory book sits: whether its instance is dead, and the session
/// place it backs (decode GPUs and node CPUs).
struct BookSite {
    dead: bool,
    place: Option<SessPlace>,
}

impl ServingSystem {
    /// Book `i`: prefill GPU caches, then decode GPU caches, then node CPU
    /// caches; `None` past the last.
    fn book_at(&self, i: usize) -> Option<(Book<'_>, BookSite)> {
        let (np, nd) = (self.prefills.len(), self.decodes.len());
        if i >= np + nd {
            let ni = i - np - nd;
            let n = self.nodes.get(ni)?;
            let book = Book {
                kind: "node",
                idx: ni,
                kv: &n.cpu_kv,
            };
            let place = Some(SessPlace::Cpu(ni as u32));
            return Some((book, BookSite { dead: false, place }));
        }
        let (kind, idx, inst, place) = if i < np {
            ("prefill", i, &self.prefills[i].inst, None)
        } else {
            let di = i - np;
            let place = Some(SessPlace::DecodeGpu(di as u32));
            ("decode", di, &self.decodes[di].inst, place)
        };
        let book = Book {
            kind,
            idx,
            kv: &inst.gpu_kv,
        };
        Some((
            book,
            BookSite {
                dead: inst.dead,
                place,
            },
        ))
    }
}

/// Read-only audit facade: exposes request progress, the KV/slab books of
/// every instance and node (including blocks parked behind §5.3 copies),
/// and per-link bandwidth conservation.
impl AuditView for ServingSystem {
    fn requests(&self) -> &Requests {
        &self.reqs
    }

    fn books(&self, all: bool, visit: &mut dyn FnMut(usize, Book<'_>)) {
        let n = self.prefills.len() + self.decodes.len() + self.nodes.len();
        if all {
            (0..n).for_each(|i| visit(i, self.book_at(i).expect("book").0));
            return;
        }
        for i in marked_books(self.journal.marked(), n) {
            let book = self.book_at(i).expect("book").0;
            if book.kv.touched() {
                visit(i, book);
            }
        }
    }

    fn sessions_epoch(&self) -> u64 {
        self.sessions.epoch()
    }

    fn sessions_audit(&self, i: usize) -> Option<String> {
        // Session-prefix double entry: every book entry placed here must be
        // backed with the recorded token count, and every reserved handle
        // held here must be owned by a book entry or an outstanding claim.
        // A dead instance's stale holdings are expected.
        let (b, site) = self.book_at(i)?;
        if site.dead {
            return None;
        }
        if let Some(place) = site.place {
            for (sess, e) in self.sessions.iter().filter(|(_, e)| e.place == place) {
                if b.kv.tokens_of(SessionBook::handle(sess)) != e.tokens {
                    return Some(format!(
                        "session book entry {sess} ({} tokens at {:?}) not backed by its cache",
                        e.tokens, e.place
                    ));
                }
            }
        }
        let orphan =
            b.kv.request_ids()
                .filter(|&id| SessionBook::is_handle(id))
                .map(SessionBook::session_of)
                .filter(|&s| self.sessions.get(s).is_none() && !self.sessions.is_claimed(s))
                .min();
        orphan.map(|s| format!("{b} holds session handle {s} owned by no book entry or claim"))
    }

    fn link_audit(&self, all: bool) -> Option<String> {
        self.port.link_audit(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegaeon_mem::{BlockRef, ShapeKey};
    use aegaeon_model::Zoo;
    use aegaeon_workload::{LengthDist, SloSpec, TraceBuilder};

    fn small_trace(n_models: u32, rate: f64, secs: f64, seed: u64) -> Trace {
        let mut rng = SimRng::seed_from_u64(seed);
        TraceBuilder::new(SimTime::from_secs_f64(secs), LengthDist::sharegpt())
            .uniform_models(&mut rng, n_models, rate)
            .build(&mut rng)
    }

    fn models(n: usize) -> Vec<aegaeon_model::ModelSpec> {
        let zoo = Zoo::standard();
        Zoo::replicate(&zoo.market_band(), n)
    }

    #[test]
    fn single_model_light_load_attains_fully() {
        let cfg = AegaeonConfig::small_testbed(1, 1);
        let trace = small_trace(1, 0.2, 120.0, 1);
        let r = ServingSystem::run(&cfg, &models(1), &trace);
        assert_eq!(r.completed, r.total_requests, "all requests served");
        let rep = r.attainment(SloSpec::paper_default());
        assert!(rep.ratio() > 0.98, "attainment {}", rep.ratio());
    }

    #[test]
    fn multi_model_pool_serves_more_models_than_gpus() {
        let cfg = AegaeonConfig::small_testbed(2, 2);
        let trace = small_trace(8, 0.05, 180.0, 2);
        let r = ServingSystem::run(&cfg, &models(8), &trace);
        assert!(
            r.completed as f64 >= 0.95 * r.total_requests as f64,
            "completed {}/{}",
            r.completed,
            r.total_requests
        );
        let rep = r.attainment(SloSpec::paper_default());
        assert!(rep.ratio() > 0.7, "attainment {}", rep.ratio());
        assert!(r.scale_count > 0, "pooling must actually switch models");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = AegaeonConfig::small_testbed(1, 1);
        let trace = small_trace(3, 0.05, 60.0, 3);
        let a = ServingSystem::run(&cfg, &models(3), &trace);
        let b = ServingSystem::run(&cfg, &models(3), &trace);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.events, b.events);
        let ta: Vec<_> = a.outcomes.iter().flat_map(|o| &o.token_times).collect();
        let tb: Vec<_> = b.outcomes.iter().flat_map(|o| &o.token_times).collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn t3_beats_t0_under_multi_model_load() {
        let trace = small_trace(6, 0.08, 150.0, 4);
        let mut cfg3 = AegaeonConfig::small_testbed(1, 2);
        cfg3.opts = aegaeon_engine::AutoscaleOpts::t3();
        let mut cfg0 = AegaeonConfig::small_testbed(1, 2);
        cfg0.opts = aegaeon_engine::AutoscaleOpts::t0();
        let r3 = ServingSystem::run(&cfg3, &models(6), &trace);
        let r0 = ServingSystem::run(&cfg0, &models(6), &trace);
        let a3 = r3.attainment(SloSpec::paper_default()).ratio();
        let a0 = r0.attainment(SloSpec::paper_default()).ratio();
        assert!(a3 > a0 + 0.1, "T3 {a3} vs T0 {a0}");
    }

    #[test]
    fn audited_run_is_clean_and_identical() {
        let mut cfg = AegaeonConfig::small_testbed(2, 2);
        let trace = small_trace(4, 0.06, 90.0, 6);
        let plain = ServingSystem::run(&cfg, &models(4), &trace);
        assert!(plain.audit.is_none(), "unaudited runs carry no report");
        cfg.audit = true;
        let audited = ServingSystem::run(&cfg, &models(4), &trace);
        let report = audited.audit.as_ref().expect("audited run");
        assert!(report.ok(), "{report}");
        assert!(report.events_checked > 0);
        assert_eq!(plain.events, audited.events, "auditor must not perturb");
        assert_eq!(plain.completed, audited.completed);
    }

    #[test]
    fn audited_run_with_faults_stays_clean() {
        let mut cfg = AegaeonConfig::small_testbed(2, 3);
        cfg.drain_window = SimDur::from_secs(400);
        cfg.faults = crate::chaos::FaultPlan {
            seed: 5,
            crashes: vec![(30.0, InstKind::Decode, 0)],
            link_rate: 0.05,
            link_factor: 0.3,
            link_secs: 4.0,
            stage_oom_rate: 0.03,
            stage_oom_secs: 5.0,
            stall_rate: 0.02,
            stall_secs: 1.0,
            ..crate::chaos::FaultPlan::none()
        };
        cfg.audit = true;
        let trace = small_trace(4, 0.05, 90.0, 7);
        let r = ServingSystem::run(&cfg, &models(4), &trace);
        let report = r.audit.as_ref().expect("audited run");
        assert!(report.ok(), "{report}");
        assert_eq!(
            r.completed, r.total_requests,
            "chaos must not lose requests"
        );
    }

    #[test]
    fn scale_latencies_are_subsecond_with_t3() {
        let cfg = AegaeonConfig::small_testbed(1, 2);
        let trace = small_trace(6, 0.08, 120.0, 5);
        let r = ServingSystem::run(&cfg, &models(6), &trace);
        assert!(!r.scale_latencies.is_empty());
        let mean: f64 = r.scale_latencies.iter().sum::<f64>() / r.scale_latencies.len() as f64;
        assert!(mean < 1.5, "mean scale latency {mean}s");
    }

    /// One book's ledger as its touch logs must account for it: each key's
    /// (tokens, bytes), the parked batches, and per-shape pool usage. Only
    /// a session handle's tokens count: a request's grow without a fresh
    /// block.
    type Ledger = (
        std::collections::BTreeMap<RequestId, (u32, u64)>,
        Vec<(EventId, ShapeKey, Vec<BlockRef>)>,
        Vec<(u64, u64)>,
    );

    fn ledger(b: &Book<'_>) -> Ledger {
        let keys = b.kv.request_ids();
        let tokens = |id| {
            if SessionBook::is_handle(id) {
                b.kv.tokens_of(id)
            } else {
                0
            }
        };
        let keys = keys.map(|id| (id, (tokens(id), b.kv.bytes_of(id))));
        let parked =
            b.kv.parked()
                .map(|(ev, shape, blocks)| (ev, shape, blocks.to_vec()));
        let usage =
            b.kv.usage()
                .into_iter()
                .map(|u| (u.allocated_bytes, u.used_bytes));
        (keys.collect(), parked.collect(), usage.collect())
    }

    /// A started, audited driver over a chaotic agentic run: a decode
    /// crash, link degradation and staging OOM windows, with retained,
    /// spilled and claimed session prefixes.
    fn chaotic_agentic_driver() -> crate::runtime::Driver<ServingSystem> {
        chaotic_agentic_driver_audited(true)
    }

    fn chaotic_agentic_driver_audited(audit: bool) -> crate::runtime::Driver<ServingSystem> {
        let mut cfg = AegaeonConfig::small_testbed(2, 3);
        cfg.session_affinity = true;
        cfg.faults = crate::chaos::FaultPlan {
            seed: 3,
            crashes: vec![(120.0, InstKind::Decode, 1)],
            link_rate: 0.05,
            link_factor: 0.3,
            link_secs: 4.0,
            stage_oom_rate: 0.03,
            stage_oom_secs: 5.0,
            ..crate::chaos::FaultPlan::none()
        };
        let mut rng = SimRng::seed_from_u64(9);
        let trace = aegaeon_workload::SessionBuilder::new(SimTime::from_secs_f64(300.0), 4, 0.01)
            .depth(2, 5)
            .think_gap(15.0, 0.5)
            .generate(&mut rng)
            .lower();
        let sys = ServingSystem::new(cfg, &models(4), trace);
        let hard_stop = sys.hard_stop;
        let mut d = crate::runtime::Driver::new(sys, hard_stop, audit);
        d.host.start(&mut d.q);
        d
    }

    /// Without an auditor no book logs anything, so nothing grows between
    /// the driver's clears (which visit only journaled books).
    #[test]
    fn unaudited_runs_log_nothing() {
        let mut d = chaotic_agentic_driver_audited(false);
        while d.step() {
            let books = (0..).map_while(|i| d.host.book_at(i));
            for (b, _) in books {
                assert!(!b.kv.touched(), "{b} logged without an auditor");
            }
        }
        assert!(d.finish().prefix_hits > 0);
    }

    /// Touch-log soundness, the property that lets the auditor check only
    /// what an event touched: over a chaotic agentic run, every key whose
    /// blocks (or, for a session handle, tokens) changed across an event is
    /// named in its cache's log, changed parked batches logged a park or a
    /// release, and changed pool usage logged a block op. So a book whose
    /// logs stayed empty kept its ledger. Every book that logged anything
    /// is marked in the journal.
    #[test]
    fn touch_logs_name_every_holder_an_event_changed() {
        let mut d = chaotic_agentic_driver();
        let books = |sys: &ServingSystem| -> Vec<Ledger> {
            (0..)
                .map_while(|i| sys.book_at(i))
                .map(|(b, _)| ledger(&b))
                .collect()
        };
        let mut last = books(&d.host);
        let (mut moved, mut still) = (0u64, 0u64);
        while d.step() {
            let now = books(&d.host);
            for (i, (was, is)) in last.iter().zip(&now).enumerate() {
                let (b, _) = d.host.book_at(i).expect("book");
                let named: Vec<Option<RequestId>> = b.kv.touches().map(|(k, ..)| k).collect();
                let keys = was.0.keys().chain(is.0.keys());
                for &k in keys {
                    let (w, n) = (was.0.get(&k), is.0.get(&k));
                    let changed = w != n;
                    assert!(
                        !changed || named.contains(&Some(k)),
                        "book {i}: {k:?} {w:?} -> {n:?} unlogged"
                    );
                }
                assert!(
                    was.1 == is.1 || named.contains(&None),
                    "book {i}: parks unlogged"
                );
                assert!(
                    was.2 == is.2 || b.kv.block_ops() > 0,
                    "book {i}: pool usage unlogged"
                );
                let logged = b.kv.touched();
                let n = last.len();
                let marked = marked_books(d.host.journal.marked(), n).any(|m| m == i);
                assert!(
                    marked || !logged,
                    "book {i} logged but not marked in the journal"
                );
                if !logged {
                    assert_eq!(was, is, "book {i} changed with empty logs");
                    still += 1;
                } else {
                    moved += 1;
                }
            }
            last = now;
        }
        let r = d.finish();
        let report = r.audit.as_ref().expect("auditor installed");
        assert!(report.ok(), "{report}");
        assert!(r.prefix_hits > 0, "the run must claim retained prefixes");
        assert!(moved > 0 && still > moved, "moved {moved}, still {still}");
        let n = last.len() as u64;
        assert!(report.books_checked < report.events_checked * n);
        assert!(report.blocks_checked > 0);
    }

    /// Dirty-link soundness, the property that lets the auditor check only
    /// dirty links: over a chaotic run with link degradation, every link
    /// whose books changed across an event is marked dirty.
    #[test]
    fn dirty_links_hold_every_link_an_event_changed() {
        let mut d = chaotic_agentic_driver();
        let links = |sys: &ServingSystem| -> Vec<_> {
            let f = &sys.port.fabric;
            (0..f.link_count())
                .map(|l| {
                    let l = f.link(LinkId(l as u32));
                    let flows = (l.in_flight(), l.bytes_in_flight());
                    (l.bytes_started(), l.bytes_delivered(), flows)
                })
                .collect()
        };
        let mut last = links(&d.host);
        let mut changed = 0u64;
        while d.step() {
            let now = links(&d.host);
            let dirty: Vec<LinkId> = d.host.port.fabric.dirty_links().collect();
            for (l, (was, is)) in last.iter().zip(&now).enumerate() {
                if was != is {
                    let l = LinkId(l as u32);
                    assert!(
                        dirty.contains(&l),
                        "{l:?} changed {was:?} -> {is:?} unmarked"
                    );
                    changed += 1;
                }
            }
            last = now;
        }
        assert!(changed > 0);
        let report = d.finish().audit.expect("auditor installed");
        assert!(report.ok(), "{report}");
    }

    /// Everything the auditor checks of one request: produced count,
    /// timestamp count, last stamp and done flag.
    fn audited_state(r: &ReqState) -> (u32, usize, Option<SimTime>, bool) {
        (
            r.produced,
            r.token_times.len(),
            r.token_times.last(),
            r.is_done(),
        )
    }

    /// Progress-log soundness, the property that lets the auditor check only
    /// logged requests: over a chaotic agentic run, every request whose
    /// audited state changed across an event is in that event's log.
    #[test]
    fn progress_log_holds_every_request_an_event_changed() {
        let mut d = chaotic_agentic_driver();
        let state =
            |sys: &ServingSystem| -> Vec<_> { sys.reqs.iter().map(audited_state).collect() };
        let mut last = state(&d.host);
        let mut changed = 0u64;
        while d.step() {
            let now = state(&d.host);
            for (i, (was, is)) in last.iter().zip(&now).enumerate() {
                if was != is {
                    assert!(
                        d.host.reqs.progressed().iter().any(|&(j, _)| j == i),
                        "request {i} changed {was:?} -> {is:?} without a log entry"
                    );
                    changed += 1;
                }
            }
            last = now;
        }
        let r = d.finish();
        let report = r.audit.as_ref().expect("auditor installed");
        assert!(report.ok(), "{report}");
        let tokens: u64 = r.outcomes.iter().map(|o| o.token_times.len() as u64).sum();
        assert!(
            changed > 0 && changed <= tokens,
            "changed {changed}, tokens {tokens}"
        );
        assert_eq!(
            report.requests_checked,
            tokens + r.total_requests as u64,
            "one check per token plus the final sweep"
        );
    }

    /// The d2h copy-out overlaps compute on the KV-out stream only under
    /// fine-grained sync, and parks its source blocks until it lands. CPU
    /// blocks released behind its pending event park too (§5.3 rule ❸);
    /// unguarded ones, or ones whose guard already fired, are freed at once.
    #[test]
    fn copy_out_and_cpu_release_honour_the_guard_event() {
        for fine_sync in [false, true] {
            let mut cfg = AegaeonConfig::small_testbed(1, 1);
            cfg.opts.fine_sync = fine_sync;
            let trace = small_trace(1, 0.1, 10.0, 1);
            let mut sys = ServingSystem::new(cfg, &models(1), trace);
            let mut q = Q::new();
            let (at, req, ids) = (InstRef::prefill(0), RequestId(0), [1, 2, 3].map(RequestId));
            sys.inst_mut(at).gpu_kv.alloc(req, ModelId(0), 64).unwrap();
            for r in ids {
                sys.nodes[0].cpu_kv.alloc(r, ModelId(0), 64).unwrap();
            }
            sys.compute_all(at, SimDur::from_secs(10), Tag::Noop, &mut q);
            let ev = sys.copy_out(at, req, 1 << 20, Tag::Noop, &mut q);
            assert!(!sys.inst(at).gpu_kv.holds(req));
            assert_eq!(sys.inst(at).gpu_kv.parked().count(), 1);
            sys.release_cpu_kv(0, ids[0], Some(ev));
            sys.release_cpu_kv(0, ids[1], None);
            assert_eq!(sys.nodes[0].cpu_kv.parked().count(), 1);
            while !sys.port.fabric.query_event(ev) {
                if let (_, Ev::Fabric(fe)) = q.pop().expect("the copy lands") {
                    sys.port.advance(fe, &mut q);
                }
            }
            let behind_compute = q.now() >= SimTime::from_secs_f64(10.0);
            assert_eq!(behind_compute, !fine_sync, "fine_sync {fine_sync}");
            sys.release_cpu_kv(0, ids[2], Some(ev));
            assert_eq!(sys.nodes[0].cpu_kv.parked().count(), 1);
            assert!(ids.iter().all(|&r| !sys.nodes[0].cpu_kv.holds(r)));
        }
    }

    /// A request whose finished prefill waits in `offload_retry` for CPU
    /// space holds its KV only on its prefill GPU. When that instance
    /// crashes, failover re-prefills the request on a live instance; the
    /// daemon never offloads it from the dead GPU.
    #[test]
    fn offload_retry_requests_re_prefill_after_their_prefill_crashes() {
        let mut cfg = AegaeonConfig::small_testbed(2, 1);
        cfg.faults = crate::chaos::FaultPlan::crashes(&[(20.0, InstKind::Prefill, 0)]);
        cfg.drain_window = SimDur::from_secs(30);
        let (req, model, filler) = (RequestId(0), ModelId(0), RequestId(1 << 40));
        let trace = Trace {
            requests: vec![Request::single(req, model, 1_000_000_000, 512, 8)],
            horizon: SimTime::from_secs_f64(30.0),
        };
        let sys = ServingSystem::new(cfg, &models(1), trace);
        let hard_stop = sys.hard_stop;
        let mut d = crate::runtime::Driver::new(sys, hard_stop, true);
        // Fill node 0's CPU cache with blocks parked behind a copy that
        // lands at 25 s, so the offload waits until the daemon reclaims them.
        let port = &mut d.host.port;
        let lane = port.fabric.add_stream("filler");
        let (dur, tag) = (SimDur::from_secs(25), Tag::Noop.into());
        port.submit(lane, StreamOp::Compute { dur, tag }, &mut d.q);
        let ev = port.record_event(lane, &mut d.q);
        let cpu = &mut d.host.nodes[0].cpu_kv;
        let room = cpu.token_capacity(model) as u32;
        cpu.alloc(filler, model, room).unwrap();
        cpu.park(filler, ev);
        d.host.start(&mut d.q);
        let (mut crashed, mut re_prefilled) = (false, false);
        while d.step() {
            let h = &d.host;
            if h.prefills[0].inst.dead && !crashed {
                crashed = true;
                let waiting = &h.nodes[0].offload_retry;
                assert_eq!(
                    waiting,
                    &[(0, req)],
                    "the crash must find the request waiting"
                );
            }
            let copied_out = h.prefills[0].inst.gpu_kv.parked().next().is_some();
            assert!(!copied_out, "a copy out of the dead GPU at {:?}", d.q.now());
            re_prefilled |= h.prefills[1].active == Some(req);
        }
        assert!(
            crashed && re_prefilled,
            "crashed {crashed}, re-prefilled {re_prefilled}"
        );
        let r = d.finish();
        let report = r.audit.as_ref().expect("auditor installed");
        assert!(r.completed == 1 && report.ok(), "{report}");
    }

    /// A crash strictly inside a decode turn, between two of its steps:
    /// the run keeps exactly the tokens stamped at or before the crash (the
    /// dead instance's step in flight dies with it, and its requests
    /// produce nothing until failover recovers them), the auditor stays
    /// clean, and every request resolves.
    #[test]
    fn a_crash_inside_a_turn_keeps_exactly_the_tokens_stamped_by_then() {
        let mut cfg = AegaeonConfig::small_testbed(1, 2);
        cfg.drain_window = SimDur::from_secs(400);
        let trace = small_trace(3, 0.15, 60.0, 21);
        let (specs, di) = (models(3), 0);
        // Find a step in flight, not the last of its plan, on decode 0.
        let sys = ServingSystem::new(cfg.clone(), &specs, trace.clone());
        let hard_stop = sys.hard_stop;
        let mut d = crate::runtime::Driver::new(sys, hard_stop, false);
        d.host.start(&mut d.q);
        let crash = loop {
            assert!(d.step(), "decode 0 never stepped mid-plan");
            let now = d.q.now();
            let h = &mut d.host;
            h.advance(di, now);
            let run = &h.decodes[di].run;
            let Some((start, dur, _)) = run.step().filter(|_| run.planned() > 0) else {
                continue;
            };
            let mid = (start + dur / 2).as_nanos() / 1000 * 1000;
            if now > SimTime::from_secs_f64(10.0) && mid > start.max(now).as_nanos() {
                break SimTime::from_nanos(mid);
            }
        };
        let baseline = ServingSystem::run(&cfg, &specs, &trace);

        cfg.faults =
            crate::chaos::FaultPlan::crashes(&[(crash.as_secs_f64(), InstKind::Decode, 0)]);
        cfg.audit = true;
        let sys = ServingSystem::new(cfg, &specs, trace);
        let mut d = crate::runtime::Driver::new(sys, hard_stop, true);
        d.host.start(&mut d.q);
        while !d.host.decodes[di].inst.dead {
            assert!(d.step());
        }
        assert_eq!(d.q.now(), crash);
        let stranded: Vec<RequestId> = d.host.decodes[di]
            .work
            .iter()
            .flat_map(|b| b.reqs.clone())
            .collect();
        assert!(!stranded.is_empty(), "the crash must strand a batch");
        while d.step() {}
        let r = d.finish();
        let report = r.audit.as_ref().expect("auditor installed");
        assert!(report.ok(), "{report}");
        assert_eq!(r.completed, r.total_requests);
        let by = |ts: &aegaeon_metrics::TokenTimes| {
            ts.iter().filter(|&t| t <= crash).collect::<Vec<_>>()
        };
        for (o, b) in r.outcomes.iter().zip(&baseline.outcomes) {
            assert_eq!(by(&o.token_times), by(&b.token_times), "request {}", o.id.0);
        }
        let recovered = crash + FAILOVER_LATENCY;
        for req in stranded {
            let ts = &r.outcomes[req.0 as usize].token_times;
            let after = ts.iter().find(|&t| t > crash);
            assert!(
                after.is_none_or(|t| t > recovered),
                "request {} stamped {after:?} after the crash",
                req.0
            );
        }
    }

    #[test]
    fn utilization_is_sampled_every_second() {
        let cfg = AegaeonConfig::small_testbed(1, 2);
        let r = ServingSystem::run(&cfg, &models(2), &small_trace(2, 0.1, 60.0, 8));
        assert!(r.util_samples.len() > 1);
        for w in r.util_samples.windows(2) {
            assert_eq!(w[1].0.saturating_since(w[0].0), SimDur::from_secs(1));
        }
    }
}
