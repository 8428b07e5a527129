//! Shared serving machinery for the baseline systems.
//!
//! Baselines are unified (non-disaggregated) servers: each instance runs a
//! vLLM-style loop on its compute lane — pending prefills first, then one
//! decoding step for the whole batch — with continuous batching within the
//! resident model. System-specific behaviour (admission, what to do when an
//! instance drains, compute contention) plugs in through the `Scheduler`
//! trait. The event driver, fabric port, scale-stage builder, request table
//! and request telemetry are Aegaeon's own ([`aegaeon::runtime`]), and a
//! run reports Aegaeon's [`RunResult`], so both sides of every comparison
//! are timed, accounted and observed by the same code.

use std::collections::VecDeque;

use aegaeon::audit::{AuditReport, AuditView};
use aegaeon::deploy::{build_deploys, ModelDeploy};
use aegaeon::runtime::{checked, CoreIds, Driver, FabricPort, Host, Requests, SpanBook, SAMPLE_PERIOD};
use aegaeon::RunResult;
use aegaeon_engine::init::VRAM_USABLE;
use aegaeon_engine::{scale_up_plan, AutoscaleOpts, ScaleCost, ScaleStage, StageKind};
use aegaeon_gpu::{ClusterTopology, FabricEvent, GpuId, StreamId};
use aegaeon_metrics::BreakdownAcc;
use aegaeon_model::{ModelId, ModelSpec};
use aegaeon_sim::{EventQueue, SimDur, SimRng, SimTime, Timeline, TraceLog};
use aegaeon_telemetry::{CounterId, GaugeId, SpanId, SpanKind, Telemetry};
use aegaeon_workload::{RequestId, Trace};

/// Simulation events.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BEv {
    /// Fabric event.
    Fabric(FabricEvent),
    /// Arrival of `trace.requests[idx]`.
    Arrive(u32),
    /// Periodic utilization sample.
    Sample,
}

impl From<FabricEvent> for BEv {
    fn from(fe: FabricEvent) -> BEv {
        BEv::Fabric(fe)
    }
}

/// Fabric completion tags. A multi-GPU op completes once, when its last
/// shard does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BTag {
    /// A prefill finished on an instance.
    Prefill {
        /// Instance index.
        inst: u32,
        /// The request.
        req: RequestId,
    },
    /// A decode step finished.
    Step {
        /// Instance index.
        inst: u32,
    },
    /// Every auto-scaling stage finished.
    Scale {
        /// Instance index.
        inst: u32,
    },
}

/// One serving instance (a TP group, or a MuxServe slot on a GPU).
#[derive(Debug)]
pub struct InstState {
    /// Member GPUs.
    pub(crate) gpus: Vec<GpuId>,
    /// Compute lanes, one per GPU (MuxServe slots use extra streams).
    pub(crate) lanes: Vec<StreamId>,
    /// Resident model.
    pub(crate) current: Option<ModelId>,
    /// Target of an in-flight scale (None when not scaling).
    pub(crate) scale_target: Option<ModelId>,
    /// Admitted requests awaiting prefill.
    pub(crate) prefill_q: VecDeque<RequestId>,
    /// Decoding batch.
    pub(crate) batch: Vec<RequestId>,
    /// An op is in flight on the lanes.
    pub(crate) busy: bool,
    /// Step/prefill duration multiplier (MuxServe compute sharing).
    pub(crate) contention: f64,
    /// Reserved KV tokens (oracle-final contexts of admitted requests).
    pub kv_reserved_tokens: u64,
    /// KV token capacity for the resident model (set at scale time).
    pub kv_cap_tokens: u64,
    /// Model switches performed.
    pub(crate) switches: u64,
    /// Open telemetry span of the in-flight switch ([`SpanId::NONE`] when
    /// idle or telemetry is off).
    switch_span: SpanId,
}

impl InstState {
    /// Creates an idle instance over the given GPUs and compute lanes.
    pub(crate) fn new(gpus: Vec<GpuId>, lanes: Vec<StreamId>) -> InstState {
        InstState {
            gpus,
            lanes,
            current: None,
            scale_target: None,
            prefill_q: VecDeque::new(),
            batch: Vec::new(),
            busy: false,
            contention: 1.0,
            kv_reserved_tokens: 0,
            kv_cap_tokens: 0,
            switches: 0,
            switch_span: SpanId::NONE,
        }
    }

    /// True if the instance has no work at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.prefill_q.is_empty() && self.batch.is_empty()
    }
}

/// System-specific policy hooks.
pub(crate) trait Scheduler {
    /// A request reached the system.
    fn on_arrival(&mut self, w: &mut World, idx: usize, q: &mut Qq);
    /// An instance has fully drained.
    fn on_idle(&mut self, w: &mut World, inst: usize, q: &mut Qq);
    /// An instance finished an op (optional bookkeeping).
    fn on_progress(&mut self, _w: &mut World, _inst: usize, _q: &mut Qq) {}
}

/// Event queue alias.
pub(crate) type Qq = EventQueue<BEv>;

/// KV admission headroom: the fraction of capacity usable for reservations.
const KV_FILL: f64 = 0.9;

/// Extra fixed cost per model switch. ServerlessLLM accelerates checkpoint
/// loading but still restarts the serving engine for the new model; Figure
/// 7's breakdown attributes seconds to VRAM GC, KV-cache host-memory
/// pinning and misc component init (2.5 + 4 + 2.3 s), stages the §5.1
/// component-reuse design removes. We charge a moderate 6 s.
const RESTART_COST: SimDur = SimDur::from_secs(6);

/// World configuration shared by the baselines.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Cluster hardware.
    pub cluster: aegaeon_gpu::ClusterSpec,
    /// TP degree.
    pub tp: u32,
    /// Scale-plan optimization flags (what the baseline's loader achieves).
    pub(crate) opts: AutoscaleOpts,
    /// Extra time after the horizon before cutting the run.
    pub drain_window: SimDur,
    /// RNG seed.
    pub seed: u64,
    /// Run the always-on invariant auditor alongside the loop (observer
    /// only; results are bit-identical either way).
    pub audit: bool,
    /// Telemetry (request-lifecycle spans + sampled metrics). Observer
    /// only: results are bit-identical either way.
    pub telemetry: aegaeon_telemetry::TelemetrySpec,
}

impl WorldConfig {
    /// ServerlessLLM-style defaults on the paper testbed: warm containers,
    /// fast checkpoint loading (their contribution), no prefetching.
    pub fn sllm_default(cluster: aegaeon_gpu::ClusterSpec) -> WorldConfig {
        WorldConfig {
            cluster,
            tp: 1,
            opts: AutoscaleOpts {
                component_reuse: true,
                explicit_memory: true,
                prefetch: false,
                fine_sync: false,
            },
            drain_window: SimDur::from_secs(240),
            seed: 42,
            audit: false,
            telemetry: aegaeon_telemetry::TelemetrySpec::disabled(),
        }
    }
}

/// The shared baseline world: instances over the fabric plus request state.
pub struct World {
    /// Configuration.
    pub cfg: WorldConfig,
    /// The fabric.
    pub(crate) port: FabricPort<BTag>,
    /// Topology.
    pub(crate) topo: ClusterTopology,
    /// Model deployments.
    pub(crate) deploys: Vec<ModelDeploy>,
    /// Instances.
    pub insts: Vec<InstState>,
    /// The request table.
    pub(crate) reqs: Requests,
    /// The trace.
    pub(crate) trace: Trace,
    /// RNG.
    pub(crate) rng: SimRng,
    usable_vram: u64,
    util_samples: Vec<(SimTime, Vec<f64>)>,
    /// Request-lifecycle spans and sampled metrics (observer only).
    pub(crate) tel: Telemetry,
    ids: CoreIds,
    c_rejected: CounterId,
    g_kv_reserved: GaugeId,
    spans: SpanBook,
}

impl World {
    /// Builds a world with one instance per TP group using each GPU's
    /// default stream as its lane.
    pub fn new(cfg: WorldConfig, models: &[ModelSpec], trace: Trace) -> World {
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let (port, topo) = FabricPort::build(&cfg.cluster);
        let gpu_spec = &cfg.cluster.nodes[0].gpu;
        let deploys = build_deploys(models, gpu_spec, cfg.tp, &mut rng);
        let usable_vram = (gpu_spec.vram_bytes as f64 * VRAM_USABLE) as u64;
        let gpu_ids: Vec<GpuId> = topo.gpu_ids().collect();
        let insts = gpu_ids
            .chunks(cfg.tp as usize)
            .map(|group| {
                let lanes = group.iter().map(|&g| topo.gpu(g).default_stream);
                InstState::new(group.to_vec(), lanes.collect())
            })
            .collect();
        let reqs = Requests::new(&trace);
        let (mut tel, ids) = CoreIds::telemetry(&cfg.telemetry, deploys.len());
        let c_rejected = tel.metrics.counter("rejected_requests");
        let g_kv_reserved = tel.metrics.gauge("kv_reserved_tokens");
        let spans = SpanBook::new(&tel, trace.len());
        World {
            cfg,
            port,
            topo,
            deploys,
            insts,
            reqs,
            trace,
            rng,
            usable_vram,
            util_samples: Vec::new(),
            tel,
            ids,
            c_rejected,
            g_kv_reserved,
            spans,
        }
    }

    /// Usable VRAM per GPU.
    pub fn usable_vram(&self) -> u64 {
        self.usable_vram
    }

    /// KV token capacity if `model` were resident alone, given `weights` of
    /// resident bytes on the GPU.
    pub(crate) fn kv_tokens_for(&self, model: ModelId, resident_weights: u64) -> u64 {
        let d = &self.deploys[model.0 as usize];
        let kv_bytes = self.usable_vram.saturating_sub(resident_weights);
        kv_bytes / d.kv_token_bytes.max(1)
    }

    /// Oracle-final context of a request (admission reservation).
    pub fn final_ctx(&self, req: RequestId) -> u64 {
        let r = &self.trace.requests[req.0 as usize];
        (r.input_tokens + r.output_tokens) as u64
    }

    /// True if `inst` can reserve KV space for `req`.
    pub fn can_admit(&self, inst: usize, req: RequestId) -> bool {
        let i = &self.insts[inst];
        let cap = (i.kv_cap_tokens as f64 * KV_FILL) as u64;
        i.kv_reserved_tokens + self.final_ctx(req) <= cap
    }

    /// Admits `req` to `inst` (reserving KV) and kicks the loop.
    pub(crate) fn admit(&mut self, inst: usize, req: RequestId, q: &mut Qq) {
        let ctx = self.final_ctx(req);
        let i = &mut self.insts[inst];
        i.kv_reserved_tokens += ctx;
        i.prefill_q.push_back(req);
        self.kick(inst, q);
    }

    /// Admits requests from the head of `queue` to `inst`, in order, until
    /// the first that does not fit.
    pub(crate) fn admit_fifo(&mut self, inst: usize, queue: &mut Vec<RequestId>, q: &mut Qq) {
        while let Some(&req) = queue.first() {
            if !self.can_admit(inst, req) {
                break;
            }
            queue.remove(0);
            self.admit(inst, req, q);
        }
    }

    /// Turns `req` away for good: it counts as rejected and its spans end
    /// now.
    pub(crate) fn reject(&mut self, req: RequestId, now: SimTime) {
        self.reqs.rejected += 1;
        self.spans.close(&mut self.tel, req, now);
    }

    /// Starts scaling `inst` to `model`. KV capacity is set for the target.
    pub(crate) fn start_scale(&mut self, inst: usize, model: ModelId, q: &mut Qq) {
        debug_assert!(self.insts[inst].scale_target.is_none(), "already scaling");
        let d = &self.deploys[model.0 as usize];
        let mut plan = scale_up_plan(&self.cfg.opts, d.shard_bytes, false, true);
        plan.stages.push(ScaleStage {
            kind: StageKind::MiscInit,
            cost: ScaleCost::Fixed(RESTART_COST),
        });
        let i = &mut self.insts[inst];
        i.scale_target = Some(model);
        i.switches += 1;
        i.busy = true;
        i.kv_cap_tokens = 0; // set on completion
        self.tel.metrics.inc(self.ids.c_switches, 1);
        if self.tel.is_enabled() {
            let now = q.now();
            let old = std::mem::replace(&mut self.insts[inst].switch_span, SpanId::NONE);
            self.tel.spans.end(old, now);
            self.insts[inst].switch_span = self.tel.spans.start(
                || format!("inst{inst}"),
                SpanKind::Switch,
                now,
                SpanId::NONE,
                SpanId::NONE,
                || format!("S:{model}"),
            );
        }
        let i = &self.insts[inst];
        let tag = self.port.join(
            plan.stages.len() * i.lanes.len(),
            BTag::Scale { inst: inst as u32 },
        );
        for (&lane, &g) in i.lanes.iter().zip(&i.gpus) {
            self.port
                .submit_stages(lane, self.topo.gpu(g), &plan.stages, &tag, q);
        }
    }

    /// Runs the instance loop: prefill first, else a decode step.
    pub(crate) fn kick(&mut self, inst: usize, q: &mut Qq) {
        let i = &mut self.insts[inst];
        if i.busy || i.scale_target.is_some() {
            return;
        }
        let Some(model) = i.current else {
            return; // scheduler must scale first
        };
        let perf = &self.deploys[model.0 as usize].perf;
        let (base, tag) = if let Some(req) = i.prefill_q.pop_front() {
            let rs = &mut self.reqs[req.0 as usize];
            rs.prefill_start = Some(q.now());
            let base = perf.prefill_secs(&[rs.input_tokens], &mut self.rng);
            self.spans
                .begin_phase(&mut self.tel, req, SpanKind::Prefill, "prefill", q.now());
            let inst = inst as u32;
            (base, BTag::Prefill { inst, req })
        } else if !i.batch.is_empty() {
            let ctx = self.reqs.ctx_tokens(&i.batch);
            let base = perf.decode_secs(i.batch.len(), ctx, &mut self.rng);
            self.tel
                .metrics
                .observe_sketch(self.ids.s_batch_size, i.batch.len() as f64);
            (base, BTag::Step { inst: inst as u32 })
        } else {
            return;
        };
        i.busy = true;
        let lanes = i.lanes.iter().copied();
        self.port.compute_all(lanes, base * i.contention, tag, q);
    }

    /// Retires a completed request: releases its KV reservation on `inst`
    /// and feeds the shared retirement hook.
    fn retire(&mut self, inst: usize, req: RequestId, now: SimTime) {
        let ctx = self.final_ctx(req);
        let i = &mut self.insts[inst];
        i.kv_reserved_tokens = i.kv_reserved_tokens.saturating_sub(ctx);
        self.reqs.completed += 1;
        let model = self.trace.requests[req.0 as usize].model;
        let rs = &self.reqs[req.0 as usize];
        self.spans
            .retire(&mut self.tel, &self.ids, req, model, rs, now);
    }

    /// Drives the simulation with `sched` until the trace drains. With
    /// `cfg.audit` set, the invariant auditor observes the run and its
    /// report lands on [`RunResult::audit`].
    ///
    /// # Panics
    ///
    /// With `cfg.audit` set, panics on any invariant violation, printing
    /// the full report (the violation reproduces from the config's seed).
    pub(crate) fn run<S: Scheduler>(self, sched: &mut S) -> RunResult {
        let (seed, audit) = (self.cfg.seed, self.cfg.audit);
        checked(self.driver(sched, audit).run(), format_args!("seed={seed}"))
    }

    /// The runtime driver over this world and `sched`, with every arrival
    /// and the first utilization sample scheduled.
    fn driver<S: Scheduler>(self, sched: &mut S, audit: bool) -> Driver<Serve<'_, S>> {
        let hard_stop = self.trace.horizon + self.cfg.drain_window;
        let mut d = Driver::new(Serve { w: self, sched }, hard_stop, audit);
        for (i, r) in d.host.w.trace.requests.iter().enumerate() {
            d.q.schedule_at(r.arrival(), BEv::Arrive(i as u32));
        }
        d.q.schedule_after(SAMPLE_PERIOD, BEv::Sample);
        d
    }
}

/// A world and its scheduler, as the runtime's driver sees them.
struct Serve<'s, S> {
    w: World,
    sched: &'s mut S,
}

impl<S: Scheduler> Host for Serve<'_, S> {
    type Ev = BEv;
    type Tag = BTag;
    type Output = RunResult;

    fn on_event(&mut self, ev: BEv, q: &mut Qq) {
        let w = &mut self.w;
        match ev {
            BEv::Fabric(fe) => w.port.advance(fe, q),
            BEv::Arrive(idx) => {
                let r = &w.trace.requests[idx as usize];
                let (req, now) = (r.id, q.now());
                w.spans.arrive(&mut w.tel, req, r.model, now);
                w.spans
                    .begin_phase(&mut w.tel, req, SpanKind::QueueWait, "queue-wait", now);
                self.sched.on_arrival(w, idx as usize, q);
            }
            BEv::Sample => {
                w.util_samples.push((q.now(), w.port.gpu_busy(&w.topo)));
                if w.reqs.unresolved() > 0 {
                    q.schedule_after(SAMPLE_PERIOD, BEv::Sample);
                }
            }
        }
    }

    fn on_tag(&mut self, tag: BTag, q: &mut Qq) {
        let w = &mut self.w;
        let now = q.now();
        let (inst, emptied) = match tag {
            BTag::Scale { inst } => {
                let inst = inst as usize;
                let span = std::mem::replace(&mut w.insts[inst].switch_span, SpanId::NONE);
                w.tel.spans.end(span, now);
                let model = w.insts[inst].scale_target.take().expect("scaling target");
                let cap = w.kv_tokens_for(model, w.deploys[model.0 as usize].shard_bytes);
                let i = &mut w.insts[inst];
                i.current = Some(model);
                i.kv_cap_tokens = cap;
                i.busy = false;
                (inst, false)
            }
            BTag::Prefill { inst, req } => {
                let inst = inst as usize;
                w.reqs.push_token(req, now);
                let rs = &mut w.reqs[req.0 as usize];
                rs.prefill_end = Some(now);
                w.insts[inst].busy = false;
                if rs.is_done() {
                    // Single-token output: request complete.
                    w.retire(inst, req, now);
                } else {
                    w.insts[inst].batch.push(req);
                    w.spans
                        .begin_phase(&mut w.tel, req, SpanKind::DecodeRound, "decode", now);
                }
                (inst, w.insts[inst].is_empty())
            }
            BTag::Step { inst } => {
                let inst = inst as usize;
                let mut batch = std::mem::take(&mut w.insts[inst].batch);
                for &r in &batch {
                    w.reqs.push_token(r, now);
                }
                batch.retain(|&req| {
                    let done = w.reqs[req.0 as usize].is_done();
                    if done {
                        w.retire(inst, req, now);
                    }
                    !done
                });
                let i = &mut w.insts[inst];
                i.batch = batch;
                i.busy = false;
                (inst, i.is_empty())
            }
        };
        w.kick(inst, q);
        self.sched.on_progress(w, inst, q);
        if emptied {
            self.sched.on_idle(w, inst, q);
        }
    }

    fn port(&mut self) -> &mut FabricPort<BTag> {
        &mut self.w.port
    }

    fn poll(&mut self, at: SimTime) {
        let w = &mut self.w;
        let reserved: u64 = w.insts.iter().map(|i| i.kv_reserved_tokens).sum();
        w.tel.metrics.set(w.g_kv_reserved, reserved as f64);
        w.ids.sample(
            &mut w.tel,
            at,
            w.reqs.completed,
            w.insts.iter().map(|i| i.prefill_q.len()).sum(),
            w.insts.iter().map(|i| i.batch.len()).sum(),
            w.insts.iter().filter_map(|i| i.current),
        );
    }

    fn telemetry(&mut self) -> &mut Telemetry {
        &mut self.w.tel
    }

    fn view(&self) -> &dyn AuditView {
        &self.w
    }

    fn clear_logs(&mut self) {
        self.w.reqs.clear_progress();
        self.w.port.fabric.clear_dirty_links();
    }

    fn finish(self, q: &Qq, audit: Option<&AuditReport>) -> RunResult {
        let mut w = self.w;
        let (completed, rejected) = (w.reqs.completed, w.reqs.rejected);
        w.tel.metrics.set_counter(w.c_rejected, rejected as u64);
        w.ids.finish(&mut w.tel, &w.reqs, &w.trace, q, audit);
        RunResult {
            outcomes: w.reqs.outcomes(&w.trace),
            horizon: w.trace.horizon,
            end_time: q.now(),
            breakdown: BreakdownAcc::new(),
            scale_latencies: Vec::new(),
            kv_sync_per_request: Vec::new(),
            frag_rows: Vec::new(),
            gpu_busy: w.port.gpu_busy(&w.topo),
            util_samples: w.util_samples,
            completed,
            rejected,
            total_requests: w.trace.len(),
            model_count: w.deploys.len(),
            scale_count: w.insts.iter().map(|i| i.switches).sum(),
            prefetch_hits: 0,
            swaps: 0,
            prefix_hits: 0,
            prefill_tokens_reused: 0,
            prefill_tokens_recomputed: 0,
            events: q.events_dispatched(),
            shard_windows: 0,
            schedule: TraceLog::disabled(),
            telemetry: w.tel,
            audit: None,
        }
    }
}

/// Read-only audit facade: the baselines share the same invariant suite as
/// Aegaeon (request conservation, token order, link conservation). KV here
/// is token-count reservations rather than block books, so the memory deep
/// check does not apply.
impl AuditView for World {
    fn requests(&self) -> &Requests {
        &self.reqs
    }

    fn link_audit(&self, all: bool) -> Option<String> {
        self.port.link_audit(all)
    }
}

/// Progress-log soundness for the baselines: [`Requests::progressed`] is what
/// lets the auditor check only logged requests.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Runs `world` under `sched` event by event, audited, and asserts that
    /// every request whose audited state (produced count, timestamp count,
    /// last stamp, done flag) changed across an event is in that event's
    /// progress log. Returns the result.
    pub(crate) fn assert_progress_logged<S: Scheduler>(world: World, sched: &mut S) -> RunResult {
        let state = |w: &World| -> Vec<_> {
            w.reqs
                .iter()
                .map(|r| {
                    let last = r.token_times.last().copied();
                    (r.produced, r.token_times.len(), last, r.is_done())
                })
                .collect()
        };
        let mut d = world.driver(sched, true);
        let mut last = state(&d.host.w);
        let mut changed = 0u64;
        while d.step() {
            let now = state(&d.host.w);
            for (i, (was, is)) in last.iter().zip(&now).enumerate() {
                if was != is {
                    assert!(
                        d.host.w.reqs.progressed().contains(&i),
                        "request {i} changed {was:?} -> {is:?} without a log entry"
                    );
                    changed += 1;
                }
            }
            last = now;
        }
        let (r, report) = d.finish();
        let report = report.expect("auditor installed");
        assert!(report.ok(), "{report}");
        let tokens: u64 = r.outcomes.iter().map(|o| o.token_times.len() as u64).sum();
        assert!(
            changed > 0 && changed <= tokens,
            "changed {changed}, tokens {tokens}"
        );
        assert_eq!(report.requests_checked, tokens + r.total_requests as u64);
        r
    }
}
