//! The serving runtime every system under comparison runs on.
//!
//! Aegaeon's [`ServingSystem`](crate::system::ServingSystem) and the
//! baselines' `World` are policies plugged into one simulator core (the
//! shape LLMServingSim uses): the same [`Driver`] pops their events, polls
//! telemetry, drains the fabric completions each event releases and runs
//! the auditor; the same [`FabricPort`] submits their stream ops, joins
//! multi-op completions and turns scale-up plans into fabric ops; and the
//! same [`SpanBook`] opens and closes request spans and retires finished
//! requests into the per-model latency sketches and the SLO observatory;
//! the same [`Requests`] table holds request state, the per-event progress
//! log and the completed/rejected/migrated counts; and every run reports
//! the same [`RunResult`]. Systems therefore differ only
//! in policy, never in how time, transfers, requests or telemetry are
//! accounted.

use std::collections::VecDeque;
use std::fmt::Display;
use std::ops::{Index, IndexMut};

use aegaeon_engine::{PerfModel, ScaleCost, ScaleStage};
use aegaeon_gpu::{
    ClusterSpec, ClusterTopology, Completion, EventId, Fabric, FabricEvent, GpuHandles, LinkId,
    StreamId, StreamOp,
};
use aegaeon_metrics::slo::score_tokens;
use aegaeon_metrics::RequestOutcome;
use aegaeon_model::ModelId;
use aegaeon_sim::{derive_seed, EventQueue, FxHashMap, Lift, SimDur, SimRng, SimTime, Timeline};
use aegaeon_telemetry::observatory::{SLO_SKETCH_ALPHA as SKETCH_ALPHA, SLO_WINDOW_NS};
use aegaeon_telemetry::{
    labeled, CounterId, GaugeId, KeyedValues, SketchId, SloObservatory, SpanId, SpanKind,
    Telemetry, TelemetrySpec, TrackId,
};
use aegaeon_workload::{RequestId, SloSpec, Trace};

use crate::audit::{AuditReport, AuditView, Auditor, InvariantAuditor};
use crate::reqstate::ReqState;
use crate::result::RunResult;

// ----- Event driver ---------------------------------------------------------

/// A serving loop the [`Driver`] runs: everything system-specific about
/// handling events and completions, computing gauges and building the
/// result.
pub trait Host {
    /// Top-level simulation event.
    type Ev;
    /// Fabric completion tag.
    type Tag: Clone;
    /// What a finished run produces.
    type Output;
    /// Handles one popped event.
    fn on_event(&mut self, ev: Self::Ev, q: &mut EventQueue<Self::Ev>);
    /// Handles one completed fabric op (or finished join).
    fn on_tag(&mut self, tag: Self::Tag, q: &mut EventQueue<Self::Ev>);
    /// The fabric the loop submits to.
    fn port(&mut self) -> &mut FabricPort<Self::Tag>;
    /// Computes every gauge from the current state. The driver samples
    /// the registry after it at each boundary; a live session calls it
    /// before its `/metrics` reads the registry.
    fn set_gauges(&mut self);
    /// The run's telemetry.
    fn telemetry(&mut self) -> &mut Telemetry;
    /// The read-only state the auditor checks.
    fn view(&self) -> &dyn AuditView;
    /// Empties the logs of what one event touched — the request table's
    /// progress log, the fabric's dirty links and the KV books' touch logs
    /// — which the driver does before each event.
    fn clear_logs(&mut self);
    /// Turns on the KV books' touch logs, which only the auditor reads:
    /// they record nothing until an auditor is installed.
    fn record_touches(&mut self) {}
    /// Brings work the host times itself rather than with events (decode
    /// steps) up to `until`; returns whether anything changed. The driver
    /// settles before a telemetry sample and at finish, a session before
    /// it hands tokens to sinks. Hosts whose work is all events keep the
    /// default.
    fn settle(&mut self, _until: SimTime) -> bool {
        false
    }
    /// Builds the result from the drained run, storing the auditor's
    /// report on it when one was installed.
    fn finish(self, q: &EventQueue<Self::Ev>, audit: Option<AuditReport>) -> Self::Output;
}

/// Runaway guard: a run stops once it has dispatched this many events.
const EVENT_CAP: u64 = 400_000_000;

/// Statistics sampling period (fragmentation, utilization) of both hosts.
pub const SAMPLE_PERIOD: SimDur = SimDur::from_secs(1);

/// The dispatch loop: pop, poll telemetry, handle, drain completions,
/// audit.
///
/// The auditor and the telemetry poller are observers: they never schedule
/// queue events and never touch state the host reads, so results are
/// bit-identical with either on or off. The poller runs before the event
/// and the auditor after it.
pub struct Driver<H: Host> {
    /// The loop being driven.
    pub host: H,
    /// Its event queue.
    pub q: EventQueue<H::Ev>,
    auditor: Option<Box<dyn Auditor + Send>>,
    hard_stop: SimTime,
    halted: bool,
}

impl<H: Host> Driver<H> {
    /// A driver for `host` that stops at the first event past `hard_stop`,
    /// with the standard invariant auditor installed when `audit` is set.
    pub fn new(host: H, hard_stop: SimTime, audit: bool) -> Self {
        let mut d = Driver {
            host,
            q: EventQueue::new(),
            auditor: None,
            hard_stop,
            halted: false,
        };
        if audit {
            d.install_auditor(Box::new(InvariantAuditor::new()));
        }
        d
    }

    /// Installs (or replaces) the auditor.
    pub(crate) fn install_auditor(&mut self, auditor: Box<dyn Auditor + Send>) {
        self.host.record_touches();
        self.auditor = Some(auditor);
    }

    /// True once the hard stop or the runaway cap halted the run.
    pub(crate) fn halted(&self) -> bool {
        self.halted
    }

    /// The host, its queue and the installed auditor's report so far
    /// (without the final sweep), for observers that read between steps.
    pub(crate) fn observe(&mut self) -> (&mut H, &EventQueue<H::Ev>, Option<&AuditReport>) {
        let audit = self.auditor.as_deref().map(|a| a.report());
        (&mut self.host, &self.q, audit)
    }

    /// Dispatches the next event. Returns false when the queue is empty or
    /// the run halted instead.
    pub fn step(&mut self) -> bool {
        let Some((t, ev)) = self.q.pop() else {
            return false;
        };
        if t > self.hard_stop || self.q.events_dispatched() > EVENT_CAP {
            self.halted = true;
            return false;
        }
        // After `step` returns, the logs hold exactly this event's changes,
        // and what the sampling below settled.
        self.host.clear_logs();
        // Sample boundaries derive from the popped timestamp, never from a
        // queue event, so enabling telemetry cannot change event counts.
        // They are drained before the event: the sample stamped `b` holds
        // the state after every event strictly before `b`.
        while let Some(at) = self.host.telemetry().sample_due(t) {
            let before = SimTime::from_nanos(at.as_nanos().saturating_sub(1));
            self.host.settle(before);
            self.host.set_gauges();
            self.host.telemetry().metrics.sample(at);
        }
        self.host.on_event(ev, &mut self.q);
        while let Some(tag) = self.host.port().pop() {
            self.host.on_tag(tag, &mut self.q);
        }
        if let Some(a) = self.auditor.as_deref_mut() {
            a.after_event(self.q.now(), self.host.view());
        }
        true
    }

    /// Steps until the queue drains or the run halts, then finishes.
    pub fn run(mut self) -> H::Output {
        while self.step() {}
        self.finish()
    }

    /// Settles the host up to `until` between events, audited like an
    /// event: what it settles is checked as if an event had produced it.
    pub(crate) fn settle(&mut self, until: SimTime) {
        self.host.clear_logs();
        if self.host.settle(until) {
            if let Some(a) = self.auditor.as_deref_mut() {
                a.after_event(until.max(self.q.now()), self.host.view());
            }
        }
    }

    /// Ends the run: the host settled up to its last event (or the hard
    /// stop), the auditor's final sweep, then the host's result, which
    /// holds the auditor's report.
    pub fn finish(mut self) -> H::Output {
        self.settle(self.q.now().min(self.hard_stop));
        let report = self.auditor.take().map(|mut a| {
            a.at_finish(self.q.now(), self.host.view());
            a.take_report()
        });
        self.host.finish(&self.q, report)
    }
}

/// Passes an optionally audited run's result through, panicking with its
/// report and `repro` (the parameters that reproduce the run) on any
/// violation.
pub fn checked(result: RunResult, repro: impl Display) -> RunResult {
    if let Some(report) = &result.audit {
        assert!(
            report.ok(),
            "invariant violation (reproduce with {repro}):\n{report}"
        );
    }
    result
}

// ----- Fabric port ----------------------------------------------------------

/// A fabric completion tag: the caller's tag plus, for one of several ops
/// that complete together, the join it counts down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Joined<T> {
    tag: T,
    join: Option<u64>,
}

impl<T> From<T> for Joined<T> {
    fn from(tag: T) -> Self {
        Joined { tag, join: None }
    }
}

/// The fabric as a serving loop drives it: submissions, the completions
/// they release, and joins that turn several ops (one per GPU of a TP
/// group, or every stage of a scale-up) into one completion.
#[derive(Debug)]
pub struct FabricPort<T> {
    /// The fabric (queries, link statistics, extra streams).
    pub fabric: Fabric<Joined<T>>,
    /// Completions released and not yet popped: every fabric call appends
    /// to this one buffer, so none allocates its own.
    ready: VecDeque<Completion<Joined<T>>>,
    /// Ops still outstanding per live join.
    joins: FxHashMap<u64, u32>,
    next_join: u64,
}

impl<T: Clone> FabricPort<T> {
    /// A port over a fresh fabric holding `cluster`'s links and streams.
    pub fn build(cluster: &ClusterSpec) -> (FabricPort<T>, ClusterTopology) {
        let mut fabric = Fabric::new();
        let topo = ClusterTopology::build(cluster, &mut fabric);
        let port = FabricPort {
            fabric,
            ready: VecDeque::new(),
            joins: FxHashMap::default(),
            next_join: 0,
        };
        (port, topo)
    }

    /// The tag for each of `parts` ops that complete together as `tag`
    /// (a plain tag when `parts <= 1`).
    pub fn join(&mut self, parts: usize, tag: T) -> Joined<T> {
        if parts <= 1 {
            return tag.into();
        }
        let id = self.next_join;
        self.next_join += 1;
        self.joins.insert(id, parts as u32);
        Joined {
            tag,
            join: Some(id),
        }
    }

    /// Submits `op` to `lane`.
    pub(crate) fn submit<E: From<FabricEvent>>(
        &mut self,
        lane: StreamId,
        op: StreamOp<Joined<T>>,
        q: &mut EventQueue<E>,
    ) {
        let tl = &mut Lift::new(q, E::from);
        self.fabric.submit(lane, op, tl, &mut self.ready);
    }

    /// `cudaEventRecord` on `lane`.
    pub(crate) fn record_event<E: From<FabricEvent>>(
        &mut self,
        lane: StreamId,
        q: &mut EventQueue<E>,
    ) -> EventId {
        let tl = &mut Lift::new(q, E::from);
        self.fabric.record_event(lane, tl, &mut self.ready)
    }

    /// `cudaStreamWaitEvent` on `lane`.
    pub(crate) fn wait_event<E: From<FabricEvent>>(
        &mut self,
        lane: StreamId,
        ev: EventId,
        q: &mut EventQueue<E>,
    ) {
        let tl = &mut Lift::new(q, E::from);
        self.fabric.wait_event(lane, ev, tl, &mut self.ready);
    }

    /// Handles a fabric event popped from the queue.
    pub fn advance<E: From<FabricEvent>>(&mut self, fe: FabricEvent, q: &mut EventQueue<E>) {
        let tl = &mut Lift::new(q, E::from);
        self.fabric.advance(fe, tl, &mut self.ready);
    }

    /// Runs the same compute on every lane of a TP group; `tag` completes
    /// once all shards have.
    pub fn compute_all<E: From<FabricEvent>>(
        &mut self,
        lanes: impl ExactSizeIterator<Item = StreamId>,
        dur: SimDur,
        tag: T,
        q: &mut EventQueue<E>,
    ) {
        let tag = self.join(lanes.len(), tag);
        for lane in lanes {
            let tag = tag.clone();
            self.submit(lane, StreamOp::Compute { dur, tag }, q);
        }
    }

    /// Submits a scale-up plan's stages on `lane` of GPU `h`, each tagged
    /// `tag` (a join over every stage of every lane of the instance).
    pub fn submit_stages<E: From<FabricEvent>>(
        &mut self,
        lane: StreamId,
        h: &GpuHandles,
        stages: &[ScaleStage],
        tag: &Joined<T>,
        q: &mut EventQueue<E>,
    ) {
        for st in stages {
            let tag = tag.clone();
            let op = match st.cost {
                ScaleCost::Fixed(dur) => StreamOp::Compute { dur, tag },
                ScaleCost::HostLoad { bytes, efficiency } => StreamOp::Copy {
                    link: h.h2d,
                    bytes: (bytes as f64 / efficiency) as u64,
                    tag,
                },
                ScaleCost::DeviceCopy { bytes } => StreamOp::Compute {
                    dur: SimDur::from_secs_f64(bytes as f64 / h.spec.device_copy_bw()),
                    tag,
                },
            };
            self.submit(lane, op, q);
        }
    }

    /// The next completed tag, in release order; a join yields its tag
    /// when its last op completes.
    pub(crate) fn pop(&mut self) -> Option<T> {
        while let Some(c) = self.ready.pop_front() {
            let Completion::Op { tag, .. } = c else {
                continue;
            };
            let Some(id) = tag.join else {
                return Some(tag.tag);
            };
            let left = self.joins.get_mut(&id).expect("live join");
            *left -= 1;
            if *left == 0 {
                self.joins.remove(&id);
                return Some(tag.tag);
            }
        }
        None
    }

    /// Compute-busy seconds of every GPU's default stream.
    pub fn gpu_busy(&self, topo: &ClusterTopology) -> Vec<f64> {
        topo.gpu_ids()
            .map(|g| {
                self.fabric
                    .stream_compute_busy(topo.gpu(g).default_stream)
                    .as_secs_f64()
            })
            .collect()
    }

    /// Bandwidth conservation (the auditor's link check) on every link
    /// when `all`, else on the links the last event touched.
    pub fn link_audit(&self, all: bool) -> Option<String> {
        if all {
            (0..self.fabric.link_count()).find_map(|l| self.fabric.link(LinkId(l as u32)).audit())
        } else {
            self.fabric
                .dirty_links()
                .find_map(|l| self.fabric.link(l).audit())
        }
    }
}

// ----- Lazy decode run ----------------------------------------------------------

/// One instance's lazy decode run (DESIGN §3.1), the record both serving
/// loops embed: decode steps are no fabric ops and no events. The loop
/// starts a step, lays out the steps after it with [`DecodeRun::plan`] and
/// schedules one wake at the end of the last; before anything reads or
/// changes the instance, [`DecodeRun::hand_over`] moves past each step that
/// ended, and the wake takes the plan's last with [`DecodeRun::take_last`].
///
/// Its noise stream is the instance's own, so its steps draw in step order
/// whatever the other instances do, and the factors are drawn ahead of the
/// steps that use them, the next step's first. Every model's steps share
/// one noise law, so a factor drawn while planning one run serves
/// whichever step comes next.
#[derive(Debug)]
pub struct DecodeRun {
    rng: SimRng,
    ahead: VecDeque<f64>,
    /// The step in flight: its start, duration and the batch's summed
    /// context as it was issued.
    step: Option<(SimTime, SimDur, u64)>,
    /// Durations of the steps planned after it, in order; the run's wake
    /// fires at the end of the last.
    planned: VecDeque<SimDur>,
    /// Sequence number of the live wake; older wakes are stale.
    wake: u64,
    /// End of the last step that started (a halted run's end may be it).
    step_end: SimTime,
}

impl DecodeRun {
    /// The idle run of instance `inst` in a run seeded `seed`.
    pub fn new(seed: u64, inst: u64) -> DecodeRun {
        DecodeRun {
            rng: SimRng::seed_from_u64(derive_seed(seed, inst)),
            ahead: VecDeque::new(),
            step: None,
            planned: VecDeque::new(),
            wake: 0,
            step_end: SimTime::ZERO,
        }
    }

    /// The factor of the step `k` steps after the next one, drawn when
    /// first needed.
    pub fn factor(&mut self, k: usize, perf: &PerfModel) -> f64 {
        while self.ahead.len() <= k {
            self.ahead.push_back(perf.step_noise(&mut self.rng));
        }
        self.ahead[k]
    }

    /// Starts a step of `dur` over `ctx` tokens of context at `now`, with
    /// no plan after it yet. Its factor is [`DecodeRun::factor`]`(0)`.
    pub fn start(&mut self, now: SimTime, dur: SimDur, ctx: u64) {
        debug_assert!(self.step.is_none(), "a step already in flight");
        self.step = Some((now, dur, ctx));
        self.started(now + dur);
    }

    /// Notes that a step ending at `end` started on some of the
    /// instance's GPUs.
    pub(crate) fn started(&mut self, end: SimTime) {
        self.step_end = end;
    }

    /// The step in flight: its start, duration and context.
    pub fn step(&self) -> Option<(SimTime, SimDur, u64)> {
        self.step
    }

    /// When the step in flight ends.
    pub(crate) fn end(&self) -> Option<SimTime> {
        self.step.map(|(start, dur, _)| start + dur)
    }

    /// How many steps are planned after the one in flight.
    pub fn planned(&self) -> usize {
        self.planned.len()
    }

    /// Plans one more step, of `dur`, after the plan's last.
    pub fn plan(&mut self, dur: SimDur) {
        debug_assert!(self.step.is_some(), "a plan without a step in flight");
        self.planned.push_back(dur);
    }

    /// Cuts the plan at the step in flight. Returns that step's end if
    /// steps were planned after it, for the wake that ends the run there.
    pub fn cut(&mut self) -> Option<SimTime> {
        if self.planned.is_empty() {
            return None;
        }
        self.planned.clear();
        self.end()
    }

    /// Schedules-or-skips the run's wake at `end`: any wake before goes
    /// stale, and a step ending past `hard_stop` never completes, so it
    /// gets none. Returns the new wake's sequence number, for the loop to
    /// schedule its own wake event with.
    pub fn wake(&mut self, end: SimTime, hard_stop: SimTime) -> Option<u64> {
        self.wake += 1;
        (end <= hard_stop).then_some(self.wake)
    }

    /// True if the wake numbered `seq` was superseded by a later one.
    pub fn is_stale(&self, seq: u64) -> bool {
        self.wake != seq
    }

    /// If the step in flight ended by `now` and is not the plan's last
    /// (which its wake takes), hands over to the next planned step: it
    /// starts as the ended one ends, over `grow` more tokens of context.
    /// Returns the ended step's start and duration; the loop applies it
    /// and charges the next.
    pub fn hand_over(&mut self, now: SimTime, grow: u64) -> Option<(SimTime, SimDur)> {
        let (start, dur, ctx) = self.step?;
        let end = start + dur;
        if end > now {
            return None;
        }
        let next = self.planned.pop_front()?;
        self.ahead.pop_front();
        self.step = Some((end, next, ctx + grow));
        self.started(end + next);
        Some((start, dur))
    }

    /// Takes the plan's last step, which its wake says ended at `now`, and
    /// leaves the run idle. Returns the step's start and duration.
    pub fn take_last(&mut self, now: SimTime) -> (SimTime, SimDur) {
        let (start, dur, _) = self.step.take().expect("step in flight");
        debug_assert!(
            self.planned.is_empty(),
            "the wake fired before the plan's last step"
        );
        debug_assert_eq!(start + dur, now, "the plan's last step ends at its wake");
        self.ahead.pop_front();
        (start, dur)
    }

    /// When a serving run ends whose queue stopped at `now` and whose last
    /// real event was at `last`: `last`, unless it halted past
    /// `hard_stop`. A halted run ends at the first completion past the
    /// hard stop, the end of a step started on any of `runs` among them.
    pub fn end_time<'a>(
        runs: impl IntoIterator<Item = &'a DecodeRun>,
        hard_stop: SimTime,
        now: SimTime,
        last: SimTime,
    ) -> SimTime {
        if now <= hard_stop {
            return last;
        }
        let ends = runs.into_iter().map(|r| r.step_end);
        ends.filter(|&e| e > hard_stop).fold(now, SimTime::min)
    }
}

// ----- Requests ---------------------------------------------------------------

/// Every request a serving loop has admitted, indexed by request id, with
/// the accounting every loop shares: the requests that produced a token
/// during the current event, and how many requests are resolved. The
/// sample loops stop ticking and the auditor's conservation checks close
/// on the same [`Requests::unresolved`] count.
#[derive(Debug, Default)]
pub struct Requests {
    states: Vec<ReqState>,
    /// Each token produced during the current event: its request's index
    /// and its instant. [`Driver::step`] clears it before each dispatch, so
    /// it never holds more than one event's progress.
    progressed: Vec<(usize, SimTime)>,
    /// Requests that produced every token.
    pub completed: usize,
    /// Requests turned away for good at admission (MuxServe's unplaced
    /// models).
    pub rejected: usize,
    /// Requests handed off to another shard after a total tier loss
    /// (sharded runs only). A migrated request is locally resolved
    /// without completing.
    pub migrated: usize,
}

impl Requests {
    /// Fresh state for every request of `trace`.
    pub fn new(trace: &Trace) -> Requests {
        Requests {
            states: trace.requests.iter().map(ReqState::from_request).collect(),
            ..Requests::default()
        }
    }

    /// Admits one more request (a live or migrated arrival).
    pub(crate) fn push(&mut self, rs: ReqState) {
        self.states.push(rs);
    }

    /// Requests admitted so far.
    pub(crate) fn len(&self) -> usize {
        self.states.len()
    }

    /// Every request's state, in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, ReqState> {
        self.states.iter()
    }

    /// Requests neither completed, rejected nor migrated. A request that
    /// has not arrived yet is unresolved, so a loop with none left has no
    /// future work.
    pub fn unresolved(&self) -> usize {
        self.states
            .len()
            .saturating_sub(self.completed + self.rejected + self.migrated)
    }

    /// Summed context length of a decode batch's requests.
    pub fn ctx_tokens(&self, batch: &[RequestId]) -> u64 {
        batch
            .iter()
            .map(|r| self.states[r.0 as usize].ctx_tokens() as u64)
            .sum()
    }

    /// Produces one token of request `req` at `t` and logs it. Every
    /// serving loop produces tokens only through here, so no token can
    /// escape the auditor's per-event request check.
    pub fn push_token(&mut self, req: RequestId, t: SimTime) {
        let i = req.0 as usize;
        self.states[i].push_token(t);
        self.progressed.push((i, t));
    }

    /// The tokens produced during the last dispatched event, in production
    /// order: each one's request and instant. A request missing here kept
    /// its audited state across the event.
    pub fn progressed(&self) -> &[(usize, SimTime)] {
        &self.progressed
    }

    /// Empties the progress log.
    pub fn clear_progress(&mut self) {
        self.progressed.clear();
    }

    /// Per-request outcomes in `trace` order. Each request's token times
    /// move into its outcome, leaving the state's vector empty.
    pub fn outcomes(&mut self, trace: &Trace) -> Vec<RequestOutcome> {
        trace
            .requests
            .iter()
            .map(|r| {
                let rs = &mut self.states[r.id.0 as usize];
                RequestOutcome {
                    id: r.id,
                    model: r.model,
                    arrival: rs.arrival,
                    token_times: std::mem::take(&mut rs.token_times),
                    target_tokens: r.output_tokens,
                }
            })
            .collect()
    }
}

impl Index<usize> for Requests {
    type Output = ReqState;

    fn index(&self, i: usize) -> &ReqState {
        &self.states[i]
    }
}

impl IndexMut<usize> for Requests {
    fn index_mut(&mut self, i: usize) -> &mut ReqState {
        &mut self.states[i]
    }
}

// ----- Request telemetry --------------------------------------------------------

/// Instruments every serving loop registers, ahead of its own (null ids
/// when telemetry is off, making every hot-path op a single branch).
#[derive(Debug)]
pub struct CoreIds {
    /// Model switches started.
    pub c_switches: CounterId,
    c_completed: CounterId,
    c_events_dispatched: CounterId,
    c_audit_checks: CounterId,
    c_audit_violations: CounterId,
    g_prefill_queue_depth: GaugeId,
    g_decode_work: GaugeId,
    g_active_models: GaugeId,
    /// Requests per decode batch (per Aegaeon turn, per baseline step).
    pub s_batch_size: SketchId,
    /// Per-model TTFT/TBT quantile sketches, fed at retirement.
    s_ttft: Vec<SketchId>,
    s_tbt: Vec<SketchId>,
    /// Per-model cumulative SLO attainment, set with the other gauges and
    /// at finish.
    g_slo_attain: Vec<GaugeId>,
    /// Latency of individual session turns (arrival → last token).
    s_session_turn: SketchId,
    /// One bit per model: scratch for counting distinct resident models.
    resident: Vec<u64>,
}

impl CoreIds {
    /// Telemetry for a run over `n_models` models: the registry holding the
    /// core instruments, plus the SLO observatory when enabled.
    pub fn telemetry(spec: &TelemetrySpec, n_models: usize) -> (Telemetry, CoreIds) {
        let mut tel = Telemetry::new(spec);
        if tel.is_enabled() {
            tel.slo = SloObservatory::new(n_models, SLO_WINDOW_NS);
        }
        let reg = &mut tel.metrics;
        let mut s_ttft = Vec::with_capacity(n_models);
        let mut s_tbt = Vec::with_capacity(n_models);
        let mut g_slo_attain = Vec::with_capacity(n_models);
        for m in 0..n_models {
            let model = ModelId(m as u32).to_string();
            s_ttft.push(reg.sketch(&labeled("ttft_seconds", "model", &model), SKETCH_ALPHA));
            s_tbt.push(reg.sketch(&labeled("tbt_seconds", "model", &model), SKETCH_ALPHA));
            g_slo_attain.push(reg.gauge(&labeled("slo_attainment", "model", &model)));
        }
        let ids = CoreIds {
            c_switches: reg.counter("switches"),
            c_completed: reg.counter("completed_requests"),
            c_events_dispatched: reg.counter("events_dispatched"),
            c_audit_checks: reg.counter("audit_checks"),
            c_audit_violations: reg.counter("audit_violations"),
            g_prefill_queue_depth: reg.gauge("prefill_queue_depth"),
            g_decode_work: reg.gauge("decode_work_requests"),
            g_active_models: reg.gauge("active_models"),
            s_batch_size: reg.sketch("batch_size", SKETCH_ALPHA),
            s_ttft,
            s_tbt,
            g_slo_attain,
            s_session_turn: reg.sketch("session_turn_latency_seconds", SKETCH_ALPHA),
            resident: vec![0; n_models.div_ceil(64)],
        };
        (tel, ids)
    }

    /// Sets the gauges every loop reports — completions, queued prefills,
    /// decoding requests, distinct resident models, per-model attainment.
    pub fn set_gauges(
        &mut self,
        tel: &mut Telemetry,
        completed: usize,
        queued: usize,
        decoding: usize,
        resident: impl Iterator<Item = ModelId>,
    ) {
        self.resident.fill(0);
        let mut models = 0u32;
        for m in resident {
            let (word, bit) = (m.0 as usize / 64, 1u64 << (m.0 % 64));
            models += u32::from(self.resident[word] & bit == 0);
            self.resident[word] |= bit;
        }
        self.set_attainment(tel);
        let m = &mut tel.metrics;
        m.set_counter(self.c_completed, completed as u64);
        m.set(self.g_prefill_queue_depth, queued as f64);
        m.set(self.g_decode_work, decoding as f64);
        m.set(self.g_active_models, f64::from(models));
    }

    /// Sets each model's `slo_attainment` gauge from the observatory.
    fn set_attainment(&self, tel: &mut Telemetry) {
        for (mi, &g) in self.g_slo_attain.iter().enumerate() {
            let v = tel.slo.attainment(mi);
            tel.metrics.set(g, v);
        }
    }

    /// Ends the run at `end`: adds every request of `trace` that never
    /// retired to the SLO observatory, writes the run-level counters
    /// (completions, dispatched events, audit checks and violations) and
    /// closes the telemetry. Hosts write their own counters first.
    ///
    /// Rejected, starved and cut-off requests are scored against
    /// `trace.horizon`, the horizon the offline figure uses, so the
    /// observatory's cumulative rows and the final `slo_attainment` gauges
    /// equal [`aegaeon_metrics::slo::attainment_per_model`]. A migrated
    /// request belongs to the shard it moved to.
    pub fn finish<E>(
        &self,
        tel: &mut Telemetry,
        reqs: &Requests,
        trace: &Trace,
        q: &EventQueue<E>,
        end: SimTime,
        audit: Option<&AuditReport>,
    ) {
        if tel.is_enabled() {
            let slo = SloSpec::paper_default();
            for r in &trace.requests {
                let rs = &reqs[r.id.0 as usize];
                if rs.is_done() || rs.migrated {
                    continue;
                }
                let s = score_tokens(
                    rs.arrival,
                    &rs.token_times,
                    rs.target_tokens,
                    slo,
                    trace.horizon,
                );
                tel.slo.observe_unfinished(r.model.0, s.tokens, s.met);
            }
            self.set_attainment(tel);
        }
        tel.metrics.set_counter(self.c_completed, reqs.completed as u64);
        self.set_run_counters(tel, q, audit);
        tel.finish(end);
    }

    /// Writes the run-level counters: dispatched events and, when audited,
    /// the auditor's checks and violations. A closed run writes them once,
    /// at finish; a live session also before each `/metrics` read.
    pub(crate) fn set_run_counters<E>(
        &self,
        tel: &mut Telemetry,
        q: &EventQueue<E>,
        audit: Option<&AuditReport>,
    ) {
        let m = &mut tel.metrics;
        m.set_counter(self.c_events_dispatched, q.events_dispatched());
        if let Some(rep) = audit {
            m.set_counter(self.c_audit_checks, rep.events_checked);
            m.set_counter(self.c_audit_violations, rep.violations.len() as u64);
        }
    }
}

/// One request's open spans.
#[derive(Debug, Clone, Copy)]
struct Open {
    /// The request's track, which its root and every phase record on.
    track: TrackId,
    /// Whole-lifetime root span.
    root: SpanId,
    /// The open phase (queue wait, prefill, decode round).
    phase: SpanId,
    /// Decision that placed the next phase; consumed as its cause link.
    cause: SpanId,
}

const CLOSED: Open = Open {
    track: TrackId::NONE,
    root: SpanId::NONE,
    phase: SpanId::NONE,
    cause: SpanId::NONE,
};

/// Per-request span handles and the retirement hook. Every method is one
/// branch when telemetry is off; none touches state the simulation reads.
/// The handles exist only while the span log is on; retirement feeds the
/// instruments whenever they are on.
#[derive(Debug)]
pub struct SpanBook {
    open: Vec<Open>,
    /// Inter-token gaps scratch, reused across retirements: keyed once for
    /// the model's `tbt_seconds` sketch and the observatory's window.
    tbt: KeyedValues,
}

impl SpanBook {
    /// Handles for `requests` requests (none when spans are off).
    pub fn new(tel: &Telemetry, requests: usize) -> SpanBook {
        let n = if tel.spans.is_enabled() { requests } else { 0 };
        SpanBook {
            open: vec![CLOSED; n],
            tbt: KeyedValues::new(SKETCH_ALPHA),
        }
    }

    /// Makes room for one more request (a live or migrated arrival).
    pub(crate) fn push(&mut self, tel: &Telemetry) {
        if tel.spans.is_enabled() {
            self.open.push(CLOSED);
        }
    }

    /// The request's root span ([`SpanId::NONE`] when spans are off or the
    /// request retired).
    pub(crate) fn root(&self, req: RequestId) -> SpanId {
        self.open
            .get(req.0 as usize)
            .map_or(SpanId::NONE, |o| o.root)
    }

    /// Sets the cause link of the request's next phase.
    pub(crate) fn set_cause(&mut self, req: RequestId, cause: SpanId) {
        if let Some(o) = self.open.get_mut(req.0 as usize) {
            o.cause = cause;
        }
    }

    /// Opens the request's root span at arrival.
    pub fn arrive(&mut self, tel: &mut Telemetry, req: RequestId, model: ModelId, now: SimTime) {
        if !tel.spans.is_enabled() {
            return;
        }
        let i = req.0 as usize;
        let track = tel
            .spans
            .track(&mut self.open[i].track, || format!("req{i}"));
        self.open[i].root = tel.spans.start_on(
            track,
            SpanKind::Request,
            now,
            SpanId::NONE,
            SpanId::NONE,
            || format!("req{i}:{model}"),
        );
    }

    /// Opens a new phase under the request's root, force-closing the
    /// previous one (phases end at re-dispatch after failover or
    /// preemption rather than at a clean boundary), and consumes the
    /// pending cause.
    pub fn begin_phase(
        &mut self,
        tel: &mut Telemetry,
        req: RequestId,
        kind: SpanKind,
        label: &'static str,
        now: SimTime,
    ) {
        if !tel.spans.is_enabled() {
            return;
        }
        let i = req.0 as usize;
        let track = tel
            .spans
            .track(&mut self.open[i].track, || format!("req{i}"));
        let o = self.open[i];
        tel.spans.end(o.phase, now);
        self.open[i] = Open {
            phase: tel
                .spans
                .start_on(track, kind, now, o.root, o.cause, || label),
            cause: SpanId::NONE,
            ..o
        };
    }

    /// Ends the request's open phase, if any.
    pub(crate) fn end_phase(&mut self, tel: &mut Telemetry, req: RequestId, now: SimTime) {
        if !tel.spans.is_enabled() {
            return;
        }
        let phase = std::mem::replace(&mut self.open[req.0 as usize].phase, SpanId::NONE);
        tel.spans.end(phase, now);
    }

    /// Ends the phase and root spans of a request leaving the system.
    pub fn close(&mut self, tel: &mut Telemetry, req: RequestId, now: SimTime) {
        if !tel.spans.is_enabled() {
            return;
        }
        let o = std::mem::replace(&mut self.open[req.0 as usize], CLOSED);
        tel.spans.end(o.phase, now);
        tel.spans.end(o.root, now);
    }

    /// Retires a completed request: closes its spans and feeds the
    /// per-model TTFT/TBT sketches and the SLO observatory. Retirement is
    /// the only moment all token timings are final, so every latency
    /// figure is fed from this one site.
    pub fn retire(
        &mut self,
        tel: &mut Telemetry,
        ids: &CoreIds,
        req: RequestId,
        model: ModelId,
        rs: &ReqState,
        now: SimTime,
    ) {
        if !tel.is_enabled() {
            return;
        }
        self.close(tel, req, now);
        self.tbt.clear();
        self.tbt
            .extend(rs.token_times.gaps().map(|g| g.as_secs_f64()));
        let ttft = rs
            .token_times
            .first()
            .map_or(f64::NAN, |t| t.saturating_since(rs.arrival).as_secs_f64());
        let mi = model.0 as usize;
        tel.metrics.observe_sketch(ids.s_ttft[mi], ttft);
        tel.metrics.observe_sketch_keyed(ids.s_tbt[mi], &self.tbt);
        let s = score_tokens(
            rs.arrival,
            &rs.token_times,
            rs.target_tokens,
            SloSpec::paper_default(),
            now,
        );
        tel.slo
            .observe_request(now.as_nanos(), model.0, ttft, &self.tbt, s.tokens, s.met);
        // Each session turn is its own request, so think gaps never enter
        // the TBT figures above; turns also feed the agentic lens.
        if rs.session.is_some() {
            let turn_latency = now.saturating_since(rs.arrival).as_secs_f64();
            tel.metrics.observe_sketch(ids.s_session_turn, turn_latency);
            tel.slo.observe_turn(
                now.as_nanos(),
                model.0,
                rs.turn_index,
                turn_latency,
                rs.prefix_hit,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegaeon_gpu::NodeSpec;
    use aegaeon_telemetry::expand;

    fn ms(n: u64) -> SimDur {
        SimDur::from_millis(n)
    }

    fn at(n: u64) -> SimTime {
        SimTime::ZERO + ms(n)
    }

    /// A run whose step in flight runs 0-10 ms over 100 tokens of
    /// context, with steps of 20 and 30 ms planned after it.
    fn run_of_three() -> DecodeRun {
        let mut run = DecodeRun::new(1, 0);
        run.start(SimTime::ZERO, ms(10), 100);
        run.plan(ms(20));
        run.plan(ms(30));
        run
    }

    #[test]
    fn a_handover_applies_only_ended_steps_and_never_the_plans_last() {
        let mut run = run_of_three();
        assert_eq!(
            run.hand_over(at(9), 4),
            None,
            "the step in flight runs to 10 ms"
        );
        assert_eq!(run.hand_over(at(10), 4), Some((at(0), ms(10))));
        assert_eq!(run.step(), Some((at(10), ms(20), 104)));
        assert_eq!(run.hand_over(at(100), 4), Some((at(10), ms(20))));
        assert_eq!(
            run.hand_over(at(100), 4),
            None,
            "the plan's last is its wake's"
        );
        assert_eq!(
            (run.step(), run.planned()),
            (Some((at(30), ms(30), 108)), 0)
        );
        assert_eq!(run.take_last(at(60)), (at(30), ms(30)));
        assert_eq!(run.step(), None);
    }

    #[test]
    fn a_cut_stales_the_old_wake_and_ends_with_the_step_in_flight() {
        let (mut run, hard_stop) = (run_of_three(), at(1000));
        let old = run
            .wake(at(60), hard_stop)
            .expect("a wake before the hard stop");
        assert!(!run.is_stale(old));
        let end = run
            .cut()
            .expect("steps were planned after the one in flight");
        assert_eq!((end, run.planned()), (at(10), 0));
        let new = run
            .wake(end, hard_stop)
            .expect("a wake before the hard stop");
        assert!(run.is_stale(old) && !run.is_stale(new));
        assert_eq!(run.cut(), None, "nothing is left to cut");
    }

    #[test]
    fn no_wake_is_scheduled_past_the_hard_stop() {
        let mut run = run_of_three();
        let old = run.wake(at(60), at(60)).expect("a wake at the hard stop");
        assert_eq!(run.wake(at(61), at(60)), None);
        assert!(
            run.is_stale(old),
            "a skipped wake still supersedes the old one"
        );
    }

    #[test]
    fn a_halted_run_ends_at_the_first_step_end_past_the_hard_stop() {
        let hard_stop = at(50);
        let mut runs: Vec<DecodeRun> = (0..3).map(|i| DecodeRun::new(1, i)).collect();
        runs[0].start(at(40), ms(5), 1);
        runs[1].start(at(45), ms(20), 1);
        // The step ending at 58 ms started at a handover.
        runs[2].start(at(30), ms(10), 1);
        runs[2].plan(ms(18));
        runs[2].hand_over(at(50), 1);
        let end = |now, last| DecodeRun::end_time(&runs, hard_stop, now, last);
        assert_eq!(end(at(70), at(49)), at(58));
        assert_eq!(end(at(55), at(49)), at(55), "the first event past the stop");
        assert_eq!(end(at(50), at(49)), at(49), "a run that did not halt");
    }

    /// A host whose whole state is one gauge level that each event sets.
    struct Level {
        level: f64,
        gauge: GaugeId,
        tel: Telemetry,
        port: FabricPort<()>,
        reqs: Requests,
    }

    impl AuditView for Level {
        fn requests(&self) -> &Requests {
            &self.reqs
        }
    }

    impl Host for Level {
        type Ev = f64;
        type Tag = ();
        type Output = Telemetry;
        fn on_event(&mut self, level: f64, _: &mut EventQueue<f64>) {
            self.level = level;
        }
        fn on_tag(&mut self, _: (), _: &mut EventQueue<f64>) {}
        fn port(&mut self) -> &mut FabricPort<()> {
            &mut self.port
        }
        fn set_gauges(&mut self) {
            self.tel.metrics.set(self.gauge, self.level);
        }
        fn telemetry(&mut self) -> &mut Telemetry {
            &mut self.tel
        }
        fn view(&self) -> &dyn AuditView {
            self
        }
        fn clear_logs(&mut self) {}
        fn finish(mut self, q: &EventQueue<f64>, _: Option<AuditReport>) -> Telemetry {
            self.tel.metrics.set(self.gauge, self.level);
            self.tel.finish(q.now());
            self.tel
        }
    }

    /// The sample stamped `b` holds the state after every event strictly
    /// before `b`: neither an event 1 ns past `b`, which triggers the
    /// sample, nor an event at exactly `b` is in it.
    #[test]
    fn a_sample_holds_only_events_before_its_instant() {
        let every = SimDur::from_millis(100);
        let mut tel = Telemetry::new(&TelemetrySpec::with_sample_every(every));
        let gauge = tel.metrics.gauge("level");
        let cluster = ClusterSpec::homogeneous(1, NodeSpec::h800_node());
        let host = Level {
            level: 0.0,
            gauge,
            tel,
            port: FabricPort::build(&cluster).0,
            reqs: Requests::default(),
        };
        let mut d = Driver::new(host, SimTime::from_secs_f64(1.0), false);
        let b = SimTime::ZERO + every;
        d.q.schedule_at(SimTime::ZERO, 1.0);
        d.q.schedule_at(b + SimDur::from_nanos(1), 2.0);
        d.q.schedule_at(b + every, 3.0);
        let tel = d.run();
        let (_, points) = tel.metrics.gauge_series().next().expect("level");
        let dense = expand(points, every, tel.metrics.samples_taken());
        let at: Vec<u64> = dense.iter().map(|p| p.at.as_nanos()).collect();
        let level: Vec<f64> = dense.iter().map(|p| p.value).collect();
        let ns = every.as_nanos();
        assert_eq!(at, [0, ns, 2 * ns, 2 * ns], "three samples and the final point");
        assert_eq!(level, [0.0, 1.0, 2.0, 3.0]);
    }
}
