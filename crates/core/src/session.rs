//! Incremental serving sessions: the open-system stepping driver.
//!
//! [`ServingSystem::run`] historically owned its whole dispatch loop: build
//! the queue, pop until drained, return the [`RunResult`]. A live gateway
//! needs the same machinery but *incrementally* — advance simulated time up
//! to a wall-clock deadline, accept requests injected from other threads in
//! between, and stream produced tokens back out. [`ServingSession`] is that
//! refactor: it steps the runtime's [`Driver`] (the one dispatch loop the
//! baselines run on too) for both the closed (batch) path and the open
//! (live) path, so the batch path cannot drift from the live one.
//!
//! # Modes
//!
//! * **Closed** ([`ServingSession::closed`]): the whole trace is scheduled
//!   up front and `step_until(SimTime::MAX)` reproduces the historical
//!   run-to-completion loop bit for bit.
//! * **Open** ([`ServingSession::open`]): the session starts with an empty
//!   trace and requests arrive through a thread-safe
//!   [`Injector`]. The injection port stamps each
//!   request with a strictly increasing, strictly future simulated arrival
//!   and only releases it at a pop boundary where the stamp precedes every
//!   queued event, so injection can never reorder history.
//!
//! # Determinism argument
//!
//! An open session records every admitted request (stamp, model, lengths)
//! in arrival order. Replaying that recording through a fresh open session
//! ([`ServingSession::replay`]) pumps the same stamps through the same
//! admission rule against the same event-queue evolution, so every pop —
//! and therefore the [`RunResult::fingerprint`] — is identical to the live
//! run, no matter how wall-clock time sliced the live `step_until` calls.
//! Three details make this airtight:
//!
//! 1. **Stamps are strictly future** (`> now`), so an injected arrival can
//!    never tie with an event popped in the current batch, where FIFO
//!    sequence numbers would diverge between live and replay.
//! 2. **Quiescence break**: an open session stops popping the moment all
//!    admitted requests have completed and nothing is pending. Trailing
//!    daemon/sample ticks are *not* popped at a wall-determined instant;
//!    they run later in both live and replay iff they precede the next
//!    admitted stamp.
//! 3. **Fixed fault horizon**: the fault schedule and hard stop are
//!    materialized from the construction-time horizon, which the recorded
//!    trace preserves, so live and replay materialize identical fault
//!    plans.

use std::sync::mpsc;

use aegaeon_model::{ModelId, ModelSpec};
use aegaeon_sim::{injection_channel, FxHashMap, InjectionPort, Injector, SimTime, Timeline};
use aegaeon_workload::{Request, RequestId, SessionId, Trace};

use crate::audit::{AuditReport, Auditor};
use crate::config::AegaeonConfig;
use crate::events::TokenEv;
use crate::result::RunResult;
use crate::runtime::Driver;
use crate::system::ServingSystem;

/// Destination for one request's tapped tokens. The session is the single
/// producer (tokens are delivered from the dispatch loop, in order); the
/// consumer side is whatever the embedder wires up — an [`mpsc`] receiver
/// in tests, or one of the gateway's bounded SPSC rings fanning out to the
/// I/O reactor that owns the client connection.
pub trait TokenSink: Send {
    /// Deliver one token. Returning `false` means the consumer is gone
    /// (client hung up); the session drops the sink and the simulated
    /// request still runs to completion.
    fn deliver(&mut self, tok: TokenEv) -> bool;
}

impl TokenSink for mpsc::Sender<TokenEv> {
    fn deliver(&mut self, tok: TokenEv) -> bool {
        self.send(tok).is_ok()
    }
}

/// A request injected into an open session from outside the simulation.
pub struct LiveRequest {
    /// Target model.
    pub model: ModelId,
    /// Prompt length in tokens.
    pub input_tokens: u32,
    /// Total output length in tokens (≥ 1).
    pub output_tokens: u32,
    /// Agentic session this request belongs to ([`SessionId::NONE`] for
    /// standalone requests).
    pub session: SessionId,
    /// Zero-based turn index within the session.
    pub turn_index: u32,
    /// Leading tokens of the prompt shared verbatim with the session's
    /// previous turn (0 for standalone requests and first turns).
    pub prefix_tokens: u32,
    /// Optional token sink: every produced token is forwarded here (SSE
    /// streaming); the sink is dropped after the final token so the
    /// receiving side observes a clean end of stream.
    pub sink: Option<Box<dyn TokenSink>>,
}

impl std::fmt::Debug for LiveRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveRequest")
            .field("model", &self.model)
            .field("input_tokens", &self.input_tokens)
            .field("output_tokens", &self.output_tokens)
            .field("session", &self.session)
            .field("turn_index", &self.turn_index)
            .field("prefix_tokens", &self.prefix_tokens)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

/// Per-endpoint request classes the gateway reports through the session's
/// metrics registry (observer-only: excluded from result fingerprints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/completions`.
    Completions,
    /// `GET /metrics`.
    Metrics,
    /// `GET /healthz`.
    Healthz,
    /// `GET /v1/slo`.
    Slo,
}

/// Labeled instrument ids for one I/O reactor, registered by
/// [`ServingSession::configure_reactors`]. The names carry a Prometheus
/// `reactor="i"` label so `/metrics` exposes per-reactor health instead of
/// one aggregate that N reactors would trample.
struct ReactorIds {
    fds: aegaeon_telemetry::GaugeId,
    ready: aegaeon_telemetry::GaugeId,
    peak: aegaeon_telemetry::GaugeId,
    drops: aegaeon_telemetry::CounterId,
    accept_errors: aegaeon_telemetry::CounterId,
}

/// An incremental serving run: the [`ServingSystem`] under the runtime's
/// [`Driver`] (event queue, auditor, telemetry poller) and, in open mode,
/// the external-injection port. See module docs.
pub struct ServingSession {
    driver: Driver<ServingSystem>,
    port: InjectionPort<LiveRequest>,
    injector: Injector<LiveRequest>,
    /// Admitted injected requests in arrival order (the replayable trace).
    injected: Vec<Request>,
    /// Token sinks keyed by request id; removed after the final token.
    sinks: FxHashMap<u64, Box<dyn TokenSink>>,
    /// Per-reactor labeled instruments (live gateway only; see
    /// [`ServingSession::configure_reactors`]).
    reactor_ids: Vec<ReactorIds>,
    /// Age of the gateway's rendered `/metrics` snapshot at scrape time
    /// (live gateway only; registered by
    /// [`ServingSession::configure_reactors`]).
    g_snapshot_age: aegaeon_telemetry::GaugeId,
    /// Construction-time horizon: replay must materialize the identical
    /// fault schedule, so [`ServingSession::injected_trace`] reports this
    /// value rather than the grown `trace.horizon`.
    live_horizon: SimTime,
    open: bool,
    /// Gateway admission rejections (429s), surfaced on the audit report.
    rejections: u64,
    /// Gateway slow-reader drops (bounded output queue overflows).
    slow_drops: u64,
}

impl ServingSession {
    /// A closed-system session: the whole trace is scheduled up front and
    /// stepping to [`SimTime::MAX`] reproduces [`ServingSystem::run`].
    pub fn closed(cfg: &AegaeonConfig, models: &[ModelSpec], trace: &Trace) -> ServingSession {
        let sys = ServingSystem::new(cfg.clone(), models, trace.clone());
        Self::start(sys, trace.horizon, false)
    }

    /// An open-system session: starts with an empty trace (faults are still
    /// materialized against `live_horizon`) and accepts requests through
    /// [`ServingSession::injector`]. The token tap is enabled so sinks
    /// receive every produced token.
    pub fn open(
        cfg: &AegaeonConfig,
        models: &[ModelSpec],
        live_horizon: SimTime,
    ) -> ServingSession {
        let trace = Trace {
            requests: Vec::new(),
            horizon: live_horizon,
        };
        let mut sys = ServingSystem::new(cfg.clone(), models, trace);
        sys.tap_enabled = true;
        Self::start(sys, live_horizon, true)
    }

    fn start(sys: ServingSystem, live_horizon: SimTime, open: bool) -> ServingSession {
        let hard_stop = sys.hard_stop;
        let mut driver = Driver::new(sys, hard_stop, false);
        driver.host.start(&mut driver.q);
        let (injector, port) = injection_channel();
        ServingSession {
            driver,
            port,
            injector,
            injected: Vec::new(),
            sinks: FxHashMap::default(),
            reactor_ids: Vec::new(),
            g_snapshot_age: aegaeon_telemetry::GaugeId::NONE,
            live_horizon,
            open,
            rejections: 0,
            slow_drops: 0,
        }
    }

    /// Replays a trace recorded by [`ServingSession::injected_trace`]
    /// through a fresh open session: all arrivals are queued on the
    /// injection channel up front (their recorded stamps are preserved
    /// verbatim) and the session is ready to step. Stepping to
    /// [`SimTime::MAX`] yields a result fingerprint-identical to the live
    /// session that recorded the trace.
    pub fn replay(cfg: &AegaeonConfig, models: &[ModelSpec], trace: &Trace) -> ServingSession {
        let session = Self::open(cfg, models, trace.horizon);
        for r in &trace.requests {
            session.injector.send(
                r.arrival(),
                LiveRequest {
                    model: r.model,
                    input_tokens: r.input_tokens,
                    output_tokens: r.output_tokens,
                    session: r.session,
                    turn_index: r.turn_index,
                    prefix_tokens: r.prefix_tokens,
                    sink: None,
                },
            );
        }
        session
    }

    /// Installs an invariant auditor (observer only).
    pub fn install_auditor(&mut self, auditor: Box<dyn Auditor + Send>) {
        self.driver.install_auditor(auditor);
    }

    // ---- shard-coordinator hooks ---------------------------------------
    // Used only by `crate::shard`: a sharded run drives N closed sessions
    // in conservative windows and exchanges boundary events between them.

    /// Switches total-tier-loss handling from a fatal assert to a handoff
    /// pushed on the shard outbox. Must be set before the first step.
    pub(crate) fn enable_shard_mode(&mut self) {
        self.driver.host.shard_mode = true;
    }

    /// Drains the handoffs emitted since the last synchronization barrier,
    /// in emission order.
    pub(crate) fn take_handoffs(&mut self) -> Vec<crate::shard::Handoff> {
        std::mem::take(&mut self.driver.host.outbox)
    }

    /// The earliest instant this shard can emit a handoff: the instant its
    /// materialized crash schedule first leaves a whole tier dead, or `None`
    /// if it never does. Migrants admitted later cannot move it earlier:
    /// only crashes kill instances.
    pub(crate) fn earliest_handoff(&self) -> Option<SimTime> {
        self.driver.host.first_tier_loss()
    }

    /// Admits a request handed off by a peer shard at simulated instant
    /// `at` (strictly in this shard's future — the conservative window
    /// guarantees it) and returns the local trace index it was assigned.
    pub(crate) fn migrate_in(&mut self, at: SimTime, h: &crate::shard::Handoff) -> u32 {
        let r = Request {
            id: RequestId(0),
            model: h.model,
            arrival_ns: at.as_nanos(),
            input_tokens: h.input_tokens,
            output_tokens: h.output_tokens,
            session: h.session,
            turn_index: h.turn_index,
            prefix_tokens: h.prefix_tokens,
        };
        self.driver.host.admit_live(r, &mut self.driver.q).0 as u32
    }

    /// A cloneable, thread-safe handle for injecting requests.
    pub fn injector(&self) -> Injector<LiveRequest> {
        self.injector.clone()
    }

    /// Current simulated time (the stamp of the last dispatched event).
    pub fn now(&self) -> SimTime {
        self.driver.q.now()
    }

    /// True once the runaway cap or the hard stop halted the session.
    pub(crate) fn halted(&self) -> bool {
        self.driver.halted()
    }

    /// True when every admitted request has completed and no injection is
    /// pending admission (the open-mode quiescence condition).
    pub fn quiescent(&self) -> bool {
        self.driver.host.reqs.completed == self.driver.host.trace.len() && self.port.pending() == 0
    }

    /// Pumps the injection channel and admits every releasable request,
    /// then reports the next simulated instant at which the session has
    /// work to do (`None` when quiescent — the driver should block on its
    /// control channel instead of sleeping toward a deadline).
    pub fn next_due(&mut self) -> Option<SimTime> {
        self.admit_pending();
        if self.open && self.quiescent() {
            return None;
        }
        self.driver.q.peek_time()
    }

    /// Advances the session, dispatching every event with a stamp `<=
    /// limit`, and returns the number of events dispatched. Open sessions
    /// additionally stop at quiescence (see module docs) so the stopping
    /// point is a function of simulation state alone, never of wall time.
    pub fn step_until(&mut self, limit: SimTime) -> u64 {
        self.step_bounded(limit, u64::MAX).0
    }

    /// [`ServingSession::step_until`] with an event budget: dispatches at
    /// most `max_events` events, so a caller that also owns an I/O loop
    /// (the gateway reactor) can interleave stepping with socket service
    /// instead of starving it during a backlog burn-down. Returns
    /// `(dispatched, truncated)` where `truncated` means the budget ran
    /// out while events at or before `limit` were still due. Stepping
    /// cadence never changes simulation outcomes, so slicing by budget is
    /// as determinism-safe as slicing by time.
    pub fn step_bounded(&mut self, limit: SimTime, max_events: u64) -> (u64, bool) {
        let mut dispatched: u64 = 0;
        loop {
            self.admit_pending();
            if self.open && self.quiescent() {
                break;
            }
            let Some(at) = self.driver.q.peek_time() else {
                break;
            };
            if at > limit {
                break;
            }
            if dispatched >= max_events {
                return (dispatched, true);
            }
            if !self.driver.step() {
                break;
            }
            dispatched += 1;
            self.flush_tokens();
        }
        (dispatched, false)
    }

    /// Pumps the injection channel and admits every request whose stamp
    /// precedes all queued events. Admission re-checks the queue after each
    /// release because admitting schedules the `Arrive` event, which
    /// changes the head of the queue.
    fn admit_pending(&mut self) {
        self.port.pump(&self.driver.q);
        while let Some((stamp, lr)) = self.port.admit(&self.driver.q) {
            let r = Request {
                id: RequestId(0),
                model: lr.model,
                arrival_ns: stamp.as_nanos(),
                input_tokens: lr.input_tokens,
                output_tokens: lr.output_tokens,
                session: lr.session,
                turn_index: lr.turn_index,
                prefix_tokens: lr.prefix_tokens,
            };
            let id = self.driver.host.admit_live(r, &mut self.driver.q);
            self.injected.push(Request { id, ..r });
            if let Some(sink) = lr.sink {
                self.sinks.insert(id.0, sink);
            }
        }
    }

    /// Forwards tapped tokens to their sinks; a request's sink is dropped
    /// after its final token so consumers observe end of stream.
    fn flush_tokens(&mut self) {
        if self.driver.host.tap.is_empty() {
            return;
        }
        for tok in self.driver.host.tap.drain(..) {
            let req = tok.req.0;
            let done = tok.done;
            let gone = match self.sinks.get_mut(&req) {
                // A gone consumer (client hung up) is not an error: the
                // simulated request still runs to completion.
                Some(sink) => !sink.deliver(tok),
                None => false,
            };
            if done || gone {
                self.sinks.remove(&req);
            }
        }
    }

    /// Drops every live token sink without consuming the session. Consumers
    /// observe end of stream (any queued ring contents stay poppable). The
    /// gateway's drain barrier calls this after the fast-forward reaches
    /// quiescence so reactors never wait on tokens that will not come —
    /// e.g. for streams truncated by a halt.
    pub fn close_sinks(&mut self) {
        self.sinks.clear();
    }

    /// The injected requests recorded so far as a replayable trace. The
    /// horizon is the construction-time horizon so a replay materializes
    /// the identical fault schedule (see module docs).
    pub fn injected_trace(&self) -> Trace {
        Trace {
            requests: self.injected.clone(),
            horizon: self.live_horizon,
        }
    }

    // ---- observer-only gateway instrumentation -------------------------
    // These touch the metrics registry, which result fingerprints exclude,
    // so calling them (or not) cannot perturb the differential replay.

    /// Sets the wall-clock lag gauge (how far simulated time trails the
    /// clock driver's target), in seconds.
    pub fn set_wall_lag(&mut self, secs: f64) {
        let id = self.driver.host.tm.g_wall_lag;
        self.driver.host.tel.metrics.set(id, secs);
    }

    /// Counts one served request on an endpoint.
    pub fn note_endpoint(&mut self, ep: Endpoint) {
        let id = match ep {
            Endpoint::Completions => self.driver.host.tm.c_http_completions,
            Endpoint::Metrics => self.driver.host.tm.c_http_metrics,
            Endpoint::Healthz => self.driver.host.tm.c_http_healthz,
            Endpoint::Slo => self.driver.host.tm.c_http_slo,
        };
        self.driver.host.tel.metrics.inc(id, 1);
    }

    /// Counts one admission rejection (429) in both the registry and the
    /// rejection book surfaced on the audit report.
    pub fn note_rejection(&mut self) {
        self.rejections += 1;
        let id = self.driver.host.tm.c_gw_rejected;
        self.driver.host.tel.metrics.inc(id, 1);
    }

    /// Registers labeled per-reactor instruments for an N-reactor gateway:
    /// `reactor_registered_fds{reactor="i"}`, `reactor_ready_depth{...}`,
    /// `reactor_peak_streams{...}` gauges and `gateway_slow_drops{...}` and
    /// `gateway_accept_errors{...}` counters per reactor. Prometheus text
    /// renders the label verbatim from the registered name. Observer-only
    /// (the registry is excluded from fingerprints) and never called on
    /// replay, so configuring any reactor count cannot perturb the
    /// differential. Call once, before stepping.
    pub fn configure_reactors(&mut self, n: usize) {
        assert!(self.reactor_ids.is_empty(), "reactors already configured");
        let reg = &mut self.driver.host.tel.metrics;
        self.reactor_ids = (0..n)
            .map(|i| ReactorIds {
                fds: reg.gauge(&format!("reactor_registered_fds{{reactor=\"{i}\"}}")),
                ready: reg.gauge(&format!("reactor_ready_depth{{reactor=\"{i}\"}}")),
                peak: reg.gauge(&format!("reactor_peak_streams{{reactor=\"{i}\"}}")),
                drops: reg.counter(&format!("gateway_slow_drops{{reactor=\"{i}\"}}")),
                accept_errors: reg.counter(&format!("gateway_accept_errors{{reactor=\"{i}\"}}")),
            })
            .collect();
        self.g_snapshot_age = reg.gauge("metrics_snapshot_age_ms");
    }

    /// Sets the `metrics_snapshot_age_ms` gauge: how stale the rendered
    /// `/metrics` snapshot was when the sim thread last (re-)rendered it.
    /// The gateway records the age observed *at render time*, so a scrape
    /// that forced a refresh reports the staleness it actually saw.
    pub fn note_snapshot_age(&mut self, age_ms: f64) {
        let id = self.g_snapshot_age;
        self.driver.host.tel.metrics.set(id, age_ms);
    }

    /// Renders the SLO observatory and switch-cost attribution ledger as a
    /// JSON document (the `GET /v1/slo` body). Observer-only: reads
    /// telemetry state that result fingerprints exclude.
    pub fn slo_snapshot_json(&self) -> String {
        aegaeon_telemetry::slo_json(&self.driver.host.tel.slo, &self.driver.host.tel.attrib)
    }

    /// Counts one slow-reader drop on a reactor: a streaming connection
    /// whose bounded output queue overflowed because the client stopped
    /// reading. The simulated request still runs to completion (a hung-up
    /// client never perturbs the simulation); only the gateway-side stream
    /// is severed.
    pub fn note_slow_drop(&mut self, reactor: usize) {
        self.slow_drops += 1;
        if let Some(ids) = self.reactor_ids.get(reactor) {
            self.driver.host.tel.metrics.inc(ids.drops, 1);
        }
    }

    /// Total slow-reader drops recorded via
    /// [`ServingSession::note_slow_drop`] across all reactors.
    pub fn slow_drops(&self) -> u64 {
        self.slow_drops
    }

    /// Counts one failed `accept(2)` (EMFILE, ENFILE, ...) on a reactor.
    pub fn note_accept_error(&mut self, reactor: usize) {
        if let Some(ids) = self.reactor_ids.get(reactor) {
            self.driver.host.tel.metrics.inc(ids.accept_errors, 1);
        }
    }

    /// Sets one reactor's health gauges: currently registered descriptors,
    /// the size of the last readiness batch its event loop serviced, and
    /// its peak concurrent stream count so far.
    pub fn set_reactor_gauges(
        &mut self,
        reactor: usize,
        registered_fds: usize,
        ready_depth: usize,
        peak_streams: usize,
    ) {
        if let Some(ids) = self.reactor_ids.get(reactor) {
            let (fds, ready, peak) = (ids.fds, ids.ready, ids.peak);
            self.driver.host.tel.metrics.set(fds, registered_fds as f64);
            self.driver.host.tel.metrics.set(ready, ready_depth as f64);
            self.driver.host.tel.metrics.set(peak, peak_streams as f64);
        }
    }

    /// Direct access to the metrics registry (Prometheus export).
    pub fn metrics(&self) -> &aegaeon_telemetry::MetricsRegistry {
        &self.driver.host.tel.metrics
    }

    /// Finishes the session: drops all token sinks (streaming clients see
    /// end of stream), closes the auditor, and returns the result plus the
    /// audit report when an auditor was installed. The result's `audit`
    /// field holds a copy of the same report.
    pub fn finish(mut self) -> (RunResult, Option<AuditReport>) {
        self.sinks.clear();
        let (mut result, mut report) = self.driver.finish();
        if let Some(rep) = report.as_mut() {
            rep.rejections = self.rejections;
        }
        result.audit = report.clone();
        (result, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegaeon_model::Zoo;
    use aegaeon_sim::{SimDur, SimRng};
    use aegaeon_workload::{LengthDist, TraceBuilder};

    fn small_trace(n_models: u32, rate: f64, secs: f64, seed: u64) -> Trace {
        let mut rng = SimRng::seed_from_u64(seed);
        TraceBuilder::new(SimTime::from_secs_f64(secs), LengthDist::sharegpt())
            .uniform_models(&mut rng, n_models, rate)
            .build(&mut rng)
    }

    fn models(n: usize) -> Vec<ModelSpec> {
        let zoo = Zoo::standard();
        Zoo::replicate(&zoo.market_band(), n)
    }

    /// A standalone (sessionless) request, as the gateway injects.
    fn single(
        model: ModelId,
        input_tokens: u32,
        output_tokens: u32,
        sink: Option<Box<dyn TokenSink>>,
    ) -> LiveRequest {
        LiveRequest {
            model,
            input_tokens,
            output_tokens,
            session: SessionId::NONE,
            turn_index: 0,
            prefix_tokens: 0,
            sink,
        }
    }

    /// The closed session IS the historical run loop: same fingerprint.
    #[test]
    fn closed_session_matches_run() {
        let cfg = AegaeonConfig::small_testbed(1, 1);
        let trace = small_trace(2, 0.1, 60.0, 11);
        let direct = ServingSystem::run(&cfg, &models(2), &trace);
        let mut session = ServingSession::closed(&cfg, &models(2), &trace);
        session.step_until(SimTime::MAX);
        let (via_session, _) = session.finish();
        assert_eq!(direct.fingerprint(), via_session.fingerprint());
    }

    /// Injecting between arbitrary stepping slices and replaying the
    /// recorded trace offline produce identical fingerprints: live
    /// execution cadence is invisible to the simulation.
    #[test]
    fn open_injection_replays_fingerprint_identical() {
        let cfg = AegaeonConfig::small_testbed(1, 1);
        let specs = models(3);
        let plan = small_trace(3, 0.15, 45.0, 12);
        let horizon = plan.horizon;

        let mut live = ServingSession::open(&cfg, &specs, horizon);
        let inj = live.injector();
        // Inject in dribbles, stepping a ragged sequence of slices between
        // sends so admissions land at many different queue states.
        let mut slice = SimTime::from_nanos(0);
        for (i, r) in plan.requests.iter().enumerate() {
            assert!(inj.send(
                r.arrival(),
                single(r.model, r.input_tokens, r.output_tokens, None),
            ));
            if i % 3 == 0 {
                slice += SimDur::from_millis(700 * (i as u64 % 5 + 1));
                live.step_until(slice);
            }
        }
        live.step_until(SimTime::MAX);
        assert!(live.quiescent(), "live session must drain");
        let recorded = live.injected_trace();
        let (live_result, _) = live.finish();
        assert_eq!(live_result.completed, plan.len());

        let mut replayed = ServingSession::replay(&cfg, &specs, &recorded);
        replayed.step_until(SimTime::MAX);
        let (replay_result, _) = replayed.finish();
        assert_eq!(
            live_result.fingerprint(),
            replay_result.fingerprint(),
            "live and offline replay must be indistinguishable"
        );
    }

    /// Same as above but with the auditor installed on both sides: the
    /// auditor observes a causally valid history in live mode too.
    #[test]
    fn open_injection_passes_audit() {
        let cfg = AegaeonConfig::small_testbed(1, 1);
        let specs = models(2);
        let plan = small_trace(2, 0.1, 30.0, 13);

        let mut live = ServingSession::open(&cfg, &specs, plan.horizon);
        live.install_auditor(Box::new(crate::audit::InvariantAuditor::new()));
        let inj = live.injector();
        for r in &plan.requests {
            inj.send(
                r.arrival(),
                single(r.model, r.input_tokens, r.output_tokens, None),
            );
            live.step_until(live.now() + SimDur::from_secs(2));
        }
        live.step_until(SimTime::MAX);
        let (result, report) = live.finish();
        let report = report.expect("auditor installed");
        assert!(report.ok(), "live audit failed:\n{report}");
        let stored = result.audit.as_ref().expect("finish stores the report");
        assert_eq!(stored.events_checked, report.events_checked);
        assert_eq!(result.completed, plan.len());
    }

    /// Regression: a request whose entire output is the prefill's first
    /// token must retire there. Dispatching it to decode parked it
    /// forever (decode batches skip done requests), leaking its
    /// admission slot and tripping the auditor's conservation check.
    #[test]
    fn single_token_requests_retire_at_prefill() {
        let cfg = AegaeonConfig::small_testbed(1, 1);
        let specs = models(2);
        let n = 40;
        let mut live = ServingSession::open(&cfg, &specs, SimTime::from_secs_f64(120.0));
        live.install_auditor(Box::new(crate::audit::InvariantAuditor::new()));
        let inj = live.injector();
        let (tx, rx) = mpsc::channel();
        for i in 0..n {
            inj.send(
                SimTime::from_secs_f64(1.0 + i as f64 * 0.25),
                single(
                    ModelId((i % 2) as u32),
                    32,
                    1,
                    Some(Box::new(tx.clone())),
                ),
            );
        }
        drop(tx);
        live.step_until(SimTime::MAX);
        assert!(live.quiescent(), "single-token requests must not park");
        let toks: Vec<TokenEv> = rx.iter().collect();
        assert_eq!(toks.len(), n, "each request streams exactly one token");
        assert!(toks.iter().all(|t| t.index == 0 && t.done));
        let (result, report) = live.finish();
        assert_eq!(result.completed, n);
        let report = report.expect("auditor installed");
        assert!(report.ok(), "audit failed:\n{report}");
    }

    /// Token sinks stream every produced token in order and close after
    /// the final token.
    #[test]
    fn token_sink_streams_all_tokens_then_closes() {
        let cfg = AegaeonConfig::small_testbed(1, 1);
        let specs = models(1);
        let mut live = ServingSession::open(&cfg, &specs, SimTime::from_secs_f64(30.0));
        let inj = live.injector();
        let (tx, rx) = mpsc::channel();
        inj.send(
            SimTime::from_secs_f64(1.0),
            single(ModelId(0), 64, 7, Some(Box::new(tx))),
        );
        live.step_until(SimTime::MAX);
        let toks: Vec<TokenEv> = rx.iter().collect(); // ends when sender drops
        assert_eq!(toks.len(), 7, "one event per produced token");
        for (i, t) in toks.iter().enumerate() {
            assert_eq!(t.index, i as u32);
            assert_eq!(t.done, i == 6);
        }
        assert!(toks.windows(2).all(|w| w[0].at <= w[1].at));
    }

    /// A proxy stall window hit by live-injected arrivals drives the
    /// `Ev::Retry` backoff path: retries are counted and every request
    /// still completes.
    #[test]
    fn live_injection_rides_out_proxy_stalls_via_retry() {
        let mut cfg = AegaeonConfig::small_testbed(1, 1);
        cfg.telemetry = aegaeon_telemetry::TelemetrySpec::enabled();
        // Saturate the horizon with stall windows so arrivals are certain
        // to land inside one.
        cfg.faults.stall_rate = 1.0;
        cfg.faults.stall_secs = 3.0;
        let specs = models(1);
        let mut live = ServingSession::open(&cfg, &specs, SimTime::from_secs_f64(40.0));
        let inj = live.injector();
        for i in 0..12u64 {
            inj.send(
                SimTime::from_secs_f64((1 + 3 * i) as f64),
                single(ModelId(0), 64, 4, None),
            );
        }
        live.step_until(SimTime::MAX);
        assert!(live.quiescent());
        let retries = live
            .metrics()
            .counter_totals()
            .find(|(n, _)| *n == "proxy_retries")
            .map_or(0.0, |(_, v)| v);
        assert!(retries > 0.0, "expected stalled dispatches to retry");
        let (result, _) = live.finish();
        assert_eq!(result.completed, 12);
    }
}
