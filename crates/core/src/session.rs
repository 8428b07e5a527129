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
//! # Live telemetry
//!
//! An open session records only what a live endpoint serves: with
//! telemetry on, it keeps the registry, the sketches, the SLO observatory
//! and the attribution ledger, but no span log and no sampled series
//! ([`Telemetry::make_live`]). [`ServingSession::metrics`] computes the
//! gauges when it is read. The spans and series of a live run come from
//! [`ServingSession::replay`] of its [`ServingSession::injected_trace`],
//! which, like a closed session, keeps full telemetry.
//!
//! # Determinism argument
//!
//! An open session's trace starts empty and grows by exactly the admitted
//! requests, each with its stamp, in arrival order: the serving system's
//! own trace is the recording. Replaying it through a fresh open session
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

use aegaeon_model::ModelSpec;
use aegaeon_sim::{injection_channel, FxHashMap, InjectionPort, Injector, SimTime, Timeline};
use aegaeon_telemetry::{MetricsRegistry, SloDocument, Telemetry};
use aegaeon_workload::{Request, RequestId, Trace};

use crate::audit::{AuditReport, Auditor};
use crate::config::AegaeonConfig;
use crate::events::TokenEv;
use crate::result::RunResult;
use crate::runtime::{Driver, Host};
use crate::system::ServingSystem;

/// Destination for one request's produced tokens. The session is the single
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
    /// The request. Its `id` and `arrival_ns` are ignored: the session
    /// assigns the id (the request's index in the session's trace) and the
    /// injection port stamps the arrival.
    pub req: Request,
    /// Optional token sink: every produced token is forwarded here (SSE
    /// streaming); the sink is dropped after the final token so the
    /// receiving side observes a clean end of stream.
    pub sink: Option<Box<dyn TokenSink>>,
}

impl std::fmt::Debug for LiveRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveRequest")
            .field("req", &self.req)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

/// An incremental serving run: the [`ServingSystem`] under the runtime's
/// [`Driver`] (event queue, auditor, telemetry poller) and, in open mode,
/// the external-injection port. See module docs.
pub struct ServingSession {
    driver: Driver<ServingSystem>,
    port: InjectionPort<LiveRequest>,
    injector: Injector<LiveRequest>,
    /// Token sinks keyed by request id, each with the index of the next
    /// token it receives; removed after the final token.
    sinks: FxHashMap<u64, (Box<dyn TokenSink>, u32)>,
    /// Construction-time horizon: replay must materialize the identical
    /// fault schedule, so [`ServingSession::injected_trace`] reports this
    /// value rather than the grown `trace.horizon`.
    live_horizon: SimTime,
    open: bool,
    /// Built by [`ServingSession::open`]: live telemetry (see module docs).
    live: bool,
    /// The instant the system was last settled to for the sinks; an
    /// injected arrival is stamped after it (see
    /// [`ServingSession::step_bounded`]).
    settled: SimTime,
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
    /// [`ServingSession::injector`]. Sinks receive every produced token.
    /// Its telemetry is live: instruments only (see module docs).
    pub fn open(
        cfg: &AegaeonConfig,
        models: &[ModelSpec],
        live_horizon: SimTime,
    ) -> ServingSession {
        Self::open_with(cfg, models, live_horizon, true)
    }

    fn open_with(
        cfg: &AegaeonConfig,
        models: &[ModelSpec],
        live_horizon: SimTime,
        live: bool,
    ) -> ServingSession {
        let trace = Trace {
            requests: Vec::new(),
            horizon: live_horizon,
        };
        let mut sys = ServingSystem::new(cfg.clone(), models, trace);
        if live {
            sys.tel.make_live();
        }
        ServingSession {
            live,
            ..Self::start(sys, live_horizon, true)
        }
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
            sinks: FxHashMap::default(),
            live_horizon,
            open,
            live: false,
            settled: SimTime::ZERO,
        }
    }

    /// Replays a trace recorded by [`ServingSession::injected_trace`]
    /// through a fresh open session: all arrivals are queued on the
    /// injection channel up front (their recorded stamps are preserved
    /// verbatim) and the session is ready to step. Stepping to
    /// [`SimTime::MAX`] yields a result fingerprint-identical to the live
    /// session that recorded the trace, with full telemetry: the spans and
    /// series the live session did not record.
    pub fn replay(cfg: &AegaeonConfig, models: &[ModelSpec], trace: &Trace) -> ServingSession {
        let session = Self::open_with(cfg, models, trace.horizon, false);
        for &req in &trace.requests {
            session
                .injector
                .send(req.arrival(), LiveRequest { req, sink: None });
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
        self.driver.host.admit_live(h.req, at, &mut self.driver.q).0 as u32
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
        self.pump();
        self.admit_pending();
        if self.open && self.quiescent() {
            return None;
        }
        let next = self.driver.q.peek_time();
        if self.sinks.is_empty() {
            return next;
        }
        // Decode steps are not events: report the next one's end too, so
        // its tokens reach their sinks when due.
        match (next, self.driver.host.next_step_end()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Drains the injection channel, stamping arrivals after both the
    /// clock and the last settle instant.
    fn pump(&mut self) {
        let floor = self.driver.q.now().max(self.settled);
        self.port.pump(floor);
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
    ///
    /// The injection channel is drained once per call; requests sent
    /// during the call wait for the next one. Admission of the stamped
    /// requests is still checked before every event.
    ///
    /// With sinks attached the call ends by settling the system up to
    /// `limit` (never past the next queued event or the hard stop) and
    /// flushing, so tokens of decode steps that ended by then reach their
    /// sinks although no event marked them. Arrivals injected later are
    /// stamped after that instant, so no event can observe the settled
    /// state before its time.
    pub fn step_bounded(&mut self, limit: SimTime, max_events: u64) -> (u64, bool) {
        let mut dispatched: u64 = 0;
        self.pump();
        let truncated = loop {
            self.admit_pending();
            if self.open && self.quiescent() {
                break false;
            }
            let Some(at) = self.driver.q.peek_time() else {
                break false;
            };
            if at > limit {
                break false;
            }
            if dispatched >= max_events {
                break true;
            }
            if !self.driver.step() {
                break false;
            }
            dispatched += 1;
            self.flush_tokens();
        };
        if !self.sinks.is_empty() {
            let next = self.driver.q.peek_time().unwrap_or(SimTime::MAX);
            let until = limit.min(next).min(self.driver.host.hard_stop);
            self.driver.settle(until);
            self.flush_tokens();
            self.settled = self.settled.max(until);
        }
        (dispatched, truncated)
    }

    /// Admits every stamped request whose stamp precedes all queued
    /// events. The queue is re-checked after each release because
    /// admitting schedules the `Arrive` event, which changes the head of
    /// the queue.
    fn admit_pending(&mut self) {
        while let Some((stamp, lr)) = self.port.admit(&self.driver.q) {
            let id = self.driver.host.admit_live(lr.req, stamp, &mut self.driver.q);
            if let Some(sink) = lr.sink {
                self.sinks.insert(id.0, (sink, 0));
            }
        }
    }

    /// Forwards the last event's tokens, read off the request table's
    /// progress log (which carries each token's instant), to their sinks;
    /// a request's sink is dropped after its final token so consumers
    /// observe end of stream.
    fn flush_tokens(&mut self) {
        if self.sinks.is_empty() {
            return;
        }
        let reqs = &self.driver.host.reqs;
        for &(i, at) in reqs.progressed() {
            let req = i as u64;
            let Some((sink, next)) = self.sinks.get_mut(&req) else {
                continue;
            };
            let rs = &reqs[i];
            let index = *next;
            *next += 1;
            let tok = TokenEv {
                req: RequestId(req),
                index,
                at,
                done: index + 1 >= rs.target_tokens,
                prefix_hit: rs.prefix_hit,
            };
            // A gone consumer (client hung up) is not an error: the
            // simulated request still runs to completion.
            if !sink.deliver(tok) || tok.done {
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

    /// An open session's admitted requests so far as a replayable trace:
    /// the serving system's trace, which an open session starts empty. The
    /// horizon is the construction-time horizon so a replay materializes
    /// the identical fault schedule (see module docs).
    pub fn injected_trace(&self) -> Trace {
        Trace {
            requests: self.driver.host.trace.requests.clone(),
            horizon: self.live_horizon,
        }
    }

    /// Brings `doc`, the `GET /v1/slo` body, up to the SLO observatory and
    /// switch-cost attribution ledger. Observer-only: reads telemetry state
    /// that result fingerprints exclude.
    pub fn update_slo(&self, doc: &mut SloDocument) {
        doc.update(&self.driver.host.tel.slo, &self.driver.host.tel.attrib);
    }

    /// The metrics registry (Prometheus export), with every gauge computed
    /// from the current state. A live session also writes the run-level
    /// counters (dispatched events, audit checks and violations), which a
    /// closed run or a replay writes only at finish, so their series stay
    /// as sampled.
    pub fn metrics(&mut self) -> &MetricsRegistry {
        self.refresh();
        &self.driver.host.tel.metrics
    }

    /// The session's telemetry as last recorded (gauges as of the last
    /// sample boundary or [`ServingSession::metrics`] read).
    pub fn telemetry(&self) -> &Telemetry {
        &self.driver.host.tel
    }

    fn refresh(&mut self) {
        let (sys, q, audit) = self.driver.observe();
        sys.set_gauges();
        if self.live {
            sys.set_run_counters(q, audit);
        }
    }

    /// Finishes the session: drops all token sinks (streaming clients see
    /// end of stream), closes the auditor, and returns the result plus a
    /// copy of the audit report it holds when an auditor was installed.
    /// A live session's final series points hold the gauges computed at
    /// its end.
    pub fn finish(self) -> (RunResult, Option<AuditReport>) {
        let result = self.into_result();
        let report = result.audit.clone();
        (result, report)
    }

    /// [`ServingSession::finish`] without the copy of the report.
    pub(crate) fn into_result(mut self) -> RunResult {
        self.sinks.clear();
        if self.live {
            self.refresh();
        }
        self.driver.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegaeon_model::{ModelId, Zoo};
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
        let req = Request::single(RequestId(0), model, 0, input_tokens, output_tokens);
        LiveRequest { req, sink }
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

    /// Sinks are observers: a session whose sinks take every token, or
    /// whose clients hung up before the first, runs the same as one
    /// without sinks, and every request still completes. So is the cadence
    /// that steps a session: with a sink on every request, a session
    /// stepped by `step_until` at seeded random limits, settling the
    /// decode steps due at each one, equals `ServingSystem::run` on the
    /// same trace (fingerprint, events, and each sink's token times),
    /// healthy, under chaos, and with agentic session affinity.
    #[test]
    fn token_sinks_do_not_perturb_the_run() {
        let cfg = AegaeonConfig::small_testbed(1, 1);
        let specs = models(2);
        let plan = small_trace(2, 0.3, 30.0, 16);
        let run = |sinks: bool, hang_up: bool| {
            let mut live = ServingSession::open(&cfg, &specs, plan.horizon);
            let inj = live.injector();
            let mut rxs = Vec::new();
            for r in &plan.requests {
                let sink: Option<Box<dyn TokenSink>> = sinks.then(|| {
                    let (tx, rx) = mpsc::channel();
                    rxs.push(rx);
                    Box::new(tx) as Box<dyn TokenSink>
                });
                inj.send(
                    r.arrival(),
                    single(r.model, r.input_tokens, r.output_tokens, sink),
                );
            }
            if hang_up {
                rxs.clear();
            }
            live.step_until(SimTime::MAX);
            assert!(live.sinks.is_empty(), "every sink closes");
            live.finish().0
        };
        let bare = run(false, false);
        assert_eq!(bare.completed, plan.len());
        for hang_up in [false, true] {
            let r = run(true, hang_up);
            assert_eq!(r.completed, plan.len());
            assert_eq!(r.fingerprint(), bare.fingerprint());
        }

        let chaos = crate::chaos::FaultPlan {
            seed: 5,
            crashes: vec![(20.0, crate::events::InstKind::Decode, 0)],
            link_rate: 0.05,
            link_factor: 0.3,
            link_secs: 4.0,
            stage_oom_rate: 0.03,
            stage_oom_secs: 5.0,
            stall_rate: 0.02,
            stall_secs: 1.0,
            ..crate::chaos::FaultPlan::none()
        };
        let mut healthy = AegaeonConfig::small_testbed(2, 3);
        healthy.drain_window = SimDur::from_secs(400);
        let chaotic = AegaeonConfig {
            faults: chaos,
            ..healthy.clone()
        };
        let agentic = AegaeonConfig {
            session_affinity: true,
            ..chaotic.clone()
        };
        let mut rng = SimRng::seed_from_u64(9);
        let sessions =
            aegaeon_workload::SessionBuilder::new(SimTime::from_secs_f64(120.0), 4, 0.02)
                .depth(2, 5)
                .think_gap(10.0, 0.5)
                .generate(&mut rng)
                .lower();
        let uniform = small_trace(4, 0.1, 60.0, 17);
        for (name, cfg, trace) in [
            ("healthy", healthy, &uniform),
            ("chaos", chaotic, &uniform),
            ("agentic", agentic, &sessions),
        ] {
            let specs = models(4);
            let whole = ServingSystem::run(&cfg, &specs, trace);
            let mut stepped = ServingSession::closed(&cfg, &specs, trace);
            let rxs: Vec<_> = (0..trace.len() as u64)
                .map(|id| {
                    let (tx, rx) = mpsc::channel::<TokenEv>();
                    stepped
                        .sinks
                        .insert(id, (Box::new(tx) as Box<dyn TokenSink>, 0));
                    rx
                })
                .collect();
            let mut rng = SimRng::seed_from_u64(23);
            let mut limit = SimTime::ZERO;
            while stepped.driver.q.peek_time().is_some() && !stepped.halted() {
                limit += SimDur::from_secs_f64(rng.range_f64(0.0, 0.3));
                stepped.step_until(limit);
            }
            let (r, _) = stepped.finish();
            assert_eq!(r.completed, trace.len(), "{name}");
            assert_eq!(
                r.events, whole.events,
                "{name}: stepping moved the event count"
            );
            assert_eq!(r.fingerprint(), whole.fingerprint(), "{name}");
            for (o, rx) in whole.outcomes.iter().zip(&rxs) {
                let at: Vec<SimTime> = rx.try_iter().map(|t| t.at).collect();
                let times: Vec<SimTime> = o.token_times.iter().collect();
                assert_eq!(at, times, "{name}: request {}", o.id.0);
            }
        }
    }

    /// With a sink on every request, each one receives its request's
    /// tokens `0..n` in order, each stamped with the instant the finished
    /// result records for it, and `done` only on the last.
    #[test]
    fn token_sinks_match_the_finished_token_times() {
        let cfg = AegaeonConfig::small_testbed(1, 1);
        let specs = models(2);
        let plan = small_trace(2, 0.3, 30.0, 15);
        let mut live = ServingSession::open(&cfg, &specs, plan.horizon);
        let inj = live.injector();
        let rxs: Vec<_> = plan
            .requests
            .iter()
            .map(|r| {
                let (tx, rx) = mpsc::channel();
                let sink: Box<dyn TokenSink> = Box::new(tx);
                let lr = single(r.model, r.input_tokens, r.output_tokens, Some(sink));
                inj.send(r.arrival(), lr);
                rx
            })
            .collect();
        live.step_until(SimTime::MAX);
        let (result, _) = live.finish();
        assert!(plan.len() > 1);
        assert_eq!(result.completed, plan.len());
        for (o, rx) in result.outcomes.iter().zip(&rxs) {
            let toks: Vec<TokenEv> = rx.iter().collect();
            assert_eq!(toks.len(), o.token_times.len(), "request {}", o.id.0);
            for ((k, t), at) in toks.iter().enumerate().zip(&o.token_times) {
                assert_eq!(t.req, o.id);
                assert_eq!(t.index, k as u32);
                assert_eq!(t.at, at);
                assert_eq!(t.done, k + 1 == toks.len());
            }
        }
    }

    /// The current value of the counter or gauge `name`.
    fn read(reg: &MetricsRegistry, name: &str) -> f64 {
        let mut all = reg.counter_totals().chain(reg.gauge_values());
        all.find(|(n, _)| *n == name).map(|(_, v)| v).expect(name)
    }

    /// An idle live session's `/metrics` shows the state after its last
    /// event, not the state at the last sample boundary before it: once
    /// its one request retires, it reports the request completed, nothing
    /// decoding and no KV in use, for as long as no new traffic arrives.
    #[test]
    fn idle_live_metrics_show_the_state_after_the_last_event() {
        let mut cfg = AegaeonConfig::small_testbed(1, 1);
        cfg.telemetry = aegaeon_telemetry::TelemetrySpec::enabled();
        let specs = models(1);
        for i in 0..20u32 {
            let mut live = ServingSession::open(&cfg, &specs, SimTime::from_secs_f64(30.0));
            let at = SimTime::from_secs_f64(1.0 + 0.37 * i as f64);
            live.injector().send(at, single(ModelId(0), 64 + 16 * i, 3 + i % 5, None));
            live.step_until(SimTime::MAX);
            assert!(live.quiescent());
            let reg = live.metrics();
            assert_eq!(read(reg, "completed_requests"), 1.0, "session {i}");
            assert_eq!(read(reg, "decode_work_requests"), 0.0, "session {i}");
            assert_eq!(read(reg, "prefill_queue_depth"), 0.0, "session {i}");
            assert_eq!(read(reg, "vram_kv_used_bytes"), 0.0, "session {i}");
        }
    }

    /// The `/v1/slo` body kept by [`ServingSession::update_slo`] after
    /// every second of a live run equals a fresh `slo_json` rendering each
    /// time, across every window the run seals.
    #[test]
    fn updated_slo_document_equals_slo_json_through_a_live_run() {
        let mut cfg = AegaeonConfig::small_testbed(1, 1);
        cfg.telemetry = aegaeon_telemetry::TelemetrySpec::enabled();
        let specs = models(2);
        let plan = small_trace(2, 0.3, 60.0, 16);
        let mut live = ServingSession::open(&cfg, &specs, plan.horizon);
        let inj = live.injector();
        for r in &plan.requests {
            inj.send(
                r.arrival(),
                single(r.model, r.input_tokens, r.output_tokens, None),
            );
        }
        let mut doc = SloDocument::default();
        let (mut points, mut seals) = (0, 0);
        for s in 1..=90 {
            live.step_until(SimTime::from_secs_f64(s as f64));
            live.update_slo(&mut doc);
            let tel = live.telemetry();
            assert_eq!(
                doc.to_json(),
                aegaeon_telemetry::slo_json(&tel.slo, &tel.attrib),
                "{s} s"
            );
            seals += usize::from(tel.slo.points().len() > points);
            points = tel.slo.points().len();
        }
        assert!(seals >= 4, "{seals} seals over {points} points");
    }

    /// A live session's `/metrics` counts dispatched events and the
    /// auditor's checks before finish; a closed session writes them only at
    /// finish, so its sampled series do not move.
    #[test]
    fn live_metrics_count_events_and_audit_checks_before_finish() {
        let mut cfg = AegaeonConfig::small_testbed(1, 1);
        cfg.telemetry = aegaeon_telemetry::TelemetrySpec::enabled();
        let specs = models(2);
        let plan = small_trace(2, 0.2, 20.0, 14);
        let mut live = ServingSession::open(&cfg, &specs, plan.horizon);
        live.install_auditor(Box::new(crate::audit::InvariantAuditor::new()));
        let inj = live.injector();
        for r in &plan.requests {
            inj.send(r.arrival(), single(r.model, r.input_tokens, r.output_tokens, None));
        }
        live.step_until(SimTime::from_secs_f64(10.0));
        let events = live.driver.q.events_dispatched();
        assert!(events > 0);
        let reg = live.metrics();
        assert_eq!(read(reg, "events_dispatched"), events as f64);
        assert_eq!(read(reg, "audit_checks"), events as f64);
        assert_eq!(read(reg, "audit_violations"), 0.0);

        let mut closed = ServingSession::closed(&cfg, &specs, &plan);
        closed.install_auditor(Box::new(crate::audit::InvariantAuditor::new()));
        closed.step_until(SimTime::from_secs_f64(10.0));
        assert_eq!(read(closed.metrics(), "events_dispatched"), 0.0);
        assert_eq!(read(closed.metrics(), "audit_checks"), 0.0);
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
