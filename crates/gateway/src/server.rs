//! The gateway server: an N-reactor I/O plane in front of a dedicated
//! simulation thread.
//!
//! # Threading model
//!
//! **N I/O reactors** (`gw-io-<i>`) each own a private `SO_REUSEPORT`
//! listener bound to the same address, a private `Poller` (epoll on
//! Linux), and a private generation-tagged connection slab with bounded
//! [`WriteQueue`]s. The kernel shards incoming connections across the
//! listener group by 4-tuple hash, so accepts, reads, and writes spread
//! over cores with zero cross-reactor locking — no reactor ever touches
//! another reactor's connections.
//!
//! **One sim thread** (`gw-sim`) owns the open [`ServingSession`]
//! exclusively: it steps simulated time toward the wall-clock target in
//! bounded event chunks and is the only thread that mutates simulation
//! state, so determinism needs no locks at all. It steps at most once per
//! [`STEP_SLICE`] of wall time unless signalled: after a pass it sleeps
//! until the next event is due or the slice that began with the pass
//! ends, whichever is later. A control message still wakes it at once
//! and a truncated chunk loops without sleeping. So a token reaches its
//! ring at most one slice after its due wall instant, and tokens due
//! inside one slice reach their rings, and their reactors, together.
//! Stepping cadence never changes simulation outcomes.
//!
//! Work crosses the boundary exactly three ways:
//!
//! * **Arrivals** flow reactor → sim through the session's thread-safe
//!   [`Injector`] (the existing injection port; stamps are assigned at pop
//!   boundaries on the sim thread, so reactor count cannot perturb replay).
//! * **Tokens** flow sim → reactor through one bounded SPSC
//!   [`ring`] per request, created by the owning reactor and
//!   sized to the request's maximum output, so a well-formed stream can
//!   never overflow it. Each ring handle is tagged `(reactor, generation,
//!   slot)`; a recycled connection bumps the slot generation, so a stale
//!   delivery can never reach the wrong stream. A `DirtyBoard` flag per
//!   reactor tells the sim loop exactly which reactor `Waker`s to poke
//!   after a step flushes tokens.
//! * **Signals** flow reactor → sim over an unbounded control channel: a
//!   ping after an injection or a stale scrape, and each reactor's drain
//!   barrier message.
//!
//! The gateway keeps its own books. Every count it reports (requests per
//! endpoint, 429s, the wall-clock lag, sim-loop passes and truncated
//! chunks, and per reactor the registered fds, the last readiness batch,
//! the peak stream count, slow drops and failed accepts) is one atomic in
//! the shared state, written where it happens and never copied into the
//! simulation's metrics registry.
//!
//! `wall_clock_lag_secs` is in simulated seconds: after each pass it is
//! `target - t` when the earliest undispatched event `t` is at or before
//! the pass's target (the chunk was truncated), and 0 otherwise, so an
//! idle or caught-up gateway reports 0 however long it has been idle.
//! `gateway_sim_wakes` counts sim-loop passes and
//! `gateway_sim_truncated_chunks` the passes cut short by `STEP_CHUNK`.
//!
//! A failed `accept(2)` (EMFILE, ENFILE, ...) is counted per reactor
//! (`gateway_accept_errors{reactor="i"}` in `/metrics`,
//! [`GatewayReport::accept_errors`] at shutdown). Connections queued behind
//! it raise no new readiness edge, so the reactor retries the accept on
//! its next loop tick instead of waiting for the next connection.
//!
//! `/metrics` is the sim thread's latest snapshot of the session's
//! registry followed by a gateway section that the serving reactor renders
//! from those atomics at scrape time, so gateway counts are exact when
//! read; `/v1/slo` is the snapshot alone. The sim thread re-renders the
//! snapshot every `METRICS_REFRESH`, computing the session's gauges from
//! its state as it renders; reactors never read the session directly.
//! `metrics_snapshot_age_ms` is the age of the snapshot being served. A
//! scrape that finds it older than the refresh cadence (the sim thread
//! only renders on its own loop iterations, which an idle or busy loop
//! can stretch) pings the sim thread, which re-renders on waking.
//!
//! # Backpressure contract
//!
//! Unchanged from the single-reactor design, now enforced per reactor:
//! token write-back is buffered through a bounded [`WriteQueue`] per
//! connection ([`GatewayConfig::max_conn_buffer`] unsent bytes). A reader
//! that falls so far behind that its queue would overflow is **dropped**:
//! the connection closes without the `[DONE]` sentinel, the admission slot
//! is released, and the drop is counted (labeled
//! `gateway_slow_drops{reactor="i"}` in `/metrics`,
//! [`GatewayReport::slow_drops`] at shutdown). Admission is one in-flight
//! bound ([`GatewayConfig::max_inflight`]) shared by every reactor as a
//! single atomic: a compare-exchange loop admits, a decrement releases,
//! once per request lifecycle and never per token.
//!
//! # Graceful drain
//!
//! [`Gateway::shutdown`] sets the drain flag and wakes every thread. The
//! sim thread fast-forwards the session to quiescence (stepping speed
//! never changes simulation outcomes), pokes reactors as tokens flush,
//! then drops all remaining token sinks so no reactor can wait on a stream
//! that will never finish (e.g. after a halt). Each reactor stops
//! accepting, flushes every in-flight stream through its output queue,
//! force-closes stragglers at the deadline, and posts a `Drained` barrier
//! message. Only after every reactor checks in does the sim thread finish
//! the session and emit the report — in-flight clients on every reactor
//! observe complete streams, not resets.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use aegaeon::session::{LiveRequest, ServingSession, TokenSink};
use aegaeon::{AegaeonConfig, AuditReport, InvariantAuditor, RunResult, TokenEv};
use aegaeon_model::{ModelId, ModelSpec};
use aegaeon_sim::queue::Injector;
use aegaeon_sim::SimTime;
use aegaeon_telemetry::{labeled, prometheus_text, MetricsRegistry, SloDocument};
use aegaeon_workload::Trace;

use crate::api::{self, ApiError};
use crate::clock::{self, ClockDriver, ClockMode};
use crate::http::HttpParser;
use crate::outbuf::WriteQueue;
use crate::poll::{self, PollEvent, Poller, Waker, WAKE_TOKEN};
use crate::ring::{self, DirtyBoard, PushError, RingTag};
use crate::{http, sse};

/// Poller token for the listening socket.
const LISTEN_TOKEN: u64 = u64::MAX - 1;
/// Simulation events dispatched per sim-loop iteration before the control
/// channel is re-checked; bounds how long arrivals can queue behind sim
/// work.
const STEP_CHUNK: u64 = 8192;
/// Shortest wall time between the starts of two sim-loop passes unless a
/// control message or a truncated chunk cuts the wait short. Tokens due
/// inside one slice reach their rings together at its end, so each
/// reactor wakes once per slice rather than once per token.
pub const STEP_SLICE: Duration = Duration::from_micros(100);
/// Longest either loop sleeps with nothing due (keeps gauges fresh).
const MAX_WAIT: Duration = Duration::from_millis(100);
/// Idle connections (no complete request, or unflushed response with a
/// dead peer) are reaped after this long.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Cadence of the idle-reap sweep.
const SWEEP_EVERY: Duration = Duration::from_secs(5);
/// Hard cap on the graceful-drain flush phase.
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);
/// Cadence of the sim thread's `/metrics` snapshot re-render.
const METRICS_REFRESH: Duration = Duration::from_millis(200);
/// `Retry-After` hint on a 429, in seconds.
const RETRY_AFTER_SECS: u32 = 1;

/// Gateway deployment settings.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Sim↔wall mapping.
    pub(crate) mode: ClockMode,
    /// Fault/hard-stop horizon for the open session.
    pub live_horizon: SimTime,
    /// Bound on in-flight completions across all reactors (0 = unlimited);
    /// a request over it gets 429 and never reaches the simulation.
    pub max_inflight: u32,
    /// Number of I/O reactor threads, each with its own `SO_REUSEPORT`
    /// listener. 1 reproduces the single-reactor layout (and is the only
    /// value supported off Linux); reactor count never changes simulation
    /// outcomes, only I/O capacity.
    pub reactors: usize,
    /// Hard cap on simultaneously open connections across all reactors;
    /// excess accepts are shed immediately (fd budget guard).
    pub max_connections: usize,
    /// Bounded unsent bytes per connection — the backpressure threshold at
    /// which a slow reader is dropped.
    pub max_conn_buffer: usize,
    /// Shrink each accepted socket's kernel send buffer (Linux only).
    /// Tests use this to make app-level backpressure observable without
    /// hundreds of kilobytes of kernel buffering in the way.
    pub sock_sndbuf: Option<u32>,
}

impl GatewayConfig {
    /// Loopback on an ephemeral port, a 1-hour horizon, 1024 in-flight
    /// completions, one reactor, 16k connection cap, 256 KiB write buffers.
    pub fn local(mode: ClockMode) -> GatewayConfig {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            mode,
            live_horizon: SimTime::from_secs_f64(3600.0),
            max_inflight: 1024,
            reactors: 1,
            max_connections: 16 * 1024,
            max_conn_buffer: 256 * 1024,
            sock_sndbuf: None,
        }
    }
}

/// Everything the gateway hands back at shutdown.
#[derive(Debug)]
pub struct GatewayReport {
    /// The run result, fingerprint-comparable with an offline replay of
    /// [`GatewayReport::trace`].
    pub result: RunResult,
    /// The invariant auditor's report (every gateway installs one).
    pub audit: Option<AuditReport>,
    /// Every admitted request with its simulated arrival stamp — replay it
    /// with [`ServingSession::replay`] to reproduce the run offline. The
    /// trace format is reactor-count invariant: stamps are assigned by the
    /// injection port on the sim thread, never by an I/O thread.
    pub trace: Trace,
    /// Requests turned away by the admission gate (429s). They never reach
    /// the simulation, so none of them is in [`GatewayReport::trace`].
    pub rejections: u64,
    /// Streams dropped by write-back backpressure (slow readers), summed
    /// across reactors.
    pub slow_drops: u64,
    /// High-water mark of simultaneously open connections (global).
    pub peak_connections: usize,
    /// Peak simultaneously-open connections per reactor, indexed by
    /// reactor id — the accept-sharding balance evidence.
    pub per_reactor_peak: Vec<usize>,
    /// Failed `accept(2)` calls per reactor, indexed by reactor id.
    pub accept_errors: Vec<u64>,
}

/// The admission gate: a lock-free bound on in-flight completions, shared
/// by every reactor.
#[derive(Default)]
struct Gate {
    inflight: AtomicU32,
    /// 0 = unlimited.
    max: u32,
}

impl Gate {
    fn new(max: u32) -> Gate {
        Gate {
            max,
            ..Gate::default()
        }
    }

    /// Admits one request, counting it in flight until [`Gate::release`],
    /// or returns the `Retry-After` hint in seconds.
    fn try_admit(&self) -> Result<(), u32> {
        self.inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (self.max == 0 || n < self.max).then_some(n + 1)
            })
            .map(drop)
            .map_err(|_| RETRY_AFTER_SECS)
    }

    /// Releases one in-flight slot (stream finished or client hung up); a
    /// no-op when nothing is in flight.
    fn release(&self) {
        let _ = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    }
}

/// One reactor's books, written by that reactor and read by whichever
/// reactor serves a scrape.
#[derive(Default)]
struct ReactorStats {
    /// Registered descriptors, stored on each loop pass.
    fds: AtomicUsize,
    /// Size of the last readiness batch serviced, stored on each loop pass.
    ready: AtomicUsize,
    /// Peak of simultaneously open connections.
    peak: AtomicUsize,
    /// Streams dropped because their output queue overflowed.
    slow_drops: AtomicU64,
    /// Failed `accept(2)` passes.
    accept_errors: AtomicU64,
}

/// Selects one per-reactor book, to render it once per reactor.
type StatField<T> = fn(&ReactorStats) -> &T;

/// State shared between the threads and the [`Gateway`] handle, including
/// every count the gateway reports: each is kept once, where it happens.
#[derive(Default)]
struct Shared {
    active: AtomicUsize,
    peak: AtomicUsize,
    draining: AtomicBool,
    gate: Gate,
    /// Requests served per endpoint.
    completions: AtomicU64,
    metrics: AtomicU64,
    healthz: AtomicU64,
    slo: AtomicU64,
    /// Admission rejections (429s).
    rejected: AtomicU64,
    /// How far simulated time trails the clock driver's target, in
    /// simulated seconds (`f64` bits), stored by the sim thread on each
    /// pass.
    wall_lag: AtomicU64,
    /// Sim-loop passes.
    sim_wakes: AtomicU64,
    /// Passes whose step ran out of `STEP_CHUNK` with events still due.
    sim_truncations: AtomicU64,
    reactors: Vec<ReactorStats>,
}

impl Shared {
    /// The gateway section of `/metrics`, rendered at scrape time through
    /// the same Prometheus formatter as the sim snapshot.
    fn prometheus(&self, snapshot_age: Duration) -> String {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        let mut reg = MetricsRegistry::enabled();
        for (name, n) in [
            ("http_completions_requests", &self.completions),
            ("http_metrics_requests", &self.metrics),
            ("http_healthz_requests", &self.healthz),
            ("http_slo_requests", &self.slo),
            ("gateway_rejected_requests", &self.rejected),
            ("gateway_sim_wakes", &self.sim_wakes),
            ("gateway_sim_truncated_chunks", &self.sim_truncations),
        ] {
            let id = reg.counter(name);
            reg.set_counter(id, load(n));
        }
        let counters: [(&str, StatField<AtomicU64>); 2] = [
            ("gateway_slow_drops", |r| &r.slow_drops),
            ("gateway_accept_errors", |r| &r.accept_errors),
        ];
        for (family, count) in counters {
            for (i, r) in self.reactors.iter().enumerate() {
                let id = reg.counter(&labeled(family, "reactor", &i.to_string()));
                reg.set_counter(id, load(count(r)));
            }
        }
        let id = reg.gauge("wall_clock_lag_secs");
        reg.set(id, f64::from_bits(load(&self.wall_lag)));
        let id = reg.gauge("metrics_snapshot_age_ms");
        reg.set(id, snapshot_age.as_secs_f64() * 1e3);
        let gauges: [(&str, StatField<AtomicUsize>); 3] = [
            ("reactor_registered_fds", |r| &r.fds),
            ("reactor_ready_depth", |r| &r.ready),
            ("reactor_peak_streams", |r| &r.peak),
        ];
        for (family, level) in gauges {
            for (i, r) in self.reactors.iter().enumerate() {
                let id = reg.gauge(&labeled(family, "reactor", &i.to_string()));
                reg.set(id, level(r).load(Ordering::Relaxed) as f64);
            }
        }
        prometheus_text(&reg)
    }
}

/// The sim thread's latest rendering of the session's observers; reactors
/// serve it so no reactor ever reads the session.
struct Snapshot {
    /// Prometheus text of the session's metrics registry.
    metrics: String,
    /// The `GET /v1/slo` document, updated in place: a render adds only
    /// the windows sealed since the last one.
    slo: SloDocument,
    /// When it was rendered.
    at: Instant,
}

impl Snapshot {
    /// Renders the session's observers, computing its gauges first.
    fn render(session: &mut ServingSession) -> Snapshot {
        let mut snap = Snapshot {
            metrics: String::new(),
            slo: SloDocument::default(),
            at: Instant::now(),
        };
        snap.refresh(session);
        snap
    }

    /// Re-renders the snapshot from the session's current state.
    fn refresh(&mut self, session: &mut ServingSession) {
        self.metrics = prometheus_text(session.metrics());
        session.update_slo(&mut self.slo);
        self.at = Instant::now();
    }
}

/// Reactor → sim-thread signals; simulation state is exclusively the sim
/// thread's.
enum Ctl {
    /// Poke: a reactor injected an arrival or found a stale snapshot (or
    /// the gateway wants the sim loop to notice the drain flag).
    Ping,
    /// Drain barrier: the reactor has flushed (or force-closed) every
    /// connection and exited. Sent exactly once.
    Drained,
}

/// A running gateway; dropping it without [`Gateway::shutdown`] leaves the
/// serving threads detached.
pub struct Gateway {
    addr: SocketAddr,
    shared: Arc<Shared>,
    wakers: Vec<Waker>,
    ctl: Sender<Ctl>,
    reactors: Vec<JoinHandle<()>>,
    sim: Option<JoinHandle<SimOutcome>>,
}

/// What the sim thread hands back at join: the run result, which holds the
/// audit verdict, and the injected trace for replay.
type SimOutcome = (RunResult, Trace);

impl Gateway {
    /// Binds the `SO_REUSEPORT` listener group, spawns the sim thread and
    /// one reactor thread per listener, and returns immediately; the
    /// gateway is serving once this returns.
    pub fn start(
        sys_cfg: &AegaeonConfig,
        models: &[ModelSpec],
        gw: GatewayConfig,
    ) -> io::Result<Gateway> {
        assert!(gw.reactors >= 1, "need at least one reactor");
        let sock_addr = gw
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
        let (listeners, addr) = poll::reuseport_listener_group(sock_addr, gw.reactors)?;
        // std's 128-deep backlog overflows under swarm-rate connect bursts;
        // every group member gets the deep backlog (best-effort — the
        // kernel clamps to net.core.somaxconn).
        for l in &listeners {
            let _ = poll::widen_listen_backlog(l.as_raw_fd(), 4096);
        }
        // `/metrics` and `/v1/slo` need live instruments; telemetry is
        // observer-only (excluded from fingerprints), so forcing it on
        // cannot perturb the simulation or break replay equivalence. The
        // open session keeps instruments only: no spans, no sampled series.
        // Those come from replaying the injected trace.
        let mut sys_cfg = sys_cfg.clone();
        sys_cfg.telemetry = aegaeon_telemetry::TelemetrySpec::enabled();
        let mut session = ServingSession::open(&sys_cfg, models, gw.live_horizon);
        session.install_auditor(Box::new(InvariantAuditor::new()));
        let shared = Arc::new(Shared {
            gate: Gate::new(gw.max_inflight),
            reactors: (0..gw.reactors).map(|_| ReactorStats::default()).collect(),
            ..Shared::default()
        });
        let board = Arc::new(DirtyBoard::new(gw.reactors));
        let snapshot = Arc::new(Mutex::new(Snapshot::render(&mut session)));
        let (ctl_tx, ctl_rx) = std::sync::mpsc::channel::<Ctl>();
        let clock = ClockDriver::new(gw.mode);
        let epoch = Instant::now();
        let injector = session.injector();

        // Pollers (and their wakers) exist before any thread starts, so
        // the sim thread can wake reactors from its very first step.
        let mut pollers = Vec::with_capacity(gw.reactors);
        let mut wakers = Vec::with_capacity(gw.reactors);
        for l in &listeners {
            let mut p = Poller::new()?;
            p.register(l.as_raw_fd(), LISTEN_TOKEN)?;
            wakers.push(p.waker());
            pollers.push(p);
        }

        let sim = {
            let sim = SimThread {
                session,
                clock,
                epoch,
                ctl_rx,
                board: Arc::clone(&board),
                wakers: wakers.clone(),
                shared: Arc::clone(&shared),
                snapshot: Arc::clone(&snapshot),
                drained: 0,
            };
            thread::Builder::new()
                .name("gw-sim".into())
                .spawn(move || sim.run())?
        };

        let mut reactor_handles = Vec::with_capacity(gw.reactors);
        for (id, (listener, poller)) in listeners.into_iter().zip(pollers).enumerate() {
            let reactor = Reactor {
                id,
                listener,
                poller,
                injector: injector.clone(),
                ctl: ctl_tx.clone(),
                clock,
                epoch,
                board: Arc::clone(&board),
                n_models: models.len() as u32,
                max_connections: gw.max_connections,
                max_conn_buffer: gw.max_conn_buffer,
                sock_sndbuf: gw.sock_sndbuf,
                shared: Arc::clone(&shared),
                snapshot: Arc::clone(&snapshot),
                slab: Vec::new(),
                gen: Vec::new(),
                free: Vec::new(),
                streaming: Vec::new(),
                pending_write: Vec::new(),
                accept_retry: false,
            };
            reactor_handles.push(
                thread::Builder::new()
                    .name(format!("gw-io-{id}"))
                    .spawn(move || reactor.run())?,
            );
        }
        Ok(Gateway {
            addr,
            shared,
            wakers,
            ctl: ctl_tx,
            reactors: reactor_handles,
            sim: Some(sim),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting on every reactor, complete every
    /// admitted request (fast-forwarded — wall pacing no longer applies),
    /// flush all token streams on all reactors, and return the final
    /// report once the drain barrier completes.
    pub fn shutdown(mut self) -> GatewayReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        for w in &self.wakers {
            w.wake();
        }
        let _ = self.ctl.send(Ctl::Ping);
        for r in self.reactors.drain(..) {
            let _ = r.join();
        }
        let (result, trace) = self
            .sim
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("gateway sim thread panicked");
        let stats = &self.shared.reactors;
        GatewayReport {
            audit: result.audit.clone(),
            result,
            trace,
            rejections: self.shared.rejected.load(Ordering::Relaxed),
            slow_drops: stats
                .iter()
                .map(|r| r.slow_drops.load(Ordering::Relaxed))
                .sum(),
            peak_connections: self.shared.peak.load(Ordering::SeqCst),
            per_reactor_peak: stats
                .iter()
                .map(|r| r.peak.load(Ordering::Relaxed))
                .collect(),
            accept_errors: stats
                .iter()
                .map(|r| r.accept_errors.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Sim thread
// ---------------------------------------------------------------------------

/// Token sink handed to the session for one request: pushes into the
/// request's SPSC ring and marks the destination reactor dirty so the sim
/// loop wakes it after the step.
struct RingSink {
    prod: ring::Producer<TokenEv>,
    board: Arc<DirtyBoard>,
}

impl TokenSink for RingSink {
    fn deliver(&mut self, tok: TokenEv) -> bool {
        match self.prod.push(tok) {
            Ok(()) => {
                self.board.mark(self.prod.tag.reactor as usize);
                true
            }
            // Consumer gone: the client hung up (or was slow-dropped); the
            // simulated request still runs to completion.
            Err(PushError::Closed(_)) => false,
            // Rings are sized to the request's max output, so Full means a
            // protocol bug upstream; sever the stream rather than corrupt.
            Err(PushError::Full(_)) => {
                debug_assert!(false, "token ring overflow (ring under-sized?)");
                false
            }
        }
    }
}

struct SimThread {
    session: ServingSession,
    clock: ClockDriver,
    epoch: Instant,
    ctl_rx: Receiver<Ctl>,
    board: Arc<DirtyBoard>,
    wakers: Vec<Waker>,
    shared: Arc<Shared>,
    snapshot: Arc<Mutex<Snapshot>>,
    /// Reactors that have posted [`Ctl::Drained`] (one waker per reactor).
    drained: usize,
}

impl SimThread {
    fn run(mut self) -> SimOutcome {
        loop {
            if self.shared.draining.load(Ordering::SeqCst) {
                break;
            }
            self.shared.sim_wakes.fetch_add(1, Ordering::Relaxed);
            let stepped = Instant::now();
            let target = self.clock.sim_at(stepped - self.epoch);
            let (_, truncated) = self.session.step_bounded(target, STEP_CHUNK);
            let next = self.session.next_due();
            let lag = clock::lag_secs(next, target);
            self.shared.wall_lag.store(lag.to_bits(), Ordering::Relaxed);
            self.wake_dirty();
            if self.snapshot_age() >= METRICS_REFRESH {
                self.render_snapshot();
            }
            // Sleep until the next event is due, but no sooner than one
            // slice after this pass began: events due meanwhile are stepped
            // together when it ends. A control message still wakes the
            // loop at once.
            let timeout = if truncated {
                self.shared.sim_truncations.fetch_add(1, Ordering::Relaxed);
                Duration::ZERO
            } else {
                match next {
                    Some(t) => {
                        let slice = STEP_SLICE.saturating_sub(stepped.elapsed());
                        let due = self.clock.delay_for(t, self.epoch.elapsed());
                        due.max(slice).min(MAX_WAIT)
                    }
                    None => MAX_WAIT,
                }
            };
            match self.ctl_rx.recv_timeout(timeout) {
                Ok(msg) => {
                    self.handle_ctl(msg);
                    while let Ok(m) = self.ctl_rx.try_recv() {
                        self.handle_ctl(m);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.drain()
    }

    /// Drain: fast-forward to quiescence (waking reactors as their rings
    /// fill), cut every remaining sink, then hold the barrier until all
    /// reactors have flushed and checked in.
    fn drain(mut self) -> SimOutcome {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        loop {
            let (_, truncated) = self.session.step_bounded(SimTime::MAX, STEP_CHUNK);
            self.wake_dirty();
            if !truncated || Instant::now() >= deadline {
                break;
            }
        }
        // No further tokens will be produced (quiescent, halted, or past
        // the deadline): drop the remaining sinks so ring consumers observe
        // end of stream instead of waiting on tokens that never come.
        self.session.close_sinks();
        self.render_snapshot();
        for w in &self.wakers {
            w.wake();
        }
        // Barrier: hold the session until every reactor has flushed its
        // streams and checked in.
        while self.drained < self.wakers.len() && Instant::now() < deadline {
            match self.ctl_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(msg) => self.handle_ctl(msg),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        let trace = self.session.injected_trace();
        let (result, _) = self.session.finish();
        (result, trace)
    }

    fn handle_ctl(&mut self, msg: Ctl) {
        match msg {
            // Waking is the whole message: the loop re-checks its inputs.
            Ctl::Ping => {}
            Ctl::Drained => self.drained += 1,
        }
    }

    /// Wake exactly the reactors whose rings received tokens this step.
    fn wake_dirty(&self) {
        for (r, w) in self.wakers.iter().enumerate() {
            if self.board.take(r) {
                w.wake();
            }
        }
    }

    /// How long since the last render.
    fn snapshot_age(&self) -> Duration {
        self.snapshot.lock().expect("snapshot lock").at.elapsed()
    }

    /// Re-renders the `/metrics` and `/v1/slo` snapshot.
    fn render_snapshot(&mut self) {
        let mut snap = self.snapshot.lock().expect("snapshot lock");
        snap.refresh(&mut self.session);
    }
}

// ---------------------------------------------------------------------------
// I/O reactors
// ---------------------------------------------------------------------------

/// Per-connection protocol state.
enum ConnState {
    /// Accumulating the request head/body.
    Reading,
    /// SSE stream in flight; tokens arrive on the request's SPSC ring.
    Streaming {
        ring: ring::Consumer<TokenEv>,
        model: ModelId,
        /// Final token seen (or ring drained after the producer left) and
        /// admission released; the connection closes once the output
        /// queue drains.
        done: bool,
    },
    /// Response fully queued; close once flushed.
    Closing,
}

struct Conn {
    stream: TcpStream,
    out: WriteQueue,
    /// Last readiness edge said the socket accepts writes.
    writable: bool,
    /// Queued in `pending_write` (dedupe flag).
    queued: bool,
    parser: HttpParser,
    state: ConnState,
    last_activity: Instant,
}

struct Reactor {
    id: usize,
    listener: TcpListener,
    poller: Poller,
    injector: Injector<LiveRequest>,
    ctl: Sender<Ctl>,
    clock: ClockDriver,
    epoch: Instant,
    board: Arc<DirtyBoard>,
    n_models: u32,
    max_connections: usize,
    max_conn_buffer: usize,
    sock_sndbuf: Option<u32>,
    shared: Arc<Shared>,
    snapshot: Arc<Mutex<Snapshot>>,
    /// Generation-tagged connection slab: token = (gen << 32) | idx, so a
    /// stale readiness event (or ring tag) for a recycled slot can never
    /// touch the new occupant.
    slab: Vec<Option<Conn>>,
    gen: Vec<u32>,
    /// Empty slab slots; every other slot holds an open connection.
    free: Vec<usize>,
    /// Slab indices currently in `Streaming` state (token-pump worklist).
    streaming: Vec<usize>,
    /// Slab indices with queued output awaiting a pump (deduped).
    pending_write: Vec<usize>,
    /// The last accept pass ended on an error with connections possibly
    /// still queued: retry on the next loop tick.
    accept_retry: bool,
}

/// One pass over a listener's accept queue: `admit` gets each connection
/// `accept` yields until the queue reports `WouldBlock`. Returns the error
/// that ended the pass early instead (EMFILE, ENFILE, ...). Connections
/// behind it stay queued, and an edge-triggered poller will not report
/// them again, so the caller must retry the pass later.
fn accept_pass<C, S>(
    cx: &mut C,
    mut accept: impl FnMut(&mut C) -> io::Result<S>,
    mut admit: impl FnMut(&mut C, S),
) -> Option<io::Error> {
    loop {
        match accept(cx) {
            Ok(conn) => admit(cx, conn),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Some(e),
        }
    }
}

/// Copies one part of the sim snapshot, with the snapshot's age. The sim
/// thread only re-renders on its own loop iterations, so a scrape can find
/// the snapshot older than [`METRICS_REFRESH`] while the loop sleeps. Then
/// it sends a [`Ctl::Ping`]: after any wake the sim loop re-renders a
/// snapshot that old, so the next scrape is at most one loop iteration
/// stale.
fn read_snapshot(
    snapshot: &Mutex<Snapshot>,
    ctl: &Sender<Ctl>,
    part: impl FnOnce(&Snapshot) -> String,
) -> (String, Duration) {
    let (text, age) = {
        let snap = snapshot.lock().expect("snapshot lock");
        (part(&snap), snap.at.elapsed())
    };
    if age >= METRICS_REFRESH {
        let _ = ctl.send(Ctl::Ping);
    }
    (text, age)
}

impl Reactor {
    /// This reactor's books in the shared state.
    fn stats(&self) -> &ReactorStats {
        &self.shared.reactors[self.id]
    }

    /// Serves until drain.
    fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            if self.shared.draining.load(Ordering::SeqCst) {
                break;
            }
            if self.accept_retry {
                self.accept_ready();
            }
            self.pump_tokens();
            self.pump_writes();
            let stats = self.stats();
            stats.fds.store(self.poller.registered(), Ordering::Relaxed);
            stats.ready.store(events.len(), Ordering::Relaxed);
            if self.poller.wait(&mut events, Some(MAX_WAIT)).is_err() {
                break;
            }
            for &ev in events.iter() {
                match ev.token {
                    // Sim thread poke: rings have tokens; pumped at loop top.
                    WAKE_TOKEN => {}
                    LISTEN_TOKEN => self.accept_ready(),
                    tok => self.conn_event(tok, ev),
                }
            }
            if last_sweep.elapsed() >= SWEEP_EVERY {
                self.sweep_idle();
                last_sweep = Instant::now();
            }
        }
        self.drain_flush();
    }

    /// Drain: stop accepting, flush every in-flight stream (the sim thread
    /// is concurrently fast-forwarding tokens into our rings), force-close
    /// stragglers at the deadline, then post the barrier message.
    fn drain_flush(&mut self) {
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            self.pump_tokens();
            self.pump_writes();
            let flushed = self.slab.iter().flatten().all(|c| {
                c.out.is_empty() && !matches!(c.state, ConnState::Streaming { done: false, .. })
            });
            if flushed || Instant::now() >= deadline {
                break;
            }
            if self
                .poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .is_err()
            {
                break;
            }
            for &ev in events.iter() {
                if ev.token != WAKE_TOKEN && ev.token != LISTEN_TOKEN {
                    self.conn_event(ev.token, ev);
                }
            }
        }
        for idx in 0..self.slab.len() {
            self.close(idx);
        }
        let _ = self.ctl.send(Ctl::Drained);
    }

    fn accept_ready(&mut self) {
        let failed = accept_pass(
            self,
            |r| r.listener.accept().map(|(stream, _)| stream),
            Self::admit_conn,
        );
        self.accept_retry = failed.is_some();
        if failed.is_some() {
            self.stats().accept_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Registers an accepted connection, or sheds it when draining or over
    /// the connection cap.
    fn admit_conn(&mut self, stream: TcpStream) {
        if self.shared.draining.load(Ordering::SeqCst)
            || self.shared.active.load(Ordering::SeqCst) >= self.max_connections
        {
            return; // shed: over the fd budget (dropping closes it)
        }
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        if let Some(snd) = self.sock_sndbuf {
            let _ = poll::shrink_socket_buffers(stream.as_raw_fd(), Some(snd), None);
        }
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slab.push(None);
                self.gen.push(0);
                self.slab.len() - 1
            }
        };
        let token = ((self.gen[idx] as u64) << 32) | idx as u64;
        if self.poller.register(stream.as_raw_fd(), token).is_err() {
            self.free.push(idx);
            return;
        }
        self.slab[idx] = Some(Conn {
            stream,
            out: WriteQueue::new(self.max_conn_buffer),
            writable: true,
            queued: false,
            parser: HttpParser::new(),
            state: ConnState::Reading,
            last_activity: Instant::now(),
        });
        let now_active = self.shared.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.shared.peak.fetch_max(now_active, Ordering::SeqCst);
        let open = self.slab.len() - self.free.len();
        self.stats().peak.fetch_max(open, Ordering::SeqCst);
    }

    /// Resolve a generation-tagged token to a live slab index.
    fn resolve(&self, token: u64) -> Option<usize> {
        let idx = (token & 0xFFFF_FFFF) as usize;
        if idx < self.slab.len()
            && self.gen[idx] as u64 == token >> 32
            && self.slab[idx].is_some()
        {
            Some(idx)
        } else {
            None
        }
    }

    fn conn_event(&mut self, token: u64, ev: PollEvent) {
        let Some(idx) = self.resolve(token) else {
            return; // stale event for a recycled slot
        };
        if ev.writable {
            let has_out = {
                let conn = self.slab[idx].as_mut().expect("resolved");
                conn.writable = true;
                !conn.out.is_empty()
            };
            if has_out {
                self.mark_pending(idx);
            }
        }
        if ev.readable {
            self.conn_readable(idx);
        }
        // Flush progress (and any close-on-flush transition) right away.
        self.pump_writes();
        // A hung-up peer with nothing left to flush is reaped immediately;
        // streams rely on write errors so a half-closed reader still gets
        // its tokens.
        if ev.hangup {
            let reap = self
                .slab
                .get(idx)
                .and_then(|c| c.as_ref())
                .is_some_and(|c| matches!(c.state, ConnState::Closing) && c.out.is_empty());
            if reap {
                self.close(idx);
            }
        }
    }

    /// Edge-triggered read: consume until `WouldBlock`, feeding the parser
    /// while the connection still awaits a request.
    fn conn_readable(&mut self, idx: usize) {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let conn = match self.slab[idx].as_mut() {
                Some(c) => c,
                None => return, // closed mid-loop (error response etc.)
            };
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    // EOF. A streaming/closing peer may only have shut its
                    // write side down; the write path handles true death.
                    if matches!(conn.state, ConnState::Reading) {
                        self.close(idx);
                    }
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    if !matches!(conn.state, ConnState::Reading) {
                        continue; // pipelined bytes after the request: ignore
                    }
                    match conn.parser.feed(&buf[..n]) {
                        Ok(Some(req)) => {
                            self.route(idx, req.method, req.target, req.body);
                            // One request per connection: keep draining the
                            // socket (ET) but no further routing.
                        }
                        Ok(None) => {}
                        Err(e) => {
                            let (code, reason) = e.status();
                            let body = api::error_body("invalid_request", e.detail());
                            self.respond(idx, code, reason, "application/json", &body, &[]);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
    }

    fn route(&mut self, idx: usize, method: String, target: String, body: Vec<u8>) {
        let path = target.split('?').next().unwrap_or("");
        match (method.as_str(), path) {
            ("GET", "/healthz") => {
                self.shared.healthz.fetch_add(1, Ordering::Relaxed);
                self.respond(idx, 200, "OK", "text/plain", "ok\n", &[]);
            }
            ("GET", "/metrics") => {
                self.shared.metrics.fetch_add(1, Ordering::Relaxed);
                let (mut text, age) =
                    read_snapshot(&self.snapshot, &self.ctl, |s| s.metrics.clone());
                text.push_str(&self.shared.prometheus(age));
                self.respond(idx, 200, "OK", "text/plain; version=0.0.4", &text, &[]);
            }
            ("GET", "/v1/slo") => {
                self.shared.slo.fetch_add(1, Ordering::Relaxed);
                let (json, _) = read_snapshot(&self.snapshot, &self.ctl, |s| s.slo.to_json());
                self.respond(idx, 200, "OK", "application/json", &json, &[]);
            }
            ("POST", "/v1/completions") => self.route_completion(idx, &body),
            (_, "/healthz" | "/metrics" | "/v1/completions" | "/v1/slo") => {
                self.respond(
                    idx,
                    405,
                    "Method Not Allowed",
                    "application/json",
                    &api::error_body("method_not_allowed", "wrong method for this endpoint"),
                    &[],
                );
            }
            _ => {
                self.respond(
                    idx,
                    404,
                    "Not Found",
                    "application/json",
                    &api::error_body("not_found", "no such endpoint"),
                    &[],
                );
            }
        }
    }

    fn route_completion(&mut self, idx: usize, body: &[u8]) {
        let req = match api::parse_completion(body, self.n_models) {
            Ok(p) => p,
            Err(ApiError::Bad(msg)) => {
                return self.respond(
                    idx,
                    400,
                    "Bad Request",
                    "application/json",
                    &api::error_body("invalid_request", &msg),
                    &[],
                );
            }
            Err(ApiError::UnknownModel(m)) => {
                return self.respond(
                    idx,
                    404,
                    "Not Found",
                    "application/json",
                    &api::error_body("model_not_found", &format!("model {m} is not deployed")),
                    &[],
                );
            }
        };
        if self.shared.draining.load(Ordering::SeqCst) {
            return self.respond(
                idx,
                503,
                "Service Unavailable",
                "application/json",
                &api::error_body("unavailable", "gateway is draining"),
                &[],
            );
        }
        // Admission control: over-quota requests are turned away with a
        // backoff hint and never reach the simulation.
        if let Err(retry_after) = self.shared.gate.try_admit() {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            let retry = retry_after.to_string();
            return self.respond(
                idx,
                429,
                "Too Many Requests",
                "application/json",
                &api::error_body("rate_limit_exceeded", "in-flight quota exhausted"),
                &[("Retry-After", retry.as_str())],
            );
        }
        self.shared.completions.fetch_add(1, Ordering::Relaxed);
        // The ring holds the request's entire output, so the sim thread
        // can fast-forward an arbitrary backlog without ever blocking on
        // this reactor; the tag pins the delivery to this (gen, slot).
        let tag = RingTag::new(self.id as u32, self.gen[idx], idx as u32);
        let (prod, cons) = ring::ring::<TokenEv>(req.output_tokens as usize, tag);
        let not_before = self.clock.sim_at(self.epoch.elapsed());
        self.injector.send(
            not_before,
            LiveRequest {
                req,
                sink: Some(Box::new(RingSink {
                    prod,
                    board: Arc::clone(&self.board),
                })),
            },
        );
        // The sim thread may be idle-sleeping on its control channel.
        let _ = self.ctl.send(Ctl::Ping);
        let conn = self.slab[idx].as_mut().expect("routed conn");
        // The head is finite and the queue is empty here; cap-exempt so a
        // test-sized cap can never truncate the protocol preamble.
        conn.out.push_unchecked(&http::sse_head());
        conn.state = ConnState::Streaming {
            ring: cons,
            model: req.model,
            done: false,
        };
        self.streaming.push(idx);
        self.mark_pending(idx);
    }

    /// Queue a complete response and transition to `Closing`.
    fn respond(
        &mut self,
        idx: usize,
        code: u16,
        reason: &str,
        content_type: &str,
        body: &str,
        extra: &[(&str, &str)],
    ) {
        let bytes = http::response(code, reason, content_type, body, extra);
        let conn = self.slab[idx].as_mut().expect("responding conn");
        // Cap-exempt: a one-shot response is bounded by its own size and
        // the connection closes once it flushes — the cap exists to bound
        // *streams*, not to reject a `/metrics` body larger than a
        // test-sized cap.
        conn.out.push_unchecked(&bytes);
        conn.state = ConnState::Closing;
        self.mark_pending(idx);
    }

    fn mark_pending(&mut self, idx: usize) {
        let conn = self.slab[idx].as_mut().expect("pending conn");
        if !conn.queued {
            conn.queued = true;
            self.pending_write.push(idx);
        }
    }

    /// Drain every streaming connection's token ring into its output
    /// queue. Overflow = slow reader = drop (the backpressure contract).
    fn pump_tokens(&mut self) {
        let mut j = 0;
        while j < self.streaming.len() {
            let idx = self.streaming[j];
            j += 1;
            enum Outcome {
                Keep,
                Done,
                SlowDrop,
            }
            let mut outcome = Outcome::Keep;
            let mut newly_queued = false;
            {
                let Some(conn) = self.slab[idx].as_mut() else {
                    continue;
                };
                let ConnState::Streaming { ring, model, done } = &mut conn.state else {
                    continue;
                };
                if *done {
                    continue;
                }
                loop {
                    match ring.pop() {
                        Some(tok) => {
                            let chunk = api::completion_chunk(
                                tok.req.0,
                                *model,
                                tok.index,
                                tok.at.as_nanos(),
                                tok.done,
                                tok.prefix_hit,
                            );
                            let mut frame = sse::event(&chunk);
                            if tok.done {
                                frame.push_str(sse::DONE_FRAME);
                            }
                            if conn.out.push(frame.as_bytes()).is_err() {
                                outcome = Outcome::SlowDrop;
                                break;
                            }
                            newly_queued = true;
                            if tok.done {
                                outcome = Outcome::Done;
                                break;
                            }
                        }
                        // Producer gone with the ring empty: truncated
                        // stream (session finished/halted mid-stream), no
                        // DONE sentinel; flush what was queued and close.
                        None if ring.is_drained() => {
                            outcome = Outcome::Done;
                            break;
                        }
                        None => break,
                    }
                }
            }
            match outcome {
                Outcome::Keep => {
                    if newly_queued {
                        self.mark_pending(idx);
                    }
                }
                Outcome::Done => {
                    let conn = self.slab[idx].as_mut().expect("streaming conn");
                    if let ConnState::Streaming { done, .. } = &mut conn.state {
                        self.shared.gate.release();
                        *done = true;
                    }
                    self.mark_pending(idx);
                }
                Outcome::SlowDrop => {
                    self.stats().slow_drops.fetch_add(1, Ordering::Relaxed);
                    self.close(idx);
                }
            }
        }
        // Compact the worklist: drop closed and finished entries.
        let slab = &self.slab;
        self.streaming.retain(|&i| {
            matches!(
                slab[i].as_ref().map(|c| &c.state),
                Some(ConnState::Streaming { done: false, .. })
            )
        });
    }

    /// Flush pending output queues on writable connections; close the ones
    /// that finished their lifecycle.
    fn pump_writes(&mut self) {
        let mut work = std::mem::take(&mut self.pending_write);
        for idx in work.drain(..) {
            let should_close = {
                let Some(conn) = self.slab[idx].as_mut() else {
                    continue;
                };
                conn.queued = false;
                if !conn.writable {
                    continue; // re-queued by the next writable edge
                }
                match conn.out.pump(&mut conn.stream) {
                    Ok(true) => {
                        conn.last_activity = Instant::now();
                        // Fully flushed: is the connection finished?
                        matches!(
                            conn.state,
                            ConnState::Closing | ConnState::Streaming { done: true, .. }
                        )
                    }
                    Ok(false) => {
                        conn.last_activity = Instant::now();
                        conn.writable = false;
                        false
                    }
                    Err(_) => true,
                }
            };
            if should_close {
                self.close(idx);
            }
        }
        // Reuse the allocation.
        if self.pending_write.is_empty() {
            self.pending_write = work;
        }
    }

    /// Reap connections that have sat idle without completing a request
    /// (or without flushing their final response).
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        for idx in 0..self.slab.len() {
            let Some(conn) = self.slab[idx].as_ref() else {
                continue;
            };
            let stale = now.duration_since(conn.last_activity) >= IDLE_TIMEOUT;
            if stale && !matches!(conn.state, ConnState::Streaming { .. }) {
                self.close(idx);
            }
        }
    }

    fn close(&mut self, idx: usize) {
        let Some(conn) = self.slab[idx].take() else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        if let ConnState::Streaming { done: false, .. } = conn.state {
            self.shared.gate.release();
        }
        // Bumping the generation retires every outstanding tag for this
        // slot: stale poller events and stale ring deliveries both fail
        // the generation check. Dropping the ring consumer (inside `conn`)
        // tells the sim-side producer to stop pushing.
        self.gen[idx] = self.gen[idx].wrapping_add(1);
        self.free.push(idx);
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
        // Dropping `conn.stream` closes the fd; the session keeps feeding
        // any still-live sink into a closed ring, which is harmless.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A scripted accept queue: each pass pops results until one ends it.
    fn run_pass(
        queue: &mut VecDeque<io::Result<u32>>,
        admitted: &mut Vec<u32>,
    ) -> Option<io::Error> {
        let mut cx = (queue, admitted);
        accept_pass(
            &mut cx,
            |(q, _)| {
                q.pop_front()
                    .unwrap_or_else(|| Err(io::ErrorKind::WouldBlock.into()))
            },
            |(_, a), conn| a.push(conn),
        )
    }

    #[test]
    fn accept_pass_stops_at_a_failed_accept_and_resumes_on_retry() {
        const EMFILE: i32 = 24;
        let mut queue: VecDeque<io::Result<u32>> = VecDeque::from([
            Ok(1),
            Err(io::ErrorKind::Interrupted.into()),
            Ok(2),
            Err(io::Error::from_raw_os_error(EMFILE)),
            Ok(3),
            Ok(4),
        ]);
        let mut admitted = Vec::new();
        let failed = run_pass(&mut queue, &mut admitted).expect("pass ends on EMFILE");
        assert_eq!(failed.raw_os_error(), Some(EMFILE));
        assert_eq!(admitted, [1, 2], "an interrupted accept is retried at once");
        assert_eq!(queue.len(), 2, "connections behind the error stay queued");
        // The retry on the next tick drains the rest.
        assert!(run_pass(&mut queue, &mut admitted).is_none());
        assert_eq!(admitted, [1, 2, 3, 4]);
    }

    #[test]
    fn gate_bounds_in_flight_with_a_one_second_hint() {
        let gate = Gate::new(3);
        for _ in 0..3 {
            assert_eq!(gate.try_admit(), Ok(()));
        }
        assert_eq!(
            gate.try_admit(),
            Err(1),
            "fourth in flight refused, 1 s hint"
        );
        gate.release();
        assert_eq!(gate.try_admit(), Ok(()), "a released slot is reusable");
        assert_eq!(gate.try_admit(), Err(1));
    }

    #[test]
    fn gate_release_without_admit_is_a_noop() {
        let gate = Gate::new(1);
        gate.release();
        assert_eq!(gate.inflight.load(Ordering::Relaxed), 0);
        assert_eq!(gate.try_admit(), Ok(()));
        assert_eq!(
            gate.try_admit(),
            Err(1),
            "a stray release must not widen the bound"
        );
    }

    #[test]
    fn gate_zero_means_unlimited() {
        let gate = Gate::new(0);
        for _ in 0..10_000 {
            assert_eq!(gate.try_admit(), Ok(()));
        }
    }

    /// Threads racing to admit and release never hold more than the bound
    /// at once, and every slot comes back.
    #[test]
    fn gate_never_admits_past_its_bound_across_threads() {
        const K: u32 = 3;
        let gate = Gate::new(K);
        const THREADS: usize = 8;
        let (holding, peak, admitted) = (AtomicU32::new(0), AtomicU32::new(0), AtomicU64::new(0));
        let start = std::sync::Barrier::new(THREADS);
        thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..2_000 {
                        if gate.try_admit().is_err() {
                            continue;
                        }
                        let now = holding.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        thread::yield_now();
                        holding.fetch_sub(1, Ordering::SeqCst);
                        gate.release();
                        admitted.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= K,
            "in flight exceeded the bound"
        );
        assert!(admitted.load(Ordering::SeqCst) > 0);
        assert_eq!(
            gate.inflight.load(Ordering::SeqCst),
            0,
            "every slot released"
        );
    }

    fn snapshot_aged(age: Duration) -> Mutex<Snapshot> {
        Mutex::new(Snapshot {
            metrics: "metrics".into(),
            slo: SloDocument::default(),
            at: Instant::now() - age,
        })
    }

    #[test]
    fn stale_snapshot_read_pings_the_sim_thread() {
        let (tx, rx) = std::sync::mpsc::channel();
        let (text, age) = read_snapshot(&snapshot_aged(Duration::ZERO), &tx, |s| s.metrics.clone());
        assert_eq!(text, "metrics");
        assert!(age < METRICS_REFRESH);
        assert!(rx.try_recv().is_err(), "a fresh snapshot needs no render");
        let (text, age) =
            read_snapshot(&snapshot_aged(METRICS_REFRESH), &tx, |s| s.metrics.clone());
        assert_eq!(text, "metrics");
        assert!(age >= METRICS_REFRESH);
        assert!(
            matches!(rx.try_recv(), Ok(Ctl::Ping)),
            "a stale read must wake the sim"
        );
    }

    /// An idle gateway never serves an arbitrarily stale snapshot: the sim
    /// loop wakes at least every `MAX_WAIT` (or at once on a stale scrape's
    /// ping) and re-renders a snapshot older than `METRICS_REFRESH`, so
    /// scrape-time `metrics_snapshot_age_ms` stays under their sum. The
    /// slack absorbs thread scheduling on a loaded host.
    #[test]
    fn stale_metrics_scrape_forces_a_rerender() {
        const SLACK: Duration = Duration::from_millis(200);
        let models =
            aegaeon_model::Zoo::replicate(&aegaeon_model::Zoo::standard().market_band(), 1);
        let gw = Gateway::start(
            &AegaeonConfig::small_testbed(1, 1),
            &models,
            GatewayConfig::local(ClockMode::Timewarp(50.0)),
        )
        .expect("gateway start");
        let rtt = Duration::from_secs(30);
        for pause_ms in [0, 400, 150, 250, 330] {
            thread::sleep(Duration::from_millis(pause_ms));
            let text = crate::client::request(gw.addr(), "GET", "/metrics", None, rtt)
                .expect("scrape")
                .text();
            let age_ms: f64 = text
                .lines()
                .find_map(|l| l.strip_prefix("metrics_snapshot_age_ms "))
                .expect("snapshot age exported")
                .parse()
                .expect("numeric age");
            let bound = METRICS_REFRESH + MAX_WAIT + SLACK;
            assert!(
                age_ms < bound.as_secs_f64() * 1e3,
                "served a {age_ms} ms old snapshot after {pause_ms} ms idle"
            );
        }
        gw.shutdown();
    }
}
