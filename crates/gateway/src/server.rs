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
//! state, so determinism needs no locks at all.
//!
//! Work crosses the boundary exactly three ways:
//!
//! * **Arrivals** flow reactor → sim through the session's thread-safe
//!   [`Injector`] (the existing injection port; stamps are assigned at pop
//!   boundaries on the sim thread, so reactor count cannot perturb replay).
//! * **Tokens** flow sim → reactor through one bounded SPSC
//!   [`ring`](crate::ring) per request, created by the owning reactor and
//!   sized to the request's maximum output, so a well-formed stream can
//!   never overflow it. Each ring handle is tagged `(reactor, generation,
//!   slot)`; a recycled connection bumps the slot generation, so a stale
//!   delivery can never reach the wrong stream. A `DirtyBoard` flag per
//!   reactor tells the sim loop exactly which reactor `Waker`s to poke
//!   after a step flushes tokens.
//! * **Observer-only notes** (endpoint counters, 429s, slow drops, health
//!   gauges) flow reactor → sim over an unbounded control channel; they
//!   touch only the metrics registry, which fingerprints exclude.
//!
//! A failed `accept(2)` (EMFILE, ENFILE, ...) is counted per reactor
//! (`gateway_accept_errors{reactor="i"}` in `/metrics`,
//! [`GatewayReport::accept_errors`] at shutdown). Connections queued behind
//! it raise no new readiness edge, so the reactor retries the accept on
//! its next loop tick instead of waiting for the next connection.
//!
//! `/metrics` and `/v1/slo` are served from snapshots the sim thread
//! re-renders every `METRICS_REFRESH`; reactors never read the session
//! directly. A scrape that finds the snapshot older than the refresh
//! cadence (the sim thread only renders on its own loop iterations, which
//! an idle or busy loop can stretch) posts a `Ctl::ForceRender` so the
//! sim thread re-renders promptly; the observed staleness is exported as
//! the `metrics_snapshot_age_ms` gauge.
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
//! [`GatewayReport::slow_drops`] at shutdown). Admission quotas are shared
//! across reactors behind a mutex taken once per request lifecycle, never
//! per token.
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use aegaeon::proxy::{Admission, AdmissionPolicy};
use aegaeon::session::{Endpoint, LiveRequest, ServingSession, TokenSink};
use aegaeon::{AegaeonConfig, AuditReport, InvariantAuditor, RunResult, TokenEv};
use aegaeon_model::{ModelId, ModelSpec};
use aegaeon_sim::queue::Injector;
use aegaeon_sim::SimTime;
use aegaeon_telemetry::prometheus_text;
use aegaeon_workload::Trace;

use crate::api::{self, ApiError};
use crate::clock::{ClockDriver, ClockMode};
use crate::http::HttpParser;
use crate::outbuf::WriteQueue;
use crate::poll::{self, PollEvent, Poller, Waker, WAKE_TOKEN};
use crate::ring::{self, DirtyBoard, PushError, RingTag};
use crate::{http, sse};

/// Poller token for the listening socket.
const LISTEN_TOKEN: u64 = u64::MAX - 1;
/// Simulation events dispatched per sim-loop iteration before the control
/// channel is re-checked; bounds how long arrivals/notes can queue behind
/// sim work.
const STEP_CHUNK: u64 = 8192;
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
/// Cadence of each reactor's health-gauge report to the sim thread.
const GAUGE_EVERY: Duration = Duration::from_millis(250);

/// Gateway deployment settings.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Sim↔wall mapping.
    pub(crate) mode: ClockMode,
    /// Fault/hard-stop horizon for the open session.
    pub live_horizon: SimTime,
    /// Admission quotas (shared across reactors).
    pub admission: AdmissionPolicy,
    /// Install the invariant auditor (observer only).
    pub(crate) audit: bool,
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
    /// Loopback on an ephemeral port, a 1-hour horizon, default admission,
    /// auditor on, one reactor, 16k connection cap, 256 KiB write buffers.
    pub fn local(mode: ClockMode) -> GatewayConfig {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            mode,
            live_horizon: SimTime::from_secs_f64(3600.0),
            admission: AdmissionPolicy::default_gateway(),
            audit: true,
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
    /// Audit report (when `GatewayConfig::audit` was set), including the
    /// gateway rejection book.
    pub audit: Option<AuditReport>,
    /// Every admitted request with its simulated arrival stamp — replay it
    /// with [`ServingSession::replay`] to reproduce the run offline. The
    /// trace format is reactor-count invariant: stamps are assigned by the
    /// injection port on the sim thread, never by an I/O thread.
    pub trace: Trace,
    /// Streams dropped by write-back backpressure (slow readers), summed
    /// across reactors.
    pub slow_drops: u64,
    /// Peak simultaneously-open connections per reactor, indexed by
    /// reactor id — the accept-sharding balance evidence.
    pub per_reactor_peak: Vec<usize>,
    /// Failed `accept(2)` calls per reactor, indexed by reactor id.
    pub accept_errors: Vec<u64>,
}

/// State shared between the threads and the [`Gateway`] handle.
struct Shared {
    active: AtomicUsize,
    peak: AtomicUsize,
    draining: AtomicBool,
    /// Per-reactor peak of simultaneously open connections.
    reactor_peaks: Vec<AtomicUsize>,
}

/// Reactor → sim-thread control messages. Everything here is
/// observer-only (metrics registry traffic) or pure signaling; simulation
/// state is exclusively the sim thread's.
enum Ctl {
    /// Poke: a reactor injected an arrival (or the gateway wants the sim
    /// loop to notice the drain flag).
    Ping,
    /// One request served on an endpoint.
    Note(Endpoint),
    /// One admission rejection (429).
    Rejection,
    /// One slow-reader drop on a reactor.
    SlowDrop(usize),
    /// One failed `accept(2)` on a reactor.
    AcceptError(usize),
    /// Periodic reactor health gauges.
    Gauges {
        reactor: usize,
        fds: usize,
        ready: usize,
    },
    /// A scrape found the `/metrics` (or `/v1/slo`) snapshot older than
    /// [`METRICS_REFRESH`]: re-render promptly instead of waiting for the
    /// next sim-loop iteration to notice.
    ForceRender,
    /// Drain barrier: the reactor has flushed (or force-closed) every
    /// connection and exited. Sent exactly once, after its final messages.
    Drained,
}

/// A running gateway; dropping it without [`Gateway::shutdown`] leaves the
/// serving threads detached.
pub struct Gateway {
    addr: SocketAddr,
    shared: Arc<Shared>,
    wakers: Vec<Waker>,
    ctl: Sender<Ctl>,
    /// Reactor threads; each returns its failed-accept count.
    reactors: Vec<JoinHandle<u64>>,
    sim: Option<JoinHandle<SimOutcome>>,
}

/// What the sim thread hands back at join: the run result, the audit
/// verdict, the injected trace for replay, and the slow-drop tally.
type SimOutcome = (RunResult, Option<AuditReport>, Trace, u64);

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
        // `/metrics` needs live instruments; telemetry is observer-only
        // (excluded from fingerprints), so forcing it on cannot perturb
        // the simulation or break replay equivalence.
        let mut sys_cfg = sys_cfg.clone();
        sys_cfg.telemetry = aegaeon_telemetry::TelemetrySpec::enabled();
        let mut session = ServingSession::open(&sys_cfg, models, gw.live_horizon);
        session.configure_reactors(gw.reactors);
        if gw.audit {
            session.install_auditor(Box::new(InvariantAuditor::new()));
        }
        let shared = Arc::new(Shared {
            active: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            reactor_peaks: (0..gw.reactors).map(|_| AtomicUsize::new(0)).collect(),
        });
        let board = Arc::new(DirtyBoard::new(gw.reactors));
        let snapshot = Arc::new(Mutex::new(prometheus_text(session.metrics())));
        let slo_snapshot = Arc::new(Mutex::new(session.slo_snapshot_json()));
        let render_stamp = Arc::new(Mutex::new(Instant::now()));
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
                slo_snapshot: Arc::clone(&slo_snapshot),
                render_stamp: Arc::clone(&render_stamp),
                force_render: false,
                n_reactors: gw.reactors,
                drained: 0,
            };
            thread::Builder::new()
                .name("gw-sim".into())
                .spawn(move || sim.run())?
        };

        let admission = Arc::new(Mutex::new(Admission::new(gw.admission)));
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
                admission: Arc::clone(&admission),
                max_connections: gw.max_connections,
                max_conn_buffer: gw.max_conn_buffer,
                sock_sndbuf: gw.sock_sndbuf,
                shared: Arc::clone(&shared),
                snapshot: Arc::clone(&snapshot),
                slo_snapshot: Arc::clone(&slo_snapshot),
                render_stamp: Arc::clone(&render_stamp),
                slab: Vec::new(),
                gen: Vec::new(),
                free: Vec::new(),
                streaming: Vec::new(),
                pending_write: Vec::new(),
                local_active: 0,
                accept_errors: 0,
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

    /// High-water mark of simultaneously open connections (global).
    pub fn peak_connections(&self) -> usize {
        self.shared.peak.load(Ordering::SeqCst)
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
        let accept_errors = self
            .reactors
            .drain(..)
            .map(|r| r.join().unwrap_or(0))
            .collect();
        let (result, audit, trace, slow_drops) = self
            .sim
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("gateway sim thread panicked");
        let per_reactor_peak = self
            .shared
            .reactor_peaks
            .iter()
            .map(|p| p.load(Ordering::SeqCst))
            .collect();
        GatewayReport {
            result,
            audit,
            trace,
            slow_drops,
            per_reactor_peak,
            accept_errors,
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
    snapshot: Arc<Mutex<String>>,
    slo_snapshot: Arc<Mutex<String>>,
    /// When the snapshots were last rendered; reactors read it to decide
    /// whether a scrape should post [`Ctl::ForceRender`].
    render_stamp: Arc<Mutex<Instant>>,
    /// A stale scrape asked for a prompt re-render (deduped per ctl batch).
    force_render: bool,
    n_reactors: usize,
    drained: usize,
}

impl SimThread {
    fn run(mut self) -> SimOutcome {
        loop {
            if self.shared.draining.load(Ordering::SeqCst) {
                break;
            }
            let target = self.clock.sim_at(self.epoch.elapsed());
            let (_, truncated) = self.session.step_bounded(target, STEP_CHUNK);
            self.session
                .set_wall_lag(self.clock.lag_secs(self.session.now(), self.epoch.elapsed()));
            self.wake_dirty();
            if self.force_render || self.snapshot_age() >= METRICS_REFRESH {
                self.render_snapshot();
            }
            let timeout = if truncated {
                Duration::ZERO
            } else {
                match self.session.next_due() {
                    Some(t) => self.clock.delay_for(t, self.epoch.elapsed()).min(MAX_WAIT),
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
        // Barrier: reactors post their final notes and then `Drained`; the
        // per-sender FIFO of the channel guarantees nothing is lost.
        while self.drained < self.n_reactors && Instant::now() < deadline {
            match self.ctl_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(msg) => self.handle_ctl(msg),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.render_snapshot();
        let trace = self.session.injected_trace();
        let slow_drops = self.session.slow_drops();
        let (result, audit) = self.session.finish();
        (result, audit, trace, slow_drops)
    }

    fn handle_ctl(&mut self, msg: Ctl) {
        match msg {
            Ctl::Ping => {}
            Ctl::Note(ep) => self.session.note_endpoint(ep),
            Ctl::Rejection => self.session.note_rejection(),
            Ctl::SlowDrop(reactor) => self.session.note_slow_drop(reactor),
            Ctl::AcceptError(reactor) => self.session.note_accept_error(reactor),
            Ctl::Gauges {
                reactor,
                fds,
                ready,
            } => {
                let peak = self.shared.reactor_peaks[reactor].load(Ordering::SeqCst);
                self.session.set_reactor_gauges(reactor, fds, ready, peak);
            }
            Ctl::ForceRender => self.force_render = true,
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

    /// Age of the rendered snapshots (how long since the last render).
    fn snapshot_age(&self) -> Duration {
        self.render_stamp.lock().expect("render stamp lock").elapsed()
    }

    /// Re-renders the `/metrics` and `/v1/slo` snapshots. The age of the
    /// snapshot being replaced is recorded first (as
    /// `metrics_snapshot_age_ms`), so the fresh snapshot reports the
    /// staleness a concurrent scrape could actually have observed.
    fn render_snapshot(&mut self) {
        let age = self.snapshot_age();
        self.session.note_snapshot_age(age.as_secs_f64() * 1e3);
        let text = prometheus_text(self.session.metrics());
        *self.snapshot.lock().expect("snapshot lock") = text;
        let slo = self.session.slo_snapshot_json();
        *self.slo_snapshot.lock().expect("slo snapshot lock") = slo;
        *self.render_stamp.lock().expect("render stamp lock") = Instant::now();
        self.force_render = false;
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
    admission: Arc<Mutex<Admission>>,
    max_connections: usize,
    max_conn_buffer: usize,
    sock_sndbuf: Option<u32>,
    shared: Arc<Shared>,
    snapshot: Arc<Mutex<String>>,
    slo_snapshot: Arc<Mutex<String>>,
    render_stamp: Arc<Mutex<Instant>>,
    /// Generation-tagged connection slab: token = (gen << 32) | idx, so a
    /// stale readiness event (or ring tag) for a recycled slot can never
    /// touch the new occupant.
    slab: Vec<Option<Conn>>,
    gen: Vec<u32>,
    free: Vec<usize>,
    /// Slab indices currently in `Streaming` state (token-pump worklist).
    streaming: Vec<usize>,
    /// Slab indices with queued output awaiting a pump (deduped).
    pending_write: Vec<usize>,
    /// Connections this reactor currently owns (its share of `shared.active`).
    local_active: usize,
    /// Failed `accept(2)` calls so far.
    accept_errors: u64,
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

impl Reactor {
    /// Serves until drain; returns the failed-accept count.
    fn run(mut self) -> u64 {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut last_sweep = Instant::now();
        let mut last_gauges = Instant::now();
        loop {
            if self.shared.draining.load(Ordering::SeqCst) {
                break;
            }
            if self.accept_retry {
                self.accept_ready();
            }
            self.pump_tokens();
            self.pump_writes();
            if last_gauges.elapsed() >= GAUGE_EVERY {
                let _ = self.ctl.send(Ctl::Gauges {
                    reactor: self.id,
                    fds: self.poller.registered(),
                    ready: events.len(),
                });
                last_gauges = Instant::now();
            }
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
        self.accept_errors
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
        // Final health report, then the barrier message — per-sender FIFO
        // means the sim thread sees every note before `Drained`.
        let _ = self.ctl.send(Ctl::Gauges {
            reactor: self.id,
            fds: self.poller.registered(),
            ready: 0,
        });
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
            self.accept_errors += 1;
            let _ = self.ctl.send(Ctl::AcceptError(self.id));
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
        self.local_active += 1;
        self.shared.reactor_peaks[self.id].fetch_max(self.local_active, Ordering::SeqCst);
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
                let _ = self.ctl.send(Ctl::Note(Endpoint::Healthz));
                self.respond(idx, 200, "OK", "text/plain", "ok\n", &[]);
            }
            ("GET", "/metrics") => {
                let _ = self.ctl.send(Ctl::Note(Endpoint::Metrics));
                self.nudge_stale_snapshot();
                let text = self.snapshot.lock().expect("snapshot lock").clone();
                self.respond(idx, 200, "OK", "text/plain; version=0.0.4", &text, &[]);
            }
            ("GET", "/v1/slo") => {
                let _ = self.ctl.send(Ctl::Note(Endpoint::Slo));
                self.nudge_stale_snapshot();
                let json = self.slo_snapshot.lock().expect("slo snapshot lock").clone();
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

    /// Staleness guard for scrape endpoints: the sim thread only re-renders
    /// snapshots on its own loop iterations, so a scrape can observe a
    /// snapshot arbitrarily older than [`METRICS_REFRESH`] while the loop
    /// idles. When that happens, post a [`Ctl::ForceRender`] (and a ping is
    /// implicit — the ctl recv wakes the sim thread) so the next scrape is
    /// at most one loop iteration stale.
    fn nudge_stale_snapshot(&self) {
        let age = self.render_stamp.lock().expect("render stamp lock").elapsed();
        if age >= METRICS_REFRESH {
            let _ = self.ctl.send(Ctl::ForceRender);
        }
    }

    fn route_completion(&mut self, idx: usize, body: &[u8]) {
        let params = match api::parse_completion(body, self.n_models) {
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
        // backoff hint and never reach the simulation. The quota book is
        // shared across reactors; the lock is taken once per request
        // lifecycle (admit/release), never per token.
        let admit = self
            .admission
            .lock()
            .expect("admission lock")
            .try_admit(params.model);
        if let Err(retry_after) = admit {
            let _ = self.ctl.send(Ctl::Rejection);
            let retry = retry_after.to_string();
            return self.respond(
                idx,
                429,
                "Too Many Requests",
                "application/json",
                &api::error_body("rate_limit_exceeded", "per-model quota exhausted"),
                &[("Retry-After", retry.as_str())],
            );
        }
        let _ = self.ctl.send(Ctl::Note(Endpoint::Completions));
        // The ring holds the request's entire output, so the sim thread
        // can fast-forward an arbitrary backlog without ever blocking on
        // this reactor; the tag pins the delivery to this (gen, slot).
        let tag = RingTag::new(self.id as u32, self.gen[idx], idx as u32);
        let (prod, cons) = ring::ring::<TokenEv>(params.output_tokens as usize, tag);
        let not_before = self.clock.sim_at(self.epoch.elapsed());
        self.injector.send(
            not_before,
            LiveRequest {
                model: params.model,
                input_tokens: params.input_tokens,
                output_tokens: params.output_tokens,
                session: params.session,
                turn_index: params.turn_index,
                prefix_tokens: params.prefix_tokens,
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
            model: params.model,
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
                    if let ConnState::Streaming { model, done, .. } = &mut conn.state {
                        self.admission
                            .lock()
                            .expect("admission lock")
                            .release(*model);
                        *done = true;
                    }
                    self.mark_pending(idx);
                }
                Outcome::SlowDrop => {
                    let _ = self.ctl.send(Ctl::SlowDrop(self.id));
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
        if let ConnState::Streaming { model, done: false, .. } = conn.state {
            self.admission
                .lock()
                .expect("admission lock")
                .release(model);
        }
        // Bumping the generation retires every outstanding tag for this
        // slot: stale poller events and stale ring deliveries both fail
        // the generation check. Dropping the ring consumer (inside `conn`)
        // tells the sim-side producer to stop pushing.
        self.gen[idx] = self.gen[idx].wrapping_add(1);
        self.free.push(idx);
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
        self.local_active = self.local_active.saturating_sub(1);
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
}
