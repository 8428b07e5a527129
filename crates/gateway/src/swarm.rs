//! Open-loop SSE load swarm: tens of thousands of concurrent streams from
//! a handful of threads.
//!
//! The blocking [`client`](crate::client) opens one thread per in-flight
//! stream — fine for a dozen, fatal for ten thousand. The swarm splits the
//! work the same way the server's reactor does:
//!
//! * **Connector threads** (a small fixed pool) claim requests off a
//!   shared cursor over the time-ordered schedule, sleep until each fire
//!   instant, record the firing lag (open-loop honesty: if the generator
//!   saturates, the lag shows it — the bench gates on it), then connect,
//!   write the request blocking, flip the socket nonblocking, and hand it
//!   to the reader.
//! * **One reader thread** owns a `Poller` over every live stream,
//!   parses response heads and SSE frames incrementally
//!   ([`sse::SseScanner`]), and timestamps tokens for TTFT/TBT.
//!
//! Thread count is `connectors + 1` regardless of how many streams are
//! simultaneously open.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::poll::{self, PollEvent, Poller, WAKE_TOKEN};
use crate::sse::{self, SseScanner};

/// Swarm tuning knobs.
#[derive(Debug, Clone)]
pub struct SwarmOptions {
    /// Connector thread pool size.
    pub connectors: usize,
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Reconnect attempts when the listen backlog sheds the SYN.
    pub connect_retries: u32,
    /// Shrink each socket's kernel receive buffer (Linux only; slow-reader
    /// tests use this to make server-side backpressure trip quickly).
    pub sock_rcvbuf: Option<u32>,
}

impl Default for SwarmOptions {
    fn default() -> SwarmOptions {
        SwarmOptions {
            // One firing thread per core: connect(2) + write(2) are the
            // hot path, and matching the host keeps firing lag flat as
            // the schedule rate climbs.
            connectors: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(8),
            connect_timeout: Duration::from_secs(5),
            connect_retries: 10,
            sock_rcvbuf: None,
        }
    }
}

/// Outcome of one scheduled stream.
#[derive(Debug, Clone, Default)]
pub struct StreamSample {
    /// HTTP status (0 when the connection failed before a response head).
    pub status: u16,
    /// SSE data payloads received, excluding the `[DONE]` sentinel.
    pub tokens: u32,
    /// Fire → first token.
    pub ttft: Option<Duration>,
    /// Inter-token gaps.
    pub tbts: Vec<Duration>,
    /// `[DONE]` sentinel observed (clean end of stream).
    pub done: bool,
    /// Connect/read failed mid-flight.
    pub io_error: bool,
    /// How late the request actually fired vs. its schedule slot.
    pub(crate) fire_lag: Duration,
}

/// Live progress counters, readable while the swarm runs.
#[derive(Debug, Default)]
pub struct SwarmGauges {
    open: AtomicUsize,
    peak_open: AtomicUsize,
    fired: AtomicUsize,
    responded: AtomicUsize,
    finished: AtomicUsize,
    max_fire_lag_ns: AtomicU64,
}

impl SwarmGauges {
    /// Streams currently open (handed to the reader, not yet finalized).
    pub fn open(&self) -> usize {
        self.open.load(Ordering::SeqCst)
    }
    /// High-water mark of simultaneously open streams.
    pub fn peak_open(&self) -> usize {
        self.peak_open.load(Ordering::SeqCst)
    }
    /// Requests fired so far.
    pub fn fired(&self) -> usize {
        self.fired.load(Ordering::SeqCst)
    }
    /// Streams whose HTTP response head has arrived — i.e. the gateway has
    /// routed (admitted or rejected) the request.
    pub fn responded(&self) -> usize {
        self.responded.load(Ordering::SeqCst)
    }
    /// Streams finalized (cleanly or not).
    pub fn finished(&self) -> usize {
        self.finished.load(Ordering::SeqCst)
    }
    /// Worst firing lag observed.
    pub fn max_fire_lag(&self) -> Duration {
        Duration::from_nanos(self.max_fire_lag_ns.load(Ordering::SeqCst))
    }
}

/// A launched swarm; [`Swarm::join`] blocks until every stream resolves.
pub struct Swarm {
    gauges: Arc<SwarmGauges>,
    samples: Arc<Mutex<Vec<Option<StreamSample>>>>,
    connectors: Vec<JoinHandle<()>>,
    reader: JoinHandle<()>,
}

impl Swarm {
    /// Fires `schedule` — `(fire offset from now, POST body JSON)` pairs,
    /// which must be sorted by offset — at `/v1/completions` on `addr`.
    pub fn launch(
        addr: SocketAddr,
        schedule: Vec<(Duration, String)>,
        opts: SwarmOptions,
    ) -> io::Result<Swarm> {
        Swarm::launch_multi(vec![addr], schedule, opts)
    }

    /// Like [`Swarm::launch`] but round-robins connections across several
    /// destination addresses (request `i` → `addrs[i % addrs.len()]`).
    ///
    /// A single client→server 4-tuple family caps out at the ephemeral
    /// port range (~28k concurrent streams on a default Linux). Pointing
    /// the swarm at several loopback aliases of a gateway bound to
    /// `0.0.0.0` (`127.0.0.1`, `127.0.0.2`, …) multiplies the tuple space
    /// — the 100k-stream soak needs this.
    pub fn launch_multi(
        addrs: Vec<SocketAddr>,
        schedule: Vec<(Duration, String)>,
        opts: SwarmOptions,
    ) -> io::Result<Swarm> {
        assert!(!addrs.is_empty(), "need at least one destination address");
        let addrs = Arc::new(addrs);
        let n = schedule.len();
        let gauges = Arc::new(SwarmGauges::default());
        let samples = Arc::new(Mutex::new(vec![None; n]));
        let schedule = Arc::new(schedule);
        let cursor = Arc::new(AtomicUsize::new(0));
        let epoch = Instant::now();

        let poller = Poller::new()?;
        let waker = poller.waker();
        let (handoff_tx, handoff_rx) = mpsc::channel::<(usize, TcpStream, Instant)>();

        let reader = {
            let gauges = Arc::clone(&gauges);
            let samples = Arc::clone(&samples);
            thread::Builder::new()
                .name("swarm-reader".into())
                .spawn(move || reader_loop(poller, handoff_rx, gauges, samples, n))?
        };

        let connectors = (0..opts.connectors.max(1))
            .map(|c| {
                let gauges = Arc::clone(&gauges);
                let samples = Arc::clone(&samples);
                let schedule = Arc::clone(&schedule);
                let cursor = Arc::clone(&cursor);
                let addrs = Arc::clone(&addrs);
                let handoff = handoff_tx.clone();
                let waker = waker.clone();
                let opts = opts.clone();
                thread::Builder::new()
                    .name(format!("swarm-fire-{c}"))
                    .spawn(move || {
                        connector_loop(
                            &addrs, &schedule, &cursor, epoch, &opts, &gauges, &samples, &handoff,
                            &waker,
                        )
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;
        drop(handoff_tx);

        Ok(Swarm {
            gauges,
            samples,
            connectors,
            reader,
        })
    }

    /// Live counters.
    pub fn gauges(&self) -> &SwarmGauges {
        &self.gauges
    }

    /// Blocks until every scheduled stream resolves; returns the samples
    /// in schedule order.
    pub fn join(self) -> Vec<StreamSample> {
        for c in self.connectors {
            let _ = c.join();
        }
        let _ = self.reader.join();
        let mut samples = self.samples.lock().expect("swarm samples");
        samples
            .iter_mut()
            .map(|s| s.take().unwrap_or_default())
            .collect()
    }
}

#[allow(clippy::too_many_arguments)]
fn connector_loop(
    addrs: &[SocketAddr],
    schedule: &[(Duration, String)],
    cursor: &AtomicUsize,
    epoch: Instant,
    opts: &SwarmOptions,
    gauges: &SwarmGauges,
    samples: &Mutex<Vec<Option<StreamSample>>>,
    handoff: &mpsc::Sender<(usize, TcpStream, Instant)>,
    waker: &poll::Waker,
) {
    loop {
        let i = cursor.fetch_add(1, Ordering::SeqCst);
        let Some((offset, body)) = schedule.get(i) else {
            return;
        };
        let due = epoch + *offset;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        let fired_at = Instant::now();
        let fire_lag = fired_at.saturating_duration_since(due);
        gauges
            .max_fire_lag_ns
            .fetch_max(fire_lag.as_nanos() as u64, Ordering::SeqCst);
        gauges.fired.fetch_add(1, Ordering::SeqCst);

        match open_stream(addrs[i % addrs.len()], body, opts) {
            Ok(stream) => {
                // Pre-seed the lag before the handoff so the reader can
                // never finalize first and then be overwritten.
                {
                    let mut samples = samples.lock().expect("swarm samples");
                    if let Some(slot) = samples.get_mut(i) {
                        *slot = Some(StreamSample {
                            fire_lag,
                            ..Default::default()
                        });
                    }
                }
                let now_open = gauges.open.fetch_add(1, Ordering::SeqCst) + 1;
                gauges.peak_open.fetch_max(now_open, Ordering::SeqCst);
                if handoff.send((i, stream, fired_at)).is_err() {
                    // Reader gone (shouldn't happen before completion).
                    gauges.open.fetch_sub(1, Ordering::SeqCst);
                    finalize(
                        samples,
                        gauges,
                        i,
                        StreamSample {
                            io_error: true,
                            fire_lag,
                            ..Default::default()
                        },
                    );
                    continue;
                }
                waker.wake();
            }
            Err(_) => {
                finalize(
                    samples,
                    gauges,
                    i,
                    StreamSample {
                        io_error: true,
                        fire_lag,
                        ..Default::default()
                    },
                );
            }
        }
    }
}

/// Connect (with bounded retries against backlog shedding), write the full
/// request blocking, then flip nonblocking for the reader.
fn open_stream(addr: SocketAddr, body: &str, opts: &SwarmOptions) -> io::Result<TcpStream> {
    let mut attempt = 0;
    let stream = loop {
        match TcpStream::connect_timeout(&addr, opts.connect_timeout) {
            Ok(s) => break s,
            Err(e) => {
                attempt += 1;
                if attempt > opts.connect_retries {
                    return Err(e);
                }
                thread::sleep(Duration::from_millis(10 * attempt as u64));
            }
        }
    };
    stream.set_nodelay(true)?;
    if let Some(rcv) = opts.sock_rcvbuf {
        let _ = poll::shrink_socket_buffers(stream.as_raw_fd(), None, Some(rcv));
    }
    let mut stream = stream;
    let req = format!(
        "POST /v1/completions HTTP/1.1\r\nHost: gateway\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(req.as_bytes())?;
    stream.flush()?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

fn finalize(
    samples: &Mutex<Vec<Option<StreamSample>>>,
    gauges: &SwarmGauges,
    i: usize,
    sample: StreamSample,
) {
    let mut samples = samples.lock().expect("swarm samples");
    if let Some(slot) = samples.get_mut(i) {
        *slot = Some(sample);
    }
    gauges.finished.fetch_add(1, Ordering::SeqCst);
}

/// Per-stream read state in the reader.
struct Live {
    stream: TcpStream,
    fired_at: Instant,
    /// Accumulates until the blank line ends the response head.
    head: Vec<u8>,
    status: u16,
    in_body: bool,
    scanner: SseScanner,
    tokens: u32,
    ttft: Option<Duration>,
    tbts: Vec<Duration>,
    last_token_at: Option<Instant>,
    done: bool,
    fire_lag: Duration,
}

fn reader_loop(
    mut poller: Poller,
    handoff: mpsc::Receiver<(usize, TcpStream, Instant)>,
    gauges: Arc<SwarmGauges>,
    samples: Arc<Mutex<Vec<Option<StreamSample>>>>,
    total: usize,
) {
    let mut live: Vec<Option<Live>> = Vec::new();
    let mut slots: VecDeque<usize> = VecDeque::new();
    // token = (slot << 32) | schedule index; slot resolves the Live entry,
    // the index names the sample.
    let mut events: Vec<PollEvent> = Vec::new();
    let mut payloads: Vec<String> = Vec::new();
    while gauges.finished.load(Ordering::SeqCst) < total {
        // Adopt newly fired streams.
        while let Ok((i, stream, fired_at)) = handoff.try_recv() {
            let fire_lag = {
                let samples = samples.lock().expect("swarm samples");
                samples
                    .get(i)
                    .and_then(|s| s.as_ref())
                    .map(|s| s.fire_lag)
                    .unwrap_or_default()
            };
            let slot = slots.pop_front().unwrap_or_else(|| {
                live.push(None);
                live.len() - 1
            });
            let token = ((slot as u64) << 32) | i as u64;
            if poller.register(stream.as_raw_fd(), token).is_err() {
                slots.push_back(slot);
                gauges.open.fetch_sub(1, Ordering::SeqCst);
                finalize(
                    &samples,
                    &gauges,
                    i,
                    StreamSample {
                        io_error: true,
                        fire_lag,
                        ..Default::default()
                    },
                );
                continue;
            }
            live[slot] = Some(Live {
                stream,
                fired_at,
                head: Vec::new(),
                status: 0,
                in_body: false,
                scanner: SseScanner::new(),
                tokens: 0,
                ttft: None,
                tbts: Vec::new(),
                last_token_at: None,
                done: false,
                fire_lag,
            });
        }

        if poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .is_err()
        {
            break;
        }
        for &ev in events.iter() {
            if ev.token == WAKE_TOKEN {
                continue;
            }
            let slot = (ev.token >> 32) as usize;
            let i = (ev.token & 0xFFFF_FFFF) as usize;
            if !ev.readable && !ev.hangup {
                continue;
            }
            let finished = match live.get_mut(slot).and_then(|l| l.as_mut()) {
                Some(l) => {
                    let had_head = l.in_body;
                    let fin = read_stream(l, &mut payloads);
                    if !had_head && l.in_body {
                        gauges.responded.fetch_add(1, Ordering::SeqCst);
                    }
                    fin
                }
                None => continue, // stale event for a recycled slot
            };
            if finished {
                let l = live[slot].take().expect("live stream");
                let _ = poller.deregister(l.stream.as_raw_fd());
                slots.push_back(slot);
                gauges.open.fetch_sub(1, Ordering::SeqCst);
                finalize(
                    &samples,
                    &gauges,
                    i,
                    StreamSample {
                        status: l.status,
                        tokens: l.tokens,
                        ttft: l.ttft,
                        tbts: l.tbts,
                        done: l.done,
                        io_error: l.status == 0 && !l.done,
                        fire_lag: l.fire_lag,
                    },
                );
            }
        }
    }
}

/// Drain one stream's socket (edge-triggered); returns true when the
/// stream is over (EOF or error).
fn read_stream(l: &mut Live, payloads: &mut Vec<String>) -> bool {
    let mut buf = [0u8; 8 * 1024];
    loop {
        match l.stream.read(&mut buf) {
            Ok(0) => return true,
            Ok(n) => {
                let mut chunk = &buf[..n];
                if !l.in_body {
                    l.head.extend_from_slice(chunk);
                    if let Some(pos) = find_head_end(&l.head) {
                        l.status = parse_status(&l.head);
                        l.in_body = true;
                        // Replay body bytes that rode in with the head.
                        let body = l.head.split_off(pos);
                        payloads.clear();
                        l.scanner.feed(&body, payloads);
                        note_payloads(l, payloads);
                    }
                    chunk = &[];
                }
                if !chunk.is_empty() {
                    payloads.clear();
                    l.scanner.feed(chunk, payloads);
                    note_payloads(l, payloads);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
}

fn note_payloads(l: &mut Live, payloads: &[String]) {
    for p in payloads {
        if p == sse::DONE {
            l.done = true;
            continue;
        }
        let now = Instant::now();
        l.tokens += 1;
        match l.last_token_at {
            None => l.ttft = Some(now.saturating_duration_since(l.fired_at)),
            Some(prev) => l.tbts.push(now.saturating_duration_since(prev)),
        }
        l.last_token_at = Some(now);
    }
}

/// Byte offset just past the `\r\n\r\n` (or `\n\n`) head terminator.
fn find_head_end(head: &[u8]) -> Option<usize> {
    head.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .or_else(|| head.windows(2).position(|w| w == b"\n\n").map(|p| p + 2))
}

fn parse_status(head: &[u8]) -> u16 {
    let line = head.split(|&b| b == b'\n').next().unwrap_or(&[]);
    std::str::from_utf8(line)
        .ok()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}
