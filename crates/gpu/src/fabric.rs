//! Streams, events and links: the CUDA-like execution substrate.
//!
//! A [`Fabric`] owns every link and stream in the cluster and advances them
//! in virtual time. Users submit [`StreamOp`]s to streams; ops execute in
//! FIFO order per stream (CUDA stream semantics). Completions carry the
//! caller-provided tag `T`, which is how the serving systems learn that a
//! prefill step finished or a KV block transfer landed.
//!
//! Synchronization reproduces Table 2 of the paper:
//!
//! | CUDA API                  | Fabric equivalent                  |
//! |---------------------------|------------------------------------|
//! | `cudaEventRecord`         | [`Fabric::record_event`]           |
//! | `cudaEventQuery`          | [`Fabric::query_event`]            |
//! | `cudaStreamWaitEvent`     | [`Fabric::wait_event`]             |
//! | `cudaIpcGet/OpenEventHandle` | [`EventId`] is globally valid   |

use std::collections::VecDeque;

use aegaeon_sim::{FairLink, FlowId, FxHashMap, SimDur, Timeline};

/// Identifies a link (one direction of an interconnect channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Identifies a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub(crate) u32);

/// Identifies a CUDA-like event. Valid fabric-wide (IPC-shareable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) u32);

/// An operation submitted to a stream.
#[derive(Debug, Clone)]
pub enum StreamOp<T> {
    /// Occupies the stream for a fixed duration (kernels, GC passes, …).
    Compute {
        /// Execution time.
        dur: SimDur,
        /// Completion tag.
        tag: T,
    },
    /// Transfers `bytes` over `link`, contending with other flows.
    Copy {
        /// The link to use.
        link: LinkId,
        /// Transfer size.
        bytes: u64,
        /// Completion tag.
        tag: T,
    },
    /// Fires `event` once all prior work in the stream has completed
    /// (`cudaEventRecord`).
    RecordEvent {
        /// The event to fire.
        event: EventId,
    },
    /// Blocks the stream until `event` fires (`cudaStreamWaitEvent`).
    WaitEvent {
        /// The event to wait for.
        event: EventId,
    },
    /// Completes instantly once reached; useful as a completion callback.
    Marker {
        /// Completion tag.
        tag: T,
    },
}

/// Events the fabric schedules on the simulation timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricEvent {
    /// A fair-share link's earliest completion timer.
    LinkTimer {
        /// Link index.
        link: u32,
        /// Generation guarding against staleness.
        gen: u64,
    },
    /// A compute op finished.
    OpDone {
        /// Stream index.
        stream: u32,
        /// Token guarding against staleness.
        token: u64,
    },
}

/// What the fabric reports back to the orchestrator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completion<T> {
    /// A tagged op (compute/copy/marker) finished on `stream`.
    Op {
        /// The stream it ran on.
        stream: StreamId,
        /// The tag supplied at submission.
        tag: T,
    },
    /// An event fired.
    Event {
        /// The event.
        event: EventId,
    },
}

#[derive(Debug)]
enum Running {
    Idle,
    Compute { token: u64 },
    Copy { link: u32, flow: FlowId },
    Parked { event: u32 },
}

#[derive(Debug)]
struct Stream<T> {
    label: String,
    queue: VecDeque<StreamOp<T>>,
    state: Running,
    current_tag: Option<T>,
    compute_busy: SimDur,
}

#[derive(Debug)]
struct EventSlot {
    fired: bool,
    waiters: Vec<u32>,
}

/// The cluster-wide execution fabric.
///
/// `T` is the completion tag type chosen by the orchestrator.
#[derive(Debug)]
pub struct Fabric<T> {
    links: Vec<FairLink>,
    streams: Vec<Stream<T>>,
    events: Vec<EventSlot>,
    flow_owner: FxHashMap<(u32, FlowId), u32>,
    token: u64,
    /// Links whose books changed since the last [`Self::clear_dirty_links`].
    dirty: Vec<u32>,
}

impl<T: Clone> Default for Fabric<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> Fabric<T> {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        Fabric {
            links: Vec::new(),
            streams: Vec::new(),
            events: Vec::new(),
            flow_owner: FxHashMap::default(),
            token: 0,
            dirty: Vec::new(),
        }
    }

    /// Adds a link with `bandwidth` bytes/s and returns its id.
    pub fn add_link(&mut self, name: impl Into<String>, bandwidth: f64) -> LinkId {
        self.links.push(FairLink::new(name, bandwidth));
        LinkId(self.links.len() as u32 - 1)
    }

    /// Adds a stream and returns its id.
    pub fn add_stream(&mut self, label: impl Into<String>) -> StreamId {
        self.streams.push(Stream {
            label: label.into(),
            queue: VecDeque::new(),
            state: Running::Idle,
            current_tag: None,
            compute_busy: SimDur::ZERO,
        });
        StreamId(self.streams.len() as u32 - 1)
    }

    /// Creates an unfired event without recording it into any stream.
    fn create_event(&mut self) -> EventId {
        self.events.push(EventSlot {
            fired: false,
            waiters: Vec::new(),
        });
        EventId(self.events.len() as u32 - 1)
    }

    /// Submits an op to a stream; appends to `out` any completions that
    /// resolve immediately (markers, instant records, waits on fired
    /// events).
    pub fn submit(
        &mut self,
        stream: StreamId,
        op: StreamOp<T>,
        tl: &mut impl Timeline<FabricEvent>,
        out: &mut VecDeque<Completion<T>>,
    ) {
        self.streams[stream.0 as usize].queue.push_back(op);
        self.pump(stream.0, tl, out);
    }

    /// `cudaEventRecord`: creates an event that fires when all work
    /// currently in `stream` has completed.
    pub fn record_event(
        &mut self,
        stream: StreamId,
        tl: &mut impl Timeline<FabricEvent>,
        out: &mut VecDeque<Completion<T>>,
    ) -> EventId {
        let e = self.create_event();
        self.submit(stream, StreamOp::RecordEvent { event: e }, tl, out);
        e
    }

    /// `cudaStreamWaitEvent`: makes future work on `stream` wait for `event`.
    pub fn wait_event(
        &mut self,
        stream: StreamId,
        event: EventId,
        tl: &mut impl Timeline<FabricEvent>,
        out: &mut VecDeque<Completion<T>>,
    ) {
        self.submit(stream, StreamOp::WaitEvent { event }, tl, out);
    }

    /// `cudaEventQuery`: non-blocking completion check.
    pub fn query_event(&self, event: EventId) -> bool {
        self.events[event.0 as usize].fired
    }

    /// Handles a fabric event popped from the simulation queue; appends
    /// the completions it releases to `out`.
    pub fn advance(
        &mut self,
        ev: FabricEvent,
        tl: &mut impl Timeline<FabricEvent>,
        out: &mut VecDeque<Completion<T>>,
    ) {
        match ev {
            FabricEvent::OpDone { stream, token } => {
                let s = &mut self.streams[stream as usize];
                match s.state {
                    Running::Compute { token: t } if t == token => {
                        s.state = Running::Idle;
                        let tag = s.current_tag.take().expect("compute op had a tag");
                        out.push_back(Completion::Op {
                            stream: StreamId(stream),
                            tag,
                        });
                        self.pump(stream, tl, out);
                    }
                    // Stale tokens cannot normally occur (compute ops are
                    // never cancelled), but tolerate them for robustness.
                    _ => {}
                }
            }
            FabricEvent::LinkTimer { link, gen } => {
                let now = tl.now();
                // A stale timer means a newer one is already pending;
                // refreshing here would invalidate it and livelock.
                let Some(done) = self.links[link as usize].expire(now, gen) else {
                    return;
                };
                self.mark_dirty(link);
                for flow in done {
                    let owner = self
                        .flow_owner
                        .remove(&(link, flow))
                        .expect("completed flow has an owning stream");
                    let s = &mut self.streams[owner as usize];
                    debug_assert!(
                        matches!(s.state, Running::Copy { link: l, flow: f } if f == flow && l == link),
                        "stream {} not running flow {flow:?} on link {link}",
                        s.label
                    );
                    s.state = Running::Idle;
                    let tag = s.current_tag.take().expect("copy op had a tag");
                    out.push_back(Completion::Op {
                        stream: StreamId(owner),
                        tag,
                    });
                    self.pump(owner, tl, out);
                }
                self.refresh_link(link, tl);
            }
        }
    }

    /// Runs the head of `stream`'s queue as far as it will go.
    fn pump(
        &mut self,
        si: u32,
        tl: &mut impl Timeline<FabricEvent>,
        out: &mut VecDeque<Completion<T>>,
    ) {
        loop {
            let s = &mut self.streams[si as usize];
            if !matches!(s.state, Running::Idle) {
                return;
            }
            let Some(op) = s.queue.pop_front() else {
                return;
            };
            match op {
                StreamOp::Compute { dur, tag } => {
                    self.token += 1;
                    let token = self.token;
                    s.state = Running::Compute { token };
                    s.current_tag = Some(tag);
                    s.compute_busy += dur;
                    tl.schedule_after(dur, FabricEvent::OpDone { stream: si, token });
                    return;
                }
                StreamOp::Copy { link, bytes, tag } => {
                    let now = tl.now();
                    let flow = self.links[link.0 as usize].start_flow(now, bytes);
                    self.mark_dirty(link.0);
                    self.flow_owner.insert((link.0, flow), si);
                    let s = &mut self.streams[si as usize];
                    s.state = Running::Copy { link: link.0, flow };
                    s.current_tag = Some(tag);
                    self.refresh_link(link.0, tl);
                    return;
                }
                StreamOp::RecordEvent { event } => {
                    // All prior work in this stream has drained, so the
                    // event fires now.
                    self.fire_event(event.0, tl, out);
                }
                StreamOp::WaitEvent { event } => {
                    if self.events[event.0 as usize].fired {
                        continue;
                    }
                    s.state = Running::Parked { event: event.0 };
                    self.events[event.0 as usize].waiters.push(si);
                    return;
                }
                StreamOp::Marker { tag } => {
                    out.push_back(Completion::Op {
                        stream: StreamId(si),
                        tag,
                    });
                }
            }
        }
    }

    fn fire_event(
        &mut self,
        ei: u32,
        tl: &mut impl Timeline<FabricEvent>,
        out: &mut VecDeque<Completion<T>>,
    ) {
        let slot = &mut self.events[ei as usize];
        if slot.fired {
            return;
        }
        slot.fired = true;
        out.push_back(Completion::Event { event: EventId(ei) });
        let waiters = std::mem::take(&mut slot.waiters);
        for w in waiters {
            let s = &mut self.streams[w as usize];
            debug_assert!(
                matches!(s.state, Running::Parked { event } if event == ei),
                "waiter {} not parked on event {ei}",
                s.label
            );
            s.state = Running::Idle;
            self.pump(w, tl, out);
        }
    }

    fn refresh_link(&mut self, li: u32, tl: &mut impl Timeline<FabricEvent>) {
        if let Some((eta, gen)) = self.links[li as usize].deadline(tl.now()) {
            tl.schedule_at(eta, FabricEvent::LinkTimer { link: li, gen });
        }
    }

    /// True if the stream has no queued or running work.
    pub fn stream_idle(&self, stream: StreamId) -> bool {
        let s = &self.streams[stream.0 as usize];
        s.queue.is_empty() && matches!(s.state, Running::Idle)
    }

    /// Adds `dur` to the stream's compute-busy time without running an op:
    /// work the host times itself charges the stream when it starts, as a
    /// compute op does when it is pumped.
    pub fn charge_compute(&mut self, stream: StreamId, dur: SimDur) {
        self.streams[stream.0 as usize].compute_busy += dur;
    }

    /// Accumulated compute-busy time of the stream.
    pub fn stream_compute_busy(&self, stream: StreamId) -> SimDur {
        self.streams[stream.0 as usize].compute_busy
    }

    /// Read access to a link (bandwidth/occupancy statistics).
    pub fn link(&self, link: LinkId) -> &FairLink {
        &self.links[link.0 as usize]
    }

    /// Number of links (ids are dense: `LinkId(0)..LinkId(n)`).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Cuts a link's bandwidth to `factor` of its nominal rate (fault
    /// injection: transient congestion or a flapping interconnect).
    ///
    /// In-flight flows are settled at the old rate up to `now` and any live
    /// completion timer is reissued at the degraded rate.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor <= 1`.
    pub fn degrade_link(
        &mut self,
        link: LinkId,
        factor: f64,
        tl: &mut impl Timeline<FabricEvent>,
    ) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "degradation factor must be in (0, 1]"
        );
        let l = &mut self.links[link.0 as usize];
        l.set_bandwidth(tl.now(), l.nominal_bandwidth() * factor);
        self.mark_dirty(link.0);
        self.refresh_link(link.0, tl);
    }

    /// Restores a degraded link to full nominal bandwidth and reissues its
    /// completion timer.
    pub fn restore_link(&mut self, link: LinkId, tl: &mut impl Timeline<FabricEvent>) {
        self.links[link.0 as usize].restore_bandwidth(tl.now());
        self.mark_dirty(link.0);
        self.refresh_link(link.0, tl);
    }

    /// Logs that link `li`'s books changed. Every link mutation goes
    /// through a flow start, a timer expiry or a bandwidth change (the
    /// fabric never cancels a flow), and each marks its link.
    fn mark_dirty(&mut self, li: u32) {
        if self.dirty.last() != Some(&li) {
            self.dirty.push(li);
        }
    }

    /// Links whose books changed since the last
    /// [`Self::clear_dirty_links`], in first-touch order (a link touched
    /// again after another may appear twice): the links an auditor must
    /// re-check.
    pub fn dirty_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.dirty.iter().map(|&l| LinkId(l))
    }

    /// Empties the dirty-link log.
    #[inline]
    pub fn clear_dirty_links(&mut self) {
        self.dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegaeon_sim::{EventQueue, SimTime};

    type Q = EventQueue<FabricEvent>;

    fn run(fabric: &mut Fabric<&'static str>, q: &mut Q) -> Vec<(SimTime, Completion<&'static str>)> {
        let mut out = Vec::new();
        let mut cs = VecDeque::new();
        while let Some((t, ev)) = q.pop() {
            fabric.advance(ev, q, &mut cs);
            out.extend(cs.drain(..).map(|c| (t, c)));
        }
        out
    }

    fn ops_only(
        v: &[(SimTime, Completion<&'static str>)],
    ) -> Vec<(f64, &'static str)> {
        v.iter()
            .filter_map(|(t, c)| match c {
                Completion::Op { tag, .. } => Some((t.as_secs_f64(), *tag)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn compute_ops_serialize_on_one_stream() {
        let mut f: Fabric<&'static str> = Fabric::new();
        let mut q = Q::new();
        let mut cs = VecDeque::new();
        let s = f.add_stream("s");
        f.submit(s, StreamOp::Compute { dur: SimDur::from_secs(1), tag: "a" }, &mut q, &mut cs);
        f.submit(s, StreamOp::Compute { dur: SimDur::from_secs(2), tag: "b" }, &mut q, &mut cs);
        let done = ops_only(&run(&mut f, &mut q));
        assert_eq!(done, vec![(1.0, "a"), (3.0, "b")]);
    }

    #[test]
    fn streams_run_in_parallel() {
        let mut f: Fabric<&'static str> = Fabric::new();
        let mut q = Q::new();
        let mut cs = VecDeque::new();
        let s1 = f.add_stream("s1");
        let s2 = f.add_stream("s2");
        f.submit(s1, StreamOp::Compute { dur: SimDur::from_secs(3), tag: "long" }, &mut q, &mut cs);
        f.submit(s2, StreamOp::Compute { dur: SimDur::from_secs(1), tag: "short" }, &mut q, &mut cs);
        let done = ops_only(&run(&mut f, &mut q));
        assert_eq!(done, vec![(1.0, "short"), (3.0, "long")]);
    }

    #[test]
    fn copies_contend_on_links() {
        let mut f: Fabric<&'static str> = Fabric::new();
        let mut q = Q::new();
        let mut cs = VecDeque::new();
        let l = f.add_link("pcie", 1e9);
        let s1 = f.add_stream("s1");
        let s2 = f.add_stream("s2");
        f.submit(s1, StreamOp::Copy { link: l, bytes: 1_000_000_000, tag: "c1" }, &mut q, &mut cs);
        f.submit(s2, StreamOp::Copy { link: l, bytes: 1_000_000_000, tag: "c2" }, &mut q, &mut cs);
        let done = ops_only(&run(&mut f, &mut q));
        // Fair sharing: both finish at ~2 s instead of 1 s.
        assert_eq!(done.len(), 2);
        for (t, _) in done {
            assert!((t - 2.0).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    fn record_then_wait_synchronizes_across_streams() {
        let mut f: Fabric<&'static str> = Fabric::new();
        let mut q = Q::new();
        let mut cs = VecDeque::new();
        let s1 = f.add_stream("producer");
        let s2 = f.add_stream("consumer");
        f.submit(s1, StreamOp::Compute { dur: SimDur::from_secs(2), tag: "produce" }, &mut q, &mut cs);
        let e = f.record_event(s1, &mut q, &mut cs);
        assert!(!f.query_event(e), "event must not fire before prior work");
        f.wait_event(s2, e, &mut q, &mut cs);
        f.submit(s2, StreamOp::Compute { dur: SimDur::from_secs(1), tag: "consume" }, &mut q, &mut cs);
        let done = ops_only(&run(&mut f, &mut q));
        assert_eq!(done, vec![(2.0, "produce"), (3.0, "consume")]);
        assert!(f.query_event(e));
    }

    #[test]
    fn wait_on_fired_event_is_instant() {
        let mut f: Fabric<&'static str> = Fabric::new();
        let mut q = Q::new();
        let mut cs = VecDeque::new();
        let s1 = f.add_stream("s1");
        let s2 = f.add_stream("s2");
        let e = f.record_event(s1, &mut q, &mut cs); // empty stream: fires now
        assert!(f.query_event(e));
        f.wait_event(s2, e, &mut q, &mut cs);
        cs.clear();
        f.submit(s2, StreamOp::Marker { tag: "go" }, &mut q, &mut cs);
        assert!(matches!(&cs[0], Completion::Op { tag: "go", .. }));
    }

    #[test]
    fn multiple_waiters_release_together() {
        let mut f: Fabric<&'static str> = Fabric::new();
        let mut q = Q::new();
        let mut cs = VecDeque::new();
        let p = f.add_stream("p");
        let a = f.add_stream("a");
        let b = f.add_stream("b");
        f.submit(p, StreamOp::Compute { dur: SimDur::from_secs(1), tag: "p" }, &mut q, &mut cs);
        let e = f.record_event(p, &mut q, &mut cs);
        f.wait_event(a, e, &mut q, &mut cs);
        f.wait_event(b, e, &mut q, &mut cs);
        f.submit(a, StreamOp::Marker { tag: "a" }, &mut q, &mut cs);
        f.submit(b, StreamOp::Marker { tag: "b" }, &mut q, &mut cs);
        let done = ops_only(&run(&mut f, &mut q));
        assert_eq!(done, vec![(1.0, "p"), (1.0, "a"), (1.0, "b")]);
    }

    #[test]
    fn figure10_swapin_waits_for_swapout() {
        // The running example of §5.3: a decoding instance's KV swap-in for
        // R1 must wait until the prefill instance finishes swapping R1 out
        // (rule ❷), and decode starts only after the swap-in (rule ❶).
        let mut f: Fabric<&'static str> = Fabric::new();
        let mut q = Q::new();
        let mut cs = VecDeque::new();
        let d2h = f.add_link("pcie-d2h", 1e9);
        let h2d = f.add_link("pcie-h2d", 1e9);
        let prefill_out = f.add_stream("prefill.kv_out");
        let decode_in = f.add_stream("decode.kv_in");
        let decode = f.add_stream("decode.default");

        // ① record + ② memcpy on the prefill instance.
        f.submit(prefill_out, StreamOp::Copy { link: d2h, bytes: 500_000_000, tag: "kvout" }, &mut q, &mut cs);
        let e_out = f.record_event(prefill_out, &mut q, &mut cs);
        // ③ the decoding instance pauses its swap-in stream on the event
        // (shared via IPC — EventIds are fabric-global).
        f.wait_event(decode_in, e_out, &mut q, &mut cs);
        // ④⑤ swap-in copy.
        f.submit(decode_in, StreamOp::Copy { link: h2d, bytes: 500_000_000, tag: "kvin" }, &mut q, &mut cs);
        let e_in = f.record_event(decode_in, &mut q, &mut cs);
        // ⑥⑦ decode waits on the swap-in and then runs.
        f.wait_event(decode, e_in, &mut q, &mut cs);
        f.submit(decode, StreamOp::Compute { dur: SimDur::from_millis(25), tag: "decode" }, &mut q, &mut cs);

        let done = ops_only(&run(&mut f, &mut q));
        assert_eq!(done[0], (0.5, "kvout"));
        assert_eq!(done[1], (1.0, "kvin"));
        assert!((done[2].0 - 1.025).abs() < 1e-6);
        assert_eq!(done[2].1, "decode");
    }

    #[test]
    fn busy_accounting() {
        let mut f: Fabric<&'static str> = Fabric::new();
        let mut q = Q::new();
        let mut cs = VecDeque::new();
        let l = f.add_link("pcie", 1e9);
        let s = f.add_stream("s");
        f.submit(s, StreamOp::Compute { dur: SimDur::from_secs(2), tag: "c" }, &mut q, &mut cs);
        f.submit(s, StreamOp::Copy { link: l, bytes: 1_000_000_000, tag: "x" }, &mut q, &mut cs);
        let done = ops_only(&run(&mut f, &mut q));
        assert_eq!(f.stream_compute_busy(s).as_secs_f64(), 2.0);
        // The copy occupies the stream for bytes / bandwidth after the compute.
        assert_eq!(done[1].1, "x");
        assert!((done[1].0 - 3.0).abs() < 1e-6, "t={}", done[1].0);
        assert_eq!(f.link(l).bytes_delivered(), 1e9);
    }

    #[test]
    fn degraded_link_slows_copy_until_restored() {
        // A 1 GB copy on a 1 GB/s link, degraded to 25% mid-flight.
        let mut f: Fabric<&'static str> = Fabric::new();
        let mut q = Q::new();
        let mut cs = VecDeque::new();
        let l = f.add_link("pcie", 1e9);
        let s = f.add_stream("s");
        f.submit(s, StreamOp::Copy { link: l, bytes: 1_000_000_000, tag: "x" }, &mut q, &mut cs);
        // 0.5 GB moves by t=0.5; degrade there. schedule_at clamps to now(),
        // so drive time forward by degrading inside the event loop.
        q.schedule_at(SimTime::from_secs_f64(0.5), FabricEvent::LinkTimer { link: 9999, gen: 0 });
        let mut out = Vec::new();
        while let Some((t, ev)) = q.pop() {
            if let FabricEvent::LinkTimer { link: 9999, .. } = ev {
                f.degrade_link(l, 0.25, &mut q);
                continue;
            }
            f.advance(ev, &mut q, &mut cs);
            out.extend(cs.drain(..).map(|c| (t, c)));
        }
        // Remaining 0.5 GB at 0.25 GB/s -> finishes at 0.5 + 2.0 = 2.5 s.
        let done = ops_only(&out);
        assert_eq!(done.len(), 1);
        assert!((done[0].0 - 2.5).abs() < 1e-6, "t={}", done[0].0);
        assert!(f.link(l).audit().is_none());

        // And degradation followed by restore.
        let mut f: Fabric<&'static str> = Fabric::new();
        let mut q = Q::new();
        let mut cs = VecDeque::new();
        let l = f.add_link("pcie", 1e9);
        let s = f.add_stream("s");
        f.submit(s, StreamOp::Copy { link: l, bytes: 1_000_000_000, tag: "x" }, &mut q, &mut cs);
        q.schedule_at(SimTime::from_secs_f64(0.5), FabricEvent::LinkTimer { link: 9998, gen: 0 });
        q.schedule_at(SimTime::from_secs_f64(1.5), FabricEvent::LinkTimer { link: 9997, gen: 0 });
        let mut out = Vec::new();
        while let Some((t, ev)) = q.pop() {
            match ev {
                FabricEvent::LinkTimer { link: 9998, .. } => f.degrade_link(l, 0.25, &mut q),
                FabricEvent::LinkTimer { link: 9997, .. } => f.restore_link(l, &mut q),
                _ => {
                    f.advance(ev, &mut q, &mut cs);
                    out.extend(cs.drain(..).map(|c| (t, c)));
                }
            }
        }
        // 0.5 GB by 0.5 s, 0.25 GB during the 1 s degraded window, and the
        // final 0.25 GB at full rate -> completes at 1.75 s.
        let done = ops_only(&out);
        assert_eq!(done.len(), 1);
        assert!((done[0].0 - 1.75).abs() < 1e-6, "t={}", done[0].0);
    }

    #[test]
    fn only_the_links_an_op_touched_are_dirty() {
        let mut f: Fabric<&'static str> = Fabric::new();
        let mut q = Q::new();
        let mut cs = VecDeque::new();
        let (a, b) = (f.add_link("a", 1e9), f.add_link("b", 1e9));
        let s = f.add_stream("s");
        let dirty = |f: &Fabric<&'static str>| f.dirty_links().collect::<Vec<_>>();
        f.submit(
            s,
            StreamOp::Compute {
                dur: SimDur::from_secs(1),
                tag: "c",
            },
            &mut q,
            &mut cs,
        );
        assert!(dirty(&f).is_empty(), "compute touches no link");
        f.submit(
            s,
            StreamOp::Copy {
                link: a,
                bytes: 1_000_000_000,
                tag: "x",
            },
            &mut q,
            &mut cs,
        );
        assert!(dirty(&f).is_empty(), "a queued copy has not started");
        let (_, ev) = q.pop().unwrap();
        f.advance(ev, &mut q, &mut cs);
        assert_eq!(dirty(&f), [a], "the copy started on a");
        f.clear_dirty_links();
        f.degrade_link(b, 0.5, &mut q);
        assert_eq!(dirty(&f), [b]);
        f.clear_dirty_links();
        f.restore_link(b, &mut q);
        assert_eq!(dirty(&f), [b]);
        f.clear_dirty_links();
        let (_, ev) = q.pop().unwrap();
        f.advance(ev, &mut q, &mut cs);
        assert_eq!(dirty(&f), [a], "the copy finished on a");
    }

    #[test]
    fn manual_barrier_event() {
        let mut f: Fabric<&'static str> = Fabric::new();
        let mut q = Q::new();
        let mut cs = VecDeque::new();
        let s = f.add_stream("s");
        let gate = f.create_event();
        f.wait_event(s, gate, &mut q, &mut cs);
        f.submit(s, StreamOp::Marker { tag: "after-gate" }, &mut q, &mut cs);
        assert!(run(&mut f, &mut q).is_empty(), "stream must stay parked");
        f.fire_event(gate.0, &mut q, &mut cs);
        assert!(cs
            .iter()
            .any(|c| matches!(c, Completion::Op { tag: "after-gate", .. })));
    }
}
