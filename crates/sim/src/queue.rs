//! The event queue and the [`Timeline`] scheduling capability.
//!
//! A simulation is driven by draining an [`EventQueue<E>`]: the owner pops
//! `(time, event)` pairs in nondecreasing time order and dispatches them on a
//! top-level event enum. Sub-systems (the GPU fabric, inference engines, …)
//! are written against the [`Timeline`] trait with their *own* event type and
//! are embedded into the top-level enum through [`Lift`], which keeps every
//! crate independently testable.
//!
//! # Heap layout
//!
//! [`EventQueue`] keys every event by a packed `u128`
//! (`(time_ns << 64) | seq`), so time order *and* FIFO tie-breaking resolve
//! in a single integer comparison. Keys are unique, and the queue keeps
//! them in two structures:
//!
//! * **A sorted run**: a `VecDeque` of `(key, event)` pairs in ascending
//!   key order. `schedule_at` appends to it, in O(1), whenever the new key
//!   is above the run's last key (or the run is empty). A trace's
//!   arrivals, pre-scheduled in time order before the run starts, all land
//!   here, so they never enter the heap and the heap holds only in-flight
//!   events.
//! * **An indexed 4-ary min-heap** for every other push. Keys live in their
//!   own array, separate from the event payloads: sift operations touch only
//!   the dense key array (four children share a cache line) and move
//!   payloads once per level at most. The 4-ary shape halves tree depth
//!   versus a binary heap, trading a few extra comparisons per level for
//!   far fewer cache misses.
//!
//! `pop` and `peek_time` take the smaller of the two heads. Since keys are
//! unique, the pop order is exactly that of a single heap over all keys.
//! The run's last key is the largest in the queue: a key enters the heap
//! only below it, so it pops before it. The run is therefore empty only
//! when the whole queue is, and its head is where `pop` and `peek_time`
//! start.
//!
//! The previous `BinaryHeap<Reverse<…>>` implementation is retained as
//! [`BinaryHeapQueue`], the oracle the queue's unit tests and its property
//! tests check pop order against. The queue's speed is measured by the
//! benchmark package's traced runs, reported as `sim.queue.ns_per_op`.
//!
//! # Monotonic-stamp guard
//!
//! `schedule_at` with a target earlier than the last dispatched stamp is a
//! bug in the scheduling code (a stale push would silently reorder against
//! events that already fired). Debug builds **panic** with a diagnostic;
//! release builds clamp to `now()` as a causality backstop, preserving the
//! long-standing documented behavior for production runs.
//!
//! # External injection
//!
//! Open-system (live) runs feed events into the queue from other threads
//! through an [`InjectionPort`]: a thread-safe channel whose receiving side
//! stamps every item with the monotonic guard
//! `stamp = max(requested, floor + 1 ns, last_stamp + 1 ns)` (the floor at
//! or after the clock) and only
//! *admits* an item once the queue holds nothing earlier than its stamp.
//! Those two rules make the admission point a pure function of the queue
//! state, so replaying the recorded stamps offline reproduces the exact
//! event order (including FIFO tie-breaking) of the live run.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::marker::PhantomData;
use std::sync::mpsc;

use crate::time::{SimDur, SimTime};

/// The capability to read the clock and schedule future events of type `E`.
pub trait Timeline<E> {
    /// The current simulated instant.
    fn now(&self) -> SimTime;

    /// Schedules `ev` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a bug in the caller: debug builds panic
    /// with a diagnostic (the monotonic-stamp guard); release builds clamp
    /// to `now()` so that causality is still preserved — the event fires at
    /// the current instant, after events already queued for it.
    fn schedule_at(&mut self, at: SimTime, ev: E);

    /// Schedules `ev` to fire `d` after the current instant.
    fn schedule_after(&mut self, d: SimDur, ev: E) {
        let at = self.now() + d;
        self.schedule_at(at, ev);
    }
}

/// Packs `(time, insertion seq)` into one integer so that ordering and FIFO
/// tie-breaking are a single `u128` comparison.
#[inline(always)]
fn pack_key(at: SimTime, seq: u64) -> u128 {
    ((at.as_nanos() as u128) << 64) | seq as u128
}

#[inline(always)]
fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// A monotonic event queue with stable FIFO ordering for simultaneous
/// events: a sorted run beside a 4-ary heap (see the module docs).
///
/// # Examples
///
/// ```
/// use aegaeon_sim::{EventQueue, SimDur, Timeline};
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.schedule_after(SimDur::from_secs(2), "b");
/// q.schedule_after(SimDur::from_secs(1), "a");
/// assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Packed `(time, seq)` keys, heap-ordered; `evs[i]` is `keys[i]`'s payload.
    keys: Vec<u128>,
    evs: Vec<E>,
    /// Events pushed above every key already in it, in ascending key order.
    run: VecDeque<(u128, E)>,
    /// One above the last key pushed to `run`: the least key it accepts.
    /// A field, not a read of `run.back()`, to keep the push check to one
    /// compare. It is right even after the run drains: the run's last key
    /// popped last, so every later push is above it.
    run_floor: u128,
    seq: u64,
    now: SimTime,
    popped: u64,
}

/// Heap arity. Four children per node halves depth versus binary and keeps
/// sibling keys within a cache line (4 × 16 bytes).
const ARITY: usize = 4;

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            keys: Vec::new(),
            evs: Vec::new(),
            run: VecDeque::new(),
            run_floor: 0,
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Swaps two payloads without bounds checks.
    ///
    /// # Safety
    /// `a` and `b` must both be in bounds of `self.evs`.
    #[inline(always)]
    unsafe fn swap_evs(&mut self, a: usize, b: usize) {
        debug_assert!(a < self.evs.len() && b < self.evs.len());
        let p = self.evs.as_mut_ptr();
        std::ptr::swap(p.add(a), p.add(b));
    }

    /// Moves the element at `pos` up until its parent is no larger.
    ///
    /// Uses unchecked indexing: `pos` is always a valid index and every
    /// parent index is strictly smaller, so bounds can never be exceeded.
    #[inline]
    fn sift_up(&mut self, mut pos: usize) {
        debug_assert!(pos < self.keys.len());
        // SAFETY: `pos < len` on entry; `parent = (pos-1)/ARITY < pos`, so
        // every index touched stays in bounds.
        unsafe {
            let key = *self.keys.get_unchecked(pos);
            while pos > 0 {
                let parent = (pos - 1) / ARITY;
                let pkey = *self.keys.get_unchecked(parent);
                if pkey <= key {
                    break;
                }
                *self.keys.get_unchecked_mut(pos) = pkey;
                self.swap_evs(pos, parent);
                pos = parent;
            }
            *self.keys.get_unchecked_mut(pos) = key;
        }
    }

    /// Moves the element at `pos` down until no child is smaller.
    #[inline]
    fn sift_down(&mut self, mut pos: usize) {
        let len = self.keys.len();
        debug_assert!(pos < len);
        // SAFETY: `pos < len` on entry and is only ever replaced by a child
        // index `< last <= len`; child scans are bounded by `last`.
        unsafe {
            let key = *self.keys.get_unchecked(pos);
            loop {
                let first = pos * ARITY + 1;
                if first >= len {
                    break;
                }
                let last = (first + ARITY).min(len);
                // Scan the (dense, cache-adjacent) child keys for the minimum.
                let mut min_child = first;
                let mut min_key = *self.keys.get_unchecked(first);
                for c in first + 1..last {
                    let k = *self.keys.get_unchecked(c);
                    if k < min_key {
                        min_key = k;
                        min_child = c;
                    }
                }
                if min_key >= key {
                    break;
                }
                *self.keys.get_unchecked_mut(pos) = min_key;
                self.swap_evs(pos, min_child);
                pos = min_child;
            }
            *self.keys.get_unchecked_mut(pos) = key;
        }
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Some(&(run_key, _)) = self.run.front() else {
            debug_assert!(self.keys.is_empty(), "the heap outlived the run");
            return None;
        };
        let (key, ev) = if self.keys.first().is_none_or(|&k| run_key < k) {
            self.run.pop_front()?
        } else {
            let key = self.keys.swap_remove(0);
            let ev = self.evs.swap_remove(0);
            if !self.keys.is_empty() {
                self.sift_down(0);
            }
            (key, ev)
        };
        let at = key_time(key);
        debug_assert!(at >= self.now, "event queue went backwards in time");
        self.now = at;
        self.popped += 1;
        Some((at, ev))
    }

    /// The time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let &(run_key, _) = self.run.front()?;
        let first = self.keys.first().map_or(run_key, |&k| k.min(run_key));
        Some(key_time(first))
    }

    /// Total number of events dispatched so far (for throughput reporting).
    pub fn events_dispatched(&self) -> u64 {
        self.popped
    }
}

/// Debug-build monotonic-stamp guard shared by both queue implementations:
/// a push earlier than the last dispatched stamp would silently reorder
/// against events that already fired, so it panics with enough context to
/// find the stale scheduler. Release builds clamp instead (causality
/// backstop).
#[inline]
fn check_stamp(at: SimTime, now: SimTime, seq: u64) {
    #[cfg(debug_assertions)]
    if at < now {
        panic!(
            "stale event push: schedule_at({} ns) is {} ns earlier than the last \
             dispatched stamp ({} ns, push seq {}); events must not be scheduled \
             in the past",
            at.as_nanos(),
            now.as_nanos() - at.as_nanos(),
            now.as_nanos(),
            seq,
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = (at, now, seq);
}

impl<E> Timeline<E> for EventQueue<E> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule_at(&mut self, at: SimTime, ev: E) {
        check_stamp(at, self.now, self.seq);
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let key = pack_key(at, seq);
        if key >= self.run_floor {
            self.run_floor = key + 1;
            self.run.push_back((key, ev));
            return;
        }
        self.keys.push(key);
        self.evs.push(ev);
        self.sift_up(self.keys.len() - 1);
    }
}

// ----- External injection ---------------------------------------------------

/// Cloneable, thread-safe sending side of an [`InjectionPort`].
///
/// `send(not_before, item)` asks for the item to enter the simulation no
/// earlier than `not_before`; the port may bump the stamp forward to keep
/// stamps strictly increasing and strictly ahead of the sim clock.
#[derive(Debug)]
pub struct Injector<I> {
    tx: mpsc::Sender<(SimTime, I)>,
}

// Derived `Clone` would require `I: Clone`; the sender clones regardless.
impl<I> Clone for Injector<I> {
    fn clone(&self) -> Self {
        Injector {
            tx: self.tx.clone(),
        }
    }
}

impl<I> Injector<I> {
    /// Queues `item` for injection at `not_before` or later. Returns `false`
    /// if the port has been dropped (the session is gone).
    pub fn send(&self, not_before: SimTime, item: I) -> bool {
        self.tx.send((not_before, item)).is_ok()
    }
}

/// Receiving side of the external-injection channel: stamps items with the
/// monotonic guard and decides *when* each may enter the event queue.
///
/// Determinism contract (proven by the gateway's differential replay test):
///
/// * **Stamping** (`pump`): `stamp = max(requested, floor + 1 ns,
///   last_stamp + 1 ns)`, where the floor is at or after the clock. Stamps
///   are strictly increasing and strictly in the future, so an injected
///   event can never tie with an event popped in the same dispatch batch.
/// * **Admission** (`admit`): the front item is released only when the queue
///   is empty or its next event time is `>= stamp`. Since the stamp is
///   recorded, an offline replay that re-injects the recorded stamps admits
///   every item at the *same pop boundary* with the *same push sequence
///   number*, making live and replayed runs bit-identical.
#[derive(Debug)]
pub struct InjectionPort<I> {
    rx: mpsc::Receiver<(SimTime, I)>,
    pending: VecDeque<(SimTime, I)>,
    last_stamp: SimTime,
}

/// Creates a connected `(Injector, InjectionPort)` pair.
pub fn injection_channel<I>() -> (Injector<I>, InjectionPort<I>) {
    let (tx, rx) = mpsc::channel();
    (
        Injector { tx },
        InjectionPort {
            rx,
            pending: VecDeque::new(),
            last_stamp: SimTime::ZERO,
        },
    )
}

impl<I> InjectionPort<I> {
    /// Drains the channel, stamping each item after `floor` (the clock, or
    /// a later instant the host's state already reflects) with the
    /// monotonic guard. Returns the number of newly stamped items.
    pub fn pump(&mut self, floor: SimTime) -> usize {
        let mut n = 0;
        while let Ok((not_before, item)) = self.rx.try_recv() {
            let one = SimDur::from_nanos(1);
            let stamp = not_before.max(floor + one).max(self.last_stamp + one);
            self.last_stamp = stamp;
            self.pending.push_back((stamp, item));
            n += 1;
        }
        n
    }

    /// Releases the front stamped item if it may enter the simulation now:
    /// the queue is empty, or nothing in it fires before the item's stamp.
    /// The caller schedules the returned item at exactly its stamp.
    ///
    /// Contract: a stepping loop drains the channel with [`Self::pump`]
    /// once per stepping call, but calls `admit` in a loop before every
    /// pop. Admission reads only the queue head, so checking it per event
    /// is cheap, and it is what makes the admission point (and therefore
    /// the push sequence number) a function of the queue state alone.
    pub fn admit<E>(&mut self, q: &EventQueue<E>) -> Option<(SimTime, I)> {
        let stamp = self.pending.front()?.0;
        match q.peek_time() {
            Some(t) if t < stamp => None,
            _ => self.pending.pop_front(),
        }
    }

    /// Stamped items not yet admitted.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

// ----- Reference implementation --------------------------------------------

#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The original `BinaryHeap`-backed event queue, kept as the reference
/// implementation for differential tests and benchmark baselines. Same
/// contract as [`EventQueue`], including past-clamping `schedule_at`.
#[derive(Debug)]
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(s) = self.heap.pop()?;
        self.now = s.at;
        Some((s.at, s.ev))
    }
}

impl<E> Timeline<E> for BinaryHeapQueue<E> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule_at(&mut self, at: SimTime, ev: E) {
        check_stamp(at, self.now, self.seq);
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, ev }));
    }
}

// ----- Lift -----------------------------------------------------------------

/// Adapter embedding a sub-system event type `Sub` into an outer timeline
/// whose event type is `E`, via a mapping function.
///
/// # Examples
///
/// ```
/// use aegaeon_sim::{EventQueue, Lift, SimDur, Timeline};
///
/// enum Top { Gpu(u32) }
///
/// fn gpu_subsystem(tl: &mut impl Timeline<u32>) {
///     tl.schedule_after(SimDur::from_millis(1), 7);
/// }
///
/// let mut q: EventQueue<Top> = EventQueue::new();
/// gpu_subsystem(&mut Lift::new(&mut q, Top::Gpu));
/// let (_, Top::Gpu(x)) = q.pop().unwrap();
/// assert_eq!(x, 7);
/// ```
pub struct Lift<'a, T: ?Sized, F, E> {
    inner: &'a mut T,
    map: F,
    _outer: PhantomData<fn(E)>,
}

impl<'a, T: ?Sized, F, E> Lift<'a, T, F, E> {
    /// Wraps `inner`, translating scheduled sub-events through `map`.
    pub fn new(inner: &'a mut T, map: F) -> Self {
        Lift {
            inner,
            map,
            _outer: PhantomData,
        }
    }
}

impl<Sub, E, T, F> Timeline<Sub> for Lift<'_, T, F, E>
where
    T: Timeline<E> + ?Sized,
    F: Fn(Sub) -> E,
{
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn schedule_at(&mut self, at: SimTime, ev: Sub) {
        self.inner.schedule_at(at, (self.map)(ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs_f64(3.0), 3u32);
        q.schedule_at(SimTime::from_secs_f64(1.0), 1);
        q.schedule_at(SimTime::from_secs_f64(2.0), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs_f64(1.0);
        for i in 0..100u32 {
            q.schedule_at(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDur::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs_f64(5.0));
    }

    // The causality backstop only exists in release builds; debug builds
    // treat a past push as a bug (see `stale_push_panics_in_debug`).
    #[test]
    #[cfg(not(debug_assertions))]
    fn past_schedule_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs_f64(2.0), 0u32);
        q.pop();
        // The clock is at 2 s; scheduling for 1 s fires "now", and after
        // anything else already queued for 2 s.
        q.schedule_at(SimTime::from_secs_f64(2.0), 1);
        q.schedule_at(SimTime::from_secs_f64(1.0), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs_f64(2.0), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs_f64(2.0), 2)));
    }

    // Monotonic-stamp guard regression test: a stale push used to clamp
    // silently; debug builds must now flag it at the call site.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale event push")]
    fn stale_push_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs_f64(2.0), 0u32);
        q.pop();
        q.schedule_at(SimTime::from_secs_f64(1.0), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale event push")]
    fn stale_push_panics_in_debug_reference_queue() {
        let mut q = BinaryHeapQueue::new();
        q.schedule_at(SimTime::from_secs_f64(2.0), 0u32);
        q.pop();
        q.schedule_at(SimTime::from_secs_f64(1.0), 1);
    }

    #[test]
    fn injection_stamps_are_strictly_increasing_and_future() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::from_secs_f64(1.0), 0);
        q.pop(); // clock at 1 s
        let (inj, mut port) = injection_channel::<u32>();
        // Requested in the past, at now, and twice at the same instant.
        inj.send(SimTime::ZERO, 10);
        inj.send(SimTime::from_secs_f64(1.0), 11);
        inj.send(SimTime::from_secs_f64(5.0), 12);
        inj.send(SimTime::from_secs_f64(5.0), 13);
        assert_eq!(port.pump(q.now()), 4);
        let mut stamps = Vec::new();
        while let Some((s, _)) = port.admit(&q) {
            stamps.push(s);
        }
        assert_eq!(stamps.len(), 4);
        let one = SimDur::from_nanos(1);
        assert_eq!(stamps[0], SimTime::from_secs_f64(1.0) + one);
        assert_eq!(stamps[1], stamps[0] + one);
        assert_eq!(stamps[2], SimTime::from_secs_f64(5.0));
        assert_eq!(stamps[3], SimTime::from_secs_f64(5.0) + one);
        assert!(stamps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn admission_waits_for_the_pop_boundary() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::from_secs_f64(1.0), 0);
        q.schedule_at(SimTime::from_secs_f64(3.0), 1);
        let (inj, mut port) = injection_channel::<u32>();
        inj.send(SimTime::from_secs_f64(2.0), 42);
        port.pump(q.now());
        // The 1 s event fires first: not admissible yet.
        assert!(port.admit(&q).is_none());
        q.pop();
        // Next heap event is 3 s >= stamp 2 s: admissible now.
        let (stamp, item) = port.admit(&q).expect("admissible");
        assert_eq!(item, 42);
        assert_eq!(stamp, SimTime::from_secs_f64(2.0));
        q.schedule_at(stamp, 42);
        assert_eq!(q.pop(), Some((SimTime::from_secs_f64(2.0), 42)));
    }

    #[test]
    fn admission_on_empty_heap_and_cross_thread_send() {
        let (inj, mut port) = injection_channel::<u32>();
        let t = std::thread::spawn(move || {
            inj.send(SimTime::from_secs_f64(7.0), 7);
        });
        t.join().unwrap();
        let q: EventQueue<u32> = EventQueue::new();
        port.pump(q.now());
        assert_eq!(port.pending(), 1);
        let (stamp, item) = port.admit(&q).expect("empty heap admits");
        assert_eq!((stamp, item), (SimTime::from_secs_f64(7.0), 7));
        assert_eq!(port.pending(), 0);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        // Exercise sift_down paths with a sawtooth workload large enough to
        // build several heap levels.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for round in 0..20u64 {
            for i in 0..50u64 {
                let t = SimTime::from_nanos(1_000 + (i * 7919 + round * 104_729) % 5_000);
                // Raw sawtooth targets fall behind the clock as pops advance
                // it; clamp to honor the monotonic-stamp contract.
                q.schedule_at(t.max(q.now()), (round, i));
            }
            for _ in 0..25 {
                expect.push(q.pop().expect("events pending"));
            }
        }
        while let Some(e) = q.pop() {
            expect.push(e);
        }
        let times: Vec<SimTime> = expect.iter().map(|&(t, _)| t).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted, "pop order must be nondecreasing in time");
        assert_eq!(expect.len(), 20 * 50);
    }

    #[test]
    fn lift_translates_events() {
        #[derive(Debug, PartialEq)]
        enum Top {
            A(u8),
            B(char),
        }
        let mut q: EventQueue<Top> = EventQueue::new();
        {
            let mut la = Lift::new(&mut q, Top::A);
            la.schedule_after(SimDur::from_secs(2), 9);
        }
        {
            let mut lb = Lift::new(&mut q, Top::B);
            lb.schedule_after(SimDur::from_secs(1), 'x');
        }
        assert_eq!(q.pop().unwrap().1, Top::B('x'));
        assert_eq!(q.pop().unwrap().1, Top::A(9));
    }

    #[test]
    fn nested_lifts_compose() {
        #[derive(Debug, PartialEq)]
        enum Top {
            Mid(Mid),
        }
        #[derive(Debug, PartialEq)]
        enum Mid {
            Leaf(u32),
        }
        let mut q: EventQueue<Top> = EventQueue::new();
        let mut mid = Lift::new(&mut q, Top::Mid);
        let mut leaf = Lift::new(&mut mid, Mid::Leaf);
        leaf.schedule_after(SimDur::ZERO, 42);
        assert_eq!(q.pop().unwrap().1, Top::Mid(Mid::Leaf(42)));
    }

    #[test]
    fn dispatch_counter_counts() {
        let mut q = EventQueue::new();
        for _ in 0..10 {
            q.schedule_after(SimDur::ZERO, ());
        }
        while q.pop().is_some() {}
        assert_eq!(q.events_dispatched(), 10);
    }

    #[test]
    fn reference_queue_matches_on_fixed_schedule() {
        let mut fast = EventQueue::new();
        let mut slow = BinaryHeapQueue::new();
        for i in 0..500u64 {
            let t = SimTime::from_nanos(i.wrapping_mul(6_364_136_223_846_793_005) % 10_000);
            fast.schedule_at(t, i);
            slow.schedule_at(t, i);
        }
        loop {
            let (a, b) = (fast.pop(), slow.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn ties_across_the_run_and_the_heap_pop_in_push_order() {
        let mut q = EventQueue::new();
        let t = |s: f64| SimTime::from_secs_f64(s);
        q.schedule_at(t(1.0), 'a');
        q.schedule_at(t(2.0), 'b');
        // Below the run's tail: both go to the heap, one tied with 'a'.
        q.schedule_at(t(1.0), 'c');
        q.schedule_at(t(0.5), 'd');
        // At the run's tail time but a later seq: appended to the run.
        q.schedule_at(t(2.0), 'e');
        assert_eq!((q.run.len(), q.keys.len()), (3, 2), "both hold events");
        let mut order = Vec::new();
        while let Some(at) = q.peek_time() {
            let (popped_at, ev) = q.pop().unwrap();
            assert_eq!(at, popped_at, "peek names the next pop");
            order.push(ev);
        }
        assert_eq!(order, ['d', 'a', 'c', 'b', 'e']);
        assert!(q.keys.is_empty(), "the heap drains before the run's tail");
    }

    #[test]
    fn peek_time_reports_the_earliest_event_without_popping() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule_at(SimTime::from_secs_f64(5.0), 'b');
        q.schedule_at(SimTime::from_secs_f64(2.0), 'a');
        q.schedule_at(SimTime::from_secs_f64(9.0), 'c');
        assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(2.0)));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(2.0)), "peeking pops nothing");
        assert_eq!(q.now(), SimTime::ZERO, "peeking leaves the clock alone");
        assert_eq!(q.pop(), Some((SimTime::from_secs_f64(2.0), 'a')));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(5.0)));
        q.pop();
        q.pop();
        assert_eq!(q.peek_time(), None);
    }
}
