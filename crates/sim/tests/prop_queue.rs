//! Differential property tests: the [`EventQueue`] (a sorted run beside an
//! indexed 4-ary heap) must be observationally identical to the retained
//! [`BinaryHeapQueue`] reference — same pop order (stable FIFO for
//! same-time ties), same clock — over arbitrary interleavings of pushes and
//! pops, and its `peek_time` must always name the next pop. Absolute-time
//! pushes are clamped to `now()` before scheduling: a genuinely stale push
//! trips the debug-build monotonic-stamp guard (covered by its own
//! regression test), so the scripts here only exercise valid schedules.

use std::collections::BTreeSet;

use proptest::prelude::*;

use aegaeon_sim::{BinaryHeapQueue, EventQueue, SimDur, SimTime, Timeline};

/// One scripted operation: `(kind, arg)`.
/// kind 0 → `schedule_after(arg ns)`; kind 1 → `schedule_at(max(arg ns, now))`
/// (raw targets are often in the past once the clock has advanced, so the
/// script clamps them to stay within the monotonic-stamp contract);
/// kind 2 → `pop`; kind 3 → `schedule_at(latest + arg % 4 ns)`, where
/// `latest` is the latest instant scheduled so far. Kind 3 builds ascending
/// runs that land in the queue's sorted run, often at exactly the time of
/// events that kinds 0 and 1 pushed into the heap, so both structures hold
/// events at once and ties cross between them.
type Op = (u32, u64);

/// `pop` is inherent on each queue type, so the differential driver needs a
/// tiny adapter trait over both implementations.
trait PopQueue: Timeline<u64> {
    fn pop_ev(&mut self) -> Option<(SimTime, u64)>;
}

impl PopQueue for EventQueue<u64> {
    fn pop_ev(&mut self) -> Option<(SimTime, u64)> {
        self.pop()
    }
}

impl PopQueue for BinaryHeapQueue<u64> {
    fn pop_ev(&mut self) -> Option<(SimTime, u64)> {
        self.pop()
    }
}

/// Runs `ops` on `q`, calling `after_op` after each one, and returns every
/// popped event (the script's own, then the drain).
fn apply<Q: PopQueue>(
    q: &mut Q,
    ops: &[Op],
    mut after_op: impl FnMut(&Q, &Step),
) -> Vec<(SimTime, u64)> {
    let mut popped = Vec::new();
    let mut latest = SimTime::ZERO;
    for (id, &(kind, arg)) in ops.iter().enumerate() {
        let id = id as u64;
        let step = match kind {
            // Tiny delay range so same-time ties are common.
            0 => {
                let d = SimDur::from_nanos(arg % 8);
                q.schedule_after(d, id);
                Step::Pushed(q.now() + d, id)
            }
            1 | 3 => {
                let at = match kind {
                    1 => SimTime::from_nanos(arg).max(q.now()),
                    _ => latest + SimDur::from_nanos(arg % 4),
                };
                q.schedule_at(at, id);
                Step::Pushed(at, id)
            }
            _ => Step::Popped(q.pop_ev()),
        };
        match step {
            Step::Pushed(at, _) => latest = latest.max(at),
            Step::Popped(Some(pe)) => popped.push(pe),
            Step::Popped(None) => {}
        }
        after_op(q, &step);
    }
    while let Some(pe) = q.pop_ev() {
        popped.push(pe);
    }
    popped
}

/// What one scripted op did.
enum Step {
    Pushed(SimTime, u64),
    Popped(Option<(SimTime, u64)>),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary push/pop scripts produce bit-identical pop sequences on
    /// both queue implementations, including FIFO order for same-time
    /// events, clamping of past `schedule_at` targets, and ascending runs
    /// tied with heap events. After every op, `peek_time` is the time of
    /// the earliest pending event (a shadow set tracks them), which is
    /// what the next pop would return.
    #[test]
    fn indexed_heap_matches_binary_heap_reference(
        ops in prop::collection::vec((0u32..4, 0u64..64), 1..250)
    ) {
        let mut fast: EventQueue<u64> = EventQueue::new();
        let mut reference: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
        let mut pending = BTreeSet::new();
        let mut peeks = Vec::new();
        let a = apply(&mut fast, &ops, |q, step| {
            match *step {
                Step::Pushed(at, id) => {
                    pending.insert((at, id));
                }
                Step::Popped(Some(pe)) => {
                    pending.remove(&pe);
                }
                Step::Popped(None) => {}
            }
            peeks.push((q.peek_time(), pending.first().map(|&(t, _)| t)));
        });
        let b = apply(&mut reference, &ops, |_, _| {});
        prop_assert_eq!(a, b);
        prop_assert_eq!(fast.now(), reference.now());
        for (op, (peek, next)) in peeks.into_iter().enumerate() {
            prop_assert_eq!(peek, next, "peek_time after op {}", op);
        }
    }

    /// Pure push-then-drain scripts (no interleaved pops) also agree, and
    /// the drained order is globally time-sorted.
    #[test]
    fn drain_order_is_sorted_and_matches_reference(
        delays in prop::collection::vec(0u64..16, 1..200)
    ) {
        let mut fast: EventQueue<u64> = EventQueue::new();
        let mut reference: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
        for (id, &d) in delays.iter().enumerate() {
            fast.schedule_after(SimDur::from_nanos(d), id as u64);
            reference.schedule_after(SimDur::from_nanos(d), id as u64);
        }
        let mut a = Vec::new();
        while let Some(pe) = fast.pop() {
            a.push(pe);
        }
        let mut b = Vec::new();
        while let Some(pe) = reference.pop() {
            b.push(pe);
        }
        for w in a.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
        prop_assert_eq!(a, b);
    }
}
