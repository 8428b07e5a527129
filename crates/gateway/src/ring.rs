//! Bounded SPSC rings — the only channel between the sim thread and the
//! I/O reactors' token path.
//!
//! One ring per in-flight request: the sim thread (single producer) pushes
//! [`TokenEv`](aegaeon::TokenEv)-shaped payloads as decode events dispatch; the reactor that
//! owns the connection (single consumer) drains them into the connection's
//! `WriteQueue`. Capacity is fixed at creation to the request's maximum
//! output length, so a well-formed stream can **never** overflow its ring —
//! `push` returning `Full` indicates a protocol bug, not backpressure
//! (client backpressure is the `WriteQueue`'s job, downstream of here).
//!
//! Every producer handle carries a [`RingTag`] naming its destination
//! `(reactor, generation, slot)`. The reactor resolves a tag against its
//! connection slab before touching the slot: a recycled connection bumps
//! the slot's generation, so a stale tag — one minted for a connection that
//! has since been closed and its slot reused — fails the generation check
//! and the delivery is dropped instead of corrupting an unrelated stream.
//!
//! No `libc`, no locks: `std::sync::atomic` only. The implementation is the
//! textbook single-producer/single-consumer ring (Lamport queue) with
//! acquire/release pairs on `head`/`tail` and power-of-two indexing.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Destination of a token ring: which reactor owns the consumer, and the
/// generation-tagged slab token of the connection it feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RingTag {
    /// Index of the owning I/O reactor.
    pub reactor: u32,
    /// The reactor's slab token for the connection: `(generation << 32) | slot`.
    pub(crate) conn: u64,
}

impl RingTag {
    /// Builds a tag from a reactor index and a `(generation, slot)` pair.
    pub fn new(reactor: u32, generation: u32, slot: u32) -> RingTag {
        RingTag {
            reactor,
            conn: ((generation as u64) << 32) | slot as u64,
        }
    }

    /// Slab slot index the tag points at.
    pub fn slot(&self) -> usize {
        (self.conn & 0xffff_ffff) as usize
    }

    /// Generation the slot had when the tag was minted.
    pub fn generation(&self) -> u32 {
        (self.conn >> 32) as u32
    }

    /// True when the tag still names the live occupant of a slot: the
    /// slot's current generation must equal the one baked into the tag.
    pub fn is_current(&self, slot_generation: u32) -> bool {
        self.generation() == slot_generation
    }
}

struct Inner<T> {
    /// Power-of-two slot array; index = position & mask.
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next position to pop (consumer-owned, producer reads).
    head: AtomicUsize,
    /// Next position to push (producer-owned, consumer reads).
    tail: AtomicUsize,
    producer_gone: AtomicBool,
    consumer_gone: AtomicBool,
}

// The ring hands each T from exactly one thread to exactly one other.
// SAFETY: moving `Inner` to another thread moves its queued `T`s with it,
// which `T: Send` allows; the atomics and the boxed buffer are plain data.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: `mask` never changes after construction, and `head`, `tail` and
// the two flags are atomics. `buf` is the only field shared unsynchronized:
// `ring` mints exactly one `Producer` and one `Consumer` (neither is
// `Clone`), and only they reach it. The producer writes only slots outside
// `[head, tail)`, the consumer reads only slots inside it, and each side
// publishes its index with a Release store that the other side's Acquire
// load pairs with. No slot is ever touched by both threads at once, so
// sharing needs only `T: Send` for the hand-off itself.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Sole owner at this point: drop whatever was pushed but not popped.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let mut pos = head;
        while pos != tail {
            // SAFETY: `&mut self` means both handles are gone, so no other
            // thread can reach the buffer. Every position in `[head, tail)`
            // was written by `push` and not yet moved out by `pop`, so this
            // slot holds an initialized `T`, dropped here exactly once.
            unsafe { (*self.buf[pos & self.mask].get()).assume_init_drop() };
            pos = pos.wrapping_add(1);
        }
    }
}

/// Why a push did not land; the payload is handed back either way.
#[derive(Debug)]
pub enum PushError<T> {
    /// Ring is at capacity. With capacity sized to the request's maximum
    /// output this indicates a bug upstream, not a slow client.
    Full(T),
    /// Consumer dropped its handle (connection closed); stop producing.
    Closed(T),
}

/// Producer half: owned by the sim thread, one per in-flight request.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// Where deliveries go; carried so the sim thread can mark the right
    /// reactor dirty and the reactor can reject stale tags.
    pub(crate) tag: RingTag,
}

/// Consumer half: owned by the reactor connection the ring feeds.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
}

/// Builds a bounded SPSC ring able to hold at least `capacity` items,
/// tagged with its destination. Capacity is rounded up to a power of two.
pub fn ring<T>(capacity: usize, tag: RingTag) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(1).next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let inner = Arc::new(Inner {
        buf,
        mask: cap - 1,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        producer_gone: AtomicBool::new(false),
        consumer_gone: AtomicBool::new(false),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            tag,
        },
        Consumer { inner },
    )
}

impl<T> Producer<T> {
    /// Push one item. Fails `Closed` once the consumer handle is dropped
    /// and `Full` at capacity; both return the item.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let inner = &*self.inner;
        if inner.consumer_gone.load(Ordering::Acquire) {
            return Err(PushError::Closed(item));
        }
        let tail = inner.tail.load(Ordering::Relaxed);
        let head = inner.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > inner.mask {
            return Err(PushError::Full(item));
        }
        // SAFETY: only this (single) producer writes. `tail - head <= mask`
        // puts slot `tail & mask` outside `[head, tail)`, so the consumer
        // does not read it until the Release store of `tail` below. The
        // Acquire load of `head` orders the consumer's last read of the slot
        // (which moved its value out) before this write, so nothing leaks.
        unsafe { (*inner.buf[tail & inner.mask].get()).write(item) };
        inner.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// True once the consumer dropped its handle — further pushes are
    /// pointless and the producer should release the request's resources.
    pub fn is_closed(&self) -> bool {
        self.inner.consumer_gone.load(Ordering::Acquire)
    }

    /// Slots currently queued (approximate from the producer side).
    pub fn len(&self) -> usize {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        let head = self.inner.head.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.inner.producer_gone.store(true, Ordering::Release);
    }
}

impl<T> Consumer<T> {
    /// Pop the oldest item, or `None` when the ring is momentarily empty.
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let head = inner.head.load(Ordering::Relaxed);
        let tail = inner.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: `head != tail`, and the Acquire load of `tail` pairs with
        // the producer's Release store made after it wrote this slot, so
        // the slot holds an initialized `T`. Only this (single) consumer
        // reads, and the `head` store below hands the slot back to the
        // producer, so the value is moved out exactly once.
        let item = unsafe { (*inner.buf[head & inner.mask].get()).assume_init_read() };
        inner.head.store(head.wrapping_add(1), Ordering::Release);
        Some(item)
    }

    /// True once the producer is gone **and** everything it pushed has been
    /// popped — the stream is over (normally via a final `done` token;
    /// without one the stream was truncated, e.g. the session halted).
    pub fn is_drained(&self) -> bool {
        if !self.inner.producer_gone.load(Ordering::Acquire) {
            return false;
        }
        // Re-check emptiness *after* observing producer_gone: the producer
        // stores tail before the Drop flag, so this order cannot miss a
        // final push.
        let head = self.inner.head.load(Ordering::Relaxed);
        let tail = self.inner.tail.load(Ordering::Acquire);
        head == tail
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.inner.consumer_gone.store(true, Ordering::Release);
    }
}

/// One dirty flag per reactor, shared between the sim thread's token sinks
/// and the sim loop: a sink marks its reactor when it lands a token, and
/// the loop wakes exactly the reactors whose flags it swaps off. Flag
/// traffic is sim-thread-local except for the reactor-side `take` in
/// drain paths, so contention is nil.
pub(crate) struct DirtyBoard {
    flags: Vec<AtomicBool>,
}

impl DirtyBoard {
    /// A board covering `reactors` flags, all clean.
    pub(crate) fn new(reactors: usize) -> DirtyBoard {
        DirtyBoard {
            flags: (0..reactors).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Mark a reactor as having pending ring deliveries.
    pub(crate) fn mark(&self, reactor: usize) {
        self.flags[reactor].store(true, Ordering::Release);
    }

    /// Clear and return a reactor's flag.
    pub(crate) fn take(&self, reactor: usize) -> bool {
        self.flags[reactor].swap(false, Ordering::AcqRel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_and_capacity() {
        let (p, c) = ring::<u32>(4, RingTag::new(0, 0, 0));
        for i in 0..4 {
            p.push(i).unwrap();
        }
        assert!(matches!(p.push(99), Err(PushError::Full(99))));
        for i in 0..4 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn wraps_around_many_times() {
        let (p, c) = ring::<u64>(2, RingTag::new(0, 0, 0));
        for round in 0..1000u64 {
            p.push(round * 2).unwrap();
            p.push(round * 2 + 1).unwrap();
            assert_eq!(c.pop(), Some(round * 2));
            assert_eq!(c.pop(), Some(round * 2 + 1));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn consumer_drop_closes_producer() {
        let (p, c) = ring::<u8>(2, RingTag::new(1, 7, 3));
        drop(c);
        assert!(p.is_closed());
        assert!(matches!(p.push(1), Err(PushError::Closed(1))));
    }

    #[test]
    fn producer_drop_then_drained() {
        let (p, c) = ring::<u8>(4, RingTag::new(0, 0, 0));
        p.push(1).unwrap();
        p.push(2).unwrap();
        drop(p);
        assert!(!c.is_drained(), "queued items not yet popped");
        assert_eq!(c.pop(), Some(1));
        assert_eq!(c.pop(), Some(2));
        assert!(c.is_drained());
    }

    #[test]
    fn unpopped_items_are_dropped_with_ring() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (p, c) = ring::<Probe>(8, RingTag::new(0, 0, 0));
        for _ in 0..5 {
            p.push(Probe).unwrap();
        }
        drop(c.pop()); // one popped and dropped by us
        drop(p);
        drop(c);
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn tag_generation_staleness() {
        let tag = RingTag::new(3, 41, 9);
        assert_eq!(tag.reactor, 3);
        assert_eq!(tag.slot(), 9);
        assert_eq!(tag.generation(), 41);
        assert!(tag.is_current(41));
        // Slot recycled: generation bumped, old tag must not resolve.
        assert!(!tag.is_current(42));
    }

    #[test]
    fn cross_thread_handoff() {
        let (p, c) = ring::<u64>(64, RingTag::new(0, 0, 0));
        let producer = thread::spawn(move || {
            let mut i = 0u64;
            while i < 10_000 {
                match p.push(i) {
                    Ok(()) => i += 1,
                    Err(PushError::Full(_)) => thread::yield_now(),
                    Err(PushError::Closed(_)) => panic!("consumer vanished"),
                }
            }
        });
        let mut expect = 0u64;
        while expect < 10_000 {
            match c.pop() {
                Some(v) => {
                    assert_eq!(v, expect);
                    expect += 1;
                }
                None => thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert!(c.is_drained());
    }

    #[test]
    fn dirty_board_marks_and_takes() {
        let board = DirtyBoard::new(3);
        assert_eq!(board.flags.len(), 3);
        assert!(!board.take(1));
        board.mark(1);
        assert!(board.take(1));
        assert!(!board.take(1), "take clears the flag");
        assert!(!board.take(0));
    }
}
