//! Which books' touch logs are non-empty, and whether they record at all.
//!
//! A serving system owns many KV books (a cache, its requests and the
//! blocks it parks behind in-flight copies), and an event touches one or
//! two. Each book logs what the event changed; a
//! [`Journal`] shared by all of them records *which* books logged
//! anything, so clearing the logs and auditing them costs what the event
//! touched rather than one visit per book. Nothing but an auditor reads
//! the logs, so a journal also switches them off while no auditor runs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// One owner's set of books with non-empty touch logs — a bit per book,
/// where books 63 and up share bit 63 — and the switch that lets the logs
/// record. The default value is a fresh, recording set whose own handle
/// marks nothing; [`Self::member`] makes the handles that mark one book
/// each.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    shared: Arc<Shared>,
    bit: u64,
}

#[derive(Debug, Default)]
struct Shared {
    marked: AtomicU64,
    off: AtomicBool,
}

impl Journal {
    /// A handle on the same set that marks book `i`.
    pub fn member(&self, i: usize) -> Journal {
        Journal {
            shared: Arc::clone(&self.shared),
            bit: 1 << i.min(63),
        }
    }

    /// Lets every log on this set record (`true`), or makes them skip
    /// every entry (`false`).
    pub fn record(&self, on: bool) {
        self.shared.off.store(!on, Relaxed);
    }

    /// True while the logs on this set record.
    #[inline]
    pub fn recording(&self) -> bool {
        !self.shared.off.load(Relaxed)
    }

    /// Marks this handle's book as touched. The set has one owner at a
    /// time, so a plain load and store suffice; `Relaxed` because the bits
    /// publish no other data, and an owner moves between threads only
    /// across a thread join.
    #[inline]
    pub fn mark(&self) {
        let v = self.shared.marked.load(Relaxed);
        if v & self.bit == 0 {
            self.shared.marked.store(v | self.bit, Relaxed);
        }
    }

    /// The marked books' bits.
    #[inline]
    pub fn marked(&self) -> u64 {
        self.shared.marked.load(Relaxed)
    }

    /// Empties the set and returns the bits it held.
    #[inline]
    pub fn take(&self) -> u64 {
        let v = self.marked();
        if v != 0 {
            self.shared.marked.store(0, Relaxed);
        }
        v
    }
}

/// The book indices a [`Journal`] word names, in order, for `books` books:
/// each set bit below 63, and every book from 63 on when bit 63 is set.
pub fn marked_books(bits: u64, books: usize) -> impl Iterator<Item = usize> {
    let (mut low, mut high) = (bits & !(1 << 63), if bits >> 63 != 0 { 63 } else { books });
    std::iter::from_fn(move || {
        if low != 0 {
            let i = low.trailing_zeros() as usize;
            low &= low - 1;
            return (i < books).then_some(i);
        }
        (high < books).then(|| {
            high += 1;
            high - 1
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_mark_one_shared_set() {
        let root = Journal::default();
        let (a, b, far) = (root.member(2), root.member(5), root.member(70));
        assert_eq!(root.marked(), 0);
        a.mark();
        a.mark();
        far.mark();
        let books: Vec<usize> = marked_books(b.marked(), 72).collect();
        assert_eq!(books, [2, 63, 64, 65, 66, 67, 68, 69, 70, 71]);
        assert_eq!(b.take(), 1 << 2 | 1 << 63);
        assert_eq!(root.marked(), 0);
        b.mark();
        assert_eq!(marked_books(root.marked(), 8).collect::<Vec<_>>(), [5]);
        Journal::default().mark(); // an unshared handle marks nothing
        assert_eq!(root.marked(), 1 << 5);
        assert!(a.recording());
        root.record(false);
        assert!(!a.recording() && !far.recording());
    }
}
