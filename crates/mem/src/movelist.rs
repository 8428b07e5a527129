//! Move lists: deferring block reuse until transfers complete (§5.3 rule ❸).
//!
//! When KV cache blocks in the unified CPU cache are the *source* of an
//! asynchronous copy, they cannot be reallocated even after their logical
//! owner releases them — the DMA may still be reading. Aegaeon therefore
//! parks such blocks in a *move list* together with the CUDA event guarding
//! the transfer; a daemon periodically polls the events
//! (`cudaEventQuery`-style) and returns completed blocks to the allocator.
//! This removes rule-❸ synchronization from the auto-scaling critical path.
//!
//! The list is generic over the event handle type `H` so it can be unit
//! tested without the GPU fabric.

use crate::Journal;

/// Blocks awaiting transfer completion, keyed by an event handle.
#[derive(Debug, Clone)]
pub struct MoveList<B, H> {
    entries: Vec<(H, Vec<B>)>,
    /// Blocks parked (`true`) or released (`false`) since the last
    /// [`Self::clear_touches`], in order.
    touches: Vec<(bool, B)>,
    /// Marked whenever `touches` grows; says whether it records at all.
    journal: Journal,
}

impl<B: Clone, H> Default for MoveList<B, H> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: Clone, H> MoveList<B, H> {
    /// Creates an empty move list.
    pub fn new() -> Self {
        MoveList {
            entries: Vec::new(),
            touches: Vec::new(),
            journal: Journal::default(),
        }
    }

    /// Logs into `journal`'s set: marks it whenever the touch log grows,
    /// and records only while it does.
    pub fn join(&mut self, journal: Journal) {
        self.journal = journal;
    }

    /// Parks `blocks` until the transfer guarded by `event` completes.
    pub fn park(&mut self, event: H, blocks: Vec<B>) {
        if self.journal.recording() {
            self.touches
                .extend(blocks.iter().map(|b| (true, b.clone())));
            self.journal.mark();
        }
        self.entries.push((event, blocks));
    }

    /// Polls all guarded transfers with `query` (true = complete) and
    /// returns every block whose transfer has finished.
    ///
    /// This is what the daemon thread runs (Figure 10, step ⑧).
    pub fn reclaim(&mut self, mut query: impl FnMut(&H) -> bool) -> Vec<B> {
        let mut out = Vec::new();
        self.entries.retain_mut(|(h, blocks)| {
            if !query(h) {
                return true;
            }
            out.append(blocks);
            false
        });
        if !out.is_empty() && self.journal.recording() {
            self.touches.extend(out.iter().map(|b| (false, b.clone())));
            self.journal.mark();
        }
        out
    }

    /// Iterates the parked entries (event handle plus its blocks), for
    /// external accounting such as the invariant auditor.
    pub fn iter(&self) -> impl Iterator<Item = (&H, &[B])> {
        self.entries.iter().map(|(h, b)| (h, b.as_slice()))
    }

    /// Every block [`Self::park`] parked (`true`) or [`Self::reclaim`]
    /// released (`false`) since the last [`Self::clear_touches`], in order:
    /// the parked batches' side of an auditor's touch log.
    #[inline]
    pub fn touches(&self) -> &[(bool, B)] {
        &self.touches
    }

    /// Empties the touch log.
    #[inline]
    pub fn clear_touches(&mut self) {
        if !self.touches.is_empty() {
            self.touches.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reclaim_returns_only_completed_transfers() {
        let mut ml: MoveList<u32, &'static str> = MoveList::new();
        ml.park("done", vec![1, 2, 3]);
        ml.park("pending", vec![4]);
        let got = ml.reclaim(|h| *h == "done");
        assert_eq!(got, vec![1, 2, 3]);
        let left: Vec<_> = ml.iter().collect();
        assert_eq!(left, vec![(&"pending", &[4][..])]);
        let rest = ml.reclaim(|_| true);
        assert_eq!(rest, vec![4]);
        assert_eq!(ml.iter().count(), 0);
    }

    #[test]
    fn touches_log_parks_and_releases_in_order() {
        let mut ml: MoveList<u32, u32> = MoveList::new();
        assert!(ml.touches().is_empty());
        ml.park(7, vec![1, 2]);
        assert_eq!(ml.touches(), &[(true, 1), (true, 2)]);
        assert!(ml.reclaim(|_| false).is_empty());
        assert_eq!(
            ml.touches().len(),
            2,
            "a poll that releases nothing logs nothing"
        );
        ml.clear_touches();
        ml.reclaim(|_| true);
        assert_eq!(ml.touches(), &[(false, 1), (false, 2)]);
    }

    #[test]
    fn logs_mark_their_journal_and_stop_while_it_is_off() {
        let root = Journal::default();
        let mut ml: MoveList<u32, u32> = MoveList::new();
        ml.join(root.member(4));
        ml.park(0, vec![1]);
        assert_eq!(root.take(), 1 << 4, "a park marks the book");
        ml.reclaim(|_| false);
        assert_eq!(root.take(), 0, "a poll that releases nothing does not");
        ml.reclaim(|_| true);
        assert_eq!(root.take(), 1 << 4, "a release marks the book");
        ml.clear_touches();
        root.record(false);
        ml.park(1, vec![2]);
        assert_eq!(ml.reclaim(|_| true), [2]);
        assert!(ml.touches().is_empty() && root.marked() == 0);
    }

    #[test]
    fn reclaimed_blocks_keep_park_order() {
        let mut ml: MoveList<u32, u32> = MoveList::new();
        ml.park(0, vec![1, 2]);
        ml.park(1, vec![3]);
        ml.park(2, vec![4, 5]);
        assert_eq!(ml.reclaim(|h| h % 2 == 0), vec![1, 2, 4, 5]);
        let released: Vec<_> = ml.touches().iter().filter(|t| !t.0).collect();
        assert_eq!(
            released,
            [&(false, 1), &(false, 2), &(false, 4), &(false, 5)]
        );
        let left: Vec<_> = ml.iter().map(|(h, b)| (*h, b.to_vec())).collect();
        assert_eq!(left, vec![(1, vec![3])]);
    }
}
