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

/// Blocks awaiting transfer completion, keyed by an event handle.
#[derive(Debug, Clone)]
pub struct MoveList<B, H> {
    entries: Vec<(H, Vec<B>)>,
    epoch: u64,
}

impl<B, H> Default for MoveList<B, H> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B, H> MoveList<B, H> {
    /// Creates an empty move list.
    pub fn new() -> Self {
        MoveList {
            entries: Vec::new(),
            epoch: 0,
        }
    }

    /// Parks `blocks` until the transfer guarded by `event` completes.
    pub fn park(&mut self, event: H, blocks: Vec<B>) {
        self.entries.push((event, blocks));
        self.epoch += 1;
    }

    /// Polls all guarded transfers with `query` (true = complete) and
    /// returns every block whose transfer has finished.
    ///
    /// This is what the daemon thread runs (Figure 10, step ⑧).
    pub fn reclaim(&mut self, mut query: impl FnMut(&H) -> bool) -> Vec<B> {
        let before = self.entries.len();
        let mut out = Vec::new();
        self.entries.retain_mut(|(h, blocks)| {
            if !query(h) {
                return true;
            }
            out.append(blocks);
            false
        });
        if self.entries.len() != before {
            self.epoch += 1;
        }
        out
    }

    /// Iterates the parked entries (event handle plus its blocks), for
    /// external accounting such as the invariant auditor.
    pub fn iter(&self) -> impl Iterator<Item = (&H, &[B])> {
        self.entries.iter().map(|(h, b)| (h, b.as_slice()))
    }

    /// Mutation epoch: bumped by every [`Self::park`] and by every
    /// [`Self::reclaim`] that releases an entry, so an auditor can skip a
    /// list (and the cache it parks blocks for) whose epoch is unchanged.
    pub fn epoch(&self) -> u64 {
        self.epoch
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
    fn epoch_moves_only_when_entries_change() {
        let mut ml: MoveList<u32, u32> = MoveList::new();
        assert_eq!(ml.epoch(), 0);
        ml.park(7, vec![1]);
        assert_eq!(ml.epoch(), 1);
        assert!(ml.reclaim(|_| false).is_empty());
        assert_eq!(
            ml.epoch(),
            1,
            "a poll that releases nothing is not a mutation"
        );
        ml.reclaim(|_| true);
        assert_eq!(ml.epoch(), 2);
    }

    #[test]
    fn reclaimed_blocks_keep_park_order() {
        let mut ml: MoveList<u32, u32> = MoveList::new();
        ml.park(0, vec![1, 2]);
        ml.park(1, vec![3]);
        ml.park(2, vec![4, 5]);
        assert_eq!(ml.reclaim(|h| h % 2 == 0), vec![1, 2, 4, 5]);
        assert_eq!(ml.epoch(), 4, "one bump per park, one per releasing poll");
        let left: Vec<_> = ml.iter().map(|(h, b)| (*h, b.to_vec())).collect();
        assert_eq!(left, vec![(1, vec![3])]);
    }
}
