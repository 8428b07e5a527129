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
    parked: usize,
    peak_parked: usize,
    reclaimed: u64,
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
            parked: 0,
            peak_parked: 0,
            reclaimed: 0,
            epoch: 0,
        }
    }

    /// Parks `blocks` until the transfer guarded by `event` completes.
    pub fn park(&mut self, event: H, blocks: Vec<B>) {
        self.parked += blocks.len();
        self.peak_parked = self.peak_parked.max(self.parked);
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
        self.parked -= out.len();
        self.reclaimed += out.len() as u64;
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

    /// Number of blocks currently parked (unavailable for allocation).
    pub fn parked(&self) -> usize {
        self.parked
    }

    /// Peak number of simultaneously parked blocks.
    pub fn peak_parked(&self) -> usize {
        self.peak_parked
    }

    /// Total blocks ever reclaimed.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// Mutation epoch: bumped by every [`Self::park`] and by every
    /// [`Self::reclaim`] that releases an entry, so an auditor can skip a
    /// list (and the cache it parks blocks for) whose epoch is unchanged.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True if nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
        assert_eq!(ml.parked(), 1);
        assert!(!ml.is_empty());
        let rest = ml.reclaim(|_| true);
        assert_eq!(rest, vec![4]);
        assert!(ml.is_empty());
        assert_eq!(ml.reclaimed(), 4);
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
    fn peak_parked_is_monotonic() {
        let mut ml: MoveList<u32, u32> = MoveList::new();
        ml.park(0, vec![1, 2]);
        ml.park(1, vec![3, 4, 5]);
        assert_eq!(ml.peak_parked(), 5);
        ml.reclaim(|_| true);
        assert_eq!(ml.peak_parked(), 5);
        assert_eq!(ml.parked(), 0);
    }
}
