//! Algorithm 2: batched weighted-round-robin decoding-phase scheduling.
//!
//! Each decoding instance keeps a rotating *work list* of batches, one model
//! per batch. Rounds assign quotas (see [`crate::quota`]), reorder the list
//! so same-model batches are adjacent (saving switches), then decode each
//! batch for its quota ("a turn"). New requests join an existing same-model
//! batch with room, or append a new batch to the least-loaded work list
//! (load measured in work-list size, max batch sizes derived from KV-cache
//! capacity — Algorithm 2, line 2).

use aegaeon_model::ModelId;
use aegaeon_workload::RequestId;

/// Identifies a batch within one instance's work list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct BatchId(pub(crate) u64);

/// A decoding batch: requests of one model plus its current quota.
#[derive(Debug, Clone)]
pub(crate) struct Batch {
    /// Stable id.
    pub(crate) id: BatchId,
    /// The model.
    pub(crate) model: ModelId,
    /// Member requests.
    pub(crate) reqs: Vec<RequestId>,
    /// Current round's quota, seconds.
    pub(crate) quota: f64,
}

/// One decoding instance's rotating work list.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkList {
    batches: Vec<Batch>,
    next_id: u64,
}

impl WorkList {
    /// Creates an empty list.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a new batch for `model` holding `req`.
    pub(crate) fn add_batch(&mut self, model: ModelId, req: RequestId) -> BatchId {
        let id = BatchId(self.next_id);
        self.next_id += 1;
        self.batches.push(Batch {
            id,
            model,
            reqs: vec![req],
            quota: 0.0,
        });
        id
    }

    /// A same-model batch that `can_accept` (capacity predicate) approves.
    pub(crate) fn find_joinable(
        &self,
        model: ModelId,
        mut can_accept: impl FnMut(&Batch) -> bool,
    ) -> Option<BatchId> {
        self.batches
            .iter()
            .find(|b| b.model == model && can_accept(b))
            .map(|b| b.id)
    }

    /// Mutable access to a batch.
    pub(crate) fn get_mut(&mut self, id: BatchId) -> Option<&mut Batch> {
        self.batches.iter_mut().find(|b| b.id == id)
    }

    /// Shared access to a batch.
    pub(crate) fn get(&self, id: BatchId) -> Option<&Batch> {
        self.batches.iter().find(|b| b.id == id)
    }

    /// Removes empty batches.
    pub(crate) fn remove_empty(&mut self) {
        self.batches.retain(|b| !b.reqs.is_empty());
    }

    /// Removes `req` from its batch, if present; returns the batch id.
    pub(crate) fn remove_request(&mut self, req: RequestId) -> Option<BatchId> {
        for b in &mut self.batches {
            if let Some(pos) = b.reqs.iter().position(|&r| r == req) {
                b.reqs.remove(pos);
                return Some(b.id);
            }
        }
        None
    }

    /// Stable reorder grouping same-model batches adjacently, by first
    /// occurrence (Algorithm 2, line 6).
    pub(crate) fn reorder_by_model(&mut self) {
        let mut order: Vec<ModelId> = Vec::new();
        for b in &self.batches {
            if !order.contains(&b.model) {
                order.push(b.model);
            }
        }
        self.batches.sort_by_key(|b| {
            order
                .iter()
                .position(|&m| m == b.model)
                .expect("model seen above")
        });
    }

    /// Batch ids in rotation order.
    pub(crate) fn order(&self) -> Vec<BatchId> {
        self.batches.iter().map(|b| b.id).collect()
    }

    /// Number of batches (the "work list size" load metric).
    pub(crate) fn len(&self) -> usize {
        self.batches.len()
    }

    /// True if no batches.
    pub(crate) fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Distinct models present.
    pub(crate) fn distinct_models(&self) -> Vec<ModelId> {
        let mut out = Vec::new();
        for b in &self.batches {
            if !out.contains(&b.model) {
                out.push(b.model);
            }
        }
        out
    }

    /// Iterates batches in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Batch> {
        self.batches.iter()
    }
}

/// Picks the decoding instance for a freshly prefilled request (Algorithm 2,
/// line 2): prefer an instance with a joinable same-model batch; otherwise
/// the smallest work list. `same_node` breaks ties toward KV locality.
pub(crate) fn dispatch_decode(
    lists: &[&WorkList],
    model: ModelId,
    mut can_accept: impl FnMut(usize, &Batch) -> bool,
    same_node: impl Fn(usize) -> bool,
) -> (usize, Option<BatchId>) {
    // (instance index, joinable batch, preference key) — lower key wins.
    type Candidate = (usize, Option<BatchId>, (u8, usize, u8));
    let mut best: Option<Candidate> = None;
    for (i, wl) in lists.iter().enumerate() {
        let join = wl.find_joinable(model, |b| can_accept(i, b));
        let key = (u8::from(join.is_none()), wl.len(), u8::from(!same_node(i)));
        if best.as_ref().is_none_or(|(_, _, k)| key < *k) {
            best = Some((i, join, key));
        }
    }
    let (i, join, _) = best.expect("at least one decoding instance");
    (i, join)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid(x: u32) -> ModelId {
        ModelId(x)
    }
    fn rid(x: u64) -> RequestId {
        RequestId(x)
    }

    #[test]
    fn reorder_groups_same_models() {
        let mut wl = WorkList::new();
        wl.add_batch(mid(0), rid(0));
        wl.add_batch(mid(1), rid(1));
        wl.add_batch(mid(0), rid(2));
        wl.add_batch(mid(2), rid(3));
        wl.reorder_by_model();
        let models: Vec<u32> = wl.iter().map(|b| b.model.0).collect();
        assert_eq!(models, vec![0, 0, 1, 2]);
    }

    #[test]
    fn dispatch_prefers_joinable_batch() {
        let mut a = WorkList::new();
        a.add_batch(mid(0), rid(0));
        let mut b = WorkList::new();
        b.add_batch(mid(1), rid(1));
        let lists = [&a, &b];
        let (i, join) = dispatch_decode(&lists, mid(1), |_, _| true, |_| true);
        assert_eq!(i, 1);
        assert!(join.is_some());
    }

    #[test]
    fn dispatch_falls_back_to_least_loaded() {
        let mut a = WorkList::new();
        a.add_batch(mid(0), rid(0));
        a.add_batch(mid(1), rid(1));
        let b = WorkList::new();
        let lists = [&a, &b];
        let (i, join) = dispatch_decode(&lists, mid(9), |_, _| true, |_| true);
        assert_eq!(i, 1);
        assert!(join.is_none());
    }

    #[test]
    fn dispatch_respects_capacity_predicate() {
        let mut a = WorkList::new();
        a.add_batch(mid(0), rid(0));
        let b = WorkList::new();
        let lists = [&a, &b];
        // The same-model batch is full: must open a new batch elsewhere.
        let (i, join) = dispatch_decode(&lists, mid(0), |_, _| false, |_| true);
        assert_eq!(i, 1);
        assert!(join.is_none());
    }

    #[test]
    fn dispatch_breaks_ties_by_locality() {
        let wa = WorkList::new();
        let wb = WorkList::new();
        let lists = [&wa, &wb];
        let (i, _) = dispatch_decode(&lists, mid(0), |_, _| true, |i| i == 1);
        assert_eq!(i, 1);
    }

    /// A forced prefix holder is the only candidate: it joins a batch of
    /// the model with room, and opens a new one when that batch is full.
    #[test]
    fn dispatch_over_a_lone_candidate() {
        let mut wl = WorkList::new();
        let b0 = wl.add_batch(mid(0), rid(0));
        let lists = [&wl];
        let room = dispatch_decode(&lists, mid(0), |_, _| true, |_| true);
        assert_eq!(room, (0, Some(b0)));
        let full = dispatch_decode(&lists, mid(0), |_, _| false, |_| true);
        assert_eq!(full, (0, None));
    }

    #[test]
    fn remove_request_and_empty_cleanup() {
        let mut wl = WorkList::new();
        let b0 = wl.add_batch(mid(0), rid(0));
        wl.get_mut(b0).unwrap().reqs.push(rid(1));
        assert_eq!(wl.remove_request(rid(0)), Some(b0));
        assert_eq!(wl.iter().map(|b| b.reqs.len()).sum::<usize>(), 1);
        wl.remove_request(rid(1));
        wl.remove_empty();
        assert!(wl.is_empty());
    }

    #[test]
    fn distinct_models_in_first_seen_order() {
        let mut wl = WorkList::new();
        wl.add_batch(mid(2), rid(0));
        wl.add_batch(mid(0), rid(1));
        wl.add_batch(mid(2), rid(2));
        assert_eq!(wl.distinct_models(), vec![mid(2), mid(0)]);
    }
}
