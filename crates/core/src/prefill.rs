//! Algorithm 1: grouped FCFS prefill-phase scheduling.
//!
//! Each prefill instance maintains a job queue of *groups*; a group holds up
//! to `MAX_GPSIZE` requests of one model. An arriving job first tries to
//! join an existing group anywhere in the pool (minimizing preemptive
//! auto-scaling); otherwise a fresh group is appended to the least-loaded
//! queue, where load is the estimated time to finish all pending groups —
//! execution plus auto-scaling. Execution pops one request at a time from
//! the *front* group (prefill batch size is one, §4.2), and group sizes are
//! accumulative: serving a request does not free up its slot, which keeps
//! the schedule close to FCFS.

use std::collections::VecDeque;

use aegaeon_model::ModelId;
use aegaeon_workload::RequestId;

/// A group of same-model prefill jobs.
#[derive(Debug, Clone)]
pub(crate) struct Group {
    /// The model all jobs in the group target.
    pub(crate) model: ModelId,
    /// Pending requests.
    pub(crate) reqs: VecDeque<RequestId>,
    /// Accumulative size (never decremented; caps admission).
    pub(crate) accum: u32,
}

/// One prefill instance's job queue.
#[derive(Debug, Clone, Default)]
pub struct PrefillQueue {
    groups: VecDeque<Group>,
}

impl PrefillQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tries to add `req` to an existing group of `model` with accumulative
    /// size below `max_gpsize` (Algorithm 1, lines 6–8).
    pub(crate) fn try_join(&mut self, model: ModelId, req: RequestId, max_gpsize: u32) -> bool {
        for g in &mut self.groups {
            if g.model == model && g.accum < max_gpsize {
                g.reqs.push_back(req);
                g.accum += 1;
                return true;
            }
        }
        false
    }

    /// Appends a fresh group holding `req` (Algorithm 1, line 13).
    pub(crate) fn push_group(&mut self, model: ModelId, req: RequestId) {
        let mut reqs = VecDeque::new();
        reqs.push_back(req);
        self.groups.push_back(Group {
            model,
            reqs,
            accum: 1,
        });
    }

    /// Model of the front group, if any.
    pub(crate) fn front_model(&self) -> Option<ModelId> {
        self.groups.front().map(|g| g.model)
    }

    /// Model of the group *after* the front (the prefetch target).
    pub(crate) fn next_model(&self) -> Option<ModelId> {
        self.groups.get(1).map(|g| g.model)
    }

    /// Pops one request from the front group (Algorithm 1, line 15),
    /// removing the group once drained.
    pub(crate) fn pop_request(&mut self) -> Option<(ModelId, RequestId)> {
        loop {
            let front = self.groups.front_mut()?;
            if let Some(r) = front.reqs.pop_front() {
                let model = front.model;
                if front.reqs.is_empty() {
                    self.groups.pop_front();
                }
                return Some((model, r));
            }
            self.groups.pop_front();
        }
    }

    /// Puts a request back at the head (GPU KV backpressure retry).
    pub(crate) fn push_front(&mut self, model: ModelId, req: RequestId) {
        match self.groups.front_mut() {
            Some(g) if g.model == model => g.reqs.push_front(req),
            _ => {
                let mut reqs = VecDeque::new();
                reqs.push_back(req);
                self.groups.push_front(Group {
                    model,
                    reqs,
                    accum: 1,
                });
            }
        }
    }

    /// Total queued requests.
    pub(crate) fn pending(&self) -> usize {
        self.groups.iter().map(|g| g.reqs.len()).sum()
    }

    /// The queue's load (Algorithm 1, line 9): estimated seconds to finish
    /// every pending group, counting execution (`exec_est` per request) and
    /// one auto-scaling (`switch_est` per model) whenever consecutive groups
    /// change models, starting from `current`.
    pub(crate) fn load_estimate(
        &self,
        current: Option<ModelId>,
        mut exec_est: impl FnMut(ModelId, RequestId) -> f64,
        mut switch_est: impl FnMut(ModelId) -> f64,
    ) -> f64 {
        let mut load = 0.0;
        let mut prev = current;
        for g in &self.groups {
            if prev != Some(g.model) {
                load += switch_est(g.model);
            }
            prev = Some(g.model);
            for &r in &g.reqs {
                load += exec_est(g.model, r);
            }
        }
        load
    }
}

/// Picks the prefill instance for a new request (Algorithm 1) among the
/// caller's eligible instances: `queues` are their job queues and
/// `currents` their current models, in the same order. The request joins
/// the first group with room; otherwise the least-loaded queue (the first
/// one on ties) gets a new group. Returns the chosen index into `queues`.
///
/// # Panics
///
/// Panics if `queues` is empty: the caller handles "no eligible instance".
pub(crate) fn dispatch_prefill(
    queues: &mut [&mut PrefillQueue],
    currents: &[Option<ModelId>],
    model: ModelId,
    req: RequestId,
    max_gpsize: u32,
    mut exec_est: impl FnMut(ModelId, RequestId) -> f64,
    mut switch_est: impl FnMut(ModelId) -> f64,
) -> usize {
    assert!(!queues.is_empty(), "no eligible prefill instance");
    // Lines 4–8: prioritize existing groups anywhere in the pool.
    for (i, q) in queues.iter_mut().enumerate() {
        if q.try_join(model, req, max_gpsize) {
            return i;
        }
    }
    // Lines 9–13: least-loaded queue gets a fresh group.
    let mut best = 0usize;
    let mut min_load = f64::INFINITY;
    for (i, q) in queues.iter().enumerate() {
        let load = q.load_estimate(currents[i], &mut exec_est, &mut switch_est);
        if load < min_load {
            min_load = load;
            best = i;
        }
    }
    queues[best].push_group(model, req);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(x: u64) -> RequestId {
        RequestId(x)
    }
    fn mid(x: u32) -> ModelId {
        ModelId(x)
    }

    /// Dispatches over `qs`, all idle, at 0.1 s per request and 1 s per
    /// switch.
    fn dispatch(qs: &mut [&mut PrefillQueue], model: ModelId, req: RequestId, max: u32) -> usize {
        let currents = vec![None; qs.len()];
        dispatch_prefill(qs, &currents, model, req, max, |_, _| 0.1, |_| 1.0)
    }

    #[test]
    fn join_prefers_existing_group() {
        let mut qs = <[PrefillQueue; 2]>::default();
        let i0 = dispatch(&mut qs.each_mut(), mid(0), rid(0), 8);
        let i1 = dispatch(&mut qs.each_mut(), mid(0), rid(1), 8);
        assert_eq!(i0, i1, "same-model jobs share a group");
        assert_eq!(qs[i0].groups.len(), 1);
        assert_eq!(qs[i0].pending(), 2);
    }

    #[test]
    fn full_group_spills_to_least_loaded() {
        let mut qs = <[PrefillQueue; 2]>::default();
        for k in 0..2 {
            dispatch(&mut qs.each_mut(), mid(0), rid(k), 2);
        }
        // Group at capacity (2); the third same-model job must open a new
        // group on the *other*, empty queue.
        let i = dispatch(&mut qs.each_mut(), mid(0), rid(2), 2);
        assert_eq!(qs[0].pending() + qs[1].pending(), 3);
        assert_eq!(qs[i].groups.len(), 1);
        assert_ne!(i, 0);
    }

    #[test]
    fn equal_loads_pick_the_first_candidate() {
        let mut qs = <[PrefillQueue; 3]>::default();
        let mut next = |m: u32| dispatch(&mut qs.each_mut(), mid(m), rid(u64::from(m)), 8);
        assert_eq!(next(0), 0, "all idle");
        // Queue 0 now carries m0's group; queues 1 and 2 tie at zero load.
        assert_eq!(next(1), 1);
        assert_eq!(next(2), 2);
        // One group each, all at equal load (a switch plus one request).
        assert_eq!(next(3), 0, "three-way tie");
        // Queue 0 now holds two groups; queues 1 and 2 tie below it.
        assert_eq!(next(4), 1, "two-way tie");
    }

    #[test]
    fn subset_dispatch_indexes_the_subset() {
        // Pool of three: p0 holds an m0 group with room, p1 is busy with
        // m1, p2 is idle. The caller excludes p0 (dead, or off the node a
        // spilled prefix pins).
        let mut pool = <[PrefillQueue; 3]>::default();
        pool[0].push_group(mid(0), rid(0));
        pool[1].push_group(mid(1), rid(1));
        let [p0, p1, p2] = &mut pool;
        // p2's load (0) beats p1's; index 1 of the subset is p2.
        assert_eq!(dispatch(&mut [p1, p2], mid(0), rid(2), 8), 1);
        assert_eq!(p0.pending(), 1, "the excluded group is never joined");
        assert_eq!(pool[1].pending(), 1);
        assert_eq!(pool[2].front_model(), Some(mid(0)));
    }

    #[test]
    fn accumulative_size_preserves_fcfs() {
        let mut q = PrefillQueue::new();
        assert!(!q.try_join(mid(0), rid(0), 8));
        q.push_group(mid(0), rid(0));
        assert!(q.try_join(mid(0), rid(1), 2));
        // Serve one; accumulative size stays 2, so a third job may NOT join.
        let (m, r) = q.pop_request().unwrap();
        assert_eq!((m, r), (mid(0), rid(0)));
        assert!(!q.try_join(mid(0), rid(2), 2));
    }

    #[test]
    fn load_counts_switches_between_model_changes() {
        let mut q = PrefillQueue::new();
        q.push_group(mid(0), rid(0));
        q.push_group(mid(1), rid(1));
        q.push_group(mid(1), rid(2));
        q.push_group(mid(0), rid(3));
        // current = Some(0): switches at m1 and back at m0 → 2 switches.
        let load = q.load_estimate(Some(mid(0)), |_, _| 0.5, |_| 10.0);
        assert!(
            (load - (4.0 * 0.5 + 2.0 * 10.0)).abs() < 1e-9,
            "load {load}"
        );
        // current = None: also pay the initial scale to m0.
        let load2 = q.load_estimate(None, |_, _| 0.5, |_| 10.0);
        assert!((load2 - (2.0 + 30.0)).abs() < 1e-9);
    }

    #[test]
    fn pop_drains_groups_in_order() {
        let mut q = PrefillQueue::new();
        q.push_group(mid(0), rid(0));
        q.try_join(mid(0), rid(1), 8);
        q.push_group(mid(1), rid(2));
        let order: Vec<_> = std::iter::from_fn(|| q.pop_request()).collect();
        assert_eq!(
            order,
            vec![(mid(0), rid(0)), (mid(0), rid(1)), (mid(1), rid(2))]
        );
        assert!(q.groups.is_empty());
    }

    #[test]
    fn push_front_rejoins_front_group() {
        let mut q = PrefillQueue::new();
        q.push_group(mid(0), rid(0));
        q.try_join(mid(0), rid(1), 8);
        let (m, r) = q.pop_request().unwrap();
        q.push_front(m, r);
        assert_eq!(q.pop_request().unwrap(), (mid(0), rid(0)));
        // A different model pushed to the front opens its own group.
        q.push_front(mid(5), rid(9));
        assert_eq!(q.front_model(), Some(mid(5)));
    }

    #[test]
    fn next_model_is_the_prefetch_target() {
        let mut q = PrefillQueue::new();
        assert_eq!(q.next_model(), None);
        q.push_group(mid(0), rid(0));
        q.push_group(mid(3), rid(1));
        assert_eq!(q.next_model(), Some(mid(3)));
    }
}
