//! The §5 auto-scaling state of one instance: the model it serves, the
//! switch in flight, the §5.2 prefetch, and the models colocated in its
//! weight slots (the §8 multi-slot extension). The serving system submits
//! the stages and copies; this module decides what they leave resident.

use aegaeon_engine::init::VRAM_USABLE;
use aegaeon_gpu::EventId;
use aegaeon_model::ModelId;
use aegaeon_sim::SimTime;
use aegaeon_telemetry::SpanId;

use crate::config::AegaeonConfig;
use crate::deploy::ModelDeploy;

/// Equation (3)'s switch estimate for a model already resident in another
/// weight slot: activation only, no load.
const ACTIVATION_SECS: f64 = 0.02;
/// The smallest KV region worth keeping: an extra weight slot or a
/// prefetch region is reserved only if this much VRAM is left for KV.
const MIN_KV_BYTES: u64 = 2 << 30;

/// Auto-scaling controller state shared by both instance kinds.
#[derive(Debug, Clone)]
pub(crate) struct Scaler {
    current: Option<ModelId>,
    prefetched: Option<ModelId>,
    prefetch_inflight: Option<(ModelId, Vec<EventId>)>,
    scaling: Option<Scaling>,
    scale_seq: u64,
    prefetch_seq: u64,
    /// Weight slots the VRAM split allows (at least one).
    slots: usize,
    /// Prefetching is configured and the VRAM split leaves room for it.
    prefetch: bool,
    /// Colocated resident models, LRU first (empty with one weight slot).
    resident: Vec<ModelId>,
    /// Open telemetry span of the in-flight switch ([`SpanId::NONE`] when
    /// idle or telemetry is off).
    switch_span: SpanId,
}

#[derive(Debug, Clone)]
struct Scaling {
    target: ModelId,
    started: SimTime,
    prefetch_hit: bool,
    seq: u64,
}

impl Scaler {
    fn idle(slots: usize, prefetch: bool) -> Scaler {
        Scaler {
            current: None,
            prefetched: None,
            prefetch_inflight: None,
            scaling: None,
            scale_seq: 0,
            prefetch_seq: 0,
            slots,
            prefetch,
            resident: Vec::new(),
            switch_span: SpanId::NONE,
        }
    }

    /// Splits one GPU's usable VRAM between weight slots, the prefetch
    /// region and the KV cache. Returns an idle scaler for that split and
    /// the KV capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the largest shard and [`MIN_KV_BYTES`] do not fit.
    pub(crate) fn fit(cfg: &AegaeonConfig, deploys: &[ModelDeploy]) -> (Scaler, u64) {
        let usable = (cfg.cluster.nodes[0].gpu.vram_bytes as f64 * VRAM_USABLE) as u64;
        let max_shard = deploys
            .iter()
            .map(|d| d.shard_bytes)
            .max()
            .expect("at least one model");
        assert!(
            max_shard + MIN_KV_BYTES <= usable,
            "model shard ({max_shard} B) does not fit in usable VRAM ({usable} B); raise TP"
        );
        // Multi-slot colocation (§8 extension): fall back to one slot when
        // the requested number of shards cannot share VRAM.
        let mut slots = cfg.weight_slots.max(1) as u64;
        while slots > 1 && usable < max_shard * slots + MIN_KV_BYTES {
            slots -= 1;
        }
        // With 2+ slots the spare slot IS the prefetch target; a separate
        // prefetch region only exists in the single-slot configuration, and
        // only if a second model still leaves a workable KV region (the A10
        // case disables prefetching, §7.4).
        let prefetch = cfg.opts.prefetch && (slots > 1 || usable >= max_shard * 2 + MIN_KV_BYTES);
        let prefetch_region = if slots == 1 && prefetch { max_shard } else { 0 };
        let kv_cap = usable - max_shard * slots - prefetch_region;
        (Scaler::idle(slots as usize, prefetch), kv_cap)
    }

    /// The model the instance serves (or last served), if any.
    pub(crate) fn current(&self) -> Option<ModelId> {
        self.current
    }

    /// True while a switch is in flight.
    pub(crate) fn switching(&self) -> bool {
        self.scaling.is_some()
    }

    /// True when `m` is current and no switch is in flight.
    pub(crate) fn serves(&self, m: ModelId) -> bool {
        self.current == Some(m) && !self.switching()
    }

    /// Makes `target` current without a load when it already is or sits in
    /// another weight slot (activation is free, §8 multiplexing, and
    /// refreshes its recency). False when it needs a switch.
    pub(crate) fn activate(&mut self, target: ModelId) -> bool {
        if self.current == Some(target) {
            return true;
        }
        if self.slots > 1 && self.resident.contains(&target) {
            self.current = Some(target);
            self.make_resident(target);
            return true;
        }
        false
    }

    /// Makes `m` the most recently used resident model, first evicting the
    /// least recently used non-current ones while the slots are full.
    fn make_resident(&mut self, m: ModelId) {
        self.resident.retain(|&x| x != m);
        while self.resident.len() >= self.slots {
            let lru = self.resident.iter().position(|&x| Some(x) != self.current);
            self.resident.remove(lru.expect("full slots hold a non-current model"));
        }
        self.resident.push(m);
    }

    /// Opens a switch to `target` at `now`. Returns the sequence number
    /// its completion carries, whether a prefetch of `target` landed or is
    /// in flight, and that in-flight prefetch's per-GPU events, which the
    /// switch waits on (empty when none is in flight).
    pub(crate) fn begin_switch(
        &mut self,
        target: ModelId,
        now: SimTime,
    ) -> (u64, bool, Vec<EventId>) {
        let wait = match &self.prefetch_inflight {
            Some((m, evs)) if *m == target => Some(evs.clone()),
            _ => None,
        };
        let prefetch_hit = self.prefetched == Some(target) || wait.is_some();
        self.scale_seq += 1;
        self.scaling = Some(Scaling {
            target,
            started: now,
            prefetch_hit,
            seq: self.scale_seq,
        });
        (self.scale_seq, prefetch_hit, wait.unwrap_or_default())
    }

    /// Closes switch `seq`: its target becomes current and takes a weight
    /// slot, and the prefetch that fed it is consumed. Returns the target,
    /// the switch's start and whether a prefetch fed it; `None` when `seq`
    /// is not the switch in flight.
    pub(crate) fn finish_switch(&mut self, seq: u64) -> Option<(ModelId, SimTime, bool)> {
        let sc = self.scaling.take_if(|sc| sc.seq == seq)?;
        self.current = Some(sc.target);
        if sc.prefetch_hit {
            // Consume only the prefetch that fed this switch; an in-flight
            // prefetch for a *different* model stays live.
            if self.prefetched == Some(sc.target) {
                self.prefetched = None;
            }
            if matches!(&self.prefetch_inflight, Some((m, _)) if *m == sc.target) {
                self.prefetch_inflight = None;
            }
        }
        if self.slots > 1 {
            self.make_resident(sc.target);
        }
        Some((sc.target, sc.started, sc.prefetch_hit))
    }

    /// True when prefetching `model` could feed a later switch: prefetching
    /// is on, none is in flight, and `model` is neither prefetched, current
    /// nor the target of the switch in flight.
    pub(crate) fn wants_prefetch(&self, model: ModelId) -> bool {
        self.prefetch
            && self.prefetch_inflight.is_none()
            && self.prefetched != Some(model)
            && self.current != Some(model)
            && !matches!(&self.scaling, Some(sc) if sc.target == model)
    }

    /// Sequence number the next prefetch's completion carries.
    pub(crate) fn next_prefetch_seq(&self) -> u64 {
        self.prefetch_seq + 1
    }

    /// Records a prefetch of `model` issued with one event per GPU.
    pub(crate) fn prefetch_issued(&mut self, model: ModelId, events: Vec<EventId>) {
        self.prefetch_seq += 1;
        self.prefetch_inflight = Some((model, events));
    }

    /// Prefetch `seq` of `model` landed: with one weight slot it waits in
    /// the prefetch region; with more, the spare slot now holds the model
    /// and its activation will be free.
    pub(crate) fn prefetch_landed(&mut self, model: ModelId, seq: u64) {
        if self.prefetch_seq != seq
            || !matches!(&self.prefetch_inflight, Some((m, _)) if *m == model)
        {
            return;
        }
        self.prefetch_inflight = None;
        if self.slots > 1 {
            self.make_resident(model);
        } else {
            self.prefetched = Some(model);
        }
    }

    /// Equation (3)'s switch total for a round over the distinct `models`:
    /// none when the round's only model is current, else each model's
    /// `switch_secs`, or [`ACTIVATION_SECS`] for a colocated one.
    pub(crate) fn round_switch_secs(
        &self,
        models: &[ModelId],
        switch_secs: impl Fn(ModelId) -> f64,
    ) -> f64 {
        if models.len() == 1 && self.current == Some(models[0]) {
            return 0.0;
        }
        let secs = |&m: &ModelId| {
            if self.resident.contains(&m) {
                ACTIVATION_SECS
            } else {
                switch_secs(m)
            }
        };
        models.iter().map(secs).sum()
    }

    /// Replaces the open switch span with `span` and returns the old one.
    pub(crate) fn swap_switch_span(&mut self, span: SpanId) -> SpanId {
        std::mem::replace(&mut self.switch_span, span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ModelId = ModelId(0);
    const B: ModelId = ModelId(1);
    const C: ModelId = ModelId(2);

    /// Switches `s` to `m` and completes the switch.
    fn switch(s: &mut Scaler, m: ModelId) -> bool {
        let (seq, _, _) = s.begin_switch(m, SimTime::ZERO);
        let (target, _, hit) = s.finish_switch(seq).expect("switch in flight");
        assert_eq!(target, m);
        hit
    }

    /// Two distinct fabric events.
    fn two_events() -> [EventId; 2] {
        let mut fabric = aegaeon_gpu::Fabric::<()>::new();
        let stream = fabric.add_stream("s");
        let mut q = aegaeon_sim::EventQueue::new();
        let mut out = std::collections::VecDeque::new();
        [(); 2].map(|()| fabric.record_event(stream, &mut q, &mut out))
    }

    /// Prefetches `m` into `s` and lets it land.
    fn prefetch(s: &mut Scaler, m: ModelId) {
        assert!(s.wants_prefetch(m));
        let seq = s.next_prefetch_seq();
        s.prefetch_issued(m, Vec::new());
        s.prefetch_landed(m, seq);
    }

    #[test]
    fn activating_a_colocated_model_is_free_and_refreshes_its_recency() {
        let mut one = Scaler::idle(1, true);
        switch(&mut one, A);
        switch(&mut one, B);
        assert!(one.activate(B), "the current model needs no switch");
        assert!(!one.activate(A), "one slot keeps no other model resident");
        assert!(one.resident.is_empty());

        let mut two = Scaler::idle(2, true);
        switch(&mut two, A);
        switch(&mut two, B);
        assert!(two.activate(A), "A is colocated");
        assert_eq!(two.current(), Some(A));
        assert!(!two.switching(), "activation starts no switch");
        assert_eq!(two.resident, [B, A], "A is now the most recently used");
        let free = two.round_switch_secs(&[A, B], |_| 9.0);
        assert_eq!(free, 2.0 * ACTIVATION_SECS);
        switch(&mut two, C);
        assert_eq!(two.resident, [A, C], "B was least recently used");
    }

    #[test]
    fn switches_and_prefetches_evict_the_lru_non_current_model() {
        // A switch completion: the target is current, so the LRU goes.
        let mut s = Scaler::idle(2, true);
        switch(&mut s, A);
        switch(&mut s, B);
        switch(&mut s, C);
        assert_eq!(s.resident, [B, C]);
        assert_eq!(s.current(), Some(C));
        // A finished prefetch: the current model stays even when it is the
        // least recently used.
        let mut s = Scaler::idle(2, true);
        switch(&mut s, A);
        prefetch(&mut s, B);
        assert_eq!(s.resident, [A, B]);
        prefetch(&mut s, C);
        assert_eq!(s.resident, [A, C], "the current model A stays resident");
        assert!(s.activate(C));
        // With one slot a prefetch waits in its own region instead.
        let mut s = Scaler::idle(1, true);
        switch(&mut s, A);
        prefetch(&mut s, B);
        assert!(s.resident.is_empty());
        assert_eq!(s.prefetched, Some(B));
        assert!(!s.activate(B), "a prefetched model still needs a switch");
    }

    #[test]
    fn a_stale_seq_is_ignored() {
        let mut s = Scaler::idle(1, true);
        let (a, ..) = s.begin_switch(A, SimTime::ZERO);
        assert!(s.finish_switch(a + 1).is_none());
        assert!(s.switching() && s.current().is_none());
        assert!(s.finish_switch(a).is_some());
        let (b, ..) = s.begin_switch(B, SimTime::ZERO);
        assert!(s.finish_switch(a).is_none(), "A's completion is stale");
        assert!(!s.serves(A) && !s.serves(B));
        assert_eq!(s.current(), Some(A));
        assert!(s.finish_switch(b).is_some());
        assert!(s.serves(B));
        // A prefetch's stale completion lands nothing.
        let seq = s.next_prefetch_seq();
        s.prefetch_issued(C, Vec::new());
        s.prefetch_landed(C, seq - 1);
        assert_eq!(s.prefetched, None);
        assert!(!s.wants_prefetch(A), "C is still in flight");
        s.prefetch_landed(C, seq);
        assert_eq!(s.prefetched, Some(C));
    }

    #[test]
    fn a_prefetch_hit_is_consumed_only_by_its_own_target() {
        let [e1, e2] = two_events();
        let mut s = Scaler::idle(1, true);
        prefetch(&mut s, A);
        assert!(!switch(&mut s, B), "A's prefetch does not feed B");
        assert_eq!(s.prefetched, Some(A), "B's switch leaves A's prefetch");
        // B's prefetch is in flight while A's prefetched copy feeds A.
        let seq = s.next_prefetch_seq();
        s.prefetch_issued(B, vec![e1]);
        let (a, hit, wait) = s.begin_switch(A, SimTime::ZERO);
        assert!(hit && wait.is_empty());
        assert_eq!(s.finish_switch(a).map(|f| f.2), Some(true));
        assert_eq!(s.prefetched, None);
        s.prefetch_landed(B, seq);
        assert_eq!(s.prefetched, Some(B), "B's prefetch stayed live");
        // A switch to the in-flight prefetch's target waits on its events.
        let seq = s.next_prefetch_seq();
        s.prefetch_issued(C, vec![e2]);
        let (c, hit, wait) = s.begin_switch(C, SimTime::ZERO);
        assert!(hit);
        assert_eq!(wait, [e2]);
        s.finish_switch(c);
        s.prefetch_landed(C, seq);
        assert_eq!(s.prefetched, Some(B), "C's prefetch was consumed");
        assert!(!s.wants_prefetch(C), "C is current");
        assert!(!Scaler::idle(1, false).wants_prefetch(C));
    }
}
