//! Paged KV cache over the slab-allocated unified cache.
//!
//! Both the per-GPU unified KV cache and the node-wide unified CPU cache
//! (Figure 9) are instances of [`KvCache`]: a [`aegaeon_mem::SlabPool`]
//! whose shape classes are KV-cache block shapes, plus per-request block
//! lists. Models sharing a KV shape share slab pools, which is what keeps
//! fragmentation proportional (Figure 16).
//!
//! A cache also keeps its own §5.3 move list (rule ❸, Figure 10 step ⑧):
//! a request's blocks that are the source of an in-flight copy are
//! [`KvCache::park`]ed behind the copy's event, out of reuse, until the
//! daemon's [`KvCache::reclaim`] sees the event fire. Parked batches are
//! holders like requests, so the cache's ledger and touch log cover them.

use aegaeon_gpu::EventId;
use aegaeon_mem::{BlockRef, Journal, ShapeKey, SlabPool, SlabPoolConfig, SlabShadow};
use aegaeon_mem::slab::{ShapeUsage, SlabExhausted};
use aegaeon_model::{ModelId, ModelSpec};
use aegaeon_sim::FxHashMap;
use aegaeon_workload::RequestId;

/// Geometry of a KV cache region.
#[derive(Debug, Clone, Copy)]
pub struct KvCacheConfig {
    /// Total bytes of the region.
    pub capacity_bytes: u64,
    /// Slab size (the §5.2 management/fragmentation knob).
    pub slab_bytes: u64,
    /// Tokens per block (PagedAttention-style paging).
    pub block_tokens: u32,
}

#[derive(Debug, Clone)]
struct ReqKv {
    shape: ShapeKey,
    blocks: Vec<BlockRef>,
    tokens: u32,
}

/// A multi-model paged KV cache.
#[derive(Debug)]
pub struct KvCache {
    pool: SlabPool,
    block_tokens: u32,
    /// Shape key per distinct block byte size.
    by_block_bytes: FxHashMap<u64, ShapeKey>,
    /// Registered models → their shape class.
    models: FxHashMap<ModelId, ShapeKey>,
    requests: FxHashMap<RequestId, ReqKv>,
    /// The §5.3 move list: batches parked behind the copy events guarding
    /// them, in park order.
    parked: Vec<(EventId, ShapeKey, Vec<BlockRef>)>,
    /// Holder changes since the last [`Self::clear_touches`]: each holder
    /// (a key, or `None` for the move list) that gained (`true`) or lost
    /// blocks, with its range in `touched_blocks`.
    touches: Vec<(Option<RequestId>, bool, ShapeKey, u32, u32)>,
    touched_blocks: Vec<BlockRef>,
    /// Marked whenever the holders' side of the touch log grows; says
    /// whether it records at all.
    journal: Journal,
}

impl KvCache {
    /// Creates a cache with the given geometry.
    pub fn new(cfg: KvCacheConfig) -> KvCache {
        KvCache {
            pool: SlabPool::new(SlabPoolConfig {
                capacity_bytes: cfg.capacity_bytes,
                slab_bytes: cfg.slab_bytes,
            }),
            block_tokens: cfg.block_tokens,
            by_block_bytes: FxHashMap::default(),
            models: FxHashMap::default(),
            requests: FxHashMap::default(),
            parked: Vec::new(),
            touches: Vec::new(),
            touched_blocks: Vec::new(),
            journal: Journal::default(),
        }
    }

    /// Logs both sides into `journal`'s set: marks it whenever the touch
    /// log grows, and records only while it does.
    pub fn join(&mut self, journal: Journal) {
        self.pool.join(journal.clone());
        self.journal = journal;
    }

    /// Logs that each holder in `changes` gained (`true`) or lost `blocks`.
    fn log(&mut self, changes: &[(Option<RequestId>, bool)], shape: ShapeKey, blocks: &[BlockRef]) {
        if !self.journal.recording() {
            return;
        }
        let start = self.touched_blocks.len() as u32;
        self.touched_blocks.extend_from_slice(blocks);
        let end = self.touched_blocks.len() as u32;
        for &(key, gained) in changes {
            self.touches.push((key, gained, shape, start, end));
        }
        self.journal.mark();
    }

    /// The holders' side of the touch log since the last
    /// [`Self::clear_touches`], in order: each holder that gained (`true`)
    /// or lost blocks, with the blocks. The holder is a key, or `None` for
    /// the move list. A request gains blocks on allocation and growth and
    /// loses them when freed or parked; a rekey or absorb is a loss by the
    /// old key and a gain by the new, a park a loss by the key and a gain
    /// by the move list, a reclaim a loss by the move list. Growth that
    /// fills the last block without a fresh one logs nothing.
    pub fn touches(
        &self,
    ) -> impl Iterator<Item = (Option<RequestId>, bool, ShapeKey, &[BlockRef])> {
        self.touches
            .iter()
            .map(|&(key, gained, shape, start, end)| {
                (
                    key,
                    gained,
                    shape,
                    &self.touched_blocks[start as usize..end as usize],
                )
            })
    }

    /// True if either side of the touch log is non-empty.
    #[inline]
    pub fn touched(&self) -> bool {
        !self.touches.is_empty() || !self.pool.touches().is_empty()
    }

    /// Block allocations and frees the pool logged since the last
    /// [`Self::clear_touches`].
    pub fn block_ops(&self) -> usize {
        self.pool.block_ops()
    }

    /// Empties both sides of the touch log.
    #[inline]
    pub fn clear_touches(&mut self) {
        if self.touched() {
            self.touches.clear();
            self.touched_blocks.clear();
            self.pool.clear_touches();
        }
    }

    /// Registers a model; its KV shape becomes allocatable. Models with
    /// identical per-token byte sizes share a shape class.
    pub fn register_model(&mut self, id: ModelId, spec: &ModelSpec) {
        let per_token = spec.kv_bytes_per_token_per_gpu();
        let block_bytes = per_token * self.block_tokens as u64;
        let pool = &mut self.pool;
        let key = *self.by_block_bytes.entry(block_bytes).or_insert_with(|| {
            pool.register_shape(spec.kv_shape().to_string(), block_bytes)
        });
        self.models.insert(id, key);
    }

    fn blocks_for(&self, tokens: u32) -> usize {
        tokens.div_ceil(self.block_tokens) as usize
    }

    /// Allocates KV space for `tokens` tokens of a request.
    ///
    /// # Panics
    ///
    /// Panics if the model is unregistered or the request already has KV.
    pub fn alloc(
        &mut self,
        req: RequestId,
        model: ModelId,
        tokens: u32,
    ) -> Result<(), SlabExhausted> {
        assert!(
            !self.requests.contains_key(&req),
            "request {req:?} already holds KV"
        );
        let shape = *self.models.get(&model).expect("model registered");
        let blocks = self.pool.alloc(shape, self.blocks_for(tokens))?;
        self.log(&[(Some(req), true)], shape, &blocks);
        self.requests.insert(
            req,
            ReqKv {
                shape,
                blocks,
                tokens,
            },
        );
        Ok(())
    }

    /// Grows a request's KV to `new_tokens` total, allocating blocks as
    /// needed. Returns the number of fresh blocks.
    ///
    /// # Panics
    ///
    /// Panics if the request holds no KV or shrinks.
    pub fn extend(&mut self, req: RequestId, new_tokens: u32) -> Result<usize, SlabExhausted> {
        let r = self.requests.get_mut(&req).expect("request holds KV");
        assert!(new_tokens >= r.tokens, "KV cannot shrink");
        let need = new_tokens.div_ceil(self.block_tokens) as usize;
        let grow = need.saturating_sub(r.blocks.len());
        if grow == 0 {
            r.tokens = new_tokens;
            return Ok(0);
        }
        let shape = r.shape;
        let fresh = self.pool.alloc(shape, grow)?;
        r.blocks.extend_from_slice(&fresh);
        r.tokens = new_tokens;
        self.log(&[(Some(req), true)], shape, &fresh);
        Ok(grow)
    }

    /// Frees a request's KV back to the pool immediately.
    ///
    /// # Panics
    ///
    /// Panics if the request holds no KV.
    pub fn free(&mut self, req: RequestId) {
        let r = self.requests.remove(&req).expect("request holds KV");
        self.log(&[(Some(req), false)], r.shape, &r.blocks);
        self.pool.free(r.shape, &r.blocks);
    }

    /// Re-labels a request's KV under a new key without touching the pool
    /// (no bytes move; ownership transfers). Used to retain a finished
    /// turn's KV under its session's reserved handle for prefix reuse.
    ///
    /// # Panics
    ///
    /// Panics if `old` holds no KV or `new` already does.
    pub fn rekey(&mut self, old: RequestId, new: RequestId) {
        assert!(
            !self.requests.contains_key(&new),
            "rekey target {new:?} already holds KV"
        );
        let r = self.requests.remove(&old).expect("rekey source holds KV");
        self.log(&[(Some(old), false), (Some(new), true)], r.shape, &r.blocks);
        self.requests.insert(new, r);
    }

    /// Merges `src`'s blocks into `dst` (both must hold KV of the same
    /// shape): `dst` ends up owning both block lists and the summed token
    /// count; `src` disappears. Used when a turn's fresh-delta KV joins the
    /// session's cached prefix into one per-request entry.
    ///
    /// # Panics
    ///
    /// Panics if either request holds no KV or the shapes differ.
    pub fn absorb(&mut self, dst: RequestId, src: RequestId) {
        let s = self.requests.remove(&src).expect("absorb source holds KV");
        self.log(&[(Some(src), false), (Some(dst), true)], s.shape, &s.blocks);
        let d = self.requests.get_mut(&dst).expect("absorb target holds KV");
        assert_eq!(d.shape, s.shape, "absorb across KV shapes");
        d.blocks.extend(s.blocks);
        d.tokens += s.tokens;
    }

    /// Takes a request's KV out and parks its blocks behind `ev`, the
    /// event of a copy still reading or writing them (§5.3 rule ❸): they
    /// stay out of reuse until [`Self::reclaim`] sees `ev` fire.
    ///
    /// # Panics
    ///
    /// Panics if the request holds no KV.
    pub fn park(&mut self, req: RequestId, ev: EventId) {
        let r = self.requests.remove(&req).expect("request holds KV");
        self.log(&[(Some(req), false), (None, true)], r.shape, &r.blocks);
        self.parked.push((ev, r.shape, r.blocks));
    }

    /// Frees every parked batch whose event `done` reports fired, in park
    /// order; true if any was. This is what the daemon runs (Figure 10,
    /// step ⑧), with `done` querying the fabric (`cudaEventQuery`).
    pub fn reclaim(&mut self, mut done: impl FnMut(EventId) -> bool) -> bool {
        let mut parked = std::mem::take(&mut self.parked);
        let before = parked.len();
        parked.retain(|(ev, shape, blocks)| {
            if !done(*ev) {
                return true;
            }
            self.log(&[(None, false)], *shape, blocks);
            self.pool.free(*shape, blocks);
            false
        });
        let freed = parked.len() < before;
        self.parked = parked;
        freed
    }

    /// The parked batches, in park order: each guarding event with its
    /// blocks.
    pub fn parked(&self) -> impl Iterator<Item = (EventId, ShapeKey, &[BlockRef])> {
        self.parked
            .iter()
            .map(|(ev, shape, b)| (*ev, *shape, b.as_slice()))
    }

    /// Drops a request's KV without returning its blocks to the pool: a
    /// deliberate leak, for testing that an auditor catches one. The loss
    /// is logged like a free.
    ///
    /// # Panics
    ///
    /// Panics if the request holds no KV.
    pub fn leak(&mut self, req: RequestId) {
        let r = self.requests.remove(&req).expect("request holds KV");
        self.log(&[(Some(req), false)], r.shape, &r.blocks);
    }

    /// KV bytes a request currently occupies.
    pub fn bytes_of(&self, req: RequestId) -> u64 {
        self.requests
            .get(&req)
            .map(|r| r.blocks.len() as u64 * self.pool.block_bytes(r.shape))
            .unwrap_or(0)
    }

    /// True if the request holds KV here.
    pub fn holds(&self, req: RequestId) -> bool {
        self.requests.contains_key(&req)
    }

    /// Tokens currently stored for a request (0 if absent).
    pub fn tokens_of(&self, req: RequestId) -> u32 {
        self.requests.get(&req).map(|r| r.tokens).unwrap_or(0)
    }

    /// Every key currently holding KV (audit use). The order is fixed by
    /// the sequence of operations the cache has seen, so identically driven
    /// caches list their keys identically, but it is not sorted.
    pub fn request_ids(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.requests.keys().copied()
    }

    /// Blocks `req` holds (0 when it holds none).
    pub fn blocks_of(&self, req: RequestId) -> usize {
        self.requests.get(&req).map_or(0, |r| r.blocks.len())
    }

    /// Tokens' worth of KV still allocatable for `model` right now.
    pub fn token_capacity(&self, model: ModelId) -> u64 {
        let shape = *self.models.get(&model).expect("model registered");
        self.pool.available_blocks(shape) as u64 * self.block_tokens as u64
    }

    /// Maximum decode batch size for `model` given per-request context
    /// `ctx_tokens` (the Algorithm 2 line-2 derivation).
    pub fn max_batch(&self, model: ModelId, ctx_tokens: u32) -> usize {
        let per_req = self.blocks_for(ctx_tokens).max(1);
        let shape = *self.models.get(&model).expect("model registered");
        // Include blocks already used here: capacity is a static property.
        let total = self.pool.available_blocks(shape) + self.pool.used_blocks(shape) as usize;
        total / per_req
    }

    /// Per-shape usage snapshot (feeds [`aegaeon_mem::FragSampler`]).
    pub fn usage(&self) -> Vec<ShapeUsage> {
        self.pool.usage()
    }

    /// Bytes of KV currently in use across every shape; allocation-free,
    /// for per-interval telemetry gauges.
    pub fn used_bytes(&self) -> u64 {
        self.pool.total_used_bytes()
    }

    /// Checks the cache's bookkeeping against the underlying slab pool;
    /// returns the first inconsistency, or `None` when the books balance.
    ///
    /// The holders' side of the pool's double-entry [`SlabPool::audit`] is
    /// every request's block list plus every parked batch: together they
    /// must hold exactly the blocks the pool counts as used, each once.
    pub fn audit(&self) -> Option<String> {
        self.pool.audit(self.held())
    }

    /// Every holder's blocks, by shape: each request's, then each parked
    /// batch's.
    fn held(&self) -> impl Iterator<Item = (ShapeKey, &[BlockRef])> {
        let requests = self.requests.values().map(|r| (r.shape, &r.blocks[..]));
        let parked = self.parked.iter().map(|(_, shape, b)| (*shape, &b[..]));
        requests.chain(parked)
    }

    /// A shadow of the ledger [`Self::audit`] checks, to check later events
    /// incrementally with [`Self::check_touches`].
    pub fn shadow(&self) -> SlabShadow {
        SlabShadow::seed(&self.pool, self.held())
    }

    /// Replays both sides of the touch log since the last
    /// [`Self::clear_touches`] onto `shadow`, checks every touched block,
    /// slab and shape (see [`SlabShadow`]), and returns the number of block
    /// allocations and frees replayed.
    pub fn check_touches(&self, shadow: &mut SlabShadow) -> Result<usize, String> {
        let held = self
            .touches()
            .map(|(_, gained, shape, blocks)| (shape, blocks, gained));
        shadow.apply(&self.pool, held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegaeon_gpu::{Fabric, FabricEvent};
    use aegaeon_model::Zoo;
    use aegaeon_sim::EventQueue;

    /// Each touch-log entry's holder, direction and block count.
    fn logged(c: &KvCache) -> Vec<(Option<RequestId>, bool, usize)> {
        c.touches()
            .map(|(k, gained, _, b)| (k, gained, b.len()))
            .collect()
    }

    /// Each parked batch's event and block count.
    fn parked_sizes(c: &KvCache) -> Vec<(EventId, usize)> {
        c.parked().map(|(ev, _, b)| (ev, b.len())).collect()
    }

    /// `N` distinct copy events.
    fn events<const N: usize>() -> [EventId; N] {
        let mut f: Fabric<()> = Fabric::new();
        let mut q = EventQueue::<FabricEvent>::new();
        let s = f.add_stream("s");
        let mut cs = std::collections::VecDeque::new();
        [(); N].map(|_| f.record_event(s, &mut q, &mut cs))
    }

    fn cache_with(models: &[(&str, u32)]) -> (KvCache, Vec<ModelId>) {
        let zoo = Zoo::standard();
        let mut c = KvCache::new(KvCacheConfig {
            capacity_bytes: 8 << 30,
            slab_bytes: 256 << 20,
            block_tokens: 16,
        });
        let mut ids = Vec::new();
        for (i, (name, tp)) in models.iter().enumerate() {
            let spec = zoo.get(name).unwrap().with_tp(*tp);
            let id = ModelId(i as u32);
            c.register_model(id, &spec);
            ids.push(id);
        }
        (c, ids)
    }

    #[test]
    fn alloc_rounds_to_blocks() {
        let (mut c, ids) = cache_with(&[("Qwen-7B", 1)]);
        c.alloc(RequestId(1), ids[0], 33).unwrap();
        // 33 tokens → 3 blocks × 16 tokens × 512 KB.
        assert_eq!(c.bytes_of(RequestId(1)), 3 * 16 * 512 * 1024);
        assert_eq!(c.tokens_of(RequestId(1)), 33);
    }

    #[test]
    fn extend_allocates_only_on_block_boundaries() {
        let (mut c, ids) = cache_with(&[("Qwen-7B", 1)]);
        c.alloc(RequestId(1), ids[0], 16).unwrap();
        assert_eq!(c.extend(RequestId(1), 17).unwrap(), 1);
        for t in 18..=32 {
            assert_eq!(c.extend(RequestId(1), t).unwrap(), 0);
        }
        assert_eq!(c.extend(RequestId(1), 33).unwrap(), 1);
    }

    #[test]
    fn models_with_same_shape_share_pools() {
        // Qwen-7B and Llama-2-7B share (32, 2, 32, 128).
        let (mut c, ids) = cache_with(&[("Qwen-7B", 1), ("Llama-2-7B", 1)]);
        c.alloc(RequestId(1), ids[0], 1600).unwrap();
        let usage = c.usage();
        assert_eq!(usage.len(), 1, "one shared shape class");
        c.alloc(RequestId(2), ids[1], 1600).unwrap();
        assert_eq!(c.usage().len(), 1);
    }

    #[test]
    fn parked_blocks_balance_the_books_until_freed() {
        let (mut c, ids) = cache_with(&[("Qwen-7B", 1)]);
        let [ev] = events();
        c.alloc(RequestId(1), ids[0], 40).unwrap();
        c.alloc(RequestId(2), ids[0], 40).unwrap();
        c.park(RequestId(1), ev);
        assert!(c.audit().is_none());
        c.reclaim(|_| true);
        assert!(c.audit().is_none());
        c.leak(RequestId(2));
        let leak = c
            .audit()
            .expect("a leaked block is missing from the ledger");
        assert!(leak.contains("holders hold"), "{leak}");
    }

    #[test]
    fn reclaim_frees_only_completed_transfers() {
        let (mut c, ids) = cache_with(&[("LLaMA-13B", 1)]);
        let [done, pending] = events();
        c.alloc(RequestId(1), ids[0], 160).unwrap();
        c.alloc(RequestId(2), ids[0], 16).unwrap();
        let cap = c.token_capacity(ids[0]);
        c.park(RequestId(1), done);
        c.park(RequestId(2), pending);
        assert!(!c.holds(RequestId(1)));
        assert!(!c.reclaim(|_| false));
        assert_eq!(
            c.token_capacity(ids[0]),
            cap,
            "parked blocks stay out of reuse"
        );
        assert!(c.reclaim(|e| e == done));
        assert!(c.token_capacity(ids[0]) > cap);
        assert_eq!(parked_sizes(&c), [(pending, 1)]);
        assert!(c.reclaim(|_| true) && c.used_bytes() == 0);
    }

    #[test]
    fn reclaim_releases_in_park_order() {
        let (mut c, ids) = cache_with(&[("Qwen-7B", 1)]);
        let ev = events::<3>();
        for (i, tokens) in [32, 16, 48].into_iter().enumerate() {
            c.alloc(RequestId(i as u64), ids[0], tokens).unwrap();
            c.park(RequestId(i as u64), ev[i]);
        }
        c.clear_touches();
        assert!(c.reclaim(|e| e != ev[1]));
        assert_eq!(logged(&c), [(None, false, 2), (None, false, 3)]);
        assert_eq!(parked_sizes(&c), [(ev[1], 1)]);
    }

    #[test]
    fn parks_and_releases_are_logged() {
        let (mut c, ids) = cache_with(&[("Qwen-7B", 1)]);
        let [ev] = events();
        c.alloc(RequestId(1), ids[0], 32).unwrap();
        c.clear_touches();
        c.park(RequestId(1), ev);
        assert_eq!(
            logged(&c),
            [(Some(RequestId(1)), false, 2), (None, true, 2)]
        );
        c.clear_touches();
        c.reclaim(|_| true);
        assert_eq!((logged(&c), c.block_ops()), (vec![(None, false, 2)], 2));
    }

    #[test]
    fn logs_mark_their_journal_and_stop_while_it_is_off() {
        let (mut c, ids) = cache_with(&[("Qwen-7B", 1)]);
        let [a, b] = events();
        let root = Journal::default();
        c.join(root.member(4));
        c.alloc(RequestId(1), ids[0], 16).unwrap();
        c.alloc(RequestId(2), ids[0], 16).unwrap();
        root.take();
        c.park(RequestId(1), a);
        assert_eq!(root.take(), 1 << 4, "a park marks the book");
        c.reclaim(|_| false);
        assert_eq!(root.take(), 0, "a poll that releases nothing does not");
        c.reclaim(|_| true);
        assert_eq!(root.take(), 1 << 4, "a release marks the book");
        c.clear_touches();
        root.record(false);
        c.park(RequestId(2), b);
        assert!(c.reclaim(|_| true));
        assert!(!c.touched() && root.marked() == 0);
    }

    /// After each call: the holders it logged as gaining (+) or losing (-)
    /// blocks (0 for the move list), and the block allocations and frees a
    /// shadow replayed.
    #[test]
    fn every_holder_change_is_logged_and_replays_clean() {
        let (mut c, ids) = cache_with(&[("Qwen-72B", 1)]);
        let [ev] = events();
        let mut shadow = c.shadow();
        let mut step = |c: &mut KvCache, keys: &[&str], ops: usize| {
            let logged: Vec<String> = c
                .touches()
                .map(|(k, gained, _, _)| {
                    let sign = if gained { '+' } else { '-' };
                    format!("{sign}{}", k.map_or(0, |k| k.0))
                })
                .collect();
            assert_eq!(logged, keys);
            assert_eq!(c.check_touches(&mut shadow), Ok(ops));
            c.clear_touches();
        };
        c.alloc(RequestId(1), ids[0], 16).unwrap();
        step(&mut c, &["+1"], 1);
        assert!(c.alloc(RequestId(2), ids[0], 1 << 20).is_err());
        step(&mut c, &[], 0);
        c.extend(RequestId(1), 17).unwrap();
        step(&mut c, &["+1"], 1);
        c.extend(RequestId(1), 18).unwrap(); // tokens only, no new block
        step(&mut c, &[], 0);
        let _ = (c.holds(RequestId(1)), c.tokens_of(RequestId(1)), c.usage());
        let _ = (c.token_capacity(ids[0]), c.audit(), c.used_bytes());
        let _ = (c.parked().count(), c.reclaim(|_| true));
        step(&mut c, &[], 0);
        c.alloc(RequestId(2), ids[0], 16).unwrap();
        step(&mut c, &["+2"], 1);
        c.absorb(RequestId(1), RequestId(2));
        step(&mut c, &["-2", "+1"], 0);
        c.rekey(RequestId(1), RequestId(3));
        step(&mut c, &["-1", "+3"], 0);
        c.park(RequestId(3), ev);
        step(&mut c, &["-3", "+0"], 0);
        c.reclaim(|_| false); // a poll that releases nothing logs nothing
        step(&mut c, &[], 0);
        c.reclaim(|_| true);
        step(&mut c, &["-0"], 3);
        c.alloc(RequestId(4), ids[0], 16).unwrap();
        c.free(RequestId(4));
        step(&mut c, &["+4", "-4"], 2);
        assert!(!c.touched());
    }

    /// Two caches driven through the same operations list their keys in
    /// the same order, so an audit's first violation replays from the
    /// scenario alone.
    #[test]
    fn identically_driven_caches_list_keys_identically() {
        let [ev] = events();
        let drive = || {
            let (mut c, ids) = cache_with(&[("Qwen-7B", 1)]);
            for i in 0..64u64 {
                c.alloc(RequestId(i), ids[0], 16 + i as u32).unwrap();
            }
            for i in (0..64u64).step_by(3) {
                c.extend(RequestId(i), 40 + i as u32).unwrap();
            }
            for i in (0..64u64).step_by(5) {
                c.rekey(RequestId(i), RequestId(1 << 63 | i));
            }
            for i in (1..64u64).step_by(7).filter(|i| i % 5 != 0) {
                c.park(RequestId(i), ev);
            }
            c
        };
        let (a, b) = (drive(), drive());
        let keys = |c: &KvCache| c.request_ids().collect::<Vec<_>>();
        assert_eq!(keys(&a).len(), 64 - 7);
        assert_eq!(keys(&a), keys(&b));
    }

    #[test]
    fn max_batch_derives_from_capacity() {
        let (c, ids) = cache_with(&[("Qwen-7B", 1)]);
        // 8 GiB at 512 KB/token = 16384 tokens; ctx 512 → 32 requests.
        let mb = c.max_batch(ids[0], 512);
        assert_eq!(mb, 32);
    }

    #[test]
    fn exhaustion_is_reported() {
        let (mut c, ids) = cache_with(&[("Qwen-72B", 1)]);
        // 2560 KB/token: 8 GiB ≈ 3276 tokens.
        let err = c.alloc(RequestId(1), ids[0], 10_000).unwrap_err();
        assert!(err.requested > err.available);
        assert!(!c.holds(RequestId(1)));
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn double_alloc_panics() {
        let (mut c, ids) = cache_with(&[("Qwen-7B", 1)]);
        c.alloc(RequestId(1), ids[0], 16).unwrap();
        let _ = c.alloc(RequestId(1), ids[0], 16);
    }

    #[test]
    fn rekey_transfers_ownership_without_pool_traffic() {
        let (mut c, ids) = cache_with(&[("Qwen-7B", 1)]);
        c.alloc(RequestId(1), ids[0], 160).unwrap();
        let bytes = c.bytes_of(RequestId(1));
        let cap = c.token_capacity(ids[0]);
        let handle = RequestId(1 << 63 | 7);
        c.rekey(RequestId(1), handle);
        assert!(!c.holds(RequestId(1)));
        assert!(c.holds(handle));
        assert_eq!(c.bytes_of(handle), bytes);
        assert_eq!(c.tokens_of(handle), 160);
        assert_eq!(c.token_capacity(ids[0]), cap);
        assert!(c.audit().is_none());
        c.free(handle);
    }

    #[test]
    fn absorb_merges_blocks_and_tokens() {
        let (mut c, ids) = cache_with(&[("Qwen-7B", 1)]);
        c.alloc(RequestId(1), ids[0], 33).unwrap(); // 3 blocks
        c.alloc(RequestId(2), ids[0], 10).unwrap(); // 1 block
        let total = c.bytes_of(RequestId(1)) + c.bytes_of(RequestId(2));
        c.absorb(RequestId(1), RequestId(2));
        assert!(!c.holds(RequestId(2)));
        assert_eq!(c.tokens_of(RequestId(1)), 43);
        assert_eq!(c.bytes_of(RequestId(1)), total);
        assert!(c.audit().is_none());
        // Growth still works from the merged entry.
        c.extend(RequestId(1), 100).unwrap();
        assert!(c.audit().is_none());
        c.free(RequestId(1));
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "rekey target")]
    fn rekey_onto_held_key_panics() {
        let (mut c, ids) = cache_with(&[("Qwen-7B", 1)]);
        c.alloc(RequestId(1), ids[0], 16).unwrap();
        c.alloc(RequestId(2), ids[0], 16).unwrap();
        c.rekey(RequestId(1), RequestId(2));
    }
}
