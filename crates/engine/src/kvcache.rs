//! Paged KV cache over the slab-allocated unified cache.
//!
//! Both the per-GPU unified KV cache and the node-wide unified CPU cache
//! (Figure 9) are instances of [`KvCache`]: a [`aegaeon_mem::SlabPool`]
//! whose shape classes are KV-cache block shapes, plus per-request block
//! lists. Models sharing a KV shape share slab pools, which is what keeps
//! fragmentation proportional (Figure 16).

use std::collections::HashMap;

use aegaeon_mem::{BlockRef, ShapeKey, SlabPool, SlabPoolConfig};
use aegaeon_mem::slab::{ShapeUsage, SlabExhausted};
use aegaeon_model::{ModelId, ModelSpec};
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
    by_block_bytes: HashMap<u64, ShapeKey>,
    /// Registered models → their shape class.
    models: HashMap<ModelId, ShapeKey>,
    requests: HashMap<RequestId, ReqKv>,
    /// Mutation epoch (see [`Self::epoch`]).
    epoch: u64,
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
            by_block_bytes: HashMap::new(),
            models: HashMap::new(),
            requests: HashMap::new(),
            epoch: 0,
        }
    }

    /// Mutation epoch: bumped by every call that changes the pool or the
    /// per-request holdings (registration, allocation, growth, frees,
    /// re-keying, merging, taking blocks out), never by queries or by a
    /// failed allocation, which leaves the cache unchanged. An unchanged
    /// epoch therefore means an unchanged [`Self::audit`] verdict.
    pub fn epoch(&self) -> u64 {
        self.epoch
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
        self.epoch += 1;
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
        self.requests.insert(
            req,
            ReqKv {
                shape,
                blocks,
                tokens,
            },
        );
        self.epoch += 1;
        Ok(())
    }

    /// Grows a request's KV to `new_tokens` total, allocating blocks as
    /// needed. Returns the number of fresh blocks.
    ///
    /// # Panics
    ///
    /// Panics if the request holds no KV or shrinks.
    pub fn extend(&mut self, req: RequestId, new_tokens: u32) -> Result<usize, SlabExhausted> {
        let r = self.requests.get(&req).expect("request holds KV");
        assert!(new_tokens >= r.tokens, "KV cannot shrink");
        let need = self.blocks_for(new_tokens);
        let have = r.blocks.len();
        let grow = need.saturating_sub(have);
        if grow > 0 {
            let shape = r.shape;
            let fresh = self.pool.alloc(shape, grow)?;
            let r = self.requests.get_mut(&req).expect("still present");
            r.blocks.extend(fresh);
            r.tokens = new_tokens;
        } else {
            self.requests.get_mut(&req).expect("still present").tokens = new_tokens;
        }
        self.epoch += 1;
        Ok(grow)
    }

    /// Frees a request's KV back to the pool immediately.
    ///
    /// # Panics
    ///
    /// Panics if the request holds no KV.
    pub fn free(&mut self, req: RequestId) {
        let r = self.requests.remove(&req).expect("request holds KV");
        self.pool.free(r.shape, &r.blocks);
        self.epoch += 1;
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
        self.requests.insert(new, r);
        self.epoch += 1;
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
        let d = self.requests.get_mut(&dst).expect("absorb target holds KV");
        assert_eq!(d.shape, s.shape, "absorb across KV shapes");
        d.blocks.extend(s.blocks);
        d.tokens += s.tokens;
        self.epoch += 1;
    }

    /// Removes a request's KV *without* freeing the blocks — the caller
    /// parks them in a move list (§5.3 rule ❸) and frees them later via
    /// [`Self::free_blocks`].
    pub fn take(&mut self, req: RequestId) -> (ShapeKey, Vec<BlockRef>) {
        let r = self.requests.remove(&req).expect("request holds KV");
        self.epoch += 1;
        (r.shape, r.blocks)
    }

    /// Frees blocks previously returned by [`Self::take`].
    pub fn free_blocks(&mut self, shape: ShapeKey, blocks: &[BlockRef]) {
        self.pool.free(shape, blocks);
        self.epoch += 1;
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

    /// Every key currently holding KV, in unspecified order (audit use;
    /// callers wanting determinism must sort).
    pub fn request_ids(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.requests.keys().copied()
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
    /// every request's block list plus the blocks the caller has
    /// [`Self::take`]n out into move lists (`parked`, one entry per parked
    /// batch): together they must hold exactly the blocks the pool counts as
    /// used, each once.
    pub fn audit<'a>(
        &'a self,
        parked: impl IntoIterator<Item = (ShapeKey, &'a [BlockRef])>,
    ) -> Option<String> {
        let held = self
            .requests
            .values()
            .map(|r| (r.shape, r.blocks.as_slice()));
        self.pool.audit(held.chain(parked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegaeon_model::Zoo;

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
    fn take_then_free_blocks_round_trips() {
        let (mut c, ids) = cache_with(&[("LLaMA-13B", 1)]);
        c.alloc(RequestId(1), ids[0], 160).unwrap();
        let before = c.token_capacity(ids[0]);
        let (shape, blocks) = c.take(RequestId(1));
        assert!(!c.holds(RequestId(1)));
        // Capacity unchanged while blocks are parked.
        assert_eq!(c.token_capacity(ids[0]), before);
        c.free_blocks(shape, &blocks);
        assert!(c.token_capacity(ids[0]) > before);
    }

    #[test]
    fn parked_blocks_balance_the_books_until_freed() {
        let (mut c, ids) = cache_with(&[("Qwen-7B", 1)]);
        c.alloc(RequestId(1), ids[0], 40).unwrap();
        c.alloc(RequestId(2), ids[0], 40).unwrap();
        let (shape, blocks) = c.take(RequestId(1));
        assert!(c.audit([(shape, &blocks[..])]).is_none());
        let leak = c.audit([]).expect("parked blocks missing from the ledger");
        assert!(leak.contains("holders hold"), "{leak}");
        c.free_blocks(shape, &blocks);
        assert!(c.audit([]).is_none());
    }

    #[test]
    fn every_mutation_and_only_mutations_move_the_epoch() {
        let (mut c, ids) = cache_with(&[("Qwen-72B", 1)]);
        let mut last = c.epoch();
        let mut step = |c: &KvCache, moved: bool| {
            assert_eq!(c.epoch() != last, moved, "epoch {} after {last}", c.epoch());
            last = c.epoch();
        };
        c.alloc(RequestId(1), ids[0], 16).unwrap();
        step(&c, true);
        assert!(c.alloc(RequestId(2), ids[0], 1 << 20).is_err());
        step(&c, false);
        c.extend(RequestId(1), 17).unwrap();
        step(&c, true);
        c.extend(RequestId(1), 18).unwrap(); // tokens only, no new block
        step(&c, true);
        let _ = (c.holds(RequestId(1)), c.tokens_of(RequestId(1)), c.usage());
        let _ = (c.token_capacity(ids[0]), c.audit([]), c.used_bytes());
        step(&c, false);
        c.alloc(RequestId(2), ids[0], 16).unwrap();
        step(&c, true);
        c.absorb(RequestId(1), RequestId(2));
        step(&c, true);
        c.rekey(RequestId(1), RequestId(3));
        step(&c, true);
        let (shape, blocks) = c.take(RequestId(3));
        step(&c, true);
        c.free_blocks(shape, &blocks);
        step(&c, true);
        c.alloc(RequestId(4), ids[0], 16).unwrap();
        step(&c, true);
        c.free(RequestId(4));
        step(&c, true);
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
        assert!(c.audit([]).is_none());
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
        assert!(c.audit([]).is_none());
        // Growth still works from the merged entry.
        c.extend(RequestId(1), 100).unwrap();
        assert!(c.audit([]).is_none());
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
