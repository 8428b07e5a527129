//! Property tests for the paged KV cache over slab allocation.

use std::collections::VecDeque;

use proptest::prelude::*;

use aegaeon_engine::{KvCache, KvCacheConfig};
use aegaeon_gpu::{EventId, Fabric, FabricEvent};
use aegaeon_model::{ModelId, Zoo};
use aegaeon_sim::EventQueue;
use aegaeon_workload::RequestId;

fn cache() -> (KvCache, Vec<ModelId>) {
    let zoo = Zoo::standard();
    let mut c = KvCache::new(KvCacheConfig {
        capacity_bytes: 4 << 30,
        slab_bytes: 64 << 20,
        block_tokens: 16,
    });
    let names = ["Qwen-7B", "InternLM2.5-7B", "LLaMA-13B", "Yi-6B"];
    let ids: Vec<ModelId> = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let id = ModelId(i as u32);
            c.register_model(id, zoo.get(n).expect("zoo"));
            id
        })
        .collect();
    (c, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random alloc/extend/free/park/reclaim sequences keep accounting
    /// exact: the books balance after every op, and full release restores
    /// the initial capacity for every model.
    #[test]
    fn kv_cache_accounting_is_exact(
        ops in prop::collection::vec((0usize..4, 0u64..40, 1u32..2000), 1..100)
    ) {
        let (mut c, ids) = cache();
        let baseline: Vec<u64> = ids.iter().map(|&m| c.token_capacity(m)).collect();
        let mut live: Vec<(RequestId, ModelId)> = Vec::new();
        let mut fabric: Fabric<()> = Fabric::new();
        let (mut q, stream) = (EventQueue::<FabricEvent>::new(), fabric.add_stream("copy"));
        let mut events: Vec<EventId> = Vec::new();
        let mut next_req = 0u64;
        for (mi, action, tokens) in ops {
            let model = ids[mi];
            match action % 5 {
                0 => {
                    // Allocate a new request.
                    let req = RequestId(next_req);
                    next_req += 1;
                    if c.alloc(req, model, tokens).is_ok() {
                        live.push((req, model));
                        prop_assert!(c.holds(req));
                        prop_assert_eq!(c.tokens_of(req), tokens);
                    }
                }
                1 => {
                    // Extend the oldest live request.
                    if let Some(&(req, _)) = live.first() {
                        let cur = c.tokens_of(req);
                        let _ = c.extend(req, cur + tokens);
                        prop_assert!(c.tokens_of(req) >= cur);
                    }
                }
                2 => {
                    // Free the oldest live request.
                    if !live.is_empty() {
                        let (req, _) = live.remove(0);
                        c.free(req);
                        prop_assert!(!c.holds(req));
                        prop_assert_eq!(c.bytes_of(req), 0);
                    }
                }
                3 => {
                    // Park the oldest live request behind a fresh event.
                    if !live.is_empty() {
                        let (req, _) = live.remove(0);
                        let ev = fabric.record_event(stream, &mut q, &mut VecDeque::new());
                        events.push(ev);
                        c.park(req, ev);
                        prop_assert!(!c.holds(req));
                    }
                }
                _ => {
                    // Reclaim the batches whose event's bit is set in `tokens`.
                    let bit = |ev| events.iter().position(|&e| e == ev).unwrap() % 32;
                    let fired = |ev| tokens >> bit(ev) & 1 == 1;
                    let any = c.parked().any(|(ev, ..)| fired(ev));
                    prop_assert_eq!(c.reclaim(fired), any);
                    prop_assert!(c.parked().all(|(ev, ..)| !fired(ev)));
                }
            }
            prop_assert_eq!(c.audit(), None);
        }
        // Release everything.
        for (req, _) in live {
            c.free(req);
        }
        c.reclaim(|_| true);
        for (&m, &cap0) in ids.iter().zip(&baseline) {
            prop_assert_eq!(c.token_capacity(m), cap0, "capacity restored for {:?}", m);
        }
        // No residual fragmentation: all slabs returned.
        for u in c.usage() {
            prop_assert_eq!(u.used_bytes, 0);
            prop_assert_eq!(u.allocated_bytes, 0);
        }
    }

    /// `max_batch` is consistent with what can actually be allocated.
    #[test]
    fn max_batch_is_achievable(ctx in 16u32..1024) {
        let (mut c, ids) = cache();
        let m = ids[0];
        let cap = c.max_batch(m, ctx);
        prop_assert!(cap >= 1);
        // Allocate cap requests of ctx tokens; all must fit.
        for k in 0..cap {
            let r = RequestId(k as u64);
            prop_assert!(c.alloc(r, m, ctx).is_ok(), "request {k}/{cap} must fit");
        }
    }
}
