//! Explicit memory management (§5.2 of the paper).
//!
//! Preemptive auto-scaling initializes model weights back-to-back on the same
//! GPU and stores offloaded KV cache of many different shapes in host memory.
//! Left to a general-purpose caching allocator, both cause fragmentation: the
//! paper reports multi-second garbage-collection passes on VRAM and poor host
//! caching efficiency. Aegaeon instead manages memory explicitly:
//!
//! * [`SlabPool`] — the unified KV cache: a region divided into fixed-size
//!   slabs, each dynamically assigned to one KV-cache *shape* and serving as
//!   a pool of fixed-size blocks for that shape; empty slabs return to the
//!   shared free list. Used for both the GPU and the CPU unified caches.
//!   It logs every block and slab it hands out or takes back, and a
//!   [`SlabShadow`] replays those logs to check the ledger block by block.
//! * [`ModelCache`] — the shared host-DRAM cache of raw model checkpoints
//!   with LRU eviction and pinning.
//! * [`FragSampler`] — time-averaged fragmentation accounting (Figure 16).
//! * [`Journal`] — which books' touch logs an event wrote to, so clearing
//!   and auditing the logs visits only those books.
//!
//! The self-managed VRAM weight buffer (no GC, pipelined loading) is a cost
//! model, not an allocator: `AutoscaleOpts::explicit_memory` in
//! `aegaeon_engine::init` removes the GC stage and speeds up the load.
//!
//! All sizes are simulated byte counts; no real memory is allocated. The
//! allocator logic (placement, reuse, reclamation) is the real algorithm.

pub mod frag;
pub mod journal;
pub mod model_cache;
pub mod slab;

pub use frag::FragSampler;
pub use journal::Journal;
pub use model_cache::ModelCache;
pub use slab::{BlockRef, ShapeKey, SlabPool, SlabPoolConfig, SlabShadow};
