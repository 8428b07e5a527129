//! LLM model descriptions for the Aegaeon reproduction.
//!
//! This crate is the single source of truth for model hyper-parameters,
//! weight sizes and KV-cache geometry. The KV-cache shape and per-token size
//! computations reproduce Table 1 of the paper exactly (asserted by tests),
//! because the §5.2 unified KV cache design — slab allocation keyed by cache
//! *shape* — depends on those shapes differing across models.

pub mod kv;
pub mod spec;
pub mod zoo;

pub use spec::{ModelId, ModelSpec};
pub use zoo::Zoo;
