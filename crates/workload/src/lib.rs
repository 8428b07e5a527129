//! Workload generation for concurrent multi-model LLM serving.
//!
//! Reproduces the paper's workload methodology (§7.1): request lengths are
//! sampled from ShareGPT-like distributions (plus the `ix2`/`ox2` variants
//! that double input/output lengths), arrivals follow scaled Poisson
//! processes per model, and §2.2's market phenomena are modeled explicitly —
//! power-law model popularity (Figure 1a) and short-term bursts on hot
//! models (Figure 1b). The active-model-count analysis of Theorem 3.1 and
//! Figure 4 lives in [`active`].

pub mod active;
pub mod dataset;
pub mod diurnal;
pub mod popularity;
pub mod process;
pub mod request;
pub mod session;
pub mod trace;

pub use active::{active_count_series, expected_active};
pub use dataset::LengthDist;
pub use diurnal::DiurnalProcess;
pub use popularity::{head_share, zipf_weights};
pub use process::BurstProcess;
pub use request::{Request, RequestId, SessionId, SloSpec};
pub use session::{SessionBuilder, SessionWorkload};
pub use trace::{Trace, TraceBuilder};
