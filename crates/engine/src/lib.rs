//! Simulated LLM inference engine.
//!
//! Provides the three ingredients the serving systems consume:
//!
//! * [`latency`] — the ground-truth step-time model: roofline-derived
//!   (compute-bound prefill, bandwidth-bound decode, TP collective
//!   overhead) with multiplicative noise. This is what the simulation
//!   charges for each token-generation job.
//! * [`analytical`] — the Appendix A.2 *estimator*: Equations (5)/(6)
//!   fitted to profiled samples by linear least squares, plus the Eq. (4)
//!   switch-time estimate. Schedulers use the estimator, never the ground
//!   truth, so estimation error is part of the reproduction. The fit's R²
//!   is reported like the paper's (> 0.9).
//! * [`init`] — the engine (re)initialization stage machine of Figure 7,
//!   with the §5.1/§5.2 optimization flags that remove or shrink stages
//!   (component reuse, explicit memory management, prefetching).
//! * [`kvcache`] — a paged KV cache over the slab-allocated unified cache,
//!   tracking per-request block lists on GPU or in host DRAM.

pub mod analytical;
pub mod init;
pub mod kvcache;
pub mod latency;

pub use analytical::{fit_model, FittedModel, FIT_DRAWS};
pub use init::{scale_up_plan, AutoscaleOpts, ScaleCost, ScaleStage, StageKind};
pub use kvcache::{KvCache, KvCacheConfig};
pub use latency::PerfModel;
