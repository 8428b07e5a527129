//! Aegaeon: token-level multi-model auto-scaling for effective GPU pooling.
//!
//! This crate implements the paper's contribution on top of the simulated
//! substrates:
//!
//! * `prefill` — Algorithm 1, the grouped FCFS prefill-phase scheduler;
//! * [`decode`] — Algorithm 2, the batched weighted-round-robin
//!   decoding-phase scheduler, with the quota equations (2)–(3) in
//!   [`quota`];
//! * [`system`] — the serving system itself: disaggregated prefill/decoding
//!   instances over a GPU cluster, the proxy dispatch path, preemptive
//!   auto-scaling with the §5 optimization levels (T0–T3), model
//!   prefetching, and §5.3's fine-grained KV-cache synchronization with
//!   move lists and a reclamation daemon;
//! * [`runtime`] — the event driver, fabric port and request telemetry
//!   that Aegaeon and the baselines share, so compared systems differ only
//!   in policy;
//! * [`unified`] — the prefill-first / decoding-first unified schedulers
//!   the paper argues against (Figure 6);
//! * [`planner`] — capacity planning used by the deployment study
//!   (Figure 18, the 1,192 → 213 GPU consolidation).
//!
//! # Examples
//!
//! ```
//! use aegaeon::{AegaeonConfig, ServingSystem};
//! use aegaeon_model::Zoo;
//! use aegaeon_sim::{SimRng, SimTime};
//! use aegaeon_workload::{LengthDist, SloSpec, TraceBuilder};
//!
//! let zoo = Zoo::standard();
//! let models = Zoo::replicate(&zoo.market_band(), 8);
//! let mut cfg = AegaeonConfig::small_testbed(2, 2);
//! cfg.seed = 7;
//! let mut rng = SimRng::seed_from_u64(1);
//! let trace = TraceBuilder::new(SimTime::from_secs_f64(60.0), LengthDist::sharegpt())
//!     .uniform_models(&mut rng, models.len() as u32, 0.05)
//!     .build(&mut rng);
//! let result = ServingSystem::run(&cfg, &models, &trace);
//! let report = result.attainment(SloSpec::paper_default());
//! assert!(report.ratio() > 0.5);
//! ```

pub mod audit;
pub mod chaos;
pub mod config;
pub mod decode;
pub mod deploy;
pub mod events;
pub mod planner;
mod prefill;
mod proxy;
pub mod quota;
pub mod reqstate;
pub mod result;
pub mod runtime;
mod scaler;
pub mod session;
pub mod sessionbook;
pub mod shard;
pub mod system;
pub mod unified;

pub use audit::{AuditReport, AuditView, Auditor, InvariantAuditor};
pub use chaos::FaultPlan;
pub use config::AegaeonConfig;
pub use events::TokenEv;
pub use quota::{decode_quotas, QuotaInputs};
pub use result::RunResult;
pub use session::{LiveRequest, ServingSession};
pub use shard::{run_sharded, ShardPlan};
pub use system::ServingSystem;
