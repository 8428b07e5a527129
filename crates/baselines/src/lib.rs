//! Baseline serving systems the paper compares against (§7.1).
//!
//! * [`serverless`] — **ServerlessLLM**: request-level auto-scaling. One
//!   model per GPU at a time, a global FCFS queue, continuous batching
//!   within a model, optimized model loading (SLLM's own contribution) —
//!   but scaling happens only when an instance fully drains, which is
//!   exactly the head-of-line blocking §3.1 analyzes.
//!   **ServerlessLLM+** is the paper's extension: the global queue is
//!   ordered by oracle output length (Shortest Job First).
//! * [`muxserve`] — **MuxServe**: static spatial multiplexing. A placement
//!   optimizer packs at most two or three models per GPU under the memory
//!   constraint; colocated models share compute with an interference
//!   penalty; unplaced models cannot be served at all.
//! * [`dedicated`] — the strawman: one reserved instance per model
//!   (the production "before" of Figure 18).
//!
//! All baselines run on the same simulated fabric, latency models and
//! workloads as Aegaeon, so comparisons isolate the scheduling/scaling
//! policies.

pub mod dedicated;
pub mod engine_loop;
pub mod muxserve;
pub mod serverless;

pub use dedicated::Dedicated;
pub use muxserve::MuxServe;
pub use serverless::{ServerlessLlm, SllmConfig};
