//! # aegaeon-gateway — live serving front-end for the Aegaeon simulator
//!
//! This crate turns the discrete-event simulator into a *live* service:
//! real clients connect over HTTP/1.1, their requests are injected into an
//! open [`ServingSession`](aegaeon::session::ServingSession), and
//! generated tokens stream back as server-sent events while the simulated
//! cluster schedules, preempts, and auto-scales exactly as it does
//! offline.
//!
//! Two execution modes map simulated time onto the wall clock
//! ([`ClockMode`]):
//!
//! * **Realtime** — one simulated second per wall second; latencies feel
//!   like the real deployment the simulator models.
//! * **Timewarp(k)** — simulated time runs `k`× faster than the wall
//!   clock; a day of traffic plays out in minutes while clients still
//!   interact live.
//!
//! Determinism is preserved: every admitted request is recorded with its
//! simulated arrival stamp, and replaying that trace offline through
//! [`ServingSession::replay`](aegaeon::session::ServingSession::replay)
//! reproduces the live run fingerprint-identically. The whole stack is
//! std-only — no async runtime, no HTTP framework.

pub mod api;
pub mod client;
pub mod clock;
pub mod http;
pub mod outbuf;
pub mod poll;
pub mod ring;
pub mod server;
pub mod signal;
pub mod sse;
pub mod swarm;

pub use clock::ClockMode;
pub use server::{Gateway, GatewayConfig, GatewayReport};
