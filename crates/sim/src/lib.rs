//! Deterministic discrete-event simulation (DES) kernel.
//!
//! This crate provides the foundation every other Aegaeon crate builds on:
//!
//! * [`SimTime`] / [`SimDur`] — nanosecond-resolution virtual time.
//! * [`EventQueue`] — a monotonic event heap with stable FIFO tie-breaking.
//! * [`Timeline`] — the scheduling capability handed to sub-systems, plus
//!   [`Lift`] adapters that embed sub-system event enums into a top-level
//!   event enum so each crate stays independently testable.
//! * [`FairLink`] — a fair-share bandwidth resource used to model PCIe,
//!   NVLink and NIC links.
//! * [`SimRng`] — a seeded random source; one seed reproduces one trace.
//!
//! The kernel is single-threaded and fully deterministic: given the same
//! seed and the same sequence of API calls, every run produces an identical
//! event order.

pub mod bandwidth;
pub mod hash;
pub mod horizon;
pub mod queue;
pub mod rng;
pub mod stamp;
pub mod stats;
pub mod time;

pub use bandwidth::{FairLink, FlowId};
pub use hash::{FxHashMap, FxHasher};
pub use horizon::{GrantClock, GrantWindow};
pub use queue::{
    injection_channel, BinaryHeapQueue, EventQueue, InjectionPort, Injector, Lift, Timeline,
};
pub use rng::{derive_seed, SimRng};
pub use stats::Welford;
pub use time::{SimDur, SimTime};
