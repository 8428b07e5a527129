//! Top-level simulation events and fabric completion tags.

use aegaeon_gpu::FabricEvent;
use aegaeon_model::ModelId;
use aegaeon_sim::SimTime;
use aegaeon_workload::RequestId;

/// Which kind of instance a tag refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstKind {
    /// A prefill instance.
    Prefill,
    /// A decoding instance.
    Decode,
}

/// A reference to one serving instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstRef {
    /// Prefill or decode.
    pub(crate) kind: InstKind,
    /// Index within its kind.
    pub(crate) idx: u32,
}

impl InstRef {
    /// A prefill instance reference.
    pub(crate) fn prefill(idx: usize) -> InstRef {
        InstRef {
            kind: InstKind::Prefill,
            idx: idx as u32,
        }
    }

    /// A decoding instance reference.
    pub(crate) fn decode(idx: usize) -> InstRef {
        InstRef {
            kind: InstKind::Decode,
            idx: idx as u32,
        }
    }
}

/// Completion tags attached to fabric ops. A multi-GPU op completes once,
/// when its last shard does (see [`crate::runtime::FabricPort::join`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tag {
    /// A prefill job finished.
    PrefillDone {
        /// Prefill instance.
        inst: u32,
        /// The request.
        req: RequestId,
    },
    /// Every stage of a scale-up finished.
    ScaleDone {
        /// The instance.
        at: InstRef,
        /// Scaling-sequence generation (guards staleness).
        seq: u64,
    },
    /// A model prefetch landed in the VRAM prefetch region.
    PrefetchDone {
        /// The instance.
        at: InstRef,
        /// Prefetched model.
        model: ModelId,
        /// Prefetch-sequence generation.
        seq: u64,
    },
    /// The KV copies a blocked decode step waited behind drained (blocking
    /// transfers only): the step starts.
    StepStart {
        /// Decoding instance.
        inst: u32,
        /// Turn generation (guards staleness).
        turn: u64,
    },
    /// A request's KV cache finished swapping into a decoding instance.
    KvIn {
        /// Decoding instance.
        inst: u32,
        /// The request.
        req: RequestId,
    },
    /// A request's KV cache finished swapping out (accounting only; block
    /// reclamation goes through move lists).
    KvOut {
        /// The request.
        req: RequestId,
    },
    /// An intermediate hop (e.g. the NIC leg of a cross-node transfer)
    /// requiring no action.
    Noop,
}

/// Top-level simulation events.
#[derive(Debug, Clone, PartialEq)]
pub enum Ev {
    /// A GPU-fabric event (stream op done, link timer).
    Fabric(FabricEvent),
    /// Arrival of `trace.requests[idx]` at the proxy.
    Arrive(u32),
    /// A dispatched request reaches its prefill instance (after proxy
    /// latency).
    DispatchPrefill {
        /// Request index in the trace.
        idx: u32,
    },
    /// Move-list reclamation daemon tick. `gen` guards staleness: ticks
    /// stop when the system idles and restart on the next arrival with a
    /// bumped generation, so an idle-stopped tick that is still queued
    /// cannot fork a second tick stream.
    Daemon {
        /// Tick-stream generation (see [`Ev::Daemon`] docs).
        gen: u64,
    },
    /// Periodic statistics sample (same generation discipline as
    /// [`Ev::Daemon`]).
    Sample {
        /// Tick-stream generation.
        gen: u64,
    },
    /// An injected instance failure (index into the materialized fault
    /// schedule).
    Fail(u32),
    /// The proxy's status sync has detected failure `idx` (one heartbeat
    /// period later) and recovers the stranded requests.
    Failover(u32),
    /// A stepping turn's plan ends: its last planned step completes (see
    /// the system's `plan`). `seq` guards staleness: a later plan of the
    /// instance supersedes this wake.
    Wake {
        /// Decoding instance.
        inst: u32,
        /// Wake sequence number of the instance.
        seq: u64,
    },
    /// A windowed fault (link degradation, staging-buffer OOM, proxy stall)
    /// activates (index into the materialized fault schedule).
    FaultStart(u32),
    /// The windowed fault `idx` clears.
    FaultEnd(u32),
    /// A stall-deferred arrival retries dispatch (attempt count drives the
    /// proxy's exponential backoff).
    Retry {
        /// Request index in the trace.
        req: u32,
        /// Retry attempt, starting at 1.
        attempt: u32,
    },
}

impl From<FabricEvent> for Ev {
    fn from(fe: FabricEvent) -> Ev {
        Ev::Fabric(fe)
    }
}

/// One produced token, as a live session's token sink receives it.
///
/// Sinks are *observers*: after each event the session builds these from
/// the request table's progress log and the requests' states, and nothing
/// in the simulation reads them back, so streaming cannot perturb results
/// (same discipline as telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenEv {
    /// The request that produced the token.
    pub req: RequestId,
    /// Zero-based token index within the request.
    pub index: u32,
    /// Simulated production instant.
    pub at: SimTime,
    /// True when this token completes the request.
    pub done: bool,
    /// True when the request prefilled only its delta off a retained
    /// session prefix, read after the token's event (surfaced in the
    /// gateway's SSE done frame).
    pub prefix_hit: bool,
}
