//! The proxy layer's shared metadata store (Figure 5's "Status Sync").
//!
//! Aegaeon's proxy synchronizes request metadata and instance status with
//! the serving instances through a shared in-memory store (Redis in the
//! paper) "to ensure load balancing and fault tolerance". This module
//! models that component's cost and timing: instances publish heartbeats
//! and failure confirmations, which the store counts as writes. The proxy
//! does not read the heartbeats back; it learns of a failure after a fixed
//! detection window (missed heartbeats plus one RPC), and while the
//! metadata path is stalled it retries with RPC-paced backoff.

use aegaeon_sim::{SimDur, SimTime};

/// The shared metadata store.
#[derive(Debug, Clone)]
pub(crate) struct MetaStore {
    rpc_latency: SimDur,
    heartbeat_period: SimDur,
    /// Heartbeats missed before an instance is presumed dead.
    miss_threshold: u32,
    writes: u64,
    /// End of the current metadata-path stall window (chaos injection).
    stall_until: SimTime,
}

impl MetaStore {
    /// Creates a store; `rpc_latency` is charged per proxy access.
    pub(crate) fn new(rpc_latency: SimDur, heartbeat_period: SimDur) -> MetaStore {
        MetaStore {
            rpc_latency,
            heartbeat_period,
            miss_threshold: 2,
            writes: 0,
            stall_until: SimTime::ZERO,
        }
    }

    /// Time from an instance dying to the proxy presuming it dead:
    /// `miss_threshold` heartbeat periods plus one RPC.
    pub(crate) fn detection_latency(&self) -> SimDur {
        self.heartbeat_period * self.miss_threshold as u64 + self.rpc_latency
    }

    /// An instance publishes its heartbeat (one write).
    pub(crate) fn heartbeat(&mut self) {
        self.writes += 1;
    }

    /// An instance's failure is confirmed (one write).
    pub(crate) fn confirm_dead(&mut self) {
        self.writes += 1;
    }

    /// Opens (or extends) a stall window on the metadata path until
    /// `until`: dispatches arriving inside the window must retry with
    /// backoff instead of reading stale state.
    pub(crate) fn begin_stall(&mut self, until: SimTime) {
        self.stall_until = self.stall_until.max(until);
    }

    /// True while the metadata path is stalled at `now`.
    pub(crate) fn stalled(&self, now: SimTime) -> bool {
        now < self.stall_until
    }

    /// Retry backoff for a dispatch that found the store stalled:
    /// exponential in the attempt number, starting from one RPC latency and
    /// capped at 1024 RPCs (~0.5 s at the default 500 µs) so a long stall
    /// cannot push retries past the drain window.
    pub(crate) fn retry_backoff(&self, attempt: u32) -> SimDur {
        self.rpc_latency * (1u64 << attempt.min(10))
    }

    /// Writes so far: heartbeats plus failure confirmations (Figure 14's
    /// control-plane cost).
    pub(crate) fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn store() -> MetaStore {
        MetaStore::new(SimDur::from_micros(500), SimDur::from_secs(1))
    }

    #[test]
    fn heartbeats_and_confirmations_count_as_writes() {
        let mut m = store();
        assert_eq!(m.writes(), 0);
        m.heartbeat();
        m.heartbeat();
        m.confirm_dead();
        assert_eq!(m.writes(), 3);
    }

    #[test]
    fn detection_latency_is_two_periods_plus_rpc() {
        let m = store();
        let d = m.detection_latency().as_secs_f64();
        assert!((d - 2.0005).abs() < 1e-9, "{d}");
    }

    #[test]
    fn stall_window_extends_but_never_shrinks() {
        let mut m = store();
        assert!(!m.stalled(secs(0.0)));
        m.begin_stall(secs(5.0));
        assert!(m.stalled(secs(4.9)));
        assert!(!m.stalled(secs(5.0)), "window end is exclusive");
        m.begin_stall(secs(3.0)); // shorter overlapping stall: no-op
        assert!(m.stalled(secs(4.9)));
        m.begin_stall(secs(8.0));
        assert!(m.stalled(secs(7.9)));
    }

    #[test]
    fn retry_backoff_is_exponential_and_capped() {
        let m = store();
        let rpc = m.rpc_latency.as_secs_f64();
        assert_eq!(m.retry_backoff(1).as_secs_f64(), rpc * 2.0);
        assert_eq!(m.retry_backoff(3).as_secs_f64(), rpc * 8.0);
        let capped = m.retry_backoff(10);
        assert_eq!(m.retry_backoff(40), capped, "backoff must be capped");
        assert!(capped.as_secs_f64() < 1.0);
    }
}
