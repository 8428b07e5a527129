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

use aegaeon_model::ModelId;
use aegaeon_sim::{FxHashMap, SimDur, SimTime};

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

/// Gateway admission-control policy: per-model and total in-flight quotas.
///
/// Zero means unlimited for either bound. `retry_after_secs` is the hint
/// returned with a 429 so well-behaved clients back off.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Maximum in-flight requests per model (0 = unlimited).
    pub(crate) max_inflight_per_model: u32,
    /// Maximum in-flight requests across all models (0 = unlimited).
    pub max_inflight_total: u32,
    /// `Retry-After` hint attached to rejections, in seconds.
    pub(crate) retry_after_secs: u32,
}

impl AdmissionPolicy {
    /// A permissive default: no per-model bound, 1024 total, 1 s backoff.
    pub fn default_gateway() -> AdmissionPolicy {
        AdmissionPolicy {
            max_inflight_per_model: 0,
            max_inflight_total: 1024,
            retry_after_secs: 1,
        }
    }
}

/// The gateway's admission gate: counts in-flight requests against an
/// [`AdmissionPolicy`].
#[derive(Debug, Clone)]
pub struct Admission {
    policy: AdmissionPolicy,
    inflight_total: u32,
    inflight: FxHashMap<ModelId, u32>,
}

impl Admission {
    /// An empty gate under `policy`.
    pub fn new(policy: AdmissionPolicy) -> Admission {
        Admission {
            policy,
            inflight_total: 0,
            inflight: FxHashMap::default(),
        }
    }

    /// Tries to admit one request for `model`. On success the request is
    /// counted in-flight until [`Admission::release`]; on rejection the
    /// `Retry-After` hint (seconds) is returned.
    pub fn try_admit(&mut self, model: ModelId) -> Result<(), u32> {
        let per_model = self.policy.max_inflight_per_model;
        let total = self.policy.max_inflight_total;
        let cur = self.inflight.get(&model).copied().unwrap_or(0);
        let over_model = per_model > 0 && cur >= per_model;
        let over_total = total > 0 && self.inflight_total >= total;
        if over_model || over_total {
            return Err(self.policy.retry_after_secs);
        }
        self.inflight.insert(model, cur + 1);
        self.inflight_total += 1;
        Ok(())
    }

    /// Releases one in-flight slot for `model` (stream finished or client
    /// hung up).
    pub fn release(&mut self, model: ModelId) {
        if let Some(c) = self.inflight.get_mut(&model) {
            if *c > 0 {
                *c -= 1;
                self.inflight_total -= 1;
            }
        }
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

    #[test]
    fn admission_enforces_per_model_quota() {
        let mut a = Admission::new(AdmissionPolicy {
            max_inflight_per_model: 2,
            max_inflight_total: 0,
            retry_after_secs: 3,
        });
        let m0 = ModelId(0);
        let m1 = ModelId(1);
        assert!(a.try_admit(m0).is_ok());
        assert!(a.try_admit(m0).is_ok());
        assert_eq!(a.try_admit(m0), Err(3), "third in-flight for m0 refused");
        assert!(a.try_admit(m1).is_ok(), "other models unaffected");
        a.release(m0);
        assert!(a.try_admit(m0).is_ok(), "released slot is reusable");
    }

    #[test]
    fn admission_enforces_total_quota() {
        let mut a = Admission::new(AdmissionPolicy {
            max_inflight_per_model: 0,
            max_inflight_total: 3,
            retry_after_secs: 1,
        });
        for i in 0..3 {
            assert!(a.try_admit(ModelId(i)).is_ok());
        }
        assert_eq!(a.inflight_total, 3);
        assert_eq!(a.try_admit(ModelId(9)), Err(1));
        a.release(ModelId(1));
        assert!(a.try_admit(ModelId(9)).is_ok());
    }

    #[test]
    fn admission_zero_quotas_mean_unlimited() {
        let mut a = Admission::new(AdmissionPolicy {
            max_inflight_per_model: 0,
            max_inflight_total: 0,
            retry_after_secs: 1,
        });
        for i in 0..10_000u32 {
            assert!(a.try_admit(ModelId(i % 7)).is_ok());
        }
    }

    #[test]
    fn release_without_admit_is_a_noop() {
        let mut a = Admission::new(AdmissionPolicy::default_gateway());
        a.release(ModelId(0));
        assert_eq!(a.inflight_total, 0);
    }

    #[test]
    fn default_gateway_bounds_only_the_total() {
        let mut a = Admission::new(AdmissionPolicy::default_gateway());
        for _ in 0..1024 {
            assert!(a.try_admit(ModelId(0)).is_ok(), "no per-model bound");
        }
        assert_eq!(a.try_admit(ModelId(1)), Err(1), "1 s Retry-After hint");
        a.release(ModelId(0));
        assert!(a.try_admit(ModelId(1)).is_ok());
    }
}
