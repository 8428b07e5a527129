//! Fair-share bandwidth links.
//!
//! Models an interconnect channel (one direction of a PCIe link, an NVLink
//! lane, a NIC) shared by concurrent transfers: `n` in-flight flows each
//! progress at `bandwidth / n`. Rates only change when a flow starts,
//! finishes or is cancelled, so settling progress at exactly those points
//! makes the piecewise-constant model exact.
//!
//! The link is event-agnostic: after every mutation the owner must call
//! [`FairLink::deadline`] and schedule a timer for the returned instant,
//! tagging it with the returned generation. When the timer fires, the owner
//! calls [`FairLink::expire`]; a stale generation is ignored.
//!
//! # Examples
//!
//! ```
//! use aegaeon_sim::{FairLink, SimTime};
//!
//! let mut link = FairLink::new("pcie-h2d", 32e9); // 32 GB/s
//! let t0 = SimTime::ZERO;
//! let f = link.start_flow(t0, 32_000_000_000); // 32 GB
//! let (eta, gen) = link.deadline(t0).unwrap();
//! assert!((eta.as_secs_f64() - 1.0).abs() < 1e-6);
//! let done = link.expire(eta, gen).unwrap();
//! assert_eq!(done, vec![f]);
//! ```

use crate::stamp::Stamp;
use crate::time::{SimDur, SimTime};

/// Identifies one in-flight transfer on a [`FairLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

#[derive(Debug)]
struct Flow {
    id: FlowId,
    bytes_left: f64,
}

/// A full-speed, fair-share bandwidth channel.
#[derive(Debug)]
pub struct FairLink {
    name: String,
    bw: f64,
    nominal_bw: f64,
    flows: Vec<Flow>,
    last_settle: SimTime,
    stamp: Stamp,
    next_flow: u64,
    started: f64,
    delivered: f64,
    busy: SimDur,
}

/// Sub-byte slack tolerated when deciding that a flow has completed.
const EPS_BYTES: f64 = 1e-3;

impl FairLink {
    /// Creates a link with `bandwidth_bytes_per_sec` capacity.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not strictly positive.
    pub fn new(name: impl Into<String>, bandwidth_bytes_per_sec: f64) -> Self {
        assert!(
            bandwidth_bytes_per_sec > 0.0,
            "link bandwidth must be positive"
        );
        FairLink {
            name: name.into(),
            bw: bandwidth_bytes_per_sec,
            nominal_bw: bandwidth_bytes_per_sec,
            flows: Vec::new(),
            last_settle: SimTime::ZERO,
            stamp: Stamp::new(),
            next_flow: 0,
            started: 0.0,
            delivered: 0.0,
            busy: SimDur::ZERO,
        }
    }

    /// The link's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current (possibly degraded) bandwidth in bytes per second.
    pub fn bandwidth(&self) -> f64 {
        self.bw
    }

    /// Full-speed bandwidth as configured at construction time.
    pub fn nominal_bandwidth(&self) -> f64 {
        self.nominal_bw
    }

    /// Changes the link's effective bandwidth at `now` (fault injection:
    /// transient degradation and recovery).
    ///
    /// Progress up to `now` is settled at the old rate first, so the
    /// piecewise-constant model stays exact. The caller owns timer refresh:
    /// it must call [`Self::deadline`] afterwards so the completion timer is
    /// reissued at the new rate (any previously scheduled timer becomes
    /// stale via the generation stamp).
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not strictly positive.
    pub fn set_bandwidth(&mut self, now: SimTime, bandwidth_bytes_per_sec: f64) {
        assert!(
            bandwidth_bytes_per_sec > 0.0,
            "link bandwidth must be positive"
        );
        self.settle(now);
        self.bw = bandwidth_bytes_per_sec;
    }

    /// Restores the link to its full construction-time bandwidth at `now`.
    ///
    /// Same timer-refresh contract as [`Self::set_bandwidth`].
    pub fn restore_bandwidth(&mut self, now: SimTime) {
        self.settle(now);
        self.bw = self.nominal_bw;
    }

    /// Number of in-flight flows.
    pub fn in_flight(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes fully delivered so far.
    pub fn bytes_delivered(&self) -> f64 {
        self.delivered
    }

    /// Total bytes accepted by [`Self::start_flow`] so far, minus bytes that
    /// left with a cancelled flow. Conserved quantity: at any settle point,
    /// `bytes_started == bytes_delivered + Σ bytes_remaining`.
    pub fn bytes_started(&self) -> f64 {
        self.started
    }

    /// Sum of bytes still pending across all in-flight flows.
    pub fn bytes_in_flight(&self) -> f64 {
        self.flows.iter().map(|f| f.bytes_left.max(0.0)).sum()
    }

    /// Checks the link's conservation invariants; returns a description of
    /// the first violation, or `None` when the books balance.
    ///
    /// Invariants: delivered + in-flight bytes equal accepted bytes (within
    /// float slack scaled to the traffic volume), and delivered bytes never
    /// exceed what the nominal bandwidth could move in the accumulated busy
    /// time.
    pub fn audit(&self) -> Option<String> {
        let accounted = self.delivered + self.bytes_in_flight();
        let slack = 1.0 + self.started * 1e-9;
        if (accounted - self.started).abs() > slack {
            return Some(format!(
                "link {}: started {} bytes but delivered+pending = {}",
                self.name, self.started, accounted
            ));
        }
        // Degradation only lowers throughput, so nominal bandwidth bounds it.
        let max_deliverable = self.nominal_bw * self.busy.as_secs_f64();
        if self.delivered > max_deliverable + slack {
            return Some(format!(
                "link {}: delivered {} bytes exceeds capacity {} over busy time {}",
                self.name,
                self.delivered,
                max_deliverable,
                self.busy.as_secs_f64()
            ));
        }
        None
    }

    /// Accumulated time during which at least one flow was active.
    pub fn busy_time(&self) -> SimDur {
        self.busy
    }

    /// Starts a transfer of `bytes` at time `now` and returns its id.
    ///
    /// The caller must refresh its completion timer via [`Self::deadline`].
    pub fn start_flow(&mut self, now: SimTime, bytes: u64) -> FlowId {
        self.settle(now);
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        let bytes = (bytes.max(1)) as f64;
        self.started += bytes;
        self.flows.push(Flow {
            id,
            bytes_left: bytes,
        });
        id
    }

    /// Aborts an in-flight transfer; returns true if it was present.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> bool {
        self.settle(now);
        let before = self.flows.len();
        let mut dropped = 0.0;
        self.flows.retain(|f| {
            if f.id == id {
                dropped += f.bytes_left.max(0.0);
                false
            } else {
                true
            }
        });
        self.started -= dropped;
        self.flows.len() != before
    }

    /// Bytes still pending for `id`, if the flow is in flight.
    pub fn bytes_remaining(&self, id: FlowId) -> Option<u64> {
        self.flows
            .iter()
            .find(|f| f.id == id)
            .map(|f| f.bytes_left.max(0.0).round() as u64)
    }

    /// The instant at which the earliest in-flight flow completes, plus the
    /// generation with which the corresponding timer must be tagged.
    ///
    /// Every call invalidates previously issued generations, so only the
    /// most recent timer is live.
    pub fn deadline(&mut self, now: SimTime) -> Option<(SimTime, u64)> {
        self.settle(now);
        let gen = self.stamp.bump();
        if self.flows.is_empty() {
            return None;
        }
        let rate = self.bw / self.flows.len() as f64;
        let min_left = self
            .flows
            .iter()
            .map(|f| f.bytes_left)
            .fold(f64::INFINITY, f64::min);
        // Ceil to the next nanosecond so that `expire` always finds at least
        // one flow at (or below) zero bytes, guaranteeing progress.
        let dt_ns = ((min_left.max(0.0) / rate) * 1e9).ceil() as u64;
        Some((now + SimDur::from_nanos(dt_ns), gen))
    }

    /// Handles a completion timer with generation `gen` firing at `now`.
    ///
    /// Returns `Some(flows that finished)` for a live timer; the caller must
    /// then refresh its timer via [`Self::deadline`]. Returns `None` for a
    /// stale generation, in which case the link is untouched and the caller
    /// must *not* refresh (a live timer is already pending).
    pub fn expire(&mut self, now: SimTime, gen: u64) -> Option<Vec<FlowId>> {
        if !self.stamp.is_current(gen) {
            return None;
        }
        self.settle(now);
        let mut done = Vec::new();
        let mut residue = 0.0;
        self.flows.retain(|f| {
            if f.bytes_left <= EPS_BYTES {
                done.push(f.id);
                residue += f.bytes_left.max(0.0);
                false
            } else {
                true
            }
        });
        // Count the sub-byte completion slack as delivered so the
        // conservation books stay exact across many flows.
        self.delivered += residue;
        Some(done)
    }

    /// Advances all in-flight flows to `now` at the current fair-share rate.
    fn settle(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_settle);
        self.last_settle = self.last_settle.max(now);
        if dt.is_zero() || self.flows.is_empty() {
            return;
        }
        self.busy += dt;
        let rate = self.bw / self.flows.len() as f64;
        let progressed = rate * dt.as_secs_f64();
        for f in &mut self.flows {
            let p = progressed.min(f.bytes_left);
            f.bytes_left -= p;
            self.delivered += p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(link: &mut FairLink, mut now: SimTime) -> Vec<(SimTime, FlowId)> {
        let mut out = Vec::new();
        while let Some((eta, gen)) = link.deadline(now) {
            now = eta;
            for id in link.expire(now, gen).expect("freshly issued generation") {
                out.push((now, id));
            }
        }
        out
    }

    #[test]
    fn solo_flow_takes_bytes_over_bandwidth() {
        let mut link = FairLink::new("l", 1e9);
        let f = link.start_flow(SimTime::ZERO, 500_000_000);
        let done = drain(&mut link, SimTime::ZERO);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, f);
        assert!((done[0].0.as_secs_f64() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn two_equal_flows_share_fairly() {
        let mut link = FairLink::new("l", 1e9);
        link.start_flow(SimTime::ZERO, 1_000_000_000);
        link.start_flow(SimTime::ZERO, 1_000_000_000);
        let done = drain(&mut link, SimTime::ZERO);
        // Each gets 0.5 GB/s, so both finish at t = 2 s.
        assert_eq!(done.len(), 2);
        for (t, _) in &done {
            assert!((t.as_secs_f64() - 2.0).abs() < 1e-6, "finished at {t}");
        }
    }

    #[test]
    fn late_joiner_slows_first_flow() {
        let mut link = FairLink::new("l", 1e9);
        // Flow A: 1 GB at t=0. Alone until t=0.5 (0.5 GB done), then shares.
        link.start_flow(SimTime::ZERO, 1_000_000_000);
        let t_half = SimTime::from_secs_f64(0.5);
        link.start_flow(t_half, 250_000_000);
        // From t=0.5: A has 0.5 GB left at 0.5 GB/s; B has 0.25 GB at 0.5 GB/s.
        // B finishes at t=1.0; then A has 0.25 GB left at full rate -> t=1.25.
        let done = drain(&mut link, t_half);
        assert_eq!(done.len(), 2);
        assert!((done[0].0.as_secs_f64() - 1.0).abs() < 1e-6);
        assert!((done[1].0.as_secs_f64() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn cancel_removes_flow_and_speeds_up_rest() {
        let mut link = FairLink::new("l", 1e9);
        let a = link.start_flow(SimTime::ZERO, 1_000_000_000);
        let _b = link.start_flow(SimTime::ZERO, 1_000_000_000);
        let t = SimTime::from_secs_f64(0.5); // each has 0.75 GB left
        assert!(link.cancel_flow(t, a));
        assert!(!link.cancel_flow(t, a));
        let done = drain(&mut link, t);
        assert_eq!(done.len(), 1);
        // b: 0.75 GB left at full 1 GB/s from t=0.5 -> 1.25 s.
        assert!((done[0].0.as_secs_f64() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn stale_generation_is_ignored() {
        let mut link = FairLink::new("l", 1e9);
        link.start_flow(SimTime::ZERO, 1_000_000_000);
        let (eta1, gen1) = link.deadline(SimTime::ZERO).unwrap();
        // A second flow invalidates the first timer.
        link.start_flow(SimTime::from_secs_f64(0.1), 1_000_000_000);
        let (_, _gen2) = link.deadline(SimTime::from_secs_f64(0.1)).unwrap();
        assert_eq!(link.expire(eta1, gen1), None);
        assert_eq!(link.in_flight(), 2);
    }

    #[test]
    fn conservation_of_bytes() {
        let mut link = FairLink::new("l", 7.5e8);
        let mut now = SimTime::ZERO;
        let mut total = 0u64;
        for i in 0..20u64 {
            let bytes = (i + 1) * 10_000_000;
            total += bytes;
            link.start_flow(now, bytes);
            now += SimDur::from_millis(13);
        }
        let done = drain(&mut link, now);
        assert_eq!(done.len(), 20);
        assert!(
            (link.bytes_delivered() - total as f64).abs() < 1.0,
            "delivered {} expected {}",
            link.bytes_delivered(),
            total
        );
        // Total time must be at least total/bw.
        let t_min = total as f64 / link.bandwidth();
        let t_end = done.last().unwrap().0.as_secs_f64();
        assert!(t_end >= t_min - 1e-6);
    }

    #[test]
    fn busy_time_tracks_occupancy() {
        let mut link = FairLink::new("l", 1e9);
        link.start_flow(SimTime::ZERO, 1_000_000_000);
        let done = drain(&mut link, SimTime::ZERO);
        let end = done[0].0;
        assert_eq!(link.busy_time().as_secs_f64(), end.as_secs_f64());
    }

    #[test]
    fn degradation_slows_and_restore_recovers() {
        let mut link = FairLink::new("l", 1e9);
        link.start_flow(SimTime::ZERO, 1_000_000_000);
        // Halve the bandwidth at t=0.5 (0.5 GB already done).
        let t_half = SimTime::from_secs_f64(0.5);
        link.set_bandwidth(t_half, 5e8);
        assert_eq!(link.bandwidth(), 5e8);
        assert_eq!(link.nominal_bandwidth(), 1e9);
        // Restore at t=1.0: 0.25 GB moved during the degraded window.
        let t_one = SimTime::from_secs_f64(1.0);
        link.restore_bandwidth(t_one);
        // Remaining 0.25 GB at full rate -> finishes at t=1.25.
        let done = drain(&mut link, t_one);
        assert_eq!(done.len(), 1);
        assert!((done[0].0.as_secs_f64() - 1.25).abs() < 1e-6);
        assert!(link.audit().is_none(), "{:?}", link.audit());
    }

    #[test]
    fn degradation_reissues_deadline_generation() {
        let mut link = FairLink::new("l", 1e9);
        link.start_flow(SimTime::ZERO, 1_000_000_000);
        let (eta1, gen1) = link.deadline(SimTime::ZERO).unwrap();
        assert!((eta1.as_secs_f64() - 1.0).abs() < 1e-6);
        let t = SimTime::from_secs_f64(0.5);
        link.set_bandwidth(t, 2.5e8);
        let (eta2, gen2) = link.deadline(t).unwrap();
        // Old timer is stale; the new one reflects the degraded rate.
        assert_eq!(link.expire(eta1, gen1), None);
        assert!((eta2.as_secs_f64() - 2.5).abs() < 1e-6);
        let done = link.expire(eta2, gen2).unwrap();
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn audit_balances_with_cancels_and_degradation() {
        let mut link = FairLink::new("l", 2e9);
        let mut now = SimTime::ZERO;
        let mut ids = Vec::new();
        for i in 0..12u64 {
            ids.push(link.start_flow(now, (i + 1) * 5_000_000));
            now += SimDur::from_millis(7);
            if i % 3 == 0 {
                link.set_bandwidth(now, 2e9 / (1.0 + i as f64));
            }
            if i % 4 == 2 {
                link.cancel_flow(now, ids[i as usize / 2]);
            }
            assert!(link.audit().is_none(), "{:?}", link.audit());
        }
        link.restore_bandwidth(now);
        drain(&mut link, now);
        assert!(link.audit().is_none(), "{:?}", link.audit());
        assert!(link.bytes_in_flight() == 0.0);
        assert!((link.bytes_delivered() - link.bytes_started()).abs() < 1.0);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut link = FairLink::new("l", 1e9);
        link.start_flow(SimTime::ZERO, 0);
        let done = drain(&mut link, SimTime::ZERO);
        assert_eq!(done.len(), 1);
        assert!(done[0].0.as_secs_f64() < 1e-6);
    }
}
