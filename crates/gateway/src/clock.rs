//! The sim↔wall clock driver.
//!
//! A live gateway must decide *when* to dispatch the next simulated event:
//! the clock driver maps elapsed wall time to a simulated-time target and
//! back. Two modes:
//!
//! * **Realtime** — one simulated second per wall second; token streams
//!   pace exactly as the simulation times them.
//! * **Timewarp(f)** — `f` simulated seconds per wall second (`f > 1`
//!   fast-forwards, `f < 1` slow-motions). Because stepping cadence never
//!   affects simulation outcomes (see `aegaeon::session`), timewarp runs
//!   are fingerprint-identical to realtime runs of the same arrivals.
//!
//! The driver is deliberately free of `Instant` state: callers pass the
//! elapsed wall duration, which keeps every method a pure function and the
//! whole mapping unit-testable without sleeping.

use std::time::Duration;

use aegaeon_sim::SimTime;

/// How simulated time tracks wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClockMode {
    /// 1 simulated second per wall second.
    Realtime,
    /// `factor` simulated seconds per wall second.
    Timewarp(f64),
}

/// Pure sim↔wall mapper (see module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClockDriver {
    factor: f64,
}

impl ClockDriver {
    /// Creates a driver; panics on a non-positive or non-finite factor.
    pub(crate) fn new(mode: ClockMode) -> ClockDriver {
        let factor = match mode {
            ClockMode::Realtime => 1.0,
            ClockMode::Timewarp(f) => f,
        };
        assert!(
            factor.is_finite() && factor > 0.0,
            "clock factor must be positive and finite, got {factor}"
        );
        ClockDriver { factor }
    }

    /// The simulated instant the session should have reached after
    /// `elapsed` wall time.
    pub(crate) fn sim_at(&self, elapsed: Duration) -> SimTime {
        SimTime::from_nanos((elapsed.as_nanos() as f64 * self.factor) as u64)
    }

    /// How much longer to sleep (from `elapsed` wall time) until simulated
    /// instant `sim` is due; zero when it is already due.
    pub(crate) fn delay_for(&self, sim: SimTime, elapsed: Duration) -> Duration {
        let due = Duration::from_nanos((sim.as_nanos() as f64 / self.factor) as u64);
        due.saturating_sub(elapsed)
    }
}

/// How far simulated time trails its wall target, in simulated seconds:
/// `target - t` when the earliest undispatched event `t` is at or before
/// `target` (a step stopped short of it), and 0.0 otherwise. An idle or
/// caught-up session has nothing due before the target, so time spent
/// waiting for the next event is never lag.
pub(crate) fn lag_secs(next_due: Option<SimTime>, target: SimTime) -> f64 {
    match next_due {
        Some(t) if t <= target => (target - t).as_secs_f64(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realtime_is_identity() {
        let c = ClockDriver::new(ClockMode::Realtime);
        let e = Duration::from_millis(1500);
        assert_eq!(c.sim_at(e), SimTime::from_secs_f64(1.5));
        assert_eq!(
            c.delay_for(SimTime::from_secs_f64(2.0), e),
            Duration::from_millis(500)
        );
        assert_eq!(c.delay_for(SimTime::from_secs_f64(1.0), e), Duration::ZERO);
    }

    #[test]
    fn timewarp_compresses_wall_time() {
        let c = ClockDriver::new(ClockMode::Timewarp(10.0));
        let e = Duration::from_secs(2);
        assert_eq!(c.sim_at(e), SimTime::from_secs_f64(20.0));
        // 30 simulated seconds are due 3 wall seconds in: 1 s left.
        assert_eq!(
            c.delay_for(SimTime::from_secs_f64(30.0), e),
            Duration::from_secs(1)
        );
    }

    #[test]
    fn slow_motion_stretches_wall_time() {
        let c = ClockDriver::new(ClockMode::Timewarp(0.5));
        assert_eq!(c.sim_at(Duration::from_secs(4)), SimTime::from_secs_f64(2.0));
        assert_eq!(
            c.delay_for(SimTime::from_secs_f64(3.0), Duration::from_secs(4)),
            Duration::from_secs(2)
        );
    }

    #[test]
    fn lag_is_zero_when_caught_up() {
        let target = SimTime::from_secs_f64(5.0);
        assert_eq!(lag_secs(None, target), 0.0, "quiescent: nothing due");
        assert_eq!(
            lag_secs(Some(SimTime::from_secs_f64(9.0)), target),
            0.0,
            "next event not yet due, however long ago the last one ran"
        );
        assert_eq!(lag_secs(Some(target), target), 0.0);
        let behind = lag_secs(Some(SimTime::from_secs_f64(3.0)), target);
        assert!(
            (behind - 2.0).abs() < 1e-9,
            "a truncated step trails by {behind}"
        );
    }

    #[test]
    #[should_panic(expected = "clock factor")]
    fn zero_factor_is_rejected() {
        ClockDriver::new(ClockMode::Timewarp(0.0));
    }
}
