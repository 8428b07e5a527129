//! Virtual time: nanosecond-resolution instants and durations.
//!
//! The simulation clock is a `u64` count of nanoseconds since simulation
//! start. Wrapping is not a concern (2^64 ns ≈ 584 years of simulated time),
//! so all arithmetic is checked in debug builds via the standard operators.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDur(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant `secs` seconds after simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(SimDur::from_secs_f64(secs).0)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }
}

impl SimDur {
    /// The empty duration.
    pub const ZERO: SimDur = SimDur(0);
    /// The greatest representable duration.
    pub const MAX: SimDur = SimDur(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDur(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDur(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDur(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDur(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDur::from_secs_f64 requires a finite non-negative value, got {secs}"
        );
        SimDur((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(other.0))
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDur> for SimTime {
    fn add_assign(&mut self, rhs: SimDur) {
        *self = *self + rhs;
    }
}

impl Sub<SimDur> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDur;
    fn sub(self, rhs: SimTime) -> SimDur {
        SimDur(self.0 - rhs.0)
    }
}

impl Add for SimDur {
    type Output = SimDur;
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDur {
    fn add_assign(&mut self, rhs: SimDur) {
        *self = *self + rhs;
    }
}

impl Sub for SimDur {
    type Output = SimDur;
    fn sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 - rhs.0)
    }
}

impl SubAssign for SimDur {
    fn sub_assign(&mut self, rhs: SimDur) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDur {
    type Output = SimDur;
    fn mul(self, rhs: u64) -> SimDur {
        SimDur(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDur {
    type Output = SimDur;
    fn mul(self, rhs: f64) -> SimDur {
        SimDur::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDur {
    type Output = SimDur;
    fn div(self, rhs: u64) -> SimDur {
        SimDur(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0 as f64 / 1e9)?;
        write!(f, "s")
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else {
            write!(f, "{:.1}us", s * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs_f64(1.5);
        let d = SimDur::from_millis(250);
        assert_eq!((t + d).as_secs_f64(), 1.75);
        assert_eq!((t + d) - t, d);
        assert_eq!(t - d, SimTime::from_secs_f64(1.25));
    }

    #[test]
    fn dur_constructors_agree() {
        assert_eq!(SimDur::from_secs(2), SimDur::from_millis(2000));
        assert_eq!(SimDur::from_millis(3), SimDur::from_micros(3000));
        assert_eq!(SimDur::from_micros(5), SimDur::from_nanos(5000));
        assert_eq!(SimDur::from_secs_f64(0.25), SimDur::from_millis(250));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = SimTime::from_secs_f64(1.0);
        let b = SimTime::from_secs_f64(2.0);
        assert_eq!(a.saturating_since(b), SimDur::ZERO);
        assert_eq!(b.saturating_since(a), SimDur::from_secs(1));
    }

    #[test]
    fn dur_scaling() {
        let d = SimDur::from_millis(100);
        assert_eq!(d * 3, SimDur::from_millis(300));
        assert_eq!(d / 2, SimDur::from_millis(50));
        assert_eq!(d * 2.5, SimDur::from_millis(250));
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_duration_panics() {
        let _ = SimDur::from_secs_f64(-1.0);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(format!("{}", SimDur::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDur::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDur::from_micros(7)), "7.0us");
    }
}
