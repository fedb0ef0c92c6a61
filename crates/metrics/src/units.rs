//! Strongly-typed simulation time.
//!
//! The discrete-event engine advances a clock measured in seconds. Using
//! newtypes ([`SimTime`] for instants, [`Dur`] for spans) prevents the
//! classic bug of adding two instants or confusing milliseconds with
//! seconds: all constructors and accessors name their unit.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the simulated clock, in seconds since simulation start.
///
/// # Examples
///
/// ```
/// use sp_metrics::{Dur, SimTime};
///
/// let t = SimTime::ZERO + Dur::from_millis(250.0);
/// assert_eq!(t.as_secs(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds.
///
/// # Examples
///
/// ```
/// use sp_metrics::Dur;
///
/// let d = Dur::from_millis(3.0) + Dur::from_micros(500.0);
/// assert!((d.as_millis() - 3.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Dur(f64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant `secs` seconds after the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs(secs: f64) -> SimTime {
        assert!(secs.is_finite() && secs >= 0.0, "SimTime must be finite and non-negative");
        SimTime(secs)
    }

    /// Seconds since the epoch.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Milliseconds since the epoch.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Span from `earlier` to `self`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> Dur {
        Dur((self.0 - earlier.0).max(0.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Dur {
    /// The zero-length span.
    pub const ZERO: Dur = Dur(0.0);

    /// The longest representable span — an "effectively never" sentinel
    /// for estimates that cannot be bounded (e.g. a replica with no
    /// throughput sample). Finite, so arithmetic and `total_cmp`-based
    /// orderings stay well-behaved.
    pub const MAX: Dur = Dur(f64::MAX);

    /// Creates a span of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[inline]
    pub fn from_secs(secs: f64) -> Dur {
        assert!(secs.is_finite() && secs >= 0.0, "Dur must be finite and non-negative");
        Dur(secs)
    }

    /// Creates a span of `secs` seconds where the caller has proven
    /// `secs` finite and non-negative: the check [`Dur::from_secs`]
    /// makes runs in debug builds only. For hot loops whose operands are
    /// bounded once, ahead of the loop; everything else uses
    /// [`Dur::from_secs`].
    #[inline]
    pub fn from_secs_unchecked(secs: f64) -> Dur {
        debug_assert!(secs.is_finite() && secs >= 0.0, "Dur must be finite and non-negative");
        Dur(secs)
    }

    /// Creates a span of `ms` milliseconds.
    pub fn from_millis(ms: f64) -> Dur {
        Dur::from_secs(ms * 1e-3)
    }

    /// Creates a span of `us` microseconds.
    pub fn from_micros(us: f64) -> Dur {
        Dur::from_secs(us * 1e-6)
    }

    /// Length in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Length in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Length in microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// The longer of two spans.
    #[inline]
    pub fn max(self, other: Dur) -> Dur {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The shorter of two spans.
    pub fn min(self, other: Dur) -> Dur {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// True if this span is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Dur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Dur;
    fn sub(self, rhs: SimTime) -> Dur {
        self.since(rhs)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: f64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Div<f64> for Dur {
    type Output = Dur;
    fn div(self, rhs: f64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.1}us", self.0 * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic_roundtrips() {
        let t = SimTime::from_secs(1.5) + Dur::from_millis(500.0);
        assert_eq!(t.as_secs(), 2.0);
        assert_eq!((t - SimTime::from_secs(1.0)).as_secs(), 1.0);
    }

    #[test]
    fn since_saturates_at_zero() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.since(b), Dur::ZERO);
        assert_eq!(b.since(a).as_secs(), 1.0);
    }

    #[test]
    fn dur_sub_saturates() {
        assert_eq!(Dur::from_secs(1.0) - Dur::from_secs(2.0), Dur::ZERO);
    }

    #[test]
    fn dur_conversions_are_consistent() {
        let d = Dur::from_micros(1500.0);
        assert!((d.as_millis() - 1.5).abs() < 1e-12);
        assert!((d.as_secs() - 0.0015).abs() < 1e-15);
        assert!((d.as_micros() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn dur_sum_folds() {
        let total: Dur = (0..4).map(|_| Dur::from_millis(250.0)).sum();
        assert_eq!(total.as_secs(), 1.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Dur::from_secs(2.0).to_string(), "2.000s");
        assert_eq!(Dur::from_millis(2.0).to_string(), "2.000ms");
        assert_eq!(Dur::from_micros(2.0).to_string(), "2.0us");
    }

    #[test]
    fn min_max_order_correctly() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Dur::from_secs(1.0).max(Dur::from_secs(2.0)).as_secs(), 2.0);
        assert_eq!(Dur::from_secs(1.0).min(Dur::from_secs(2.0)).as_secs(), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }
}
