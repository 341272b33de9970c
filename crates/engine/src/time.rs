//! Simulated time and clock domains.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in (or duration of) simulated time, in picoseconds.
///
/// Picoseconds give sub-cycle resolution for every clock domain in the paper's
/// Table 2 (2.9 GHz CPUs ≈ 345 ps/cycle, 600 MHz MTTOPs ≈ 1667 ps/cycle) while
/// still covering ~213 days of simulated time in a `u64`.
///
/// # Examples
///
/// ```
/// use ccsvm_engine::Time;
/// let t = Time::from_ns(100);
/// assert_eq!(t.as_ps(), 100_000);
/// assert_eq!((t + t).as_ns(), 200.0);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(u64);

impl Time {
    /// The zero instant / zero duration.
    pub const ZERO: Time = Time(0);
    /// The maximum representable time; useful as an "infinite" horizon.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Time {
        Time(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Time {
        Time(ms * 1_000_000_000)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time expressed in nanoseconds (lossy).
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time expressed in microseconds (lossy).
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time expressed in milliseconds (lossy).
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This time expressed in seconds (lossy).
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction; returns [`Time::ZERO`] on underflow.
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// The larger of `self` and `other`.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of `self` and `other`.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Addition with an overflow debug-assert (mirroring the multiply
    /// assert in the machine's `times()` helper): a wrapping sum of two
    /// in-range times means a mis-configured cost somewhere, and silently
    /// saturating would warp simulated time. Release builds saturate.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the sum overflows `u64` picoseconds.
    #[inline]
    pub fn plus(self, rhs: Time) -> Time {
        let sum = self.0.checked_add(rhs.0);
        debug_assert!(
            sum.is_some(),
            "time addition overflowed: {self:?} + {rhs:?}"
        );
        Time(sum.unwrap_or(u64::MAX))
    }
}

ccsvm_snap::codec!(struct Time(u64));

impl Add for Time {
    type Output = Time;
    /// # Panics
    ///
    /// Panics in debug builds if the sum overflows; see [`Time::plus`].
    #[inline]
    fn add(self, rhs: Time) -> Time {
        self.plus(rhs)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`; use
    /// [`Time::saturating_sub`] when underflow is expected.
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        debug_assert!(rhs.0 <= self.0, "time underflow: {self:?} - {rhs:?}");
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        *self = *self - rhs;
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms())
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us())
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns())
        } else {
            write!(f, "{ps}ps")
        }
    }
}

/// A clock domain: converts cycle counts into [`Time`] durations.
///
/// # Examples
///
/// ```
/// use ccsvm_engine::Clock;
/// let mttop = Clock::from_mhz(600.0);
/// assert_eq!(mttop.cycles(3).as_ps(), 5001); // 1667 ps/cycle
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Clock {
    period_ps: u64,
}

impl Clock {
    /// Creates a clock from a frequency in hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not a positive, finite frequency representable with a
    /// picosecond-or-longer period.
    pub fn from_hz(hz: f64) -> Clock {
        assert!(hz.is_finite() && hz > 0.0, "invalid clock frequency {hz}");
        let period = (1e12 / hz).round();
        assert!(period >= 1.0, "frequency {hz} Hz exceeds 1 THz resolution");
        Clock {
            period_ps: period as u64,
        }
    }

    /// Creates a clock from a frequency in megahertz.
    pub fn from_mhz(mhz: f64) -> Clock {
        Clock::from_hz(mhz * 1e6)
    }

    /// Creates a clock from a frequency in gigahertz.
    pub fn from_ghz(ghz: f64) -> Clock {
        Clock::from_hz(ghz * 1e9)
    }

    /// The period of one cycle.
    #[inline]
    pub fn period(self) -> Time {
        Time(self.period_ps)
    }

    /// Duration of `n` cycles.
    #[inline]
    pub fn cycles(self, n: u64) -> Time {
        Time(self.period_ps.saturating_mul(n))
    }

    /// How many *complete* cycles fit in `t`.
    #[inline]
    pub fn cycles_in(self, t: Time) -> u64 {
        t.0 / self.period_ps
    }

    /// The frequency of this clock in hertz (lossy).
    pub fn hz(self) -> f64 {
        1e12 / self.period_ps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constructors_agree() {
        assert_eq!(Time::from_ns(1), Time::from_ps(1_000));
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
    }

    #[test]
    fn time_arithmetic() {
        let a = Time::from_ns(5);
        let b = Time::from_ns(3);
        assert_eq!(a + b, Time::from_ns(8));
        assert_eq!(a - b, Time::from_ns(2));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, Time::from_ns(8));
        c -= b;
        assert_eq!(c, a);
    }

    /// Satellite (PR 4): addition overflow is a loud debug-assert, not a
    /// silent saturation — mirroring the multiply assert in the machine's
    /// `times()` helper.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "time addition overflowed"))]
    fn time_add_overflow_is_guarded() {
        let _ = Time::MAX + Time::from_ns(1);
    }

    /// In release builds (no debug assertions) the overflow saturates so a
    /// production sweep degrades instead of aborting.
    #[cfg(not(debug_assertions))]
    #[test]
    fn time_add_saturates_in_release() {
        assert_eq!(Time::MAX + Time::from_ns(1), Time::MAX);
        assert_eq!(Time::MAX.plus(Time::from_ns(1)), Time::MAX);
    }

    #[test]
    fn time_sum() {
        let total: Time = (1..=4).map(Time::from_ns).sum();
        assert_eq!(total, Time::from_ns(10));
    }

    #[test]
    fn time_ordering_and_minmax() {
        let a = Time::from_ns(1);
        let b = Time::from_ns(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn time_display_units() {
        assert_eq!(Time::from_ps(5).to_string(), "5ps");
        assert_eq!(Time::from_ns(5).to_string(), "5.000ns");
        assert_eq!(Time::from_us(5).to_string(), "5.000us");
        assert_eq!(Time::from_ms(5).to_string(), "5.000ms");
        assert_eq!(Time::from_ms(5000).to_string(), "5.000s");
    }

    #[test]
    fn clock_periods_match_paper_table2() {
        // 2.9 GHz CPU: ~345 ps. 600 MHz MTTOP: ~1667 ps.
        assert_eq!(Clock::from_ghz(2.9).period().as_ps(), 345);
        assert_eq!(Clock::from_mhz(600.0).period().as_ps(), 1667);
    }

    #[test]
    fn clock_cycle_conversions() {
        let c = Clock::from_ghz(1.0); // 1000 ps period
        assert_eq!(c.cycles(7), Time::from_ns(7));
        assert_eq!(c.cycles_in(Time::from_ns(7)), 7);
        assert_eq!(c.cycles_in(Time::from_ps(6_999)), 6);
        assert!((c.hz() - 1e9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid clock frequency")]
    fn clock_rejects_zero() {
        let _ = Clock::from_hz(0.0);
    }
}
