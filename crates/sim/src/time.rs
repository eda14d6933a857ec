//! Simulation clock types.
//!
//! All simulation time is kept in integer nanoseconds so that event ordering
//! is exact and runs are reproducible bit-for-bit. Two newtypes are provided:
//!
//! * [`SimTime`] — an absolute instant on the simulation clock.
//! * [`SimDuration`] — a span between two instants.
//!
//! The arithmetic mirrors `std::time::{Instant, Duration}`: instants subtract
//! to durations, durations add to instants, and durations form a monoid.
//!
//! ```
//! use eavs_sim::time::{SimTime, SimDuration};
//!
//! let t0 = SimTime::ZERO;
//! let t1 = t0 + SimDuration::from_millis(16);
//! assert_eq!(t1 - t0, SimDuration::from_micros(16_000));
//! assert!(t1 > t0);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the simulation.
///
/// `SimTime` is totally ordered and starts at [`SimTime::ZERO`]. It can only
/// move forward; subtracting a later time from an earlier one panics in debug
/// builds (see [`SimTime::checked_duration_since`] for the fallible variant).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the origin.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after the origin.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant `millis` milliseconds after the origin.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant `secs` seconds after the origin.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Creates an instant from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(SimDuration::from_secs_f64(secs).as_nanos())
    }

    /// Nanoseconds since the origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the origin as a float (lossy for very large times).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration since an earlier instant, or `None` if `earlier` is actually
    /// later than `self`.
    pub fn checked_duration_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Duration since an earlier instant, clamping to zero if `earlier` is
    /// later than `self`.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Adds a duration, returning `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or larger than ~584 years.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        let nanos = secs * NANOS_PER_SEC as f64;
        assert!(
            nanos <= u64::MAX as f64,
            "duration {secs} s overflows the simulation clock"
        );
        SimDuration(round_to_u64(nanos))
    }

    /// The duration in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// `true` if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction clamped at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Addition saturating at [`SimDuration::MAX`].
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Checked addition.
    pub fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(other.0).map(SimDuration)
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(other.0).map(SimDuration)
    }

    /// Multiplies by a float factor, rounding to the nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN, or on overflow.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration factor must be finite and non-negative, got {factor}"
        );
        let nanos = self.0 as f64 * factor;
        assert!(nanos <= u64::MAX as f64, "duration multiply overflow");
        SimDuration(round_to_u64(nanos))
    }

    /// Divides by a float factor, rounding to the nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is not strictly positive.
    pub fn div_f64(self, divisor: f64) -> SimDuration {
        assert!(
            divisor.is_finite() && divisor > 0.0,
            "duration divisor must be positive, got {divisor}"
        );
        SimDuration(round_to_u64(self.0 as f64 / divisor))
    }

    /// The ratio of this duration to another, as a float.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn ratio(self, other: SimDuration) -> f64 {
        assert!(!other.is_zero(), "cannot take ratio to a zero duration");
        self.0 as f64 / other.0 as f64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("simulation clock overflow"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("simulation clock underflow"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracting a later SimTime from an earlier one"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({})", format_nanos(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_nanos(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({})", format_nanos(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_nanos(self.0))
    }
}

/// `x.round() as u64`, bit for bit, without the libm call: rounds to the
/// nearest integer with halves away from zero, saturating like `as` (NaN
/// and negatives give 0, anything past `u64::MAX` gives `u64::MAX`).
///
/// The truncation is exact, and so is the fractional part `x - trunc(x)`
/// (below 1 the truncation is zero; above it the two operands are within a
/// factor of two, so the subtraction is exact), so comparing it against 0.5
/// decides the rounding exactly.
#[inline]
pub fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        // Only a saturated `t` (x ≥ 2^64) can be u64::MAX here.
        t.saturating_add(1)
    } else {
        t
    }
}

/// `x.round() as i128`, bit for bit, without the libm call or the
/// `f64 → i128` conversion routine: the same exact truncate-and-compare as
/// [`round_to_u64`], done in `i64` whenever `|x| < 2^63`.
#[inline]
pub fn round_to_i128(x: f64) -> i128 {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if x.abs() < TWO_POW_63 {
        let t = x as i64;
        let frac = x - t as f64;
        // A non-zero fraction implies |x| < 2^52, so `t ± 1` cannot overflow.
        let r = if frac >= 0.5 {
            t + 1
        } else if frac <= -0.5 {
            t - 1
        } else {
            t
        };
        r as i128
    } else {
        // Integral (or NaN / infinite) already: rounding is the identity.
        x as i128
    }
}

/// Formats a nanosecond count with a human-friendly unit.
fn format_nanos(nanos: u64) -> String {
    if nanos == u64::MAX {
        return "inf".to_owned();
    }
    if nanos >= NANOS_PER_SEC {
        format!("{:.6}s", nanos as f64 / NANOS_PER_SEC as f64)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(
            SimTime::from_secs(2),
            SimTime::from_nanos(2 * NANOS_PER_SEC)
        );
        assert_eq!(SimTime::from_millis(5), SimTime::from_micros(5_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn instant_duration_arithmetic() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(6);
        assert_eq!(t + d, SimTime::from_millis(16));
        assert_eq!((t + d) - t, d);
        assert_eq!(t - d, SimTime::from_millis(4));
    }

    #[test]
    fn saturating_and_checked() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(SimTime::MAX.checked_add(SimDuration::from_nanos(1)), None);
        assert_eq!(
            SimTime::ZERO.checked_duration_since(SimTime::from_nanos(1)),
            None
        );
        assert_eq!(
            SimTime::ZERO.saturating_duration_since(SimTime::from_secs(3)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "subtracting a later SimTime")]
    fn subtracting_later_from_earlier_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn float_conversions_round_trip() {
        let d = SimDuration::from_secs_f64(1.25);
        assert!((d.as_secs_f64() - 1.25).abs() < 1e-12);
        let t = SimTime::from_secs_f64(2.5);
        assert!((t.as_secs_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mul_div_ratio() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_millis(250));
        assert_eq!(d.div_f64(4.0), SimDuration::from_millis(25));
        assert_eq!(d * 3, SimDuration::from_millis(300));
        assert_eq!(d / 2, SimDuration::from_millis(50));
        assert!((SimDuration::from_secs(1).ratio(SimDuration::from_secs(4)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_nanos(7).to_string(), "7ns");
        assert_eq!(SimDuration::from_micros(2).to_string(), "2.000us");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.000ms");
        assert_eq!(SimDuration::from_secs(4).to_string(), "4.000000s");
        assert_eq!(SimDuration::MAX.to_string(), "inf");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }
}
