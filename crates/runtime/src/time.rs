//! Virtual time: the simulator's logical clock.
//!
//! Time is a dimensionless `u64` tick count. Nothing in the reproduction
//! depends on real-world units; what matters is the *ordering* of events and
//! the ratios between delays (message latency vs. failure-detector timeout).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time.
///
/// # Example
///
/// ```
/// use ftm_runtime::time::{Duration, VirtualTime};
/// let t = VirtualTime::ZERO + Duration::of(5);
/// assert_eq!(t.ticks(), 5);
/// assert_eq!(t - VirtualTime::ZERO, Duration::of(5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(u64);

/// A span of virtual time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl VirtualTime {
    /// The origin of time.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// The largest representable instant (used as "never").
    pub const MAX: VirtualTime = VirtualTime(u64::MAX);

    /// Creates an instant at `ticks`.
    pub const fn at(ticks: u64) -> Self {
        VirtualTime(ticks)
    }

    /// Raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating duration since `earlier` (zero if `earlier` is later).
    pub fn since(self, earlier: VirtualTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a span of `ticks`.
    pub const fn of(ticks: u64) -> Self {
        Duration(ticks)
    }

    /// Raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating multiplication by a scalar.
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl Add<Duration> for VirtualTime {
    type Output = VirtualTime;
    fn add(self, d: Duration) -> VirtualTime {
        VirtualTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<Duration> for VirtualTime {
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<VirtualTime> for VirtualTime {
    type Output = Duration;
    fn sub(self, other: VirtualTime) -> Duration {
        self.since(other)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, d: Duration) -> Duration {
        Duration(self.0.saturating_add(d.0))
    }
}

impl fmt::Debug for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ{}", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = VirtualTime::at(10) + Duration::of(5);
        assert_eq!(t, VirtualTime::at(15));
        assert_eq!(t - VirtualTime::at(10), Duration::of(5));
    }

    #[test]
    fn since_saturates() {
        assert_eq!(VirtualTime::at(3).since(VirtualTime::at(9)), Duration::ZERO);
    }

    #[test]
    fn add_saturates_at_max() {
        assert_eq!(VirtualTime::MAX + Duration::of(1), VirtualTime::MAX);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(VirtualTime::at(1) < VirtualTime::at(2));
        assert!(Duration::of(3) > Duration::ZERO);
    }

    #[test]
    fn scalar_helpers() {
        assert_eq!(Duration::of(6).saturating_mul(2), Duration::of(12));
    }
}
