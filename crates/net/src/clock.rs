//! Wall-clock time source mapping real milliseconds onto [`VirtualTime`].
//!
//! The simulator's ticks are dimensionless; the transport interprets one
//! tick as one millisecond. Protocol timeouts tuned in the simulator
//! (muteness timeout 150 ticks, heartbeat every 40) therefore become
//! 150 ms / 40 ms on the wire — comfortably above loopback latency, so
//! the failure-detector behavior carries over qualitatively.
//!
//! This module is THE sanctioned wall-clock call site of the workspace
//! (rule D3, DESIGN.md §13): a real transport *is* a timing boundary, but
//! every other file in this crate — the node loop, the poll probe, the
//! load generator — reads time through [`WallClock`] rather than touching
//! `Instant` itself, so the raw clock stays in one audited place.

// Module-wide because `derive(Clone)` re-names the field's type outside the
// struct item, where a narrower `#[expect]` does not reach.
#![expect(
    clippy::disallowed_types,
    reason = "D3 sanctioned home: a real transport is a timing boundary"
)]

use std::time::Instant;

use ftm_runtime::VirtualTime;

/// A monotonic clock measuring milliseconds since its own start.
///
/// Each node starts its own clock, so `VirtualTime` values are local to a
/// replica (as in the asynchronous model: no global clock). Only
/// *differences* are meaningful across replicas.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Starts a clock reading zero now.
    pub fn start() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }

    /// Milliseconds elapsed since [`start`](WallClock::start), as a
    /// virtual instant (saturating at `u64::MAX` after ~585 million
    /// years of uptime).
    pub fn now(&self) -> VirtualTime {
        let ms = self.origin.elapsed().as_millis();
        VirtualTime::at(u64::try_from(ms).unwrap_or(u64::MAX))
    }

    /// Microseconds elapsed since [`start`](WallClock::start) — the
    /// resolution used for client-request latency percentiles, where
    /// whole milliseconds would quantize loopback round-trips to zero.
    pub fn micros(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Real-time span from now until the virtual instant `at` (zero if
    /// `at` is already past). Used to bound channel waits so timers fire
    /// on schedule.
    pub fn until(&self, at: VirtualTime) -> std::time::Duration {
        std::time::Duration::from_millis(at.ticks().saturating_sub(self.now().ticks()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_from_zero() {
        let clock = WallClock::start();
        let a = clock.now();
        let b = clock.now();
        assert!(a.ticks() < 10_000, "fresh clock should read near zero");
        assert!(b >= a);
    }

    #[test]
    fn until_is_zero_for_past_instants() {
        let clock = WallClock::start();
        assert_eq!(clock.until(VirtualTime::ZERO), std::time::Duration::ZERO);
    }

    #[test]
    fn until_reaches_into_the_future() {
        let clock = WallClock::start();
        let target = clock.now() + ftm_runtime::Duration::of(60_000);
        let wait = clock.until(target);
        assert!(wait > std::time::Duration::from_millis(50_000));
        assert!(wait <= std::time::Duration::from_millis(60_000));
    }
}
