//! Capped exponential backoff with deterministic jitter.
//!
//! Both the initial dial-retry and the steady-state peer reconnect path
//! share one policy: delays double from [`Backoff::BASE_MS`] up to
//! [`Backoff::CAP_MS`], and each delay adds a jitter term drawn from the
//! node's deterministic xoshiro stream (so the full schedule is a pure
//! function of the seed — unit-testable, replayable). A successful
//! handshake resets the schedule to the base delay.

use ftm_crypto::prng::{Rng64, Xoshiro256PlusPlus};

/// Deterministic capped-exponential backoff schedule for one peer link.
#[derive(Debug)]
pub struct Backoff {
    rng: Xoshiro256PlusPlus,
    /// Consecutive failures since the last reset.
    failures: u32,
}

impl Backoff {
    /// First retry delay in milliseconds.
    pub const BASE_MS: u64 = 20;
    /// Hard ceiling on the exponential term, in milliseconds.
    pub const CAP_MS: u64 = 2_000;

    /// A schedule seeded from the node's derived per-process stream.
    ///
    /// Callers derive `seed` per (node, peer) so links don't share a
    /// jitter stream: e.g. `derive_seed(cfg.seed, me) ^ peer`.
    pub fn new(seed: u64) -> Self {
        Backoff {
            rng: Xoshiro256PlusPlus::from_seed(seed),
            failures: 0,
        }
    }

    /// Records a failure and returns the delay to wait before the next
    /// attempt: `min(BASE << failures, CAP)` plus jitter in
    /// `[0, delay/2]` drawn from the deterministic stream.
    pub fn next_delay_ms(&mut self) -> u64 {
        let exp = self.failures.min(20);
        self.failures = self.failures.saturating_add(1);
        let base = Self::BASE_MS.saturating_shl(exp).min(Self::CAP_MS);
        let jitter = self.rng.next_u64() % (base / 2 + 1);
        base + jitter
    }

    /// Clears the failure count after a successful handshake, so the next
    /// outage restarts from the base delay.
    pub fn reset(&mut self) {
        self.failures = 0;
    }
}

/// `u64::checked_shl` that saturates instead of wrapping.
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> Self {
        self.checked_shl(rhs).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_given_the_seed() {
        let mut a = Backoff::new(0xB0FF);
        let mut b = Backoff::new(0xB0FF);
        let sched_a: Vec<u64> = (0..12).map(|_| a.next_delay_ms()).collect();
        let sched_b: Vec<u64> = (0..12).map(|_| b.next_delay_ms()).collect();
        assert_eq!(sched_a, sched_b);
        // Different seeds give a different jitter stream (same envelope).
        let mut c = Backoff::new(0xB0FF ^ 1);
        let sched_c: Vec<u64> = (0..12).map(|_| c.next_delay_ms()).collect();
        assert_ne!(sched_a, sched_c);
    }

    #[test]
    fn delays_double_to_the_cap_with_bounded_jitter() {
        let mut b = Backoff::new(7);
        for k in 0..16u32 {
            let d = b.next_delay_ms();
            let base = (Backoff::BASE_MS << k.min(20)).min(Backoff::CAP_MS);
            assert!(d >= base, "attempt {k}: {d} below envelope {base}");
            assert!(
                d <= base + base / 2,
                "attempt {k}: {d} above jitter bound {}",
                base + base / 2
            );
        }
        // Far past the cap the envelope stays pinned.
        for _ in 0..100 {
            let d = b.next_delay_ms();
            assert!((Backoff::CAP_MS..=Backoff::CAP_MS * 3 / 2).contains(&d));
        }
    }

    #[test]
    fn reset_restarts_from_the_base_delay() {
        let mut b = Backoff::new(99);
        for _ in 0..10 {
            b.next_delay_ms();
        }
        assert_eq!(b.failures, 10);
        b.reset();
        assert_eq!(b.failures, 0);
        let d = b.next_delay_ms();
        assert!(d <= Backoff::BASE_MS + Backoff::BASE_MS / 2);
    }
}
