//! The open-loop arrival schedule: when each command is *due* and which
//! replica it goes to, a pure function of the seed.

use ftm_crypto::prng::{Rng64, Xoshiro256PlusPlus};

/// One scheduled command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Nanoseconds after the start of the schedule at which the command
    /// is due. Latency is timed from here, not from the actual send.
    pub due_ns: u64,
    /// Index of the active connection (and so the replica) it is sent on.
    pub target: usize,
}

/// Poisson arrivals at `rate_per_s` over `span_ns`, conditioned on their
/// count: the due times are the order statistics of `rate × span` uniform
/// draws, which is exactly a Poisson process given that many arrivals.
/// Independent users make such a process; fixing the count makes every
/// seed offer the same number of commands, so the offered rate is not a
/// source of run-to-run spread. Targets are drawn uniformly from
/// `0..targets`.
pub fn poisson(seed: u64, rate_per_s: u64, span_ns: u64, targets: usize) -> Vec<Arrival> {
    assert!(span_ns > 0 && targets > 0);
    let count = (u128::from(rate_per_s) * u128::from(span_ns) / 1_000_000_000) as usize;
    let mut rng = Xoshiro256PlusPlus::from_seed(seed);
    let mut out: Vec<Arrival> = (0..count)
        .map(|_| Arrival {
            due_ns: rng.gen_range_u64(0, span_ns - 1),
            target: rng.gen_range_u64(0, targets as u64 - 1) as usize,
        })
        .collect();
    out.sort_by_key(|a| a.due_ns);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPAN: u64 = 4_000_000_000;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = poisson(7, 100, SPAN, 2);
        assert_eq!(a, poisson(7, 100, SPAN, 2));
        assert_ne!(a, poisson(8, 100, SPAN, 2));
    }

    #[test]
    fn count_is_rate_times_span_and_times_are_sorted_in_range() {
        let a = poisson(3, 100, SPAN, 2);
        assert_eq!(a.len(), 400);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|x| x.due_ns < SPAN && x.target < 2));
        assert!(a.iter().any(|x| x.target == 0) && a.iter().any(|x| x.target == 1));
    }

    #[test]
    fn gaps_look_exponential_not_periodic() {
        // A Poisson process at 100/s has a mean gap of 10 ms and a gap
        // standard deviation close to the mean; a periodic schedule would
        // have none.
        let a = poisson(11, 100, 40 * SPAN, 1);
        let gaps: Vec<f64> = a
            .windows(2)
            .map(|w| (w[1].due_ns - w[0].due_ns) as f64)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((mean - 1e7).abs() < 1e6, "mean gap {mean}");
        assert!((0.9..1.1).contains(&cv), "coefficient of variation {cv}");
    }
}
