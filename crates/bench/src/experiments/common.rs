//! Shared run helpers for the experiment harness. Transformed runs are
//! built by [`ftm_faults::AttackRun`]; this module wires the crash-model
//! protocol and reads a finished run's figures.

use ftm_certify::Value;
use ftm_core::crash::{Crash, CrashModel, CrashMsg};
use ftm_core::rounds::{Record, Rounds};
use ftm_core::spec::Resilience;
use ftm_core::validator::{check_crash_consensus, max_round, Verdict};
use ftm_faults::crash_attacks::{CrashAttack, CrashSaboteur};
use ftm_fd::TimeoutDetector;
use ftm_sim::runner::BoxedActor;
use ftm_sim::{Duration, RunReport, SimConfig, Simulation, VirtualTime};

/// Standard proposal vector: `p_i` proposes `100 + i`.
fn proposals(n: usize) -> Vec<Value> {
    (0..n as u64).map(|i| 100 + i).collect()
}

/// Aggregate outcome of one run, shared by several experiment tables.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Validator verdict.
    pub verdict: Verdict,
    /// Highest round any process opened.
    pub rounds: usize,
    /// Virtual time of the run's end.
    pub latency: u64,
    /// Messages handed to the network.
    pub messages: u64,
    /// Payload bytes handed to the network.
    pub bytes: u64,
}

impl Outcome {
    /// Reads the figures of a finished run of `n` processes judged by
    /// `verdict`.
    pub fn of<D>(report: &RunReport<D>, n: usize, verdict: Verdict) -> Self {
        Outcome {
            rounds: max_round(&report.trace, n),
            latency: report.end_time.ticks(),
            messages: report.metrics.messages_sent,
            bytes: report.metrics.bytes_sent,
            verdict,
        }
    }
}

/// Runs the crash-model protocol with round module `R`; `crashes` are
/// `(process, time)` pairs, and a `saboteur` process, if any, runs its
/// attack behind a [`CrashSaboteur`] and is judged faulty.
pub fn run_crash<R>(
    n: usize,
    seed: u64,
    crashes: &[(usize, u64)],
    saboteur: Option<(u32, CrashAttack)>,
) -> Outcome
where
    R: Rounds<Votes: Record<Model = CrashModel>> + 'static,
{
    let mut cfg = SimConfig::new(n).seed(seed);
    for &(p, t) in crashes {
        cfg = cfg.crash(p, VirtualTime::at(t));
    }
    let res = Resilience::new(n, ftm_core::quorum::max_faults(n));
    let mut faulty = vec![false; n];
    let report = Simulation::build_boxed(cfg, |id| {
        let honest = Crash::<R, _>::new(
            res,
            id,
            100 + id.0 as u64,
            TimeoutDetector::new(n, Duration::of(150)),
            Duration::of(25),
            Some(Duration::of(40)),
        );
        match &saboteur {
            Some((p, attack)) if *p == id.0 => {
                faulty[id.index()] = true;
                Box::new(CrashSaboteur::new(honest, attack.clone())) as BoxedActor<CrashMsg, Value>
            }
            _ => Box::new(honest),
        }
    })
    .run();
    let verdict = check_crash_consensus(&report, &proposals(n), &faulty);
    Outcome::of(&report, n, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_core::crash::HrCounts;
    use ftm_core::rounds::hr::HurfinRaynal;

    #[test]
    fn crash_helper_produces_clean_outcome() {
        let o = run_crash::<HurfinRaynal<HrCounts>>(4, 1, &[], None);
        assert!(o.verdict.ok());
        assert_eq!(o.rounds, 1);
        assert!(o.messages > 0 && o.bytes > 0 && o.latency > 0);
    }
}
