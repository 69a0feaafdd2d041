//! Shared run helpers for the experiment harness.

use ftm_certify::{Value, ValueVector};
use ftm_core::byzantine::ByzantineConsensus;
use ftm_core::config::{ProtocolConfig, ProtocolSetup};
use ftm_core::crash::{Crash, CrashModel};
use ftm_core::rounds::{Record, Rounds};
use ftm_core::spec::Resilience;
use ftm_core::validator::{check_crash_consensus, check_vector_consensus, max_round, Verdict};
use ftm_faults::{Attack, ByzantineWrapper};
use ftm_fd::TimeoutDetector;
use ftm_sim::runner::BoxedActor;
use ftm_sim::{Duration, RunReport, SimConfig, Simulation, VirtualTime};

/// Standard proposal vector: `p_i` proposes `100 + i`.
pub fn proposals(n: usize) -> Vec<Value> {
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

/// Runs the crash-model protocol with round module `R`; `crashes` are
/// `(process, time)` pairs.
pub fn run_crash<R>(n: usize, seed: u64, crashes: &[(usize, u64)]) -> Outcome
where
    R: Rounds<Votes: Record<Model = CrashModel>> + 'static,
{
    let mut cfg = SimConfig::new(n).seed(seed);
    for &(p, t) in crashes {
        cfg = cfg.crash(p, VirtualTime::at(t));
    }
    let res = Resilience::new(n, ftm_core::quorum::max_faults(n));
    let report = Simulation::build(cfg, |id| {
        Crash::<R, _>::new(
            res,
            id,
            100 + id.0 as u64,
            TimeoutDetector::new(n, Duration::of(150)),
            Duration::of(25),
            Some(Duration::of(40)),
        )
    })
    .run();
    let verdict = check_crash_consensus(&report, &proposals(n), &vec![false; n]);
    Outcome {
        rounds: max_round(&report.trace, n),
        latency: report.end_time.ticks(),
        messages: report.metrics.messages_sent,
        bytes: report.metrics.bytes_sent,
        verdict,
    }
}

/// Runs the transformed protocol with optional crashes and at most one
/// Byzantine attacker.
pub fn run_byz(
    n: usize,
    f: usize,
    seed: u64,
    crashes: &[(usize, u64)],
    attacker: Option<(u32, Attack)>,
) -> (RunReport<ValueVector>, Outcome) {
    run_byz_with_config(
        ProtocolConfig::new(n, f).seed(seed),
        seed,
        crashes,
        attacker,
    )
}

/// Like [`run_byz`] with an explicit protocol configuration (ablation,
/// timeout sweeps).
pub fn run_byz_with_config(
    config: ProtocolConfig,
    seed: u64,
    crashes: &[(usize, u64)],
    attacker: Option<(u32, Attack)>,
) -> (RunReport<ValueVector>, Outcome) {
    let mut cfg = SimConfig::new(config.n).seed(seed);
    for &(p, t) in crashes {
        cfg = cfg.crash(p, VirtualTime::at(t));
    }
    run_byz_sim(config, cfg, attacker)
}

/// Most general byzantine-run helper: explicit protocol and simulator
/// configurations (network-condition sweeps).
pub fn run_byz_sim(
    config: ProtocolConfig,
    cfg: SimConfig,
    attacker: Option<(u32, Attack)>,
) -> (RunReport<ValueVector>, Outcome) {
    let n = config.n;
    let f = config.f;
    let setup: ProtocolSetup = config.setup();
    let props = proposals(n);
    let attacker_id = attacker.as_ref().map(|(a, _)| *a as usize);
    let mut attacker = attacker;
    let report = Simulation::build_boxed(cfg, |id| {
        let honest = ByzantineConsensus::new(&setup, id, props[id.index()]);
        match &mut attacker {
            Some((a, _)) if *a == id.0 => {
                let (a, attack) = attacker.take().expect("just matched");
                Box::new(ByzantineWrapper::new(
                    honest,
                    attack,
                    setup.keys[a as usize].clone(),
                    Duration::of(10),
                )) as BoxedActor<_, ValueVector>
            }
            _ => Box::new(honest),
        }
    })
    .run();

    // Crashed processes are excluded via report.crashed; mark the
    // Byzantine attacker explicitly.
    let mut faulty = vec![false; n];
    if let Some(a) = attacker_id {
        faulty[a] = true;
    }
    let verdict = check_vector_consensus(&report, &proposals(n), &faulty, f);
    let outcome = Outcome {
        rounds: max_round(&report.trace, n),
        latency: report.end_time.ticks(),
        messages: report.metrics.messages_sent,
        bytes: report.metrics.bytes_sent,
        verdict,
    };
    (report, outcome)
}

/// Re-judges a finished transformed-protocol run with an explicit faulty
/// mask (used when an attacker was injected).
pub fn verdict_with_faulty(
    report: &RunReport<ValueVector>,
    n: usize,
    f: usize,
    faulty: &[usize],
) -> Verdict {
    let mut mask = vec![false; n];
    for &i in faulty {
        mask[i] = true;
    }
    check_vector_consensus(report, &proposals(n), &mask, f)
}

/// Re-judges a finished crash-protocol run with an explicit faulty mask.
pub fn crash_verdict_with_faulty(report: &RunReport<Value>, n: usize, faulty: &[usize]) -> Verdict {
    let mut mask = vec![false; n];
    for &i in faulty {
        mask[i] = true;
    }
    check_crash_consensus(report, &proposals(n), &mask)
}

/// Convenience: all-honest byzantine run.
pub fn run_byz_honest(n: usize, f: usize, seed: u64) -> (RunReport<ValueVector>, Outcome) {
    run_byz(n, f, seed, &[], None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_core::crash::HrCounts;
    use ftm_core::rounds::hr::HurfinRaynal;

    #[test]
    fn crash_helper_produces_clean_outcome() {
        let o = run_crash::<HurfinRaynal<HrCounts>>(4, 1, &[]);
        assert!(o.verdict.ok());
        assert_eq!(o.rounds, 1);
        assert!(o.messages > 0 && o.bytes > 0 && o.latency > 0);
    }

    #[test]
    fn byz_helper_produces_clean_outcome() {
        let (_, o) = run_byz_honest(4, 1, 1);
        assert!(o.verdict.ok(), "{:?}", o.verdict.violations);
    }

    #[test]
    fn verdict_with_faulty_excludes_attacker() {
        let (report, _) = run_byz_honest(4, 1, 2);
        let v = verdict_with_faulty(&report, 4, 1, &[3]);
        assert!(v.ok(), "{:?}", v.violations);
    }
}
