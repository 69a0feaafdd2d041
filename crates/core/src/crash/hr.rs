//! The Hurfin–Raynal round module of the crash model (paper Fig. 2), the
//! input of the transformation; [`crate::byzantine::hr`] is its
//! transformed twin.
//!
//! The paper's two concurrent tasks and `upon` guards map onto the
//! [shell](super::shell): the vote-handling `upon receipt` clauses are
//! [`Rounds::on_vote`]; `upon (p_c ∈ suspected_i)` (line 13) is the shell's
//! poll of its failure detector, which calls [`Rounds::on_suspicion`]
//! while [`Rounds::awaits_coordinator`]; the estimate (line 1), DECIDE
//! (lines 2 and 12) and footnote 5 (votes from past rounds are discarded,
//! votes from future rounds are buffered until `r_i` catches up) are the
//! shell's.
//!
//! Line-number comments reference Fig. 2.

use std::collections::BTreeSet;

use ftm_sim::ProcessId;

use super::message::CrashMsg;
use super::shell::{Rounds, Shell, Step};

/// The three automaton states of a round (paper §4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum State {
    /// Has not voted in this round.
    #[default]
    Q0,
    /// Voted CURRENT and has not changed its mind.
    Q1,
    /// Voted NEXT.
    Q2,
}

/// Hurfin–Raynal's record of the round in progress (the per-round
/// protocol variables of Fig. 2).
#[derive(Debug, Default)]
pub struct HurfinRaynal {
    state: State,
    nb_current: usize,
    nb_next: usize,
    rec_from: BTreeSet<ProcessId>,
}

impl HurfinRaynal {
    /// Lines 15 and 17 share this: vote NEXT once.
    fn vote_next(&mut self, sh: &mut Shell<'_, '_>) {
        self.state = State::Q2;
        sh.broadcast(CrashMsg::Next { round: sh.round() });
    }

    /// The `change_mind` predicate (paper §4): in `q1` with a majority of
    /// votes received but neither a CURRENT majority (line 12 would have
    /// decided) nor a NEXT majority (line 6 would advance).
    fn change_mind(&self, majority: usize) -> bool {
        self.state == State::Q1
            && self.rec_from.len() >= majority
            && self.nb_current < majority
            && self.nb_next < majority
    }
}

impl Rounds for HurfinRaynal {
    /// Line 4: the round's variables start afresh.
    fn open_round(&mut self, sh: &mut Shell<'_, '_>) {
        *self = HurfinRaynal::default();
        if sh.me() == sh.coordinator() {
            // Line 5: the coordinator proposes its estimate.
            sh.broadcast(CrashMsg::Current {
                round: sh.round(),
                est: sh.est(),
            });
        }
    }

    fn on_vote(&mut self, from: ProcessId, msg: &CrashMsg, sh: &mut Shell<'_, '_>) -> Step {
        match *msg {
            CrashMsg::Current { est, .. } => {
                // Lines 7–12.
                self.nb_current += 1;
                self.rec_from.insert(from);
                if self.nb_current == 1 {
                    sh.adopt(est); // line 9: adopt the first CURRENT
                }
                if self.state == State::Q0 {
                    // Line 10: q0 → q1, relaying unless we are coordinator.
                    self.state = State::Q1;
                    if sh.me() != sh.coordinator() {
                        sh.broadcast(CrashMsg::Current {
                            round: sh.round(),
                            est: sh.est(),
                        });
                    }
                }
                if self.nb_current >= sh.majority() {
                    // Line 12: CURRENT majority → decide.
                    return Step::Decide(sh.est());
                }
            }
            CrashMsg::Next { .. } => {
                // Line 14.
                self.nb_next += 1;
                self.rec_from.insert(from);
            }
            // Chandra–Toueg kinds: no Hurfin–Raynal process sends them.
            _ => return Step::Stay,
        }
        // Line 15: upon change_mind.
        if self.change_mind(sh.majority()) {
            self.vote_next(sh);
        }
        // Line 6/16–17: NEXT majority ends the round.
        if self.nb_next >= sh.majority() {
            if self.state != State::Q2 {
                self.vote_next(sh); // line 17
            }
            return Step::NextRound;
        }
        Step::Stay
    }

    /// Line 13's guard: still in `q0`.
    fn awaits_coordinator(&self) -> bool {
        self.state == State::Q0
    }

    fn on_suspicion(&mut self, sh: &mut Shell<'_, '_>) -> Step {
        self.vote_next(sh);
        Step::Stay
    }
}

#[cfg(test)]
mod tests {
    use crate::crash::CrashConsensus;
    use crate::spec::Resilience;
    use ftm_certify::Value;
    use ftm_fd::{OracleDetector, TimeoutDetector};
    use ftm_sim::{Duration, ProcessId, RunReport, SimConfig, Simulation, VirtualTime};

    fn run_timeout_fd(n: usize, seed: u64, crashes: &[(usize, u64)]) -> RunReport<Value> {
        let mut cfg = SimConfig::new(n).seed(seed);
        for &(p, t) in crashes {
            cfg = cfg.crash(p, VirtualTime::at(t));
        }
        let res = Resilience::new(n, crate::quorum::max_faults(n));
        Simulation::build(cfg, |id| {
            CrashConsensus::new(
                res,
                id,
                100 + id.0 as u64,
                TimeoutDetector::new(n, Duration::of(150)),
                Duration::of(25),
                Some(Duration::of(40)),
            )
        })
        .run()
    }

    #[test]
    fn all_correct_processes_decide_round_one() {
        let report = run_timeout_fd(5, 1, &[]);
        assert!(report.all_decided());
        // Validity: the round-1 coordinator is p0 → its estimate wins.
        assert_eq!(report.unanimous(), Some(100));
    }

    #[test]
    fn agreement_across_seeds() {
        for seed in 0..20 {
            let report = run_timeout_fd(4, seed, &[]);
            assert!(report.all_decided(), "seed {seed}");
            assert!(report.unanimous().is_some(), "seed {seed}");
        }
    }

    #[test]
    fn crashed_coordinator_is_bypassed() {
        // p0 (round-1 coordinator) crashes immediately: the others must
        // suspect it, round past it, and decide on p1's estimate.
        let report = run_timeout_fd(5, 3, &[(0, 0)]);
        assert!(report.all_decided());
        let v = report.unanimous().expect("agreement among survivors");
        assert_ne!(v, 100); // the crashed coordinator's value cannot win
    }

    #[test]
    fn tolerates_floor_half_minus_crashes() {
        // n = 5 tolerates 2 crashes.
        let report = run_timeout_fd(5, 4, &[(0, 0), (1, 50)]);
        assert!(report.all_decided());
        assert!(report.unanimous().is_some());
    }

    #[test]
    fn late_crash_after_decide_is_harmless() {
        let report = run_timeout_fd(4, 5, &[(3, 5_000)]);
        assert!(report.all_decided());
    }

    #[test]
    fn oracle_detector_with_lies_still_terminates() {
        // The detector wrongly suspects the round-1 coordinator for a long
        // while: rounds churn, but eventual accuracy restores progress.
        let n = 4;
        let res = Resilience::new(n, 1);
        let report = Simulation::build(SimConfig::new(n).seed(9), |id| {
            CrashConsensus::new(
                res,
                id,
                10 + id.0 as u64,
                OracleDetector::new(n).wrongly_suspect_until(ProcessId(0), VirtualTime::at(400)),
                Duration::of(25),
                None,
            )
        })
        .run();
        assert!(report.all_decided());
        assert!(report.unanimous().is_some());
    }

    #[test]
    fn votes_for_future_rounds_are_buffered_not_lost() {
        // Indirect check: runs with heavy delay jitter still decide.
        for seed in 0..10 {
            let n = 4;
            let res = Resilience::new(n, 1);
            let cfg = SimConfig::new(n)
                .seed(seed)
                .delay_range(Duration::of(1), Duration::of(80))
                .gst(VirtualTime::at(3_000), Duration::of(10));
            let report = Simulation::build(cfg, |id| {
                CrashConsensus::new(
                    res,
                    id,
                    10 + id.0 as u64,
                    TimeoutDetector::new(n, Duration::of(60)),
                    Duration::of(25),
                    Some(Duration::of(30)),
                )
            })
            .run();
            assert!(report.all_decided(), "seed {seed}");
            assert!(report.unanimous().is_some(), "seed {seed}");
        }
    }

    #[test]
    fn decision_latency_reported_in_rounds() {
        let report = run_timeout_fd(4, 2, &[]);
        // With a correct coordinator, no process should pass round 1.
        assert_eq!(crate::validator::max_round(&report.trace, 4), 1);
    }
}
