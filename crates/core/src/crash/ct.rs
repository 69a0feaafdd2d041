//! The Chandra–Toueg round module of the crash model — a second member of
//! the "regular round-based" class the paper's methodology targets;
//! [`crate::byzantine::ct`] is its transformed twin.
//!
//! Implementing the classic protocol the ◇S class was introduced with lets
//! the harness compare the *inputs* of the transformation (E1's HR-vs-CT
//! table) and documents what "regular communication pattern" means
//! concretely: every round has the same four phases (rotating coordinator
//! `c = (r−1) mod n`).
//!
//! 1. **Estimate** — everyone sends `(est, ts)` to the coordinator;
//! 2. **Propose** — the coordinator adopts the estimate with the highest
//!    timestamp among a majority and broadcasts it;
//! 3. **Ack/Nack** — each process waits for the proposal or a suspicion
//!    of the coordinator, replying ACK (adopting the proposal) or NACK;
//! 4. **Decide** — on a majority of ACKs the coordinator reliably
//!    broadcasts DECIDE; everyone relays and decides (the
//!    [shell](super::shell)'s relay is the reliable-broadcast echo that
//!    keeps Agreement across crashes).

use std::collections::BTreeSet;

use ftm_certify::{Round, Value};
use ftm_sim::ProcessId;

use super::message::CrashMsg;
use super::shell::{Rounds, Shell, Step};

/// Which phase of the current round this process is in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Phase {
    /// Non-coordinator: waiting for the proposal (or suspicion).
    #[default]
    AwaitProposal,
    /// Coordinator: collecting a majority of estimates.
    CollectEstimates,
    /// Coordinator: collecting acks/nacks.
    CollectAcks,
}

/// Chandra–Toueg's record of the round in progress.
#[derive(Debug, Default)]
pub struct ChandraToueg {
    phase: Phase,
    // Coordinator bookkeeping.
    estimates: Vec<(ProcessId, Value, Round)>,
    acks: BTreeSet<ProcessId>,
    nacks: BTreeSet<ProcessId>,
}

impl ChandraToueg {
    fn check_acks(&self, sh: &Shell<'_, '_>) -> Step {
        if self.acks.len() >= sh.majority() {
            // Phase 4: decide and reliably broadcast.
            Step::Decide(sh.est())
        } else if self.acks.len() + self.nacks.len() >= sh.majority() && !self.nacks.is_empty() {
            // The round cannot succeed; move on as a regular process.
            Step::NextRound
        } else {
            Step::Stay
        }
    }
}

impl Rounds for ChandraToueg {
    /// Phase 1: everyone (coordinator included) sends its estimate.
    fn open_round(&mut self, sh: &mut Shell<'_, '_>) {
        *self = ChandraToueg::default();
        let coord = sh.coordinator();
        if sh.me() == coord {
            self.phase = Phase::CollectEstimates;
        }
        let estimate = CrashMsg::Estimate {
            round: sh.round(),
            est: sh.est(),
            ts: sh.ts(),
        };
        sh.send(coord, estimate);
    }

    fn on_vote(&mut self, from: ProcessId, msg: &CrashMsg, sh: &mut Shell<'_, '_>) -> Step {
        match (msg, self.phase) {
            (&CrashMsg::Estimate { est, ts, .. }, Phase::CollectEstimates) => {
                self.estimates.push((from, est, ts));
                if self.estimates.len() >= sh.majority() {
                    // Phase 2: adopt the freshest estimate and propose it.
                    if let Some(&(_, best, _)) = self.estimates.iter().max_by_key(|(_, _, ts)| *ts)
                    {
                        sh.adopt(best);
                        sh.broadcast(CrashMsg::Propose {
                            round: sh.round(),
                            est: best,
                        });
                        self.phase = Phase::CollectAcks;
                    }
                }
                Step::Stay
            }
            (&CrashMsg::Propose { est, .. }, Phase::AwaitProposal) => {
                // Phase 3: adopt and ACK, echoing the adopted estimate.
                sh.adopt(est);
                let ack = CrashMsg::Ack {
                    round: sh.round(),
                    est,
                };
                sh.send(sh.coordinator(), ack);
                Step::NextRound
            }
            // The coordinator receives its own proposal: treat it as an
            // implicit ACK (it adopted the value already).
            (CrashMsg::Propose { .. }, Phase::CollectAcks) => {
                self.acks.insert(sh.me());
                self.check_acks(sh)
            }
            (CrashMsg::Ack { .. }, Phase::CollectAcks) => {
                self.acks.insert(from);
                self.check_acks(sh)
            }
            (CrashMsg::Nack { .. }, Phase::CollectAcks) => {
                self.nacks.insert(from);
                self.check_acks(sh)
            }
            // A stale estimate to a past coordinator, or a round message
            // this process no longer waits for.
            _ => Step::Stay,
        }
    }

    /// Phase 3's escape hatch is open while awaiting the proposal.
    fn awaits_coordinator(&self) -> bool {
        self.phase == Phase::AwaitProposal
    }

    fn on_suspicion(&mut self, sh: &mut Shell<'_, '_>) -> Step {
        let nack = CrashMsg::Nack { round: sh.round() };
        sh.send(sh.coordinator(), nack);
        Step::NextRound
    }
}

#[cfg(test)]
mod tests {
    use crate::crash::{ChandraToueg, CrashConsensus};
    use crate::spec::Resilience;
    use ftm_certify::Value;
    use ftm_fd::TimeoutDetector;
    use ftm_sim::{Duration, RunReport, SimConfig, Simulation, VirtualTime};

    fn run(n: usize, seed: u64, crashes: &[(usize, u64)]) -> RunReport<Value> {
        let mut cfg = SimConfig::new(n).seed(seed);
        for &(p, t) in crashes {
            cfg = cfg.crash(p, VirtualTime::at(t));
        }
        let res = Resilience::new(n, crate::quorum::max_faults(n));
        Simulation::build(cfg, |id| {
            ChandraToueg::new(
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
    fn all_honest_decide_round_one() {
        let report = run(4, 1, &[]);
        assert!(report.all_decided());
        // Round 1's coordinator is p0; with everyone honest its estimate
        // (the freshest is any ts=0; max_by_key picks one) is decided and
        // shared by all.
        assert!(report.unanimous().is_some());
    }

    #[test]
    fn agreement_and_validity_across_seeds() {
        for seed in 0..20 {
            let report = run(5, seed, &[]);
            assert!(report.all_decided(), "seed {seed}");
            let v = report.unanimous().expect("agreement");
            assert!((100..105).contains(&v), "validity: {v}");
        }
    }

    #[test]
    fn crashed_coordinator_is_bypassed() {
        let report = run(4, 2, &[(0, 0)]);
        assert!(report.all_decided());
        let v = report.unanimous().expect("agreement among survivors");
        assert_ne!(v, 100);
    }

    #[test]
    fn tolerates_bound_crashes() {
        let report = run(7, 3, &[(0, 0), (1, 30), (2, 60)]);
        assert!(report.all_decided());
        assert!(report.unanimous().is_some());
    }

    #[test]
    fn late_crash_of_a_decider_is_harmless() {
        let report = run(4, 4, &[(0, 80)]);
        // p0 decides (round-1 coordinator) then crashes; the reliable
        // broadcast echo must still spread the decision.
        assert!(report.all_decided());
    }

    #[test]
    fn message_pattern_is_leaner_than_hr() {
        // CT phase 1/3 are point-to-point (to the coordinator) while HR
        // broadcasts everything: CT should use fewer messages at equal n.
        // Any single schedule can tie, so compare totals across seeds.
        let mut ct_total = 0;
        let mut hr_total = 0;
        for seed in 0..5 {
            let ct = run(5, seed, &[]);
            let hr = {
                let res = Resilience::new(5, 2);
                Simulation::build(SimConfig::new(5).seed(seed), |id| {
                    CrashConsensus::new(
                        res,
                        id,
                        100 + id.0 as u64,
                        TimeoutDetector::new(5, Duration::of(150)),
                        Duration::of(25),
                        Some(Duration::of(40)),
                    )
                })
                .run()
            };
            assert!(ct.all_decided() && hr.all_decided(), "seed {seed}");
            ct_total += ct.metrics.messages_sent;
            hr_total += hr.metrics.messages_sent;
        }
        assert!(
            ct_total < hr_total,
            "CT {ct_total} vs HR {hr_total} across seeds"
        );
    }
}
