//! The Hurfin–Raynal round module: paper Fig. 2 in the crash model, the
//! round logic of Fig. 3 (lines 11–31 minus the gray-shaded machinery)
//! once transformed. Line-number comments reference Fig. 2 / Fig. 3.
//!
//! The `upon receipt` clauses are [`Rounds::on_vote`]; `upon (p_c ∈
//! suspected_i)` (Fig. 2 line 13, `suspected_i ∪ faulty_i` at Fig. 3 line
//! 22) is the shell's poll, which calls [`Rounds::on_suspicion`] while
//! [`Rounds::awaits_coordinator`]; the estimate, DECIDE and footnote 5's
//! buffering are the shell's. The vote record supplies `nb_current`,
//! `nb_next` and `rec_from`, and which CURRENTs decide: all of them in the
//! crash model, those endorsing the adopted vector once a faulty
//! coordinator can sign two.

use ftm_certify::{MessageKind, ProtocolId, Round};
use ftm_sim::ProcessId;

use super::{Ballot, Decision, Entry, Model, Record, Rounds, SendId, Shell, Step, Vote};

/// The round-module rows of Hurfin–Raynal's `ProtocolSpec::sends`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HrSend {
    /// Lines 5 / 12: the coordinator proposes its estimate.
    CurrentCoordinator,
    /// Lines 10 / 18–19: relay of the adopted coordinator estimate.
    CurrentRelay,
    /// Lines 13 / 22–25: the awaited coordinator is suspected.
    NextSuspicion,
    /// Lines 15 / 28–29: a vote quorum arrived, no decisive one.
    NextChangeMind,
    /// Lines 17 / 31: a full `NEXT` quorum ends the round.
    NextEndOfRound,
}

impl SendId for HrSend {
    const ALL: &'static [Self] = &[
        HrSend::CurrentCoordinator,
        HrSend::CurrentRelay,
        HrSend::NextEndOfRound,
        HrSend::NextChangeMind,
        HrSend::NextSuspicion,
    ];

    fn id(self) -> &'static str {
        match self {
            HrSend::CurrentCoordinator => "current-coordinator",
            HrSend::CurrentRelay => "current-relay",
            HrSend::NextSuspicion => "next-suspicion",
            HrSend::NextChangeMind => "next-change-mind",
            HrSend::NextEndOfRound => "next-end-of-round",
        }
    }

    fn kind(self) -> Vote {
        match self {
            HrSend::CurrentCoordinator | HrSend::CurrentRelay => Vote::Current,
            HrSend::NextSuspicion | HrSend::NextChangeMind | HrSend::NextEndOfRound => Vote::Next,
        }
    }
}

/// What Hurfin–Raynal's round logic asks of its vote record.
pub trait Votes: Record {
    /// Records a CURRENT; `true` for the round's first, which lines 9 / 17
    /// adopt.
    fn current(&mut self, from: ProcessId, vote: &Ballot<'_, Self>, coord: ProcessId) -> bool;

    /// Records a NEXT.
    fn next(&mut self, from: ProcessId, vote: &Ballot<'_, Self>);

    /// `(nb_current, nb_next, |rec_from|)` for round `round`.
    fn counts(&self, round: Round) -> (usize, usize, usize);

    /// The decision, once a quorum of CURRENTs endorses the adopted
    /// estimate (lines 12 / 20–21).
    fn decision(&self, quorum: usize) -> Option<Decision<Self>>;

    /// The NEXT quorum that ends the round, as the next round's entry.
    fn end(&mut self) -> Entry<Self>;
}

/// Hurfin–Raynal's record of the round in progress; nothing outlives the
/// round. The automaton state (paper §4) is derived from it as §5.1 does:
/// `q0` before any CURRENT, `q1` after, `q2` once this process voted NEXT.
#[derive(Debug, Default)]
pub struct HurfinRaynal<V> {
    sent_next: bool,
    votes: V,
}

impl<V: Votes> HurfinRaynal<V> {
    /// Vote NEXT exactly once per round.
    fn vote_next(&mut self, row: HrSend, sh: &mut impl Shell<Self>) {
        debug_assert!(!self.sent_next, "double NEXT would convict us");
        self.sent_next = true;
        sh.emit(row, &mut self.votes);
    }

    /// The `upon` cascade evaluated after every vote.
    fn after_vote(&mut self, sh: &mut impl Shell<Self>) -> Step<V> {
        let (r, quorum) = (sh.round(), sh.quorum());
        let (currents, nexts, rec_from) = self.votes.counts(r);
        // Lines 15 / 28–29: change_mind — in q1, a quorum of voters heard,
        // neither a CURRENT quorum (that decides) nor a NEXT quorum.
        let q1 = !self.sent_next && currents > 0;
        if q1 && rec_from >= quorum && currents < quorum && nexts < quorum {
            self.vote_next(HrSend::NextChangeMind, sh);
        }
        // Lines 6, 16–17 / 14, 31: a NEXT quorum ends the round.
        if self.votes.counts(r).1 >= quorum {
            if !self.sent_next {
                self.vote_next(HrSend::NextEndOfRound, sh);
            }
            return Step::NextRound(self.votes.end());
        }
        Step::Stay
    }
}

impl<V: Votes> Rounds for HurfinRaynal<V> {
    const ID: ProtocolId = ProtocolId::HurfinRaynal;
    type Send = HrSend;
    type Votes = V;

    /// Lines 4 / 11: the round's variables start afresh.
    fn open_round(&mut self, sh: &mut impl Shell<Self>) {
        *self = HurfinRaynal::default();
        if sh.me() == sh.coordinator() {
            // Lines 5 / 12: the coordinator proposes its estimate.
            sh.emit(HrSend::CurrentCoordinator, &mut self.votes);
        }
    }

    fn on_vote(
        &mut self,
        from: ProcessId,
        vote: Ballot<'_, V>,
        sh: &mut impl Shell<Self>,
    ) -> Step<V> {
        match <V::Model as Model>::kind(&vote) {
            MessageKind::Current => {
                let coord = sh.coordinator();
                if self.votes.current(from, &vote, coord) {
                    // Lines 9 / 17: adopt the round's first CURRENT, in any
                    // state; lines 10 / 18–19: q0 → q1, relaying it unless
                    // coordinator.
                    sh.adopt(&vote);
                    if !self.sent_next && sh.me() != coord {
                        sh.emit(HrSend::CurrentRelay, &mut self.votes);
                    }
                }
                if let Some(decision) = self.votes.decision(sh.quorum()) {
                    return Step::Decide(decision);
                }
            }
            // Lines 14 / 26–27.
            MessageKind::Next => self.votes.next(from, &vote),
            // Chandra–Toueg kinds: no Hurfin–Raynal process sends them.
            _ => return Step::Stay,
        }
        self.after_vote(sh)
    }

    /// Lines 13 / 22's guard: still in `q0`.
    fn awaits_coordinator(&self, sh: &impl Shell<Self>) -> bool {
        !self.sent_next && self.votes.counts(sh.round()).0 == 0
    }

    fn on_suspicion(&mut self, sh: &mut impl Shell<Self>) -> Step<V> {
        self.vote_next(HrSend::NextSuspicion, sh);
        self.after_vote(sh)
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
