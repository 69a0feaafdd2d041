//! The Chandra–Toueg round module — a second member of the "regular
//! round-based" class the paper's methodology targets — in either model.
//!
//! Every round has the same four phases (coordinator `c = (r−1) mod n`):
//!
//! 1. **Estimate** — everyone sends its estimate with the round it was
//!    adopted in (`ts`); once transformed a `ts > 0` claim quotes the
//!    `ts`-round coordinator's signed `PROPOSE`;
//! 2. **Propose** — the coordinator adopts a maximum-timestamp estimate
//!    among a quorum and broadcasts it;
//! 3. **Ack/Nack** — each process waits for the proposal or a suspicion of
//!    the coordinator, replying ACK (adopting the proposal) or NACK;
//! 4. **Decide** — a quorum of ACKs for one value decides it; the shell's
//!    DECIDE relay is the reliable-broadcast echo.
//!
//! The vote record supplies what differs between the models: which
//! maximum-timestamp estimate wins, whether duplicates count, and when a
//! round is over — in the crash model a non-coordinator hears no votes, so
//! its own ACK or NACK ends its round; once transformed a quorum of
//! round-`r` ACK/NACK votes does, and certifies entry into round `r + 1`.

use ftm_certify::{MessageKind, ProtocolId, Round};
use ftm_sim::ProcessId;

use super::{Ballot, Decision, Entry, Model, Record, Rounds, SendId, Shell, Step, Vote};

/// The round-module rows of Chandra–Toueg's `ProtocolSpec::sends`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtSend {
    /// Phase 1: the mandatory round-opening estimate.
    EstimateRoundstart,
    /// Phase 2: the coordinator's proposal.
    ProposeCoordinator,
    /// Phase 3: echo of the coordinator's proposal.
    AckEcho,
    /// Phase 3, negative branch: the awaited coordinator is suspected.
    NackSuspicion,
}

impl SendId for CtSend {
    const ALL: &'static [Self] = &[
        CtSend::EstimateRoundstart,
        CtSend::ProposeCoordinator,
        CtSend::AckEcho,
        CtSend::NackSuspicion,
    ];

    fn id(self) -> &'static str {
        match self {
            CtSend::EstimateRoundstart => "estimate-roundstart",
            CtSend::ProposeCoordinator => "propose-coordinator",
            CtSend::AckEcho => "ack-echo",
            CtSend::NackSuspicion => "nack-suspicion",
        }
    }

    fn kind(self) -> Vote {
        match self {
            CtSend::EstimateRoundstart => Vote::Estimate,
            CtSend::ProposeCoordinator => Vote::Propose,
            CtSend::AckEcho => Vote::Ack,
            CtSend::NackSuspicion => Vote::Nack,
        }
    }
}

/// What Chandra–Toueg's round logic asks of its vote record.
pub trait Votes: Record {
    /// A round opens: forget the last round's votes.
    fn open(&mut self);

    /// Records an ESTIMATE; returns how many the round holds.
    fn estimate(&mut self, from: ProcessId, vote: Ballot<'_, Self>) -> usize;

    /// A maximum-timestamp estimate among those recorded (phase 2).
    fn freshest(&self) -> Option<&Ballot<'static, Self>>;

    /// Records the coordinator's PROPOSE, an ACK or a NACK.
    fn vote(&mut self, from: ProcessId, vote: &Ballot<'_, Self>);

    /// The decision, once a quorum of ACKs endorses one value.
    fn decision(&self, round: Round, quorum: usize) -> Option<Decision<Self>>;

    /// The round's end, once its votes show it cannot decide here anymore.
    fn end(&mut self, round: Round, quorum: usize) -> Option<Entry<Self>>;
}

/// Chandra–Toueg's record of the round in progress.
#[derive(Debug, Default)]
pub struct ChandraToueg<V> {
    /// Whether this process has cast its ACK or NACK for the round (the
    /// coordinator casts its ACK as it proposes).
    voted: bool,
    votes: V,
}

impl<V: Votes> ChandraToueg<V> {
    /// Phase 3: this process's one vote of the round.
    fn cast(&mut self, row: CtSend, sh: &mut impl Shell<Self>) -> Step<V> {
        debug_assert!(!self.voted);
        self.voted = true;
        sh.emit(row, &mut self.votes);
        self.after_vote(sh)
    }

    /// Phase 4 after every recorded vote: decide on an ACK quorum, or move
    /// on once the round cannot decide here anymore.
    fn after_vote(&mut self, sh: &mut impl Shell<Self>) -> Step<V> {
        let (r, quorum) = (sh.round(), sh.quorum());
        if let Some(decision) = self.votes.decision(r, quorum) {
            return Step::Decide(decision);
        }
        self.votes
            .end(r, quorum)
            .map_or(Step::Stay, Step::NextRound)
    }
}

impl<V: Votes> Rounds for ChandraToueg<V> {
    const ID: ProtocolId = ProtocolId::ChandraToueg;
    type Send = CtSend;
    type Votes = V;

    /// Phase 1: everyone, coordinator included, sends its estimate.
    fn open_round(&mut self, sh: &mut impl Shell<Self>) {
        self.voted = false;
        self.votes.open();
        sh.emit(CtSend::EstimateRoundstart, &mut self.votes);
    }

    fn on_vote(
        &mut self,
        from: ProcessId,
        vote: Ballot<'_, V>,
        sh: &mut impl Shell<Self>,
    ) -> Step<V> {
        let coordinator = sh.me() == sh.coordinator();
        match <V::Model as Model>::kind(&vote) {
            MessageKind::Estimate => {
                let estimates = self.votes.estimate(from, vote);
                if !coordinator || self.voted || estimates < sh.quorum() {
                    return Step::Stay;
                }
                // Phase 2: adopt a maximum-timestamp estimate of the quorum,
                // propose it, then acknowledge the own proposal.
                let Some(freshest) = self.votes.freshest() else {
                    return Step::Stay;
                };
                sh.adopt(freshest);
                sh.emit(CtSend::ProposeCoordinator, &mut self.votes);
                self.cast(CtSend::AckEcho, sh)
            }
            kind @ (MessageKind::Propose | MessageKind::Ack | MessageKind::Nack) => {
                self.votes.vote(from, &vote);
                if kind == MessageKind::Propose && !self.voted && !coordinator {
                    // Phase 3: adopt the proposal and echo it.
                    sh.adopt(&vote);
                    return self.cast(CtSend::AckEcho, sh);
                }
                self.after_vote(sh)
            }
            // Hurfin–Raynal kinds: no Chandra–Toueg process sends them.
            _ => Step::Stay,
        }
    }

    /// Phase 3's escape hatch is open while awaiting the proposal.
    fn awaits_coordinator(&self, sh: &impl Shell<Self>) -> bool {
        sh.me() != sh.coordinator() && !self.voted
    }

    fn on_suspicion(&mut self, sh: &mut impl Shell<Self>) -> Step<V> {
        self.cast(CtSend::NackSuspicion, sh)
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
