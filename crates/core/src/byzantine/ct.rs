//! The Chandra–Toueg round module: the crash-model ◇S protocol of
//! [`crate::crash::ct`] inside the same [shell](super::shell)
//! as the Hurfin–Raynal instance.
//!
//! The round discipline is CT's four-phase pattern, made auditable:
//!
//! 1. **ESTIMATE** — every process opens the round by broadcasting its
//!    certified estimate vector with the round in which it was adopted
//!    (`ts`); a `ts > 0` claim must quote the `ts`-round coordinator's
//!    signed `PROPOSE`, so freshness cannot be forged.
//! 2. **PROPOSE** — the round coordinator gathers `n − F` signed
//!    estimates, adopts a maximum-timestamp one, and broadcasts it with
//!    the estimate quorum as certificate (the analyzer re-derives the
//!    adoption rule).
//! 3. **ACK / NACK** — a process that sees the proposal echoes it with an
//!    `ACK` quoting the coordinator's *own signed* `PROPOSE` (the
//!    coordinator-echo discipline: one hop, no re-certification chain,
//!    unlike HR's relayed `CURRENT`s). A process that instead comes to
//!    suspect the coordinator (`suspected ∪ faulty`) broadcasts a
//!    structural `NACK`.
//! 4. **DECIDE** — `n − F` signed `ACK`s for one vector decide it; the
//!    shell's `DECIDE` relays that quorum as its certificate.
//!
//! A quorum of round-`r` `ACK/NACK` votes is the evidence that lets a
//! correct process open round `r + 1` (the CT analogue of HR's `NEXT`
//! portion). Messages are broadcast — every process audits every step,
//! exactly as in the transformed HR instance.

use std::collections::BTreeSet;

use ftm_certify::{
    Certificate, Certified, Core, MessageKind, ProtocolId, Round, SignedCore, ValueVector,
};
use ftm_sim::ProcessId;

use super::shell::{Rounds, SendId, Shell, Step, Vote};

/// The round-module rows of `ProtocolSpec::transformed_ct().sends`.
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

/// The adoption timestamp an ESTIMATE envelope claims.
fn ts_of(estimate: &Certified<'_>) -> Round {
    match estimate.core() {
        Core::Estimate { ts, .. } => *ts,
        _ => 0,
    }
}

/// Chandra–Toueg's record of the round in progress, plus the one item it
/// carries across rounds.
#[derive(Debug, Default)]
pub struct ChandraToueg {
    /// The coordinator's signed PROPOSE from the round the estimate was
    /// adopted in — carried by every later ESTIMATE so the timestamp is
    /// auditable.
    ts_backing: Option<SignedCore>,
    /// Round-`r` ESTIMATE envelopes, one per sender (coordinator input).
    estimates: Vec<Certified<'static>>,
    /// Round-`r` signed ACK/NACK items (the round's vote record; a quorum
    /// of distinct voters ends the round and certifies entry into `r+1`).
    vote_cert: Certificate,
    /// The round coordinator's signed PROPOSE, once seen.
    proposed: Option<SignedCore>,
    sent_propose: bool,
    /// Whether this process has sent its ACK or NACK for the round.
    voted: bool,
}

impl ChandraToueg {
    /// Phase 2: the coordinator adopts a maximum-timestamp estimate from
    /// its quorum and broadcasts the proposal, then echoes its own ACK.
    fn propose(&mut self, sh: &mut Shell<'_, '_, CtSend>) -> Step {
        debug_assert!(!self.sent_propose);
        let max_ts = self.estimates.iter().map(ts_of).max().unwrap_or(0);
        let Some(adopted) = self.estimates.iter().find(|e| ts_of(e) == max_ts) else {
            return Step::Stay; // propose() only fires on a nonempty estimate quorum
        };
        let Some(vector) = adopted.core().vector() else {
            return Step::Stay; // `estimates` holds only ESTIMATE envelopes
        };
        sh.adopt(vector.clone(), &adopted.cert);
        // The proposal's certificate: the estimate quorum (the analyzer
        // re-derives the max-ts adoption from it) plus the adopted
        // vector's INIT backing.
        let mut cert = sh.est_cert().clone();
        for e in &self.estimates {
            cert.insert(e.signed.clone());
        }
        self.sent_propose = true;
        let own = sh.emit(CtSend::ProposeCoordinator, cert);
        self.ts_backing = Some(own.clone());
        self.proposed = Some(own.clone());
        // Phase 3, coordinator side: echo the own proposal.
        self.cast(CtSend::AckEcho, Certificate::from_items([own]), sh)
    }

    /// Phase 3: sends this process's one vote of the round — an ACK whose
    /// certificate is exactly the coordinator's signed PROPOSE, or a bare
    /// NACK. The own signed vote joins `vote_cert` immediately.
    fn cast(&mut self, vote: CtSend, cert: Certificate, sh: &mut Shell<'_, '_, CtSend>) -> Step {
        debug_assert!(!self.voted);
        self.voted = true;
        self.vote_cert.insert(sh.emit(vote, cert));
        self.after_vote(sh)
    }

    /// The round-`r` ACK items endorsing exactly one vector, if any vector
    /// has reached a quorum of distinct ack senders.
    fn ack_quorum(&self, sh: &Shell<'_, '_, CtSend>) -> Option<(ValueVector, Certificate)> {
        let acks = || self.vote_cert.iter_kind_round(MessageKind::Ack, sh.round());
        if acks().count() < sh.quorum() {
            return None; // fewer ACK items than a quorum of senders needs
        }
        for vector in acks().filter_map(|i| i.core().core.vector()) {
            let matching = || acks().filter(|i| i.core().core.vector() == Some(vector));
            let senders: BTreeSet<ProcessId> = matching().map(SignedCore::sender).collect();
            if senders.len() >= sh.quorum() {
                return Some((vector.clone(), matching().cloned().collect()));
            }
        }
        None
    }

    /// Phase 4 checks after every recorded vote: decide on an ACK quorum,
    /// or advance the round once a full vote quorum shows it cannot decide
    /// at this process anymore.
    fn after_vote(&mut self, sh: &mut Shell<'_, '_, CtSend>) -> Step {
        if let Some((vector, matching)) = self.ack_quorum(sh) {
            return Step::Decide(vector, matching);
        }
        if self.vote_cert.ct_votes(sh.round()).len() >= sh.quorum() {
            return Step::NextRound(std::mem::take(&mut self.vote_cert));
        }
        Step::Stay
    }
}

impl Rounds for ChandraToueg {
    const ID: ProtocolId = ProtocolId::ChandraToueg;
    type Send = CtSend;

    /// Phase 1: the mandatory ESTIMATE broadcast.
    fn open_round(&mut self, sh: &mut Shell<'_, '_, CtSend>) {
        self.estimates.clear();
        self.proposed = None;
        self.sent_propose = false;
        self.voted = false;
        let mut cert = sh.est_cert().union(sh.entry_cert());
        if let Some(backing) = &self.ts_backing {
            cert.insert(backing.clone());
        }
        sh.emit(CtSend::EstimateRoundstart, cert);
    }

    fn on_vote(
        &mut self,
        from: ProcessId,
        env: Certified<'_>,
        sh: &mut Shell<'_, '_, CtSend>,
    ) -> Step {
        match env.core() {
            Core::Estimate { .. } => {
                if self.estimates.iter().any(|e| e.sender() == from) {
                    return Step::Stay; // the stack already convicts duplicates
                }
                self.estimates.push(env.into_owned());
                if sh.me() == sh.coordinator()
                    && !self.sent_propose
                    && self.estimates.len() >= sh.quorum()
                {
                    return self.propose(sh);
                }
                Step::Stay
            }
            Core::Propose { vector, .. } => {
                // The analyzer admitted it, so `from` is the coordinator.
                if self.proposed.is_none() {
                    self.proposed = Some(env.signed.clone());
                }
                if self.voted || sh.me() == sh.coordinator() {
                    return Step::Stay; // already voted (or it is our own echo)
                }
                // Adopt the proposal and echo it.
                sh.adopt(vector.clone(), &env.cert);
                self.ts_backing = Some(env.signed.clone());
                let propose = Certificate::from_items([env.signed.clone()]);
                self.cast(CtSend::AckEcho, propose, sh)
            }
            Core::Ack { .. } | Core::Nack { .. } => {
                self.vote_cert.insert(env.signed.clone());
                self.after_vote(sh)
            }
            _ => {
                // Hurfin–Raynal kinds: the observer convicts them as
                // outside Chandra–Toueg's alphabet before admission.
                debug_assert!(false, "CT stack admitted an HR-kind message");
                Step::Stay
            }
        }
    }

    /// CT's phase-3 escape hatch: still awaiting the proposal.
    fn awaits_coordinator(&self, sh: &Shell<'_, '_, CtSend>) -> bool {
        sh.me() != sh.coordinator() && self.proposed.is_none() && !self.voted
    }

    fn on_suspicion(&mut self, sh: &mut Shell<'_, '_, CtSend>) -> Step {
        self.cast(CtSend::NackSuspicion, Certificate::new(), sh)
    }
}
