//! The Hurfin–Raynal round module (paper Fig. 3, lines 11–31 minus the
//! gray-shaded machinery, which is the [shell](super::shell)).
//!
//! Line-number comments reference Fig. 3. What is left here is the
//! protocol's certificate design (§5.1): which signed votes a round
//! records, which of them justify each `CURRENT` and `NEXT`, and the
//! `state` / `change_mind` expressions over those certificates.

use ftm_certify::{Certificate, Certified, Core, MessageKind, ProtocolId, Round, SignedCore};
use ftm_sim::ProcessId;

use super::shell::{Rounds, SendId, Shell, Step, Vote};
use crate::transform::rules::{change_mind_from_certificates, state_from_certificates, PaperState};

/// The round-module rows of `ProtocolSpec::transformed().sends`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HrSend {
    /// Line 12: the coordinator proposes its certified vector.
    CurrentCoordinator,
    /// Lines 18–19: relay of the adopted coordinator vector.
    CurrentRelay,
    /// Lines 22–25: the awaited coordinator is suspected or faulty.
    NextSuspicion,
    /// Lines 28–29: a vote quorum arrived, no decisive one.
    NextChangeMind,
    /// Line 31: a full `NEXT` quorum ends the round.
    NextEndOfRound,
}

impl SendId for HrSend {
    const ALL: &'static [Self] = &[
        HrSend::CurrentCoordinator,
        HrSend::CurrentRelay,
        HrSend::NextSuspicion,
        HrSend::NextChangeMind,
        HrSend::NextEndOfRound,
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

/// Hurfin–Raynal's record of the round in progress. Nothing here outlives
/// a round: the `NEXT` quorum that ends it leaves as [`Step::NextRound`].
#[derive(Debug, Default)]
pub struct HurfinRaynal {
    current_cert: Certificate,
    next_cert: Certificate,
    /// The coordinator's signed CURRENT for this round, once seen
    /// (needed to certify relays, line 19).
    coord_core: Option<SignedCore>,
    sent_next: bool,
}

impl HurfinRaynal {
    /// The paper's certificate-derived state expression (§5.1) — asserted
    /// against the explicit flags at every use.
    fn derived_state(&self, r: Round) -> PaperState {
        state_from_certificates(
            self.current_cert.count(MessageKind::Current, r),
            self.sent_next,
        )
    }

    /// Vote NEXT exactly once per round; the own signed NEXT joins
    /// `next_cert` immediately, which *is* the paper's `state = q2`
    /// expressed over certificates.
    fn vote_next(&mut self, why: HrSend, cert: Certificate, sh: &mut Shell<'_, '_, HrSend>) {
        debug_assert!(!self.sent_next, "double NEXT would convict us");
        self.next_cert.insert(sh.emit(why, cert));
        self.sent_next = true;
        debug_assert_eq!(self.derived_state(sh.round()), PaperState::Q2);
    }

    /// CURRENT items in `current_cert` that endorse exactly `est_vect`.
    fn matching_current(&self, sh: &Shell<'_, '_, HrSend>) -> Certificate {
        Certificate::from_items(
            self.current_cert
                .iter_kind_round(MessageKind::Current, sh.round())
                .filter(|i| i.core().core.vector() == Some(sh.est_vect()))
                .cloned(),
        )
    }

    /// The `upon` cascade evaluated after every vote (change_mind, round
    /// end) — lines 28–31.
    fn after_vote(&mut self, sh: &mut Shell<'_, '_, HrSend>) -> Step {
        let r = sh.round();
        let currents = self.current_cert.count(MessageKind::Current, r);
        let nexts = self.next_cert.count(MessageKind::Next, r);
        let rec_from = self.current_cert.union(&self.next_cert).rec_from(r).len();
        // Lines 28–29: change_mind, expressed over certificates.
        if change_mind_from_certificates(currents, nexts, self.sent_next, rec_from, sh.quorum()) {
            sh.note(format!("change-mind r={r}"));
            let cert = self
                .current_cert
                .union(&self.next_cert)
                .union(sh.entry_cert());
            self.vote_next(HrSend::NextChangeMind, cert, sh);
        }
        // Line 14 exit + 31: a NEXT quorum ends the round.
        if self.next_cert.count(MessageKind::Next, r) >= sh.quorum() {
            if !self.sent_next {
                let cert = self.next_cert.union(sh.entry_cert());
                self.vote_next(HrSend::NextEndOfRound, cert, sh);
            }
            // "r is certified by next_cert before it is reset."
            return Step::NextRound(std::mem::take(&mut self.next_cert));
        }
        Step::Stay
    }
}

impl Rounds for HurfinRaynal {
    const ID: ProtocolId = ProtocolId::HurfinRaynal;
    type Send = HrSend;

    fn open_round(&mut self, sh: &mut Shell<'_, '_, HrSend>) {
        *self = HurfinRaynal::default();
        debug_assert_eq!(self.derived_state(sh.round()), PaperState::Q0);
        if sh.me() == sh.coordinator() {
            // Line 12: the coordinator proposes its certified vector,
            // certified by est_cert ∪ next_cert (entry evidence).
            let cert = sh.est_cert().union(sh.entry_cert());
            sh.emit(HrSend::CurrentCoordinator, cert);
        }
    }

    fn on_vote(
        &mut self,
        from: ProcessId,
        env: Certified<'_>,
        sh: &mut Shell<'_, '_, HrSend>,
    ) -> Step {
        let r = sh.round();
        match env.core() {
            Core::Current { vector, .. } => {
                let was_empty = self.current_cert.count(MessageKind::Current, r) == 0;
                self.current_cert.insert(env.signed.clone());
                if was_empty {
                    // Line 17: adopt the first CURRENT's vector and the
                    // INIT backing from its certificate.
                    sh.adopt(vector.clone(), &env.cert);
                    let coord = sh.coordinator();
                    self.coord_core = if from == coord {
                        Some(env.signed.clone())
                    } else {
                        env.cert.find_current(coord, r, vector).cloned()
                    };
                    debug_assert!(self.coord_core.is_some(), "analyzer guarantees backing");
                    // Lines 18–19: q0 → q1 with a certified relay.
                    if !self.sent_next && sh.me() != coord {
                        let mut cert = sh.est_cert().clone();
                        if let Some(cc) = &self.coord_core {
                            cert.insert(cc.clone());
                        }
                        sh.emit(HrSend::CurrentRelay, cert);
                    }
                    debug_assert_ne!(self.derived_state(r), PaperState::Q0);
                }
                // Lines 20–21: a quorum endorsing our vector decides.
                let matching = self.matching_current(sh);
                if matching.count(MessageKind::Current, r) >= sh.quorum() {
                    return Step::Decide(sh.est_vect().clone(), matching);
                }
                self.after_vote(sh)
            }
            Core::Next { .. } => {
                // Lines 26–27.
                self.next_cert.insert(env.signed.clone());
                self.after_vote(sh)
            }
            _ => {
                // Chandra–Toueg kinds: the observer convicts them as
                // outside Hurfin–Raynal's alphabet before admission.
                debug_assert!(false, "HR stack admitted a CT-kind message");
                Step::Stay
            }
        }
    }

    fn awaits_coordinator(&self, sh: &Shell<'_, '_, HrSend>) -> bool {
        self.derived_state(sh.round()) == PaperState::Q0
    }

    fn on_suspicion(&mut self, sh: &mut Shell<'_, '_, HrSend>) -> Step {
        let cert = self
            .current_cert
            .union(&self.next_cert)
            .union(sh.est_cert())
            .union(sh.entry_cert());
        self.vote_next(HrSend::NextSuspicion, cert, sh);
        self.after_vote(sh)
    }
}
