//! The per-peer observer automaton (paper Fig. 4), table-driven.
//!
//! `SM_p(q)` tracks what a correct `q` may send next over the FIFO channel
//! `q → p`. The *shape* of the automaton is per-protocol data — a
//! [`ProtocolTable`] names the opening kind (if any), the ordered per-round
//! send slots (each mandatory or optional), the terminal kind and the round
//! advance — while the transition logic ([`ProtocolTable::transition`]) is
//! generic: slots fire in order at most once per round, a round may only be
//! left once every remaining mandatory slot was sent, and rounds advance
//! `round_advance` at a time.
//!
//! The table is the single statement of a protocol's send discipline:
//! `ftm_core::spec::ProtocolSpec` holds one, and `ftm-verify` squeezes the
//! transition between an independent compliant-trace generator and every
//! single-divergence neighbour of those traces.
//!
//! For Hurfin–Raynal (slots `[CURRENT?, NEXT!]`) this instantiates to the
//! paper's Fig. 4:
//!
//! ```text
//! start ──INIT──▶ q0(r=1)
//! q0 ──CURRENT(r)──▶ q1      q0 ──NEXT(r)──▶ q2
//! q1 ──NEXT(r)──▶ q2         q2 ──msg(r+1)──▶ q0(r+1) (re-dispatched)
//! any ──DECIDE──▶ final
//! anything else ──▶ faulty   (terminal)
//! ```
//!
//! For Chandra–Toueg (slots `[ESTIMATE!, PROPOSE?, ACK?, NACK?]`) the same
//! logic yields a five-position round automaton in which a PROPOSE before
//! the sender's own ESTIMATE, or a round entered without one, convicts.
//!
//! The automaton checks *timing* (enabled receipt events); content and
//! certificate checks (`PF` predicates) are the
//! [`ftm_certify::CertChecker`]'s and [`crate::predicates`]'s job. The
//! receive pipeline, `ftm_core`'s `ModuleStack::admit`, runs the syntax
//! check before the transition and the certificate checks after it.

use std::fmt;

use ftm_certify::{CertifyError, Envelope, FaultClass, MessageKind, ProtocolId, Round};
use ftm_sim::ProcessId;

/// A protocol's send discipline, and thereby the shape of its observer
/// automaton: which kind (if any) opens a peer's lifetime, which kinds it
/// may send per round and in what order (each at most once; `true` marks a
/// mandatory slot), which kind terminates it, and how far a round advance
/// goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolTable {
    /// The protocol this table describes.
    pub protocol: ProtocolId,
    /// The kind that opens a peer's lifetime (sent first, exactly once).
    /// `None` for un-transformed crash-model protocols — the round-0
    /// vector-certification phase is what *adds* an opening — whose peers
    /// are observed from `q0` of round 1.
    pub opening: Option<MessageKind>,
    /// Ordered per-round send slots as `(kind, mandatory)`.
    pub slots: &'static [(MessageKind, bool)],
    /// The kind that terminates a peer's lifetime (relayable any time).
    pub terminal: MessageKind,
    /// How many rounds a correct process advances at a time.
    pub round_advance: Round,
}

static HR_TABLE: ProtocolTable = ProtocolTable {
    protocol: ProtocolId::HurfinRaynal,
    opening: Some(MessageKind::Init),
    slots: &[(MessageKind::Current, false), (MessageKind::Next, true)],
    terminal: MessageKind::Decide,
    round_advance: 1,
};

static CT_TABLE: ProtocolTable = ProtocolTable {
    protocol: ProtocolId::ChandraToueg,
    opening: Some(MessageKind::Init),
    slots: &[
        (MessageKind::Estimate, true),
        (MessageKind::Propose, false),
        (MessageKind::Ack, false),
        (MessageKind::Nack, false),
    ],
    terminal: MessageKind::Decide,
    round_advance: 1,
};

impl ProtocolTable {
    /// The transformed table of the given protocol (Fig. 4 for
    /// Hurfin–Raynal, coordinator-echo rounds for Chandra–Toueg).
    pub fn for_protocol(protocol: ProtocolId) -> &'static ProtocolTable {
        match protocol {
            ProtocolId::HurfinRaynal => &HR_TABLE,
            ProtocolId::ChandraToueg => &CT_TABLE,
        }
    }

    /// The `(phase, round)` a peer is observed from: `start` before the
    /// opening, or — nothing marks a crash peer's lifetime start — `q0` of
    /// round 1 for opening-less tables.
    pub fn initial(&self) -> (PeerPhase, Round) {
        match self.opening {
            Some(_) => (PeerPhase::Start, 0),
            None => (PeerPhase::InRound(0), 1),
        }
    }

    /// The wire alphabet: opening (if any), slot kinds in order, terminal.
    pub fn alphabet(&self) -> Vec<MessageKind> {
        self.opening
            .into_iter()
            .chain(self.slots.iter().map(|(k, _)| *k))
            .chain([self.terminal])
            .collect()
    }

    /// The slot index of `kind`, or `None` for non-slot kinds.
    pub fn slot_of(&self, kind: MessageKind) -> Option<usize> {
        self.slots.iter().position(|(k, _)| *k == kind)
    }

    /// `true` when a correct peer may leave the round from slot progress
    /// `pos`: every remaining slot is optional.
    pub fn advance_ready(&self, pos: usize) -> bool {
        self.slots[pos.min(self.slots.len())..]
            .iter()
            .all(|(_, mandatory)| !mandatory)
    }

    /// `true` when a vote may land on slot `j` directly from progress
    /// `from`: every slot in between is optional.
    pub fn entry_legal(&self, from: usize, j: usize) -> bool {
        self.slots[from..j].iter().all(|(_, mandatory)| !mandatory)
    }

    /// The first mandatory slot kind at or after `pos` (what a peer still
    /// owes the round before leaving it).
    pub fn first_mandatory_from(&self, pos: usize) -> Option<MessageKind> {
        self.slots[pos.min(self.slots.len())..]
            .iter()
            .find(|(_, mandatory)| *mandatory)
            .map(|(k, _)| *k)
    }
}

/// Observer-side phases of a peer, mirroring the protocol automaton's
/// states plus the observer-specific `start`, `final` and `faulty`.
///
/// `InRound(i)` means the peer is believed in-round with the first `i`
/// send slots passed; the paper's `q0`/`q1`/`q2` for Hurfin–Raynal are
/// `InRound(0)`/`InRound(1)`/`InRound(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PeerPhase {
    /// Nothing received yet; the opening kind is expected.
    Start,
    /// In a round with the first `i` send slots passed.
    InRound(usize),
    /// Decided (the terminal kind seen); nothing further may arrive.
    Final,
    /// Convicted: a fault was observed. Terminal.
    Faulty,
}

#[cfg(test)]
impl PeerPhase {
    /// The paper's `q0`: in-round, no vote seen yet.
    pub(crate) const Q0: PeerPhase = PeerPhase::InRound(0);
    /// The paper's `q1` (HR): voted CURRENT in this round.
    pub(crate) const Q1: PeerPhase = PeerPhase::InRound(1);
    /// The paper's `q2` (HR): voted NEXT in this round.
    pub(crate) const Q2: PeerPhase = PeerPhase::InRound(2);
}

impl fmt::Display for PeerPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerPhase::Start => f.write_str("start"),
            PeerPhase::InRound(i) => write!(f, "q{i}"),
            PeerPhase::Final => f.write_str("final"),
            PeerPhase::Faulty => f.write_str("faulty"),
        }
    }
}

/// What the automaton asks the observer to verify before committing a
/// transition (the `PF` predicate family to evaluate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requirement {
    /// Message is in-pattern for the current round; the standard
    /// per-kind certificate check suffices.
    Standard,
    /// Message opens round `new_round` for this peer: additionally check
    /// round-entry evidence ([`crate::predicates::round_entry_justified`]).
    RoundEntry(Round),
}

/// "duplicate {kind}" / "duplicate {kind} in one round" per kind, kept as
/// static strings so convictions stay allocation-free.
fn duplicate_reason(kind: MessageKind) -> &'static str {
    match kind {
        MessageKind::Init => "duplicate INIT",
        MessageKind::Current => "duplicate CURRENT in one round",
        MessageKind::Next => "duplicate NEXT in one round",
        MessageKind::Decide => "duplicate DECIDE in one round",
        MessageKind::Estimate => "duplicate ESTIMATE in one round",
        MessageKind::Propose => "duplicate PROPOSE in one round",
        MessageKind::Ack => "duplicate ACK in one round",
        MessageKind::Nack => "duplicate NACK in one round",
        // Unreachable in practice: checkpoints bypass the timing automaton
        // (they are slot-compaction metadata, not round votes).
        MessageKind::Checkpoint => "duplicate CHECKPOINT",
    }
}

/// "{kind} after {last}" for the realizable backwards-slot pairs.
fn order_reason(kind: MessageKind, last: MessageKind) -> &'static str {
    use MessageKind::{Ack, Current, Estimate, Nack, Next, Propose};
    match (kind, last) {
        (Current, Next) => "CURRENT after NEXT in one round",
        (Estimate, Propose) => "ESTIMATE after PROPOSE in one round",
        (Estimate, Ack) => "ESTIMATE after ACK in one round",
        (Estimate, Nack) => "ESTIMATE after NACK in one round",
        (Propose, Ack) => "PROPOSE after ACK in one round",
        (Propose, Nack) => "PROPOSE after NACK in one round",
        (Ack, Nack) => "ACK after NACK in one round",
        _ => "vote out of slot order in one round",
    }
}

/// "left round without sending {kind}" for the mandatory slot kinds.
fn left_round_reason(owed: MessageKind) -> &'static str {
    match owed {
        MessageKind::Next => "left round without sending NEXT",
        MessageKind::Estimate => "left round without sending ESTIMATE",
        _ => "left round without a mandatory vote",
    }
}

/// Same-round vote landing past an unsent mandatory slot.
fn skip_mandatory_reason(owed: MessageKind) -> &'static str {
    match owed {
        MessageKind::Estimate => "vote before the mandatory ESTIMATE in one round",
        MessageKind::Next => "vote before the mandatory NEXT in one round",
        _ => "vote skips a mandatory slot in one round",
    }
}

/// New round opened with a vote past an unsent mandatory slot.
fn entry_past_mandatory_reason(owed: MessageKind) -> &'static str {
    match owed {
        MessageKind::Estimate => "round entered without its mandatory ESTIMATE",
        MessageKind::Next => "round entered without its mandatory NEXT",
        _ => "round entered past a mandatory slot",
    }
}

impl ProtocolTable {
    /// The transition function of the observer automaton — the tree's only
    /// statement of Fig. 4. Classifies the receipt of a message of `kind`
    /// carrying round `r` by a peer believed in `(phase, round)`: an enabled
    /// receipt yields the next phase, the next believed round and the extra
    /// verification the observer must run before committing it.
    ///
    /// Pure in its five arguments, so `ftm-verify` can walk it over whole
    /// trace spaces without fabricating signed envelopes;
    /// [`PeerAutomaton::step`] is the stateful wrapper the runtime drives.
    ///
    /// # Errors
    ///
    /// The violated clause of the send discipline when the receipt is not
    /// enabled; the peer's next phase is then [`PeerPhase::Faulty`].
    ///
    /// # Panics
    ///
    /// Panics when `phase` is `InRound(i)` with `i` beyond the table's slot
    /// count — a phase this table's own transitions never produce.
    pub fn transition(
        &self,
        phase: PeerPhase,
        round: Round,
        kind: MessageKind,
        r: Round,
    ) -> Result<(PeerPhase, Round, Requirement), &'static str> {
        match phase {
            PeerPhase::Faulty => Err("message from an already convicted peer"),
            PeerPhase::Final => Err("message after DECIDE (halted process spoke)"),
            PeerPhase::Start => {
                if Some(kind) == self.opening {
                    Ok((PeerPhase::InRound(0), 1, Requirement::Standard))
                } else {
                    // A process that decides before sending the opening
                    // never ran the vector-certification phase — relayed
                    // DECIDEs are possible only after INIT, since the
                    // protocol starts with the INIT broadcast.
                    Err("first message is not INIT")
                }
            }
            PeerPhase::InRound(pos) => {
                if kind == self.terminal {
                    // The terminal kind is enabled from any in-round phase
                    // at any round (a process may relay a DECIDE it
                    // received any time, carrying the decider's round).
                    return Ok((PeerPhase::Final, round, Requirement::Standard));
                }
                if Some(kind) == self.opening {
                    return Err(duplicate_reason(kind));
                }
                let Some(j) = self.slot_of(kind) else {
                    // A kind the protocol's program text never produces.
                    return Err("message kind outside the protocol's alphabet");
                };
                if r < round {
                    return Err("message for a past round (replay or duplication)");
                }
                if r > round {
                    // FIFO: the peer left its round without our seeing
                    // every mandatory slot, or skipped ahead — correct
                    // processes advance `round_advance` at a time.
                    if !self.advance_ready(pos) {
                        // Not advance-ready implies an owed mandatory slot;
                        // if the table disagrees, the round exit itself is
                        // the violation.
                        let Some(owed) = self.first_mandatory_from(pos) else {
                            return Err("left the round against the slot table");
                        };
                        return Err(left_round_reason(owed));
                    }
                    if r != round + self.round_advance {
                        return Err("skipped a round");
                    }
                    if !self.entry_legal(0, j) {
                        let Some(owed) = self.first_mandatory_from(0) else {
                            return Err("entered the round against the slot table");
                        };
                        return Err(entry_past_mandatory_reason(owed));
                    }
                    // Round advance: re-enter the new round at slot j.
                    return Ok((PeerPhase::InRound(j + 1), r, Requirement::RoundEntry(r)));
                }
                // Same round: slots fire in order, at most once.
                if j < pos {
                    if j + 1 == pos {
                        return Err(duplicate_reason(kind));
                    }
                    let (last, _) = self.slots[pos - 1];
                    return Err(order_reason(kind, last));
                }
                if !self.entry_legal(pos, j) {
                    let Some(owed) = self.first_mandatory_from(pos) else {
                        return Err("skipped ahead against the slot table");
                    };
                    return Err(skip_mandatory_reason(owed));
                }
                Ok((PeerPhase::InRound(j + 1), round, Requirement::Standard))
            }
        }
    }
}

/// The timing automaton for one peer: [`ProtocolTable::transition`] plus
/// the `(phase, round)` it has reached.
///
/// # Example
///
/// ```
/// use ftm_certify::ProtocolId;
/// use ftm_detect::{PeerAutomaton, ProtocolTable};
/// use ftm_sim::ProcessId;
/// let table = ProtocolTable::for_protocol(ProtocolId::HurfinRaynal);
/// let a = PeerAutomaton::new_for(table, ProcessId(1));
/// assert!(!a.is_faulty());
/// assert_eq!(a.round(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct PeerAutomaton {
    peer: ProcessId,
    phase: PeerPhase,
    round: Round,
    table: &'static ProtocolTable,
}

impl PeerAutomaton {
    /// Creates the automaton in `table`'s initial state, before any
    /// receipt.
    pub fn new_for(table: &'static ProtocolTable, peer: ProcessId) -> Self {
        let (phase, round) = table.initial();
        PeerAutomaton {
            peer,
            phase,
            round,
            table,
        }
    }

    /// Current phase.
    #[cfg(test)]
    pub(crate) fn phase(&self) -> PeerPhase {
        self.phase
    }

    /// The round the peer is believed to be in (0 until its opening
    /// message arrives).
    pub fn round(&self) -> Round {
        self.round
    }

    /// Returns `true` once the peer is convicted.
    pub fn is_faulty(&self) -> bool {
        self.phase == PeerPhase::Faulty
    }

    /// Checks whether `env`'s receipt event is enabled, and advances the
    /// phase if so. Returns the extra verification the receiver must run
    /// (certificate predicates) — the receive pipeline calls this *after*
    /// the content checks passed, with `env` already trusted
    /// syntactically.
    ///
    /// # Errors
    ///
    /// An out-of-order receipt convicts the peer (phase becomes `Faulty`)
    /// and returns the classification.
    pub fn on_message(&mut self, env: &Envelope) -> Result<Requirement, CertifyError> {
        // Note: `env.sender()` normally equals `self.peer`; when the
        // signature module is ablated (experiment E8) the receiver routes
        // by the *claimed* sender, so an impersonator's messages land here
        // and frame the victim — which is the point of that experiment.
        self.step(env.kind(), env.round())
    }

    /// Applies [`ProtocolTable::transition`] to the receipt of a message of
    /// `kind` carrying round `r`.
    ///
    /// # Errors
    ///
    /// Same contract as [`PeerAutomaton::on_message`].
    pub fn step(&mut self, kind: MessageKind, r: Round) -> Result<Requirement, CertifyError> {
        match self.table.transition(self.phase, self.round, kind, r) {
            Ok((phase, round, requirement)) => {
                self.phase = phase;
                self.round = round;
                Ok(requirement)
            }
            Err(reason) => {
                self.phase = PeerPhase::Faulty;
                Err(CertifyError::new(self.peer, FaultClass::OutOfOrder, reason))
            }
        }
    }

    /// Convicts the peer from outside the timing rules (the receive
    /// pipeline calls this when any other check failed).
    pub fn convict(&mut self) {
        self.phase = PeerPhase::Faulty;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_certify::{Certificate, Core, ValueVector};
    use ftm_crypto::keydir::KeyDirectory;
    use ftm_crypto::rsa::KeyPair;

    fn keys() -> Vec<KeyPair> {
        let mut rng = ftm_crypto::rng_from_seed(71);
        KeyDirectory::generate(&mut rng, 4, 128).1
    }

    fn env(keys: &[KeyPair], sender: u32, core: Core) -> Envelope {
        Envelope::make(
            ProcessId(sender),
            core,
            Certificate::new(),
            &keys[sender as usize],
        )
    }

    fn vect() -> ValueVector {
        ValueVector::empty(4)
    }

    fn hr() -> &'static ProtocolTable {
        ProtocolTable::for_protocol(ProtocolId::HurfinRaynal)
    }

    fn ct() -> &'static ProtocolTable {
        ProtocolTable::for_protocol(ProtocolId::ChandraToueg)
    }

    fn hr_peer() -> PeerAutomaton {
        PeerAutomaton::new_for(hr(), ProcessId(1))
    }

    #[test]
    fn honest_round_sequence_is_accepted() {
        let ks = keys();
        let mut a = hr_peer();
        assert!(a.on_message(&env(&ks, 1, Core::Init { value: 1 })).is_ok());
        assert_eq!(a.phase(), PeerPhase::Q0);
        assert!(a
            .on_message(&env(
                &ks,
                1,
                Core::Current {
                    round: 1,
                    vector: vect()
                }
            ))
            .is_ok());
        assert_eq!(a.phase(), PeerPhase::Q1);
        assert!(a.on_message(&env(&ks, 1, Core::Next { round: 1 })).is_ok());
        assert_eq!(a.phase(), PeerPhase::Q2);
        // Round advance with a CURRENT(2) asks for round-entry evidence.
        let req = a
            .on_message(&env(
                &ks,
                1,
                Core::Current {
                    round: 2,
                    vector: vect(),
                },
            ))
            .unwrap();
        assert_eq!(req, Requirement::RoundEntry(2));
        assert_eq!(a.phase(), PeerPhase::Q1);
        assert_eq!(a.round(), 2);
        // Decide from q1.
        assert!(a
            .on_message(&env(
                &ks,
                1,
                Core::Decide {
                    round: 2,
                    vector: vect()
                }
            ))
            .is_ok());
        assert_eq!(a.phase(), PeerPhase::Final);
    }

    #[test]
    fn skipping_the_mandatory_next_is_caught() {
        let ks = keys();
        let mut a = hr_peer();
        a.on_message(&env(&ks, 1, Core::Init { value: 1 })).unwrap();
        a.on_message(&env(
            &ks,
            1,
            Core::Current {
                round: 1,
                vector: vect(),
            },
        ))
        .unwrap();
        // Jumps to round 2 from q1 — never sent NEXT(1).
        let err = a
            .on_message(&env(
                &ks,
                1,
                Core::Current {
                    round: 2,
                    vector: vect(),
                },
            ))
            .unwrap_err();
        assert!(err.reason.contains("without sending NEXT"));
        assert!(a.is_faulty());
    }

    #[test]
    fn duplicate_votes_are_caught() {
        let ks = keys();
        let mut a = hr_peer();
        a.on_message(&env(&ks, 1, Core::Init { value: 1 })).unwrap();
        a.on_message(&env(
            &ks,
            1,
            Core::Current {
                round: 1,
                vector: vect(),
            },
        ))
        .unwrap();
        let err = a
            .on_message(&env(
                &ks,
                1,
                Core::Current {
                    round: 1,
                    vector: vect(),
                },
            ))
            .unwrap_err();
        assert_eq!(err.class, FaultClass::OutOfOrder);
        assert!(err.reason.contains("duplicate CURRENT"));
    }

    #[test]
    fn duplicate_next_is_caught() {
        let ks = keys();
        let mut a = hr_peer();
        a.on_message(&env(&ks, 1, Core::Init { value: 1 })).unwrap();
        a.on_message(&env(&ks, 1, Core::Next { round: 1 })).unwrap();
        assert!(a.on_message(&env(&ks, 1, Core::Next { round: 1 })).is_err());
        assert!(a.is_faulty());
    }

    #[test]
    fn past_round_replay_is_caught() {
        let ks = keys();
        let mut a = hr_peer();
        a.on_message(&env(&ks, 1, Core::Init { value: 1 })).unwrap();
        a.on_message(&env(&ks, 1, Core::Next { round: 1 })).unwrap();
        a.on_message(&env(&ks, 1, Core::Next { round: 2 })).unwrap();
        let err = a
            .on_message(&env(&ks, 1, Core::Next { round: 1 }))
            .unwrap_err();
        assert!(err.reason.contains("past round"));
    }

    #[test]
    fn round_skip_is_caught() {
        let ks = keys();
        let mut a = hr_peer();
        a.on_message(&env(&ks, 1, Core::Init { value: 1 })).unwrap();
        a.on_message(&env(&ks, 1, Core::Next { round: 1 })).unwrap();
        let err = a
            .on_message(&env(&ks, 1, Core::Next { round: 3 }))
            .unwrap_err();
        assert!(err.reason.contains("skipped a round"));
    }

    #[test]
    fn missing_init_is_caught() {
        let ks = keys();
        let mut a = hr_peer();
        let err = a
            .on_message(&env(&ks, 1, Core::Next { round: 1 }))
            .unwrap_err();
        assert!(err.reason.contains("first message is not INIT"));
    }

    #[test]
    fn duplicate_init_is_caught() {
        let ks = keys();
        let mut a = hr_peer();
        a.on_message(&env(&ks, 1, Core::Init { value: 1 })).unwrap();
        assert!(a.on_message(&env(&ks, 1, Core::Init { value: 1 })).is_err());
    }

    #[test]
    fn speaking_after_decide_is_caught() {
        let ks = keys();
        let mut a = hr_peer();
        a.on_message(&env(&ks, 1, Core::Init { value: 1 })).unwrap();
        a.on_message(&env(
            &ks,
            1,
            Core::Decide {
                round: 1,
                vector: vect(),
            },
        ))
        .unwrap();
        let err = a
            .on_message(&env(&ks, 1, Core::Next { round: 1 }))
            .unwrap_err();
        assert!(err.reason.contains("after DECIDE"));
    }

    #[test]
    fn current_after_next_same_round_is_caught() {
        let ks = keys();
        let mut a = hr_peer();
        a.on_message(&env(&ks, 1, Core::Init { value: 1 })).unwrap();
        a.on_message(&env(&ks, 1, Core::Next { round: 1 })).unwrap();
        let err = a
            .on_message(&env(
                &ks,
                1,
                Core::Current {
                    round: 1,
                    vector: vect(),
                },
            ))
            .unwrap_err();
        assert!(err.reason.contains("CURRENT after NEXT"));
    }

    #[test]
    fn decide_received_in_final_is_caught() {
        // A second DECIDE after the first: the halted process spoke again.
        // Regression guard — DECIDE is enabled from every in-round phase,
        // so it is easy to accidentally enable it from Final too.
        let err = hr()
            .transition(PeerPhase::Final, 2, MessageKind::Decide, 2)
            .unwrap_err();
        assert!(err.contains("after DECIDE"));
        // The stateful wrapper turns the rejection into a conviction.
        let mut a = hr_peer();
        a.step(MessageKind::Init, 0).unwrap();
        a.step(MessageKind::Decide, 1).unwrap();
        let err = a.step(MessageKind::Decide, 1).unwrap_err();
        assert_eq!(err.class, FaultClass::OutOfOrder);
        assert!(a.is_faulty());
    }

    #[test]
    fn round_jump_at_q2_re_dispatches_next_into_q2() {
        // At q2(r), NEXT(r+1) is the round-advance path: the message must
        // be re-dispatched into the NEW round (landing in q2 again) and the
        // observer must be asked for round-entry evidence — not Standard.
        let next = hr().transition(PeerPhase::Q2, 3, MessageKind::Next, 4);
        assert_eq!(next, Ok((PeerPhase::Q2, 4, Requirement::RoundEntry(4))));
        // The advanced automaton keeps advancing: NEXT(5) is legal again.
        let next = hr().transition(PeerPhase::Q2, 4, MessageKind::Next, 5);
        assert_eq!(next, Ok((PeerPhase::Q2, 5, Requirement::RoundEntry(5))));
    }

    #[test]
    fn duplicate_current_in_q1_is_caught_at_the_transition_level() {
        // Same divergence as `duplicate_votes_are_caught`, but pinned at
        // the bare transition function: q1(r) + CURRENT(r) must convict
        // regardless of envelope plumbing.
        let err = hr()
            .transition(PeerPhase::Q1, 2, MessageKind::Current, 2)
            .unwrap_err();
        assert!(err.contains("duplicate CURRENT"));
    }

    #[test]
    fn convicted_peer_stays_convicted() {
        let ks = keys();
        let mut a = hr_peer();
        a.convict();
        assert!(a.is_faulty());
        assert!(a.on_message(&env(&ks, 1, Core::Init { value: 1 })).is_err());
    }

    #[test]
    fn foreign_kind_convicts() {
        // An HR observer receiving a CT vote: the program text of HR never
        // produces an ESTIMATE, so the sender is convicted on timing.
        let err = hr()
            .transition(PeerPhase::Q0, 1, MessageKind::Estimate, 1)
            .unwrap_err();
        assert!(err.contains("outside the protocol's alphabet"));
    }

    #[test]
    fn a_crash_table_is_observed_from_q0_of_round_one() {
        // No opening: nothing marks a crash peer's lifetime start, so the
        // observer begins mid-protocol and an honest round is clean.
        let crash = ProtocolTable {
            opening: None,
            ..*hr()
        };
        assert_eq!(crash.initial(), (PeerPhase::Q0, 1));
        assert!(!crash.alphabet().contains(&MessageKind::Init));
        let (mut phase, mut round) = crash.initial();
        for (kind, r) in [
            (MessageKind::Current, 1),
            (MessageKind::Next, 1),
            (MessageKind::Current, 2),
            (MessageKind::Decide, 2),
        ] {
            (phase, round, _) = crash
                .transition(phase, round, kind, r)
                .unwrap_or_else(|why| panic!("{kind}({r}) rejected in {phase}@{round}: {why}"));
        }
        assert_eq!((phase, round), (PeerPhase::Final, 2));
    }

    #[test]
    fn the_opening_is_inert_outside_start() {
        // Why the crash→Byzantine step needs no refinement walk: past
        // `start`, a table and its opening-less twin are one function, and
        // both reject the opening kind. Exhaustive over the bounded grid.
        const KINDS: [MessageKind; 9] = [
            MessageKind::Init,
            MessageKind::Current,
            MessageKind::Next,
            MessageKind::Decide,
            MessageKind::Estimate,
            MessageKind::Propose,
            MessageKind::Ack,
            MessageKind::Nack,
            MessageKind::Checkpoint,
        ];
        for t in [hr(), ct()] {
            let c = ProtocolTable {
                opening: None,
                ..*t
            };
            let phases = (0..=t.slots.len())
                .map(PeerPhase::InRound)
                .chain([PeerPhase::Final, PeerPhase::Faulty]);
            for phase in phases {
                for round in 1..=3 {
                    for kind in KINDS {
                        for r in 0..=round + 2 {
                            let with = t.transition(phase, round, kind, r);
                            let without = c.transition(phase, round, kind, r);
                            if Some(kind) == t.opening {
                                assert!(
                                    with.is_err() && without.is_err(),
                                    "{kind}({r}) in {phase}@{round}"
                                );
                            } else {
                                assert_eq!(with, without, "{kind}({r}) in {phase}@{round}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_round_advance_is_the_tables() {
        let by_two = ProtocolTable {
            round_advance: 2,
            ..*hr()
        };
        let after_next_1 = by_two
            .transition(PeerPhase::Q0, 1, MessageKind::Next, 1)
            .unwrap();
        assert_eq!(after_next_1, (PeerPhase::Q2, 1, Requirement::Standard));
        assert_eq!(
            by_two.transition(PeerPhase::Q2, 1, MessageKind::Next, 3),
            Ok((PeerPhase::Q2, 3, Requirement::RoundEntry(3)))
        );
        assert_eq!(
            by_two.transition(PeerPhase::Q2, 1, MessageKind::Next, 2),
            Err("skipped a round")
        );
    }

    #[test]
    fn ct_honest_coordinator_round_is_accepted() {
        // Coordinator: ESTIMATE, PROPOSE, ACK, then advance into round 2.
        let mut a = PeerAutomaton::new_for(ct(), ProcessId(0));
        assert!(a.step(MessageKind::Init, 0).is_ok());
        assert_eq!(a.phase(), PeerPhase::InRound(0));
        assert_eq!(a.round(), 1);
        assert!(a.step(MessageKind::Estimate, 1).is_ok());
        assert_eq!(a.phase(), PeerPhase::InRound(1));
        assert!(a.step(MessageKind::Propose, 1).is_ok());
        assert_eq!(a.phase(), PeerPhase::InRound(2));
        assert!(a.step(MessageKind::Ack, 1).is_ok());
        assert_eq!(a.phase(), PeerPhase::InRound(3));
        let req = a.step(MessageKind::Estimate, 2).unwrap();
        assert_eq!(req, Requirement::RoundEntry(2));
        assert_eq!(a.phase(), PeerPhase::InRound(1));
        assert_eq!(a.round(), 2);
        assert!(a.step(MessageKind::Decide, 2).is_ok());
        assert_eq!(a.phase(), PeerPhase::Final);
    }

    /// Walks `ct()` from `q0` of round 1 over `votes`, returning the last
    /// verdict.
    fn ct_walk(
        votes: &[(MessageKind, Round)],
    ) -> Result<(PeerPhase, Round, Requirement), &'static str> {
        let (mut phase, mut round) = (PeerPhase::InRound(0), 1);
        let mut last = Err("empty walk");
        for &(kind, r) in votes {
            last = ct().transition(phase, round, kind, r);
            (phase, round, _) = last?;
        }
        last
    }

    #[test]
    fn ct_non_coordinator_skips_propose() {
        // A replica: ESTIMATE then ACK (slot 2) directly — PROPOSE is an
        // optional slot, so skipping it is legal.
        let (phase, ..) = ct_walk(&[(MessageKind::Estimate, 1), (MessageKind::Ack, 1)]).unwrap();
        assert_eq!(phase, PeerPhase::InRound(3));
    }

    #[test]
    fn ct_propose_before_estimate_convicts() {
        // The coordinator-echo discipline: even the coordinator opens with
        // its own ESTIMATE; a PROPOSE first skips the mandatory slot.
        let err = ct_walk(&[(MessageKind::Propose, 1)]).unwrap_err();
        assert!(err.contains("mandatory ESTIMATE"), "{err}");
    }

    #[test]
    fn ct_ack_after_nack_convicts() {
        let (phase, ..) = ct_walk(&[(MessageKind::Estimate, 1), (MessageKind::Nack, 1)]).unwrap();
        assert_eq!(phase, PeerPhase::InRound(4));
        let err = ct().transition(phase, 1, MessageKind::Ack, 1).unwrap_err();
        assert!(err.contains("ACK after NACK"), "{err}");
    }

    #[test]
    fn ct_round_left_without_estimate_convicts() {
        // A peer in q0 of round 1 jumping to round 2 never sent its
        // mandatory ESTIMATE(1).
        let err = ct_walk(&[(MessageKind::Estimate, 2)]).unwrap_err();
        assert!(err.contains("without sending ESTIMATE"), "{err}");
    }

    #[test]
    fn ct_round_entered_past_estimate_convicts() {
        // Advance-ready in round 1, but the first message of round 2 is an
        // ACK — the peer's own ESTIMATE(2) must come first (FIFO).
        let err = ct()
            .transition(PeerPhase::InRound(4), 1, MessageKind::Ack, 2)
            .unwrap_err();
        assert!(err.contains("without its mandatory ESTIMATE"), "{err}");
    }

    #[test]
    fn ct_duplicate_estimate_convicts() {
        let err = ct_walk(&[(MessageKind::Estimate, 1), (MessageKind::Estimate, 1)]).unwrap_err();
        assert!(err.contains("duplicate ESTIMATE"), "{err}");
    }

    #[test]
    fn table_helpers_expose_slot_structure() {
        let t = ct();
        assert_eq!(t.slot_of(MessageKind::Estimate), Some(0));
        assert_eq!(t.slot_of(MessageKind::Nack), Some(3));
        assert_eq!(t.slot_of(MessageKind::Current), None);
        assert!(!t.advance_ready(0));
        assert!(t.advance_ready(1));
        assert!(t.entry_legal(1, 3));
        assert!(!t.entry_legal(0, 1));
        assert_eq!(t.first_mandatory_from(0), Some(MessageKind::Estimate));
        assert_eq!(t.first_mandatory_from(1), None);
        assert_eq!(hr().slots.len(), 2);
        assert_eq!(t.initial(), (PeerPhase::Start, 0));
        assert_eq!(
            hr().alphabet(),
            [
                MessageKind::Init,
                MessageKind::Current,
                MessageKind::Next,
                MessageKind::Decide
            ]
        );
    }

    #[test]
    fn the_wire_alphabet_is_the_kinds_the_rule_table_audits() {
        use std::collections::BTreeSet;
        for p in ProtocolId::all() {
            let sent: BTreeSet<MessageKind> = ProtocolTable::for_protocol(p)
                .alphabet()
                .into_iter()
                .collect();
            let audited: BTreeSet<MessageKind> = ftm_certify::rules::certification_rules_for(p)
                .iter()
                .map(|rule| rule.kind)
                .collect();
            assert_eq!(sent, audited, "{p}");
        }
    }
}
