//! The certification-rule table, read at both ends.
//!
//! The paper's §5 discipline is that every *conditional send* of the
//! protocol has a certification rule letting receivers re-derive the
//! enabling condition from the attached certificate. A [`RuleInfo`] *is*
//! such a rule, stated once as data: the send condition, and the
//! [`Edge`]s of evidence behind it. The two ends of a message read the
//! same row:
//!
//! * the **sender** attaches what the edges cite — `ftm_core::spec` reads
//!   each row's edges as its send's justification, and the transformed
//!   shell assembles the certificate by walking them;
//! * the **receiver** re-derives what the edges state — which senders'
//!   votes count ([`Votes`]), the value relation ([`Relation`]) and the
//!   conviction text ([`Checked`]) — through one interpreter,
//!   `CertChecker::check_row`, reached only through
//!   [`CertChecker::rule_for`]'s walk over the table.
//!
//! Three checks stay hand-written, and the table names where each one
//! runs: vector certification's INIT witnesses
//! ([`Checked::InitWitnesses`], [`CertChecker::init_portion_well_formed`]),
//! the checkpoint digest comparison ([`Checked::CheckpointDigest`]), and
//! the syntax and signature passes every envelope clears before any row
//! ([`CertChecker::check_envelope`]). One edge is carried but read by
//! no row: [`Checked::OnRoundEntry`] marks it.
//!
//! The rows double as the obligation table of the crash→Byzantine
//! transformation: `ftm_core::spec` builds each protocol's send table from
//! [`certification_rules_for`], so a send without a rule, or a rule
//! without a send, has no spelling.
//!
//! [`CertChecker::rule_for`]: crate::analyzer::CertChecker::rule_for
//! [`CertChecker::init_portion_well_formed`]: crate::analyzer::CertChecker::init_portion_well_formed
//! [`CertChecker::check_envelope`]: crate::analyzer::CertChecker::check_envelope

use std::fmt;

use crate::message::{MessageKind, ProtocolId};

/// One certification rule: the send condition of a conditional send and
/// the evidence that justifies it, as a row of the table.
///
/// Rows exist only as the `static`s of this module, so two rules are
/// equal exactly when they are the same row.
pub struct RuleInfo {
    /// Stable identifier, the one reports and `ftm_core::spec` print.
    pub id: &'static str,
    /// The id of the conditional send this row certifies — the rule id,
    /// but for the two sends whose rule is named after its evidence
    /// (`init-broadcast`, `decide-announce`).
    pub send: &'static str,
    /// The message kind the send signs and the rule audits.
    pub kind: MessageKind,
    /// The enabling condition as the crash protocol's figure states it;
    /// the transformation rewords it.
    pub condition: &'static str,
    /// A clause over the certificate as a whole, checked first.
    pub clause: Clause,
    /// What selects this row among its kind's rows, beyond its edges.
    pub select: Select,
    /// The evidence the send carries, one edge per requirement, in the
    /// order the sender attaches it.
    pub edges: &'static [Edge],
    /// The conviction text when this row's selection fails: set on the
    /// row [`CertChecker::rule_for`] tries last for its kind, which owns
    /// the reject. `None` means "try the next row".
    ///
    /// [`CertChecker::rule_for`]: crate::analyzer::CertChecker::rule_for
    pub reject: Option<&'static str>,
}

impl PartialEq for RuleInfo {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
    }
}

impl Eq for RuleInfo {}

impl fmt::Debug for RuleInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RuleInfo({} {})", self.kind, self.id)
    }
}

/// A clause over the whole certificate, checked before anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clause {
    /// None.
    None,
    /// The certificate is empty, or the reason convicts.
    Empty(&'static str),
    /// No member comes from a round after the envelope's own — that would
    /// be a vote the sender cannot have received — or the reason convicts.
    NoFutureItems(&'static str),
}

/// What selects a row among the rows of its kind. A failing selector
/// sends the walk to the next row, or convicts with the row's `reject`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Select {
    /// Every envelope of the kind.
    Any,
    /// The sender is the round's coordinator, `coordinator(r)`.
    Coordinator,
    /// The sender is not the round's coordinator.
    NotCoordinator,
    /// The certificate holds no vote of this kind for the envelope's round.
    NoVotes(MessageKind),
    /// The certificate holds votes of this kind for the envelope's round
    /// from at least one and fewer than `n − F` distinct senders.
    SomeVotes(MessageKind),
}

/// When the evidence behind an edge was produced, relative to the round
/// of the send it justifies.
///
/// The distinction keeps the justification graph well-founded: a cycle is
/// only vicious when every edge on it is [`EvidencePhase::SameRound`] —
/// `PrevRound` evidence strictly decreases the round and `Initial`
/// evidence bottoms out at the round-0 vector-certification phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EvidencePhase {
    /// Round-0 evidence: signed initial-value broadcasts.
    Initial,
    /// Evidence from an earlier round (e.g. the `NEXT(r−1)` quorum that
    /// witnesses entry into round `r`).
    PrevRound,
    /// Evidence from the same round the send belongs to.
    SameRound,
}

impl EvidencePhase {
    /// Stable kebab-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            EvidencePhase::Initial => "initial",
            EvidencePhase::PrevRound => "prev-round",
            EvidencePhase::SameRound => "same-round",
        }
    }
}

/// One conditional send an edge cites, and the kind it signs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cite {
    /// The cited send's id (a row's [`RuleInfo::send`]).
    pub by: &'static str,
    /// The kind that send signs.
    pub kind: MessageKind,
}

/// Which senders' votes an edge counts, and how many it needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Votes {
    /// One vote: the round coordinator's, `coordinator(r)` — the vote the
    /// sender adopted its vector from.
    Coordinator,
    /// One vote: `coordinator(ts)`'s, at round `ts` (not `r − 1`), where
    /// `ts` is the adoption round an ESTIMATE claims; nothing when
    /// `ts = 0`.
    TsCoordinator,
    /// `n − F` distinct senders over all the kinds the edge cites — a
    /// process counts once whatever it signed; nothing at round 1 for
    /// previous-round evidence.
    Quorum,
}

/// How the cited votes relate to the value the envelope carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// None: votes count whatever they carry.
    None,
    /// Only votes for the envelope's own vector count.
    SameVector,
    /// Votes count whatever they carry; then the envelope's vector must be
    /// that of a maximum-timestamp ESTIMATE among them (CT's adoption
    /// rule), or the reason convicts.
    MaxTimestamp(&'static str),
}

/// Who re-derives an edge, and what a shortfall means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checked {
    /// The row: a shortfall convicts the sender with the reason.
    Requires(&'static str),
    /// The row: a shortfall means the envelope's send condition is not
    /// this row's.
    Selects,
    /// Vector certification's INIT witnesses, hand-written:
    /// [`CertChecker::init_portion_well_formed`].
    ///
    /// [`CertChecker::init_portion_well_formed`]: crate::analyzer::CertChecker::init_portion_well_formed
    InitWitnesses,
    /// The checkpoint digest comparison, hand-written: a quorum of the
    /// protocol's decide-votes over one round and one vector whose digest
    /// is the one claimed ([`crate::checkpoint::checkpoint_digest`]).
    CheckpointDigest,
    /// Not the row: the observer, on the sender's first vote of a round
    /// (`ftm_detect::predicates::round_entry_justified`). The row reading
    /// it would change verdicts.
    OnRoundEntry,
}

/// One requirement of a row: the sends it cites, when their evidence was
/// produced, and what the receiver re-derives from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The cited sends; a quorum is counted over all of them together.
    pub cites: &'static [Cite],
    /// When the cited evidence was produced.
    pub phase: EvidencePhase,
    /// Whose votes count, and how many.
    pub votes: Votes,
    /// The value relation.
    pub value: Relation,
    /// Who checks it.
    pub checked: Checked,
}

/// The certification-rule table of the given transformed protocol, in the
/// order [`CertChecker::rule_for`] tries the rows, which is also the order
/// of the protocol's send table. Rows of one kind are ordered most
/// demanding first, and the last of them owns the reject.
///
/// # Example
///
/// ```
/// use ftm_certify::rules::certification_rules_for;
/// use ftm_certify::{MessageKind, ProtocolId};
/// let next_rules: Vec<_> = certification_rules_for(ProtocolId::HurfinRaynal)
///     .iter()
///     .filter(|r| r.kind == MessageKind::Next)
///     .collect();
/// assert_eq!(next_rules.len(), 3); // end-of-round, change-mind, suspicion
/// ```
///
/// [`CertChecker::rule_for`]: crate::analyzer::CertChecker::rule_for
pub fn certification_rules_for(protocol: ProtocolId) -> &'static [&'static RuleInfo] {
    match protocol {
        ProtocolId::HurfinRaynal => &HR_RULES,
        ProtocolId::ChandraToueg => &CT_RULES,
    }
}

static HR_RULES: [&RuleInfo; 7] = [
    &INIT_EMPTY,
    &CURRENT_COORDINATOR,
    &CURRENT_RELAY,
    &NEXT_END_OF_ROUND,
    &NEXT_CHANGE_MIND,
    &NEXT_SUSPICION,
    &DECIDE_CURRENT_QUORUM,
];

static CT_RULES: [&RuleInfo; 6] = [
    &INIT_EMPTY,
    &ESTIMATE_ROUNDSTART,
    &PROPOSE_COORDINATOR,
    &ACK_ECHO,
    &NACK_SUSPICION,
    &DECIDE_ACK_QUORUM,
];

const fn cite(by: &'static str, kind: MessageKind) -> Cite {
    Cite { by, kind }
}

const CURRENT_VOTES: [Cite; 2] = [
    cite("current-coordinator", MessageKind::Current),
    cite("current-relay", MessageKind::Current),
];

const NEXT_VOTES: [Cite; 3] = [
    cite("next-suspicion", MessageKind::Next),
    cite("next-change-mind", MessageKind::Next),
    cite("next-end-of-round", MessageKind::Next),
];

/// §5.1's `est_cert`: the vector's entries witnessed by signed INITs.
const INIT_WITNESSES: Edge = Edge {
    cites: &[cite("init-broadcast", MessageKind::Init)],
    phase: EvidencePhase::Initial,
    votes: Votes::Quorum,
    value: Relation::SameVector,
    checked: Checked::InitWitnesses,
};

/// A `NEXT(r − 1)` quorum: HR's round-entry evidence.
const fn next_entry(checked: Checked) -> Edge {
    Edge {
        cites: &NEXT_VOTES,
        phase: EvidencePhase::PrevRound,
        votes: Votes::Quorum,
        value: Relation::None,
        checked,
    }
}

/// The shared no-future-items clause of the three NEXT rows.
const NEXT_CLAUSE: Clause =
    Clause::NoFutureItems("NEXT certificate contains items from a future round");

/// `init-empty`, shared by both protocols: initial values are vouched by
/// vector certification, not certificates.
pub static INIT_EMPTY: RuleInfo = RuleInfo {
    id: "init-empty",
    send: "init-broadcast",
    kind: MessageKind::Init,
    condition: "protocol start: broadcast the signed initial value",
    clause: Clause::Empty("INIT must carry an empty certificate"),
    select: Select::Any,
    edges: &[],
    reject: None,
};

/// `current-coordinator` (HR): the coordinator's CURRENT witnesses its
/// vector and its entry into round `r`.
pub static CURRENT_COORDINATOR: RuleInfo = RuleInfo {
    id: "current-coordinator",
    send: "current-coordinator",
    kind: MessageKind::Current,
    condition: "round-r coordinator entered r with its estimate",
    clause: Clause::None,
    select: Select::Coordinator,
    edges: &[
        INIT_WITNESSES,
        next_entry(Checked::Requires(
            "round entry lacks n−F signed NEXT votes for the previous round",
        )),
    ],
    reject: None,
};

/// `current-relay` (HR): a relayer witnesses the vector and shows the
/// coordinator's own CURRENT for it (no substituted message).
pub static CURRENT_RELAY: RuleInfo = RuleInfo {
    id: "current-relay",
    send: "current-relay",
    kind: MessageKind::Current,
    condition: "received the round-r coordinator's CURRENT and adopted it",
    clause: Clause::None,
    select: Select::NotCoordinator,
    edges: &[
        INIT_WITNESSES,
        Edge {
            cites: &[cite("current-coordinator", MessageKind::Current)],
            phase: EvidencePhase::SameRound,
            votes: Votes::Coordinator,
            value: Relation::SameVector,
            checked: Checked::Requires(
                "relayed CURRENT lacks the coordinator's signed CURRENT for this vector",
            ),
        },
    ],
    reject: None,
};

/// `next-suspicion` (HR), from q0: the suspicion itself is local and
/// cannot be audited, so the row asks for no CURRENT claim. It carries
/// its round entry, which the observer checks on the sender's first vote
/// of the round. Tried last among the NEXT rows, it owns their reject.
pub static NEXT_SUSPICION: RuleInfo = RuleInfo {
    id: "next-suspicion",
    send: "next-suspicion",
    kind: MessageKind::Next,
    condition: "in q0, the crash detector suspects the round coordinator",
    clause: NEXT_CLAUSE,
    select: Select::NoVotes(MessageKind::Current),
    edges: &[next_entry(Checked::OnRoundEntry)],
    reject: Some("NEXT certificate matches no legal send condition"),
};

/// `next-change-mind` (HR), in q1: at least one CURRENT seen and a quorum
/// of the round's votes, whichever row cast them, but neither a CURRENT
/// quorum nor (the row tried before) a NEXT quorum.
pub static NEXT_CHANGE_MIND: RuleInfo = RuleInfo {
    id: "next-change-mind",
    send: "next-change-mind",
    kind: MessageKind::Next,
    condition: "in q1, a majority of votes arrived but no decisive majority",
    clause: NEXT_CLAUSE,
    select: Select::SomeVotes(MessageKind::Current),
    edges: &[Edge {
        cites: &[
            CURRENT_VOTES[0],
            CURRENT_VOTES[1],
            NEXT_VOTES[0],
            NEXT_VOTES[1],
            NEXT_VOTES[2],
        ],
        phase: EvidencePhase::SameRound,
        votes: Votes::Quorum,
        value: Relation::None,
        checked: Checked::Selects,
    }],
    reject: None,
};

/// `next-end-of-round` (HR): a full quorum of the round's NEXT votes.
pub static NEXT_END_OF_ROUND: RuleInfo = RuleInfo {
    id: "next-end-of-round",
    send: "next-end-of-round",
    kind: MessageKind::Next,
    condition: "a full NEXT majority for the round was observed",
    clause: NEXT_CLAUSE,
    select: Select::Any,
    edges: &[Edge {
        cites: &NEXT_VOTES,
        phase: EvidencePhase::SameRound,
        votes: Votes::Quorum,
        value: Relation::None,
        checked: Checked::Selects,
    }],
    reject: None,
};

/// `decide-current-quorum` (HR): `n − F` distinct signed `CURRENT(r,
/// vect)` for the decided vector. This is §5.1's rule; Fig. 3 line 21
/// writes `est_cert_i`, which would be forgeable — see DESIGN.md.
pub static DECIDE_CURRENT_QUORUM: RuleInfo = RuleInfo {
    id: "decide-current-quorum",
    send: "decide-announce",
    kind: MessageKind::Decide,
    condition: "a majority of CURRENT votes for one value were collected",
    clause: Clause::None,
    select: Select::Any,
    edges: &[Edge {
        cites: &CURRENT_VOTES,
        phase: EvidencePhase::SameRound,
        votes: Votes::Quorum,
        value: Relation::SameVector,
        checked: Checked::Requires("DECIDE lacks n−F signed CURRENT votes for the decided vector"),
    }],
    reject: None,
};

/// `estimate-roundstart` (CT): the INIT witnesses of the vector; a claimed
/// adoption timestamp `ts > 0` backed by `coordinator(ts)`'s own signed
/// `PROPOSE(ts, vect)` (what makes CT's max-timestamp adoption
/// auditable); round entry `r > 1` backed by `n − F` signed `ACK/NACK(r −
/// 1)`.
pub static ESTIMATE_ROUNDSTART: RuleInfo = RuleInfo {
    id: "estimate-roundstart",
    send: "estimate-roundstart",
    kind: MessageKind::Estimate,
    condition: "entered round r and re-broadcast its estimate with its adoption timestamp",
    clause: Clause::None,
    select: Select::Any,
    edges: &[
        INIT_WITNESSES,
        Edge {
            cites: &[
                cite("ack-echo", MessageKind::Ack),
                cite("nack-suspicion", MessageKind::Nack),
            ],
            phase: EvidencePhase::PrevRound,
            votes: Votes::Quorum,
            value: Relation::None,
            checked: Checked::Requires(
                "round entry lacks n−F signed ACK/NACK votes for the previous round",
            ),
        },
        Edge {
            cites: &[cite("propose-coordinator", MessageKind::Propose)],
            phase: EvidencePhase::PrevRound,
            votes: Votes::TsCoordinator,
            value: Relation::SameVector,
            checked: Checked::Requires(
                "estimate timestamp lacks the ts-coordinator's signed PROPOSE for this vector",
            ),
        },
    ],
    reject: None,
};

/// `propose-coordinator` (CT): only the round coordinator proposes, with
/// `n − F` signed `ESTIMATE(r)` and a maximum-timestamp estimate's vector,
/// INIT-witnessed.
pub static PROPOSE_COORDINATOR: RuleInfo = RuleInfo {
    id: "propose-coordinator",
    send: "propose-coordinator",
    kind: MessageKind::Propose,
    condition: "round-r coordinator collected a majority of ESTIMATE votes and adopted a \
                maximum-timestamp estimate",
    clause: Clause::None,
    select: Select::Coordinator,
    edges: &[
        INIT_WITNESSES,
        Edge {
            cites: &[cite("estimate-roundstart", MessageKind::Estimate)],
            phase: EvidencePhase::SameRound,
            votes: Votes::Quorum,
            value: Relation::MaxTimestamp(
                "proposed vector is not a maximum-timestamp estimate from the certificate",
            ),
            checked: Checked::Requires("PROPOSE lacks n−F signed ESTIMATE votes for this round"),
        },
    ],
    reject: Some("PROPOSE from a process that is not the round coordinator"),
};

/// `ack-echo` (CT): the echo quotes the round coordinator's own signed
/// `PROPOSE(r, vect)` for exactly the acknowledged vector.
pub static ACK_ECHO: RuleInfo = RuleInfo {
    id: "ack-echo",
    send: "ack-echo",
    kind: MessageKind::Ack,
    condition: "received the round-r coordinator's PROPOSE and echoed it",
    clause: Clause::None,
    select: Select::Any,
    edges: &[Edge {
        cites: &[cite("propose-coordinator", MessageKind::Propose)],
        phase: EvidencePhase::SameRound,
        votes: Votes::Coordinator,
        value: Relation::SameVector,
        checked: Checked::Requires("ACK lacks the coordinator's signed PROPOSE for this vector"),
    }],
    reject: None,
};

/// `nack-suspicion` (CT): coordinator suspicion is failure-detector output
/// and cannot be audited; the certificate holds nothing from the future.
pub static NACK_SUSPICION: RuleInfo = RuleInfo {
    id: "nack-suspicion",
    send: "nack-suspicion",
    kind: MessageKind::Nack,
    condition: "waiting on the proposal, the crash detector suspects the round coordinator",
    clause: Clause::NoFutureItems("NACK certificate contains items from a future round"),
    select: Select::Any,
    edges: &[],
    reject: None,
};

/// `decide-ack-quorum` (CT): `n − F` distinct signed `ACK(r, vect)` for
/// the decided vector.
pub static DECIDE_ACK_QUORUM: RuleInfo = RuleInfo {
    id: "decide-ack-quorum",
    send: "decide-announce",
    kind: MessageKind::Decide,
    condition: "a majority of ACK votes for one value were collected",
    clause: Clause::None,
    select: Select::Any,
    edges: &[Edge {
        cites: &[cite("ack-echo", MessageKind::Ack)],
        phase: EvidencePhase::SameRound,
        votes: Votes::Quorum,
        value: Relation::SameVector,
        checked: Checked::Requires("DECIDE lacks n−F signed ACK votes for the decided vector"),
    }],
    reject: None,
};

/// The checkpoint-compaction rule, a row of both protocols' tables: the
/// message kind that seals a decided log slot is audited identically under
/// HR and CT, differing only in which decide-vote kind backs the quorum
/// (CURRENT vs ACK — see [`crate::checkpoint::decide_vote_kind`]). Its
/// certificate *is* the decision's: the cited DECIDE's decide-vote quorum.
/// It is kept out of [`certification_rules_for`] because single-shot
/// consensus has no send for it; [`CertChecker::rule_for`] tries it after
/// the protocol's own rows.
///
/// [`CertChecker::rule_for`]: crate::analyzer::CertChecker::rule_for
pub static CHECKPOINT_RULE: RuleInfo = RuleInfo {
    id: "checkpoint-quorum",
    send: "checkpoint-quorum",
    kind: MessageKind::Checkpoint,
    condition: "a log slot decided locally: compact its decide-vote quorum into a signed \
                checkpoint digest",
    clause: Clause::None,
    select: Select::Any,
    edges: &[Edge {
        cites: &[cite("decide-announce", MessageKind::Decide)],
        phase: EvidencePhase::SameRound,
        votes: Votes::Quorum,
        value: Relation::SameVector,
        checked: Checked::CheckpointDigest,
    }],
    reject: None,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique() {
        for protocol in ProtocolId::all() {
            let rules = certification_rules_for(protocol);
            let ids: std::collections::BTreeSet<&str> = rules
                .iter()
                .chain([&&CHECKPOINT_RULE])
                .map(|r| r.id)
                .collect();
            assert_eq!(ids.len(), rules.len() + 1, "{protocol}");
        }
    }

    /// Every cite names a send of the same table by the kind its row
    /// signs, so the sender's walk and the receiver's count read one kind.
    #[test]
    fn every_cite_names_a_row_of_its_table_by_its_kind() {
        for protocol in ProtocolId::all() {
            let rows = certification_rules_for(protocol);
            for row in rows.iter().chain([&&CHECKPOINT_RULE]) {
                for cite in row.edges.iter().flat_map(|edge| edge.cites) {
                    let cited = rows.iter().find(|r| r.send == cite.by);
                    assert_eq!(cited.map(|r| r.kind), Some(cite.kind), "{row:?} {cite:?}");
                }
            }
        }
    }
}
