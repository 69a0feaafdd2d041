//! The certification-rule table: the analyzer's dispatch, as data.
//!
//! The paper's §5 discipline is that every *conditional send* of the
//! protocol has a certification rule letting receivers re-derive the
//! enabling condition from the attached certificate. A [`RuleInfo`] *is*
//! such a rule: its id, the kind it audits, what it re-derives — and the
//! function that re-derives it. [`CertChecker::rule_for`] walks the rows
//! of its protocol in table order and the first row whose send condition
//! holds certifies the envelope, so a rule without code, or code without
//! a rule, has no spelling: there is no second dispatch to keep in step.
//!
//! The rows double as the *obligation table* of the crash→Byzantine
//! transformation: `ftm_core::spec::CertRoute` holds a `&'static
//! RuleInfo`, so a send naming a rule that does not exist does not
//! compile. What `ftm-verify`'s coverage pass still checks is what no type
//! says: every routed rule sits in *this protocol's* table and audits the
//! send's kind, no row is dead, and only the opening is uncertifiable.
//!
//! [`CertChecker::rule_for`]: crate::analyzer::CertChecker::rule_for

use std::fmt;

use crate::analyzer::CertChecker;
use crate::error::CertifyError;
use crate::message::{MessageKind, ProtocolId};
use crate::signed::Envelope;

/// One certification rule of the analyzer: a table row and its checker.
///
/// Rows exist only as the `static`s of this module (the `check` field is
/// private), so two rules are equal exactly when they are the same row.
pub struct RuleInfo {
    /// Stable identifier, the one reports and `ftm_core::spec` print.
    pub id: &'static str,
    /// The message kind whose certificates the rule audits.
    pub kind: MessageKind,
    /// What the rule re-derives from the certificate.
    pub checks: &'static str,
    /// Whether the rule re-derives the INIT backing of the vector the
    /// message carries (§5.1's `est_cert`), so that a send it audits
    /// carries that backing: `ftm_core::spec::transform` gives exactly
    /// these sends their round-0 justification.
    pub needs_init_backing: bool,
    /// The rule itself: `Ok(true)` when this row's send condition holds,
    /// `Ok(false)` for "not this rule, try the next row", `Err` for a
    /// violation. Signatures and syntax are checked before any row runs.
    pub(crate) check: fn(&CertChecker, &Envelope) -> Result<bool, CertifyError>,
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

/// The certification-rule table of the given transformed protocol, in the
/// order [`CertChecker::rule_for`] tries the rows. Rows of one kind are
/// ordered most demanding first, and the last of them owns the reject.
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

/// `init-empty`, shared by both protocols.
pub static INIT_EMPTY: RuleInfo = RuleInfo {
    id: "init-empty",
    kind: MessageKind::Init,
    checks: "INIT carries an empty certificate (initial values are vouched by vector \
             certification, not certificates)",
    needs_init_backing: false,
    check: CertChecker::init_empty,
};

/// `current-coordinator` (HR).
pub static CURRENT_COORDINATOR: RuleInfo = RuleInfo {
    id: "current-coordinator",
    kind: MessageKind::Current,
    checks: "INIT-portion witnesses the vector (≥ n−F signed INITs) and NEXT-portion \
             witnesses the round (≥ n−F signed NEXT(r−1), or nothing for r = 1)",
    needs_init_backing: true,
    check: CertChecker::current_coordinator,
};

/// `current-relay` (HR).
pub static CURRENT_RELAY: RuleInfo = RuleInfo {
    id: "current-relay",
    kind: MessageKind::Current,
    checks: "certificate contains the round coordinator's own signed CURRENT(r, vect) plus \
             the INIT backing of vect",
    needs_init_backing: true,
    check: CertChecker::current_relay,
};

/// `next-end-of-round` (HR).
pub static NEXT_END_OF_ROUND: RuleInfo = RuleInfo {
    id: "next-end-of-round",
    kind: MessageKind::Next,
    checks: "a full quorum of signed NEXT(r)",
    needs_init_backing: false,
    check: CertChecker::next_end_of_round,
};

/// `next-change-mind` (HR).
pub static NEXT_CHANGE_MIND: RuleInfo = RuleInfo {
    id: "next-change-mind",
    kind: MessageKind::Next,
    checks: "≥ 1 CURRENT seen and a quorum of round-r votes, but neither a CURRENT quorum \
             nor a NEXT quorum",
    needs_init_backing: false,
    check: CertChecker::next_change_mind,
};

/// `next-suspicion` (HR).
pub static NEXT_SUSPICION: RuleInfo = RuleInfo {
    id: "next-suspicion",
    kind: MessageKind::Next,
    checks: "no CURRENT adopted (suspicion is local and unverifiable; structure only: \
             absence of a CURRENT quorum claim)",
    needs_init_backing: false,
    check: CertChecker::next_suspicion,
};

/// `decide-current-quorum` (HR).
pub static DECIDE_CURRENT_QUORUM: RuleInfo = RuleInfo {
    id: "decide-current-quorum",
    kind: MessageKind::Decide,
    checks: "≥ n−F distinct signed CURRENT(r, vect) matching the decided vector",
    needs_init_backing: false,
    check: CertChecker::decide_current_quorum,
};

/// `estimate-roundstart` (CT).
pub static ESTIMATE_ROUNDSTART: RuleInfo = RuleInfo {
    id: "estimate-roundstart",
    kind: MessageKind::Estimate,
    checks: "INIT-portion witnesses the vector; a claimed adoption timestamp ts > 0 is \
             backed by coordinator(ts)'s signed PROPOSE(ts, vect); round entry r > 1 is \
             backed by ≥ n−F signed ACK/NACK(r−1)",
    needs_init_backing: true,
    check: CertChecker::estimate_roundstart,
};

/// `propose-coordinator` (CT).
pub static PROPOSE_COORDINATOR: RuleInfo = RuleInfo {
    id: "propose-coordinator",
    kind: MessageKind::Propose,
    checks: "sender is coordinator(r); ≥ n−F signed ESTIMATE(r) and the proposed vector \
             equals the vector of a maximum-ts estimate in the certificate, with its INIT \
             backing",
    needs_init_backing: true,
    check: CertChecker::propose_coordinator,
};

/// `ack-echo` (CT).
pub static ACK_ECHO: RuleInfo = RuleInfo {
    id: "ack-echo",
    kind: MessageKind::Ack,
    checks: "certificate contains the round coordinator's own signed PROPOSE(r, vect) \
             carrying exactly the echoed vector",
    needs_init_backing: false,
    check: CertChecker::ack_echo,
};

/// `nack-suspicion` (CT).
pub static NACK_SUSPICION: RuleInfo = RuleInfo {
    id: "nack-suspicion",
    kind: MessageKind::Nack,
    checks: "coordinator suspicion is local and unverifiable; structure only: no quorum \
             claim is made",
    needs_init_backing: false,
    check: CertChecker::nack_suspicion,
};

/// `decide-ack-quorum` (CT).
pub static DECIDE_ACK_QUORUM: RuleInfo = RuleInfo {
    id: "decide-ack-quorum",
    kind: MessageKind::Decide,
    checks: "≥ n−F distinct signed ACK(r, vect) matching the decided vector",
    needs_init_backing: false,
    check: CertChecker::decide_ack_quorum,
};

/// The checkpoint-compaction rule, a row of both protocols' tables: the
/// message kind that seals a decided log slot is audited identically under
/// HR and CT, differing only in which decide-vote kind backs the quorum
/// (CURRENT vs ACK — see [`crate::checkpoint::decide_vote_kind`]). It is
/// kept out of [`certification_rules_for`] because single-shot consensus
/// has no send for it; [`CertChecker::rule_for`] tries it after the
/// protocol's own rows.
///
/// [`CertChecker::rule_for`]: crate::analyzer::CertChecker::rule_for
pub static CHECKPOINT_RULE: RuleInfo = RuleInfo {
    id: "checkpoint-quorum",
    kind: MessageKind::Checkpoint,
    checks: "≥ n−F distinct signed decide-votes (CURRENT under HR, ACK under CT) over one \
             round and one vector, whose vector hashes to the claimed checkpoint digest",
    needs_init_backing: false,
    check: CertChecker::checkpoint_quorum,
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
}
