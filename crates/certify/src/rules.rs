//! Introspection over the certification rules the analyzer implements.
//!
//! The paper's §5 discipline is that every *conditional send* of the
//! protocol has a certification rule letting receivers re-derive the
//! enabling condition from the attached certificate. [`CertChecker`]
//! implements those rules as code; this module names them as *data*, so
//! static tooling (`ftm-verify`) can cross-check the rule set against the
//! protocol description in `ftm_core::spec` — if a send condition is added
//! without a rule (or a rule goes dead), the coverage diff fails instead
//! of a simulation sweep having to stumble over the hole.
//!
//! The list is maintained *here*, next to the analyzer, and deliberately
//! not generated from the spec: the whole point is that two independently
//! maintained artifacts must agree. The rule ids double as the
//! *obligation table* of the crash→Byzantine transformation
//! (`ftm_core::spec::transform`): the mechanical rewrite routes each crash
//! send through the rule named here, and `ftm-verify` checks both the
//! local bijection (coverage) and the global evidence chains the rules
//! induce (certificate lineage).
//!
//! [`CertChecker`]: crate::analyzer::CertChecker

use crate::message::{MessageKind, ProtocolId};

/// One certification rule of the analyzer, as checkable data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// Stable identifier, matched against
    /// `ftm_core::spec::ConditionalSend::route`.
    pub id: &'static str,
    /// The message kind whose certificates the rule audits.
    pub kind: MessageKind,
    /// What the rule re-derives from the certificate.
    pub checks: &'static str,
}

/// The certification-rule table of the given transformed protocol: every
/// rule [`CertChecker`] implements for it, in the order the analyzer's
/// dispatch tries them.
///
/// Each table is maintained by hand next to the analyzer code that
/// enforces it; `ftm-verify` diffs it against the matching
/// `ProtocolSpec`'s conditional-send table per protocol.
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
/// assert_eq!(next_rules.len(), 3); // suspicion, change-mind, end-of-round
/// ```
///
/// [`CertChecker`]: crate::analyzer::CertChecker
pub fn certification_rules_for(protocol: ProtocolId) -> &'static [RuleInfo] {
    match protocol {
        ProtocolId::HurfinRaynal => HR_RULES,
        ProtocolId::ChandraToueg => CT_RULES,
    }
}

const HR_RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "init-empty",
        kind: MessageKind::Init,
        checks: "INIT carries an empty certificate (initial values are \
                     vouched by vector certification, not certificates)",
    },
    RuleInfo {
        id: "current-coordinator",
        kind: MessageKind::Current,
        checks: "INIT-portion witnesses the vector (≥ n−F signed INITs) \
                     and NEXT-portion witnesses the round (≥ n−F signed \
                     NEXT(r−1), or nothing for r = 1)",
    },
    RuleInfo {
        id: "current-relay",
        kind: MessageKind::Current,
        checks: "certificate contains the round coordinator's own signed \
                     CURRENT(r, vect) plus the INIT backing of vect",
    },
    RuleInfo {
        id: "next-suspicion",
        kind: MessageKind::Next,
        checks: "no CURRENT adopted (suspicion is local and unverifiable; \
                     structure only: absence of a CURRENT quorum claim)",
    },
    RuleInfo {
        id: "next-change-mind",
        kind: MessageKind::Next,
        checks: "≥ 1 CURRENT seen and a quorum of round-r votes, but \
                     neither a CURRENT quorum nor a NEXT quorum",
    },
    RuleInfo {
        id: "next-end-of-round",
        kind: MessageKind::Next,
        checks: "a full quorum of signed NEXT(r)",
    },
    RuleInfo {
        id: "decide-current-quorum",
        kind: MessageKind::Decide,
        checks: "≥ n−F distinct signed CURRENT(r, vect) matching the \
                     decided vector",
    },
];

const CT_RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "init-empty",
        kind: MessageKind::Init,
        checks: "INIT carries an empty certificate (initial values are \
                 vouched by vector certification, not certificates)",
    },
    RuleInfo {
        id: "estimate-roundstart",
        kind: MessageKind::Estimate,
        checks: "INIT-portion witnesses the vector; a claimed adoption \
                 timestamp ts > 0 is backed by coordinator(ts)'s signed \
                 PROPOSE(ts, vect); round entry r > 1 is backed by ≥ n−F \
                 signed ACK/NACK(r−1)",
    },
    RuleInfo {
        id: "propose-coordinator",
        kind: MessageKind::Propose,
        checks: "sender is coordinator(r); ≥ n−F signed ESTIMATE(r) and \
                 the proposed vector equals the vector of a maximum-ts \
                 estimate in the certificate, with its INIT backing",
    },
    RuleInfo {
        id: "ack-echo",
        kind: MessageKind::Ack,
        checks: "certificate contains the round coordinator's own signed \
                 PROPOSE(r, vect) carrying exactly the echoed vector",
    },
    RuleInfo {
        id: "nack-suspicion",
        kind: MessageKind::Nack,
        checks: "coordinator suspicion is local and unverifiable; \
                 structure only: no quorum claim is made",
    },
    RuleInfo {
        id: "decide-ack-quorum",
        kind: MessageKind::Decide,
        checks: "≥ n−F distinct signed ACK(r, vect) matching the decided \
                 vector",
    },
];

/// The checkpoint-compaction rule, shared by both protocols: the message
/// kind that seals a decided log slot is audited identically under HR and
/// CT, differing only in which decide-vote kind backs the quorum (CURRENT
/// vs ACK — see [`crate::checkpoint::decide_vote_kind`]).
pub const CHECKPOINT_RULE: RuleInfo = RuleInfo {
    id: "checkpoint-quorum",
    kind: MessageKind::Checkpoint,
    checks: "≥ n−F distinct signed decide-votes (CURRENT under HR, ACK \
             under CT) over one round and one vector, whose vector hashes \
             to the claimed checkpoint digest",
};

/// The rule table of `protocol` extended with the checkpoint-compaction
/// rule — the table enforced over replicated-log runs with certificate
/// compaction enabled. The base tables stay untouched so the transform's
/// coverage bijection over single-shot consensus is unaffected.
pub fn certification_rules_with_checkpoint(protocol: ProtocolId) -> Vec<RuleInfo> {
    let mut rules = certification_rules_for(protocol).to_vec();
    rules.push(CHECKPOINT_RULE);
    rules
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique() {
        for protocol in ProtocolId::all() {
            let rules = certification_rules_for(protocol);
            let ids: std::collections::BTreeSet<&str> = rules.iter().map(|r| r.id).collect();
            assert_eq!(ids.len(), rules.len(), "{protocol}");
        }
    }

    #[test]
    fn ct_table_covers_its_wire_kinds() {
        let rules = certification_rules_for(ProtocolId::ChandraToueg);
        for kind in [
            MessageKind::Init,
            MessageKind::Estimate,
            MessageKind::Propose,
            MessageKind::Ack,
            MessageKind::Nack,
            MessageKind::Decide,
        ] {
            assert!(
                rules.iter().any(|r| r.kind == kind),
                "{kind} has no CT certification rule"
            );
        }
        assert_eq!(rules.len(), 6);
    }

    #[test]
    fn hr_table_covers_its_wire_kinds() {
        let rules = certification_rules_for(ProtocolId::HurfinRaynal);
        for kind in [
            MessageKind::Init,
            MessageKind::Current,
            MessageKind::Next,
            MessageKind::Decide,
        ] {
            assert!(
                rules.iter().any(|r| r.kind == kind),
                "{kind} has no HR certification rule"
            );
        }
        // One NEXT rule per `NextTrigger` variant: the analyzer's
        // classification and the rule table must not drift apart.
        let next = rules.iter().filter(|r| r.kind == MessageKind::Next);
        assert_eq!(next.count(), 3);
    }

    #[test]
    fn checkpoint_table_extends_without_disturbing_the_base() {
        for protocol in ProtocolId::all() {
            let base = certification_rules_for(protocol);
            let extended = certification_rules_with_checkpoint(protocol);
            assert_eq!(extended.len(), base.len() + 1, "{protocol}");
            assert_eq!(&extended[..base.len()], base, "{protocol}");
            assert_eq!(extended.last(), Some(&CHECKPOINT_RULE), "{protocol}");
            let ids: std::collections::BTreeSet<&str> = extended.iter().map(|r| r.id).collect();
            assert_eq!(ids.len(), extended.len(), "{protocol}");
        }
    }
}
