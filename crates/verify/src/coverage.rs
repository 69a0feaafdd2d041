//! Certificate-rule coverage: §5's obligation table, checked statically.
//!
//! The paper's certification discipline demands that every *conditional
//! send* of the protocol be auditable: the receiver must be able to
//! re-derive the enabling condition from the attached certificate. Two
//! artifacts state the two sides of that contract — the conditional-send
//! table in `ftm_core::spec` (what the protocol sends and when) and the
//! rule table in `ftm_certify::rules` (what the analyzer can audit). They
//! are maintained independently, next to the code they describe; this
//! module diffs them:
//!
//! * every certified conditional send names an existing rule of the same
//!   kind (no unaudited send);
//! * every rule is named by some send (no dead rule);
//! * the only sends whose *condition* is uncertifiable are initial-value
//!   broadcasts, routed through vector certification (paper §5.2).
//!
//! Un-transformed crash-model specs route every send through
//! [`CertRoute::Trusted`] — nothing is audited, which is legal *only* when
//! it is uniform: a spec mixing trusted and certified routes has
//! unaudited sends in a Byzantine model and every such send is reported.

use std::collections::BTreeMap;

use ftm_certify::rules::{certification_rules_for, certification_rules_with_checkpoint, RuleInfo};
use ftm_certify::MessageKind;
use ftm_core::spec::{CertRoute, ProtocolSpec};

/// Result of the coverage diff.
#[derive(Debug, Clone, Default)]
pub struct CoverageReport {
    /// Conditional sends in the spec.
    pub sends: u64,
    /// Certification rules in the analyzer.
    pub rules: u64,
    /// Sends routed through [`CertRoute::Trusted`] (all of them for a
    /// crash-model spec, zero for a transformed one).
    pub trusted_sends: u64,
    /// Sends naming a missing or kind-mismatched rule, or trusted sends
    /// inside a partially-certified spec (must be empty).
    pub uncovered_sends: Vec<String>,
    /// Rules no send references (must be empty; skipped for fully trusted
    /// specs, whose sends reference no rules by design).
    pub dead_rules: Vec<String>,
    /// Uncertifiable sends that are not initial-value broadcasts (must be
    /// empty).
    pub uncertified_noninitial: Vec<String>,
}

impl CoverageReport {
    /// `true` when every check passed and the tables are non-empty. A
    /// fully trusted (crash-model) spec passes without referencing any
    /// rule; a certified spec must reference a non-empty rule table.
    pub fn ok(&self) -> bool {
        self.sends > 0
            && (self.trusted_sends == self.sends || self.rules > 0)
            && self.uncovered_sends.is_empty()
            && self.dead_rules.is_empty()
            && self.uncertified_noninitial.is_empty()
    }
}

/// Diffs the spec's conditional-send table against the analyzer's rule
/// table for the spec's protocol.
pub fn check_coverage(spec: &ProtocolSpec) -> CoverageReport {
    let sends = &spec.sends;
    // A spec with a checkpoint-compaction send is audited against the
    // rule table extended with the shared `checkpoint-quorum` rule; base
    // specs keep the base table, so the transform's bijection over
    // single-shot consensus is unaffected.
    let rules: Vec<RuleInfo> = if sends.iter().any(|s| s.kind == MessageKind::Checkpoint) {
        certification_rules_with_checkpoint(spec.table.protocol)
    } else {
        certification_rules_for(spec.table.protocol).to_vec()
    };
    let mut report = CoverageReport {
        sends: sends.len() as u64,
        rules: rules.len() as u64,
        trusted_sends: sends
            .iter()
            .filter(|s| s.route == CertRoute::Trusted)
            .count() as u64,
        ..CoverageReport::default()
    };
    let fully_trusted = report.trusted_sends == report.sends;

    let rule_by_id: BTreeMap<&str, _> = rules.iter().map(|r| (r.id, r)).collect();
    let mut referenced: BTreeMap<&str, u64> = rules.iter().map(|r| (r.id, 0)).collect();

    for send in sends {
        let Some(rule_id) = send.route.rule_id() else {
            if !fully_trusted {
                report.uncovered_sends.push(format!(
                    "send `{}` ({}) is trusted inside a certified spec",
                    send.id, send.kind
                ));
            }
            continue;
        };
        match rule_by_id.get(rule_id) {
            None => report.uncovered_sends.push(format!(
                "send `{}` ({}) names missing rule `{rule_id}`",
                send.id, send.kind
            )),
            Some(rule) => {
                *referenced.entry(rule_id).or_default() += 1;
                if rule.kind != send.kind {
                    report.uncovered_sends.push(format!(
                        "send `{}` is {} but rule `{rule_id}` audits {}",
                        send.id, send.kind, rule.kind
                    ));
                }
            }
        }
        if !send.route.condition_certifiable() && Some(send.kind) != spec.table.opening {
            report.uncertified_noninitial.push(format!(
                "send `{}` ({}) is uncertifiable but not an initial value",
                send.id, send.kind
            ));
        }
    }
    if !fully_trusted {
        for (id, count) in referenced {
            if count == 0 {
                report
                    .dead_rules
                    .push(format!("rule `{id}` audits no conditional send"));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transformed_spec_is_fully_covered() {
        let report = check_coverage(&ProtocolSpec::transformed());
        assert!(
            report.ok(),
            "coverage failed: uncovered={:?} dead={:?} uncertified={:?}",
            report.uncovered_sends,
            report.dead_rules,
            report.uncertified_noninitial
        );
        assert_eq!(report.trusted_sends, 0);
        assert_eq!(report.sends, report.rules, "tables should be a bijection");
    }

    #[test]
    fn transformed_ct_spec_is_fully_covered_by_its_own_rule_table() {
        let report = check_coverage(&ProtocolSpec::transformed_ct());
        assert!(
            report.ok(),
            "CT coverage failed: uncovered={:?} dead={:?} uncertified={:?}",
            report.uncovered_sends,
            report.dead_rules,
            report.uncertified_noninitial
        );
        assert_eq!(report.trusted_sends, 0);
        assert_eq!(
            report.sends, report.rules,
            "CT tables should be a bijection"
        );
    }

    #[test]
    fn checkpointed_specs_stay_a_bijection_with_the_extended_table() {
        for protocol in ftm_certify::ProtocolId::all() {
            let report = check_coverage(&ProtocolSpec::checkpointed_for(protocol));
            assert!(
                report.ok(),
                "{protocol}: uncovered={:?} dead={:?} uncertified={:?}",
                report.uncovered_sends,
                report.dead_rules,
                report.uncertified_noninitial
            );
            assert_eq!(report.trusted_sends, 0, "{protocol}");
            assert_eq!(
                report.sends, report.rules,
                "{protocol}: checkpointed tables should stay a bijection"
            );
            let base = check_coverage(&ProtocolSpec::transformed_for(protocol));
            assert_eq!(report.sends, base.sends + 1, "{protocol}");
        }
    }

    #[test]
    fn crash_spec_is_uniformly_trusted() {
        let report = check_coverage(&ProtocolSpec::crash_hr());
        assert!(report.ok(), "uncovered={:?}", report.uncovered_sends);
        assert_eq!(report.trusted_sends, report.sends);
        assert!(
            report.dead_rules.is_empty(),
            "dead-rule check must be skipped"
        );
    }

    #[test]
    fn a_trusted_send_inside_a_certified_spec_is_flagged() {
        let mut spec = ProtocolSpec::transformed();
        spec.sends[3].route = CertRoute::Trusted;
        let report = check_coverage(&spec);
        assert!(!report.ok());
        assert!(
            report
                .uncovered_sends
                .iter()
                .any(|s| s.contains("trusted inside a certified spec")),
            "{:?}",
            report.uncovered_sends
        );
    }
}
