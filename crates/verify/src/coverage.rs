//! Certificate-rule coverage: what §5's obligation table leaves to check.
//!
//! A certified send holds its rule by value (`CertRoute` carries a
//! `&'static RuleInfo`, a row of the analyzer's dispatch), so "names a
//! missing rule" is a compile error. What no type says, this pass checks:
//! every routed rule is a row of *this protocol's* table and audits the
//! send's kind, no row is dead, and only the opening is uncertifiable. A
//! crash spec routes every send through [`CertRoute::Trusted`], which is
//! legal only when uniform: a trusted send inside a certified spec is
//! unaudited in a Byzantine model and is reported.

use ftm_certify::rules::{certification_rules_for, CHECKPOINT_RULE};
use ftm_certify::MessageKind;
use ftm_core::spec::{CertRoute, ProtocolSpec};

/// Result of the coverage check; the three lists must be empty.
#[derive(Debug, Clone, Default)]
pub struct CoverageReport {
    /// Conditional sends in the spec.
    pub sends: u64,
    /// Rows of the protocol's rule table (with the checkpoint row when the
    /// spec sends checkpoints).
    pub rules: u64,
    /// Sends routed through [`CertRoute::Trusted`] (all of a crash spec's).
    pub trusted_sends: u64,
    /// Sends whose rule is outside the protocol's table or audits another
    /// kind, and trusted sends inside a certified spec.
    pub uncovered_sends: Vec<String>,
    /// Rows no send is routed through (a fully trusted spec is exempt).
    pub dead_rules: Vec<String>,
    /// Uncertifiable sends that are not the opening.
    pub uncertified_noninitial: Vec<String>,
}

impl CoverageReport {
    /// `true` when every check passed over a non-empty send table.
    pub fn ok(&self) -> bool {
        let findings = [
            &self.uncovered_sends,
            &self.dead_rules,
            &self.uncertified_noninitial,
        ];
        self.sends > 0 && findings.iter().all(|list| list.is_empty())
    }
}

/// Checks the spec's routes against the rule table of the spec's protocol.
pub fn check_coverage(spec: &ProtocolSpec) -> CoverageReport {
    let (sends, protocol) = (&spec.sends, spec.table.protocol);
    let checkpoints = sends.iter().any(|s| s.kind == MessageKind::Checkpoint);
    let rows = certification_rules_for(protocol).iter().copied();
    let table: Vec<_> = rows
        .chain(checkpoints.then_some(&CHECKPOINT_RULE))
        .collect();
    let routed: Vec<_> = sends.iter().filter_map(|s| s.route.rule()).collect();
    let mut report = CoverageReport {
        sends: sends.len() as u64,
        rules: table.len() as u64,
        trusted_sends: (sends.len() - routed.len()) as u64,
        ..CoverageReport::default()
    };
    for send in sends {
        let at = format!("send `{}` ({})", send.id, send.kind);
        let uncovered = match send.route.rule() {
            None if routed.is_empty() => None,
            None => Some(format!("{at} is trusted inside a certified spec")),
            Some(rule) if !table.contains(&rule) => {
                Some(format!("{at} names `{}`, not a {protocol} rule", rule.id))
            }
            Some(rule) if rule.kind != send.kind => Some(format!(
                "{at} names `{}`, which audits {}",
                rule.id, rule.kind
            )),
            Some(_) => None,
        };
        report.uncovered_sends.extend(uncovered);
        if matches!(send.route, CertRoute::VectorCertification(_))
            && Some(send.kind) != spec.table.opening
        {
            let finding = format!("{at} is uncertifiable but not an initial value");
            report.uncertified_noninitial.push(finding);
        }
    }
    if !routed.is_empty() {
        let dead = table.iter().filter(|rule| !routed.contains(rule));
        report.dead_rules = dead
            .map(|rule| format!("rule `{}` audits no conditional send", rule.id))
            .collect();
    }
    report
}
