//! Refinement: model-checking the crash→Byzantine transformation itself.
//!
//! The paper's contribution is a *transformation*, not one protocol — so
//! checking only the transformed instance leaves the central claim
//! untested. This module checks the relation between the two specs three
//! ways:
//!
//! 1. **Derivation** — [`ftm_core::spec::transform`] applied to the crash
//!    spec must reproduce the hand-written transformed spec: the same
//!    send discipline and the same conditional-send table, send by send.
//!    The hand-written Fig. 3 send table is thereby *derived*, not
//!    trusted.
//! 2. **Completeness** (no new false positives) — every compliant trace
//!    of the crash spec, *lifted* into the transformed alphabet by
//!    prepending the round-0 opening, must be accepted by the transformed
//!    observer: the transformation never convicts a process that was
//!    correct under crash semantics. Violations come with a machine-diffed
//!    witness trace.
//! 3. **Soundness gain** (strictly more convictions) — a product
//!    automaton runs both observers in lockstep over the bounded
//!    reachable state space. Receipts foreign to the crash alphabet
//!    (INIT) are *projected away* on the crash side; every receipt the
//!    transformed observer convicts while the crash observer cannot even
//!    see it — plus every vote the transformed observer rejects before
//!    the opening — is counted as gain. The gate demands gain > 0 and
//!    zero simulation breaks (receipts the crash observer accepts but the
//!    transformed one convicts).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ftm_certify::{MessageKind, Round};
use ftm_core::spec::{transform, ProtocolSpec};
use ftm_detect::{PeerPhase, ProtocolTable};

use crate::soundness::{compliant_traces, first_conviction, trace_label, Trace};

/// How many gain / violation witnesses are rendered in full (all are
/// counted; rendering every one would drown the report).
pub const WITNESS_CAP: usize = 8;

/// Result of the refinement check.
#[derive(Debug, Clone, Default)]
pub struct RefinementReport {
    /// Round bound for trace enumeration and product exploration.
    pub bound: u64,
    /// Conditional sends compared between `transform(crash)` and the
    /// hand-written transformed spec.
    pub derivation_sends: u64,
    /// Differences between the mechanical derivation and the hand-written
    /// spec (must be empty).
    pub derivation_mismatches: Vec<String>,
    /// Compliant crash traces lifted and replayed.
    pub crash_traces: u64,
    /// Receipts stepped during the lifted replay.
    pub lifted_steps: u64,
    /// Lifted compliant crash traces the transformed observer convicted
    /// (must be empty), each with the machine-diffed witness.
    pub completeness_violations: Vec<String>,
    /// Product states explored.
    pub product_states: u64,
    /// Receipts the crash observer accepts but the transformed observer
    /// convicts, from a mutually reachable state (must be empty).
    pub containment_breaks: Vec<String>,
    /// Receipts the crash observer convicts but the transformed observer
    /// accepts — lost detection power on the shared alphabet (must be
    /// empty).
    pub detection_regressions: Vec<String>,
    /// Behaviors only the transformed observer convicts (must be > 0:
    /// the transformation strictly gains detection power).
    pub gain: u64,
    /// Rendered gain witnesses (first [`WITNESS_CAP`]).
    pub gain_witnesses: Vec<String>,
}

impl RefinementReport {
    /// `true` when the derivation matches, completeness holds, the
    /// product simulation never breaks, and the gain is strict.
    pub fn ok(&self) -> bool {
        self.derivation_mismatches.is_empty()
            && self.derivation_sends > 0
            && self.completeness_violations.is_empty()
            && self.crash_traces > 0
            && self.containment_breaks.is_empty()
            && self.detection_regressions.is_empty()
            && self.product_states > 0
            && self.gain > 0
    }
}

/// Runs the full refinement check between `crash` and `transformed`.
pub fn check_refinement(
    crash: &ProtocolSpec,
    transformed: &ProtocolSpec,
    bound: Round,
) -> RefinementReport {
    let mut report = RefinementReport {
        bound,
        ..RefinementReport::default()
    };
    check_derivation(crash, transformed, &mut report);
    check_completeness(&crash.table, &transformed.table, bound, &mut report);
    check_product(&crash.table, &transformed.table, bound, &mut report);
    report
}

/// `transform(crash) ≡ transformed`: same discipline, same send table.
fn check_derivation(crash: &ProtocolSpec, hand: &ProtocolSpec, report: &mut RefinementReport) {
    let derived = transform(crash);

    if derived.table != hand.table {
        report.derivation_mismatches.push(format!(
            "send discipline: derived {:?}, hand-written {:?}",
            derived.table, hand.table
        ));
    }

    report.derivation_sends = hand.sends.len().max(derived.sends.len()) as u64;
    if derived.sends.len() != hand.sends.len() {
        report.derivation_mismatches.push(format!(
            "send table size: derived {}, hand-written {}",
            derived.sends.len(),
            hand.sends.len()
        ));
    }
    for (d, h) in derived.sends.iter().zip(hand.sends.iter()) {
        if d != h {
            report.derivation_mismatches.push(format!(
                "send `{}`: derived {d:?}, hand-written {h:?}",
                h.id
            ));
        }
    }
}

/// Lifts a crash trace into the transformed alphabet: the round-0 opening
/// is prepended (the vector-certification phase every transformed process
/// runs before round 1).
pub fn lift(transformed: &ProtocolTable, crash_trace: &Trace) -> Trace {
    let mut out: Trace = transformed
        .opening
        .map(|k| vec![(k, 0)])
        .unwrap_or_default();
    out.extend(crash_trace.iter().copied());
    out
}

/// Every compliant crash trace, lifted, must be transformed-compliant.
fn check_completeness(
    crash: &ProtocolTable,
    hand: &ProtocolTable,
    bound: Round,
    report: &mut RefinementReport,
) {
    for trace in compliant_traces(crash, bound) {
        report.crash_traces += 1;
        let lifted = lift(hand, &trace);
        match first_conviction(hand, &lifted) {
            None => report.lifted_steps += lifted.len() as u64,
            Some((step, phase, round, why)) => {
                report.lifted_steps += step as u64 + 1;
                let (kind, r) = lifted[step];
                report.completeness_violations.push(format!(
                    "crash [{}] lifts to [{}]: step {step} {kind}({r}) convicted in \
                     {phase}@{round}: {why}",
                    trace_label(&trace),
                    trace_label(&lifted),
                ));
            }
        }
    }
}

/// One product state: the crash observer's `(phase, round)` paired with
/// the transformed observer's.
type ProductKey = ((PeerPhase, Round), (PeerPhase, Round));

/// Product-automaton exploration: containment breaks, regressions, gain.
fn check_product(
    crash: &ProtocolTable,
    hand: &ProtocolTable,
    bound: Round,
    report: &mut RefinementReport,
) {
    // Pre-round gain: votes and decisions before the opening. These sit
    // outside the lift image (the product below pairs states *after* the
    // opening), so they are checked directly: the transformed observer
    // must convict any kind arriving at `start` that is not the opening,
    // while the crash observer — which has no notion of "unopened" —
    // accepts the same receipt from its initial state.
    if hand.opening.is_some() {
        let (tp, tr) = hand.initial();
        let (cp, cr) = crash.initial();
        for &(kind, _) in hand.slots {
            if let (Err(why), Ok(_)) = (
                hand.transition(tp, tr, kind, 1),
                crash.transition(cp, cr, kind, 1),
            ) {
                report.gain += 1;
                if report.gain_witnesses.len() < WITNESS_CAP {
                    report.gain_witnesses.push(format!(
                        "[{kind}(1)] before the opening: transformed convicts ({why}), crash \
                         accepts"
                    ));
                }
            }
        }
    }

    // The transformed side consumes the lifted opening before lockstep.
    let mut trans_state = hand.initial();
    if let Some(k) = hand.opening {
        let (phase, round, _) = hand
            .transition(trans_state.0, trans_state.1, k, 0)
            .expect("the transformed observer accepts its own opening");
        trans_state = (phase, round);
    }
    let start: ProductKey = (crash.initial(), trans_state);

    // The receipt kinds of the *transformed* alphabet (the superset);
    // those foreign to the crash alphabet are projected away on its side.
    let kinds = hand.alphabet();
    let crash_kinds = crash.alphabet();

    let mut visited: BTreeSet<ProductKey> = BTreeSet::new();
    let mut parent: BTreeMap<ProductKey, (ProductKey, (MessageKind, Round))> = BTreeMap::new();
    let mut queue: VecDeque<ProductKey> = VecDeque::new();
    visited.insert(start);
    queue.push_back(start);

    while let Some(key) = queue.pop_front() {
        report.product_states += 1;
        let ((cp, cr), (tp, tr)) = key;
        for &kind in &kinds {
            for r in receipt_rounds(cr, tr, bound, Some(kind) == hand.opening) {
                let t_step = hand.transition(tp, tr, kind, r);
                let c_step = crash_kinds
                    .contains(&kind)
                    .then(|| crash.transition(cp, cr, kind, r));
                match (c_step, t_step) {
                    // Foreign receipt convicted by the transformed
                    // observer alone: pure gain.
                    (None, Err(why)) => {
                        report.gain += 1;
                        if report.gain_witnesses.len() < WITNESS_CAP {
                            report.gain_witnesses.push(render_witness(
                                &parent,
                                key,
                                kind,
                                r,
                                &format!("transformed convicts ({why}), crash cannot see {kind}"),
                            ));
                        }
                    }
                    // Foreign receipt accepted: only the transformed side
                    // moves.
                    (None, Ok((tnp, tnr, _))) => {
                        let next = ((cp, cr), (tnp, tnr));
                        if tnr <= bound && visited.insert(next) {
                            parent.insert(next, (key, (kind, r)));
                            queue.push_back(next);
                        }
                    }
                    (Some(Ok((cnp, cnr, _))), Err(why)) => {
                        report.containment_breaks.push(render_witness(
                            &parent,
                            key,
                            kind,
                            r,
                            &format!(
                                "crash accepts into {cnp}@{cnr}, transformed convicts ({why})"
                            ),
                        ));
                    }
                    (Some(Err(why)), Ok((tnp, tnr, _))) => {
                        report.detection_regressions.push(render_witness(
                            &parent,
                            key,
                            kind,
                            r,
                            &format!(
                                "crash convicts ({why}), transformed accepts into {tnp}@{tnr}"
                            ),
                        ));
                    }
                    (Some(Ok((cnp, cnr, _))), Ok((tnp, tnr, _))) => {
                        let next = ((cnp, cnr), (tnp, tnr));
                        if cnr <= bound && tnr <= bound && visited.insert(next) {
                            parent.insert(next, (key, (kind, r)));
                            queue.push_back(next);
                        }
                    }
                    // Both convict: the observers agree the receipt is
                    // faulty — no refinement information.
                    (Some(Err(_)), Err(_)) => {}
                }
            }
        }
    }
}

/// Concrete message rounds probing every round delta of both observers.
fn receipt_rounds(cr: Round, tr: Round, bound: Round, is_opening: bool) -> Vec<Round> {
    if is_opening {
        return vec![0]; // the opening's wire round is structurally 0
    }
    let mut out: Vec<Round> = [
        0,
        cr.saturating_sub(1),
        cr,
        cr + 1,
        cr + 2,
        tr.saturating_sub(1),
        tr,
        tr + 1,
        tr + 2,
    ]
    .into_iter()
    .filter(|r| *r <= bound + 2)
    .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Renders the receipt path leading to `key` plus the offending receipt —
/// the machine-diffed witness trace.
fn render_witness(
    parent: &BTreeMap<ProductKey, (ProductKey, (MessageKind, Round))>,
    key: ProductKey,
    kind: MessageKind,
    r: Round,
    verdict: &str,
) -> String {
    let mut path: Trace = Vec::new();
    let mut cur = key;
    while let Some((prev, receipt)) = parent.get(&cur) {
        path.push(*receipt);
        cur = *prev;
    }
    path.reverse();
    let ((cp, cr), (tp, tr)) = key;
    format!(
        "after [{}] (crash {cp}@{cr}, transformed {tp}@{tr}): {kind}({r}) — {verdict}",
        trace_label(&path),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_report() -> RefinementReport {
        check_refinement(&ProtocolSpec::crash_hr(), &ProtocolSpec::transformed(), 4)
    }

    #[test]
    fn the_hr_transformation_refines_clean_with_strict_gain() {
        let report = default_report();
        assert!(
            report.derivation_mismatches.is_empty(),
            "{:?}",
            report.derivation_mismatches
        );
        assert!(
            report.completeness_violations.is_empty(),
            "{:?}",
            report.completeness_violations
        );
        assert!(
            report.containment_breaks.is_empty(),
            "{:?}",
            report.containment_breaks
        );
        assert!(
            report.detection_regressions.is_empty(),
            "{:?}",
            report.detection_regressions
        );
        assert!(report.gain > 0, "the transformation must gain detections");
        assert!(report.ok());
        assert!(report.crash_traces > 50, "got {}", report.crash_traces);
        assert!(report.product_states > 10, "got {}", report.product_states);
    }

    #[test]
    fn gain_witnesses_include_the_opening_discipline() {
        let report = default_report();
        let all = report.gain_witnesses.join("\n");
        assert!(
            all.contains("before the opening"),
            "expected a pre-opening gain witness:\n{all}"
        );
        assert!(
            all.contains("crash cannot see INIT"),
            "expected a duplicate-INIT gain witness:\n{all}"
        );
    }

    #[test]
    fn witness_rendering_is_byte_stable() {
        let a = default_report();
        let b = default_report();
        assert_eq!(a.gain_witnesses, b.gain_witnesses);
        assert_eq!(a.gain, b.gain);
        assert_eq!(a.product_states, b.product_states);
    }

    #[test]
    fn a_round_advance_divergence_breaks_completeness_with_a_witness() {
        // A crash spec that legally advances two rounds at a time produces
        // compliant traces the transformed observer convicts as round
        // skips — refinement must fail with a lifted witness trace.
        let mut crash = ProtocolSpec::crash_hr();
        crash.table.round_advance = 2;
        let report = check_refinement(&crash, &ProtocolSpec::transformed(), 4);
        assert!(!report.ok());
        assert!(
            !report.completeness_violations.is_empty(),
            "expected completeness violations"
        );
        assert!(
            report.completeness_violations[0].contains("lifts to"),
            "witness must show the lift: {}",
            report.completeness_violations[0]
        );
    }

    #[test]
    fn a_send_table_divergence_is_a_derivation_mismatch() {
        let mut crash = ProtocolSpec::crash_hr();
        crash.sends[0].carries_value = false;
        let report = check_refinement(&crash, &ProtocolSpec::transformed(), 3);
        assert!(
            report
                .derivation_mismatches
                .iter()
                .any(|m| m.contains("current-coordinator")),
            "{:?}",
            report.derivation_mismatches
        );
    }
}
