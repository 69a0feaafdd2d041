//! Static mutation analysis: detection completeness of the automaton.
//!
//! Soundness ([`crate::soundness`]) proves compliant senders are never
//! convicted; this module attacks the other direction. Every compliant
//! trace up to a bound is mutated with one *single-divergence* operator —
//! kind swap, phase skip (message deletion), duplicate send, round jump,
//! send-after-decide — and the mutant is replayed through
//! [`ProtocolTable::transition`]. A mutant that is still spec-compliant
//! (e.g. deleting an optional CURRENT, or a swap that lands on another
//! legal vote) is *equivalent*: it is a member of the compliant-trace
//! *generator's* output ([`compliant_traces`], the independent reference —
//! never "the automaton accepts it"). Every genuinely divergent mutant must
//! be convicted — a surviving mutant is a concrete cheating trace the
//! detector would let through. Soundness says acceptor ⊇ generator; this
//! says the acceptor contains no single-divergence neighbour of the
//! generator's traces: together they squeeze the one automaton from both
//! sides.
//!
//! The muteness caveat applies by construction: deletion mutants whose
//! remainder is a compliant prefix are equivalent here, because silence is
//! the muteness detector's domain (paper §3), not the automaton's.

use std::collections::BTreeSet;

use ftm_certify::{MessageKind, Round};
use ftm_detect::ProtocolTable;

use crate::soundness::{compliant_traces, first_conviction, trace_label, Trace};

/// The single-divergence mutation operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Operator {
    /// Replace one message's kind, keeping its position and round.
    KindSwap,
    /// Delete one message (a skipped phase; FIFO hides nothing else).
    PhaseSkip,
    /// Send one message twice.
    DuplicateSend,
    /// Move one message's round number ahead.
    RoundJump,
    /// Keep talking after the terminal announcement.
    SendAfterDecide,
}

impl Operator {
    /// All operators, in report order.
    pub fn all() -> [Operator; 5] {
        [
            Operator::KindSwap,
            Operator::PhaseSkip,
            Operator::DuplicateSend,
            Operator::RoundJump,
            Operator::SendAfterDecide,
        ]
    }

    /// Stable kebab-case label.
    pub fn label(&self) -> &'static str {
        match self {
            Operator::KindSwap => "kind-swap",
            Operator::PhaseSkip => "phase-skip",
            Operator::DuplicateSend => "duplicate-send",
            Operator::RoundJump => "round-jump",
            Operator::SendAfterDecide => "send-after-decide",
        }
    }

    /// Generates every mutant this operator derives from `base`.
    fn mutants(&self, table: &ProtocolTable, base: &Trace, kinds: &[MessageKind]) -> Vec<Trace> {
        let opening = table.opening;
        let mut out = Vec::new();
        match self {
            Operator::KindSwap => {
                for p in 0..base.len() {
                    let (orig, r) = base[p];
                    for &k in kinds {
                        if k == orig {
                            continue;
                        }
                        let mut t = base.clone();
                        // The opening's wire round is structurally 0;
                        // anything swapped in at position 0 claims round 1,
                        // and an opening swapped in mid-trace claims its
                        // fixed 0.
                        t[p] = (k, if Some(k) == opening { 0 } else { r.max(1) });
                        out.push(t);
                    }
                }
            }
            Operator::PhaseSkip => {
                for p in 0..base.len() {
                    let mut t = base.clone();
                    t.remove(p);
                    if !t.is_empty() {
                        out.push(t);
                    }
                }
            }
            Operator::DuplicateSend => {
                for p in 0..base.len() {
                    let mut t = base.clone();
                    t.insert(p + 1, base[p]);
                    out.push(t);
                }
            }
            Operator::RoundJump => {
                for p in 0..base.len() {
                    let (k, r) = base[p];
                    if Some(k) == opening {
                        continue; // the opening carries no round to jump
                    }
                    for jump in [1, 4] {
                        let mut t = base.clone();
                        t[p] = (k, r + jump);
                        out.push(t);
                    }
                }
            }
            Operator::SendAfterDecide => {
                if let Some(&(last, r)) = base.last() {
                    if last == table.terminal {
                        for &k in kinds {
                            let mut t = base.clone();
                            t.push((k, if Some(k) == opening { 0 } else { r }));
                            out.push(t);
                        }
                    }
                }
            }
        }
        out
    }
}

/// Kill statistics for one operator.
#[derive(Debug, Clone, Default)]
pub struct OperatorStats {
    /// Distinct mutants generated.
    pub generated: u64,
    /// Mutants that are still spec-compliant (no divergence to detect).
    pub equivalent: u64,
    /// Divergent mutants the automaton convicted.
    pub killed: u64,
    /// Divergent mutants that escaped conviction. Must be zero.
    pub survived: u64,
}

/// The full mutation report: the kill matrix plus surviving traces.
#[derive(Debug, Clone, Default)]
pub struct MutationReport {
    /// Round bound the base traces were enumerated to.
    pub max_rounds: u64,
    /// Base traces mutated.
    pub bases: u64,
    /// Per-operator kill statistics, in [`Operator::all`] order.
    pub operators: Vec<(Operator, OperatorStats)>,
    /// Surviving mutants, rendered (empty = 100% kill rate).
    pub survivors: Vec<String>,
}

impl MutationReport {
    /// Total divergent mutants across operators.
    pub fn divergent(&self) -> u64 {
        self.operators
            .iter()
            .map(|(_, s)| s.killed + s.survived)
            .sum()
    }

    /// `true` when every divergent mutant was killed and the run was not
    /// vacuous.
    pub fn all_killed(&self) -> bool {
        self.survivors.is_empty() && self.divergent() > 0
    }
}

/// `trace` with the round of every terminal erased. The observer is
/// deliberately round-blind to the terminal — a relayed DECIDE carries the
/// *decider's* round, not the relayer's — so compliance is judged modulo
/// that round.
fn erase_terminal_round(table: &ProtocolTable, mut trace: Trace) -> Trace {
    for (kind, r) in &mut trace {
        if *kind == table.terminal {
            *r = 0;
        }
    }
    trace
}

/// Runs the full mutation analysis on `table`: every operator over every
/// compliant base trace up to `max_rounds`, deduplicated per operator.
pub fn check_mutations(table: &ProtocolTable, max_rounds: Round) -> MutationReport {
    kill_matrix(table, table, max_rounds)
}

/// [`check_mutations`] with the two roles of the table split: bases and
/// the equivalence filter come from `reference`'s generator, `killer` is
/// the table whose transition must convict the rest. They differ only in
/// the non-vacuity test.
fn kill_matrix(
    reference: &ProtocolTable,
    killer: &ProtocolTable,
    max_rounds: Round,
) -> MutationReport {
    let kinds = reference.alphabet();
    let bases = compliant_traces(reference, max_rounds);
    // A single round jump can lift a compliant mutant one advance past the
    // bases' bound, no further.
    let compliant: BTreeSet<Trace> =
        compliant_traces(reference, max_rounds + reference.round_advance)
            .into_iter()
            .map(|t| erase_terminal_round(reference, t))
            .collect();
    let mut report = MutationReport {
        max_rounds,
        bases: bases.len() as u64,
        ..MutationReport::default()
    };

    for op in Operator::all() {
        let mut stats = OperatorStats::default();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        for base in &bases {
            for mutant in op.mutants(reference, base, &kinds) {
                if !seen.insert(trace_label(&mutant)) {
                    continue; // the same mutant arises from several bases
                }
                stats.generated += 1;
                if compliant.contains(&erase_terminal_round(reference, mutant.clone())) {
                    stats.equivalent += 1;
                } else if first_conviction(killer, &mutant).is_some() {
                    stats.killed += 1;
                } else {
                    stats.survived += 1;
                    report
                        .survivors
                        .push(format!("{}: {}", op.label(), trace_label(&mutant)));
                }
            }
        }
        report.operators.push((op, stats));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_certify::ProtocolId;
    use ftm_core::spec::ProtocolSpec;

    fn hr() -> ProtocolTable {
        ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal).table
    }

    fn compliant(table: &ProtocolTable, bound: Round, trace: &Trace) -> bool {
        compliant_traces(table, bound).contains(trace)
    }

    #[test]
    fn every_divergent_mutant_is_killed() {
        let report = check_mutations(&hr(), 3);
        assert!(
            report.survivors.is_empty(),
            "surviving mutants:\n{}",
            report.survivors.join("\n")
        );
        assert!(report.all_killed());
        for (op, stats) in &report.operators {
            assert!(stats.generated > 0, "{} generated no mutants", op.label());
            assert_eq!(
                stats.generated,
                stats.equivalent + stats.killed + stats.survived,
                "{} stats do not decompose",
                op.label()
            );
        }
    }

    #[test]
    fn a_lax_killer_lets_divergent_mutants_survive() {
        // Non-vacuity: bases and the equivalence filter come from the
        // generator, not from the killer. Make NEXT optional in the killer
        // alone and rounds left without it — divergent by the reference —
        // escape conviction.
        let lax = ProtocolTable {
            slots: &[(MessageKind::Current, false), (MessageKind::Next, false)],
            ..hr()
        };
        let report = kill_matrix(&hr(), &lax, 3);
        assert!(!report.survivors.is_empty());
        assert!(!report.all_killed());
    }

    #[test]
    fn deleting_an_optional_current_is_equivalent_not_survived() {
        // INIT C(1) N(1) with the CURRENT deleted is a legal NEXT-only
        // round: the equivalence filter must classify it, not count it as
        // a surviving mutant.
        let mutant = vec![(MessageKind::Init, 0), (MessageKind::Next, 1)];
        assert!(compliant(&hr(), 1, &mutant));
        assert!(first_conviction(&hr(), &mutant).is_none());
    }

    #[test]
    fn known_divergences_are_killed_directly() {
        let cases: Vec<Trace> = vec![
            // Duplicate CURRENT.
            vec![
                (MessageKind::Init, 0),
                (MessageKind::Current, 1),
                (MessageKind::Current, 1),
            ],
            // Round jump without NEXT.
            vec![
                (MessageKind::Init, 0),
                (MessageKind::Current, 1),
                (MessageKind::Current, 2),
            ],
            // Send after decide.
            vec![
                (MessageKind::Init, 0),
                (MessageKind::Decide, 1),
                (MessageKind::Next, 1),
            ],
            // Opening skipped.
            vec![(MessageKind::Current, 1)],
        ];
        for t in cases {
            assert!(!compliant(&hr(), 2, &t), "{}", trace_label(&t));
            assert!(
                first_conviction(&hr(), &t).is_some(),
                "not killed: {}",
                trace_label(&t)
            );
        }
    }

    #[test]
    fn chandra_toueg_divergent_mutants_are_killed() {
        let ct = ProtocolSpec::transformed_for(ProtocolId::ChandraToueg).table;
        let report = check_mutations(&ct, 2);
        assert!(
            report.survivors.is_empty(),
            "surviving CT mutants:\n{}",
            report.survivors.join("\n")
        );
        assert!(report.all_killed());
        // A CT-specific divergence: ACK before the mandatory ESTIMATE.
        let t: Trace = vec![
            (MessageKind::Init, 0),
            (MessageKind::Ack, 1),
            (MessageKind::Estimate, 1),
        ];
        assert!(!compliant(&ct, 1, &t));
        assert!(first_conviction(&ct, &t).is_some());
    }
}
