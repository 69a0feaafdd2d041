//! Bounded soundness: no compliant sender is ever convicted.
//!
//! The reliability half of the paper's detector contract (§4): if a
//! correct process declares `q` faulty, `q` really deviated. Statically,
//! that means *no trace a spec-compliant sender can produce drives the
//! automaton into `faulty`*. This module enumerates every compliant send
//! trace up to a round bound — every interleaving of optional and
//! mandatory slots, every round-advance, every decide point, and every
//! stop point (prefixes are compliant: a silent peer is the muteness
//! detector's business, never this automaton's) — and replays each through
//! [`ProtocolTable::transition`]. A conviction is a false positive.
//!
//! [`compliant_traces`] is the analyzer's independent reference. It is a
//! *generator* — a recursive enumeration of what a sender may emit next —
//! and must stay one: rewriting it as "enumerate candidate traces and keep
//! those the automaton accepts" would turn this check, and the mutation
//! matrix's equivalence filter built on it, into the automaton checked
//! against itself. Generator and acceptor share the table and its two
//! slot predicates, nothing else.

use ftm_certify::{MessageKind, Round};
use ftm_detect::{PeerPhase, ProtocolTable};

/// A send trace: the sequence of `(kind, round)` receipts one peer's
/// channel delivers (FIFO, so receipt order is send order).
pub type Trace = Vec<(MessageKind, Round)>;

/// Renders a trace for reports, e.g. `INIT(0) CURRENT(1) NEXT(1)`.
pub fn trace_label(trace: &Trace) -> String {
    trace
        .iter()
        .map(|(k, r)| format!("{k}({r})"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Enumerates every compliant trace with at most `max_rounds` rounds.
///
/// Each recursion point contributes the trace-so-far (stopping is
/// compliant) and its decide-terminated variant; branches extend with
/// every legal same-round vote and every legal round entry.
pub fn compliant_traces(table: &ProtocolTable, max_rounds: Round) -> Vec<Trace> {
    let mut out = Vec::new();
    let opening: Trace = table.opening.map(|k| vec![(k, 0)]).unwrap_or_default();
    rec(table, 1, 0, &opening, max_rounds, &mut out);
    out
}

fn rec(
    table: &ProtocolTable,
    round: Round,
    progress: usize,
    trace: &Trace,
    max_rounds: Round,
    out: &mut Vec<Trace>,
) {
    // Stopping here is compliant (muteness is out of scope)…
    out.push(trace.clone());
    // …and so is deciding here.
    let mut decided = trace.clone();
    decided.push((table.terminal, round));
    out.push(decided);

    // Same-round votes: any not-yet-passed slot reachable over optional
    // slots only.
    for j in progress..table.slots.len() {
        if table.entry_legal(progress, j) {
            let mut t = trace.clone();
            t.push((table.slots[j].0, round));
            rec(table, round, j + 1, &t, max_rounds, out);
        }
    }

    // Round advance: only once every mandatory slot is done, and only to
    // the immediate successor round.
    if table.advance_ready(progress) && round < max_rounds {
        let next = round + table.round_advance;
        for j in 0..table.slots.len() {
            if table.entry_legal(0, j) {
                let mut t = trace.clone();
                t.push((table.slots[j].0, next));
                rec(table, next, j + 1, &t, max_rounds, out);
            }
        }
    }
}

/// Replays `trace` through `table`'s transition from its initial state and
/// returns the first rejected receipt as `(step, phase, round, reason)` —
/// the believed `(phase, round)` it was rejected in — or `None` when the
/// whole trace is accepted.
pub fn first_conviction(
    table: &ProtocolTable,
    trace: &Trace,
) -> Option<(usize, PeerPhase, Round, &'static str)> {
    let (mut phase, mut round) = table.initial();
    for (step, &(kind, r)) in trace.iter().enumerate() {
        match table.transition(phase, round, kind, r) {
            Ok((next_phase, next_round, _)) => (phase, round) = (next_phase, next_round),
            Err(why) => return Some((step, phase, round, why)),
        }
    }
    None
}

/// Result of the bounded soundness check.
#[derive(Debug, Clone, Default)]
pub struct SoundnessReport {
    /// Round bound the enumeration ran to.
    pub max_rounds: u64,
    /// Compliant traces replayed.
    pub traces: u64,
    /// Individual receipts stepped through the automaton.
    pub steps: u64,
    /// Compliant traces the automaton convicted (must be empty: each is a
    /// false positive).
    pub false_convictions: Vec<String>,
}

/// Replays every compliant trace of `table` (up to `max_rounds`) through
/// its own transition.
pub fn check_soundness(table: &ProtocolTable, max_rounds: Round) -> SoundnessReport {
    let mut report = SoundnessReport {
        max_rounds,
        ..SoundnessReport::default()
    };
    for trace in compliant_traces(table, max_rounds) {
        report.traces += 1;
        match first_conviction(table, &trace) {
            None => report.steps += trace.len() as u64,
            Some((step, _, _, why)) => {
                report.steps += step as u64 + 1;
                let (kind, r) = trace[step];
                report.false_convictions.push(format!(
                    "step {step} of [{}]: compliant {kind}({r}) convicted: {why}",
                    trace_label(&trace)
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_certify::ProtocolId;
    use ftm_core::spec::ProtocolSpec;

    #[test]
    fn every_compliant_trace_up_to_six_rounds_is_accepted() {
        let report = check_soundness(
            &ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal).table,
            6,
        );
        assert!(
            report.false_convictions.is_empty(),
            "{:?}",
            report.false_convictions
        );
        assert!(
            report.traces > 300,
            "bound 6 should enumerate hundreds of traces, got {}",
            report.traces
        );
    }

    #[test]
    fn crash_spec_traces_are_sound_from_the_opening_less_initial_state() {
        let report = check_soundness(&ProtocolSpec::crash_for(ProtocolId::HurfinRaynal).table, 5);
        assert!(
            report.false_convictions.is_empty(),
            "{:?}",
            report.false_convictions
        );
        assert!(report.traces > 100, "got {}", report.traces);
    }

    #[test]
    fn transformed_traces_are_the_crash_traces_behind_the_opening() {
        // Completeness of the crash→Byzantine step, by construction: the
        // generator emits for `T` exactly what it emits for `T` without its
        // opening, with the opening prepended — so bounded soundness of the
        // transformed spec already replays every lifted crash trace.
        let bounds = crate::Bounds::default();
        for p in ftm_certify::ProtocolId::all() {
            let t = ProtocolSpec::transformed_for(p).table;
            let c = ProtocolSpec::crash_for(p).table;
            let bound = bounds.soundness_rounds_for(&t);
            assert_eq!(bound, bounds.soundness_rounds_for(&c), "{p}");
            let opening = (t.opening.expect("transformed specs open"), 0);
            let lifted: Vec<Trace> = compliant_traces(&c, bound)
                .into_iter()
                .map(|crash| [vec![opening], crash].concat())
                .collect();
            // Not `assert_eq!`: a failure would print 75k traces twice.
            assert!(compliant_traces(&t, bound) == lifted, "{p}");
        }
    }

    #[test]
    fn a_stricter_acceptor_convicts_generated_traces() {
        // Non-vacuity: the generator does not consult the transition. Run
        // the HR traces through a table demanding CURRENT before leaving a
        // round and the NEXT-only rounds show up as false convictions.
        let hr = ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal).table;
        let strict = ProtocolTable {
            slots: &[(MessageKind::Current, true), (MessageKind::Next, true)],
            ..hr
        };
        let convicted = compliant_traces(&hr, 3)
            .iter()
            .filter(|t| first_conviction(&strict, t).is_some())
            .count();
        assert!(convicted > 0);
    }

    #[test]
    fn trace_enumeration_is_duplicate_free() {
        let traces = compliant_traces(
            &ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal).table,
            3,
        );
        let set: std::collections::BTreeSet<String> = traces.iter().map(trace_label).collect();
        assert_eq!(set.len(), traces.len(), "duplicate compliant traces");
    }

    #[test]
    fn compliant_traces_respect_the_round_bound() {
        for t in compliant_traces(
            &ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal).table,
            2,
        ) {
            assert!(t.iter().all(|&(_, r)| r <= 2), "{}", trace_label(&t));
        }
    }
}
