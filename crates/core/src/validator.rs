//! Run-level property checkers: one source of truth for tests, examples
//! and the experiment harness.
//!
//! Validators take a finished [`ftm_sim::RunReport`] plus ground truth the
//! harness knows (who was faulty, what everyone proposed) and return a
//! [`Verdict`] per property. One function judges all three
//! specifications — classical consensus, Vector Consensus and the
//! replicated log — Termination and Agreement alike, given each
//! specification's validity predicate on one decision. Violations carry
//! text for experiment logs.

use ftm_certify::vector::check_vector_validity;
use ftm_certify::{Value, ValueVector};
use ftm_sim::note::Note;
use ftm_sim::trace::{Trace, TraceEntry, TraceEvent};
use ftm_sim::{ProcessId, RunReport, VirtualTime};

/// The verdict on one run against one specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Every correct process decided.
    pub termination: bool,
    /// No two correct processes decided differently.
    pub agreement: bool,
    /// The validity property of the spec checked (classical or vector).
    pub validity: bool,
    /// Human-readable violations for experiment logs.
    pub violations: Vec<String>,
}

impl Verdict {
    /// All three properties hold.
    pub fn ok(&self) -> bool {
        self.termination && self.agreement && self.validity
    }
}

/// Which processes the specifications bind: `p_i` is correct unless
/// `faulty[i]` marks it (crashed *or* Byzantine-wrapped) or it crashed
/// during the run.
fn correct<D>(report: &RunReport<D>, faulty: &[bool]) -> Vec<bool> {
    (0..report.decisions.len())
        .map(|i| !faulty.get(i).copied().unwrap_or(false) && !report.crashed[i])
        .collect()
}

/// Vector Validity's ground truth: `value(i)` for each correct `p_i`,
/// `None` for the rest.
fn truth(correct: &[bool], value: impl Fn(usize) -> Value) -> Vec<Option<Value>> {
    (0..correct.len())
        .map(|i| correct[i].then(|| value(i)))
        .collect()
}

/// Judges a run: every correct process decided (Termination), all correct
/// decisions are equal (Agreement), and `validity` accepts each of them;
/// the first decision it rejects is the reported violation.
fn check_consensus<D: PartialEq>(
    report: &RunReport<D>,
    faulty: &[bool],
    validity: impl Fn(&D) -> Result<(), String>,
) -> Verdict {
    let decisions: Vec<Option<&D>> = report
        .decisions
        .iter()
        .zip(correct(report, faulty))
        .filter_map(|(decision, correct)| correct.then_some(decision.as_ref()))
        .collect();
    let decided: Vec<&D> = decisions.iter().copied().flatten().collect();
    let mut violations = Vec::new();

    let termination = decided.len() == decisions.len();
    if !termination {
        violations.push("termination: some correct process never decided".into());
    }
    let agreement = decided.windows(2).all(|w| w[0] == w[1]);
    if !agreement {
        violations.push("agreement: correct processes decided differently".into());
    }
    let rejected = decided.iter().find_map(|d| validity(d).err());
    let validity = rejected.is_none();
    violations.extend(rejected.map(|e| format!("validity: {e}")));

    Verdict {
        termination,
        agreement,
        validity,
        violations,
    }
}

/// Checks classical consensus on a crash-model run: the decided value is
/// one of the `proposals`.
///
/// `proposals[i]` is what `p_i` proposed; `faulty[i]` marks processes that
/// were crashed *or* Byzantine-wrapped (excluded from the obligations, as
/// specifications only constrain correct processes).
pub fn check_crash_consensus(
    report: &RunReport<Value>,
    proposals: &[Value],
    faulty: &[bool],
) -> Verdict {
    check_consensus(report, faulty, |v| {
        if proposals.contains(v) {
            Ok(())
        } else {
            Err(format!("decided {v}, not among the proposals"))
        }
    })
}

/// Checks Vector Consensus on a transformed-protocol run.
///
/// `proposals[i]` is `p_i`'s initial value; `faulty[i]` marks the
/// adversary-controlled processes. Vector Validity is checked with
/// `ψ = n − 2F` (see [`check_vector_validity`]) against the correct
/// processes' proposals.
pub fn check_vector_consensus(
    report: &RunReport<ValueVector>,
    proposals: &[Value],
    faulty: &[bool],
    f: usize,
) -> Verdict {
    let truth = truth(&correct(report, faulty), |i| proposals[i]);
    check_consensus(report, faulty, |vect| {
        check_vector_validity(vect, &truth, f).map_err(|e| e.to_string())
    })
}

/// Checks Vector Consensus lifted to the replicated log: every correct
/// replica completed its log, completed logs are identical, and each slot
/// of each log satisfies Vector Validity against that slot's true
/// commands, `command(slot, p)` for each correct replica `p`.
pub fn check_log_consensus(
    report: &RunReport<Vec<ValueVector>>,
    command: impl Fn(u64, u32) -> Value,
    faulty: &[bool],
    f: usize,
) -> Verdict {
    let correct = correct(report, faulty);
    check_consensus(report, faulty, |log| {
        log.iter().enumerate().try_for_each(|(slot, vect)| {
            let truth = truth(&correct, |p| command(slot as u64, p as u32));
            check_vector_validity(vect, &truth, f).map_err(|e| format!("slot {slot}: {e}"))
        })
    })
}

/// Number of rounds `p` opened during the run (counts [`Note::Round`]s,
/// a replicated log's instances included).
pub fn rounds_used(trace: &Trace, p: ProcessId) -> usize {
    trace
        .notes_of(p)
        .iter()
        .filter(|text| matches!(Note::parse(text).1, Note::Round(_)))
        .count()
}

/// Highest round any process opened.
pub fn max_round(trace: &Trace, n: usize) -> usize {
    (0..n as u32)
        .map(|p| rounds_used(trace, ProcessId(p)))
        .max()
        .unwrap_or(0)
}

/// A parsed [`Note::Detected`]: who convicted whom, for what, when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// The convicting observer.
    pub observer: ProcessId,
    /// The convicted process.
    pub culprit: String,
    /// Fault class label (e.g. `bad-certificate`).
    pub class: String,
    /// When the conviction happened.
    pub at: VirtualTime,
}

/// Extracts all non-muteness detections from a trace: the
/// [`Note::Detected`]s, a replicated log's instances included.
pub fn detections(trace: &Trace) -> Vec<Detection> {
    let detection = |entry: &TraceEntry| {
        let TraceEvent::Note { process, text } = &entry.event else {
            return None;
        };
        let Note::Detected(found) = Note::parse(text).1 else {
            return None;
        };
        Some(Detection {
            observer: *process,
            culprit: found.culprit.to_string(),
            class: found.class.to_string(),
            at: entry.at,
        })
    };
    trace.entries().iter().filter_map(detection).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_sim::metrics::Metrics;
    use ftm_sim::runner::StopReason;

    fn mk_report(decisions: Vec<Option<Value>>, crashed: Vec<bool>) -> RunReport<Value> {
        let n = decisions.len();
        RunReport {
            decisions,
            crashed,
            halted: vec![true; n],
            contradictions: vec![],
            end_time: VirtualTime::at(100),
            stop: StopReason::AllStopped,
            trace: Trace::new(),
            metrics: Metrics::new(n),
        }
    }

    #[test]
    fn crash_verdict_all_good() {
        let r = mk_report(vec![Some(5), Some(5), Some(5)], vec![false; 3]);
        let v = check_crash_consensus(&r, &[5, 6, 7], &[false; 3]);
        assert!(v.ok(), "{:?}", v.violations);
    }

    #[test]
    fn crash_verdict_flags_disagreement() {
        let r = mk_report(vec![Some(5), Some(6), Some(5)], vec![false; 3]);
        let v = check_crash_consensus(&r, &[5, 6, 7], &[false; 3]);
        assert!(!v.agreement);
        assert!(!v.ok());
        assert!(v.violations[0].contains("agreement"));
    }

    #[test]
    fn crash_verdict_flags_invalid_value() {
        let r = mk_report(vec![Some(99), Some(99), Some(99)], vec![false; 3]);
        let v = check_crash_consensus(&r, &[5, 6, 7], &[false; 3]);
        assert!(v.agreement && !v.validity);
    }

    #[test]
    fn crash_verdict_excludes_faulty_and_crashed() {
        let r = mk_report(vec![Some(5), None, Some(5)], vec![false, true, false]);
        let v = check_crash_consensus(&r, &[5, 6, 7], &[false, false, false]);
        assert!(v.ok(), "{:?}", v.violations);
        // A Byzantine-wrapped process deciding garbage is also excluded.
        let r = mk_report(vec![Some(5), Some(42), Some(5)], vec![false; 3]);
        let v = check_crash_consensus(&r, &[5, 6, 7], &[false, true, false]);
        assert!(v.ok(), "{:?}", v.violations);
    }

    #[test]
    fn crash_verdict_flags_missing_decision() {
        let r = mk_report(vec![Some(5), None, Some(5)], vec![false; 3]);
        let v = check_crash_consensus(&r, &[5, 6, 7], &[false; 3]);
        assert!(!v.termination);
    }

    fn mk_vreport(
        decisions: Vec<Option<ValueVector>>,
        crashed: Vec<bool>,
    ) -> RunReport<ValueVector> {
        let n = decisions.len();
        RunReport {
            decisions,
            crashed,
            halted: vec![true; n],
            contradictions: vec![],
            end_time: VirtualTime::at(100),
            stop: StopReason::AllStopped,
            trace: Trace::new(),
            metrics: Metrics::new(n),
        }
    }

    #[test]
    fn vector_verdict_all_good() {
        let vect = ValueVector::from_entries(vec![Some(10), Some(11), Some(12), None]);
        let r = mk_vreport(vec![Some(vect.clone()); 4], vec![false; 4]);
        let v = check_vector_consensus(&r, &[10, 11, 12, 13], &[false, false, false, true], 1);
        assert!(v.ok(), "{:?}", v.violations);
    }

    #[test]
    fn vector_verdict_flags_falsified_entry() {
        let vect = ValueVector::from_entries(vec![Some(10), Some(99), Some(12), None]);
        let r = mk_vreport(vec![Some(vect.clone()); 4], vec![false; 4]);
        let v = check_vector_consensus(&r, &[10, 11, 12, 13], &[false; 4], 1);
        assert!(!v.validity);
    }

    /// Replica `p` proposes `10·slot + p` for `slot`.
    fn command(slot: u64, p: u32) -> Value {
        10 * slot + u64::from(p)
    }

    /// The log every correct replica of a 4-process, F = 1 system decides
    /// over `slots` slots when p3 is faulty: p0–p2's commands, p3 unset.
    fn honest_log(slots: u64) -> Vec<ValueVector> {
        (0..slots)
            .map(|k| {
                ValueVector::from_entries(vec![
                    Some(command(k, 0)),
                    Some(command(k, 1)),
                    Some(command(k, 2)),
                    None,
                ])
            })
            .collect()
    }

    fn mk_lreport(
        decisions: Vec<Option<Vec<ValueVector>>>,
        crashed: Vec<bool>,
    ) -> RunReport<Vec<ValueVector>> {
        let n = decisions.len();
        RunReport {
            decisions,
            crashed,
            halted: vec![true; n],
            contradictions: vec![],
            end_time: VirtualTime::at(100),
            stop: StopReason::AllStopped,
            trace: Trace::new(),
            metrics: Metrics::new(n),
        }
    }

    const P3_FAULTY: [bool; 4] = [false, false, false, true];

    #[test]
    fn log_verdict_all_good() {
        let r = mk_lreport(vec![Some(honest_log(2)); 4], vec![false; 4]);
        let v = check_log_consensus(&r, command, &P3_FAULTY, 1);
        assert!(v.ok(), "{:?}", v.violations);
    }

    #[test]
    fn log_verdict_flags_a_replica_that_never_completed() {
        let mut decisions = vec![Some(honest_log(2)); 4];
        decisions[1] = None;
        let v = check_log_consensus(
            &mk_lreport(decisions, vec![false; 4]),
            command,
            &P3_FAULTY,
            1,
        );
        assert!(!v.termination && v.agreement && v.validity, "{v:?}");
    }

    #[test]
    fn log_verdict_flags_diverging_logs() {
        let mut decisions = vec![Some(honest_log(2)); 4];
        decisions[2] = Some(honest_log(1));
        let v = check_log_consensus(
            &mk_lreport(decisions, vec![false; 4]),
            command,
            &P3_FAULTY,
            1,
        );
        assert!(v.termination && !v.agreement && v.validity, "{v:?}");
    }

    #[test]
    fn log_verdict_names_the_slot_that_falsifies_a_command() {
        let mut log = honest_log(2);
        log[1] = ValueVector::from_entries(vec![
            Some(command(1, 0)),
            Some(99),
            Some(command(1, 2)),
            None,
        ]);
        let r = mk_lreport(vec![Some(log); 4], vec![false; 4]);
        let v = check_log_consensus(&r, command, &P3_FAULTY, 1);
        assert!(v.termination && v.agreement && !v.validity, "{v:?}");
        assert!(v.violations[0].contains("slot 1"), "{:?}", v.violations);
    }

    #[test]
    fn log_verdict_ignores_faulty_and_crashed_replicas() {
        let garbage = vec![ValueVector::from_entries(vec![Some(7); 4])];
        let decisions = vec![
            Some(honest_log(2)),
            Some(garbage.clone()),
            Some(honest_log(2)),
            Some(garbage),
        ];
        // p3 is faulty; p1 crashed mid-run after deciding garbage.
        let r = mk_lreport(decisions, vec![false, true, false, false]);
        let v = check_log_consensus(&r, command, &P3_FAULTY, 1);
        assert!(v.ok(), "{:?}", v.violations);
    }

    #[test]
    fn detections_parse_notes() {
        let mut trace = Trace::new();
        trace.record(
            VirtualTime::at(9),
            TraceEvent::Note {
                process: ProcessId(1),
                text: "detected=p3 class=bad-certificate reason=whatever".into(),
            },
        );
        trace.record(
            VirtualTime::at(10),
            TraceEvent::Note {
                process: ProcessId(1),
                text: "round=2".into(),
            },
        );
        let d = detections(&trace);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].culprit, "p3");
        assert_eq!(d[0].class, "bad-certificate");
        assert_eq!(d[0].at, VirtualTime::at(9));
    }

    #[test]
    fn rounds_used_counts_notes() {
        let mut trace = Trace::new();
        for r in 1..=3 {
            trace.record(
                VirtualTime::at(r),
                TraceEvent::Note {
                    process: ProcessId(0),
                    text: format!("round={r}"),
                },
            );
        }
        assert_eq!(rounds_used(&trace, ProcessId(0)), 3);
        assert_eq!(max_round(&trace, 2), 3);
    }
}
