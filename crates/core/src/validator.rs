//! Run-level property checkers: one source of truth for tests, examples
//! and the experiment harness.
//!
//! Validators take a finished [`ftm_sim::RunReport`] plus ground truth the
//! harness knows (who was faulty, what everyone proposed) and return a
//! [`Verdict`] per property. Violations carry text for experiment logs.

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

/// Checks classical consensus on a crash-model run.
///
/// `proposals[i]` is what `p_i` proposed; `faulty[i]` marks processes that
/// were crashed *or* Byzantine-wrapped (excluded from the obligations, as
/// specifications only constrain correct processes).
pub fn check_crash_consensus(
    report: &RunReport<Value>,
    proposals: &[Value],
    faulty: &[bool],
) -> Verdict {
    let mut violations = Vec::new();
    let correct: Vec<usize> = (0..proposals.len())
        .filter(|&i| !faulty.get(i).copied().unwrap_or(false) && !report.crashed[i])
        .collect();

    let termination = correct.iter().all(|&i| report.decisions[i].is_some());
    if !termination {
        violations.push("termination: some correct process never decided".into());
    }

    let decided: Vec<Value> = correct
        .iter()
        .filter_map(|&i| report.decisions[i])
        .collect();
    let agreement = decided.windows(2).all(|w| w[0] == w[1]);
    if !agreement {
        violations.push(format!("agreement: correct processes decided {decided:?}"));
    }

    let validity = decided.iter().all(|v| proposals.contains(v));
    if !validity {
        violations.push(format!(
            "validity: decided value not among proposals {decided:?}"
        ));
    }

    Verdict {
        termination,
        agreement,
        validity,
        violations,
    }
}

/// Checks Vector Consensus on a transformed-protocol run.
///
/// `proposals[i]` is `p_i`'s initial value; `faulty[i]` marks the
/// adversary-controlled processes. Vector Validity is checked with
/// `ψ = n − 2F` (see [`check_vector_validity`]).
pub fn check_vector_consensus(
    report: &RunReport<ValueVector>,
    proposals: &[Value],
    faulty: &[bool],
    f: usize,
) -> Verdict {
    let mut violations = Vec::new();
    let n = proposals.len();
    let correct: Vec<usize> = (0..n)
        .filter(|&i| !faulty.get(i).copied().unwrap_or(false) && !report.crashed[i])
        .collect();

    let termination = correct.iter().all(|&i| report.decisions[i].is_some());
    if !termination {
        violations.push("termination: some correct process never decided".into());
    }

    let decided: Vec<&ValueVector> = correct
        .iter()
        .filter_map(|&i| report.decisions[i].as_ref())
        .collect();
    let agreement = decided.windows(2).all(|w| w[0] == w[1]);
    if !agreement {
        violations.push("agreement: correct processes decided different vectors".into());
    }

    // Ground truth for Vector Validity: correct processes' true values.
    let truth: Vec<Option<Value>> = (0..n)
        .map(|i| {
            if faulty.get(i).copied().unwrap_or(false) || report.crashed[i] {
                None
            } else {
                Some(proposals[i])
            }
        })
        .collect();
    let mut validity = true;
    for vect in &decided {
        if let Err(e) = check_vector_validity(vect, &truth, f) {
            validity = false;
            violations.push(format!("vector validity: {e}"));
            break;
        }
    }

    Verdict {
        termination,
        agreement,
        validity,
        violations,
    }
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
