//! Retained-evidence bytes of the replicated log: pinned exactly at toy
//! scale, bounded over 10⁴ decided slots.
//!
//! The pin test holds the deterministic byte figures of a fixed-seed
//! 3-slot run as exact integers, so any growth of retained evidence is a
//! red tier-1 test on any machine. The soak runs the checkpointed log
//! long enough that unbounded retention would be visible as a trend; it
//! is `#[ignore]`d — the weekly deep-verify CI job runs it in release
//! mode.

use ft_modular::core::byzantine::log::{retained_series, Retention};
use ft_modular::faults::AttackRun;
use ft_modular::sim::note::Note;
use ft_modular::sim::ProcessId;

const SLOTS: u64 = 10_000;

#[test]
fn retained_bytes_of_a_three_slot_log_are_pinned() {
    let run = |retention| {
        AttackRun::new(4, 1, 11, 0)
            .retention(retention)
            .run_log(3, None)
    };
    // Full retention accumulates: the last figure is the linear endpoint.
    let full = || retained_series(&run(Retention::Full).trace, Retention::Full).pop();
    // Compaction is flat (and undercuts full): the max figure is the bound.
    let flat = || {
        retained_series(&run(Retention::Checkpoint).trace, Retention::Checkpoint)
            .into_iter()
            .max()
    };
    assert_eq!(full(), Some(549));
    assert_eq!(full(), Some(549), "not reproducible across runs");
    assert_eq!(flat(), Some(248));
    assert_eq!(flat(), Some(248), "not reproducible across runs");
}

#[test]
#[ignore = "10^4-slot soak; run in release via the deep-verify cron"]
fn checkpointed_log_memory_is_bounded_over_ten_thousand_slots() {
    let report = AttackRun::new(4, 1, 9, 0)
        .retention(Retention::Checkpoint)
        .run_log(SLOTS, None);

    // Every replica decided every slot and the logs agree.
    for (p, log) in report.decisions.iter().enumerate() {
        let log = log
            .as_ref()
            .unwrap_or_else(|| panic!("p{p} never finished"));
        assert_eq!(log.len() as u64, SLOTS, "p{p} lost slots");
        assert_eq!(
            Some(log),
            report.decisions[0].as_ref(),
            "p{p} diverged from p0"
        );
    }

    // Replica 0's retained evidence: one sound checkpoint per slot, and
    // the per-slot retained bytes never trend upward — the whole point of
    // compaction. (Full retention reaches ~SLOTS × quorum-cert bytes.)
    for text in report.trace.notes_of(ProcessId(0)) {
        assert!(
            !matches!(Note::parse(text).1, Note::CheckpointUnsound(..)),
            "replica 0 built an unsound checkpoint: {text}"
        );
    }
    let series = retained_series(&report.trace, Retention::Checkpoint);
    assert_eq!(series.len() as u64, SLOTS, "a slot was never compacted");
    let (min, max) = (*series.iter().min().unwrap(), *series.iter().max().unwrap());
    assert!(
        max < 2 * min,
        "checkpoint bytes drifted: min={min} max={max} (first={} last={})",
        series[0],
        series[SLOTS as usize - 1]
    );
}
