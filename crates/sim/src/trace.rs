//! Run traces: the evidence a simulation leaves behind.
//!
//! Property validators (Agreement, Termination, detector completeness, …)
//! are pure functions over a [`Trace`], so tests, examples and the
//! experiment harness all judge runs by the same record.

use std::fmt;
use std::sync::Arc;

use crate::process::{ProcessId, TimerTag};
use crate::time::VirtualTime;

/// One observable step of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// `src` handed a message of `bytes` bytes for `dst` to the network.
    Send {
        /// Sending process.
        src: ProcessId,
        /// Destination process.
        dst: ProcessId,
        /// Payload size in bytes.
        bytes: usize,
        /// Short payload description (message kind and round, typically);
        /// one allocation shared by every entry about the same send.
        label: Arc<str>,
    },
    /// The network delivered a message to `dst`.
    Deliver {
        /// Original sender.
        src: ProcessId,
        /// Receiving process.
        dst: ProcessId,
        /// Short payload description.
        label: Arc<str>,
    },
    /// A timer fired at `at`.
    Timer {
        /// Process whose timer fired.
        at_process: ProcessId,
        /// The actor-chosen tag.
        tag: TimerTag,
    },
    /// `process` crashed (benign fault injected by the runner).
    Crash {
        /// The crashed process.
        process: ProcessId,
    },
    /// `process` decided.
    Decide {
        /// The deciding process.
        process: ProcessId,
        /// Debug rendering of the decision value.
        value: String,
    },
    /// `process` halted voluntarily.
    Halt {
        /// The halting process.
        process: ProcessId,
    },
    /// Free-form protocol annotation (round starts, suspicions, detections).
    Note {
        /// Annotating process.
        process: ProcessId,
        /// Annotation text, `key=value` style by convention.
        text: String,
    },
}

/// A timestamped [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the event happened.
    pub at: VirtualTime,
    /// What happened.
    pub event: TraceEvent,
}

/// The full record of one run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event at `at`.
    pub fn record(&mut self, at: VirtualTime, event: TraceEvent) {
        self.entries.push(TraceEntry { at, event });
    }

    /// All entries in chronological order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// All `Note` texts emitted by `process`, in order.
    pub fn notes_of(&self, process: ProcessId) -> Vec<&str> {
        self.entries
            .iter()
            .filter_map(|e| match &e.event {
                TraceEvent::Note { process: p, text } if *p == process => Some(text.as_str()),
                _ => None,
            })
            .collect()
    }

    /// A 64-bit FNV-1a digest of the full trace (timestamps and a canonical
    /// rendering of every event).
    ///
    /// Two traces are equal iff their entry sequences are equal, and the
    /// fingerprint is a cheap, order-sensitive proxy for that comparison —
    /// the sweep harness uses it to assert that distinct seeds produce
    /// distinct schedules without storing whole traces.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(PRIME);
            }
        };
        for entry in &self.entries {
            eat(&entry.at.ticks().to_le_bytes());
            eat(format!("{:?}", entry.event).as_bytes());
        }
        hash
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(f, "[{:>8}] {:?}", e.at, e.event)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut t = Trace::new();
        t.record(
            VirtualTime::at(1),
            TraceEvent::Crash {
                process: ProcessId(0),
            },
        );
        t.record(
            VirtualTime::at(2),
            TraceEvent::Decide {
                process: ProcessId(1),
                value: "7".into(),
            },
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.entries()[0].at, VirtualTime::at(1));
        assert!(matches!(t.entries()[1].event, TraceEvent::Decide { .. }));
    }

    #[test]
    fn notes_of_selects_by_process() {
        let mut t = Trace::new();
        t.record(
            VirtualTime::at(1),
            TraceEvent::Note {
                process: ProcessId(0),
                text: "round=1".into(),
            },
        );
        t.record(
            VirtualTime::at(2),
            TraceEvent::Note {
                process: ProcessId(1),
                text: "round=2".into(),
            },
        );
        assert_eq!(t.notes_of(ProcessId(0)), vec!["round=1"]);
    }

    #[test]
    fn fingerprint_is_stable_and_order_sensitive() {
        let mk = |first: u32, second: u32| {
            let mut t = Trace::new();
            t.record(
                VirtualTime::at(1),
                TraceEvent::Crash {
                    process: ProcessId(first),
                },
            );
            t.record(
                VirtualTime::at(2),
                TraceEvent::Halt {
                    process: ProcessId(second),
                },
            );
            t
        };
        assert_eq!(mk(0, 1).fingerprint(), mk(0, 1).fingerprint());
        assert_ne!(mk(0, 1).fingerprint(), mk(1, 0).fingerprint());
        assert_ne!(Trace::new().fingerprint(), mk(0, 1).fingerprint());
    }

    #[test]
    fn display_renders_every_entry() {
        let mut t = Trace::new();
        t.record(
            VirtualTime::at(3),
            TraceEvent::Halt {
                process: ProcessId(2),
            },
        );
        let s = t.to_string();
        assert!(s.contains("Halt"));
        assert!(!t.is_empty());
    }
}
