//! Spans recorded by the benchmark around the calls into each layer, kept
//! in memory during a traced repetition and written out at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Identifier shared by every span of one request: the command value
    /// for `command` trees, `replica << 48 | slot` for `core.slot` trees.
    pub trace: u64,
    /// `layer.what`, e.g. `net.ingress`.
    pub name: &'static str,
    /// Nanoseconds since the repetition's time base.
    pub start_ns: u64,
    /// Nanoseconds since the repetition's time base.
    pub end_ns: u64,
    /// Index (in the same list) of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children are clipped to the parent and
/// overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children.entry(p).or_default().push((a, b));
            }
        }
    }
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for (p, mut ivs) in children {
        ivs.sort_unstable();
        let mut covered = 0;
        let mut reach = 0;
        for (a, b) in ivs {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        out[p] -= covered;
    }
    out
}

/// Appends one `core.slot[open→seal]` span per entry of `slots` (given as
/// `(trace id, open, seal)` in time order, non-overlapping), each with the
/// `core.actor` calls that ran inside it as children. A call that runs
/// across a seal is split there: the tail opened the next slot.
pub fn push_slot_trees(spans: &mut Vec<Span>, slots: &[(u64, u64, u64)], calls: &[(u64, u64)]) {
    debug_assert!(calls.windows(2).all(|w| w[0].0 <= w[1].0));
    let mut next = 0;
    for &(trace, open, seal) in slots {
        let parent = spans.len();
        spans.push(Span {
            trace,
            name: "core.slot",
            start_ns: open,
            end_ns: seal,
            parent: None,
        });
        while next < calls.len() && calls[next].0 < seal {
            let (a, b) = calls[next];
            if b > open {
                spans.push(Span {
                    trace,
                    name: "core.actor",
                    start_ns: a.max(open),
                    end_ns: b.min(seal),
                    parent: Some(parent),
                });
            }
            if b > seal {
                break;
            }
            next += 1;
        }
    }
}

/// Writes `spans` as JSON lines (one object per span, parents by index).
///
/// # Errors
///
/// Directory creation or file write failures.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 120);
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}",
            s.trace, s.name, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            trace: 1,
            name: "t",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 30, Some(0)),  // 1
            span(20, 50, Some(0)),  // 2: overlaps 1 → union [10,50) = 40
            span(25, 28, Some(2)),  // 3: grandchild, charged to 2 only
            span(90, 140, Some(0)), // 4: clipped to [90,100) = 10
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 27, 3, 50]);
    }

    #[test]
    fn tiled_children_leave_no_self_time() {
        let spans = vec![
            span(5, 25, None),
            span(5, 10, Some(0)),
            span(10, 25, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn a_call_across_a_seal_is_split_between_the_two_slots() {
        let mut spans = Vec::new();
        let slots = [(0, 0, 100), (1, 100, 200)];
        let calls = [(10, 30), (90, 120), (150, 160), (250, 260)];
        push_slot_trees(&mut spans, &slots, &calls);
        let kids = |p: usize| -> Vec<(u64, u64)> {
            spans
                .iter()
                .filter(|s| s.parent == Some(p))
                .map(|s| (s.start_ns, s.end_ns))
                .collect()
        };
        assert_eq!(kids(0), vec![(10, 30), (90, 100)]);
        let second = spans.iter().position(|s| s.trace == 1).expect("slot 1");
        assert_eq!(kids(second), vec![(100, 120), (150, 160)]);
        let selfs = self_times(&spans);
        assert_eq!((selfs[0], selfs[second]), (70, 70));
    }

    #[test]
    fn childless_span_keeps_its_duration() {
        assert_eq!(self_times(&[span(3, 11, None)]), vec![8]);
    }
}
