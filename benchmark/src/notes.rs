//! Totals recovered from the notes a run leaves behind (`stack-stats`,
//! `suspect=`), the only channel through which the module stack's
//! receive-side counters are visible from outside.

use std::collections::BTreeMap;

/// Receive-side counters summed over every slot instance of the replicas
/// whose notes were fed in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackTotals {
    /// Envelopes the module stack accepted.
    pub admitted: u64,
    /// Rejected by the signature module.
    pub sig_rejects: u64,
    /// Rejected by the certificate analyzer.
    pub cert_rejects: u64,
    /// Rejected by the per-peer non-muteness automaton.
    pub auto_rejects: u64,
    /// Rejected as syntactically wrong.
    pub syntax_rejects: u64,
    /// Muteness-detector mistakes (suspicions later contradicted).
    pub fd_mistakes: u64,
    /// `suspect=` notes: coordinator suspicions acted on.
    pub suspicions: u64,
}

/// The `s<slot>:` prefix the replicated log puts on inner notes.
fn split_slot(text: &str) -> Option<(u64, &str)> {
    let (digits, tail) = text.strip_prefix('s')?.split_once(':')?;
    Some((digits.parse().ok()?, tail))
}

fn field(note: &str, key: &str) -> u64 {
    note.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

impl StackTotals {
    /// Envelopes put to the module stack, admitted or not.
    pub fn offered(&self) -> u64 {
        self.admitted
            + self.sig_rejects
            + self.cert_rejects
            + self.auto_rejects
            + self.syntax_rejects
    }

    /// Sums the notes of any number of replicas, given as `(replica, note)`
    /// in emission order. Each slot instance re-emits its running
    /// `stack-stats` at every round and once more when it decides, so only
    /// the last one per `(replica, slot)` counts.
    pub fn from_notes<'a>(notes: impl Iterator<Item = (u32, &'a str)>) -> Self {
        let mut last: BTreeMap<(u32, u64), &str> = BTreeMap::new();
        let mut totals = StackTotals::default();
        for (replica, text) in notes {
            let Some((slot, body)) = split_slot(text) else {
                continue;
            };
            if body.starts_with("stack-stats ") {
                last.insert((replica, slot), body);
            } else if body.starts_with("suspect=") {
                totals.suspicions += 1;
            }
        }
        for body in last.values() {
            totals.admitted += field(body, "admitted");
            totals.sig_rejects += field(body, "sig-rejects");
            totals.cert_rejects += field(body, "cert-rejects");
            totals.auto_rejects += field(body, "auto-rejects");
            totals.syntax_rejects += field(body, "syntax-rejects");
            totals.fd_mistakes += field(body, "fd-mistakes");
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_stats_note_per_replica_and_slot_wins() {
        let notes = [
            (0, "s0:round=1"),
            (0, "s0:stack-stats admitted=3 sig-rejects=0 cert-rejects=0 auto-rejects=0 syntax-rejects=0 fd-mistakes=0 fd-honest-mistakes=0 quarantined=0 checkpoints=0"),
            (0, "s0:stack-stats admitted=9 sig-rejects=1 cert-rejects=0 auto-rejects=2 syntax-rejects=0 fd-mistakes=1 fd-honest-mistakes=0 quarantined=0 checkpoints=0"),
            (0, "s1:suspect=p2 r=1"),
            (0, "s1:stack-stats admitted=5 sig-rejects=0 cert-rejects=4 auto-rejects=0 syntax-rejects=0 fd-mistakes=0 fd-honest-mistakes=0 quarantined=0 checkpoints=0"),
            (1, "s0:stack-stats admitted=7 sig-rejects=0 cert-rejects=0 auto-rejects=0 syntax-rejects=0 fd-mistakes=0 fd-honest-mistakes=0 quarantined=0 checkpoints=0"),
            (1, "slot-decided=0 total=1"),
        ];
        let t = StackTotals::from_notes(notes.iter().map(|&(r, s)| (r, s)));
        assert_eq!(
            t,
            StackTotals {
                admitted: 21,
                sig_rejects: 1,
                cert_rejects: 4,
                auto_rejects: 2,
                syntax_rejects: 0,
                fd_mistakes: 1,
                suspicions: 1,
            }
        );
    }
}
