//! The one grammar of trace notes.
//!
//! A note leaves an actor as a `String` ([`Context::note`]) and is read
//! back from simulator traces and node reports. Only this module knows the
//! text: an emitter renders a [`Note`] with `Display` (a replicated log
//! passes on what its instances say through [`in_slot`]), a reader calls
//! [`Note::parse`]. Each text is a fixed format — the frozen benchmark keeps
//! a reader of its own — so the golden table in this module's tests pins
//! every one.
//!
//! [`Context::note`]: crate::Context::note

use std::fmt;

use crate::process::ProcessId;

/// `s<slot>:<note>` — how a replicated log passes on what slot `slot`'s
/// instance said. Its own notes, and a one-shot instance's, carry no prefix.
pub fn in_slot(slot: u64, note: impl fmt::Display) -> String {
    format!("s{slot}:{note}")
}

/// Whom the non-muteness module names, and for what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Finding<'a> {
    /// The process named.
    pub culprit: ProcessId,
    /// The fault class label (`bad-signature`, `out-of-order`, …).
    pub class: &'a str,
    /// What exactly failed; runs to the end of the note.
    pub reason: &'a str,
}

impl fmt::Display for Finding<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (culprit, class, reason) = (self.culprit, self.class, self.reason);
        write!(f, "{culprit} class={class} reason={reason}")
    }
}

/// The counters of a [`Note::StackStats`]: its `key=<n>` words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats<'a>(pub &'a str);

impl<'a> Stats<'a> {
    /// The `(key, n)` pairs, in the order written; a word of another shape
    /// is skipped.
    pub fn iter(self) -> impl Iterator<Item = (&'a str, u64)> {
        let pair = |word: &'a str| word.split_once('=').and_then(|(k, n)| Some((k, num(n)?)));
        self.0.split_whitespace().filter_map(pair)
    }
}

/// One note, borrowed from its emitter's fields or from the text it was
/// parsed out of; each variant quotes its exact text, fields in order.
/// Kinds no code reads (`change-mind`, `vector-certified`, the transport's
/// eviction notes) are [`Note::Text`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Note<'a> {
    /// `round=<r>` — the instance opened round `r` (the simulator's
    /// `max_rounds` stop reads it).
    Round(u64),
    /// `suspect=<p> r=<r>` — the instance gave up on `p`, round `r`'s
    /// coordinator, on ◇M's or the non-muteness module's word.
    Suspect(ProcessId, u64),
    /// `detected=<p> class=<c> reason=<…>` — a conviction.
    Detected(Finding<'a>),
    /// `recovery-suppressed unproven=<p> class=<c> reason=<…>` — what the
    /// log makes of a [`Note::Detected`] by an instance it opened from a
    /// checkpoint seal: that instance joined its slot mid-round, so the
    /// finding is for the record, not a conviction.
    Unproven(Finding<'a>),
    /// `stack-stats <key>=<n> …` — the module stack's running receive-side
    /// counters; repeated every round, so an instance's last is its total.
    StackStats(Stats<'a>),
    /// `slot-decided=<k> total=<t>` — the log sealed slot `k`, its `t`-th.
    SlotDecided(u64, u64),
    /// `evidence slot=<k> bytes=<b>` — full retention holds `b` bytes of
    /// decide evidence after slot `k`.
    Evidence(u64, u64),
    /// `checkpoint slot=<k> bytes=<b>` — slot `k` was compacted into a
    /// `b`-byte checkpoint envelope.
    Checkpoint(u64, u64),
    /// `checkpoint-unsound slot=<k> reason=<…>` — the log's own checkpoint
    /// of slot `k` failed its audit and was not kept.
    CheckpointUnsound(u64, &'a str),
    /// `catchup-sent to=<p> lo=<k> n=<n>` — `n` checkpoints from slot `k`
    /// on went to lagging peer `p`.
    CatchupSent(ProcessId, u64, u64),
    /// `catchup-applied slot=<k> from=<p>` — slot `k` was sealed from
    /// `p`'s checkpoint.
    CatchupApplied(u64, ProcessId),
    /// `catchup-rejected slot=<k> reason=<…>` — a checkpoint for slot `k`
    /// failed admission.
    CatchupRejected(u64, &'a str),
    /// Any other text, verbatim.
    Text(&'a str),
}

impl<'a> Note<'a> {
    /// Reads a note text: the slot whose instance said it (`None` without
    /// an `s<slot>:` prefix; blanks after the prefix are skipped) and the
    /// note. Total: a text that is not exactly one of the formats above
    /// comes back as [`Note::Text`].
    pub fn parse(text: &'a str) -> (Option<u64>, Note<'a>) {
        let prefixed = text.strip_prefix('s').and_then(|rest| rest.split_once(':'));
        let (slot, body) = match prefixed.and_then(|(k, body)| Some((num(k)?, body))) {
            Some((slot, body)) => (Some(slot), body.trim_start()),
            None => (None, text),
        };
        (slot, Self::known(body).unwrap_or(Note::Text(body)))
    }

    fn known(body: &'a str) -> Option<Note<'a>> {
        let (head, rest) = body.split_once(' ').unwrap_or((body, ""));
        let (kind, first) = head.split_once('=').unwrap_or((head, ""));
        let mut f = Fields(rest);
        let finding = |culprit: ProcessId, f: &mut Fields<'a>| {
            let (class, reason) = (f.word("class")?, f.rest("reason")?);
            Some(Finding {
                culprit,
                class,
                reason,
            })
        };
        let note = match kind {
            "round" => Note::Round(num(first)?),
            "suspect" => Note::Suspect(pid(first)?, f.num("r")?),
            "detected" => Note::Detected(finding(pid(first)?, &mut f)?),
            "recovery-suppressed" => Note::Unproven(finding(f.pid("unproven")?, &mut f)?),
            "stack-stats" => Note::StackStats(Stats(std::mem::take(&mut f.0))),
            "slot-decided" => Note::SlotDecided(num(first)?, f.num("total")?),
            "evidence" => Note::Evidence(f.num("slot")?, f.num("bytes")?),
            "checkpoint" => Note::Checkpoint(f.num("slot")?, f.num("bytes")?),
            "checkpoint-unsound" => Note::CheckpointUnsound(f.num("slot")?, f.rest("reason")?),
            "catchup-sent" => Note::CatchupSent(f.pid("to")?, f.num("lo")?, f.num("n")?),
            "catchup-applied" => Note::CatchupApplied(f.num("slot")?, f.pid("from")?),
            "catchup-rejected" => Note::CatchupRejected(f.num("slot")?, f.rest("reason")?),
            _ => return None,
        };
        f.0.is_empty().then_some(note)
    }
}

impl fmt::Display for Note<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Note::Round(r) => write!(f, "round={r}"),
            Note::Suspect(p, r) => write!(f, "suspect={p} r={r}"),
            Note::Detected(found) => write!(f, "detected={found}"),
            Note::Unproven(found) => write!(f, "recovery-suppressed unproven={found}"),
            Note::StackStats(Stats(words)) => write!(f, "stack-stats {words}"),
            Note::SlotDecided(k, total) => write!(f, "slot-decided={k} total={total}"),
            Note::Evidence(k, bytes) => write!(f, "evidence slot={k} bytes={bytes}"),
            Note::Checkpoint(k, bytes) => write!(f, "checkpoint slot={k} bytes={bytes}"),
            Note::CheckpointUnsound(k, why) => {
                write!(f, "checkpoint-unsound slot={k} reason={why}")
            }
            Note::CatchupSent(p, k, n) => write!(f, "catchup-sent to={p} lo={k} n={n}"),
            Note::CatchupApplied(k, p) => write!(f, "catchup-applied slot={k} from={p}"),
            Note::CatchupRejected(k, why) => write!(f, "catchup-rejected slot={k} reason={why}"),
            Note::Text(text) => f.write_str(text),
        }
    }
}

/// So an emitter writes `ctx.note(Note::Round(r))`.
impl From<Note<'_>> for String {
    fn from(note: Note<'_>) -> String {
        note.to_string()
    }
}

/// The ` key=value` fields after a note's first word, read in order.
struct Fields<'a>(&'a str);

impl<'a> Fields<'a> {
    /// `key=<word>`, up to the next blank.
    fn word(&mut self, key: &str) -> Option<&'a str> {
        let value = self.rest(key)?;
        let (word, tail) = value.split_once(' ').unwrap_or((value, ""));
        self.0 = tail;
        Some(word)
    }

    /// `key=<everything that is left>`.
    fn rest(&mut self, key: &str) -> Option<&'a str> {
        let value = self.0.strip_prefix(key)?.strip_prefix('=')?;
        self.0 = "";
        Some(value)
    }

    fn num(&mut self, key: &str) -> Option<u64> {
        num(self.word(key)?)
    }

    fn pid(&mut self, key: &str) -> Option<ProcessId> {
        pid(self.word(key)?)
    }
}

/// Decimal digits only (`str::parse` would also take a sign).
fn num(digits: &str) -> Option<u64> {
    let plain = digits.bytes().all(|b| b.is_ascii_digit());
    plain.then(|| digits.parse().ok()).flatten()
}

/// `p<k>`, as `ProcessId` displays.
fn pid(word: &str) -> Option<ProcessId> {
    let id = num(word.strip_prefix('p')?)?;
    Some(ProcessId(u32::try_from(id).ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTERS: &str = "admitted=9 sig-rejects=1 cert-rejects=0 auto-rejects=2 \
                            syntax-rejects=0 fd-mistakes=1 fd-honest-mistakes=0 quarantined=3 \
                            checkpoints=0";

    /// Every variant, bare and from a log instance as emitted, with its exact
    /// text: what `benchmark/src/notes.rs`, `parse_convictions` and the
    /// sweep's trace fingerprints read.
    fn golden() -> Vec<(Option<u64>, Note<'static>, &'static str)> {
        let (bare, slot) = (None, Some);
        let forged = |culprit| Finding {
            culprit: ProcessId(culprit),
            class: "bad-signature",
            reason: "core signature does not verify for claimed sender",
        };
        let duplicate = Finding {
            culprit: ProcessId(1),
            class: "out-of-order",
            reason: "duplicate INIT",
        };
        vec![
            (bare, Note::Round(1), "round=1"),
            (slot(2), Note::Round(7), "s2:round=7"),
            (bare, Note::Suspect(ProcessId(2), 1), "suspect=p2 r=1"),
            (slot(1), Note::Suspect(ProcessId(0), 4), "s1:suspect=p0 r=4"),
            (
                bare,
                Note::Detected(forged(2)),
                "detected=p2 class=bad-signature \
                 reason=core signature does not verify for claimed sender",
            ),
            (
                slot(12),
                Note::Detected(forged(11)),
                "s12:detected=p11 class=bad-signature \
                 reason=core signature does not verify for claimed sender",
            ),
            (
                slot(2),
                Note::Detected(duplicate),
                "s2:detected=p1 class=out-of-order reason=duplicate INIT",
            ),
            (
                slot(1),
                Note::Unproven(duplicate),
                "s1:recovery-suppressed unproven=p1 class=out-of-order reason=duplicate INIT",
            ),
            (
                slot(0),
                Note::StackStats(Stats(COUNTERS)),
                "s0:stack-stats admitted=9 sig-rejects=1 cert-rejects=0 auto-rejects=2 \
                 syntax-rejects=0 fd-mistakes=1 fd-honest-mistakes=0 quarantined=3 checkpoints=0",
            ),
            (bare, Note::SlotDecided(0, 1), "slot-decided=0 total=1"),
            (bare, Note::Evidence(2, 549), "evidence slot=2 bytes=549"),
            (
                bare,
                Note::Checkpoint(2, 248),
                "checkpoint slot=2 bytes=248",
            ),
            (
                bare,
                Note::CheckpointUnsound(3, "bad-certificate by p0: too few votes"),
                "checkpoint-unsound slot=3 reason=bad-certificate by p0: too few votes",
            ),
            (
                bare,
                Note::CatchupSent(ProcessId(3), 5, 2),
                "catchup-sent to=p3 lo=5 n=2",
            ),
            (
                bare,
                Note::CatchupApplied(0, ProcessId(0)),
                "catchup-applied slot=0 from=p0",
            ),
            (
                bare,
                Note::CatchupRejected(4, "no-quorum-vector"),
                "catchup-rejected slot=4 reason=no-quorum-vector",
            ),
            (slot(3), Note::Text("change-mind r=2"), "s3:change-mind r=2"),
            (
                bare,
                Note::Text("vector-certified vect=[Some(1), None]"),
                "vector-certified vect=[Some(1), None]",
            ),
        ]
    }

    #[test]
    fn every_variant_renders_its_golden_text_and_parses_back() {
        for (slot, note, text) in golden() {
            let rendered = match slot {
                Some(slot) => in_slot(slot, note),
                None => note.into(),
            };
            assert_eq!(rendered, text);
            assert_eq!(Note::parse(text), (slot, note), "{text}");
        }
    }

    #[test]
    fn stats_read_back_as_the_pairs_written() {
        let text = Note::StackStats(Stats(COUNTERS)).to_string();
        let (_, Note::StackStats(read)) = Note::parse(&text) else {
            panic!("{text}");
        };
        assert_eq!(read.iter().count(), 9);
        assert_eq!(read.iter().next(), Some(("admitted", 9)));
        assert_eq!(read.iter().last(), Some(("checkpoints", 0)));
        // A word that is not `key=<n>` is skipped, not an error.
        let sparse = Stats("admitted=4 garbage fd-mistakes=x checkpoints=1");
        assert_eq!(
            sparse.iter().collect::<Vec<_>>(),
            [("admitted", 4), ("checkpoints", 1)]
        );
    }

    #[test]
    fn anything_off_format_is_free_text() {
        for text in [
            "",
            "round=",
            "round=+7",
            "round=2 opened",
            "unproven=p1 class=out-of-order reason=duplicate INIT",
            "suspect=p2",
            "suspect=2 r=1",
            "detected=p3 reason=no class",
            "detected=q3 class=bad-signature reason=x",
            "evidence slot=2",
            "evidence bytes=9 slot=2",
            "catchup-sent to=p4294967296 lo=0 n=1",
            "handshake-timeout evicted",
        ] {
            assert_eq!(Note::parse(text), (None, Note::Text(text)), "{text}");
        }
        // Only `s<digits>:` is a slot prefix.
        for text in ["s:round=1", "sx:round=1", "s+1:round=1", "slot-decided"] {
            assert_eq!(Note::parse(text).0, None, "{text}");
        }
    }

    #[test]
    fn a_reader_tolerates_blanks_after_the_scope_and_unknown_classes() {
        let found = Finding {
            culprit: ProcessId(1),
            class: "protocol-violation",
            reason: "y",
        };
        assert_eq!(
            Note::parse("s7: detected=p1 class=protocol-violation reason=y"),
            (Some(7), Note::Detected(found))
        );
    }
}
