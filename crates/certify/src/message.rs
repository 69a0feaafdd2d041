//! Wire message cores for the transformed (Byzantine-resilient) protocol.
//!
//! The transformed Hurfin–Raynal protocol (paper Fig. 3) exchanges four
//! message kinds:
//!
//! * `INIT(p_i, v_i)` — the vector-certification phase: each process signs
//!   and broadcasts its proposal;
//! * `CURRENT(p_i, r, est_vect_i)` — a vote to decide on `est_vect_i` in
//!   round `r`;
//! * `NEXT(p_i, r)` — a vote to move past round `r`;
//! * `DECIDE(p_i, r, est_vect)` — the decision announcement.
//!
//! A [`MessageCore`] is the signed unit: sender identity plus [`Core`]
//! content. Certificates attach around it (see [`crate::signed`]).

use std::fmt;
use std::fmt::Write as _;

use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode, DecodeError, Decoder, Encoder};
use ftm_sim::ProcessId;

/// A consensus proposal value.
///
/// Kept as a bare `u64` so experiments can label proposals with the
/// proposing process; nothing in the protocol inspects the value.
pub type Value = u64;

/// Asynchronous round number; round 0 is the vector-certification phase.
pub type Round = u64;

/// The vector of proposals the transformed protocol agrees on.
///
/// Entry `k` is `Some(v)` when `p_k`'s INIT carrying `v` is witnessed, or
/// `None` (the paper's `null`) otherwise.
///
/// # Example
///
/// ```
/// use ftm_certify::ValueVector;
/// let mut v = ValueVector::empty(4);
/// v.set(1, 99);
/// assert_eq!(v.get(1), Some(99));
/// assert_eq!(v.non_null_count(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueVector {
    entries: Vec<Option<Value>>,
}

impl ValueVector {
    /// An all-null vector for `n` processes.
    pub fn empty(n: usize) -> Self {
        ValueVector {
            entries: vec![None; n],
        }
    }

    /// Builds a vector from explicit entries.
    pub fn from_entries(entries: Vec<Option<Value>>) -> Self {
        ValueVector { entries }
    }

    /// Number of entries (= `n`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the vector has no entries at all (n = 0).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry `k`, or `None` when null or out of range.
    pub fn get(&self, k: usize) -> Option<Value> {
        self.entries.get(k).copied().flatten()
    }

    /// Sets entry `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn set(&mut self, k: usize, v: Value) {
        self.entries[k] = Some(v);
    }

    /// Number of non-null entries.
    pub fn non_null_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Iterates `(index, value)` over non-null entries.
    pub fn iter_set(&self) -> impl Iterator<Item = (usize, Value)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|v| (i, v)))
    }
}

impl fmt::Debug for ValueVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            match e {
                Some(v) => write!(f, "{v}")?,
                None => write!(f, "·")?,
            }
        }
        write!(f, "]")
    }
}

// A length-prefixed sequence of entries, each tag 0 (null) or tag 1 and
// the value.
ftm_crypto::wire_codec! { struct ValueVector { entries } }

/// Identifies which crash protocol a transformed instance derives from.
///
/// Every per-protocol table in the stack (certification rules, observer
/// automaton shape, round-entry evidence) is selected by this id, so a
/// third protocol plugs in by adding a variant and the matching tables.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ProtocolId {
    /// Hurfin–Raynal (paper Fig. 2/3): CURRENT/NEXT proposal-vote rounds.
    HurfinRaynal,
    /// Chandra–Toueg: ESTIMATE/PROPOSE/ACK/NACK coordinator-echo rounds.
    ChandraToueg,
}

impl ProtocolId {
    /// Every supported protocol, in sweep order.
    pub fn all() -> [ProtocolId; 2] {
        [ProtocolId::HurfinRaynal, ProtocolId::ChandraToueg]
    }

    /// Short stable label used in scenario cell keys and report sections.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolId::HurfinRaynal => "hr",
            ProtocolId::ChandraToueg => "ct",
        }
    }

    /// The vote kinds whose `n − F` quorum ends a round: what a process
    /// must have seen of round `r − 1` to be in round `r`.
    pub fn round_ending_kinds(self) -> &'static [MessageKind] {
        match self {
            ProtocolId::HurfinRaynal => &[MessageKind::Next],
            ProtocolId::ChandraToueg => &[MessageKind::Ack, MessageKind::Nack],
        }
    }

    /// The kind with which the round coordinator — and nobody else —
    /// opens a round's vote, thereby vouching that the round started.
    pub fn coordinator_kind(self) -> MessageKind {
        match self {
            ProtocolId::HurfinRaynal => MessageKind::Current,
            ProtocolId::ChandraToueg => MessageKind::Propose,
        }
    }
}

impl fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Discriminates the wire message kinds.
///
/// `Init`, `Current`, `Next` and `Decide` belong to the transformed
/// Hurfin–Raynal protocol; `Estimate`, `Propose`, `Ack` and `Nack` belong
/// to the transformed Chandra–Toueg protocol (which shares `Init` for
/// vector certification and `Decide` for the announcement).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MessageKind {
    /// Vector-certification proposal.
    Init,
    /// Vote for deciding in the current round (HR).
    Current,
    /// Vote for moving to the next round (HR).
    Next,
    /// Decision announcement.
    Decide,
    /// Round-opening estimate sent to the coordinator (CT).
    Estimate,
    /// Coordinator's proposal for the round (CT).
    Propose,
    /// Positive echo of the coordinator's proposal (CT).
    Ack,
    /// Negative vote after suspecting the coordinator (CT).
    Nack,
    /// Quorum-backed compaction of a decided log slot's certificate
    /// history (shared by both protocols; never part of a round's vote
    /// sequence).
    Checkpoint,
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageKind::Init => "INIT",
            MessageKind::Current => "CURRENT",
            MessageKind::Next => "NEXT",
            MessageKind::Decide => "DECIDE",
            MessageKind::Estimate => "ESTIMATE",
            MessageKind::Propose => "PROPOSE",
            MessageKind::Ack => "ACK",
            MessageKind::Nack => "NACK",
            MessageKind::Checkpoint => "CHECKPOINT",
        };
        f.write_str(s)
    }
}

/// Message content (without sender or signature).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Core {
    /// `INIT(v)` — proposal of `v` in the vector-certification phase.
    Init {
        /// The proposed value.
        value: Value,
    },
    /// `CURRENT(r, vect)` — vote to decide `vect` in round `r`.
    Current {
        /// The round this vote belongs to.
        round: Round,
        /// The estimate vector being proposed.
        vector: ValueVector,
    },
    /// `NEXT(r)` — vote to abandon round `r`.
    Next {
        /// The round being abandoned.
        round: Round,
    },
    /// `DECIDE(r, vect)` — announcement that `vect` was decided in round
    /// `r`. (Fig. 3 omits the round; carrying it lets the analyzer check
    /// the decision certificate without a round search.)
    Decide {
        /// The round the decision was reached in.
        round: Round,
        /// The decided vector.
        vector: ValueVector,
    },
    /// `ESTIMATE(r, vect, ts)` — CT round opening: the sender's estimate
    /// vector plus the round `ts` in which it was adopted (`ts = 0` means
    /// the INIT-witnessed original). A claimed `ts > 0` must be backed by
    /// the `ts`-coordinator's signed PROPOSE carrying exactly `vect`,
    /// which makes the max-timestamp adoption rule auditable.
    Estimate {
        /// The round this estimate opens.
        round: Round,
        /// The estimate vector.
        vector: ValueVector,
        /// The round the vector was adopted in (0 = initial).
        ts: Round,
    },
    /// `PROPOSE(r, vect)` — the round coordinator's proposal, justified by
    /// a quorum of round-`r` estimates.
    Propose {
        /// The round being coordinated.
        round: Round,
        /// The proposed vector.
        vector: ValueVector,
    },
    /// `ACK(r, vect)` — echo of the coordinator's PROPOSE; binds the voter
    /// to the proposed vector so a DECIDE certificate can quote it.
    Ack {
        /// The round being acknowledged.
        round: Round,
        /// The acknowledged vector.
        vector: ValueVector,
    },
    /// `NACK(r)` — vote to abandon round `r` after suspecting its
    /// coordinator (local suspicion, structurally unverifiable).
    Nack {
        /// The round being abandoned.
        round: Round,
    },
    /// `CHECKPOINT(slot, digest)` — compaction marker for a decided log
    /// slot: `digest` commits to `(protocol, slot, decided vector)` (see
    /// [`crate::checkpoint::checkpoint_digest`]) and the attached
    /// certificate must hold the `n − F` decide-vote quorum for exactly
    /// that vector. Once checked, the checkpoint replaces the slot's
    /// accumulated per-round certificates, so retained evidence stays flat
    /// in the number of slots.
    Checkpoint {
        /// The decided log slot this checkpoint seals.
        slot: u64,
        /// Digest committing to the slot's decided vector.
        digest: ftm_crypto::sha256::Digest,
    },
}

impl Core {
    /// The message kind.
    pub fn kind(&self) -> MessageKind {
        match self {
            Core::Init { .. } => MessageKind::Init,
            Core::Current { .. } => MessageKind::Current,
            Core::Next { .. } => MessageKind::Next,
            Core::Decide { .. } => MessageKind::Decide,
            Core::Estimate { .. } => MessageKind::Estimate,
            Core::Propose { .. } => MessageKind::Propose,
            Core::Ack { .. } => MessageKind::Ack,
            Core::Nack { .. } => MessageKind::Nack,
            Core::Checkpoint { .. } => MessageKind::Checkpoint,
        }
    }

    /// The round the message belongs to (INIT and CHECKPOINT belong to
    /// round 0 — both live outside the round structure).
    pub fn round(&self) -> Round {
        match self {
            Core::Init { .. } | Core::Checkpoint { .. } => 0,
            Core::Current { round, .. }
            | Core::Next { round }
            | Core::Decide { round, .. }
            | Core::Estimate { round, .. }
            | Core::Propose { round, .. }
            | Core::Ack { round, .. }
            | Core::Nack { round } => *round,
        }
    }

    /// The vector carried, if the kind carries one.
    pub fn vector(&self) -> Option<&ValueVector> {
        match self {
            Core::Current { vector, .. }
            | Core::Decide { vector, .. }
            | Core::Estimate { vector, .. }
            | Core::Propose { vector, .. }
            | Core::Ack { vector, .. } => Some(vector),
            _ => None,
        }
    }
}

/// The signed unit: who says what.
///
/// Its canonical encoding is the exact byte string a signature covers.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MessageCore {
    /// Claimed sender.
    pub sender: ProcessId,
    /// Content.
    pub core: Core,
}

impl MessageCore {
    /// Convenience constructor.
    pub fn new(sender: ProcessId, core: Core) -> Self {
        MessageCore { sender, core }
    }

    /// Short trace label, e.g. `CURRENT(r=2)`.
    pub fn label(&self) -> String {
        let mut out = String::new();
        self.write_label(&mut out);
        out
    }

    /// Appends [`MessageCore::label`] to `out`, so an enclosing label is
    /// rendered into one buffer.
    pub fn write_label(&self, out: &mut String) {
        let _ = match &self.core {
            Core::Init { value } => write!(out, "INIT(v={value})"),
            Core::Current { round, .. } => write!(out, "CURRENT(r={round})"),
            Core::Next { round } => write!(out, "NEXT(r={round})"),
            Core::Decide { round, .. } => write!(out, "DECIDE(r={round})"),
            Core::Estimate { round, ts, .. } => write!(out, "ESTIMATE(r={round},ts={ts})"),
            Core::Propose { round, .. } => write!(out, "PROPOSE(r={round})"),
            Core::Ack { round, .. } => write!(out, "ACK(r={round})"),
            Core::Nack { round } => write!(out, "NACK(r={round})"),
            Core::Checkpoint { slot, .. } => write!(out, "CHECKPOINT(s={slot})"),
        };
    }
}

ftm_crypto::wire_codec! {
    enum Core {
        1 => Init { value },
        2 => Current { round, vector },
        3 => Next { round },
        4 => Decide { round, vector },
        5 => Estimate { round, vector, ts },
        6 => Propose { round, vector },
        7 => Ack { round, vector },
        8 => Nack { round },
        9 => Checkpoint { slot, digest },
    }
}

// The sender, then the content.
impl CanonicalEncode for MessageCore {
    fn encoded_len_hint(&self) -> usize {
        4 + self.core.encoded_len_hint()
    }

    fn encode(&self, enc: &mut Encoder) {
        enc.u32(self.sender.0);
        self.core.encode(enc);
    }
}

impl CanonicalDecode for MessageCore {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let sender = ProcessId(dec.u32()?);
        Ok(MessageCore::new(sender, Core::decode(dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_set_get_count() {
        let mut v = ValueVector::empty(3);
        assert_eq!(v.non_null_count(), 0);
        v.set(0, 7);
        v.set(2, 9);
        assert_eq!(v.get(0), Some(7));
        assert_eq!(v.get(1), None);
        assert_eq!(v.get(9), None);
        assert_eq!(v.non_null_count(), 2);
        assert_eq!(v.iter_set().collect::<Vec<_>>(), vec![(0, 7), (2, 9)]);
    }

    #[test]
    fn vector_debug_is_compact() {
        let v = ValueVector::from_entries(vec![Some(1), None, Some(3)]);
        assert_eq!(format!("{v:?}"), "[1 · 3]");
    }

    #[test]
    fn distinct_vectors_encode_distinctly() {
        let a = ValueVector::from_entries(vec![Some(0), None]);
        let b = ValueVector::from_entries(vec![None, Some(0)]);
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
    }

    #[test]
    fn core_kind_round_vector_accessors() {
        let v = ValueVector::empty(2);
        let c = Core::Current {
            round: 5,
            vector: v.clone(),
        };
        assert_eq!(c.kind(), MessageKind::Current);
        assert_eq!(c.round(), 5);
        assert_eq!(c.vector(), Some(&v));
        assert_eq!(Core::Init { value: 1 }.round(), 0);
        assert_eq!(Core::Next { round: 2 }.vector(), None);
    }

    #[test]
    fn cores_with_different_senders_encode_distinctly() {
        let a = MessageCore::new(ProcessId(0), Core::Next { round: 1 });
        let b = MessageCore::new(ProcessId(1), Core::Next { round: 1 });
        assert_ne!(a.canonical_digest(), b.canonical_digest());
    }

    #[test]
    fn equal_cores_encode_identically() {
        let mk = || MessageCore::new(ProcessId(3), Core::Init { value: 42 });
        assert_eq!(mk().canonical_bytes(), mk().canonical_bytes());
    }

    #[test]
    fn cores_roundtrip_through_canonical_bytes() {
        let cases = [
            MessageCore::new(ProcessId(0), Core::Init { value: 7 }),
            MessageCore::new(
                ProcessId(3),
                Core::Current {
                    round: 9,
                    vector: ValueVector::from_entries(vec![Some(1), None, Some(3)]),
                },
            ),
            MessageCore::new(ProcessId(1), Core::Next { round: 2 }),
            MessageCore::new(
                ProcessId(2),
                Core::Decide {
                    round: 5,
                    vector: ValueVector::empty(2),
                },
            ),
            MessageCore::new(
                ProcessId(0),
                Core::Estimate {
                    round: 2,
                    vector: ValueVector::from_entries(vec![Some(4), None]),
                    ts: 1,
                },
            ),
            MessageCore::new(
                ProcessId(1),
                Core::Propose {
                    round: 2,
                    vector: ValueVector::empty(3),
                },
            ),
            MessageCore::new(
                ProcessId(2),
                Core::Ack {
                    round: 2,
                    vector: ValueVector::empty(3),
                },
            ),
            MessageCore::new(ProcessId(3), Core::Nack { round: 2 }),
            MessageCore::new(
                ProcessId(1),
                Core::Checkpoint {
                    slot: 17,
                    digest: ftm_crypto::sha256::Sha256::digest(b"slot-17"),
                },
            ),
        ];
        for core in cases {
            let bytes = core.canonical_bytes();
            assert_eq!(MessageCore::from_canonical_bytes(&bytes), Ok(core));
        }
    }

    #[test]
    fn corrupted_tag_is_rejected() {
        let core = MessageCore::new(ProcessId(0), Core::Init { value: 7 });
        let mut bytes = core.canonical_bytes();
        bytes[4] = 99; // the kind tag
        assert_eq!(
            MessageCore::from_canonical_bytes(&bytes),
            Err(DecodeError::BadTag(99))
        );
    }

    #[test]
    fn labels_are_compact() {
        let m = MessageCore::new(ProcessId(0), Core::Next { round: 9 });
        assert_eq!(m.label(), "NEXT(r=9)");
        assert_eq!(MessageKind::Decide.to_string(), "DECIDE");
        let e = MessageCore::new(
            ProcessId(0),
            Core::Estimate {
                round: 3,
                vector: ValueVector::empty(1),
                ts: 1,
            },
        );
        assert_eq!(e.label(), "ESTIMATE(r=3,ts=1)");
        assert_eq!(MessageKind::Nack.to_string(), "NACK");
        let cp = MessageCore::new(
            ProcessId(2),
            Core::Checkpoint {
                slot: 4,
                digest: ftm_crypto::sha256::Sha256::digest(b"x"),
            },
        );
        assert_eq!(cp.label(), "CHECKPOINT(s=4)");
        assert_eq!(MessageKind::Checkpoint.to_string(), "CHECKPOINT");
        assert_eq!(cp.core.kind(), MessageKind::Checkpoint);
        assert_eq!(cp.core.round(), 0);
        assert_eq!(cp.core.vector(), None);
    }

    #[test]
    fn ct_core_accessors() {
        let v = ValueVector::from_entries(vec![Some(1)]);
        let e = Core::Estimate {
            round: 4,
            vector: v.clone(),
            ts: 2,
        };
        assert_eq!(e.kind(), MessageKind::Estimate);
        assert_eq!(e.round(), 4);
        assert_eq!(e.vector(), Some(&v));
        let a = Core::Ack {
            round: 4,
            vector: v.clone(),
        };
        assert_eq!(a.kind(), MessageKind::Ack);
        assert_eq!(a.vector(), Some(&v));
        assert_eq!(Core::Nack { round: 4 }.vector(), None);
        assert_eq!(
            Core::Propose {
                round: 4,
                vector: v
            }
            .round(),
            4
        );
    }

    #[test]
    fn protocol_ids_label_and_enumerate() {
        assert_eq!(ProtocolId::HurfinRaynal.to_string(), "hr");
        assert_eq!(ProtocolId::ChandraToueg.to_string(), "ct");
        assert_eq!(ProtocolId::all().len(), 2);
    }
}
