//! Wire messages of the crash-model protocols.

use std::fmt::Write as _;

use ftm_certify::{MessageKind, Round, Value};
use ftm_sim::Payload;

use crate::rounds::Vote;

/// Messages of the crash-model Hurfin–Raynal and Chandra–Toueg protocols,
/// plus heartbeats for the ◇S implementation: one crash vocabulary, as
/// [`ftm_certify::Core`] is the one transformed vocabulary.
///
/// In the crash model no signatures or certificates are needed: processes
/// fail only by stopping, so every received message is trusted — exactly
/// the assumption the transformation removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMsg {
    /// `CURRENT(r, est)` — vote to decide `est` in round `r` (HR).
    Current {
        /// Round of the vote.
        round: Round,
        /// The coordinator's estimate being endorsed.
        est: Value,
    },
    /// `NEXT(r)` — vote to move past round `r` (HR).
    Next {
        /// Round being abandoned.
        round: Round,
    },
    /// `ESTIMATE(r, est, ts)` to the round coordinator (CT phase 1).
    Estimate {
        /// Current round.
        round: Round,
        /// The sender's current estimate.
        est: Value,
        /// Round in which the estimate was last adopted.
        ts: Round,
    },
    /// `PROPOSE(r, est)` — the coordinator's proposal (CT phase 2).
    Propose {
        /// Current round.
        round: Round,
        /// The proposed estimate.
        est: Value,
    },
    /// `ACK(r, est)` — adopts and echoes the proposal (CT phase 3).
    Ack {
        /// Current round.
        round: Round,
        /// The estimate being acknowledged (the coordinator's proposal).
        est: Value,
    },
    /// `NACK(r)` — the coordinator is suspected (CT phase 3).
    Nack {
        /// Current round.
        round: Round,
    },
    /// `DECIDE(est)` — decision announcement (relayed on receipt).
    Decide {
        /// The decided value.
        est: Value,
    },
    /// Failure-detector heartbeat (no protocol figure has it; the standard
    /// ◇S implementation under partial synchrony).
    Heartbeat,
}

impl CrashMsg {
    /// The round-`round` message of kind `kind`: value-carrying kinds
    /// carry `est`, `ESTIMATE` also its adoption round `ts`.
    pub(crate) fn of(kind: Vote, round: Round, est: Value, ts: Round) -> Self {
        match kind {
            Vote::Current => CrashMsg::Current { round, est },
            Vote::Next => CrashMsg::Next { round },
            Vote::Estimate => CrashMsg::Estimate { round, est, ts },
            Vote::Propose => CrashMsg::Propose { round, est },
            Vote::Ack => CrashMsg::Ack { round, est },
            Vote::Nack => CrashMsg::Nack { round },
        }
    }

    /// The round a vote belongs to; `None` for `DECIDE` and heartbeats.
    pub fn round(&self) -> Option<Round> {
        match *self {
            CrashMsg::Current { round, .. }
            | CrashMsg::Next { round }
            | CrashMsg::Estimate { round, .. }
            | CrashMsg::Propose { round, .. }
            | CrashMsg::Ack { round, .. }
            | CrashMsg::Nack { round } => Some(round),
            CrashMsg::Decide { .. } | CrashMsg::Heartbeat => None,
        }
    }

    /// The kind a `ProtocolSpec::crash_for` send row names this message
    /// by; `None` for a heartbeat, which no spec names.
    pub fn kind(&self) -> Option<MessageKind> {
        Some(match self {
            CrashMsg::Current { .. } => MessageKind::Current,
            CrashMsg::Next { .. } => MessageKind::Next,
            CrashMsg::Estimate { .. } => MessageKind::Estimate,
            CrashMsg::Propose { .. } => MessageKind::Propose,
            CrashMsg::Ack { .. } => MessageKind::Ack,
            CrashMsg::Nack { .. } => MessageKind::Nack,
            CrashMsg::Decide { .. } => MessageKind::Decide,
            CrashMsg::Heartbeat => return None,
        })
    }
}

impl Payload for CrashMsg {
    fn size_bytes(&self) -> usize {
        // Tag byte plus 8-byte fields.
        match self {
            CrashMsg::Estimate { .. } => 1 + 8 + 8 + 8,
            CrashMsg::Current { .. } | CrashMsg::Propose { .. } | CrashMsg::Ack { .. } => 1 + 8 + 8,
            CrashMsg::Next { .. } | CrashMsg::Nack { .. } | CrashMsg::Decide { .. } => 1 + 8,
            CrashMsg::Heartbeat => 1,
        }
    }

    fn write_label(&self, out: &mut String) {
        let _ = match self {
            CrashMsg::Current { round, est } => write!(out, "CURRENT(r={round},est={est})"),
            CrashMsg::Next { round } => write!(out, "NEXT(r={round})"),
            CrashMsg::Estimate { round, .. } => write!(out, "EST(r={round})"),
            CrashMsg::Propose { round, est } => write!(out, "PROP(r={round},est={est})"),
            CrashMsg::Ack { round, est } => write!(out, "ACK(r={round},est={est})"),
            CrashMsg::Nack { round } => write!(out, "NACK(r={round})"),
            CrashMsg::Decide { est } => write!(out, "DECIDE(est={est})"),
            CrashMsg::Heartbeat => out.write_str("HB"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_reflect_fields() {
        assert_eq!(CrashMsg::Current { round: 1, est: 2 }.size_bytes(), 17);
        assert_eq!(CrashMsg::Next { round: 1 }.size_bytes(), 9);
        assert_eq!(CrashMsg::Decide { est: 2 }.size_bytes(), 9);
        assert_eq!(CrashMsg::Heartbeat.size_bytes(), 1);
        let estimate = CrashMsg::Estimate {
            round: 1,
            est: 2,
            ts: 0,
        };
        assert_eq!(estimate.size_bytes(), 25);
        assert_eq!(CrashMsg::Propose { round: 1, est: 2 }.size_bytes(), 17);
        assert_eq!(CrashMsg::Ack { round: 1, est: 2 }.size_bytes(), 17);
        assert_eq!(CrashMsg::Nack { round: 1 }.size_bytes(), 9);
    }

    fn label(msg: &CrashMsg) -> String {
        let mut out = String::new();
        msg.write_label(&mut out);
        out
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(
            label(&CrashMsg::Current { round: 3, est: 7 }),
            "CURRENT(r=3,est=7)"
        );
        assert_eq!(label(&CrashMsg::Heartbeat), "HB");
        let estimate = CrashMsg::Estimate {
            round: 2,
            est: 7,
            ts: 1,
        };
        assert_eq!(label(&estimate), "EST(r=2)");
        assert_eq!(
            label(&CrashMsg::Propose { round: 2, est: 7 }),
            "PROP(r=2,est=7)"
        );
        assert_eq!(label(&CrashMsg::Nack { round: 2 }), "NACK(r=2)");
    }

    #[test]
    fn heartbeats_have_no_kind_and_decisions_no_round() {
        assert_eq!(CrashMsg::Heartbeat.kind(), None);
        assert_eq!(
            CrashMsg::Decide { est: 1 }.kind(),
            Some(MessageKind::Decide)
        );
        assert_eq!(CrashMsg::Decide { est: 1 }.round(), None);
        assert_eq!(CrashMsg::Ack { round: 4, est: 1 }.round(), Some(4));
    }
}
