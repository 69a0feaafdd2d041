//! The client request/reply protocol, canonically encoded.
//!
//! Clients talk to a replica over one `ftm-net` client connection; each
//! request frame carries one [`Request`], each reply frame one [`Reply`].
//! The encoding reuses `ftm_crypto::wire` (big-endian, length-prefixed,
//! tagged), so replies are byte-stable given equal state — which is what
//! lets the load generator compare replicas structurally.

/// A client request to one replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Enqueue `value` as a command this replica proposes for an upcoming
    /// slot.
    Submit {
        /// The command value.
        value: u64,
    },
    /// Ask for a [`Status`] snapshot.
    Status,
    /// Ask the replica to exit after replying.
    Shutdown,
}

ftm_crypto::wire_codec! {
    enum Request {
        1 => Submit { value },
        2 => Status,
        3 => Shutdown,
    }
}

/// One replica's self-reported state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Status {
    /// The replica's process id.
    pub me: u32,
    /// Replica-local milliseconds since it started (clients use the max
    /// across replicas as the run's elapsed time, keeping the load
    /// generator clock-free).
    pub now_ms: u64,
    /// Log slots decided so far.
    pub decided_slots: u64,
    /// Whether the replica's actor halted (log complete).
    pub halted: bool,
    /// Whether a contradictory decision was attempted (must stay false).
    pub contradicted: bool,
    /// SHA-256 of the decided log prefix (see [`crate::log_digest`]).
    pub log_digest: Vec<u8>,
    /// Convictions this replica's detectors produced, as
    /// `"culprit class"` strings (must stay empty in honest runs).
    pub convicted: Vec<String>,
    /// Client-submitted commands still queued.
    pub queued: u64,
    /// Transport counters: messages handed to the transport.
    pub msgs_sent: u64,
    /// Messages delivered to the actor.
    pub msgs_received: u64,
    /// Bytes written (frames + loopback payloads).
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Max commands this replica packs into one slot (`--batch`).
    pub batch: u64,
    /// Commands submitted to this replica over its lifetime.
    pub submitted: u64,
    /// Commands whose slot sealed with this replica's entry intact.
    pub committed: u64,
    /// Commands riding slots whose fate is not yet known.
    pub inflight: u64,
    /// SHA-256 over the sorted committed multiset (see
    /// [`crate::batch::BatchState::committed_digest`]): batch-size
    /// independent, so `--batch 1` and `--batch 16` runs of the same
    /// workload report equal digests.
    pub committed_digest: Vec<u8>,
}

ftm_crypto::wire_codec! {
    struct Status {
        me,
        now_ms,
        decided_slots,
        halted,
        contradicted,
        log_digest,
        convicted,
        queued,
        msgs_sent,
        msgs_received,
        bytes_sent,
        bytes_received,
        batch,
        submitted,
        committed,
        inflight,
        committed_digest,
    }
}

/// A replica's reply to one [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The command was queued; `queued` is the depth after the push (a
    /// replica whose log is complete drops it and reports the depth).
    Submitted {
        /// Queue depth after the submit.
        queued: u64,
    },
    /// The status snapshot.
    Status(Status),
    /// Acknowledges a shutdown; the connection closes after this frame.
    ShuttingDown,
    /// The request frame could not be decoded.
    BadRequest(String),
}

ftm_crypto::wire_codec! {
    enum Reply {
        1 => Submitted { queued },
        2 => Status(status),
        3 => ShuttingDown,
        4 => BadRequest(message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode};

    fn sample_status() -> Status {
        Status {
            me: 2,
            now_ms: 1234,
            decided_slots: 17,
            halted: false,
            contradicted: false,
            log_digest: vec![0xAB; 32],
            convicted: vec!["p3 bad-certificate".to_string()],
            queued: 5,
            msgs_sent: 100,
            msgs_received: 90,
            bytes_sent: 4000,
            bytes_received: 3800,
            batch: 16,
            submitted: 40,
            committed: 30,
            inflight: 5,
            committed_digest: vec![0xCD; 32],
        }
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Submit { value: 7 },
            Request::Status,
            Request::Shutdown,
        ] {
            let bytes = req.canonical_bytes();
            assert_eq!(Request::from_canonical_bytes(&bytes), Ok(req));
        }
    }

    #[test]
    fn replies_roundtrip() {
        for reply in [
            Reply::Submitted { queued: 3 },
            Reply::Status(sample_status()),
            Reply::ShuttingDown,
            Reply::BadRequest("tag 9".to_string()),
        ] {
            let bytes = reply.canonical_bytes();
            assert_eq!(Reply::from_canonical_bytes(&bytes), Ok(reply.clone()));
        }
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        assert!(Request::from_canonical_bytes(&[9]).is_err());
        assert!(Reply::from_canonical_bytes(&[]).is_err());
        let mut truncated = Reply::Status(sample_status()).canonical_bytes();
        truncated.truncate(truncated.len() / 2);
        assert!(Reply::from_canonical_bytes(&truncated).is_err());
    }
}
