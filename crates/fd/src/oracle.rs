//! A scripted detector for controlled experiments.
//!
//! Protocol proofs assume detector *classes* (◇S, ◇M), not implementations.
//! To test a protocol against the class boundary — e.g. "Hurfin–Raynal
//! terminates with eventual weak accuracy even if the detector lies wildly
//! first" — we need a detector whose accuracy schedule is chosen by the
//! test, not by network timing. [`OracleDetector`] is that instrument: it
//! wrongly suspects scripted peers until a scripted time (imperfect
//! accuracy, eventually weak) and is otherwise silent.

use ftm_sim::{ProcessId, VirtualTime};

use crate::suspicion::FailureDetector;

/// A detector with scripted mistakes.
///
/// # Example
///
/// ```
/// use ftm_fd::{FailureDetector, OracleDetector};
/// use ftm_sim::{ProcessId, VirtualTime};
///
/// let mut fd = OracleDetector::new(3).wrongly_suspect_until(ProcessId(1), VirtualTime::at(50));
///
/// assert!(fd.suspects(ProcessId(1), VirtualTime::at(40)));  // scripted lie
/// assert!(!fd.suspects(ProcessId(1), VirtualTime::at(60))); // lie expired
/// assert!(!fd.suspects(ProcessId(0), VirtualTime::at(40))); // never scripted
/// ```
#[derive(Debug, Clone)]
pub struct OracleDetector {
    wrong_until: Vec<Option<VirtualTime>>,
}

impl OracleDetector {
    /// Creates a truthful oracle over `n` peers: no lies are scripted, so
    /// nobody is ever suspected.
    pub fn new(n: usize) -> Self {
        OracleDetector {
            wrong_until: vec![None; n],
        }
    }

    /// Scripts a lie: suspect the (correct) `peer` at every query strictly
    /// before `until`. Eventual weak accuracy holds as long as some correct
    /// peer's lie eventually stops — which this constructor enforces by
    /// always taking a finite `until`.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is out of range.
    pub fn wrongly_suspect_until(mut self, peer: ProcessId, until: VirtualTime) -> Self {
        assert!(peer.index() < self.wrong_until.len(), "peer out of range");
        self.wrong_until[peer.index()] = Some(until);
        self
    }
}

impl FailureDetector for OracleDetector {
    fn observe_message(&mut self, _peer: ProcessId, _now: VirtualTime) {
        // The oracle follows its script, not message flow.
    }

    fn suspects(&mut self, peer: ProcessId, now: VirtualTime) -> bool {
        self.wrong_until[peer.index()].is_some_and(|until| now < until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthful_oracle_never_suspects_correct_peers() {
        let mut d = OracleDetector::new(2);
        for t in [0u64, 10, 1_000_000] {
            assert!(!d.suspects(ProcessId(0), VirtualTime::at(t)));
        }
    }

    #[test]
    fn scripted_lies_expire() {
        let mut d = OracleDetector::new(2).wrongly_suspect_until(ProcessId(0), VirtualTime::at(30));
        assert!(d.suspects(ProcessId(0), VirtualTime::at(29)));
        assert!(!d.suspects(ProcessId(0), VirtualTime::at(30)));
    }

    #[test]
    fn observe_message_is_inert() {
        let mut d = OracleDetector::new(1).wrongly_suspect_until(ProcessId(0), VirtualTime::at(10));
        d.observe_message(ProcessId(0), VirtualTime::at(5));
        assert!(d.suspects(ProcessId(0), VirtualTime::at(5)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_peer_rejected() {
        let _ = OracleDetector::new(1).wrongly_suspect_until(ProcessId(1), VirtualTime::ZERO);
    }
}
