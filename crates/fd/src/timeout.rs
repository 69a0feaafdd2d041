//! The timeout-with-increase detector: the standard implementable member of
//! ◇S (crash) and ◇M (muteness) under partial synchrony.
//!
//! Scheme (Chandra–Toueg, and the ◇M implementation sketched by Doudou et
//! al.): suspect `peer` when no relevant message arrived within its current
//! timeout; when a message from a *suspected* peer arrives, the suspicion
//! was a mistake — rehabilitate the peer and **double its timeout**, so
//! each peer is wrongly suspected only finitely often once the network
//! stabilizes. That yields Strong Completeness unconditionally and Eventual
//! (Weak) Accuracy after GST.

use ftm_sim::{Duration, ProcessId, VirtualTime};

use crate::suspicion::{FailureDetector, SuspicionChange};

#[derive(Debug, Clone)]
struct PeerState {
    last_heard: VirtualTime,
    timeout: Duration,
    suspected: bool,
    mistakes: u64,
}

/// Adaptive timeout-based failure detector (see module docs).
///
/// # Example
///
/// ```
/// use ftm_fd::{FailureDetector, TimeoutDetector};
/// use ftm_sim::{Duration, ProcessId, VirtualTime};
///
/// let mut fd = TimeoutDetector::new(4, Duration::of(50));
/// let peer = ProcessId(2);
/// assert!(!fd.suspects(peer, VirtualTime::at(10)));   // within timeout
/// assert!(fd.suspects(peer, VirtualTime::at(100)));   // silent too long
/// fd.observe_message(peer, VirtualTime::at(120));     // mistake! timeout doubles
/// assert!(!fd.suspects(peer, VirtualTime::at(200)));  // 120+100 > 200
/// ```
#[derive(Debug, Clone)]
pub struct TimeoutDetector {
    peers: Vec<PeerState>,
    history: Vec<SuspicionChange>,
    mistakes: u64,
}

impl TimeoutDetector {
    /// Creates a detector over `n` peers with initial timeout
    /// `initial_timeout` for each (measured from time zero).
    ///
    /// # Panics
    ///
    /// Panics if `initial_timeout` is zero.
    pub fn new(n: usize, initial_timeout: Duration) -> Self {
        assert!(
            initial_timeout > Duration::ZERO,
            "initial timeout must be positive"
        );
        TimeoutDetector {
            peers: vec![
                PeerState {
                    last_heard: VirtualTime::ZERO,
                    timeout: initial_timeout,
                    suspected: false,
                    mistakes: 0,
                };
                n
            ],
            history: Vec::new(),
            mistakes: 0,
        }
    }

    /// Number of wrongful suspicions corrected so far (messages received
    /// from a currently-suspected peer).
    pub fn mistakes(&self) -> u64 {
        self.mistakes
    }

    /// Wrongful suspicions of `peer` corrected so far — the per-peer
    /// breakdown of [`mistakes`](Self::mistakes), so observers can
    /// separate mistakes about honest peers from mistakes about peers
    /// later convicted anyway.
    pub fn mistakes_for(&self, peer: ProcessId) -> u64 {
        self.peers[peer.index()].mistakes
    }

    /// Current timeout of `peer` (grows by doubling on each mistake).
    #[cfg(test)]
    fn timeout_of(&self, peer: ProcessId) -> Duration {
        self.peers[peer.index()].timeout
    }
}

impl FailureDetector for TimeoutDetector {
    fn observe_message(&mut self, peer: ProcessId, now: VirtualTime) {
        let st = &mut self.peers[peer.index()];
        if st.suspected {
            // Premature suspicion: rehabilitate and back off.
            st.suspected = false;
            st.timeout = st.timeout.saturating_mul(2);
            st.mistakes += 1;
            self.mistakes += 1;
            self.history.push(SuspicionChange {
                peer,
                at: now,
                suspected: false,
            });
        }
        st.last_heard = now;
    }

    fn suspects(&mut self, peer: ProcessId, now: VirtualTime) -> bool {
        let st = &mut self.peers[peer.index()];
        let overdue = now.since(st.last_heard) > st.timeout;
        if overdue && !st.suspected {
            st.suspected = true;
            self.history.push(SuspicionChange {
                peer,
                at: now,
                suspected: true,
            });
        }
        st.suspected || overdue
    }

    fn history(&self) -> &[SuspicionChange] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd() -> TimeoutDetector {
        TimeoutDetector::new(3, Duration::of(10))
    }

    #[test]
    fn fresh_peers_not_suspected() {
        let mut d = fd();
        for p in 0..3u32 {
            assert!(!d.suspects(ProcessId(p), VirtualTime::at(5)));
        }
    }

    #[test]
    fn silence_beyond_timeout_triggers_suspicion() {
        let mut d = fd();
        assert!(!d.suspects(ProcessId(0), VirtualTime::at(10)));
        assert!(d.suspects(ProcessId(0), VirtualTime::at(11)));
    }

    #[test]
    fn message_rehabilitates_and_doubles_timeout() {
        let mut d = fd();
        assert!(d.suspects(ProcessId(0), VirtualTime::at(20)));
        d.observe_message(ProcessId(0), VirtualTime::at(21));
        assert_eq!(d.mistakes(), 1);
        assert_eq!(d.timeout_of(ProcessId(0)), Duration::of(20));
        assert!(!d.suspects(ProcessId(0), VirtualTime::at(41)));
        assert!(d.suspects(ProcessId(0), VirtualTime::at(42)));
    }

    #[test]
    fn strong_completeness_a_mute_peer_stays_suspected() {
        let mut d = fd();
        // p1 talks until t=100, then goes mute.
        for t in (0..=100).step_by(5) {
            d.observe_message(ProcessId(1), VirtualTime::at(t));
        }
        assert!(!d.suspects(ProcessId(1), VirtualTime::at(105)));
        assert!(d.suspects(ProcessId(1), VirtualTime::at(111)));
        // Suspicion is permanent without further messages.
        for t in [200u64, 1_000, 100_000] {
            assert!(d.suspects(ProcessId(1), VirtualTime::at(t)));
        }
    }

    #[test]
    fn eventual_accuracy_under_bounded_delays() {
        // A peer that always speaks within delay `5` but was wrongly
        // suspected a few times ends up with a timeout > 5 and is never
        // suspected again: mistakes are finite.
        let mut d = TimeoutDetector::new(1, Duration::of(1));
        let mut t = 0u64;
        let mut mistakes_before = 0;
        for _ in 0..10 {
            t += 5;
            let _ = d.suspects(ProcessId(0), VirtualTime::at(t));
            d.observe_message(ProcessId(0), VirtualTime::at(t));
            mistakes_before = d.mistakes();
        }
        // Timeout has grown past the message gap: no further mistakes.
        for _ in 0..50 {
            t += 5;
            assert!(!d.suspects(ProcessId(0), VirtualTime::at(t)));
            d.observe_message(ProcessId(0), VirtualTime::at(t));
        }
        assert_eq!(d.mistakes(), mistakes_before);
        assert!(d.timeout_of(ProcessId(0)) > Duration::of(5));
    }

    #[test]
    fn history_records_flips() {
        let mut d = fd();
        assert!(d.suspects(ProcessId(2), VirtualTime::at(50)));
        d.observe_message(ProcessId(2), VirtualTime::at(60));
        let h = d.history();
        assert_eq!(h.len(), 2);
        assert!(h[0].suspected && !h[1].suspected);
        assert_eq!(h[0].peer, ProcessId(2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_timeout_rejected() {
        let _ = TimeoutDetector::new(1, Duration::ZERO);
    }
}
