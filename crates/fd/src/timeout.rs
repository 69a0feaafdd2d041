//! The timeout-with-increase detector: the standard implementable member of
//! ◇S (crash) and ◇M (muteness) under partial synchrony.
//!
//! Scheme (Chandra–Toueg, and the ◇M implementation sketched by Doudou et
//! al.): suspect `peer` when no relevant message arrived within its current
//! allowance; when a message from a *suspected* peer arrives, the suspicion
//! was a mistake — rehabilitate the peer and **double its allowance**, so
//! each peer is wrongly suspected only finitely often once the network
//! stabilizes. That yields Strong Completeness unconditionally and Eventual
//! (Weak) Accuracy after GST.
//!
//! The *round-aware* ◇M shape ([`TimeoutDetector::round_aware`]) additionally
//! exploits the round structure the class ◇M is defined for: the embedding
//! protocol reports its round, and the scheduled allowance grows linearly
//! with it — `Δ(r) = Δ₀ + r · δ` — modeling the fact that later rounds may
//! legitimately take longer (vote collection, churned coordinators, growing
//! certificates). Strong completeness is preserved: at any fixed round the
//! allowance is finite, so a mute peer's silence eventually exceeds it;
//! accuracy improves as rounds accumulate because the allowance only grows.
//! With `δ = 0` (the default) this is the plain doubling detector.
//!
//! (An earlier design required the observer to *outrun* the peer by some
//! round slack before suspecting — that breaks completeness: if the mute
//! process is the round-1 coordinator, nobody's round ever advances and
//! the deadlock is permanent. The time-based allowance avoids the trap.)

use ftm_sim::{Duration, ProcessId, VirtualTime};

use crate::suspicion::{FailureDetector, SuspicionChange};

#[derive(Debug, Clone)]
struct PeerState {
    last_heard: VirtualTime,
    /// Allowance floor earned by past mistakes (zero until the first one).
    adaptive: Duration,
    suspected: bool,
    mistakes: u64,
}

/// Adaptive timeout-based failure detector (see module docs): a peer's
/// allowance is `max(adaptive, Δ₀ + r·δ)`, doubled on each mistake.
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
///
/// Round-aware, with allowance `Δ(r) = 50 + 25·r`:
///
/// ```
/// use ftm_fd::{FailureDetector, TimeoutDetector};
/// use ftm_sim::{Duration, ProcessId, VirtualTime};
///
/// let mut fd = TimeoutDetector::round_aware(3, Duration::of(50), Duration::of(25));
/// fd.enter_round(1);
/// // Allowance in round 1 is 50 + 25 = 75.
/// assert!(!fd.suspects(ProcessId(1), VirtualTime::at(75)));
/// assert!(fd.suspects(ProcessId(1), VirtualTime::at(76)));
/// // In round 4 the allowance is 50 + 100 = 150.
/// let mut fd = TimeoutDetector::round_aware(3, Duration::of(50), Duration::of(25));
/// fd.enter_round(4);
/// assert!(!fd.suspects(ProcessId(1), VirtualTime::at(150)));
/// assert!(fd.suspects(ProcessId(1), VirtualTime::at(151)));
/// ```
#[derive(Debug, Clone)]
pub struct TimeoutDetector {
    peers: Vec<PeerState>,
    base: Duration,
    per_round: Duration,
    round: u64,
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
        Self::round_aware(n, initial_timeout, Duration::ZERO)
    }

    /// Creates a detector over `n` peers whose allowance starts at `base`
    /// and grows by `per_round` with every round the observer enters
    /// ([`enter_round`](Self::enter_round)).
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero.
    pub fn round_aware(n: usize, base: Duration, per_round: Duration) -> Self {
        assert!(base > Duration::ZERO, "initial timeout must be positive");
        TimeoutDetector {
            peers: vec![
                PeerState {
                    last_heard: VirtualTime::ZERO,
                    adaptive: Duration::ZERO,
                    suspected: false,
                    mistakes: 0,
                };
                n
            ],
            base,
            per_round,
            round: 0,
            history: Vec::new(),
            mistakes: 0,
        }
    }

    /// Informs the detector that the *observer* entered `round` (rounds
    /// never regress).
    pub fn enter_round(&mut self, round: u64) {
        self.round = self.round.max(round);
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

    /// Current allowance of `peer`: `max(adaptive, Δ₀ + r·δ)`.
    fn allowance_of(&self, peer: ProcessId) -> Duration {
        let scheduled = self.base + self.per_round.saturating_mul(self.round);
        self.peers[peer.index()].adaptive.max(scheduled)
    }
}

impl FailureDetector for TimeoutDetector {
    fn observe_message(&mut self, peer: ProcessId, now: VirtualTime) {
        let allowance = self.allowance_of(peer);
        let st = &mut self.peers[peer.index()];
        if st.suspected {
            // Premature suspicion: rehabilitate and double whatever
            // allowance proved insufficient.
            st.suspected = false;
            st.adaptive = allowance.saturating_mul(2);
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
        let allowance = self.allowance_of(peer);
        let st = &mut self.peers[peer.index()];
        let overdue = now.since(st.last_heard) > allowance;
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
        assert_eq!(d.allowance_of(ProcessId(0)), Duration::of(20));
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
        assert!(d.allowance_of(ProcessId(0)) > Duration::of(5));
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

    fn round_aware() -> TimeoutDetector {
        TimeoutDetector::round_aware(2, Duration::of(20), Duration::of(10))
    }

    #[test]
    fn allowance_grows_with_round() {
        let mut d = round_aware();
        d.enter_round(1);
        assert_eq!(d.allowance_of(ProcessId(0)), Duration::of(30));
        d.enter_round(5);
        assert_eq!(d.allowance_of(ProcessId(0)), Duration::of(70));
    }

    #[test]
    fn completeness_even_when_the_observer_is_parked() {
        // The mute round-1 coordinator scenario: the observer never leaves
        // round 1, yet the suspicion must eventually fire.
        let mut d = round_aware();
        d.enter_round(1);
        assert!(!d.suspects(ProcessId(0), VirtualTime::at(30)));
        assert!(d.suspects(ProcessId(0), VirtualTime::at(31)));
        // And it is permanent without further messages.
        assert!(d.suspects(ProcessId(0), VirtualTime::at(100_000)));
    }

    #[test]
    fn accuracy_improves_in_later_rounds() {
        let mut early = round_aware();
        early.enter_round(1);
        let mut late = round_aware();
        late.enter_round(10);
        // A gap of 100 ticks: suspicious in round 1, tolerated in round 10.
        assert!(early.suspects(ProcessId(0), VirtualTime::at(100)));
        assert!(!late.suspects(ProcessId(0), VirtualTime::at(100)));
    }

    #[test]
    fn mistakes_double_the_allowance() {
        let mut d = round_aware();
        d.enter_round(1);
        assert!(d.suspects(ProcessId(0), VirtualTime::at(40)));
        d.observe_message(ProcessId(0), VirtualTime::at(41));
        assert_eq!(d.mistakes(), 1);
        assert_eq!(d.allowance_of(ProcessId(0)), Duration::of(60));
        // The adaptive floor persists even as rounds advance slowly.
        assert!(!d.suspects(ProcessId(0), VirtualTime::at(101)));
        assert!(d.suspects(ProcessId(0), VirtualTime::at(102)));
    }

    #[test]
    fn rounds_never_regress() {
        let mut d = round_aware();
        d.enter_round(5);
        d.enter_round(3);
        assert_eq!(d.allowance_of(ProcessId(0)), Duration::of(70));
    }

    #[test]
    fn round_aware_history_records_flips() {
        let mut d = round_aware();
        d.enter_round(1);
        let _ = d.suspects(ProcessId(1), VirtualTime::at(50));
        d.observe_message(ProcessId(1), VirtualTime::at(60));
        assert_eq!(d.history().len(), 2);
        assert!(d.history()[0].suspected && !d.history()[1].suspected);
    }
}
