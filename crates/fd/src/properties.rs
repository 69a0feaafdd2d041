//! Detector-quality measurement by trace replay.
//!
//! A detector's worth is judged on two axes (Chandra–Toueg):
//! *completeness* — real faults get suspected, and how fast — and
//! *accuracy* — correct processes do not stay suspected, and how often they
//! are wrongly suspected. These functions replay a message-arrival timeline
//! (synthesized, or read off a simulation trace) into
//! any [`FailureDetector`] and report both axes. Experiment E7 sweeps the
//! timeout parameter with exactly this instrument.

use ftm_sim::{Duration, ProcessId, VirtualTime};

use crate::suspicion::FailureDetector;

/// Replay result for one observer watching one peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorQuality {
    /// Time from the peer's silence onset to its *permanent* suspicion
    /// (`None` when the peer never fell silent, or was never caught).
    pub detection_time: Option<Duration>,
    /// Wrongful suspicions: flips back to trusted after a message arrived.
    pub mistakes: u64,
    /// Whether the peer was suspected at the replay horizon.
    pub suspected_at_horizon: bool,
}

impl DetectorQuality {
    /// Strong completeness verdict: a peer mute from some onset must be
    /// suspected at the horizon (and the suspicion must be permanent,
    /// which `detection_time` already certifies).
    pub fn complete(&self) -> bool {
        self.detection_time.is_some() && self.suspected_at_horizon
    }
}

/// Replays `deliveries` (times the observer heard from the peer, ascending)
/// into `detector`, querying every `query_interval` up to `horizon`.
///
/// `silence_onset` is ground truth: the instant the peer actually went
/// mute, or `None` if it stayed correct. The returned quality reports the
/// permanent-detection latency relative to that onset.
///
/// # Panics
///
/// Panics if `query_interval` is zero.
pub fn replay_quality<F: FailureDetector>(
    detector: &mut F,
    peer: ProcessId,
    deliveries: &[VirtualTime],
    silence_onset: Option<VirtualTime>,
    horizon: VirtualTime,
    query_interval: Duration,
) -> DetectorQuality {
    assert!(
        query_interval > Duration::ZERO,
        "query interval must be positive"
    );

    let mut mistakes = 0u64;
    let mut last_flip_to_suspected: Option<VirtualTime> = None;
    let mut suspected = false;

    let mut di = 0usize;
    let mut q = VirtualTime::ZERO + query_interval;
    loop {
        // Interleave deliveries and queries in time order; deliveries first
        // on ties (the message is what the query should already reflect).
        let next_delivery = deliveries.get(di).copied();
        match next_delivery {
            Some(d) if d <= q && d <= horizon => {
                detector.observe_message(peer, d);
                if suspected {
                    mistakes += 1;
                    suspected = false;
                    last_flip_to_suspected = None;
                }
                di += 1;
                continue;
            }
            _ => {}
        }
        if q > horizon {
            break;
        }
        let s = detector.suspects(peer, q);
        if s && !suspected {
            suspected = true;
            last_flip_to_suspected = Some(q);
        } else if !s && suspected {
            // Detector rehabilitated on its own (only oracles do this).
            suspected = false;
            last_flip_to_suspected = None;
        }
        q += query_interval;
    }

    let detection_time = match (silence_onset, last_flip_to_suspected) {
        (Some(onset), Some(flip)) if suspected => Some(flip.since(onset)),
        _ => None,
    };
    DetectorQuality {
        detection_time,
        mistakes,
        suspected_at_horizon: suspected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeout::TimeoutDetector;

    fn times(ts: &[u64]) -> Vec<VirtualTime> {
        ts.iter().map(|&t| VirtualTime::at(t)).collect()
    }

    #[test]
    fn mute_peer_is_detected_permanently() {
        let mut d = TimeoutDetector::new(1, Duration::of(10));
        let deliveries = times(&[5, 10, 15, 20]); // silent after t=20
        let q = replay_quality(
            &mut d,
            ProcessId(0),
            &deliveries,
            Some(VirtualTime::at(20)),
            VirtualTime::at(200),
            Duration::of(1),
        );
        assert!(q.complete());
        assert_eq!(q.detection_time, Some(Duration::of(11)));
        assert_eq!(q.mistakes, 0);
    }

    #[test]
    fn chatty_peer_with_adaptive_timeout_has_finite_mistakes() {
        let mut d = TimeoutDetector::new(1, Duration::of(2));
        // Speaks every 8 ticks forever: timeout 2 → wrongly suspected a few
        // times, then the doubled timeout exceeds 8 and mistakes stop.
        let deliveries: Vec<VirtualTime> = (1..200).map(|i| VirtualTime::at(i * 8)).collect();
        let q = replay_quality(
            &mut d,
            ProcessId(0),
            &deliveries,
            None,
            VirtualTime::at(1_500),
            Duration::of(1),
        );
        assert!(!q.suspected_at_horizon);
        assert!(
            q.mistakes >= 1 && q.mistakes <= 3,
            "mistakes={}",
            q.mistakes
        );
        assert_eq!(q.detection_time, None);
    }

    #[test]
    fn never_silent_never_detected() {
        let mut d = TimeoutDetector::new(1, Duration::of(50));
        let deliveries: Vec<VirtualTime> = (1..40).map(|i| VirtualTime::at(i * 10)).collect();
        let q = replay_quality(
            &mut d,
            ProcessId(0),
            &deliveries,
            None,
            VirtualTime::at(400),
            Duration::of(5),
        );
        assert!(!q.complete());
        assert_eq!(q.mistakes, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_query_interval_rejected() {
        let mut d = TimeoutDetector::new(1, Duration::of(10));
        let _ = replay_quality(
            &mut d,
            ProcessId(0),
            &[],
            None,
            VirtualTime::at(10),
            Duration::ZERO,
        );
    }
}
