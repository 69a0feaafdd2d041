//! Failure-detector gallery (experiment E7 in miniature): replay a mute
//! peer's and a slow peer's message timelines into the adaptive ◇M-style
//! detector, sweeping the timeout parameter, and print the
//! completeness/accuracy trade-off.
//!
//! ```text
//! cargo run --example detector_gallery
//! ```

use ft_modular::fd::properties::replay_quality;
use ft_modular::fd::TimeoutDetector;
use ft_modular::sim::{Duration, ProcessId, VirtualTime};

fn main() {
    // A peer that speaks every 25 ticks for a while, then goes mute at
    // t = 1000 — the muteness case the detector must catch…
    let mute_deliveries: Vec<VirtualTime> = (1..=40).map(|i| VirtualTime::at(i * 25)).collect();
    // …and a peer that speaks every 60 ticks forever — the slow-but-
    // correct case it must learn to trust.
    let slow_deliveries: Vec<VirtualTime> = (1..=200).map(|i| VirtualTime::at(i * 60)).collect();

    let horizon = VirtualTime::at(12_000);
    let peer = ProcessId(0);

    println!(
        "peer A: speaks every 25 ticks, mute from t=1000; peer B: speaks every 60 ticks, correct"
    );
    println!("horizon t=12000, queries every 5 ticks\n");
    println!(
        "{:<10} {:<22} {:<22} {:<24} {:<10}",
        "timeout",
        "A: detection latency",
        "A: false suspicions",
        "B: false suspicions",
        "B: trusted at end"
    );
    println!("{}", "-".repeat(92));

    for timeout in [10u64, 25, 50, 100, 200, 400] {
        let mut adaptive = TimeoutDetector::new(1, Duration::of(timeout));
        let qa = replay_quality(
            &mut adaptive,
            peer,
            &mute_deliveries,
            Some(VirtualTime::at(1_000)),
            horizon,
            Duration::of(5),
        );
        let mut adaptive_b = TimeoutDetector::new(1, Duration::of(timeout));
        let qb = replay_quality(
            &mut adaptive_b,
            peer,
            &slow_deliveries,
            None,
            horizon,
            Duration::of(5),
        );
        println!(
            "{:<10} {:<22} {:<22} {:<24} {:<10}",
            format!("Δ={timeout}"),
            qa.detection_time
                .map_or_else(|| "missed!".to_string(), |d| format!("{d} ticks")),
            qa.mistakes,
            qb.mistakes,
            if qb.suspected_at_horizon { "NO" } else { "yes" },
        );
    }

    println!("\nThe adaptive detector (timeout doubles on every mistake) keeps false");
    println!("suspicions finite even at aggressive settings.");
}
