//! E7 — muteness-detector quality: the completeness/accuracy trade-off of
//! the ◇M implementation across initial timeouts.

use ftm_fd::properties::replay_quality;
use ftm_fd::TimeoutDetector;
use ftm_sim::{Duration, ProcessId, VirtualTime};

use crate::report::Table;

/// Runs E7 and renders its markdown section.
pub fn run() -> String {
    let mut out = String::from(
        "## E7 — Muteness detector quality (◇M reconstruction)\n\n\
         Replay harness: peer A sends a protocol message every 25 ticks and\n\
         falls mute at t = 1000; peer B sends every 60 ticks forever. Horizon\n\
         t = 12000, suspicion queried every 5 ticks. `detection` = latency from\n\
         A's silence onset to its permanent suspicion; `mistakes` = wrongful\n\
         suspicions of the correct peer B. The adaptive detector doubles a\n\
         peer's timeout on every mistake (Doudou et al.'s scheme), so mistakes\n\
         on B stop once Δ has doubled past B's 60-tick period.\n\n",
    );
    let mute: Vec<VirtualTime> = (1..=40).map(|i| VirtualTime::at(i * 25)).collect();
    let slow: Vec<VirtualTime> = (1..=200).map(|i| VirtualTime::at(i * 60)).collect();
    let horizon = VirtualTime::at(12_000);
    let q = Duration::of(5);
    let peer = ProcessId(0);

    let mut t = Table::new([
        "timeout Δ",
        "adaptive: detection",
        "adaptive: mistakes on B",
    ]);
    for timeout in [10u64, 25, 50, 100, 200, 400, 800] {
        let mut a1 = TimeoutDetector::new(1, Duration::of(timeout));
        let da = replay_quality(
            &mut a1,
            peer,
            &mute,
            Some(VirtualTime::at(1_000)),
            horizon,
            q,
        );
        let mut a2 = TimeoutDetector::new(1, Duration::of(timeout));
        let ma = replay_quality(&mut a2, peer, &slow, None, horizon, q);
        let fmt = |d: Option<Duration>| d.map_or_else(|| "missed".into(), |x| format!("{x}"));
        t.row([
            format!("{timeout}"),
            fmt(da.detection_time),
            ma.mistakes.to_string(),
        ]);
    }
    out.push_str(&t.to_string());
    out.push('\n');
    out
}
