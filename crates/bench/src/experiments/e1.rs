//! E1 — Fig. 2: the crash-model protocol across sizes and crash patterns.

use ftm_core::crash::{CtCounts, HrCounts};
use ftm_core::rounds::{ct::ChandraToueg, hr::HurfinRaynal};

use crate::experiments::common::{run_crash, Outcome};
use crate::report::{mean, pct, Table};

const SEEDS: u64 = 20;

fn aggregate(outcomes: &[Outcome]) -> (String, String, String, String, String) {
    let total = outcomes.len();
    let ok = outcomes.iter().filter(|o| o.verdict.ok()).count();
    let rounds: Vec<u64> = outcomes.iter().map(|o| o.rounds as u64).collect();
    let latency: Vec<u64> = outcomes.iter().map(|o| o.latency).collect();
    let msgs: Vec<u64> = outcomes.iter().map(|o| o.messages).collect();
    (
        pct(ok, total),
        mean(&rounds),
        latency.iter().copied().max().unwrap_or(0).to_string(),
        mean(&latency),
        mean(&msgs),
    )
}

/// Runs E1 and renders its markdown section.
pub fn run() -> String {
    let mut out = String::from(
        "## E1 — Crash-model Hurfin–Raynal consensus (paper Fig. 2)\n\n\
         20 seeds per row; `all ok` = Termination ∧ Agreement ∧ Validity for\n\
         every correct process in every run. Crash schedules: `k early` crashes\n\
         the coordinators of the first k rounds at t = 0; `1 late` crashes p0 at\n\
         t = 60 (after its CURRENT broadcast is typically in flight).\n\n",
    );
    let mut t = Table::new([
        "n",
        "crashes",
        "all ok",
        "mean rounds",
        "max latency",
        "mean latency",
        "mean msgs",
    ]);
    for n in [3usize, 4, 5, 7, 9, 13] {
        let fmax = ftm_core::quorum::max_faults(n);
        let mut schedules: Vec<(String, Vec<(usize, u64)>)> =
            vec![("none".into(), vec![]), ("1 early".into(), vec![(0, 0)])];
        if fmax > 1 {
            schedules.push((format!("{fmax} early"), (0..fmax).map(|i| (i, 0)).collect()));
        }
        schedules.push(("1 late".into(), vec![(0, 60)]));
        for (label, crashes) in schedules {
            let outcomes: Vec<Outcome> = (0..SEEDS)
                .map(|seed| run_crash::<HurfinRaynal<HrCounts>>(n, seed, &crashes, None))
                .collect();
            let (ok, rounds, maxlat, lat, msgs) = aggregate(&outcomes);
            t.row([n.to_string(), label, ok, rounds, maxlat, lat, msgs]);
        }
    }
    out.push_str(&t.to_string());

    // ------------------------------------------------------------------
    // Extension: a second member of the regular round-based class.
    // ------------------------------------------------------------------
    out.push_str(
        "\n### Extension: Hurfin–Raynal vs. Chandra–Toueg (both ◇S, crash model)\n\n\
         The paper's methodology targets any *regular round-based* protocol;\n\
         the classic Chandra–Toueg ◇S protocol is a second member of that\n\
         class, included to make the class concrete. HR broadcasts every vote\n\
         (O(n²) messages/round, decides in one message exchange when the\n\
         coordinator is correct); CT's phases 1 and 3 are point-to-point to\n\
         the coordinator (O(n) per phase, but more exchanges end-to-end).\n\n",
    );
    let mut t = Table::new([
        "n",
        "crashes",
        "protocol",
        "all ok",
        "mean rounds",
        "mean latency",
        "mean msgs",
    ]);
    for n in [4usize, 7, 9] {
        for (label, crashes) in [("none", vec![]), ("1 early", vec![(0usize, 0u64)])] {
            let hr: Vec<Outcome> = (0..SEEDS)
                .map(|s| run_crash::<HurfinRaynal<HrCounts>>(n, s, &crashes, None))
                .collect();
            let (ok, rounds, _maxlat, lat, msgs) = aggregate(&hr);
            t.row([
                n.to_string(),
                label.to_string(),
                "Hurfin–Raynal".into(),
                ok,
                rounds,
                lat,
                msgs,
            ]);

            let ct: Vec<Outcome> = (0..SEEDS)
                .map(|s| run_crash::<ChandraToueg<CtCounts>>(n, s, &crashes, None))
                .collect();
            let (ok, rounds, _maxlat, lat, msgs) = aggregate(&ct);
            t.row([
                n.to_string(),
                label.to_string(),
                "Chandra–Toueg".into(),
                ok,
                rounds,
                lat,
                msgs,
            ]);
        }
    }
    out.push_str(&t.to_string());
    out.push('\n');
    out
}
