//! E4 — Fig. 4: detection coverage and latency per fault class.
//!
//! Every fault class is an [`AttackRun`] cell run through the deterministic
//! parallel sweep harness ([`ftm_faults::scenario::sweep_scenarios`]); the
//! coverage/observers/latency columns come from the harness's
//! attacker-conviction counters (`convicted-<class>`,
//! `conviction-at-<class>`) instead of a bespoke per-seed loop.

use ftm_faults::{sweep_scenarios, AttackRun, FaultBehavior};
use ftm_sim::harness::RunRecord;

use crate::report::{mean, pct, Table};

const SEEDS: usize = 15;
const BASE_SEED: u64 = 0xE4;
const THREADS: usize = 4;

struct Case {
    name: &'static str,
    expected_class: &'static str,
    scenario: AttackRun,
}

/// Runs E4 and renders its markdown section.
pub fn run() -> String {
    // Vote-pattern attacks (round jumping, duplication) only show up in
    // NEXT traffic, so those cells crash the round-1 coordinator at t = 0
    // (`crash_low(1)`) in a (7, 2) system; the rest use (4, 1).
    let cases = [
        Case {
            name: "vector corruption",
            expected_class: "bad-certificate",
            scenario: AttackRun::single(4, 1, FaultBehavior::VectorCorrupt),
        },
        Case {
            name: "forged DECIDE",
            expected_class: "bad-certificate",
            scenario: AttackRun::single(4, 1, FaultBehavior::ForgeDecide),
        },
        Case {
            name: "spurious CURRENT",
            expected_class: "bad-certificate",
            scenario: AttackRun::single(4, 1, FaultBehavior::SpuriousCurrent),
        },
        Case {
            name: "wrong signing key",
            expected_class: "bad-signature",
            scenario: AttackRun::single(4, 1, FaultBehavior::WrongKey),
        },
        Case {
            name: "identity theft",
            expected_class: "bad-signature",
            scenario: AttackRun::single(4, 1, FaultBehavior::StealIdentity),
        },
        Case {
            name: "round jumping (+5)",
            expected_class: "out-of-order",
            scenario: AttackRun::single(7, 2, FaultBehavior::RoundJump).crash_low(1),
        },
        Case {
            name: "vote duplication",
            expected_class: "out-of-order",
            scenario: AttackRun::single(7, 2, FaultBehavior::DuplicateVotes).crash_low(1),
        },
    ];

    let scenarios: Vec<AttackRun> = cases.iter().map(|c| c.scenario.clone()).collect();
    let report = sweep_scenarios(&scenarios, SEEDS, BASE_SEED, THREADS);

    let mut out = String::from(
        "## E4 — Non-muteness detection coverage and latency (paper Fig. 4)\n\n\
         15 seeded runs per row via the parallel sweep harness (base seed\n\
         0xE4). Each row is a single-attacker cell at the default\n\
         placement (the top-numbered process); E11 sweeps coalitions.\n\
         `coverage` = fraction of runs in which at least one correct process\n\
         convicted the attacker with the expected class; `observers` = mean\n\
         number of distinct correct convictors per detecting run (processes\n\
         that decide before the faulty message arrives never see it);\n\
         `latency` = mean virtual time of the first conviction. Properties\n\
         held in every run of every row.\n\n",
    );
    let mut t = Table::new([
        "fault class injected",
        "expected class",
        "coverage",
        "observers",
        "latency",
        "properties",
    ]);

    for case in &cases {
        let cell = case.scenario.cell();
        let recs: Vec<&RunRecord> = report.records.iter().filter(|r| r.cell == cell).collect();
        let convicted = format!("convicted-{}", case.expected_class);
        let at = format!("conviction-at-{}", case.expected_class);
        let mut covered = 0;
        let mut observers = Vec::new();
        let mut latencies = Vec::new();
        for rec in &recs {
            if rec.get(&convicted) > 0 {
                covered += 1;
                observers.push(rec.get(&convicted));
                latencies.push(rec.get(&at));
            }
        }
        let all_ok = recs.iter().filter(|r| r.ok).count();
        t.row([
            case.name.to_string(),
            case.expected_class.to_string(),
            pct(covered, recs.len()),
            mean(&observers),
            mean(&latencies),
            pct(all_ok, recs.len()),
        ]);
    }

    out.push_str(&t.to_string());

    // Muteness: detected by the ◇M module (suspicion), not by conviction.
    out.push_str(
        "\n### Muteness (the ◇M module's half of the detection work)\n\n\
         The mute process is p0, the round-1 coordinator, crashed at t = 0 —\n\
         muteness by the simplest means (§2), injected via the harness's\n\
         `extra_crashes` axis. Muteness produces *suspicion*, not\n\
         conviction — the table reports the first `suspect=` event raised by\n\
         a correct process and the fraction of runs that then decided\n\
         without p0. The suspicion latency is dominated by the ◇M initial\n\
         timeout (150) plus the poll interval (25), exactly as configured.\n\n",
    );
    let mute = AttackRun::single(4, 1, FaultBehavior::Honest).crash_low(1);
    let mute_report = sweep_scenarios(&[mute], SEEDS, 0x4E4, THREADS);
    let mut t = Table::new([
        "runs",
        "suspicion coverage",
        "mean suspicion latency",
        "properties",
    ]);
    let mut covered = 0;
    let mut ok = 0;
    let mut latencies = Vec::new();
    for rec in &mute_report.records {
        if rec.ok {
            ok += 1;
        }
        if rec.get("suspicion-covered") == 1 {
            covered += 1;
            latencies.push(rec.get("suspicion-first-at"));
        }
    }
    t.row([
        SEEDS.to_string(),
        pct(covered, SEEDS),
        mean(&latencies),
        pct(ok, SEEDS),
    ]);
    out.push_str(&t.to_string());
    out.push('\n');
    out
}
