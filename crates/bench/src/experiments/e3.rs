//! E3 — Fig. 3: the transformed protocol across fault budgets, at the
//! resilience bound F ≤ min(⌊(n−1)/2⌋, C) = ⌊(n−1)/3⌋ and one crash past
//! the budget.
//!
//! The rows are [`AttackRun`] cells run through the deterministic parallel
//! sweep harness ([`ftm_faults::scenario::sweep_scenarios`]) — the same
//! machinery as E10 and the fault-matrix tests — rather than a bespoke
//! seed loop. Multi-crash budgets use [`AttackRun::crash_low`], which
//! crashes low-numbered processes at t = 0 on top of the attacker's own
//! behavior.

use ftm_faults::{sweep_scenarios, AttackRun, FaultBehavior};
use ftm_sim::harness::RunRecord;

use crate::report::{mean, pct, Table};

const SEEDS: usize = 15;
const BASE_SEED: u64 = 0xE3;
const THREADS: usize = 4;

/// Runs E3 and renders its markdown section.
pub fn run() -> String {
    // One table row per sweep cell: (row label, cell).
    let mut rows: Vec<(String, AttackRun)> = Vec::new();
    for (n, f) in [(4usize, 1usize), (5, 1), (7, 2)] {
        rows.push((
            "all honest".into(),
            AttackRun::single(n, f, FaultBehavior::Honest),
        ));
        rows.push((
            format!("{f} crash"),
            AttackRun::single(n, f, FaultBehavior::Crash).crash_low(f - 1),
        ));
        rows.push((
            format!("1 byz + {} crash", f - 1),
            AttackRun::single(n, f, FaultBehavior::VectorCorrupt).crash_low(f - 1),
        ));
    }
    // Beyond the bound: F + 1 processes crash in an (n, F) system.
    for (n, f) in [(4usize, 1usize), (5, 1)] {
        rows.push((
            format!("{} crash (beyond bound)", f + 1),
            AttackRun::single(n, f, FaultBehavior::Crash).crash_low(f),
        ));
    }

    let cells: Vec<AttackRun> = rows.iter().map(|(_, run)| run.clone()).collect();
    let report = sweep_scenarios(&cells, SEEDS, BASE_SEED, THREADS);

    let mut out = String::from(
        "## E3 — Transformed vector consensus under faults (paper Fig. 3)\n\n\
         15 seeded runs per row via the parallel sweep harness (base seed\n\
         0xE3). `byz` marks a Byzantine process running the vector-corruption\n\
         strategy; crashes happen at t = 0 (low-numbered processes plus, in\n\
         the pure-crash rows, the attacker slot), at F = ⌊(n−1)/3⌋. The\n\
         rows hold for these behaviours only: `tests/agreement_breaks.rs`\n\
         pins runs breaking agreement at n = 4, F = 1. The final rows crash\n\
         F + 1 processes: no n − F quorum forms, so runs time out undecided.\n\n",
    );
    let mut t = Table::new([
        "n",
        "F",
        "scenario",
        "termination",
        "agreement+validity",
        "mean rounds",
    ]);

    for (label, run) in rows {
        let cell = run.cell();
        let recs: Vec<&RunRecord> = report.records.iter().filter(|r| r.cell == cell).collect();
        let term = recs
            .iter()
            .filter(|r| r.get("prop-termination") == 1)
            .count();
        let safe = recs
            .iter()
            .filter(|r| r.get("prop-agreement") == 1 && r.get("prop-validity") == 1)
            .count();
        let rounds: Vec<u64> = recs.iter().map(|r| r.get("rounds")).collect();
        let (n, f) = (run.config.n, run.config.f);
        let beyond_bound = run.crash_low + 1 > f;
        t.row([
            n.to_string(),
            f.to_string(),
            label,
            pct(term, recs.len()),
            pct(safe, recs.len()),
            if beyond_bound {
                "-".to_string()
            } else {
                mean(&rounds)
            },
        ]);
    }

    out.push_str(&t.to_string());
    out.push('\n');
    out
}
