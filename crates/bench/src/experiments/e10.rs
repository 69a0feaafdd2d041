//! E10 — The scenario sweep: the full fault taxonomy crossed with system
//! sizes, run through the parallel harness, with per-module-layer cost
//! breakdowns aggregated per cell.
//!
//! This is the harness-native remake of E3/E4: instead of bespoke loops,
//! the matrix is enumerated, fanned across worker threads, and every run
//! flattened into structured counters. The output is deterministic — a
//! pure function of `(matrix, base seed)`, independent of thread count.

use ftm_faults::{sweep_scenarios, FaultBehavior, ScenarioMatrix};

use crate::report::Table;

const BASE_SEED: u64 = 0xE10;
const REPEATS: usize = 5;
const THREADS: usize = 4;

/// Runs E10 and renders its markdown section.
pub fn run() -> String {
    let matrix = ScenarioMatrix::new(
        ScenarioMatrix::default_systems(),
        vec![
            FaultBehavior::Honest,
            FaultBehavior::Crash,
            FaultBehavior::VectorCorrupt,
            FaultBehavior::ForgeDecide,
            FaultBehavior::WrongKey,
            FaultBehavior::StripCertificates,
        ],
    )
    .cross_protocols();
    let report = sweep_scenarios(&matrix.enumerate(), REPEATS, BASE_SEED, THREADS);

    let mut out = String::from(
        "## E10 — Scenario sweep: per-layer cost across the fault matrix\n\n\
         5 seeded runs per cell via the parallel sweep harness (base seed\n\
         0xE10), over the default system ladder up to n = 31 and both\n\
         transformed protocol instances (`hr` = Hurfin–Raynal, `ct` =\n\
         Chandra–Toueg). Byte columns are medians, split by module layer:\n\
         the signature module, the certification module (carried evidence)\n\
         and the protocol core. `detect` is the median conviction count;\n\
         `ok` counts runs where Agreement, Termination and Vector Validity\n\
         all held for the correct processes.\n\n",
    );

    let mut t = Table::new([
        "cell",
        "ok",
        "p50 rounds",
        "p50 msgs",
        "p50 sig B",
        "p50 cert B",
        "p50 core B",
        "p50 detect",
    ]);
    for (cell, stats) in report.cells() {
        let p50 = |name: &str| {
            stats
                .stats
                .get(name)
                .map_or_else(|| "0".into(), |s| s.p50.to_string())
        };
        t.row([
            cell.clone(),
            format!("{}/{}", stats.ok_runs, stats.runs),
            p50("rounds"),
            p50("messages-sent"),
            p50("bytes-signature"),
            p50("bytes-certificate"),
            p50("bytes-protocol"),
            p50("detections"),
        ]);
    }
    out.push_str(&t.to_string());
    out.push('\n');
    out
}
