//! The verdict bits of four over-budget cells, pinned seed by seed: for
//! seeds 0–15, the `ok prop-termination prop-agreement prop-validity`
//! bits `run_scenario` records for n = 4, F = 1 coalitions of two — a
//! vector corrupter with a mute member, and two benign crashes — each as
//! one-shot consensus and as a 2-slot replicated log.
//!
//! Two members exceed the budget: the crashes forfeit termination and
//! the corrupter, on some seeds, vector validity, so each workload reads
//! both failing bits. How a run is judged — one checker or several — is
//! not behaviour: a change to the validators must leave this table as it
//! is. A mismatch prints the cell's line as it now stands.

use ft_modular::faults::{run_scenario, AttackRun, FaultBehavior, Workload};

use FaultBehavior::{Crash, Mute, VectorCorrupt};

const SEEDS: u64 = 16;

/// One `<ok><termination><agreement><validity>` group per seed, seeds
/// 0–15 in order, for `coalition` at n = 4, F = 1 under `workload`.
fn pin(coalition: [FaultBehavior; 2], workload: Workload, pinned: &str) {
    let sc = AttackRun::coalition_of(4, 1, &coalition).workload(workload);
    let groups: Vec<String> = (0..SEEDS).map(|seed| bits(&sc, seed)).collect();
    let line = groups.join(" ");
    assert_eq!(line, pinned, "{} moved; it now reads:\n{line}", sc.cell());
}

fn bits(sc: &AttackRun, seed: u64) -> String {
    let rec = run_scenario(0, sc, seed);
    let flags = [
        u64::from(rec.ok),
        rec.get("prop-termination"),
        rec.get("prop-agreement"),
        rec.get("prop-validity"),
    ];
    flags.iter().map(u64::to_string).collect()
}

#[test]
fn corrupt_and_mute_one_shot() {
    pin(
        [VectorCorrupt, Mute],
        Workload::OneShot,
        "0110 0110 0110 0110 1111 1111 0110 1111 1111 1111 0110 0110 0110 1111 1111 0110",
    );
}

#[test]
fn corrupt_and_mute_log() {
    pin(
        [VectorCorrupt, Mute],
        Workload::Log { slots: 2 },
        "0110 0011 0011 0011 0011 0011 0011 0011 1111 0011 0011 0011 0011 0011 0011 0110",
    );
}

#[test]
fn two_crashes_one_shot() {
    pin(
        [Crash, Crash],
        Workload::OneShot,
        "0011 0011 0011 0011 0011 0011 0011 0011 0011 0011 0011 0011 0011 0011 0011 0011",
    );
}

#[test]
fn two_crashes_log() {
    pin(
        [Crash, Crash],
        Workload::Log { slots: 2 },
        "0011 0011 0011 0011 0011 0011 0011 0011 0011 0011 0011 0011 0011 0011 0011 0011",
    );
}
