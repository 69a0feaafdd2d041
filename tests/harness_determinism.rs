//! The sweep harness's core guarantee: the report is a pure function of
//! `(scenario matrix, base seed)`. Thread count is a wall-clock knob, not
//! a semantic one — 1 worker and 8 workers must render byte-identical
//! JSON — and distinct base seeds must actually explore distinct
//! executions.

use ft_modular::faults::{sweep_scenarios, FaultBehavior, ScenarioMatrix};

fn matrix() -> ScenarioMatrix {
    ScenarioMatrix::new(
        vec![(4, 1), (5, 1), (7, 2)],
        vec![
            FaultBehavior::Honest,
            FaultBehavior::Crash,
            FaultBehavior::Mute,
            FaultBehavior::VectorCorrupt,
            FaultBehavior::ForgeDecide,
            FaultBehavior::StripCertificates,
        ],
    )
}

#[test]
fn sweep_is_bit_identical_across_thread_counts() {
    let cells = matrix().enumerate();
    let single = sweep_scenarios(&cells, 1, 0xD00D, 1).to_json().render();
    let eight = sweep_scenarios(&cells, 1, 0xD00D, 8).to_json().render();
    assert_eq!(single, eight, "thread count leaked into the report");
}

#[test]
fn sweep_is_bit_identical_at_large_system_sizes() {
    // The grown default grid tops out at (31, 10); determinism must hold
    // there too, for both transformed protocols.
    let systems: Vec<(usize, usize)> = ScenarioMatrix::default_systems()
        .into_iter()
        .filter(|&(n, _)| n >= 13)
        .collect();
    assert_eq!(systems, [(13, 4), (21, 6), (31, 10)]);
    let cells = ScenarioMatrix::new(
        systems,
        vec![FaultBehavior::Honest, FaultBehavior::VectorCorrupt],
    )
    .cross_protocols()
    .enumerate();
    let single = sweep_scenarios(&cells, 1, 0xB16, 1).to_json().render();
    let eight = sweep_scenarios(&cells, 1, 0xB16, 8).to_json().render();
    assert_eq!(single, eight, "thread count leaked into the large-n report");
}

#[test]
fn distinct_base_seeds_give_distinct_traces() {
    let cells = ScenarioMatrix::new(vec![(4, 1)], vec![FaultBehavior::Honest]).enumerate();
    let a = sweep_scenarios(&cells, 1, 1, 2);
    let b = sweep_scenarios(&cells, 1, 2, 2);
    assert_ne!(
        a.records[0].get("trace-fingerprint"),
        b.records[0].get("trace-fingerprint"),
        "different base seeds produced the same execution"
    );
    // But each base seed reproduces itself exactly.
    let a2 = sweep_scenarios(&cells, 1, 1, 8);
    assert_eq!(a.to_json().render(), a2.to_json().render());
}

#[test]
fn scenario_indices_decorrelate_seeds_within_a_sweep() {
    // Two copies of the same cell in one sweep get distinct derived seeds,
    // hence distinct traces — repeats are real samples, not clones.
    let cells = ScenarioMatrix::new(vec![(4, 1)], vec![FaultBehavior::Honest]).enumerate();
    let rep = sweep_scenarios(&cells, 2, 9, 2);
    assert_ne!(rep.records[0].seed, rep.records[1].seed);
    assert_ne!(
        rep.records[0].get("trace-fingerprint"),
        rep.records[1].get("trace-fingerprint"),
    );
}

#[test]
fn coalition_and_network_sweep_is_bit_identical_across_thread_counts() {
    // The new sweep axes — multi-member coalitions and network profiles —
    // must obey the same purity contract as the classic grid: 1, 2 and 8
    // workers render byte-identical JSON.
    use ft_modular::faults::{NetworkProfile, Scenario};

    let mut scenarios = Vec::new();
    for network in NetworkProfile::all() {
        scenarios.push(Scenario::new(4, 1, FaultBehavior::VectorCorrupt).network(network));
        scenarios.push(
            Scenario::coalition_of(7, 2, &[FaultBehavior::VectorCorrupt, FaultBehavior::Mute])
                .network(network),
        );
    }
    // One budget-exceeded row rides along (calm only: past the budget a
    // parked run burns simulated time to the limit, which is pointless
    // here — E11 documents those rows).
    scenarios.push(Scenario::coalition_of(
        7,
        2,
        &[
            FaultBehavior::VectorCorrupt,
            FaultBehavior::Mute,
            FaultBehavior::DuplicateVotes,
        ],
    ));

    let one = sweep_scenarios(&scenarios, 2, 0xC0DE, 1).to_json().render();
    let two = sweep_scenarios(&scenarios, 2, 0xC0DE, 2).to_json().render();
    let eight = sweep_scenarios(&scenarios, 2, 0xC0DE, 8).to_json().render();
    assert_eq!(one, two, "thread count leaked into the coalition sweep");
    assert_eq!(one, eight, "thread count leaked into the coalition sweep");
}

#[test]
fn no_gst_cell_terminates_via_the_round_cap() {
    // A profile with no GST makes termination unprovable — the simulator
    // must not depend on it. With delays far beyond the muteness
    // allowance, honest processes perpetually mis-suspect each other and
    // churn rounds without deciding; the profile's round cap must stop
    // the run (StopReason::RoundLimit), not the 2M-tick time limit.
    use ft_modular::faults::{AttackRun, NetworkProfile};
    use ft_modular::sim::runner::StopReason;
    use ft_modular::sim::{Duration, VirtualTime};

    let stress = NetworkProfile {
        label: "stress",
        min_delay: Duration::of(300),
        max_delay: Duration::of(400),
        gst: None,
        post_gst_max_delay: Duration::of(400),
        max_rounds: Some(2),
    };
    let run = AttackRun::new(4, 1, 0xCAFE, 3).network(stress);
    let report = run.run(None);
    assert_eq!(
        report.stop,
        StopReason::RoundLimit,
        "expected the round cap to fire (end={:?})",
        report.end_time
    );
    assert!(
        report.end_time < VirtualTime::at(100_000),
        "round cap fired absurdly late: {:?}",
        report.end_time
    );

    // And the cap is itself deterministic.
    let again = run.run(None);
    assert_eq!(report.trace.fingerprint(), again.trace.fingerprint());
}

#[test]
fn certificate_heavy_sweep_is_bit_identical_across_1_2_and_8_threads() {
    // Regression guard for the BTree migration in ftm-certify: the
    // behaviors below drive the certificate analyzer's grouping and
    // sender-set paths hardest (stripped evidence, forged decides,
    // duplicate votes), so any hash-order dependence left in the
    // report-feeding path would surface here as a byte diff between
    // worker counts.
    let cells = ScenarioMatrix::new(
        vec![(4, 1), (7, 2)],
        vec![
            FaultBehavior::StripCertificates,
            FaultBehavior::ForgeDecide,
            FaultBehavior::DuplicateVotes,
            FaultBehavior::EquivocateInit,
        ],
    )
    .cross_protocols()
    .enumerate();
    let one = sweep_scenarios(&cells, 1, 0xCE47, 1).to_json().render();
    let two = sweep_scenarios(&cells, 1, 0xCE47, 2).to_json().render();
    let eight = sweep_scenarios(&cells, 1, 0xCE47, 8).to_json().render();
    assert_eq!(one, two, "thread count leaked into the certificate sweep");
    assert_eq!(one, eight, "thread count leaked into the certificate sweep");
}
