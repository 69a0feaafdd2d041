//! End-to-end negative tests: every seeded spec perturbation must be
//! rejected by the full driver with the diagnostic its checker owns.
//!
//! The unit tests inside each analysis module perturb specs by hand;
//! here the [`ftm_verify::perturb`] operators drive the *whole* per-spec
//! pipeline ([`ftm_verify::verify_spec`]) the same way CI does, across a
//! seed range and over both protocols — the operators pick their targets
//! from the spec's own send table — so the gate demonstrably fails, with a
//! witness, not just a flag, on every class of broken transformation.

use ftm_certify::ProtocolId;
use ftm_core::spec::ProtocolSpec;
use ftm_verify::perturb::SpecPerturbation;
use ftm_verify::{verify_spec, Bounds, SpecReport};

const SEEDS: [u64; 4] = [1, 7, 23, 90];

/// `true` when the checker that owns `p` reported its diagnostic.
fn caught(p: SpecPerturbation, report: &SpecReport) -> bool {
    let any = |findings: &[String], needle: &str| findings.iter().any(|d| d.contains(needle));
    let lineage = &report.lineage;
    match p {
        SpecPerturbation::DropRoute => {
            any(
                &lineage.unjustified,
                "no lineage back to a vector-certified root",
            ) || !lineage.dead_routes.is_empty()
        }
        SpecPerturbation::OrphanSend => any(&lineage.dangling, "does not exist"),
        SpecPerturbation::CyclicRoute => lineage
            .cycles
            .iter()
            .any(|c| c.contains("same-round justification cycle:") && c.contains(" -> ")),
    }
}

#[test]
fn every_perturbation_is_rejected_by_its_owning_checker_for_both_protocols() {
    let small = Bounds {
        soundness_rounds: 3,
        mutation_rounds: 2,
    };
    for protocol in ProtocolId::all() {
        for p in SpecPerturbation::all() {
            for seed in SEEDS {
                let mut spec = ProtocolSpec::transformed_for(protocol);
                let what = p.apply(&mut spec, seed);
                let report = verify_spec(&spec, &small);
                let at = format!("{protocol} {} seed {seed}: {what}", p.label());
                assert!(!report.ok(), "{at} passed the gate");
                assert!(
                    caught(p, &report),
                    "{at} not caught by its owning checker: {:?}",
                    report.lineage
                );
            }
        }
    }
}
