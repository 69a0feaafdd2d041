//! End-to-end negative tests: every seeded spec perturbation must be
//! rejected by the full driver with the diagnostic its checker owns.
//!
//! The unit tests inside each analysis module perturb specs by hand;
//! here the [`ftm_verify::perturb`] operators drive the *whole* per-spec
//! pipeline ([`ftm_verify::verify_spec`]) the same way CI does, across a
//! seed range and over both protocols — the operators pick their targets
//! from the spec's own send table — so the gate demonstrably fails, with a
//! witness, not just a flag, on every class of broken transformation.

use ftm_certify::ProtocolId::{self, ChandraToueg, HurfinRaynal};
use ftm_core::spec::{CertRoute, ProtocolSpec};
use ftm_verify::coverage::check_coverage;
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
                    "{at} not caught by its owning checker: {:?} / {:?}",
                    report.lineage,
                    report.coverage
                );
            }
        }
    }
}

/// Coverage has no seeded operator — a route to a rule that does not exist
/// does not compile — so its two remaining findings are perturbed by hand,
/// next to the specs that must stay clean.
#[test]
fn coverage_passes_every_shipped_spec_and_finds_a_broken_route() {
    for (p, other) in [(HurfinRaynal, ChandraToueg), (ChandraToueg, HurfinRaynal)] {
        for spec in [
            ProtocolSpec::transformed_for(p),
            ProtocolSpec::checkpointed_for(p),
        ] {
            let report = check_coverage(&spec);
            assert!(report.ok() && report.trusted_sends == 0, "{p}: {report:?}");
            assert_eq!(report.sends, report.rules, "{p}: sends ↔ rules");
        }
        let crash = check_coverage(&ProtocolSpec::crash_for(p));
        assert!(crash.ok(), "{p}: {crash:?}");
        assert_eq!(crash.trusted_sends, crash.sends, "{p}");
        // One certified send trusted again, one routed through the other
        // protocol's table: two findings, and two rows left dead.
        let mut spec = ProtocolSpec::transformed_for(p);
        spec.sends[3].route = CertRoute::Trusted;
        spec.sends[1].route = ProtocolSpec::transformed_for(other).sends[1].route;
        let report = check_coverage(&spec);
        let found = |needle: &str| report.uncovered_sends.iter().any(|s| s.contains(needle));
        assert!(found("trusted inside a certified spec"), "{report:?}");
        assert!(found(&format!("not a {p} rule")), "{report:?}");
        assert_eq!(report.dead_rules.len(), 2, "{report:?}");
    }
}
