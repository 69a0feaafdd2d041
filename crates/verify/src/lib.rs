//! # ftm-verify — static analyzer of the transformation's specs
//!
//! The paper's non-muteness module (§4, Fig. 4) is built "from the program
//! text": the per-peer observer automaton is a *static* artifact of the
//! protocol, not of any execution. Simulation sweeps validate it
//! dynamically, over sampled fault scenarios; this crate checks the static
//! artifact statically, over the *whole* bounded behavior space, for both
//! ends of the transformation — each protocol's crash spec and
//! [`ftm_core::spec::transform`] of it:
//!
//! 1. **Bounded soundness** — the observer automaton is
//!    [`ftm_detect::ProtocolTable::transition`] run on the table a
//!    [`ftm_core::spec::ProtocolSpec`] holds; there is no second encoding
//!    to reconcile it with. The independent reference is a *generator*:
//!    [`soundness`] enumerates every compliant sender trace up to a round
//!    bound and proves none is convicted (acceptor ⊇ generator).
//! 2. **Mutation analysis** — [`mutation`] generates every
//!    single-divergence mutant of those traces (kind swap, phase skip,
//!    duplicate send, round jump, send-after-decide), sets aside the ones
//!    the generator also emits, and proves every other one is convicted
//!    (acceptor ∌ any divergent neighbour), reporting the kill matrix.
//! 3. **Certificate-rule coverage** — by construction, not a pass: a
//!    spec's sends are built from its protocol's certification-rule table
//!    ([`ftm_certify::rules`]), one per row with the row's kind, and
//!    [`ftm_core::spec::transform`] routes each through the row it was
//!    built from, and only the opening through vector certification. A
//!    send outside the table, a dead row, a kind mismatch, a trusted send
//!    in a certified spec or an uncertifiable send that is not the opening
//!    has no spelling.
//! 4. **Certificate-lineage flow** ([`lineage`]) — the global side of the
//!    same obligation: the justification graph over the send table has no
//!    dangling evidence, no dead route, no same-round cycle but
//!    round-ending votes counting each other, and every value traces
//!    back to a vector-certified root.
//! 5. **Quorum algebra** ([`quorum`]) — the arithmetic everything above
//!    trusts: for every `(n, F)` with `n <= 64`, two `quorum_size(n, F)`
//!    quorums overlap in `>= F + 1` processes exactly when
//!    `F <= floor((n-1)/3)` and in `>= 1` exactly when
//!    `F <= floor((n-1)/2)` — proven by exhaustive subset-pair
//!    enumeration for small `n` and by the extremal construction beyond,
//!    with counterexample witnesses recorded past each bound.
//!
//! There is no crash→Byzantine *refinement* check, because there is
//! nothing to relate: the transformed spec is `transform(crash)`, both
//! run the one transition on tables that differ in `opening` alone, and
//! the opening is inert outside the `start` phase — so the transformed
//! spec's compliant traces are the crash spec's with `INIT` prepended,
//! and bounded soundness of the former *is* completeness of the step.
//! Three tests hold those facts where they live:
//! `the_opening_is_inert_outside_start` (`ftm-detect`),
//! `transformed_traces_are_the_crash_traces_behind_the_opening`
//! ([`soundness`]) and `the_transformed_table_is_the_one_the_runtime_observer_runs`
//! (`ftm_core::spec`).
//!
//! The `ftm-verify` binary runs everything over both protocols' transformed
//! and crash specs — four in total, Hurfin–Raynal and Chandra–Toueg — and
//! emits the same no-float, byte-stable JSON as `ftm_sim::report`; CI
//! treats a non-`ok` report as a hard gate failure.
//!
//! # Example
//!
//! ```
//! use ftm_verify::{verify_all, Bounds};
//! let report = verify_all(&Bounds::default());
//! assert!(report.ok(), "{}", report.to_json().render());
//! ```

pub mod lineage;
pub mod mutation;
pub mod perturb;
pub mod quorum;
pub mod report;
pub mod soundness;

pub use report::{SpecReport, VerifyReport};

use ftm_certify::ProtocolId;
use ftm_core::spec::ProtocolSpec;
use ftm_detect::ProtocolTable;

/// Trace budget governing the *effective* soundness bound per spec (see
/// [`Bounds::soundness_rounds_for`]): the round bound is lowered until the
/// compliant-trace enumeration fits this budget.
pub const SOUNDNESS_TRACE_CAP: usize = 150_000;

/// Bounds for the exhaustive checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Round bound for the compliant-trace enumeration.
    pub soundness_rounds: u64,
    /// Round bound for mutation bases (mutants multiply fast; a smaller
    /// bound keeps the matrix readable while still covering every operator
    /// at every automaton state).
    pub mutation_rounds: u64,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            soundness_rounds: 6,
            mutation_rounds: 3,
        }
    }
}

impl Bounds {
    /// The effective soundness round bound for `table`: the configured
    /// [`Bounds::soundness_rounds`], lowered (never below 1) until the
    /// compliant-trace count stays within [`SOUNDNESS_TRACE_CAP`].
    ///
    /// Per-round branching differs wildly between protocols — Hurfin–
    /// Raynal's `[CURRENT?, NEXT!]` discipline admits 2 vote chains per
    /// round, Chandra–Toueg's `[ESTIMATE!, PROPOSE?, ACK?, NACK?]` admits
    /// 8 — so a fixed round bound either starves the narrow protocol or
    /// explodes the wide one. Every automaton state and transition class
    /// is already exercised within the first two rounds; deeper rounds
    /// only re-walk the same structure, so trading depth for tractability
    /// on wide protocols loses no state coverage. The report records the
    /// bound actually used.
    pub fn soundness_rounds_for(&self, table: &ProtocolTable) -> u64 {
        let mut bound = 1;
        while bound < self.soundness_rounds
            && soundness::compliant_traces(table, bound + 1).len() <= SOUNDNESS_TRACE_CAP
        {
            bound += 1;
        }
        bound
    }
}

/// Runs every applicable check against one `spec`.
///
/// Mutation analysis runs only for specs with an opening kind; for the
/// opening-less crash specs that section is `None`.
pub fn verify_spec(spec: &ProtocolSpec, bounds: &Bounds) -> SpecReport {
    let table = &spec.table;
    SpecReport {
        soundness: soundness::check_soundness(table, bounds.soundness_rounds_for(table)),
        mutation: table
            .opening
            .is_some()
            .then(|| mutation::check_mutations(table, bounds.mutation_rounds)),
        lineage: lineage::check_lineage(spec),
    }
}

/// Grid ceiling for the exhaustive quorum-algebra check: every `(n, F)`
/// with `n <=` this and `0 <= F < n` is verified.
pub const QUORUM_GRID_N: usize = 64;

/// Runs the per-spec checks over every protocol's transformed and crash
/// spec — labelled `transformed`, `crash`, `ct`, `crash-ct` — plus the
/// quorum-algebra grid check (every threshold in the workspace routes
/// through the algebra it proves): the configuration the CI gate uses.
pub fn verify_all(bounds: &Bounds) -> VerifyReport {
    let mut specs = Vec::new();
    for protocol in ProtocolId::all() {
        let (transformed, crash) = match protocol {
            ProtocolId::HurfinRaynal => ("transformed", "crash"),
            ProtocolId::ChandraToueg => ("ct", "crash-ct"),
        };
        let spec = ProtocolSpec::transformed_for(protocol);
        specs.push((transformed, verify_spec(&spec, bounds)));
        let spec = ProtocolSpec::crash_for(protocol);
        specs.push((crash, verify_spec(&spec, bounds)));
    }
    VerifyReport {
        specs,
        quorum: quorum::check_quorums(QUORUM_GRID_N),
    }
}

include!("../../../clippy_canaries.rs"); // D1–D4 ban canaries, DESIGN.md §13

#[cfg(test)]
mod tests {
    use super::*;

    fn spec<'a>(report: &'a VerifyReport, label: &str) -> Option<&'a SpecReport> {
        report
            .specs
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, s)| s)
    }

    #[test]
    fn every_spec_verifies_clean() {
        let report = verify_all(&Bounds::default());
        assert!(report.ok(), "{}", report.to_json().render());
        let labels: Vec<&str> = report.specs.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, ["transformed", "crash", "ct", "crash-ct"]);
    }

    #[test]
    fn mutation_runs_only_on_specs_with_an_opening() {
        let report = verify_all(&Bounds {
            soundness_rounds: 3,
            mutation_rounds: 2,
        });
        for label in ["transformed", "ct"] {
            assert!(spec(&report, label).unwrap().mutation.is_some(), "{label}");
        }
        for label in ["crash", "crash-ct"] {
            let spec = spec(&report, label).unwrap();
            assert!(spec.mutation.is_none(), "{label}");
            assert!(spec.soundness.traces > 0, "{label}");
        }
    }

    #[test]
    fn the_soundness_bound_scales_to_the_protocols_branching() {
        let bounds = Bounds::default();
        // HR's narrow per-round discipline keeps the full bound; CT's
        // eight vote chains per round would enumerate ~8^6 traces, so the
        // effective bound shrinks until the cap holds.
        assert_eq!(
            bounds.soundness_rounds_for(
                &ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal).table
            ),
            bounds.soundness_rounds
        );
        let ct_table = ProtocolSpec::transformed_for(ProtocolId::ChandraToueg).table;
        let ct = bounds.soundness_rounds_for(&ct_table);
        assert!(ct >= 3, "CT bound over-shrunk: {ct}");
        assert!(ct < bounds.soundness_rounds, "CT bound did not scale: {ct}");
        assert!(soundness::compliant_traces(&ct_table, ct).len() <= SOUNDNESS_TRACE_CAP);
    }

    #[test]
    fn report_json_is_reproducible_and_carries_every_section() {
        let report = verify_all(&Bounds {
            soundness_rounds: 3,
            mutation_rounds: 2,
        });
        let a = report.to_json().render();
        let b = report.to_json().render();
        assert_eq!(a, b);
        for key in [
            "\"specs\"",
            "\"transformed\"",
            "\"crash\"",
            "\"ct\"",
            "\"crash-ct\"",
            "soundness",
            "false-convictions",
            "mutation",
            "lineage",
            "kind-swap",
            "\"quorum\"",
            "exhaustive-pairs",
            "cert-witnesses",
            "disjoint-witnesses",
            "\"ok\": true",
        ] {
            assert!(a.contains(key), "report lost section {key}:\n{a}");
        }
        // One transformed spec per protocol, no refinement section, and
        // no coverage pass: the specs are built from the rule table.
        for key in [
            "certificate-coverage",
            "derived",
            "refinement",
            "derivation",
            "completeness",
            "soundness-gain",
            "gain-witnesses",
        ] {
            assert!(!a.contains(key), "report still carries {key}:\n{a}");
        }
    }
}
