//! Seeded spec perturbations: negative fuel for every static check.
//!
//! A checker that has never failed is indistinguishable from `true`. This
//! module injects single, seeded faults into a [`ProtocolSpec`] — each
//! perturbation targets exactly one analysis and must make it report a
//! finding with the expected diagnostic. The target send is chosen by a
//! [`SplitMix64`] stream, so the negative tests cover different rows on
//! different seeds while staying fully reproducible.

use ftm_core::spec::{CertRoute, EvidencePhase, Justification, ProtocolSpec};

use crate::lineage::counts_a_quorum;
use ftm_sim::prng::{Rng64, SplitMix64};

/// The spec-perturbation operators, each aimed at one checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecPerturbation {
    /// Clear the `justified_by` edges of a value-carrying, non-root send:
    /// its value loses the lineage back to the vector-certified root —
    /// [`crate::lineage`] must report it unjustified.
    DropRoute,
    /// Remove a send other sends cite as evidence: their justifications
    /// dangle — [`crate::lineage`] must report the dangling citations.
    OrphanSend,
    /// Add a same-round back edge closing a justification cycle that
    /// counts no quorum — [`crate::lineage`] must report the cycle.
    CyclicRoute,
}

impl SpecPerturbation {
    /// All perturbations, in report order.
    pub fn all() -> [SpecPerturbation; 3] {
        [
            SpecPerturbation::DropRoute,
            SpecPerturbation::OrphanSend,
            SpecPerturbation::CyclicRoute,
        ]
    }

    /// Stable kebab-case label.
    pub fn label(&self) -> &'static str {
        match self {
            SpecPerturbation::DropRoute => "drop-route",
            SpecPerturbation::OrphanSend => "orphan-send",
            SpecPerturbation::CyclicRoute => "cyclic-route",
        }
    }

    /// Applies the perturbation to `spec` in place, choosing the target
    /// with the stream seeded by `seed`. Returns a description of what was
    /// changed (the id of the touched send).
    ///
    /// # Panics
    ///
    /// Panics when the spec has no eligible target (e.g. perturbing a spec
    /// with no cited sends) — the perturbations are written for the
    /// paper's specs, which always have targets.
    pub fn apply(&self, spec: &mut ProtocolSpec, seed: u64) -> String {
        let mut rng = SplitMix64::from_seed(seed);
        let pick = |rng: &mut SplitMix64, n: usize| -> usize {
            assert!(n > 0, "perturbation has no eligible target");
            rng.gen_range_u64(0, n as u64 - 1) as usize
        };
        match self {
            SpecPerturbation::DropRoute => {
                let candidates: Vec<usize> = spec
                    .sends
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| {
                        s.carries_value
                            && !s.justified_by.is_empty()
                            && !matches!(s.route, CertRoute::VectorCertification(_))
                    })
                    .map(|(i, _)| i)
                    .collect();
                let i = candidates[pick(&mut rng, candidates.len())];
                spec.sends[i].justified_by.clear();
                format!("cleared justifications of `{}`", spec.sends[i].id)
            }
            SpecPerturbation::OrphanSend => {
                let cited: Vec<&str> = spec
                    .sends
                    .iter()
                    .flat_map(|s| s.justified_by.iter().map(|j| j.by))
                    .collect();
                let candidates: Vec<usize> = spec
                    .sends
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| cited.contains(&s.id))
                    .map(|(i, _)| i)
                    .collect();
                let i = candidates[pick(&mut rng, candidates.len())];
                let id = spec.sends[i].id;
                spec.sends.remove(i);
                format!("removed cited send `{id}`")
            }
            SpecPerturbation::CyclicRoute => {
                // Close a cycle over an existing same-round edge a -> b that
                // counts no quorum by adding the back edge b -> a.
                let pairs: Vec<(usize, &str)> = spec
                    .sends
                    .iter()
                    .flat_map(|s| {
                        s.justified_by
                            .iter()
                            .filter(|j| j.phase == EvidencePhase::SameRound)
                            .filter_map(|j| {
                                spec.sends
                                    .iter()
                                    .position(|t| {
                                        t.id == j.by && !counts_a_quorum(spec, t.kind, s.kind)
                                    })
                                    .map(|i| (i, s.id))
                            })
                    })
                    .collect();
                let (justifier_idx, justified_id) = pairs[pick(&mut rng, pairs.len())];
                spec.sends[justifier_idx]
                    .justified_by
                    .push(Justification::same(justified_id));
                format!(
                    "added same-round back edge `{}` -> `{}`",
                    justified_id, spec.sends[justifier_idx].id
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_certify::ProtocolId;

    #[test]
    fn every_perturbation_changes_the_spec() {
        for p in SpecPerturbation::all() {
            for seed in 0..5 {
                let mut spec = ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal);
                let clean = spec.clone();
                let what = p.apply(&mut spec, seed);
                assert_ne!(
                    spec,
                    clean,
                    "{} (seed {seed}) was a no-op: {what}",
                    p.label()
                );
            }
        }
    }

    #[test]
    fn perturbations_are_seed_deterministic() {
        for p in SpecPerturbation::all() {
            let mut a = ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal);
            let mut b = ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal);
            let da = p.apply(&mut a, 41);
            let db = p.apply(&mut b, 41);
            assert_eq!(a, b);
            assert_eq!(da, db);
        }
    }
}
