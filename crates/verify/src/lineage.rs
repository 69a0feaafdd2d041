//! Certificate-lineage flow analysis: the justification graph.
//!
//! The *local* obligation — every conditional send has an audit rule —
//! holds by construction: a spec's sends are built from the rows of the
//! certification-rule table. This module checks the *global* one: the
//! certificates form a connected chain of evidence. Each
//! [`ftm_core::spec::ConditionalSend`] declares which sends' signed output appears in its
//! certificate (`justified_by`); those edges form a directed graph, and
//! the paper's discipline translates into four graph properties:
//!
//! * **no dangling evidence** — every cited send id exists;
//! * **value lineage** — every value-carrying send is reachable from a
//!   vector-certification root, i.e. every vector a message can carry
//!   traces back, certificate by certificate, to the signed initial
//!   values of the round-0 phase (§5.2). The crash model has no roots and
//!   skips this check: receivers trust values, which is exactly why
//!   classical Validity turns vacuous under arbitrary failures;
//! * **no dead route** — every non-terminal send's output is cited by
//!   some other send's certificate; evidence that justifies nothing
//!   downstream is a dead certificate route (the terminal is exempt:
//!   nothing follows a decision);
//! * **well-foundedness** — the same-round subgraph is acyclic, but for
//!   quorum counting. Edges carrying previous-round or round-0 evidence may
//!   close cycles across rounds (round-`r` entry cites `NEXT(r−1)`, which
//!   cited `CURRENT(r−1)`, …) — those are well-founded because the round
//!   strictly decreases and bottoms out at round 0. A same-round edge
//!   between two votes of one round-ending kind (HR's `NEXT`, CT's `ACK`
//!   and `NACK`) counts *other* processes' votes towards the quorum that
//!   ends the round, as HR's change-mind and end-of-round NEXTs count the
//!   round's NEXTs whichever row cast them: a process casts one such vote
//!   per round (the automaton's slot rule), so a chain of such citations
//!   passes each process once ([`counts_a_quorum`]). Any other cycle made
//!   of same-round edges only is vicious: two certificates would each be
//!   the other's evidence, as a coordinator's `CURRENT` citing the relays
//!   that cite it would be.

use std::collections::{BTreeMap, BTreeSet};

use ftm_certify::MessageKind;
use ftm_core::spec::{CertRoute, EvidencePhase, ProtocolSpec};

/// `true` when a send of kind `citing` citing a same-round send of kind
/// `cited` counts a quorum: both are votes of one round-ending kind. The
/// cycle check skips such edges.
pub fn counts_a_quorum(spec: &ProtocolSpec, cited: MessageKind, citing: MessageKind) -> bool {
    cited == citing && spec.table.protocol.round_ending_kinds().contains(&cited)
}

/// Result of the lineage analysis.
#[derive(Debug, Clone, Default)]
pub struct LineageReport {
    /// Conditional sends (graph nodes).
    pub sends: u64,
    /// Justification edges.
    pub edges: u64,
    /// Vector-certification roots.
    pub roots: u64,
    /// `true` when every route is trusted (crash model): value lineage is
    /// skipped, structural checks still run.
    pub trusted: bool,
    /// Justifications citing a send id that does not exist (must be
    /// empty).
    pub dangling: Vec<String>,
    /// Value-carrying sends with no evidence path back to a
    /// vector-certification root (must be empty).
    pub unjustified: Vec<String>,
    /// Non-terminal sends whose output no certificate cites (must be
    /// empty).
    pub dead_routes: Vec<String>,
    /// Same-round justification cycles, rendered as `a -> b -> a` (must
    /// be empty).
    pub cycles: Vec<String>,
}

impl LineageReport {
    /// `true` when the graph is fully justified and nothing was vacuous.
    pub fn ok(&self) -> bool {
        self.sends > 0
            && (self.trusted || self.roots > 0)
            && self.dangling.is_empty()
            && self.unjustified.is_empty()
            && self.dead_routes.is_empty()
            && self.cycles.is_empty()
    }
}

/// Runs the lineage analysis over `spec`'s conditional-send table.
pub fn check_lineage(spec: &ProtocolSpec) -> LineageReport {
    let sends = &spec.sends;
    let kinds: BTreeMap<&str, MessageKind> = sends.iter().map(|s| (s.id, s.kind)).collect();
    let mut report = LineageReport {
        sends: sends.len() as u64,
        trusted: sends.iter().all(|s| s.route == CertRoute::Trusted),
        ..LineageReport::default()
    };

    // Edges (justifier -> justified), dangling detection, citation counts.
    let mut cited: BTreeMap<&str, u64> = sends.iter().map(|s| (s.id, 0)).collect();
    let mut forward: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut forward_same: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for send in sends {
        for j in &send.justified_by {
            report.edges += 1;
            let Some(&by_kind) = kinds.get(j.by) else {
                report.dangling.push(format!(
                    "send `{}` cites `{}` ({} evidence), which does not exist",
                    send.id,
                    j.by,
                    j.phase.label()
                ));
                continue;
            };
            *cited.entry(j.by).or_default() += 1;
            forward.entry(j.by).or_default().push(send.id);
            if j.phase == EvidencePhase::SameRound && !counts_a_quorum(spec, by_kind, send.kind) {
                forward_same.entry(j.by).or_default().push(send.id);
            }
        }
    }

    // Value lineage: reachability from the justification roots — the
    // vector-certification phase (round-0 signed initial values) and any
    // checkpoint-compaction send (a quorum-signed digest that replaces
    // the certificate prefix behind it, legitimately restarting the
    // chain; see `CertRoute::CheckpointRoot`).
    let roots: Vec<&str> = sends
        .iter()
        .filter(|s| {
            matches!(
                s.route,
                CertRoute::VectorCertification(_) | CertRoute::CheckpointRoot(_)
            )
        })
        .map(|s| s.id)
        .collect();
    report.roots = roots.len() as u64;
    if !report.trusted {
        let mut reached: BTreeSet<&str> = BTreeSet::new();
        let mut frontier: Vec<&str> = roots.clone();
        while let Some(id) = frontier.pop() {
            if reached.insert(id) {
                if let Some(next) = forward.get(id) {
                    frontier.extend(next.iter().copied());
                }
            }
        }
        for send in sends {
            if send.carries_value && !reached.contains(send.id) {
                report.unjustified.push(format!(
                    "send `{}` ({}) carries a value with no lineage back to a \
                     vector-certified root",
                    send.id, send.kind
                ));
            }
        }
    }

    // Dead routes: non-terminal evidence nobody cites.
    for send in sends {
        if send.kind != spec.table.terminal && cited[send.id] == 0 {
            report.dead_routes.push(format!(
                "send `{}` ({}) justifies no downstream certificate (dead route)",
                send.id, send.kind
            ));
        }
    }

    // Same-round cycles: three-color DFS over the same-round subgraph
    // without its quorum counting, in deterministic (send-table) order.
    let order: Vec<&str> = sends.iter().map(|s| s.id).collect();
    let mut color: BTreeMap<&str, u8> = order.iter().map(|id| (*id, 0u8)).collect();
    let mut stack: Vec<&str> = Vec::new();
    for &start in &order {
        if color[start] == 0 {
            dfs_cycles(
                start,
                &forward_same,
                &mut color,
                &mut stack,
                &mut report.cycles,
            );
        }
    }

    report
}

fn dfs_cycles<'a>(
    node: &'a str,
    forward_same: &BTreeMap<&'a str, Vec<&'a str>>,
    color: &mut BTreeMap<&'a str, u8>,
    stack: &mut Vec<&'a str>,
    cycles: &mut Vec<String>,
) {
    color.insert(node, 1);
    stack.push(node);
    if let Some(next) = forward_same.get(node) {
        for &to in next {
            match color.get(to).copied().unwrap_or(2) {
                0 => dfs_cycles(to, forward_same, color, stack, cycles),
                1 => {
                    let from = stack.iter().position(|&n| n == to).unwrap_or(0);
                    let mut path: Vec<&str> = stack[from..].to_vec();
                    path.push(to);
                    cycles.push(format!(
                        "same-round justification cycle: {}",
                        path.join(" -> ")
                    ));
                }
                _ => {}
            }
        }
    }
    stack.pop();
    color.insert(node, 2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_certify::ProtocolId;
    use ftm_core::spec::Justification;

    #[test]
    fn transformed_lineage_is_fully_justified() {
        let report = check_lineage(&ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal));
        assert!(
            report.ok(),
            "dangling={:?} unjustified={:?} dead={:?} cycles={:?}",
            report.dangling,
            report.unjustified,
            report.dead_routes,
            report.cycles
        );
        assert!(!report.trusted);
        assert_eq!(report.roots, 1);
        assert!(report.edges >= 10, "got {} edges", report.edges);
    }

    #[test]
    fn crash_lineage_is_trusted_but_structurally_clean() {
        let report = check_lineage(&ProtocolSpec::crash_for(ProtocolId::HurfinRaynal));
        assert!(report.ok(), "{report:?}");
        assert!(report.trusted);
        assert_eq!(report.roots, 0);
    }

    #[test]
    fn checkpointed_specs_add_one_root_and_stay_justified() {
        for protocol in ftm_certify::ProtocolId::all() {
            let report = check_lineage(&ProtocolSpec::checkpointed_for(protocol));
            assert!(
                report.ok(),
                "{protocol}: dangling={:?} unjustified={:?} dead={:?} cycles={:?}",
                report.dangling,
                report.unjustified,
                report.dead_routes,
                report.cycles
            );
            // Vector certification plus the checkpoint-compaction root.
            assert_eq!(report.roots, 2, "{protocol}");
            let base = check_lineage(&ProtocolSpec::transformed_for(protocol));
            assert_eq!(report.sends, base.sends + 1, "{protocol}");
            assert_eq!(report.edges, base.edges + 1, "{protocol}");
        }
    }

    #[test]
    fn a_checkpoint_citing_nothing_leaves_the_decision_dead() {
        // The checkpoint must cite the decision whose quorum it compacts;
        // cutting that edge strands `decide-announce` (no longer the
        // terminal in a compacted log) as a dead route.
        let mut spec = ProtocolSpec::checkpointed_for(ftm_certify::ProtocolId::HurfinRaynal);
        spec.sends
            .iter_mut()
            .find(|s| s.id == "checkpoint-quorum")
            .unwrap()
            .justified_by
            .clear();
        let report = check_lineage(&spec);
        assert!(
            report
                .dead_routes
                .iter()
                .any(|s| s.contains("decide-announce")),
            "{:?}",
            report.dead_routes
        );
    }

    #[test]
    fn dropping_a_value_route_is_unjustified() {
        let mut spec = ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal);
        let relay = spec
            .sends
            .iter_mut()
            .find(|s| s.id == "current-relay")
            .unwrap();
        relay.justified_by.clear();
        let report = check_lineage(&spec);
        assert!(
            report
                .unjustified
                .iter()
                .any(|s| s.contains("current-relay")),
            "{:?}",
            report.unjustified
        );
    }

    #[test]
    fn a_same_round_cycle_is_reported_but_cross_round_backing_is_not() {
        // The legitimate graph already has cross-round "cycles" (NEXT of
        // round r−1 backs CURRENT of round r which backs NEXT of round r)
        // and quorum-counting ones (the NEXT rows count each other's
        // votes): those are well-founded and must NOT be reported. An
        // injected same-round back edge between kinds must be.
        let mut spec = ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal);
        assert!(check_lineage(&spec).cycles.is_empty());
        let coordinator = spec
            .sends
            .iter_mut()
            .find(|s| s.id == "current-coordinator")
            .unwrap();
        coordinator
            .justified_by
            .push(Justification::same("next-change-mind"));
        let report = check_lineage(&spec);
        assert!(
            report
                .cycles
                .iter()
                .any(|c| c.contains("current-coordinator")),
            "{:?}",
            report.cycles
        );
    }

    #[test]
    fn a_same_round_cycle_within_a_kind_that_ends_no_round_is_reported() {
        // Only round-ending votes count each other: a coordinator CURRENT
        // citing the relays that cite it justifies itself.
        let mut spec = ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal);
        let coordinator = spec
            .sends
            .iter_mut()
            .find(|s| s.id == "current-coordinator")
            .unwrap();
        coordinator
            .justified_by
            .push(Justification::same("current-relay"));
        let report = check_lineage(&spec);
        assert_eq!(
            report.cycles,
            [
                "same-round justification cycle: current-coordinator -> current-relay \
              -> current-coordinator"
            ],
        );
    }

    #[test]
    fn an_uncited_send_is_a_dead_route() {
        let mut spec = ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal);
        // Cut every citation of next-end-of-round.
        for send in &mut spec.sends {
            send.justified_by.retain(|j| j.by != "next-end-of-round");
        }
        let report = check_lineage(&spec);
        assert!(
            report
                .dead_routes
                .iter()
                .any(|s| s.contains("next-end-of-round")),
            "{:?}",
            report.dead_routes
        );
    }
}
