//! Problem specifications: Consensus and Vector Consensus.
//!
//! The crash-model protocol solves classical consensus:
//!
//! * **Termination** — every correct process eventually decides;
//! * **Agreement** — no two correct processes decide differently;
//! * **Validity** — the decided value was proposed by some process.
//!
//! In the arbitrary-failure model the classical Validity property is
//! vacuous — a faulty process can propose an "irrelevant" value while
//! otherwise behaving correctly, and nobody can tell (paper §1). The
//! transformed protocol therefore solves **Vector Consensus**
//! (Doudou–Schiper Vector Validity):
//!
//! * every process decides a vector `vect` of size `n`;
//! * for every correct `p_i`: `vect[i] = v_i` or `vect[i] = null`;
//! * at least `ψ ≥ 1` entries of `vect` are initial values of correct
//!   processes, with `ψ = n − 2F` under the paper's resilience bound.
//!
//! This module also holds the transformation *as data*:
//! [`ProtocolSpec::crash_for`] describes an un-transformed protocol
//! (Fig. 2 for Hurfin–Raynal), [`transform`] applies the paper's module
//! stack to it at the spec level, and [`ProtocolSpec::transformed_for`]
//! *is* that application. Both are read off the certification-rule table
//! ([`ftm_certify::rules`]): a send is a row, its condition and its
//! justification are the row's, and Fig. 3's send table is the crash
//! rows certified, with their round-0 evidence and [`VOCABULARY`] applied
//! — never written a second time.

use std::sync::OnceLock;

pub use ftm_certify::rules::EvidencePhase;
use ftm_certify::rules::{self, certification_rules_for, RuleInfo, Votes};
use ftm_certify::{MessageKind, ProtocolId, Round};
use ftm_detect::ProtocolTable;

/// How a conditional send is audited by the certification module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertRoute {
    /// The send's enabling condition is certifiable: the `ftm-certify`
    /// rule — held by value, a row of the analyzer's dispatch table —
    /// re-derives it from the attached certificate.
    Rule(&'static RuleInfo),
    /// The value itself cannot be certified (nobody can audit what a
    /// process's initial value "should" be); the round-0 vector
    /// certification phase bounds the damage instead. The rule still
    /// audits the send's *structure*.
    VectorCertification(&'static RuleInfo),
    /// No audit at all: the receiver trusts the sender. This is the crash
    /// model's discipline — benign processes never lie, so every send of
    /// an un-transformed spec is routed here. The transformation replaces
    /// every `Trusted` route with a certified one.
    Trusted,
    /// The send *compacts* prior evidence instead of citing it onward: the
    /// rule re-derives a quorum-signed digest of a decided slot from
    /// the attached decide-vote quorum. Like [`CertRoute::Rule`], the
    /// condition is fully certifiable — but in the lineage analysis the
    /// send is a new *justification root*: once a checkpoint stands, the
    /// per-round certificate prefix behind it may be discarded, so nothing
    /// downstream cites it and the chain legitimately ends here.
    CheckpointRoot(&'static RuleInfo),
}

impl CertRoute {
    /// The `ftm-certify` rule auditing this send, if any (`Trusted`
    /// routes are audited by nobody).
    pub fn rule(&self) -> Option<&'static RuleInfo> {
        match self {
            CertRoute::Rule(rule)
            | CertRoute::VectorCertification(rule)
            | CertRoute::CheckpointRoot(rule) => Some(rule),
            CertRoute::Trusted => None,
        }
    }

    /// The id of that rule, for reports.
    pub fn rule_id(&self) -> Option<&'static str> {
        self.rule().map(|rule| rule.id)
    }

    /// `true` when the enabling condition itself is certifiable.
    pub fn condition_certifiable(&self) -> bool {
        matches!(self, CertRoute::Rule(_) | CertRoute::CheckpointRoot(_))
    }
}

/// One edge of the justification graph: the send named `by` produced
/// (signed) messages that appear in this send's certificate — one cite of
/// a row's [`ftm_certify::rules::Edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Justification {
    /// The id of the conditional send whose output is cited as evidence.
    pub by: &'static str,
    /// When that evidence was produced relative to this send's round.
    pub phase: EvidencePhase,
    /// `true` when the evidence is the one vote of `by`, the round
    /// coordinator's, that the sender adopted the vector it sends from;
    /// `false` when it is the votes of `by` the sender counted.
    pub adopted: bool,
}

impl Justification {
    /// Same-round evidence from `by`.
    pub fn same(by: &'static str) -> Self {
        Justification {
            by,
            phase: EvidencePhase::SameRound,
            adopted: false,
        }
    }
}

/// `rule`'s edges as justification-graph edges, one per cited send.
fn justifications(rule: &RuleInfo) -> impl Iterator<Item = Justification> {
    rule.edges.iter().flat_map(|edge| {
        edge.cites.iter().map(move |cite| Justification {
            by: cite.by,
            phase: edge.phase,
            adopted: edge.votes != Votes::Quorum,
        })
    })
}

/// One conditional send of the protocol: a message a correct process emits
/// only when a stated condition holds (paper §5: every such condition needs
/// a certification rule, or the send is unauditable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConditionalSend {
    /// Stable identifier, matched against rule coverage reports.
    pub id: &'static str,
    /// The kind of message sent.
    pub kind: MessageKind,
    /// The enabling condition, as stated in the protocol figure.
    pub condition: String,
    /// The row of the certification-rule table this send is built from —
    /// the rule its route names once certified.
    pub rule: &'static RuleInfo,
    /// The certification route auditing the send.
    pub route: CertRoute,
    /// Whether the message body carries protocol *values* (estimates /
    /// vectors) as opposed to pure control structure.
    pub carries_value: bool,
    /// The sends whose (signed) output justifies this one: the row's edges,
    /// the shape of this send's certificate, which the transformed shell
    /// assembles by walking this list.
    pub justified_by: Vec<Justification>,
}

impl ConditionalSend {
    /// The send `rule` certifies, audited by `route(rule)`: id, kind,
    /// condition and justification are the row's — but for its round-0
    /// evidence under a trusted route, since the crash model has no vector
    /// certification to cite. Every kind carries a value but the pure
    /// control votes, NEXT and NACK.
    fn of(rule: &'static RuleInfo, route: fn(&'static RuleInfo) -> CertRoute) -> Self {
        let route = route(rule);
        let cited =
            |j: &Justification| route != CertRoute::Trusted || j.phase != EvidencePhase::Initial;
        ConditionalSend {
            id: rule.send,
            kind: rule.kind,
            condition: rule.condition.into(),
            rule,
            route,
            carries_value: !matches!(rule.kind, MessageKind::Next | MessageKind::Nack),
            justified_by: justifications(rule).filter(cited).collect(),
        }
    }
}

/// Declarative description of a protocol: its *send discipline* — which
/// kind (if any) opens a peer's lifetime, what a round's legal vote
/// sequence is, how rounds advance — and which conditional sends exist.
///
/// The discipline half is the protocol's [`ProtocolTable`], the very value
/// the per-peer observer automaton (Fig. 4) runs on: the paper builds the
/// non-muteness module "from the program text" (§4), so the observer is a
/// function of this description, not a second artifact to reconcile with
/// it.
///
/// # Example
///
/// ```
/// use ftm_core::spec::ProtocolSpec;
/// use ftm_certify::{MessageKind, ProtocolId};
/// let spec = ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal);
/// assert_eq!(spec.table.opening, Some(MessageKind::Init));
/// // NEXT is mandatory before leaving a round.
/// assert_eq!(spec.table.slots[1], (MessageKind::Next, true));
///
/// // The crash-model spec has no opening: nothing certifies round 0.
/// let crash = ProtocolSpec::crash_for(ProtocolId::HurfinRaynal);
/// assert_eq!(crash.table.opening, None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolSpec {
    /// The send discipline: protocol id, opening, per-round vote sequence,
    /// terminal and round advance. Everything protocol-specific (the §5
    /// rule table, the decision predicate) is keyed off its `protocol`.
    pub table: ProtocolTable,
    /// The conditional-send table: one send per row of the protocol's
    /// certification-rule table, in its order. Once transformed this is
    /// the §5 obligation table — every send audited by its row, and the
    /// *only* uncertifiable one the initial-value broadcast, routed
    /// through vector certification.
    pub sends: Vec<ConditionalSend>,
}

impl ProtocolSpec {
    /// The transformed spec for `protocol`: [`transform`] applied to
    /// [`ProtocolSpec::crash_for`]. Its table is
    /// [`ProtocolTable::for_protocol`] — the one the receive pipeline runs.
    /// `INIT` opens, `DECIDE` terminates, rounds advance one at a time;
    /// per round a peer sends, under
    ///
    /// * Hurfin–Raynal (Fig. 3): at most one `CURRENT`, then at most one
    ///   `NEXT` (mandatory before leaving the round, Fig. 3 line 31);
    /// * Chandra–Toueg: one mandatory `ESTIMATE` (carrying the adoption
    ///   timestamp), then at most one coordinator `PROPOSE`, one `ACK` and
    ///   one `NACK`.
    ///
    /// The two differ in a load-bearing way: CT's value-carrying echo
    /// (`ACK`) is justified by the round coordinator's *own signed*
    /// `PROPOSE` — a coordinator-echo discipline — where HR's `CURRENT`
    /// relay chain re-certifies the vector at every hop.
    pub fn transformed_for(protocol: ProtocolId) -> Self {
        transform(&ProtocolSpec::crash_for(protocol))
    }

    /// [`ProtocolSpec::transformed_for`], built once per protocol: the
    /// spec the transformed shell reads each send's justification from.
    pub(crate) fn transformed_once(protocol: ProtocolId) -> &'static Self {
        static SPECS: [OnceLock<ProtocolSpec>; 2] = [OnceLock::new(), OnceLock::new()];
        let cell = match protocol {
            ProtocolId::HurfinRaynal => &SPECS[0],
            ProtocolId::ChandraToueg => &SPECS[1],
        };
        cell.get_or_init(|| ProtocolSpec::transformed_for(protocol))
    }

    /// The un-transformed crash-model spec for `protocol`: a trusted send
    /// per row of its certification-rule table, in the table's order, but
    /// for the opening's, which vector certification adds.
    ///
    /// There is no opening kind (round 1 starts immediately — there is no
    /// history to certify) and `DECIDE` terminates. Every send is
    /// [`CertRoute::Trusted`]: receivers in the crash model believe what
    /// they are told, which is exactly why classical Validity is vacuous
    /// once failures become arbitrary. Per round a peer sends, under
    ///
    /// * Hurfin–Raynal (Fig. 2): at most one `CURRENT`, then at most one
    ///   `NEXT`;
    /// * Chandra–Toueg (the ◇S rotating-coordinator protocol): one
    ///   mandatory `ESTIMATE`, then at most one coordinator `PROPOSE`, one
    ///   `ACK` and one `NACK`.
    pub fn crash_for(protocol: ProtocolId) -> Self {
        let table = ProtocolTable::for_protocol(protocol);
        let rows = certification_rules_for(protocol).iter();
        ProtocolSpec {
            table: ProtocolTable {
                opening: None,
                ..*table
            },
            sends: rows
                .filter(|rule| Some(rule.kind) != table.opening)
                .map(|rule| ConditionalSend::of(rule, |_| CertRoute::Trusted))
                .collect(),
        }
    }

    /// The transformed spec of `protocol` extended with the replicated
    /// log's certificate-compaction send: once a slot's decision stands,
    /// a `CHECKPOINT` backed by the decide-vote quorum (rule
    /// `checkpoint-quorum`, shared by both protocols) seals the slot, and
    /// the per-round certificate prefix behind it may be discarded.
    ///
    /// The terminal becomes `CHECKPOINT` — in a compacted log the
    /// checkpoint, not the decision announcement, is a peer's last word
    /// on a slot. The checkpoint cites `decide-announce` (its certificate
    /// *is* the quorum the decision rests on), so the base spec's decide
    /// send stays live in the lineage analysis, while the checkpoint
    /// itself is a new justification root
    /// (see [`CertRoute::CheckpointRoot`]).
    pub fn checkpointed_for(protocol: ProtocolId) -> Self {
        let mut spec = ProtocolSpec::transformed_for(protocol);
        spec.table.terminal = MessageKind::Checkpoint;
        let checkpoint = ConditionalSend::of(&rules::CHECKPOINT_RULE, CertRoute::CheckpointRoot);
        spec.sends.push(checkpoint);
        spec
    }

    /// The send with the given id, if any.
    pub fn send(&self, id: &str) -> Option<&ConditionalSend> {
        self.sends.iter().find(|s| s.id == id)
    }
}

/// The vocabulary substitutions the module stack performs on send
/// conditions, applied left to right:
///
/// * module 2 replaces the crash detector with the muteness detector ◇M;
/// * module 4 replaces crash majorities (`⌈(n+1)/2⌉`) with certificate
///   quorums (`n − F`);
/// * module 5 replaces bare values with certified estimate vectors.
pub const VOCABULARY: &[(&str, &str)] = &[
    ("crash detector", "muteness detector"),
    ("majority", "quorum"),
    ("its estimate", "a witnessed estimate vector"),
    ("one value", "one vector"),
];

/// Applies the paper's module stack to an un-transformed spec, producing
/// the Byzantine-resilient spec mechanically:
///
/// 1. **Vector certification (module 5)** adds the `INIT` opening and the
///    `init-broadcast` send — initial values become a certified vector —
///    and re-roots the value lineage: every send whose row cites the INIT
///    witnesses of its vector gains that round-0 backing back. The others
///    reach the root through what they cite: CT's `ACK` echoes the
///    coordinator's signed `PROPOSE`, and the terminal relays a
///    quorum-backed vector.
/// 2. **Certification (module 4)** replaces every [`CertRoute::Trusted`]
///    route with [`CertRoute::Rule`] of the row the send is built from.
/// 3. Both modules rewrite the condition wording through [`VOCABULARY`]
///    (crash detector → muteness detector, majority → quorum,
///    values → certified vectors).
///
/// The round discipline itself (slots, mandatory flags, advance) is
/// untouched (`..spec.table`): the transformation adds auditability, not
/// new protocol structure, and the opening it adds is inert outside the
/// observer's `start` phase — so every compliant crash trace, with `INIT`
/// prepended, is a compliant transformed trace by construction.
///
/// # Panics
///
/// Panics when `spec` already has an opening (it is already transformed),
/// a configuration error, not a runtime condition.
pub fn transform(spec: &ProtocolSpec) -> ProtocolSpec {
    assert!(
        spec.table.opening.is_none(),
        "transform() takes an un-transformed spec; this one already opens with {:?}",
        spec.table.opening
    );

    let reword = |condition: &str| -> String {
        let mut out = condition.to_string();
        for (from, to) in VOCABULARY {
            out = out.replace(from, to);
        }
        out
    };

    let opening = ConditionalSend::of(&rules::INIT_EMPTY, CertRoute::VectorCertification);
    let certified = spec.sends.iter().map(|send| {
        let initial = justifications(send.rule).filter(|j| j.phase == EvidencePhase::Initial);
        ConditionalSend {
            condition: reword(&send.condition),
            route: CertRoute::Rule(send.rule),
            justified_by: initial.chain(send.justified_by.iter().copied()).collect(),
            ..send.clone()
        }
    });

    ProtocolSpec {
        table: ProtocolTable {
            opening: Some(MessageKind::Init),
            ..spec.table
        },
        sends: std::iter::once(opening).chain(certified).collect(),
    }
}

/// Resilience parameters of a system instance.
///
/// # Example
///
/// ```
/// use ftm_core::spec::Resilience;
/// let r = Resilience::new(7, 2);
/// assert_eq!(r.quorum(), 5);       // n − F
/// assert_eq!(r.psi(), 3);          // n − 2F correct entries guaranteed
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resilience {
    n: usize,
    f: usize,
}

impl Resilience {
    /// Creates resilience parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 2` and `f ≤ ⌊(n−1)/2⌋`, the crash protocols'
    /// bound. The transformed protocols admit only `f ≤ C = ⌊(n−1)/3⌋`,
    /// the certification capacity: `ftm_certify::CertChecker::new_for`
    /// refuses more, and every transformed process builds one.
    pub fn new(n: usize, f: usize) -> Self {
        assert!(n >= 2, "consensus needs at least two processes");
        assert!(
            f <= crate::quorum::max_faults(n),
            "F = {f} exceeds ⌊(n−1)/2⌋ = {}",
            crate::quorum::max_faults(n)
        );
        Resilience { n, f }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tolerated faulty processes `F`.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Quorum `n − F` (replaces the crash model's majority `⌈(n+1)/2⌉`).
    pub fn quorum(&self) -> usize {
        crate::quorum::quorum_size(self.n, self.f)
    }

    /// Guaranteed correct entries in a decided vector: `ψ = n − 2F ≥ 1`.
    pub fn psi(&self) -> usize {
        crate::quorum::vector_validity_floor(self.n, self.f)
    }

    /// The round-`r` coordinator (0-based rotating coordinator).
    ///
    /// # Panics
    ///
    /// Panics for round 0.
    pub fn coordinator(&self, round: Round) -> usize {
        crate::quorum::coordinator(self.n, round)
    }

    /// Majority threshold of the *crash* protocol: smallest count strictly
    /// greater than `n/2`.
    pub fn crash_majority(&self) -> usize {
        self.n / 2 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_psi_majority() {
        let r = Resilience::new(4, 1);
        assert_eq!(r.quorum(), 3);
        assert_eq!(r.psi(), 2);
        assert_eq!(r.crash_majority(), 3);
    }

    #[test]
    fn psi_is_at_least_one() {
        let r = Resilience::new(3, 1);
        assert_eq!(r.psi(), 1);
    }

    #[test]
    fn coordinator_rotates_zero_based() {
        let r = Resilience::new(3, 1);
        assert_eq!(r.coordinator(1), 0);
        assert_eq!(r.coordinator(3), 2);
        assert_eq!(r.coordinator(4), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn bound_is_enforced() {
        let _ = Resilience::new(4, 2);
    }

    #[test]
    fn odd_n_allows_floor_half() {
        let r = Resilience::new(7, 3);
        assert_eq!(r.quorum(), 4);
        assert_eq!(r.psi(), 1);
    }

    #[test]
    fn transformed_spec_names_every_wire_kind_once() {
        let table = ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal).table;
        assert_eq!(table.opening, Some(MessageKind::Init));
        assert_eq!(table.terminal, MessageKind::Decide);
        assert_eq!(table.slot_of(MessageKind::Current), Some(0));
        assert_eq!(table.slot_of(MessageKind::Next), Some(1));
        assert_eq!(table.slot_of(MessageKind::Init), None);
        // The opening and terminal kinds never appear as round slots.
        assert!(table
            .slots
            .iter()
            .all(|(kind, _)| Some(*kind) != table.opening && *kind != table.terminal));
        // The last slot is the mandatory one: leaving a round is witnessed.
        assert!(table.slots.last().unwrap().1);
    }

    #[test]
    fn conditional_sends_are_distinct_and_init_is_the_only_uncertifiable() {
        for p in ProtocolId::all() {
            let spec = ProtocolSpec::transformed_for(p);
            let sends = &spec.sends;
            let ids: std::collections::BTreeSet<&str> = sends.iter().map(|s| s.id).collect();
            assert_eq!(ids.len(), sends.len(), "{p}: send ids collide");
            let rules: std::collections::BTreeSet<&str> =
                sends.iter().filter_map(|s| s.route.rule_id()).collect();
            assert_eq!(rules.len(), sends.len(), "{p}: rule references collide");
            for s in sends {
                if !s.route.condition_certifiable() {
                    assert_eq!(
                        Some(s.kind),
                        spec.table.opening,
                        "{p}: only initial values are uncertifiable"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "already opens")]
    fn transforming_twice_is_rejected() {
        let _ = transform(&ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal));
    }

    #[test]
    fn ct_transformed_spec_names_every_wire_kind_once() {
        let table = ProtocolSpec::transformed_for(ProtocolId::ChandraToueg).table;
        assert_eq!(table.protocol, ProtocolId::ChandraToueg);
        assert_eq!(table.opening, Some(MessageKind::Init));
        assert_eq!(table.terminal, MessageKind::Decide);
        assert_eq!(table.slot_of(MessageKind::Estimate), Some(0));
        assert_eq!(table.slot_of(MessageKind::Propose), Some(1));
        assert_eq!(table.slot_of(MessageKind::Ack), Some(2));
        assert_eq!(table.slot_of(MessageKind::Nack), Some(3));
        assert!(table
            .slots
            .iter()
            .all(|(kind, _)| Some(*kind) != table.opening && *kind != table.terminal));
        // CT's mandatory slot is the *first* one: every round opens with
        // an ESTIMATE re-broadcast, the coordinator-echo tail is optional.
        assert!(table.slots[0].1);
        assert!(table.slots[1..].iter().all(|(_, mandatory)| !mandatory));
    }

    #[test]
    fn the_transformed_table_is_the_one_the_runtime_observer_runs() {
        for p in ProtocolId::all() {
            let crash = ProtocolSpec::crash_for(p);
            let spec = ProtocolSpec::transformed_for(p);
            assert_eq!(spec.table, *ProtocolTable::for_protocol(p));
            // `transform` touches the opening and nothing else of the table…
            assert_eq!(crash.table.opening, None);
            assert_eq!(
                ProtocolTable {
                    opening: None,
                    ..spec.table
                },
                crash.table
            );
            // …adds the one opening send, and leaves nothing trusted.
            assert!(crash.sends.iter().all(|s| s.route == CertRoute::Trusted));
            assert!(spec.sends.iter().all(|s| s.route != CertRoute::Trusted));
            assert_eq!(crash.sends.len() + 1, spec.sends.len());
        }
    }

    /// `id kind rule [phase[-adopted]:by …]` per send: the structure `transform`
    /// derives, without the prose conditions.
    fn rows(spec: &ProtocolSpec) -> Vec<String> {
        spec.sends
            .iter()
            .map(|s| {
                let by: Vec<String> = s
                    .justified_by
                    .iter()
                    .map(|j| {
                        let adopted = if j.adopted { "-adopted" } else { "" };
                        format!("{}{adopted}:{}", j.phase.label(), j.by)
                    })
                    .collect();
                let rule = s.route.rule_id().unwrap_or("-");
                format!("{} {} {rule} [{}]", s.id, s.kind, by.join(" "))
            })
            .collect()
    }

    #[test]
    fn the_derived_rows_of_both_protocols_are_pinned() {
        // Fig. 3's send table as `transform` computes it from the rule
        // table: a change to `transform` or a row fails here with the row
        // it moved.
        assert_eq!(
            rows(&ProtocolSpec::transformed_for(ProtocolId::HurfinRaynal)),
            [
                "init-broadcast INIT init-empty []",
                "current-coordinator CURRENT current-coordinator [initial:init-broadcast \
                 prev-round:next-suspicion prev-round:next-change-mind \
                 prev-round:next-end-of-round]",
                "current-relay CURRENT current-relay [initial:init-broadcast \
                 same-round-adopted:current-coordinator]",
                "next-end-of-round NEXT next-end-of-round [same-round:next-suspicion \
                 same-round:next-change-mind same-round:next-end-of-round]",
                "next-change-mind NEXT next-change-mind [same-round:current-coordinator \
                 same-round:current-relay same-round:next-suspicion same-round:next-change-mind \
                 same-round:next-end-of-round]",
                "next-suspicion NEXT next-suspicion [prev-round:next-suspicion \
                 prev-round:next-change-mind prev-round:next-end-of-round]",
                "decide-announce DECIDE decide-current-quorum [same-round:current-coordinator \
                 same-round:current-relay]",
            ]
        );
        assert_eq!(
            rows(&ProtocolSpec::transformed_for(ProtocolId::ChandraToueg)),
            [
                "init-broadcast INIT init-empty []",
                "estimate-roundstart ESTIMATE estimate-roundstart [initial:init-broadcast \
                 prev-round:ack-echo prev-round:nack-suspicion \
                 prev-round-adopted:propose-coordinator]",
                "propose-coordinator PROPOSE propose-coordinator [initial:init-broadcast \
                 same-round:estimate-roundstart]",
                "ack-echo ACK ack-echo [same-round-adopted:propose-coordinator]",
                "nack-suspicion NACK nack-suspicion []",
                "decide-announce DECIDE decide-ack-quorum [same-round:ack-echo]",
            ]
        );
    }
}
