//! The certificate analyzer: well-formedness rules from paper §5.1.
//!
//! For every message kind the paper defines when its certificate is
//! *well-formed* with respect to the value it carries and the condition
//! that enabled its send. Those rules are the rows of the
//! [`crate::rules`] table, the same rows the sender builds its
//! certificates from; [`CertChecker`] reads them through one interpreter,
//! reached only through [`CertChecker::rule_for`]'s walk over the table.
//! What stays hand-written here is what the table names as such: the
//! INIT witnesses of a vector ([`CertChecker::init_portion_well_formed`]),
//! the checkpoint digest comparison, and the syntax and signature passes.
//!
//! One deliberate departure from the figure: `DECIDE(r, vect)` demands
//! ≥ `n−F` signed `CURRENT(r, vect)` from distinct senders. That is
//! §5.1's rule; Fig. 3 line 21 writes `est_cert`, which would be
//! forgeable — see DESIGN.md.
//!
//! Every rule first re-verifies the signature of every certificate item:
//! this is what makes the certification module *reliable* — no process can
//! fabricate or tamper with certificate contents without being detected.

// D7 (DESIGN.md §13): a truncated count is silently a wrong threshold.
#![deny(clippy::cast_possible_truncation)]

use ftm_crypto::keydir::KeyDirectory;
use ftm_sim::ProcessId;

use crate::certificate::{distinct_senders, Certificate};
use crate::certified::Certified;
use crate::checkpoint::{checkpoint_digest, decide_vote_groups};
use crate::error::{CertifyError, FaultClass};
use crate::message::{Core, ProtocolId, Round, ValueVector};
use crate::rules::{
    certification_rules_for, Checked, Clause, Edge, EvidencePhase, Relation, RuleInfo, Select,
    Votes, CHECKPOINT_RULE,
};
use crate::signed::{Envelope, SignedCore};

/// Validates certificates against the transformed protocol's rules.
///
/// # Example
///
/// ```
/// use ftm_certify::analyzer::CertChecker;
/// use ftm_crypto::keydir::KeyDirectory;
///
/// let mut rng = ftm_crypto::rng_from_seed(2);
/// let (dir, _keys) = KeyDirectory::generate(&mut rng, 4, 128);
/// let checker = CertChecker::new(4, 1, dir);
/// assert_eq!(checker.quorum(), 3); // n − F
/// ```
#[derive(Debug, Clone)]
pub struct CertChecker {
    n: usize,
    f: usize,
    dir: KeyDirectory,
    protocol: ProtocolId,
}

impl CertChecker {
    /// Creates a checker for `n` processes tolerating `f` faults,
    /// enforcing the Hurfin–Raynal rule table (see
    /// [`CertChecker::new_for`] for other protocols).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ n` and `f ≤ ⌊(n−1)/2⌋` (the paper's resilience
    /// bound; beyond it quorums of size `n−F` stop intersecting in a
    /// correct process).
    pub fn new(n: usize, f: usize, dir: KeyDirectory) -> Self {
        CertChecker::new_for(ProtocolId::HurfinRaynal, n, f, dir)
    }

    /// Creates a checker enforcing the rule table of `protocol`.
    ///
    /// # Panics
    ///
    /// Same bounds as [`CertChecker::new`].
    pub fn new_for(protocol: ProtocolId, n: usize, f: usize, dir: KeyDirectory) -> Self {
        assert!(n >= 1, "need at least one process");
        assert!(
            f <= ftm_quorum::max_faults(n),
            "F = {f} exceeds the resilience bound ⌊(n−1)/2⌋ = {}",
            ftm_quorum::max_faults(n)
        );
        CertChecker {
            n,
            f,
            dir,
            protocol,
        }
    }

    /// The protocol whose rule table this checker enforces.
    pub fn protocol(&self) -> ProtocolId {
        self.protocol
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Quorum size `n − F` used by every cardinality test.
    pub fn quorum(&self) -> usize {
        ftm_quorum::quorum_size(self.n, self.f)
    }

    /// The key directory signatures are verified against.
    pub fn dir(&self) -> &KeyDirectory {
        &self.dir
    }

    /// The round-`r` coordinator under the rotating-coordinator paradigm
    /// ([`ftm_quorum::coordinator`]).
    ///
    /// # Panics
    ///
    /// Panics for round 0 (the vector-certification phase has none).
    pub fn coordinator(&self, round: Round) -> ProcessId {
        // The index is below a process count, so the conversion cannot
        // fail in practice; fail closed to an id no peer holds rather than
        // truncating (D7: no `as` narrowing in thresholds).
        let index = ftm_quorum::coordinator(self.n, round);
        ProcessId(u32::try_from(index).unwrap_or(u32::MAX))
    }

    /// Full validation entry point: head signature, syntax, then the
    /// certification module ([`CertChecker::certify`]) — an envelope that
    /// clears all three comes back as a [`Certified`].
    ///
    /// # Errors
    ///
    /// The first rule violation found, classified per [`FaultClass`]. The
    /// culprit is always the envelope's claimed sender (inner signatures
    /// identify tampering *by the sender*, since honest processes never
    /// forward unverifiable items).
    pub fn check_envelope<'a>(&self, env: &'a Envelope) -> Result<Certified<'a>, CertifyError> {
        env.signed.verify(&self.dir)?;
        self.check_syntax(env)?;
        self.certify(env, true)
    }

    /// Syntactic validity: vector widths match `n`, rounds are ≥ 1 where a
    /// coordinator exists.
    pub fn check_syntax(&self, env: &Envelope) -> Result<(), CertifyError> {
        let culprit = env.sender();
        let bad = |reason| Err(CertifyError::new(culprit, FaultClass::WrongSyntax, reason));
        if env.sender().index() >= self.n {
            return bad("sender id out of range");
        }
        match env.core() {
            // A checkpoint's digest is fixed-width by construction and its
            // slot is unconstrained here; the quorum rule does the auditing.
            Core::Init { .. } | Core::Checkpoint { .. } => Ok(()),
            Core::Current { round, vector }
            | Core::Decide { round, vector }
            | Core::Estimate { round, vector, .. }
            | Core::Propose { round, vector }
            | Core::Ack { round, vector } => {
                if *round < 1 {
                    return bad("round 0 carries no votes");
                }
                if vector.len() != self.n {
                    return bad("estimate vector has wrong width");
                }
                if let Core::Estimate { ts, .. } = env.core() {
                    if *ts >= *round {
                        return bad("estimate timestamp is not from an earlier round");
                    }
                }
                Ok(())
            }
            Core::Next { round } | Core::Nack { round } => {
                if *round < 1 {
                    return bad("round 0 carries no votes");
                }
                Ok(())
            }
        }
    }

    /// Re-verifies the signature of every certificate item.
    pub fn check_cert_signatures(&self, env: &Envelope) -> Result<(), CertifyError> {
        for item in env.cert.iter() {
            if item.verify(&self.dir).is_err() {
                return Err(bad_cert(
                    env,
                    "certificate contains an item with an invalid signature",
                ));
            }
        }
        Ok(())
    }

    /// The row of this checker's table whose send condition `env`
    /// satisfies: the rows of [`certification_rules_for`] the checker's
    /// protocol, then the shared checkpoint row, tried in order among
    /// those auditing the envelope's kind. This walk is the only path to
    /// a row. Signatures and syntax are the caller's.
    ///
    /// # Errors
    ///
    /// The violation the matching row found; or, for a kind no row of this
    /// protocol audits (the other protocol's vote kinds), a
    /// `bad-certificate` conviction of the sender.
    pub fn rule_for(&self, env: &Envelope) -> Result<&'static RuleInfo, CertifyError> {
        let rows = certification_rules_for(self.protocol)
            .iter()
            .copied()
            .chain([&CHECKPOINT_RULE]);
        for rule in rows.filter(|rule| rule.kind == env.kind()) {
            if self.check_row(rule, env)? {
                return Ok(rule);
            }
        }
        Err(bad_cert(
            env,
            "no certification rule of this protocol audits the message kind",
        ))
    }

    /// The interpreter of the table: `Ok(true)` when `env` satisfies
    /// `row`'s send condition, `Ok(false)` for "not this row, try the
    /// next", `Err` for a violation. The clause comes first, then the
    /// selector, then the edges the row checks: the vector's INIT
    /// witnesses, then the one-vote edges, then the quorums.
    fn check_row(&self, row: &RuleInfo, env: &Envelope) -> Result<bool, CertifyError> {
        let broken = match row.clause {
            Clause::None => None,
            Clause::Empty(reason) => (!env.cert.is_empty()).then_some(reason),
            Clause::NoFutureItems(reason) => {
                let future = env.cert.iter().any(|item| item.round() > env.round());
                future.then_some(reason)
            }
        };
        if let Some(reason) = broken {
            return Err(bad_cert(env, reason));
        }
        let not_this_row = || {
            row.reject
                .map_or(Ok(false), |reason| Err(bad_cert(env, reason)))
        };
        if !self.selects(row.select, env) {
            return not_this_row();
        }
        for pass in 0..3 {
            for edge in row.edges.iter().filter(|edge| check_pass(edge) == pass) {
                match edge.checked {
                    Checked::InitWitnesses => {
                        if let Some(vector) = env.core().vector() {
                            self.init_portion_well_formed(&env.cert, vector, env.sender())?;
                        }
                    }
                    Checked::CheckpointDigest => self.checkpoint_digest_matches(env)?,
                    Checked::Selects if !self.evidence_holds(edge, env) => return not_this_row(),
                    Checked::Requires(reason) if !self.evidence_holds(edge, env) => {
                        return Err(bad_cert(env, reason));
                    }
                    Checked::Selects | Checked::Requires(_) | Checked::OnRoundEntry => {}
                }
                if let Relation::MaxTimestamp(reason) = edge.value {
                    if !adopts_a_maximum_timestamp(edge, env) {
                        return Err(bad_cert(env, reason));
                    }
                }
            }
        }
        Ok(true)
    }

    /// Whether `select` picks `env`'s row.
    fn selects(&self, select: Select, env: &Envelope) -> bool {
        let round = env.round();
        match select {
            Select::Any => true,
            Select::Coordinator => env.sender() == self.coordinator(round),
            Select::NotCoordinator => env.sender() != self.coordinator(round),
            Select::NoVotes(kind) => env.cert.count_senders(&[kind], round) == 0,
            Select::SomeVotes(kind) => {
                (1..self.quorum()).contains(&env.cert.count_senders(&[kind], round))
            }
        }
    }

    /// Whether `env`'s certificate holds the votes `edge` counts.
    fn evidence_holds(&self, edge: &Edge, env: &Envelope) -> bool {
        let round = env.round();
        let from = |voter: ProcessId, at: Round| {
            let counts = counted(edge, env, at);
            env.cert
                .iter()
                .any(|item| item.sender() == voter && counts(item))
        };
        match edge.votes {
            Votes::Coordinator => from(self.coordinator(round), round),
            Votes::TsCoordinator => match env.core() {
                Core::Estimate { ts, .. } if *ts > 0 => from(self.coordinator(*ts), *ts),
                _ => true,
            },
            Votes::Quorum => {
                let at = match edge.phase {
                    EvidencePhase::PrevRound if round <= 1 => return true,
                    EvidencePhase::PrevRound => round - 1,
                    EvidencePhase::Initial => 0,
                    EvidencePhase::SameRound => round,
                };
                distinct_senders(env.cert.iter(), counted(edge, env, at)) >= self.quorum()
            }
        }
    }

    /// "est_cert is well-formed with respect to vect": every non-null entry
    /// of `vect` is witnessed by a signed INIT, and at least `n−F` entries
    /// are witnessed (paper §5.1, initial values). Hand-written: the
    /// table's [`Checked::InitWitnesses`], also vector certification's own
    /// check ([`crate::vector`]).
    pub fn init_portion_well_formed(
        &self,
        cert: &Certificate,
        vector: &ValueVector,
        culprit: ProcessId,
    ) -> Result<(), CertifyError> {
        if vector.non_null_count() < self.quorum() {
            return Err(CertifyError::new(
                culprit,
                FaultClass::BadCertificate,
                "estimate vector has fewer than n−F entries",
            ));
        }
        for (k, v) in vector.iter_set() {
            let witnessed = cert.iter().any(|item| {
                item.sender().index() == k
                    && matches!(&item.core().core, Core::Init { value } if *value == v)
            });
            if !witnessed {
                return Err(CertifyError::new(
                    culprit,
                    FaultClass::BadCertificate,
                    "vector entry not witnessed by a signed INIT",
                ));
            }
        }
        Ok(())
    }

    /// The checkpoint digest comparison, hand-written (the table's
    /// [`Checked::CheckpointDigest`]): the certificate must contain `n−F`
    /// distinct signed decide-votes (`CURRENT` under Hurfin–Raynal, `ACK`
    /// under Chandra–Toueg) over a single round and a single vector whose
    /// [`checkpoint_digest`] equals the digest the checkpoint claims. A
    /// quorum over a *different* vector is a forged digest; no quorum at
    /// all is a sub-quorum checkpoint — both are `bad-certificate`
    /// convictions of the sender.
    fn checkpoint_digest_matches(&self, env: &Envelope) -> Result<(), CertifyError> {
        let lacks = "checkpoint lacks n−F signed decide-votes over a single vector";
        let Core::Checkpoint { slot, digest } = env.core() else {
            return Err(bad_cert(env, lacks));
        };
        let mut quorum_seen = false;
        for ((_round, vector), senders) in decide_vote_groups(self.protocol, &env.cert) {
            if senders.len() < self.quorum() {
                continue;
            }
            quorum_seen = true;
            if checkpoint_digest(self.protocol, *slot, vector) == *digest {
                return Ok(());
            }
        }
        Err(bad_cert(
            env,
            if quorum_seen {
                "checkpoint digest does not match the vector its quorum certifies"
            } else {
                lacks
            },
        ))
    }
}

/// The pass in which a row checks `edge`: the vector's INIT witnesses
/// first, then one-vote lookups, then counts.
fn check_pass(edge: &Edge) -> u8 {
    match (edge.checked, edge.votes) {
        (Checked::InitWitnesses, _) => 0,
        (_, Votes::Coordinator | Votes::TsCoordinator) => 1,
        (_, Votes::Quorum) => 2,
    }
}

/// Which items are votes `edge` counts at round `at`: a cited kind, and
/// the envelope's vector where the edge relates values.
fn counted<'a>(edge: &'a Edge, env: &'a Envelope, at: Round) -> impl Fn(&SignedCore) -> bool + 'a {
    let same_vector = matches!(edge.value, Relation::SameVector);
    let vector = env.core().vector();
    move |item| {
        item.round() == at
            && edge.cites.iter().any(|cite| cite.kind == item.kind())
            && (!same_vector || item.core().core.vector() == vector)
    }
}

/// CT's adoption rule: `env`'s vector is the vector of a maximum-timestamp
/// ESTIMATE among the round's votes `edge` counts.
fn adopts_a_maximum_timestamp(edge: &Edge, env: &Envelope) -> bool {
    let ts_of = |item: &SignedCore| match &item.core().core {
        Core::Estimate { ts, .. } => Some(*ts),
        _ => None,
    };
    let counts = counted(edge, env, env.round());
    let votes = || env.cert.iter().filter(|item| counts(item));
    let max_ts = votes().filter_map(ts_of).max().unwrap_or(0);
    votes()
        .any(|item| ts_of(item) == Some(max_ts) && item.core().core.vector() == env.core().vector())
}

/// A `bad-certificate` conviction of `env`'s sender.
fn bad_cert(env: &Envelope, reason: &'static str) -> CertifyError {
    CertifyError::new(env.sender(), FaultClass::BadCertificate, reason)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::decide_vote_kind;
    use crate::message::{MessageCore, MessageKind};
    use ftm_crypto::keydir::KeyDirectory;
    use ftm_crypto::rsa::KeyPair;
    use ftm_crypto::wire::CanonicalEncode;

    const N: usize = 4;
    const F: usize = 1;

    struct Fixture {
        checker: CertChecker,
        keys: Vec<KeyPair>,
    }

    fn fixture() -> Fixture {
        let mut rng = ftm_crypto::rng_from_seed(41);
        let (dir, keys) = KeyDirectory::generate(&mut rng, N, 128);
        Fixture {
            checker: CertChecker::new(N, F, dir),
            keys,
        }
    }

    fn signed(f: &Fixture, sender: u32, core: Core) -> SignedCore {
        SignedCore::sign(
            MessageCore::new(ProcessId(sender), core),
            &f.keys[sender as usize],
        )
    }

    /// INIT items from p0..p2 (a quorum of 3) with value = 10 + sender.
    fn init_quorum(f: &Fixture) -> Certificate {
        Certificate::from_items((0..3u32).map(|s| {
            signed(
                f,
                s,
                Core::Init {
                    value: 10 + s as u64,
                },
            )
        }))
    }

    /// The vector those INITs witness.
    fn witnessed_vector() -> ValueVector {
        ValueVector::from_entries(vec![Some(10), Some(11), Some(12), None])
    }

    fn next_quorum(f: &Fixture, round: Round) -> Certificate {
        Certificate::from_items((0..3u32).map(|s| signed(f, s, Core::Next { round })))
    }

    #[test]
    fn coordinator_rotates() {
        let f = fixture();
        assert_eq!(f.checker.coordinator(1), ProcessId(0));
        assert_eq!(f.checker.coordinator(4), ProcessId(3));
        assert_eq!(f.checker.coordinator(5), ProcessId(0));
    }

    #[test]
    #[should_panic(expected = "resilience bound")]
    fn excessive_f_rejected() {
        let f = fixture();
        let _ = CertChecker::new(4, 2, f.checker.dir.clone());
    }

    #[test]
    fn valid_init_passes() {
        let f = fixture();
        let env = Envelope::make(
            ProcessId(1),
            Core::Init { value: 11 },
            Certificate::new(),
            &f.keys[1],
        );
        assert!(f.checker.check_envelope(&env).is_ok());
    }

    #[test]
    fn init_with_certificate_is_rejected() {
        let f = fixture();
        let env = Envelope::make(
            ProcessId(1),
            Core::Init { value: 11 },
            next_quorum(&f, 1),
            &f.keys[1],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert_eq!(err.class, FaultClass::BadCertificate);
    }

    #[test]
    fn forged_outer_signature_is_caught() {
        let f = fixture();
        // p2 signs but claims to be p1.
        let env = Envelope::make(
            ProcessId(1),
            Core::Init { value: 11 },
            Certificate::new(),
            &f.keys[2],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert_eq!(err.class, FaultClass::BadSignature);
        assert_eq!(err.culprit, ProcessId(1));
    }

    #[test]
    fn coordinator_current_round1_valid() {
        let f = fixture();
        let env = Envelope::make(
            ProcessId(0), // coordinator of round 1
            Core::Current {
                round: 1,
                vector: witnessed_vector(),
            },
            init_quorum(&f),
            &f.keys[0],
        );
        assert!(f.checker.check_envelope(&env).is_ok());
    }

    #[test]
    fn coordinator_current_with_unwitnessed_entry_rejected() {
        let f = fixture();
        let mut vect = witnessed_vector();
        vect.set(3, 999); // no INIT from p3 in the certificate
        let env = Envelope::make(
            ProcessId(0),
            Core::Current {
                round: 1,
                vector: vect,
            },
            init_quorum(&f),
            &f.keys[0],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert_eq!(err.class, FaultClass::BadCertificate);
        assert_eq!(err.reason, "vector entry not witnessed by a signed INIT");
    }

    #[test]
    fn coordinator_current_with_corrupted_value_rejected() {
        let f = fixture();
        let mut vect = witnessed_vector();
        vect.set(1, 999); // p1's INIT said 11
        let env = Envelope::make(
            ProcessId(0),
            Core::Current {
                round: 1,
                vector: vect,
            },
            init_quorum(&f),
            &f.keys[0],
        );
        assert!(f.checker.check_envelope(&env).is_err());
    }

    #[test]
    fn coordinator_round2_needs_next_quorum() {
        let f = fixture();
        let vect = witnessed_vector();
        // Round 2's coordinator is p1. Without NEXT(1) quorum: rejected.
        let env = Envelope::make(
            ProcessId(1),
            Core::Current {
                round: 2,
                vector: vect.clone(),
            },
            init_quorum(&f),
            &f.keys[1],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert!(err.reason.contains("round entry"));
        // With the quorum: accepted.
        let env = Envelope::make(
            ProcessId(1),
            Core::Current {
                round: 2,
                vector: vect,
            },
            init_quorum(&f).union(&next_quorum(&f, 1)),
            &f.keys[1],
        );
        assert!(f.checker.check_envelope(&env).is_ok());
    }

    #[test]
    fn relayed_current_requires_coordinator_backing() {
        let f = fixture();
        let vect = witnessed_vector();
        let coord_current = signed(
            &f,
            0,
            Core::Current {
                round: 1,
                vector: vect.clone(),
            },
        );
        // p2 relays with the coordinator's CURRENT + INIT backing: valid.
        let mut cert = init_quorum(&f);
        cert.insert(coord_current);
        let env = Envelope::make(
            ProcessId(2),
            Core::Current {
                round: 1,
                vector: vect.clone(),
            },
            cert,
            &f.keys[2],
        );
        assert!(f.checker.check_envelope(&env).is_ok());
        // Without the coordinator's CURRENT: substituted message, rejected.
        let env = Envelope::make(
            ProcessId(2),
            Core::Current {
                round: 1,
                vector: vect,
            },
            init_quorum(&f),
            &f.keys[2],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert!(err.reason.contains("coordinator"));
    }

    #[test]
    fn relayed_current_with_substituted_vector_rejected() {
        let f = fixture();
        let vect = witnessed_vector();
        let coord_current = signed(
            &f,
            0,
            Core::Current {
                round: 1,
                vector: vect,
            },
        );
        // p2 relays a DIFFERENT (still witnessed) vector than the
        // coordinator proposed: entry 2 dropped to null.
        let substituted = ValueVector::from_entries(vec![Some(10), Some(11), None, None]);
        let mut cert = init_quorum(&f);
        cert.insert(coord_current);
        let env = Envelope::make(
            ProcessId(2),
            Core::Current {
                round: 1,
                vector: substituted,
            },
            cert,
            &f.keys[2],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        // Vector has only 2 non-null entries < quorum, so either rule may
        // fire; both classify as a bad certificate.
        assert_eq!(err.class, FaultClass::BadCertificate);
    }

    /// The rule/witness table: for every row, one envelope whose send
    /// condition is that row's. A row added without a witness fails here.
    fn witness(f: &Fixture, rule: &RuleInfo) -> Envelope {
        witness_at(f, rule, 1)
    }

    /// [`witness`] at `round`: past round 1 a row's envelope also carries
    /// what that round adds — the quorum that ended `round − 1` where the
    /// row shows round entry, and for an ESTIMATE the adoption timestamp
    /// `ts = round − 1` with `coordinator(ts)`'s PROPOSE behind it.
    fn witness_at(f: &Fixture, rule: &RuleInfo, round: Round) -> Envelope {
        let vector = witnessed_vector();
        let v = || vector.clone();
        let current = Core::Current { round, vector: v() };
        let propose = Core::Propose { round, vector: v() };
        let ack = Core::Ack { round, vector: v() };
        let decide = Core::Decide { round, vector: v() };
        let (next, nack) = (Core::Next { round }, Core::Nack { round });
        let by = |sender: u32, core: &Core| signed(f, sender, core.clone());
        let quorum = |core: &Core| Certificate::from_items((0..3).map(|s| by(s, core)));
        let protocol = f.checker.protocol();
        let coordinator = f.checker.coordinator(round).0;
        // The quorum that ended the previous round: NEXTs, or one NACK
        // between two ACKs, so that each kind is needed for the count.
        let entry = match (round, protocol) {
            (1, _) => Certificate::new(),
            (_, ProtocolId::HurfinRaynal) => quorum(&Core::Next { round: round - 1 }),
            (_, ProtocolId::ChandraToueg) => {
                let (prev, vector) = (round - 1, v());
                let acked = Core::Ack {
                    round: prev,
                    vector,
                };
                let nacked = Core::Nack { round: prev };
                Certificate::from_items([by(0, &acked), by(1, &nacked), by(2, &acked)])
            }
        };
        let (sender, core, cert) = match rule.id {
            "init-empty" => (1, Core::Init { value: 11 }, Certificate::new()),
            "current-coordinator" => (coordinator, current, init_quorum(f).union(&entry)),
            "current-relay" => {
                let coordinators = Certificate::from_items([by(coordinator, &current)]);
                (2, current, init_quorum(f).union(&coordinators))
            }
            "next-end-of-round" => (3, next.clone(), quorum(&next)),
            // One CURRENT + two NEXT = 3 voters, no quorum of either kind.
            "next-change-mind" => {
                let votes = [by(0, &current), by(1, &next), by(2, &next)];
                (3, next, Certificate::from_items(votes))
            }
            "next-suspicion" => (3, next, entry),
            "decide-current-quorum" => (0, decide, quorum(&current)),
            "estimate-roundstart" => {
                let ts = round - 1;
                let mut cert = init_quorum(f).union(&entry);
                if ts > 0 {
                    let backing = Core::Propose {
                        round: ts,
                        vector: v(),
                    };
                    cert.insert(by(f.checker.coordinator(ts).0, &backing));
                }
                (2, Core::Estimate { round, vector, ts }, cert)
            }
            "propose-coordinator" => {
                let estimates = estimate_quorum(f, round);
                (coordinator, propose, init_quorum(f).union(&estimates))
            }
            "ack-echo" => (2, ack, Certificate::from_items([by(coordinator, &propose)])),
            "nack-suspicion" => (3, nack, Certificate::new()),
            "decide-ack-quorum" => (0, decide, quorum(&ack)),
            "checkpoint-quorum" => {
                let votes = if decide_vote_kind(protocol) == MessageKind::Ack {
                    quorum(&ack)
                } else {
                    quorum(&current)
                };
                let me = ProcessId(1);
                return crate::checkpoint::make_checkpoint(
                    protocol, 7, &vector, votes, me, &f.keys[1],
                );
            }
            other => panic!("rule row `{other}` has no witness envelope"),
        };
        Envelope::make(ProcessId(sender), core, cert, &f.keys[sender as usize])
    }

    /// `strip(edge)` at unit scale: on each row's round-2 witness, removing
    /// the members that a group of its edges cites — one kind, one phase —
    /// takes the envelope off the row: it is rejected, or another row
    /// admits it. The group the table leaves to the observer's round-entry
    /// check is read by no row, so the row still admits the envelope
    /// (`ftm-detect`'s observer tests convict without it).
    #[test]
    fn stripping_an_edge_group_takes_the_envelope_off_its_row() {
        let mut groups = 0;
        for f in [fixture(), ct_fixture()] {
            let protocol = f.checker.protocol();
            let own = certification_rules_for(protocol);
            for rule in own.iter().copied().chain([&CHECKPOINT_RULE]) {
                let env = witness_at(&f, rule, 2);
                assert_eq!(f.checker.rule_for(&env), Ok(rule));
                for edge in rule.edges {
                    let at = match edge.phase {
                        EvidencePhase::Initial => 0,
                        EvidencePhase::PrevRound => 1,
                        EvidencePhase::SameRound => 2,
                    };
                    let mut kinds: Vec<MessageKind> = edge.cites.iter().map(|c| c.kind).collect();
                    kinds.dedup();
                    for mut kind in kinds {
                        // A checkpoint's certificate is the cited DECIDE's:
                        // its decide-votes.
                        if edge.checked == Checked::CheckpointDigest {
                            kind = decide_vote_kind(protocol);
                        }
                        let cited = |i: &&SignedCore| i.kind() == kind && i.round() == at;
                        let mut bare = env.clone();
                        let rest = env.cert.iter().filter(|i| !cited(i));
                        bare.cert = Certificate::from_items(rest.cloned());
                        let at = format!("{protocol} {rule:?} strip {kind}@{at}");
                        assert!(env.cert.iter().any(|i| cited(&i)), "{at}: nothing to strip");
                        let row = f
                            .checker
                            .check_envelope(&bare)
                            .and_then(|_| f.checker.rule_for(&bare));
                        if edge.checked == Checked::OnRoundEntry {
                            assert_eq!(row, Ok(rule), "{at}: a row reads the round-entry edge");
                        } else {
                            assert_ne!(row, Ok(rule), "{at}: carried but not read");
                        }
                        groups += 1;
                    }
                }
            }
        }
        assert_eq!(groups, 10 + 9, "HR and CT edge groups");
    }

    /// `vector` with its first two entries exchanged.
    fn swapped(vector: &ValueVector) -> ValueVector {
        let mut entries: Vec<_> = (0..vector.len()).map(|k| vector.get(k)).collect();
        entries.swap(0, 1);
        ValueVector::from_entries(entries)
    }

    /// Another statement of the same round by the same signer.
    fn second_statement(core: &Core) -> Core {
        let mut other = core.clone();
        match &mut other {
            Core::Init { value } => *value += 1,
            Core::Next { round } => {
                let round = *round;
                other = Core::Current {
                    round,
                    vector: witnessed_vector(),
                };
            }
            Core::Nack { round } => {
                let round = *round;
                other = Core::Ack {
                    round,
                    vector: witnessed_vector(),
                };
            }
            Core::Current { vector, .. }
            | Core::Decide { vector, .. }
            | Core::Estimate { vector, .. }
            | Core::Propose { vector, .. }
            | Core::Ack { vector, .. } => *vector = swapped(vector),
            Core::Checkpoint { .. } => {}
        }
        other
    }

    /// `core` moved to round `round + delta` (INIT and CHECKPOINT have no
    /// round to move).
    fn shifted(core: &Core, delta: i64) -> Option<Core> {
        let mut out = core.clone();
        match &mut out {
            Core::Current { round, .. }
            | Core::Next { round }
            | Core::Decide { round, .. }
            | Core::Estimate { round, .. }
            | Core::Propose { round, .. }
            | Core::Ack { round, .. }
            | Core::Nack { round } => *round = round.checked_add_signed(delta)?,
            Core::Init { .. } | Core::Checkpoint { .. } => return None,
        }
        Some(out)
    }

    /// The fixed mutation list over one witness: `(name, head sender,
    /// head core, member cores)`, the witness itself first.
    fn mutations(f: &Fixture, env: &Envelope) -> Vec<(String, u32, Core, Vec<MessageCore>)> {
        let (sender, head) = (env.sender().0, env.core().clone());
        let members: Vec<MessageCore> = env.cert.iter().map(|i| i.core().clone()).collect();
        let mut out = vec![("witness".to_string(), sender, head.clone(), members.clone())];
        for k in 0..members.len() {
            let mut fewer = members.clone();
            fewer.remove(k);
            out.push((format!("drop-{k}"), sender, head.clone(), fewer));
        }
        if let Some(first) = members.first() {
            let mut more = members.clone();
            more.push(MessageCore::new(
                first.sender,
                second_statement(&first.core),
            ));
            out.push(("second-from-cited".into(), sender, head.clone(), more));
        }
        if head.vector().is_some() {
            let mut head_swapped = head.clone();
            if let Some(v) = match &mut head_swapped {
                Core::Current { vector, .. }
                | Core::Decide { vector, .. }
                | Core::Estimate { vector, .. }
                | Core::Propose { vector, .. }
                | Core::Ack { vector, .. } => Some(vector),
                _ => None,
            } {
                *v = swapped(v);
            }
            out.push(("swap-head".into(), sender, head_swapped, members.clone()));
        }
        for (name, delta) in [("+1", 1), ("-1", -1)] {
            if let Some(moved) = shifted(&head, delta) {
                out.push((format!("head-round{name}"), sender, moved, members.clone()));
            }
            let last = members.iter().rposition(|m| shifted(&m.core, 0).is_some());
            if let Some(k) = last {
                if let Some(moved) = shifted(&members[k].core, delta) {
                    let mut one = members.clone();
                    one[k].core = moved;
                    out.push((format!("member-round{name}"), sender, head.clone(), one));
                }
            }
        }
        let coordinator = f.checker.coordinator(head.round().max(1)).0;
        let other = (coordinator + 1) % 4; // the next of the N = 4
        for (name, signer) in [("as-coordinator", coordinator), ("as-other", other)] {
            out.push((name.into(), signer, head.clone(), members.clone()));
        }
        if members.iter().any(|m| m.core.kind() == MessageKind::Init) {
            let bare = members
                .iter()
                .filter(|m| m.core.kind() != MessageKind::Init);
            out.push((
                "no-inits".into(),
                sender,
                head.clone(),
                bare.cloned().collect(),
            ));
        }
        let future = head.round() + 1;
        let ahead = match f.checker.protocol() {
            ProtocolId::HurfinRaynal => Core::Next { round: future },
            ProtocolId::ChandraToueg => Core::Nack { round: future },
        };
        let mut more = members;
        more.push(MessageCore::new(ProcessId(0), ahead));
        out.push(("future-member".into(), sender, head, more));
        out
    }

    /// One line per protocol × row witness (rounds 1 and 2) × mutation:
    /// `protocol row@round mutation → ok <rule id> | <class> <culprit>
    /// <reason>`. Every core is re-signed by its own signer's key, so the
    /// rule logic decides, not the signature check.
    fn verdict_lines() -> Vec<String> {
        let mut lines = Vec::new();
        for f in [fixture(), ct_fixture()] {
            let protocol = f.checker.protocol();
            let own = certification_rules_for(protocol);
            for rule in own.iter().copied().chain([&CHECKPOINT_RULE]) {
                for round in [1, 2] {
                    let env = witness_at(&f, rule, round);
                    for (name, sender, head, members) in mutations(&f, &env) {
                        let cert = Certificate::from_items(members.into_iter().map(|m| {
                            let key = &f.keys[m.sender.index()];
                            SignedCore::sign(m, key)
                        }));
                        let signer = &f.keys[sender as usize];
                        let env = Envelope::make(ProcessId(sender), head, cert, signer);
                        let verdict = match f.checker.check_envelope(&env) {
                            Ok(_) => match f.checker.rule_for(&env) {
                                Ok(rule) => format!("ok {}", rule.id),
                                Err(e) => format!("ok without a row: {e}"),
                            },
                            Err(e) => format!("{} {} {}", e.class, e.culprit, e.reason),
                        };
                        lines.push(format!("{protocol} {}@{round} {name} → {verdict}", rule.id));
                    }
                }
            }
        }
        lines
    }

    /// The verdict golden: the certification module's answer on every
    /// row witness under a fixed list of mutations, pinned as one digest
    /// and the count of each verdict. Whatever implements the rows must
    /// reproduce it unedited; a mismatch prints every line.
    #[test]
    fn verdicts_on_mutated_witnesses_are_pinned() {
        let lines = verdict_lines();
        let digest = ftm_crypto::sha256::Sha256::digest(lines.join("\n").as_bytes());
        let mut counts = std::collections::BTreeMap::<&str, usize>::new();
        for line in &lines {
            let verdict = line.split_once(" → ").map_or("", |(_, v)| v);
            *counts.entry(verdict).or_default() += 1;
        }
        let counts: Vec<String> = counts.iter().map(|(v, c)| format!("{c} {v}")).collect();
        let expected_counts = [
            "15 bad-certificate p0 DECIDE lacks n−F signed ACK votes for the decided vector",
            "15 bad-certificate p0 DECIDE lacks n−F signed CURRENT votes for the decided vector",
            "1 bad-certificate p0 PROPOSE from a process that is not the round coordinator",
            "5 bad-certificate p0 PROPOSE lacks n−F signed ESTIMATE votes for this round",
            "1 bad-certificate p0 relayed CURRENT lacks the coordinator's signed CURRENT for this vector",
            "10 bad-certificate p0 vector entry not witnessed by a signed INIT",
            "4 bad-certificate p1 INIT must carry an empty certificate",
            "3 bad-certificate p1 PROPOSE from a process that is not the round coordinator",
            "5 bad-certificate p1 PROPOSE lacks n−F signed ESTIMATE votes for this round",
            "20 bad-certificate p1 checkpoint lacks n−F signed decide-votes over a single vector",
            "3 bad-certificate p1 relayed CURRENT lacks the coordinator's signed CURRENT for this vector",
            "6 bad-certificate p1 round entry lacks n−F signed NEXT votes for the previous round",
            "10 bad-certificate p1 vector entry not witnessed by a signed INIT",
            "11 bad-certificate p2 ACK lacks the coordinator's signed PROPOSE for this vector",
            "1 bad-certificate p2 PROPOSE from a process that is not the round coordinator",
            "3 bad-certificate p2 estimate timestamp lacks the ts-coordinator's signed PROPOSE for this vector",
            "9 bad-certificate p2 relayed CURRENT lacks the coordinator's signed CURRENT for this vector",
            "5 bad-certificate p2 round entry lacks n−F signed ACK/NACK votes for the previous round",
            "1 bad-certificate p2 round entry lacks n−F signed NEXT votes for the previous round",
            "20 bad-certificate p2 vector entry not witnessed by a signed INIT",
            "2 bad-certificate p3 NACK certificate contains items from a future round",
            "12 bad-certificate p3 NEXT certificate contains items from a future round",
            "6 bad-certificate p3 NEXT certificate matches no legal send condition",
            "10 ok ack-echo",
            "20 ok checkpoint-quorum",
            "9 ok current-coordinator",
            "8 ok current-relay",
            "10 ok decide-ack-quorum",
            "10 ok decide-current-quorum",
            "10 ok estimate-roundstart",
            "12 ok init-empty",
            "9 ok nack-suspicion",
            "8 ok next-change-mind",
            "9 ok next-end-of-round",
            "28 ok next-suspicion",
            "8 ok propose-coordinator",
            "4 wrong-syntax p0 round 0 carries no votes",
            "1 wrong-syntax p2 estimate timestamp is not from an earlier round",
            "3 wrong-syntax p2 round 0 carries no votes",
            "4 wrong-syntax p3 round 0 carries no votes",
        ];
        let pinned = (
            digest.to_string()
                == "74fe28c7ac214740d4aee3872e99a7949ad86d384bb15ac0519fabbb7da389d6",
            counts == expected_counts,
        );
        assert_eq!(
            pinned,
            (true, true),
            "\n{}\n\ncounts:\n{}\ndigest {digest}",
            lines.join("\n"),
            counts.join("\n")
        );
    }

    #[test]
    fn every_rule_row_names_its_witness_envelope() {
        for (f, rows) in [(fixture(), 7 + 1), (ct_fixture(), 6 + 1)] {
            let own = certification_rules_for(f.checker.protocol());
            let mut witnessed = 0;
            for rule in own.iter().copied().chain([&CHECKPOINT_RULE]) {
                let env = witness(&f, rule);
                assert!(f.checker.check_envelope(&env).is_ok(), "{rule:?}");
                assert_eq!(f.checker.rule_for(&env), Ok(rule));
                // A row reads INIT items exactly when it has INIT witnesses.
                let init_edge = rule
                    .edges
                    .iter()
                    .any(|e| e.checked == Checked::InitWitnesses);
                let mut bare = env.clone();
                bare.cert = Certificate::from_items(
                    (env.cert.iter())
                        .filter(|i| i.kind() != MessageKind::Init)
                        .cloned(),
                );
                let admitted = f.checker.check_envelope(&bare).is_ok();
                assert_eq!(admitted, !init_edge, "{rule:?}");
                witnessed += 1;
            }
            assert_eq!(witnessed, rows, "{}", f.checker.protocol());
        }
    }

    /// What licenses the length and digest cached in a [`SignedCore`]:
    /// for every kind, built or decoded, they are what re-encoding says,
    /// and so is the encoded length a core's encoder is sized from.
    #[test]
    fn cached_size_and_digest_are_the_re_encoded_ones_for_every_kind() {
        use ftm_sim::Payload;

        fn check(env: &Envelope) {
            for sc in std::iter::once(&env.signed).chain(env.cert.iter()) {
                let core_len = sc.core().canonical_bytes().len();
                assert_eq!(sc.size_bytes(), core_len + sc.signature_bytes().len());
                assert_eq!(sc.digest(), sc.core().canonical_digest());
                assert_eq!(sc.core().encoded_len_hint(), core_len);
            }
            let split = env.layer_split();
            assert_eq!(split.total(), env.size_bytes());
            assert_eq!(
                split.protocol_bytes,
                env.signed.core().canonical_bytes().len()
            );
            assert_eq!(split.signature_bytes, env.signed.signature_bytes().len());
            let members: usize = env.cert.iter().map(SignedCore::size_bytes).sum();
            assert_eq!(split.certificate_bytes, members);
        }

        let mut kinds = std::collections::BTreeSet::new();
        for f in [fixture(), ct_fixture()] {
            let own = certification_rules_for(f.checker.protocol());
            for rule in own.iter().copied().chain([&CHECKPOINT_RULE]) {
                let env = witness(&f, rule);
                check(&env);
                let back = Envelope::from_bytes(&env.to_bytes()).expect("round trip");
                check(&back);
                assert_eq!(back.size_bytes(), env.size_bytes(), "{rule:?}");
                assert_eq!(back.layer_split(), env.layer_split(), "{rule:?}");
                kinds.insert(env.kind());
            }
        }
        assert_eq!(kinds.len(), 9, "a Core kind has no witness: {kinds:?}");
    }

    #[test]
    fn a_kind_outside_the_protocols_table_is_never_certified() {
        // Each checker is shown the other protocol's witnesses — well-formed
        // under the table they come from — for every kind its own table has
        // no row for: HR × ESTIMATE/PROPOSE/ACK/NACK, CT × CURRENT/NEXT.
        let mut foreign = 0;
        for (f, other) in [(fixture(), ct_fixture()), (ct_fixture(), fixture())] {
            let own = certification_rules_for(f.checker.protocol());
            for rule in certification_rules_for(other.checker.protocol()) {
                if own.iter().any(|r| r.kind == rule.kind) {
                    continue; // INIT and DECIDE are on both wires
                }
                let env = witness(&other, rule);
                assert!(other.checker.check_envelope(&env).is_ok(), "{rule:?}");
                let err = f.checker.check_envelope(&env).unwrap_err();
                assert_eq!(err.class, FaultClass::BadCertificate, "{rule:?}");
                assert_eq!(err.culprit, env.sender(), "{rule:?}");
                assert!(err.reason.contains("no certification rule"), "{rule:?}");
                foreign += 1;
            }
        }
        assert_eq!(foreign, 4 + 5); // four CT vote rows, five HR vote rows
    }

    #[test]
    fn next_with_future_items_rejected() {
        let f = fixture();
        let env = Envelope::make(
            ProcessId(3),
            Core::Next { round: 1 },
            next_quorum(&f, 2), // items from round 2 inside a NEXT(1)
            &f.keys[3],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert!(err.reason.contains("future round"));
    }

    #[test]
    fn decide_requires_matching_current_quorum() {
        let f = fixture();
        let vect = witnessed_vector();
        let current_quorum = Certificate::from_items((0..3u32).map(|s| {
            signed(
                &f,
                s,
                Core::Current {
                    round: 1,
                    vector: vect.clone(),
                },
            )
        }));
        let env = Envelope::make(
            ProcessId(0),
            Core::Decide {
                round: 1,
                vector: vect.clone(),
            },
            current_quorum.clone(),
            &f.keys[0],
        );
        assert!(f.checker.check_envelope(&env).is_ok());

        // Forged decide: same quorum but a different decided vector.
        let other = ValueVector::from_entries(vec![Some(10), Some(11), Some(99), None]);
        let env = Envelope::make(
            ProcessId(0),
            Core::Decide {
                round: 1,
                vector: other,
            },
            current_quorum,
            &f.keys[0],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert_eq!(err.class, FaultClass::BadCertificate);
    }

    #[test]
    fn tampered_cert_item_is_caught() {
        let f = fixture();
        let vect = witnessed_vector();
        let mut cert = init_quorum(&f);
        // Forged item: p0's INIT value rewritten but old signature kept.
        let honest = signed(&f, 0, Core::Init { value: 10 });
        let tampered = SignedCore::from_parts(
            MessageCore::new(ProcessId(0), Core::Init { value: 66 }),
            // Signature over the *honest* core — invalid for the new core.
            {
                let digest =
                    MessageCore::new(ProcessId(0), Core::Init { value: 10 }).canonical_digest();
                let _ = honest;
                f.keys[0].sign_digest(&digest)
            },
        );
        cert.insert(tampered);
        let env = Envelope::make(
            ProcessId(0),
            Core::Current {
                round: 1,
                vector: vect,
            },
            cert,
            &f.keys[0],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert_eq!(err.class, FaultClass::BadCertificate);
        assert!(err.reason.contains("invalid signature"));
    }

    fn ct_fixture() -> Fixture {
        let mut rng = ftm_crypto::rng_from_seed(41);
        let (dir, keys) = KeyDirectory::generate(&mut rng, N, 128);
        Fixture {
            checker: CertChecker::new_for(ProtocolId::ChandraToueg, N, F, dir),
            keys,
        }
    }

    /// ESTIMATE(r=1, ts=0) items from p0..p2 carrying the witnessed vector.
    fn estimate_quorum(f: &Fixture, round: Round) -> Certificate {
        Certificate::from_items((0..3u32).map(|s| {
            signed(
                f,
                s,
                Core::Estimate {
                    round,
                    vector: witnessed_vector(),
                    ts: 0,
                },
            )
        }))
    }

    #[test]
    fn ct_estimate_round1_valid() {
        let f = ct_fixture();
        let env = Envelope::make(
            ProcessId(2),
            Core::Estimate {
                round: 1,
                vector: witnessed_vector(),
                ts: 0,
            },
            init_quorum(&f),
            &f.keys[2],
        );
        assert!(f.checker.check_envelope(&env).is_ok());
    }

    #[test]
    fn ct_estimate_round2_needs_ack_nack_quorum() {
        let f = ct_fixture();
        // Without round-entry evidence: rejected.
        let env = Envelope::make(
            ProcessId(2),
            Core::Estimate {
                round: 2,
                vector: witnessed_vector(),
                ts: 0,
            },
            init_quorum(&f),
            &f.keys[2],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert!(err.reason.contains("round entry"));
        // With a mixed ACK/NACK quorum for round 1: accepted.
        let votes = Certificate::from_items([
            signed(
                &f,
                0,
                Core::Ack {
                    round: 1,
                    vector: witnessed_vector(),
                },
            ),
            signed(&f, 1, Core::Nack { round: 1 }),
            signed(&f, 2, Core::Nack { round: 1 }),
        ]);
        let env = Envelope::make(
            ProcessId(2),
            Core::Estimate {
                round: 2,
                vector: witnessed_vector(),
                ts: 0,
            },
            init_quorum(&f).union(&votes),
            &f.keys[2],
        );
        assert!(f.checker.check_envelope(&env).is_ok());
    }

    #[test]
    fn ct_estimate_timestamp_needs_propose_backing() {
        let f = ct_fixture();
        let nack_quorum =
            Certificate::from_items((0..3u32).map(|s| signed(&f, s, Core::Nack { round: 1 })));
        let base = init_quorum(&f).union(&nack_quorum);
        // ts = 1 claimed without coordinator(1)'s PROPOSE: rejected.
        let env = Envelope::make(
            ProcessId(2),
            Core::Estimate {
                round: 2,
                vector: witnessed_vector(),
                ts: 1,
            },
            base.clone(),
            &f.keys[2],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert!(err.reason.contains("timestamp"), "{}", err.reason);
        // With p0's (coordinator of round 1) signed PROPOSE: accepted.
        let mut cert = base;
        cert.insert(signed(
            &f,
            0,
            Core::Propose {
                round: 1,
                vector: witnessed_vector(),
            },
        ));
        let env = Envelope::make(
            ProcessId(2),
            Core::Estimate {
                round: 2,
                vector: witnessed_vector(),
                ts: 1,
            },
            cert,
            &f.keys[2],
        );
        assert!(f.checker.check_envelope(&env).is_ok());
    }

    #[test]
    fn ct_estimate_future_timestamp_is_syntax_fault() {
        let f = ct_fixture();
        let env = Envelope::make(
            ProcessId(2),
            Core::Estimate {
                round: 2,
                vector: witnessed_vector(),
                ts: 2,
            },
            init_quorum(&f),
            &f.keys[2],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert_eq!(err.class, FaultClass::WrongSyntax);
    }

    #[test]
    fn ct_propose_requires_coordinator_and_estimate_quorum() {
        let f = ct_fixture();
        let cert = init_quorum(&f).union(&estimate_quorum(&f, 1));
        // p0 is coordinator of round 1: valid.
        let env = Envelope::make(
            ProcessId(0),
            Core::Propose {
                round: 1,
                vector: witnessed_vector(),
            },
            cert.clone(),
            &f.keys[0],
        );
        assert!(f.checker.check_envelope(&env).is_ok());
        // p2 is not: rejected.
        let env = Envelope::make(
            ProcessId(2),
            Core::Propose {
                round: 1,
                vector: witnessed_vector(),
            },
            cert,
            &f.keys[2],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert!(err.reason.contains("not the round coordinator"));
        // Coordinator without the estimate quorum: rejected.
        let env = Envelope::make(
            ProcessId(0),
            Core::Propose {
                round: 1,
                vector: witnessed_vector(),
            },
            init_quorum(&f),
            &f.keys[0],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert!(err.reason.contains("ESTIMATE"));
    }

    #[test]
    fn ct_propose_must_adopt_a_max_timestamp_estimate() {
        let f = ct_fixture();
        let locked = witnessed_vector();
        let other = ValueVector::from_entries(vec![Some(10), Some(11), Some(12), Some(13)]);
        // p1 locked `locked` at ts=1; the others are fresh (ts=0) with a
        // different (also witnessed) vector.
        let mut init_backing = init_quorum(&f);
        init_backing.insert(signed(&f, 3, Core::Init { value: 13 }));
        let ests = Certificate::from_items([
            signed(
                &f,
                1,
                Core::Estimate {
                    round: 2,
                    vector: locked.clone(),
                    ts: 1,
                },
            ),
            signed(
                &f,
                0,
                Core::Estimate {
                    round: 2,
                    vector: other.clone(),
                    ts: 0,
                },
            ),
            signed(
                &f,
                2,
                Core::Estimate {
                    round: 2,
                    vector: other.clone(),
                    ts: 0,
                },
            ),
        ]);
        let cert = init_backing.union(&ests);
        // Round 2's coordinator is p1. Proposing the locked (max-ts)
        // vector: valid.
        let env = Envelope::make(
            ProcessId(1),
            Core::Propose {
                round: 2,
                vector: locked,
            },
            cert.clone(),
            &f.keys[1],
        );
        assert!(f.checker.check_envelope(&env).is_ok());
        // Proposing the fresher-but-lower-ts vector: rejected.
        let env = Envelope::make(
            ProcessId(1),
            Core::Propose {
                round: 2,
                vector: other,
            },
            cert,
            &f.keys[1],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert!(err.reason.contains("maximum-timestamp"));
    }

    #[test]
    fn ct_ack_requires_coordinator_propose_echo() {
        let f = ct_fixture();
        let vect = witnessed_vector();
        let mut cert = Certificate::new();
        cert.insert(signed(
            &f,
            0,
            Core::Propose {
                round: 1,
                vector: vect.clone(),
            },
        ));
        let env = Envelope::make(
            ProcessId(2),
            Core::Ack {
                round: 1,
                vector: vect.clone(),
            },
            cert,
            &f.keys[2],
        );
        assert!(f.checker.check_envelope(&env).is_ok());
        // Without the coordinator's PROPOSE: substituted message.
        let env = Envelope::make(
            ProcessId(2),
            Core::Ack {
                round: 1,
                vector: vect,
            },
            Certificate::new(),
            &f.keys[2],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert!(err.reason.contains("PROPOSE"));
    }

    #[test]
    fn ct_nack_rejects_future_items() {
        let f = ct_fixture();
        let env = Envelope::make(
            ProcessId(3),
            Core::Nack { round: 1 },
            Certificate::new(),
            &f.keys[3],
        );
        assert!(f.checker.check_envelope(&env).is_ok());
        let future = Certificate::from_items([signed(&f, 0, Core::Nack { round: 2 })]);
        let env = Envelope::make(ProcessId(3), Core::Nack { round: 1 }, future, &f.keys[3]);
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert!(err.reason.contains("future round"));
    }

    #[test]
    fn ct_decide_requires_matching_ack_quorum() {
        let f = ct_fixture();
        let vect = witnessed_vector();
        let ack_quorum = Certificate::from_items((0..3u32).map(|s| {
            signed(
                &f,
                s,
                Core::Ack {
                    round: 1,
                    vector: vect.clone(),
                },
            )
        }));
        let env = Envelope::make(
            ProcessId(0),
            Core::Decide {
                round: 1,
                vector: vect.clone(),
            },
            ack_quorum.clone(),
            &f.keys[0],
        );
        assert!(f.checker.check_envelope(&env).is_ok());
        // The same certificate under the HR table is a forgery: HR decides
        // on CURRENT votes, which the certificate lacks.
        let hr = fixture();
        let env_hr = Envelope::make(
            ProcessId(0),
            Core::Decide {
                round: 1,
                vector: vect,
            },
            ack_quorum,
            &hr.keys[0],
        );
        let err = hr.checker.check_envelope(&env_hr).unwrap_err();
        assert!(err.reason.contains("CURRENT"));
    }

    #[test]
    fn wrong_width_vector_is_syntax_fault() {
        let f = fixture();
        let env = Envelope::make(
            ProcessId(0),
            Core::Current {
                round: 1,
                vector: ValueVector::empty(2), // width 2 ≠ n = 4
            },
            init_quorum(&f),
            &f.keys[0],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert_eq!(err.class, FaultClass::WrongSyntax);
    }

    /// A quorum of signed CURRENT(round, vect) — the HR decide-vote
    /// evidence a checkpoint carries.
    fn current_quorum(f: &Fixture, round: Round, vect: &ValueVector) -> Certificate {
        Certificate::from_items((0..3u32).map(|s| {
            signed(
                f,
                s,
                Core::Current {
                    round,
                    vector: vect.clone(),
                },
            )
        }))
    }

    #[test]
    fn valid_checkpoint_passes_under_both_protocols() {
        let vect = witnessed_vector();
        // HR: CURRENT quorum backs the checkpoint.
        let f = fixture();
        let env = crate::checkpoint::make_checkpoint(
            ProtocolId::HurfinRaynal,
            7,
            &vect,
            current_quorum(&f, 2, &vect),
            ProcessId(1),
            &f.keys[1],
        );
        assert!(f.checker.check_envelope(&env).is_ok());
        // CT: ACK quorum backs the checkpoint.
        let ct = ct_fixture();
        let ack_quorum = Certificate::from_items((0..3u32).map(|s| {
            signed(
                &ct,
                s,
                Core::Ack {
                    round: 2,
                    vector: vect.clone(),
                },
            )
        }));
        let env_ct = crate::checkpoint::make_checkpoint(
            ProtocolId::ChandraToueg,
            7,
            &vect,
            ack_quorum,
            ProcessId(1),
            &ct.keys[1],
        );
        assert!(ct.checker.check_envelope(&env_ct).is_ok());
    }

    #[test]
    fn forged_checkpoint_digest_is_convicted() {
        let f = fixture();
        let vect = witnessed_vector();
        // The quorum certifies `vect`, but the digest commits to a
        // different vector: the classic forged-compaction attack.
        let mut other = vect.clone();
        other.set(3, 99);
        let env = crate::checkpoint::make_checkpoint(
            ProtocolId::HurfinRaynal,
            7,
            &other,
            current_quorum(&f, 2, &vect),
            ProcessId(1),
            &f.keys[1],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert_eq!(err.class, FaultClass::BadCertificate);
        assert_eq!(err.culprit, ProcessId(1));
        assert!(err.reason.contains("does not match"));
    }

    #[test]
    fn sub_quorum_checkpoint_is_convicted() {
        let f = fixture();
        let vect = witnessed_vector();
        // Two votes where n−F = 3 are required.
        let sub = Certificate::from_items((0..2u32).map(|s| {
            signed(
                &f,
                s,
                Core::Current {
                    round: 2,
                    vector: vect.clone(),
                },
            )
        }));
        let env = crate::checkpoint::make_checkpoint(
            ProtocolId::HurfinRaynal,
            7,
            &vect,
            sub,
            ProcessId(1),
            &f.keys[1],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert_eq!(err.class, FaultClass::BadCertificate);
        assert!(err.reason.contains("lacks n−F"));
    }

    #[test]
    fn checkpoint_quorum_must_be_distinct_senders() {
        let f = fixture();
        let vect = witnessed_vector();
        // Three votes but only two distinct signers: p0 repeated.
        let dup = Certificate::from_items([0u32, 0, 1].into_iter().map(|s| {
            signed(
                &f,
                s,
                Core::Current {
                    round: 2,
                    vector: vect.clone(),
                },
            )
        }));
        let env = crate::checkpoint::make_checkpoint(
            ProtocolId::HurfinRaynal,
            7,
            &vect,
            dup,
            ProcessId(1),
            &f.keys[1],
        );
        assert!(f.checker.check_envelope(&env).is_err());
    }

    #[test]
    fn checkpoint_quorum_must_not_straddle_rounds() {
        let f = fixture();
        let vect = witnessed_vector();
        // Three distinct signers of the same vector, but across two rounds:
        // no single round reaches n−F, so this is still sub-quorum.
        let straddle = Certificate::from_items([(0u32, 1u64), (1, 1), (2, 2)].into_iter().map(
            |(s, round)| {
                signed(
                    &f,
                    s,
                    Core::Current {
                        round,
                        vector: vect.clone(),
                    },
                )
            },
        ));
        let env = crate::checkpoint::make_checkpoint(
            ProtocolId::HurfinRaynal,
            7,
            &vect,
            straddle,
            ProcessId(1),
            &f.keys[1],
        );
        let err = f.checker.check_envelope(&env).unwrap_err();
        assert!(err.reason.contains("lacks n−F"));
    }
}
