//! The certificate analyzer: well-formedness rules from paper §5.1.
//!
//! For every message kind the paper defines when its certificate is
//! *well-formed* with respect to the value it carries and the condition
//! that enabled its send. [`CertChecker`] implements those rules, one
//! function per row of the [`crate::rules`] table — each row says what it
//! re-derives — reached only through [`CertChecker::rule_for`]'s walk
//! over that table.
//!
//! One deliberate departure from the figure: `DECIDE(r, vect)` demands
//! ≥ `n−F` signed `CURRENT(r, vect)` from distinct senders. That is
//! §5.1's rule; Fig. 3 line 21 writes `est_cert_i`, which would be
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
use crate::checkpoint::{checkpoint_digest, decide_vote_groups, decide_vote_kind};
use crate::error::{CertifyError, FaultClass};
use crate::message::{Core, MessageKind, ProtocolId, Round, ValueVector};
use crate::rules::{certification_rules_for, RuleInfo, CHECKPOINT_RULE};
use crate::signed::Envelope;

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
    /// (`c = ((r − 1) mod n)` 0-based; the paper's `(r mod n) + 1` 1-based).
    ///
    /// # Panics
    ///
    /// Panics for round 0 (the vector-certification phase has none).
    pub fn coordinator(&self, round: Round) -> ProcessId {
        assert!(round >= 1, "round 0 has no coordinator");
        // `% n` bounds the index by a process count, so the conversion
        // cannot fail in practice; fail closed to an id no peer holds
        // rather than truncating (D7: no `as` narrowing in thresholds).
        ProcessId(u32::try_from((round - 1) % self.n as u64).unwrap_or(u32::MAX))
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
    /// a rule's check. Signatures and syntax are the caller's.
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
            if (rule.check)(self, env)? {
                return Ok(rule);
            }
        }
        Err(bad_cert(
            env,
            "no certification rule of this protocol audits the message kind",
        ))
    }

    /// `init-empty`: INIT messages carry no certificate.
    pub(crate) fn init_empty(&self, env: &Envelope) -> Result<bool, CertifyError> {
        if env.cert.is_empty() {
            Ok(true)
        } else {
            Err(bad_cert(env, "INIT must carry an empty certificate"))
        }
    }

    /// "est_cert is well-formed with respect to vect": every non-null entry
    /// of `vect` is witnessed by a signed INIT, and at least `n−F` entries
    /// are witnessed (paper §5.1, initial values).
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

    /// "next_cert is well-formed with respect to round": entering round
    /// `round > 1` requires `n−F` distinct signed votes of the protocol's
    /// round-ending kinds ([`ProtocolId::round_ending_kinds`]: `NEXT`
    /// under Hurfin–Raynal, `ACK`/`NACK` under Chandra–Toueg) for
    /// `round−1`; round 1 needs nothing (`next_cert = ∅`).
    pub fn round_entry_well_formed(
        &self,
        cert: &Certificate,
        round: Round,
        culprit: ProcessId,
    ) -> Result<(), CertifyError> {
        let ending = self.protocol.round_ending_kinds();
        if round <= 1 || cert.count_senders(ending, round - 1) >= self.quorum() {
            return Ok(());
        }
        Err(CertifyError::new(
            culprit,
            FaultClass::BadCertificate,
            match self.protocol {
                ProtocolId::HurfinRaynal => {
                    "round entry lacks n−F signed NEXT votes for the previous round"
                }
                ProtocolId::ChandraToueg => {
                    "round entry lacks n−F signed ACK/NACK votes for the previous round"
                }
            },
        ))
    }

    /// `current-coordinator`: the round coordinator's CURRENT must witness
    /// its vector and justify being in round `r`.
    pub(crate) fn current_coordinator(&self, env: &Envelope) -> Result<bool, CertifyError> {
        let Core::Current { round, vector } = env.core() else {
            return Ok(false);
        };
        if env.sender() != self.coordinator(*round) {
            return Ok(false);
        }
        self.init_portion_well_formed(&env.cert, vector, env.sender())?;
        self.round_entry_well_formed(&env.cert, *round, env.sender())?;
        Ok(true)
    }

    /// `current-relay`: a relayer must witness the vector and show the
    /// coordinator's own CURRENT for the same round and the same vector
    /// (no substituted message).
    pub(crate) fn current_relay(&self, env: &Envelope) -> Result<bool, CertifyError> {
        let Core::Current { round, vector } = env.core() else {
            return Ok(false);
        };
        let coordinator = self.coordinator(*round);
        if env.sender() == coordinator {
            return Ok(false);
        }
        self.init_portion_well_formed(&env.cert, vector, env.sender())?;
        if env.cert.find_current(coordinator, *round, vector).is_none() {
            return Err(bad_cert(
                env,
                "relayed CURRENT lacks the coordinator's signed CURRENT for this vector",
            ));
        }
        Ok(true)
    }

    /// What the three NEXT rows share: no certificate item may come from
    /// the future — that would mean the sender fabricated votes it cannot
    /// have received.
    fn check_next(&self, env: &Envelope) -> Result<(), CertifyError> {
        no_future_items(env, "NEXT certificate contains items from a future round")
    }

    /// `next-end-of-round`: a full NEXT quorum observed.
    pub(crate) fn next_end_of_round(&self, env: &Envelope) -> Result<bool, CertifyError> {
        self.check_next(env)?;
        Ok(env.cert.count_senders(&[MessageKind::Next], env.round()) >= self.quorum())
    }

    /// `next-change-mind`: in q1 (≥ 1 CURRENT seen), a quorum of votes
    /// arrived but not a CURRENT quorum (a NEXT quorum is the row before).
    pub(crate) fn next_change_mind(&self, env: &Envelope) -> Result<bool, CertifyError> {
        self.check_next(env)?;
        let currents = env.cert.count_senders(&[MessageKind::Current], env.round());
        let rec_from = [MessageKind::Current, MessageKind::Next];
        Ok((1..self.quorum()).contains(&currents)
            && env.cert.count_senders(&rec_from, env.round()) >= self.quorum())
    }

    /// `next-suspicion`, from q0: no CURRENT relayed or adopted yet. The
    /// suspicion itself cannot be audited (failure-detector output is
    /// local), so the only structural requirement is the absence of a
    /// CURRENT claim. The last NEXT row: a NEXT that cites CURRENTs and
    /// matched neither row before it matches no send condition at all.
    pub(crate) fn next_suspicion(&self, env: &Envelope) -> Result<bool, CertifyError> {
        self.check_next(env)?;
        if env.cert.count_senders(&[MessageKind::Current], env.round()) == 0 {
            Ok(true)
        } else {
            Err(bad_cert(
                env,
                "NEXT certificate matches no legal send condition",
            ))
        }
    }

    /// `estimate-roundstart`: the INIT-portion witnesses the vector; a
    /// claimed adoption timestamp `ts > 0` must be backed by
    /// `coordinator(ts)`'s own signed `PROPOSE(ts, vect)` (this is what
    /// makes CT's max-timestamp adoption rule auditable); entering round
    /// `r > 1` requires the ACK/NACK round-entry evidence.
    pub(crate) fn estimate_roundstart(&self, env: &Envelope) -> Result<bool, CertifyError> {
        let Core::Estimate { round, vector, ts } = env.core() else {
            return Ok(false);
        };
        self.init_portion_well_formed(&env.cert, vector, env.sender())?;
        if *ts > 0
            && env
                .cert
                .find_vouching(MessageKind::Propose, self.coordinator(*ts), *ts, vector)
                .is_none()
        {
            return Err(bad_cert(
                env,
                "estimate timestamp lacks the ts-coordinator's signed PROPOSE for this vector",
            ));
        }
        self.round_entry_well_formed(&env.cert, *round, env.sender())?;
        Ok(true)
    }

    /// `propose-coordinator`: only the round coordinator proposes; the
    /// certificate carries `n−F` signed `ESTIMATE(r)` and the proposed
    /// vector equals the vector of a maximum-timestamp estimate among them
    /// (CT's adoption rule), with its INIT backing.
    pub(crate) fn propose_coordinator(&self, env: &Envelope) -> Result<bool, CertifyError> {
        let Core::Propose { round, vector } = env.core() else {
            return Ok(false);
        };
        if env.sender() != self.coordinator(*round) {
            return Err(bad_cert(
                env,
                "PROPOSE from a process that is not the round coordinator",
            ));
        }
        self.init_portion_well_formed(&env.cert, vector, env.sender())?;
        if env.cert.count_senders(&[MessageKind::Estimate], *round) < self.quorum() {
            return Err(bad_cert(
                env,
                "PROPOSE lacks n−F signed ESTIMATE votes for this round",
            ));
        }
        let max_ts = env
            .cert
            .iter_kind_round(MessageKind::Estimate, *round)
            .filter_map(|i| match &i.core().core {
                Core::Estimate { ts, .. } => Some(*ts),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let adopted = env
            .cert
            .iter_kind_round(MessageKind::Estimate, *round)
            .any(|i| {
                matches!(&i.core().core, Core::Estimate { ts, vector: v, .. }
                    if *ts == max_ts && v == vector)
            });
        if !adopted {
            return Err(bad_cert(
                env,
                "proposed vector is not a maximum-timestamp estimate from the certificate",
            ));
        }
        Ok(true)
    }

    /// `ack-echo`: the echo must quote the round coordinator's own signed
    /// `PROPOSE(r, vect)` for exactly the acknowledged vector (no
    /// substituted proposal).
    pub(crate) fn ack_echo(&self, env: &Envelope) -> Result<bool, CertifyError> {
        let Core::Ack { round, vector } = env.core() else {
            return Ok(false);
        };
        let coordinator = self.coordinator(*round);
        if env
            .cert
            .find_vouching(MessageKind::Propose, coordinator, *round, vector)
            .is_none()
        {
            return Err(bad_cert(
                env,
                "ACK lacks the coordinator's signed PROPOSE for this vector",
            ));
        }
        Ok(true)
    }

    /// `nack-suspicion`: coordinator suspicion is failure-detector output
    /// and cannot be audited; the only structural requirement is that no
    /// certificate item comes from a future round.
    pub(crate) fn nack_suspicion(&self, env: &Envelope) -> Result<bool, CertifyError> {
        no_future_items(env, "NACK certificate contains items from a future round")?;
        Ok(true)
    }

    /// `decide-current-quorum` (§5.1, not Fig. 3 — see the module docs).
    pub(crate) fn decide_current_quorum(&self, env: &Envelope) -> Result<bool, CertifyError> {
        self.decide_quorum(
            env,
            "DECIDE lacks n−F signed CURRENT votes for the decided vector",
        )
    }

    /// `decide-ack-quorum`.
    pub(crate) fn decide_ack_quorum(&self, env: &Envelope) -> Result<bool, CertifyError> {
        self.decide_quorum(
            env,
            "DECIDE lacks n−F signed ACK votes for the decided vector",
        )
    }

    /// The DECIDE rule of either protocol: `n−F` distinct signed
    /// decide-votes ([`decide_vote_kind`]) of the decided round for the
    /// decided vector, or `lacks`.
    fn decide_quorum(&self, env: &Envelope, lacks: &'static str) -> Result<bool, CertifyError> {
        let Core::Decide { round, vector } = env.core() else {
            return Ok(false);
        };
        let matching = env
            .cert
            .iter_kind_round(decide_vote_kind(self.protocol), *round)
            .filter(|i| i.core().core.vector() == Some(vector));
        if distinct_senders(matching) < self.quorum() {
            return Err(bad_cert(env, lacks));
        }
        Ok(true)
    }

    /// `checkpoint-quorum`, shared by both protocols: the certificate must
    /// contain `n−F` distinct signed decide-votes (`CURRENT` under
    /// Hurfin–Raynal, `ACK` under Chandra–Toueg) over a single round and a
    /// single vector whose [`checkpoint_digest`] equals the digest the
    /// checkpoint claims. A quorum over a *different* vector is a forged
    /// digest; no quorum at all is a sub-quorum checkpoint — both are
    /// `bad-certificate` convictions of the sender.
    pub(crate) fn checkpoint_quorum(&self, env: &Envelope) -> Result<bool, CertifyError> {
        let Core::Checkpoint { slot, digest } = env.core() else {
            return Ok(false);
        };
        let mut quorum_seen = false;
        for ((_round, vector), senders) in decide_vote_groups(self.protocol, &env.cert) {
            if senders.len() < self.quorum() {
                continue;
            }
            quorum_seen = true;
            if checkpoint_digest(self.protocol, *slot, vector) == *digest {
                return Ok(true);
            }
        }
        Err(bad_cert(
            env,
            if quorum_seen {
                "checkpoint digest does not match the vector its quorum certifies"
            } else {
                "checkpoint lacks n−F signed decide-votes over a single vector"
            },
        ))
    }
}

/// No certificate item may come from a round after the envelope's own.
fn no_future_items(env: &Envelope, reason: &'static str) -> Result<(), CertifyError> {
    if env.cert.iter().any(|item| item.round() > env.round()) {
        return Err(bad_cert(env, reason));
    }
    Ok(())
}

/// A `bad-certificate` conviction of `env`'s sender.
fn bad_cert(env: &Envelope, reason: &'static str) -> CertifyError {
    CertifyError::new(env.sender(), FaultClass::BadCertificate, reason)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageCore;
    use crate::signed::SignedCore;
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
        let (round, vector) = (1, witnessed_vector());
        let v = || vector.clone();
        let current = Core::Current { round, vector: v() };
        let propose = Core::Propose { round, vector: v() };
        let ack = Core::Ack { round, vector: v() };
        let decide = Core::Decide { round, vector: v() };
        let (next, nack) = (Core::Next { round }, Core::Nack { round });
        let by = |sender: u32, core: &Core| signed(f, sender, core.clone());
        let quorum = |core: &Core| Certificate::from_items((0..3).map(|s| by(s, core)));
        let (sender, core, cert) = match rule.id {
            "init-empty" => (1, Core::Init { value: 11 }, Certificate::new()),
            "current-coordinator" => (0, current, init_quorum(f)),
            "current-relay" => {
                let coordinators = Certificate::from_items([by(0, &current)]);
                (2, current, init_quorum(f).union(&coordinators))
            }
            "next-end-of-round" => (3, next.clone(), quorum(&next)),
            // One CURRENT + two NEXT = 3 voters, no quorum of either kind.
            "next-change-mind" => {
                let votes = [by(0, &current), by(1, &next), by(2, &next)];
                (3, next, Certificate::from_items(votes))
            }
            "next-suspicion" => (3, next, Certificate::new()),
            "decide-current-quorum" => (0, decide, quorum(&current)),
            "estimate-roundstart" => {
                let estimate = Core::Estimate {
                    round,
                    vector,
                    ts: 0,
                };
                (2, estimate, init_quorum(f))
            }
            "propose-coordinator" => (0, propose, init_quorum(f).union(&estimate_quorum(f, round))),
            "ack-echo" => (2, ack, Certificate::from_items([by(0, &propose)])),
            "nack-suspicion" => (3, nack, Certificate::new()),
            "decide-ack-quorum" => (0, decide, quorum(&ack)),
            "checkpoint-quorum" => {
                let protocol = f.checker.protocol();
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

    #[test]
    fn every_rule_row_names_its_witness_envelope() {
        for (f, rows) in [(fixture(), 7 + 1), (ct_fixture(), 6 + 1)] {
            let own = certification_rules_for(f.checker.protocol());
            let mut witnessed = 0;
            for rule in own.iter().copied().chain([&CHECKPOINT_RULE]) {
                let env = witness(&f, rule);
                assert!(f.checker.check_envelope(&env).is_ok(), "{rule:?}");
                assert_eq!(f.checker.rule_for(&env), Ok(rule));
                // The row's flag says whether its check reads INIT items.
                let mut bare = env.clone();
                bare.cert = Certificate::from_items(
                    (env.cert.iter())
                        .filter(|i| i.kind() != MessageKind::Init)
                        .cloned(),
                );
                let admitted = f.checker.check_envelope(&bare).is_ok();
                assert_eq!(admitted, !rule.needs_init_backing, "{rule:?}");
                witnessed += 1;
            }
            assert_eq!(witnessed, rows, "{}", f.checker.protocol());
        }
    }

    /// What licenses the length and digest cached in a [`SignedCore`]:
    /// for every kind, built or decoded, they are what re-encoding says.
    #[test]
    fn cached_size_and_digest_are_the_re_encoded_ones_for_every_kind() {
        use ftm_sim::Payload;

        fn check(env: &Envelope) {
            for sc in std::iter::once(&env.signed).chain(env.cert.iter()) {
                let core_len = sc.core().canonical_bytes().len();
                assert_eq!(sc.size_bytes(), core_len + sc.signature_bytes().len());
                assert_eq!(sc.digest(), sc.core().canonical_digest());
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
        let err = f.checker.check_next(&env).unwrap_err();
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
