//! The non-muteness failure detection module a process embeds.
//!
//! One [`Observer`] per process: it owns one [`PeerAutomaton`] per peer,
//! the certificate analyzer, and the evidence log. Every incoming envelope
//! flows through [`Observer::observe`], which implements the paper's
//! receive pipeline (Fig. 1): identity check → signature check → syntax →
//! timing automaton → certificate predicates. Any failure convicts the
//! sender: it enters the observer's `faulty` set, which the protocol module
//! may only read.
//!
//! The module is *reliable* in the paper's sense: if a correct process
//! declares `q` faulty, `q` did exhibit an incorrect behavior — every
//! conviction is backed by a [`FaultRecord`] holding the failed check.

use ftm_certify::analyzer::CertChecker;
use ftm_certify::{Certified, CertifyError, Envelope, FaultClass, MessageKind};
use ftm_sim::{ProcessId, VirtualTime};

use crate::automaton::{PeerAutomaton, ProtocolTable, Requirement};
use crate::predicates::round_entry_justified;

/// One conviction with its evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// The convicted process.
    pub culprit: ProcessId,
    /// The paper's failure class.
    pub class: FaultClass,
    /// The failed check.
    pub reason: &'static str,
    /// When the observer convicted it.
    pub at: VirtualTime,
}

/// Which checks the observer runs — all on by default.
///
/// Exists for the ablation experiment (E8): disabling one module at a time
/// shows each is load-bearing. Production use keeps the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Identity and core-signature verification (the signature module).
    pub signatures: bool,
    /// Certificate item signatures and per-kind well-formedness (the
    /// reliable certification module / `PF` predicates).
    pub certificates: bool,
    /// The per-peer timing automaton (out-of-order detection).
    pub timing: bool,
}

impl Default for Checks {
    fn default() -> Self {
        Checks {
            signatures: true,
            certificates: true,
            timing: true,
        }
    }
}

/// Per-process non-muteness failure detection module.
///
/// # Example
///
/// ```
/// use ftm_certify::analyzer::CertChecker;
/// use ftm_certify::{Certificate, Core, Envelope};
/// use ftm_detect::Observer;
/// use ftm_sim::{ProcessId, VirtualTime};
///
/// let mut rng = ftm_crypto::rng_from_seed(4);
/// let (dir, keys) = ftm_crypto::keydir::KeyDirectory::generate(&mut rng, 4, 128);
/// let mut obs = Observer::new(CertChecker::new(4, 1, dir));
/// let env = Envelope::make(ProcessId(2), Core::Init { value: 7 },
///                          Certificate::new(), &keys[2]);
/// assert!(obs.observe(ProcessId(2), &env, VirtualTime::ZERO).is_ok());
/// assert!(obs.faults().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Observer {
    checker: CertChecker,
    automata: Vec<PeerAutomaton>,
    faults: Vec<FaultRecord>,
    checks: Checks,
}

impl Observer {
    /// Creates an observer for all `n` peers of `checker`, with the
    /// automaton table of the checker's protocol.
    pub fn new(checker: CertChecker) -> Self {
        let table = ProtocolTable::for_protocol(checker.protocol());
        let automata = (0..checker.n() as u32)
            .map(|i| PeerAutomaton::new_for(table, ProcessId(i)))
            .collect();
        Observer {
            checker,
            automata,
            faults: Vec::new(),
            checks: Checks::default(),
        }
    }

    /// Creates an observer with some checks disabled (ablation only).
    pub fn with_checks(checker: CertChecker, checks: Checks) -> Self {
        let mut o = Observer::new(checker);
        o.checks = checks;
        o
    }

    /// The analyzer this observer validates against.
    pub fn checker(&self) -> &CertChecker {
        &self.checker
    }

    /// Runs the full receive pipeline on an envelope arriving over the
    /// channel from `from`; an envelope that clears it comes back
    /// [`Certified`].
    ///
    /// # Errors
    ///
    /// Any failed check: the sender is convicted, the evidence logged, and
    /// the message must be discarded by the caller.
    pub fn observe<'a>(
        &mut self,
        from: ProcessId,
        env: &'a Envelope,
        now: VirtualTime,
    ) -> Result<Certified<'a>, CertifyError> {
        // 1. Identity: the claimed sender must be the channel source
        //    (channels are point-to-point; claiming another identity is the
        //    paper's "falsified identity" fault, pinned on the source).
        if self.checks.signatures {
            if env.sender() != from {
                return Err(self.convict(
                    CertifyError::new(
                        from,
                        FaultClass::BadSignature,
                        "claimed sender differs from channel source",
                    ),
                    now,
                ));
            }
            // 2. Signature over the core.
            if let Err(e) = env.signed.verify(self.checker.dir()) {
                return Err(self.convict(e, now));
            }
        }
        // 3. Syntax.
        if let Err(e) = self.checker.check_syntax(env) {
            return Err(self.convict(e, now));
        }
        // 4. Timing: is this receipt event enabled in SM_p(q)? With the
        // signature module on, the claimed sender IS the channel source;
        // ablated, the receiver can only trust the claim (see Checks).
        let subject = if self.checks.signatures {
            from
        } else {
            env.sender()
        };
        // Checkpoints are slot-compaction metadata, not round votes: they
        // sit outside the per-round automaton alphabet (a decided peer may
        // legitimately emit one), so the timing check does not apply.
        let requirement = if self.checks.timing && env.kind() != MessageKind::Checkpoint {
            // `check_syntax` already bounded the claimed sender id by `n`.
            match self.automata[subject.index()].on_message(env) {
                Ok(req) => req,
                Err(e) => return Err(self.record(e, now)),
            }
        } else {
            Requirement::Standard
        };
        // 5–6. Certificate item signatures and per-kind predicates (the
        // PF family) — the certification module, skipped as a whole when
        // ablated.
        let certified = match self.checker.certify(env, self.checks.certificates) {
            Ok(certified) => certified,
            Err(e) => return Err(self.convict(e, now)),
        };
        // 7. Round-entry evidence when the automaton asked for it.
        if let (true, Requirement::RoundEntry(r)) = (self.checks.certificates, requirement) {
            if let Err(e) = round_entry_justified(&self.checker, env, r) {
                return Err(self.convict(e, now));
            }
        }
        Ok(certified)
    }

    fn convict(&mut self, e: CertifyError, now: VirtualTime) -> CertifyError {
        // A culprit id outside the system (only reachable with signatures
        // ablated) has no automaton: the fault is logged, nobody is framed.
        if let Some(automaton) = self.automata.get_mut(e.culprit.index()) {
            automaton.convict();
        }
        self.record(e, now)
    }

    /// Logs the first conviction of each culprit: a convicted peer's
    /// stragglers are still rejected (and counted by the caller), but the
    /// log stays bounded by the number of distinct culprits.
    fn record(&mut self, e: CertifyError, now: VirtualTime) -> CertifyError {
        if self.faults.iter().all(|f| f.culprit != e.culprit) {
            self.faults.push(FaultRecord {
                culprit: e.culprit,
                class: e.class,
                reason: e.reason,
                at: now,
            });
        }
        e
    }

    /// Whether `p` is convicted (membership in the paper's `faulty_i`).
    pub fn is_faulty(&self, p: ProcessId) -> bool {
        self.automata
            .get(p.index())
            .is_some_and(super::automaton::PeerAutomaton::is_faulty)
    }

    /// The evidence log, in conviction order: one record per culprit, its
    /// first conviction.
    pub fn faults(&self) -> &[FaultRecord] {
        &self.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::PeerPhase;
    use ftm_certify::{Certificate, Core, ValueVector};
    use ftm_crypto::keydir::KeyDirectory;
    use ftm_crypto::rsa::KeyPair;
    use std::collections::BTreeSet;

    const N: usize = 4;

    /// Phase the observer believes `p` is in (`None` for an id outside
    /// the system).
    fn phase_of(obs: &Observer, p: ProcessId) -> Option<PeerPhase> {
        obs.automata.get(p.index()).map(PeerAutomaton::phase)
    }

    fn fixture() -> (Observer, Vec<KeyPair>) {
        let mut rng = ftm_crypto::rng_from_seed(81);
        let (dir, keys) = KeyDirectory::generate(&mut rng, N, 128);
        (Observer::new(CertChecker::new(N, 1, dir)), keys)
    }

    fn init(keys: &[KeyPair], s: u32, v: u64) -> Envelope {
        Envelope::make(
            ProcessId(s),
            Core::Init { value: v },
            Certificate::new(),
            &keys[s as usize],
        )
    }

    #[test]
    fn honest_messages_pass_and_no_convictions() {
        let (mut obs, keys) = fixture();
        for s in 0..N as u32 {
            assert!(obs
                .observe(ProcessId(s), &init(&keys, s, s as u64), VirtualTime::ZERO)
                .is_ok());
        }
        assert!(obs.faults().is_empty());
        assert_eq!(phase_of(&obs, ProcessId(0)), Some(PeerPhase::Q0));
    }

    #[test]
    fn identity_falsification_blames_channel_source() {
        let (mut obs, keys) = fixture();
        // p3 sends over its channel a message claiming to be p1, even with
        // p1's genuine core signature (a replayed statement).
        let env = init(&keys, 1, 9);
        let err = obs
            .observe(ProcessId(3), &env, VirtualTime::at(4))
            .unwrap_err();
        assert_eq!(err.culprit, ProcessId(3));
        assert_eq!(err.class, FaultClass::BadSignature);
        assert!(obs.is_faulty(ProcessId(3)));
        assert!(!obs.is_faulty(ProcessId(1)));
        assert_eq!(obs.faults().len(), 1);
        assert_eq!(obs.faults()[0].at, VirtualTime::at(4));
    }

    #[test]
    fn an_out_of_range_claimed_sender_frames_nobody() {
        // With the signature module ablated (E8) the claimed sender id is
        // all the observer has; one outside the system must be logged as
        // the culprit it claims to be, not pinned on the last honest peer.
        let mut rng = ftm_crypto::rng_from_seed(81);
        let (dir, keys) = KeyDirectory::generate(&mut rng, N, 128);
        let checks = Checks {
            signatures: false,
            ..Checks::default()
        };
        let mut obs = Observer::with_checks(CertChecker::new(N, 1, dir), checks);
        let env = Envelope::make(
            ProcessId(9),
            Core::Init { value: 5 },
            Certificate::new(),
            &keys[2],
        );
        let err = obs
            .observe(ProcessId(2), &env, VirtualTime::ZERO)
            .unwrap_err();
        assert_eq!(err.culprit, ProcessId(9));
        assert!(!obs.is_faulty(ProcessId(3)));
        assert_eq!(phase_of(&obs, ProcessId(3)), Some(PeerPhase::Start));
        assert_eq!(phase_of(&obs, ProcessId(9)), None);
        assert_eq!(obs.faults().len(), 1);
        assert_eq!(obs.faults()[0].class, FaultClass::WrongSyntax);
    }

    #[test]
    fn forged_signature_convicts() {
        let (mut obs, keys) = fixture();
        // p2 signs with p3's key (stolen/broken key model).
        let env = Envelope::make(
            ProcessId(2),
            Core::Init { value: 5 },
            Certificate::new(),
            &keys[3],
        );
        let err = obs
            .observe(ProcessId(2), &env, VirtualTime::ZERO)
            .unwrap_err();
        assert_eq!(err.class, FaultClass::BadSignature);
        assert!(obs.is_faulty(ProcessId(2)));
    }

    #[test]
    fn out_of_order_convicts_via_automaton() {
        let (mut obs, keys) = fixture();
        let env = Envelope::make(
            ProcessId(1),
            Core::Next { round: 1 },
            Certificate::new(),
            &keys[1],
        );
        // First message is not INIT.
        let err = obs
            .observe(ProcessId(1), &env, VirtualTime::ZERO)
            .unwrap_err();
        assert_eq!(err.class, FaultClass::OutOfOrder);
        assert!(obs.is_faulty(ProcessId(1)));
    }

    #[test]
    fn bad_certificate_convicts_after_timing_passes() {
        let (mut obs, keys) = fixture();
        obs.observe(ProcessId(0), &init(&keys, 0, 1), VirtualTime::ZERO)
            .unwrap();
        // p0 (round-1 coordinator) sends CURRENT with an unwitnessed vector.
        let mut vect = ValueVector::empty(N);
        vect.set(0, 1);
        vect.set(1, 2);
        vect.set(2, 3);
        let env = Envelope::make(
            ProcessId(0),
            Core::Current {
                round: 1,
                vector: vect,
            },
            Certificate::new(), // no INIT backing at all
            &keys[0],
        );
        let err = obs
            .observe(ProcessId(0), &env, VirtualTime::at(7))
            .unwrap_err();
        assert_eq!(err.class, FaultClass::BadCertificate);
        assert!(obs.is_faulty(ProcessId(0)));
    }

    #[test]
    fn admitted_next_advances_the_peer_automaton() {
        let (mut obs, keys) = fixture();
        obs.observe(ProcessId(1), &init(&keys, 1, 1), VirtualTime::ZERO)
            .unwrap();
        let env = Envelope::make(
            ProcessId(1),
            Core::Next { round: 1 },
            Certificate::new(),
            &keys[1],
        );
        let admitted = obs.observe(ProcessId(1), &env, VirtualTime::at(1)).unwrap();
        assert_eq!(admitted.kind(), MessageKind::Next);
        assert_eq!(phase_of(&obs, ProcessId(1)), Some(PeerPhase::Q2));
    }

    /// The edge the rule table leaves to the observer — `next-suspicion`'s
    /// `NEXT(r − 1)` quorum, carried but read by no row — is read here: a
    /// sender's first vote of round 2 is admitted with it and convicted
    /// without it, while the row admits both.
    #[test]
    fn the_edge_no_row_reads_is_checked_on_round_entry() {
        use ftm_certify::rules::{certification_rules_for, Checked, EvidencePhase};
        use ftm_certify::{MessageCore, ProtocolId, SignedCore};
        let on_entry: Vec<_> = (ProtocolId::all().into_iter())
            .flat_map(certification_rules_for)
            .flat_map(|row| row.edges.iter().map(move |edge| (row, edge)))
            .filter(|(_, edge)| edge.checked == Checked::OnRoundEntry)
            .collect();
        let [(row, edge)] = on_entry[..] else {
            panic!("one edge is left to round entry, not {on_entry:?}");
        };
        assert_eq!(
            (row.id, edge.phase),
            ("next-suspicion", EvidencePhase::PrevRound)
        );
        assert!(edge.cites.iter().all(|cite| cite.kind == MessageKind::Next));
        let (_, keys) = fixture();
        let next = |s: u32, round, cert| {
            Envelope::make(ProcessId(s), Core::Next { round }, cert, &keys[s as usize])
        };
        let entry = Certificate::from_items((0..3u32).map(|s| {
            let core = MessageCore::new(ProcessId(s), Core::Next { round: 1 });
            SignedCore::sign(core, &keys[s as usize])
        }));
        for (cert, admitted) in [(entry, true), (Certificate::new(), false)] {
            let (mut obs, _) = fixture();
            obs.observe(ProcessId(3), &init(&keys, 3, 3), VirtualTime::ZERO)
                .unwrap();
            let round_one = next(3, 1, Certificate::new());
            obs.observe(ProcessId(3), &round_one, VirtualTime::at(1))
                .unwrap();
            let vote = next(3, 2, cert);
            assert_eq!(obs.checker().rule_for(&vote), Ok(*row));
            let verdict = obs.observe(ProcessId(3), &vote, VirtualTime::at(2));
            assert_eq!(verdict.is_ok(), admitted, "{verdict:?}");
            if let Err(e) = verdict {
                assert_eq!(
                    e.reason,
                    "first message of a new round carries no round-entry evidence"
                );
            }
        }
    }

    #[test]
    fn faults_accumulate_distinct_culprits() {
        let (mut obs, keys) = fixture();
        for s in [1u32, 2] {
            let env = Envelope::make(
                ProcessId(s),
                Core::Next { round: 1 },
                Certificate::new(),
                &keys[s as usize],
            );
            let _ = obs.observe(ProcessId(s), &env, VirtualTime::ZERO);
        }
        let set: BTreeSet<ProcessId> = obs.faults().iter().map(|f| f.culprit).collect();
        assert_eq!(set.len(), 2);
        assert!(set.contains(&ProcessId(1)) && set.contains(&ProcessId(2)));
    }

    #[test]
    fn a_convicted_peer_spamming_stragglers_keeps_one_record() {
        let (mut obs, keys) = fixture();
        let next = Envelope::make(
            ProcessId(1),
            Core::Next { round: 1 },
            Certificate::new(),
            &keys[1],
        );
        // First message is not INIT: the conviction.
        let first = obs.observe(ProcessId(1), &next, VirtualTime::ZERO);
        assert_eq!(first.unwrap_err().class, FaultClass::OutOfOrder);
        // 10 000 stragglers are each still rejected, none is logged.
        for t in 1..=10_000 {
            assert!(obs
                .observe(ProcessId(1), &next, VirtualTime::at(t))
                .is_err());
        }
        assert_eq!(obs.faults().len(), 1);
        assert_eq!(obs.faults()[0].at, VirtualTime::ZERO);
    }
}
