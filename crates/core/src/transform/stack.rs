//! The receive-side module stack (paper Fig. 1): signature module,
//! muteness failure detection, non-muteness failure detection.

use std::fmt;

use ftm_certify::analyzer::CertChecker;
use ftm_certify::{
    Certified, CertifyError, Envelope, FaultClass, MessageKind, ProtocolId, ValueVector,
};
use ftm_detect::predicates::round_entry_justified;
use ftm_detect::{PeerAutomaton, ProtocolTable, Requirement};
use ftm_fd::{FailureDetector, TimeoutDetector};
use ftm_sim::note::{Finding, Note, Stats};
use ftm_sim::{Context, Duration, ProcessId, VirtualTime};

use crate::config::{Checks, MutenessMode, ProtocolSetup};

/// Per-layer activity counters for one process's receive-side stack.
///
/// Every incoming envelope either clears all modules (`admitted`) or is
/// charged to the module that rejected it, so [`StackStats::total`]
/// equals the number of envelopes pushed through [`ModuleStack::admit`].
/// The sweep harness sums these across processes into the per-scenario
/// metrics record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Envelopes accepted by all modules (these feed ◇M).
    pub admitted: u64,
    /// Rejections by the signature module (`bad-signature`).
    pub signature_rejects: u64,
    /// Rejections by the certification analyzer (`bad-certificate`).
    pub certificate_rejects: u64,
    /// Rejections by the non-muteness automaton (`out-of-order` /
    /// wrong-expected receipts).
    pub automaton_rejects: u64,
    /// Rejections for malformed content (`wrong-syntax`).
    pub syntax_rejects: u64,
    /// Checkpoint envelopes that cleared all modules (a subset of
    /// [`admitted`]): quorum-backed slot compactions this stack audited
    /// and accepted. Forged or sub-quorum checkpoints land in
    /// [`certificate_rejects`] like any other bad certificate.
    ///
    /// [`admitted`]: StackStats::admitted
    /// [`certificate_rejects`]: StackStats::certificate_rejects
    pub checkpoints: u64,
    /// Rejected envelopes whose sender was already convicted
    /// (quarantine): dropped without a fresh conviction note. A subset
    /// of the reject counters above, not an addition to [`total`].
    ///
    /// [`total`]: StackStats::total
    pub quarantined: u64,
}

impl StackStats {
    /// Total envelopes pushed through the stack.
    pub fn total(&self) -> u64 {
        self.admitted
            + self.signature_rejects
            + self.certificate_rejects
            + self.automaton_rejects
            + self.syntax_rejects
    }

    fn on_reject(&mut self, class: FaultClass) {
        match class {
            FaultClass::BadSignature => self.signature_rejects += 1,
            FaultClass::BadCertificate => self.certificate_rejects += 1,
            FaultClass::OutOfOrder => self.automaton_rejects += 1,
            FaultClass::WrongSyntax => self.syntax_rejects += 1,
        }
    }
}

/// Modules 1–3 of the paper's process structure (Fig. 1), as one
/// pipeline with per-class rejection statistics.
///
/// * The **signature module** checks that the claimed sender matches the
///   channel and that the core signature verifies.
/// * The **muteness detection module** (◇M) is fed *only with messages the
///   other modules accept*: a process spewing garbage is as mute as one
///   saying nothing — exactly why muteness detection cannot be
///   context-free (Doudou et al., cited in §1).
/// * The **non-muteness detection module** runs the per-peer state machine
///   and the certificate analyzer.
///
/// The protocol module reads two outputs: `suspected` (muteness) and
/// `faulty` (everything else), mirroring the paper's `suspected_i ∪
/// faulty_i` guard at Fig. 3 line 22. What it *consumes* is a
/// [`Certified`] envelope, which only [`admit`](Self::admit) (and
/// [`receive`](Self::receive) on top of it) hands out.
///
/// # Example
///
/// ```
/// use ftm_certify::{Certificate, Core, Envelope, ProtocolId};
/// use ftm_core::config::ProtocolConfig;
/// use ftm_core::transform::ModuleStack;
/// use ftm_sim::{ProcessId, VirtualTime};
///
/// let setup = ProtocolConfig::new(4, 1).seed(8).setup();
/// let mut stack = ModuleStack::for_setup(ProtocolId::HurfinRaynal, &setup);
/// let env = Envelope::make(ProcessId(1), Core::Init { value: 4 },
///                          Certificate::new(), &setup.keys[1]);
/// assert!(stack.admit(ProcessId(1), &env, VirtualTime::ZERO).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct ModuleStack {
    checker: CertChecker,
    checks: Checks,
    /// `SM_p(q)` for every peer `q` (paper Fig. 4), indexed by id.
    automata: Vec<PeerAutomaton>,
    muteness: TimeoutDetector,
    stats: StackStats,
}

impl ModuleStack {
    /// Builds the stack a transformed-protocol process embeds: the
    /// analyzer keyed to `protocol`'s rule table, one automaton per peer
    /// from `protocol`'s table, the checks and ◇M allowance schedule
    /// selected by the setup's configuration.
    pub fn for_setup(protocol: ProtocolId, setup: &ProtocolSetup) -> Self {
        let res = setup.resilience;
        let table = ProtocolTable::for_protocol(protocol);
        let per_round = match setup.config.muteness_mode {
            MutenessMode::Adaptive => Duration::ZERO,
            MutenessMode::RoundAware { per_round } => per_round,
        };
        ModuleStack {
            checker: CertChecker::new_for(protocol, res.n(), res.f(), setup.dir.clone()),
            checks: setup.config.checks,
            automata: (0..res.n() as u32)
                .map(|i| PeerAutomaton::new_for(table, ProcessId(i)))
                .collect(),
            muteness: TimeoutDetector::round_aware(
                res.n(),
                setup.config.muteness_timeout,
                per_round,
            ),
            stats: StackStats::default(),
        }
    }

    /// Forwards this process's round progression to the muteness module
    /// (meaningful for the round-aware ◇M schedule).
    pub fn enter_round(&mut self, round: u64) {
        self.muteness.enter_round(round);
    }

    /// Pushes one incoming envelope through modules 1–3: identity and
    /// core signature, syntax, the sender's automaton, the certificate
    /// and, on round entry, its evidence — in that order, so an envelope
    /// failing two checks is charged to the first.
    ///
    /// # Errors
    ///
    /// Some module rejected the message; it must be dropped. The culprit
    /// has been convicted and the rejecting module's counter moved.
    pub fn admit<'a>(
        &mut self,
        from: ProcessId,
        env: &'a Envelope,
        now: VirtualTime,
    ) -> Result<Certified<'a>, CertifyError> {
        let checks = self.checks;
        // The signature module. Channels are point-to-point, so claiming
        // another identity is the paper's "falsified identity" fault,
        // pinned on the channel source.
        let signed = if !checks.signatures {
            Ok(())
        } else if env.sender() != from {
            let reason = "claimed sender differs from channel source";
            Err(CertifyError::new(from, FaultClass::BadSignature, reason))
        } else {
            env.signed.verify(self.checker.dir())
        };
        let verdict = signed
            .and_then(|()| self.checker.check_syntax(env))
            .and_then(|()| {
                // Timing: is this receipt event enabled in SM_p(q)? `q` is
                // the claimed sender, which the signature module has
                // matched to the channel source; ablated, only the claim
                // is left. Checkpoints are slot-compaction metadata
                // outside the per-round alphabet (a decided peer may emit
                // one).
                if checks.timing && env.kind() != MessageKind::Checkpoint {
                    // `check_syntax` already bounded the claimed id by `n`.
                    self.automata[env.sender().index()].on_message(env)
                } else {
                    Ok(Requirement::Standard)
                }
            })
            .and_then(|requirement| {
                // The certification module (the `PF` family), then the
                // round-entry evidence the automaton asked for.
                let certified = self.checker.certify(env, checks.certificates)?;
                if let (true, Requirement::RoundEntry(r)) = (checks.certificates, requirement) {
                    round_entry_justified(&self.checker, env, r)?;
                }
                Ok(certified)
            });
        match verdict {
            Ok(certified) => {
                // Only *accepted* protocol messages count against muteness.
                self.muteness.observe_message(from, now);
                self.stats.admitted += 1;
                if env.kind() == MessageKind::Checkpoint {
                    self.stats.checkpoints += 1;
                }
                Ok(certified)
            }
            Err(e) => {
                // A culprit outside the system (only reachable with
                // signatures ablated) has no automaton: nobody is framed.
                if let Some(automaton) = self.automata.get_mut(e.culprit.index()) {
                    automaton.convict();
                }
                self.stats.on_reject(e.class);
                Err(e)
            }
        }
    }

    /// The receive path of Fig. 1 as an actor sees it: signature →
    /// muteness → non-muteness, with the conviction noted on `ctx`.
    /// `None` means the envelope was dropped.
    ///
    /// An actor's admitted-message handler takes the [`Certified`] this
    /// returns, so skipping the stack does not type-check:
    ///
    /// ```
    /// use ftm_certify::{Certified, Envelope, ValueVector};
    /// use ftm_core::transform::ModuleStack;
    /// use ftm_sim::{Context, ProcessId};
    ///
    /// struct MiniActor { stack: ModuleStack, admitted: u32 }
    ///
    /// impl MiniActor {
    ///     fn handle_admitted(&mut self, _env: Certified<'_>) { self.admitted += 1; }
    ///
    ///     fn on_message(&mut self, from: ProcessId, env: &Envelope,
    ///                   ctx: &mut Context<'_, Envelope, ValueVector>) {
    ///         if let Some(env) = self.stack.receive(from, env, ctx) {
    ///             self.handle_admitted(env);
    ///         }
    ///     }
    /// }
    /// ```
    ///
    /// The same actor with the `receive` call dropped (everything else,
    /// hidden here, is unchanged) is rejected by rustc:
    ///
    /// ```compile_fail
    /// # use ftm_certify::{Certified, Envelope, ValueVector};
    /// # use ftm_core::transform::ModuleStack;
    /// # use ftm_sim::{Context, ProcessId};
    /// # struct MiniActor { stack: ModuleStack, admitted: u32 }
    /// # impl MiniActor {
    /// #     fn handle_admitted(&mut self, _env: Certified<'_>) { self.admitted += 1; }
    ///     fn on_message(&mut self, from: ProcessId, env: &Envelope,
    ///                   ctx: &mut Context<'_, Envelope, ValueVector>) {
    ///         self.handle_admitted(env);
    ///     }
    /// # }
    /// ```
    pub fn receive<'a>(
        &mut self,
        from: ProcessId,
        env: &'a Envelope,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) -> Option<Certified<'a>> {
        // Whether a rejection is a straggler depends on whom `admit`
        // names, and that is the channel source `from` for a falsified
        // identity but the claimed sender otherwise (the two differ only
        // then, or with the signature module ablated) — so sample both
        // before the conviction lands.
        let from_was_faulty = self.is_faulty(from);
        let claimed_was_faulty = self.is_faulty(env.sender());
        match self.admit(from, env, ctx.now()) {
            Ok(certified) => Some(certified),
            Err(e) => {
                let was_faulty = if e.culprit == from {
                    from_was_faulty
                } else {
                    claimed_was_faulty
                };
                // Messages from an already convicted peer are quarantined
                // silently — the detection already happened; re-noting every
                // dropped straggler would inflate the detection metrics with
                // protocol-dependent traffic-volume artifacts.
                if was_faulty {
                    self.stats.quarantined += 1;
                } else {
                    ctx.note(Note::Detected(Finding {
                        culprit: e.culprit,
                        class: e.class.label(),
                        reason: e.reason,
                    }));
                }
                None
            }
        }
    }

    /// The muteness detector's current verdict on `p` (◇M query).
    pub fn suspects(&mut self, p: ProcessId, now: VirtualTime) -> bool {
        self.muteness.suspects(p, now)
    }

    /// The non-muteness module's verdict on `p` (membership in the
    /// paper's `faulty_i`).
    pub fn is_faulty(&self, p: ProcessId) -> bool {
        self.automata
            .get(p.index())
            .is_some_and(PeerAutomaton::is_faulty)
    }

    /// The Fig. 3 line 22 guard: `p ∈ (suspected_i ∨ faulty_i)`.
    pub fn suspected_or_faulty(&mut self, p: ProcessId, now: VirtualTime) -> bool {
        self.is_faulty(p) || self.suspects(p, now)
    }

    /// The stack's counters as a [`Note::StackStats`], which the sweep
    /// harness reads into per-cell metrics, rendered where the note is
    /// written. Includes the ◇M mistake totals, split into mistakes about
    /// peers later convicted anyway versus mistakes about (still-)honest
    /// peers.
    pub fn stats_note(&self) -> impl fmt::Display + '_ {
        StatsNote(self)
    }
}

/// [`ModuleStack::stats_note`]: the counters as they stand when rendered.
struct StatsNote<'a>(&'a ModuleStack);

impl fmt::Display for StatsNote<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stack = self.0;
        let n = stack.checker.n();
        let honest_mistakes: u64 = (0..n as u32)
            .map(ProcessId)
            .filter(|&p| !stack.is_faulty(p))
            .map(|p| stack.muteness.mistakes_for(p))
            .sum();
        let s = stack.stats;
        let pairs = [
            ("admitted", s.admitted),
            ("sig-rejects", s.signature_rejects),
            ("cert-rejects", s.certificate_rejects),
            ("auto-rejects", s.automaton_rejects),
            ("syntax-rejects", s.syntax_rejects),
            ("fd-mistakes", stack.muteness.mistakes()),
            ("fd-honest-mistakes", honest_mistakes),
            ("quarantined", s.quarantined),
            ("checkpoints", s.checkpoints),
        ];
        Note::StackStats(Stats::Pairs(&pairs)).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_certify::{Certificate, Core};
    use ftm_crypto::rsa::KeyPair;
    use ftm_sim::process::Effects;

    use crate::config::ProtocolConfig;

    /// A (4, 1) Hurfin–Raynal stack with a 50-tick ◇M timeout, built the
    /// one way stacks are built.
    fn fixture_with(checks: Checks) -> (ModuleStack, Vec<KeyPair>) {
        let setup = ProtocolConfig::new(4, 1)
            .seed(91)
            .muteness_timeout(Duration::of(50))
            .checks(checks)
            .setup();
        let stack = ModuleStack::for_setup(ProtocolId::HurfinRaynal, &setup);
        (stack, setup.keys)
    }

    fn fixture() -> (ModuleStack, Vec<KeyPair>) {
        fixture_with(Checks::default())
    }

    fn init(keys: &[KeyPair], s: u32) -> Envelope {
        Envelope::make(
            ProcessId(s),
            Core::Init { value: s as u64 },
            Certificate::new(),
            &keys[s as usize],
        )
    }

    #[test]
    fn accepted_messages_feed_the_muteness_detector() {
        let (mut stack, keys) = fixture();
        assert!(stack
            .admit(ProcessId(1), &init(&keys, 1), VirtualTime::at(60))
            .is_ok());
        // p1 spoke at t=60: not suspected shortly after.
        assert!(!stack.suspects(ProcessId(1), VirtualTime::at(100)));
        // p2 never spoke: suspected once the timeout elapses.
        assert!(stack.suspects(ProcessId(2), VirtualTime::at(100)));
    }

    #[test]
    fn discarded_messages_do_not_feed_the_muteness_detector() {
        let (mut stack, keys) = fixture();
        // p1 sends garbage (signed with the wrong key) at t=60.
        let bad = Envelope::make(
            ProcessId(1),
            Core::Init { value: 0 },
            Certificate::new(),
            &keys[2],
        );
        assert!(stack
            .admit(ProcessId(1), &bad, VirtualTime::at(60))
            .is_err());
        // Garbage is not a sign of protocol life: p1 is both faulty and,
        // once the timeout passes, suspected.
        assert!(stack.is_faulty(ProcessId(1)));
        assert!(stack.suspects(ProcessId(1), VirtualTime::at(100)));
        assert!(stack.suspected_or_faulty(ProcessId(1), VirtualTime::at(100)));
    }

    #[test]
    fn accessors_expose_modules() {
        let (mut stack, keys) = fixture();
        let _ = stack.admit(ProcessId(0), &init(&keys, 0), VirtualTime::ZERO);
        assert!(!stack.is_faulty(ProcessId(0)));
        assert_eq!(stack.muteness.mistakes(), 0);
        assert_eq!(stack.checker.quorum(), 3);
    }

    #[test]
    fn stats_charge_each_layer_for_its_rejections() {
        let (mut stack, keys) = fixture();
        // One clean INIT: admitted.
        let _ = stack.admit(ProcessId(1), &init(&keys, 1), VirtualTime::ZERO);
        // Same INIT again: a duplicate, rejected by the automaton.
        let _ = stack.admit(ProcessId(1), &init(&keys, 1), VirtualTime::at(1));
        // Signed with the wrong key: rejected by the signature module.
        let bad_sig = Envelope::make(
            ProcessId(2),
            Core::Init { value: 0 },
            Certificate::new(),
            &keys[0],
        );
        let _ = stack.admit(ProcessId(2), &bad_sig, VirtualTime::at(2));
        let stats = stack.stats;
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.automaton_rejects, 1);
        assert_eq!(stats.signature_rejects, 1);
        assert_eq!(stats.certificate_rejects, 0);
        assert_eq!(stats.total(), 3);
    }

    #[test]
    fn stats_note_reports_all_counters_in_harness_format() {
        let (mut stack, keys) = fixture();
        let _ = stack.admit(ProcessId(1), &init(&keys, 1), VirtualTime::ZERO);
        // p2 forges a signature: the first drop is the detection, the two
        // stragglers after it are quarantined without a second note.
        let bad = Envelope::make(
            ProcessId(2),
            Core::Init { value: 0 },
            Certificate::new(),
            &keys[0],
        );
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx = Context::new(VirtualTime::at(1), ProcessId(0), 4, &mut draw, &mut fx);
        for _ in 0..3 {
            assert!(stack.receive(ProcessId(2), &bad, &mut ctx).is_none());
        }
        assert_eq!(
            fx.notes,
            ["detected=p2 class=bad-signature reason=core signature does not verify for claimed sender"]
        );
        assert_eq!(stack.stats.quarantined, 2);
        // Quarantined envelopes are a subset of the rejects, not an
        // extra term of total().
        assert_eq!(stack.stats.total(), 4);
        assert_eq!(
            stack.stats_note().to_string(),
            "stack-stats admitted=1 sig-rejects=3 cert-rejects=0 \
             auto-rejects=0 syntax-rejects=0 fd-mistakes=0 \
             fd-honest-mistakes=0 quarantined=2 checkpoints=0"
        );
    }

    #[test]
    fn stats_note_is_the_rendering_of_its_stack_stats_note() {
        let (mut stack, keys) = fixture();
        let _ = stack.admit(ProcessId(1), &init(&keys, 1), VirtualTime::ZERO);
        let _ = stack.admit(ProcessId(1), &init(&keys, 1), VirtualTime::ZERO);
        stack.stats.quarantined = 4;
        let text = stack.stats_note().to_string();
        let (None, note @ Note::StackStats(stats)) = Note::parse(&text) else {
            panic!("not a stack-stats note: {text}");
        };
        assert_eq!(note.to_string(), text);
        let s = stack.stats;
        assert_eq!(
            stats.iter().collect::<Vec<_>>(),
            [
                ("admitted", s.admitted),
                ("sig-rejects", s.signature_rejects),
                ("cert-rejects", s.certificate_rejects),
                ("auto-rejects", s.automaton_rejects),
                ("syntax-rejects", s.syntax_rejects),
                ("fd-mistakes", 0),
                ("fd-honest-mistakes", 0),
                ("quarantined", 4),
                ("checkpoints", s.checkpoints),
            ]
        );
        assert_eq!((s.admitted, s.automaton_rejects), (1, 1));
    }

    /// The notes and quarantine count after observer p0 receives each of
    /// `arrivals` (channel source, envelope) in order.
    fn receive_all(stack: &mut ModuleStack, arrivals: &[(u32, &Envelope)]) -> (Vec<String>, u64) {
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx = Context::new(VirtualTime::at(1), ProcessId(0), 4, &mut draw, &mut fx);
        for &(from, env) in arrivals {
            assert!(stack.receive(ProcessId(from), env, &mut ctx).is_none());
        }
        (fx.notes, stack.stats.quarantined)
    }

    const STOLEN: &str =
        "detected=p2 class=bad-signature reason=claimed sender differs from channel source";

    #[test]
    fn an_identity_thief_is_quarantined_after_its_first_conviction() {
        // p2 keeps sending under honest p1's name: the culprit is the
        // channel source, so the stragglers are p2's, not p1's.
        let (mut stack, keys) = fixture();
        let stolen = init(&keys, 1);
        let (notes, quarantined) =
            receive_all(&mut stack, &[(2, &stolen), (2, &stolen), (2, &stolen)]);
        assert_eq!(notes, [STOLEN]);
        assert_eq!(quarantined, 2);
        assert!(stack.is_faulty(ProcessId(2)) && !stack.is_faulty(ProcessId(1)));
    }

    #[test]
    fn a_thief_hiding_behind_a_convicted_victim_is_still_noted() {
        // p1 is convicted first; p2 then steals p1's identity. The victim's
        // conviction must not swallow the thief's.
        let (mut stack, keys) = fixture();
        let wrong_key = Envelope::make(
            ProcessId(1),
            Core::Init { value: 0 },
            Certificate::new(),
            &keys[0],
        );
        let stolen = init(&keys, 1);
        let (notes, quarantined) = receive_all(&mut stack, &[(1, &wrong_key), (2, &stolen)]);
        assert_eq!(notes.len(), 2, "{notes:?}");
        assert!(notes[0].starts_with("detected=p1 class=bad-signature"));
        assert_eq!(notes[1], STOLEN);
        assert_eq!(quarantined, 0);
    }

    /// A quorum-backed slot-4 checkpoint from p1, and p2's forgery of it:
    /// same quorum, digest over a vector the quorum does not certify.
    fn good_and_forged_checkpoint(keys: &[KeyPair]) -> (Envelope, Envelope) {
        use ftm_certify::{make_checkpoint, SignedCore};

        let vect = ValueVector::from_entries(vec![Some(7), Some(8), Some(9), None]);
        let quorum = Certificate::from_items((0..3u32).map(|s| {
            SignedCore::sign(
                ftm_certify::MessageCore::new(
                    ProcessId(s),
                    Core::Current {
                        round: 1,
                        vector: vect.clone(),
                    },
                ),
                &keys[s as usize],
            )
        }));
        let mut other = vect.clone();
        other.set(3, 99);
        let hr = ProtocolId::HurfinRaynal;
        (
            make_checkpoint(hr, 4, &vect, quorum.clone(), ProcessId(1), &keys[1]),
            make_checkpoint(hr, 4, &other, quorum, ProcessId(2), &keys[2]),
        )
    }

    #[test]
    fn checkpoints_are_admitted_and_counted_and_forgeries_convicted() {
        let (mut stack, keys) = fixture();
        let (good, forged) = good_and_forged_checkpoint(&keys);
        // A quorum-backed checkpoint clears the stack and is counted.
        assert!(stack.admit(ProcessId(1), &good, VirtualTime::ZERO).is_ok());
        assert_eq!(stack.stats.checkpoints, 1);
        assert_eq!(stack.stats.admitted, 1);
        // A forged digest (quorum certifies a different vector) is a
        // bad-certificate conviction, not a counted checkpoint.
        assert!(stack
            .admit(ProcessId(2), &forged, VirtualTime::at(1))
            .is_err());
        assert_eq!(stack.stats.checkpoints, 1);
        assert_eq!(stack.stats.certificate_rejects, 1);
        assert!(stack.is_faulty(ProcessId(2)));
        assert!(stack.stats_note().to_string().contains("checkpoints=1"));
    }

    /// E8 ablation: with the certification module off, the stack admits
    /// the forgery the default stack convicts above — and what it hands
    /// back is still a `Certified`, minted by the same
    /// `CertChecker::certify` every gate ends in (no second constructor).
    #[test]
    fn ablated_certification_still_admits_through_the_one_mint() {
        let (mut ablated, keys) = fixture_with(Checks {
            certificates: false,
            ..Checks::default()
        });
        let (_good, forged) = good_and_forged_checkpoint(&keys);
        let admitted: Certified<'_> = ablated
            .admit(ProcessId(2), &forged, VirtualTime::ZERO)
            .expect("certification ablated");
        assert_eq!(admitted.sender(), ProcessId(2));
        assert_eq!(ablated.stats.admitted, 1);
        assert_eq!(ablated.stats.certificate_rejects, 0);
        assert!(!ablated.is_faulty(ProcessId(2)));
    }

    #[test]
    fn honest_mistakes_exclude_convicted_peers() {
        let (mut stack, keys) = fixture();
        // Force a muteness mistake on p1: suspect, then rehabilitate.
        assert!(stack.suspects(ProcessId(1), VirtualTime::at(60)));
        let _ = stack.admit(ProcessId(1), &init(&keys, 1), VirtualTime::at(61));
        assert_eq!(stack.muteness.mistakes(), 1);
        assert!(stack
            .stats_note()
            .to_string()
            .contains("fd-honest-mistakes=1"));
        // Convict p1 via a forged signature: its past mistake no longer
        // counts as a mistake about an honest peer.
        let bad = Envelope::make(
            ProcessId(1),
            Core::Init { value: 0 },
            Certificate::new(),
            &keys[2],
        );
        let _ = stack.admit(ProcessId(1), &bad, VirtualTime::at(62));
        assert!(stack.is_faulty(ProcessId(1)));
        assert!(stack
            .stats_note()
            .to_string()
            .contains("fd-honest-mistakes=0"));
        assert!(stack.stats_note().to_string().contains("fd-mistakes=1"));
    }
}
