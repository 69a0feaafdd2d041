//! Event-driven rendering of the transformed consensus (paper Fig. 3).
//!
//! Line-number comments reference Fig. 3. The structural differences from
//! the crash protocol (Fig. 2) are exactly the paper's gray-shaded parts:
//! the INIT phase, certificates on every send, the module-stack receive
//! pipeline, quorums of `n − F`, and the `suspected ∪ faulty` guard.

use ftm_certify::vector::VectorBuilder;
use ftm_certify::{
    Certificate, Certified, Core, Envelope, MessageKind, Round, SignedCore, Value, ValueVector,
};
use ftm_crypto::rsa::KeyPair;
use ftm_sim::{Actor, Context, Duration, ProcessId, TimerTag};

use crate::config::ProtocolSetup;
use crate::spec::Resilience;
use crate::transform::rules::{change_mind_from_certificates, state_from_certificates, PaperState};
use crate::transform::ModuleStack;

const POLL_TIMER: TimerTag = 1;

/// Which part of the protocol the process is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Lines 4–9: collecting `n − F` INITs.
    VectorCert,
    /// Lines 10–32: the round loop.
    Rounds,
}

/// One process of the transformed protocol.
///
/// # Example
///
/// ```
/// use ftm_core::byzantine::ByzantineConsensus;
/// use ftm_core::config::ProtocolConfig;
/// use ftm_sim::{SimConfig, Simulation};
///
/// let setup = ProtocolConfig::new(4, 1).setup();
/// let report = Simulation::build_boxed(SimConfig::new(4).seed(3), |id| {
///     Box::new(ByzantineConsensus::new(&setup, id, id.0 as u64))
/// })
/// .run();
/// assert!(report.all_decided());
/// ```
#[derive(Debug)]
pub struct ByzantineConsensus {
    res: Resilience,
    me: ProcessId,
    value: Value,
    keys: KeyPair,
    stack: ModuleStack,
    poll_interval: Duration,
    phase: Phase,
    // Vector-certification phase (lines 4–9).
    builder: Option<VectorBuilder>,
    // Round state (lines 10–32).
    r: Round,
    est_vect: ValueVector,
    est_cert: Certificate,
    current_cert: Certificate,
    next_cert: Certificate,
    /// The `n − F` NEXT(r−1) items that justified entering round `r`
    /// (carried by our first sends of the round as round-entry evidence).
    entry_cert: Certificate,
    /// The coordinator's signed CURRENT for this round, once seen
    /// (needed to certify relays, line 19).
    coord_core: Option<SignedCore>,
    sent_next: bool,
    buffered: Vec<(ProcessId, Certified<'static>)>,
    decided: bool,
    /// The decide-vote quorum (CURRENT items) this decision rests on,
    /// kept after halting so the log layer can compact it into a
    /// checkpoint (see `ftm_certify::checkpoint`).
    decide_evidence: Option<Certificate>,
}

impl ByzantineConsensus {
    /// Creates a process proposing `value`.
    ///
    /// # Panics
    ///
    /// Panics if `me` has no key pair in `setup`.
    pub fn new(setup: &ProtocolSetup, me: ProcessId, value: Value) -> Self {
        let res = setup.resilience;
        ByzantineConsensus {
            res,
            me,
            value,
            keys: setup.keys[me.index()].clone(),
            stack: ModuleStack::for_setup(ftm_certify::ProtocolId::HurfinRaynal, setup),
            poll_interval: setup.config.poll_interval,
            phase: Phase::VectorCert,
            builder: Some(VectorBuilder::new(res.n(), res.f())),
            r: 0,
            est_vect: ValueVector::empty(res.n()),
            est_cert: Certificate::new(),
            current_cert: Certificate::new(),
            next_cert: Certificate::new(),
            entry_cert: Certificate::new(),
            coord_core: None,
            sent_next: false,
            buffered: Vec::new(),
            decided: false,
            decide_evidence: None,
        }
    }

    /// Read access to the module stack (evidence logs, detector state).
    pub fn stack(&self) -> &ModuleStack {
        &self.stack
    }

    /// The CURRENT quorum backing this process's decision, once decided.
    pub fn decide_evidence(&self) -> Option<&Certificate> {
        self.decide_evidence.as_ref()
    }

    fn quorum(&self) -> usize {
        self.res.quorum()
    }

    fn coordinator(&self) -> ProcessId {
        ProcessId(self.res.coordinator(self.r) as u32)
    }

    /// Signs and broadcasts a message, mirroring the send path of Fig. 1
    /// (certification module appends `cert`, signature module signs).
    fn send_all(
        &self,
        core: Core,
        cert: Certificate,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) {
        ctx.broadcast(Envelope::make(self.me, core, cert, &self.keys));
    }

    /// The paper's certificate-derived state expression (§5.1) — asserted
    /// against the explicit flags at every use.
    fn derived_state(&self) -> PaperState {
        state_from_certificates(
            self.current_cert.count(MessageKind::Current, self.r),
            self.sent_next,
        )
    }

    /// Lines 11–13: open round `r + 1`.
    fn begin_round(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        // The NEXT quorum that ended the previous round becomes the
        // round-entry evidence for this one (the paper's "r is certified
        // by next_cert before it is reset").
        self.entry_cert = std::mem::take(&mut self.next_cert);
        self.r += 1;
        self.current_cert = Certificate::new();
        self.coord_core = None;
        self.sent_next = false;
        self.stack.enter_round(self.r, ctx.now());
        ctx.note(format!("round={}", self.r));
        // Per-round stack snapshot: the harness keeps the *last* note per
        // process, so churn under adverse networks is visible even when
        // the run never decides.
        ctx.note(self.stack.stats_note());
        debug_assert_eq!(self.derived_state(), PaperState::Q0);
        if self.me == self.coordinator() {
            // Line 12: the coordinator proposes its certified vector,
            // certified by est_cert ∪ next_cert (entry evidence).
            self.send_all(
                Core::Current {
                    round: self.r,
                    vector: self.est_vect.clone(),
                },
                self.est_cert.union(&self.entry_cert),
                ctx,
            );
        }
        self.drain_buffer(ctx);
    }

    fn drain_buffer(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        loop {
            if self.decided {
                return;
            }
            let r = self.r;
            let Some(pos) = self
                .buffered
                .iter()
                .position(|(_, env)| env.round() == r && env.kind() != MessageKind::Init)
            else {
                return;
            };
            let (from, env) = self.buffered.remove(pos);
            self.handle_admitted(from, env, ctx);
        }
    }

    /// Vote NEXT exactly once per round; the own signed NEXT joins
    /// `next_cert` immediately, which *is* the paper's `state = q2`
    /// expressed over certificates.
    fn vote_next(&mut self, cert: Certificate, ctx: &mut Context<'_, Envelope, ValueVector>) {
        debug_assert!(!self.sent_next, "double NEXT would convict us");
        let core = Core::Next { round: self.r };
        let own = SignedCore::sign(
            ftm_certify::MessageCore::new(self.me, core.clone()),
            &self.keys,
        );
        self.next_cert.insert(own);
        self.sent_next = true;
        self.send_all(core, cert, ctx);
        debug_assert_eq!(self.derived_state(), PaperState::Q2);
    }

    /// Lines 20–21 and 2–3: decide, announce, stop.
    fn decide(
        &mut self,
        round: Round,
        vector: ValueVector,
        cert: Certificate,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) {
        self.decided = true;
        self.decide_evidence = Some(cert.clone());
        self.send_all(
            Core::Decide {
                round,
                vector: vector.clone(),
            },
            cert,
            ctx,
        );
        // Final per-layer receive-side tally, in note form so trace
        // consumers (the sweep harness) can collect it without reaching
        // into actor state.
        ctx.note(self.stack.stats_note());
        ctx.decide(vector);
        ctx.halt();
    }

    /// CURRENT items in `current_cert` that endorse exactly `est_vect`.
    fn matching_current(&self) -> Certificate {
        Certificate::from_items(
            self.current_cert
                .iter_kind_round(MessageKind::Current, self.r)
                .filter(|i| i.core().core.vector() == Some(&self.est_vect))
                .cloned(),
        )
    }

    fn handle_admitted(
        &mut self,
        from: ProcessId,
        env: Certified<'_>,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) {
        match env.core().clone() {
            Core::Init { .. } => {
                if self.phase != Phase::VectorCert {
                    return; // late INIT beyond the n − F we waited for
                }
                let Some(builder) = self.builder.as_mut() else {
                    return; // VectorCert phase always carries a live builder
                };
                builder.absorb(&env);
                if builder.complete() {
                    // Lines 6–9 exit: the certified vector is ready.
                    let Some(done) = self.builder.take() else {
                        return;
                    };
                    let (vect, cert) = done.finish();
                    self.est_vect = vect;
                    self.est_cert = cert;
                    self.phase = Phase::Rounds;
                    ctx.note(format!("vector-certified vect={:?}", self.est_vect));
                    self.begin_round(ctx);
                }
            }
            Core::Current { round, vector } => {
                if self.phase != Phase::Rounds || round > self.r {
                    self.buffered.push((from, env.into_owned()));
                    return;
                }
                if round < self.r {
                    return; // stale vote, discarded (footnote 5)
                }
                let was_empty = self.current_cert.count(MessageKind::Current, self.r) == 0;
                self.current_cert.insert(env.signed.clone());
                if was_empty {
                    // Line 17: adopt the first CURRENT's vector and the
                    // INIT backing from its certificate.
                    self.est_vect = vector.clone();
                    self.est_cert = env.cert.init_portion();
                    self.coord_core = if from == self.coordinator() {
                        Some(env.signed.clone())
                    } else {
                        env.cert
                            .find_current(self.coordinator(), self.r, &vector)
                            .cloned()
                    };
                    debug_assert!(self.coord_core.is_some(), "analyzer guarantees backing");
                    // Lines 18–19: q0 → q1 with a certified relay.
                    if !self.sent_next && self.me != self.coordinator() {
                        let mut cert = self.est_cert.clone();
                        if let Some(cc) = &self.coord_core {
                            cert.insert(cc.clone());
                        }
                        self.send_all(
                            Core::Current {
                                round: self.r,
                                vector: self.est_vect.clone(),
                            },
                            cert,
                            ctx,
                        );
                    }
                    debug_assert_ne!(self.derived_state(), PaperState::Q0);
                }
                // Lines 20–21: a quorum endorsing our vector decides.
                let matching = self.matching_current();
                if matching.count(MessageKind::Current, self.r) >= self.quorum() {
                    self.decide(self.r, self.est_vect.clone(), matching, ctx);
                    return;
                }
                self.after_vote(ctx);
            }
            Core::Next { round } => {
                if self.phase != Phase::Rounds || round > self.r {
                    self.buffered.push((from, env.into_owned()));
                    return;
                }
                if round < self.r {
                    return;
                }
                // Lines 26–27.
                self.next_cert.insert(env.signed.clone());
                self.after_vote(ctx);
            }
            Core::Decide { round, vector } => {
                // Lines 2–3: relay with the same certificate and decide.
                self.decide(round, vector, env.cert.clone(), ctx);
            }
            Core::Estimate { .. } | Core::Propose { .. } | Core::Ack { .. } | Core::Nack { .. } => {
                // Chandra–Toueg kinds: the observer convicts them as
                // outside Hurfin–Raynal's alphabet before admission.
                debug_assert!(false, "HR stack admitted a CT-kind message");
            }
            Core::Checkpoint { .. } => {
                // Log-layer compaction metadata: valid (the analyzer
                // audited its quorum), but a single consensus instance has
                // nothing to do with it — slot retention is the
                // `ReplicatedLog`'s business.
            }
        }
    }

    /// The `upon` cascade evaluated after every vote (change_mind, round
    /// end) — lines 28–31.
    fn after_vote(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        if self.decided {
            return;
        }
        let currents = self.current_cert.count(MessageKind::Current, self.r);
        let nexts = self.next_cert.count(MessageKind::Next, self.r);
        let rec_from = self
            .current_cert
            .union(&self.next_cert)
            .rec_from(self.r)
            .len();
        // Lines 28–29: change_mind, expressed over certificates.
        if change_mind_from_certificates(currents, nexts, self.sent_next, rec_from, self.quorum()) {
            ctx.note(format!("change-mind r={}", self.r));
            let cert = self
                .current_cert
                .union(&self.next_cert)
                .union(&self.entry_cert);
            self.vote_next(cert, ctx);
        }
        // Line 14 exit + 31: a NEXT quorum ends the round.
        if self.next_cert.count(MessageKind::Next, self.r) >= self.quorum() {
            if !self.sent_next {
                let cert = self.next_cert.union(&self.entry_cert);
                self.vote_next(cert, ctx);
            }
            self.begin_round(ctx);
        }
    }
}

impl Actor for ByzantineConsensus {
    type Msg = Envelope;
    type Decision = ValueVector;

    fn on_start(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        // Line 5: broadcast the signed proposal with an empty certificate.
        self.send_all(Core::Init { value: self.value }, Certificate::new(), ctx);
        ctx.set_timer(self.poll_interval, POLL_TIMER);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        env: &Envelope,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) {
        if self.decided {
            return;
        }
        // The receive path of Fig. 1: signature → muteness → non-muteness.
        if let Some(env) = self.stack.receive(from, env, ctx) {
            self.handle_admitted(from, env, ctx);
        }
    }

    fn on_timer(&mut self, _tag: TimerTag, ctx: &mut Context<'_, Envelope, ValueVector>) {
        if self.decided {
            return;
        }
        // Lines 22–25: upon p_c ∈ (suspected ∪ faulty) while in q0.
        if self.phase == Phase::Rounds && self.derived_state() == PaperState::Q0 {
            let coord = self.coordinator();
            if self.stack.suspected_or_faulty(coord, ctx.now()) {
                ctx.note(format!("suspect={} r={}", coord, self.r));
                let cert = self
                    .current_cert
                    .union(&self.next_cert)
                    .union(&self.est_cert)
                    .union(&self.entry_cert);
                self.vote_next(cert, ctx);
                self.after_vote(ctx);
            }
        }
        ctx.set_timer(self.poll_interval, POLL_TIMER);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use ftm_sim::{RunReport, SimConfig, Simulation, VirtualTime};

    fn run(n: usize, f: usize, seed: u64, crashes: &[(usize, u64)]) -> RunReport<ValueVector> {
        let setup = ProtocolConfig::new(n, f).seed(seed).setup();
        let mut cfg = SimConfig::new(n).seed(seed);
        for &(p, t) in crashes {
            cfg = cfg.crash(p, VirtualTime::at(t));
        }
        Simulation::build_boxed(cfg, |id| {
            Box::new(ByzantineConsensus::new(&setup, id, 100 + id.0 as u64))
        })
        .run()
    }

    #[test]
    fn all_honest_processes_decide_the_same_vector() {
        let report = run(4, 1, 1, &[]);
        assert!(report.all_decided(), "stop={:?}", report.stop);
        let vect = report.unanimous().expect("agreement");
        assert!(vect.non_null_count() >= 3);
        // Every entry present matches the proposer's value.
        for (k, v) in vect.iter_set() {
            assert_eq!(v, 100 + k as u64);
        }
    }

    #[test]
    fn agreement_across_seeds() {
        for seed in 0..15 {
            let report = run(4, 1, seed, &[]);
            assert!(report.all_decided(), "seed {seed} stop={:?}", report.stop);
            assert!(report.unanimous().is_some(), "seed {seed}");
            assert!(report.contradictions.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn crash_of_coordinator_is_survived() {
        // A crash is one legal arbitrary behavior; p0 coordinates round 1.
        let report = run(4, 1, 7, &[(0, 0)]);
        assert!(report.all_decided(), "stop={:?}", report.stop);
        let vect = report.unanimous().expect("agreement among survivors");
        // p0 proposed nothing (crashed at start): its entry must be null
        // in any vector the survivors certified.
        assert_eq!(vect.get(0), None);
        assert!(vect.non_null_count() >= 3);
    }

    #[test]
    fn crash_mid_protocol_is_survived() {
        for seed in 0..10 {
            let report = run(5, 2, seed, &[(1, 60)]);
            assert!(report.all_decided(), "seed {seed} stop={:?}", report.stop);
            assert!(report.unanimous().is_some(), "seed {seed}");
        }
    }

    #[test]
    fn larger_system_still_decides() {
        let report = run(7, 3, 2, &[]);
        assert!(report.all_decided(), "stop={:?}", report.stop);
        let vect = report.unanimous().expect("agreement");
        assert!(vect.non_null_count() >= 4); // n − F
    }

    #[test]
    fn no_honest_process_is_ever_convicted() {
        let report = run(5, 2, 3, &[]);
        assert!(report.all_decided());
        // No "detected=" notes: the non-muteness module stayed silent.
        for p in 0..5u32 {
            let notes = report.trace.notes_of(ProcessId(p));
            assert!(
                notes.iter().all(|n| !n.starts_with("detected=")),
                "p{p} convicted someone in an all-honest run: {notes:?}"
            );
        }
    }

    #[test]
    fn three_processes_one_fault_works() {
        // Minimal configuration: n = 3, F = 1, ψ = 1.
        let report = run(3, 1, 4, &[(2, 0)]);
        assert!(report.all_decided(), "stop={:?}", report.stop);
        let vect = report.unanimous().expect("agreement");
        assert!(vect.non_null_count() >= 2);
    }
}
