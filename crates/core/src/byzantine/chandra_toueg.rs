//! Event-driven rendering of the transformed Chandra–Toueg protocol: the
//! crash-model ◇S protocol of [`crate::crash::chandra_toueg`] pushed
//! through the same module stack as the Hurfin–Raynal instance.
//!
//! The round discipline is CT's four-phase pattern, made auditable:
//!
//! 1. **ESTIMATE** — every process opens the round by broadcasting its
//!    certified estimate vector with the round in which it was adopted
//!    (`ts`); a `ts > 0` claim must quote the `ts`-round coordinator's
//!    signed `PROPOSE`, so freshness cannot be forged.
//! 2. **PROPOSE** — the round coordinator gathers `n − F` signed
//!    estimates, adopts a maximum-timestamp one, and broadcasts it with
//!    the estimate quorum as certificate (the analyzer re-derives the
//!    adoption rule).
//! 3. **ACK / NACK** — a process that sees the proposal echoes it with an
//!    `ACK` quoting the coordinator's *own signed* `PROPOSE` (the
//!    coordinator-echo discipline: one hop, no re-certification chain,
//!    unlike HR's relayed `CURRENT`s). A process that instead comes to
//!    suspect the coordinator (`suspected ∪ faulty`) broadcasts a
//!    structural `NACK`.
//! 4. **DECIDE** — `n − F` signed `ACK`s for one vector decide it; the
//!    `DECIDE` relays that quorum as its certificate.
//!
//! A quorum of round-`r` `ACK/NACK` votes is the evidence that lets a
//! correct process open round `r + 1` (the CT analogue of HR's `NEXT`
//! portion). Messages are broadcast — every process audits every step,
//! exactly as in the transformed HR instance.

use std::collections::BTreeSet;

use ftm_certify::vector::VectorBuilder;
use ftm_certify::{
    Certificate, Certified, Core, Envelope, MessageKind, ProtocolId, Round, SignedCore, Value,
    ValueVector,
};
use ftm_crypto::rsa::KeyPair;
use ftm_sim::{Actor, Context, Duration, ProcessId, TimerTag};

use crate::config::ProtocolSetup;
use crate::spec::Resilience;
use crate::transform::ModuleStack;

const POLL_TIMER: TimerTag = 1;

/// Which part of the protocol the process is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Collecting `n − F` INITs (vector certification).
    VectorCert,
    /// The round loop.
    Rounds,
}

/// One process of the transformed Chandra–Toueg protocol.
///
/// # Example
///
/// ```
/// use ftm_core::byzantine::ByzantineChandraToueg;
/// use ftm_core::config::ProtocolConfig;
/// use ftm_sim::{SimConfig, Simulation};
///
/// let setup = ProtocolConfig::new(4, 1).setup();
/// let report = Simulation::build_boxed(SimConfig::new(4).seed(3), |id| {
///     Box::new(ByzantineChandraToueg::new(&setup, id, id.0 as u64))
/// })
/// .run();
/// assert!(report.all_decided());
/// ```
#[derive(Debug)]
pub struct ByzantineChandraToueg {
    res: Resilience,
    me: ProcessId,
    value: Value,
    keys: KeyPair,
    stack: ModuleStack,
    poll_interval: Duration,
    phase: Phase,
    // Vector-certification phase.
    builder: Option<VectorBuilder>,
    // Round state.
    r: Round,
    est_vect: ValueVector,
    /// INIT backing of `est_vect` (the vector-certification portion).
    est_cert: Certificate,
    /// Round in which `est_vect` was last adopted (0 = initial).
    ts: Round,
    /// The `ts`-round coordinator's signed PROPOSE backing `(est_vect, ts)`
    /// — carried by every later ESTIMATE so the timestamp is auditable.
    ts_backing: Option<SignedCore>,
    /// Round-`r` ESTIMATE envelopes, one per sender (coordinator input).
    estimates: Vec<Certified<'static>>,
    /// Round-`r` signed ACK/NACK items (the round's vote record; a quorum
    /// of distinct voters ends the round and certifies entry into `r+1`).
    vote_cert: Certificate,
    /// The ACK/NACK quorum that justified entering round `r`.
    entry_cert: Certificate,
    /// The round coordinator's signed PROPOSE, once adopted.
    proposed: Option<SignedCore>,
    sent_propose: bool,
    sent_ack: bool,
    sent_nack: bool,
    buffered: Vec<(ProcessId, Certified<'static>)>,
    decided: bool,
    /// The decide-vote quorum (ACK items) this decision rests on, kept
    /// after halting so the log layer can compact it into a checkpoint
    /// (see `ftm_certify::checkpoint`).
    decide_evidence: Option<Certificate>,
}

impl ByzantineChandraToueg {
    /// Creates a process proposing `value`.
    ///
    /// # Panics
    ///
    /// Panics if `me` has no key pair in `setup`.
    pub fn new(setup: &ProtocolSetup, me: ProcessId, value: Value) -> Self {
        let res = setup.resilience;
        ByzantineChandraToueg {
            res,
            me,
            value,
            keys: setup.keys[me.index()].clone(),
            stack: ModuleStack::for_setup(ProtocolId::ChandraToueg, setup),
            poll_interval: setup.config.poll_interval,
            phase: Phase::VectorCert,
            builder: Some(VectorBuilder::new(res.n(), res.f())),
            r: 0,
            est_vect: ValueVector::empty(res.n()),
            est_cert: Certificate::new(),
            ts: 0,
            ts_backing: None,
            estimates: Vec::new(),
            vote_cert: Certificate::new(),
            entry_cert: Certificate::new(),
            proposed: None,
            sent_propose: false,
            sent_ack: false,
            sent_nack: false,
            buffered: Vec::new(),
            decided: false,
            decide_evidence: None,
        }
    }

    /// Read access to the module stack (evidence logs, detector state).
    pub fn stack(&self) -> &ModuleStack {
        &self.stack
    }

    /// The ACK quorum backing this process's decision, once decided.
    pub fn decide_evidence(&self) -> Option<&Certificate> {
        self.decide_evidence.as_ref()
    }

    fn quorum(&self) -> usize {
        self.res.quorum()
    }

    fn coordinator(&self) -> ProcessId {
        ProcessId(self.res.coordinator(self.r) as u32)
    }

    /// Signs and broadcasts a message (the transformed send path: the
    /// certification module appends `cert`, the signature module signs).
    fn send_all(
        &self,
        core: Core,
        cert: Certificate,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) {
        ctx.broadcast(Envelope::make(self.me, core, cert, &self.keys));
    }

    /// Signs `core` standalone — used when a signed item must join a local
    /// certificate before the broadcast copy self-delivers (the signature
    /// is deterministic, so both copies are byte-identical and the
    /// certificate deduplicates them).
    fn sign(&self, core: Core) -> SignedCore {
        SignedCore::sign(ftm_certify::MessageCore::new(self.me, core), &self.keys)
    }

    /// Phase 1: open round `r + 1` with the mandatory ESTIMATE broadcast.
    fn begin_round(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        // The ACK/NACK quorum that ended the previous round becomes the
        // round-entry evidence for this one.
        self.entry_cert = std::mem::take(&mut self.vote_cert);
        self.r += 1;
        self.estimates.clear();
        self.proposed = None;
        self.sent_propose = false;
        self.sent_ack = false;
        self.sent_nack = false;
        self.stack.enter_round(self.r, ctx.now());
        ctx.note(format!("round={}", self.r));
        // Per-round stack snapshot (last note per process wins in the
        // harness) — see `ByzantineConsensus::begin_round`.
        ctx.note(self.stack.stats_note());
        let mut cert = self.est_cert.union(&self.entry_cert);
        if let Some(backing) = &self.ts_backing {
            cert.insert(backing.clone());
        }
        self.send_all(
            Core::Estimate {
                round: self.r,
                vector: self.est_vect.clone(),
                ts: self.ts,
            },
            cert,
            ctx,
        );
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

    /// Decide, relay, stop (the reliable-broadcast echo of CT's phase 4).
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
        ctx.note(self.stack.stats_note());
        ctx.decide(vector);
        ctx.halt();
    }

    /// Phase 2: the coordinator adopts a maximum-timestamp estimate from
    /// its quorum and broadcasts the proposal, then echoes its own ACK.
    fn propose(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        debug_assert!(!self.sent_propose);
        let max_ts = self
            .estimates
            .iter()
            .filter_map(|e| match e.core() {
                Core::Estimate { ts, .. } => Some(*ts),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let Some(adopted) = self
            .estimates
            .iter()
            .find(|e| matches!(e.core(), Core::Estimate { ts, .. } if *ts == max_ts))
            .cloned()
        else {
            return; // propose() only fires on a nonempty estimate quorum
        };
        let Core::Estimate { vector, .. } = adopted.core() else {
            unreachable!("estimates holds only ESTIMATE envelopes");
        };
        self.est_vect = vector.clone();
        self.est_cert = adopted.cert.init_portion();
        // The proposal's certificate: the estimate quorum (the analyzer
        // re-derives the max-ts adoption from it) plus the adopted
        // vector's INIT backing.
        let mut cert = self.est_cert.clone();
        for e in &self.estimates {
            cert.insert(e.signed.clone());
        }
        let own = self.sign(Core::Propose {
            round: self.r,
            vector: self.est_vect.clone(),
        });
        self.ts = self.r;
        self.ts_backing = Some(own.clone());
        self.proposed = Some(own.clone());
        self.sent_propose = true;
        self.send_all(
            Core::Propose {
                round: self.r,
                vector: self.est_vect.clone(),
            },
            cert,
            ctx,
        );
        // Phase 3, coordinator side: echo the own proposal.
        self.ack(own, ctx);
    }

    /// Phase 3: echo `propose` (the coordinator's signed PROPOSE) with an
    /// ACK whose certificate is exactly that one item.
    fn ack(&mut self, propose: SignedCore, ctx: &mut Context<'_, Envelope, ValueVector>) {
        debug_assert!(!self.sent_ack && !self.sent_nack);
        let core = Core::Ack {
            round: self.r,
            vector: self.est_vect.clone(),
        };
        self.vote_cert.insert(self.sign(core.clone()));
        self.sent_ack = true;
        self.send_all(core, Certificate::from_items([propose]), ctx);
        self.after_vote(ctx);
    }

    /// Phase 3, negative branch: the coordinator is suspected or faulty.
    fn nack(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        debug_assert!(!self.sent_ack && !self.sent_nack);
        let core = Core::Nack { round: self.r };
        self.vote_cert.insert(self.sign(core.clone()));
        self.sent_nack = true;
        self.send_all(core, Certificate::new(), ctx);
        self.after_vote(ctx);
    }

    /// The round-`r` ACK items endorsing exactly one vector, if any vector
    /// has reached a quorum of distinct ack senders.
    fn ack_quorum(&self) -> Option<(ValueVector, Certificate)> {
        let vectors: Vec<ValueVector> = self
            .vote_cert
            .iter_kind_round(MessageKind::Ack, self.r)
            .filter_map(|i| i.core().core.vector().cloned())
            .collect();
        for vector in vectors {
            let matching = Certificate::from_items(
                self.vote_cert
                    .iter_kind_round(MessageKind::Ack, self.r)
                    .filter(|i| i.core().core.vector() == Some(&vector))
                    .cloned(),
            );
            let senders: BTreeSet<ProcessId> = matching.iter().map(SignedCore::sender).collect();
            if senders.len() >= self.quorum() {
                return Some((vector, matching));
            }
        }
        None
    }

    /// Phase 4 checks after every recorded vote: decide on an ACK quorum,
    /// or advance the round once a full vote quorum shows it cannot decide
    /// at this process anymore.
    fn after_vote(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        if self.decided {
            return;
        }
        if let Some((vector, matching)) = self.ack_quorum() {
            self.decide(self.r, vector, matching, ctx);
            return;
        }
        if self.vote_cert.ct_votes(self.r).len() >= self.quorum() {
            self.begin_round(ctx);
        }
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
            Core::Estimate { round, .. } => {
                if self.phase != Phase::Rounds || round > self.r {
                    self.buffered.push((from, env.into_owned()));
                    return;
                }
                if round < self.r {
                    return; // stale estimate, discarded
                }
                if self.estimates.iter().any(|e| e.sender() == from) {
                    return; // the stack already convicts duplicates
                }
                self.estimates.push(env.into_owned());
                if self.me == self.coordinator()
                    && !self.sent_propose
                    && self.estimates.len() >= self.quorum()
                {
                    self.propose(ctx);
                }
            }
            Core::Propose { round, .. } => {
                if self.phase != Phase::Rounds || round > self.r {
                    self.buffered.push((from, env.into_owned()));
                    return;
                }
                if round < self.r {
                    return;
                }
                // The analyzer admitted it, so `from` is the coordinator.
                if self.proposed.is_none() {
                    self.proposed = Some(env.signed.clone());
                }
                if self.sent_ack || self.sent_nack || self.me == self.coordinator() {
                    return; // already voted (or it is our own echo)
                }
                // Adopt the proposal and echo it.
                if let Core::Propose { vector, .. } = env.core() {
                    self.est_vect = vector.clone();
                    self.est_cert = env.cert.init_portion();
                    self.ts = self.r;
                    self.ts_backing = Some(env.signed.clone());
                }
                self.ack(env.signed.clone(), ctx);
            }
            Core::Ack { round, .. } | Core::Nack { round } => {
                if self.phase != Phase::Rounds || round > self.r {
                    self.buffered.push((from, env.into_owned()));
                    return;
                }
                if round < self.r {
                    return;
                }
                self.vote_cert.insert(env.signed.clone());
                self.after_vote(ctx);
            }
            Core::Decide { round, vector } => {
                // Relay with the same certificate and decide.
                self.decide(round, vector, env.cert.clone(), ctx);
            }
            Core::Current { .. } | Core::Next { .. } => {
                // Hurfin–Raynal kinds: the observer convicts them as
                // outside Chandra–Toueg's alphabet before admission.
                debug_assert!(false, "CT stack admitted an HR-kind message");
            }
            Core::Checkpoint { .. } => {
                // Log-layer compaction metadata: valid (the analyzer
                // audited its quorum), but a single consensus instance has
                // nothing to do with it — slot retention is the
                // `ReplicatedLog`'s business.
            }
        }
    }
}

impl Actor for ByzantineChandraToueg {
    type Msg = Envelope;
    type Decision = ValueVector;

    fn on_start(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
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
        if let Some(env) = self.stack.receive(from, env, ctx) {
            self.handle_admitted(from, env, ctx);
        }
    }

    fn on_timer(&mut self, _tag: TimerTag, ctx: &mut Context<'_, Envelope, ValueVector>) {
        if self.decided {
            return;
        }
        // CT's phase-3 escape hatch, with the transformed guard:
        // upon p_c ∈ (suspected ∪ faulty) while awaiting the proposal.
        if self.phase == Phase::Rounds
            && self.me != self.coordinator()
            && self.proposed.is_none()
            && !self.sent_ack
            && !self.sent_nack
        {
            let coord = self.coordinator();
            if self.stack.suspected_or_faulty(coord, ctx.now()) {
                ctx.note(format!("suspect={} r={}", coord, self.r));
                self.nack(ctx);
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
            Box::new(ByzantineChandraToueg::new(&setup, id, 100 + id.0 as u64))
        })
        .run()
    }

    #[test]
    fn all_honest_processes_decide_the_same_vector() {
        let report = run(4, 1, 1, &[]);
        assert!(report.all_decided(), "stop={:?}", report.stop);
        let vect = report.unanimous().expect("agreement");
        assert!(vect.non_null_count() >= 3);
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
        // p0 coordinates round 1; its muteness forces a NACK round.
        let report = run(4, 1, 7, &[(0, 0)]);
        assert!(report.all_decided(), "stop={:?}", report.stop);
        let vect = report.unanimous().expect("agreement among survivors");
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
        let report = run(3, 1, 4, &[(2, 0)]);
        assert!(report.all_decided(), "stop={:?}", report.stop);
        let vect = report.unanimous().expect("agreement");
        assert!(vect.non_null_count() >= 2);
    }
}
