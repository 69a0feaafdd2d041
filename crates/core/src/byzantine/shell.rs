//! The transformed-protocol shell: everything the crash→arbitrary
//! transformation adds *mechanically*, written once.
//!
//! Paper Fig. 1 stacks four generic modules under a protocol-specific
//! round module. [`Transformed`] is the generic part as an actor: the
//! INIT / vector-certification phase (Fig. 3 lines 4–9), the receive
//! pipeline ([`ModuleStack::receive`]), footnote 5's buffering of votes
//! for rounds not yet entered, the round counter and the certified
//! estimate `(est_vect, est_cert)`, round-entry evidence, `decide` and its
//! relay (lines 2–3, 20–21), the `suspected ∪ faulty` poll (line 22) and
//! the single send path. The round module is the crash model's, over a
//! certificate record ([`crate::byzantine::votes`]).
//!
//! A round module speaks only through [`Shell::emit`], which takes a spec
//! row and derives the rest: the kind from the row, the round from the
//! shell's counter, the vector from the certified estimate, and the
//! certificate from the row's `justified_by`; it signs once, broadcasts and
//! counts the discharge. The shell's own `init-broadcast` and
//! `decide-announce` take a core the host sealed
//! ([`TransformedProtocol::start`], [`TransformedProtocol::announce`]) —
//! the replicated log signs a slot's DECIDE and the next slot's INIT with
//! one RSA operation — and leave through the same broadcast path.

use ftm_certify::vector::VectorBuilder;
use ftm_certify::{
    Certificate, Certified, Core, Envelope, MessageCore, MessageKind, ProtocolId, Round,
    SignedCore, Value, ValueVector,
};
use ftm_crypto::rsa::KeyPair;
use ftm_sim::note::Note;
use ftm_sim::{Actor, Context, Duration, ProcessId, TimerTag};

use super::TransformedProtocol;
use crate::config::ProtocolSetup;
use crate::rounds::{
    Discharged, Model, Record, Rounds, SendId, Shell, Step, Vote, DECIDE_ANNOUNCE,
};
use crate::spec::{EvidencePhase, Justification, ProtocolSpec, Resilience};
use crate::transform::ModuleStack;

const POLL_TIMER: TimerTag = 1;

/// Spec id of the shell's own opening send (Fig. 3 line 5).
const INIT_BROADCAST: &str = "init-broadcast";
/// Spec id of the one send the shell notes before making (Fig. 3 line 28).
const NEXT_CHANGE_MIND: &str = "next-change-mind";

/// The arbitrary-fault model: a vote is an envelope the certification
/// module admitted, an own send is a signed core, a round ends on a
/// certified quorum and a decision is a vector with its decide-vote
/// quorum.
#[derive(Debug)]
pub enum ArbitraryModel {}

impl Model for ArbitraryModel {
    type Vote<'v> = Certified<'v>;
    type Sent = SignedCore;
    type Entry = Certificate;
    type Decision = (ValueVector, Certificate);

    fn kind(vote: &Certified<'_>) -> MessageKind {
        vote.kind()
    }
}

/// A vote record of the transformed model: it lends the signed votes it
/// holds to the sends whose spec row cites their rows.
pub trait Ledger: Record<Model = ArbitraryModel> {
    /// Adds to `cited` the members of the one store of this record that
    /// holds the output `edge` cites, which its row sent as `kind`.
    fn cite(&self, edge: &Justification, kind: MessageKind, cited: &mut Vec<SignedCore>);
}

impl Vote {
    /// The round-`round` message of this kind: value-carrying kinds carry
    /// `vector`, `ESTIMATE` also its adoption round `ts`.
    fn core(self, round: Round, vector: ValueVector, ts: Round) -> Core {
        match self {
            Vote::Current => Core::Current { round, vector },
            Vote::Next => Core::Next { round },
            Vote::Estimate => Core::Estimate { round, vector, ts },
            Vote::Propose => Core::Propose { round, vector },
            Vote::Ack => Core::Ack { round, vector },
            Vote::Nack => Core::Nack { round },
        }
    }
}

/// The shell state a round module reads and, through [`View`], updates.
#[derive(Debug)]
struct RoundState {
    res: Resilience,
    me: ProcessId,
    keys: KeyPair,
    r: Round,
    est_vect: ValueVector,
    /// INIT backing of `est_vect`.
    est_cert: Certificate,
    /// Round in which `est_vect` was last adopted (0 = the INIT-certified
    /// original). Only CT's `ESTIMATE` puts it on the wire.
    adopted_in: Round,
    /// The vote quorum that ended round `r − 1`, carried by this round's
    /// sends as round-entry evidence.
    entry_cert: Certificate,
    /// Sends made so far per spec id. Every send is counted where it is
    /// committed to — [`Shell::emit`], the start and `decide` — and leaves
    /// through [`RoundState::broadcast`].
    discharged: Discharged,
    /// What [`Shell::emit`] gathers from the stores a send's edges cite,
    /// before it becomes the send's certificate, at its final size.
    cited: Vec<SignedCore>,
}

impl RoundState {
    fn coordinator(&self) -> ProcessId {
        ProcessId(self.res.coordinator(self.r) as u32)
    }

    /// The send path of Fig. 1 and the only place a transformed process
    /// speaks: the signature module's signed core — signed here for a
    /// round-module send, by the host for the shell's own INIT and DECIDE
    /// — with the certification module's `cert` appended, to everyone.
    fn broadcast(
        &self,
        signed: SignedCore,
        cert: Certificate,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) {
        debug_assert_eq!(
            signed.sender(),
            self.me,
            "a sealed core names another sender"
        );
        ctx.broadcast(Envelope { signed, cert });
    }
}

/// A round module's view of the shell for the duration of one callback:
/// the shell state and the effect handle, which the module cannot reach.
struct View<'a, 'c>(
    &'a mut RoundState,
    &'a mut Context<'c, Envelope, ValueVector>,
);

impl<R: Rounds<Votes: Ledger>> Shell<R> for View<'_, '_> {
    fn me(&self) -> ProcessId {
        self.0.me
    }

    fn round(&self) -> Round {
        self.0.r
    }

    fn coordinator(&self) -> ProcessId {
        self.0.coordinator()
    }

    /// The certificate quorum `n − F`.
    fn quorum(&self) -> usize {
        self.0.res.quorum()
    }

    /// Takes the vector's INIT backing from the certificate that carried
    /// it.
    fn adopt(&mut self, vote: &Certified<'_>) {
        if let Some(vector) = vote.core().vector() {
            self.0.est_vect = vector.clone();
            self.0.est_cert = vote.cert.init_portion();
            self.0.adopted_in = self.0.r;
        }
    }

    /// Signs the row's message once and broadcasts it with, for each edge
    /// of its spec row's `justified_by`, the signed output the edge cites:
    /// the estimate's INIT backing for round-0 evidence, the quorum that
    /// ended the last round for its round-ending votes, the record's store
    /// for the rest ([`Ledger::cite`]). The record gets the signed core,
    /// which is byte-identical to the copy that self-delivers later
    /// (signatures are deterministic).
    fn emit(&mut self, row: R::Send, votes: &mut R::Votes) {
        let st = &mut *self.0;
        st.discharged.count(row.id());
        if row.id() == NEXT_CHANGE_MIND {
            self.1.note(format_args!("change-mind r={}", st.r));
        }
        let spec = ProtocolSpec::transformed_once(R::ID);
        let by = spec
            .send(row.id())
            .map_or(&[][..], |send| &send.justified_by);
        let ending = R::ID.round_ending_kinds();
        for edge in by {
            let Some(cited) = spec.send(edge.by) else {
                continue;
            };
            match edge.phase {
                EvidencePhase::Initial => st.cited.extend(st.est_cert.iter().cloned()),
                EvidencePhase::PrevRound if ending.contains(&cited.kind) => {
                    st.cited.extend(st.entry_cert.iter().cloned());
                }
                _ => votes.cite(edge, cited.kind, &mut st.cited),
            }
        }
        let cert = Certificate::from_items(st.cited.drain(..));
        let core = row.kind().core(st.r, st.est_vect.clone(), st.adopted_in);
        let signed = SignedCore::sign(MessageCore::new(st.me, core), &st.keys);
        votes.sent(&signed);
        st.broadcast(signed, cert, self.1);
    }
}

/// One process of a transformed protocol: the shell around the round
/// module `R`.
///
/// # Example
///
/// ```
/// use ftm_core::byzantine::{ByzantineChandraToueg, ByzantineConsensus};
/// use ftm_core::config::ProtocolConfig;
/// use ftm_sim::{SimConfig, Simulation};
///
/// let setup = ProtocolConfig::new(4, 1).setup();
/// let hr = Simulation::build_boxed(SimConfig::new(4).seed(3), |id| {
///     Box::new(ByzantineConsensus::new(&setup, id, id.0 as u64))
/// })
/// .run();
/// assert!(hr.all_decided());
/// let ct = Simulation::build_boxed(SimConfig::new(4).seed(3), |id| {
///     Box::new(ByzantineChandraToueg::new(&setup, id, id.0 as u64))
/// })
/// .run();
/// assert!(ct.all_decided());
/// ```
#[derive(Debug)]
pub struct Transformed<R: Rounds<Votes: Ledger>> {
    state: RoundState,
    rounds: R,
    value: Value,
    stack: ModuleStack,
    poll_interval: Duration,
    /// Lines 4–9: collects `n − F` INITs. `None` once the round loop
    /// (lines 10–32) runs.
    init_phase: Option<VectorBuilder>,
    /// Admitted votes for rounds not yet entered (footnote 5).
    buffered: Vec<(ProcessId, Certified<'static>)>,
    decided: bool,
    /// The decide-vote quorum this decision rests on, kept after halting
    /// so the log layer can compact it into a checkpoint
    /// (see `ftm_certify::checkpoint`). It is also the certificate the
    /// DECIDE announce carries.
    decide_evidence: Option<Certificate>,
    /// The DECIDE `decide` recorded and nobody has sealed yet: the
    /// standalone actor seals it alone at the end of the deciding
    /// callback, a host takes it to seal it with its next INIT.
    unsent: Option<MessageCore>,
}

impl<R: Rounds<Votes: Ledger>> Transformed<R> {
    /// Creates a process proposing `value`.
    ///
    /// # Panics
    ///
    /// Panics if `me` has no key pair in `setup`.
    pub fn new(setup: &ProtocolSetup, me: ProcessId, value: Value) -> Self {
        let res = setup.resilience;
        Transformed {
            state: RoundState {
                res,
                me,
                keys: setup.keys[me.index()].clone(),
                r: 0,
                est_vect: ValueVector::empty(res.n()),
                est_cert: Certificate::new(),
                adopted_in: 0,
                entry_cert: Certificate::new(),
                discharged: Discharged::new::<R::Send>(&[INIT_BROADCAST]),
                cited: Vec::new(),
            },
            rounds: R::default(),
            value,
            stack: ModuleStack::for_setup(R::ID, setup),
            poll_interval: setup.config.poll_interval,
            init_phase: Some(VectorBuilder::new(res.n(), res.f())),
            buffered: Vec::new(),
            decided: false,
            decide_evidence: None,
            unsent: None,
        }
    }

    /// Messages sent so far per row of
    /// `ProtocolSpec::transformed_for(R::ID).sends`, in its order.
    pub fn discharged(&self) -> &[(&'static str, u32)] {
        &self.state.discharged.0
    }

    fn follow(&mut self, step: Step<R::Votes>, ctx: &mut Context<'_, Envelope, ValueVector>) {
        match step {
            Step::Stay => {}
            Step::NextRound(quorum) => self.begin_round(quorum, ctx),
            Step::Decide((vector, cert)) => self.decide(self.state.r, vector, cert, ctx),
        }
    }

    /// Lines 11–13: open round `r + 1`, entered on the evidence `entry`.
    fn begin_round(&mut self, entry: Certificate, ctx: &mut Context<'_, Envelope, ValueVector>) {
        self.state.entry_cert = entry;
        self.state.r += 1;
        self.stack.enter_round(self.state.r);
        ctx.note(Note::Round(self.state.r));
        // Per-round stack snapshot: the harness keeps the *last* note per
        // process, so churn under adverse networks is visible even when
        // the run never decides.
        ctx.note(self.stack.stats_note());
        self.rounds.open_round(&mut View(&mut self.state, ctx));
        self.drain_buffer(ctx);
    }

    fn drain_buffer(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        while !self.decided {
            let r = self.state.r;
            let Some(pos) = self.buffered.iter().position(|(_, env)| env.round() == r) else {
                return;
            };
            let (from, env) = self.buffered.remove(pos);
            self.handle_admitted(from, env, ctx);
        }
    }

    /// Lines 20–21 and 2–3: decide, stop, and record the announce — the
    /// DECIDE core and its certificate — for whoever seals it. Nothing
    /// sends after this in the callback, so the announce is its last send
    /// however late it is sealed.
    fn decide(
        &mut self,
        round: Round,
        vector: ValueVector,
        cert: Certificate,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) {
        self.decided = true;
        self.decide_evidence = Some(cert);
        let core = Core::Decide {
            round,
            vector: vector.clone(),
        };
        self.unsent = Some(MessageCore::new(self.state.me, core));
        self.state.discharged.count(DECIDE_ANNOUNCE);
        // Final per-layer receive-side tally, in note form so trace
        // consumers (the sweep harness) can collect it without reaching
        // into actor state.
        ctx.note(self.stack.stats_note());
        ctx.decide(vector);
        ctx.halt();
    }

    fn handle_admitted(
        &mut self,
        from: ProcessId,
        env: Certified<'_>,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) {
        match env.core() {
            Core::Init { .. } => {
                let Some(mut builder) = self.init_phase.take() else {
                    return; // late INIT beyond the n − F we waited for
                };
                builder.absorb(&env);
                if !builder.complete() {
                    self.init_phase = Some(builder);
                    return;
                }
                // Lines 6–9 exit: the certified vector is ready.
                (self.state.est_vect, self.state.est_cert) = builder.finish();
                ctx.note(format_args!(
                    "vector-certified vect={:?}",
                    self.state.est_vect
                ));
                self.begin_round(Certificate::new(), ctx);
            }
            Core::Decide { round, vector } => {
                // Lines 2–3: relay with the same certificate and decide.
                self.decide(*round, vector.clone(), env.cert.clone(), ctx);
            }
            Core::Checkpoint { .. } => {
                // Log-layer compaction metadata: valid (the analyzer
                // audited its quorum), but a single consensus instance has
                // nothing to do with it — slot retention is the
                // `ReplicatedLog`'s business.
            }
            vote => {
                let round = vote.round();
                if self.init_phase.is_some() || round > self.state.r {
                    self.buffered.push((from, env.into_owned()));
                } else if round == self.state.r {
                    let step = self
                        .rounds
                        .on_vote(from, env, &mut View(&mut self.state, ctx));
                    self.follow(step, ctx);
                } // else: a stale vote, discarded (footnote 5)
            }
        }
    }
}

/// The shell's own two sends take a core the host has already sealed: a
/// replicated log signs one slot's DECIDE and the next slot's INIT as one
/// pair. The standalone [`Actor`] below seals each alone.
impl<R: Rounds<Votes: Ledger>> TransformedProtocol for Transformed<R> {
    const ID: ProtocolId = R::ID;

    fn build(setup: &ProtocolSetup, me: ProcessId, value: Value) -> Self {
        Transformed::new(setup, me, value)
    }

    fn stack(&self) -> &ModuleStack {
        &self.stack
    }

    fn decide_evidence(&self) -> Option<&Certificate> {
        self.decide_evidence.as_ref()
    }

    fn init_core(&self) -> MessageCore {
        MessageCore::new(self.state.me, Core::Init { value: self.value })
    }

    fn start(&mut self, init: SignedCore, ctx: &mut Context<'_, Envelope, ValueVector>) {
        // Line 5: broadcast the signed proposal with an empty certificate.
        self.state.discharged.count(INIT_BROADCAST);
        self.state.broadcast(init, Certificate::new(), ctx);
        ctx.set_timer(self.poll_interval, POLL_TIMER);
    }

    fn receive(
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

    fn tick(&mut self, _tag: TimerTag, ctx: &mut Context<'_, Envelope, ValueVector>) {
        if self.decided {
            return;
        }
        // Lines 22–25: upon p_c ∈ (suspected ∪ faulty) while waiting on it.
        if self.init_phase.is_none() && self.rounds.awaits_coordinator(&View(&mut self.state, ctx))
        {
            let coord = self.state.coordinator();
            if self.stack.suspected_or_faulty(coord, ctx.now()) {
                ctx.note(Note::Suspect(coord, self.state.r));
                let step = self.rounds.on_suspicion(&mut View(&mut self.state, ctx));
                self.follow(step, ctx);
            }
        }
        ctx.set_timer(self.poll_interval, POLL_TIMER);
    }

    fn take_announce(&mut self) -> Option<MessageCore> {
        self.unsent.take()
    }

    fn announce(&mut self, decide: SignedCore, ctx: &mut Context<'_, Envelope, ValueVector>) {
        debug_assert!(self.decided, "announce before deciding");
        let cert = self.decide_evidence.clone().unwrap_or_default();
        self.state.broadcast(decide, cert, ctx);
    }
}

impl<R: Rounds<Votes: Ledger>> Transformed<R> {
    /// Seals a pending announce alone and sends it: the standalone
    /// actor's last act in the callback that decided.
    fn announce_alone(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        if let Some(core) = self.take_announce() {
            let decide = SignedCore::sign(core, &self.state.keys);
            self.announce(decide, ctx);
        }
    }
}

impl<R: Rounds<Votes: Ledger>> Actor for Transformed<R> {
    type Msg = Envelope;
    type Decision = ValueVector;

    fn on_start(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        let init = SignedCore::sign(self.init_core(), &self.state.keys);
        self.start(init, ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        env: &Envelope,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) {
        self.receive(from, env, ctx);
        self.announce_alone(ctx);
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, Envelope, ValueVector>) {
        self.tick(tag, ctx);
        self.announce_alone(ctx);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::byzantine::{CtCerts, HrCerts};
    use crate::config::ProtocolConfig;
    use crate::rounds::{ct, hr};
    use ftm_certify::rules::certification_rules_for;
    use ftm_sim::{RunReport, SimConfig, Simulation, VirtualTime};

    type HurfinRaynal = hr::HurfinRaynal<HrCerts>;
    type ChandraToueg = ct::ChandraToueg<CtCerts>;

    /// Per-process discharge counts, in `RoundState::discharged` order.
    type Tally = Rc<RefCell<Vec<Vec<u32>>>>;

    /// Forwards to the wrapped process and publishes its discharge counts
    /// after every callback (the simulator owns the actors for the run).
    struct Probe<R: Rounds<Votes: Ledger>> {
        inner: Transformed<R>,
        tally: Tally,
    }

    impl<R: Rounds<Votes: Ledger>> Probe<R> {
        fn publish(&self) {
            self.tally.borrow_mut()[self.inner.state.me.index()] =
                self.inner.discharged().iter().map(|(_, c)| *c).collect();
        }
    }

    impl<R: Rounds<Votes: Ledger>> Actor for Probe<R> {
        type Msg = Envelope;
        type Decision = ValueVector;

        fn on_start(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
            self.inner.on_start(ctx);
            self.publish();
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            env: &Envelope,
            ctx: &mut Context<'_, Envelope, ValueVector>,
        ) {
            self.inner.on_message(from, env, ctx);
            self.publish();
        }

        fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, Envelope, ValueVector>) {
            self.inner.on_timer(tag, ctx);
            self.publish();
        }
    }

    /// One run of protocol `R`; returns the report and the discharges per
    /// spec id summed over all processes.
    fn run_with<R: Rounds<Votes: Ledger> + 'static>(
        protocol: ProtocolConfig,
        cfg: SimConfig,
    ) -> (RunReport<ValueVector>, Vec<u32>) {
        let setup = protocol.setup();
        let tally: Tally = Rc::new(RefCell::new(vec![Vec::new(); cfg.n]));
        let report = Simulation::build_boxed(cfg, |id| {
            Box::new(Probe {
                inner: Transformed::<R>::new(&setup, id, 100 + id.0 as u64),
                tally: Rc::clone(&tally),
            })
        })
        .run();
        let rows = tally.borrow();
        let width = R::Send::ALL.len() + 2;
        let sums = (0..width)
            .map(|k| rows.iter().filter_map(|row| row.get(k)).sum())
            .collect();
        (report, sums)
    }

    /// `n` processes with default timing, `crashes` as `(process, time)`.
    fn run<R: Rounds<Votes: Ledger> + 'static>(
        n: usize,
        f: usize,
        seed: u64,
        crashes: &[(usize, u64)],
    ) -> (RunReport<ValueVector>, Vec<u32>) {
        let mut cfg = SimConfig::new(n).seed(seed);
        for &(p, t) in crashes {
            cfg = cfg.crash(p, VirtualTime::at(t));
        }
        run_with::<R>(ProtocolConfig::new(n, f).seed(seed), cfg)
    }

    type Run = fn(usize, usize, u64, &[(usize, u64)]) -> (RunReport<ValueVector>, Vec<u32>);
    const BOTH: [Run; 2] = [run::<HurfinRaynal>, run::<ChandraToueg>];

    #[test]
    fn all_honest_processes_decide_the_same_vector() {
        for run in BOTH {
            let (report, _) = run(4, 1, 1, &[]);
            assert!(report.all_decided(), "stop={:?}", report.stop);
            let vect = report.unanimous().expect("agreement");
            assert!(vect.non_null_count() >= 3);
            // Every entry present matches the proposer's value.
            for (k, v) in vect.iter_set() {
                assert_eq!(v, 100 + k as u64);
            }
        }
    }

    #[test]
    fn agreement_across_seeds() {
        for run in BOTH {
            for seed in 0..15 {
                let (report, _) = run(4, 1, seed, &[]);
                assert!(report.all_decided(), "seed {seed} stop={:?}", report.stop);
                assert!(report.unanimous().is_some(), "seed {seed}");
                assert!(report.contradictions.is_empty(), "seed {seed}");
            }
        }
    }

    #[test]
    fn crash_of_coordinator_is_survived() {
        // A crash is one legal arbitrary behavior; p0 coordinates round 1,
        // so its muteness forces a NEXT (HR) / NACK (CT) round.
        for run in BOTH {
            let (report, _) = run(4, 1, 7, &[(0, 0)]);
            assert!(report.all_decided(), "stop={:?}", report.stop);
            let vect = report.unanimous().expect("agreement among survivors");
            // p0 proposed nothing (crashed at start): its entry must be null
            // in any vector the survivors certified.
            assert_eq!(vect.get(0), None);
            assert!(vect.non_null_count() >= 3);
        }
    }

    #[test]
    fn crash_mid_protocol_is_survived() {
        for run in BOTH {
            for seed in 0..10 {
                let (report, _) = run(5, 1, seed, &[(1, 60)]);
                assert!(report.all_decided(), "seed {seed} stop={:?}", report.stop);
                assert!(report.unanimous().is_some(), "seed {seed}");
            }
        }
    }

    #[test]
    fn larger_system_still_decides() {
        for run in BOTH {
            let (report, _) = run(7, 2, 2, &[]);
            assert!(report.all_decided(), "stop={:?}", report.stop);
            let vect = report.unanimous().expect("agreement");
            assert!(vect.non_null_count() >= 5); // n − F
        }
    }

    #[test]
    fn no_honest_process_is_ever_convicted() {
        for run in BOTH {
            let (report, _) = run(5, 1, 3, &[]);
            assert!(report.all_decided());
            // No conviction notes: the non-muteness module stayed silent.
            for p in 0..5u32 {
                let notes = report.trace.notes_of(ProcessId(p));
                assert!(
                    notes
                        .iter()
                        .all(|n| !matches!(Note::parse(n).1, Note::Detected(_))),
                    "p{p} convicted someone in an all-honest run: {notes:?}"
                );
            }
        }
    }

    /// The spec ids `Transformed<R>` counts discharges under.
    fn ids<R: Rounds<Votes: Ledger>>() -> Vec<&'static str> {
        let setup = ProtocolConfig::new(4, 1).setup();
        let p = Transformed::<R>::new(&setup, ProcessId(0), 0);
        p.state.discharged.0.iter().map(|(id, _)| *id).collect()
    }

    /// The send-id type, `spec.sends` and the certification-rule table name
    /// the same sends, in the same order, with the same kinds.
    fn send_ids_are_the_spec_table<R: Rounds<Votes: Ledger>>() {
        let spec = ProtocolSpec::transformed_for(R::ID);
        let ids = ids::<R>();
        let spec_ids: Vec<&str> = spec.sends.iter().map(|s| s.id).collect();
        assert_eq!(ids, spec_ids);
        let rows: Vec<&str> = certification_rules_for(R::ID)
            .iter()
            .map(|row| row.send)
            .collect();
        assert_eq!(ids, rows);

        let kind_of = |id: &str| spec.send(id).map(|row| row.kind);
        assert_eq!(kind_of(INIT_BROADCAST), spec.table.opening);
        assert_eq!(kind_of(DECIDE_ANNOUNCE), Some(spec.table.terminal));
        for ob in R::Send::ALL {
            let kind = ob.kind().core(1, ValueVector::empty(3), 0).kind();
            assert_eq!(Some(kind), kind_of(ob.id()), "{ob:?}");
            assert!(
                spec.table.slot_of(kind).is_some(),
                "{ob:?} is not a round vote"
            );
        }
    }

    #[test]
    fn send_ids_are_the_spec_table_for_both_protocols() {
        send_ids_are_the_spec_table::<HurfinRaynal>();
        send_ids_are_the_spec_table::<ChandraToueg>();
    }

    /// Over a fixed input set — the runs above (all honest, crashed
    /// round-1 coordinator, mid-protocol crash) plus a muteness timeout
    /// inside the network's delay range, which splits rounds between
    /// processes that saw the coordinator's vote and processes that gave
    /// up on it (HR's change-mind and end-of-round only fire then) — every
    /// send obligation of the spec is discharged at least once, and every
    /// message on the wire was counted against one: there is no other
    /// send path.
    fn every_obligation_is_discharged<R: Rounds<Votes: Ledger> + 'static>() {
        let mut total = vec![0u32; R::Send::ALL.len() + 2];
        let mut tally = |(report, sums): (RunReport<ValueVector>, Vec<u32>)| {
            let sent: u32 = sums.iter().sum();
            let n = report.decisions.len() as u64;
            assert_eq!(
                u64::from(sent) * n,
                report.metrics.messages_sent,
                "a send bypassed the emit path"
            );
            for (t, s) in total.iter_mut().zip(sums) {
                *t += s;
            }
        };
        for seed in 0..15 {
            tally(run::<R>(4, 1, seed, &[]));
        }
        tally(run::<R>(4, 1, 7, &[(0, 0)]));
        for seed in 0..10 {
            tally(run::<R>(5, 1, seed, &[(1, 60)]));
        }
        for seed in 0..4 {
            let hasty = ProtocolConfig::new(4, 1)
                .seed(seed)
                .muteness_timeout(Duration::of(60));
            let slow = SimConfig::new(4)
                .seed(seed)
                .delay_range(Duration::of(5), Duration::of(90))
                .gst(VirtualTime::at(4_000), Duration::of(15));
            tally(run_with::<R>(hasty, slow));
        }
        let never: Vec<&str> = ids::<R>()
            .into_iter()
            .zip(&total)
            .filter(|(_, count)| **count == 0)
            .map(|(id, _)| id)
            .collect();
        assert!(never.is_empty(), "never discharged: {never:?} of {total:?}");
    }

    #[test]
    fn every_hurfin_raynal_obligation_is_discharged() {
        every_obligation_is_discharged::<HurfinRaynal>();
    }

    #[test]
    fn every_chandra_toueg_obligation_is_discharged() {
        every_obligation_is_discharged::<ChandraToueg>();
    }
}
