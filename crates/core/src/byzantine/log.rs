//! State-machine replication on top of the transformed consensus: a
//! replicated log deciding one certified vector per slot.
//!
//! This is the application layer the consensus literature motivates: each
//! log slot runs one instance of any [`TransformedProtocol`] (Hurfin–Raynal
//! by default); a process moves to
//! slot `k + 1` once slot `k` decides locally. Instances are isolated by
//! tagging every wire message with its slot — a faulty process replaying
//! slot-3 traffic into slot 5 changes nothing, because each slot has its
//! own module stack, observer automata and certificates.
//!
//! The composition pattern is the same as the fault wrappers': the outer
//! actor drives the inner one through a private [`Context`] and translates
//! the staged effects (wrapping sends, remapping timer tags, intercepting
//! the inner decision instead of halting).

use std::fmt::Write as _;

use ftm_certify::analyzer::CertChecker;
use ftm_certify::{
    checkpoint_vector, make_checkpoint, Certificate, Certified, Envelope, FaultClass, MessageKind,
    SignedCore, Value, ValueVector,
};
use ftm_crypto::rsa::KeyPair;
use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode, DecodeError, Decoder, Encoder};
use ftm_sim::note::{self, Note};
use ftm_sim::process::Effects;
use ftm_sim::trace::Trace;
use ftm_sim::{Actor, Context, LayerSplit, Payload, ProcessId, StagedSend, TimerTag};

use crate::byzantine::{ByzantineConsensus, TransformedProtocol};
use crate::config::ProtocolSetup;

/// How a replica retains the decide evidence of sealed slots.
///
/// Retained evidence is what an auditor (or a recovering replica) can be
/// shown to justify the log's contents; its growth is the memory cost the
/// checkpointing program bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Retention {
    /// Keep every sealed slot's decide-vote certificate verbatim: audit
    /// bytes grow linearly in the number of slots.
    #[default]
    Full,
    /// Compact each sealed slot into one quorum-signed checkpoint envelope
    /// (see [`ftm_certify::checkpoint`]) and keep only the latest: audit
    /// bytes stay flat no matter how long the log runs. Compaction is pure
    /// local bookkeeping — no extra wire traffic — so decisions are
    /// identical to [`Retention::Full`] runs of the same seed.
    Checkpoint,
}

/// A slot-tagged consensus message.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotMsg {
    /// Which log slot's instance this belongs to.
    pub slot: u64,
    /// The instance's wire message.
    pub env: Envelope,
}

impl Payload for SlotMsg {
    fn size_bytes(&self) -> usize {
        8 + self.env.size_bytes()
    }

    fn write_label(&self, out: &mut String) {
        let _ = write!(out, "s{}:", self.slot);
        self.env.write_label(out);
    }

    fn is_same(&self, other: &Self) -> bool {
        self.slot == other.slot && self.env.is_same(&other.env)
    }

    fn layer_split(&self) -> LayerSplit {
        // The slot tag is protocol-level framing; the rest is the envelope's.
        let mut split = self.env.layer_split();
        split.protocol_bytes += 8;
        split
    }
}

// The canonical encoding makes `SlotMsg` carriable by the real transport
// (`ftm-net` frames are canonical bytes); the slot tag rides in front of
// the envelope's own signed encoding, so signatures keep verifying.
impl CanonicalEncode for SlotMsg {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.slot);
        self.env.encode(enc);
    }
}

impl CanonicalDecode for SlotMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(SlotMsg {
            slot: dec.u64()?,
            env: Envelope::decode(dec)?,
        })
    }
}

/// How many timer tags each slot instance may use (the inner protocol uses
/// a single poll timer; headroom is cheap).
const TAGS_PER_SLOT: TimerTag = 16;

/// A replicated log of `slots` entries, one consensus instance per slot.
///
/// Generic over the [`TransformedProtocol`] running each slot (defaulting
/// to the Hurfin–Raynal instance). Decides the full log (a
/// `Vec<ValueVector>`) once every slot has decided
/// locally. Commands are supplied per slot by a deterministic function of
/// `(slot, process)` so all runs are replayable.
///
/// # Example
///
/// ```
/// use ftm_core::byzantine::log::ReplicatedLog;
/// use ftm_core::byzantine::ByzantineConsensus;
/// use ftm_core::config::ProtocolConfig;
/// use ftm_sim::{SimConfig, Simulation};
///
/// let setup = ProtocolConfig::new(4, 1).seed(9).setup();
/// let report = Simulation::build_boxed(SimConfig::new(4).seed(9), |id| {
///     Box::new(ReplicatedLog::<ByzantineConsensus>::new(
///         &setup, id, 2, |slot, p| 1000 * slot + p as u64,
///     ))
/// })
/// .run();
/// let log = report.unanimous().expect("all replicas hold the same log");
/// assert_eq!(log.len(), 2);
/// ```
pub struct ReplicatedLog<P: TransformedProtocol = ByzantineConsensus> {
    setup: ProtocolSetup,
    me: ProcessId,
    slots: u64,
    command: Box<dyn FnMut(u64, u32) -> Value + Send>,
    current: u64,
    inner: P,
    log: Vec<ValueVector>,
    buffered: Vec<(ProcessId, SlotMsg)>,
    done: bool,
    retention: Retention,
    /// Per-slot decide-vote certificates ([`Retention::Full`] only), in
    /// slot order: `retain` appends as slots seal.
    evidence: Vec<(u64, Certificate)>,
    /// Running `size_bytes` total of `evidence`, kept by `retain` so the
    /// per-slot note does not re-sum every retained slot.
    evidence_bytes: usize,
    /// The latest checkpoint envelope ([`Retention::Checkpoint`] only).
    checkpoint: Option<Certified<'static>>,
    /// Audits locally formed checkpoints before they replace evidence,
    /// and admits peers' catch-up checkpoints before they reach the log.
    checker: CertChecker,
    /// Observer of sealed slots (server-side batching accounting); `None`
    /// keeps the actor bit-identical to the pre-hook behavior.
    slot_hook: Option<SlotHook>,
    /// Opt-in checkpoint catch-up (see [`with_catchup`]); `None` (the
    /// default) keeps wire behavior identical to earlier revisions, which
    /// is what the byte-replay sim cross-checks rely on.
    ///
    /// [`with_catchup`]: ReplicatedLog::with_catchup
    catchup: Option<Catchup>,
    /// `true` while the current slot's instance was opened by a
    /// checkpoint seal rather than a local decide. Such an instance joins
    /// its slot mid-round — the message prefix it observes is incomplete
    /// (rounds sent before this replica reconnected are gone) — so the
    /// per-peer timing automaton's `out-of-order` verdicts over it are
    /// unsound and get defanged in [`drive`](Self::drive). Signature and
    /// certificate convictions stay live: forged bytes are proof
    /// regardless of how much prefix was seen.
    recovering: bool,
    /// The buffers every inner callback stages into.
    staging: Effects<Envelope, ValueVector>,
}

/// A sealed-slot observer: called with `(slot, decided vector)`.
type SlotHook = Box<dyn FnMut(u64, &ValueVector) + Send>;

/// Throttling state for catch-up replies to one peer.
#[derive(Debug, Clone, Copy, Default)]
struct CatchupPeer {
    /// The last stale slot this peer was answered for.
    last_slot: Option<u64>,
    /// Stale messages seen for that same slot since.
    repeats: u32,
}

/// State of the opt-in checkpoint catch-up protocol.
struct Catchup {
    /// Max checkpoints shipped per reply; the lagging replica's own
    /// next-slot traffic re-triggers the next batch, so recovery chains
    /// in `window`-sized strides.
    window: u64,
    peers: Vec<CatchupPeer>,
}

impl<P: TransformedProtocol> std::fmt::Debug for ReplicatedLog<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedLog")
            .field("me", &self.me)
            .field("slot", &self.current)
            .field("decided", &self.log.len())
            .finish_non_exhaustive()
    }
}

impl<P: TransformedProtocol> ReplicatedLog<P> {
    /// Creates a replica deciding `slots` entries; `command(slot, process)`
    /// is the value this process proposes for `slot`.
    ///
    /// The command source may be stateful (`FnMut`): the simulator feeds
    /// pure functions of `(slot, process)` for replayability, while a
    /// server feeds commands from a client-submitted queue. It is called
    /// exactly once per slot, in slot order, when the slot opens.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    pub fn new(
        setup: &ProtocolSetup,
        me: ProcessId,
        slots: u64,
        command: impl FnMut(u64, u32) -> Value + Send + 'static,
    ) -> Self {
        let mut command = Box::new(command);
        assert!(slots > 0, "a log needs at least one slot");
        let inner = P::build(setup, me, command(0, me.0));
        let res = setup.resilience;
        ReplicatedLog {
            setup: setup.clone(),
            me,
            slots,
            command,
            current: 0,
            inner,
            log: Vec::new(),
            buffered: Vec::new(),
            done: false,
            retention: Retention::Full,
            evidence: Vec::new(),
            evidence_bytes: 0,
            checkpoint: None,
            checker: CertChecker::new_for(P::ID, res.n(), res.f(), setup.dir.clone()),
            slot_hook: None,
            catchup: None,
            recovering: false,
            staging: Effects::default(),
        }
    }

    /// Selects how sealed slots' decide evidence is retained
    /// (default: [`Retention::Full`]).
    #[must_use]
    pub fn with_retention(mut self, retention: Retention) -> Self {
        self.retention = retention;
        self
    }

    /// Installs an observer called once per sealed slot with `(slot,
    /// decided vector)`, after the slot is appended to the log. A server
    /// uses this to learn which of its proposed commands committed (the
    /// batching ledger); the simulator never installs one.
    #[must_use]
    pub fn with_slot_hook(mut self, hook: impl FnMut(u64, &ValueVector) + Send + 'static) -> Self {
        self.slot_hook = Some(Box::new(hook));
        self
    }

    /// Enables checkpoint catch-up: a replica that receives traffic for a
    /// slot it has already sealed replies with quorum-signed checkpoint
    /// envelopes (at most `window` per reply, throttled per peer), and a
    /// replica receiving a checkpoint for its current slot verifies it
    /// with the full certificate analyzer and seals the slot from it.
    /// This is how a restarted replica rejoins a live cluster without
    /// replaying every instance. Requires [`Retention::Full`] on the
    /// helping side (per-slot certificates back the checkpoints).
    ///
    /// Off by default: with catch-up disabled the actor's wire behavior
    /// is unchanged, keeping simulator byte-replays valid.
    #[must_use]
    pub fn with_catchup(mut self, window: u64) -> Self {
        let n = self.setup.resilience.n();
        self.catchup = Some(Catchup {
            window: window.max(1),
            peers: vec![CatchupPeer::default(); n],
        });
        self
    }

    /// Slots decided so far at this replica.
    pub fn decided_slots(&self) -> usize {
        self.log.len()
    }

    /// The decided log prefix so far (slot order). A server exposes this
    /// — and a digest of it — through its status endpoint while the log
    /// is still growing.
    pub fn decided_log(&self) -> &[ValueVector] {
        &self.log
    }

    /// Bytes of decide evidence currently retained for sealed slots: the
    /// sum of per-slot certificates under [`Retention::Full`], the single
    /// latest checkpoint envelope under [`Retention::Checkpoint`].
    pub fn retained_bytes(&self) -> usize {
        match self.retention {
            Retention::Full => self.evidence_bytes,
            Retention::Checkpoint => self.checkpoint().map_or(0, Envelope::size_bytes),
        }
    }

    /// The latest retained checkpoint envelope, if compaction is on and a
    /// slot has sealed.
    pub fn checkpoint(&self) -> Option<&Envelope> {
        self.checkpoint.as_deref()
    }

    /// Seals `slot`'s decide evidence per the retention mode. Compaction
    /// is local bookkeeping only: nothing is sent, so enabling it cannot
    /// perturb the run's schedule or decisions.
    /// `external` carries the decide quorum when the slot was sealed from
    /// a peer's checkpoint rather than by the local instance.
    fn retain(
        &mut self,
        slot: u64,
        decided: &ValueVector,
        ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>,
        external: Option<&Certificate>,
    ) {
        let Some(cert) = external.or_else(|| self.inner.decide_evidence()) else {
            return; // decided without local evidence (cannot happen today)
        };
        match self.retention {
            Retention::Full => {
                self.evidence_bytes += cert.size_bytes();
                self.evidence.push((slot, cert.clone()));
                ctx.note(Note::Evidence(slot, self.retained_bytes() as u64));
            }
            Retention::Checkpoint => {
                let env = make_checkpoint(P::ID, slot, decided, cert.clone(), self.me, self.keys());
                // Re-audit our own compaction with the full analyzer
                // pipeline peers would apply; a checkpoint we could not
                // defend must never replace the evidence it summarizes.
                match self.checker.check_envelope(&env) {
                    Ok(audited) => {
                        self.checkpoint = Some(audited.into_owned());
                        ctx.note(Note::Checkpoint(slot, self.retained_bytes() as u64));
                    }
                    Err(e) => ctx.note(Note::CheckpointUnsound(slot, &e.to_string())),
                }
            }
        }
    }

    /// Drives one inner callback and translates its effects onto the
    /// outer context. Returns the inner decision, if one was made.
    ///
    /// The inner context stages into buffers this replica keeps, and its
    /// notes are rendered with the slot's prefix from the start, so they
    /// are passed on as they are.
    fn drive<F>(
        &mut self,
        ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>,
        call: F,
    ) -> Option<ValueVector>
    where
        F: FnOnce(&mut P, &mut Context<'_, Envelope, ValueVector>),
    {
        let slot = self.current;
        {
            // The inner protocol is deterministic and never draws
            // randomness; a null stream keeps the composition pure.
            let mut draw = || 0u64;
            let (now, n) = (ctx.now(), ctx.process_count());
            let mut inner_ctx =
                Context::new(now, self.me, n, &mut draw, &mut self.staging).notes_in_slot(slot);
            call(&mut self.inner, &mut inner_ctx);
        }
        let fx = &mut self.staging;
        for staged in fx.sends.drain(..) {
            match staged {
                StagedSend::To(to, env) => ctx.send(to, SlotMsg { slot, env }),
                StagedSend::ToAll(env) => ctx.broadcast(SlotMsg { slot, env }),
            }
        }
        for (delay, tag) in fx.timers.drain(..) {
            ctx.set_timer(delay, slot * TAGS_PER_SLOT + tag);
        }
        for text in fx.notes.drain(..) {
            // An instance opened by a checkpoint seal saw only a partial
            // message prefix (it joined the slot mid-round), so timing-
            // automaton convictions over it would convict honest peers.
            // They are kept in the trace, as findings no conviction reader
            // counts. Only such an instance's notes are read at all.
            if self.recovering {
                if let (_, Note::Detected(found)) = Note::parse(&text) {
                    if found.class == FaultClass::OutOfOrder.label() {
                        ctx.note(note::in_slot(slot, Note::Unproven(found)));
                        continue;
                    }
                }
            }
            ctx.forward_note(text);
        }
        // The inner halt is absorbed: the log replica lives on to run the
        // next slot.
        fx.decision.take()
    }

    /// This replica's signing key.
    fn keys(&self) -> &KeyPair {
        &self.setup.keys[self.me.index()]
    }

    /// Records a slot decision and opens the next slot (or finishes).
    fn advance(&mut self, decided: ValueVector, ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>) {
        self.advance_with(decided, None, ctx);
    }

    /// [`advance`](Self::advance) with an externally supplied decide
    /// quorum (catch-up path: the local instance never decided the slot).
    ///
    /// The slot seals (evidence, hook, log, note), the next slot's command
    /// is drawn, and only then is anything signed: the decided instance's
    /// DECIDE and the next instance's INIT as one pair, one RSA operation
    /// for two statements. The DECIDE is staged first, as when each was
    /// signed alone. The last slot's DECIDE is sealed alone, and so is an
    /// INIT after a checkpoint seal, which has no local DECIDE.
    fn advance_with(
        &mut self,
        decided: ValueVector,
        external: Option<&Certificate>,
        ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>,
    ) {
        self.retain(self.current, &decided, ctx, external);
        // The next instance's prefix is complete iff this slot decided
        // locally: a checkpoint seal means this replica is behind the live
        // edge and the next slot is already mid-round elsewhere.
        self.recovering = external.is_some();
        if let Some(hook) = self.slot_hook.as_mut() {
            hook(self.current, &decided);
        }
        self.log.push(decided);
        ctx.note(Note::SlotDecided(self.current, self.log.len() as u64));
        let decide = self.inner.take_announce();
        if self.log.len() as u64 == self.slots {
            if let Some(decide) = decide {
                let decide = SignedCore::sign(decide, self.keys());
                self.drive(ctx, |inner, ictx| inner.announce(decide, ictx));
            }
            self.done = true;
            ctx.decide(self.log.clone());
            ctx.halt();
            return;
        }
        let next = P::build(
            &self.setup,
            self.me,
            (self.command)(self.current + 1, self.me.0),
        );
        let init = match decide {
            Some(decide) => {
                let [decide, init] = SignedCore::sign_pair(decide, next.init_core(), self.keys());
                self.drive(ctx, |inner, ictx| inner.announce(decide, ictx));
                init
            }
            None => SignedCore::sign(next.init_core(), self.keys()),
        };
        self.current += 1;
        self.inner = next;
        if let Some(d) = self.drive(ctx, |inner, ictx| inner.start(init, ictx)) {
            // A 1-process system can decide instantly; recurse.
            self.advance(d, ctx);
            return;
        }
        self.drain(ctx);
    }

    fn drain(&mut self, ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>) {
        loop {
            if self.done {
                return;
            }
            let slot = self.current;
            let Some(pos) = self.buffered.iter().position(|(_, m)| m.slot == slot) else {
                return;
            };
            let (from, msg) = self.buffered.remove(pos);
            if self.catchup.is_some() && msg.env.kind() == MessageKind::Checkpoint {
                self.apply_checkpoint(from, &msg, ctx);
                continue;
            }
            if let Some(d) = self.drive(ctx, |inner, ictx| inner.receive(from, &msg.env, ictx)) {
                self.advance(d, ctx);
            }
        }
    }

    /// Answers a peer whose message shows it lags behind this replica:
    /// ships up to `window` checkpoint envelopes starting at the stale
    /// slot, throttled so retransmission storms for one slot don't each
    /// cost a reply. The lagging peer's own traffic for later slots
    /// re-triggers the next batch, so full recovery chains naturally.
    /// The triggering envelope must pass the full certificate analyzer
    /// first — only authenticated lag earns catch-up service — and must
    /// not be a DECIDE: a peer's DECIDE for a slot shows the peer decided
    /// it (the relay every replica sends on its way to the next slot), not
    /// that it lags.
    fn maybe_catchup_reply(
        &mut self,
        from: ProcessId,
        msg: &SlotMsg,
        ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>,
    ) {
        if self.retention != Retention::Full {
            return; // no per-slot certificates to back checkpoints
        }
        if self.catchup.is_none() || msg.env.kind() == MessageKind::Decide {
            return;
        }
        if self.checker.check_envelope(&msg.env).is_err() {
            return; // unauthenticated traffic earns no checkpoint window
        }
        let stale_slot = msg.slot;
        let Some(catchup) = self.catchup.as_mut() else {
            return;
        };
        let window = catchup.window;
        let Some(peer) = catchup.peers.get_mut(from.index()) else {
            return;
        };
        if peer.last_slot == Some(stale_slot) {
            peer.repeats = peer.repeats.saturating_add(1);
            if peer.repeats % 16 != 0 {
                return;
            }
        } else {
            peer.last_slot = Some(stale_slot);
            peer.repeats = 0;
        }
        let hi = self.current.min(stale_slot.saturating_add(window));
        let mut sent = 0u64;
        for k in stale_slot..hi {
            let Ok(at) = self.evidence.binary_search_by_key(&k, |(s, _)| *s) else {
                continue;
            };
            let cert = &self.evidence[at].1;
            let Some(vector) = self.log.get(k as usize) else {
                continue;
            };
            let env = make_checkpoint(P::ID, k, vector, cert.clone(), self.me, self.keys());
            ctx.send(from, SlotMsg { slot: k, env });
            sent += 1;
        }
        if sent > 0 {
            ctx.note(Note::CatchupSent(from, stale_slot, sent));
        }
    }

    /// Admits one checkpoint envelope for the *current* slot and seals the
    /// slot from it. The full certificate analyzer runs first; the decided
    /// vector is then extracted from the quorum the checkpoint carries,
    /// never from an unsigned field. Rejections are noted, not fatal.
    fn apply_checkpoint(
        &mut self,
        from: ProcessId,
        msg: &SlotMsg,
        ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>,
    ) {
        match self.checker.check_envelope(&msg.env) {
            Ok(checkpoint) => {
                let res = &self.setup.resilience;
                let quorum = res.n() - res.f();
                match checkpoint_vector(P::ID, quorum, &checkpoint) {
                    Some(vector) => {
                        ctx.note(Note::CatchupApplied(msg.slot, from));
                        self.advance_with(vector, Some(&checkpoint.cert), ctx);
                    }
                    None => ctx.note(Note::CatchupRejected(msg.slot, "no-quorum-vector")),
                }
            }
            Err(e) => ctx.note(Note::CatchupRejected(msg.slot, &e.to_string())),
        }
    }
}

impl<P: TransformedProtocol> Actor for ReplicatedLog<P> {
    type Msg = SlotMsg;
    type Decision = Vec<ValueVector>;

    fn on_start(&mut self, ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>) {
        if let Some(d) = self.drive(ctx, ftm_sim::Actor::on_start) {
            self.advance(d, ctx);
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &SlotMsg,
        ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>,
    ) {
        if self.done {
            return;
        }
        // Checkpoint envelopes are catch-up traffic, not instance traffic:
        // they must never reach the inner protocol (which would convict
        // the sender for an unexpected kind). Without catch-up enabled
        // they are ignored entirely.
        if msg.env.kind() == MessageKind::Checkpoint {
            if self.catchup.is_some() {
                if msg.slot > self.current {
                    self.buffered.push((from, msg.clone()));
                } else if msg.slot == self.current {
                    self.apply_checkpoint(from, msg, ctx);
                    self.drain(ctx);
                }
            }
            return;
        }
        if msg.slot > self.current {
            self.buffered.push((from, msg.clone()));
            return;
        }
        if msg.slot < self.current {
            // The slot is sealed at this replica; a lagging sender can be
            // offered the sealed prefix as checkpoints.
            self.maybe_catchup_reply(from, msg, ctx);
            return;
        }
        if let Some(d) = self.drive(ctx, |inner, ictx| inner.receive(from, &msg.env, ictx)) {
            self.advance(d, ctx);
        }
        self.drain(ctx);
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>) {
        if self.done {
            return;
        }
        let slot = tag / TAGS_PER_SLOT;
        if slot != self.current {
            return; // stale timer from a sealed slot
        }
        let inner_tag = tag % TAGS_PER_SLOT;
        if let Some(d) = self.drive(ctx, |inner, ictx| inner.tick(inner_tag, ictx)) {
            self.advance(d, ctx);
        }
        self.drain(ctx);
    }
}

/// Checks log consistency across replicas: every pair of decided logs must
/// be equal, and each slot's vector must satisfy the per-slot quorum floor.
///
/// Returns the common log when consistent.
pub fn check_log_consistency(
    decisions: &[Option<Vec<ValueVector>>],
    crashed: &[bool],
    quorum: usize,
) -> Result<Vec<ValueVector>, String> {
    let mut common: Option<&Vec<ValueVector>> = None;
    for (i, d) in decisions.iter().enumerate() {
        if crashed.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some(log) = d else {
            return Err(format!("replica {i} never completed its log"));
        };
        match common {
            None => common = Some(log),
            Some(c) if c == log => {}
            Some(_) => return Err(format!("replica {i} holds a diverging log")),
        }
    }
    let log = common.ok_or("no replica completed")?.clone();
    for (slot, vect) in log.iter().enumerate() {
        if vect.non_null_count() < quorum {
            return Err(format!("slot {slot} carries fewer than n−F commands"));
        }
    }
    Ok(log)
}

/// Replica 0's retained-evidence bytes after each sealed slot, read off a
/// run's trace: the [`Note::Evidence`] series under [`Retention::Full`],
/// the [`Note::Checkpoint`] series under [`Retention::Checkpoint`].
pub fn retained_series(trace: &Trace, retention: Retention) -> Vec<u64> {
    let bytes = |text: &&str| match (retention, Note::parse(text).1) {
        (Retention::Full, Note::Evidence(_, bytes))
        | (Retention::Checkpoint, Note::Checkpoint(_, bytes)) => Some(bytes),
        _ => None,
    };
    trace
        .notes_of(ProcessId(0))
        .iter()
        .filter_map(bytes)
        .collect()
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::rc::Rc;

    use super::*;
    use crate::config::ProtocolConfig;
    use ftm_sim::{SimConfig, Simulation, VirtualTime};

    fn cmd(slot: u64, p: u32) -> Value {
        1000 * slot + 100 + p as u64
    }

    fn run(
        n: usize,
        f: usize,
        slots: u64,
        seed: u64,
        crashes: &[(usize, u64)],
    ) -> ftm_sim::RunReport<Vec<ValueVector>> {
        let setup = ProtocolConfig::new(n, f).seed(seed).setup();
        let mut cfg = SimConfig::new(n).seed(seed);
        for &(p, t) in crashes {
            cfg = cfg.crash(p, VirtualTime::at(t));
        }
        Simulation::build_boxed(cfg, |id| {
            Box::new(ReplicatedLog::<ByzantineConsensus>::new(
                &setup, id, slots, cmd,
            ))
        })
        .run()
    }

    #[test]
    fn chandra_toueg_replicas_agree_on_a_multi_slot_log() {
        let setup = ProtocolConfig::new(4, 1).seed(5).setup();
        let report = Simulation::build_boxed(SimConfig::new(4).seed(5), |id| {
            Box::new(
                ReplicatedLog::<crate::byzantine::ByzantineChandraToueg>::new(&setup, id, 2, cmd),
            )
        })
        .run();
        let log =
            check_log_consistency(&report.decisions, &report.crashed, 3).expect("consistent log");
        assert_eq!(log.len(), 2);
        for (slot, vect) in log.iter().enumerate() {
            for (p, v) in vect.iter_set() {
                assert_eq!(v, cmd(slot as u64, p as u32));
            }
        }
    }

    #[test]
    fn honest_replicas_agree_on_a_multi_slot_log() {
        let report = run(4, 1, 3, 1, &[]);
        let log =
            check_log_consistency(&report.decisions, &report.crashed, 3).expect("consistent log");
        assert_eq!(log.len(), 3);
        // The per-layer price of the transformation is visible on log runs.
        let m = &report.metrics;
        assert!(m.certificate_bytes > 0 && m.signature_bytes > 0);
        assert_eq!(
            m.certificate_bytes + m.signature_bytes + m.protocol_bytes,
            m.bytes_sent
        );
        // Slot k's entries are slot-k commands.
        for (slot, vect) in log.iter().enumerate() {
            for (p, v) in vect.iter_set() {
                assert_eq!(v, cmd(slot as u64, p as u32));
            }
        }
    }

    #[test]
    fn logs_agree_across_seeds() {
        for seed in 0..6 {
            let report = run(4, 1, 2, seed, &[]);
            check_log_consistency(&report.decisions, &report.crashed, 3)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn a_crash_mid_log_does_not_fork_the_survivors() {
        // p3 dies somewhere inside slot 1; the other replicas finish all 3
        // slots and agree.
        let report = run(4, 1, 3, 2, &[(3, 120)]);
        let log = check_log_consistency(&report.decisions, &report.crashed, 3)
            .expect("survivors consistent");
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn five_replicas_two_faults() {
        let report = run(5, 2, 2, 3, &[(0, 0), (4, 50)]);
        let log = check_log_consistency(&report.decisions, &report.crashed, 3)
            .expect("survivors consistent");
        assert_eq!(log.len(), 2);
    }

    fn run_with_retention(
        retention: Retention,
        slots: u64,
        seed: u64,
    ) -> ftm_sim::RunReport<Vec<ValueVector>> {
        let setup = ProtocolConfig::new(4, 1).seed(seed).setup();
        Simulation::build_boxed(SimConfig::new(4).seed(seed), |id| {
            Box::new(
                ReplicatedLog::<ByzantineConsensus>::new(&setup, id, slots, cmd)
                    .with_retention(retention),
            )
        })
        .run()
    }

    #[test]
    fn compaction_does_not_change_decisions() {
        for seed in 0..4 {
            let full = run_with_retention(Retention::Full, 3, seed);
            let compact = run_with_retention(Retention::Checkpoint, 3, seed);
            assert_eq!(full.decisions, compact.decisions, "seed {seed}");
            assert_eq!(full.end_time, compact.end_time, "seed {seed}");
        }
    }

    #[test]
    fn full_retention_grows_linearly_and_compaction_stays_flat() {
        let slots = 4;
        let full = run_with_retention(Retention::Full, slots, 11);
        let linear = retained_series(&full.trace, Retention::Full);
        assert_eq!(linear.len() as u64, slots);
        assert!(
            linear.windows(2).all(|w| w[1] > w[0]),
            "full retention must grow per slot: {linear:?}"
        );
        let compact = run_with_retention(Retention::Checkpoint, slots, 11);
        let flat = retained_series(&compact.trace, Retention::Checkpoint);
        assert_eq!(flat.len() as u64, slots);
        let spread = flat.iter().max().unwrap() - flat.iter().min().unwrap();
        assert!(
            *flat.iter().max().unwrap() < *linear.last().unwrap(),
            "compacted bytes {flat:?} must undercut full retention {linear:?}"
        );
        // Flat within the jitter of per-slot quorum composition: each
        // checkpoint holds exactly one quorum, never an accumulated prefix.
        assert!(
            spread * 4 < *flat.iter().max().unwrap(),
            "compacted bytes should be slot-independent: {flat:?}"
        );
    }

    /// Delegates to a full-retention log and, after every callback,
    /// recomputes the evidence sum the running total stands in for.
    struct AuditedBytes<P: TransformedProtocol>(ReplicatedLog<P>);

    impl<P: TransformedProtocol> AuditedBytes<P> {
        fn audit(&self) {
            let recomputed: usize = self.0.evidence.iter().map(|(_, c)| c.size_bytes()).sum();
            assert_eq!(self.0.retained_bytes(), recomputed);
        }
    }

    impl<P: TransformedProtocol> Actor for AuditedBytes<P> {
        type Msg = SlotMsg;
        type Decision = Vec<ValueVector>;

        fn on_start(&mut self, ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>) {
            self.0.on_start(ctx);
            self.audit();
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            msg: &SlotMsg,
            ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>,
        ) {
            self.0.on_message(from, msg, ctx);
            self.audit();
        }

        fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>) {
            self.0.on_timer(tag, ctx);
            self.audit();
        }
    }

    #[test]
    fn running_evidence_total_equals_the_recomputed_sum_after_every_slot() {
        fn run<P: TransformedProtocol + 'static>() {
            let slots = 4;
            let setup = ProtocolConfig::new(4, 1).seed(11).setup();
            let report = Simulation::build_boxed(SimConfig::new(4).seed(11), |id| {
                Box::new(AuditedBytes(ReplicatedLog::<P>::new(
                    &setup, id, slots, cmd,
                )))
            })
            .run();
            check_log_consistency(&report.decisions, &report.crashed, 3).expect("consistent log");
            assert_eq!(
                retained_series(&report.trace, Retention::Full).len() as u64,
                slots
            );
        }
        run::<ByzantineConsensus>();
        run::<crate::byzantine::ByzantineChandraToueg>();
    }

    /// Keeps the head of every envelope delivered to the wrapped replica.
    struct Heads<P: TransformedProtocol>(ReplicatedLog<P>, Rc<RefCell<Vec<SignedCore>>>);

    impl<P: TransformedProtocol> Actor for Heads<P> {
        type Msg = SlotMsg;
        type Decision = Vec<ValueVector>;

        fn on_start(&mut self, ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>) {
            self.0.on_start(ctx);
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            msg: &SlotMsg,
            ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>,
        ) {
            self.1.borrow_mut().push(msg.env.signed.clone());
            self.0.on_message(from, msg, ctx);
        }

        fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>) {
            self.0.on_timer(tag, ctx);
        }
    }

    /// Every broadcast reaches its sender too, so replica 0's deliveries
    /// hold every signed statement of an honest run. Distinct `(signer,
    /// core digest)` are the statements, distinct `(signer, signature)`
    /// the RSA operations: one per statement, less one per replica per
    /// slot boundary, where DECIDE(k) and INIT(k + 1) share a signature.
    #[test]
    fn a_log_signs_one_pair_per_replica_per_slot_boundary() {
        fn count<P: TransformedProtocol + 'static>(n: usize, f: usize) {
            const SLOTS: u64 = 4;
            let setup = ProtocolConfig::new(n, f).seed(3).setup();
            let heads = Rc::new(RefCell::new(Vec::new()));
            let report = Simulation::build_boxed(SimConfig::new(n).seed(3), |id| {
                let log = ReplicatedLog::<P>::new(&setup, id, SLOTS, cmd);
                if id.0 == 0 {
                    Box::new(Heads(log, Rc::clone(&heads))) as ftm_sim::runner::BoxedActor<_, _>
                } else {
                    Box::new(log)
                }
            })
            .run();
            check_log_consistency(&report.decisions, &report.crashed, n - f)
                .expect("consistent log");
            let mut statements: BTreeMap<MessageKind, BTreeSet<_>> = BTreeMap::new();
            let mut operations = BTreeSet::new();
            for head in heads.borrow().iter() {
                statements
                    .entry(head.kind())
                    .or_default()
                    .insert((head.sender(), head.digest()));
                operations.insert((head.sender(), head.signature_bytes()));
            }
            let per_kind: Vec<(MessageKind, usize)> =
                statements.iter().map(|(k, s)| (*k, s.len())).collect();
            let total: usize = per_kind.iter().map(|(_, c)| c).sum();
            let boundaries = n * (SLOTS as usize - 1);
            assert_eq!(
                operations.len(),
                total - boundaries,
                "{} n={n}: statements {per_kind:?}",
                P::ID
            );
        }
        for (n, f) in [(4, 1), (7, 2)] {
            count::<ByzantineConsensus>(n, f);
            count::<crate::byzantine::ByzantineChandraToueg>(n, f);
        }
    }

    #[test]
    fn compaction_works_under_chandra_toueg_too() {
        let setup = ProtocolConfig::new(4, 1).seed(6).setup();
        let report = Simulation::build_boxed(SimConfig::new(4).seed(6), |id| {
            Box::new(
                ReplicatedLog::<crate::byzantine::ByzantineChandraToueg>::new(&setup, id, 2, cmd)
                    .with_retention(Retention::Checkpoint),
            )
        })
        .run();
        check_log_consistency(&report.decisions, &report.crashed, 3).expect("consistent log");
        let flat = retained_series(&report.trace, Retention::Checkpoint);
        assert_eq!(flat.len(), 2);
        let notes = report.trace.notes_of(ProcessId(0));
        assert!(notes
            .iter()
            .all(|text| !matches!(Note::parse(text).1, Note::CheckpointUnsound(..))));
    }

    #[test]
    fn replay_is_deterministic() {
        let a = run(4, 1, 2, 7, &[]);
        let b = run(4, 1, 2, 7, &[]);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.end_time, b.end_time);
    }

    #[test]
    fn consistency_checker_flags_divergence() {
        let v1 = vec![ValueVector::from_entries(vec![
            Some(1),
            Some(2),
            Some(3),
            None,
        ])];
        let v2 = vec![ValueVector::from_entries(vec![
            Some(9),
            Some(2),
            Some(3),
            None,
        ])];
        let err = check_log_consistency(
            &[Some(v1), Some(v2), None, None],
            &[false, false, true, true],
            3,
        )
        .unwrap_err();
        assert!(err.contains("diverging"));
    }

    // ---- checkpoint catch-up -------------------------------------------

    use ftm_certify::{Core, MessageCore, SignedCore};
    use ftm_sim::Context as RtContext;

    /// Every replica's slot-`slot` command.
    fn slot_vector(n: usize, slot: u64) -> ValueVector {
        ValueVector::from_entries(
            (0..n)
                .map(|p| Some(cmd(slot, p as u32)))
                .collect::<Vec<_>>(),
        )
    }

    /// A quorum-signed checkpoint for `slot` carrying the vector of
    /// slot-`slot` commands, exactly as a sealed replica would emit it.
    fn synthetic_checkpoint(
        setup: &crate::config::ProtocolSetup,
        slot: u64,
        sender: ProcessId,
    ) -> SlotMsg {
        let n = setup.resilience.n();
        let vect = slot_vector(n, slot);
        let quorum = n - setup.resilience.f();
        let votes = (0..quorum).map(|p| {
            SignedCore::sign(
                MessageCore::new(
                    ProcessId(p as u32),
                    Core::Current {
                        round: 1,
                        vector: vect.clone(),
                    },
                ),
                &setup.keys[p],
            )
        });
        let env = make_checkpoint(
            ftm_certify::ProtocolId::HurfinRaynal,
            slot,
            &vect,
            Certificate::from_items(votes),
            sender,
            &setup.keys[sender.index()],
        );
        SlotMsg { slot, env }
    }

    #[test]
    fn slot_message_layer_split_decomposes_its_wire_bytes() {
        let setup = ProtocolConfig::new(4, 1).seed(9).setup();
        let init = SignedCore::sign(
            MessageCore::new(ProcessId(1), Core::Init { value: 7 }),
            &setup.keys[1],
        );
        let env = Envelope::make(
            ProcessId(0),
            Core::Current {
                round: 1,
                vector: ValueVector::from_entries(vec![Some(7); 4]),
            },
            Certificate::from_items([init]),
            &setup.keys[0],
        );
        for msg in [
            SlotMsg { slot: 3, env },
            synthetic_checkpoint(&setup, 3, ProcessId(0)),
        ] {
            let split = msg.layer_split();
            assert_eq!(split.total(), msg.size_bytes());
            assert_eq!(split.certificate_bytes, msg.env.cert.size_bytes());
            assert!(split.certificate_bytes > 0 && split.signature_bytes > 0);
            assert_eq!(
                split.protocol_bytes,
                8 + msg.env.signed.core().canonical_bytes().len()
            );
            // A decoded message measures like the one that was sent.
            let back = SlotMsg::from_canonical_bytes(&msg.canonical_bytes()).expect("round trip");
            assert_eq!(back, msg);
            assert_eq!(
                (back.size_bytes(), back.layer_split()),
                (msg.size_bytes(), split)
            );
        }
    }

    #[test]
    fn checkpoints_seal_a_lagging_replica_out_of_order() {
        let setup = ProtocolConfig::new(4, 1).seed(21).setup();
        let mut log =
            ReplicatedLog::<ByzantineConsensus>::new(&setup, ProcessId(3), 3, cmd).with_catchup(8);
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx: RtContext<'_, SlotMsg, Vec<ValueVector>> =
            RtContext::new(VirtualTime::ZERO, ProcessId(3), 4, &mut draw, &mut fx);
        // Slot 2 first: must buffer, not apply.
        let early = synthetic_checkpoint(&setup, 2, ProcessId(0));
        Actor::on_message(&mut log, ProcessId(0), &early, &mut ctx);
        assert_eq!(log.log.len(), 0, "future checkpoint must buffer");
        // Slots 0 and 1 arrive; slot 2 then drains from the buffer and the
        // replica reaches its decision entirely from checkpoints.
        for k in [0, 1] {
            let msg = synthetic_checkpoint(&setup, k, ProcessId(0));
            Actor::on_message(&mut log, ProcessId(0), &msg, &mut ctx);
        }
        // No local DECIDE to pair with: the INITs of slots 1 and 2 are
        // each signed alone.
        let sent: Vec<&SlotMsg> = fx
            .sends
            .iter()
            .map(|s| match s {
                StagedSend::To(_, m) | StagedSend::ToAll(m) => m,
            })
            .collect();
        assert_eq!(sent.len(), 2);
        for m in sent {
            assert_eq!(m.env.kind(), MessageKind::Init);
            assert_eq!(m.env.signed.sibling(), None);
        }
        let decided = fx.decision.expect("sealed all three slots");
        assert_eq!(decided.len(), 3);
        for (slot, vect) in decided.iter().enumerate() {
            for (p, v) in vect.iter_set() {
                assert_eq!(v, cmd(slot as u64, p as u32));
            }
        }
        assert_eq!(
            fx.notes
                .iter()
                .filter(|t| matches!(Note::parse(t).1, Note::CatchupApplied(..)))
                .count(),
            3
        );
    }

    #[test]
    fn forged_checkpoints_are_rejected_not_applied() {
        let setup = ProtocolConfig::new(4, 1).seed(22).setup();
        let mut log =
            ReplicatedLog::<ByzantineConsensus>::new(&setup, ProcessId(3), 2, cmd).with_catchup(8);
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx: RtContext<'_, SlotMsg, Vec<ValueVector>> =
            RtContext::new(VirtualTime::ZERO, ProcessId(3), 4, &mut draw, &mut fx);
        // A checkpoint whose digest commits to a different slot than the
        // quorum certifies: the analyzer must convict, the log must not move.
        let mut msg = synthetic_checkpoint(&setup, 0, ProcessId(0));
        let honest = synthetic_checkpoint(&setup, 1, ProcessId(0));
        msg.env = Envelope::make(
            ProcessId(0),
            honest.env.core().clone(),
            msg.env.cert.clone(),
            &setup.keys[0],
        );
        msg.slot = 0;
        Actor::on_message(&mut log, ProcessId(0), &msg, &mut ctx);
        assert_eq!(log.log.len(), 0, "forged checkpoint must not seal");
        assert!(fx
            .notes
            .iter()
            .any(|t| matches!(Note::parse(t).1, Note::CatchupRejected(..))));
    }

    #[test]
    fn sealed_replicas_answer_stale_traffic_with_throttled_checkpoints() {
        let setup = ProtocolConfig::new(4, 1).seed(23).setup();
        let mut log =
            ReplicatedLog::<ByzantineConsensus>::new(&setup, ProcessId(0), 4, cmd).with_catchup(2);
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx: RtContext<'_, SlotMsg, Vec<ValueVector>> =
            RtContext::new(VirtualTime::ZERO, ProcessId(0), 4, &mut draw, &mut fx);
        // Seal three of four slots from peers' checkpoints; the external
        // certificates are retained as slot evidence.
        for k in [0, 1, 2] {
            let msg = synthetic_checkpoint(&setup, k, ProcessId(1));
            Actor::on_message(&mut log, ProcessId(1), &msg, &mut ctx);
        }
        assert_eq!(log.current, 3);
        ctx.take_staged_sends();
        // A laggard's slot-0 instance traffic earns a window of checkpoints.
        let stale = SlotMsg {
            slot: 0,
            env: Envelope::make(
                ProcessId(3),
                Core::Init { value: cmd(0, 3) },
                Certificate::default(),
                &setup.keys[3],
            ),
        };
        Actor::on_message(&mut log, ProcessId(3), &stale, &mut ctx);
        let sends = ctx.take_staged_sends();
        assert_eq!(sends.len(), 2, "window=2 bounds the reply");
        for (i, (to, reply)) in sends.iter().enumerate() {
            assert_eq!(*to, ProcessId(3));
            assert_eq!(reply.slot, i as u64);
            assert_eq!(reply.env.kind(), MessageKind::Checkpoint);
            // The reply survives the admission the laggard will run.
            log.checker.check_envelope(&reply.env).expect("valid reply");
        }
        // Repeats of the same stale slot are throttled (next reply at the
        // 16th repeat), so retransmission storms cost one reply per stride.
        for _ in 0..15 {
            Actor::on_message(&mut log, ProcessId(3), &stale, &mut ctx);
        }
        assert_eq!(ctx.take_staged_sends().len(), 0, "repeats 1-15: throttled");
        Actor::on_message(&mut log, ProcessId(3), &stale, &mut ctx);
        assert_eq!(ctx.take_staged_sends().len(), 2, "16th repeat replies");
    }

    #[test]
    fn a_peers_stale_decide_earns_no_catchup_reply() {
        let setup = ProtocolConfig::new(4, 1).seed(23).setup();
        let mut log =
            ReplicatedLog::<ByzantineConsensus>::new(&setup, ProcessId(0), 4, cmd).with_catchup(2);
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx: RtContext<'_, SlotMsg, Vec<ValueVector>> =
            RtContext::new(VirtualTime::ZERO, ProcessId(0), 4, &mut draw, &mut fx);
        for k in [0, 1, 2] {
            let msg = synthetic_checkpoint(&setup, k, ProcessId(1));
            Actor::on_message(&mut log, ProcessId(1), &msg, &mut ctx);
        }
        assert_eq!(log.current, 3);
        // p3's DECIDE relay for slot 0, backed by the slot's decide quorum:
        // authentic, stale, and no sign that p3 lags.
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx: RtContext<'_, SlotMsg, Vec<ValueVector>> =
            RtContext::new(VirtualTime::ZERO, ProcessId(0), 4, &mut draw, &mut fx);
        let quorum = synthetic_checkpoint(&setup, 0, ProcessId(1)).env.cert;
        let decide = SlotMsg {
            slot: 0,
            env: Envelope::make(
                ProcessId(3),
                Core::Decide {
                    round: 1,
                    vector: slot_vector(4, 0),
                },
                quorum,
                &setup.keys[3],
            ),
        };
        log.checker
            .check_envelope(&decide.env)
            .expect("an authentic DECIDE");
        for _ in 0..17 {
            Actor::on_message(&mut log, ProcessId(3), &decide, &mut ctx);
        }
        assert!(
            fx.sends.is_empty() && fx.timers.is_empty() && fx.notes.is_empty(),
            "{fx:?}"
        );
        assert_eq!(
            log.catchup.as_ref().map(|c| c.peers[3].last_slot),
            Some(None)
        );
    }

    #[test]
    fn a_stale_slot_deep_in_a_long_log_gets_the_evidence_a_scan_would_find() {
        const SEALED: u64 = 300;
        let setup = ProtocolConfig::new(4, 1).seed(24).setup();
        let mut log =
            ReplicatedLog::<ByzantineConsensus>::new(&setup, ProcessId(0), SEALED + 1, cmd)
                .with_catchup(4);
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx: RtContext<'_, SlotMsg, Vec<ValueVector>> =
            RtContext::new(VirtualTime::ZERO, ProcessId(0), 4, &mut draw, &mut fx);
        for k in 0..SEALED {
            let msg = synthetic_checkpoint(&setup, k, ProcessId(1));
            Actor::on_message(&mut log, ProcessId(1), &msg, &mut ctx);
        }
        assert_eq!(log.current, SEALED);
        assert_eq!(log.evidence.len() as u64, SEALED);
        ctx.take_staged_sends();
        for lo in [0, 137, 250, SEALED - 2] {
            let stale = SlotMsg {
                slot: lo,
                env: Envelope::make(
                    ProcessId(3),
                    Core::Init { value: cmd(lo, 3) },
                    Certificate::default(),
                    &setup.keys[3],
                ),
            };
            Actor::on_message(&mut log, ProcessId(3), &stale, &mut ctx);
            let sends = ctx.take_staged_sends();
            assert_eq!(sends.len() as u64, 4.min(SEALED - lo), "stale slot {lo}");
            for (k, (to, reply)) in (lo..).zip(&sends) {
                assert_eq!((*to, reply.slot), (ProcessId(3), k));
                // What the linear scan over every sealed slot found.
                let (_, scanned) = log.evidence.iter().find(|(s, _)| *s == k).expect("sealed");
                let expected = make_checkpoint(
                    ftm_certify::ProtocolId::HurfinRaynal,
                    k,
                    &log.log[k as usize],
                    scanned.clone(),
                    ProcessId(0),
                    &setup.keys[0],
                );
                assert_eq!(reply.env.to_bytes(), expected.to_bytes(), "slot {k}");
            }
        }
    }

    /// The kill-restart chaos gate rests on this: an instance opened by a
    /// checkpoint seal keeps its timing convictions out of the conviction
    /// count, and only those, and only until a slot decides locally.
    #[test]
    fn a_recovering_instance_suppresses_timing_convictions_only() {
        let setup = ProtocolConfig::new(4, 1).seed(25).setup();
        let mut log =
            ReplicatedLog::<ByzantineConsensus>::new(&setup, ProcessId(3), 4, cmd).with_catchup(8);
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx: RtContext<'_, SlotMsg, Vec<ValueVector>> =
            RtContext::new(VirtualTime::ZERO, ProcessId(3), 4, &mut draw, &mut fx);
        let init = |slot: u64, p: u32, key: usize| SlotMsg {
            slot,
            env: Envelope::make(
                ProcessId(p),
                Core::Init {
                    value: cmd(slot, p),
                },
                Certificate::default(),
                &setup.keys[key],
            ),
        };
        // Slot 0 seals from p0's checkpoint, so slot 1's instance joins
        // mid-round. p1's INIT, then the same INIT again: the per-peer
        // automaton calls the duplicate out-of-order.
        let sealed = synthetic_checkpoint(&setup, 0, ProcessId(0));
        Actor::on_message(&mut log, ProcessId(0), &sealed, &mut ctx);
        assert!(log.recovering);
        for _ in 0..2 {
            Actor::on_message(&mut log, ProcessId(1), &init(1, 1, 1), &mut ctx);
        }
        // Forged bytes are proof however little of the prefix was seen.
        Actor::on_message(&mut log, ProcessId(2), &init(1, 2, 0), &mut ctx);
        // p0's INIT and relayed DECIDE: slot 1 decides locally, so slot 2's
        // instance sees its whole prefix and the same duplicate convicts.
        Actor::on_message(&mut log, ProcessId(0), &init(1, 0, 0), &mut ctx);
        let decided = synthetic_checkpoint(&setup, 1, ProcessId(0));
        let relay = SlotMsg {
            slot: 1,
            env: Envelope::make(
                ProcessId(0),
                Core::Decide {
                    round: 1,
                    vector: slot_vector(4, 1),
                },
                decided.env.cert.clone(),
                &setup.keys[0],
            ),
        };
        Actor::on_message(&mut log, ProcessId(0), &relay, &mut ctx);
        assert_eq!((log.current, log.recovering), (2, false));
        for _ in 0..2 {
            Actor::on_message(&mut log, ProcessId(1), &init(2, 1, 1), &mut ctx);
        }

        let verdicts: Vec<String> = (fx.notes.into_iter())
            .filter(|n| n.contains("class="))
            .collect();
        assert_eq!(
            verdicts,
            [
                "s1:recovery-suppressed unproven=p1 class=out-of-order reason=duplicate INIT",
                "s1:detected=p2 class=bad-signature \
                 reason=core signature does not verify for claimed sender",
                "s2:detected=p1 class=out-of-order reason=duplicate INIT",
            ]
        );
        // Conviction counters read the suppressed note as no conviction.
        let mut trace = ftm_sim::trace::Trace::new();
        for text in verdicts {
            let event = ftm_sim::trace::TraceEvent::Note {
                process: ProcessId(3),
                text,
            };
            trace.record(VirtualTime::ZERO, event);
        }
        let counted: Vec<(String, String)> = crate::validator::detections(&trace)
            .into_iter()
            .map(|d| (d.culprit, d.class))
            .collect();
        assert_eq!(
            counted,
            [
                ("p2".to_string(), "bad-signature".to_string()),
                ("p1".to_string(), "out-of-order".to_string()),
            ]
        );
    }

    /// A fresh outer context for replica `me` of 4.
    fn outer_effects(
        log: &mut ReplicatedLog<ByzantineConsensus>,
        call: impl FnOnce(
            &mut ReplicatedLog<ByzantineConsensus>,
            &mut RtContext<'_, SlotMsg, Vec<ValueVector>>,
        ),
    ) -> ftm_sim::process::Effects<SlotMsg, Vec<ValueVector>> {
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx = RtContext::new(VirtualTime::at(3), log.me, 4, &mut draw, &mut fx);
        call(log, &mut ctx);
        fx
    }

    #[test]
    fn consecutive_drives_stage_only_their_own_effects() {
        let setup = ProtocolConfig::new(4, 1).seed(26).setup();
        let mut log = ReplicatedLog::<ByzantineConsensus>::new(&setup, ProcessId(2), 3, cmd);
        let init = |value| {
            Envelope::make(
                ProcessId(2),
                Core::Init { value },
                Certificate::default(),
                &setup.keys[2],
            )
        };
        let first = outer_effects(&mut log, |log, ctx| {
            log.drive(ctx, |_, ictx| {
                ictx.broadcast(init(1));
                ictx.send(ProcessId(0), init(2));
                ictx.set_timer(ftm_sim::Duration::of(4), 1);
                ictx.note("first");
            });
        });
        assert_eq!((first.sends.len(), first.timers.len()), (2, 1));
        assert_eq!(first.notes, ["s0:first"]);
        let quiet = outer_effects(&mut log, |log, ctx| {
            log.drive(ctx, |_, _| {});
        });
        assert!(quiet.sends.is_empty() && quiet.timers.is_empty() && quiet.notes.is_empty());
        log.current = 1;
        let second = outer_effects(&mut log, |log, ctx| {
            log.drive(ctx, |_, ictx| {
                ictx.send(ProcessId(3), init(3));
                ictx.note("second");
            });
        });
        assert_eq!(
            second.sends,
            [StagedSend::To(
                ProcessId(3),
                SlotMsg {
                    slot: 1,
                    env: init(3)
                }
            )]
        );
        assert!(second.timers.is_empty());
        assert_eq!(second.notes, ["s1:second"]);
    }

    /// One of each kind of note, as an instance says it.
    fn every_kind_of_note() -> Vec<Note<'static>> {
        let found = ftm_sim::note::Finding {
            culprit: ProcessId(1),
            class: "out-of-order",
            reason: "duplicate INIT",
        };
        let stats = "stack-stats admitted=9 sig-rejects=1 cert-rejects=0 auto-rejects=2 \
                     syntax-rejects=0 fd-mistakes=1 fd-honest-mistakes=0 quarantined=3 \
                     checkpoints=0";
        vec![
            Note::Round(3),
            Note::Suspect(ProcessId(2), 4),
            Note::Detected(found),
            Note::Unproven(found),
            Note::parse(stats).1,
            Note::SlotDecided(5, 6),
            Note::Evidence(5, 549),
            Note::Checkpoint(5, 248),
            Note::CheckpointUnsound(5, "bad-certificate by p0: too few votes"),
            Note::CatchupSent(ProcessId(3), 5, 2),
            Note::CatchupApplied(5, ProcessId(0)),
            Note::CatchupRejected(5, "no-quorum-vector"),
            Note::Text("vector-certified vect=[Some(1), None]"),
        ]
    }

    #[test]
    fn every_note_an_instance_says_reaches_the_log_behind_its_slot() {
        let setup = ProtocolConfig::new(4, 1).seed(27).setup();
        let mut log = ReplicatedLog::<ByzantineConsensus>::new(&setup, ProcessId(0), 20, cmd);
        let notes = every_kind_of_note();
        assert!(matches!(notes[4], Note::StackStats(_)), "{:?}", notes[4]);
        for (k, said) in (7..).zip(notes) {
            log.current = k;
            let fx = outer_effects(&mut log, |log, ctx| {
                log.drive(ctx, |_, ictx| ictx.note(said));
            });
            assert_eq!(fx.notes, [note::in_slot(k, said).to_string()], "{said:?}");
            assert_eq!(Note::parse(&fx.notes[0]), (Some(k), said));
        }
    }

    #[test]
    fn catchup_enabled_runs_stay_consistent() {
        // Healthy runs contain stale traffic too (slot-k messages landing
        // after a replica sealed k), so catch-up replies do flow; they must
        // be ignored by up-to-date receivers and never fork the log.
        for seed in 0..3 {
            let setup = ProtocolConfig::new(4, 1).seed(seed).setup();
            let report = Simulation::build_boxed(SimConfig::new(4).seed(seed), |id| {
                Box::new(
                    ReplicatedLog::<ByzantineConsensus>::new(&setup, id, 2, cmd).with_catchup(4),
                )
            })
            .run();
            let log = check_log_consistency(&report.decisions, &report.crashed, 3)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(log.len(), 2, "seed {seed}");
        }
    }
}
