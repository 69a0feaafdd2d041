//! Process identities, the [`Actor`] protocol trait, and the effect
//! [`Context`] handed to every callback.

use std::fmt::{self, Write as _};

use crate::note;
use crate::time::{Duration, VirtualTime};

/// Identity of a simulated process (`p_1 … p_n` in the paper, 0-based here).
///
/// # Example
///
/// ```
/// use ftm_runtime::ProcessId;
/// let p = ProcessId(2);
/// assert_eq!(p.index(), 2);
/// assert_eq!(p.to_string(), "p2");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// The process's position in `0..n`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(v: u32) -> Self {
        ProcessId(v)
    }
}

/// An application-chosen label distinguishing a process's timers.
pub type TimerTag = u64;

/// Per-module-layer decomposition of one message's wire bytes.
///
/// The transformation stack wraps protocol messages in signatures and
/// certificates; sweep reports attribute each message's bytes to the layer
/// that added them. Plain payloads are all protocol; `ftm-certify`'s
/// envelope overrides [`Payload::layer_split`] to separate the three parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerSplit {
    /// Bytes added by the signature layer (the RSA signature itself).
    pub signature_bytes: usize,
    /// Bytes added by the certification layer (the carried certificate).
    pub certificate_bytes: usize,
    /// Bytes of the protocol-level message core.
    pub protocol_bytes: usize,
}

impl LayerSplit {
    /// A split attributing everything to the protocol layer (the default
    /// for unwrapped payloads).
    pub fn protocol_only(bytes: usize) -> Self {
        LayerSplit {
            protocol_bytes: bytes,
            ..LayerSplit::default()
        }
    }

    /// Total bytes across all layers.
    pub fn total(&self) -> usize {
        self.signature_bytes + self.certificate_bytes + self.protocol_bytes
    }
}

/// Message payloads carried by the simulated network.
///
/// `size_bytes` feeds the byte-accounting metrics (experiment E6 reports
/// bytes/round for the crash vs. transformed protocols). The blanket rule is
/// implemented for common test payloads; protocol crates implement it for
/// their wire messages.
pub trait Payload: Clone + fmt::Debug {
    /// Approximate on-the-wire size of this message in bytes.
    fn size_bytes(&self) -> usize;

    /// Attribution of [`size_bytes`](Payload::size_bytes) to the module
    /// layers that produced them. The default charges everything to the
    /// protocol layer; wrapped message types (signed envelopes) override
    /// this so sweeps can report the per-layer price of the transformation.
    ///
    /// Implementations must keep `layer_split().total() == size_bytes()`.
    fn layer_split(&self) -> LayerSplit {
        LayerSplit::protocol_only(self.size_bytes())
    }

    /// Appends the short human-readable label used in run traces to
    /// `out` (defaults to the `Debug` rendering, truncated). Protocol
    /// messages override this with something like `CURRENT(r=3)`; a host
    /// renders every label into one buffer it keeps.
    fn write_label(&self, out: &mut String) {
        let start = out.len();
        let _ = write!(out, "{self:?}");
        if out.len() - start > 48 {
            out.truncate(start + 45);
            out.push_str("...");
        }
    }

    /// Whether `other` is this very message — one object reached through
    /// two handles — and not merely an equal one.
    /// [`Context::restore_staged_sends`] turns copies back into one
    /// broadcast only when they are all the same message, so a payload
    /// that answers `true` must be one whose size, split and label cannot
    /// tell the two handles apart. The default, `false`, keeps every copy a
    /// unicast.
    fn is_same(&self, other: &Self) -> bool {
        let _ = other;
        false
    }
}

impl Payload for &'static str {
    fn size_bytes(&self) -> usize {
        self.len()
    }
}

impl Payload for u64 {
    fn size_bytes(&self) -> usize {
        8
    }
}

impl Payload for Vec<u8> {
    fn size_bytes(&self) -> usize {
        self.len()
    }
}

/// A protocol running at one process.
///
/// Callbacks are invoked by a [`Runtime`](crate::Runtime) driver (the
/// simulator's runner or the TCP node loop); all effects
/// (sending, timers, deciding, halting) go through the [`Context`]. An actor
/// must not assume anything about global time or other processes beyond what
/// arrives in messages — exactly the asynchronous model of the paper.
pub trait Actor {
    /// Wire message type exchanged by this protocol.
    type Msg: Payload;
    /// Value this protocol decides (recorded in the run report).
    type Decision: Clone + fmt::Debug + PartialEq;

    /// Invoked once at simulation start (time zero), before any delivery.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Decision>);

    /// Invoked for each delivered message.
    ///
    /// The message is borrowed: a broadcast payload is shared (one
    /// allocation for all `n` receivers), so an actor that needs to keep
    /// the message — or a part of it — clones exactly what it stores.
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Decision>,
    );

    /// Invoked when a timer set through [`Context::set_timer`] fires.
    ///
    /// The default implementation ignores timers.
    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, Self::Msg, Self::Decision>) {
        let _ = (tag, ctx);
    }
}

impl<A: Actor + ?Sized> Actor for Box<A> {
    type Msg = A::Msg;
    type Decision = A::Decision;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Decision>) {
        (**self).on_start(ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Decision>,
    ) {
        (**self).on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, Self::Msg, Self::Decision>) {
        (**self).on_timer(tag, ctx);
    }
}

/// One staged outgoing message: a unicast or a whole-group broadcast.
///
/// [`Context::broadcast`] stages a single [`StagedSend::ToAll`] entry
/// instead of `n` per-target clones; the runner expands it at effect
/// application, sharing one reference-counted payload across all `n`
/// deliveries. With every process broadcasting every round, that removes
/// the ~n² payload clones per round the flat representation paid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StagedSend<M> {
    /// To one process.
    To(ProcessId, M),
    /// To every process including the sender — the paper's `send … to Π`.
    ToAll(M),
}

/// Effects an actor may stage during one callback.
///
/// The runner applies staged effects after the callback returns; fault
/// injection wrappers may inspect and rewrite staged sends in between (that
/// is how Byzantine message corruption is modeled without making the network
/// dishonest).
pub struct Context<'a, M, D> {
    now: VirtualTime,
    me: ProcessId,
    n: usize,
    rng_draw: &'a mut dyn FnMut() -> u64,
    staged: &'a mut Effects<M, D>,
    /// The log slot whose instance this context speaks for: every note
    /// then carries its `s<slot>:` prefix ([`note::in_slot`]).
    slot: Option<u64>,
}

impl<M: fmt::Debug, D: fmt::Debug> fmt::Debug for Context<'_, M, D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("me", &self.me)
            .field("n", &self.n)
            .field("staged_sends", &self.staged.sends)
            .field("staged_timers", &self.staged.timers)
            .field("decision", &self.staged.decision)
            .field("halted", &self.staged.halted)
            .finish_non_exhaustive()
    }
}

/// Effects staged by one callback, as consumed by the runner.
///
/// Also the buffers a callback stages into: a host keeps one `Effects`,
/// lends it to every callback's [`Context`] ([`Context::new`]) and drains
/// it afterwards, so a callback allocates only for what outgrows the
/// buffers, not for every entry.
#[derive(Debug)]
pub struct Effects<M, D> {
    /// Messages to hand to the network, in staging order (broadcasts as
    /// single [`StagedSend::ToAll`] entries).
    pub sends: Vec<StagedSend<M>>,
    /// Timers to schedule, as `(delay, tag)` pairs.
    pub timers: Vec<(Duration, TimerTag)>,
    /// Trace annotations emitted by the actor.
    pub notes: Vec<String>,
    /// Decision recorded during the callback, if any.
    pub decision: Option<D>,
    /// Whether the actor halted.
    pub halted: bool,
    /// Where a note is rendered before it is copied out at its length.
    text: String,
}

impl<M, D> Default for Effects<M, D> {
    fn default() -> Self {
        Effects {
            sends: Vec::new(),
            timers: Vec::new(),
            notes: Vec::new(),
            decision: None,
            halted: false,
            text: String::new(),
        }
    }
}

impl<'a, M: Payload, D: Clone + fmt::Debug + PartialEq> Context<'a, M, D> {
    /// Creates a context for one callback that stages into `staging`'s
    /// buffers, emptied first: what a host does with the one [`Effects`]
    /// it keeps, which it drains once the callback returns.
    pub fn new(
        now: VirtualTime,
        me: ProcessId,
        n: usize,
        rng_draw: &'a mut dyn FnMut() -> u64,
        staging: &'a mut Effects<M, D>,
    ) -> Self {
        staging.sends.clear();
        staging.timers.clear();
        staging.notes.clear();
        staging.decision = None;
        staging.halted = false;
        Context {
            now,
            me,
            n,
            rng_draw,
            staged: staging,
            slot: None,
        }
    }

    /// Has every note this context stages speak for log slot `slot`: it
    /// carries the slot's `s<slot>:` prefix from the start, so a log
    /// passes its instance's notes on as they are.
    #[must_use]
    pub fn notes_in_slot(mut self, slot: u64) -> Self {
        self.slot = Some(slot);
        self
    }

    /// Current virtual time at this process.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// This process's identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Total number of processes `n`.
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// Stages a message to `to` (self-sends are delivered like any other).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.staged.sends.push(StagedSend::To(to, msg));
    }

    /// Stages `msg` to every process **including the sender** — the paper's
    /// `send … to Π`. One staged entry, one payload: the runner shares it
    /// across all `n` deliveries.
    pub fn broadcast(&mut self, msg: M) {
        self.staged.sends.push(StagedSend::ToAll(msg));
    }

    /// Schedules `on_timer(tag)` to fire `delay` from now.
    pub fn set_timer(&mut self, delay: Duration, tag: TimerTag) {
        self.staged.timers.push((delay, tag));
    }

    /// Records the decision value. The first decision wins; the runner
    /// flags any later, *different* decision as a local contradiction.
    pub fn decide(&mut self, value: D) {
        if self.staged.decision.is_none() {
            self.staged.decision = Some(value);
        }
    }

    /// Stops this process: no further callbacks will run.
    pub fn halt(&mut self) {
        self.staged.halted = true;
    }

    /// Draws a deterministic pseudo-random `u64` from the run's seed stream.
    ///
    /// Provided for protocols that need local randomness (none of the
    /// paper's protocols do; fault injectors use it to vary attacks).
    pub fn random_u64(&mut self) -> u64 {
        (self.rng_draw)()
    }

    /// Takes the staged sends, flattened to per-target `(to, msg)` pairs
    /// (each broadcast expands to `n` clones, targets `p_0 … p_{n-1}` at
    /// its staged position).
    ///
    /// Intended for fault-injection wrappers (`ftm-faults`), which corrupt,
    /// drop or duplicate a wrapped actor's output *before* it reaches the
    /// honest network and need per-copy access; pair with
    /// [`restore_staged_sends`](Context::restore_staged_sends), which puts
    /// the copies a wrapper left alone back out as one broadcast. Honest
    /// runs never call this, so their broadcasts stay shared all the way
    /// to delivery.
    pub fn take_staged_sends(&mut self) -> Vec<(ProcessId, M)> {
        let n = self.n;
        let copies = |s: &StagedSend<M>| if let StagedSend::ToAll(_) = s { n } else { 1 };
        let mut flat = Vec::with_capacity(self.staged.sends.iter().map(copies).sum());
        for s in self.staged.sends.drain(..) {
            match s {
                StagedSend::To(to, msg) => flat.push((to, msg)),
                StagedSend::ToAll(msg) => {
                    for p in 0..n as u32 {
                        flat.push((ProcessId(p), msg.clone()));
                    }
                }
            }
        }
        flat
    }

    /// Puts back a (possibly rewritten) flat send list obtained from
    /// [`take_staged_sends`](Context::take_staged_sends), replacing
    /// whatever is currently staged.
    ///
    /// A run of `n` consecutive entries to `p_0 … p_{n-1}`, in that order,
    /// that are all the same message ([`Payload::is_same`]) goes back out
    /// as one [`StagedSend::ToAll`] — what an untouched broadcast flattens
    /// to. Every other entry stays a unicast. The runner expands a
    /// broadcast to exactly those `n` deliveries, in that order, so the
    /// trace, the random draws and the queue are as the unicasts would
    /// have left them.
    pub fn restore_staged_sends(&mut self, flat: Vec<(ProcessId, M)>) {
        let n = self.n;
        let staged = &mut self.staged.sends;
        staged.clear();
        // How many entries at the end of `staged` are one message to
        // p_0, p_1, … in order.
        let mut run = 0;
        for (to, msg) in flat {
            let same = matches!(staged.last(), Some(StagedSend::To(_, prev))
                if run > 0 && to.index() == run && prev.is_same(&msg));
            run = if same {
                run + 1
            } else {
                usize::from(to.index() == 0)
            };
            staged.push(StagedSend::To(to, msg));
            if same && run == n {
                staged.truncate(staged.len() + 1 - run);
                if let Some(StagedSend::To(_, msg)) = staged.pop() {
                    staged.push(StagedSend::ToAll(msg));
                }
                run = 0;
            }
        }
    }

    /// Emits a trace annotation: a [`note::Note`], or free text.
    ///
    /// Notes land in the run's trace (simulator) or note log (transport);
    /// experiment E4 measures detection latency from them. The text is
    /// rendered once, into the context's buffer, and staged as a `String`
    /// of exactly its length.
    pub fn note(&mut self, note: impl fmt::Display) {
        let staged = &mut *self.staged;
        staged.text.clear();
        let _ = match self.slot {
            Some(slot) => write!(staged.text, "{}", note::in_slot(slot, note)),
            None => write!(staged.text, "{note}"),
        };
        staged.notes.push(staged.text.as_str().to_owned());
    }

    /// Stages a note another context rendered — what a host passes on from
    /// the instance it drives — as it is.
    pub fn forward_note(&mut self, text: String) {
        self.staged.notes.push(text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Fx = Effects<&'static str, u64>;

    fn ctx<'a>(draw: &'a mut dyn FnMut() -> u64, fx: &'a mut Fx) -> Context<'a, &'static str, u64> {
        Context::new(VirtualTime::at(5), ProcessId(1), 3, draw, fx)
    }

    #[test]
    fn broadcast_stages_one_shared_entry() {
        let mut draw = || 0u64;
        let mut fx = Fx::default();
        let mut c = ctx(&mut draw, &mut fx);
        c.broadcast("m");
        assert_eq!(fx.sends, vec![StagedSend::ToAll("m")]);
    }

    #[test]
    fn taking_staged_sends_expands_broadcasts_in_order() {
        let mut draw = || 0u64;
        let mut fx = Fx::default();
        let mut c = ctx(&mut draw, &mut fx);
        c.send(ProcessId(2), "pre");
        c.broadcast("m");
        c.send(ProcessId(0), "post");
        let flat = c.take_staged_sends();
        let targets: Vec<(u32, &str)> = flat.iter().map(|(p, m)| (p.0, *m)).collect();
        assert_eq!(
            targets,
            vec![(2, "pre"), (0, "m"), (1, "m"), (2, "m"), (0, "post")]
        );
        c.restore_staged_sends(flat);
        assert_eq!(fx.sends.len(), 5);
    }

    /// A payload that knows its own identity: one allocation per message.
    #[derive(Clone, Debug, PartialEq)]
    struct Shared(std::sync::Arc<str>);

    impl Payload for Shared {
        fn size_bytes(&self) -> usize {
            self.0.len()
        }

        fn is_same(&self, other: &Self) -> bool {
            std::sync::Arc::ptr_eq(&self.0, &other.0)
        }
    }

    /// What `restore_staged_sends` stages after `edit` rewrites the flat
    /// view of: a unicast, a broadcast of `m`, a unicast (at p1 of 3).
    fn restored(edit: impl FnOnce(&mut Vec<(ProcessId, Shared)>)) -> Vec<StagedSend<Shared>> {
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut c: Context<'_, Shared, u64> =
            Context::new(VirtualTime::at(5), ProcessId(1), 3, &mut draw, &mut fx);
        c.send(ProcessId(2), Shared("pre".into()));
        c.broadcast(Shared("m".into()));
        c.send(ProcessId(0), Shared("post".into()));
        let mut flat = c.take_staged_sends();
        edit(&mut flat);
        c.restore_staged_sends(flat);
        fx.sends
    }

    fn shape(sends: &[StagedSend<Shared>]) -> Vec<String> {
        let show = |s: &StagedSend<Shared>| match s {
            StagedSend::To(to, m) => format!("{to}:{}", m.0),
            StagedSend::ToAll(m) => format!("all:{}", m.0),
        };
        sends.iter().map(show).collect()
    }

    #[test]
    fn copies_left_alone_go_back_out_as_one_broadcast() {
        let sends = restored(|_| {});
        assert_eq!(shape(&sends), ["p2:pre", "all:m", "p0:post"]);
        // A broadcast sent twice over is two broadcasts.
        let sends_twice = restored(|flat| {
            let copies: Vec<_> = flat[1..4].to_vec();
            flat.splice(4..4, copies);
        });
        assert_eq!(shape(&sends_twice), ["p2:pre", "all:m", "all:m", "p0:post"]);
    }

    #[test]
    fn a_run_with_one_equal_but_separate_copy_stays_unicasts() {
        let sends = restored(|flat| flat[2].1 = Shared("m".into()));
        assert_eq!(
            shape(&sends),
            ["p2:pre", "p0:m", "p1:m", "p2:m", "p0:post"],
            "an equal message is not the same message"
        );
    }

    #[test]
    fn reordered_or_partial_runs_stay_unicasts() {
        let swapped = restored(|flat| flat.swap(1, 2));
        assert_eq!(
            shape(&swapped),
            ["p2:pre", "p1:m", "p0:m", "p2:m", "p0:post"]
        );
        let dropped = restored(|flat| {
            flat.remove(3);
        });
        assert_eq!(shape(&dropped), ["p2:pre", "p0:m", "p1:m", "p0:post"]);
        // A run may start right after a broken one.
        let restarted = restored(|flat| {
            let copies: Vec<_> = flat[1..4].to_vec();
            flat.remove(3);
            flat.splice(3..3, copies);
        });
        assert_eq!(
            shape(&restarted),
            ["p2:pre", "p0:m", "p1:m", "all:m", "p0:post"]
        );
    }

    #[test]
    fn first_decision_wins() {
        let mut draw = || 0u64;
        let mut fx = Fx::default();
        let mut c = ctx(&mut draw, &mut fx);
        c.decide(10);
        c.decide(99);
        assert_eq!(fx.decision, Some(10));
    }

    #[test]
    fn staged_sends_are_rewritable() {
        let mut draw = || 0u64;
        let mut fx = Fx::default();
        let mut c = ctx(&mut draw, &mut fx);
        c.send(ProcessId(0), "honest");
        let mut flat = c.take_staged_sends();
        flat[0].1 = "corrupted";
        c.restore_staged_sends(flat);
        assert_eq!(fx.sends[0], StagedSend::To(ProcessId(0), "corrupted"));
    }

    #[test]
    fn timers_notes_and_halt_are_staged() {
        let mut draw = || 7u64;
        let mut fx = Fx::default();
        let mut c = ctx(&mut draw, &mut fx);
        c.set_timer(Duration::of(3), 42);
        assert_eq!(c.random_u64(), 7);
        c.note("suspect=p2");
        c.halt();
        assert_eq!(fx.timers, vec![(Duration::of(3), 42)]);
        assert_eq!(fx.notes, vec!["suspect=p2".to_string()]);
        assert!(fx.halted);
    }

    #[test]
    fn default_label_truncates_long_debug() {
        #[derive(Clone, Debug)]
        struct Big([u8; 40]);
        impl Payload for Big {
            fn size_bytes(&self) -> usize {
                self.0.len()
            }
        }
        let mut label = String::from("s1:");
        Big([1; 40]).write_label(&mut label);
        assert_eq!(label.len(), 3 + 48, "appended, then truncated to 45 + ...");
        assert!(label.starts_with("s1:Big(") && label.ends_with("..."));
    }

    #[test]
    fn process_id_display_and_index() {
        assert_eq!(ProcessId(4).to_string(), "p4");
        assert_eq!(ProcessId::from(3u32).index(), 3);
    }

    #[test]
    fn default_layer_split_is_all_protocol() {
        let split = 7u64.layer_split();
        assert_eq!(split, LayerSplit::protocol_only(8));
        assert_eq!(split.total(), 7u64.size_bytes());
        assert_eq!(split.signature_bytes, 0);
        assert_eq!(split.certificate_bytes, 0);
    }
}
