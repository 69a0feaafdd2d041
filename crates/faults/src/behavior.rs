//! The one fault-injecting actor wrapper, [`Faulty`], and its two
//! envelope-level instantiations.

use std::fmt;

use ftm_certify::Envelope;
use ftm_core::byzantine::log::SlotMsg;
use ftm_crypto::rsa::KeyPair;
use ftm_sim::{Actor, Context, Duration, Payload, ProcessId, TimerTag, VirtualTime};

/// Timer tag reserved for the wrapper's injection schedule (the inner
/// protocols use low tags).
pub const INJECT_TIMER: TimerTag = 0xFA17;

/// A Byzantine strategy: rewrites the honest protocol's output and/or
/// injects spurious messages.
///
/// `tamper` runs after every inner callback with the staged outgoing
/// messages; `inject` runs on a periodic timer and returns extra messages
/// to send. Both receive the process's own [`KeyPair`] — a faulty process
/// can always produce valid signatures *for its own identity*.
pub trait Tamper: fmt::Debug + Send {
    /// Rewrites the staged sends of one callback in place.
    fn tamper(
        &mut self,
        me: ProcessId,
        keys: &KeyPair,
        staged: &mut Vec<(ProcessId, Envelope)>,
        now: VirtualTime,
    );

    /// Extra messages to inject at `now` (default: none).
    fn inject(
        &mut self,
        me: ProcessId,
        keys: &KeyPair,
        now: VirtualTime,
    ) -> Vec<(ProcessId, Envelope)> {
        let _ = (me, keys, now);
        Vec::new()
    }
}

/// How a [`Faulty`] process deviates, for one message type `M`: the half
/// of the wrapper that knows what the messages mean.
pub trait Deviation<M: Payload>: fmt::Debug {
    /// Delay from `on_start` to the first inject-timer firing.
    fn first_inject(&self) -> Duration;

    /// Rewrites the staged sends of one inner callback in place. `staged`
    /// is the flat per-target view (a broadcast expanded to its `n`
    /// deliveries, in target order): a Byzantine process may send
    /// different corruptions to different receivers.
    fn rewrite(&mut self, me: ProcessId, now: VirtualTime, staged: &mut Vec<(ProcessId, M)>);

    /// The inject timer fired: stages any spontaneous sends on `ctx` and
    /// returns the delay to the next firing (`None` disarms the timer).
    fn inject<D>(&mut self, ctx: &mut Context<'_, M, D>) -> Option<Duration>
    where
        D: Clone + fmt::Debug + PartialEq;
}

/// A faulty process: the honest protocol `inner` wrapped by a
/// [`Deviation`].
///
/// The inner actor keeps running (and keeps believing its own bookkeeping);
/// what reaches the network is whatever the deviation leaves. This models
/// the paper's faulty process exactly: the *program text* is known and
/// common, the *execution* deviates. [`ByzantineWrapper`],
/// [`ByzantineLogWrapper`] and
/// [`CrashSaboteur`](crate::crash_attacks::CrashSaboteur) are its three
/// instantiations.
#[derive(Debug)]
pub struct Faulty<A, S> {
    pub(crate) inner: A,
    pub(crate) deviation: S,
}

impl<A: Actor, S: Deviation<A::Msg>> Faulty<A, S> {
    fn post(&mut self, ctx: &mut Context<'_, A::Msg, A::Decision>) {
        let mut flat = ctx.take_staged_sends();
        self.deviation.rewrite(ctx.me(), ctx.now(), &mut flat);
        ctx.restore_staged_sends(flat);
    }
}

impl<A: Actor, S: Deviation<A::Msg>> Actor for Faulty<A, S> {
    type Msg = A::Msg;
    type Decision = A::Decision;

    fn on_start(&mut self, ctx: &mut Context<'_, A::Msg, A::Decision>) {
        self.inner.on_start(ctx);
        ctx.set_timer(self.deviation.first_inject(), INJECT_TIMER);
        self.post(ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &A::Msg,
        ctx: &mut Context<'_, A::Msg, A::Decision>,
    ) {
        self.inner.on_message(from, msg, ctx);
        self.post(ctx);
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, A::Msg, A::Decision>) {
        if tag == INJECT_TIMER {
            if let Some(next) = self.deviation.inject(ctx) {
                ctx.set_timer(next, INJECT_TIMER);
            }
            return;
        }
        self.inner.on_timer(tag, ctx);
        self.post(ctx);
    }
}

/// A [`Tamper`] strategy applied to bare consensus envelopes, with the
/// key pair it signs under and its injection pace.
#[derive(Debug)]
pub struct EnvelopeTamper {
    tamper: Box<dyn Tamper>,
    keys: KeyPair,
    inject_interval: Duration,
}

impl Deviation<Envelope> for EnvelopeTamper {
    fn first_inject(&self) -> Duration {
        self.inject_interval
    }

    fn rewrite(
        &mut self,
        me: ProcessId,
        now: VirtualTime,
        staged: &mut Vec<(ProcessId, Envelope)>,
    ) {
        self.tamper.tamper(me, &self.keys, staged, now);
    }

    fn inject<D>(&mut self, ctx: &mut Context<'_, Envelope, D>) -> Option<Duration>
    where
        D: Clone + fmt::Debug + PartialEq,
    {
        for (to, env) in self.tamper.inject(ctx.me(), &self.keys, ctx.now()) {
            ctx.send(to, env);
        }
        Some(self.inject_interval)
    }
}

/// A one-shot consensus actor wrapped by a [`Tamper`] strategy.
pub type ByzantineWrapper<A> = Faulty<A, EnvelopeTamper>;

impl<A: Actor<Msg = Envelope>> ByzantineWrapper<A> {
    /// Wraps `inner` with a strategy. `inject_interval` paces the
    /// strategy's spontaneous sends.
    pub fn new(
        inner: A,
        tamper: Box<dyn Tamper>,
        keys: KeyPair,
        inject_interval: Duration,
    ) -> Self {
        Faulty {
            inner,
            deviation: EnvelopeTamper {
                tamper,
                keys,
                inject_interval,
            },
        }
    }
}

/// The replicated-log rendering of [`EnvelopeTamper`]: applies the *same*
/// [`Tamper`] strategies used against one-shot consensus to the consensus
/// envelope inside every staged [`SlotMsg`].
///
/// Tampering runs per slot group (a callback's sends almost always belong
/// to the replica's current slot), so strategies that drop, duplicate or
/// rewrite messages keep working unchanged; injected messages are tagged
/// with the most recent slot the wrapper has seen going out.
#[derive(Debug)]
pub struct SlotTamper {
    by_envelope: EnvelopeTamper,
    latest_slot: u64,
}

impl Deviation<SlotMsg> for SlotTamper {
    fn first_inject(&self) -> Duration {
        self.by_envelope.inject_interval
    }

    fn rewrite(&mut self, me: ProcessId, now: VirtualTime, staged: &mut Vec<(ProcessId, SlotMsg)>) {
        let mut slots: Vec<u64> = Vec::new();
        for (_, m) in staged.iter() {
            if !slots.contains(&m.slot) {
                slots.push(m.slot);
            }
        }
        let mut out = Vec::with_capacity(staged.len());
        for slot in slots {
            self.latest_slot = self.latest_slot.max(slot);
            let mut group: Vec<(ProcessId, Envelope)> = staged
                .iter()
                .filter(|(_, m)| m.slot == slot)
                .map(|(to, m)| (*to, m.env.clone()))
                .collect();
            self.by_envelope.rewrite(me, now, &mut group);
            out.extend(
                group
                    .into_iter()
                    .map(|(to, env)| (to, SlotMsg { slot, env })),
            );
        }
        *staged = out;
    }

    fn inject<D>(&mut self, ctx: &mut Context<'_, SlotMsg, D>) -> Option<Duration>
    where
        D: Clone + fmt::Debug + PartialEq,
    {
        let EnvelopeTamper { tamper, keys, .. } = &mut self.by_envelope;
        let slot = self.latest_slot;
        for (to, env) in tamper.inject(ctx.me(), keys, ctx.now()) {
            ctx.send(to, SlotMsg { slot, env });
        }
        Some(self.by_envelope.inject_interval)
    }
}

/// A [`ReplicatedLog`](ftm_core::byzantine::log::ReplicatedLog)-shaped
/// actor wrapped by a [`Tamper`] strategy.
pub type ByzantineLogWrapper<A> = Faulty<A, SlotTamper>;

impl<A: Actor<Msg = SlotMsg>> ByzantineLogWrapper<A> {
    /// Wraps `inner` with a strategy; `inject_interval` paces the
    /// strategy's spontaneous sends, exactly as for [`ByzantineWrapper`].
    pub fn new(
        inner: A,
        tamper: Box<dyn Tamper>,
        keys: KeyPair,
        inject_interval: Duration,
    ) -> Self {
        Faulty {
            inner,
            deviation: SlotTamper {
                by_envelope: EnvelopeTamper {
                    tamper,
                    keys,
                    inject_interval,
                },
                latest_slot: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_certify::{Certificate, Core, ValueVector};

    /// Drops everything: the simplest muteness strategy.
    #[derive(Debug)]
    struct DropAll;
    impl Tamper for DropAll {
        fn tamper(
            &mut self,
            _me: ProcessId,
            _keys: &KeyPair,
            staged: &mut Vec<(ProcessId, Envelope)>,
            _now: VirtualTime,
        ) {
            staged.clear();
        }
    }

    /// Minimal inner actor: broadcasts one INIT.
    #[derive(Debug)]
    struct OneShot {
        keys: KeyPair,
    }
    impl Actor for OneShot {
        type Msg = Envelope;
        type Decision = ValueVector;
        fn on_start(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
            let env = Envelope::make(
                ctx.me(),
                Core::Init { value: 1 },
                Certificate::new(),
                &self.keys,
            );
            ctx.broadcast(env);
        }
        fn on_message(
            &mut self,
            _: ProcessId,
            _: &Envelope,
            _: &mut Context<'_, Envelope, ValueVector>,
        ) {
        }
    }

    #[test]
    fn tamper_sees_and_rewrites_staged_sends() {
        let mut rng = ftm_crypto::rng_from_seed(1);
        let keys = KeyPair::generate(&mut rng, 128);
        let mut wrapper = ByzantineWrapper::new(
            OneShot { keys: keys.clone() },
            Box::new(DropAll),
            keys,
            Duration::of(10),
        );
        let mut draw = || 0u64;
        let mut ctx: Context<'_, Envelope, ValueVector> =
            Context::new(VirtualTime::ZERO, ProcessId(0), 3, &mut draw);
        wrapper.on_start(&mut ctx);
        let fx = ctx.into_effects();
        assert!(fx.sends.is_empty(), "DropAll must silence the broadcast");
        assert_eq!(fx.timers.len(), 1, "inject timer armed");
    }

    /// Minimal log-shaped actor: broadcasts one INIT tagged slot 2.
    #[derive(Debug)]
    struct OneSlot {
        keys: KeyPair,
    }
    impl Actor for OneSlot {
        type Msg = SlotMsg;
        type Decision = Vec<ValueVector>;
        fn on_start(&mut self, ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>) {
            let env = Envelope::make(
                ctx.me(),
                Core::Init { value: 1 },
                Certificate::new(),
                &self.keys,
            );
            ctx.broadcast(SlotMsg { slot: 2, env });
        }
        fn on_message(
            &mut self,
            _: ProcessId,
            _: &SlotMsg,
            _: &mut Context<'_, SlotMsg, Vec<ValueVector>>,
        ) {
        }
    }

    #[test]
    fn log_wrapper_tampers_inside_slot_messages() {
        let mut rng = ftm_crypto::rng_from_seed(3);
        let keys = KeyPair::generate(&mut rng, 128);
        let mut wrapper = ByzantineLogWrapper::new(
            OneSlot { keys: keys.clone() },
            Box::new(DropAll),
            keys,
            Duration::of(10),
        );
        let mut draw = || 0u64;
        let mut ctx: Context<'_, SlotMsg, Vec<ValueVector>> =
            Context::new(VirtualTime::ZERO, ProcessId(0), 3, &mut draw);
        wrapper.on_start(&mut ctx);
        let fx = ctx.into_effects();
        assert!(fx.sends.is_empty(), "DropAll must silence the slot traffic");
        assert_eq!(fx.timers, [(Duration::of(10), INJECT_TIMER)]);
        assert_eq!(
            wrapper.deviation.latest_slot, 2,
            "wrapper tracked the staged slot"
        );
    }

    /// Re-signs the copy bound for p1 with the process's own key: the same
    /// statement, signed once more.
    #[derive(Debug)]
    struct ResignOne;
    impl Tamper for ResignOne {
        fn tamper(
            &mut self,
            _: ProcessId,
            keys: &KeyPair,
            staged: &mut Vec<(ProcessId, Envelope)>,
            _: VirtualTime,
        ) {
            for (_, env) in staged.iter_mut().filter(|(to, _)| *to == ProcessId(1)) {
                env.signed = ftm_certify::SignedCore::sign(env.signed.core().clone(), keys);
            }
        }
    }

    #[test]
    fn a_resigned_copy_keeps_the_broadcast_n_unicasts() {
        let mut rng = ftm_crypto::rng_from_seed(5);
        let keys = KeyPair::generate(&mut rng, 128);
        let mut wrapper = ByzantineLogWrapper::new(
            OneSlot { keys: keys.clone() },
            Box::new(ResignOne),
            keys,
            Duration::of(10),
        );
        let mut draw = || 0u64;
        let mut ctx: Context<'_, SlotMsg, Vec<ValueVector>> =
            Context::new(VirtualTime::ZERO, ProcessId(0), 3, &mut draw);
        wrapper.on_start(&mut ctx);
        let fx = ctx.into_effects();
        let targets: Vec<u32> = (fx.sends.iter())
            .filter_map(|s| match s {
                ftm_sim::StagedSend::To(to, _) => Some(to.0),
                ftm_sim::StagedSend::ToAll(_) => None,
            })
            .collect();
        assert_eq!(
            targets,
            [0, 1, 2],
            "a re-signed copy is equal to the others but not the same message: {:?}",
            fx.sends
        );
    }

    /// Leaves staged sends alone; injects one NEXT(9) to p1 per firing.
    #[derive(Debug)]
    struct Spammer {
        keys: KeyPair,
    }
    impl Tamper for Spammer {
        fn tamper(
            &mut self,
            _: ProcessId,
            _: &KeyPair,
            _: &mut Vec<(ProcessId, Envelope)>,
            _: VirtualTime,
        ) {
        }
        fn inject(
            &mut self,
            me: ProcessId,
            _keys: &KeyPair,
            _now: VirtualTime,
        ) -> Vec<(ProcessId, Envelope)> {
            vec![(
                ProcessId(1),
                Envelope::make(me, Core::Next { round: 9 }, Certificate::new(), &self.keys),
            )]
        }
    }

    #[test]
    fn inject_timer_emits_strategy_messages() {
        let mut rng = ftm_crypto::rng_from_seed(2);
        let keys = KeyPair::generate(&mut rng, 128);
        let mut wrapper = ByzantineWrapper::new(
            OneShot { keys: keys.clone() },
            Box::new(Spammer { keys: keys.clone() }),
            keys,
            Duration::of(10),
        );
        let mut draw = || 0u64;
        let mut ctx: Context<'_, Envelope, ValueVector> =
            Context::new(VirtualTime::at(10), ProcessId(0), 3, &mut draw);
        wrapper.on_timer(INJECT_TIMER, &mut ctx);
        let fx = ctx.into_effects();
        assert_eq!(fx.sends.len(), 1);
        assert!(
            matches!(fx.sends[0], ftm_sim::StagedSend::To(ProcessId(1), _)),
            "inject sends are unicasts to the chosen target"
        );
        assert_eq!(fx.timers, [(Duration::of(10), INJECT_TIMER)], "re-armed");
    }

    #[test]
    fn log_wrapper_injects_into_the_latest_staged_slot() {
        let mut rng = ftm_crypto::rng_from_seed(4);
        let keys = KeyPair::generate(&mut rng, 128);
        let mut wrapper = ByzantineLogWrapper::new(
            OneSlot { keys: keys.clone() },
            Box::new(Spammer { keys: keys.clone() }),
            keys,
            Duration::of(10),
        );
        let mut draw = || 0u64;
        let mut ctx: Context<'_, SlotMsg, Vec<ValueVector>> =
            Context::new(VirtualTime::ZERO, ProcessId(0), 3, &mut draw);
        wrapper.on_start(&mut ctx);
        let fx = ctx.into_effects();
        assert!(
            matches!(&fx.sends[..], [ftm_sim::StagedSend::ToAll(m)] if m.slot == 2),
            "an untampered broadcast goes back out as one: {:?}",
            fx.sends
        );
        let mut ctx: Context<'_, SlotMsg, Vec<ValueVector>> =
            Context::new(VirtualTime::at(10), ProcessId(0), 3, &mut draw);
        wrapper.on_timer(INJECT_TIMER, &mut ctx);
        let fx = ctx.into_effects();
        assert!(
            matches!(&fx.sends[..], [ftm_sim::StagedSend::To(ProcessId(1), m)] if m.slot == 2),
            "injected envelope rides the slot last seen going out: {:?}",
            fx.sends
        );
        assert_eq!(fx.timers, [(Duration::of(10), INJECT_TIMER)], "re-armed");
    }
}
