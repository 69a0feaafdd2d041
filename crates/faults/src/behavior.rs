//! The one fault-injecting actor wrapper, [`Faulty`], and its
//! transformed-protocol instantiation.

use std::fmt;

use ftm_crypto::rsa::KeyPair;
use ftm_sim::{Actor, Context, Duration, Payload, ProcessId, StagedSend, TimerTag, VirtualTime};

use crate::attacks::{Attack, Campaign};

/// Timer tag reserved for the wrapper's injection schedule (the inner
/// protocols use low tags).
pub const INJECT_TIMER: TimerTag = 0xFA17;

/// How a [`Faulty`] process deviates, for one message type `M`: the half
/// of the wrapper that knows what the messages mean.
pub trait Deviation<M: Payload>: fmt::Debug {
    /// Delay from `on_start` to the first inject-timer firing.
    fn first_inject(&self) -> Duration;

    /// Rewrites the sends one inner callback of `me`, one of `n`
    /// processes, staged at `now`, in place and as they were staged: a
    /// broadcast is one [`StagedSend::ToAll`], which the network delivers
    /// to `p_0 … p_{n-1}` in that order. A deviation that treats every
    /// receiver alike edits it once and leaves it a broadcast; one that
    /// treats receivers differently (a Byzantine process may) replaces it
    /// by its `n` unicasts first.
    fn rewrite(
        &mut self,
        me: ProcessId,
        n: usize,
        now: VirtualTime,
        staged: &mut Vec<StagedSend<M>>,
    );

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
/// common, the *execution* deviates. [`ByzantineWrapper`] (alias
/// [`ByzantineLogWrapper`]) and
/// [`CrashSaboteur`](crate::crash_attacks::CrashSaboteur) are its two
/// instantiations.
#[derive(Debug)]
pub struct Faulty<A, S> {
    pub(crate) inner: A,
    pub(crate) deviation: S,
}

impl<A: Actor, S: Deviation<A::Msg>> Faulty<A, S> {
    fn post(&mut self, ctx: &mut Context<'_, A::Msg, A::Decision>) {
        let (me, n, now) = (ctx.me(), ctx.process_count(), ctx.now());
        self.deviation.rewrite(me, n, now, ctx.staged_sends());
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

    fn on_input(&mut self, input: &[u8], ctx: &mut Context<'_, A::Msg, A::Decision>) {
        self.inner.on_input(input, ctx);
        self.post(ctx);
    }
}

/// A one-shot consensus actor running an [`Attack`].
pub type ByzantineWrapper<A> = Faulty<A, Campaign>;

/// A [`ReplicatedLog`](ftm_core::byzantine::log::ReplicatedLog)-shaped
/// actor running an [`Attack`] on the consensus envelope inside every
/// slot message: the same type as [`ByzantineWrapper`], named for its
/// call sites.
pub type ByzantineLogWrapper<A> = Faulty<A, Campaign>;

impl<A: Actor> Faulty<A, Campaign>
where
    Campaign: Deviation<A::Msg>,
{
    /// Wraps `inner`, which signs under `keys`, with `attack`;
    /// `inject_interval` paces the attack's spontaneous sends.
    pub fn new(inner: A, attack: Attack, keys: KeyPair, inject_interval: Duration) -> Self {
        Faulty {
            inner,
            deviation: Campaign::new(attack, keys, inject_interval),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_certify::{Certificate, Core, Envelope, ValueVector};
    use ftm_core::byzantine::log::SlotMsg;
    use ftm_sim::process::Effects;

    /// Drops everything: the simplest muteness strategy.
    #[derive(Debug)]
    struct DropAll;
    impl Deviation<Envelope> for DropAll {
        fn first_inject(&self) -> Duration {
            Duration::of(10)
        }
        fn rewrite(
            &mut self,
            _: ProcessId,
            _: usize,
            _: VirtualTime,
            staged: &mut Vec<StagedSend<Envelope>>,
        ) {
            staged.clear();
        }
        fn inject<D>(&mut self, _: &mut Context<'_, Envelope, D>) -> Option<Duration>
        where
            D: Clone + fmt::Debug + PartialEq,
        {
            Some(Duration::of(10))
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

    fn keys(seed: u64) -> KeyPair {
        let mut rng = ftm_crypto::rng_from_seed(seed);
        KeyPair::generate(&mut rng, 128)
    }

    #[test]
    fn tamper_sees_and_rewrites_staged_sends() {
        let keys = keys(1);
        let mut wrapper = Faulty {
            inner: OneShot { keys },
            deviation: DropAll,
        };
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx: Context<'_, Envelope, ValueVector> =
            Context::new(VirtualTime::ZERO, ProcessId(0), 3, &mut draw, &mut fx);
        wrapper.on_start(&mut ctx);
        assert!(fx.sends.is_empty(), "DropAll must silence the broadcast");
        assert_eq!(fx.timers.len(), 1, "inject timer armed");
    }

    /// p0's INIT tagged slot 2.
    fn slot_init(keys: &KeyPair) -> SlotMsg {
        let init = Core::Init { value: 1 };
        let env = Envelope::make(ProcessId(0), init, Certificate::new(), keys);
        SlotMsg { slot: 2, env }
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
            ctx.broadcast(slot_init(&self.keys));
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
        let keys = keys(3);
        let mute = Attack::Mute {
            after: VirtualTime::ZERO,
        };
        let mut wrapper =
            ByzantineLogWrapper::new(OneSlot { keys: keys.clone() }, mute, keys, Duration::of(10));
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx: Context<'_, SlotMsg, Vec<ValueVector>> =
            Context::new(VirtualTime::ZERO, ProcessId(0), 3, &mut draw, &mut fx);
        wrapper.on_start(&mut ctx);
        assert!(
            fx.sends.is_empty(),
            "muteness must silence the slot traffic"
        );
        assert_eq!(fx.timers, [(Duration::of(10), INJECT_TIMER)]);
        assert_eq!(
            wrapper.deviation.latest_slot, 2,
            "wrapper tracked the staged slot"
        );
    }

    #[test]
    fn a_wrapped_log_still_receives_a_submission() {
        use ftm_core::byzantine::log::ReplicatedLog;
        use ftm_core::byzantine::ByzantineConsensus;
        use ftm_core::config::ProtocolConfig;
        use ftm_crypto::wire::CanonicalEncode;
        let setup = ProtocolConfig::new(4, 1).seed(8).setup();
        let log = ReplicatedLog::<ByzantineConsensus>::new(&setup, ProcessId(0), 2, |_, _| 5);
        let mute = Attack::Mute {
            after: VirtualTime::ZERO,
        };
        let mut wrapper =
            ByzantineLogWrapper::new(log, mute, setup.keys[0].clone(), Duration::of(10));
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx: Context<'_, SlotMsg, Vec<ValueVector>> =
            Context::new(VirtualTime::ZERO, ProcessId(0), 4, &mut draw, &mut fx);
        wrapper.on_start(&mut ctx);
        for command in [42u64, 43] {
            wrapper.on_input(&command.canonical_bytes(), &mut ctx);
        }
        assert_eq!(wrapper.inner.ledger().queued(), 2);
    }

    /// Re-signs the copy bound for p1 with the process's own key: the same
    /// statement, signed once more. It treats one receiver apart, so it
    /// replaces the broadcast by its `n` unicasts first.
    #[derive(Debug)]
    struct ResignOne {
        keys: KeyPair,
    }
    impl Deviation<SlotMsg> for ResignOne {
        fn first_inject(&self) -> Duration {
            Duration::of(10)
        }
        fn rewrite(
            &mut self,
            _: ProcessId,
            n: usize,
            _: VirtualTime,
            staged: &mut Vec<StagedSend<SlotMsg>>,
        ) {
            for send in std::mem::take(staged) {
                let StagedSend::ToAll(m) = send else {
                    staged.push(send);
                    continue;
                };
                for p in 0..n as u32 {
                    let mut m = m.clone();
                    if p == 1 {
                        let core = m.env.signed.core().clone();
                        m.env.signed = ftm_certify::SignedCore::sign(core, &self.keys);
                    }
                    staged.push(StagedSend::To(ProcessId(p), m));
                }
            }
        }
        fn inject<D>(&mut self, _: &mut Context<'_, SlotMsg, D>) -> Option<Duration>
        where
            D: Clone + fmt::Debug + PartialEq,
        {
            Some(Duration::of(10))
        }
    }

    #[test]
    fn a_resigned_copy_keeps_the_broadcast_n_unicasts() {
        let keys = keys(5);
        let broadcast = slot_init(&keys);
        let mut wrapper = Faulty {
            inner: OneSlot { keys: keys.clone() },
            deviation: ResignOne { keys },
        };
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx: Context<'_, SlotMsg, Vec<ValueVector>> =
            Context::new(VirtualTime::ZERO, ProcessId(0), 3, &mut draw, &mut fx);
        wrapper.on_start(&mut ctx);
        let sent: Vec<(u32, bool)> = fx
            .sends
            .iter()
            .map(|s| match s {
                StagedSend::To(to, m) => (to.0, *m == broadcast),
                StagedSend::ToAll(_) => panic!("p1's copy was treated apart"),
            })
            .collect();
        assert_eq!(
            sent,
            [(0, true), (1, true), (2, true)],
            "the broadcast's deliveries, in target order, each the same statement: {:?}",
            fx.sends
        );
    }

    /// Leaves staged sends alone; injects one NEXT(9) to p1 per firing.
    #[derive(Debug)]
    struct Spammer {
        keys: KeyPair,
    }
    impl Deviation<Envelope> for Spammer {
        fn first_inject(&self) -> Duration {
            Duration::of(10)
        }
        fn rewrite(
            &mut self,
            _: ProcessId,
            _: usize,
            _: VirtualTime,
            _: &mut Vec<StagedSend<Envelope>>,
        ) {
        }
        fn inject<D>(&mut self, ctx: &mut Context<'_, Envelope, D>) -> Option<Duration>
        where
            D: Clone + fmt::Debug + PartialEq,
        {
            let next = Envelope::make(
                ctx.me(),
                Core::Next { round: 9 },
                Certificate::new(),
                &self.keys,
            );
            ctx.send(ProcessId(1), next);
            Some(Duration::of(10))
        }
    }

    #[test]
    fn inject_timer_emits_strategy_messages() {
        let keys = keys(2);
        let mut wrapper = Faulty {
            inner: OneShot { keys: keys.clone() },
            deviation: Spammer { keys },
        };
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx: Context<'_, Envelope, ValueVector> =
            Context::new(VirtualTime::at(10), ProcessId(0), 3, &mut draw, &mut fx);
        wrapper.on_timer(INJECT_TIMER, &mut ctx);
        assert_eq!(fx.sends.len(), 1);
        assert!(
            matches!(fx.sends[0], StagedSend::To(ProcessId(1), _)),
            "inject sends are unicasts to the chosen target"
        );
        assert_eq!(fx.timers, [(Duration::of(10), INJECT_TIMER)], "re-armed");
    }

    #[test]
    fn log_wrapper_injects_into_the_latest_staged_slot() {
        let keys = keys(4);
        let forge = Attack::Forge {
            kind: ftm_certify::MessageKind::Decide,
            poison: 999,
            trigger: crate::attacks::Trigger::At(VirtualTime::ZERO),
        };
        let mut wrapper = ByzantineLogWrapper::new(
            OneSlot { keys: keys.clone() },
            forge,
            keys,
            Duration::of(10),
        );
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx: Context<'_, SlotMsg, Vec<ValueVector>> =
            Context::new(VirtualTime::ZERO, ProcessId(0), 3, &mut draw, &mut fx);
        wrapper.on_start(&mut ctx);
        assert!(
            matches!(&fx.sends[..], [StagedSend::ToAll(m)] if m.slot == 2),
            "an untampered broadcast goes back out as one: {:?}",
            fx.sends
        );
        let mut fx = Effects::default();
        let mut ctx: Context<'_, SlotMsg, Vec<ValueVector>> =
            Context::new(VirtualTime::at(10), ProcessId(0), 3, &mut draw, &mut fx);
        wrapper.on_timer(INJECT_TIMER, &mut ctx);
        assert!(
            matches!(&fx.sends[..], [StagedSend::ToAll(m)] if m.slot == 2),
            "the forgery is one broadcast riding the slot last seen going out: {:?}",
            fx.sends
        );
        assert_eq!(fx.timers, [(Duration::of(10), INJECT_TIMER)], "re-armed");
    }

    #[test]
    fn a_replay_reaches_every_process_of_the_system() {
        // n = 7: the recorded INIT broadcast is seven copies, and each is
        // broadcast again, to p0 … p6.
        let keys = keys(6);
        let replay = Attack::Replay {
            at: VirtualTime::at(10),
        };
        let mut wrapper = ByzantineWrapper::new(
            OneShot { keys: keys.clone() },
            replay,
            keys,
            Duration::of(10),
        );
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx: Context<'_, Envelope, ValueVector> =
            Context::new(VirtualTime::ZERO, ProcessId(0), 7, &mut draw, &mut fx);
        wrapper.on_start(&mut ctx);
        assert_eq!(fx.sends.len(), 1, "the honest broadcast");
        let mut fx = Effects::default();
        let mut ctx: Context<'_, Envelope, ValueVector> =
            Context::new(VirtualTime::at(10), ProcessId(0), 7, &mut draw, &mut fx);
        wrapper.on_timer(INJECT_TIMER, &mut ctx);
        let targets: Vec<u32> = fx
            .sends
            .iter()
            .flat_map(|s| match s {
                StagedSend::To(to, _) => to.0..to.0 + 1,
                StagedSend::ToAll(_) => 0..7,
            })
            .collect();
        let every: Vec<u32> = (0..7).collect();
        assert_eq!(targets, every.repeat(7));
        assert_eq!(fx.sends.len(), 7, "one broadcast per recorded copy");
    }
}
