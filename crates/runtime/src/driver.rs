//! The runtime seam: [`Runtime`] is what a host must provide to run
//! [`Actor`]s, and [`step`] is the one callback discipline both hosts
//! share.
//!
//! A runtime owns four capabilities the actor surface abstracts over:
//!
//! 1. **delivery** — turning a staged [`StagedSend`] into future
//!    `on_message` callbacks ([`Runtime::dispatch`]), and handing inputs
//!    from outside the group — a client's command — to `on_input`;
//! 2. **timers** — turning a staged `(delay, tag)` into a future
//!    `on_timer` callback ([`Runtime::schedule`]);
//! 3. **a clock** — the [`VirtualTime`] stamped on each callback's
//!    [`Context`] ([`Runtime::now`]); ticks are dimensionless in the
//!    simulator and milliseconds on the real transport;
//! 4. **seeded randomness** — the `u64` stream behind
//!    [`Context::random_u64`] ([`Runtime::rng_draw`]).
//!
//! The effect-application order inside [`Runtime::apply_effects`] — sends,
//! then timers, then notes, then the decision, then the halt — is part of
//! the boundary's contract: the simulator's byte-identical sweep reports
//! depend on it, and the transport keeps the same order so a protocol
//! observes one discipline everywhere.

use std::fmt;

use crate::process::{Actor, Context, Effects, Payload, ProcessId, StagedSend, TimerTag};
use crate::time::{Duration, VirtualTime};

/// A boxed actor that can cross thread boundaries (the transport runtime
/// hosts each replica's actor on its own event-loop thread).
pub type SendBoxedActor<M, D> = Box<dyn Actor<Msg = M, Decision = D> + Send>;

/// A host that can run [`Actor`]s: delivery, timers, a clock, seeded
/// randomness, and sinks for the observable outcomes (notes, decisions,
/// halts).
///
/// Implementations decide *what the capabilities mean* — the simulator
/// queues deliveries behind seeded virtual-time delays, the TCP transport
/// writes length-prefixed frames to peer sockets — but the actor-visible
/// contract is identical, which is what lets one protocol artifact run
/// unmodified on both.
pub trait Runtime<M: Payload, D: Clone + fmt::Debug + PartialEq> {
    /// The current time at the hosted process.
    fn now(&self) -> VirtualTime;

    /// Total number of processes `n` in the system.
    fn process_count(&self) -> usize;

    /// One draw from the runtime's seeded pseudo-random stream.
    fn rng_draw(&mut self) -> u64;

    /// Hands one staged send (unicast or whole-group broadcast) to the
    /// transport on behalf of `from`.
    fn dispatch(&mut self, from: ProcessId, send: StagedSend<M>);

    /// Schedules `on_timer(tag)` at `at`, `delay` from now.
    fn schedule(&mut self, at: ProcessId, delay: Duration, tag: TimerTag);

    /// Records a trace annotation emitted by `at`.
    fn emit_note(&mut self, at: ProcessId, text: String);

    /// Records the decision of `at` (first decision wins; a later
    /// different value is a contradiction the host may flag).
    fn record_decision(&mut self, at: ProcessId, value: D);

    /// Records that `at` halted: the host must deliver no further
    /// callbacks to it.
    fn record_halt(&mut self, at: ProcessId);

    /// Applies one callback's staged effects in the canonical order:
    /// sends, timers, notes, decision, halt — draining `fx`, whose
    /// buffers stay for the next callback.
    ///
    /// Hosts must not override this — the order is the cross-runtime
    /// contract (and, in the simulator, part of the byte-identity of
    /// sweep reports).
    fn apply_effects(&mut self, at: ProcessId, fx: &mut Effects<M, D>) {
        for send in fx.sends.drain(..) {
            self.dispatch(at, send);
        }
        for (delay, tag) in fx.timers.drain(..) {
            self.schedule(at, delay, tag);
        }
        for note in fx.notes.drain(..) {
            self.emit_note(at, note);
        }
        if let Some(value) = fx.decision.take() {
            self.record_decision(at, value);
        }
        if fx.halted {
            self.record_halt(at);
        }
    }
}

/// Runs one actor callback under `rt`'s clock and randomness, then applies
/// the staged effects.
///
/// This is the single choke point both runtimes call for every `on_start`,
/// `on_message`, `on_timer` and `on_input`: the callback sees a [`Context`] stamped
/// with [`Runtime::now`], backed by [`Runtime::rng_draw`] and staging into
/// `staging` — the one [`Effects`] the host keeps for all its callbacks —
/// and its effects are applied by [`Runtime::apply_effects`] after it
/// returns, draining `staging` for the next — never concurrently with
/// another callback of the same actor.
pub fn step<M, D, R, F>(rt: &mut R, staging: &mut Effects<M, D>, me: ProcessId, call: F)
where
    M: Payload,
    D: Clone + fmt::Debug + PartialEq,
    R: Runtime<M, D>,
    F: FnOnce(&mut Context<'_, M, D>),
{
    let now = rt.now();
    let n = rt.process_count();
    {
        let mut draw = || rt.rng_draw();
        let mut ctx: Context<'_, M, D> = Context::new(now, me, n, &mut draw, staging);
        call(&mut ctx);
    }
    rt.apply_effects(me, staging);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A runtime that records every hook invocation in order.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<String>,
        draws: u64,
    }

    impl Runtime<u64, u64> for Recorder {
        fn now(&self) -> VirtualTime {
            VirtualTime::at(7)
        }
        fn process_count(&self) -> usize {
            3
        }
        fn rng_draw(&mut self) -> u64 {
            self.draws += 1;
            self.draws
        }
        fn dispatch(&mut self, from: ProcessId, send: StagedSend<u64>) {
            self.calls.push(format!("send {from} {send:?}"));
        }
        fn schedule(&mut self, at: ProcessId, delay: Duration, tag: TimerTag) {
            self.calls.push(format!("timer {at} {delay:?} {tag}"));
        }
        fn emit_note(&mut self, at: ProcessId, text: String) {
            self.calls.push(format!("note {at} {text}"));
        }
        fn record_decision(&mut self, at: ProcessId, value: u64) {
            self.calls.push(format!("decide {at} {value}"));
        }
        fn record_halt(&mut self, at: ProcessId) {
            self.calls.push(format!("halt {at}"));
        }
    }

    #[test]
    fn effects_apply_in_canonical_order() {
        let mut rt = Recorder::default();
        step(&mut rt, &mut Effects::default(), ProcessId(1), |ctx| {
            // Stage in scrambled order: application order must not follow
            // staging order across kinds.
            ctx.halt();
            ctx.decide(9);
            ctx.note("n1");
            ctx.set_timer(Duration::of(5), 2);
            ctx.send(ProcessId(0), 11);
            ctx.broadcast(22);
        });
        assert_eq!(
            rt.calls,
            vec![
                "send p1 To(ProcessId(0), 11)",
                "send p1 ToAll(22)",
                "timer p1 Δ5 2",
                "note p1 n1",
                "decide p1 9",
                "halt p1",
            ]
        );
    }

    #[test]
    fn context_is_stamped_with_runtime_clock_and_rng() {
        let mut rt = Recorder::default();
        step(&mut rt, &mut Effects::default(), ProcessId(2), |ctx| {
            assert_eq!(ctx.now(), VirtualTime::at(7));
            assert_eq!(ctx.me(), ProcessId(2));
            assert_eq!(ctx.process_count(), 3);
            assert_eq!(ctx.random_u64(), 1);
            assert_eq!(ctx.random_u64(), 2);
        });
        assert_eq!(rt.draws, 2);
        assert!(rt.calls.is_empty());
    }

    #[test]
    fn lent_buffers_come_back_drained_and_keep_their_room() {
        let mut rt = Recorder::default();
        let mut staging = Effects::default();
        step(&mut rt, &mut staging, ProcessId(1), |ctx| {
            ctx.send(ProcessId(0), 1);
            ctx.set_timer(Duration::of(1), 3);
            ctx.note("a");
            ctx.decide(4);
        });
        assert!(staging.sends.is_empty() && staging.timers.is_empty());
        assert!(staging.notes.is_empty() && staging.decision.is_none());
        let room = staging.sends.capacity();
        assert!(room >= 1 && staging.timers.capacity() >= 1 && staging.notes.capacity() >= 1);
        rt.calls.clear();
        step(&mut rt, &mut staging, ProcessId(1), |ctx| {
            ctx.send(ProcessId(2), 5);
        });
        assert_eq!(rt.calls, ["send p1 To(ProcessId(2), 5)"]);
        assert_eq!(
            staging.sends.capacity(),
            room,
            "the same buffer, not a new one"
        );
    }

    #[test]
    fn quiet_callbacks_apply_nothing() {
        let mut rt = Recorder::default();
        step(&mut rt, &mut Effects::default(), ProcessId(0), |_ctx| {});
        assert!(rt.calls.is_empty());
    }
}
