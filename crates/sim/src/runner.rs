//! The simulation runner: event loop, effect application, run reports.
//!
//! The runner is the simulator's implementation of the runtime-agnostic
//! [`ftm_runtime::Runtime`] seam: a private `SimDriver` maps the trait's
//! capabilities onto the seeded delay model (`dispatch` → delivery events,
//! `schedule` → timer events, `now` → virtual time, `rng_draw` → the run's
//! one PRNG stream), and every callback goes through [`ftm_runtime::step`]
//! — the same choke point the real transport uses.
//!
//! Payloads travel the event queue behind [`Arc`]: a broadcast allocates
//! its message once and every pending delivery shares it, so large
//! envelopes (signature + certificate) are not cloned per receiver. The
//! same goes for what the records say about it: a staged send is measured
//! and labelled once, however many copies of it are dispatched.

use std::fmt;
use std::sync::Arc;

use ftm_runtime::note::Note;
use ftm_runtime::{step, Runtime};

use crate::config::SimConfig;
use crate::event::{EventKind, EventQueue};
use crate::metrics::Metrics;
use crate::network::Network;
use crate::prng::{Rng64, Xoshiro256PlusPlus};
use crate::process::{Actor, Payload, ProcessId, StagedSend, TimerTag};
use crate::time::{Duration, VirtualTime};
use crate::trace::{Trace, TraceEvent};

/// A boxed, type-erased actor (lets one run mix honest and faulty actors).
pub type BoxedActor<M, D> = Box<dyn Actor<Msg = M, Decision = D>>;

/// Why the run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every process halted or crashed — the protocol ran to completion.
    AllStopped,
    /// The event queue drained (no process had anything left to do).
    Quiescent,
    /// The configured `max_time` was exceeded.
    TimeLimit,
    /// The configured `max_events` budget was exhausted.
    EventLimit,
    /// A process entered a round beyond the configured `max_rounds` cap —
    /// the termination backstop for never-stabilizing networks.
    RoundLimit,
}

/// Outcome of one simulation run.
#[derive(Debug)]
pub struct RunReport<D> {
    /// Decision per process (`None` = never decided).
    pub decisions: Vec<Option<D>>,
    /// Which processes were crashed by the schedule.
    pub crashed: Vec<bool>,
    /// Which processes halted voluntarily.
    pub halted: Vec<bool>,
    /// Processes that decided twice with *different* values (a local
    /// contradiction — only a faulty actor can produce this).
    pub contradictions: Vec<ProcessId>,
    /// Virtual time when the run stopped.
    pub end_time: VirtualTime,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Full event record.
    pub trace: Trace,
    /// Cost counters.
    pub metrics: Metrics,
}

impl<D: Clone + PartialEq + fmt::Debug> RunReport<D> {
    /// `true` when every non-crashed process decided.
    pub fn all_decided(&self) -> bool {
        self.decisions
            .iter()
            .zip(&self.crashed)
            .all(|(d, crashed)| *crashed || d.is_some())
    }

    /// The common decision of all non-crashed deciders, if they agree and at
    /// least one decided; `None` on disagreement or no decision.
    pub fn unanimous(&self) -> Option<D> {
        let mut it = self
            .decisions
            .iter()
            .zip(&self.crashed)
            .filter(|(_, c)| !**c)
            .filter_map(|(d, _)| d.as_ref());
        let first = it.next()?;
        if it.all(|d| d == first) {
            Some(first.clone())
        } else {
            None
        }
    }
}

/// A configured simulation ready to [`run`](Simulation::run).
pub struct Simulation<M: Payload, D> {
    cfg: SimConfig,
    actors: Vec<BoxedActor<M, D>>,
}

impl<M: Payload, D> fmt::Debug for Simulation<M, D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("cfg", &self.cfg)
            .field("actors", &self.actors.len())
            .finish()
    }
}

impl<M, D> Simulation<M, D>
where
    M: Payload + 'static,
    D: Clone + PartialEq + fmt::Debug + 'static,
{
    /// Builds a simulation where every process runs `factory(id)`.
    pub fn build<A, F>(cfg: SimConfig, mut factory: F) -> Self
    where
        A: Actor<Msg = M, Decision = D> + 'static,
        F: FnMut(ProcessId) -> A,
    {
        Self::build_boxed(cfg, |id| Box::new(factory(id)))
    }

    /// Builds a simulation from a factory returning boxed actors — use this
    /// to mix honest processes with fault-injected ones.
    pub fn build_boxed<F>(cfg: SimConfig, mut factory: F) -> Self
    where
        F: FnMut(ProcessId) -> BoxedActor<M, D>,
    {
        let actors = (0..cfg.n as u32).map(|i| factory(ProcessId(i))).collect();
        Simulation { cfg, actors }
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(self) -> RunReport<D> {
        let Simulation { cfg, mut actors } = self;
        let n = cfg.n;
        let mut d: SimDriver<M, D> = SimDriver {
            n,
            now: VirtualTime::ZERO,
            rng: Xoshiro256PlusPlus::from_seed(cfg.rng_seed),
            network: Network::new(&cfg),
            queue: EventQueue::new(),
            trace: Trace::new(),
            metrics: Metrics::new(n),
            decisions: vec![None; n],
            crashed: vec![false; n],
            halted: vec![false; n],
            contradictions: Vec::new(),
            max_rounds: cfg.max_rounds,
            round_cap_hit: false,
            all_stopped: false,
        };

        // Crashes are scheduled first so a crash at the same instant as a
        // delivery or start pre-empts it (the process dies before acting).
        for &(idx, at) in &cfg.crashes {
            d.queue.push(at, ProcessId(idx as u32), EventKind::Crash);
        }
        for i in 0..n as u32 {
            d.queue
                .push(VirtualTime::ZERO, ProcessId(i), EventKind::Start);
        }

        let stop = loop {
            let Some(ev) = d.queue.pop() else {
                break StopReason::Quiescent;
            };
            if ev.at > cfg.max_time {
                break StopReason::TimeLimit;
            }
            if d.metrics.events_processed >= cfg.max_events {
                break StopReason::EventLimit;
            }
            d.metrics.events_processed += 1;
            d.now = ev.at;
            let pid = ev.target;
            let idx = pid.index();

            if let EventKind::Crash = ev.kind {
                if !d.crashed[idx] {
                    d.crashed[idx] = true;
                    d.trace.record(d.now, TraceEvent::Crash { process: pid });
                }
                if d.crashed.iter().zip(&d.halted).all(|(c, h)| *c || *h) {
                    break StopReason::AllStopped;
                }
                continue;
            }
            if d.crashed[idx] || d.halted[idx] {
                continue; // silence of the dead
            }

            // One callback through the shared runtime choke point: the
            // context borrows the driver's clock and RNG, and the staged
            // effects are applied in the canonical order.
            match ev.kind {
                EventKind::Start => step(&mut d, pid, |ctx| actors[idx].on_start(ctx)),
                EventKind::Deliver { from, msg } => {
                    d.metrics.on_deliver();
                    d.trace.record(
                        d.now,
                        TraceEvent::Deliver {
                            src: from,
                            dst: pid,
                            label: Arc::clone(&msg.label),
                        },
                    );
                    step(&mut d, pid, |ctx| {
                        actors[idx].on_message(from, &msg.payload, ctx);
                    });
                }
                EventKind::Timer { tag } => {
                    d.metrics.on_timer();
                    d.trace.record(
                        d.now,
                        TraceEvent::Timer {
                            at_process: pid,
                            tag,
                        },
                    );
                    step(&mut d, pid, |ctx| actors[idx].on_timer(tag, ctx));
                }
                EventKind::Crash => unreachable!("handled above"),
            }

            // Break precedence: a completed run (everyone halted/crashed)
            // wins over the round-cap backstop at the same instant.
            if d.all_stopped {
                break StopReason::AllStopped;
            }
            if d.round_cap_hit {
                break StopReason::RoundLimit;
            }
        };

        RunReport {
            decisions: d.decisions,
            crashed: d.crashed,
            halted: d.halted,
            contradictions: d.contradictions,
            end_time: d.now,
            stop,
            trace: d.trace,
            metrics: d.metrics,
        }
    }
}

/// One staged send on its way: the payload and the label its trace
/// entries carry, shared by every copy dispatched.
#[derive(Debug)]
struct InFlight<M> {
    payload: M,
    label: Arc<str>,
}

/// The simulator's [`Runtime`]: maps the runtime-agnostic capabilities
/// onto the event queue, the seeded delay model and the run's collectors.
///
/// Private to the runner — users see only [`Simulation::run`]'s report.
/// The effect-application order (inherited from
/// [`Runtime::apply_effects`]) and the RNG draw order (callback draws,
/// then one delivery-time draw per dispatched copy, in staging order) are
/// what keep sweep reports byte-identical across refactors.
struct SimDriver<M: Payload, D> {
    n: usize,
    now: VirtualTime,
    rng: Xoshiro256PlusPlus,
    network: Network,
    queue: EventQueue<Arc<InFlight<M>>>,
    trace: Trace,
    metrics: Metrics,
    decisions: Vec<Option<D>>,
    crashed: Vec<bool>,
    halted: Vec<bool>,
    contradictions: Vec<ProcessId>,
    max_rounds: Option<u64>,
    round_cap_hit: bool,
    all_stopped: bool,
}

impl<M, D> Runtime<M, D> for SimDriver<M, D>
where
    M: Payload,
    D: Clone + PartialEq + fmt::Debug,
{
    fn now(&self) -> VirtualTime {
        self.now
    }

    fn process_count(&self) -> usize {
        self.n
    }

    fn rng_draw(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn dispatch(&mut self, from: ProcessId, send: StagedSend<M>) {
        // A broadcast is expanded here: measured and labelled once, one
        // `Arc` shared across all `n` pending deliveries.
        let (payload, targets) = match send {
            StagedSend::To(to, msg) => (msg, to.0..to.0 + 1),
            StagedSend::ToAll(msg) => (msg, 0..self.n as u32),
        };
        let split = payload.layer_split();
        let bytes = payload.size_bytes();
        let label: Arc<str> = payload.label().into();
        let msg = Arc::new(InFlight { payload, label });
        for to in targets.map(ProcessId) {
            self.metrics.on_send(from, split);
            self.trace.record(
                self.now,
                TraceEvent::Send {
                    src: from,
                    dst: to,
                    bytes,
                    label: Arc::clone(&msg.label),
                },
            );
            let at = self
                .network
                .delivery_time(&mut self.rng, from, to, self.now);
            self.queue.push(
                at,
                to,
                EventKind::Deliver {
                    from,
                    msg: Arc::clone(&msg),
                },
            );
        }
    }

    fn schedule(&mut self, at: ProcessId, delay: Duration, tag: TimerTag) {
        self.queue
            .push(self.now + delay, at, EventKind::Timer { tag });
    }

    fn emit_note(&mut self, at: ProcessId, text: String) {
        if let Some(cap) = self.max_rounds {
            if let (_, Note::Round(round)) = Note::parse(&text) {
                self.round_cap_hit |= round > cap;
            }
        }
        self.trace
            .record(self.now, TraceEvent::Note { process: at, text });
    }

    fn record_decision(&mut self, at: ProcessId, value: D) {
        let idx = at.index();
        match &self.decisions[idx] {
            None => {
                self.trace.record(
                    self.now,
                    TraceEvent::Decide {
                        process: at,
                        value: format!("{value:?}"),
                    },
                );
                self.decisions[idx] = Some(value);
            }
            Some(prev) if *prev != value => self.contradictions.push(at),
            Some(_) => {}
        }
    }

    fn record_halt(&mut self, at: ProcessId) {
        self.halted[at.index()] = true;
        self.trace
            .record(self.now, TraceEvent::Halt { process: at });
        if self.crashed.iter().zip(&self.halted).all(|(c, h)| *c || *h) {
            self.all_stopped = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Context;
    use crate::time::Duration;
    use ftm_runtime::note::in_slot;

    /// Sends its id to everyone; decides on the sum of received ids.
    struct Summer {
        sum: u64,
        got: usize,
    }

    impl Actor for Summer {
        type Msg = u64;
        type Decision = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
            ctx.broadcast(ctx.me().0 as u64);
        }

        fn on_message(&mut self, _from: ProcessId, msg: &u64, ctx: &mut Context<'_, u64, u64>) {
            self.sum += *msg;
            self.got += 1;
            if self.got == ctx.process_count() {
                ctx.decide(self.sum);
                ctx.halt();
            }
        }
    }

    fn summer(_: ProcessId) -> Summer {
        Summer { sum: 0, got: 0 }
    }

    #[test]
    fn all_processes_decide_the_sum() {
        let report = Simulation::build(SimConfig::new(5).seed(3), summer).run();
        assert!(report.all_decided());
        assert_eq!(report.unanimous(), Some(1 + 2 + 3 + 4));
        assert_eq!(report.stop, StopReason::AllStopped);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let r1 = Simulation::build(SimConfig::new(4).seed(9), summer).run();
        let r2 = Simulation::build(SimConfig::new(4).seed(9), summer).run();
        assert_eq!(r1.end_time, r2.end_time);
        assert_eq!(r1.metrics, r2.metrics);
        assert_eq!(r1.trace.entries(), r2.trace.entries());
    }

    #[test]
    fn different_seeds_differ() {
        let r1 = Simulation::build(SimConfig::new(4).seed(1), summer).run();
        let r2 = Simulation::build(SimConfig::new(4).seed(2), summer).run();
        // Same decisions, (almost surely) different schedules.
        assert_eq!(r1.unanimous(), r2.unanimous());
        assert_ne!(r1.trace.entries(), r2.trace.entries());
    }

    #[test]
    fn crashed_process_goes_silent() {
        let cfg = SimConfig::new(3).seed(5).crash(0, VirtualTime::ZERO);
        let report = Simulation::build(cfg, summer).run();
        // p0 crashed before sending anything: nobody can collect 3 messages.
        assert!(!report.all_decided());
        assert!(report.crashed[0]);
        assert_eq!(report.decisions, vec![None, None, None]);
        assert_eq!(report.stop, StopReason::Quiescent);
    }

    #[test]
    fn run_ends_before_a_late_crash_fires() {
        let cfg = SimConfig::new(3)
            .seed(5)
            .crash(2, VirtualTime::at(1_000_000));
        let report = Simulation::build(cfg, summer).run();
        assert!(report.all_decided());
        // Everyone halted long before the scheduled crash, so the run ends
        // with the crash never having happened.
        assert!(!report.crashed[2]);
        assert_eq!(report.stop, StopReason::AllStopped);
    }

    #[test]
    fn metrics_count_broadcasts() {
        let report = Simulation::build(SimConfig::new(4).seed(0), summer).run();
        assert_eq!(report.metrics.messages_sent, 16); // 4 processes × 4 targets
        assert_eq!(report.metrics.bytes_sent, 16 * 8);
        assert_eq!(report.metrics.messages_delivered, 16);
    }

    /// Counts how often the runner measures and labels it:
    /// `[size_bytes, layer_split, label]`.
    #[derive(Clone, Debug)]
    struct Counted(std::rc::Rc<std::cell::Cell<[u32; 3]>>);

    impl Counted {
        fn bump(&self, i: usize) {
            let mut calls = self.0.get();
            calls[i] += 1;
            self.0.set(calls);
        }
    }

    impl Payload for Counted {
        fn size_bytes(&self) -> usize {
            self.bump(0);
            40
        }

        fn layer_split(&self) -> crate::process::LayerSplit {
            self.bump(1);
            crate::process::LayerSplit {
                signature_bytes: 16,
                certificate_bytes: 20,
                protocol_bytes: 4,
            }
        }

        fn label(&self) -> String {
            self.bump(2);
            "COUNTED(r=1) cert=2".into()
        }
    }

    /// Process 0 broadcasts one [`Counted`]; nobody answers.
    struct Shouter(Counted);

    impl Actor for Shouter {
        type Msg = Counted;
        type Decision = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, Counted, u64>) {
            if ctx.me() == ProcessId(0) {
                ctx.broadcast(self.0.clone());
            }
        }

        fn on_message(&mut self, _: ProcessId, _: &Counted, _: &mut Context<'_, Counted, u64>) {}
    }

    #[test]
    fn a_broadcast_is_measured_and_labelled_once_whatever_n() {
        let calls = std::rc::Rc::new(std::cell::Cell::new([0; 3]));
        let report = Simulation::build(SimConfig::new(7).seed(4), |_| {
            Shouter(Counted(std::rc::Rc::clone(&calls)))
        })
        .run();
        assert_eq!(calls.get(), [1, 1, 1], "size_bytes, layer_split, label");
        // The n Send entries read as they did when each copy was measured
        // and labelled by itself (the rendering feeds `Trace::fingerprint`).
        let sends: Vec<String> = report
            .trace
            .entries()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Send { .. }))
            .map(|e| format!("{:?}", e.event))
            .collect();
        let expected: Vec<String> = (0..7)
            .map(|to| {
                format!(
                    "Send {{ src: ProcessId(0), dst: ProcessId({to}), bytes: 40, \
                     label: \"COUNTED(r=1) cert=2\" }}"
                )
            })
            .collect();
        assert_eq!(sends, expected);
        let delivered = report
            .trace
            .entries()
            .iter()
            .filter(|e| {
                matches!(&e.event, TraceEvent::Deliver { src: ProcessId(0), label, .. }
                    if &**label == "COUNTED(r=1) cert=2")
            })
            .count();
        assert_eq!(delivered, 7);
        let m = &report.metrics;
        assert_eq!((m.messages_sent, m.bytes_sent), (7, 7 * 40));
        assert_eq!(
            (m.signature_bytes, m.certificate_bytes, m.protocol_bytes),
            (7 * 16, 7 * 20, 7 * 4)
        );
        assert_eq!(m.bytes_per_process[0], 7 * 40);
    }

    struct TimerLoop {
        fired: u64,
    }

    impl Actor for TimerLoop {
        type Msg = u64;
        type Decision = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
            ctx.set_timer(Duration::of(10), 1);
        }

        fn on_message(&mut self, _: ProcessId, _: &u64, _: &mut Context<'_, u64, u64>) {}

        fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, u64, u64>) {
            assert_eq!(tag, 1);
            self.fired += 1;
            if self.fired == 3 {
                ctx.decide(self.fired);
                ctx.halt();
            } else {
                ctx.set_timer(Duration::of(10), 1);
            }
        }
    }

    #[test]
    fn timers_rearm_and_fire_in_order() {
        let report = Simulation::build(SimConfig::new(2).seed(0), |_| TimerLoop { fired: 0 }).run();
        assert_eq!(report.unanimous(), Some(3));
        assert_eq!(report.end_time, VirtualTime::at(30));
        assert_eq!(report.metrics.timers_fired, 6);
    }

    struct Chatter;

    impl Actor for Chatter {
        type Msg = u64;
        type Decision = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
            ctx.send(ctx.me(), 0);
        }

        fn on_message(&mut self, _: ProcessId, msg: &u64, ctx: &mut Context<'_, u64, u64>) {
            ctx.send(ctx.me(), msg + 1); // ping-pong with self forever
        }
    }

    #[test]
    fn event_budget_stops_runaway_protocols() {
        let mut cfg = SimConfig::new(1).seed(0);
        cfg.max_events = 100;
        let report = Simulation::build(cfg, |_| Chatter).run();
        assert_eq!(report.stop, StopReason::EventLimit);
        assert!(report.metrics.events_processed <= 100);
    }

    #[test]
    fn time_limit_stops_slow_protocols() {
        let cfg = SimConfig::new(1).seed(0).max_time(VirtualTime::at(50));
        let report = Simulation::build(cfg, |_| TimerLoop { fired: 0 }).run();
        // TimerLoop on one process decides at t=30 < 50, so it finishes;
        // use Chatter instead for the limit.
        assert_eq!(report.stop, StopReason::AllStopped);
        let cfg = SimConfig::new(1).seed(0).max_time(VirtualTime::at(50));
        let report = Simulation::build(cfg, |_| Chatter).run();
        assert_eq!(report.stop, StopReason::TimeLimit);
    }

    /// Notes entry into round `r + 1` on every timer tick, forever — as a
    /// log's `slot` instance would, if given one.
    struct RoundChurner {
        r: u64,
        slot: Option<u64>,
    }

    impl Actor for RoundChurner {
        type Msg = u64;
        type Decision = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
            ctx.set_timer(Duration::of(10), 1);
        }

        fn on_message(&mut self, _: ProcessId, _: &u64, _: &mut Context<'_, u64, u64>) {}

        fn on_timer(&mut self, _: u64, ctx: &mut Context<'_, u64, u64>) {
            self.r += 1;
            let round = Note::Round(self.r);
            ctx.note(self.slot.map_or(round.into(), |slot| in_slot(slot, round)));
            ctx.set_timer(Duration::of(10), 1);
        }
    }

    #[test]
    fn round_cap_stops_churning_protocols() {
        // A log instance's round notes (the log workload) hit the cap too.
        for slot in [None, Some(2)] {
            let cfg = SimConfig::new(1).seed(0).max_rounds(3);
            let report = Simulation::build(cfg, |_| RoundChurner { r: 0, slot }).run();
            assert_eq!(report.stop, StopReason::RoundLimit);
            // The run ended right when round 4 was announced: t = 4 ticks of 10.
            assert_eq!(report.end_time, VirtualTime::at(40));
            // Without the cap the same protocol runs to the time limit.
            let cfg = SimConfig::new(1).seed(0).max_time(VirtualTime::at(500));
            let report = Simulation::build(cfg, |_| RoundChurner { r: 0, slot }).run();
            assert_eq!(report.stop, StopReason::TimeLimit);
        }
    }

    #[test]
    fn notes_reach_the_trace() {
        struct Noter;
        impl Actor for Noter {
            type Msg = u64;
            type Decision = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
                ctx.note("round=1");
                ctx.halt();
            }
            fn on_message(&mut self, _: ProcessId, _: &u64, _: &mut Context<'_, u64, u64>) {}
        }
        let report = Simulation::build(SimConfig::new(1).seed(0), |_| Noter).run();
        assert_eq!(report.trace.notes_of(ProcessId(0)), vec!["round=1"]);
    }

    #[test]
    fn contradiction_is_flagged() {
        struct Flipper;
        impl Actor for Flipper {
            type Msg = u64;
            type Decision = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
                ctx.send(ctx.me(), 0);
                ctx.decide(1);
            }
            fn on_message(&mut self, _: ProcessId, _: &u64, ctx: &mut Context<'_, u64, u64>) {
                ctx.decide(2); // contradicts the earlier decision
                ctx.halt();
            }
        }
        let report = Simulation::build(SimConfig::new(1).seed(0), |_| Flipper).run();
        assert_eq!(report.contradictions, vec![ProcessId(0)]);
    }
}
