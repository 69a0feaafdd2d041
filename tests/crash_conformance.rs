//! The crash actors against their own spec: every process's sends, read
//! off its staged effects, are a trace `ProtocolSpec::crash_for(p)` accepts.
//!
//! `ftm-verify` checks the crash specs for internal soundness but never
//! reads the program they describe; the transformed round modules are held
//! to their spec by `Shell::emit`'s types. The crash shell has no typed
//! send path (crash Chandra–Toueg unicasts), so this test is its
//! conformance check.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use ft_modular::certify::{MessageKind, ProtocolId, Value};
use ft_modular::core::crash::shell::Rounds;
use ft_modular::core::crash::{ct, hr, Crash, CrashMsg};
use ft_modular::core::spec::{ProtocolSpec, Resilience};
use ft_modular::fd::TimeoutDetector;
use ft_modular::sim::{
    Actor, Context, Duration, ProcessId, SimConfig, Simulation, TimerTag, VirtualTime,
};

/// Per-process sends, in send order.
type Sent = Rc<RefCell<Vec<Vec<CrashMsg>>>>;

/// Forwards to the wrapped process and records its sends after every
/// callback, reading the staged sends the way `Faulty::post` does.
struct Recorder<A> {
    inner: A,
    sent: Sent,
}

impl<A> Recorder<A> {
    /// Logs one callback's sends other than heartbeats. The flat view
    /// expands a broadcast to its copies for p0 … p(n−1); a send is logged
    /// once, whatever its destinations.
    fn record(&mut self, ctx: &mut Context<'_, CrashMsg, Value>) {
        let flat = ctx.take_staged_sends();
        let n = ctx.process_count();
        let mut sent = self.sent.borrow_mut();
        let log = &mut sent[ctx.me().index()];
        let mut rest = &flat[..];
        while let Some((_, msg)) = rest.first() {
            let broadcast = rest.len() >= n
                && (rest[..n].iter().enumerate()).all(|(p, (to, m))| to.index() == p && m == msg);
            rest = &rest[if broadcast { n } else { 1 }..];
            if msg.kind().is_some() {
                log.push(msg.clone());
            }
        }
        ctx.restore_staged_sends(flat);
    }
}

impl<A: Actor<Msg = CrashMsg, Decision = Value>> Actor for Recorder<A> {
    type Msg = CrashMsg;
    type Decision = Value;

    fn on_start(&mut self, ctx: &mut Context<'_, CrashMsg, Value>) {
        self.inner.on_start(ctx);
        self.record(ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &CrashMsg,
        ctx: &mut Context<'_, CrashMsg, Value>,
    ) {
        self.inner.on_message(from, msg, ctx);
        self.record(ctx);
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, CrashMsg, Value>) {
        self.inner.on_timer(tag, ctx);
        self.record(ctx);
    }
}

/// Runs round module `R` over E1's schedules (20 seeds each of no crash,
/// the round-1 coordinator at t = 0, the first ⌊(n−1)/2⌋ coordinators at
/// t = 0, p0 at t = 60) and steps every process's sends through the
/// transition of `crash_for(protocol).table`: none may be rejected, every
/// kind sent must have a row in `crash_for(protocol).sends`, and — so the
/// check is not vacuous — every row's kind is sent somewhere.
fn sends_follow_the_crash_spec<R: Rounds + 'static>(protocol: ProtocolId) {
    let spec = ProtocolSpec::crash_for(protocol);
    let mut seen = BTreeSet::new();
    for n in [3usize, 4, 5, 7, 9, 13] {
        let fmax = ftm_core::quorum::max_faults(n);
        let early: Vec<(usize, u64)> = (0..fmax).map(|p| (p, 0)).collect();
        for crashes in [&[][..], &[(0, 0)], &early, &[(0, 60)]] {
            for seed in 0..20 {
                let mut cfg = SimConfig::new(n).seed(seed);
                for &(p, t) in crashes {
                    cfg = cfg.crash(p, VirtualTime::at(t));
                }
                let sent: Sent = Rc::new(RefCell::new(vec![Vec::new(); n]));
                Simulation::build(cfg, |id| Recorder {
                    inner: Crash::<R, _>::new(
                        Resilience::new(n, fmax),
                        id,
                        100 + id.0 as u64,
                        TimeoutDetector::new(n, Duration::of(150)),
                        Duration::of(25),
                        Some(Duration::of(40)),
                    ),
                    sent: Rc::clone(&sent),
                })
                .run();
                for (p, msgs) in sent.borrow().iter().enumerate() {
                    let run = format!("{protocol} n={n} crashes={crashes:?} seed={seed} p{p}");
                    let (mut phase, mut round) = spec.table.initial();
                    for msg in msgs {
                        let kind = msg.kind().unwrap();
                        seen.insert(kind);
                        assert!(
                            spec.sends.iter().any(|s| s.kind == kind),
                            "{run}: no send row has kind {kind}"
                        );
                        let r = msg.round().unwrap_or(round);
                        (phase, round, _) = spec
                            .table
                            .transition(phase, round, kind, r)
                            .unwrap_or_else(|e| {
                                panic!("{run}: {msg:?} rejected ({e}) in {msgs:?}")
                            });
                    }
                }
            }
        }
    }
    let rows: BTreeSet<MessageKind> = spec.sends.iter().map(|s| s.kind).collect();
    assert_eq!(seen, rows, "{protocol}: kinds sent vs kinds the rows name");
}

#[test]
fn hurfin_raynal_sends_follow_the_crash_spec() {
    sends_follow_the_crash_spec::<hr::HurfinRaynal>(ProtocolId::HurfinRaynal);
}

#[test]
fn chandra_toueg_sends_follow_the_crash_spec() {
    sends_follow_the_crash_spec::<ct::ChandraToueg>(ProtocolId::ChandraToueg);
}
