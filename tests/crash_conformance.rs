//! The crash actors against their own spec: every process's sends, read
//! off its staged effects, are a trace `ProtocolSpec::crash_for(p)` accepts,
//! each goes where its row says, and every row is discharged.
//!
//! `ftm-verify` checks the crash specs for internal soundness but never
//! reads the program they describe. The round modules send through
//! `Shell::emit`, which takes a spec row, in both models; what the types
//! cannot say — that the crash shell renders each row to the right
//! destinations, that every row fires, and that nothing reaches the wire
//! past the tally — is this test.

use std::cell::RefCell;
use std::rc::Rc;

use ft_modular::certify::{MessageKind, ProtocolId, Value};
use ft_modular::core::crash::{Crash, CrashModel, CrashMsg, CtCounts, HrCounts};
use ft_modular::core::rounds::{ct, hr, Record, Rounds};
use ft_modular::core::spec::{ProtocolSpec, Resilience};
use ft_modular::fd::TimeoutDetector;
use ft_modular::sim::{
    Actor, Context, Duration, ProcessId, SimConfig, Simulation, StagedSend, TimerTag, VirtualTime,
};

/// A round module of the crash model.
trait CrashRounds: Rounds<Votes: Record<Model = CrashModel>> + 'static {}
impl<R: Rounds<Votes: Record<Model = CrashModel>> + 'static> CrashRounds for R {}

/// Per-process sends, in send order, each with its one destination or
/// `None` for a broadcast.
type Sent = Rc<RefCell<Vec<Vec<(CrashMsg, Option<ProcessId>)>>>>;
/// Per-process discharge tallies, by spec row.
type Tally = Rc<RefCell<Vec<Vec<(&'static str, u32)>>>>;

/// Forwards to the wrapped process and records its sends and its shell's
/// discharge tally after every callback, reading the staged sends the way
/// `Faulty::post` hands them to a deviation.
struct Recorder<R> {
    inner: Crash<R, TimeoutDetector>,
    sent: Sent,
    tally: Tally,
}

impl<R: CrashRounds> Recorder<R> {
    /// Logs one callback's sends other than heartbeats, a broadcast once.
    fn record(&mut self, ctx: &mut Context<'_, CrashMsg, Value>) {
        let me = ctx.me().index();
        let mut sent = self.sent.borrow_mut();
        for send in ctx.staged_sends().iter() {
            let (msg, to) = match send {
                StagedSend::To(to, msg) => (msg, Some(*to)),
                StagedSend::ToAll(msg) => (msg, None),
            };
            if msg.kind().is_some() {
                sent[me].push((*msg, to));
            }
        }
        self.tally.borrow_mut()[ctx.me().index()] = self.inner.discharged().to_vec();
    }
}

impl<R: CrashRounds> Actor for Recorder<R> {
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

/// One run of round module `R` under `cfg`, with the detector timeout of
/// each process, the poll and the heartbeat given. Steps every process's sends through the
/// transition of `spec.table` — none may be rejected, every kind sent must
/// have a row — checks that each send went where its row says
/// (Chandra–Toueg's ESTIMATE, ACK and NACK to the round's coordinator
/// only, everything else to all n processes) and that the shell's tally
/// names `spec.sends` in order and counts exactly the sends logged; adds
/// the tally to `total`.
fn check_run<R: CrashRounds>(
    spec: &ProtocolSpec,
    cfg: SimConfig,
    res: Resilience,
    (timeout, poll, heartbeat): (fn(ProcessId) -> u64, u64, u64),
    total: &mut [u32],
) {
    let label = format!("{cfg:?}");
    let n = cfg.n;
    let rows: Vec<&str> = spec.sends.iter().map(|s| s.id).collect();
    let sent: Sent = Rc::new(RefCell::new(vec![Vec::new(); n]));
    let tally: Tally = Rc::new(RefCell::new(vec![Vec::new(); n]));
    Simulation::build(cfg, |id| Recorder {
        inner: Crash::<R, _>::new(
            res,
            id,
            100 + id.0 as u64,
            TimeoutDetector::new(n, Duration::of(timeout(id))),
            Duration::of(poll),
            Some(Duration::of(heartbeat)),
        ),
        sent: Rc::clone(&sent),
        tally: Rc::clone(&tally),
    })
    .run();
    let coordinator = |r| ProcessId(res.coordinator(r) as u32);
    let unicast = [MessageKind::Estimate, MessageKind::Ack, MessageKind::Nack];
    for (p, msgs) in sent.borrow().iter().enumerate() {
        let run = format!("{} {label} p{p}", spec.table.protocol);
        let discharged = &tally.borrow()[p];
        if discharged.is_empty() {
            assert!(msgs.is_empty(), "{run}: sends without a callback");
            continue; // crashed before its first callback
        }
        let ids: Vec<&str> = discharged.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, rows, "{run}: tally rows vs spec rows");
        let counted: u32 = discharged.iter().map(|(_, k)| k).sum();
        assert_eq!(
            counted as usize,
            msgs.len(),
            "{run}: a send bypassed the tally"
        );
        for (t, (_, k)) in total.iter_mut().zip(discharged) {
            *t += k;
        }
        let (mut phase, mut round) = spec.table.initial();
        for (msg, to) in msgs {
            let kind = msg.kind().unwrap();
            let expected = unicast
                .contains(&kind)
                .then(|| coordinator(msg.round().unwrap()));
            assert_eq!(*to, expected, "{run}: {msg:?} went to {to:?}");
            assert!(
                spec.sends.iter().any(|s| s.kind == kind),
                "{run}: no send row has kind {kind}"
            );
            let r = msg.round().unwrap_or(round);
            (phase, round, _) = spec
                .table
                .transition(phase, round, kind, r)
                .unwrap_or_else(|e| panic!("{run}: {msg:?} rejected ({e}) in {msgs:?}"));
        }
    }
}

/// [`check_run`] over E1's schedules (20 seeds each of no crash, the
/// round-1 coordinator at t = 0, the first ⌊(n−1)/2⌋ coordinators at
/// t = 0, p0 at t = 60), plus the inputs Hurfin–Raynal's last two NEXT
/// rows need: ten heavy-jitter runs with a detector timeout inside the
/// delay range (change-mind), and the round-1 coordinator crashed while
/// p3's detector is too slow to suspect it before the others' NEXTs
/// arrive (end-of-round). So the check is not vacuous, every row of
/// `crash_for(protocol).sends` must be discharged somewhere.
fn sends_follow_the_crash_spec<R: CrashRounds>(protocol: ProtocolId) {
    let spec = ProtocolSpec::crash_for(protocol);
    let mut total = vec![0u32; spec.sends.len()];
    for n in [3usize, 4, 5, 7, 9, 13] {
        let res = Resilience::new(n, ftm_core::quorum::max_faults(n));
        let early: Vec<(usize, u64)> = (0..res.f()).map(|p| (p, 0)).collect();
        for crashes in [&[][..], &[(0, 0)], &early, &[(0, 60)]] {
            for seed in 0..20 {
                let mut cfg = SimConfig::new(n).seed(seed);
                for &(p, t) in crashes {
                    cfg = cfg.crash(p, VirtualTime::at(t));
                }
                check_run::<R>(&spec, cfg, res, (|_| 150, 25, 40), &mut total);
            }
        }
    }
    for seed in 0..10 {
        let cfg = SimConfig::new(5)
            .seed(seed)
            .delay_range(Duration::of(1), Duration::of(120))
            .gst(VirtualTime::at(5_000), Duration::of(15));
        check_run::<R>(
            &spec,
            cfg,
            Resilience::new(5, 2),
            (|_| 50, 20, 30),
            &mut total,
        );
        let cfg = SimConfig::new(5).seed(seed).crash(0, VirtualTime::ZERO);
        let slow_p3 = |id: ProcessId| if id.0 == 3 { 3_000 } else { 150 };
        check_run::<R>(
            &spec,
            cfg,
            Resilience::new(5, 2),
            (slow_p3, 25, 40),
            &mut total,
        );
    }
    let never: Vec<&str> = (spec.sends.iter().zip(&total))
        .filter(|(_, k)| **k == 0)
        .map(|(row, _)| row.id)
        .collect();
    assert!(
        never.is_empty(),
        "{protocol}: never discharged: {never:?} of {total:?}"
    );
}

#[test]
fn hurfin_raynal_sends_follow_the_crash_spec() {
    sends_follow_the_crash_spec::<hr::HurfinRaynal<HrCounts>>(ProtocolId::HurfinRaynal);
}

#[test]
fn chandra_toueg_sends_follow_the_crash_spec() {
    sends_follow_the_crash_spec::<ct::ChandraToueg<CtCounts>>(ProtocolId::ChandraToueg);
}
