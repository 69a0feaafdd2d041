//! Certificate bytes per spec row: what each row's sends put on the wire
//! as certificate, so a change to what a row carries is a per-row diff.
//!
//! Every send of every process is read off its staged effects (one copy
//! per broadcast), classified by the certification rule that admits it
//! (`CertChecker::rule_for`, whose row ids are the spec's send ids) and
//! tallied as `rule: sends, certificate bytes`. The inputs are the
//! fixed-seed 3-slot logs of both protocols at (4, 1), a 3-slot log at the
//! `sim-hr-k512` shape (n = 7, F = 2, 512-bit keys), and the single-shot
//! runs where rounds fail: the round-1 coordinator crashed at t = 0, and a
//! slow network with a muteness timeout inside its delay range (the only
//! input where Hurfin–Raynal's change-mind and end-of-round NEXTs fire).
//! Over the single-shot runs, each send must also be admitted by the rule
//! of the spec row the shell counted it under, so the certificate walked
//! off the row's `justified_by` is the one its rule reads.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ft_modular::certify::analyzer::CertChecker;
use ft_modular::certify::rules::{certification_rules_for, CHECKPOINT_RULE};
use ft_modular::certify::{Envelope, Value};
use ft_modular::core::byzantine::log::ReplicatedLog;
use ft_modular::core::byzantine::shell::Ledger;
use ft_modular::core::byzantine::{
    ByzantineChandraToueg, ByzantineConsensus, Transformed, TransformedProtocol,
};
use ft_modular::core::config::{ProtocolConfig, ProtocolSetup};
use ft_modular::core::rounds::Rounds;
use ft_modular::core::spec::ProtocolSpec;
use ft_modular::sim::{
    Actor, Context, Duration, Payload, ProcessId, SimConfig, Simulation, StagedSend, TimerTag,
    VirtualTime,
};

/// A tapped process: its messages are or carry one envelope, and it says
/// what it has sent per spec row — a log says nothing, its instances come
/// and go with its slots.
trait Tapped: Actor<Msg: Clone + 'static> {
    fn env(msg: &Self::Msg) -> &Envelope;
    fn discharged(&self) -> &[(&'static str, u32)];
}

impl<R: Rounds<Votes: Ledger>> Tapped for Transformed<R> {
    fn env(msg: &Envelope) -> &Envelope {
        msg
    }

    fn discharged(&self) -> &[(&'static str, u32)] {
        Transformed::discharged(self)
    }
}

impl<P: TransformedProtocol> Tapped for ReplicatedLog<P> {
    fn env(msg: &Self::Msg) -> &Envelope {
        &msg.env
    }

    fn discharged(&self) -> &[(&'static str, u32)] {
        &[]
    }
}

type Sent = Rc<RefCell<Vec<Envelope>>>;
/// Per-process discharges, by spec row.
type Rows = Rc<RefCell<Vec<Vec<(&'static str, u32)>>>>;

/// Forwards to the wrapped process and keeps every envelope it sends and
/// its discharges.
struct Tap<A> {
    inner: A,
    sent: Sent,
    rows: Rows,
}

impl<A: Tapped> Tap<A> {
    /// Keeps each staged send that reaches p0: every send of a
    /// transformed process is a broadcast, which includes p0.
    fn record(&mut self, ctx: &mut Context<'_, A::Msg, A::Decision>) {
        let reaches_p0 = |s: &&StagedSend<A::Msg>| match s {
            StagedSend::To(to, _) => to.index() == 0,
            StagedSend::ToAll(_) => true,
        };
        let mut sent = self.sent.borrow_mut();
        let staged = ctx.staged_sends().iter().filter(reaches_p0);
        sent.extend(staged.map(|s| A::env(s.msg()).clone()));
        self.rows.borrow_mut()[ctx.me().index()] = self.inner.discharged().to_vec();
    }
}

impl<A: Tapped> Actor for Tap<A> {
    type Msg = A::Msg;
    type Decision = A::Decision;

    fn on_start(&mut self, ctx: &mut Context<'_, A::Msg, A::Decision>) {
        self.inner.on_start(ctx);
        self.record(ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &A::Msg,
        ctx: &mut Context<'_, A::Msg, A::Decision>,
    ) {
        self.inner.on_message(from, msg, ctx);
        self.record(ctx);
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, A::Msg, A::Decision>) {
        self.inner.on_timer(tag, ctx);
        self.record(ctx);
    }
}

/// Sends and certificate bytes per rule, all bytes sent, and sends per
/// spec row as the shell counted them.
#[derive(Default)]
struct Tally {
    rows: BTreeMap<&'static str, (u64, u64)>,
    wire: u64,
    discharged: BTreeMap<&'static str, u64>,
}

impl Tally {
    fn add<P: TransformedProtocol>(
        &mut self,
        setup: &ProtocolSetup,
        sent: &[Envelope],
        rows: &Rows,
    ) {
        let res = setup.resilience;
        let checker = CertChecker::new_for(P::ID, res.n(), res.f(), setup.dir.clone());
        for env in sent {
            let rule = checker.rule_for(env).expect("an honest send is admitted");
            let (count, bytes) = self.rows.entry(rule.id).or_default();
            *count += 1;
            *bytes += env.cert.size_bytes() as u64;
            self.wire += env.size_bytes() as u64;
        }
        for &(row, count) in rows.borrow().iter().flatten() {
            *self.discharged.entry(row).or_default() += u64::from(count);
        }
    }

    /// Per spec row, the sends filed under the row's rule number the
    /// row's discharges.
    fn admitted_by_their_rows<P: TransformedProtocol>(&self) {
        for send in ProtocolSpec::transformed_for(P::ID).sends {
            let rule = send.route.rule_id().expect("a transformed row has a rule");
            let admitted = self.rows.get(rule).map_or(0, |(count, _)| *count);
            let discharged = self.discharged.get(send.id).copied().unwrap_or(0);
            assert_eq!(admitted, discharged, "{}", send.id);
        }
    }

    /// `label: rule sends/bytes, …, of <wire> B`, rules in table order.
    fn line<P: TransformedProtocol>(&self, label: &str) -> String {
        let rules = certification_rules_for(P::ID).iter().copied();
        let cells: Vec<String> = (rules.chain([&CHECKPOINT_RULE]))
            .filter_map(|rule| {
                let (count, bytes) = self.rows.get(rule.id)?;
                Some(format!("{} {count}/{bytes}", rule.id))
            })
            .collect();
        format!("{label}: {} of {} B", cells.join(", "), self.wire)
    }
}

fn cmd(slot: u64, p: u32) -> Value {
    1000 * slot + 100 + p as u64
}

/// An honest 3-slot log of `P`.
fn log<P: TransformedProtocol + 'static>(protocol: ProtocolConfig, seed: u64) -> Tally {
    let setup = protocol.setup();
    let n = setup.resilience.n();
    let sent: Sent = Rc::default();
    let rows: Rows = Rc::new(RefCell::new(vec![Vec::new(); n]));
    Simulation::build_boxed(SimConfig::new(n).seed(seed), |id| {
        Box::new(Tap {
            inner: ReplicatedLog::<P>::new(&setup, id, 3, cmd),
            sent: Rc::clone(&sent),
            rows: Rc::clone(&rows),
        })
    })
    .run();
    let mut tally = Tally::default();
    tally.add::<P>(&setup, &sent.borrow(), &rows);
    tally
}

/// One single-shot run of `P`, added to `tally`.
fn once<P: TransformedProtocol + Tapped + 'static>(
    tally: &mut Tally,
    protocol: ProtocolConfig,
    cfg: SimConfig,
) {
    let setup = protocol.setup();
    let sent: Sent = Rc::default();
    let rows: Rows = Rc::new(RefCell::new(vec![Vec::new(); cfg.n]));
    Simulation::build_boxed(cfg, |id| {
        Box::new(Tap {
            inner: P::build(&setup, id, 100 + id.0 as u64),
            sent: Rc::clone(&sent),
            rows: Rc::clone(&rows),
        })
    })
    .run();
    tally.add::<P>(&setup, &sent.borrow(), &rows);
}

fn lines<P: TransformedProtocol + Tapped + 'static>() -> Vec<String> {
    let mut out = vec![
        log::<P>(ProtocolConfig::new(4, 1).seed(11), 11).line::<P>("log (4, 1)"),
        log::<P>(ProtocolConfig::new(7, 2).seed(1).modulus_bits(512), 1)
            .line::<P>("log (7, 2) 512-bit"),
    ];
    let mut crashed = Tally::default();
    for seed in 0..3 {
        let cfg = SimConfig::new(4).seed(seed).crash(0, VirtualTime::ZERO);
        once::<P>(&mut crashed, ProtocolConfig::new(4, 1).seed(seed), cfg);
    }
    crashed.admitted_by_their_rows::<P>();
    out.push(crashed.line::<P>("coord@0 (4, 1)"));
    let mut slow = Tally::default();
    for seed in 0..4 {
        let hasty = ProtocolConfig::new(4, 1)
            .seed(seed)
            .muteness_timeout(Duration::of(60));
        let cfg = SimConfig::new(4)
            .seed(seed)
            .delay_range(Duration::of(5), Duration::of(90))
            .gst(VirtualTime::at(4_000), Duration::of(15));
        once::<P>(&mut slow, hasty, cfg);
    }
    slow.admitted_by_their_rows::<P>();
    out.push(slow.line::<P>("slow (4, 1)"));
    out
}

#[test]
fn hurfin_raynal_certificate_bytes_per_row() {
    assert_eq!(
        lines::<ByzantineConsensus>(),
        [
            "log (4, 1): init-empty 12/0, current-coordinator 3/453, current-relay 9/1908, \
             decide-current-quorum 12/2196 of 6879 B",
            "log (7, 2) 512-bit: init-empty 21/0, current-coordinator 3/1475, current-relay \
             18/11154, decide-current-quorum 21/13440 of 33958 B",
            "coord@0 (4, 1): init-empty 9/0, current-coordinator 3/522, current-relay 6/888, \
             next-suspicion 9/0, decide-current-quorum 9/1647 of 4677 B",
            "slow (4, 1): init-empty 16/0, current-coordinator 5/522, current-relay 12/1776, \
             next-end-of-round 1/87, next-change-mind 3/450, next-suspicion 6/348, \
             decide-current-quorum 16/2928 of 8878 B",
        ]
    );
}

#[test]
fn chandra_toueg_certificate_bytes_per_row() {
    assert_eq!(
        lines::<ByzantineChandraToueg>(),
        [
            "log (4, 1): init-empty 12/0, estimate-roundstart 12/1812, propose-coordinator \
             3/1074, ack-echo 12/732, decide-ack-quorum 12/2196 of 9149 B",
            "log (7, 2) 512-bit: init-empty 21/0, estimate-roundstart 21/10325, \
             propose-coordinator 3/3515, ack-echo 21/2688, decide-ack-quorum 21/13440 of 41097 B",
            "coord@0 (4, 1): init-empty 9/0, estimate-roundstart 18/2349, propose-coordinator \
             3/881, ack-echo 9/549, nack-suspicion 9/0, decide-ack-quorum 9/1647 of 8468 B",
            "slow (4, 1): init-empty 16/0, estimate-roundstart 110/26301, propose-coordinator \
             26/7642, ack-echo 54/3294, nack-suspicion 49/0, decide-ack-quorum 16/2928 of \
             55493 B",
        ]
    );
}
