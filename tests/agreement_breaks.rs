//! Runs in which correct processes of a transformed protocol decide
//! different vectors while every layer of the module stack admits every
//! message: no signature, certificate, automaton or syntax reject, and no
//! conviction note. Each test asserts its break under a name that says so;
//! the fix that flips one rewrites its assertion, with the reason.
//!
//! | Run | Protocol | n, F | Faulty | Network |
//! |---|---|---|---|---|
//! | A | Chandra–Toueg | 4, 1 | p1 | script S1 |
//! | B | Chandra–Toueg | 4, 1 | p1 | script S1 |
//! | C | Hurfin–Raynal | 4, 1 | p1 | script S2 |
//! | D | Hurfin–Raynal | 5, 1 | p0, p1 | every message 1 tick |
//!
//! D was found at (5, 2), where F > ⌊(n−1)/3⌋: two quorums of three share
//! one process, and the coalition split round 1. The transformed
//! protocols now refuse that configuration (`CertChecker::new_for`), so D
//! is restated beyond the budget instead: n = 5 at its largest admitted
//! F = 1, with the same two faulty processes. With quorums of four the
//! split does not form; its test pins that verdict and asserts no safety
//! property, since F + 1 processes are faulty.
//!
//! A faulty process is its honest process wrapped in a [`Node`] that
//! forwards every callback, may hide an inbound message from it, and then
//! rewrites the sends it staged, re-signing with the process's own key
//! (D's coalition shares its keys). It never sends anything the
//! certification rules refuse: every rewritten message carries a
//! certificate the receiver's analyzer accepts.
//!
//! *v* is the honest vector; *v′* is *v* with its lowest filled entry
//! cleared and its lowest empty entry set from that process's signed INIT.
//!
//! * **A — timestamp laundering (CT).** p1 never hears p0 after the INITs
//!   and NACKs round 1, which p0 decides. As round-2 coordinator p1 drops
//!   its PROPOSE(2) and NACKs instead of ACKing, then claims (*v′*,
//!   ts = 2) in ESTIMATE(3), backed by a PROPOSE(2, *v′*) it signed and
//!   never sent. Coordinator p2 adopts the highest timestamp.
//! * **B — a fabricated timestamp inside a certificate (CT).** As round-2
//!   coordinator p1 proposes *v′*, certified by p2's and p3's ESTIMATE(2,
//!   *v*, ts = 1) and an ESTIMATE(2, *v′*, ts = 1) core it signs itself;
//!   the maximum-timestamp relation finds *v′* among them.
//! * **C — the coordinator's vector is only INIT-witnessed (HR).** p1
//!   relays CURRENT(1, *v*) to p0 alone, which decides *v*, and ignores
//!   CURRENT(1) from anyone but p0. As round-2 coordinator it proposes
//!   *v′* with *v′*'s INIT witnesses and its NEXT(1) quorum; p2 and p3
//!   adopt and decide it.
//! * **D — the coalition that splits two quorums sharing a process (HR).**
//!   p0 holds its CURRENT(1) until it has all five INITs, then sends *v*
//!   to p0–p2 and *v′* to p3 and p4; p1 relays the matching vector to
//!   each half.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ft_modular::certify::{Certificate, Core, Envelope, MessageCore, SignedCore, ValueVector};
use ft_modular::core::byzantine::{ByzantineChandraToueg, ByzantineConsensus, TransformedProtocol};
use ft_modular::core::config::{ProtocolConfig, ProtocolSetup};
use ft_modular::core::validator::{check_vector_consensus, Verdict};
use ft_modular::sim::note::{Note, Stats};
use ft_modular::sim::{
    Actor, Context, Duration, ProcessId, RunReport, SimConfig, Simulation, StagedSend, TimerTag,
    VirtualTime,
};

/// What a faulty process does on top of its honest process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    /// Run A's p1.
    LaunderTimestamp,
    /// Run B's p1.
    FabricateEstimate,
    /// Run C's p1.
    HideAndRepropose,
    /// Run D's p0, the round-1 coordinator.
    SplitCoordinator,
    /// Run D's p1, the relay.
    SplitRelay,
}

/// Each process's last `stack-stats` note, by process.
type Tally = Rc<RefCell<Vec<String>>>;

/// One process: the honest process, and the strategy that rewrites it
/// when faulty.
struct Node<P> {
    inner: P,
    me: ProcessId,
    strategy: Option<Strategy>,
    setup: ProtocolSetup,
    /// The signed INIT cores this process received, by sender.
    inits: BTreeMap<u32, SignedCore>,
    /// Run D: the coordinator's CURRENT(1), held until every INIT is in.
    /// Run B: the rewritten PROPOSE(2), which the ACK(2) after it quotes.
    held: Option<Envelope>,
    tally: Tally,
}

impl<P: TransformedProtocol> Node<P> {
    fn publish(&self) {
        self.tally.borrow_mut()[self.me.index()] = self.inner.stack().stats_note().to_string();
    }

    /// The honest vector's neighbour: the lowest filled entry cleared, the
    /// lowest empty one set from its sender's INIT.
    fn shifted(&self, v: &ValueVector) -> ValueVector {
        let mut entries: Vec<Option<u64>> = (0..v.len()).map(|k| v.get(k)).collect();
        let first = entries
            .iter()
            .position(Option::is_some)
            .expect("a filled entry");
        let gap = entries
            .iter()
            .position(Option::is_none)
            .expect("an empty entry");
        entries[first] = None;
        let init = self.inits.get(&(gap as u32)).expect("the missing INIT");
        let Core::Init { value } = init.core().core else {
            unreachable!("INIT store holds INITs")
        };
        entries[gap] = Some(value);
        ValueVector::from_entries(entries)
    }

    /// The signed INITs witnessing every entry of `v`.
    fn witnesses(&self, v: &ValueVector) -> Vec<SignedCore> {
        v.iter_set()
            .map(|(k, _)| self.inits[&(k as u32)].clone())
            .collect()
    }

    /// `core` from `signer`, signed with the coalition's key.
    fn sign(&self, signer: u32, core: Core) -> SignedCore {
        let keys = &self.setup.keys[signer as usize];
        SignedCore::sign(MessageCore::new(ProcessId(signer), core), keys)
    }

    /// An envelope from this process carrying `core`, certified by the
    /// members of `honest`'s certificate that `keep` selects, plus `extra`.
    fn restate(
        &self,
        core: Core,
        honest: &Envelope,
        keep: impl Fn(&SignedCore) -> bool,
        extra: Vec<SignedCore>,
    ) -> Envelope {
        let members = honest.cert.iter().filter(|m| keep(m)).cloned();
        let cert = Certificate::from_items(members.chain(extra));
        Envelope::make(self.me, core, cert, &self.setup.keys[self.me.index()])
    }

    /// Rewrites one staged send per the strategy; returns its replacement.
    fn rewrite(&mut self, send: StagedSend<Envelope>) -> Vec<StagedSend<Envelope>> {
        let Some(strategy) = self.strategy else {
            return vec![send];
        };
        let env = send.msg().clone();
        let not_init = |m: &SignedCore| !matches!(m.core().core, Core::Init { .. });
        match (strategy, env.core()) {
            (Strategy::LaunderTimestamp, Core::Propose { round: 2, .. }) => vec![],
            (Strategy::LaunderTimestamp, Core::Ack { round: 2, .. }) => {
                let nack = self.restate(Core::Nack { round: 2 }, &env, |_| false, vec![]);
                vec![StagedSend::ToAll(nack)]
            }
            (
                Strategy::LaunderTimestamp,
                Core::Estimate {
                    round: 3, vector, ..
                },
            ) => {
                let shifted = self.shifted(vector);
                let mut extra = self.witnesses(&shifted);
                extra.push(self.sign(
                    self.me.0,
                    Core::Propose {
                        round: 2,
                        vector: shifted.clone(),
                    },
                ));
                let nack_2 = |m: &SignedCore| matches!(m.core().core, Core::Nack { round: 2 });
                let core = Core::Estimate {
                    round: 3,
                    vector: shifted,
                    ts: 2,
                };
                vec![StagedSend::ToAll(self.restate(core, &env, nack_2, extra))]
            }
            (Strategy::FabricateEstimate, Core::Propose { round: 2, vector }) => {
                let shifted = self.shifted(vector);
                let mut extra = self.witnesses(&shifted);
                extra.push(self.sign(
                    self.me.0,
                    Core::Estimate {
                        round: 2,
                        vector: shifted.clone(),
                        ts: 1,
                    },
                ));
                let me = self.me;
                let others_estimates = |m: &SignedCore| {
                    matches!(m.core().core, Core::Estimate { .. }) && m.sender() != me
                };
                let core = Core::Propose {
                    round: 2,
                    vector: shifted,
                };
                let propose = self.restate(core, &env, others_estimates, extra);
                self.held = Some(propose.clone());
                vec![StagedSend::ToAll(propose)]
            }
            (Strategy::FabricateEstimate, Core::Ack { round: 2, .. }) => {
                let propose = self.held.take().expect("the rewritten PROPOSE(2)");
                let vector = propose.core().vector().expect("a vector").clone();
                let ack = self.restate(
                    Core::Ack { round: 2, vector },
                    &env,
                    |_| false,
                    vec![propose.signed.clone()],
                );
                vec![StagedSend::ToAll(ack)]
            }
            (Strategy::HideAndRepropose, Core::Current { round: 1, .. }) => {
                vec![StagedSend::To(ProcessId(0), env)]
            }
            (Strategy::HideAndRepropose, Core::Current { round: 2, vector }) => {
                let shifted = self.shifted(vector);
                let extra = self.witnesses(&shifted);
                let core = Core::Current {
                    round: 2,
                    vector: shifted,
                };
                vec![StagedSend::ToAll(self.restate(core, &env, not_init, extra))]
            }
            (Strategy::SplitCoordinator, Core::Current { round: 1, .. }) => {
                self.held = Some(env);
                vec![]
            }
            (Strategy::SplitRelay, Core::Current { round: 1, vector }) => {
                let shifted = self.shifted(vector);
                let mut extra = self.witnesses(&shifted);
                let core = Core::Current {
                    round: 1,
                    vector: shifted,
                };
                // The coordinator's CURRENT(1, v′), which p0 sends p3 and p4.
                extra.push(self.sign(0, core.clone()));
                let other = self.restate(core, &env, |_| false, extra);
                self.split(env, other)
            }
            _ => vec![send],
        }
    }

    /// `first` to p0–p2, `second` to everyone else.
    fn split(&self, first: Envelope, second: Envelope) -> Vec<StagedSend<Envelope>> {
        let n = self.setup.resilience.n() as u32;
        (0..n)
            .map(|to| {
                let env = if to < 3 { &first } else { &second };
                StagedSend::To(ProcessId(to), env.clone())
            })
            .collect()
    }

    /// Run D's p0: once every INIT is in, the held CURRENT(1, v) goes to
    /// p0–p2 and a CURRENT(1, v′) to the rest.
    fn release(&mut self) -> Vec<StagedSend<Envelope>> {
        if self.strategy != Some(Strategy::SplitCoordinator)
            || self.inits.len() < self.setup.resilience.n()
        {
            return vec![];
        }
        let Some(env) = self.held.take() else {
            return vec![];
        };
        let shifted = self.shifted(env.core().vector().expect("a vector"));
        let extra = self.witnesses(&shifted);
        let core = Core::Current {
            round: 1,
            vector: shifted,
        };
        let other = self.restate(core, &env, |_| false, extra);
        self.split(env, other)
    }

    fn after(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        let staged = std::mem::take(ctx.staged_sends());
        let mut sends: Vec<_> = staged.into_iter().flat_map(|s| self.rewrite(s)).collect();
        sends.extend(self.release());
        *ctx.staged_sends() = sends;
        self.publish();
    }
}

impl<P: TransformedProtocol> Actor for Node<P> {
    type Msg = Envelope;
    type Decision = ValueVector;

    fn on_start(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        self.inner.on_start(ctx);
        self.after(ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        env: &Envelope,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) {
        if let Core::Init { .. } = env.core() {
            self.inits
                .entry(from.0)
                .or_insert_with(|| env.signed.clone());
        }
        let hidden = self.strategy == Some(Strategy::HideAndRepropose)
            && matches!(env.core(), Core::Current { round: 1, .. })
            && from != ProcessId(0);
        if !hidden {
            self.inner.on_message(from, env, ctx);
        }
        self.after(ctx);
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, Envelope, ValueVector>) {
        self.inner.on_timer(tag, ctx);
        self.after(ctx);
    }
}

/// One run's outcome: the report and each process's last stack counters.
struct Outcome {
    report: RunReport<ValueVector>,
    stats: Vec<String>,
}

fn run<P: TransformedProtocol + 'static>(
    protocol: ProtocolConfig,
    sim: SimConfig,
    faulty: &[(usize, Strategy)],
) -> Outcome {
    let setup = protocol.setup();
    let n = setup.resilience.n();
    let tally: Tally = Rc::new(RefCell::new(vec![String::new(); n]));
    let report = Simulation::build_boxed(sim, |id| {
        let strategy = faulty.iter().find(|(p, _)| *p == id.index()).map(|f| f.1);
        Box::new(Node {
            inner: P::build(&setup, id, 100 + u64::from(id.0)),
            me: id,
            strategy,
            setup: setup.clone(),
            inits: BTreeMap::new(),
            held: None,
            tally: Rc::clone(&tally),
        })
    })
    .run();
    let stats = tally.borrow().clone();
    Outcome { report, stats }
}

/// The validator's verdict on a run with `faulty` processes at budget `f`.
fn verdict(outcome: &Outcome, faulty: &[usize], f: usize) -> Verdict {
    let report = &outcome.report;
    let n = report.decisions.len();
    let proposals: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let is_faulty: Vec<bool> = (0..n).map(|p| faulty.contains(&p)).collect();
    check_vector_consensus(report, &proposals, &is_faulty, f)
}

/// The break: the validator reports disagreement among the correct
/// processes, and no layer rejected anything or convicted anyone.
fn assert_agreement_breaks_unnoticed(outcome: &Outcome, faulty: &[usize], f: usize, case: &str) {
    let verdict = verdict(outcome, faulty, f);
    assert!(
        verdict
            .violations
            .iter()
            .any(|v| v == "agreement: correct processes decided differently"),
        "{case}: expected the agreement violation, got {:?} with decisions {:?}",
        verdict.violations,
        outcome.report.decisions
    );
    assert_unnoticed(outcome, case);
}

/// No layer of any process rejected a message, and nobody was convicted.
fn assert_unnoticed(outcome: &Outcome, case: &str) {
    let report = &outcome.report;
    for (p, text) in outcome.stats.iter().enumerate() {
        let (_, Note::StackStats(stats)) = Note::parse(text) else {
            panic!("{case}: p{p} wrote no stack counters: {text:?}");
        };
        assert_no_rejects(stats, &format!("{case}: p{p}"));
    }
    for entry in report.trace.entries() {
        if let ft_modular::sim::trace::TraceEvent::Note { text, .. } = &entry.event {
            assert!(
                !matches!(Note::parse(text).1, Note::Detected(_)),
                "{case}: a conviction was noted: {text}"
            );
        }
    }
}

fn assert_no_rejects(stats: Stats<'_>, who: &str) {
    for (key, count) in stats.iter() {
        if matches!(
            key,
            "sig-rejects" | "cert-rejects" | "auto-rejects" | "syntax-rejects"
        ) {
            assert_eq!(count, 0, "{who}: {key}");
        }
    }
}

/// Script S1 (runs A and B): the INIT wave reaches everyone in one tick;
/// p0 is cut off from p1 both ways and from the rest after t = 2; p2 and
/// p3 are slow to each other early on.
fn script_s1(sim: SimConfig) -> SimConfig {
    sim.delay_script(|src, dst, now| {
        let t = now.ticks();
        match (src.0, dst.0) {
            _ if t == 0 => 1,
            (0, 1) | (1, 0) => 10_000,
            (0, d) if d != 0 => {
                if t <= 2 {
                    1
                } else {
                    10_000
                }
            }
            (2, 3) | (3, 2) if (2..50).contains(&t) => 200,
            _ => 1,
        }
    })
}

/// Script S2 (run C): the INIT wave reaches everyone in one tick; p0 is
/// cut off from p3 both ways and from the rest after t = 1; p2's early
/// messages to p3 are slow.
fn script_s2(sim: SimConfig) -> SimConfig {
    sim.delay_script(|src, dst, now| {
        let t = now.ticks();
        match (src.0, dst.0) {
            _ if t == 0 => 1,
            (0, 3) | (3, 0) => 10_000,
            (0, d) if d != 0 => {
                if t <= 1 {
                    1
                } else {
                    10_000
                }
            }
            (2, 3) if t < 20 => 50,
            _ => 1,
        }
    })
}

/// Runs A–C's configuration: a short muteness timeout, polled often.
fn hasty(n: usize, f: usize, seed: u64) -> ProtocolConfig {
    ProtocolConfig::new(n, f)
        .seed(seed)
        .muteness_timeout(Duration::of(20))
        .poll_interval(Duration::of(5))
}

fn long_run(n: usize, seed: u64) -> SimConfig {
    SimConfig::new(n)
        .seed(seed)
        .max_time(VirtualTime::at(50_000))
}

#[test]
fn run_a_ct_timestamp_laundering_breaks_agreement_at_4_1() {
    for seed in 0..2 {
        let outcome = run::<ByzantineChandraToueg>(
            hasty(4, 1, seed),
            script_s1(long_run(4, seed)),
            &[(1, Strategy::LaunderTimestamp)],
        );
        assert_agreement_breaks_unnoticed(&outcome, &[1], 1, &format!("A seed {seed}"));
    }
}

#[test]
fn run_b_ct_fabricated_estimate_breaks_agreement_at_4_1() {
    for seed in 0..2 {
        let outcome = run::<ByzantineChandraToueg>(
            hasty(4, 1, seed),
            script_s1(long_run(4, seed)),
            &[(1, Strategy::FabricateEstimate)],
        );
        assert_agreement_breaks_unnoticed(&outcome, &[1], 1, &format!("B seed {seed}"));
    }
}

#[test]
fn run_c_hr_uncertified_coordinator_vector_breaks_agreement_at_4_1() {
    for seed in 0..3 {
        let outcome = run::<ByzantineConsensus>(
            hasty(4, 1, seed),
            script_s2(long_run(4, seed)),
            &[(1, Strategy::HideAndRepropose)],
        );
        assert_agreement_breaks_unnoticed(&outcome, &[1], 1, &format!("C seed {seed}"));
    }
}

/// Run D restated at (5, 1): the same coalition, one process past the
/// budget. With quorums of four, p2 holds three CURRENTs for *v* and
/// decides nothing in round 1, while p3 and p4 decide *v′* on the CURRENTs
/// of p0, p1, p3 and p4; p2 then decides *v′* from their DECIDE. The
/// verdict is pinned as found, and no property is claimed for F + 1
/// faulty processes.
#[test]
fn run_d_beyond_the_budget_at_5_1_does_not_split() {
    let shifted = ValueVector::from_entries(vec![None, Some(101), Some(102), Some(103), Some(104)]);
    for seed in 0..3 {
        let case = format!("D seed {seed}");
        let outcome = run::<ByzantineConsensus>(
            ProtocolConfig::new(5, 1).seed(seed),
            long_run(5, seed).delay_script(|_, _, _| 1),
            &[(0, Strategy::SplitCoordinator), (1, Strategy::SplitRelay)],
        );
        let verdict = verdict(&outcome, &[0, 1], 1);
        assert!(verdict.ok(), "{case}: {:?}", verdict.violations);
        for p in 2..5 {
            assert_eq!(
                outcome.report.decisions[p],
                Some(shifted.clone()),
                "{case}: p{p}"
            );
        }
        assert_unnoticed(&outcome, &case);
    }
}
