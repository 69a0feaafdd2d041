//! The Chandra–Toueg ◇S consensus protocol — a second member of the
//! "regular round-based" class the paper's methodology targets.
//!
//! Included as an extension: the paper's transformation is defined for any
//! regular round-based protocol, not just Hurfin–Raynal's. Implementing a
//! second such protocol (the classic one the ◇S class was introduced
//! with) lets the harness compare the *inputs* of the transformation
//! (E1's HR-vs-CT table) and documents what "regular communication
//! pattern" means concretely: every round has the same four phases.
//!
//! Round structure (rotating coordinator `c = (r−1) mod n`):
//!
//! 1. **Estimate** — everyone sends `(est, ts)` to the coordinator;
//! 2. **Propose** — the coordinator adopts the estimate with the highest
//!    timestamp among a majority and broadcasts it;
//! 3. **Ack/Nack** — each process waits for the proposal or a suspicion
//!    of the coordinator, replying ACK (adopting the proposal) or NACK;
//! 4. **Decide** — on a majority of ACKs the coordinator reliably
//!    broadcasts DECIDE; everyone relays and decides (the relay is the
//!    reliable-broadcast echo that keeps Agreement across crashes).

use std::collections::BTreeSet;

use ftm_certify::{Round, Value};
use ftm_fd::FailureDetector;
use ftm_sim::note::Note;
use ftm_sim::{Actor, Context, Payload, ProcessId, TimerTag};

use crate::spec::Resilience;

const POLL_TIMER: TimerTag = 1;
const HEARTBEAT_TIMER: TimerTag = 2;

/// Wire messages of the Chandra–Toueg protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtMsg {
    /// Phase 1: `(round, est, ts)` to the coordinator.
    Estimate {
        /// Current round.
        round: Round,
        /// The sender's current estimate.
        est: Value,
        /// Round in which the estimate was last adopted.
        ts: Round,
    },
    /// Phase 2: the coordinator's proposal.
    Propose {
        /// Current round.
        round: Round,
        /// The proposed estimate.
        est: Value,
    },
    /// Phase 3: positive acknowledgment, echoing the adopted estimate.
    Ack {
        /// Current round.
        round: Round,
        /// The estimate being acknowledged (the coordinator's proposal).
        est: Value,
    },
    /// Phase 3: negative acknowledgment (coordinator suspected).
    Nack {
        /// Current round.
        round: Round,
    },
    /// Phase 4 / reliable broadcast: the decision.
    Decide {
        /// The decided value.
        est: Value,
    },
    /// Failure-detector heartbeat.
    Heartbeat,
}

impl Payload for CtMsg {
    fn size_bytes(&self) -> usize {
        match self {
            CtMsg::Estimate { .. } => 1 + 8 + 8 + 8,
            CtMsg::Propose { .. } | CtMsg::Ack { .. } => 1 + 8 + 8,
            CtMsg::Nack { .. } => 1 + 8,
            CtMsg::Decide { .. } => 1 + 8,
            CtMsg::Heartbeat => 1,
        }
    }

    fn label(&self) -> String {
        match self {
            CtMsg::Estimate { round, .. } => format!("EST(r={round})"),
            CtMsg::Propose { round, est } => format!("PROP(r={round},est={est})"),
            CtMsg::Ack { round, est } => format!("ACK(r={round},est={est})"),
            CtMsg::Nack { round } => format!("NACK(r={round})"),
            CtMsg::Decide { est } => format!("DECIDE(est={est})"),
            CtMsg::Heartbeat => "HB".to_string(),
        }
    }
}

/// Which phase of the current round this process is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting to send the estimate (transient).
    Start,
    /// Coordinator: collecting a majority of estimates.
    CollectEstimates,
    /// Non-coordinator: waiting for the proposal (or suspicion).
    AwaitProposal,
    /// Coordinator: collecting acks/nacks.
    CollectAcks,
}

/// One process of the Chandra–Toueg protocol.
///
/// # Example
///
/// ```
/// use ftm_core::crash::chandra_toueg::ChandraToueg;
/// use ftm_core::spec::Resilience;
/// use ftm_fd::TimeoutDetector;
/// use ftm_sim::{Duration, SimConfig, Simulation};
///
/// let n = 4;
/// let report = Simulation::build(SimConfig::new(n).seed(3), |id| {
///     ChandraToueg::new(
///         Resilience::new(n, 1),
///         id,
///         10 + id.0 as u64,
///         TimeoutDetector::new(n, Duration::of(150)),
///         Duration::of(25),
///         Some(Duration::of(40)),
///     )
/// })
/// .run();
/// assert!(report.all_decided());
/// ```
#[derive(Debug)]
pub struct ChandraToueg<FD> {
    res: Resilience,
    me: ProcessId,
    r: Round,
    est: Value,
    ts: Round,
    phase: Phase,
    // Coordinator bookkeeping.
    estimates: Vec<(ProcessId, Value, Round)>,
    acks: BTreeSet<ProcessId>,
    nacks: BTreeSet<ProcessId>,
    fd: FD,
    poll_interval: ftm_sim::Duration,
    heartbeat_interval: Option<ftm_sim::Duration>,
    buffered: Vec<(ProcessId, CtMsg)>,
    decided: bool,
}

impl<FD: FailureDetector> ChandraToueg<FD> {
    /// Creates a process proposing `value`.
    pub fn new(
        res: Resilience,
        me: ProcessId,
        value: Value,
        fd: FD,
        poll_interval: ftm_sim::Duration,
        heartbeat_interval: Option<ftm_sim::Duration>,
    ) -> Self {
        ChandraToueg {
            res,
            me,
            r: 0,
            est: value,
            ts: 0,
            phase: Phase::Start,
            estimates: Vec::new(),
            acks: BTreeSet::new(),
            nacks: BTreeSet::new(),
            fd,
            poll_interval,
            heartbeat_interval,
            buffered: Vec::new(),
            decided: false,
        }
    }

    fn coordinator(&self) -> ProcessId {
        ProcessId(self.res.coordinator(self.r) as u32)
    }

    fn majority(&self) -> usize {
        self.res.crash_majority()
    }

    fn begin_round(&mut self, ctx: &mut Context<'_, CtMsg, Value>) {
        self.r += 1;
        self.estimates.clear();
        self.acks.clear();
        self.nacks.clear();
        ctx.note(Note::Round(self.r));
        // Phase 1: everyone (coordinator included) sends its estimate.
        ctx.send(
            self.coordinator(),
            CtMsg::Estimate {
                round: self.r,
                est: self.est,
                ts: self.ts,
            },
        );
        self.phase = if self.me == self.coordinator() {
            Phase::CollectEstimates
        } else {
            Phase::AwaitProposal
        };
        self.drain_buffer(ctx);
    }

    fn drain_buffer(&mut self, ctx: &mut Context<'_, CtMsg, Value>) {
        loop {
            if self.decided {
                return;
            }
            let r = self.r;
            let Some(pos) = self.buffered.iter().position(|(_, m)| match m {
                CtMsg::Estimate { round, .. }
                | CtMsg::Propose { round, .. }
                | CtMsg::Ack { round, .. }
                | CtMsg::Nack { round } => *round == r,
                _ => false,
            }) else {
                return;
            };
            let (from, msg) = self.buffered.remove(pos);
            self.handle_current(from, msg, ctx);
        }
    }

    fn decide(&mut self, value: Value, ctx: &mut Context<'_, CtMsg, Value>) {
        // Reliable-broadcast echo: relay before deciding.
        self.decided = true;
        ctx.broadcast(CtMsg::Decide { est: value });
        ctx.decide(value);
        ctx.halt();
    }

    fn handle_current(&mut self, from: ProcessId, msg: CtMsg, ctx: &mut Context<'_, CtMsg, Value>) {
        match msg {
            CtMsg::Estimate { est, ts, .. } => {
                if self.phase != Phase::CollectEstimates {
                    return; // stale estimate to a past coordinator
                }
                self.estimates.push((from, est, ts));
                if self.estimates.len() >= self.majority() {
                    // Phase 2: adopt the freshest estimate and propose it.
                    let Some((_, best_est, _)) =
                        self.estimates.iter().max_by_key(|(_, _, ts)| *ts).copied()
                    else {
                        return; // the majority test guarantees nonempty
                    };
                    self.est = best_est;
                    self.ts = self.r;
                    ctx.broadcast(CtMsg::Propose {
                        round: self.r,
                        est: self.est,
                    });
                    self.phase = Phase::CollectAcks;
                }
            }
            CtMsg::Propose { est, .. } => {
                if self.phase != Phase::AwaitProposal {
                    // The coordinator receives its own proposal: treat it
                    // as an implicit ACK (it adopted the value already).
                    if self.me == self.coordinator() && self.phase == Phase::CollectAcks {
                        self.acks.insert(self.me);
                        self.check_acks(ctx);
                    }
                    return;
                }
                // Phase 3: adopt and ACK, echoing the adopted estimate.
                self.est = est;
                self.ts = self.r;
                ctx.send(self.coordinator(), CtMsg::Ack { round: self.r, est });
                self.begin_round(ctx);
            }
            CtMsg::Ack { .. } => {
                if self.phase == Phase::CollectAcks {
                    self.acks.insert(from);
                    self.check_acks(ctx);
                }
            }
            CtMsg::Nack { .. } => {
                if self.phase == Phase::CollectAcks {
                    self.nacks.insert(from);
                    self.check_acks(ctx);
                }
            }
            _ => unreachable!("handle_current only takes round messages"),
        }
    }

    fn check_acks(&mut self, ctx: &mut Context<'_, CtMsg, Value>) {
        if self.acks.len() >= self.majority() {
            // Phase 4: decide and reliably broadcast.
            self.decide(self.est, ctx);
        } else if self.acks.len() + self.nacks.len() >= self.majority() && !self.nacks.is_empty() {
            // The round cannot succeed; move on as a regular process.
            self.begin_round(ctx);
        }
    }
}

impl<FD: FailureDetector + 'static> Actor for ChandraToueg<FD> {
    type Msg = CtMsg;
    type Decision = Value;

    fn on_start(&mut self, ctx: &mut Context<'_, CtMsg, Value>) {
        self.begin_round(ctx);
        ctx.set_timer(self.poll_interval, POLL_TIMER);
        if let Some(hb) = self.heartbeat_interval {
            ctx.broadcast(CtMsg::Heartbeat);
            ctx.set_timer(hb, HEARTBEAT_TIMER);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: &CtMsg, ctx: &mut Context<'_, CtMsg, Value>) {
        if self.decided {
            return;
        }
        self.fd.observe_message(from, ctx.now());
        match msg {
            CtMsg::Heartbeat => {}
            CtMsg::Decide { est } => self.decide(*est, ctx),
            CtMsg::Estimate { round, .. }
            | CtMsg::Propose { round, .. }
            | CtMsg::Ack { round, .. }
            | CtMsg::Nack { round } => {
                if *round < self.r {
                    // Stale; drop. (Estimates for future rounds arrive when
                    // a peer outpaces us — buffer them.)
                } else if *round > self.r {
                    self.buffered.push((from, msg.clone()));
                } else {
                    self.handle_current(from, msg.clone(), ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, CtMsg, Value>) {
        if self.decided {
            return;
        }
        match tag {
            POLL_TIMER => {
                // Phase 3's escape hatch: suspect the coordinator → NACK
                // and move to the next round.
                if self.phase == Phase::AwaitProposal {
                    let coord = self.coordinator();
                    if self.fd.suspects(coord, ctx.now()) {
                        ctx.note(Note::Suspect(coord, self.r));
                        ctx.send(coord, CtMsg::Nack { round: self.r });
                        self.begin_round(ctx);
                    }
                }
                ctx.set_timer(self.poll_interval, POLL_TIMER);
            }
            HEARTBEAT_TIMER => {
                ctx.broadcast(CtMsg::Heartbeat);
                if let Some(hb) = self.heartbeat_interval {
                    ctx.set_timer(hb, HEARTBEAT_TIMER);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_fd::TimeoutDetector;
    use ftm_sim::{Duration, RunReport, SimConfig, Simulation, VirtualTime};

    fn run(n: usize, seed: u64, crashes: &[(usize, u64)]) -> RunReport<Value> {
        let mut cfg = SimConfig::new(n).seed(seed);
        for &(p, t) in crashes {
            cfg = cfg.crash(p, VirtualTime::at(t));
        }
        let res = Resilience::new(n, crate::quorum::max_faults(n));
        Simulation::build(cfg, |id| {
            ChandraToueg::new(
                res,
                id,
                100 + id.0 as u64,
                TimeoutDetector::new(n, Duration::of(150)),
                Duration::of(25),
                Some(Duration::of(40)),
            )
        })
        .run()
    }

    #[test]
    fn all_honest_decide_round_one() {
        let report = run(4, 1, &[]);
        assert!(report.all_decided());
        // Round 1's coordinator is p0; with everyone honest its estimate
        // (the freshest is any ts=0; max_by_key picks one) is decided and
        // shared by all.
        assert!(report.unanimous().is_some());
    }

    #[test]
    fn agreement_and_validity_across_seeds() {
        for seed in 0..20 {
            let report = run(5, seed, &[]);
            assert!(report.all_decided(), "seed {seed}");
            let v = report.unanimous().expect("agreement");
            assert!((100..105).contains(&v), "validity: {v}");
        }
    }

    #[test]
    fn crashed_coordinator_is_bypassed() {
        let report = run(4, 2, &[(0, 0)]);
        assert!(report.all_decided());
        let v = report.unanimous().expect("agreement among survivors");
        assert_ne!(v, 100);
    }

    #[test]
    fn tolerates_bound_crashes() {
        let report = run(7, 3, &[(0, 0), (1, 30), (2, 60)]);
        assert!(report.all_decided());
        assert!(report.unanimous().is_some());
    }

    #[test]
    fn late_crash_of_a_decider_is_harmless() {
        let report = run(4, 4, &[(0, 80)]);
        // p0 decides (round-1 coordinator) then crashes; the reliable
        // broadcast echo must still spread the decision.
        assert!(report.all_decided());
    }

    #[test]
    fn message_pattern_is_leaner_than_hr() {
        // CT phase 1/3 are point-to-point (to the coordinator) while HR
        // broadcasts everything: CT should use fewer messages at equal n.
        // Any single schedule can tie, so compare totals across seeds.
        let mut ct_total = 0;
        let mut hr_total = 0;
        for seed in 0..5 {
            let ct = run(5, seed, &[]);
            let hr = {
                let res = Resilience::new(5, 2);
                Simulation::build(SimConfig::new(5).seed(seed), |id| {
                    crate::crash::CrashConsensus::new(
                        res,
                        id,
                        100 + id.0 as u64,
                        TimeoutDetector::new(5, Duration::of(150)),
                        Duration::of(25),
                        Some(Duration::of(40)),
                    )
                })
                .run()
            };
            assert!(ct.all_decided() && hr.all_decided(), "seed {seed}");
            ct_total += ct.metrics.messages_sent;
            hr_total += hr.metrics.messages_sent;
        }
        assert!(
            ct_total < hr_total,
            "CT {ct_total} vs HR {hr_total} across seeds"
        );
    }
}
