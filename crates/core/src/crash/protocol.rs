//! Event-driven rendering of Hurfin–Raynal's ◇S consensus (paper Fig. 2).
//!
//! The paper's two concurrent tasks and `upon` guards map onto the
//! simulator's actor callbacks:
//!
//! * the vote-handling `upon receipt` clauses become `on_message` arms;
//! * `upon (p_c ∈ suspected_i)` becomes a periodic poll timer querying the
//!   embedded failure detector (line 13);
//! * footnote 5 (votes from past rounds are discarded, votes from future
//!   rounds are buffered until `r_i` catches up) becomes an explicit
//!   buffer.
//!
//! Line-number comments reference Fig. 2.

use std::collections::BTreeSet;

use ftm_certify::{Round, Value};
use ftm_fd::FailureDetector;
use ftm_sim::note::Note;
use ftm_sim::{Actor, Context, ProcessId, TimerTag};

use crate::crash::message::CrashMsg;
use crate::spec::Resilience;

const POLL_TIMER: TimerTag = 1;
const HEARTBEAT_TIMER: TimerTag = 2;

/// The three automaton states of a round (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Has not voted in this round.
    Q0,
    /// Voted CURRENT and has not changed its mind.
    Q1,
    /// Voted NEXT.
    Q2,
}

/// One process of the crash-model protocol.
///
/// Generic over the failure detector so experiments can swap the
/// heartbeat-driven [`ftm_fd::TimeoutDetector`] for an
/// [`ftm_fd::OracleDetector`] with scripted accuracy.
///
/// # Example
///
/// ```
/// use ftm_core::crash::CrashConsensus;
/// use ftm_core::spec::Resilience;
/// use ftm_fd::TimeoutDetector;
/// use ftm_sim::{Duration, SimConfig, Simulation};
///
/// let n = 5;
/// let report = Simulation::build(SimConfig::new(n).seed(11), |id| {
///     CrashConsensus::new(
///         Resilience::new(n, 2),
///         id,
///         10 + id.0 as u64,
///         TimeoutDetector::new(n, Duration::of(150)),
///         Duration::of(25),
///         Some(Duration::of(40)),
///     )
/// })
/// .run();
/// assert!(report.all_decided());
/// assert!(report.unanimous().is_some());
/// ```
#[derive(Debug)]
pub struct CrashConsensus<FD> {
    res: Resilience,
    me: ProcessId,
    // Protocol variables of Fig. 2.
    r: Round,
    est: Value,
    state: State,
    nb_current: usize,
    nb_next: usize,
    rec_from: BTreeSet<ProcessId>,
    // Module plumbing.
    fd: FD,
    poll_interval: ftm_sim::Duration,
    heartbeat_interval: Option<ftm_sim::Duration>,
    buffered: Vec<(ProcessId, CrashMsg)>,
    decided: bool,
}

impl<FD: FailureDetector> CrashConsensus<FD> {
    /// Creates a process proposing `value`.
    pub fn new(
        res: Resilience,
        me: ProcessId,
        value: Value,
        fd: FD,
        poll_interval: ftm_sim::Duration,
        heartbeat_interval: Option<ftm_sim::Duration>,
    ) -> Self {
        CrashConsensus {
            res,
            me,
            r: 0,
            est: value, // line 1: est_i ← v_i
            state: State::Q0,
            nb_current: 0,
            nb_next: 0,
            rec_from: BTreeSet::new(),
            fd,
            poll_interval,
            heartbeat_interval,
            buffered: Vec::new(),
            decided: false,
        }
    }

    /// The failure detector (for post-run inspection in tests).
    pub fn detector(&self) -> &FD {
        &self.fd
    }

    fn coordinator(&self) -> ProcessId {
        ProcessId(self.res.coordinator(self.r) as u32)
    }

    /// Lines 4–5: open round `r + 1`.
    fn begin_round(&mut self, ctx: &mut Context<'_, CrashMsg, Value>) {
        self.r += 1;
        self.state = State::Q0;
        self.rec_from.clear();
        self.nb_current = 0;
        self.nb_next = 0;
        ctx.note(Note::Round(self.r));
        if self.me == self.coordinator() {
            // Line 5: the coordinator proposes its estimate.
            ctx.broadcast(CrashMsg::Current {
                round: self.r,
                est: self.est,
            });
        }
        self.drain_buffer(ctx);
    }

    /// Re-delivers buffered future-round votes that became current.
    fn drain_buffer(&mut self, ctx: &mut Context<'_, CrashMsg, Value>) {
        loop {
            let round = self.r;
            let Some(pos) = self.buffered.iter().position(|(_, m)| match m {
                CrashMsg::Current { round: rk, .. } | CrashMsg::Next { round: rk } => *rk == round,
                _ => false,
            }) else {
                return;
            };
            let (from, msg) = self.buffered.remove(pos);
            self.handle_vote(from, msg, ctx);
            if self.decided {
                return;
            }
        }
    }

    /// Decide and shut down (lines 2 and 12).
    fn decide(&mut self, value: Value, ctx: &mut Context<'_, CrashMsg, Value>) {
        self.decided = true;
        ctx.broadcast(CrashMsg::Decide { est: value });
        ctx.decide(value);
        ctx.halt();
    }

    /// Lines 15 and 17 share this: vote NEXT once.
    fn vote_next(&mut self, ctx: &mut Context<'_, CrashMsg, Value>) {
        self.state = State::Q2;
        ctx.broadcast(CrashMsg::Next { round: self.r });
    }

    /// The `change_mind` predicate (paper §4): in `q1` with a majority of
    /// votes received but neither a CURRENT majority (line 12 would have
    /// decided) nor a NEXT majority (line 6 would advance).
    fn change_mind(&self) -> bool {
        self.state == State::Q1
            && self.rec_from.len() > self.res.n() / 2
            && self.nb_current <= self.res.n() / 2
            && self.nb_next <= self.res.n() / 2
    }

    fn handle_vote(
        &mut self,
        from: ProcessId,
        msg: CrashMsg,
        ctx: &mut Context<'_, CrashMsg, Value>,
    ) {
        match msg {
            CrashMsg::Current { round, est } => {
                debug_assert_eq!(round, self.r);
                // Lines 7–12.
                self.nb_current += 1;
                self.rec_from.insert(from);
                if self.nb_current == 1 {
                    self.est = est; // line 9: adopt the first CURRENT
                }
                if self.state == State::Q0 {
                    // Line 10: q0 → q1, relaying unless we are coordinator.
                    self.state = State::Q1;
                    if self.me != self.coordinator() {
                        ctx.broadcast(CrashMsg::Current {
                            round: self.r,
                            est: self.est,
                        });
                    }
                }
                if self.nb_current > self.res.n() / 2 {
                    // Line 12: CURRENT majority → decide.
                    self.decide(self.est, ctx);
                    return;
                }
            }
            CrashMsg::Next { round } => {
                debug_assert_eq!(round, self.r);
                // Line 14.
                self.nb_next += 1;
                self.rec_from.insert(from);
            }
            _ => unreachable!("handle_vote only takes votes"),
        }
        // Line 15: upon change_mind.
        if self.change_mind() {
            self.vote_next(ctx);
        }
        // Line 6/16–17: NEXT majority ends the round.
        if self.nb_next > self.res.n() / 2 {
            if self.state != State::Q2 {
                self.vote_next(ctx); // line 17
            }
            self.begin_round(ctx);
        }
    }
}

impl<FD: FailureDetector + 'static> Actor for CrashConsensus<FD> {
    type Msg = CrashMsg;
    type Decision = Value;

    fn on_start(&mut self, ctx: &mut Context<'_, CrashMsg, Value>) {
        self.begin_round(ctx); // opens round 1
        ctx.set_timer(self.poll_interval, POLL_TIMER);
        if let Some(hb) = self.heartbeat_interval {
            ctx.broadcast(CrashMsg::Heartbeat);
            ctx.set_timer(hb, HEARTBEAT_TIMER);
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &CrashMsg,
        ctx: &mut Context<'_, CrashMsg, Value>,
    ) {
        if self.decided {
            return;
        }
        // Every receipt feeds the detector (crash detection is
        // context-free: any sign of life counts).
        self.fd.observe_message(from, ctx.now());
        match msg {
            CrashMsg::Heartbeat => {}
            CrashMsg::Decide { est } => {
                // Line 2: relay and decide.
                self.decide(*est, ctx);
            }
            CrashMsg::Current { round, .. } | CrashMsg::Next { round } => {
                if *round < self.r {
                    // Footnote 5: stale votes are discarded.
                } else if *round > self.r {
                    self.buffered.push((from, msg.clone()));
                } else {
                    self.handle_vote(from, msg.clone(), ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, CrashMsg, Value>) {
        if self.decided {
            return;
        }
        match tag {
            POLL_TIMER => {
                // Line 13: upon (p_c ∈ suspected_i) in state q0.
                let coord = self.coordinator();
                if self.state == State::Q0 && self.fd.suspects(coord, ctx.now()) {
                    ctx.note(Note::Suspect(coord, self.r));
                    self.vote_next(ctx);
                }
                ctx.set_timer(self.poll_interval, POLL_TIMER);
            }
            HEARTBEAT_TIMER => {
                ctx.broadcast(CrashMsg::Heartbeat);
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
    use ftm_fd::{OracleDetector, TimeoutDetector};
    use ftm_sim::{Duration, RunReport, SimConfig, Simulation, VirtualTime};

    fn run_timeout_fd(n: usize, seed: u64, crashes: &[(usize, u64)]) -> RunReport<Value> {
        let mut cfg = SimConfig::new(n).seed(seed);
        for &(p, t) in crashes {
            cfg = cfg.crash(p, VirtualTime::at(t));
        }
        let res = Resilience::new(n, crate::quorum::max_faults(n));
        Simulation::build(cfg, |id| {
            CrashConsensus::new(
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
    fn all_correct_processes_decide_round_one() {
        let report = run_timeout_fd(5, 1, &[]);
        assert!(report.all_decided());
        // Validity: the round-1 coordinator is p0 → its estimate wins.
        assert_eq!(report.unanimous(), Some(100));
    }

    #[test]
    fn agreement_across_seeds() {
        for seed in 0..20 {
            let report = run_timeout_fd(4, seed, &[]);
            assert!(report.all_decided(), "seed {seed}");
            assert!(report.unanimous().is_some(), "seed {seed}");
        }
    }

    #[test]
    fn crashed_coordinator_is_bypassed() {
        // p0 (round-1 coordinator) crashes immediately: the others must
        // suspect it, round past it, and decide on p1's estimate.
        let report = run_timeout_fd(5, 3, &[(0, 0)]);
        assert!(report.all_decided());
        let v = report.unanimous().expect("agreement among survivors");
        assert_ne!(v, 100); // the crashed coordinator's value cannot win
    }

    #[test]
    fn tolerates_floor_half_minus_crashes() {
        // n = 5 tolerates 2 crashes.
        let report = run_timeout_fd(5, 4, &[(0, 0), (1, 50)]);
        assert!(report.all_decided());
        assert!(report.unanimous().is_some());
    }

    #[test]
    fn late_crash_after_decide_is_harmless() {
        let report = run_timeout_fd(4, 5, &[(3, 5_000)]);
        assert!(report.all_decided());
    }

    #[test]
    fn oracle_detector_with_lies_still_terminates() {
        // The detector wrongly suspects the round-1 coordinator for a long
        // while: rounds churn, but eventual accuracy restores progress.
        let n = 4;
        let res = Resilience::new(n, 1);
        let report = Simulation::build(SimConfig::new(n).seed(9), |id| {
            CrashConsensus::new(
                res,
                id,
                10 + id.0 as u64,
                OracleDetector::new(n).wrongly_suspect_until(ProcessId(0), VirtualTime::at(400)),
                Duration::of(25),
                None,
            )
        })
        .run();
        assert!(report.all_decided());
        assert!(report.unanimous().is_some());
    }

    #[test]
    fn votes_for_future_rounds_are_buffered_not_lost() {
        // Indirect check: runs with heavy delay jitter still decide.
        for seed in 0..10 {
            let n = 4;
            let res = Resilience::new(n, 1);
            let cfg = SimConfig::new(n)
                .seed(seed)
                .delay_range(Duration::of(1), Duration::of(80))
                .gst(VirtualTime::at(3_000), Duration::of(10));
            let report = Simulation::build(cfg, |id| {
                CrashConsensus::new(
                    res,
                    id,
                    10 + id.0 as u64,
                    TimeoutDetector::new(n, Duration::of(60)),
                    Duration::of(25),
                    Some(Duration::of(30)),
                )
            })
            .run();
            assert!(report.all_decided(), "seed {seed}");
            assert!(report.unanimous().is_some(), "seed {seed}");
        }
    }

    #[test]
    fn decision_latency_reported_in_rounds() {
        let report = run_timeout_fd(4, 2, &[]);
        // With a correct coordinator, no process should pass round 1.
        assert_eq!(crate::validator::max_round(&report.trace, 4), 1);
    }
}
