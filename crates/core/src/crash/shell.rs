//! The crash-model shell: everything the crash-model round modules share,
//! written once.
//!
//! [`Crash`] is the crash-model counterpart of
//! [`Transformed`](crate::byzantine::Transformed): the round counter, the
//! estimate and the round it was adopted in, footnote 5's buffering of
//! votes for rounds not yet entered, `decide` and its relay, the ◇S poll
//! (`p_c ∈ suspected_i`) and the detector's heartbeats. A [`Rounds`]
//! implementation supplies the rest through the four entry points of
//! [`crate::byzantine::Rounds`]: its per-round record and how it reacts to
//! a round opening, a vote of the round in progress and a suspicion of the
//! coordinator.
//!
//! Crash-model processes trust every byte, so a round module sends through
//! [`Shell::broadcast`] and [`Shell::send`]: there is no signature,
//! certificate or send obligation for the shell to derive.

use std::fmt;

use ftm_certify::{Round, Value};
use ftm_fd::FailureDetector;
use ftm_sim::note::Note;
use ftm_sim::{Actor, Context, Duration, ProcessId, TimerTag};

use crate::crash::message::CrashMsg;
use crate::spec::Resilience;

const POLL_TIMER: TimerTag = 1;
const HEARTBEAT_TIMER: TimerTag = 2;

/// What a round module tells the shell after reacting to an event.
#[derive(Debug)]
#[must_use]
pub enum Step {
    /// The round goes on.
    Stay,
    /// The round is over; open the next one.
    NextRound,
    /// Decide the value.
    Decide(Value),
}

/// The protocol-specific round module of a crash-model protocol.
pub trait Rounds: fmt::Debug + Default {
    /// The shell entered a new round: reset the per-round record and make
    /// the round-opening send, if this process owes one.
    fn open_round(&mut self, sh: &mut Shell<'_, '_>);

    /// A vote for the round in progress (never `DECIDE` or a heartbeat,
    /// never another round's).
    fn on_vote(&mut self, from: ProcessId, msg: &CrashMsg, sh: &mut Shell<'_, '_>) -> Step;

    /// Whether this process still waits on the round coordinator, i.e.
    /// whether `p_c ∈ suspected_i` would make it give up.
    fn awaits_coordinator(&self) -> bool;

    /// The coordinator is suspected while awaited.
    fn on_suspicion(&mut self, sh: &mut Shell<'_, '_>) -> Step;
}

/// The shell state a round module reads and, through [`Shell`], updates.
#[derive(Debug)]
struct RoundState {
    res: Resilience,
    me: ProcessId,
    r: Round,
    est: Value,
    /// Round in which `est` was last adopted (0 = the own proposal). Only
    /// CT's `ESTIMATE` puts it on the wire.
    ts: Round,
}

impl RoundState {
    fn coordinator(&self) -> ProcessId {
        ProcessId(self.res.coordinator(self.r) as u32)
    }
}

/// A round module's view of the shell for the duration of one callback.
#[derive(Debug)]
pub struct Shell<'a, 'c> {
    state: &'a mut RoundState,
    ctx: &'a mut Context<'c, CrashMsg, Value>,
}

impl<'a, 'c> Shell<'a, 'c> {
    fn new(state: &'a mut RoundState, ctx: &'a mut Context<'c, CrashMsg, Value>) -> Self {
        Shell { state, ctx }
    }

    /// This process.
    pub fn me(&self) -> ProcessId {
        self.state.me
    }

    /// The round in progress.
    pub fn round(&self) -> Round {
        self.state.r
    }

    /// The coordinator of the round in progress.
    pub fn coordinator(&self) -> ProcessId {
        self.state.coordinator()
    }

    /// The crash majority `⌊n/2⌋ + 1`.
    pub fn majority(&self) -> usize {
        self.state.res.crash_majority()
    }

    /// The current estimate.
    pub fn est(&self) -> Value {
        self.state.est
    }

    /// The round [`Shell::est`] was adopted in.
    pub fn ts(&self) -> Round {
        self.state.ts
    }

    /// Adopts `est` as the estimate in the round in progress.
    pub fn adopt(&mut self, est: Value) {
        self.state.est = est;
        self.state.ts = self.state.r;
    }

    /// Sends `msg` to every process, this one included.
    pub fn broadcast(&mut self, msg: CrashMsg) {
        self.ctx.broadcast(msg);
    }

    /// Sends `msg` to `to`.
    pub fn send(&mut self, to: ProcessId, msg: CrashMsg) {
        self.ctx.send(to, msg);
    }
}

/// One process of a crash-model protocol: the shell around the round
/// module `R`.
///
/// Generic over the failure detector so experiments can swap the
/// heartbeat-driven [`ftm_fd::TimeoutDetector`] for an
/// [`ftm_fd::OracleDetector`] with scripted accuracy.
///
/// # Example
///
/// ```
/// use ftm_core::crash::{ChandraToueg, CrashConsensus};
/// use ftm_core::spec::Resilience;
/// use ftm_fd::TimeoutDetector;
/// use ftm_sim::{Duration, SimConfig, Simulation};
///
/// let n = 5;
/// let fd = || TimeoutDetector::new(n, Duration::of(150));
/// let (poll, heartbeat) = (Duration::of(25), Some(Duration::of(40)));
/// let hr = Simulation::build(SimConfig::new(n).seed(11), |id| {
///     CrashConsensus::new(Resilience::new(n, 2), id, 10 + id.0 as u64, fd(), poll, heartbeat)
/// })
/// .run();
/// assert!(hr.all_decided());
/// assert!(hr.unanimous().is_some());
/// let ct = Simulation::build(SimConfig::new(n).seed(3), |id| {
///     ChandraToueg::new(Resilience::new(n, 2), id, 10 + id.0 as u64, fd(), poll, heartbeat)
/// })
/// .run();
/// assert!(ct.all_decided());
/// ```
#[derive(Debug)]
pub struct Crash<R, FD> {
    state: RoundState,
    rounds: R,
    fd: FD,
    poll_interval: Duration,
    heartbeat_interval: Option<Duration>,
    /// Votes for rounds not yet entered (footnote 5).
    buffered: Vec<(ProcessId, CrashMsg)>,
    decided: bool,
}

impl<R: Rounds, FD: FailureDetector> Crash<R, FD> {
    /// Creates a process proposing `value`.
    pub fn new(
        res: Resilience,
        me: ProcessId,
        value: Value,
        fd: FD,
        poll_interval: Duration,
        heartbeat_interval: Option<Duration>,
    ) -> Self {
        Crash {
            state: RoundState {
                res,
                me,
                r: 0,
                est: value, // HR line 1: est_i ← v_i
                ts: 0,
            },
            rounds: R::default(),
            fd,
            poll_interval,
            heartbeat_interval,
            buffered: Vec::new(),
            decided: false,
        }
    }

    fn follow(&mut self, step: Step, ctx: &mut Context<'_, CrashMsg, Value>) {
        match step {
            Step::Stay => {}
            Step::NextRound => self.begin_round(ctx),
            Step::Decide(value) => self.decide(value, ctx),
        }
    }

    /// Opens round `r + 1` (HR lines 4–5).
    fn begin_round(&mut self, ctx: &mut Context<'_, CrashMsg, Value>) {
        self.state.r += 1;
        ctx.note(Note::Round(self.state.r));
        self.rounds
            .open_round(&mut Shell::new(&mut self.state, ctx));
        self.drain_buffer(ctx);
    }

    /// Re-delivers buffered future-round votes that became current.
    fn drain_buffer(&mut self, ctx: &mut Context<'_, CrashMsg, Value>) {
        while !self.decided {
            let r = self.state.r;
            let Some(pos) = self.buffered.iter().position(|(_, m)| m.round() == Some(r)) else {
                return;
            };
            let (from, msg) = self.buffered.remove(pos);
            self.handle_vote(from, &msg, ctx);
        }
    }

    fn handle_vote(
        &mut self,
        from: ProcessId,
        msg: &CrashMsg,
        ctx: &mut Context<'_, CrashMsg, Value>,
    ) {
        let step = self
            .rounds
            .on_vote(from, msg, &mut Shell::new(&mut self.state, ctx));
        self.follow(step, ctx);
    }

    /// Relay, decide, stop (HR lines 2 and 12; CT's reliable-broadcast
    /// echo).
    fn decide(&mut self, value: Value, ctx: &mut Context<'_, CrashMsg, Value>) {
        self.decided = true;
        ctx.broadcast(CrashMsg::Decide { est: value });
        ctx.decide(value);
        ctx.halt();
    }

    fn heartbeat(&self, ctx: &mut Context<'_, CrashMsg, Value>) {
        if let Some(hb) = self.heartbeat_interval {
            ctx.broadcast(CrashMsg::Heartbeat);
            ctx.set_timer(hb, HEARTBEAT_TIMER);
        }
    }
}

impl<R: Rounds, FD: FailureDetector> Actor for Crash<R, FD> {
    type Msg = CrashMsg;
    type Decision = Value;

    fn on_start(&mut self, ctx: &mut Context<'_, CrashMsg, Value>) {
        self.begin_round(ctx); // opens round 1
        ctx.set_timer(self.poll_interval, POLL_TIMER);
        self.heartbeat(ctx);
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
        match (msg, msg.round()) {
            // HR line 2: relay and decide.
            (CrashMsg::Decide { est }, _) => self.decide(*est, ctx),
            (_, Some(round)) if round > self.state.r => self.buffered.push((from, msg.clone())),
            (_, Some(round)) if round == self.state.r => self.handle_vote(from, msg, ctx),
            // A heartbeat, or a stale vote (footnote 5: discarded).
            _ => {}
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, CrashMsg, Value>) {
        if self.decided {
            return;
        }
        match tag {
            POLL_TIMER => {
                // HR line 13 / CT phase 3: upon p_c ∈ suspected_i while
                // still waiting on it.
                let coord = self.state.coordinator();
                if self.rounds.awaits_coordinator() && self.fd.suspects(coord, ctx.now()) {
                    ctx.note(Note::Suspect(coord, self.state.r));
                    let step = self
                        .rounds
                        .on_suspicion(&mut Shell::new(&mut self.state, ctx));
                    self.follow(step, ctx);
                }
                ctx.set_timer(self.poll_interval, POLL_TIMER);
            }
            HEARTBEAT_TIMER => self.heartbeat(ctx),
            _ => {}
        }
    }
}
