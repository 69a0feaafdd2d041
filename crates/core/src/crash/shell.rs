//! The crash-model shell: everything the crash-model round modules share,
//! written once.
//!
//! [`Crash`] is the crash-model counterpart of
//! [`Transformed`](crate::byzantine::Transformed): the round counter, the
//! estimate and the round it was adopted in, footnote 5's buffering of
//! votes for rounds not yet entered, `decide` and its relay, the ◇S poll
//! (`p_c ∈ suspected_i`) and the detector's heartbeats. A round module of
//! [`crate::rounds`] over a crash-model vote record
//! ([`crate::crash::votes`]) supplies the rest.
//!
//! Crash-model processes trust every byte, so rendering a send is only
//! choosing its destinations: a `CrashMsg` to everyone, or to the round
//! coordinator for Chandra–Toueg's ESTIMATE, ACK and NACK. The
//! coordinator's own ACK is not a message: the self-delivery of its
//! PROPOSE stands for it.

use ftm_certify::{MessageKind, Round, Value};
use ftm_fd::FailureDetector;
use ftm_sim::note::Note;
use ftm_sim::{Actor, Context, Duration, ProcessId, TimerTag};

use crate::crash::message::CrashMsg;
use crate::rounds::{
    Discharged, Model, Record, Rounds, SendId, Shell, Step, Vote, DECIDE_ANNOUNCE,
};
use crate::spec::Resilience;

const POLL_TIMER: TimerTag = 1;
const HEARTBEAT_TIMER: TimerTag = 2;

/// The crash model: a vote is a trusted [`CrashMsg`], and neither a round's
/// end nor a decision carries evidence — a decision decides the estimate
/// (Fig. 2 line 12).
#[derive(Debug)]
pub enum CrashModel {}

impl Model for CrashModel {
    type Vote<'v> = CrashMsg;
    type Sent = CrashMsg;
    type Entry = ();
    type Decision = ();

    fn kind(vote: &CrashMsg) -> MessageKind {
        vote.kind().unwrap_or(MessageKind::Decide) // the shell hands over votes only
    }
}

/// The shell state a round module reads and, through [`View`], updates.
#[derive(Debug)]
struct RoundState {
    res: Resilience,
    me: ProcessId,
    r: Round,
    est: Value,
    /// Round in which `est` was last adopted (0 = the own proposal). Only
    /// CT's `ESTIMATE` puts it on the wire.
    ts: Round,
    /// Messages sent per spec row; the conformance test reads the tally.
    discharged: Discharged,
}

impl RoundState {
    fn coordinator(&self) -> ProcessId {
        ProcessId(self.res.coordinator(self.r) as u32)
    }
}

/// A round module's view of the shell for the duration of one callback:
/// the shell state and the effect handle, which the module cannot reach.
struct View<'a, 'c>(&'a mut RoundState, &'a mut Context<'c, CrashMsg, Value>);

impl<R: Rounds<Votes: Record<Model = CrashModel>>> Shell<R> for View<'_, '_> {
    fn me(&self) -> ProcessId {
        self.0.me
    }

    fn round(&self) -> Round {
        self.0.r
    }

    fn coordinator(&self) -> ProcessId {
        self.0.coordinator()
    }

    /// The crash majority `⌊n/2⌋ + 1`.
    fn quorum(&self) -> usize {
        self.0.res.crash_majority()
    }

    fn adopt(&mut self, vote: &CrashMsg) {
        if let CrashMsg::Current { est, .. }
        | CrashMsg::Estimate { est, .. }
        | CrashMsg::Propose { est, .. }
        | CrashMsg::Ack { est, .. } = *vote
        {
            self.0.est = est;
            self.0.ts = self.0.r;
        }
    }

    fn emit(&mut self, row: R::Send, votes: &mut R::Votes) {
        let st = &mut *self.0;
        let msg = CrashMsg::of(row.kind(), st.r, st.est, st.ts);
        let coordinator = st.coordinator();
        if !(row.kind() == Vote::Ack && coordinator == st.me) {
            st.discharged.count(row.id());
            match row.kind() {
                Vote::Estimate | Vote::Ack | Vote::Nack => self.1.send(coordinator, msg),
                _ => self.1.broadcast(msg),
            }
        } // else: the coordinator's own PROPOSE, self-delivered, stands for it
        votes.sent(&msg);
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

impl<R: Rounds<Votes: Record<Model = CrashModel>>, FD: FailureDetector> Crash<R, FD> {
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
                discharged: Discharged::new::<R::Send>(&[]),
            },
            rounds: R::default(),
            fd,
            poll_interval,
            heartbeat_interval,
            buffered: Vec::new(),
            decided: false,
        }
    }

    /// Messages sent so far per row of `ProtocolSpec::crash_for(R::ID).sends`,
    /// in its order.
    pub fn discharged(&self) -> &[(&'static str, u32)] {
        &self.state.discharged.0
    }

    fn follow(&mut self, step: Step<R::Votes>, ctx: &mut Context<'_, CrashMsg, Value>) {
        match step {
            Step::Stay => {}
            Step::NextRound(()) => self.begin_round(ctx),
            Step::Decide(()) => self.decide(self.state.est, ctx),
        }
    }

    /// Opens round `r + 1` (HR lines 4–5).
    fn begin_round(&mut self, ctx: &mut Context<'_, CrashMsg, Value>) {
        self.state.r += 1;
        ctx.note(Note::Round(self.state.r));
        self.rounds.open_round(&mut View(&mut self.state, ctx));
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
            .on_vote(from, *msg, &mut View(&mut self.state, ctx));
        self.follow(step, ctx);
    }

    /// Relay, decide, stop (HR lines 2 and 12; CT's reliable-broadcast
    /// echo).
    fn decide(&mut self, value: Value, ctx: &mut Context<'_, CrashMsg, Value>) {
        self.decided = true;
        self.state.discharged.count(DECIDE_ANNOUNCE);
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

impl<R: Rounds<Votes: Record<Model = CrashModel>>, FD: FailureDetector> Actor for Crash<R, FD> {
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
            (_, Some(round)) if round > self.state.r => self.buffered.push((from, *msg)),
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
                let awaits = (self.rounds).awaits_coordinator(&View(&mut self.state, ctx));
                if awaits && self.fd.suspects(coord, ctx.now()) {
                    ctx.note(Note::Suspect(coord, self.state.r));
                    let step = self.rounds.on_suspicion(&mut View(&mut self.state, ctx));
                    self.follow(step, ctx);
                }
                ctx.set_timer(self.poll_interval, POLL_TIMER);
            }
            HEARTBEAT_TIMER => self.heartbeat(ctx),
            _ => {}
        }
    }
}
