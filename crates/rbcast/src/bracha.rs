//! Bracha's reliable broadcast (arbitrary-fault model, `n > 3F`).
//!
//! The double-echo construction over authenticated point-to-point
//! channels:
//!
//! 1. the broadcaster sends `INITIAL(v)` to everyone;
//! 2. on `INITIAL(v)`: send `ECHO(v)` to everyone (once);
//! 3. on `⌈(n+F+1)/2⌉` ECHOes for `v`, or `F+1` READYs for `v`: send
//!    `READY(v)` to everyone (once);
//! 4. on `2F+1` READYs for `v`: deliver `v`.
//!
//! The echo quorum `⌈(n+F+1)/2⌉` makes two quorums for different values
//! intersect in a correct process, so an **equivocating broadcaster**
//! (different INITIALs to different processes) can never drive two correct
//! processes to deliver different values; the `F+1`-READY amplification
//! gives Totality (if any correct process delivers, all do).

use std::collections::{BTreeMap, BTreeSet};

use ftm_sim::{Actor, Context, Payload, ProcessId};

/// Wire messages of one broadcast instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BrachaMsg {
    /// Step 1: the broadcaster's value.
    Initial(u64),
    /// Step 2: first-round endorsement.
    Echo(u64),
    /// Step 3: delivery announcement.
    Ready(u64),
}

impl Payload for BrachaMsg {
    fn size_bytes(&self) -> usize {
        1 + 8
    }

    fn label(&self) -> String {
        match self {
            BrachaMsg::Initial(v) => format!("INITIAL({v})"),
            BrachaMsg::Echo(v) => format!("ECHO({v})"),
            BrachaMsg::Ready(v) => format!("READY({v})"),
        }
    }
}

/// Commands the state machine asks the host to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrachaOutput {
    /// Broadcast this message to everyone (including self).
    Send(BrachaMsg),
    /// Deliver this value (exactly once per instance).
    Deliver(u64),
}

/// The protocol-agnostic state machine for one broadcast instance.
///
/// # Example
///
/// ```
/// use ftm_rbcast::bracha::{BrachaMsg, BrachaOutput, BrachaState};
/// use ftm_sim::ProcessId;
///
/// // n = 4, F = 1: echo quorum 3, ready quorum 3, amplification 2.
/// let mut st = BrachaState::new(4, 1);
/// let out = st.on_message(ProcessId(0), &BrachaMsg::Initial(9));
/// assert_eq!(out, vec![BrachaOutput::Send(BrachaMsg::Echo(9))]);
/// ```
#[derive(Debug, Clone)]
pub struct BrachaState {
    n: usize,
    f: usize,
    echoes: BTreeMap<u64, BTreeSet<ProcessId>>,
    readies: BTreeMap<u64, BTreeSet<ProcessId>>,
    sent_echo: bool,
    sent_ready: bool,
    delivered: bool,
}

impl BrachaState {
    /// Creates the state machine for an `(n, F)` system.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3F` (below that the echo quorums of two values
    /// can be disjoint and Agreement is forfeit).
    pub fn new(n: usize, f: usize) -> Self {
        assert!(
            n >= ftm_quorum::bracha_min_n(f),
            "Bracha broadcast requires n > 3F (n={n}, F={f})"
        );
        BrachaState {
            n,
            f,
            echoes: BTreeMap::new(),
            readies: BTreeMap::new(),
            sent_echo: false,
            sent_ready: false,
            delivered: false,
        }
    }

    /// The echo quorum `⌈(n+F+1)/2⌉`.
    pub fn echo_quorum(&self) -> usize {
        ftm_quorum::bracha_echo_quorum(self.n, self.f)
    }

    /// The delivery quorum `2F + 1`.
    pub fn ready_quorum(&self) -> usize {
        ftm_quorum::bracha_ready_quorum(self.f)
    }

    /// Whether this instance has delivered.
    pub fn is_delivered(&self) -> bool {
        self.delivered
    }

    /// Feeds one receipt; returns the commands to execute, in order.
    pub fn on_message(&mut self, from: ProcessId, msg: &BrachaMsg) -> Vec<BrachaOutput> {
        let mut out = Vec::new();
        match msg {
            BrachaMsg::Initial(v) => {
                if !self.sent_echo {
                    self.sent_echo = true;
                    out.push(BrachaOutput::Send(BrachaMsg::Echo(*v)));
                }
            }
            BrachaMsg::Echo(v) => {
                self.echoes.entry(*v).or_default().insert(from);
                if !self.sent_ready && self.echoes[v].len() >= self.echo_quorum() {
                    self.sent_ready = true;
                    out.push(BrachaOutput::Send(BrachaMsg::Ready(*v)));
                }
            }
            BrachaMsg::Ready(v) => {
                self.readies.entry(*v).or_default().insert(from);
                let count = self.readies[v].len();
                if !self.sent_ready && count > self.f {
                    // Amplification: F+1 READYs prove a correct process
                    // sent READY, which is safe to join.
                    self.sent_ready = true;
                    out.push(BrachaOutput::Send(BrachaMsg::Ready(*v)));
                }
                if !self.delivered && count >= self.ready_quorum() {
                    self.delivered = true;
                    out.push(BrachaOutput::Deliver(*v));
                }
            }
        }
        out
    }
}

/// A self-contained simulator actor for one Bracha instance. Process 0 is
/// the broadcaster (honest actors only — Byzantine broadcasters are
/// modeled in tests by custom actors).
#[derive(Debug)]
pub struct BrachaActor {
    state: BrachaState,
    /// `Some(v)` on the broadcaster.
    pub broadcast: Option<u64>,
}

impl BrachaActor {
    /// A relay-only participant of an `(n, F)` system.
    pub fn relay(n: usize, f: usize) -> Self {
        BrachaActor {
            state: BrachaState::new(n, f),
            broadcast: None,
        }
    }

    /// The broadcaster of `v`.
    pub fn broadcaster(n: usize, f: usize, v: u64) -> Self {
        BrachaActor {
            state: BrachaState::new(n, f),
            broadcast: Some(v),
        }
    }
}

impl Actor for BrachaActor {
    type Msg = BrachaMsg;
    type Decision = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, BrachaMsg, u64>) {
        if let Some(v) = self.broadcast {
            ctx.broadcast(BrachaMsg::Initial(v));
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &BrachaMsg,
        ctx: &mut Context<'_, BrachaMsg, u64>,
    ) {
        for cmd in self.state.on_message(from, msg) {
            match cmd {
                BrachaOutput::Send(m) => ctx.broadcast(m),
                BrachaOutput::Deliver(v) => ctx.decide(v),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_sim::runner::BoxedActor;
    use ftm_sim::{SimConfig, Simulation, VirtualTime};

    const N: usize = 4;
    const F: usize = 1;

    #[test]
    fn quorums_match_the_classic_thresholds() {
        let st = BrachaState::new(4, 1);
        assert_eq!(st.echo_quorum(), 3);
        assert_eq!(st.ready_quorum(), 3);
        let st = BrachaState::new(7, 2);
        assert_eq!(st.echo_quorum(), 5);
        assert_eq!(st.ready_quorum(), 5);
    }

    #[test]
    #[should_panic(expected = "n > 3F")]
    fn bound_is_enforced() {
        let _ = BrachaState::new(6, 2);
    }

    #[test]
    fn honest_broadcast_delivers_everywhere() {
        for seed in 0..10 {
            let report = Simulation::build(SimConfig::new(N).seed(seed), |id| {
                if id.0 == 0 {
                    BrachaActor::broadcaster(N, F, 42)
                } else {
                    BrachaActor::relay(N, F)
                }
            })
            .run();
            assert!(report.all_decided(), "seed {seed}");
            assert_eq!(report.unanimous(), Some(42), "seed {seed}");
        }
    }

    #[test]
    fn tolerates_a_crashed_relayer() {
        let report = Simulation::build(
            SimConfig::new(N).seed(3).crash(2, VirtualTime::at(2)),
            |id| {
                if id.0 == 0 {
                    BrachaActor::broadcaster(N, F, 42)
                } else {
                    BrachaActor::relay(N, F)
                }
            },
        )
        .run();
        // n−1 = 3 live processes ≥ every quorum: delivery proceeds.
        for p in [0usize, 1, 3] {
            assert_eq!(report.decisions[p], Some(42), "p{p}");
        }
    }

    /// A two-faced broadcaster: INITIAL(a) to even processes, INITIAL(b)
    /// to odd ones, then behaves as an honest relayer for echoes/readies.
    #[derive(Debug)]
    struct Equivocator {
        state: BrachaState,
    }

    impl Actor for Equivocator {
        type Msg = BrachaMsg;
        type Decision = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, BrachaMsg, u64>) {
            for p in ctx.all_processes() {
                let v = if p.index() % 2 == 0 { 100 } else { 200 };
                ctx.send(p, BrachaMsg::Initial(v));
            }
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            msg: &BrachaMsg,
            ctx: &mut Context<'_, BrachaMsg, u64>,
        ) {
            for cmd in self.state.on_message(from, msg) {
                match cmd {
                    BrachaOutput::Send(m) => ctx.broadcast(m),
                    BrachaOutput::Deliver(v) => ctx.decide(v),
                }
            }
        }
    }

    #[test]
    fn equivocating_broadcaster_cannot_split_deliveries() {
        // Agreement must hold across all schedules: either some common
        // value is delivered by the correct processes, or none delivers.
        for seed in 0..25 {
            let report = Simulation::build_boxed(SimConfig::new(N).seed(seed), |id| {
                if id.0 == 0 {
                    Box::new(Equivocator {
                        state: BrachaState::new(N, F),
                    }) as BoxedActor<BrachaMsg, u64>
                } else {
                    Box::new(BrachaActor::relay(N, F))
                }
            })
            .run();
            let delivered: Vec<u64> = (1..N).filter_map(|p| report.decisions[p]).collect();
            assert!(
                delivered.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: correct processes delivered {delivered:?}"
            );
        }
    }

    #[test]
    fn totality_among_correct_processes() {
        // If any correct process delivers, all correct processes deliver
        // (the F+1-READY amplification): check across seeds with the
        // equivocator, where delivery is not guaranteed but must be
        // all-or-nothing.
        for seed in 0..25 {
            let report = Simulation::build_boxed(SimConfig::new(N).seed(seed), |id| {
                if id.0 == 0 {
                    Box::new(Equivocator {
                        state: BrachaState::new(N, F),
                    }) as BoxedActor<BrachaMsg, u64>
                } else {
                    Box::new(BrachaActor::relay(N, F))
                }
            })
            .run();
            let delivered = (1..N).filter(|&p| report.decisions[p].is_some()).count();
            assert!(
                delivered == 0 || delivered == N - 1,
                "seed {seed}: partial delivery ({delivered}/{})",
                N - 1
            );
        }
    }

    #[test]
    fn state_machine_delivers_once() {
        let mut st = BrachaState::new(N, F);
        for p in 0..3u32 {
            let _ = st.on_message(ProcessId(p), &BrachaMsg::Ready(5));
        }
        assert!(st.is_delivered());
        // Further readies do not re-deliver.
        let out = st.on_message(ProcessId(3), &BrachaMsg::Ready(5));
        assert!(out.is_empty());
    }

    #[test]
    fn echo_quorum_triggers_ready_once() {
        let mut st = BrachaState::new(N, F);
        let _ = st.on_message(ProcessId(0), &BrachaMsg::Initial(7)); // echo sent
        let mut readies = 0;
        for p in 0..4u32 {
            for cmd in st.on_message(ProcessId(p), &BrachaMsg::Echo(7)) {
                if matches!(cmd, BrachaOutput::Send(BrachaMsg::Ready(7))) {
                    readies += 1;
                }
            }
        }
        assert_eq!(readies, 1);
    }
}
