//! The simulated transformed run, and the sweep that runs many of them.
//!
//! The paper's experiments (E3/E4) run the transformed protocol against
//! every fault class in the taxonomy, over a grid of system sizes. An
//! [`AttackRun`] is one such run, adversary included: its
//! [`ProtocolConfig`] carries `(n, F)`, timeouts, the enabled checks and
//! the ◇M mode, and the run adds the protocol, the attacker coalition of
//! up to F members (or one hand-made [`Attack`]), t = 0 crashes, the
//! workload and the [`NetworkProfile`]. It builds the full stack (keys,
//! transformed actors, the wrapped attackers) and executes it under the
//! seeded simulator; it is the one non-test builder of a simulated
//! transformed run, and the sweep and the experiment tables go through
//! it.
//!
//! An `AttackRun` is also one cell of the sweep. [`run_scenario`] runs a
//! cell under a derived seed, judges it with [`ftm_core::validator`] —
//! Vector Consensus, or its lift to the replicated log — and flattens
//! everything the run produced into the flat counter map of an
//! [`ftm_sim::harness::RunRecord`]. [`sweep_scenarios`] is the sweep's
//! one entry point, for hand-built lists and [`ScenarioMatrix`] grids.
//!
//! The counters decompose cost by module layer, mirroring Fig. 1:
//!
//! * `bytes-signature` / `bytes-certificate` / `bytes-protocol` — wire
//!   bytes attributed to the signature module, the certification module
//!   and the protocol core (they sum to `bytes-total`);
//! * `suspicions` — muteness-FD activity (◇M suspicion events);
//! * `stack-*` — receive-side admit/reject counts per module, from each
//!   process's [`ftm_core::transform::StackStats`] note (the *last* note
//!   per process and slot, so per-round snapshots don't double-count);
//! * `detections-*` — convictions per fault class (`out-of-order` is the
//!   non-muteness automaton's wrong-expected count);
//! * `cert-items-*` — certificate sizes carried on sent messages;
//! * `coalition-size` and `m<i>-*` — per-coalition-member detection
//!   outcomes (conviction class, first-conviction round and time).
//!
//! Everything is a pure function of `(cell, seed)`: the same pair
//! reproduces the same trace fingerprint bit for bit, which is what lets
//! [`sweep_scenarios`] fan runs across threads without losing
//! replayability.

use std::collections::{BTreeMap, BTreeSet};

use ftm_certify::{MessageKind, ProtocolId, Value, ValueVector};
use ftm_core::byzantine::log::{ReplicatedLog, Retention};
use ftm_core::byzantine::{ByzantineChandraToueg, ByzantineConsensus, TransformedProtocol};
use ftm_core::config::{MutenessMode, ProtocolConfig, ProtocolSetup};
use ftm_core::validator::{check_log_consensus, check_vector_consensus, Verdict};
use ftm_crypto::rsa::KeyPair;
use ftm_sim::harness::{sweep, RunRecord, SweepReport};
use ftm_sim::note::{Finding, Note, Stats};
use ftm_sim::runner::BoxedActor;
use ftm_sim::trace::TraceEvent;
use ftm_sim::{
    Actor, Duration, NetworkProfile, ProcessId, RunReport, SimConfig, Simulation, VirtualTime,
};

use crate::attacks::{Attack, Trigger};
use crate::{ByzantineLogWrapper, ByzantineWrapper};

/// One fault behavior a coalition member may exhibit — the paper's
/// taxonomy (§2–3) plus the honest baseline and the benign crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultBehavior {
    /// No fault: every process runs the honest protocol.
    Honest,
    /// Benign crash at t = 0 (muteness by the simplest means).
    Crash,
    /// Permanent omission from t = 30 on (muteness without crashing).
    Mute,
    /// Corruption of a variable value: one vector entry poisoned.
    VectorCorrupt,
    /// Misevaluation of an expression: round numbers jumped ahead.
    RoundJump,
    /// Duplication of a statement: every vote sent twice.
    DuplicateVotes,
    /// Spurious statement: a fabricated DECIDE with no certificate.
    ForgeDecide,
    /// Forged signatures: messages signed with a key not in the directory.
    WrongKey,
    /// Identity falsification: messages claim to come from a victim.
    StealIdentity,
    /// Equivocation: different INIT values to different receivers.
    EquivocateInit,
    /// Spurious statement: an uncertified CURRENT out of the blue.
    SpuriousCurrent,
    /// Replay: the attacker's own honest output recorded and resent.
    Replay,
    /// Evidence suppression: certificates stripped from every message.
    StripCertificates,
    /// Transient omission: the attacker talks only to low-numbered peers.
    SelectiveOmission,
}

impl FaultBehavior {
    /// One row per behavior, in declaration order: the behavior and the
    /// stable kebab-case name cell keys and reports carry.
    const TABLE: [(FaultBehavior, &'static str); 14] = [
        (FaultBehavior::Honest, "honest"),
        (FaultBehavior::Crash, "crash"),
        (FaultBehavior::Mute, "mute"),
        (FaultBehavior::VectorCorrupt, "vector-corrupt"),
        (FaultBehavior::RoundJump, "round-jump"),
        (FaultBehavior::DuplicateVotes, "duplicate-votes"),
        (FaultBehavior::ForgeDecide, "forge-decide"),
        (FaultBehavior::WrongKey, "wrong-key"),
        (FaultBehavior::StealIdentity, "steal-identity"),
        (FaultBehavior::EquivocateInit, "equivocate-init"),
        (FaultBehavior::SpuriousCurrent, "spurious-current"),
        (FaultBehavior::Replay, "replay"),
        (FaultBehavior::StripCertificates, "strip-certificates"),
        (FaultBehavior::SelectiveOmission, "selective-omission"),
    ];

    /// Every behavior, in a stable order (the matrix enumeration order).
    pub fn all() -> [FaultBehavior; Self::TABLE.len()] {
        Self::TABLE.map(|(behavior, _)| behavior)
    }

    /// Stable kebab-case name used in cell keys and reports.
    pub fn label(&self) -> &'static str {
        Self::TABLE[*self as usize].1
    }

    /// The [`Attack`] this behavior runs against `protocol` when
    /// `attacker` of `n` processes exhibits it under `seed`, or `None` when
    /// the behavior needs no wrapper (honest runs, benign crashes). Most
    /// attacks are protocol-agnostic (they match the kinds of both
    /// transformed protocols and a run only ever stages its own); the fake
    /// coordinator is the exception — it must forge the proposal kind the
    /// victim protocol actually certifies (CURRENT under Hurfin–Raynal,
    /// PROPOSE under Chandra–Toueg).
    pub fn make_tamper_for(
        &self,
        protocol: ProtocolId,
        n: usize,
        attacker: u32,
        seed: u64,
    ) -> Option<Attack> {
        // An honest process's entry and identity, never the attacker's own.
        let neighbour = (attacker as usize + 1) % n;
        let attack = match self {
            FaultBehavior::Honest | FaultBehavior::Crash => return None,
            FaultBehavior::Mute => Attack::Mute {
                after: VirtualTime::at(30),
            },
            FaultBehavior::VectorCorrupt => Attack::CorruptVector {
                entry: neighbour,
                poison: 666,
            },
            FaultBehavior::RoundJump => Attack::JumpRound { jump: 5 },
            FaultBehavior::DuplicateVotes => Attack::DuplicateVotes,
            FaultBehavior::ForgeDecide => Attack::Forge {
                kind: MessageKind::Decide,
                poison: 999,
                trigger: Trigger::At(VirtualTime::at(1)),
            },
            FaultBehavior::WrongKey => {
                let mut rng = ftm_crypto::rng_from_seed(0xBAD ^ seed);
                Attack::Resign {
                    sender: None,
                    key: Some(KeyPair::generate(&mut rng, 128)),
                }
            }
            FaultBehavior::StealIdentity => Attack::Resign {
                sender: Some(ProcessId(neighbour as u32)),
                key: None,
            },
            FaultBehavior::EquivocateInit => Attack::EquivocateInit { alt: 1313 },
            FaultBehavior::SpuriousCurrent => match protocol {
                ProtocolId::HurfinRaynal => Attack::Forge {
                    kind: MessageKind::Current,
                    poison: 4242,
                    trigger: Trigger::At(VirtualTime::at(1)),
                },
                ProtocolId::ChandraToueg => Attack::Forge {
                    kind: MessageKind::Propose,
                    poison: 4242,
                    trigger: Trigger::AfterFirstEstimate,
                },
            },
            FaultBehavior::Replay => Attack::Replay {
                at: VirtualTime::at(30),
            },
            FaultBehavior::StripCertificates => Attack::StripCertificates,
            FaultBehavior::SelectiveOmission => Attack::SelectiveOmission { cutoff: n / 2 },
        };
        Some(attack)
    }
}

/// What the scenario's processes run on top of the module stack: a single
/// consensus instance, or the replicated-log application deciding several
/// slots back to back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One vector-consensus instance (the default).
    OneShot,
    /// A [`ReplicatedLog`] of `slots` entries, one instance per slot.
    Log {
        /// How many log slots each replica decides.
        slots: u64,
    },
}

/// A sweep grid: the cross product of protocols, system configurations
/// and fault behaviors, enumerated in a stable row-major order. Every cell
/// is a single attacker under adaptive ◇M, one-shot consensus and the calm
/// network; a sweep over the other axes lists its runs itself.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    /// `(n, F)` pairs, the grid's rows.
    pub systems: Vec<(usize, usize)>,
    /// Fault behaviors, the grid's columns.
    pub behaviors: Vec<FaultBehavior>,
    /// Transformed protocols to run the grid over, the outermost axis
    /// (just Hurfin–Raynal unless widened).
    pub protocols: Vec<ProtocolId>,
}

impl ScenarioMatrix {
    /// Builds a matrix from explicit rows and columns, over Hurfin–Raynal.
    pub fn new(systems: Vec<(usize, usize)>, behaviors: Vec<FaultBehavior>) -> Self {
        ScenarioMatrix {
            systems,
            behaviors,
            protocols: vec![ProtocolId::HurfinRaynal],
        }
    }

    /// The default `(n, F)` grid for sweeps: small systems where every
    /// taxonomy cell runs in milliseconds, plus larger ones — up to
    /// (31, 10) — that exercise quorum sizes the paper's asymptotics care
    /// about. Each system runs at the largest `F` the transformed
    /// protocols admit for its `n`, `⌊(n−1)/3⌋`.
    pub fn default_systems() -> Vec<(usize, usize)> {
        vec![(4, 1), (5, 1), (7, 2), (13, 4), (21, 6), (31, 10)]
    }

    /// Widens the protocol axis to every supported protocol, so each
    /// `(system, behavior)` cell runs once per protocol.
    pub fn cross_protocols(mut self) -> Self {
        self.protocols = ProtocolId::all().to_vec();
        self
    }

    /// Enumerates the cells row-major: protocols outermost, then systems,
    /// and innermost behaviors. The position in this list is the cell
    /// index the harness feeds to [`ftm_sim::prng::derive_seed`].
    pub fn enumerate(&self) -> Vec<AttackRun> {
        let mut out = Vec::new();
        for &protocol in &self.protocols {
            for &(n, f) in &self.systems {
                for &behavior in &self.behaviors {
                    out.push(AttackRun::single(n, f, behavior).protocol(protocol));
                }
            }
        }
        out
    }
}

/// Which processes run behind a wrapper, and the attack of each.
type Attacks = BTreeMap<u32, Attack>;

/// One simulated transformed run, adversary included — the stack-building
/// glue (keys, transformed actors, wrapped attackers, t = 0 crashes)
/// behind the experiments and the repo's integration tests, and one cell
/// of the sweep ([`run_scenario`]). Each setting has one home here: `(n,
/// F)` and the ◇M mode live in [`config`](Self::config), extra crashes
/// are `crash_low`.
#[derive(Debug, Clone)]
pub struct AttackRun {
    /// What every process is built from: `(n, F)`, key seed and width,
    /// timeouts, which checks run and the ◇M implementation.
    pub config: ProtocolConfig,
    /// Simulator seed, also the seed attacks draw key material from.
    pub seed: u64,
    /// The Byzantine process of the single-attacker entry points
    /// ([`run`](Self::run), [`run_log`](Self::run_log),
    /// [`verdict`](Self::verdict)).
    pub attacker: u32,
    /// The attacker coalition a sweep cell runs: `(member, behavior)`
    /// pairs. A single-member coalition is the classic one-attacker cell;
    /// sizes beyond F exist to document where the guarantees break. Empty
    /// unless built by [`single`](Self::single),
    /// [`coalition`](Self::coalition()) or
    /// [`coalition_of`](Self::coalition_of).
    pub coalition: Vec<(u32, FaultBehavior)>,
    /// What a sweep cell runs on top of consensus (a single instance by
    /// default).
    pub workload: Workload,
    /// Injection-timer delay for the wrapper. The default (3 ticks) beats
    /// the fastest honest decision (t ≈ 10 under the default delay range);
    /// a timed attack injected later fires into an already-halted system
    /// and detection assertions become vacuous.
    pub injection_delay: Duration,
    /// Process crashed at t = 0, if any — crash the round-1 coordinator to
    /// force NEXT-vote traffic.
    pub crash_at_start: Option<u32>,
    /// Crash processes `p0..p{k-1}` at t = 0 as well, on top of whatever
    /// the attackers do. `1` kills the round-1 coordinator (forcing
    /// NEXT-vote traffic); combined with coalition crashes it can exhaust —
    /// or deliberately exceed — the fault budget.
    pub crash_low: usize,
    /// Which transformed protocol the processes run (Hurfin–Raynal by
    /// default).
    pub protocol: ProtocolId,
    /// The delay/GST regime (calm — the historical defaults — unless
    /// overridden).
    pub network: NetworkProfile,
    /// Evidence-retention policy for the log workloads: keep every slot's
    /// decide certificate ([`Retention::Full`], the default) or compact
    /// decided slots into a signed checkpoint ([`Retention::Checkpoint`]).
    /// Ignored by the one-shot entry points.
    pub retention: Retention,
}

impl AttackRun {
    /// An `(n, F)` system under `seed` — the simulator's and the keys' —
    /// with one attacker, the default protocol configuration, default
    /// injection delay and nobody crashed.
    pub fn new(n: usize, f: usize, seed: u64, attacker: u32) -> Self {
        AttackRun::with_config(ProtocolConfig::new(n, f).seed(seed), seed, attacker)
    }

    /// Like [`new`](Self::new), with the processes built from `config`
    /// (its own key seed; `seed` drives the simulator).
    pub fn with_config(config: ProtocolConfig, seed: u64, attacker: u32) -> Self {
        AttackRun {
            config,
            seed,
            attacker,
            coalition: Vec::new(),
            workload: Workload::OneShot,
            injection_delay: Duration::of(3),
            crash_at_start: None,
            crash_low: 0,
            protocol: ProtocolId::HurfinRaynal,
            network: NetworkProfile::calm(),
            retention: Retention::Full,
        }
    }

    /// A single-attacker cell with no extra crashes (the plain taxonomy
    /// grid), running the default axes: Hurfin–Raynal, adaptive ◇M,
    /// one-shot consensus, calm network. The attacker is the
    /// highest-numbered process, never the round-1 coordinator.
    pub fn single(n: usize, f: usize, behavior: FaultBehavior) -> Self {
        AttackRun::coalition(n, f, vec![((n - 1) as u32, behavior)])
    }

    /// A cell with an explicit attacker coalition, otherwise as
    /// [`single`](Self::single). Members may sit anywhere (including the
    /// round-1 coordinator) and mix behaviors freely; sizes ≤ F are the
    /// paper's tolerated regime, F + 1 the documented breakage row. The
    /// first member is also [`attacker`](Self::attacker).
    ///
    /// # Panics
    ///
    /// Panics if the coalition is empty, names a process `≥ n`, or names
    /// the same process twice.
    pub fn coalition(n: usize, f: usize, members: Vec<(u32, FaultBehavior)>) -> Self {
        assert!(!members.is_empty(), "a coalition needs at least one member");
        let distinct: BTreeSet<u32> = members.iter().map(|&(m, _)| m).collect();
        assert_eq!(distinct.len(), members.len(), "duplicate coalition member");
        assert!(
            members.iter().all(|&(m, _)| (m as usize) < n),
            "coalition member out of range"
        );
        AttackRun {
            attacker: members[0].0,
            coalition: members,
            ..AttackRun::new(n, f, 0, 0)
        }
    }

    /// A coalition at the default placement: member `i` is process
    /// `n − 1 − i`, so the coalition grows downward from the top and the
    /// round-1 coordinator stays honest (representative honest progress,
    /// as in the single-attacker grid).
    ///
    /// # Panics
    ///
    /// Panics if `behaviors` is empty or longer than `n − 1`.
    pub fn coalition_of(n: usize, f: usize, behaviors: &[FaultBehavior]) -> Self {
        assert!(
            behaviors.len() < n,
            "coalition would leave no honest coordinator"
        );
        let members = behaviors
            .iter()
            .enumerate()
            .map(|(i, &b)| ((n - 1 - i) as u32, b))
            .collect();
        AttackRun::coalition(n, f, members)
    }

    /// Whether the coalition sits at the default placement (member `i` is
    /// process `n − 1 − i`) — the placement [`single`](Self::single) and
    /// [`coalition_of`](Self::coalition_of) produce.
    fn default_placement(&self) -> bool {
        self.coalition
            .iter()
            .enumerate()
            .all(|(i, &(m, _))| m as usize == self.config.n - 1 - i)
    }

    /// Cell key used to group sweep runs for aggregation: `(n, F)`, the
    /// coalition's behaviors, and a marker for each sweep axis off its
    /// default — coalition size and placement, protocol, ◇M mode (the
    /// round-aware ◇M marks its cells ` fd=round-aware` whatever its
    /// per-round allowance), workload, `crash_low` and network. Plain
    /// single-attacker Hurfin–Raynal one-shot cells under the calm network
    /// carry no marker.
    ///
    /// The other settings are not part of the key: the injection delay,
    /// `crash_at_start`, retention, and the config's timeouts and checks.
    /// Sweeps leave them at their defaults.
    pub fn cell(&self) -> String {
        let faults: Vec<&str> = self.coalition.iter().map(|(_, b)| b.label()).collect();
        let (n, f) = (self.config.n, self.config.f);
        let mut key = format!("n={n} f={f} fault={}", faults.join("+"));
        if self.coalition.len() > 1 {
            key.push_str(&format!(" coalition={}", self.coalition.len()));
        }
        if !self.default_placement() {
            let ids: Vec<String> = self.coalition.iter().map(|(m, _)| m.to_string()).collect();
            key.push_str(&format!(" members={}", ids.join("+")));
        }
        if self.protocol != ProtocolId::HurfinRaynal {
            key.push_str(&format!(" proto={}", self.protocol.label()));
        }
        if matches!(self.config.muteness_mode, MutenessMode::RoundAware { .. }) {
            key.push_str(" fd=round-aware");
        }
        if let Workload::Log { slots } = self.workload {
            key.push_str(&format!(" workload=log{slots}"));
        }
        if self.crash_low > 0 {
            key.push_str(&format!(" extra-crashes={}", self.crash_low));
        }
        if self.network != NetworkProfile::calm() {
            key.push_str(&format!(" net={}", self.network.label));
        }
        key
    }

    /// Selects what a sweep cell runs on top of consensus.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Selects the evidence-retention policy for the log workloads.
    pub fn retention(mut self, retention: Retention) -> Self {
        self.retention = retention;
        self
    }

    /// Selects the transformed protocol the processes run.
    pub fn protocol(mut self, protocol: ProtocolId) -> Self {
        self.protocol = protocol;
        self
    }

    /// Overrides the wrapper's injection-timer delay.
    pub fn injection_delay(mut self, delay: Duration) -> Self {
        self.injection_delay = delay;
        self
    }

    /// Crashes process `p` at t = 0.
    pub fn crash_at_start(mut self, p: u32) -> Self {
        self.crash_at_start = Some(p);
        self
    }

    /// Crashes processes `p0..p{k-1}` at t = 0.
    pub fn crash_low(mut self, k: usize) -> Self {
        self.crash_low = k;
        self
    }

    /// Selects the delay/GST regime the run executes under.
    pub fn network(mut self, network: NetworkProfile) -> Self {
        self.network = network;
        self
    }

    /// The canonical proposal vector: process `i` proposes `100 + i`.
    pub fn proposals(&self) -> Vec<Value> {
        (0..self.config.n as u64).map(|i| 100 + i).collect()
    }

    /// The key material and simulator configuration this run is built
    /// on. `coalition_crashes` (members whose behavior is the benign
    /// crash) are registered between `crash_at_start` and the
    /// low-numbered crashes, so a one-member coalition schedules its t = 0
    /// events in the single-attacker order.
    fn setup_and_cfg(&self, coalition_crashes: &[u32]) -> (ProtocolSetup, SimConfig) {
        let setup = self.config.setup();
        let mut cfg = self
            .network
            .apply(SimConfig::new(self.config.n).seed(self.seed));
        if let Some(p) = self.crash_at_start {
            cfg = cfg.crash(p as usize, VirtualTime::ZERO);
        }
        for &p in coalition_crashes {
            cfg = cfg.crash(p as usize, VirtualTime::ZERO);
        }
        for p in 0..self.crash_low {
            cfg = cfg.crash(p, VirtualTime::ZERO);
        }
        (setup, cfg)
    }

    /// The one run builder: every process runs `honest(id)`, and a process
    /// with an entry in `attacks` runs it behind `wrap` with its own key
    /// pair.
    fn simulate<A, W>(
        &self,
        setup: &ProtocolSetup,
        cfg: SimConfig,
        mut attacks: Attacks,
        honest: impl Fn(ProcessId) -> A,
        wrap: fn(A, Attack, KeyPair, Duration) -> W,
    ) -> RunReport<A::Decision>
    where
        A: Actor + 'static,
        W: Actor<Msg = A::Msg, Decision = A::Decision> + 'static,
    {
        Simulation::build_boxed(cfg, |id| match attacks.remove(&id.0) {
            Some(attack) => {
                let keys = setup.keys[id.index()].clone();
                Box::new(wrap(honest(id), attack, keys, self.injection_delay)) as BoxedActor<_, _>
            }
            None => Box::new(honest(id)),
        })
        .run()
    }

    /// One-shot consensus with the processes in `attacks` wrapped.
    fn one_shot(
        &self,
        setup: &ProtocolSetup,
        cfg: SimConfig,
        attacks: Attacks,
    ) -> RunReport<ValueVector> {
        let props = self.proposals();
        match self.protocol {
            ProtocolId::HurfinRaynal => self.simulate(
                setup,
                cfg,
                attacks,
                |id| ByzantineConsensus::build(setup, id, props[id.index()]),
                ByzantineWrapper::new,
            ),
            ProtocolId::ChandraToueg => self.simulate(
                setup,
                cfg,
                attacks,
                |id| ByzantineChandraToueg::build(setup, id, props[id.index()]),
                ByzantineWrapper::new,
            ),
        }
    }

    /// The replicated-log workload — every process a [`ReplicatedLog`]
    /// replica deciding `slots` entries — otherwise as
    /// [`one_shot`](Self::one_shot).
    fn log(
        &self,
        slots: u64,
        setup: &ProtocolSetup,
        cfg: SimConfig,
        attacks: Attacks,
    ) -> RunReport<Vec<ValueVector>> {
        match self.protocol {
            ProtocolId::HurfinRaynal => self.simulate(
                setup,
                cfg,
                attacks,
                |id| self.replica::<ByzantineConsensus>(setup, id, slots),
                ByzantineLogWrapper::new,
            ),
            ProtocolId::ChandraToueg => self.simulate(
                setup,
                cfg,
                attacks,
                |id| self.replica::<ByzantineChandraToueg>(setup, id, slots),
                ByzantineLogWrapper::new,
            ),
        }
    }

    fn replica<P: TransformedProtocol>(
        &self,
        setup: &ProtocolSetup,
        id: ProcessId,
        slots: u64,
    ) -> ReplicatedLog<P> {
        ReplicatedLog::new(setup, id, slots, log_command).with_retention(self.retention)
    }

    /// The single-attacker map: `attacker` wrapped iff there is an attack.
    fn lone_attack(&self, attack: Option<Attack>) -> Attacks {
        attack.map(|a| (self.attacker, a)).into_iter().collect()
    }

    /// Builds the full stack and executes one-shot consensus with
    /// [`attacker`](Self::attacker) running `attack` — a one-member
    /// coalition with a hand-made attack. `None` runs an honest (or merely
    /// crashed) system.
    pub fn run(&self, attack: Option<Attack>) -> RunReport<ValueVector> {
        let (setup, cfg) = self.setup_and_cfg(&[]);
        self.one_shot(&setup, cfg, self.lone_attack(attack))
    }

    /// Executes the run with an attacker *coalition*: every member whose
    /// behavior needs a wrapper runs its own attack (built by
    /// [`FaultBehavior::make_tamper_for`]), members behaving as
    /// [`FaultBehavior::Crash`] are crashed at t = 0, and honest members
    /// run untouched.
    pub fn run_coalition(&self, members: &[(u32, FaultBehavior)]) -> RunReport<ValueVector> {
        let (setup, cfg) = self.setup_and_cfg(&coalition_crashes(members));
        self.one_shot(&setup, cfg, self.coalition_attacks(members))
    }

    /// [`run`](Self::run) over the replicated-log workload: the attacker's
    /// replica is wrapped so the attack rewrites the consensus envelope
    /// inside each slot message.
    pub fn run_log(&self, slots: u64, attack: Option<Attack>) -> RunReport<Vec<ValueVector>> {
        let (setup, cfg) = self.setup_and_cfg(&[]);
        self.log(slots, &setup, cfg, self.lone_attack(attack))
    }

    /// The replicated-log workload under an attacker coalition — the
    /// log-shaped sibling of [`run_coalition`](Self::run_coalition).
    pub fn run_coalition_log(
        &self,
        slots: u64,
        members: &[(u32, FaultBehavior)],
    ) -> RunReport<Vec<ValueVector>> {
        let (setup, cfg) = self.setup_and_cfg(&coalition_crashes(members));
        self.log(slots, &setup, cfg, self.coalition_attacks(members))
    }

    /// Per-member attacks for a coalition (honest and crashed members need
    /// none).
    fn coalition_attacks(&self, members: &[(u32, FaultBehavior)]) -> Attacks {
        members
            .iter()
            .filter_map(|&(m, b)| {
                b.make_tamper_for(self.protocol, self.config.n, m, self.seed)
                    .map(|a| (m, a))
            })
            .collect()
    }

    /// Checks the vector-consensus properties with only the attacker
    /// marked faulty (even after [`run`](Self::run)`(None)`; judge an
    /// attacker-free run with an empty
    /// [`coalition_verdict`](Self::coalition_verdict)).
    pub fn verdict(&self, report: &RunReport<ValueVector>) -> Verdict {
        let mut faulty = vec![false; self.config.n];
        faulty[self.attacker as usize] = true;
        check_vector_consensus(report, &self.proposals(), &faulty, self.config.f)
    }

    /// Checks the vector-consensus properties with every non-honest
    /// coalition member marked faulty.
    pub fn coalition_verdict(
        &self,
        members: &[(u32, FaultBehavior)],
        report: &RunReport<ValueVector>,
    ) -> Verdict {
        check_vector_consensus(
            report,
            &self.proposals(),
            &coalition_faulty(self.config.n, members),
            self.config.f,
        )
    }
}

/// The t = 0 crash list a coalition implies (members behaving as the
/// benign crash).
fn coalition_crashes(members: &[(u32, FaultBehavior)]) -> Vec<u32> {
    members
        .iter()
        .filter(|&&(_, b)| b == FaultBehavior::Crash)
        .map(|&(m, _)| m)
        .collect()
}

/// The faulty-process mask a coalition implies (honest members are not
/// faulty).
pub fn coalition_faulty(n: usize, members: &[(u32, FaultBehavior)]) -> Vec<bool> {
    let mut faulty = vec![false; n];
    for &(m, b) in members {
        if b != FaultBehavior::Honest {
            faulty[m as usize] = true;
        }
    }
    faulty
}

/// The replicated-log workload's deterministic per-slot command: replica
/// `p` proposes `1000·slot + 100 + p` for `slot`.
pub fn log_command(slot: u64, p: u32) -> Value {
    1000 * slot + 100 + p as u64
}

/// Runs one sweep cell under one derived seed — the key seed and the
/// simulator seed both become `seed` — and flattens the outcome of its
/// coalition on its workload into a [`RunRecord`]. Matches the signature
/// [`ftm_sim::harness::sweep`] expects, so it can be passed directly as
/// the worker function.
pub fn run_scenario(index: usize, cell: &AttackRun, seed: u64) -> RunRecord {
    let run = AttackRun {
        config: cell.config.clone().seed(seed),
        seed,
        ..cell.clone()
    };
    let members = &run.coalition;
    let mut rec = RunRecord::new(run.cell(), index, seed);
    rec.set("coalition-size", members.len() as u64);
    match run.workload {
        Workload::OneShot => {
            let report = run.run_coalition(members);
            let verdict = run.coalition_verdict(members, &report);
            record_outcome(&mut rec, &verdict, &report, members);
        }
        Workload::Log { slots } => {
            let report = run.run_coalition_log(slots, members);
            let faulty = coalition_faulty(run.config.n, members);
            let verdict = check_log_consensus(&report, log_command, &faulty, run.config.f);
            record_outcome(&mut rec, &verdict, &report, members);
        }
    }
    rec
}

/// Writes one finished run into its record: the verdict — property by
/// property, so experiment tables can separate termination (forfeited
/// beyond the bound) from safety (never) — then the metrics.
fn record_outcome<D>(
    rec: &mut RunRecord,
    verdict: &Verdict,
    report: &RunReport<D>,
    members: &[(u32, FaultBehavior)],
) {
    rec.ok = verdict.ok();
    rec.set("prop-termination", u64::from(verdict.termination));
    rec.set("prop-agreement", u64::from(verdict.agreement));
    rec.set("prop-validity", u64::from(verdict.validity));
    record_metrics(rec, report, members);
}

/// Flattens a finished run's metrics and trace notes into the record's
/// counter map, in one pass over the trace. Every counter listed in the
/// module docs is set (zero when the run never exercised that layer), so
/// each cell of the aggregated report carries the full per-layer
/// breakdown. Generic over the decision type so one-shot and log runs
/// flatten identically.
///
/// Detection outcomes are coalition-focused. Aggregate counters cover the
/// whole coalition: which classes honest observers convicted *any* member
/// under (`convicted-<class>` distinct observers, `conviction-at-<class>`
/// earliest time), plus the first ◇M suspicion. Per-member counters
/// (`m<i>-…`, `i` the member's index in the coalition vector) break the
/// same outcomes down: conviction class coverage, first-conviction time
/// and the convicting observer's round at that moment, and whether ◇M
/// ever suspected the member.
fn record_metrics<D>(rec: &mut RunRecord, report: &RunReport<D>, members: &[(u32, FaultBehavior)]) {
    // Send-side cost, decomposed by module layer (see `Payload::layer_split`).
    rec.set("messages-sent", report.metrics.messages_sent);
    rec.set("bytes-total", report.metrics.bytes_sent);
    rec.set("bytes-signature", report.metrics.signature_bytes);
    rec.set("bytes-certificate", report.metrics.certificate_bytes);
    rec.set("bytes-protocol", report.metrics.protocol_bytes);
    rec.set("messages-delivered", report.metrics.messages_delivered);
    rec.set("end-time", report.end_time.ticks());
    rec.set("decided", report.decisions.iter().flatten().count() as u64);
    rec.set("trace-fingerprint", report.trace.fingerprint());

    // Receive-side and FD counters start at zero so every record exposes
    // the same key set regardless of which layers fired.
    for key in [
        "suspicions",
        "detections",
        "detections-bad-signature",
        "detections-bad-certificate",
        "detections-out-of-order",
        "detections-wrong-syntax",
        "stack-admitted",
        "stack-sig-rejects",
        "stack-cert-rejects",
        "stack-auto-rejects",
        "stack-syntax-rejects",
        "stack-fd-mistakes",
        "stack-fd-honest-mistakes",
        "stack-quarantined",
        "stack-checkpoints",
        "cert-items-sum",
        "cert-items-max",
    ] {
        rec.add(key, 0);
    }

    let index_of: BTreeMap<u32, usize> = members
        .iter()
        .enumerate()
        .map(|(i, &(m, _))| (m, i))
        .collect();
    // Per class: the honest observers that convicted any member under it,
    // and when the first did.
    let mut agg: BTreeMap<&str, (BTreeSet<ProcessId>, u64)> = BTreeMap::new();
    let mut mem_observers: Vec<BTreeMap<&str, BTreeSet<ProcessId>>> =
        vec![BTreeMap::new(); members.len()];
    // Per member: time of its first conviction and the observer's round then.
    let mut mem_first: Vec<Option<(u64, u64)>> = vec![None; members.len()];
    let mut mem_suspected: Vec<bool> = vec![false; members.len()];
    // First muteness suspicion raised by one process about another: the
    // ◇M module's half of the detection work (suspicion, not conviction).
    let mut first_suspicion: Option<u64> = None;

    // Per (process, slot instance): the round it is in, so a conviction
    // can be stamped with the round it landed in, and its last stats note
    // — the stack emits a cumulative one at every round entry and at
    // decide, so summing them all would charge early rounds many times
    // over.
    let mut max_round = 0u64;
    let mut rounds: BTreeMap<(u32, Option<u64>), u64> = BTreeMap::new();
    let mut last_stats: BTreeMap<(u32, Option<u64>), Stats<'_>> = BTreeMap::new();
    for entry in report.trace.entries() {
        let (process, text) = match &entry.event {
            TraceEvent::Note { process, text } => (*process, text),
            TraceEvent::Send { label, .. } => {
                if let Some(pos) = label.rfind("cert=") {
                    if let Ok(items) = label[pos + 5..].trim().parse::<u64>() {
                        rec.add("cert-items-sum", items);
                        let max = rec.get("cert-items-max").max(items);
                        rec.set("cert-items-max", max);
                    }
                }
                continue;
            }
            _ => continue,
        };
        let (slot, note) = Note::parse(text);
        let instance = (process.0, slot);
        // What coalition members say is not evidence.
        let honest = !index_of.contains_key(&process.0);
        let at = entry.at.ticks();
        match note {
            Note::Round(round) => {
                max_round = max_round.max(round);
                rounds.insert(instance, round);
            }
            Note::StackStats(stats) => {
                last_stats.insert(instance, stats);
            }
            Note::Suspect(peer, _) => {
                rec.add("suspicions", 1);
                if peer != process {
                    first_suspicion = Some(first_suspicion.map_or(at, |first| first.min(at)));
                }
                if let (true, Some(&i)) = (honest, index_of.get(&peer.0)) {
                    mem_suspected[i] = true;
                }
            }
            Note::Detected(Finding { culprit, class, .. }) => {
                rec.add("detections", 1);
                rec.add(format!("detections-{class}"), 1);
                let (true, Some(&i)) = (honest, index_of.get(&culprit.0)) else {
                    continue;
                };
                let (observers, first) = agg.entry(class).or_insert((BTreeSet::new(), at));
                observers.insert(process);
                *first = (*first).min(at);
                mem_observers[i].entry(class).or_default().insert(process);
                let round = rounds.get(&instance).copied().unwrap_or(0);
                mem_first[i].get_or_insert((at, round));
            }
            _ => {}
        }
    }

    rec.set("rounds", max_round);
    for (key, value) in last_stats.values().flat_map(|stats| stats.iter()) {
        rec.add(format!("stack-{key}"), value);
    }
    for (class, (observers, first)) in &agg {
        rec.set(format!("convicted-{class}"), observers.len() as u64);
        rec.set(format!("conviction-at-{class}"), *first);
    }
    for i in 0..members.len() {
        for (class, obs) in &mem_observers[i] {
            rec.set(format!("m{i}-convicted-{class}"), obs.len() as u64);
        }
        if let Some((at, round)) = mem_first[i] {
            rec.set(format!("m{i}-conviction-at"), at);
            rec.set(format!("m{i}-conviction-round"), round);
        }
        rec.set(format!("m{i}-suspected"), u64::from(mem_suspected[i]));
    }
    rec.set("suspicion-covered", u64::from(first_suspicion.is_some()));
    if let Some(at) = first_suspicion {
        rec.set("suspicion-first-at", at);
    }
}

/// Runs a list of cells through the parallel harness — the sweep's one
/// entry point, for a [`ScenarioMatrix::enumerate`]d grid and for
/// experiment tables whose rows are not a plain cross product
/// (multi-crash budgets, per-row system sizes, hand-built coalitions).
/// Each cell appears `repeats` consecutive times: repeats share a cell
/// key and get distinct indices, hence distinct derived seeds, so cells
/// aggregate into real percentiles. The output is a pure function of
/// `(cells, repeats, base_seed)` — thread count only changes wall clock,
/// never a byte of the report.
///
/// # Panics
///
/// Panics if a run panics — for instance a cell beyond the transformed
/// protocols' resilience bound, which the certification module refuses —
/// with a message that starts with the first failing cell's key, index
/// and seed.
pub fn sweep_scenarios(
    cells: &[AttackRun],
    repeats: usize,
    base_seed: u64,
    threads: usize,
) -> SweepReport {
    let expanded: Vec<AttackRun> = cells
        .iter()
        .flat_map(|cell| (0..repeats).map(move |_| cell.clone()))
        .collect();
    let records = sweep(&expanded, base_seed, threads, AttackRun::cell, run_scenario);
    SweepReport::new(base_seed, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run` with the round-aware ◇M.
    fn round_aware(mut run: AttackRun) -> AttackRun {
        run.config.muteness_mode = MutenessMode::RoundAware {
            per_round: Duration::of(25),
        };
        run
    }

    #[test]
    fn matrix_enumerates_row_major_with_distinct_cells() {
        let m = ScenarioMatrix::new(
            vec![(4, 1), (5, 1)],
            vec![FaultBehavior::Honest, FaultBehavior::Crash],
        );
        let cells: Vec<String> = m.enumerate().iter().map(AttackRun::cell).collect();
        assert_eq!(
            cells,
            [
                "n=4 f=1 fault=honest",
                "n=4 f=1 fault=crash",
                "n=5 f=1 fault=honest",
                "n=5 f=1 fault=crash",
            ]
        );
    }

    #[test]
    fn coalition_cells_key_by_member_behaviors_and_placement() {
        let sc =
            AttackRun::coalition_of(7, 2, &[FaultBehavior::Mute, FaultBehavior::DuplicateVotes]);
        assert_eq!(
            sc.coalition,
            vec![(6, FaultBehavior::Mute), (5, FaultBehavior::DuplicateVotes)]
        );
        assert_eq!(sc.cell(), "n=7 f=2 fault=mute+duplicate-votes coalition=2");
        // Explicit non-default placement is part of the key.
        let placed = AttackRun::coalition(
            7,
            2,
            vec![(2, FaultBehavior::Mute), (4, FaultBehavior::DuplicateVotes)],
        );
        assert_eq!(
            placed.cell(),
            "n=7 f=2 fault=mute+duplicate-votes coalition=2 members=2+4"
        );
        // A non-calm network is part of the key too.
        let jittery =
            AttackRun::single(4, 1, FaultBehavior::Honest).network(NetworkProfile::jittery());
        assert_eq!(jittery.cell(), "n=4 f=1 fault=honest net=jittery");
    }

    #[test]
    fn single_attacker_constructor_still_places_the_attacker_on_top() {
        let sc = AttackRun::single(5, 1, FaultBehavior::Mute);
        assert_eq!(sc.coalition, vec![(4, FaultBehavior::Mute)]);
        assert_eq!(sc.cell(), "n=5 f=1 fault=mute");
        // `coalition_of` at width 1 is the same cell.
        let one = AttackRun::coalition_of(5, 1, &[FaultBehavior::Mute]);
        assert_eq!(one.coalition, sc.coalition);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_coalition_members_are_rejected() {
        let _ = AttackRun::coalition(
            4,
            1,
            vec![(3, FaultBehavior::Mute), (3, FaultBehavior::Crash)],
        );
    }

    #[test]
    fn full_matrix_covers_the_whole_taxonomy() {
        let m = ScenarioMatrix::new(vec![(4, 1)], FaultBehavior::all().to_vec());
        assert_eq!(m.enumerate().len(), FaultBehavior::all().len());
        // `label` indexes the table by discriminant.
        for (row, behavior) in FaultBehavior::all().into_iter().enumerate() {
            assert_eq!(
                behavior as usize, row,
                "{behavior:?} is out of declaration order"
            );
        }
        let labels: std::collections::BTreeSet<&str> = FaultBehavior::all()
            .iter()
            .map(super::FaultBehavior::label)
            .collect();
        assert_eq!(labels.len(), FaultBehavior::all().len(), "labels collide");
    }

    #[test]
    fn honest_run_decomposes_bytes_by_layer() {
        let sc = AttackRun::single(4, 1, FaultBehavior::Honest);
        let rec = run_scenario(0, &sc, 7);
        assert!(rec.ok, "honest run failed: {rec:?}");
        assert_eq!(rec.get("decided"), 4);
        assert_eq!(rec.get("coalition-size"), 1);
        assert!(rec.get("rounds") >= 1);
        assert!(rec.get("bytes-signature") > 0);
        assert!(rec.get("bytes-protocol") > 0);
        assert_eq!(
            rec.get("bytes-signature") + rec.get("bytes-certificate") + rec.get("bytes-protocol"),
            rec.get("bytes-total"),
            "layer bytes must sum to the wire total"
        );
        assert!(rec.get("stack-admitted") > 0);
        assert_eq!(rec.get("detections"), 0);
    }

    #[test]
    fn vector_corruption_is_survived_and_charged_to_certification() {
        let sc = AttackRun::single(4, 1, FaultBehavior::VectorCorrupt);
        let rec = run_scenario(0, &sc, 3);
        assert!(rec.ok, "corrupted run violated the spec: {rec:?}");
        assert!(
            rec.get("detections-bad-certificate") > 0,
            "certification module never convicted: {rec:?}"
        );
        // The per-member breakdown names the same conviction.
        assert!(rec.get("m0-convicted-bad-certificate") > 0, "{rec:?}");
        assert!(rec.get("m0-conviction-round") >= 1, "{rec:?}");
    }

    #[test]
    fn mixed_coalition_convicts_each_member_under_its_own_class() {
        // Two simultaneous attackers within the budget (F = 2), with
        // *different* behaviors caught by *different* modules: a vector
        // corrupter (certification module) and a wrong-key signer
        // (signature module). Consensus must survive and the per-member
        // breakdown must attribute each conviction class to the right
        // member.
        let sc = AttackRun::coalition_of(
            7,
            2,
            &[FaultBehavior::VectorCorrupt, FaultBehavior::WrongKey],
        );
        let rec = run_scenario(0, &sc, 17);
        assert!(rec.ok, "within-budget coalition broke consensus: {rec:?}");
        assert_eq!(rec.get("coalition-size"), 2);
        assert!(
            rec.get("m0-convicted-bad-certificate") > 0,
            "vector corrupter (m0 = p6) never convicted: {rec:?}"
        );
        assert!(
            rec.get("m1-convicted-bad-signature") > 0,
            "wrong-key signer (m1 = p5) never convicted: {rec:?}"
        );
        // No cross-attribution: the corrupter's signatures are fine and
        // the forger's vectors are fine.
        assert_eq!(rec.get("m0-convicted-bad-signature"), 0, "{rec:?}");
        assert_eq!(rec.get("m1-convicted-bad-certificate"), 0, "{rec:?}");
    }

    #[test]
    fn same_seed_reproduces_the_record_exactly() {
        let sc = AttackRun::single(4, 1, FaultBehavior::ForgeDecide);
        let a = run_scenario(2, &sc, 0xD5);
        let b = run_scenario(2, &sc, 0xD5);
        assert_eq!(a, b);
        let c = run_scenario(2, &sc, 0xD6);
        assert_ne!(
            a.get("trace-fingerprint"),
            c.get("trace-fingerprint"),
            "distinct seeds should give distinct traces"
        );
    }

    #[test]
    fn single_attacker_and_one_member_coalition_runs_keep_their_traces() {
        // `run`/`run_log` and `run_coalition`/`run_coalition_log` used to
        // be separate builders that agreed on one-member coalitions. They
        // are one builder now, so agreeing with each other proves nothing:
        // the fingerprints are the ones both paths produced before the
        // fold (PR 16's tree).
        // The log's was re-pinned when a slot's DECIDE and the next slot's
        // INIT became one signed pair: only the `Send` entries' byte counts
        // moved (`tests/log_schedule.rs` pins the same schedule with bytes
        // erased, and did not move).
        const ONE_SHOT: u64 = 730_553_745_367_897_767;
        const LOG_2_SLOTS: u64 = 5_731_438_682_581_073_303;
        let run = AttackRun::new(4, 1, 9, 3);
        let members = [(3, FaultBehavior::DuplicateVotes)];
        let attack = || Some(Attack::DuplicateVotes);
        assert_eq!(run.run(attack()).trace.fingerprint(), ONE_SHOT);
        assert_eq!(run.run_coalition(&members).trace.fingerprint(), ONE_SHOT);
        assert_eq!(run.run_log(2, attack()).trace.fingerprint(), LOG_2_SLOTS);
        assert_eq!(
            run.run_coalition_log(2, &members).trace.fingerprint(),
            LOG_2_SLOTS
        );
    }

    #[test]
    fn the_protocol_config_reaches_the_stack() {
        // E8's `no certificates | vector corruption` row at unit scale: the
        // round-1 coordinator corrupts its vector; the full stack convicts
        // it, the stack without the certification module is fooled.
        let verdict = |config: ProtocolConfig| {
            let run = AttackRun::with_config(config, 0, 0).injection_delay(Duration::of(10));
            let report = run.run(Some(Attack::CorruptVector {
                entry: 2,
                poison: 666,
            }));
            run.verdict(&report)
        };
        let full = ProtocolConfig::new(4, 1).seed(0);
        assert!(verdict(full.clone()).ok());
        let mut no_certificates = full;
        no_certificates.checks.certificates = false;
        assert!(!verdict(no_certificates).ok());
    }

    #[test]
    fn extra_crashes_change_the_cell_key_and_exhaust_the_budget() {
        let base = AttackRun::single(7, 2, FaultBehavior::Crash);
        assert_eq!(base.cell(), "n=7 f=2 fault=crash");
        let full_budget = base.clone().crash_low(1);
        assert_eq!(full_budget.cell(), "n=7 f=2 fault=crash extra-crashes=1");

        // F = 2 total crashes (p0 and the attacker p6): still terminates.
        let rec = run_scenario(0, &full_budget, 21);
        assert!(
            rec.ok,
            "within-budget crashes must not break consensus: {rec:?}"
        );
        assert_eq!(rec.get("prop-termination"), 1);

        // F + 1 crashes: termination is forfeited, safety must survive.
        let beyond = base.crash_low(2);
        let rec = run_scenario(0, &beyond, 21);
        assert_eq!(rec.get("prop-termination"), 0, "{rec:?}");
        assert_eq!(rec.get("prop-agreement"), 1, "{rec:?}");
        assert_eq!(rec.get("prop-validity"), 1, "{rec:?}");
    }

    #[test]
    fn crash_coalition_beyond_the_budget_forfeits_termination_only() {
        // Same budget arithmetic driven purely by the coalition axis:
        // F + 1 = 3 crashed members out of n = 7.
        let beyond = AttackRun::coalition_of(
            7,
            2,
            &[
                FaultBehavior::Crash,
                FaultBehavior::Crash,
                FaultBehavior::Crash,
            ],
        );
        let rec = run_scenario(0, &beyond, 21);
        assert_eq!(rec.get("coalition-size"), 3);
        assert_eq!(rec.get("prop-termination"), 0, "{rec:?}");
        assert_eq!(rec.get("prop-agreement"), 1, "{rec:?}");
        assert_eq!(rec.get("prop-validity"), 1, "{rec:?}");
    }

    #[test]
    fn scenario_lists_sweep_like_the_matrix_does() {
        let scenarios = vec![
            AttackRun::single(4, 1, FaultBehavior::Honest),
            AttackRun::single(4, 1, FaultBehavior::Honest).crash_low(1),
        ];
        let rep = sweep_scenarios(&scenarios, 2, 0xE3, 2);
        assert_eq!(rep.records.len(), 4);
        // The coordinator-crash cell forces ◇M suspicions before progress.
        let crashed_cell = &rep.cells()["n=4 f=1 fault=honest extra-crashes=1"];
        assert!(crashed_cell.stats["suspicion-covered"].max >= 1, "{rep:?}");
    }

    #[test]
    fn a_cell_beyond_the_bound_names_itself_when_refused() {
        // The certification module refuses F = 2 at n = 5; the sweep says
        // which cell it was refusing, not just that a worker panicked.
        let cells = [AttackRun::single(5, 2, FaultBehavior::Honest)];
        let refused = std::panic::catch_unwind(|| sweep_scenarios(&cells, 1, 0xB0, 2))
            .expect_err("a (5, 2) cell must be refused");
        let message = refused
            .downcast_ref::<String>()
            .expect("the re-raised panic carries a formatted message");
        let seed = ftm_sim::prng::derive_seed(0xB0, 0);
        assert!(
            message.starts_with(&format!(
                "cell n=5 f=2 fault=honest (index 0, seed {seed}): "
            )),
            "{message}"
        );
        assert!(
            message.contains("exceeds the resilience bound of the transformed protocols"),
            "{message}"
        );
    }

    #[test]
    fn non_default_axes_extend_the_cell_key() {
        let base = AttackRun::single(4, 1, FaultBehavior::Honest);
        assert_eq!(base.cell(), "n=4 f=1 fault=honest");
        assert_eq!(
            base.clone().protocol(ProtocolId::ChandraToueg).cell(),
            "n=4 f=1 fault=honest proto=ct"
        );
        assert_eq!(
            round_aware(base.clone()).cell(),
            "n=4 f=1 fault=honest fd=round-aware"
        );
        assert_eq!(
            base.clone().workload(Workload::Log { slots: 2 }).cell(),
            "n=4 f=1 fault=honest workload=log2"
        );
        assert_eq!(
            round_aware(base.protocol(ProtocolId::ChandraToueg))
                .workload(Workload::Log { slots: 3 })
                .crash_low(1)
                .network(NetworkProfile::adverse())
                .cell(),
            "n=4 f=1 fault=honest proto=ct fd=round-aware workload=log3 extra-crashes=1 net=adverse"
        );
    }

    #[test]
    fn cross_protocol_matrix_doubles_the_cells() {
        let m = ScenarioMatrix::new(vec![(4, 1)], vec![FaultBehavior::Honest]).cross_protocols();
        let cells: Vec<String> = m.enumerate().iter().map(AttackRun::cell).collect();
        assert_eq!(
            cells,
            ["n=4 f=1 fault=honest", "n=4 f=1 fault=honest proto=ct"]
        );
    }

    #[test]
    fn chandra_toueg_cells_run_the_ct_stack() {
        let sc = AttackRun::single(4, 1, FaultBehavior::Honest).protocol(ProtocolId::ChandraToueg);
        let rec = run_scenario(0, &sc, 7);
        assert!(rec.ok, "honest CT run failed: {rec:?}");
        assert_eq!(rec.get("decided"), 4);
        assert!(rec.get("stack-admitted") > 0);
        assert_eq!(rec.get("detections"), 0);
    }

    #[test]
    fn ct_vector_corruption_is_survived_and_charged_to_certification() {
        let sc = AttackRun::single(4, 1, FaultBehavior::VectorCorrupt)
            .protocol(ProtocolId::ChandraToueg);
        let rec = run_scenario(0, &sc, 3);
        assert!(rec.ok, "corrupted CT run violated the spec: {rec:?}");
        assert!(
            rec.get("detections-bad-certificate") > 0,
            "certification module never convicted under CT: {rec:?}"
        );
    }

    #[test]
    fn round_aware_detector_cells_run_and_report_fd_mistakes() {
        // Crash the round-1 coordinator so the detector actually has to
        // suspect someone before the system progresses.
        let sc = round_aware(AttackRun::single(4, 1, FaultBehavior::Honest)).crash_low(1);
        let rec = run_scenario(0, &sc, 11);
        assert!(rec.ok, "round-aware run failed: {rec:?}");
        assert!(rec.get("suspicions") > 0, "{rec:?}");
        // The counter key exists either way (zero is fine: suspecting an
        // actually-crashed process is never corrected as a mistake).
        assert!(rec.counters.contains_key("stack-fd-mistakes"), "{rec:?}");
        assert!(
            rec.counters.contains_key("stack-fd-honest-mistakes"),
            "{rec:?}"
        );
    }

    #[test]
    fn jittery_network_cells_still_decide() {
        let sc = AttackRun::single(4, 1, FaultBehavior::Honest).network(NetworkProfile::jittery());
        let rec = run_scenario(0, &sc, 13);
        assert!(rec.ok, "jittery honest run failed: {rec:?}");
        assert_eq!(rec.get("decided"), 4);
    }

    #[test]
    fn log_workload_cells_decide_every_slot_on_both_protocols() {
        for protocol in ProtocolId::all() {
            let sc = AttackRun::single(4, 1, FaultBehavior::Honest)
                .protocol(protocol)
                .workload(Workload::Log { slots: 2 });
            let rec = run_scenario(0, &sc, 5);
            assert!(rec.ok, "honest {protocol} log run failed: {rec:?}");
            assert_eq!(rec.get("decided"), 4, "{rec:?}");
            // Slot notes still feed the shared counters.
            assert!(rec.get("rounds") >= 1, "{rec:?}");
            assert!(rec.get("stack-admitted") > 0, "{rec:?}");
        }
    }

    #[test]
    fn log_workload_survives_an_attacker() {
        let sc = AttackRun::single(4, 1, FaultBehavior::VectorCorrupt)
            .workload(Workload::Log { slots: 2 });
        let rec = run_scenario(0, &sc, 9);
        assert!(rec.ok, "corrupted log run violated the spec: {rec:?}");
        assert!(
            rec.get("detections-bad-certificate") > 0,
            "no conviction across the log run: {rec:?}"
        );
    }

    #[test]
    fn small_sweep_is_all_ok_and_reports_layer_metrics() {
        let m = ScenarioMatrix::new(
            vec![(4, 1)],
            vec![
                FaultBehavior::Honest,
                FaultBehavior::Mute,
                FaultBehavior::StripCertificates,
            ],
        );
        let rep = sweep_scenarios(&m.enumerate(), 1, 11, 2);
        assert!(rep.all_ok(), "sweep had failures: {rep:?}");
        let json = rep.to_json().render();
        for key in ["bytes-signature", "bytes-certificate", "bytes-protocol"] {
            assert!(json.contains(key), "report lost layer metric {key}");
        }
    }
}
