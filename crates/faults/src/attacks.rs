//! Byzantine attacks against the transformed protocol: one [`Attack`]
//! value per deviation, run by one [`Campaign`].
//!
//! Each variant is one operation on a faulty process's output; where two
//! [`FaultBehavior`](crate::FaultBehavior) rows perform the same operation
//! they share a variant. The columns give the rows that use a variant, the
//! paper's fault class (§2) and the module expected to catch it:
//!
//! | Variant                        | Rows                | Paper fault                           | Caught by |
//! |--------------------------------|---------------------|---------------------------------------|-----------|
//! | [`Mute`]                       | `Mute`              | muteness (permanent omission)         | muteness FD ◇M |
//! | [`CorruptVector`]              | `VectorCorrupt`     | corruption of a variable value        | certificate analyzer |
//! | [`JumpRound`]                  | `RoundJump`         | misevaluation / corrupted round       | state machine + round-entry evidence |
//! | [`DuplicateVotes`]             | `DuplicateVotes`    | duplication of a statement            | state machine |
//! | [`Forge`] DECIDE               | `ForgeDecide`       | spurious statement (forged decision)  | certificate analyzer |
//! | [`Forge`] CURRENT / PROPOSE    | `SpuriousCurrent`   | spurious statement (fake coordinator) | certificate analyzer |
//! | [`Resign`] under a wrong key   | `WrongKey`          | forged signatures                     | signature module |
//! | [`Resign`] as a victim         | `StealIdentity`     | identity falsification                | signature module |
//! | [`EquivocateInit`]             | `EquivocateInit`    | two-faced proposal                    | *not locally detectable* — Agreement must survive it |
//! | [`Replay`]                     | `Replay`            | statements at the wrong time          | state machine |
//! | [`StripCertificates`]          | `StripCertificates` | evidence suppressed                   | certificate analyzer |
//! | [`SelectiveOmission`]          | `SelectiveOmission` | omission towards some processes       | muteness FD ◇M, at those processes |
//!
//! [`Mute`]: Attack::Mute
//! [`CorruptVector`]: Attack::CorruptVector
//! [`JumpRound`]: Attack::JumpRound
//! [`DuplicateVotes`]: Attack::DuplicateVotes
//! [`Forge`]: Attack::Forge
//! [`Resign`]: Attack::Resign
//! [`EquivocateInit`]: Attack::EquivocateInit
//! [`Replay`]: Attack::Replay
//! [`StripCertificates`]: Attack::StripCertificates
//! [`SelectiveOmission`]: Attack::SelectiveOmission

use std::fmt;

use ftm_certify::{
    Certificate, Core, Envelope, MessageCore, MessageKind, Round, SignedCore, Value, ValueVector,
};
use ftm_core::byzantine::log::SlotMsg;
use ftm_crypto::rsa::KeyPair;
use ftm_sim::{Context, Duration, Payload, ProcessId, StagedSend, VirtualTime};

use crate::behavior::Deviation;

/// What a faulty process running the transformed protocol does to its
/// output. A variant that names a message kind covers the kinds of both
/// protocols; a run only ever stages its own, so the other arms are inert.
#[derive(Debug, Clone)]
pub enum Attack {
    /// Sends nothing from `after` on. Until then the process is honest —
    /// the hardest case for ◇M, which has learned to trust it.
    Mute {
        /// When the process falls silent.
        after: VirtualTime,
    },
    /// Writes `poison` into entry `entry` of every outgoing vector
    /// (CURRENT/DECIDE, ESTIMATE/PROPOSE/ACK) and signs the lie with the
    /// process's own key: only the certificate analysis can catch the
    /// mismatch with the INIT witnesses.
    CorruptVector {
        /// Which vector entry to falsify.
        entry: usize,
        /// The value written there.
        poison: Value,
    },
    /// Adds `jump` to the round of every outgoing round vote (NEXT,
    /// ACK/NACK): a corrupted `r_i` or a misevaluated round-advance test.
    JumpRound {
        /// How many rounds to add.
        jump: Round,
    },
    /// Sends every round vote (NEXT, ACK/NACK) twice. The copy is
    /// byte-identical and validly signed; only the per-peer state machine
    /// notices the second receipt is not enabled.
    DuplicateVotes,
    /// Sends, once, a round-1 `kind` statement (DECIDE, CURRENT or PROPOSE)
    /// whose vector holds `poison` in every entry, under an empty
    /// certificate, to every process.
    Forge {
        /// The forged statement's kind.
        kind: MessageKind,
        /// The value planted in every entry.
        poison: Value,
        /// When it is sent.
        trigger: Trigger,
    },
    /// Re-signs every outgoing statement unchanged, claiming `sender` (the
    /// process itself when `None`) under `key` (its own when `None`). A
    /// wrong key fails verification; a stolen identity cannot match the
    /// victim's key, and the channel source gives the thief away.
    Resign {
        /// The identity claimed.
        sender: Option<ProcessId>,
        /// The key signed under.
        key: Option<KeyPair>,
    },
    /// Sends INIT(`alt`) instead of the honest INIT to odd-indexed
    /// processes, validly signed: no single receiver can tell, and Vector
    /// Consensus must keep Agreement anyway (Proposition 2, E5).
    EquivocateInit {
        /// The value odd-indexed processes receive.
        alt: Value,
    },
    /// Records the first 64 messages the process sends and, once, from
    /// `at` on, sends each of them again to every process — stale rounds
    /// and duplicate statements mixed together.
    Replay {
        /// When the recording is replayed.
        at: VirtualTime,
    },
    /// Removes the certificate from every message that carries one and
    /// re-signs the bare statement: a broken or bypassed certification
    /// module. Receivers reject every kind that requires evidence.
    StripCertificates,
    /// Sends only to processes with index below `cutoff`: the others see a
    /// mute process, the rest a correct one — faultiness is per observer.
    SelectiveOmission {
        /// Processes with index ≥ `cutoff` receive nothing.
        cutoff: usize,
    },
}

/// When an [`Attack::Forge`] is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// On the first inject-timer firing at or after this time.
    At(VirtualTime),
    /// Right after the process's own round-1 ESTIMATE broadcast, so each
    /// FIFO channel carries `ESTIMATE(1)` first. A free-floating PROPOSE
    /// would be convicted on timing alone by the CT observer automaton;
    /// riding the estimate leaves the certificate analyzer (no estimate
    /// quorum, wrong coordinator) as the only module that can catch it.
    AfterFirstEstimate,
}

/// An [`Attack`] in progress, with the key pair the process signs under
/// and its injection pace: the [`Deviation`] both transformed-protocol
/// wrappers run, for bare envelopes and for replicated-log slot messages.
#[derive(Debug)]
pub struct Campaign {
    attack: Attack,
    keys: KeyPair,
    inject_interval: Duration,
    /// Whether the one-shot forgery or replay has been sent.
    fired: bool,
    /// What [`Attack::Replay`] has recorded.
    recorded: Vec<Envelope>,
    /// The highest slot seen going out; injected envelopes ride it.
    pub(crate) latest_slot: u64,
    /// What the log rendering reuses from callback to callback.
    buffers: SlotBuffers,
}

/// The buffers of [`Campaign`]'s log rendering: the slots one callback
/// staged for, one slot's group of envelopes, and the rewritten list.
#[derive(Debug, Default)]
struct SlotBuffers {
    slots: Vec<u64>,
    group: Vec<StagedSend<Envelope>>,
    out: Vec<StagedSend<SlotMsg>>,
}

/// How many messages [`Attack::Replay`] records, a broadcast counting one
/// per process.
const REPLAY_CAPACITY: usize = 64;

impl Campaign {
    pub(crate) fn new(attack: Attack, keys: KeyPair, inject_interval: Duration) -> Self {
        Campaign {
            attack,
            keys,
            inject_interval,
            fired: false,
            recorded: Vec::new(),
            latest_slot: 0,
            buffers: SlotBuffers::default(),
        }
    }

    /// Rewrites the envelopes of one callback (one slot's, in a log) that
    /// `me`, one of `n` processes, staged at `now`. A deviation that treats
    /// every receiver alike edits a broadcast once and leaves it one; only
    /// [`Attack::EquivocateInit`] and [`Attack::SelectiveOmission`] expand
    /// the broadcasts they treat per receiver.
    fn tamper(
        &mut self,
        me: ProcessId,
        n: usize,
        now: VirtualTime,
        staged: &mut Vec<StagedSend<Envelope>>,
    ) {
        let keys = &self.keys;
        match &self.attack {
            Attack::Mute { after } => {
                if now >= *after {
                    staged.clear();
                }
            }
            Attack::CorruptVector { entry, poison } => resign(envelopes(staged), me, keys, |env| {
                let mut core = env.core().clone();
                let (Core::Current { vector, .. }
                | Core::Decide { vector, .. }
                | Core::Estimate { vector, .. }
                | Core::Propose { vector, .. }
                | Core::Ack { vector, .. }) = &mut core
                else {
                    return None;
                };
                if *entry < vector.len() {
                    vector.set(*entry, *poison);
                }
                Some((Some(core), env.cert.clone()))
            }),
            Attack::JumpRound { jump } => resign(envelopes(staged), me, keys, |env| {
                let mut core = env.core().clone();
                let (Core::Next { round } | Core::Ack { round, .. } | Core::Nack { round }) =
                    &mut core
                else {
                    return None;
                };
                *round += *jump;
                Some((Some(core), env.cert.clone()))
            }),
            Attack::DuplicateVotes => {
                let vote = |env: &Envelope| {
                    matches!(
                        env.core(),
                        Core::Next { .. } | Core::Ack { .. } | Core::Nack { .. }
                    )
                };
                for k in 0..staged.len() {
                    if vote(staged[k].msg()) {
                        staged.push(staged[k].clone());
                    }
                }
            }
            Attack::Forge {
                kind,
                poison,
                trigger: Trigger::AfterFirstEstimate,
            } => {
                let estimating = (staged.iter())
                    .any(|s| matches!(s.msg().core(), Core::Estimate { round: 1, .. }));
                if estimating && !self.fired {
                    self.fired = true;
                    staged.push(StagedSend::ToAll(forgery(me, n, keys, *kind, *poison)));
                }
            }
            Attack::Forge { .. } => {}
            Attack::Resign { sender, key } => {
                let key = key.as_ref().unwrap_or(keys);
                resign(envelopes(staged), sender.unwrap_or(me), key, |env| {
                    Some((None, env.cert.clone()))
                });
            }
            Attack::EquivocateInit { alt } => {
                let init = |env: &Envelope| matches!(env.core(), Core::Init { .. });
                expand(staged, n, init);
                let odd_inits = staged.iter_mut().filter_map(|s| match s {
                    StagedSend::To(to, env) if to.index() % 2 == 1 && init(env) => Some(env),
                    _ => None,
                });
                resign(odd_inits, me, keys, |env| {
                    Some((Some(Core::Init { value: *alt }), env.cert.clone()))
                });
            }
            Attack::Replay { .. } => {
                for send in staged.iter() {
                    let copies = match send {
                        StagedSend::To(..) => 1,
                        StagedSend::ToAll(_) => n,
                    };
                    let room = REPLAY_CAPACITY - self.recorded.len();
                    let copies = std::iter::repeat_n(send.msg(), copies.min(room));
                    self.recorded.extend(copies.cloned());
                }
            }
            Attack::StripCertificates => resign(envelopes(staged), me, keys, |env| {
                (!env.cert.is_empty()).then(|| (None, Certificate::new()))
            }),
            Attack::SelectiveOmission { cutoff } => {
                expand(staged, n, |_| *cutoff < n);
                staged.retain(|s| !matches!(s, StagedSend::To(to, _) if to.index() >= *cutoff));
            }
        }
    }

    /// The envelopes `me`, one of `n` processes, broadcasts when its
    /// inject timer fires at `now`.
    fn injections(&mut self, me: ProcessId, n: usize, now: VirtualTime) -> Vec<Envelope> {
        match &self.attack {
            Attack::Forge {
                kind,
                poison,
                trigger: Trigger::At(at),
            } if now >= *at && !self.fired => {
                self.fired = true;
                vec![forgery(me, n, &self.keys, *kind, *poison)]
            }
            Attack::Replay { at } if now >= *at && !self.fired && !self.recorded.is_empty() => {
                self.fired = true;
                self.recorded.clone()
            }
            _ => Vec::new(),
        }
    }

    /// Broadcasts [`injections`](Self::injections), each wrapped by `wrap`.
    fn send_injections<M, D>(&mut self, ctx: &mut Context<'_, M, D>, wrap: impl Fn(Envelope) -> M)
    where
        M: Payload,
        D: Clone + fmt::Debug + PartialEq,
    {
        for env in self.injections(ctx.me(), ctx.process_count(), ctx.now()) {
            ctx.broadcast(wrap(env));
        }
    }
}

impl Deviation<Envelope> for Campaign {
    fn first_inject(&self) -> Duration {
        self.inject_interval
    }

    fn rewrite(
        &mut self,
        me: ProcessId,
        n: usize,
        now: VirtualTime,
        staged: &mut Vec<StagedSend<Envelope>>,
    ) {
        self.tamper(me, n, now, staged);
    }

    fn inject<D>(&mut self, ctx: &mut Context<'_, Envelope, D>) -> Option<Duration>
    where
        D: Clone + fmt::Debug + PartialEq,
    {
        self.send_injections(ctx, |env| env);
        Some(self.inject_interval)
    }
}

/// The replicated-log rendering: the same attack applied to the consensus
/// envelopes inside the staged [`SlotMsg`]s, one slot's group at a time,
/// the groups in the order their slots first appear (a callback's sends
/// almost always belong to the replica's current slot). Injected
/// envelopes ride the latest slot seen going out.
impl Deviation<SlotMsg> for Campaign {
    fn first_inject(&self) -> Duration {
        self.inject_interval
    }

    fn rewrite(
        &mut self,
        me: ProcessId,
        n: usize,
        now: VirtualTime,
        staged: &mut Vec<StagedSend<SlotMsg>>,
    ) {
        let SlotBuffers {
            mut slots,
            mut group,
            mut out,
        } = std::mem::take(&mut self.buffers);
        slots.clear();
        for send in staged.iter() {
            if !slots.contains(&send.msg().slot) {
                slots.push(send.msg().slot);
            }
        }
        for &slot in &slots {
            self.latest_slot = self.latest_slot.max(slot);
            group.clear();
            let sends = staged.iter().filter(|s| s.msg().slot == slot);
            group.extend(sends.map(|s| s.clone().map(|m| m.env)));
            self.tamper(me, n, now, &mut group);
            out.extend(group.drain(..).map(|s| s.map(|env| SlotMsg { slot, env })));
        }
        // The rewritten list goes out in the buffer kept from the last
        // callback; the one it came in is kept for the next.
        std::mem::swap(staged, &mut out);
        out.clear();
        self.buffers = SlotBuffers { slots, group, out };
    }

    fn inject<D>(&mut self, ctx: &mut Context<'_, SlotMsg, D>) -> Option<Duration>
    where
        D: Clone + fmt::Debug + PartialEq,
    {
        let slot = self.latest_slot;
        self.send_injections(ctx, |env| SlotMsg { slot, env });
        Some(self.inject_interval)
    }
}

/// Replaces each envelope `edit` gives a new statement (`None`: the one it
/// holds) and certificate for with that statement, claimed by `sender`
/// and signed under `keys`. Signatures are deterministic, so an envelope
/// whose statement equals the last one signed shares it: the odd copies
/// of an equivocated INIT carry one statement, signed once. A statement
/// kept as it was, by its own sender, keeps its measured digest and is
/// only signed again.
fn resign<'a>(
    envs: impl IntoIterator<Item = &'a mut Envelope>,
    sender: ProcessId,
    keys: &KeyPair,
    mut edit: impl FnMut(&Envelope) -> Option<(Option<Core>, Certificate)>,
) {
    let mut last: Option<SignedCore> = None;
    for env in envs {
        let Some((core, cert)) = edit(env) else {
            continue;
        };
        let signed = match (last, core) {
            (Some(prev), core) if prev.core().core == *core.as_ref().unwrap_or(env.core()) => prev,
            (_, None) if env.sender() == sender => env.signed.resigned(keys),
            (_, core) => {
                let core = core.unwrap_or_else(|| env.core().clone());
                SignedCore::sign(MessageCore::new(sender, core), keys)
            }
        };
        *env = Envelope {
            signed: signed.clone(),
            cert,
        };
        last = Some(signed);
    }
}

/// The staged envelopes, each broadcast's once.
fn envelopes(staged: &mut [StagedSend<Envelope>]) -> impl Iterator<Item = &mut Envelope> {
    staged.iter_mut().map(StagedSend::msg_mut)
}

/// Replaces each broadcast whose envelope `pick` selects by its `n`
/// unicasts to `p_0 … p_{n-1}`, in that order: what the network delivers
/// for it either way, now addressable one receiver at a time.
fn expand(staged: &mut Vec<StagedSend<Envelope>>, n: usize, pick: impl Fn(&Envelope) -> bool) {
    for send in std::mem::take(staged) {
        match send {
            StagedSend::ToAll(env) if pick(&env) => {
                let copies = (0..n as u32).map(|p| StagedSend::To(ProcessId(p), env.clone()));
                staged.extend(copies);
            }
            send => staged.push(send),
        }
    }
}

/// The forged broadcast of [`Attack::Forge`]: a round-1 `kind` statement
/// whose `n` entries all hold `poison`, signed by `me`, no certificate.
///
/// # Panics
///
/// Panics unless `kind` is DECIDE, CURRENT or PROPOSE.
fn forgery(me: ProcessId, n: usize, keys: &KeyPair, kind: MessageKind, poison: Value) -> Envelope {
    let vector = ValueVector::from_entries(vec![Some(poison); n]);
    let core = match kind {
        MessageKind::Decide => Core::Decide { round: 1, vector },
        MessageKind::Current => Core::Current { round: 1, vector },
        MessageKind::Propose => Core::Propose { round: 1, vector },
        other => panic!("no forgery of kind {other}: forge a DECIDE, CURRENT or PROPOSE"),
    };
    Envelope::make(me, core, Certificate::new(), keys)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(seed: u64) -> KeyPair {
        let mut rng = ftm_crypto::rng_from_seed(seed);
        KeyPair::generate(&mut rng, 128)
    }

    /// `attack` in progress for a process signing under `keys`.
    fn campaign(attack: Attack, keys: &KeyPair) -> Campaign {
        Campaign::new(attack, keys.clone(), Duration::of(10))
    }

    /// `core` claimed by `me`, signed under `keys`, uncertified.
    fn env(me: ProcessId, core: Core, keys: &KeyPair) -> Envelope {
        Envelope::make(me, core, Certificate::new(), keys)
    }

    /// One unicast of `core` to `to`.
    fn to(to: u32, core: Core, keys: &KeyPair) -> StagedSend<Envelope> {
        StagedSend::To(ProcessId(to), env(ProcessId(0), core, keys))
    }

    /// One broadcast of `core`.
    fn to_all(core: Core, keys: &KeyPair) -> StagedSend<Envelope> {
        StagedSend::ToAll(env(ProcessId(0), core, keys))
    }

    /// Each send as `p<k>` or `all`, with its message's kind.
    fn shape(staged: &[StagedSend<Envelope>]) -> Vec<String> {
        let show = |s: &StagedSend<Envelope>| match s {
            StagedSend::To(to, env) => format!("{to}:{}", env.kind()),
            StagedSend::ToAll(env) => format!("all:{}", env.kind()),
        };
        staged.iter().map(show).collect()
    }

    fn init(value: Value) -> Core {
        Core::Init { value }
    }

    #[test]
    fn mute_after_silences_only_past_deadline() {
        let k = keys(1);
        let mut t = campaign(
            Attack::Mute {
                after: VirtualTime::at(50),
            },
            &k,
        );
        let mut staged = vec![to_all(init(7), &k)];
        t.tamper(ProcessId(0), 2, VirtualTime::at(10), &mut staged);
        assert_eq!(staged.len(), 1);
        t.tamper(ProcessId(0), 2, VirtualTime::at(50), &mut staged);
        assert!(staged.is_empty());
    }

    #[test]
    fn vector_corruptor_rewrites_and_resigns() {
        let k = keys(2);
        let mut t = campaign(
            Attack::CorruptVector {
                entry: 1,
                poison: 666,
            },
            &k,
        );
        let vector = ValueVector::from_entries(vec![Some(1), Some(2), None]);
        let mut staged = vec![to(1, Core::Current { round: 1, vector }, &k)];
        t.tamper(ProcessId(0), 3, VirtualTime::ZERO, &mut staged);
        let Core::Current { vector, .. } = staged[0].msg().core() else {
            panic!("kind preserved");
        };
        assert_eq!(vector.get(1), Some(666));
        // Still validly signed by the attacker's own key.
        let dir = ftm_crypto::keydir::KeyDirectory::new(vec![k.public().clone()]);
        assert!(staged[0].msg().signed.verify(&dir).is_ok());
    }

    #[test]
    fn round_jumper_shifts_next_only() {
        let k = keys(3);
        let mut t = campaign(Attack::JumpRound { jump: 5 }, &k);
        let mut staged = vec![to(1, Core::Next { round: 2 }, &k), to(1, init(1), &k)];
        t.tamper(ProcessId(0), 2, VirtualTime::ZERO, &mut staged);
        assert_eq!(staged[0].msg().round(), 7);
        assert!(matches!(staged[1].msg().core(), Core::Init { .. }));
    }

    #[test]
    fn vote_duplicator_doubles_next_votes() {
        let k = keys(4);
        let mut t = campaign(Attack::DuplicateVotes, &k);
        let mut staged = vec![to(1, Core::Next { round: 1 }, &k), to(1, init(1), &k)];
        t.tamper(ProcessId(0), 2, VirtualTime::ZERO, &mut staged);
        assert_eq!(staged.len(), 3);
    }

    #[test]
    fn decide_forger_fires_once() {
        let k = keys(5);
        let mut t = campaign(
            Attack::Forge {
                kind: MessageKind::Decide,
                poison: 999,
                trigger: Trigger::At(VirtualTime::at(10)),
            },
            &k,
        );
        assert!(t.injections(ProcessId(0), 3, VirtualTime::at(5)).is_empty());
        let first = t.injections(ProcessId(0), 3, VirtualTime::at(10));
        assert_eq!(first.len(), 1, "one broadcast");
        assert!(matches!(first[0].core(), Core::Decide { .. }));
        assert!(t
            .injections(ProcessId(0), 3, VirtualTime::at(20))
            .is_empty());
    }

    #[test]
    fn identity_thief_changes_claimed_sender() {
        let k = keys(6);
        let mut t = campaign(
            Attack::Resign {
                sender: Some(ProcessId(2)),
                key: None,
            },
            &k,
        );
        let mut staged = vec![to_all(init(7), &k)];
        t.tamper(ProcessId(0), 3, VirtualTime::ZERO, &mut staged);
        assert_eq!(staged[0].msg().sender(), ProcessId(2));
    }

    #[test]
    fn equivocator_splits_by_destination_parity() {
        let k = keys(7);
        let mut t = campaign(Attack::EquivocateInit { alt: 13 }, &k);
        let mut staged = vec![to_all(init(7), &k)];
        t.tamper(ProcessId(0), 4, VirtualTime::ZERO, &mut staged);
        let sent: Vec<(ProcessId, u64)> = staged
            .iter()
            .map(|s| match s {
                StagedSend::To(to, env) => match env.core() {
                    Core::Init { value } => (*to, *value),
                    _ => unreachable!(),
                },
                StagedSend::ToAll(_) => panic!("an equivocated INIT is per receiver"),
            })
            .collect();
        let expect = [7, 13, 7, 13].map(|v| v as u64);
        assert_eq!(sent, (0..4).map(ProcessId).zip(expect).collect::<Vec<_>>());
    }

    #[test]
    fn an_equivocator_expands_only_its_init_broadcasts() {
        let k = keys(15);
        let mut t = campaign(Attack::EquivocateInit { alt: 13 }, &k);
        let broadcast = to_all(init(7), &k);
        let honest = broadcast.msg().clone();
        let mut staged = vec![
            to_all(Core::Next { round: 1 }, &k),
            broadcast,
            to(1, init(7), &k),
        ];
        t.tamper(ProcessId(0), 4, VirtualTime::ZERO, &mut staged);
        assert_eq!(
            shape(&staged),
            ["all:NEXT", "p0:INIT", "p1:INIT", "p2:INIT", "p3:INIT", "p1:INIT"]
        );
        // The odd targets' INIT, broadcast or not, is the other value.
        let value = |s: &StagedSend<Envelope>| match s.msg().core() {
            Core::Init { value } => *value,
            _ => 0,
        };
        assert_eq!(
            staged[1..].iter().map(value).collect::<Vec<_>>(),
            [7, 13, 7, 13, 13]
        );
        // The odd copies carry one statement, signed once; the even copies
        // stay the honest broadcast's object.
        let statement = |i: usize| staged[i].msg().signed.core();
        for odd in [4, 5] {
            assert!(std::ptr::eq(statement(2), statement(odd)), "copy {odd}");
        }
        for even in [1, 3] {
            assert!(std::ptr::eq(statement(even), honest.signed.core()));
            assert!(!std::ptr::eq(statement(even), statement(2)));
        }
    }

    #[test]
    fn spurious_current_targets_everyone_once() {
        let k = keys(8);
        let mut t = campaign(
            Attack::Forge {
                kind: MessageKind::Current,
                poison: 4242,
                trigger: Trigger::At(VirtualTime::at(1)),
            },
            &k,
        );
        let msgs = t.injections(ProcessId(2), 3, VirtualTime::at(1));
        assert_eq!(msgs.len(), 1, "one broadcast");
        assert!(matches!(msgs[0].core(), Core::Current { round: 1, .. }));
        assert!(t.injections(ProcessId(2), 3, VirtualTime::at(2)).is_empty());
    }

    #[test]
    fn spurious_propose_rides_the_round_one_estimate() {
        let k = keys(11);
        let mut t = campaign(
            Attack::Forge {
                kind: MessageKind::Propose,
                poison: 4242,
                trigger: Trigger::AfterFirstEstimate,
            },
            &k,
        );
        let estimate = Core::Estimate {
            round: 1,
            vector: ValueVector::empty(3),
            ts: 0,
        };
        // Unrelated traffic (the INIT broadcast) leaves the attack dormant.
        let mut staged = vec![to_all(init(5), &k)];
        t.tamper(ProcessId(2), 3, VirtualTime::ZERO, &mut staged);
        assert_eq!(staged.len(), 1);
        // The round-1 ESTIMATE broadcast gets the fake PROPOSE broadcast
        // appended, *after* the estimate (FIFO keeps it in-slot).
        let mut staged = vec![to_all(estimate.clone(), &k)];
        t.tamper(ProcessId(2), 3, VirtualTime::at(40), &mut staged);
        assert_eq!(shape(&staged), ["all:ESTIMATE", "all:PROPOSE"]);
        assert!(matches!(
            staged[1].msg().core(),
            Core::Propose { round: 1, .. }
        ));
        // One-shot: later estimates do not re-fire it.
        let mut again = vec![to_all(estimate, &k)];
        t.tamper(ProcessId(2), 3, VirtualTime::at(80), &mut again);
        assert_eq!(again.len(), 1);
    }

    #[test]
    fn round_jumper_and_duplicator_cover_ct_votes() {
        let k = keys(12);
        let vector = ValueVector::from_entries(vec![Some(1), None, None]);
        let mut staged = vec![to(1, Core::Ack { round: 2, vector }, &k)];
        let mut jumper = campaign(Attack::JumpRound { jump: 5 }, &k);
        jumper.tamper(ProcessId(0), 3, VirtualTime::ZERO, &mut staged);
        assert_eq!(staged[0].msg().round(), 7);
        let mut dup = campaign(Attack::DuplicateVotes, &k);
        dup.tamper(ProcessId(0), 3, VirtualTime::ZERO, &mut staged);
        assert_eq!(staged.len(), 2);
    }

    #[test]
    fn vector_corruptor_rewrites_ct_kinds() {
        let k = keys(13);
        let mut t = campaign(
            Attack::CorruptVector {
                entry: 0,
                poison: 666,
            },
            &k,
        );
        let vector = ValueVector::from_entries(vec![Some(1), Some(2), None]);
        let core = Core::Estimate {
            round: 1,
            vector,
            ts: 0,
        };
        let mut staged = vec![to(1, core, &k)];
        t.tamper(ProcessId(0), 3, VirtualTime::ZERO, &mut staged);
        let Core::Estimate { vector, .. } = staged[0].msg().core() else {
            panic!("kind preserved");
        };
        assert_eq!(vector.get(0), Some(666));
    }

    #[test]
    fn wrong_key_signer_breaks_verification() {
        let right = keys(9);
        let wrong = keys(10);
        let mut t = campaign(
            Attack::Resign {
                sender: None,
                key: Some(wrong),
            },
            &right,
        );
        let mut staged = vec![to_all(init(7), &right)];
        t.tamper(ProcessId(0), 4, VirtualTime::ZERO, &mut staged);
        let dir = ftm_crypto::keydir::KeyDirectory::new(vec![right.public().clone()]);
        assert!(staged[0].msg().signed.verify(&dir).is_err());
    }

    #[test]
    fn a_uniform_deviation_leaves_a_broadcast_one_broadcast() {
        let k = keys(14);
        let staged = || vec![to_all(Core::Next { round: 1 }, &k), to(1, init(7), &k)];
        let wrong_key = Attack::Resign {
            sender: None,
            key: Some(keys(16)),
        };
        for (attack, expect) in [
            (wrong_key, &["all:NEXT", "p1:INIT"][..]),
            (
                Attack::DuplicateVotes,
                &["all:NEXT", "p1:INIT", "all:NEXT"][..],
            ),
        ] {
            let mut t = campaign(attack.clone(), &k);
            let mut sends = staged();
            t.tamper(ProcessId(0), 4, VirtualTime::ZERO, &mut sends);
            assert_eq!(shape(&sends), expect, "{attack:?}");
        }
    }

    #[test]
    fn replayer_records_then_replays_once() {
        let k = keys(20);
        let mut t = campaign(
            Attack::Replay {
                at: VirtualTime::at(50),
            },
            &k,
        );
        let mut staged = vec![to(1, init(3), &k)];
        t.tamper(ProcessId(0), 4, VirtualTime::at(10), &mut staged);
        assert!(t
            .injections(ProcessId(0), 4, VirtualTime::at(20))
            .is_empty());
        let replayed = t.injections(ProcessId(0), 4, VirtualTime::at(50));
        assert_eq!(replayed.len(), 1); // 1 recorded message, broadcast
        assert!(t
            .injections(ProcessId(0), 4, VirtualTime::at(60))
            .is_empty());
    }

    #[test]
    fn a_recorded_broadcast_counts_once_per_process_up_to_the_capacity() {
        let k = keys(23);
        let mut t = campaign(
            Attack::Replay {
                at: VirtualTime::at(50),
            },
            &k,
        );
        let mut staged = vec![to_all(init(3), &k), to(2, Core::Next { round: 1 }, &k)];
        t.tamper(ProcessId(0), 4, VirtualTime::at(10), &mut staged);
        assert_eq!(
            shape(&staged),
            ["all:INIT", "p2:NEXT"],
            "recording alters nothing"
        );
        assert_eq!(t.recorded.len(), 5);
        for _ in 0..20 {
            t.tamper(ProcessId(0), 4, VirtualTime::at(10), &mut staged);
        }
        assert_eq!(t.recorded.len(), REPLAY_CAPACITY);
        assert_eq!(
            t.injections(ProcessId(0), 4, VirtualTime::at(50)).len(),
            REPLAY_CAPACITY
        );
    }

    #[test]
    fn cert_stripper_empties_certificates() {
        let k = keys(21);
        let mut t = campaign(Attack::StripCertificates, &k);
        let inner = SignedCore::sign(MessageCore::new(ProcessId(1), Core::Next { round: 1 }), &k);
        let mut staged = vec![StagedSend::To(
            ProcessId(1),
            Envelope::make(
                ProcessId(0),
                Core::Next { round: 1 },
                Certificate::from_items([inner]),
                &k,
            ),
        )];
        t.tamper(ProcessId(0), 2, VirtualTime::ZERO, &mut staged);
        assert!(staged[0].msg().cert.is_empty());
    }

    #[test]
    fn selective_sender_drops_high_indices() {
        let k = keys(22);
        let mut t = campaign(Attack::SelectiveOmission { cutoff: 2 }, &k);
        let mut staged = vec![
            to_all(init(1), &k),
            to(3, Core::Next { round: 1 }, &k),
            to(1, Core::Next { round: 1 }, &k),
        ];
        t.tamper(ProcessId(0), 4, VirtualTime::ZERO, &mut staged);
        assert_eq!(shape(&staged), ["p0:INIT", "p1:INIT", "p1:NEXT"]);
        // A cutoff past every process alters nothing, so expands nothing.
        let mut t = campaign(Attack::SelectiveOmission { cutoff: 4 }, &k);
        let mut staged = vec![to_all(init(1), &k), to(3, Core::Next { round: 1 }, &k)];
        t.tamper(ProcessId(0), 4, VirtualTime::ZERO, &mut staged);
        assert_eq!(shape(&staged), ["all:INIT", "p3:NEXT"]);
    }
}
