//! What a fault wrapper puts on the wire, pinned per attack: every
//! `Attack` variant (both `Forge` triggers) over bare envelopes and over a
//! replicated log's slot messages, and both `CrashAttack`s, wrapping a
//! scripted process p1 of n = 4.
//!
//! The script stages three callbacks, then the inject timer fires:
//!
//! - one broadcast (INIT);
//! - a broadcast plus a unicast (CURRENT + NEXT, or a slot's ESTIMATE +
//!   ACK);
//! - ESTIMATE + ACK, or, in slot messages, slot 1's DECIDE, slot 2's INIT
//!   and a slot-1 NEXT after them.
//!
//! Each staged send is expanded the way the simulator dispatches it — a
//! broadcast to p0 … p3 in order — and recorded as target, slot, label,
//! claimed sender, digest and a hash of the wire bytes. Whether a wrapper
//! stages a broadcast or its `n` unicasts is not behaviour: a change to
//! that must leave this table as it is. A mismatch prints the table as it
//! now stands and every case's dispatched sends.

use std::fmt::Write as _;

use ftm_certify::{Certificate, Core, Envelope, MessageKind, ValueVector};
use ftm_core::byzantine::log::SlotMsg;
use ftm_core::crash::CrashMsg;
use ftm_crypto::rsa::KeyPair;
use ftm_crypto::sha256::Sha256;
use ftm_faults::attacks::{Attack, Trigger};
use ftm_faults::behavior::INJECT_TIMER;
use ftm_faults::crash_attacks::{CrashAttack, CrashSaboteur};
use ftm_faults::ByzantineWrapper;
use ftm_sim::process::Effects;
use ftm_sim::{Actor, Context, Duration, Payload, ProcessId, StagedSend, VirtualTime};

const N: usize = 4;
const ME: ProcessId = ProcessId(1);

/// `case deliveries hash`, one line per case: the number of dispatched
/// sends and the first 8 bytes of the SHA-256 over their lines.
const PINNED: &str = "\
env mute 4 d98f15337eccf345
slot mute 4 b4d031e942930e0e
env corrupt-vector 14 161b724ba1184f01
slot corrupt-vector 18 01089dd912f4f739
env jump-round 14 f86736440efd1ec2
slot jump-round 18 7b1dc94900c515d8
env duplicate-votes 16 dcc2ce3fba6a8b41
slot duplicate-votes 20 61ce600c3e69d05e
env forge-at 18 fa70d0459dc86832
slot forge-at 22 9185aa7fbff4779f
env forge-after-estimate 18 20b63be5c063ffec
slot forge-after-estimate 22 29322ada51c9cd8b
env wrong-key 14 f49cafde157ba4c1
slot wrong-key 18 ca2bbed51f13e916
env steal-identity 14 c08482836db2ef13
slot steal-identity 18 29ace970fc36b460
env equivocate-init 14 e5646b2c98d63d93
slot equivocate-init 18 dba7846555efb1f7
env replay 70 011bda80af1441a2
slot replay 90 46f167a9b367d810
env strip-certificates 14 f19b09e79c0ed19c
slot strip-certificates 18 77ab92406cf7b7a0
env selective-omission 7 cb6e56da3a4bf707
slot selective-omission 8 dc8dda9d2f7be803
crash corrupt-estimate 10 4cd11a41adfe6a2b
crash forge-decide 14 74db86816ddf6f63
";

/// A process that stages, per callback, the sends its script lists.
struct Script<M> {
    calls: Vec<Vec<StagedSend<M>>>,
    next: usize,
}

impl<M: Payload> Script<M> {
    fn stage(&mut self, ctx: &mut Context<'_, M, ()>) {
        for send in self.calls.get(self.next).cloned().unwrap_or_default() {
            match send {
                StagedSend::To(to, msg) => ctx.send(to, msg),
                StagedSend::ToAll(msg) => ctx.broadcast(msg),
            }
        }
        self.next += 1;
    }
}

impl<M: Payload> Actor for Script<M> {
    type Msg = M;
    type Decision = ();

    fn on_start(&mut self, ctx: &mut Context<'_, M, ()>) {
        self.stage(ctx);
    }

    fn on_message(&mut self, _: ProcessId, _: &M, ctx: &mut Context<'_, M, ()>) {
        self.stage(ctx);
    }

    fn on_timer(&mut self, _: u64, ctx: &mut Context<'_, M, ()>) {
        self.stage(ctx);
    }
}

/// What a dispatched message shows besides its target and label.
trait Wire: Payload {
    fn slot(&self) -> Option<u64>;
    fn env(&self) -> Option<&Envelope>;
}

impl Wire for Envelope {
    fn slot(&self) -> Option<u64> {
        None
    }
    fn env(&self) -> Option<&Envelope> {
        Some(self)
    }
}

impl Wire for SlotMsg {
    fn slot(&self) -> Option<u64> {
        Some(self.slot)
    }
    fn env(&self) -> Option<&Envelope> {
        Some(&self.env)
    }
}

impl Wire for CrashMsg {
    fn slot(&self) -> Option<u64> {
        None
    }
    fn env(&self) -> Option<&Envelope> {
        None
    }
}

/// Drives `process` through on_start (t = 0), on_message (t = 10),
/// on_timer (t = 20) and the inject timer (t = 30), and returns one line
/// per dispatched send.
fn dispatched<M: Wire>(mut process: impl Actor<Msg = M, Decision = ()>, any: &M) -> Vec<String> {
    let mut lines = Vec::new();
    let mut draw = || 0u64;
    let mut fx = Effects::default();
    for call in 0..4u64 {
        let mut ctx = Context::new(VirtualTime::at(10 * call), ME, N, &mut draw, &mut fx);
        match call {
            0 => process.on_start(&mut ctx),
            1 => process.on_message(ProcessId(0), any, &mut ctx),
            2 => process.on_timer(1, &mut ctx),
            _ => process.on_timer(INJECT_TIMER, &mut ctx),
        }
        for send in fx.sends.drain(..) {
            let (msg, targets) = match send {
                StagedSend::To(to, msg) => (msg, to.0..to.0 + 1),
                StagedSend::ToAll(msg) => (msg, 0..N as u32),
            };
            for to in targets {
                lines.push(line(call, ProcessId(to), &msg));
            }
        }
    }
    lines
}

fn line<M: Wire>(call: u64, to: ProcessId, msg: &M) -> String {
    let mut out = format!("{call} {to} ");
    match msg.slot() {
        Some(slot) => write!(out, "s{slot} "),
        None => write!(out, "- "),
    }
    .unwrap();
    msg.write_label(&mut out);
    match msg.env() {
        Some(env) => {
            let wire = Sha256::digest(&env.to_bytes());
            write!(
                out,
                " {} {} {}",
                env.sender(),
                env.signed.digest(),
                &wire.to_string()[..16]
            )
            .unwrap();
        }
        None => out.push_str(" - - -"),
    }
    out
}

fn keys(seed: u64) -> KeyPair {
    KeyPair::generate(&mut ftm_crypto::rng_from_seed(seed), 128)
}

/// The attacks, named, with the parameters each case runs.
fn attacks() -> Vec<(&'static str, Attack)> {
    vec![
        (
            "mute",
            Attack::Mute {
                after: VirtualTime::at(10),
            },
        ),
        (
            "corrupt-vector",
            Attack::CorruptVector {
                entry: 1,
                poison: 666,
            },
        ),
        ("jump-round", Attack::JumpRound { jump: 5 }),
        ("duplicate-votes", Attack::DuplicateVotes),
        (
            "forge-at",
            Attack::Forge {
                kind: MessageKind::Decide,
                poison: 999,
                trigger: Trigger::At(VirtualTime::at(20)),
            },
        ),
        (
            "forge-after-estimate",
            Attack::Forge {
                kind: MessageKind::Propose,
                poison: 4242,
                trigger: Trigger::AfterFirstEstimate,
            },
        ),
        (
            "wrong-key",
            Attack::Resign {
                sender: None,
                key: Some(keys(9)),
            },
        ),
        (
            "steal-identity",
            Attack::Resign {
                sender: Some(ProcessId(2)),
                key: None,
            },
        ),
        ("equivocate-init", Attack::EquivocateInit { alt: 13 }),
        (
            "replay",
            Attack::Replay {
                at: VirtualTime::at(30),
            },
        ),
        ("strip-certificates", Attack::StripCertificates),
        (
            "selective-omission",
            Attack::SelectiveOmission { cutoff: 2 },
        ),
    ]
}

/// Envelopes signed by p1 (or, for certificate members, by p0).
struct Sealer {
    own: KeyPair,
    peer: KeyPair,
}

impl Sealer {
    fn env(&self, core: Core, cert: &Certificate) -> Envelope {
        Envelope::make(ME, core, cert.clone(), &self.own)
    }

    /// A certificate holding p0's and p1's INITs.
    fn inits(&self) -> Certificate {
        let init = |p, keys| {
            Envelope::make(
                ProcessId(p),
                Core::Init { value: p.into() },
                Certificate::new(),
                keys,
            )
        };
        Certificate::from_items([init(0, &self.peer).signed, init(1, &self.own).signed])
    }
}

fn vector() -> ValueVector {
    ValueVector::from_entries(vec![Some(0), Some(1), None, None])
}

/// The bare-envelope script.
fn envelope_script(s: &Sealer) -> Vec<Vec<StagedSend<Envelope>>> {
    let (none, inits) = (Certificate::new(), s.inits());
    let round_one = |core| s.env(core, &inits);
    vec![
        vec![StagedSend::ToAll(s.env(Core::Init { value: 1 }, &none))],
        vec![
            StagedSend::ToAll(round_one(Core::Current {
                round: 1,
                vector: vector(),
            })),
            StagedSend::To(ProcessId(2), round_one(Core::Next { round: 1 })),
        ],
        vec![
            StagedSend::ToAll(round_one(Core::Estimate {
                round: 1,
                vector: vector(),
                ts: 0,
            })),
            StagedSend::To(
                ProcessId(0),
                round_one(Core::Ack {
                    round: 1,
                    vector: vector(),
                }),
            ),
        ],
    ]
}

/// The slot-message script.
fn slot_script(s: &Sealer) -> Vec<Vec<StagedSend<SlotMsg>>> {
    let (none, inits) = (Certificate::new(), s.inits());
    let at = |slot, core, cert: &Certificate| SlotMsg {
        slot,
        env: s.env(core, cert),
    };
    vec![
        vec![StagedSend::ToAll(at(1, Core::Init { value: 1 }, &none))],
        vec![
            StagedSend::ToAll(at(
                1,
                Core::Estimate {
                    round: 1,
                    vector: vector(),
                    ts: 0,
                },
                &inits,
            )),
            StagedSend::To(
                ProcessId(2),
                at(
                    1,
                    Core::Ack {
                        round: 1,
                        vector: vector(),
                    },
                    &inits,
                ),
            ),
        ],
        vec![
            StagedSend::ToAll(at(
                1,
                Core::Decide {
                    round: 1,
                    vector: vector(),
                },
                &inits,
            )),
            StagedSend::ToAll(at(2, Core::Init { value: 2 }, &none)),
            StagedSend::To(ProcessId(3), at(1, Core::Next { round: 2 }, &inits)),
        ],
    ]
}

/// The crash-model script: a vote broadcast plus a unicast, a DECIDE,
/// and a NEXT to p0.
fn crash_script() -> Vec<Vec<StagedSend<CrashMsg>>> {
    vec![
        vec![
            StagedSend::ToAll(CrashMsg::Current { round: 1, est: 7 }),
            StagedSend::To(ProcessId(2), CrashMsg::Next { round: 1 }),
        ],
        vec![StagedSend::ToAll(CrashMsg::Decide { est: 7 })],
        vec![StagedSend::To(ProcessId(0), CrashMsg::Next { round: 2 })],
    ]
}

/// Every case's name and dispatched lines.
fn cases() -> Vec<(String, Vec<String>)> {
    let sealer = Sealer {
        own: keys(1),
        peer: keys(0),
    };
    let mut out = Vec::new();
    for (name, attack) in attacks() {
        let calls = envelope_script(&sealer);
        let any = calls[0][0].clone();
        let (StagedSend::To(_, any) | StagedSend::ToAll(any)) = any;
        let process = Script { calls, next: 0 };
        let wrapped = ByzantineWrapper::new(
            process,
            attack.clone(),
            sealer.own.clone(),
            Duration::of(30),
        );
        out.push((format!("env {name}"), dispatched(wrapped, &any)));

        let calls = slot_script(&sealer);
        let any = calls[0][0].clone();
        let (StagedSend::To(_, any) | StagedSend::ToAll(any)) = any;
        let process = Script { calls, next: 0 };
        let wrapped = ByzantineWrapper::new(process, attack, sealer.own.clone(), Duration::of(30));
        out.push((format!("slot {name}"), dispatched(wrapped, &any)));
    }
    let crash = [
        (
            "corrupt-estimate",
            CrashAttack::CorruptEstimate { poison: 666 },
        ),
        (
            "forge-decide",
            CrashAttack::ForgeDecide {
                at: VirtualTime::at(20),
                poison: 999,
            },
        ),
    ];
    for (name, attack) in crash {
        let process = Script {
            calls: crash_script(),
            next: 0,
        };
        let any = CrashMsg::Next { round: 1 };
        out.push((
            format!("crash {name}"),
            dispatched(CrashSaboteur::new(process, attack), &any),
        ));
    }
    out
}

#[test]
fn every_attack_dispatches_as_pinned() {
    let cases = cases();
    let mut table = String::new();
    for (name, lines) in &cases {
        let digest = Sha256::digest(lines.join("\n").as_bytes());
        writeln!(
            table,
            "{name} {} {}",
            lines.len(),
            &digest.to_string()[..16]
        )
        .unwrap();
    }
    if table != PINNED {
        for (name, lines) in &cases {
            eprintln!("== {name}");
            for line in lines {
                eprintln!("{line}");
            }
        }
        panic!("dispatched sends moved; the table now reads:\n{table}");
    }
}
