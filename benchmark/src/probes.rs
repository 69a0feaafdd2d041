//! Probes: envelopes captured from a short simulator run of the
//! workload's (protocol, n, F, key size), replayed through one public
//! function at a time in a timing loop. They price single calls; the
//! boundary metrics count how many of each a slot makes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use ftm_certify::analyzer::CertChecker;
use ftm_certify::{Envelope, ProtocolId};
use ftm_core::byzantine::log::SlotMsg;
use ftm_core::byzantine::ByzantineConsensus;
use ftm_core::config::ProtocolConfig;
use ftm_core::crash::CrashConsensus;
use ftm_core::spec::Resilience;
use ftm_core::transform::ModuleStack;
use ftm_crypto::rsa::Signature;
use ftm_crypto::sha256::{Digest, Sha256};
use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode};
use ftm_detect::automaton::{PeerAutomaton, ProtocolTable};
use ftm_fd::TimeoutDetector;
use ftm_net::poll::{poll, PollFd, POLLIN};
use ftm_net::{frame_into, RingBuf};
use ftm_runtime::{Payload, ProcessId, VirtualTime};
use ftm_serve::api::{Reply, Request};
use ftm_serve::batch::BatchState;
use ftm_sim::{SimConfig, Simulation};

use crate::metrics::{ratio, Values};
use crate::sim::{capture, SimSpec};
use crate::stats::median;

/// Slots of the capture run.
const CAPTURE_SLOTS: u64 = 8;
/// Wall-clock spent per probe.
const BUDGET: Duration = Duration::from_millis(60);
/// Single-shot decisions timed for the crash-vs-transformed ratio.
const DECIDE_SEEDS: u64 = 12;

/// Repeats `pass` — which returns `(operations, nanoseconds)` for one
/// sweep over its inputs — until the budget is spent, and returns the
/// median nanoseconds per operation over the sweeps.
fn ns_per_op(mut pass: impl FnMut() -> (u64, u64)) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < BUDGET {
        let (ops, ns) = pass();
        samples.push(ratio(ns as f64, ops as f64));
    }
    median(&samples)
}

/// Times `f` over every item once.
fn sweep<T>(items: &[T], mut f: impl FnMut(&T)) -> (u64, u64) {
    let t = Instant::now();
    for item in items {
        f(item);
    }
    (items.len() as u64, t.elapsed().as_nanos() as u64)
}

/// Runs every probe for `spec` and returns the probe metrics. `tcp` adds
/// the transport and request-path probes, which the simulator bypasses.
pub fn run(spec: &SimSpec, seed: u64, tcp: bool) -> Values {
    let cap = capture(spec, seed, CAPTURE_SLOTS);
    let setup = &cap.setup;
    let mut v = Values::new();

    // Distinct signed statements (the outer core of every envelope).
    let mut statements: BTreeMap<(u32, [u8; 32]), (Digest, Signature)> = BTreeMap::new();
    for (_, m) in cap.delivered.iter().flatten() {
        let s = &m.env.signed;
        statements
            .entry((s.sender().0, s.digest().0))
            .or_insert_with(|| (s.digest(), Signature::from_bytes(&s.signature_bytes())));
    }
    v.insert(
        "crypto.signs_per_slot",
        statements.len() as f64 / cap.slots as f64,
    );
    let signed: Vec<(u32, Digest, Signature)> = statements
        .into_iter()
        .take(48)
        .map(|((signer, _), (d, s))| (signer, d, s))
        .collect();
    v.insert(
        "crypto.sign_ns",
        ns_per_op(|| {
            sweep(&signed, |(signer, d, _)| {
                black_box(setup.keys[*signer as usize].sign_digest(black_box(d)));
            })
        }),
    );
    v.insert(
        "crypto.verify_miss_ns",
        ns_per_op(|| {
            sweep(&signed, |(signer, d, s)| {
                let key = setup
                    .dir
                    .key_of(*signer)
                    .expect("captured signer is registered");
                black_box(key.verify_digest(black_box(d), s));
            })
        }),
    );
    // The capture run already verified all of these: every lookup hits.
    v.insert(
        "crypto.verify_hit_ns",
        ns_per_op(|| {
            sweep(&signed, |(signer, d, s)| {
                black_box(setup.dir.verify_digest(*signer, black_box(d), s).is_ok());
            })
        }),
    );
    let kib64 = vec![0xA5u8; 64 * 1024];
    v.insert(
        "crypto.sha256_ns_per_kib",
        ns_per_op(|| {
            let t = Instant::now();
            black_box(Sha256::digest(black_box(&kib64)));
            (64, t.elapsed().as_nanos() as u64)
        }),
    );

    // What replica 0 was sent, in delivery order (channels are FIFO, so
    // per sender this is also send order), grouped by slot.
    let stream: &[(ProcessId, SlotMsg)] = &cap.delivered[0];
    let envelopes: Vec<&Envelope> = stream.iter().map(|(_, m)| &m.env).collect();
    let checker = CertChecker::new_for(spec.protocol, spec.n, spec.f, setup.dir.clone());
    v.insert(
        "certify.check_envelope_ns",
        ns_per_op(|| {
            sweep(&envelopes, |env| {
                black_box(checker.check_envelope(env).is_ok());
            })
        }),
    );
    // `SlotMsg` reports its bytes as all-protocol, so the split is taken
    // one level down, from the envelope each slot message carries.
    let (cert, total) = envelopes.iter().fold((0, 0), |(c, t), env| {
        let split = env.layer_split();
        (c + split.certificate_bytes, t + split.total())
    });
    v.insert(
        "certify.cert_bytes_pct",
        100.0 * ratio(cert as f64, total as f64),
    );
    let table = ProtocolTable::for_protocol(spec.protocol);
    v.insert(
        "detect.step_ns",
        ns_per_op(|| {
            let mut automata: BTreeMap<(u64, u32), PeerAutomaton> = BTreeMap::new();
            sweep(stream, |(from, m)| {
                let a = automata
                    .entry((m.slot, from.0))
                    .or_insert_with(|| PeerAutomaton::new_for(table, *from));
                black_box(a.on_message(&m.env).is_ok());
            })
        }),
    );
    v.insert(
        "core.admit_ns",
        ns_per_op(|| {
            let mut stacks: BTreeMap<u64, ModuleStack> = BTreeMap::new();
            sweep(stream, |(from, m)| {
                let stack = stacks
                    .entry(m.slot)
                    .or_insert_with(|| ModuleStack::for_setup(spec.protocol, setup));
                black_box(stack.admit(*from, &m.env, VirtualTime::ZERO));
            })
        }),
    );

    decide_cost(&mut v, spec, seed);
    if tcp {
        transport(&mut v, stream);
        request_path(&mut v);
    }
    v
}

/// Single-shot consensus on the simulator, crash-model Hurfin–Raynal
/// against its transformed version: same n, same seeds, same proposals.
/// The ratio is the paper's implicit question — what the transformation
/// costs — in wall-clock and in bytes per decision.
fn decide_cost(v: &mut Values, spec: &SimSpec, seed: u64) {
    let (n, f) = (spec.n, spec.f);
    let (mut crash_ns, mut byz_ns, mut crash_bytes, mut byz_bytes) = (0u64, 0u64, 0u64, 0u64);
    let setup = ProtocolConfig::new(n, f)
        .seed(seed)
        .modulus_bits(spec.modulus_bits)
        .setup();
    for k in 0..DECIDE_SEEDS {
        let cfg = || SimConfig::new(n).seed(seed.wrapping_add(k));
        let t = Instant::now();
        let report = Simulation::build(cfg(), |id| {
            CrashConsensus::new(
                Resilience::new(n, f),
                id,
                100 + u64::from(id.0),
                TimeoutDetector::new(n, setup.config.crash_fd_timeout),
                setup.config.poll_interval,
                setup.config.heartbeat_interval,
            )
        })
        .run();
        crash_ns += t.elapsed().as_nanos() as u64;
        crash_bytes += report.metrics.bytes_sent;
        let t = Instant::now();
        let report = Simulation::build(cfg(), |id| {
            ByzantineConsensus::new(&setup, id, 100 + u64::from(id.0))
        })
        .run();
        byz_ns += t.elapsed().as_nanos() as u64;
        byz_bytes += report.metrics.bytes_sent;
    }
    let per = DECIDE_SEEDS as f64;
    v.insert("core.crash_decide_us", crash_ns as f64 / 1e3 / per);
    v.insert("core.byz_decide_us", byz_ns as f64 / 1e3 / per);
    v.insert(
        "core.transform_overhead_x100",
        100.0 * ratio(byz_ns as f64, crash_ns as f64),
    );
    v.insert("core.crash_bytes_per_decide", crash_bytes as f64 / per);
    v.insert("core.byz_bytes_per_decide", byz_bytes as f64 / per);
}

/// Frame encode/decode the way `ftm-net`'s node does them, and the cost
/// of one readiness scan over idle sockets.
fn transport(v: &mut Values, stream: &[(ProcessId, SlotMsg)]) {
    let msgs: Vec<&SlotMsg> = stream.iter().map(|(_, m)| m).collect();
    let frames: Vec<Vec<u8>> = msgs.iter().map(|m| m.canonical_bytes()).collect();
    let total: usize = frames.iter().map(|f| f.len() + 4).sum();
    v.insert(
        "net.frame_encode_ns",
        ns_per_op(|| {
            let mut ring = RingBuf::with_max(total);
            sweep(&msgs, |m| {
                black_box(frame_into(&mut ring, &m.canonical_bytes()));
            })
        }),
    );
    v.insert(
        "net.frame_decode_ns",
        ns_per_op(|| {
            let mut ring = RingBuf::with_max(total);
            for f in &frames {
                frame_into(&mut ring, f);
            }
            // Length prefix, copy out of the ring, canonical decode.
            sweep(&frames, |_| {
                let mut len = [0u8; 4];
                ring.copy_to(&mut len, 4);
                ring.consume(4);
                let n = u32::from_be_bytes(len) as usize;
                let mut frame = vec![0u8; n];
                ring.copy_to(&mut frame, n);
                ring.consume(n);
                black_box(SlotMsg::from_canonical_bytes(&frame).is_ok());
            })
        }),
    );

    const IDLE: usize = 256;
    let pairs: Option<Vec<(TcpStream, TcpStream)>> = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| {
            let addr = l.local_addr()?;
            (0..IDLE)
                .map(|_| {
                    let a = TcpStream::connect(addr)?;
                    let (b, _) = l.accept()?;
                    b.set_nonblocking(true)?;
                    Ok((a, b))
                })
                .collect()
        })
        .ok();
    if let Some(pairs) = pairs {
        v.insert(
            "net.poll_scan_ns_per_conn",
            ns_per_op(|| {
                let mut fds: Vec<PollFd<'_>> =
                    pairs.iter().map(|(_, b)| PollFd::new(b, POLLIN)).collect();
                let t = Instant::now();
                black_box(poll(&mut fds, Duration::ZERO));
                (IDLE as u64, t.elapsed().as_nanos() as u64)
            }),
        );
    }
}

/// The client request path without sockets: decode, ledger, reply; and
/// the ledger's per-slot work at batch 256.
fn request_path(v: &mut Values) {
    const COMMANDS: u64 = 4096;
    let frames: Vec<Vec<u8>> = (0..COMMANDS)
        .map(|value| Request::Submit { value }.canonical_bytes())
        .collect();
    v.insert(
        "serve.submit_ns",
        ns_per_op(|| {
            let mut ledger = BatchState::new(256);
            sweep(&frames, |frame| {
                if let Ok(Request::Submit { value }) = Request::from_canonical_bytes(frame) {
                    let queued = ledger.submit(value);
                    black_box(Reply::Submitted { queued }.canonical_bytes());
                }
            })
        }),
    );
    v.insert(
        "serve.propose_seal_ns",
        ns_per_op(|| {
            let mut ledger = BatchState::new(256);
            for value in 0..COMMANDS {
                ledger.submit(value);
            }
            let t = Instant::now();
            let mut slot = 0;
            while let Some(value) = ledger.propose(slot) {
                ledger.on_sealed(slot, Some(value));
                slot += 1;
            }
            (black_box(ledger.committed()), t.elapsed().as_nanos() as u64)
        }),
    );
}

/// The spec whose envelopes stand in for a TCP workload's: honest
/// Hurfin–Raynal at the cluster's shape and default key size.
pub fn tcp_spec() -> SimSpec {
    SimSpec {
        protocol: ProtocolId::HurfinRaynal,
        n: crate::tcp::N,
        f: 1,
        modulus_bits: 128,
        slots: CAPTURE_SLOTS,
        coalition: &[],
    }
}
