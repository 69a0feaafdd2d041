//! The TCP workloads: four replicas of the transformed replicated log on
//! `ftm-net` over host loopback, driven by one generator thread.
//!
//! Each replica is wired the way `crates/serve/src/main.rs` wires one
//! `ftm-serve` process — its own key set-up from the shared seed, one
//! batching ledger shared by the command source, the slot hook and the
//! client service, default (full) retention, catch-up window 16 — with
//! the benchmark's clocks and counters inside those three closures.
//! Every hop between replicas is held for [`HOP_DELAY_MS`], `ftm-serve
//! --delay-ms 1`: the cluster then waits on its links instead of on the
//! host's processors.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ftm_certify::ValueVector;
use ftm_core::byzantine::log::{ReplicatedLog, SlotMsg};
use ftm_core::byzantine::ByzantineConsensus;
use ftm_core::config::ProtocolConfig;
use ftm_crypto::keydir::KeyDirectory;
use ftm_crypto::prng::derive_seed;
use ftm_crypto::sha256::Sha256;
use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode};
use ftm_net::{
    bind_cluster, parse_convictions, read_frame, spawn_node, write_frame, ClientConn, Hello,
    NetReport, NodeConfig, NodeHandle, ServiceReply, DEFAULT_MAX_FRAME,
};
use ftm_runtime::{ProcessId, SendBoxedActor};
use ftm_serve::api::{Reply, Request, Status};
use ftm_serve::batch::BatchState;

use crate::metrics::{ratio, Values};
use crate::procfs;
use crate::schedule::{poisson, Arrival};
use crate::span::Span;
use crate::stats::{median, percentile, summary};
use crate::timed::{shared_log, SharedLog, Timed};
use crate::RunOutput;

mod layers;

/// Cluster shape of every TCP workload.
pub const N: usize = 4;
const F: usize = 1;
/// Generator connections that carry load: one each to replicas 0 and 1.
const ACTIVE: usize = 2;
/// The measured window of one repetition. A run is as many repetitions
/// on fresh clusters as `--seconds` holds; each metric is the median
/// repetition. (Not one long window: the slot rate of a running cluster
/// decays, so a window's length is part of what it measures.)
const WINDOW_NS: u64 = 1_500_000_000;
/// `NodeConfig::delivery_delay_ms`, the transport's netem equivalent, "to
/// emulate a network whose hop time dominates thread-scheduling noise".
/// At 0 the log free-runs filler slots as fast as four replicas compute
/// them, so every TCP metric is bound by processor time, 1.4 to 1.7 of
/// the host's two virtual processors. Those deliver between one and two
/// real ones (two concurrent SHA-256 loops each run at 0.5 to 1 times the
/// speed of one alone), changing over minutes: commit p50 of the same
/// code read 4.9 to 7.2 ms within an hour, and medians of ten runs,
/// minutes apart, differed by 18 %. Held 1 ms per hop the cluster waits
/// between hops, and those medians agreed within 5 %.
const HOP_DELAY_MS: u64 = 1;
/// Traffic before the measured window, discarded.
const WARMUP_NS: u64 = 300_000_000;
/// How long after the window a submitted command may still seal.
const DRAIN_MAX_NS: u64 = 5_000_000_000;
/// As `ftm-serve`.
const CATCHUP_WINDOW: u64 = 16;
/// The log is free-running (empty slots carry filler); it never fills.
const SLOTS: u64 = 1_000_000;
/// Command values carry this tag so they cannot collide with filler.
const VALUE_TAG: u64 = 0xC0DE << 48;

/// How the generator offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Independent users: Poisson arrivals at this rate, sent when due
    /// whatever the cluster is doing, latency timed from the due time.
    Open {
        /// Commands per second over both active connections.
        rate_per_s: u64,
    },
    /// Callers that wait: new commands only while fewer than this many
    /// are submitted but unsealed.
    Closed {
        /// Over both active connections.
        max_outstanding: u64,
    },
}

/// One TCP workload.
#[derive(Debug, Clone, Copy)]
pub struct TcpSpec {
    /// `ftm-serve --batch`: most commands one slot carries per replica.
    pub batch: u64,
    /// Offered load.
    pub load: Load,
    /// Client connections that say `Hello` during set-up and then stay
    /// silent, spread evenly over the replicas.
    pub idle_conns: usize,
}

/// A slot sealing at one replica, as its slot hook saw it.
#[derive(Debug, Clone)]
struct Seal {
    t_ns: u64,
    slot: u64,
    /// `BatchState::committed()` right after the ledger settled the slot.
    committed: u64,
    /// The decided vector, for the agreement check.
    vector: ValueVector,
}

/// A slot opening at one replica, as its command source saw it.
#[derive(Debug, Clone, Copy)]
struct Propose {
    t_ns: u64,
    slot: u64,
    /// Commands the ledger moved from the queue into this proposal.
    taken: u64,
}

/// What the three closures of one replica record.
#[derive(Debug, Default)]
struct Rec {
    seals: Vec<Seal>,
    /// Traced repetitions only.
    proposes: Vec<Propose>,
    /// `(entry, exit)` of the service callback per `Submit`, in arrival
    /// order. Traced repetitions only.
    service: Vec<(u64, u64)>,
}

/// The benchmark's view into one replica.
struct Tap {
    ledger: Mutex<BatchState>,
    /// Commands committed so far; the closed-loop generator polls this.
    sealed_cmds: AtomicU64,
    rec: Mutex<Rec>,
}

struct Replica {
    handle: NodeHandle<Vec<ValueVector>>,
    tap: Arc<Tap>,
    dir: KeyDirectory,
    calls: Option<SharedLog<SlotMsg>>,
}

/// What every replica of one repetition is booted with.
struct BootArgs<'a> {
    addrs: &'a [String],
    cluster: u64,
    seed: u64,
    batch: u64,
    base: Instant,
    traced: bool,
}

fn spawn_replica(i: usize, listener: std::net::TcpListener, args: &BootArgs<'_>) -> Replica {
    let BootArgs {
        addrs,
        cluster,
        seed,
        batch,
        base,
        traced,
    } = *args;
    let me = ProcessId(i as u32);
    // Its own set-up, as a separate ftm-serve process would make: same
    // seed, same keys, but a verdict memo no other replica warms.
    let setup = ProtocolConfig::new(N, F).seed(seed).setup();
    let tap = Arc::new(Tap {
        ledger: Mutex::new(BatchState::new(batch)),
        sealed_cmds: AtomicU64::new(0),
        rec: Mutex::new(Rec::default()),
    });
    let now = move || base.elapsed().as_nanos() as u64;

    let (source, settle, service) = (Arc::clone(&tap), Arc::clone(&tap), Arc::clone(&tap));
    let log = ReplicatedLog::<ByzantineConsensus>::new(&setup, me, SLOTS, move |slot, p| {
        let t_ns = now();
        let (value, taken) = source.ledger.lock().map_or((None, 0), |mut q| {
            let before = q.queued();
            (q.propose(slot), before - q.queued())
        });
        if traced {
            if let Ok(mut rec) = source.rec.lock() {
                rec.proposes.push(Propose { t_ns, slot, taken });
            }
        }
        value.unwrap_or(1_000_000 * (slot + 1) + u64::from(p))
    })
    .with_slot_hook(move |slot, vector| {
        let committed = settle.ledger.lock().map_or(0, |mut q| {
            q.on_sealed(slot, vector.get(me.index()));
            q.committed()
        });
        settle.sealed_cmds.store(committed, Ordering::Release);
        if let Ok(mut rec) = settle.rec.lock() {
            rec.seals.push(Seal {
                t_ns: now(),
                slot,
                committed,
                vector: vector.clone(),
            });
        }
    })
    .with_catchup(CATCHUP_WINDOW);

    let calls = traced.then(shared_log);
    let actor: SendBoxedActor<SlotMsg, Vec<ValueVector>> = match &calls {
        Some(log_handle) => Box::new(Timed::new(log, base, false, Arc::clone(log_handle))),
        None => Box::new(log),
    };
    let mut cfg = NodeConfig::new(me, addrs.to_vec(), cluster, seed);
    cfg.delivery_delay_ms = HOP_DELAY_MS;
    let handle = spawn_node(cfg, listener, actor, move |_, view, frame| {
        let t_in = if traced { now() } else { 0 };
        match Request::from_canonical_bytes(frame) {
            Ok(Request::Submit { value }) => {
                let queued = service.ledger.lock().map_or(0, |mut q| q.submit(value));
                let reply = ServiceReply::reply(Reply::Submitted { queued }.canonical_bytes());
                if traced {
                    if let Ok(mut rec) = service.rec.lock() {
                        rec.service.push((t_in, now()));
                    }
                }
                reply
            }
            Ok(Request::Status) => {
                let status = service.ledger.lock().map_or_else(
                    |_| None,
                    |q| {
                        Some(Status {
                            me: me.0,
                            now_ms: view.now.ticks(),
                            decided_slots: 0, // the slot hook counts them
                            halted: view.halted,
                            contradicted: view.contradicted,
                            log_digest: Vec::new(),
                            convicted: Vec::new(),
                            queued: q.queued(),
                            msgs_sent: view.msgs_sent,
                            msgs_received: view.msgs_received,
                            bytes_sent: view.bytes_sent,
                            bytes_received: view.bytes_received,
                            batch,
                            submitted: q.submitted(),
                            committed: q.committed(),
                            inflight: q.inflight(),
                            committed_digest: Vec::new(),
                        })
                    },
                );
                match status {
                    Some(s) => ServiceReply::reply(Reply::Status(s).canonical_bytes()),
                    None => ServiceReply::reply(
                        Reply::BadRequest("ledger poisoned".into()).canonical_bytes(),
                    ),
                }
            }
            Ok(Request::Shutdown) => ServiceReply::shutdown(Reply::ShuttingDown.canonical_bytes()),
            Err(e) => ServiceReply::reply(Reply::BadRequest(format!("{e}")).canonical_bytes()),
        }
    });
    Replica {
        handle,
        tap,
        dir: setup.dir,
        calls,
    }
}

/// One command the generator submitted.
#[derive(Debug, Clone, Copy)]
struct Cmd {
    value: u64,
    due_ns: u64,
    send_ns: u64,
    ack_ns: u64,
}

/// One active generator connection: non-blocking, pipelined.
struct Conn {
    stream: TcpStream,
    /// Framed requests not yet written.
    out: Vec<u8>,
    /// Reply bytes read but not yet a whole frame.
    inbuf: Vec<u8>,
    /// Every command submitted here, in order — which is the order the
    /// replica's service callback sees them and the order they commit.
    cmds: Vec<Cmd>,
    acked: usize,
    refused: u64,
    lost: bool,
}

impl Conn {
    fn open(addr: &str, cluster: u64) -> io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        write_frame(&mut stream, &Hello::Client { cluster }.canonical_bytes())?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            cmds: Vec::new(),
            acked: 0,
            refused: 0,
            lost: false,
        })
    }

    fn submit(&mut self, value: u64, due_ns: u64, now_ns: u64) {
        // Writing into a Vec cannot fail.
        let _ = write_frame(&mut self.out, &Request::Submit { value }.canonical_bytes());
        self.cmds.push(Cmd {
            value,
            due_ns,
            send_ns: now_ns,
            ack_ns: 0,
        });
    }

    fn flush(&mut self) {
        let mut written = 0;
        while written < self.out.len() && !self.lost {
            match self.stream.write(&self.out[written..]) {
                Ok(0) => self.lost = true,
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.lost = true,
            }
        }
        self.out.drain(..written);
    }

    /// Reads what the socket holds and settles one command per
    /// `Submitted` reply.
    fn pump_replies(&mut self, now_ns: u64) {
        let mut chunk = [0u8; 64 * 1024];
        while !self.lost {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.lost = true,
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.lost = true,
            }
        }
        let mut rest: &[u8] = &self.inbuf;
        loop {
            let mut cursor = rest;
            match read_frame(&mut cursor, DEFAULT_MAX_FRAME) {
                Ok(frame) => {
                    rest = cursor;
                    match Reply::from_canonical_bytes(&frame) {
                        Ok(Reply::Submitted { .. }) if self.acked < self.cmds.len() => {
                            self.cmds[self.acked].ack_ns = now_ns;
                            self.acked += 1;
                        }
                        _ => self.refused += 1,
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                Err(_) => {
                    self.lost = true;
                    break;
                }
            }
        }
        let consumed = self.inbuf.len() - rest.len();
        self.inbuf.drain(..consumed);
    }
}

/// Process-level readings at a window edge. CPU is every thread but the
/// calling (generator) one, i.e. the replicas' share.
#[derive(Debug, Clone, Copy)]
struct Edge {
    t_ns: u64,
    cluster_cpu_ns: u64,
    vol_ctxsw: u64,
    rss_kb: u64,
}

impl Edge {
    fn take(t_ns: u64, traced: bool) -> Edge {
        Edge {
            t_ns,
            cluster_cpu_ns: procfs::other_threads_cpu_ns(),
            vol_ctxsw: if traced {
                procfs::other_threads_vol_ctxsw()
            } else {
                0
            },
            rss_kb: if traced { procfs::rss_kb() } else { 0 },
        }
    }
}

/// Fails before anything boots when the fd soft limit cannot hold the
/// idle connections (each costs one fd at the client and one at the
/// replica, both in this process).
fn check_fd_limit(spec: &TcpSpec) -> Result<(), String> {
    let need = 2 * spec.idle_conns as u64 + 256;
    match procfs::fd_soft_limit() {
        Some(limit) if limit < need => Err(format!(
            "fd soft limit {limit} cannot hold {} idle connections (need {need}); raise it with `ulimit -n {need}`",
            spec.idle_conns
        )),
        _ => Ok(()),
    }
}

/// Asks replica `addr` for its status over a fresh connection. Client
/// frames are not served before the start barrier clears, so a reply also
/// means the replica's actor is running.
fn status(addr: &str, cluster: u64) -> io::Result<Status> {
    let mut conn = ClientConn::connect(addr, cluster)?;
    match Reply::from_canonical_bytes(&conn.request(&Request::Status.canonical_bytes())?) {
        Ok(Reply::Status(s)) => Ok(s),
        other => Err(io::Error::other(format!("status reply: {other:?}"))),
    }
}

/// Opens the idle connections in rounds of 32 per replica: `Hello` and one
/// `Status` round-trip each, so set-up ends only when every replica has
/// typed every one of them as a client.
fn open_idle(addrs: &[String], cluster: u64, total: usize) -> io::Result<Vec<TcpStream>> {
    let mut idle = Vec::with_capacity(total);
    while idle.len() < total {
        let round = (total - idle.len()).min(32 * addrs.len());
        let first = idle.len();
        for k in 0..round {
            let mut stream = TcpStream::connect(&addrs[(first + k) % addrs.len()])?;
            stream.set_nodelay(true)?;
            write_frame(&mut stream, &Hello::Client { cluster }.canonical_bytes())?;
            write_frame(&mut stream, &Request::Status.canonical_bytes())?;
            idle.push(stream);
        }
        for stream in &mut idle[first..] {
            read_frame(stream, DEFAULT_MAX_FRAME)?;
        }
    }
    Ok(idle)
}

/// Everything one repetition measured, already reduced to numbers.
struct Rep {
    values: Values,
    /// `due → seal` of every command due inside the window, ns.
    commit_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    spans: Vec<Span>,
}

/// What a finished repetition leaves behind, before any arithmetic. All
/// times are nanoseconds since the repetition began.
struct Raw {
    /// Per active connection, what the generator submitted, in order.
    cmds: Vec<Vec<Cmd>>,
    /// Replies other than `Submitted`.
    refused: u64,
    /// Generator connections that hit EOF or an error.
    lost: usize,
    /// Process readings at the start and the end of the measured window.
    edges: (Edge, Edge),
    rss_peak_kb: u64,
    // Per replica:
    recs: Vec<Rec>,
    taps: Vec<Arc<Tap>>,
    reports: Vec<NetReport<Vec<ValueVector>>>,
    dirs: Vec<KeyDirectory>,
    /// `Timed` call intervals (traced repetitions only).
    calls: Vec<Vec<(u64, u64)>>,
}

fn io_err(what: &str, e: io::Error) -> String {
    format!("{what}: {e}")
}

/// A booted cluster and the generator's connections to it.
struct Cluster {
    replicas: Vec<Replica>,
    conns: Vec<Conn>,
    idle: Vec<TcpStream>,
}

/// Set-up: keys, bind, spawn, start barrier, every client connection.
fn boot(spec: &TcpSpec, seed: u64, base: Instant, traced: bool) -> Result<Cluster, String> {
    let cluster = derive_seed(seed, 0xC1);
    let (listeners, addrs) = bind_cluster(N).map_err(|e| io_err("bind", e))?;
    let args = BootArgs {
        addrs: &addrs,
        cluster,
        seed,
        batch: spec.batch,
        base,
        traced,
    };
    let replicas: Vec<Replica> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| spawn_replica(i, l, &args))
        .collect();
    for addr in &addrs {
        status(addr, cluster).map_err(|e| io_err("start barrier", e))?;
    }
    let conns = addrs[..ACTIVE]
        .iter()
        .map(|addr| Conn::open(addr, cluster))
        .collect::<io::Result<Vec<Conn>>>()
        .map_err(|e| io_err("connect", e))?;
    let idle = open_idle(&addrs, cluster, spec.idle_conns).map_err(|e| io_err("idle", e))?;
    Ok(Cluster {
        replicas,
        conns,
        idle,
    })
}

/// The generator: warm-up, the measured window, then the drain. Returns
/// the process readings at the window's two edges.
fn drive(
    spec: &TcpSpec,
    seed: u64,
    window_ns: u64,
    traced: bool,
    now: &dyn Fn() -> u64,
    conns: &mut [Conn],
    replicas: &[Replica],
) -> Result<(Edge, Edge), String> {
    let t_start = now();
    let (t0, t1) = (t_start + WARMUP_NS, t_start + WARMUP_NS + window_ns);
    // Warm-up and window are scheduled separately so that the window is
    // offered exactly rate × window commands on every seed.
    let schedule = match spec.load {
        Load::Open { rate_per_s } => {
            let mut s = poisson(derive_seed(seed, 0xA0), rate_per_s, WARMUP_NS, ACTIVE);
            let window = poisson(derive_seed(seed, 0xA1), rate_per_s, window_ns, ACTIVE);
            s.extend(window.into_iter().map(|a| Arrival {
                due_ns: a.due_ns + WARMUP_NS,
                ..a
            }));
            s
        }
        Load::Closed { .. } => Vec::new(),
    };
    let mut next = 0;
    let mut seq = 0u64;
    let mut value = || {
        seq += 1;
        VALUE_TAG | seq
    };
    let mut edge0 = None;
    let edge1 = loop {
        let t = now();
        if edge0.is_none() && t >= t0 {
            edge0 = Some(Edge::take(t, traced));
        }
        if t >= t1 {
            break Edge::take(t, traced);
        }
        let pause = match spec.load {
            Load::Open { .. } => {
                while next < schedule.len() && t_start + schedule[next].due_ns <= t {
                    let a = schedule[next];
                    conns[a.target].submit(value(), t_start + a.due_ns, t);
                    next += 1;
                }
                let until_due = schedule
                    .get(next)
                    .map_or(u64::MAX, |a| (t_start + a.due_ns).saturating_sub(now()));
                until_due.min(200_000)
            }
            Load::Closed { max_outstanding } => {
                for (conn, replica) in conns.iter_mut().zip(replicas) {
                    let sealed = replica.tap.sealed_cmds.load(Ordering::Acquire);
                    let outstanding = conn.cmds.len() as u64 - sealed;
                    for _ in outstanding..max_outstanding / ACTIVE as u64 {
                        conn.submit(value(), t, t);
                    }
                }
                // The generator shares two cores with four replicas: it
                // must sleep, not spin, while the pipeline is full.
                200_000
            }
        };
        for conn in conns.iter_mut() {
            conn.flush();
            conn.pump_replies(now());
        }
        std::thread::sleep(Duration::from_nanos(pause));
    };
    let edge0 = edge0.ok_or("window never opened")?;

    // Drain: every submitted command seals, or 5 s pass.
    loop {
        let t = now();
        for conn in conns.iter_mut() {
            conn.flush();
            conn.pump_replies(t);
        }
        let settled = conns.iter().zip(replicas).all(|(c, r)| {
            c.lost
                || (c.out.is_empty()
                    && c.acked + c.refused as usize >= c.cmds.len()
                    && r.tap.sealed_cmds.load(Ordering::Acquire) >= c.cmds.len() as u64)
        });
        if settled || t >= edge1.t_ns + DRAIN_MAX_NS {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok((edge0, edge1))
}

/// One repetition on a fresh cluster, up to the raw records.
fn measure(spec: &TcpSpec, seed: u64, window_ns: u64, traced: bool) -> Result<Raw, String> {
    let base = Instant::now();
    let now = move || base.elapsed().as_nanos() as u64;
    let Cluster {
        replicas,
        mut conns,
        idle,
    } = boot(spec, seed, base, traced)?;
    let edges = drive(spec, seed, window_ns, traced, &now, &mut conns, &replicas)?;
    let rss_peak_kb = procfs::rss_peak_kb();

    let lost = conns.iter().filter(|c| c.lost).count();
    let refused = conns.iter().map(|c| c.refused).sum();
    let cmds = conns.into_iter().map(|c| c.cmds).collect();
    drop(idle);
    for r in &replicas {
        r.handle.stop();
    }
    let mut raw = Raw {
        cmds,
        refused,
        lost,
        edges,
        rss_peak_kb,
        recs: Vec::with_capacity(N),
        taps: Vec::with_capacity(N),
        reports: Vec::with_capacity(N),
        dirs: Vec::with_capacity(N),
        calls: Vec::with_capacity(N),
    };
    for r in replicas {
        raw.reports
            .push(r.handle.join().map_err(|e| io_err("node", e))?);
        raw.calls.push(r.calls.map_or_else(Vec::new, |l| {
            l.lock()
                .map_or_else(|_| Vec::new(), |mut l| std::mem::take(&mut l.calls))
        }));
        raw.recs.push(
            r.tap
                .rec
                .lock()
                .map_or_else(|_| Rec::default(), |mut rec| std::mem::take(&mut *rec)),
        );
        raw.taps.push(r.tap);
        raw.dirs.push(r.dir);
    }
    Ok(raw)
}

/// The correctness gate of one repetition; every failed check in words.
fn check(raw: &Raw) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, tap) in raw.taps.iter().enumerate() {
        let Ok(q) = tap.ledger.lock() else {
            errors.push(format!("replica {i}: ledger poisoned"));
            continue;
        };
        if q.submitted() != q.queued() + q.inflight() + q.committed() {
            errors.push(format!("replica {i}: ledger conservation broken"));
        }
        let mine = raw.cmds.get(i).map_or(&[][..], Vec::as_slice);
        if q.submitted() != mine.len() as u64 {
            errors.push(format!(
                "replica {i}: saw {} submits, generator sent {}",
                q.submitted(),
                mine.len()
            ));
        }
        // Committed multiset = submitted set, by the ledger's own digest
        // against one computed from the generator's list through the same
        // public type (one batch holding everything, sealed as proposed).
        if q.committed() == mine.len() as u64 && !mine.is_empty() {
            let mut own = BatchState::new(u64::MAX);
            for c in mine {
                own.submit(c.value);
            }
            let v = own.propose(0);
            own.on_sealed(0, v);
            if own.committed_digest() != q.committed_digest() {
                errors.push(format!(
                    "replica {i}: committed set differs from submitted set"
                ));
            }
        }
    }
    // Agreement on the common prefix, from what each slot hook saw (the
    // logs are stopped mid-flight, so their lengths differ).
    let mut compared = 0usize;
    for other in &raw.recs[1..] {
        let common = raw.recs[0].seals.iter().zip(&other.seals);
        compared += common.len();
        if let Some((a, _)) = common
            .clone()
            .find(|(a, b)| a.slot != b.slot || a.vector != b.vector)
        {
            errors.push(format!(
                "slot {}: replicas sealed different vectors",
                a.slot
            ));
        }
    }
    if compared == 0 {
        errors.push("no slot sealed by two replicas".into());
    }
    for (i, rep) in raw.reports.iter().enumerate() {
        if rep.contradicted {
            errors.push(format!("replica {i} contradicted itself"));
        }
        for (who, class) in parse_convictions(&rep.notes) {
            errors.push(format!(
                "replica {i} convicted {who} ({class}) in an honest run"
            ));
        }
    }
    if raw.lost > 0 {
        errors.push(format!("{} generator connection(s) lost", raw.lost));
    }
    errors
}

/// One repetition on a fresh cluster.
fn run_rep(spec: &TcpSpec, seed: u64, window_ns: u64, traced: bool) -> Result<Rep, String> {
    let raw = measure(spec, seed, window_ns, traced)?;
    let errors = check(&raw);

    // The k-th commit at a replica is the k-th Submit it saw (FIFO ledger
    // with front-requeue), so walking both lists in order pairs them up.
    let (w0, w1) = (raw.edges.0.t_ns, raw.edges.1.t_ns);
    let window_s = (w1 - w0) as f64 / 1e9;
    let mut commit_ns = Vec::new();
    let mut seal_of: Vec<Vec<Option<u64>>> = Vec::with_capacity(ACTIVE);
    let mut unsealed = 0u64;
    for (cmds, rec) in raw.cmds.iter().zip(&raw.recs) {
        let mut si = 0;
        let mut seals = Vec::with_capacity(cmds.len());
        for (k, cmd) in cmds.iter().enumerate() {
            while si < rec.seals.len() && rec.seals[si].committed <= k as u64 {
                si += 1;
            }
            let sealed = rec.seals.get(si).map(|s| s.t_ns);
            match sealed {
                Some(t) if (w0..w1).contains(&cmd.due_ns) => {
                    commit_ns.push(t.saturating_sub(cmd.due_ns));
                }
                Some(_) => {}
                None => unsealed += 1,
            }
            seals.push(sealed);
        }
        seal_of.push(seals);
    }
    let committed_by = |rec: &Rec, t: u64| {
        let i = rec.seals.partition_point(|s| s.t_ns < t);
        if i == 0 {
            0
        } else {
            rec.seals[i - 1].committed
        }
    };
    let in_window: u64 = raw
        .recs
        .iter()
        .map(|r| committed_by(r, w1) - committed_by(r, w0))
        .sum();
    let cpu_ns = raw.edges.1.cluster_cpu_ns - raw.edges.0.cluster_cpu_ns;
    commit_ns.sort_unstable();
    let mut values = Values::from([
        ("setup_s", w0 as f64 / 1e9),
        (
            "commit_p50_us",
            percentile(&commit_ns, 50, 100) as f64 / 1e3,
        ),
        ("throughput_cps", ratio(in_window as f64, window_s)),
        (
            "process.cpu_us_per_cmd",
            ratio(cpu_ns as f64 / 1e3, in_window as f64),
        ),
    ]);

    // How late the generator ran, for the validity rule.
    let mut lag: Vec<u64> = raw
        .cmds
        .iter()
        .flatten()
        .filter(|c| (w0..w1).contains(&c.due_ns))
        .map(|c| c.send_ns - c.due_ns)
        .collect();
    lag.sort_unstable();
    values.insert(
        "client.gen_lag_p50_us",
        percentile(&lag, 50, 100) as f64 / 1e3,
    );
    values.insert(
        "client.gen_lag_p99_us",
        percentile(&lag, 99, 100) as f64 / 1e3,
    );

    let mut spans = Vec::new();
    if traced {
        layers::layer_values(&mut values, &mut spans, &raw, &seal_of);
    }
    Ok(Rep {
        values,
        commit_ns,
        attempted: raw.cmds.iter().map(|c| c.len() as u64).sum(),
        failed: unsealed + raw.refused,
        errors,
        spans,
    })
}

/// The tail of the commit latency over the pooled samples of `reps`.
/// (The median is each repetition's own, then the median repetition: a
/// slow episode of the host then has to hit half the windows to move it.)
fn latency_tail(values: &mut Values, reps: &[&Rep]) {
    let mut pooled: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.commit_ns.iter().copied())
        .collect();
    let (_, p90, p99, max) = summary(&mut pooled);
    values.insert("client.commit_p90_us", p90 as f64 / 1e3);
    values.insert("client.commit_p99_us", p99 as f64 / 1e3);
    values.insert("client.commit_max_us", max as f64 / 1e3);
    values.insert("client.samples", pooled.len() as f64);
}

/// Asserts what the per-replica set-up is for: the same seed gives every
/// replica the same keys, and a verdict memoized by one replica's
/// directory is unknown to another's.
fn check_memo_independence(seed: u64) -> Result<(), String> {
    let a = ProtocolConfig::new(N, F).seed(seed).setup();
    let b = ProtocolConfig::new(N, F).seed(seed).setup();
    if a.keys[0].public() != b.keys[0].public() {
        return Err("same seed gave different keys".into());
    }
    let digest = Sha256::digest(b"ftm-benchmark memo probe");
    let sig = a.keys[0].sign_digest(&digest);
    let verify = |dir: &KeyDirectory| dir.verify_digest(0, &digest, &sig).is_ok();
    let ok = verify(&a.dir)
        && (a.dir.cache_misses(), b.dir.cache_misses()) == (1, 0)
        && verify(&b.dir)
        && (b.dir.cache_misses(), b.dir.cache_hits()) == (1, 0);
    if ok {
        Ok(())
    } else {
        Err("per-replica verdict memos are not independent".into())
    }
}

/// Median over `reps` of every value they all report.
fn medians(reps: &[&Rep]) -> Values {
    let Some(first) = reps.first() else {
        return Values::new();
    };
    first
        .values
        .keys()
        .map(|&k| {
            let v: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.values.get(k).copied())
                .collect();
            (k, median(&v))
        })
        .collect()
}

/// Runs `spec`: as many repetitions on fresh clusters as `seconds` holds
/// [`WINDOW_NS`] windows, seeds derived from `seed` and the repetition
/// index; each metric is the median repetition (the latency tail is
/// taken over the pooled samples). A traced run alternates two plain and
/// two traced repetitions and reports the traced pair, and how it
/// compares to the plain.
pub fn run(spec: &TcpSpec, seed: u64, seconds: u64, traced: bool) -> Result<RunOutput, String> {
    check_fd_limit(spec)?;
    check_memo_independence(seed)?;
    let plan: Vec<bool> = if traced {
        vec![false, true, false, true]
    } else {
        vec![false; (seconds * 1_000_000_000 / WINDOW_NS).max(2) as usize]
    };
    let mut reps = Vec::with_capacity(plan.len());
    for (i, &with_trace) in plan.iter().enumerate() {
        let rep = run_rep(spec, derive_seed(seed, i as u64), WINDOW_NS, with_trace)?;
        eprintln!(
            "  repetition {i}: commit p50 {:.0} us  {:.0} commands/s  cpu {:.2} us/command",
            rep.values["commit_p50_us"],
            rep.values["throughput_cps"],
            rep.values["process.cpu_us_per_cmd"]
        );
        reps.push(rep);
    }

    let mut errors: Vec<String> = reps.iter().flat_map(|r| r.errors.iter().cloned()).collect();
    let with_trace = |t: bool| -> Vec<&Rep> {
        let picked = reps.iter().zip(&plan).filter(|(_, &p)| p == t);
        picked.map(|(r, _)| r).collect()
    };
    let reported = with_trace(traced);
    let mut values = medians(&reported);
    if traced {
        latency_tail(&mut values, &reported);
        // Overhead on the workload's own figure of merit: throughput when
        // saturated, commit latency at a fixed offered rate.
        let plain = with_trace(false);
        let overhead = match spec.load {
            Load::Closed { .. } => {
                let tp = |r: &[&Rep]| medians(r)["throughput_cps"];
                ratio(tp(&plain) - tp(&reported), tp(&plain))
            }
            Load::Open { .. } => {
                let p50 = |r: &[&Rep]| medians(r)["commit_p50_us"];
                ratio(p50(&reported) - p50(&plain), p50(&plain))
            }
        };
        values.insert("bench.trace_overhead_pct", 100.0 * overhead);
    }
    // Generator validity. Latency is timed from the due time, so lateness
    // is inside every sample; a *median* latency is only as good as the
    // median lateness is small. (The tail of the lateness is reported as
    // client.gen_lag_p99_us: with four busy replicas on two cores it is
    // the scheduler's wake-up tail, milliseconds, and bounds nothing.)
    if let Load::Open { .. } = spec.load {
        let (lag, p50) = (values["client.gen_lag_p50_us"], values["commit_p50_us"]);
        if lag > p50 / 10.0 {
            errors.push(format!(
                "invalid run: generator lag p50 {lag:.0} us exceeds 10% of commit p50 {p50:.0} us"
            ));
        }
    }
    Ok(RunOutput {
        values,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        errors,
        spans: reps.pop().map_or_else(Vec::new, |r| r.spans),
        counts_line: None,
    })
}
