//! One replica on the TCP transport: a single-threaded readiness loop
//! below, a sequential staged-effects event loop above.
//!
//! [`run_node`] hosts a single [`Actor`] — the same type the simulator
//! runs — on real sockets. Unlike the PR 9 transport (acceptor + one
//! reader thread per connection + one writer thread per peer), everything
//! now happens on the caller's thread: a poll(2)-shaped readiness probe
//! (see [`crate::poll`]) finds sockets with work, per-connection ring
//! buffers ([`crate::ring`]) absorb partial frames and unflushed writes,
//! and the actor's callbacks run inline between I/O rounds, still through
//! [`ftm_runtime::step`] so the staged-effects discipline is identical to
//! the simulator's.
//!
//! # Cadence
//!
//! One iteration (`NodeLoop::turn`) fires what is due, writes what was
//! staged, probes the **active set** — inbound peer links, pending
//! handshakes, and clients that sent a request in the last 100 ms — and,
//! if none of that found work, sleeps **one slice**: 200 µs while a frame
//! was read in the last 10 ms, 1 ms otherwise. Everything that costs a
//! syscall per connection or more — `accept`, redials, probing silent
//! clients and outbound links (EOF watch), retrying blocked writes,
//! evicting half-open sockets, rebuilding the active set — runs once per
//! millisecond tick (`NodeLoop::sweep`), so a busy node pays per
//! connection once a millisecond, a quiet one what it paid when every
//! iteration was 1 ms, and a dialing client or rejoining peer is picked up
//! within a tick.
//!
//! The slice shortens how soon a frame is *noticed*, not how long it is
//! *held* ([`NodeConfig::delivery_delay_ms`]). Timers and held frames are
//! looked at when a socket had work, or when the wake-up the loop set as
//! it went idle comes — whole milliseconds ahead, as ever — and not at
//! every slice in between: an otherwise idle node holds a frame for the
//! full delay rather than to the next tick boundary, which the slices
//! would otherwise find ~0.5 ms sooner on average.
//!
//! Three properties the threaded transport lacked:
//!
//! * **Scales to thousands of clients** — a connection costs a slab slot
//!   and two ring buffers, not two OS threads.
//! * **Peer reconnect** — an outbound peer link that drops is redialed
//!   with capped exponential backoff + deterministic jitter
//!   ([`crate::backoff`]), re-validating the handshake, and frames staged
//!   while the link was down are queued (bounded) and flushed on
//!   reconnect. A restarted replica rejoins the mesh.
//! * **Backpressure** — a client that stops reading cannot grow the
//!   node's write buffer past a cap: the connection is dropped with a
//!   `backpressure-disconnect` note instead.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};

use ftm_crypto::prng::{derive_seed, Rng64, Xoshiro256PlusPlus};
use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode};
use ftm_runtime::note::Note;
use ftm_runtime::{
    step, Actor, Duration, Effects, Payload, ProcessId, Runtime, StagedSend, TimerTag, VirtualTime,
};

use crate::backoff::Backoff;
use crate::clock::WallClock;
use crate::codec::{frame_into, Hello, DEFAULT_MAX_FRAME};
use crate::poll::{poll, PollFd, POLLIN};
use crate::ring::RingBuf;

/// How long a freshly accepted connection may sit without completing its
/// handshake before the loop evicts it (half-open defense).
const HANDSHAKE_TIMEOUT_MS: u64 = 3_000;

/// Idle sleep while the node is hot (a frame was read within
/// [`HOT_WINDOW_MS`]): a frame that lands mid-sleep is noticed this much
/// (plus ~0.1 ms of `thread::sleep` overshoot) later. Each sleep costs
/// ~21 µs of CPU whatever its length, so halving this doubles an
/// otherwise idle hot node's CPU for ~0.1 ms per hop (DESIGN.md §12).
const HOT_SLICE_US: u64 = 200;

/// Idle sleep otherwise — a pre-barrier, halted or quiet node.
const COLD_SLICE_US: u64 = 1_000;

/// How long after the last frame the loop keeps the short slice. Longer
/// than a slot of the replicated log at any hop delay the benchmark uses,
/// so a cluster deciding slots back to back never cools between hops.
const HOT_WINDOW_MS: u64 = 10;

/// How long after its last request a client connection stays in the
/// active set (probed every iteration, not once per tick).
const ACTIVE_CLIENT_MS: u64 = 100;

/// Write-ring cap for client connections: the backpressure boundary. A
/// client whose replies would exceed this is disconnected.
const CLIENT_WRITE_CAP: usize = 256 * 1024;

/// Write-ring cap for peer connections (peers are cooperative readers;
/// overflow spills to the reconnect queue).
const PEER_WRITE_CAP: usize = 4 << 20;

/// Byte cap on frames queued for a disconnected peer. Beyond it the
/// oldest queued frames are dropped — the link behaves crash-lossy, which
/// the protocol already tolerates.
const PEER_QUEUE_CAP: usize = 16 << 20;

/// Start-barrier deadline (mesh formation). Peer links themselves are
/// redialed forever (with backoff); this only bounds how long startup
/// waits for a full mesh.
const START_BARRIER_DEADLINE_MS: u64 = 10_000;

/// Per-attempt bound on a blocking dial (the loop stalls at most this
/// long when a peer is dialable but slow to answer).
const DIAL_STEP_MS: u64 = 300;

/// Bound on the exit flush that drains staged writes before returning.
const EXIT_FLUSH_MS: u64 = 2_000;

/// Configuration for one transport node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's identity (index into [`peers`](NodeConfig::peers)).
    pub me: ProcessId,
    /// Total number of replicas `n`.
    pub n: usize,
    /// Cluster id checked during the connection handshake; connections
    /// from a different cluster are dropped.
    pub cluster: u64,
    /// Base seed for this node's pseudo-random stream (per-node stream is
    /// derived from it, so all replicas can share one base seed).
    pub seed: u64,
    /// Dial addresses of all `n` replicas, indexed by process id.
    pub peers: Vec<String>,
    /// Hard wall-clock bound on the whole run, in ms (safety net; the
    /// node reports `halted: false` if it trips).
    pub run_timeout_ms: u64,
    /// Exit the event loop as soon as the actor halts (used by bounded
    /// test clusters; servers keep running to answer client requests).
    pub exit_on_halt: bool,
    /// Artificial per-hop delivery latency in ms (0 = deliver as fast as
    /// the socket allows). Inbound peer frames are held for this long
    /// before reaching the actor — the transport's `tc netem` equivalent,
    /// used by loopback tests to emulate a network whose hop time
    /// dominates thread-scheduling noise. Loopback self-sends are never
    /// delayed (they are part of the staged-effects semantics, not the
    /// network).
    pub delivery_delay_ms: u64,
    /// Hold `on_start` until the cluster is fully meshed and every peer
    /// has confirmed its own mesh (two-phase barrier, bounded at 10 s).
    /// Without it, fast replicas can decide early slots before a slow
    /// peer's connection is even accepted — which is harmless for safety
    /// but makes first-contact behavior (e.g. detection of a faulty
    /// peer's very first message) a startup race. On timeout the node
    /// starts anyway: a crashed peer must not block the cluster forever.
    /// A replica *rejoining* a running cluster disables this: its peers
    /// are already past their own barriers.
    pub start_barrier: bool,
}

impl NodeConfig {
    /// A config with default tunables: 120 s run bound, keep serving
    /// after halt. The frame cap ([`DEFAULT_MAX_FRAME`]) and the 10 s
    /// start-barrier deadline are constants, not tunables.
    pub fn new(me: ProcessId, peers: Vec<String>, cluster: u64, seed: u64) -> Self {
        NodeConfig {
            me,
            n: peers.len(),
            cluster,
            seed,
            peers,
            run_timeout_ms: 120_000,
            exit_on_halt: false,
            delivery_delay_ms: 0,
            start_barrier: true,
        }
    }
}

/// Outcome of one node's run, mirroring the per-process slice of the
/// simulator's run report (minus the schedule-dependent trace).
#[derive(Debug, Clone)]
pub struct NetReport<D> {
    /// Which replica this is.
    pub me: ProcessId,
    /// The decision recorded, if any (first decision wins).
    pub decision: Option<D>,
    /// Whether the actor halted itself.
    pub halted: bool,
    /// Whether a second, different decision was attempted.
    pub contradicted: bool,
    /// All notes the actor emitted, in order (includes its convictions;
    /// see [`parse_convictions`]).
    pub notes: Vec<String>,
    /// Messages handed to the transport (loopback included).
    pub msgs_sent: u64,
    /// Messages delivered to the actor (loopback included).
    pub msgs_received: u64,
    /// Frame bytes written to peers plus loopback payload bytes.
    pub bytes_sent: u64,
    /// Frame bytes received from peers plus loopback payload bytes.
    pub bytes_received: u64,
    /// Node-local milliseconds from start to event-loop exit.
    pub end_time: VirtualTime,
}

/// Read-only snapshot of a node's state handed to the client-request
/// service callback.
#[derive(Debug)]
pub struct NodeView<'a, D> {
    /// Which replica this is.
    pub me: ProcessId,
    /// Node-local current time (milliseconds since start).
    pub now: VirtualTime,
    /// The decision recorded so far, if any.
    pub decision: Option<&'a D>,
    /// Whether the actor has halted.
    pub halted: bool,
    /// Whether a contradictory second decision was attempted.
    pub contradicted: bool,
    /// Notes emitted so far.
    pub notes: &'a [String],
    /// Messages handed to the transport so far.
    pub msgs_sent: u64,
    /// Messages delivered to the actor so far.
    pub msgs_received: u64,
    /// Bytes written so far.
    pub bytes_sent: u64,
    /// Bytes received so far.
    pub bytes_received: u64,
}

/// What the service callback returns for one client request.
#[derive(Debug, Clone)]
pub struct ServiceReply {
    /// Frame payload written back to the client.
    pub frame: Vec<u8>,
    /// When `true`, the node exits its event loop after replying.
    pub shutdown: bool,
}

impl ServiceReply {
    /// A plain reply; the node keeps running.
    pub fn reply(frame: Vec<u8>) -> Self {
        ServiceReply {
            frame,
            shutdown: false,
        }
    }

    /// A final reply; the node exits after sending it.
    pub fn shutdown(frame: Vec<u8>) -> Self {
        ServiceReply {
            frame,
            shutdown: true,
        }
    }
}

/// Extracts `(culprit, class)` pairs from the [`Note::Detected`]s among
/// `notes`, a replicated log's instances included.
pub fn parse_convictions(notes: &[String]) -> Vec<(String, String)> {
    let conviction = |text: &String| match Note::parse(text).1 {
        Note::Detected(found) => Some((found.culprit.to_string(), found.class.to_string())),
        _ => None,
    };
    notes.iter().filter_map(conviction).collect()
}

/// The transport-side [`Runtime`]: sockets for delivery, a wall clock for
/// time, a scan-min vector for timers. Outbound frames land in per-peer
/// outboxes that the readiness loop drains into connection write rings
/// after every actor step.
struct NetDriver<M, D> {
    me: ProcessId,
    n: usize,
    clock: WallClock,
    rng: Xoshiro256PlusPlus,
    /// Outbound frame staging, indexed by peer id (unused at `me`).
    outbox: Vec<VecDeque<Vec<u8>>>,
    /// Self-sends with their payload size, delivered after the current
    /// callback's effects apply.
    loopback: VecDeque<(M, u64)>,
    /// Pending timers as `(deadline, seq, tag)`; `seq` breaks ties in
    /// scheduling order, matching the simulator's event queue.
    timers: Vec<(VirtualTime, u64, TimerTag)>,
    timer_seq: u64,
    notes: Vec<String>,
    decision: Option<D>,
    contradicted: bool,
    halted: bool,
    msgs_sent: u64,
    msgs_received: u64,
    bytes_sent: u64,
    bytes_received: u64,
}

impl<M: Payload + CanonicalEncode, D: Clone + std::fmt::Debug + PartialEq> NetDriver<M, D> {
    fn new(cfg: &NodeConfig, clock: WallClock) -> Self {
        NetDriver {
            me: cfg.me,
            n: cfg.n,
            clock,
            rng: Xoshiro256PlusPlus::from_seed(derive_seed(cfg.seed, u64::from(cfg.me.0))),
            outbox: (0..cfg.n).map(|_| VecDeque::new()).collect(),
            loopback: VecDeque::new(),
            timers: Vec::new(),
            timer_seq: 0,
            notes: Vec::new(),
            decision: None,
            contradicted: false,
            halted: false,
            msgs_sent: 0,
            msgs_received: 0,
            bytes_sent: 0,
            bytes_received: 0,
        }
    }

    /// Stages one encoded frame for a remote peer.
    fn send_bytes(&mut self, to: ProcessId, bytes: Vec<u8>) {
        self.msgs_sent += 1;
        self.bytes_sent += bytes.len() as u64 + 4;
        if let Some(q) = self.outbox.get_mut(to.index()) {
            q.push_back(bytes);
        }
    }

    /// Queues a self-send for delivery after the current effects apply.
    fn send_loopback(&mut self, msg: M) {
        let bytes = msg.size_bytes() as u64;
        self.msgs_sent += 1;
        self.bytes_sent += bytes;
        self.loopback.push_back((msg, bytes));
    }

    /// Earliest pending timer deadline, if any.
    fn next_deadline(&self) -> Option<VirtualTime> {
        self.timers.iter().map(|&(at, _, _)| at).min()
    }

    /// Pops the due timer with the smallest `(deadline, seq)`, if any.
    fn pop_due(&mut self, now: VirtualTime) -> Option<TimerTag> {
        let idx = self
            .timers
            .iter()
            .enumerate()
            .filter(|(_, &(at, _, _))| at <= now)
            .min_by_key(|(_, &(at, seq, _))| (at, seq))
            .map(|(i, _)| i)?;
        Some(self.timers.swap_remove(idx).2)
    }
}

impl<M: Payload + CanonicalEncode, D: Clone + std::fmt::Debug + PartialEq> Runtime<M, D>
    for NetDriver<M, D>
{
    fn now(&self) -> VirtualTime {
        self.clock.now()
    }

    fn process_count(&self) -> usize {
        self.n
    }

    fn rng_draw(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn dispatch(&mut self, _from: ProcessId, send: StagedSend<M>) {
        match send {
            StagedSend::To(to, msg) => {
                if to == self.me {
                    self.send_loopback(msg);
                } else {
                    let bytes = msg.canonical_bytes();
                    self.send_bytes(to, bytes);
                }
            }
            StagedSend::ToAll(msg) => {
                // Encode once; each remote peer gets a byte-level copy of
                // the same canonical frame (the last one the frame itself),
                // the self-copy is the staged message, still decoded.
                let frame = msg.canonical_bytes();
                let me = self.me;
                let mut remotes = (0..self.n as u32).map(ProcessId).filter(|&to| to != me);
                let last = remotes.next_back();
                for to in remotes {
                    self.send_bytes(to, frame.clone());
                }
                if let Some(to) = last {
                    self.send_bytes(to, frame);
                }
                self.send_loopback(msg);
            }
        }
    }

    fn schedule(&mut self, _at: ProcessId, delay: Duration, tag: TimerTag) {
        let deadline = self.clock.now() + delay;
        self.timers.push((deadline, self.timer_seq, tag));
        self.timer_seq += 1;
    }

    fn emit_note(&mut self, _at: ProcessId, text: String) {
        self.notes.push(text);
    }

    fn record_decision(&mut self, _at: ProcessId, value: D) {
        match &self.decision {
            None => self.decision = Some(value),
            Some(prev) if *prev != value => self.contradicted = true,
            Some(_) => {}
        }
    }

    fn record_halt(&mut self, _at: ProcessId) {
        self.halted = true;
        // A halted process receives no further callbacks.
        self.timers.clear();
        self.loopback.clear();
    }
}

/// What one slab slot's connection is for, decided by its handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnKind {
    /// Accepted but handshake not yet received (evicted on timeout).
    Pending,
    /// Inbound connection from peer `id` (read-only: peers write on the
    /// connections *they* dial).
    PeerIn(u32),
    /// Outbound connection this node dialed to peer `id` (write-mostly;
    /// reads only observe EOF to trigger reconnect).
    PeerOut(u32),
    /// A client's request/reply connection.
    Client,
}

/// One connection in the slab: a non-blocking socket plus its read/write
/// ring buffers.
struct Conn {
    stream: TcpStream,
    rb: RingBuf,
    wb: RingBuf,
    kind: ConnKind,
    opened_ms: u64,
    /// When a client last sent a request (its handshake counts).
    last_request_ms: u64,
}

impl Conn {
    fn new(stream: TcpStream, kind: ConnKind, now_ms: u64) -> Self {
        let write_cap = match kind {
            ConnKind::PeerOut(_) => PEER_WRITE_CAP,
            _ => CLIENT_WRITE_CAP,
        };
        Conn {
            stream,
            rb: RingBuf::with_max(DEFAULT_MAX_FRAME + 4),
            wb: RingBuf::with_max(write_cap),
            kind,
            opened_ms: now_ms,
            last_request_ms: now_ms,
        }
    }

    /// Whether the loop probes this socket every iteration: a frame on it
    /// is on some command's critical path. Outbound links are write-only
    /// and silent clients are many; both wait for the sweep.
    fn is_active(&self, now_ms: u64) -> bool {
        match self.kind {
            ConnKind::Pending | ConnKind::PeerIn(_) => true,
            ConnKind::PeerOut(_) => false,
            ConnKind::Client => now_ms.saturating_sub(self.last_request_ms) <= ACTIVE_CLIENT_MS,
        }
    }
}

/// The idle sleep of an iteration at `now_ms` on a node that last read a
/// frame at `last_frame_ms`.
fn slice(now_ms: u64, last_frame_ms: u64) -> std::time::Duration {
    let hot = now_ms.saturating_sub(last_frame_ms) <= HOT_WINDOW_MS;
    std::time::Duration::from_micros(if hot { HOT_SLICE_US } else { COLD_SLICE_US })
}

/// The tick from which a peer frame read at `read` may reach the actor:
/// whole ticks, so with a delay of 1 a frame is never delivered in the
/// tick it was read in, and with 0 the next `deliver_due` takes it.
fn hold_until(read: VirtualTime, delivery_delay_ms: u64) -> VirtualTime {
    read + Duration::of(delivery_delay_ms)
}

/// The dial-side state of one peer link: where to reconnect, when the
/// backoff allows the next attempt, and the frames staged while the link
/// is down.
struct PeerLink {
    addr: String,
    resolved: Option<SocketAddr>,
    /// Slab index of the live outbound connection, if any.
    conn: Option<usize>,
    backoff: Backoff,
    /// Earliest node-local ms at which the next dial may happen.
    next_dial_ms: u64,
    /// Frames staged while disconnected (or while the write ring is
    /// full), flushed in order on reconnect. Bounded by
    /// [`PEER_QUEUE_CAP`]; overflow drops the oldest frame (crash-lossy).
    queue: VecDeque<Vec<u8>>,
    queued_bytes: usize,
    dropped_note: bool,
}

impl PeerLink {
    fn enqueue(&mut self, frame: Vec<u8>) -> bool {
        let mut dropped = false;
        while self.queued_bytes + frame.len() + 4 > PEER_QUEUE_CAP {
            let Some(old) = self.queue.pop_front() else {
                break;
            };
            self.queued_bytes -= old.len() + 4;
            dropped = true;
        }
        self.queued_bytes += frame.len() + 4;
        self.queue.push_back(frame);
        dropped
    }
}

/// The two-phase start barrier as a loop mode (see
/// [`NodeConfig::start_barrier`]). Phase 1 (`Meshing`) waits for a full
/// local mesh, then announces readiness with an *empty* frame — protocol
/// messages are never zero-length, so the empty frame is free as a
/// transport sentinel. Phase 2 (`Announcing`) waits for every peer's
/// sentinel. Both phases share one deadline; on timeout the node starts
/// anyway (a crashed peer must not wedge the cluster) and notes the gap.
///
/// Sentinel receipt is recorded in [`NodeLoop::peer_ready`], not in the
/// phase itself: a fast peer's sentinel can land while this node is
/// still meshing, and dropping it would wedge the announcing phase until
/// its deadline.
enum BarrierState {
    Meshing { deadline_ms: u64 },
    Announcing { deadline_ms: u64 },
    Done,
}

/// Everything the readiness loop owns. One instance per [`run_node`]
/// call; no threads, no channels — all I/O and all actor callbacks happen
/// on the thread that runs [`NodeLoop::run`].
struct NodeLoop<'a, A: Actor, S> {
    cfg: &'a NodeConfig,
    clock: WallClock,
    listener: TcpListener,
    conns: Vec<Option<Conn>>,
    links: Vec<Option<PeerLink>>,
    /// Which peers have ever completed an inbound handshake (barrier
    /// phase 1 bookkeeping; survives disconnects).
    inbound_seen: Vec<bool>,
    /// Which peers have announced start-barrier readiness (empty-frame
    /// sentinels; may arrive in any phase).
    peer_ready: Vec<bool>,
    driver: NetDriver<A::Msg, A::Decision>,
    /// The buffers every callback of `actor` stages into.
    staging: Effects<A::Msg, A::Decision>,
    actor: A,
    service: S,
    /// Inbound peer frames awaiting their delivery deadline, as
    /// `(due, from, frame)` — FIFO order is deadline order because the
    /// delay is constant.
    holdq: VecDeque<(VirtualTime, u32, Vec<u8>)>,
    barrier: BarrierState,
    shutdown: bool,
    /// Whether this iteration made progress: it then skips the idle
    /// sleep, and the next one looks at timers and held frames.
    busy: bool,
    /// Slab indices probed every iteration (see [`Conn::is_active`]),
    /// rebuilt by the sweep. May name a slot that has since closed —
    /// those are skipped.
    active: Vec<usize>,
    /// The tick of the last sweep (`u64::MAX` before the first).
    swept_ms: u64,
    /// The microsecond reading from which an idle loop looks at its timers
    /// and held frames again. Set when the loop goes idle, to whole
    /// milliseconds ahead ([`WallClock::until`]); a socket with work
    /// (`busy`) overrides it. This, not the slice, is what paces the hold:
    /// a frame due next tick on an otherwise idle node waits a full
    /// millisecond, not for the tick boundary.
    wake_us: u64,
    /// When the last complete frame was parsed off any connection.
    last_frame_ms: u64,
    /// Readiness probes issued, for the active-set tests.
    #[cfg(test)]
    probes: u64,
}

impl<'a, A, S> NodeLoop<'a, A, S>
where
    A: Actor,
    A::Msg: CanonicalEncode + CanonicalDecode,
    S: FnMut(&mut A, &NodeView<'_, A::Decision>, &[u8]) -> ServiceReply,
{
    /// A loop over `listener` that has not run yet.
    fn new(cfg: &'a NodeConfig, listener: TcpListener, actor: A, service: S) -> io::Result<Self> {
        assert_eq!(
            cfg.peers.len(),
            cfg.n,
            "peer list must have one address per replica"
        );
        assert!(cfg.me.index() < cfg.n, "me out of range");
        listener.set_nonblocking(true)?;
        let clock = WallClock::start();
        let links = (0..cfg.n)
            .map(|id| {
                if id == cfg.me.index() {
                    None
                } else {
                    Some(PeerLink {
                        addr: cfg.peers[id].clone(),
                        resolved: None,
                        conn: None,
                        backoff: Backoff::new(
                            derive_seed(cfg.seed, u64::from(cfg.me.0)) ^ id as u64,
                        ),
                        next_dial_ms: 0,
                        queue: VecDeque::new(),
                        queued_bytes: 0,
                        dropped_note: false,
                    })
                }
            })
            .collect();
        let barrier = if cfg.start_barrier && cfg.n > 1 {
            BarrierState::Meshing {
                deadline_ms: START_BARRIER_DEADLINE_MS,
            }
        } else {
            BarrierState::Done
        };
        Ok(NodeLoop {
            cfg,
            clock,
            listener,
            conns: Vec::new(),
            links,
            inbound_seen: vec![false; cfg.n],
            peer_ready: vec![false; cfg.n],
            driver: NetDriver::new(cfg, clock),
            staging: Effects::default(),
            actor,
            service,
            holdq: VecDeque::new(),
            barrier,
            shutdown: false,
            busy: false,
            active: Vec::new(),
            swept_ms: u64::MAX,
            wake_us: 0,
            last_frame_ms: 0,
            #[cfg(test)]
            probes: 0,
        })
    }

    fn now_ms(&self) -> u64 {
        self.clock.now().ticks()
    }

    /// Delivers every queued loopback message to the actor (unless
    /// halted), then stages any sends those callbacks produced.
    fn drain_loopback(&mut self) {
        loop {
            if self.driver.halted {
                return;
            }
            let Some((msg, bytes)) = self.driver.loopback.pop_front() else {
                return;
            };
            self.driver.msgs_received += 1;
            self.driver.bytes_received += bytes;
            let me = self.driver.me;
            let actor = &mut self.actor;
            step(&mut self.driver, &mut self.staging, me, |ctx| {
                actor.on_message(me, &msg, ctx);
            });
        }
    }

    /// Fires `on_start` (barrier cleared or disabled).
    fn start_actor(&mut self) {
        let me = self.driver.me;
        let actor = &mut self.actor;
        step(&mut self.driver, &mut self.staging, me, |ctx| {
            actor.on_start(ctx);
        });
        self.drain_loopback();
        self.pump();
    }

    /// Closes slab slot `i`; an outbound peer link schedules a redial.
    fn close_conn(&mut self, i: usize) {
        let Some(conn) = self.conns[i].take() else {
            return;
        };
        if let ConnKind::PeerOut(id) = conn.kind {
            // Whatever the write ring still held is lost with the socket;
            // the reconnect queue keeps only frames staged from now on.
            if let Some(link) = self.links.get_mut(id as usize).and_then(Option::as_mut) {
                if link.conn == Some(i) {
                    link.conn = None;
                    link.next_dial_ms = self.clock.now().ticks() + link.backoff.next_delay_ms();
                }
            }
        }
    }

    /// Puts `conn` into the first free slab slot, returning its index.
    fn insert_conn(&mut self, conn: Conn) -> usize {
        match self.conns.iter().position(Option::is_none) {
            Some(i) => {
                self.conns[i] = Some(conn);
                i
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        }
    }

    /// Accepts every pending inbound connection (non-blocking).
    fn accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let conn = Conn::new(stream, ConnKind::Pending, self.now_ms());
                    self.insert_conn(conn);
                    self.busy = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Dials every disconnected peer link whose backoff window has
    /// elapsed; on success the handshake frame is staged and the
    /// reconnect queue is re-targeted at the new write ring.
    fn dial_due(&mut self) {
        for id in 0..self.cfg.n {
            let now = self.now_ms();
            let Some(link) = self.links[id].as_mut() else {
                continue;
            };
            if link.conn.is_some() || now < link.next_dial_ms {
                continue;
            }
            if link.resolved.is_none() {
                link.resolved = link
                    .addr
                    .to_socket_addrs()
                    .ok()
                    .and_then(|mut addrs| addrs.next());
            }
            let Some(addr) = link.resolved else {
                link.next_dial_ms = now + link.backoff.next_delay_ms();
                continue;
            };
            match TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(DIAL_STEP_MS))
            {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        link.next_dial_ms = now + link.backoff.next_delay_ms();
                        continue;
                    }
                    let mut conn = Conn::new(stream, ConnKind::PeerOut(id as u32), now);
                    let hello = Hello::Peer {
                        id: self.cfg.me.0,
                        cluster: self.cfg.cluster,
                    };
                    // The write ring is empty, so the handshake always fits.
                    frame_into(&mut conn.wb, &hello.canonical_bytes());
                    link.backoff.reset();
                    let idx = self.insert_conn(conn);
                    if let Some(link) = self.links[id].as_mut() {
                        link.conn = Some(idx);
                    }
                    self.busy = true;
                }
                Err(_) => {
                    link.next_dial_ms = now + link.backoff.next_delay_ms();
                }
            }
        }
    }

    /// Moves staged outbox frames into peer write rings (or reconnect
    /// queues) and flushes those rings. Client rings are flushed where
    /// they are filled (`read_conn`); whatever a socket would not take is
    /// retried by the sweep.
    fn pump(&mut self) {
        for id in 0..self.cfg.n {
            // First drain the reconnect queue, then fresh outbox frames,
            // preserving send order across a reconnect. Loop-local sends
            // to `me` never reach the outbox, so a missing link ends the
            // drain immediately.
            while let Some(link) = self.links[id].as_mut() {
                let wb = link
                    .conn
                    .and_then(|i| self.conns[i].as_mut())
                    .map(|conn| &mut conn.wb);
                if let Some(frame) = link.queue.front() {
                    if !wb.is_some_and(|wb| frame_into(wb, frame)) {
                        break; // no live connection, or ring full
                    }
                    link.queued_bytes -= frame.len() + 4;
                    link.queue.pop_front();
                } else if let Some(frame) = self.driver.outbox[id].pop_front() {
                    if !wb.is_some_and(|wb| frame_into(wb, &frame)) {
                        // Spill the fresh frame to the bounded queue; the
                        // next turn finds it at the queue's front, fails
                        // the same push and stops for this peer.
                        if link.enqueue(frame) && !link.dropped_note {
                            link.dropped_note = true;
                            self.driver.notes.push(format!("peer-queue-overflow p{id}"));
                        }
                        continue;
                    }
                } else {
                    break;
                }
                self.busy = true;
            }
            if let Some(i) = self.links[id].as_ref().and_then(|link| link.conn) {
                self.flush_conn(i);
            }
        }
    }

    /// Writes slot `i`'s write ring to its socket until it is empty or
    /// the socket would block; an error closes the connection.
    fn flush_conn(&mut self, i: usize) {
        let mut failed = false;
        if let Some(conn) = self.conns[i].as_mut() {
            while !conn.wb.is_empty() {
                let Conn { stream, wb, .. } = conn;
                match wb.write_to(&mut &*stream) {
                    Ok(0) => break,
                    Ok(_) => self.busy = true,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        if failed {
            self.close_conn(i);
        }
    }

    /// Advances the start barrier; fires `on_start` when it clears.
    fn barrier_step(&mut self) {
        match &self.barrier {
            BarrierState::Done => {}
            BarrierState::Meshing { deadline_ms } => {
                let deadline = *deadline_ms;
                let meshed = self.links.iter().flatten().all(|link| link.conn.is_some())
                    && self
                        .inbound_seen
                        .iter()
                        .enumerate()
                        .all(|(i, &seen)| seen || i == self.cfg.me.index());
                if meshed || self.now_ms() >= deadline {
                    // Announce readiness to every peer with an empty
                    // sentinel frame (4 wire bytes, no payload).
                    for id in 0..self.cfg.n {
                        if self.links[id].is_some() {
                            self.driver.outbox[id].push_back(Vec::new());
                            self.driver.bytes_sent += 4;
                        }
                    }
                    self.peer_ready[self.cfg.me.index()] = true;
                    self.barrier = BarrierState::Announcing {
                        deadline_ms: deadline,
                    };
                    self.busy = true;
                }
            }
            BarrierState::Announcing { deadline_ms } => {
                if self.peer_ready.iter().all(|&r| r) {
                    self.barrier = BarrierState::Done;
                    self.start_actor();
                } else if self.now_ms() >= *deadline_ms {
                    let missing = self.peer_ready.iter().filter(|&&r| !r).count();
                    self.driver
                        .notes
                        .push(format!("mesh-incomplete missing={missing}"));
                    self.barrier = BarrierState::Done;
                    self.start_actor();
                }
            }
        }
    }

    /// Fires every due timer (oldest deadline first), interleaving the
    /// loopback deliveries each may stage.
    fn fire_timers(&mut self) {
        while !self.driver.halted {
            let now = self.clock.now();
            let Some(tag) = self.driver.pop_due(now) else {
                break;
            };
            let me = self.driver.me;
            let actor = &mut self.actor;
            step(&mut self.driver, &mut self.staging, me, |ctx| {
                actor.on_timer(tag, ctx);
            });
            self.drain_loopback();
            self.busy = true;
        }
    }

    /// Delivers every held peer frame whose delivery deadline has passed.
    fn deliver_due(&mut self) {
        loop {
            match self.holdq.front() {
                Some(&(due, _, _)) if due <= self.clock.now() => {}
                _ => break,
            }
            let Some((_, from, frame)) = self.holdq.pop_front() else {
                break;
            };
            self.busy = true;
            self.driver.bytes_received += frame.len() as u64 + 4;
            match A::Msg::from_canonical_bytes(&frame) {
                Ok(msg) => {
                    self.driver.msgs_received += 1;
                    if !self.driver.halted {
                        let me = self.driver.me;
                        let actor = &mut self.actor;
                        step(&mut self.driver, &mut self.staging, me, |ctx| {
                            actor.on_message(ProcessId(from), &msg, ctx);
                        });
                        self.drain_loopback();
                    }
                }
                Err(e) => {
                    // An undecodable frame is transport-level garbage;
                    // note it and drop it, never panic on peer input.
                    self.driver
                        .notes
                        .push(format!("decode-error from=p{from} err={e}"));
                }
            }
        }
    }

    /// Whether slot `i`'s socket has bytes, an EOF or an error to read:
    /// one zero-timeout [`poll`] — a `peek`; no sleep, no allocation.
    fn readable(&mut self, i: usize) -> bool {
        let Some(conn) = self.conns[i].as_ref() else {
            return false;
        };
        #[cfg(test)]
        {
            self.probes += 1;
        }
        poll(
            &mut [PollFd::new(&conn.stream, POLLIN)],
            std::time::Duration::ZERO,
        ) > 0
    }

    /// Probes the active set and reads the sockets that are ready.
    fn read_active(&mut self) {
        // Nothing below adds to or reorders the list: reading can only
        // close slots (skipped) or re-type a pending one (still active).
        for k in 0..self.active.len() {
            let i = self.active[k];
            if self.readable(i) {
                self.read_conn(i);
            }
        }
    }

    /// The once-per-tick pass over every connection, run right after
    /// `accept` and `dial_due` (an `accept` that finds nothing costs as
    /// much as ten probes, so it is per tick too): evicts half-open
    /// ones that out-sat the handshake timeout, probes the sockets the
    /// active set leaves out (silent clients; outbound links, which only
    /// ever show EOF), parses bytes whose parsing was deferred (client
    /// requests during the start barrier), retries blocked writes, and
    /// rebuilds the active set.
    fn sweep(&mut self, now: u64) {
        self.active.clear();
        for i in 0..self.conns.len() {
            let Some(conn) = self.conns[i].as_ref() else {
                continue;
            };
            if conn.kind == ConnKind::Pending
                && now.saturating_sub(conn.opened_ms) > HANDSHAKE_TIMEOUT_MS
            {
                self.driver.notes.push("handshake-timeout evicted".into());
                self.close_conn(i);
                continue;
            }
            if !conn.is_active(now) && self.readable(i) {
                self.read_conn(i);
            } else {
                self.parse_conn(i);
                self.flush_conn(i);
            }
            // Still open, and active — possibly since the read just above.
            if self.conns[i].as_ref().is_some_and(|c| c.is_active(now)) {
                self.active.push(i);
            }
        }
    }

    /// Drains slot `i`'s socket into its read ring, parses the frames
    /// and writes out the replies they earned; EOF or an error closes it.
    fn read_conn(&mut self, i: usize) {
        let mut close = false;
        if let Some(conn) = self.conns[i].as_mut() {
            loop {
                if conn.rb.free() == 0 {
                    break; // inbound backpressure: parse first
                }
                let Conn { stream, rb, .. } = conn;
                match rb.read_from(&mut &*stream) {
                    Ok(0) => {
                        close = true; // EOF (free() > 0 rules out a full ring)
                        break;
                    }
                    Ok(_) => self.busy = true,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
        }
        // Parse what we have even when the socket just closed: frames
        // already buffered must not be lost with the connection.
        self.parse_conn(i);
        if close {
            self.close_conn(i);
        } else {
            self.flush_conn(i);
        }
    }

    /// Extracts complete frames from slot `i`'s read ring and handles
    /// them according to the connection kind.
    fn parse_conn(&mut self, i: usize) {
        loop {
            let Some(conn) = self.conns[i].as_mut() else {
                return;
            };
            let kind = conn.kind;
            // Client requests wait until the barrier clears: the actor is
            // not started yet, so a Status/Submit would observe a replica
            // that does not exist.
            if kind == ConnKind::Client && !matches!(self.barrier, BarrierState::Done) {
                return;
            }
            // Frame extraction: length prefix, bounds check, payload.
            let mut len_buf = [0u8; 4];
            if !conn.rb.copy_to(&mut len_buf, 4) {
                return;
            }
            let len = u32::from_be_bytes(len_buf) as usize;
            if len > DEFAULT_MAX_FRAME {
                self.close_conn(i);
                return;
            }
            if conn.rb.len() < 4 + len {
                return;
            }
            conn.rb.consume(4);
            let mut frame = vec![0u8; len];
            conn.rb.copy_to(&mut frame, len);
            conn.rb.consume(len);
            self.last_frame_ms = self.now_ms();
            match kind {
                ConnKind::Pending => {
                    if !self.handshake(i, &frame) {
                        self.close_conn(i);
                        return;
                    }
                }
                ConnKind::PeerIn(from) => self.handle_peer_frame(from, frame),
                ConnKind::PeerOut(_) => {
                    // Peers never send on connections they accepted; any
                    // payload here is garbage. Drop it.
                }
                ConnKind::Client => {
                    if !self.handle_client_frame(i, frame) {
                        return;
                    }
                }
            }
            self.busy = true;
        }
    }

    /// Validates a `Hello` on a pending connection, re-typing the slot.
    /// Returns `false` if the connection must be dropped.
    fn handshake(&mut self, i: usize, frame: &[u8]) -> bool {
        let Ok(hello) = Hello::from_canonical_bytes(frame) else {
            return false;
        };
        if hello.cluster() != self.cfg.cluster {
            return false;
        }
        match hello {
            Hello::Peer { id, .. } => {
                if id as usize >= self.cfg.n || id == self.cfg.me.0 {
                    return false;
                }
                // A reconnecting peer supersedes its old inbound
                // connection (whose EOF we may not have seen yet).
                for j in 0..self.conns.len() {
                    if j != i
                        && matches!(self.conns[j].as_ref(), Some(c) if c.kind == ConnKind::PeerIn(id))
                    {
                        self.close_conn(j);
                    }
                }
                self.inbound_seen[id as usize] = true;
                if let Some(conn) = self.conns[i].as_mut() {
                    conn.kind = ConnKind::PeerIn(id);
                }
            }
            Hello::Client { .. } => {
                let now = self.now_ms();
                if let Some(conn) = self.conns[i].as_mut() {
                    conn.kind = ConnKind::Client;
                    conn.last_request_ms = now;
                }
            }
        }
        true
    }

    /// Routes one inbound peer frame: barrier sentinel or protocol data.
    fn handle_peer_frame(&mut self, from: u32, frame: Vec<u8>) {
        if frame.is_empty() {
            self.driver.bytes_received += 4;
            // A start-barrier sentinel. Recorded regardless of our own
            // phase: a fast peer announces while we are still meshing,
            // and the mark must survive until we reach announcing.
            if let Some(r) = self.peer_ready.get_mut(from as usize) {
                *r = true;
            }
            return;
        }
        let due = hold_until(self.clock.now(), self.cfg.delivery_delay_ms);
        self.holdq.push_back((due, from, frame));
    }

    /// Services one client request inline. Returns `false` when the
    /// connection was closed (backpressure) and parsing must stop.
    fn handle_client_frame(&mut self, i: usize, frame: Vec<u8>) -> bool {
        let view = NodeView {
            me: self.driver.me,
            now: self.clock.now(),
            decision: self.driver.decision.as_ref(),
            halted: self.driver.halted,
            contradicted: self.driver.contradicted,
            notes: &self.driver.notes,
            msgs_sent: self.driver.msgs_sent,
            msgs_received: self.driver.msgs_received,
            bytes_sent: self.driver.bytes_sent,
            bytes_received: self.driver.bytes_received,
        };
        let out = (self.service)(&mut self.actor, &view, &frame);
        let Some(conn) = self.conns[i].as_mut() else {
            return false;
        };
        conn.last_request_ms = view.now.ticks();
        if !frame_into(&mut conn.wb, &out.frame) {
            // The client is not draining its replies: cap hit, drop it.
            self.driver
                .notes
                .push("backpressure-disconnect client".into());
            self.close_conn(i);
            return false;
        }
        if out.shutdown {
            self.shutdown = true;
        }
        true
    }

    /// How long a loop going idle now leaves its timers and held frames
    /// alone: whole milliseconds until the earliest is due, `None` when
    /// nothing is pending (or the actor has not started).
    fn idle_wait(&self) -> Option<std::time::Duration> {
        if !matches!(self.barrier, BarrierState::Done) {
            return None;
        }
        let held = self.holdq.front().map(|&(due, _, _)| due);
        let due = self.driver.next_deadline().into_iter().chain(held).min()?;
        Some(self.clock.until(due))
    }

    /// One iteration of the readiness loop (see the module's *Cadence*).
    /// Returns `false` once the loop must exit: the actor halted (with
    /// `exit_on_halt`), a client requested shutdown, or the run bound
    /// tripped.
    fn turn(&mut self) -> bool {
        let woken = self.busy || self.clock.micros() >= self.wake_us;
        self.busy = false;
        let now = self.now_ms();
        let started = matches!(self.barrier, BarrierState::Done);
        if self.shutdown
            || now >= self.cfg.run_timeout_ms
            || (self.cfg.exit_on_halt && self.driver.halted && started)
        {
            return false;
        }
        if now != self.swept_ms {
            self.swept_ms = now;
            self.accept();
            self.dial_due();
            self.sweep(now);
        }
        self.barrier_step();
        if woken {
            if matches!(self.barrier, BarrierState::Done) {
                self.fire_timers();
                self.deliver_due();
            }
            self.wake_us = self.idle_wait().map_or(u64::MAX, |wait| {
                let wait_us = u64::try_from(wait.as_micros()).unwrap_or(u64::MAX);
                self.clock.micros().saturating_add(wait_us)
            });
        }
        self.pump();
        self.read_active();
        if !self.busy {
            let left = self.wake_us.saturating_sub(self.clock.micros());
            std::thread::sleep(
                slice(now, self.last_frame_ms).min(std::time::Duration::from_micros(left)),
            );
        }
        true
    }

    /// Runs [`turn`](NodeLoop::turn) until it or the stop flag says to
    /// exit, then flushes and returns the final report.
    fn run(&mut self, stop: &AtomicBool) -> NetReport<A::Decision> {
        if matches!(self.barrier, BarrierState::Done) {
            self.start_actor();
        }
        while !stop.load(Ordering::Relaxed) && self.turn() {}
        // Exit flush: everything staged before the halt/shutdown should
        // reach the wire, but a wedged peer must not hold the node
        // hostage — bound the flush.
        let flush_deadline = self.now_ms() + EXIT_FLUSH_MS;
        loop {
            self.pump();
            for i in 0..self.conns.len() {
                self.flush_conn(i);
            }
            let outstanding = self.conns.iter().flatten().any(|c| !c.wb.is_empty())
                || self.driver.outbox.iter().any(|q| !q.is_empty());
            if !outstanding || self.now_ms() >= flush_deadline {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let end_time = self.clock.now();
        NetReport {
            me: self.driver.me,
            decision: self.driver.decision.clone(),
            halted: self.driver.halted,
            contradicted: self.driver.contradicted,
            notes: std::mem::take(&mut self.driver.notes),
            msgs_sent: self.driver.msgs_sent,
            msgs_received: self.driver.msgs_received,
            bytes_sent: self.driver.bytes_sent,
            bytes_received: self.driver.bytes_received,
            end_time,
        }
    }
}

/// Runs one replica's actor on the TCP transport until it halts (with
/// [`NodeConfig::exit_on_halt`]), a client requests shutdown, or the run
/// bound trips.
///
/// `listener` must already be bound to this node's address — binding is
/// the caller's job so test clusters can use ephemeral ports without a
/// dial race. `service` answers client request frames; it sees the actor
/// (mutably, for protocol-specific state like a log digest) and a
/// [`NodeView`] snapshot of the transport state.
///
/// # Errors
///
/// Only setup failures (listener configuration) surface as `Err`; peer
/// connection losses are absorbed — links are redialed with backoff,
/// matching the crash-recovery model.
pub fn run_node<A, S>(
    cfg: &NodeConfig,
    listener: TcpListener,
    actor: A,
    service: S,
) -> io::Result<NetReport<A::Decision>>
where
    A: Actor,
    A::Msg: CanonicalEncode + CanonicalDecode,
    S: FnMut(&mut A, &NodeView<'_, A::Decision>, &[u8]) -> ServiceReply,
{
    let stop = AtomicBool::new(false);
    run_node_controlled(cfg, listener, actor, service, &stop)
}

/// [`run_node`] with an external stop flag, so a controller can stop a
/// node mid-run — the transport-level crash/recovery harness used by the
/// chaos tests.
///
/// # Errors
///
/// Only setup failures (listener configuration) surface as `Err`.
pub fn run_node_controlled<A, S>(
    cfg: &NodeConfig,
    listener: TcpListener,
    actor: A,
    service: S,
    stop: &AtomicBool,
) -> io::Result<NetReport<A::Decision>>
where
    A: Actor,
    A::Msg: CanonicalEncode + CanonicalDecode,
    S: FnMut(&mut A, &NodeView<'_, A::Decision>, &[u8]) -> ServiceReply,
{
    Ok(NodeLoop::new(cfg, listener, actor, service)?.run(stop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_frame, write_frame};

    const CLUSTER: u64 = 7;

    /// A timer-less actor that logs what reached it and when (µs).
    struct Sink {
        clock: WallClock,
        seen: Vec<(u64, u64)>,
    }

    impl Actor for Sink {
        type Msg = u64;
        type Decision = u64;

        fn on_start(&mut self, _ctx: &mut ftm_runtime::Context<'_, u64, u64>) {}

        fn on_message(
            &mut self,
            _from: ProcessId,
            msg: &u64,
            _ctx: &mut ftm_runtime::Context<'_, u64, u64>,
        ) {
            self.seen.push((*msg, self.clock.micros()));
        }
    }

    type Service = fn(&mut Sink, &NodeView<'_, u64>, &[u8]) -> ServiceReply;

    /// Echoes the request; `big` earns 64 KiB, so that an unread handful
    /// crosses the client write cap.
    fn echo(_: &mut Sink, _: &NodeView<'_, u64>, frame: &[u8]) -> ServiceReply {
        if frame == b"big" {
            ServiceReply::reply(vec![0u8; 64 * 1024])
        } else {
            ServiceReply::reply(frame.to_vec())
        }
    }

    fn bind() -> (TcpListener, String) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        (listener, addr)
    }

    /// A started loop the test drives one [`NodeLoop::turn`] at a time, on
    /// its own thread: what the node has done after `k` turns is then a
    /// fact, not a race.
    fn boot(cfg: &NodeConfig, listener: TcpListener) -> NodeLoop<'_, Sink, Service> {
        let sink = Sink {
            clock: WallClock::start(),
            seen: Vec::new(),
        };
        let mut node = NodeLoop::new(cfg, listener, sink, echo as Service).expect("node");
        node.start_actor();
        node
    }

    fn single_node_cfg(addr: &str) -> NodeConfig {
        let mut cfg = NodeConfig::new(ProcessId(0), vec![addr.to_string()], CLUSTER, 1);
        cfg.start_barrier = false;
        cfg
    }

    /// A handshaken, non-blocking client socket (its few small writes
    /// always fit the kernel's buffer).
    fn client(addr: &str) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        write_frame(
            &mut stream,
            &Hello::Client { cluster: CLUSTER }.canonical_bytes(),
        )
        .expect("hello");
        stream.set_nonblocking(true).expect("nonblocking");
        stream
    }

    /// Reads the reply [`has_reply`] announced.
    fn reply(stream: &mut TcpStream) -> Vec<u8> {
        stream.set_nonblocking(false).expect("blocking");
        let frame = read_frame(stream, DEFAULT_MAX_FRAME).expect("reply");
        stream.set_nonblocking(true).expect("nonblocking");
        frame
    }

    fn has_reply(stream: &TcpStream) -> bool {
        poll(
            &mut [PollFd::new(stream, POLLIN)],
            std::time::Duration::ZERO,
        ) > 0
    }

    /// Turns the loop until `done` holds, at most `max` times.
    fn turn_until(
        node: &mut NodeLoop<'_, Sink, Service>,
        max: usize,
        what: &str,
        mut done: impl FnMut(&NodeLoop<'_, Sink, Service>) -> bool,
    ) -> usize {
        for turns in 0..=max {
            if done(node) {
                return turns;
            }
            assert!(node.turn(), "the loop exited while waiting for {what}");
        }
        panic!("{what}: not within {max} turns");
    }

    #[test]
    fn slice_is_short_inside_the_hot_window_and_a_millisecond_outside() {
        let hot = std::time::Duration::from_micros(HOT_SLICE_US);
        let cold = std::time::Duration::from_millis(1);
        assert_eq!(slice(500, 500), hot);
        assert_eq!(slice(500 + HOT_WINDOW_MS, 500), hot);
        assert_eq!(slice(500 + HOT_WINDOW_MS + 1, 500), cold);
        assert_eq!(slice(u64::MAX, 0), cold);
        // A stamp ahead of `now` (taken later in the same turn) is hot.
        assert_eq!(slice(500, 501), hot);
        assert!(hot < cold, "the hot slice is the short one");
    }

    #[test]
    fn a_frame_is_held_whole_ticks_and_never_delivered_in_its_own_tick() {
        let deliverable = |due: VirtualTime, now: u64| due <= VirtualTime::at(now);
        for read in [0u64, 1, 999, 123_456] {
            for delay in [1u64, 2, 5] {
                let due = hold_until(VirtualTime::at(read), delay);
                for now in read..read + delay {
                    assert!(
                        !deliverable(due, now),
                        "read {read} delay {delay} now {now}"
                    );
                }
                assert!(deliverable(due, read + delay));
            }
            // No delay: due in the tick it was read in, so the next
            // `deliver_due` — the turn after the read, which does not
            // sleep first — takes it.
            assert!(deliverable(hold_until(VirtualTime::at(read), 0), read));
        }
    }

    /// A two-replica config whose peer 1 is the test: a listener that is
    /// bound but never accepts (the node's dial lands in its backlog) and
    /// a socket that says `Hello::Peer` and then sends `u64` frames.
    fn node_with_a_scripted_peer(delay_ms: u64) -> (NodeConfig, TcpListener, TcpListener) {
        let (listener, addr) = bind();
        let (peer_listener, peer_addr) = bind();
        let mut cfg = NodeConfig::new(ProcessId(0), vec![addr, peer_addr], CLUSTER, 1);
        cfg.start_barrier = false;
        cfg.delivery_delay_ms = delay_ms;
        (cfg, listener, peer_listener)
    }

    fn scripted_peer(node: &mut NodeLoop<'_, Sink, Service>, addr: &str) -> TcpStream {
        let mut peer = TcpStream::connect(addr).expect("connect");
        peer.set_nodelay(true).expect("nodelay");
        let hello = Hello::Peer {
            id: 1,
            cluster: CLUSTER,
        };
        write_frame(&mut peer, &hello.canonical_bytes()).expect("hello");
        turn_until(node, 50, "the peer handshake", |n| n.inbound_seen[1]);
        peer
    }

    #[test]
    fn an_idle_node_holds_a_frame_for_the_whole_delay_not_to_the_tick_boundary() {
        let (cfg, listener, _peer_listener) = node_with_a_scripted_peer(1);
        let mut node = boot(&cfg, listener);
        let clock = node.actor.clock;
        let mut peer = scripted_peer(&mut node, &cfg.peers[0]);
        for trial in 0..20u64 {
            write_frame(&mut peer, &trial.canonical_bytes()).expect("frame");
            turn_until(&mut node, 50, "the frame to be read", |n| {
                !n.holdq.is_empty()
            });
            let read_by_us = clock.micros();
            // The turn after the read looks at the hold queue. If the tick
            // rolled over since the read the frame is due and goes now, as
            // it always has; that says nothing about the idle wait, so
            // take another frame.
            assert!(node.turn());
            if node.holdq.is_empty() {
                continue;
            }
            turn_until(&mut node, 50, "the delivery", |n| n.holdq.is_empty());
            let &(msg, delivered_us) = node.actor.seen.last().expect("delivered");
            assert_eq!(msg, trial);
            assert!(
                delivered_us - read_by_us >= 1_000,
                "held {} us of a 1 ms hop delay",
                delivered_us - read_by_us
            );
            return;
        }
        panic!("the tick rolled over right after the read, twenty times running");
    }

    #[test]
    fn without_a_delay_a_frame_reaches_the_actor_the_turn_after_it_was_read() {
        let (cfg, listener, _peer_listener) = node_with_a_scripted_peer(0);
        let mut node = boot(&cfg, listener);
        let mut peer = scripted_peer(&mut node, &cfg.peers[0]);
        write_frame(&mut peer, &42u64.canonical_bytes()).expect("frame");
        turn_until(&mut node, 50, "the frame to be read", |n| {
            !n.holdq.is_empty()
        });
        assert!(
            node.busy,
            "a read is progress: the next turn must not sleep first"
        );
        assert!(node.turn());
        assert_eq!(node.actor.seen.len(), 1);
        assert_eq!(node.actor.seen[0].0, 42);
    }

    #[test]
    fn an_idle_timerless_node_answers_a_new_client_within_a_few_turns() {
        let (listener, addr) = bind();
        let cfg = single_node_cfg(&addr);
        let mut node = boot(&cfg, listener);
        // Let it cool down and go idle: nothing pending, 1 ms turns.
        let idle_from = node.now_ms() + HOT_WINDOW_MS + 5;
        turn_until(&mut node, 1_000, "the node to cool", |n| {
            n.now_ms() > idle_from
        });
        assert_eq!(
            node.wake_us,
            u64::MAX,
            "nothing is pending on a timer-less node"
        );

        let mut c = client(&addr);
        write_frame(&mut c, b"ping").expect("request");
        // One tick accepts it and reads the handshake and the request
        // behind it, and the reply is flushed where it is staged. Turns
        // of an idle node are a slice each, so this is a few milliseconds
        // where a loop that accepted once per 50 ms wait took up to 50.
        turn_until(&mut node, 4, "the reply", |_| has_reply(&c));
        assert_eq!(reply(&mut c), b"ping");
    }

    #[test]
    fn silent_clients_are_probed_once_a_tick_and_wake_up_when_they_speak() {
        const SILENT: usize = 256;
        let (listener, addr) = bind();
        let cfg = single_node_cfg(&addr);
        let mut node = boot(&cfg, listener);
        // In batches the listener's backlog holds: nothing accepts while
        // this thread is connecting.
        let mut silent: Vec<TcpStream> = Vec::new();
        while silent.len() < SILENT {
            silent.extend((0..32).map(|_| client(&addr)));
            assert!(node.turn());
        }
        let mut talker = client(&addr);
        let clients = |n: &NodeLoop<'_, Sink, Service>| {
            n.conns
                .iter()
                .flatten()
                .filter(|c| c.kind == ConnKind::Client)
                .count()
        };
        turn_until(&mut node, 2_000, "every handshake", |n| {
            clients(n) == SILENT + 1
        });

        // (i) Once the silent ones have cooled, a turn that is not a sweep
        // probes the talker and nothing else; a sweep probes each
        // connection at most once.
        let cooled_from = node.now_ms() + ACTIVE_CLIENT_MS + 5;
        let mut plain_turns = 0;
        let mut sweeps = 0;
        while sweeps < 20 {
            write_frame(&mut talker, b"status").expect("request");
            let (probes, swept) = (node.probes, node.swept_ms);
            assert!(node.turn());
            let probed = (node.probes - probes) as usize;
            if node.now_ms() > cooled_from && swept > cooled_from {
                if node.swept_ms == swept {
                    plain_turns += 1;
                    assert!(probed <= 1, "{probed} sockets probed outside a sweep");
                } else {
                    sweeps += 1;
                    assert!(probed <= SILENT + 2, "{probed} probes in one sweep");
                }
                assert_eq!(node.active.len(), 1, "only the talker is active");
            }
            while has_reply(&talker) {
                reply(&mut talker);
            }
        }
        assert!(plain_turns > 0, "a hot node takes several turns per tick");

        // (ii) A cold client's first request is answered by the next
        // sweep, and that puts it in the active set.
        write_frame(&mut silent[0], b"status").expect("request");
        turn_until(&mut node, 16, "the cold client's reply", |_| {
            has_reply(&silent[0])
        });
        assert_eq!(reply(&mut silent[0]), b"status");
        assert_eq!(node.active.len(), 2, "the talker and the client that woke");

        // (iii) Closing a cold client frees its slab slot within a sweep.
        drop(silent.pop());
        let live = |n: &NodeLoop<'_, Sink, Service>| n.conns.iter().flatten().count();
        turn_until(&mut node, 16, "the closed client's slot", |n| {
            live(n) == SILENT
        });

        // (v) A client that stops reading is cut at the write-ring cap,
        // active or not: the cut is made where the reply is staged.
        let deaf = &mut silent[1];
        turn_until(&mut node, 5_000, "the backpressure cut", |n| {
            let _ = write_frame(deaf, b"big"); // fails once cut
            n.driver
                .notes
                .iter()
                .any(|note| note == "backpressure-disconnect client")
        });
        assert_eq!(live(&node), SILENT - 1);
    }

    #[test]
    fn parse_convictions_handles_prefixes_and_noise() {
        let notes = vec![
            "detected=p3 class=bad-certificate reason=x".to_string(),
            "s7: detected=p1 class=protocol-violation reason=y".to_string(),
            "round=2 opened".to_string(),
        ];
        assert_eq!(
            parse_convictions(&notes),
            vec![
                ("p3".to_string(), "bad-certificate".to_string()),
                ("p1".to_string(), "protocol-violation".to_string()),
            ]
        );
    }

    /// The texts `ftm-core`'s
    /// `a_recovering_instance_suppresses_timing_convictions_only` pins: the
    /// kill-restart gate reads "nobody convicted" through this function.
    #[test]
    fn parse_convictions_skips_recovery_suppressed_verdicts() {
        let notes = vec![
            "s1:recovery-suppressed unproven=p1 class=out-of-order reason=duplicate INIT"
                .to_string(),
            "s1:detected=p2 class=bad-signature \
             reason=core signature does not verify for claimed sender"
                .to_string(),
        ];
        assert_eq!(
            parse_convictions(&notes),
            vec![("p2".to_string(), "bad-signature".to_string())]
        );
    }

    #[test]
    fn driver_timers_fire_in_deadline_then_seq_order() {
        let cfg = NodeConfig::new(ProcessId(0), vec!["unused".into()], 0, 1);
        let clock = WallClock::start();
        let mut d: NetDriver<u64, u64> = NetDriver::new(&cfg, clock);
        d.schedule(ProcessId(0), Duration::of(0), 10);
        d.schedule(ProcessId(0), Duration::of(0), 11);
        let far = VirtualTime::MAX;
        assert_eq!(d.pop_due(far), Some(10));
        assert_eq!(d.pop_due(far), Some(11));
        assert_eq!(d.pop_due(far), None);
    }

    #[test]
    fn driver_contradiction_and_halt_semantics() {
        let cfg = NodeConfig::new(ProcessId(0), vec!["unused".into()], 0, 1);
        let mut d: NetDriver<u64, u64> = NetDriver::new(&cfg, WallClock::start());
        d.record_decision(ProcessId(0), 5);
        d.record_decision(ProcessId(0), 5);
        assert!(!d.contradicted);
        d.record_decision(ProcessId(0), 6);
        assert!(d.contradicted);
        assert_eq!(d.decision, Some(5));
        d.schedule(ProcessId(0), Duration::of(1), 1);
        d.loopback.push_back((9, 8));
        d.record_halt(ProcessId(0));
        assert!(d.halted && d.timers.is_empty() && d.loopback.is_empty());
    }

    #[test]
    fn loopback_dispatch_stays_decoded() {
        let cfg = NodeConfig::new(ProcessId(0), vec!["a".into(), "b".into()], 0, 1);
        let mut d: NetDriver<u64, u64> = NetDriver::new(&cfg, WallClock::start());
        d.dispatch(ProcessId(0), StagedSend::ToAll(42));
        assert_eq!(d.loopback.pop_front(), Some((42, 8)));
        assert_eq!(d.msgs_sent, 2); // self copy + one remote frame
        assert_eq!(d.outbox[1].len(), 1);
    }

    #[test]
    fn consecutive_steps_stage_only_their_own_effects() {
        let cfg = NodeConfig::new(ProcessId(0), vec!["a".into(), "b".into()], 0, 1);
        let mut d: NetDriver<u64, u64> = NetDriver::new(&cfg, WallClock::start());
        let me = ProcessId(0);
        let mut staging = Effects::default();
        step(&mut d, &mut staging, me, |ctx| {
            ctx.broadcast(7);
            ctx.set_timer(Duration::of(60_000), 1);
            ctx.note("first");
        });
        assert_eq!(d.loopback.pop_front(), Some((7, 8)));
        assert_eq!(
            (d.outbox[1].len(), d.timers.len(), d.notes.len()),
            (1, 1, 1)
        );
        // A quiet callback adds nothing; a busy one adds only its own.
        step(&mut d, &mut staging, me, |_| {});
        assert_eq!(
            (d.outbox[1].len(), d.timers.len(), d.notes.len()),
            (1, 1, 1)
        );
        assert!(d.loopback.is_empty());
        step(&mut d, &mut staging, me, |ctx| {
            ctx.send(ProcessId(1), 9);
            ctx.note("second");
        });
        assert_eq!(d.outbox[1].len(), 2);
        assert_eq!(d.outbox[1][1], 9u64.canonical_bytes());
        assert_eq!(d.timers.len(), 1);
        assert_eq!(d.notes, ["first", "second"]);
        assert!(d.loopback.is_empty() && d.decision.is_none() && !d.halted);
    }

    #[test]
    fn outbox_send_counts_frame_overhead() {
        let cfg = NodeConfig::new(ProcessId(0), vec!["a".into(), "b".into()], 0, 1);
        let mut d: NetDriver<u64, u64> = NetDriver::new(&cfg, WallClock::start());
        d.send_bytes(ProcessId(1), vec![0u8; 10]);
        assert_eq!(d.bytes_sent, 14);
        assert_eq!(d.msgs_sent, 1);
    }

    #[test]
    fn peer_link_queue_drops_oldest_at_cap() {
        let mut link = PeerLink {
            addr: "unused".into(),
            resolved: None,
            conn: None,
            backoff: Backoff::new(1),
            next_dial_ms: 0,
            queue: VecDeque::new(),
            queued_bytes: 0,
            dropped_note: false,
        };
        let frame = vec![0u8; PEER_QUEUE_CAP / 4 - 4];
        for _ in 0..4 {
            assert!(!link.enqueue(frame.clone()), "under cap: nothing dropped");
        }
        assert!(link.enqueue(frame.clone()), "cap exceeded: oldest dropped");
        assert!(link.queued_bytes <= PEER_QUEUE_CAP);
    }
}
