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
use ftm_runtime::{
    step, Actor, Duration, Payload, ProcessId, Runtime, StagedSend, TimerTag, VirtualTime,
};

use crate::backoff::Backoff;
use crate::clock::WallClock;
use crate::codec::{frame_into, Hello, DEFAULT_MAX_FRAME};
use crate::poll::{poll, PollFd, POLLIN};
use crate::ring::RingBuf;

/// How long a freshly accepted connection may sit without completing its
/// handshake before the loop evicts it (half-open defense).
const HANDSHAKE_TIMEOUT_MS: u64 = 3_000;

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
    /// All notes the actor emitted, in order (includes `detected=`
    /// convictions; see [`parse_convictions`]).
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

/// Extracts `(culprit, class)` pairs from `detected=<p> class=<c> …` notes
/// (tolerating the replicated log's `s<slot>:` prefix), the transport-side
/// twin of `ftm-core`'s trace-based detection parser.
pub fn parse_convictions(notes: &[String]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for note in notes {
        if let Some(pos) = note.find("detected=") {
            let rest = &note[pos + "detected=".len()..];
            let mut toks = rest.split_whitespace();
            let culprit = toks.next().unwrap_or("").to_string();
            let class = toks
                .find_map(|t| t.strip_prefix("class="))
                .unwrap_or("")
                .to_string();
            out.push((culprit, class));
        }
    }
    out
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
    /// Self-sends, delivered after the current callback's effects apply.
    loopback: VecDeque<M>,
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
        self.msgs_sent += 1;
        self.bytes_sent += msg.size_bytes() as u64;
        self.loopback.push_back(msg);
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
                // Encode once; each remote peer gets a byte-level clone of
                // the same canonical frame, the self-copy stays decoded.
                let bytes = msg.canonical_bytes();
                for p in 0..self.n as u32 {
                    let to = ProcessId(p);
                    if to == self.me {
                        self.send_loopback(msg.clone());
                    } else {
                        self.send_bytes(to, bytes.clone());
                    }
                }
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
        }
    }
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
    actor: A,
    service: S,
    /// Inbound peer frames awaiting their delivery deadline, as
    /// `(due, from, frame)` — FIFO order is deadline order because the
    /// delay is constant.
    holdq: VecDeque<(VirtualTime, u32, Vec<u8>)>,
    barrier: BarrierState,
    shutdown: bool,
    /// Whether this iteration made progress (skip the idle sleep).
    busy: bool,
}

impl<'a, A, S> NodeLoop<'a, A, S>
where
    A: Actor,
    A::Msg: CanonicalEncode + CanonicalDecode,
    S: FnMut(&mut A, &NodeView<'_, A::Decision>, &[u8]) -> ServiceReply,
{
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
            let Some(msg) = self.driver.loopback.pop_front() else {
                return;
            };
            self.driver.msgs_received += 1;
            self.driver.bytes_received += msg.size_bytes() as u64;
            let me = self.driver.me;
            let actor = &mut self.actor;
            step(&mut self.driver, me, |ctx| actor.on_message(me, &msg, ctx));
        }
    }

    /// Fires `on_start` (barrier cleared or disabled).
    fn start_actor(&mut self) {
        let me = self.driver.me;
        let actor = &mut self.actor;
        step(&mut self.driver, me, |ctx| actor.on_start(ctx));
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

    /// Accepts every pending inbound connection (non-blocking) and evicts
    /// half-open ones that out-sat the handshake timeout.
    fn accept_and_evict(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let conn = Conn::new(stream, ConnKind::Pending, self.now_ms());
                    let slot = self.conns.iter().position(Option::is_none);
                    match slot {
                        Some(i) => self.conns[i] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                    self.busy = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        let now = self.now_ms();
        for i in 0..self.conns.len() {
            let stale = matches!(
                self.conns[i].as_ref(),
                Some(c) if c.kind == ConnKind::Pending && now.saturating_sub(c.opened_ms) > HANDSHAKE_TIMEOUT_MS
            );
            if stale {
                self.driver.notes.push("handshake-timeout evicted".into());
                self.close_conn(i);
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
                    let slot = self.conns.iter().position(Option::is_none);
                    let idx = match slot {
                        Some(i) => {
                            self.conns[i] = Some(conn);
                            i
                        }
                        None => {
                            self.conns.push(Some(conn));
                            self.conns.len() - 1
                        }
                    };
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
    /// queues) and flushes every non-empty write ring once.
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
        }
        // Flush every write ring; errors close the connection.
        for i in 0..self.conns.len() {
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
            step(&mut self.driver, me, |ctx| actor.on_timer(tag, ctx));
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
                        step(&mut self.driver, me, |ctx| {
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

    /// Polls every live socket for readability (sleeping up to `wait`
    /// when idle), reads ready ones into their rings, then parses frames.
    fn read_and_parse(&mut self, wait: std::time::Duration) {
        // Read readiness per slab slot (`false` for free slots).
        let ready: Vec<bool> = {
            let mut fds: Vec<PollFd<'_>> = self
                .conns
                .iter()
                .flatten()
                .map(|conn| PollFd::new(&conn.stream, POLLIN))
                .collect();
            poll(&mut fds, wait);
            let mut fds = fds.iter();
            self.conns
                .iter()
                .map(|slot| slot.is_some() && fds.next().is_some_and(|fd| fd.revents & POLLIN != 0))
                .collect()
        };
        for (i, ready) in ready.into_iter().enumerate() {
            let mut close = false;
            if let Some(conn) = self.conns[i].as_mut().filter(|_| ready) {
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
            // already buffered must not be lost with the connection. Parse
            // without fresh readiness too: a ring left full last round
            // (inbound backpressure), or parsing deferred during the
            // barrier, leaves parseable bytes behind.
            self.parse_conn(i);
            if close {
                self.close_conn(i);
            }
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
                if let Some(conn) = self.conns[i].as_mut() {
                    conn.kind = ConnKind::Client;
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
        let due = self.clock.now() + Duration::of(self.cfg.delivery_delay_ms);
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

    /// How long the readiness poll may sleep this iteration.
    fn idle_wait(&self) -> std::time::Duration {
        if self.busy {
            return std::time::Duration::ZERO;
        }
        let mut wait = std::time::Duration::from_millis(50);
        match &self.barrier {
            BarrierState::Meshing { .. } => wait = wait.min(std::time::Duration::from_millis(1)),
            BarrierState::Announcing { .. } => {
                wait = wait.min(std::time::Duration::from_millis(5));
            }
            BarrierState::Done => {
                if let Some(deadline) = self.driver.next_deadline() {
                    wait = wait.min(self.clock.until(deadline));
                }
                if let Some(&(due, _, _)) = self.holdq.front() {
                    wait = wait.min(self.clock.until(due));
                }
            }
        }
        // Unflushed writes deserve a quick retry even when sockets are
        // quiet (the peer may drain its receive window at any time).
        let writes_pending = self.conns.iter().flatten().any(|conn| !conn.wb.is_empty());
        if writes_pending {
            wait = wait.min(std::time::Duration::from_millis(5));
        }
        for link in self.links.iter().flatten() {
            if link.conn.is_none() {
                wait = wait.min(self.clock.until(VirtualTime::at(link.next_dial_ms)));
            }
        }
        wait
    }

    /// The readiness loop: runs until the actor halts (with
    /// `exit_on_halt`), a client requests shutdown, the stop flag rises,
    /// or the run bound trips. Returns the final report.
    fn run(&mut self, stop: &AtomicBool) -> NetReport<A::Decision> {
        if matches!(self.barrier, BarrierState::Done) {
            self.start_actor();
        }
        loop {
            self.busy = false;
            if stop.load(Ordering::Relaxed) || self.shutdown {
                break;
            }
            if self.now_ms() >= self.cfg.run_timeout_ms {
                break;
            }
            if self.cfg.exit_on_halt
                && self.driver.halted
                && matches!(self.barrier, BarrierState::Done)
            {
                break;
            }
            self.accept_and_evict();
            self.dial_due();
            self.barrier_step();
            if matches!(self.barrier, BarrierState::Done) {
                self.fire_timers();
                self.deliver_due();
            }
            self.pump();
            let wait = self.idle_wait();
            self.read_and_parse(wait);
        }
        // Exit flush: everything staged before the halt/shutdown should
        // reach the wire, but a wedged peer must not hold the node
        // hostage — bound the flush.
        let flush_deadline = self.now_ms() + EXIT_FLUSH_MS;
        loop {
            self.pump();
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
    run_node_controlled(cfg, listener, actor, service, &stop).map(|(report, _)| report)
}

/// [`run_node`] with an external stop flag, returning the actor alongside
/// the report so a controller can stop a node mid-run and later restart
/// it with its state intact — the transport-level crash/recovery harness
/// used by the chaos tests.
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
) -> io::Result<(NetReport<A::Decision>, A)>
where
    A: Actor,
    A::Msg: CanonicalEncode + CanonicalDecode,
    S: FnMut(&mut A, &NodeView<'_, A::Decision>, &[u8]) -> ServiceReply,
{
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
                    backoff: Backoff::new(derive_seed(cfg.seed, u64::from(cfg.me.0)) ^ id as u64),
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
    let mut node = NodeLoop {
        cfg,
        clock,
        listener,
        conns: Vec::new(),
        links,
        inbound_seen: vec![false; cfg.n],
        peer_ready: vec![false; cfg.n],
        driver: NetDriver::new(cfg, clock),
        actor,
        service,
        holdq: VecDeque::new(),
        barrier,
        shutdown: false,
        busy: false,
    };
    let report = node.run(stop);
    Ok((report, node.actor))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        d.loopback.push_back(9);
        d.record_halt(ProcessId(0));
        assert!(d.halted && d.timers.is_empty() && d.loopback.is_empty());
    }

    #[test]
    fn loopback_dispatch_stays_decoded() {
        let cfg = NodeConfig::new(ProcessId(0), vec!["a".into(), "b".into()], 0, 1);
        let mut d: NetDriver<u64, u64> = NetDriver::new(&cfg, WallClock::start());
        d.dispatch(ProcessId(0), StagedSend::ToAll(42));
        assert_eq!(d.loopback.pop_front(), Some(42));
        assert_eq!(d.msgs_sent, 2); // self copy + one remote frame
        assert_eq!(d.outbox[1].len(), 1);
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
