//! In-process loopback clusters: `n` replicas on `127.0.0.1`, one thread
//! each, real sockets in between.
//!
//! This is the transport-side twin of `ftm_sim::Simulation::run` for
//! tests: the same actor factory, but every message crosses a TCP
//! connection. Listeners are bound (on ephemeral ports) *before* any node
//! thread starts, so there is no dial race — by the time a writer
//! retries, the target port exists.

use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode};
use ftm_runtime::{Payload, ProcessId, SendBoxedActor};

use crate::node::{run_node, NetReport, NodeConfig, NodeView, ServiceReply};

/// Per-node wall-clock bound of a [`run_loopback_cluster`] run, in ms.
const RUN_TIMEOUT_MS: u64 = 30_000;

/// Shape of a loopback cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of replicas.
    pub n: usize,
    /// Cluster id used in every handshake.
    pub cluster: u64,
    /// Base seed; each node derives its own stream from it.
    pub seed: u64,
    /// Artificial per-hop delivery latency in ms (see
    /// [`NodeConfig::delivery_delay_ms`]); 0 = raw loopback speed.
    pub delivery_delay_ms: u64,
}

impl ClusterConfig {
    /// A cluster of `n` with a 30 s per-node bound.
    pub fn new(n: usize, cluster: u64, seed: u64) -> Self {
        ClusterConfig {
            n,
            cluster,
            seed,
            delivery_delay_ms: 0,
        }
    }

    /// Sets the artificial per-hop latency (emulated network time).
    pub fn delivery_delay_ms(mut self, ms: u64) -> Self {
        self.delivery_delay_ms = ms;
        self
    }
}

/// Binds `n` loopback listeners on ephemeral ports, returning them with
/// their address strings (in process-id order). Binding everything before
/// any node starts is what makes the mesh dial race-free.
///
/// # Errors
///
/// Propagates listener binding failures.
pub fn bind_cluster(n: usize) -> io::Result<(Vec<TcpListener>, Vec<String>)> {
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(listener.local_addr()?.to_string());
        listeners.push(listener);
    }
    Ok((listeners, addrs))
}

/// Re-binds a listener on `addr` — the restart half of a kill/restart
/// cycle, where the dead node's listener must come back on the *same*
/// address so peers' redials find it.
///
/// The old listener's socket may not be released the instant its node
/// thread is stopped, so binding retries in 10 ms steps for up to ~2 s
/// before giving up.
///
/// # Errors
///
/// The last bind error if the address never frees up.
pub fn rebind(addr: &str) -> io::Result<TcpListener> {
    let mut last = None;
    for _ in 0..200 {
        match TcpListener::bind(addr) {
            Ok(listener) => return Ok(listener),
            Err(e) => last = Some(e),
        }
        thread::sleep(std::time::Duration::from_millis(10));
    }
    Err(last.unwrap_or_else(|| io::Error::other("rebind: bind never attempted")))
}

/// A replica running on its own harness thread, stoppable from the test.
///
/// This is the controllable twin of one [`run_loopback_cluster`] slot,
/// built on [`run_node`]'s stop flag: the chaos tests use it to kill a
/// replica mid-run (dropping its listener and every socket), restart it
/// on the same address ([`rebind`]) and assert the cluster converges.
#[derive(Debug)]
pub struct NodeHandle<D> {
    stop: Arc<AtomicBool>,
    thread: thread::JoinHandle<io::Result<NetReport<D>>>,
}

impl<D> NodeHandle<D> {
    /// Raises the stop flag; the node exits its loop at the next
    /// iteration (bounded exit flush, then sockets drop).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Waits for the node to exit and returns its report.
    ///
    /// # Errors
    ///
    /// Node setup failures, or a panicked node thread.
    pub fn join(self) -> io::Result<NetReport<D>> {
        self.thread
            .join()
            .map_err(|_| io::Error::other("node thread panicked"))?
    }

    /// [`stop`](NodeHandle::stop) + [`join`](NodeHandle::join): the
    /// kill half of a kill/restart cycle.
    ///
    /// # Errors
    ///
    /// As for [`join`](NodeHandle::join).
    pub fn kill(self) -> io::Result<NetReport<D>> {
        self.stop();
        self.join()
    }
}

/// Spawns one replica on a fresh harness thread, returning its handle.
///
/// The node runs `actor` over `listener` with `service` answering client
/// frames, until it halts (with [`NodeConfig::exit_on_halt`]), its run
/// bound trips, or [`NodeHandle::stop`] is called. This is the sanctioned
/// thread-spawn site for transport tests (rule D4, DESIGN.md §13): integration
/// tests build kill/restart scenarios from these handles instead of
/// spawning threads themselves.
pub fn spawn_node<M, D, S>(
    cfg: NodeConfig,
    listener: TcpListener,
    actor: SendBoxedActor<M, D>,
    service: S,
) -> NodeHandle<D>
where
    M: Payload + CanonicalEncode + CanonicalDecode + 'static,
    D: Clone + std::fmt::Debug + PartialEq + Send + 'static,
    S: FnMut(&mut SendBoxedActor<M, D>, &NodeView<'_, D>, &[u8]) -> ServiceReply + Send + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    #[expect(
        clippy::disallowed_methods,
        reason = "D4 sanctioned home: one thread per replica is what a loopback cluster is"
    )]
    let thread = thread::spawn(move || run_node(&cfg, listener, actor, service, &flag));
    NodeHandle { stop, thread }
}

/// Runs `n` replicas built by `factory` over loopback TCP until each
/// halts (or times out), returning their reports in process-id order.
///
/// Nodes run with [`NodeConfig::exit_on_halt`] and no client service —
/// this is the bounded, self-terminating mode used by tests and the
/// sim/net cross-check.
///
/// # Errors
///
/// Listener binding failures, or a node thread that panicked.
pub fn run_loopback_cluster<M, D, F>(
    cfg: &ClusterConfig,
    factory: F,
) -> io::Result<Vec<NetReport<D>>>
where
    M: Payload + CanonicalEncode + CanonicalDecode + 'static,
    D: Clone + std::fmt::Debug + PartialEq + Send + 'static,
    F: Fn(ProcessId) -> SendBoxedActor<M, D>,
{
    // Bind everything first: the full address list must exist before the
    // first node starts dialing.
    let (listeners, addrs) = bind_cluster(cfg.n)?;

    let mut handles = Vec::with_capacity(cfg.n);
    for (i, listener) in listeners.into_iter().enumerate() {
        let me = ProcessId(i as u32);
        let mut node_cfg = NodeConfig::new(me, addrs.clone(), cfg.cluster, cfg.seed);
        node_cfg.exit_on_halt = true;
        node_cfg.run_timeout_ms = RUN_TIMEOUT_MS;
        node_cfg.delivery_delay_ms = cfg.delivery_delay_ms;
        handles.push(spawn_node(node_cfg, listener, factory(me), |_, _, _| {
            ServiceReply::reply(Vec::new())
        }));
    }
    handles.into_iter().map(NodeHandle::join).collect()
}
