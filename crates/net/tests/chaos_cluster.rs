//! Chaos tests for the readiness-loop transport: seeded kill/restart of
//! a replica mid-run, abrupt client disconnects, half-open peers and
//! slow-reading clients.
//!
//! All thread spawning goes through `ftm_net::spawn_node` (the
//! D4-sanctioned harness in `cluster.rs`); these tests only raise stop
//! flags, poke sockets and join handles. Progress is observed through
//! `ReplicatedLog::with_slot_hook` counters instead of wall-clock
//! deadlines, so the scenarios are paced by the cluster itself.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ftm_certify::ValueVector;
use ftm_core::byzantine::log::{ReplicatedLog, SlotMsg};
use ftm_core::byzantine::ByzantineConsensus;
use ftm_core::config::ProtocolConfig;
use ftm_crypto::wire::CanonicalEncode;
use ftm_faults::log_command;
use ftm_net::{
    bind_cluster, parse_convictions, rebind, spawn_node, write_frame, ClientConn, Hello,
    NodeConfig, NodeHandle, ServiceReply,
};
use ftm_runtime::note::Note;
use ftm_runtime::{Actor, Context, ProcessId};

const N: usize = 4;
const F: usize = 1;
const CLUSTER: u64 = 0xC4A05;
const CATCHUP_WINDOW: u64 = 16;

/// Polls `cond` every 10 ms for up to 60 s; panics on timeout so a wedged
/// cluster fails the test instead of hanging the suite.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..6000 {
        if cond() {
            return;
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

/// An actor that does nothing: single-node tests that only exercise the
/// transport (handshake eviction, client service) run on top of it.
struct Idle;

impl Actor for Idle {
    type Msg = SlotMsg;
    type Decision = Vec<ValueVector>;

    fn on_start(&mut self, _ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>) {}

    fn on_message(
        &mut self,
        _from: ProcessId,
        _msg: &SlotMsg,
        _ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>,
    ) {
    }
}

/// One replica's config for a bounded chaos run, paced at 1 ms a hop (as
/// the benchmark and `ftm-serve --delay-ms 1` run): unpaced, an optimised
/// build finishes the short logs before the kill, the restart or the
/// second client this suite stages — and a replica that has finished its
/// log answers nothing.
fn chaos_cfg(me: ProcessId, addrs: &[String], seed: u64) -> NodeConfig {
    let mut cfg = NodeConfig::new(me, addrs.to_vec(), CLUSTER, seed);
    cfg.exit_on_halt = true;
    cfg.run_timeout_ms = 120_000;
    cfg.delivery_delay_ms = 1;
    cfg
}

/// Asserts every report halted with the same complete log and no
/// convictions, returning nothing (panics with the diverging replica).
fn assert_cluster_agrees(reports: &[ftm_net::NetReport<Vec<ValueVector>>], slots: u64) {
    let reference = reports[0]
        .decision
        .as_ref()
        .expect("replica 0 decided its log");
    assert_eq!(reference.len() as u64, slots, "replica 0 lost slots");
    for report in reports {
        let p = report.me;
        assert!(report.halted, "{p} never halted");
        assert!(!report.contradicted, "{p} contradicted itself");
        assert_eq!(
            report.decision.as_ref(),
            Some(reference),
            "{p} diverged from replica 0"
        );
        assert_eq!(
            parse_convictions(&report.notes),
            vec![],
            "{p} convicted someone in a crash-only run"
        );
    }
}

/// Kill one replica mid-run, restart it on the same address with a fresh
/// actor and no barrier: checkpoint catch-up must rebuild its log and the
/// final decided logs must be identical on all four replicas.
#[test]
fn killed_replica_rejoins_via_checkpoint_catchup() {
    const SLOTS: u64 = 24;
    const SEED: u64 = 0x0C4A_0501;
    let setup = ProtocolConfig::new(N, F).seed(SEED).setup();
    let (listeners, addrs) = bind_cluster(N).expect("bind cluster");
    let progress = Arc::new(AtomicU64::new(0));

    let mut handles: Vec<NodeHandle<Vec<ValueVector>>> = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let me = ProcessId(i as u32);
        let mut actor = ReplicatedLog::<ByzantineConsensus>::new(&setup, me, SLOTS, log_command)
            .with_catchup(CATCHUP_WINDOW);
        if i == 0 {
            let watch = Arc::clone(&progress);
            actor = actor.with_slot_hook(move |slot, _| {
                watch.store(slot + 1, Ordering::Relaxed);
            });
        }
        handles.push(spawn_node(
            chaos_cfg(me, &addrs, SEED),
            listener,
            Box::new(actor),
            |_, _, _| ServiceReply::reply(Vec::new()),
        ));
    }

    // Let a few slots decide, then kill replica 3 abruptly: its listener
    // and every socket drop, peers see EOF and start redialing.
    wait_until("the first slots to decide", || {
        progress.load(Ordering::Relaxed) >= 3
    });
    let first_run = handles.pop().expect("replica 3").kill().expect("kill");
    assert!(
        !first_run.halted,
        "replica 3 was killed mid-run, not after completing"
    );

    // Outage: the three survivors are a decide quorum and keep going.
    let at_kill = progress.load(Ordering::Relaxed);
    wait_until("progress during the outage", || {
        progress.load(Ordering::Relaxed) >= at_kill + 3
    });

    // Restart with a fresh actor on the same address, skipping the start
    // barrier (peers are already meshed). Catch-up does the rest.
    let me = ProcessId(3);
    let listener = rebind(&addrs[3]).expect("rebind replica 3's address");
    let mut cfg = chaos_cfg(me, &addrs, SEED);
    cfg.start_barrier = false;
    let actor = ReplicatedLog::<ByzantineConsensus>::new(&setup, me, SLOTS, log_command)
        .with_catchup(CATCHUP_WINDOW);
    handles.push(spawn_node(cfg, listener, Box::new(actor), |_, _, _| {
        ServiceReply::reply(Vec::new())
    }));

    let reports: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("node run"))
        .collect();
    assert_cluster_agrees(&reports, SLOTS);
    let rejoined = &reports[3];
    assert!(
        rejoined
            .notes
            .iter()
            .any(|n| matches!(Note::parse(n).1, Note::CatchupApplied(..))),
        "the rejoined replica never applied a catch-up checkpoint"
    );
    assert!(
        reports[..3].iter().any(|r| r
            .notes
            .iter()
            .any(|n| matches!(Note::parse(n).1, Note::CatchupSent(..)))),
        "no survivor answered the rejoined replica's stale traffic"
    );
}

/// A client that drops its connection right after writing a request (no
/// reply read) must not cost the cluster anything: all slots decide,
/// logs stay identical, and later clients are served normally.
#[test]
fn abrupt_client_disconnect_loses_no_slots() {
    const SLOTS: u64 = 12;
    const SEED: u64 = 0x0C4A_0502;
    let setup = ProtocolConfig::new(N, F).seed(SEED).setup();
    let (listeners, addrs) = bind_cluster(N).expect("bind cluster");
    let progress = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));

    let mut handles: Vec<NodeHandle<Vec<ValueVector>>> = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let me = ProcessId(i as u32);
        let mut actor = ReplicatedLog::<ByzantineConsensus>::new(&setup, me, SLOTS, log_command)
            .with_catchup(CATCHUP_WINDOW);
        if i == 0 {
            let watch = Arc::clone(&progress);
            actor = actor.with_slot_hook(move |slot, _| {
                watch.store(slot + 1, Ordering::Relaxed);
            });
        }
        let count = Arc::clone(&served);
        handles.push(spawn_node(
            chaos_cfg(me, &addrs, SEED),
            listener,
            Box::new(actor),
            move |_, _, frame| {
                count.fetch_add(1, Ordering::Relaxed);
                ServiceReply::reply(frame.to_vec())
            },
        ));
    }

    wait_until("the cluster to go live", || {
        progress.load(Ordering::Relaxed) >= 1
    });

    // Mid-submit abrupt disconnect: handshake, one request, then the
    // socket drops before the reply is read. The server's reply write
    // fails and the connection is reaped — nothing else may change.
    {
        let mut rude = TcpStream::connect(&addrs[0]).expect("connect");
        write_frame(
            &mut rude,
            &Hello::Client { cluster: CLUSTER }.canonical_bytes(),
        )
        .expect("hello");
        write_frame(&mut rude, b"chaos-submit").expect("submit");
    }

    // A well-behaved client right after still gets full service.
    let mut polite = ClientConn::connect(&addrs[0], CLUSTER).expect("connect");
    let echoed = polite.request(b"after-the-crash").expect("request");
    assert_eq!(echoed, b"after-the-crash");

    let reports: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("node run"))
        .collect();
    assert_cluster_agrees(&reports, SLOTS);
    assert!(served.load(Ordering::Relaxed) >= 1, "the service never ran");
}

/// A connection that never sends its handshake is evicted after the
/// handshake timeout without affecting clients that do handshake.
#[test]
fn half_open_peer_is_evicted_without_stalling_clients() {
    const SEED: u64 = 0x0C4A_0503;
    let (listeners, addrs) = bind_cluster(1).expect("bind");
    let listener = listeners.into_iter().next().expect("one listener");
    // exit_on_halt stays false: the idle actor never halts, the test
    // stops the node explicitly once the scenario played out.
    let mut cfg = NodeConfig::new(ProcessId(0), addrs.clone(), CLUSTER, SEED);
    cfg.run_timeout_ms = 120_000;
    let handle = spawn_node(cfg, listener, Box::new(Idle), |_, _, frame| {
        ServiceReply::reply(frame.to_vec())
    });

    // Half-open: connected, but no handshake ever.
    let half_open = TcpStream::connect(&addrs[0]).expect("connect half-open");

    let mut client = ClientConn::connect(&addrs[0], CLUSTER).expect("connect client");
    assert_eq!(client.request(b"before").expect("request"), b"before");

    // Outlive the 3 s handshake timeout, then show the node still serves.
    thread::sleep(Duration::from_millis(3500));
    assert_eq!(client.request(b"after").expect("request"), b"after");

    let report = handle.kill().expect("node run");
    drop(half_open);
    assert!(
        report
            .notes
            .iter()
            .any(|n| n.contains("handshake-timeout evicted")),
        "the half-open connection was never evicted: {:?}",
        report.notes
    );
}

/// A client that submits requests but never reads replies must be
/// disconnected at the write-ring cap — bounded memory — while peer
/// traffic and the decided log are untouched.
#[test]
fn slow_client_is_cut_by_backpressure_not_the_peers() {
    const SLOTS: u64 = 12;
    const SEED: u64 = 0x0C4A_0504;
    // Each request earns a 64 KiB reply; an unread handful crosses the
    // 256 KiB client write cap.
    const REPLY_BYTES: usize = 64 * 1024;
    let setup = ProtocolConfig::new(N, F).seed(SEED).setup();
    let (listeners, addrs) = bind_cluster(N).expect("bind cluster");
    let progress = Arc::new(AtomicU64::new(0));

    let mut handles: Vec<NodeHandle<Vec<ValueVector>>> = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let me = ProcessId(i as u32);
        let mut actor = ReplicatedLog::<ByzantineConsensus>::new(&setup, me, SLOTS, log_command)
            .with_catchup(CATCHUP_WINDOW);
        if i == 0 {
            let watch = Arc::clone(&progress);
            actor = actor.with_slot_hook(move |slot, _| {
                watch.store(slot + 1, Ordering::Relaxed);
            });
        }
        // Replica 0 outlives its log and is stopped below, after the cut:
        // how fast twelve slots decide must not decide whether the
        // backlog got to cross the cap.
        let mut cfg = chaos_cfg(me, &addrs, SEED);
        cfg.exit_on_halt = i != 0;
        handles.push(spawn_node(cfg, listener, Box::new(actor), |_, _, _| {
            ServiceReply::reply(vec![0u8; REPLY_BYTES])
        }));
    }

    wait_until("the cluster to go live", || {
        progress.load(Ordering::Relaxed) >= 1
    });

    // Flood requests without ever reading a reply, until the server cuts
    // the connection and a write fails: every request adds 64 KiB of
    // backlog against a 256 KiB cap, so kernel socket buffers can hide
    // only so many.
    let mut slow = TcpStream::connect(&addrs[0]).expect("connect slow client");
    write_frame(
        &mut slow,
        &Hello::Client { cluster: CLUSTER }.canonical_bytes(),
    )
    .expect("hello");
    wait_until("the server to cut the slow client", || {
        write_frame(&mut slow, b"feed-me").is_err()
    });
    wait_until("replica 0 to finish its log", || {
        progress.load(Ordering::Relaxed) >= SLOTS
    });
    handles[0].stop();

    let reports: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("node run"))
        .collect();
    drop(slow);
    assert_cluster_agrees(&reports, SLOTS);
    assert!(
        reports[0]
            .notes
            .iter()
            .any(|n| n.contains("backpressure-disconnect client")),
        "the slow client was never disconnected: {:?}",
        reports[0].notes
    );
}
