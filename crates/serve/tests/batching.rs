//! Batching equivalence: the same workload against real `ftm-serve`
//! processes commits the same command multiset whether commands ride one
//! per slot (`--batch 1`) or packed (`--batch 16`), under both protocols.
//!
//! The observable is each replica's `committed_digest` from its `Status`
//! reply: SHA-256 over the sorted committed multiset, independent of
//! batch size and of which slots the commands rode in. The conservation
//! law `submitted == queued + inflight + committed` is asserted on every
//! poll along the way.
//!
//! The same helpers carry the many-client functional gate: 1000
//! concurrent client connections against four replicas, every submission
//! completing and committing.

use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::Duration;

use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode};
use ftm_net::{run_load, ClientConn, LoadConfig};
use ftm_serve::api::{Reply, Request, Status};

const N: usize = 4;
const SEED: u64 = 0xBA7C4;
const SLOTS: u64 = 48;
const COMMANDS_PER_REPLICA: u64 = 6;

/// Child processes plus their addresses; the `Drop` guard kills whatever
/// a failing test leaves behind.
struct Cluster {
    children: Vec<Child>,
    addrs: Vec<String>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Reserves `n` distinct loopback ports by binding ephemeral listeners,
/// then releases them for the child processes (the reuse window between
/// drop and the child's bind is tiny and acceptable for tests).
fn free_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect()
}

fn spawn_cluster(protocol: &str, batch: u64, cluster_id: u64, slots: u64) -> Cluster {
    let addrs = free_addrs(N);
    let peers = addrs.join(",");
    let children = (0..N)
        .map(|i| {
            Command::new(env!("CARGO_BIN_EXE_ftm-serve"))
                .args([
                    "--id",
                    &i.to_string(),
                    "--peers",
                    &peers,
                    "--protocol",
                    protocol,
                    "--f",
                    "1",
                    "--slots",
                    &slots.to_string(),
                    "--seed",
                    &SEED.to_string(),
                    "--cluster",
                    &cluster_id.to_string(),
                    "--timeout-ms",
                    "120000",
                    "--batch",
                    &batch.to_string(),
                ])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn ftm-serve")
        })
        .collect();
    Cluster { children, addrs }
}

fn connect_with_retry(addr: &str, cluster: u64) -> ClientConn {
    for _ in 0..3000 {
        if let Ok(conn) = ClientConn::connect(addr, cluster) {
            return conn;
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("could not connect to {addr}");
}

fn status(conn: &mut ClientConn) -> Status {
    let frame = conn
        .request(&Request::Status.canonical_bytes())
        .expect("status request");
    match Reply::from_canonical_bytes(&frame) {
        Ok(Reply::Status(s)) => s,
        other => panic!("unexpected status reply: {other:?}"),
    }
}

/// Polls replica `i` until nothing is queued or in flight — everything
/// submitted so far committed — asserting conservation on every poll.
fn drained(conn: &mut ClientConn, i: usize) -> Status {
    for _ in 0..6000 {
        let s = status(conn);
        assert_eq!(
            s.submitted,
            s.queued + s.inflight + s.committed,
            "conservation violated on replica {i}"
        );
        assert!(!s.contradicted, "replica {i} contradicted itself");
        if s.queued == 0 && s.inflight == 0 {
            return s;
        }
        thread::sleep(Duration::from_millis(20));
    }
    panic!("replica {i} never drained its queue");
}

/// Runs one 4-replica cluster, submits the fixed workload, waits until
/// every replica committed all of its commands and returns the
/// per-replica committed digests.
fn committed_digests(protocol: &str, batch: u64, cluster_id: u64) -> Vec<Vec<u8>> {
    let cluster = spawn_cluster(protocol, batch, cluster_id, SLOTS);
    let mut conns: Vec<ClientConn> = cluster
        .addrs
        .iter()
        .map(|a| connect_with_retry(a, cluster_id))
        .collect();

    // The workload is identical across batch settings: replica `i`
    // receives commands 0xB000 + i*100 + k, in submission order.
    for (i, conn) in conns.iter_mut().enumerate() {
        for k in 0..COMMANDS_PER_REPLICA {
            let value = 0xB000 + (i as u64) * 100 + k;
            let frame = conn
                .request(&Request::Submit { value }.canonical_bytes())
                .expect("submit");
            assert!(
                matches!(
                    Reply::from_canonical_bytes(&frame),
                    Ok(Reply::Submitted { .. })
                ),
                "replica {i} rejected a submit"
            );
        }
    }

    let digests = conns
        .iter_mut()
        .enumerate()
        .map(|(i, conn)| {
            let s = drained(conn, i);
            assert_eq!(
                s.committed, COMMANDS_PER_REPLICA,
                "replica {i} lost commands"
            );
            s.committed_digest
        })
        .collect();

    // Polite teardown; the Drop guard reaps whatever survives.
    for conn in &mut conns {
        let _ = conn.request(&Request::Shutdown.canonical_bytes());
    }
    digests
}

#[test]
fn batch_1_and_batch_16_commit_the_same_multiset_under_hr() {
    let small = committed_digests("hr", 1, 0xB1);
    let large = committed_digests("hr", 16, 0xB2);
    assert!(small.iter().all(|d| !d.is_empty()), "empty digest");
    assert_eq!(small, large, "HR: --batch 1 and --batch 16 diverged");
}

#[test]
fn batch_1_and_batch_16_commit_the_same_multiset_under_ct() {
    let small = committed_digests("ct", 1, 0xC1);
    let large = committed_digests("ct", 16, 0xC2);
    assert!(small.iter().all(|d| !d.is_empty()), "empty digest");
    assert_eq!(small, large, "CT: --batch 1 and --batch 16 diverged");
}

/// 1000 concurrent client connections × 6 submits against four replicas
/// (`--batch 8`): every submission completes and every command commits.
#[test]
fn a_thousand_concurrent_clients_commit_every_command() {
    const CLIENTS: usize = 1000;
    const REQUESTS_PER_CLIENT: u64 = 6;
    const TOTAL: u64 = CLIENTS as u64 * REQUESTS_PER_CLIENT;
    const CLUSTER: u64 = 0xBEC1;

    // This process holds every client socket at once; fail in
    // milliseconds, naming the fix, instead of timing out in backoff.
    // (Files, not sockets: probing with ephemeral ports would race the
    // other tests' `free_addrs`.)
    let exe = std::env::current_exe().expect("test binary path");
    let probe: Vec<std::fs::File> = (0..CLIENTS + 64)
        .map(|i| {
            std::fs::File::open(&exe).unwrap_or_else(|e| {
                panic!("cannot hold descriptor {i}: {e} — raise `ulimit -n` (CI uses 4096)")
            })
        })
        .collect();
    drop(probe);

    // The log is free-running — slots that open on an empty queue carry
    // filler — so no fixed length can promise capacity for the workload:
    // the budget is effectively unbounded and the run ends on `Shutdown`.
    let cluster = spawn_cluster("hr", 8, CLUSTER, 1_000_000);
    let mut conns: Vec<ClientConn> = cluster
        .addrs
        .iter()
        .map(|a| connect_with_retry(a, CLUSTER))
        .collect();

    let load = LoadConfig {
        clients: CLIENTS,
        targets: cluster.addrs.clone(),
        cluster: CLUSTER,
        requests_per_client: REQUESTS_PER_CLIENT,
        seed: SEED,
        timeout_ms: 120_000,
    };
    let outcome = run_load(
        &load,
        |i, k| {
            let value = 0xBE_0000_0000 + (i as u64) * REQUESTS_PER_CLIENT + k;
            Request::Submit { value }.canonical_bytes()
        },
        |_, frame| {
            matches!(
                Reply::from_canonical_bytes(frame),
                Ok(Reply::Submitted { .. })
            )
        },
    )
    .expect("targets resolve");
    assert_eq!(
        outcome.completed, TOTAL,
        "load loop finished {} of {TOTAL} submissions ({} rejected, {} reconnects)",
        outcome.completed, outcome.rejected, outcome.reconnects
    );

    let committed: u64 = conns
        .iter_mut()
        .enumerate()
        .map(|(i, conn)| drained(conn, i).committed)
        .sum();
    assert_eq!(committed, TOTAL, "cluster lost commands");

    for conn in &mut conns {
        let _ = conn.request(&Request::Shutdown.canonical_bytes());
    }
}
