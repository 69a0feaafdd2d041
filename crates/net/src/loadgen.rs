//! Single-threaded many-client load generator for the readiness-loop
//! transport.
//!
//! The threaded transport needed one OS thread per simulated client; the
//! readiness loop needs none — and neither does the load side. One
//! [`run_load`] call drives `clients` concurrent connections from a
//! single thread, each a [`FramedConn`] as on the server: each client
//! keeps exactly one request outstanding (strictly serialized, like
//! [`crate::ClientConn`]), and per-request latency is sampled in integer
//! microseconds from [`WallClock::micros`].
//!
//! The caller supplies two closures: one building the request frame for
//! `(client, seq)` and one vetting a reply frame. This keeps the module
//! protocol-agnostic — `ftm-load` and `ftm-serve`'s many-client test
//! feed it `Submit` frames.

use std::io;
use std::net::ToSocketAddrs;

use crate::backoff::Backoff;
use crate::clock::WallClock;
use crate::codec::{FramedConn, Hello, DEFAULT_MAX_FRAME};
use crate::poll::{poll, PollFd, POLLIN};

/// Write-ring cap of a client connection: one request of the largest
/// frame a replica accepts.
const WRITE_CAP: usize = DEFAULT_MAX_FRAME + 4;

/// Shape of one many-client load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Number of concurrent client connections.
    pub clients: usize,
    /// Replica addresses; client `i` connects to `targets[i % len]`.
    pub targets: Vec<String>,
    /// Cluster id for the client handshake.
    pub cluster: u64,
    /// Requests each client performs before closing.
    pub requests_per_client: u64,
    /// Seed for the reconnect backoff jitter streams.
    pub seed: u64,
    /// Wall-clock bound on the whole run, in ms.
    pub timeout_ms: u64,
}

/// Outcome of a [`run_load`] call. Latencies are integer microseconds.
#[derive(Debug, Clone)]
pub struct LoadOutcome {
    /// Requests that received an accepted reply.
    pub completed: u64,
    /// Replies the caller's vetting closure rejected.
    pub rejected: u64,
    /// Connection-level failures (each triggers a backoff + reconnect).
    pub reconnects: u64,
    /// Wall-clock duration of the run in ms.
    pub elapsed_ms: u64,
    /// Median request latency in µs (0 if no samples).
    pub p50_us: u64,
    /// 95th-percentile request latency in µs (0 if no samples).
    pub p95_us: u64,
}

/// One client connection's state in the load loop.
struct LoadClient {
    /// The live connection, if any.
    conn: Option<FramedConn>,
    /// Requests completed (accepted replies).
    done: u64,
    /// Sequence number of the in-flight request, if one is outstanding.
    inflight: Option<u64>,
    /// Next sequence number to submit.
    next_seq: u64,
    /// µs timestamp of the in-flight request's send.
    sent_us: u64,
    backoff: Backoff,
    /// ms timestamp before which no reconnect attempt is made.
    next_dial_ms: u64,
}

impl LoadClient {
    /// Drops the connection and schedules a backoff-gated reconnect. The
    /// in-flight request (if any) is abandoned, not resubmitted: the next
    /// request takes a fresh sequence number, so each sequence number is
    /// sent at most once.
    fn fail(&mut self, now_ms: u64, reconnects: &mut u64) {
        self.conn = None;
        self.inflight = None;
        self.next_dial_ms = now_ms + self.backoff.next_delay_ms();
        *reconnects += 1;
    }
}

/// Percentile of a sorted sample vector by integer ratio (`idx =
/// len * pct / 100`, clamped), avoiding float arithmetic (lint D1).
fn percentile_us(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() as u64 * pct / 100).min(sorted.len() as u64 - 1) as usize;
    sorted[idx]
}

/// Drives `cfg.clients` concurrent connections until every client has
/// completed its request budget (or the timeout trips).
///
/// `make_request(client, seq)` builds the request frame payload;
/// `accept_reply(client, reply)` returns whether the reply counts as
/// completed.
///
/// # Errors
///
/// Returns `Err` only when no target address resolves; per-connection
/// failures are absorbed into backoff-gated reconnects.
pub fn run_load<Q, R>(
    cfg: &LoadConfig,
    mut make_request: Q,
    mut accept_reply: R,
) -> io::Result<LoadOutcome>
where
    Q: FnMut(usize, u64) -> Vec<u8>,
    R: FnMut(usize, &[u8]) -> bool,
{
    let targets: Vec<_> = cfg
        .targets
        .iter()
        .map(|t| {
            t.to_socket_addrs()
                .ok()
                .and_then(|mut a| a.next())
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, format!("bad target {t}"))
                })
        })
        .collect::<Result<_, _>>()?;
    if targets.is_empty() || cfg.clients == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "need at least one target and one client",
        ));
    }
    let clock = WallClock::start();
    let mut clients: Vec<LoadClient> = (0..cfg.clients)
        .map(|i| LoadClient {
            conn: None,
            done: 0,
            inflight: None,
            next_seq: 0,
            sent_us: 0,
            backoff: Backoff::new(cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            next_dial_ms: 0,
        })
        .collect();
    let mut samples: Vec<u64> = Vec::new();
    let mut rejected = 0u64;
    let mut reconnects = 0u64;

    loop {
        let now_ms = clock.now().ticks();
        if now_ms >= cfg.timeout_ms {
            break;
        }
        let mut all_done = true;
        let mut busy = false;
        for (i, c) in clients.iter_mut().enumerate() {
            if c.done >= cfg.requests_per_client {
                c.conn = None;
                continue;
            }
            all_done = false;
            // (Re)connect when due.
            let conn = match c.conn.as_mut() {
                Some(conn) => conn,
                None if now_ms < c.next_dial_ms => continue,
                None => {
                    let hello = Hello::Client {
                        cluster: cfg.cluster,
                    };
                    match FramedConn::dial(&targets[i % targets.len()], hello, WRITE_CAP) {
                        Ok(conn) => {
                            c.backoff.reset();
                            busy = true;
                            c.conn.insert(conn)
                        }
                        Err(_) => {
                            c.fail(now_ms, &mut reconnects);
                            continue;
                        }
                    }
                }
            };
            // Stage the next request when idle.
            if c.inflight.is_none() && conn.push_frame(&make_request(i, c.next_seq)) {
                c.inflight = Some(c.next_seq);
                c.next_seq += 1;
                c.sent_us = clock.micros();
                busy = true;
            }
            let pass = conn.flush();
            busy |= pass.moved;
            if pass.closed {
                c.fail(now_ms, &mut reconnects);
            }
        }
        if all_done {
            break;
        }
        // Poll all live sockets for replies; sleep only when idle.
        let wait = if busy {
            std::time::Duration::ZERO
        } else {
            std::time::Duration::from_millis(5)
        };
        // A client whose budget is done was disconnected above.
        let live: Vec<usize> = (0..clients.len())
            .filter(|&i| clients[i].conn.is_some())
            .collect();
        if live.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(1));
            continue;
        }
        let ready: Vec<usize> = {
            let mut fds: Vec<PollFd<'_>> = live
                .iter()
                .map(|&i| PollFd::new(clients[i].conn.as_ref().expect("live").stream(), POLLIN))
                .collect();
            if poll(&mut fds, wait) == 0 {
                Vec::new()
            } else {
                live.iter()
                    .zip(&fds)
                    .filter(|(_, fd)| fd.revents & POLLIN != 0)
                    .map(|(&i, _)| i)
                    .collect()
            }
        };
        let now_ms = clock.now().ticks();
        for i in ready {
            let c = &mut clients[i];
            let conn = c.conn.as_mut().expect("polled, so live");
            let mut failed = conn.fill().closed;
            loop {
                let frame = match conn.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => {
                        // An oversize prefix: reconnect.
                        failed = true;
                        break;
                    }
                };
                if c.inflight.is_none() {
                    continue; // unsolicited reply: ignore
                }
                let latency = clock.micros().saturating_sub(c.sent_us);
                c.inflight = None;
                if accept_reply(i, &frame) {
                    c.done += 1;
                    samples.push(latency);
                } else {
                    rejected += 1;
                }
            }
            if failed {
                c.fail(now_ms, &mut reconnects);
            }
        }
    }

    samples.sort_unstable();
    Ok(LoadOutcome {
        completed: samples.len() as u64,
        rejected,
        reconnects,
        elapsed_ms: clock.now().ticks(),
        p50_us: percentile_us(&samples, 50),
        p95_us: percentile_us(&samples, 95),
    })
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode};
    use ftm_runtime::{Actor, Context, ProcessId};

    use super::*;
    use crate::cluster::spawn_node;
    use crate::node::{NodeConfig, ServiceReply};

    /// A replica that never sends: the server side is all in the service.
    struct Idle;

    impl Actor for Idle {
        type Msg = u64;
        type Decision = u64;

        fn on_start(&mut self, _ctx: &mut Context<'_, u64, u64>) {}

        fn on_message(&mut self, _from: ProcessId, _msg: &u64, _ctx: &mut Context<'_, u64, u64>) {}
    }

    /// Request `seq` of client `c` as one number.
    fn request(c: usize, seq: u64) -> u64 {
        c as u64 * 1_000 + seq
    }

    #[test]
    fn a_connection_dropped_mid_request_is_redialed_and_the_budget_completes() {
        const CLIENTS: usize = 2;
        const REQUESTS: u64 = 6;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let cfg = NodeConfig::new(ProcessId(0), vec![addr.clone()], 9, 1);
        // The server echoes each request, except request 2 of client 0:
        // its reply overflows the client write cap, so the node cuts the
        // connection with that request unanswered.
        let seen: Arc<Mutex<Vec<u64>>> = Arc::default();
        let log = Arc::clone(&seen);
        let node = spawn_node(cfg, listener, Box::new(Idle), move |_, _, frame| {
            let req = u64::from_canonical_bytes(frame).expect("a request");
            log.lock().expect("log").push(req);
            if req == request(0, 2) {
                ServiceReply::reply(vec![0u8; 512 * 1024])
            } else {
                ServiceReply::reply(frame.to_vec())
            }
        });
        let load = LoadConfig {
            clients: CLIENTS,
            targets: vec![addr],
            cluster: 9,
            requests_per_client: REQUESTS,
            seed: 5,
            timeout_ms: 20_000,
        };
        let outcome = run_load(
            &load,
            |c, seq| request(c, seq).canonical_bytes(),
            |c, reply| u64::from_canonical_bytes(reply).is_ok_and(|r| r / 1_000 == c as u64),
        )
        .expect("load run");
        node.kill().expect("node");
        assert_eq!(
            (outcome.completed, outcome.rejected, outcome.reconnects),
            (CLIENTS as u64 * REQUESTS, 0, 1)
        );
        // Each sequence number is sent once: the dropped request is not
        // resubmitted, and client 0 takes one more to fill its budget.
        let seen = seen.lock().expect("log").clone();
        for c in 0..CLIENTS {
            let sent: Vec<u64> = seen
                .iter()
                .filter(|&&r| r / 1_000 == c as u64)
                .map(|r| r % 1_000)
                .collect();
            let expect: Vec<u64> = (0..REQUESTS + u64::from(c == 0)).collect();
            assert_eq!(sent, expect, "client {c}");
        }
    }

    #[test]
    fn percentile_uses_integer_ratio_indexing() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&sorted, 50), 51);
        assert_eq!(percentile_us(&sorted, 95), 96);
        assert_eq!(percentile_us(&sorted, 100), 100);
        assert_eq!(percentile_us(&[], 95), 0);
        assert_eq!(percentile_us(&[7], 95), 7);
    }
}
