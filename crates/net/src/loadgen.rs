//! Single-threaded many-client load generator for the readiness-loop
//! transport.
//!
//! The threaded transport needed one OS thread per simulated client; the
//! readiness loop needs none — and neither does the load side. One
//! [`run_load`] call drives `clients` concurrent connections from a
//! single thread with the same non-blocking try-I/O pattern the server
//! uses: each client keeps exactly one request outstanding (strictly
//! serialized, like [`crate::ClientConn`]), and per-request latency is
//! sampled in integer microseconds from [`WallClock::micros`].
//!
//! The caller supplies two closures: one building the request frame for
//! `(client, seq)` and one vetting a reply frame. This keeps the module
//! protocol-agnostic — `ftm-load` and `ftm-serve`'s many-client test
//! feed it `Submit` frames.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use ftm_crypto::wire::CanonicalEncode;

use crate::backoff::Backoff;
use crate::clock::WallClock;
use crate::codec::{frame_into, Hello, DEFAULT_MAX_FRAME};
use crate::poll::{poll, PollFd, POLLIN};
use crate::ring::RingBuf;

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
    stream: Option<TcpStream>,
    rb: RingBuf,
    wb: RingBuf,
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
    /// Drops the connection and schedules a backoff-gated reconnect; the
    /// in-flight request (if any) will be resubmitted on the new
    /// connection.
    fn fail(&mut self, now_ms: u64, reconnects: &mut u64) {
        self.stream = None;
        self.rb = RingBuf::with_max(DEFAULT_MAX_FRAME + 4);
        self.wb = RingBuf::with_max(DEFAULT_MAX_FRAME + 4);
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
            stream: None,
            rb: RingBuf::with_max(DEFAULT_MAX_FRAME + 4),
            wb: RingBuf::with_max(DEFAULT_MAX_FRAME + 4),
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
                c.stream = None;
                continue;
            }
            all_done = false;
            // (Re)connect when due.
            if c.stream.is_none() {
                if now_ms < c.next_dial_ms {
                    continue;
                }
                let addr = targets[i % targets.len()];
                match TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(300)) {
                    Ok(s) => {
                        let _ = s.set_nodelay(true);
                        if s.set_nonblocking(true).is_err() {
                            c.fail(now_ms, &mut reconnects);
                            continue;
                        }
                        frame_into(
                            &mut c.wb,
                            &Hello::Client {
                                cluster: cfg.cluster,
                            }
                            .canonical_bytes(),
                        );
                        c.stream = Some(s);
                        c.backoff.reset();
                        busy = true;
                    }
                    Err(_) => {
                        c.fail(now_ms, &mut reconnects);
                        continue;
                    }
                }
            }
            // Stage the next request when idle.
            if c.inflight.is_none() {
                let seq = c.next_seq;
                let req = make_request(i, seq);
                if frame_into(&mut c.wb, &req) {
                    c.inflight = Some(seq);
                    c.next_seq += 1;
                    c.sent_us = clock.micros();
                    busy = true;
                }
            }
            // Flush.
            let mut failed = false;
            if let Some(stream) = &c.stream {
                while !c.wb.is_empty() {
                    match c.wb.write_to(&mut &*stream) {
                        Ok(0) => break,
                        Ok(_) => busy = true,
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
        let live: Vec<usize> = (0..clients.len())
            .filter(|&i| clients[i].stream.is_some() && clients[i].done < cfg.requests_per_client)
            .collect();
        if live.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(1));
            continue;
        }
        let ready: Vec<usize> = {
            let mut fds: Vec<PollFd<'_>> = live
                .iter()
                .map(|&i| PollFd::new(clients[i].stream.as_ref().expect("live"), POLLIN))
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
            let mut failed = false;
            if let Some(stream) = &c.stream {
                loop {
                    if c.rb.free() == 0 {
                        break;
                    }
                    match c.rb.read_from(&mut &*stream) {
                        Ok(0) => {
                            failed = true;
                            break;
                        }
                        Ok(_) => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                }
            }
            // Parse reply frames.
            let mut frames: VecDeque<Vec<u8>> = VecDeque::new();
            loop {
                let mut len_buf = [0u8; 4];
                if !c.rb.copy_to(&mut len_buf, 4) {
                    break;
                }
                let len = u32::from_be_bytes(len_buf) as usize;
                if len > DEFAULT_MAX_FRAME || c.rb.len() < 4 + len {
                    if len > DEFAULT_MAX_FRAME {
                        failed = true;
                    }
                    break;
                }
                c.rb.consume(4);
                let mut frame = vec![0u8; len];
                c.rb.copy_to(&mut frame, len);
                c.rb.consume(len);
                frames.push_back(frame);
            }
            for frame in frames {
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
    use super::*;

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
