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
//! When no entry is ready the probe sleeps in ~1 ms slices up to the
//! caller's timeout, so an idle node burns negligible CPU while a busy
//! one never sleeps at all. Deadlines are read through [`WallClock`] —
//! rule D3 (the `Instant` ban in `clippy.toml`) confines the raw clock
//! to `clock.rs`, and this module stays on the sanctioned API.

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

/// Level-triggered readiness poll: fills each entry's `revents` and
/// returns how many entries are ready, sleeping in ~1 ms slices up to
/// `timeout` while nothing is.
pub fn poll(fds: &mut [PollFd<'_>], timeout: Duration) -> usize {
    let clock = WallClock::start();
    let timeout_us = u64::try_from(timeout.as_micros()).unwrap_or(u64::MAX);
    loop {
        let ready = scan(fds);
        if ready > 0 || clock.micros() >= timeout_us {
            return ready;
        }
        std::thread::sleep(Duration::from_millis(1).min(timeout));
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
