//! Byte ring buffers for the readiness loop's per-connection I/O state.
//!
//! Every [`FramedConn`](crate::codec::FramedConn) owns two [`RingBuf`]s: a
//! *read* ring accumulating partial frames straight off the socket, and a
//! *write* ring holding encoded frames the loop has not yet managed to
//! flush. Both grow by doubling up to a hard cap — the cap is the
//! backpressure boundary: a write ring that would exceed it refuses the
//! push, and the loop reacts by disconnecting the slow reader (client) or
//! leaving the frames in the peer's outbound queue (peer).
//!
//! The buffer is a classic power-of-two circular array: `head` is the
//! read cursor, `len` the live byte count, and the two-slice views
//! (`peek`) expose the contiguous runs without copying.

use std::io::{self, Read, Write};

/// Minimum allocation once a buffer holds any bytes.
const MIN_CAP: usize = 4096;

/// A growable circular byte buffer with a hard capacity cap.
#[derive(Debug)]
pub struct RingBuf {
    buf: Vec<u8>,
    head: usize,
    len: usize,
    max: usize,
}

impl RingBuf {
    /// An empty ring that will never grow beyond `max` bytes.
    pub fn with_max(max: usize) -> Self {
        RingBuf {
            buf: Vec::new(),
            head: 0,
            len: 0,
            max: max.max(MIN_CAP),
        }
    }

    /// Live bytes currently buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes that can still be pushed before hitting the cap.
    pub fn free(&self) -> usize {
        self.max - self.len
    }

    /// Grows the backing store to at least `need` live-byte capacity
    /// (power-of-two, capped at `max`). Returns `false` if `need`
    /// exceeds the cap.
    fn reserve(&mut self, need: usize) -> bool {
        if need > self.max {
            return false;
        }
        if need <= self.buf.len() {
            return true;
        }
        let mut cap = self.buf.len().max(MIN_CAP);
        while cap < need {
            cap *= 2;
        }
        let cap = cap.min(self.max.next_power_of_two());
        // Re-linearize into the new allocation.
        let mut next = vec![0u8; cap];
        let (a, b) = self.peek();
        next[..a.len()].copy_from_slice(a);
        next[a.len()..a.len() + b.len()].copy_from_slice(b);
        self.head = 0;
        self.buf = next;
        true
    }

    /// The two contiguous live-byte slices, in order (second may be empty).
    pub fn peek(&self) -> (&[u8], &[u8]) {
        if self.buf.is_empty() || self.len == 0 {
            return (&[], &[]);
        }
        let end = self.head + self.len;
        if end <= self.buf.len() {
            (&self.buf[self.head..end], &[])
        } else {
            let wrap = end - self.buf.len();
            (&self.buf[self.head..], &self.buf[..wrap])
        }
    }

    /// Copies the first `n` live bytes into `out` (which must be at least
    /// `n` long) without consuming them. Returns `false` if fewer than `n`
    /// bytes are buffered.
    pub fn copy_to(&self, out: &mut [u8], n: usize) -> bool {
        if n > self.len {
            return false;
        }
        let (a, b) = self.peek();
        if n <= a.len() {
            out[..n].copy_from_slice(&a[..n]);
        } else {
            out[..a.len()].copy_from_slice(a);
            out[a.len()..n].copy_from_slice(&b[..n - a.len()]);
        }
        true
    }

    /// Drops the first `n` live bytes (saturating).
    pub fn consume(&mut self, n: usize) {
        let n = n.min(self.len);
        self.len -= n;
        if self.len == 0 {
            self.head = 0;
        } else {
            self.head = (self.head + n) % self.buf.len();
        }
    }

    /// Appends `data`, growing as needed. Returns `false` (leaving the
    /// ring unchanged) if the push would exceed the cap.
    pub fn push(&mut self, data: &[u8]) -> bool {
        if !self.reserve(self.len + data.len()) {
            return false;
        }
        let start = (self.head + self.len) % self.buf.len();
        let tail_room = self.buf.len() - start;
        if data.len() <= tail_room {
            self.buf[start..start + data.len()].copy_from_slice(data);
        } else {
            self.buf[start..].copy_from_slice(&data[..tail_room]);
            self.buf[..data.len() - tail_room].copy_from_slice(&data[tail_room..]);
        }
        self.len += data.len();
        true
    }

    /// Reads from `r` into the ring's spare room (growing toward the cap
    /// first), returning the byte count. `Ok(0)` means either EOF or a
    /// full ring — callers distinguish via [`free`](RingBuf::free).
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        if self.free() == 0 {
            return Ok(0);
        }
        // Grow eagerly so large frames are read in few syscalls.
        let want = (self.len + self.free().min(64 * 1024)).max(MIN_CAP);
        if !self.reserve(want.min(self.max)) {
            return Ok(0);
        }
        let start = (self.head + self.len) % self.buf.len();
        let writable_here = (self.buf.len() - start).min(self.buf.len() - self.len);
        let n = r.read(&mut self.buf[start..start + writable_here])?;
        self.len += n;
        Ok(n)
    }

    /// Writes buffered bytes to `w`, consuming what was accepted and
    /// returning the byte count.
    pub fn write_to<W: Write>(&mut self, w: &mut W) -> io::Result<usize> {
        let n = {
            let (a, _) = self.peek();
            if a.is_empty() {
                return Ok(0);
            }
            w.write(a)?
        };
        self.consume(n);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_peek_consume_roundtrip_with_wraparound() {
        let mut rb = RingBuf::with_max(1 << 20);
        for round in 0..50u32 {
            let chunk: Vec<u8> = (0..997).map(|i| ((i as u32 + round) % 251) as u8).collect();
            assert!(rb.push(&chunk));
            let mut out = vec![0u8; 500];
            assert!(rb.copy_to(&mut out, 500));
            assert_eq!(&out[..], &chunk[..500]);
            rb.consume(500);
            // Drain the remainder to keep the head moving through wraps.
            let rest = rb.len();
            let mut out = vec![0u8; rest];
            assert!(rb.copy_to(&mut out, rest));
            rb.consume(rest);
            assert!(rb.is_empty());
        }
    }

    #[test]
    fn cap_is_a_hard_boundary() {
        let mut rb = RingBuf::with_max(MIN_CAP);
        assert!(rb.push(&vec![7u8; MIN_CAP]));
        assert!(!rb.push(&[1]), "push past the cap must be refused");
        assert_eq!(rb.len(), MIN_CAP);
        rb.consume(1);
        assert!(rb.push(&[1]), "freeing a byte reopens exactly that byte");
    }

    #[test]
    fn io_roundtrip_through_std_cursors() {
        let mut rb = RingBuf::with_max(1 << 16);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        let mut src = io::Cursor::new(data.clone());
        let mut total = 0;
        while total < data.len() {
            let n = rb.read_from(&mut src).unwrap();
            if n == 0 {
                break;
            }
            total += n;
        }
        assert_eq!(total, data.len());
        let mut sink = Vec::new();
        while !rb.is_empty() {
            rb.write_to(&mut sink).unwrap();
        }
        assert_eq!(sink, data);
    }

    #[test]
    fn partial_copy_fails_when_short() {
        let mut rb = RingBuf::with_max(1 << 16);
        rb.push(&[1, 2, 3]);
        let mut out = [0u8; 4];
        assert!(!rb.copy_to(&mut out, 4));
        assert!(rb.copy_to(&mut out, 3));
        assert_eq!(&out[..3], &[1, 2, 3]);
    }
}
