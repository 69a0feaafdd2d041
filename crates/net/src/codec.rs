//! Length-prefixed framing and the connection handshake.
//!
//! # Wire format
//!
//! Every frame on a connection is a big-endian `u32` length followed by
//! exactly that many payload bytes:
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 (BE)  | payload: len bytes  |
//! +----------------+---------------------+
//! ```
//!
//! The payload of a peer frame is the *canonical encoding* of the protocol
//! message (the same [`ftm_crypto::wire`] bytes that signatures are
//! computed over), so a frame can be decoded without copying: the length
//! prefix delimits the message and the canonical decoder reads big-endian
//! fields in place. The current implementation reads each frame into one
//! `Vec<u8>` and decodes from that buffer; a zero-copy decoder would only
//! need to borrow the same slice.
//!
//! The first frame on every connection is a [`Hello`] identifying the
//! dialer; everything after is protocol (peer) or request/reply (client)
//! traffic. The `Hello` carries a magic number, a format version and a
//! cluster id so that cross-version or cross-cluster connections fail
//! loudly at the handshake instead of corrupting a run.
//!
//! Blocking ends use [`write_frame`] / [`read_frame`]; the node and the
//! load generator hold a non-blocking [`FramedConn`].

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

use ftm_crypto::wire::CanonicalEncode;

use crate::ring::RingBuf;

/// Frame/handshake magic: `"FTMN"` as a big-endian `u32`.
pub const MAGIC: u32 = 0x4654_4D4E;

/// Wire-format version; bumped on any incompatible change.
pub const VERSION: u32 = 1;

/// Default cap on a single frame's payload (1 MiB). A length prefix above
/// the cap is treated as corruption and rejected without allocating.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Writes one length-prefixed frame and flushes the writer.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads longer than `u32::MAX` as
/// [`io::ErrorKind::InvalidInput`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32::MAX"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame, enforcing `max_frame`.
///
/// # Errors
///
/// * [`io::ErrorKind::InvalidData`] if the length prefix exceeds
///   `max_frame` (corrupt or hostile peer);
/// * [`io::ErrorKind::UnexpectedEof`] if the connection closes mid-frame;
/// * any other I/O error from the underlying reader.
pub fn read_frame<R: Read>(r: &mut R, max_frame: usize) -> io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let mut payload = vec![0u8; frame_len(prefix, max_frame)?];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// The payload length a frame's prefix announces, checked against
/// `max_frame` before anything is allocated for it.
fn frame_len(prefix: [u8; 4], max_frame: usize) -> io::Result<usize> {
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {max_frame}"),
        ));
    }
    Ok(len)
}

/// Stages one length-prefixed frame into a write ring, atomically:
/// either the whole frame (prefix + payload) fits under the ring's cap
/// and `true` is returned, or the ring is left untouched and `false` is
/// returned — a partially staged frame would desync the stream.
pub fn frame_into(ring: &mut RingBuf, payload: &[u8]) -> bool {
    if ring.free() < payload.len() + 4 || payload.len() > u32::MAX as usize {
        return false;
    }
    let len = payload.len() as u32;
    ring.push(&len.to_be_bytes()) && ring.push(payload)
}

/// Per-attempt bound on a blocking dial, the longest a loop stalls on one.
const DIAL_TIMEOUT_MS: u64 = 300;

/// What one [`FramedConn::fill`] or [`FramedConn::flush`] did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Pass {
    /// Whether any byte moved between the socket and its ring.
    pub moved: bool,
    /// EOF (on a fill) or an I/O error: the caller closes the connection.
    pub closed: bool,
}

/// One non-blocking framed connection: the socket, a read ring of
/// partial frames (one [`DEFAULT_MAX_FRAME`] frame at most) and a write
/// ring of staged frames (capped at the caller's backpressure bound).
#[derive(Debug)]
pub struct FramedConn {
    stream: TcpStream,
    rb: RingBuf,
    wb: RingBuf,
}

impl FramedConn {
    /// Wraps a connected socket: no Nagle delay, non-blocking.
    ///
    /// # Errors
    ///
    /// The socket cannot be made non-blocking.
    pub fn new(stream: TcpStream, write_cap: usize) -> io::Result<Self> {
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true)?;
        Ok(FramedConn {
            stream,
            rb: RingBuf::with_max(DEFAULT_MAX_FRAME + 4),
            wb: RingBuf::with_max(write_cap),
        })
    }

    /// Dials `addr` (bounded at 300 ms) and stages `hello` first.
    ///
    /// # Errors
    ///
    /// The dial fails or times out, or as for [`new`](FramedConn::new).
    pub fn dial(addr: &SocketAddr, hello: Hello, write_cap: usize) -> io::Result<Self> {
        let timeout = std::time::Duration::from_millis(DIAL_TIMEOUT_MS);
        let mut conn = FramedConn::new(TcpStream::connect_timeout(addr, timeout)?, write_cap)?;
        // The write ring is empty, so the handshake always fits.
        conn.push_frame(&hello.canonical_bytes());
        Ok(conn)
    }

    /// The socket, for readiness probes.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Whether staged bytes are still waiting for the socket.
    pub fn has_unflushed(&self) -> bool {
        !self.wb.is_empty()
    }

    /// Stages one frame, as [`frame_into`] does: `false` (nothing staged)
    /// if it would exceed the write ring's cap.
    pub fn push_frame(&mut self, payload: &[u8]) -> bool {
        frame_into(&mut self.wb, payload)
    }

    /// Reads the socket into the read ring until it would block, EOF, an
    /// error, or a full ring (inbound backpressure: cut frames first).
    pub fn fill(&mut self) -> Pass {
        let (rb, stream) = (&mut self.rb, &self.stream);
        until_blocked(true, || {
            (rb.free() > 0).then(|| rb.read_from(&mut &*stream))
        })
    }

    /// Writes the write ring to the socket until it is empty, the socket
    /// would block, or an error.
    pub fn flush(&mut self) -> Pass {
        let (wb, stream) = (&mut self.wb, &self.stream);
        until_blocked(false, || {
            (!wb.is_empty()).then(|| wb.write_to(&mut &*stream))
        })
    }

    /// Cuts the next whole frame off the read ring; `Ok(None)` until one
    /// has fully arrived.
    ///
    /// # Errors
    ///
    /// As for [`read_frame`] at [`DEFAULT_MAX_FRAME`]: the stream cannot be
    /// resynchronised, so the caller drops the connection.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut prefix = [0u8; 4];
        if !self.rb.copy_to(&mut prefix, 4) {
            return Ok(None);
        }
        let len = frame_len(prefix, DEFAULT_MAX_FRAME)?;
        if self.rb.len() < 4 + len {
            return Ok(None);
        }
        self.rb.consume(4);
        let mut frame = vec![0u8; len];
        self.rb.copy_to(&mut frame, len);
        self.rb.consume(len);
        Ok(Some(frame))
    }
}

/// Repeats a non-blocking transfer until `op` has nothing to move
/// (`None`), would block, moves nothing (EOF if `zero_closes`) or fails.
fn until_blocked(zero_closes: bool, mut op: impl FnMut() -> Option<io::Result<usize>>) -> Pass {
    let mut pass = Pass::default();
    while let Some(done) = op() {
        match done {
            Ok(0) => pass.closed = zero_closes,
            Ok(_) => {
                pass.moved = true;
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => pass.closed = e.kind() != io::ErrorKind::WouldBlock,
        }
        break;
    }
    pass
}

/// The first frame on every connection: who is dialing, and for which
/// cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hello {
    /// A replica-to-replica connection; `id` is the dialer's process id.
    Peer {
        /// Dialer's process id (its index in the cluster).
        id: u32,
        /// Cluster identity; both ends must agree.
        cluster: u64,
    },
    /// A client connection (request/reply traffic).
    Client {
        /// Cluster identity the client expects to talk to.
        cluster: u64,
    },
}

impl Hello {
    /// Cluster id carried by either variant.
    pub fn cluster(&self) -> u64 {
        match self {
            Hello::Peer { cluster, .. } | Hello::Client { cluster } => *cluster,
        }
    }
}

// Every handshake opens with the magic and the version.
ftm_crypto::wire_codec! {
    enum Hello after (MAGIC, VERSION) {
        1 => Peer { id, cluster },
        2 => Client { cluster },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_crypto::wire::{CanonicalDecode, DecodeError};

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"").expect("write empty");
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).expect("read"),
            b"hello"
        );
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).expect("read empty"),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut io::Cursor::new(buf), 1024).expect_err("cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_eof_not_panic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut io::Cursor::new(buf), 1024).expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frame_into_is_atomic_at_the_cap() {
        let mut ring = crate::ring::RingBuf::with_max(4096);
        assert!(frame_into(&mut ring, b"hello"));
        assert_eq!(ring.len(), 9);
        let big = vec![0u8; 4096];
        assert!(!frame_into(&mut ring, &big), "must refuse, not truncate");
        assert_eq!(ring.len(), 9, "refused push leaves the ring untouched");
        let mut out = vec![0u8; 9];
        assert!(ring.copy_to(&mut out, 9));
        assert_eq!(&out[..4], &5u32.to_be_bytes());
        assert_eq!(&out[4..], b"hello");
    }

    #[test]
    fn hello_roundtrip_both_variants() {
        for hello in [
            Hello::Peer {
                id: 3,
                cluster: 0xDEAD,
            },
            Hello::Client { cluster: 0xBEEF },
        ] {
            let bytes = hello.canonical_bytes();
            assert_eq!(Hello::from_canonical_bytes(&bytes), Ok(hello));
        }
    }

    #[test]
    fn hello_rejects_wrong_magic_version_and_tag() {
        let good = Hello::Client { cluster: 1 }.canonical_bytes();
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(Hello::from_canonical_bytes(&bad_magic).is_err());
        let mut bad_version = good.clone();
        bad_version[7] = 99;
        assert!(Hello::from_canonical_bytes(&bad_version).is_err());
        let mut bad_tag = good;
        bad_tag[8] = 9;
        assert_eq!(
            Hello::from_canonical_bytes(&bad_tag),
            Err(DecodeError::BadTag(9))
        );
    }
}
