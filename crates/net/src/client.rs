//! Client side of the request/reply protocol: one blocking connection,
//! framed requests, framed replies.

use std::io;
use std::net::TcpStream;

use ftm_crypto::wire::CanonicalEncode;

use crate::codec::{read_frame, write_frame, Hello, DEFAULT_MAX_FRAME};

/// A blocking client connection to one replica.
///
/// Requests are strictly serialized: each [`request`](ClientConn::request)
/// writes one frame and waits for exactly one reply frame. The replica's
/// event loop services requests between protocol steps, so a request
/// observes a consistent snapshot of the replica's state.
#[derive(Debug)]
pub struct ClientConn {
    stream: TcpStream,
}

impl ClientConn {
    /// Connects to `addr` and performs the client handshake for `cluster`.
    ///
    /// # Errors
    ///
    /// Propagates connection and handshake-write failures.
    pub fn connect(addr: &str, cluster: u64) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        write_frame(&mut stream, &Hello::Client { cluster }.canonical_bytes())?;
        Ok(ClientConn { stream })
    }

    /// Sends one request frame and blocks for the reply frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; an oversized reply is `InvalidData`.
    pub fn request(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(&mut self.stream, payload)?;
        read_frame(&mut self.stream, DEFAULT_MAX_FRAME)
    }
}
