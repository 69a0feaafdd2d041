//! Shared pieces of the `ftm-serve` / `ftm-load` binaries: the client
//! wire protocol, the status snapshot, and a tiny flag parser.
//!
//! The server binary (`src/main.rs`) hosts one [`ftm_core::byzantine::log::ReplicatedLog`]
//! replica on the `ftm-net` transport; the load generator
//! (`src/bin/ftm-load.rs`) drives a cluster of them: submit commands, poll
//! status until the log completes, check agreement, emit a byte-stable
//! JSON report.
//!
//! Everything here is deliberately socket-free and clock-free: sockets
//! and wall time belong to `ftm-net` (its D3/D4 `#[expect]`s against the
//! `clippy.toml` bans do not extend to this crate), so the binaries
//! consume [`ftm_net::ClientConn`] and replica-reported milliseconds
//! instead.

pub mod api;
pub mod args;
pub use ftm_core::byzantine::batch;

use std::fmt::Write as _;

use ftm_certify::ValueVector;
use ftm_crypto::sha256::Sha256;
use ftm_crypto::wire::Encoder;

/// SHA-256 over the canonical encoding of a decided log prefix.
///
/// Two replicas hold the same log if and only if their digests match, so
/// the load generator's agreement check is one 32-byte comparison per
/// replica instead of shipping whole logs.
pub fn log_digest(log: &[ValueVector]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.seq(log);
    Sha256::digest(&enc.into_bytes()).as_bytes().to_vec()
}

/// Lowercase hex rendering of a byte string (digests in reports).
pub fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

include!("../../../clippy_canaries.rs"); // D1–D4 ban canaries, DESIGN.md §13

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_logs_and_hex_is_stable() {
        let a = vec![ValueVector::from_entries(vec![Some(1), None])];
        let b = vec![ValueVector::from_entries(vec![Some(2), None])];
        assert_eq!(log_digest(&a), log_digest(&a));
        assert_ne!(log_digest(&a), log_digest(&b));
        assert_eq!(hex(&[0x00, 0xab, 0xff]), "00abff");
        assert_eq!(log_digest(&a).len(), 32);
    }
}
