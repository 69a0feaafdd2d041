//! Signed messages, certificates and the certificate analyzer.
//!
//! This crate implements the paper's two message-plumbing modules:
//!
//! * the **signature module** — every wire message is a signed
//!   [`Envelope`]; receivers authenticate the claimed sender against the
//!   shared [`ftm_crypto::keydir::KeyDirectory`];
//! * the **reliable certification module** — a [`Certificate`] is a set of
//!   *signed message cores* appended to an outgoing message, letting the
//!   receiver audit the sender's history: the value it carries, the
//!   receipts that justify it, and the condition that enabled the send.
//!
//! # Why certificates cannot be corrupted
//!
//! The paper *assumes* an uncorruptible certification module and explains
//! how to enforce it: certificates are composed of signed messages, so a
//! process that tampers with a certificate item invalidates a signature and
//! is detected; the *cardinality* requirements (at least `n − F` signed
//! items) make majority tests meaningful. This crate enforces the
//! assumption constructively — [`analyzer::CertChecker`] re-verifies every
//! signature inside every certificate.
//!
//! # Signing discipline: cores, not envelopes
//!
//! Signatures cover the canonical encoding of a [`MessageCore`]
//! (sender, kind, round, payload) and **not** the attached certificate.
//! Certificates are therefore flat sets of signed cores — the paper's "set
//! of signed messages" — and never nest, which keeps their size linear in
//! `n` per round instead of compounding across rounds. What a certificate
//! proves is *who signed which statement*; the analyzer's well-formedness
//! rules (paper §5.1) turn those statements into evidence for values,
//! round numbers and send conditions.

// D6 (DESIGN.md §13): a Byzantine sender must not be able to crash a replica.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod analyzer;
pub mod certificate;
pub mod certified;
pub mod checkpoint;
pub mod error;
pub mod message;
pub mod rules;
pub mod signed;
pub mod vector;

pub use analyzer::CertChecker;
pub use certificate::Certificate;
pub use certified::Certified;
pub use checkpoint::{checkpoint_digest, checkpoint_vector, decide_vote_kind, make_checkpoint};
pub use error::{CertifyError, FaultClass};
pub use message::{Core, MessageCore, MessageKind, ProtocolId, Round, Value, ValueVector};
pub use signed::{Envelope, SignedCore};

include!("../../../clippy_canaries.rs"); // D1–D4 ban canaries, DESIGN.md §13
