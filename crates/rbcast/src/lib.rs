//! Reliable broadcast substrates for both failure models.
//!
//! The paper's protocols lean on reliable dissemination in two places:
//! the `DECIDE` relay rule (Fig. 2/3 line 2 — "if a process decides, all
//! correct processes receive a DECIDE") is exactly an *eager-relay
//! reliable broadcast* for the crash model, and any production deployment
//! of the transformed protocol would want its arbitrary-fault counterpart.
//! This crate provides both as reusable components plus simulator actors:
//!
//! * [`eager`] — eager-relay reliable broadcast (crash model): on first
//!   receipt, relay to everyone, then deliver. Tolerates any number of
//!   crashes: if any correct process delivers, its relay wave reaches all
//!   correct processes.
//! * [`bracha`] — Bracha's authenticated double-echo broadcast
//!   (arbitrary-fault model, `n > 3F`): `INITIAL → ECHO → READY → deliver`
//!   with quorum thresholds that make even an *equivocating* broadcaster
//!   unable to get two correct processes to deliver different messages.
//!   Channels are authenticated point-to-point (the simulator's channels
//!   are), so no signatures are needed — the classic construction.
//! * [`properties`] — trace/report-level checkers for the reliable
//!   broadcast specification: Validity, Agreement (no two correct
//!   processes deliver differently), Integrity (at most one delivery),
//!   Totality (all-or-nothing among correct processes).

pub mod bracha;
pub mod eager;
pub mod properties;

pub use bracha::{BrachaActor, BrachaMsg, BrachaState};
pub use eager::{EagerActor, EagerMsg, EagerState};

include!("../../../clippy_canaries.rs"); // D1–D4 ban canaries, DESIGN.md §13
