//! Non-muteness failure detection: per-peer state machines.
//!
//! Under the paper's assumption that every process knows the program text of
//! every other, each process `p` builds one state machine `SM_p(q)` per peer
//! `q`, modeling the behavior a correct `q` must exhibit (paper Fig. 4).
//! Transitions fire on messages received from `q` (FIFO channels guarantee
//! `p` sees `q`'s messages in send order). A message whose receipt event is
//! not enabled is **out-of-order**; an enabled message failing the
//! syntactic check or whose certificate is not well-formed is a **wrong
//! expected message**. Both drive the automaton into the terminal `faulty`
//! state, and `q` joins `p`'s `faulty` set — which the protocol module may
//! read (alongside the muteness detector's `suspected` set) but never
//! write.
//!
//! * [`automaton`] — the per-peer automaton: phases `start, q0, q1, q2,
//!   final, faulty`, round tracking, transition rules.
//! * [`predicates`] — the `PF_{a,b}` predicates: certificate analysis
//!   specialized per transition (round entry, relays, decides).
//!
//! The receive pipeline that embeds one automaton per peer is `ftm_core`'s
//! `ModuleStack`.

// D6 (DESIGN.md §13): a Byzantine sender must not be able to crash a replica.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod automaton;
pub mod predicates;

pub use automaton::{PeerAutomaton, PeerPhase, ProtocolTable, Requirement};

include!("../../../clippy_canaries.rs"); // D1–D4 ban canaries, DESIGN.md §13
