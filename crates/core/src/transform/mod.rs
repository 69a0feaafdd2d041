//! The generic transformation methodology (paper §3 and Fig. 1).
//!
//! A process of a transformed protocol is a stack of five modules:
//!
//! ```text
//!        network ──▶ signature ──▶ muteness FD ──▶ non-muteness FD ──▶
//!        certification ──▶ round-based protocol ──▶ signature ──▶ network
//! ```
//!
//! The methodology applies to *regular round-based* protocols — each
//! correct process communicates regularly with the others over
//! asynchronous rounds — whose program text every process knows. The
//! transformation rules are:
//!
//! 1. **Sign everything** — receivers authenticate the sender
//!    ([`ftm_certify::Envelope`]).
//! 2. **Replace the crash detector with a muteness detector ◇M** — a
//!    Byzantine process can fall protocol-mute without crashing
//!    ([`ftm_fd::TimeoutDetector`] fed only with accepted protocol
//!    messages).
//! 3. **Audit every receipt against the sender's state machine** —
//!    out-of-order and wrong-expected messages convict the sender
//!    ([`ftm_detect::PeerAutomaton`], run by [`ModuleStack::admit`]).
//! 4. **Certify every send** — attach the signed receipts that justify the
//!    carried value and the send condition
//!    ([`ftm_certify::Certificate`]); replace expressions over corruptible
//!    local variables with expressions over certificates (the transformed
//!    model's vote records, [`crate::byzantine::votes`]).
//! 5. **Vector-certify what has no history** — initial values become a
//!    certified vector, turning the problem into Vector Consensus
//!    ([`ftm_certify::vector::VectorBuilder`]).
//!
//! [`stack::ModuleStack`] packages modules 1–3 into a single receive
//! pipeline reusable by any protocol whose wire format is
//! [`ftm_certify::Envelope`]; the certification discipline (4–5) is
//! necessarily protocol-specific — the paper is explicit that certificate
//! *design* depends on the protocol being transformed, while the *method*
//! (witness values, witness send conditions, majority cardinalities) is
//! generic.

pub mod stack;

pub use stack::{ModuleStack, StackStats};
