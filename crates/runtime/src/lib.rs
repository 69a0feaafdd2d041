//! The runtime-agnostic actor boundary.
//!
//! Protocol code in this workspace is written against three things: the
//! [`Actor`] trait (callbacks for start, delivery, timers and inputs), the
//! [`Context`] that stages its effects, and [`VirtualTime`]. Nothing in
//! that surface knows *what* delivers the messages or advances the clock —
//! that is the job of a [`Runtime`], the seam this crate defines.
//!
//! Two runtimes implement it:
//!
//! * `ftm-sim` — the deterministic discrete-event simulator. Virtual time,
//!   seeded delays, byte-identical reports: the verification twin.
//! * `ftm-net` — a threaded TCP transport. Wall-clock milliseconds as
//!   ticks, real sockets, the same staged-effects discipline (one actor
//!   never sees concurrent callbacks).
//!
//! Because both drive the *same* actor types through the *same*
//! [`Context`], a protocol validated by exhaustive simulation sweeps is the
//! byte-for-byte artifact that listens on a socket in production — the
//! modularity argument of the source paper, applied to the runtime itself.
//!
//! This crate is dependency-free by design: it must be importable from the
//! simulator, the transport, protocol crates and fault injectors without
//! creating cycles.

pub mod driver;
pub mod note;
pub mod process;
pub mod time;

pub use driver::{step, Runtime, SendBoxedActor};
pub use process::{Actor, Context, Effects, LayerSplit, Payload, ProcessId, StagedSend, TimerTag};
pub use time::{Duration, VirtualTime};

include!("../../../clippy_canaries.rs"); // D1–D4 ban canaries, DESIGN.md §13
