//! Deterministic discrete-event simulator for asynchronous message-passing
//! distributed systems.
//!
//! This is the network/runtime substrate the paper assumes: `n` processes,
//! every pair connected by a **reliable FIFO channel**, no bound on relative
//! process speeds or message transfer delays. The simulator makes that model
//! executable and — crucially for a reproduction — *deterministic*: a run is
//! a pure function of its [`SimConfig`] (including the RNG seed), so every
//! counterexample a sweep finds is replayable bit-for-bit.
//!
//! # Architecture
//!
//! * Protocol code implements [`Actor`]: callbacks for start, message
//!   delivery and timer expiry, issuing effects through a [`Context`].
//! * The [`Simulation`] runner owns the event queue (a priority queue ordered
//!   by virtual time with a deterministic tie-break), the [`network`] delay
//!   model (random per-message latency, FIFO enforced per ordered pair,
//!   optional Global Stabilization Time after which delays are bounded), and
//!   per-run [`metrics`] and [`trace`] collection.
//! * Crash faults (the *benign* kind) are first-class: the runner silences a
//!   process at its scheduled crash time. Arbitrary faults are implemented
//!   as actor wrappers in the `ftm-faults` crate — the network stays honest,
//!   matching the paper's reliable-channel assumption.
//!
//! # Example
//!
//! ```
//! use ftm_sim::prelude::*;
//!
//! /// Every process sends "ping" to everyone once; counts receipts.
//! struct Ping { seen: usize }
//! impl Actor for Ping {
//!     type Msg = &'static str;
//!     type Decision = usize;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Decision>) {
//!         ctx.broadcast("ping");
//!     }
//!     fn on_message(&mut self, _from: ProcessId, _msg: &Self::Msg,
//!                   ctx: &mut Context<'_, Self::Msg, Self::Decision>) {
//!         self.seen += 1;
//!         if self.seen == ctx.process_count() {
//!             ctx.decide(self.seen);
//!         }
//!     }
//! }
//!
//! let report = Simulation::build(SimConfig::new(4).seed(7), |_| Ping { seen: 0 }).run();
//! assert!(report.all_decided());
//! ```

pub mod config;
pub mod event;
pub mod harness;
pub mod metrics;
pub mod network;
pub mod prng;
pub mod report;
pub mod runner;
pub mod trace;

// The actor surface (`Actor`, `Context`, `Payload`, staging) and virtual
// time now live in the runtime-agnostic `ftm-runtime` crate, shared with
// the real transport (`ftm-net`). Re-exported here module-for-module so
// every pre-existing `ftm_sim::process::...` / `ftm_sim::time::...` path
// keeps compiling unchanged.
pub use ftm_runtime::note;
pub use ftm_runtime::process;
pub use ftm_runtime::time;

/// Convenient glob import for simulator users.
pub mod prelude {
    pub use crate::config::{NetworkProfile, SimConfig};
    pub use crate::harness::{sweep, RunRecord, SweepReport};
    pub use crate::runner::{RunReport, Simulation};
    pub use ftm_runtime::process::{
        Actor, Context, LayerSplit, Payload, ProcessId, StagedSend, TimerTag,
    };
    pub use ftm_runtime::time::{Duration, VirtualTime};
}

pub use config::{NetworkProfile, SimConfig};
pub use ftm_runtime::process::{
    Actor, Context, LayerSplit, Payload, ProcessId, StagedSend, TimerTag,
};
pub use ftm_runtime::time::{Duration, VirtualTime};
pub use harness::{sweep, RunRecord, SweepReport};
pub use report::Json;
pub use runner::{RunReport, Simulation};

include!("../../../clippy_canaries.rs"); // D1–D4 ban canaries, DESIGN.md §13
