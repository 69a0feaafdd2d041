//! A real transport for the runtime-agnostic actor boundary: a
//! single-threaded readiness loop over non-blocking TCP with a
//! length-prefixed wire codec, zero external dependencies.
//!
//! This crate is the second implementation of [`ftm_runtime::Runtime`]
//! (the first is the deterministic simulator in `ftm-sim`). The same actor
//! types — the transformed Byzantine consensus, the replicated log, even
//! the fault-injection wrappers — run here unmodified: sockets replace the
//! simulated network, wall-clock milliseconds replace virtual ticks, and
//! everything above the [`Runtime`](ftm_runtime::Runtime) seam is the
//! byte-for-byte artifact the simulation sweeps validated.
//!
//! # Execution model
//!
//! One thread per node runs everything — an epoll-style readiness loop
//! hand-rolled from safe `std` (`unsafe` is forbidden workspace-wide, so
//! the raw syscalls are out; [`poll`] is the poll(2)-shaped
//! probe built on non-blocking sockets):
//!
//! * every connection (peer or client) is a slab slot holding a
//!   [`codec::FramedConn`]: the socket plus read/write **ring buffers**
//!   ([`ring`]) that absorb partial frames and unflushed writes;
//! * the loop accepts, dials, flushes, reads and parses in rounds, and
//!   runs the actor's callbacks inline between rounds — still through
//!   [`ftm_runtime::step`], so an actor never observes two callbacks
//!   concurrently, exactly as in the simulator;
//! * a round that found nothing to do sleeps one slice — 200 µs while
//!   frames are arriving, 1 ms otherwise — and probes only the *active*
//!   connections (peer links, handshakes in progress, clients heard from
//!   in the last 100 ms); silent ones are looked at once a millisecond
//!   (see [`node`]'s *Cadence*);
//! * a dropped peer link is redialed with capped exponential **backoff +
//!   deterministic jitter** ([`backoff`]), re-validating the handshake;
//!   each peer's frames wait in one bounded queue while the link is down
//!   or the peer has not started, and reach it in order once it listens,
//!   so every node starts its actor at once and a restarted replica
//!   rejoins;
//! * a client that stops reading its replies hits the write-ring cap and
//!   is disconnected with a `backpressure-disconnect` note — bounded
//!   memory per connection, no head-of-line blocking of peer traffic.
//!
//! A connection costs two ring buffers instead of two OS threads, which
//! is what lets one node serve thousands of concurrent clients (see
//! [`loadgen`] and `ftm-serve`'s 1000-client test).
//!
//! # What survives of the determinism contract
//!
//! Content determinism survives; schedule determinism does not. Message
//! *contents* are still canonical bytes (signatures verify across
//! machines), decisions are still quorum-certified, and the per-replica
//! RNG stream is still seeded. But arrival order, timer interleaving and
//! therefore all timing-dependent counters (rounds, suspicions, end
//! times) vary run to run — see `DESIGN.md` §15 for the precise split,
//! and the sim/net cross-check test for the properties that must agree.
//!
//! This crate is the sanctioned home for wall-clock time (rule D3,
//! confined to `clock.rs`) and test-harness thread spawning (D4, confined
//! to `cluster.rs`) on the transport side — each an `#[expect]` against
//! the workspace ban in `clippy.toml` (DESIGN.md §13); confining both
//! keeps every other crate simulator-pure.

pub mod backoff;
pub mod client;
pub mod clock;
pub mod cluster;
pub mod codec;
pub mod loadgen;
pub mod node;
pub mod poll;
pub mod ring;

pub use backoff::Backoff;
pub use client::ClientConn;
pub use clock::WallClock;
pub use cluster::{
    bind_cluster, rebind, run_loopback_cluster, spawn_node, ClusterConfig, NodeHandle,
};
pub use codec::{frame_into, read_frame, write_frame, Hello, DEFAULT_MAX_FRAME, MAGIC, VERSION};
pub use loadgen::{run_load, LoadConfig, LoadOutcome};
pub use node::{parse_convictions, run_node, NetReport, NodeConfig, NodeView, ServiceReply};
pub use ring::RingBuf;

include!("../../../clippy_canaries.rs"); // D1–D4 ban canaries, DESIGN.md §13
