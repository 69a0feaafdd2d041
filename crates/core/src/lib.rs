//! The paper's contribution: a modular transformation from crash
//! fault-tolerance to arbitrary-fault tolerance, instantiated on consensus.
//!
//! Baldoni, Hélary and Raynal (DSN 2000) propose a *methodology*: take a
//! regular round-based protocol proved correct under crash failures, and
//! make it resilient to arbitrary (Byzantine) failures by encapsulating the
//! detection of each failure class in a dedicated module. This crate
//! contains both endpoints of that transformation and the machinery
//! between them:
//!
//! * [`rounds`] — the round modules of Hurfin–Raynal (paper Fig. 2 and
//!   Fig. 3's round logic) and Chandra–Toueg, each written once and generic
//!   over the vote record its fault model keeps;
//! * [`crash`] — the Hurfin–Raynal ◇S consensus protocol (paper Fig. 2,
//!   the FIFO-channel variant) and Chandra–Toueg's, the *input* of the
//!   transformation: the round modules in one crash-model shell;
//! * [`transform`] — the five-module process structure (paper Fig. 1) and
//!   the transformation rules of §3 as reusable machinery: the receive
//!   pipeline ([`transform::stack::ModuleStack`]);
//! * [`byzantine`] — the *output*: the transformed protocol (paper
//!   Fig. 3), solving **Vector Consensus** — Agreement, Termination and
//!   Vector Validity — for `F ≤ min(⌊(n−1)/2⌋, C) = ⌊(n−1)/3⌋` (the
//!   certification capacity, checked at construction), against the
//!   behaviours the sweeps sample; `tests/agreement_breaks.rs` pins runs
//!   in which one faulty process breaks Agreement at n = 4, F = 1;
//! * [`spec`] and [`validator`] — problem specifications and trace-level
//!   property checkers shared by tests, examples and the experiment
//!   harness.
//!
//! # Quickstart
//!
//! ```
//! use ftm_core::byzantine::ByzantineConsensus;
//! use ftm_core::config::ProtocolConfig;
//! use ftm_sim::{SimConfig, Simulation};
//!
//! // 4 processes, F = 1, everyone honest, proposals 100 + i.
//! let proto = ProtocolConfig::new(4, 1).seed(7);
//! let setup = proto.setup();
//! let report = Simulation::build_boxed(SimConfig::new(4).seed(7), |id| {
//!     Box::new(ByzantineConsensus::new(&setup, id, 100 + id.0 as u64))
//! })
//! .run();
//! assert!(report.all_decided());
//! let vect = report.unanimous().expect("agreement");
//! assert!(vect.non_null_count() >= 3); // at least n − F entries
//! ```

// D6 (DESIGN.md §13): a Byzantine sender must not be able to crash a replica.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod byzantine;
pub mod config;
pub mod crash;
pub mod quorum;
pub mod rounds;
pub mod spec;
pub mod transform;
pub mod validator;

pub use byzantine::{ByzantineChandraToueg, ByzantineConsensus, TransformedProtocol};
pub use config::{ProtocolConfig, ProtocolSetup};
pub use crash::CrashConsensus;

include!("../../../clippy_canaries.rs"); // D1–D4 ban canaries, DESIGN.md §13
