//! Unreliable failure detectors for the crash and arbitrary-failure models.
//!
//! The paper's module stack uses two detector classes:
//!
//! * the crash-model protocol (Hurfin–Raynal, paper Fig. 2) relies on a
//!   **◇S** detector — Strong Completeness plus Eventual Weak Accuracy
//!   (Chandra–Toueg);
//! * the transformed protocol replaces it with a **muteness detector of
//!   class ◇M** (Doudou et al.): it suspects processes that permanently stop
//!   sending the *protocol* messages they are supposed to send — a strict
//!   generalization of crash detection, since a Byzantine process can fall
//!   mute without crashing.
//!
//! This crate provides:
//!
//! * [`FailureDetector`] — the query/feed interface actors embed;
//! * [`TimeoutDetector`] — the classical timeout-with-increase
//!   implementation (doubles a peer's timeout on each wrongful suspicion);
//!   eventually accurate once the network stabilizes (GST). Feeding it all
//!   messages makes it a crash/◇S detector; feeding it only accepted
//!   protocol messages makes it a muteness/◇M detector — exactly the
//!   distinction drawn in the paper. [`TimeoutDetector::round_aware`] is
//!   the round-aware ◇M shape (Doudou et al.): the same detector with an
//!   allowance that also grows with the observer's round;
//! * [`OracleDetector`] — a test harness detector with scripted accuracy,
//!   used to isolate protocol correctness from detector quality;
//! * [`properties`] — trace-replay checkers measuring Strong Completeness,
//!   detection latency and wrongful-suspicion (mistake) rates — the numbers
//!   experiment E7 reports.

pub mod oracle;
pub mod properties;
pub mod suspicion;
pub mod timeout;

pub use oracle::OracleDetector;
pub use suspicion::{FailureDetector, SuspicionChange};
pub use timeout::TimeoutDetector;

include!("../../../clippy_canaries.rs"); // D1–D4 ban canaries, DESIGN.md §13
