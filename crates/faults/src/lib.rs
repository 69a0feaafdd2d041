//! Fault injection: every arbitrary behavior from the paper's taxonomy.
//!
//! The paper classifies arbitrary failures (§2–3) into muteness (permanent
//! omission, including crash) and non-muteness failures: corruption of a
//! variable value, transient omissions, duplication of a statement,
//! execution of a spurious statement, misevaluation of an expression,
//! identity falsification and forged signatures. This crate injects each of
//! them into simulated runs:
//!
//! * crashes are native to [`ftm_sim::SimConfig`];
//! * everything else is an **actor wrapper**, [`behavior::Faulty`]: a
//!   faulty process runs the honest protocol internally and a
//!   [`behavior::Deviation`] rewrites, drops, duplicates or injects
//!   messages on the way out — the network stays honest, matching the
//!   paper's reliable-channel model;
//! * wrappers hold the process's own key pair (a faulty process signs
//!   whatever it sends — that is precisely why signatures alone do not
//!   stop Byzantine behavior and certificates are needed).
//!
//! Deviations are data. Against the transformed protocol
//! ([`ftm_certify::Envelope`] messages, bare or inside a replicated log's
//! slot messages) each is one [`Attack`] value, one operation per
//! variant, and [`FaultBehavior`] names the value each row of the
//! taxonomy runs; against the crash-model protocol each is one
//! [`crash_attacks::CrashAttack`], whose unsigned messages make the same
//! attacks trivially lethal — experiment E2's point.
//!
//! [`scenario::AttackRun`] wires a simulated transformed run — keys,
//! actors, the wrapped attackers, t = 0 crashes, network — from a
//! [`ftm_core::ProtocolConfig`]. The sweep harness and the experiments
//! build every transformed run through it; no other non-test,
//! non-example code wires one.

pub mod attacks;
pub mod behavior;
pub mod crash_attacks;
pub mod scenario;

pub use attacks::Attack;
pub use behavior::{ByzantineLogWrapper, ByzantineWrapper};
pub use scenario::{
    coalition_faulty, log_command, run_scenario, sweep_matrix, sweep_matrix_repeated,
    sweep_scenarios, AttackRun, CoalitionAxis, FaultBehavior, Scenario, ScenarioMatrix, Workload,
};
// Re-exported so scenario builders can name network profiles without
// depending on ftm-sim directly.
pub use ftm_sim::NetworkProfile;

include!("../../../clippy_canaries.rs"); // D1–D4 ban canaries, DESIGN.md §13
