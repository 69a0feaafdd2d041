//! `ftm-flow`: spec conformance of the actor code's send sites.
//!
//! Where `ftm-lint` enforces *determinism hygiene* token-by-token and
//! `ftm-verify` model-checks the *abstract protocol*, this crate closes
//! one gap between them on the **implementation source**:
//!
//! - **F2 — spec conformance of sends.** Every send site of the HR and
//!   CT Byzantine actors (which `Core` kind, broadcast vs unicast, which
//!   round) is extracted and diffed against the obligation tables of
//!   [`ftm_core::spec::ProtocolSpec::transformed`] and
//!   [`transformed_ct`](ftm_core::spec::ProtocolSpec::transformed_ct):
//!   a send the spec does not declare, an obligation never discharged,
//!   or a round/route mismatch is a finding.
//!
//! The transformation's other source-level obligation — certification
//! before use — needs no pass here: it is a type
//! (`ftm_certify::Certified`), so rustc enforces it on every path.
//!
//! The analyzer is zero-dependency: it parses a *simplified* Rust AST
//! with a tolerant recursive-descent parser built on the `ftm-lint`
//! lexer (one lexer for the whole workspace), so it needs neither
//! `syn` nor nightly rustc internals. Anything it cannot shape degrades
//! to conservative opaque expressions rather than being skipped.
//!
//! Findings gate CI via the `ftm-flow` binary (exit 1), with the same
//! justified-allowlist escape hatch as `ftm-lint` (shared grammar, `F2`
//! vocabulary).

mod ast;
mod sends;

pub mod engine;
pub mod report;

pub use engine::{analyze_sources, scan_workspace, Analysis};
pub use report::{FlowFinding, FlowReport, PASS_IDS};
