//! `ftm-lint`: a zero-dependency determinism & quorum-discipline static
//! analyzer for the ft-modular workspace.
//!
//! The repo's central promise — byte-identical reports for the same seed
//! regardless of thread count or host — is easy to break with one stray
//! `f64`, `HashMap` iteration or wall-clock read. This crate enforces that
//! discipline mechanically, as a hard CI gate, with seven rules:
//!
//! - **D1** — no `f32`/`f64` (types or literals) outside the bench timing
//!   module. Report arithmetic is integer tenths/ratios.
//! - **D2** — no `HashMap`/`HashSet` in report-feeding crates (`sim`,
//!   `faults`, `certify`, `detect`, `verify`); use B-tree collections so
//!   iteration order is defined.
//! - **D3** — no `Instant`/`SystemTime` outside bench timing; simulation
//!   time is `VirtualTime`.
//! - **D4** — no raw `std::thread` spawning outside `ftm_sim::harness`;
//!   parallelism goes through `parallel_map` so worker count cannot leak
//!   into results.
//! - **D5** — no ad-hoc quorum arithmetic (`n - f`, `n + f`, `2*f`,
//!   `3*f`) in protocol crates; thresholds route through `ftm_quorum` so
//!   the paper's bound `F <= min(floor((n-1)/2), C)` has one audited home.
//! - **D6** — no `unwrap`/`expect`/`panic!` in non-test code of the
//!   message-handling crates (`core`, `certify`, `detect`); a Byzantine
//!   sender must not be able to crash a correct replica.
//! - **D7** — no `as` narrowing casts in quorum/threshold arithmetic
//!   (`ftm-quorum`, its `ftm_core::quorum` facade, the certify analyzer);
//!   counts convert through `try_from` with the error handled fail-closed.
//!
//! The implementation is a small hand-rolled lexer ([`lexer`]) plus a
//! token-pattern rule engine ([`rules`]) — no syn, no regex, no external
//! dependencies beyond the workspace's own JSON document model. Findings
//! can be waived through a justified [`allowlist`]; stale waivers fail the
//! run. `ftm-lint --json` emits a byte-stable report ([`report`]).

pub mod allowlist;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

pub use allowlist::{apply, parse as parse_allowlist, Applied, Entry};
pub use engine::{check_source, scan_workspace, Scan};
pub use report::LintReport;
pub use rules::{Finding, LINT_IDS};
