//! Experiment harness: regenerates every table in `EXPERIMENTS.md`.
//!
//! The paper is a methodology paper without a quantitative evaluation
//! section, so reproduction means (i) running every protocol figure,
//! (ii) validating every stated claim, and (iii) measuring the costs the
//! paper implies but never reports. Each `eN` module below regenerates one
//! experiment of the index in `DESIGN.md` §4; the `experiments` binary
//! prints them as markdown.
//!
//! All experiments are deterministic: fixed seed ranges, fixed
//! configurations — rerunning the binary reproduces `EXPERIMENTS.md`
//! exactly. Nothing here reads a clock: wall-clock measurement lives in
//! the repo-root `benchmark/` package (`BENCHMARK.json`).

pub mod experiments;
pub mod report;

pub use report::Table;

include!("../../../clippy_canaries.rs"); // D1–D4 ban canaries, DESIGN.md §13
