//! The canonical home of the paper's quorum algebra — `F ≤ min(⌊(n−1)/2⌋, C)`
//! with `C = ⌊(n−1)/3⌋`, and every cardinality threshold derived from it.
//! The transformed protocols admit `F ≤ ⌊(n−1)/3⌋` (checked by
//! `ftm_certify::CertChecker::new_for`), the crash protocols
//! `F ≤ ⌊(n−1)/2⌋`.
//!
//! The functions are implemented in the dependency-free [`ftm_quorum`]
//! crate (`ftm-certify` needs them too and sits below `ftm-core`) and
//! re-exported here verbatim: this
//! path is the one the documentation, `ftm-verify`'s exhaustive `quorum`
//! intersection check, and rule D5 all reference. No other module in the
//! protocol crates is allowed to hand-roll `n - f`, `2*f + 1` or their
//! relatives — D5 (`crates/quorum/tests/discipline.rs`) flags any
//! that reappear.
//!
//! ```
//! use ftm_core::quorum;
//! // The (31, 10) flagship system: 21-vote quorums, any two overlap in 11.
//! assert_eq!(quorum::quorum_size(31, 10), 21);
//! assert_eq!(quorum::intersection_margin(31, 10), 11);
//! assert_eq!(quorum::default_cert_capacity(31), 10);
//! ```

// D7 (DESIGN.md §13): a truncated count is silently a wrong threshold.
#![deny(clippy::cast_possible_truncation)]

pub use ftm_quorum::{
    coordinator, default_cert_capacity, intersection_margin, max_faults, quorum_size,
    vector_validity_floor,
};
