//! Quorum-threshold algebra: every cardinality bound of the
//! transformation in one audited, dependency-free module.
//!
//! The paper's resilience bound is `F ≤ min(⌊(n−1)/2⌋, C)`, where `C` is
//! the capacity of the certification service. This repository's
//! certification module has capacity `C = ⌊(n−1)/3⌋`
//! ([`default_cert_capacity`], paper footnote 2), so the transformed
//! protocols admit `F ≤ ⌊(n−1)/3⌋`, checked where a certificate checker
//! is built (`ftm_certify::CertChecker::new_for`). Certification makes
//! equivocation *attributable*, not impossible: a faulty process can sign
//! two statements, so two `n − F` quorums must intersect in a *correct*
//! process, which is exactly `n > 3F` (Dwork–Lynch–Stockmeyer: Byzantine
//! agreement under partial synchrony needs `n > 3F` even with
//! signatures). At `(5, 2)` two quorums of three share one process, and
//! run D split them through a faulty one, every layer admitting every
//! message; `tests/agreement_breaks.rs` keeps D, restated at `(5, 1)`.
//! The crash protocols keep `⌊(n−1)/2⌋` ([`max_faults`]).
//!
//! Rule D5 (this crate's `tests/discipline.rs`) rejects ad-hoc `n - f` /
//! `2*f + 1` expressions in the protocol crates, and `ftm-verify`'s
//! `quorum` section re-proves the intersection algebra exhaustively for
//! every `(n, F)` up to `n = 64`.
//!
//! The canonical import path is `ftm_core::quorum`, which re-exports
//! this crate: `ftm-certify` needs the thresholds too and sits *below*
//! `ftm-core`, so the implementation lives here, below them both.
//!
//! # The algebra, in one place
//!
//! Two subsets of size `q` drawn from `n` processes overlap in at least
//! `2q − n` members (tight: take `{0..q}` and `{n−q..n}`). With
//! `q = quorum_size(n, F) = n − F` that floor is `n − 2F`, and its two
//! thresholds are the two bounds:
//!
//! ```
//! use ftm_quorum::*;
//! for n in 1usize..=64 {
//!     for f in 0..=max_faults(n) {
//!         let q = quorum_size(n, f);
//!         // Tight pairwise-overlap floor of two q-quorums.
//!         assert_eq!(intersection_margin(n, f), 2 * q - n);
//!         // Within the crash bound two quorums always intersect…
//!         assert!(intersection_margin(n, f) >= 1);
//!         // …and they intersect in a *correct* process exactly within
//!         // the transformed protocols' bound F ≤ ⌊(n−1)/3⌋.
//!         assert_eq!(
//!             intersection_margin(n, f) >= f + 1,
//!             f <= default_cert_capacity(n)
//!         );
//!     }
//!     // One past the bound, disjoint quorums exist: safety is forfeit.
//!     let f = max_faults(n) + 1;
//!     assert!(2 * quorum_size(n, f) <= n || n < 2);
//! }
//! ```

// D7 (DESIGN.md §13): a truncated count is silently a wrong threshold.
#![deny(clippy::cast_possible_truncation)]

/// The round/certification quorum `n − F`: the number of distinct signed
/// votes (INIT, CURRENT/NEXT, ESTIMATE, ACK/NACK, decide votes behind a
/// CHECKPOINT) every cardinality test in the transformed protocol waits
/// for (paper Fig. 3 line 6 and §5).
///
/// ```
/// assert_eq!(ftm_quorum::quorum_size(7, 3), 4);
/// assert_eq!(ftm_quorum::quorum_size(4, 0), 4);
/// ```
#[must_use]
pub const fn quorum_size(n: usize, f: usize) -> usize {
    n - f
}

/// Tight lower bound on the overlap of any two [`quorum_size`] quorums:
/// `n − 2F`, saturating at zero once quorums can be disjoint.
///
/// This is also the paper's ψ before its floor of one — see
/// [`vector_validity_floor`].
///
/// ```
/// assert_eq!(ftm_quorum::intersection_margin(7, 3), 1);
/// assert_eq!(ftm_quorum::intersection_margin(7, 4), 0); // disjoint: unsafe
/// ```
#[must_use]
pub const fn intersection_margin(n: usize, f: usize) -> usize {
    n.saturating_sub(2 * f)
}

/// The Vector Validity floor `ψ = max(n − 2F, 1)`: how many entries of a
/// decided vector are guaranteed to carry initial values of *correct*
/// processes (paper §4).
///
/// ```
/// assert_eq!(ftm_quorum::vector_validity_floor(4, 1), 2);
/// assert_eq!(ftm_quorum::vector_validity_floor(3, 1), 1);
/// ```
#[must_use]
pub const fn vector_validity_floor(n: usize, f: usize) -> usize {
    let m = intersection_margin(n, f);
    if m == 0 {
        1
    } else {
        m
    }
}

/// The crash protocols' resilience bound `⌊(n−1)/2⌋`: a majority of
/// correct processes. It is also the first term of the paper's
/// `F ≤ min(⌊(n−1)/2⌋, C)`, which the certification capacity
/// [`default_cert_capacity`] undercuts for the transformed protocols.
///
/// ```
/// assert_eq!(ftm_quorum::max_faults(7), 3);
/// assert_eq!(ftm_quorum::max_faults(8), 3);
/// ```
#[must_use]
pub const fn max_faults(n: usize) -> usize {
    n.saturating_sub(1) / 2
}

/// The capacity `C = ⌊(n−1)/3⌋` of this repository's certification
/// module (paper footnote 2), and so the transformed protocols' resilience
/// bound: exactly the zone where two `n − F` quorums intersect in a
/// correct process (see the crate docs).
///
/// ```
/// assert_eq!(ftm_quorum::default_cert_capacity(10), 3);
/// ```
#[must_use]
pub const fn default_cert_capacity(n: usize) -> usize {
    n.saturating_sub(1) / 3
}

/// The coordinator of `round` under the rotating-coordinator paradigm, as
/// a 0-based process index: `(round − 1) mod n` (the paper's 1-based
/// `(r mod n) + 1`).
///
/// ```
/// assert_eq!(ftm_quorum::coordinator(4, 1), 0);
/// assert_eq!(ftm_quorum::coordinator(4, 5), 0);
/// ```
///
/// # Panics
///
/// Panics for round 0 (the vector-certification phase has no
/// coordinator) and for `n = 0`.
#[must_use]
pub fn coordinator(n: usize, round: u64) -> usize {
    assert!(round >= 1, "round 0 has no coordinator");
    // `% n` bounds the index by a process count, so it fits back; the
    // fallback is unreachable and names no process rather than truncating.
    usize::try_from((round - 1) % n as u64).unwrap_or(usize::MAX)
}

include!("../../../clippy_canaries.rs"); // D1–D4 ban canaries, DESIGN.md §13

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorums_are_never_empty() {
        for n in 1..=64 {
            for f in 0..=max_faults(n) {
                assert!(quorum_size(n, f) >= 1);
            }
        }
    }

    #[test]
    fn margin_is_two_quorums_minus_n() {
        for n in 1..=64 {
            for f in 0..n {
                let q = quorum_size(n, f);
                let expect = (2 * q).saturating_sub(n);
                assert_eq!(intersection_margin(n, f), expect, "n={n} f={f}");
            }
        }
    }

    #[test]
    fn paper_bound_is_exactly_nonempty_intersection() {
        for n in 2..=64 {
            for f in 0..n {
                assert_eq!(
                    intersection_margin(n, f) >= 1,
                    f <= max_faults(n),
                    "n={n} f={f}"
                );
            }
        }
    }

    #[test]
    fn one_third_bound_is_exactly_honest_intersection() {
        for n in 1..=64 {
            for f in 0..n {
                assert_eq!(
                    intersection_margin(n, f) > f,
                    f <= default_cert_capacity(n),
                    "n={n} f={f}"
                );
            }
        }
    }

    #[test]
    fn validity_floor_never_below_one() {
        for n in 1..=64 {
            for f in 0..n {
                assert!(vector_validity_floor(n, f) >= 1);
                if f <= max_faults(n) {
                    assert_eq!(vector_validity_floor(n, f), n - 2 * f);
                }
            }
        }
    }
}
