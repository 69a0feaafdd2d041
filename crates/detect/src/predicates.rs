//! The `PF_{a,b}` predicates: per-transition certificate analysis.
//!
//! In the paper, a transition of the observer automaton from state `a` to
//! state `b` on a message of some kind is guarded by `PF_{a,b}(kind)`:
//! the message must not be an out-of-order message (checked by the
//! automaton's enabled-receipt rule) and must not be a wrong expected
//! message (checked here — syntax plus certificate well-formedness for the
//! claimed transition).

use ftm_certify::analyzer::CertChecker;
use ftm_certify::{CertifyError, Envelope, FaultClass, Round};

/// Checks that an envelope justifies the peer *entering* `round`.
///
/// A correct process's first message of round `r > 1` can prove its round
/// entry in one of three ways, each over per-protocol kinds
/// ([`ProtocolId::round_ending_kinds`], [`ProtocolId::coordinator_kind`]).
/// Under Hurfin–Raynal:
///
/// 1. a NEXT-portion of `n−F` signed `NEXT(r−1)` (it saw the previous
///    round end — coordinators must use this form, enforced separately by
///    the `current-coordinator` certification rule);
/// 2. the round-`r` coordinator's own signed `CURRENT(r)` (the coordinator
///    vouches for the round — the relayed-CURRENT case);
/// 3. a full quorum of `NEXT(r)` items (others are already leaving `r`,
///    which subsumes the evidence that `r` started).
///
/// Under Chandra–Toueg the same three shapes read: `n−F` signed
/// `ACK/NACK(r−1)`; the round-`r` coordinator's own signed `PROPOSE(r)`;
/// a full quorum of `ACK/NACK(r)`.
///
/// # Errors
///
/// Returns a [`FaultClass::BadCertificate`] error when none applies.
///
/// [`ProtocolId::round_ending_kinds`]: ftm_certify::ProtocolId::round_ending_kinds
/// [`ProtocolId::coordinator_kind`]: ftm_certify::ProtocolId::coordinator_kind
pub fn round_entry_justified(
    checker: &CertChecker,
    env: &Envelope,
    round: Round,
) -> Result<(), CertifyError> {
    let protocol = checker.protocol();
    let ending = protocol.round_ending_kinds();
    // (1) n−F round-ending votes of round−1 (nothing for round 1).
    if round <= 1 || env.cert.count_senders(ending, round - 1) >= checker.quorum() {
        return Ok(());
    }
    // (2) the coordinator's own signed vote for this round.
    let coord = checker.coordinator(round);
    let mut coord_votes = env.cert.iter_kind_round(protocol.coordinator_kind(), round);
    if coord_votes.any(|i| i.sender() == coord) {
        return Ok(());
    }
    // (3) a quorum of round-ending votes of this round.
    if env.cert.count_senders(ending, round) >= checker.quorum() {
        return Ok(());
    }
    Err(CertifyError::new(
        env.sender(),
        FaultClass::BadCertificate,
        "first message of a new round carries no round-entry evidence",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_certify::{Certificate, Core, MessageCore, SignedCore, ValueVector};
    use ftm_crypto::keydir::KeyDirectory;
    use ftm_crypto::rsa::KeyPair;
    use ftm_sim::ProcessId;

    const N: usize = 4;

    fn fixture() -> (CertChecker, Vec<KeyPair>) {
        let mut rng = ftm_crypto::rng_from_seed(61);
        let (dir, keys) = KeyDirectory::generate(&mut rng, N, 128);
        (CertChecker::new(N, 1, dir), keys)
    }

    fn signed(keys: &[KeyPair], sender: u32, core: Core) -> SignedCore {
        SignedCore::sign(
            MessageCore::new(ProcessId(sender), core),
            &keys[sender as usize],
        )
    }

    fn next_env(keys: &[KeyPair], sender: u32, round: Round, cert: Certificate) -> Envelope {
        Envelope::make(
            ProcessId(sender),
            Core::Next { round },
            cert,
            &keys[sender as usize],
        )
    }

    #[test]
    fn round_one_needs_nothing() {
        let (checker, keys) = fixture();
        let env = next_env(&keys, 3, 1, Certificate::new());
        assert!(round_entry_justified(&checker, &env, 1).is_ok());
    }

    #[test]
    fn next_quorum_of_previous_round_justifies() {
        let (checker, keys) = fixture();
        let cert =
            Certificate::from_items((0..3u32).map(|s| signed(&keys, s, Core::Next { round: 1 })));
        let env = next_env(&keys, 3, 2, cert);
        assert!(round_entry_justified(&checker, &env, 2).is_ok());
    }

    #[test]
    fn coordinator_voucher_justifies() {
        let (checker, keys) = fixture();
        // Round 2's coordinator is p1.
        let cert = Certificate::from_items([signed(
            &keys,
            1,
            Core::Current {
                round: 2,
                vector: ValueVector::empty(N),
            },
        )]);
        let env = next_env(&keys, 3, 2, cert);
        assert!(round_entry_justified(&checker, &env, 2).is_ok());
    }

    #[test]
    fn same_round_next_quorum_justifies() {
        let (checker, keys) = fixture();
        let cert =
            Certificate::from_items((0..3u32).map(|s| signed(&keys, s, Core::Next { round: 2 })));
        let env = next_env(&keys, 3, 2, cert);
        assert!(round_entry_justified(&checker, &env, 2).is_ok());
    }

    #[test]
    fn bare_round_jump_is_rejected() {
        let (checker, keys) = fixture();
        let env = next_env(&keys, 3, 2, Certificate::new());
        let err = round_entry_justified(&checker, &env, 2).unwrap_err();
        assert_eq!(err.class, FaultClass::BadCertificate);
        assert!(err.reason.contains("round-entry"));
    }

    fn ct_fixture() -> (CertChecker, Vec<KeyPair>) {
        let mut rng = ftm_crypto::rng_from_seed(61);
        let (dir, keys) = KeyDirectory::generate(&mut rng, N, 128);
        (
            CertChecker::new_for(ftm_certify::ProtocolId::ChandraToueg, N, 1, dir),
            keys,
        )
    }

    #[test]
    fn ct_ack_nack_quorum_of_previous_round_justifies() {
        let (checker, keys) = ct_fixture();
        let cert = Certificate::from_items([
            signed(
                &keys,
                0,
                Core::Ack {
                    round: 1,
                    vector: ValueVector::empty(N),
                },
            ),
            signed(&keys, 1, Core::Nack { round: 1 }),
            signed(&keys, 2, Core::Nack { round: 1 }),
        ]);
        let env = Envelope::make(
            ProcessId(3),
            Core::Estimate {
                round: 2,
                vector: ValueVector::empty(N),
                ts: 0,
            },
            cert,
            &keys[3],
        );
        assert!(round_entry_justified(&checker, &env, 2).is_ok());
    }

    #[test]
    fn ct_coordinator_propose_vouches() {
        let (checker, keys) = ct_fixture();
        // Round 2's coordinator is p1.
        let cert = Certificate::from_items([signed(
            &keys,
            1,
            Core::Propose {
                round: 2,
                vector: ValueVector::empty(N),
            },
        )]);
        let env = Envelope::make(
            ProcessId(3),
            Core::Ack {
                round: 2,
                vector: ValueVector::empty(N),
            },
            cert,
            &keys[3],
        );
        assert!(round_entry_justified(&checker, &env, 2).is_ok());
    }

    #[test]
    fn ct_bare_round_jump_is_rejected() {
        let (checker, keys) = ct_fixture();
        let env = Envelope::make(
            ProcessId(3),
            Core::Nack { round: 2 },
            Certificate::new(),
            &keys[3],
        );
        let err = round_entry_justified(&checker, &env, 2).unwrap_err();
        assert!(err.reason.contains("round-entry"));
    }

    #[test]
    fn non_coordinator_current_is_not_a_voucher() {
        let (checker, keys) = fixture();
        // p3's CURRENT(2) does not vouch — only the round-2 coordinator p1.
        let cert = Certificate::from_items([signed(
            &keys,
            3,
            Core::Current {
                round: 2,
                vector: ValueVector::empty(N),
            },
        )]);
        let env = next_env(&keys, 0, 2, cert);
        assert!(round_entry_justified(&checker, &env, 2).is_err());
    }
}
