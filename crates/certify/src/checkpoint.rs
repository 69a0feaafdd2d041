//! Certificate checkpointing: quorum-backed compaction of decided slots.
//!
//! A multi-slot run (the replicated-log workload) accumulates certificate
//! history per slot — every round of every instance leaves behind signed
//! CURRENT/NEXT (or ESTIMATE/PROPOSE/ACK/NACK) evidence. Retaining all of
//! it makes audit memory grow linearly in the number of slots, which is
//! exactly what the long-horizon soak runs cannot afford.
//!
//! The checkpoint message bounds that cost. Once slot `k` decides locally,
//! the decider already holds the decide-vote quorum — `n − F` signed
//! `CURRENT(r, vect)` votes under Hurfin–Raynal, `ACK(r, vect)` under
//! Chandra–Toueg. A [`Core::Checkpoint`] commits to the decided vector via
//! [`checkpoint_digest`] and carries that quorum as its certificate, so a
//! single envelope replaces the slot's entire per-round certificate
//! prefix:
//!
//! * **soundness** — the digest is recomputable from the quorum's vector,
//!   so a forged digest (or a digest over a different vector than the
//!   quorum certifies) fails the [`crate::rules::CHECKPOINT_RULE`] row and
//!   convicts the sender with `bad-certificate`;
//! * **cardinality** — fewer than `n − F` distinct matching votes is a
//!   sub-quorum checkpoint and is rejected the same way;
//! * **boundedness** — retained evidence per slot collapses from
//!   `O(rounds · n)` signed items to one envelope whose certificate holds
//!   exactly one quorum.
//!
//! Checkpoints are formed *locally* from evidence the decider already
//! holds — no extra wire traffic — so enabling compaction never perturbs
//! the simulation schedule: compacted and uncompacted runs of the same
//! seed decide identically (enforced by `tests/fault_matrix.rs`).

use std::collections::{BTreeMap, BTreeSet};

use ftm_crypto::rsa::KeyPair;
use ftm_crypto::sha256::{Digest, Sha256};
use ftm_crypto::wire::Encoder;
use ftm_sim::ProcessId;

use crate::certificate::Certificate;
use crate::certified::Certified;
use crate::message::{Core, MessageKind, ProtocolId, Round, ValueVector};
use crate::signed::Envelope;

/// The vote kind whose quorum decides — and therefore backs a checkpoint —
/// under `protocol`.
pub fn decide_vote_kind(protocol: ProtocolId) -> MessageKind {
    match protocol {
        ProtocolId::HurfinRaynal => MessageKind::Current,
        ProtocolId::ChandraToueg => MessageKind::Ack,
    }
}

/// The digest a slot-`slot` checkpoint must carry: a commitment to
/// `(protocol, slot, vector)` over the canonical encoding, so two replicas
/// that decided the same vector compute the same digest and the analyzer
/// can recompute it from the attached quorum.
pub fn checkpoint_digest(protocol: ProtocolId, slot: u64, vector: &ValueVector) -> Digest {
    let mut enc = Encoder::new();
    enc.bytes(b"ftm-checkpoint");
    enc.bytes(protocol.label().as_bytes());
    enc.u64(slot);
    enc.nested(vector);
    Sha256::digest(&enc.into_bytes())
}

/// Builds the checkpoint envelope sealing `slot` with decided `vector`,
/// signed by `me` and certified by `evidence` (the decide-vote quorum `me`
/// collected when the slot decided).
///
/// The caller is responsible for `evidence` actually holding the quorum —
/// the [`crate::rules::CHECKPOINT_RULE`] row is the audit on the receiving
/// side, and the compacted-log layer re-checks its own checkpoints before
/// retaining them.
pub fn make_checkpoint(
    protocol: ProtocolId,
    slot: u64,
    vector: &ValueVector,
    evidence: Certificate,
    me: ProcessId,
    key: &KeyPair,
) -> Envelope {
    let digest = checkpoint_digest(protocol, slot, vector);
    Envelope::make(me, Core::Checkpoint { slot, digest }, evidence, key)
}

/// The decide-votes of `cert` under `protocol`, grouped by the
/// `(round, vector)` they vote for — distinct senders only, so a group's
/// size is the quorum count both sides of the checkpoint rule test.
pub(crate) fn decide_vote_groups(
    protocol: ProtocolId,
    cert: &Certificate,
) -> BTreeMap<(Round, &ValueVector), BTreeSet<ProcessId>> {
    let vote_kind = decide_vote_kind(protocol);
    let mut groups: BTreeMap<_, BTreeSet<_>> = BTreeMap::new();
    for item in cert.iter().filter(|item| item.kind() == vote_kind) {
        if let Some(vector) = item.core().core.vector() {
            let voters = groups.entry((item.round(), vector)).or_default();
            voters.insert(item.sender());
        }
    }
    groups
}

/// Recovers the decided vector a checkpoint envelope certifies: the
/// unique vector backed by `quorum` distinct signed decide-votes whose
/// [`checkpoint_digest`] matches the envelope's claimed digest.
///
/// This is the read side of the [`crate::rules::CHECKPOINT_RULE`] row — a
/// replica catching up from a peer's checkpoint extracts the slot content
/// from the quorum itself rather than trusting any unsigned field.
/// Returns `None` for non-checkpoint envelopes or when no matching quorum
/// exists.
pub fn checkpoint_vector(
    protocol: ProtocolId,
    quorum: usize,
    env: &Certified<'_>,
) -> Option<ValueVector> {
    let Core::Checkpoint { slot, digest } = env.core() else {
        return None;
    };
    decide_vote_groups(protocol, &env.cert)
        .into_iter()
        .find(|((_, vector), senders)| {
            senders.len() >= quorum && checkpoint_digest(protocol, *slot, vector) == *digest
        })
        .map(|((_, vector), _)| vector.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_binds_protocol_slot_and_vector() {
        let v = ValueVector::from_entries(vec![Some(1), Some(2), None]);
        let base = checkpoint_digest(ProtocolId::HurfinRaynal, 3, &v);
        assert_eq!(base, checkpoint_digest(ProtocolId::HurfinRaynal, 3, &v));
        assert_ne!(base, checkpoint_digest(ProtocolId::ChandraToueg, 3, &v));
        assert_ne!(base, checkpoint_digest(ProtocolId::HurfinRaynal, 4, &v));
        let mut w = v.clone();
        w.set(2, 9);
        assert_ne!(base, checkpoint_digest(ProtocolId::HurfinRaynal, 3, &w));
    }

    #[test]
    fn vote_kind_follows_the_protocol() {
        assert_eq!(
            decide_vote_kind(ProtocolId::HurfinRaynal),
            MessageKind::Current
        );
        assert_eq!(decide_vote_kind(ProtocolId::ChandraToueg), MessageKind::Ack);
    }

    #[test]
    fn make_checkpoint_signs_the_committed_digest() {
        let mut rng = ftm_crypto::rng_from_seed(7);
        let key = KeyPair::generate(&mut rng, 128);
        let v = ValueVector::from_entries(vec![Some(5), None]);
        let env = make_checkpoint(
            ProtocolId::HurfinRaynal,
            2,
            &v,
            Certificate::default(),
            ProcessId(1),
            &key,
        );
        assert_eq!(env.kind(), MessageKind::Checkpoint);
        let Core::Checkpoint { slot, digest } = env.core() else {
            panic!("not a checkpoint");
        };
        assert_eq!(*slot, 2);
        assert_eq!(*digest, checkpoint_digest(ProtocolId::HurfinRaynal, 2, &v));
    }
}
