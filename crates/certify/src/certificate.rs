//! Certificates: sets of signed message cores.
//!
//! A certificate is the redundant information appended to a message that
//! lets the receiver audit the sender's claimed history (paper §3). The
//! protocol maintains three certificate variables per process —
//! `est_cert` (INIT items witnessing the estimate vector), `next_cert`
//! (NEXT items witnessing round progression) and `current_cert` (CURRENT
//! items witnessing a pending decision) — all of which are just
//! [`Certificate`] values with different well-formedness rules (enforced by
//! [`crate::analyzer::CertChecker`]).

use std::collections::BTreeSet;
use std::fmt;

use ftm_sim::ProcessId;

use crate::message::{MessageKind, Round, ValueVector};
use crate::signed::SignedCore;

/// An insertion-ordered, deduplicated set of signed cores.
///
/// A certificate holds at most a couple of votes per process (≤ 2n
/// members), so membership is a linear scan over the members' digests.
///
/// # Example
///
/// ```
/// use ftm_certify::{Certificate, Core, MessageCore, SignedCore};
/// use ftm_crypto::keydir::KeyDirectory;
/// use ftm_sim::ProcessId;
///
/// let mut rng = ftm_crypto::rng_from_seed(1);
/// let (_dir, keys) = KeyDirectory::generate(&mut rng, 2, 128);
/// let mut cert = Certificate::new();
/// let item = SignedCore::sign(MessageCore::new(ProcessId(0), Core::Init { value: 3 }), &keys[0]);
/// cert.insert(item.clone());
/// cert.insert(item); // duplicate: ignored
/// assert_eq!(cert.len(), 1);
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct Certificate {
    items: Vec<SignedCore>,
}

impl Certificate {
    /// The empty certificate (e.g. attached to INIT messages).
    pub fn new() -> Self {
        Certificate::default()
    }

    /// Builds a certificate from items (deduplicating).
    pub fn from_items<I: IntoIterator<Item = SignedCore>>(items: I) -> Self {
        let mut c = Certificate::new();
        for item in items {
            c.insert(item);
        }
        c
    }

    /// Inserts one signed core; returns `true` if it was new.
    pub fn insert(&mut self, item: SignedCore) -> bool {
        let new = !self.items.contains(&item);
        if new {
            self.items.push(item);
        }
        new
    }

    /// Set-union with another certificate (used when a send is justified by
    /// several certificate variables, e.g. `est_cert ∪ next_cert`).
    pub fn union(&self, other: &Certificate) -> Certificate {
        let mut out = self.clone();
        for item in &other.items {
            out.insert(item.clone());
        }
        out
    }

    /// Number of distinct signed cores.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when the certificate holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates all items in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &SignedCore> {
        self.items.iter()
    }

    /// Iterates items of a given kind and round.
    pub fn iter_kind_round(
        &self,
        kind: MessageKind,
        round: Round,
    ) -> impl Iterator<Item = &SignedCore> {
        self.items
            .iter()
            .filter(move |i| i.kind() == kind && i.round() == round)
    }

    /// Distinct senders of items of a given kind and round.
    pub fn senders_of(&self, kind: MessageKind, round: Round) -> BTreeSet<ProcessId> {
        self.senders_of_any(&[kind], round)
    }

    /// Count of distinct senders of `(kind, round)` items — the
    /// cardinality used in the paper's majority tests (`|current_cert|`,
    /// `|next_cert|`).
    pub fn count(&self, kind: MessageKind, round: Round) -> usize {
        self.senders_of(kind, round).len()
    }

    /// The INIT-only sub-certificate (`est_cert` extracted from a received
    /// certificate — what a process adopts along with an estimate vector).
    pub fn init_portion(&self) -> Certificate {
        Certificate::from_items(
            self.items
                .iter()
                .filter(|i| i.kind() == MessageKind::Init)
                .cloned(),
        )
    }

    /// Finds an item of `kind` from `sender` for `round` carrying exactly
    /// `vector` — the generic "the named process itself signed this
    /// statement" lookup behind relayed-CURRENT (HR) and ACK-echo /
    /// timestamp-backing (CT) validation.
    pub fn find_vouching(
        &self,
        kind: MessageKind,
        sender: ProcessId,
        round: Round,
        vector: &ValueVector,
    ) -> Option<&SignedCore> {
        self.iter_kind_round(kind, round)
            .find(|i| i.sender() == sender && i.core().core.vector() == Some(vector))
    }

    /// Finds a CURRENT item from `sender` for `round` carrying exactly
    /// `vector` (used to validate relayed CURRENT messages).
    pub fn find_current(
        &self,
        sender: ProcessId,
        round: Round,
        vector: &ValueVector,
    ) -> Option<&SignedCore> {
        self.find_vouching(MessageKind::Current, sender, round, vector)
    }

    /// Distinct senders that contributed an item of any of `kinds` for
    /// `round` — one process voting two of the kinds counts once.
    pub fn senders_of_any(&self, kinds: &[MessageKind], round: Round) -> BTreeSet<ProcessId> {
        self.items
            .iter()
            .filter(|i| i.round() == round && kinds.contains(&i.kind()))
            .map(super::signed::SignedCore::sender)
            .collect()
    }

    /// Distinct senders that contributed an ACK or NACK item for `round`
    /// — the CT round-progression vote set (the CT analogue of
    /// [`Certificate::rec_from`]).
    pub fn ct_votes(&self, round: Round) -> BTreeSet<ProcessId> {
        self.senders_of_any(&[MessageKind::Ack, MessageKind::Nack], round)
    }

    /// Distinct senders that contributed a CURRENT or NEXT item for
    /// `round` — the paper's `REC_FROM_i` expressed over certificates.
    pub fn rec_from(&self, round: Round) -> BTreeSet<ProcessId> {
        self.senders_of_any(&[MessageKind::Current, MessageKind::Next], round)
    }

    /// Approximate wire size: sum of item sizes.
    pub fn size_bytes(&self) -> usize {
        self.items
            .iter()
            .map(super::signed::SignedCore::size_bytes)
            .sum()
    }
}

impl fmt::Debug for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.items).finish()
    }
}

impl FromIterator<SignedCore> for Certificate {
    fn from_iter<I: IntoIterator<Item = SignedCore>>(iter: I) -> Self {
        Certificate::from_items(iter)
    }
}

impl Extend<SignedCore> for Certificate {
    fn extend<I: IntoIterator<Item = SignedCore>>(&mut self, iter: I) {
        for item in iter {
            self.insert(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Core, MessageCore};
    use ftm_crypto::keydir::KeyDirectory;
    use ftm_crypto::rsa::KeyPair;

    fn keys() -> Vec<KeyPair> {
        let mut rng = ftm_crypto::rng_from_seed(31);
        KeyDirectory::generate(&mut rng, 4, 128).1
    }

    fn signed(sender: u32, core: Core, keys: &[KeyPair]) -> SignedCore {
        SignedCore::sign(
            MessageCore::new(ProcessId(sender), core),
            &keys[sender as usize],
        )
    }

    #[test]
    fn dedup_on_insert_and_union() {
        let ks = keys();
        let a = signed(0, Core::Next { round: 1 }, &ks);
        let b = signed(1, Core::Next { round: 1 }, &ks);
        let mut c1 = Certificate::from_items([a.clone(), b.clone()]);
        assert!(!c1.insert(a.clone()));
        let c2 = Certificate::from_items([a, b]);
        assert_eq!(c1.union(&c2).len(), 2);
    }

    /// What the digest index next to the member list used to guarantee,
    /// now that the list is the only collection.
    #[test]
    fn the_member_list_alone_keeps_dedup_order_and_equality() {
        let ks = keys();
        let a = signed(0, Core::Init { value: 5 }, &ks);
        let b = signed(1, Core::Next { round: 1 }, &ks);
        let c = signed(2, Core::Init { value: 7 }, &ks);
        let digests = |cert: &Certificate| cert.iter().map(SignedCore::digest).collect::<Vec<_>>();

        // A second signing of the same statement is the same member.
        let mut cert = Certificate::from_items([b.clone(), a.clone()]);
        assert!(!cert.insert(signed(0, Core::Init { value: 5 }, &ks)));
        assert!(!cert.insert(b.clone()));
        assert_eq!(cert.len(), 2);

        // Union: the left side's order, then the right side's new members
        // in theirs; `init_portion` filters without reordering.
        let union = cert.union(&Certificate::from_items([c.clone(), a.clone()]));
        assert_eq!(digests(&union), [b.digest(), a.digest(), c.digest()]);
        assert_eq!(digests(&union.init_portion()), [a.digest(), c.digest()]);

        // Equality is by members in order, duplicates not counted.
        let ab = Certificate::from_items([a.clone(), b.clone()]);
        assert_eq!(
            ab,
            Certificate::from_items([a.clone(), b.clone(), a.clone()])
        );
        assert_ne!(ab, Certificate::from_items([b.clone(), a.clone()]));
        assert_ne!(ab, Certificate::from_items([a]));
        assert_ne!(ab, union);
    }

    #[test]
    fn count_is_by_distinct_sender() {
        let ks = keys();
        // p0 signs two different NEXT statements for the same round — the
        // count must still be 1 (it is one voter).
        let cert = Certificate::from_items([
            signed(0, Core::Next { round: 2 }, &ks),
            signed(1, Core::Next { round: 2 }, &ks),
            signed(0, Core::Next { round: 2 }, &ks), // exact dup, removed
            signed(1, Core::Next { round: 3 }, &ks), // other round
        ]);
        assert_eq!(cert.count(MessageKind::Next, 2), 2);
        assert_eq!(cert.count(MessageKind::Next, 3), 1);
        assert_eq!(cert.count(MessageKind::Current, 2), 0);
    }

    #[test]
    fn init_portion_keeps_raw_items() {
        let ks = keys();
        let cert = Certificate::from_items([
            signed(0, Core::Init { value: 5 }, &ks),
            signed(0, Core::Init { value: 6 }, &ks), // equivocation stays visible
            signed(2, Core::Init { value: 7 }, &ks),
            signed(1, Core::Next { round: 1 }, &ks),
        ]);
        assert_eq!(cert.init_portion().len(), 3);
    }

    #[test]
    fn find_current_matches_vector_exactly() {
        let ks = keys();
        let v1 = ValueVector::from_entries(vec![Some(1), None]);
        let v2 = ValueVector::from_entries(vec![Some(2), None]);
        let cert = Certificate::from_items([signed(
            1,
            Core::Current {
                round: 3,
                vector: v1.clone(),
            },
            &ks,
        )]);
        assert!(cert.find_current(ProcessId(1), 3, &v1).is_some());
        assert!(cert.find_current(ProcessId(1), 3, &v2).is_none());
        assert!(cert.find_current(ProcessId(0), 3, &v1).is_none());
    }

    #[test]
    fn rec_from_unions_current_and_next_senders() {
        let ks = keys();
        let v = ValueVector::empty(2);
        let cert = Certificate::from_items([
            signed(
                0,
                Core::Current {
                    round: 1,
                    vector: v,
                },
                &ks,
            ),
            signed(1, Core::Next { round: 1 }, &ks),
            signed(2, Core::Next { round: 2 }, &ks),
        ]);
        let rf = cert.rec_from(1);
        assert_eq!(rf.len(), 2);
        assert!(rf.contains(&ProcessId(0)) && rf.contains(&ProcessId(1)));
    }

    #[test]
    fn collect_and_extend() {
        let ks = keys();
        let mut cert: Certificate = [signed(0, Core::Next { round: 1 }, &ks)]
            .into_iter()
            .collect();
        cert.extend([signed(1, Core::Next { round: 1 }, &ks)]);
        assert_eq!(cert.len(), 2);
        assert!(cert.size_bytes() > 0);
    }
}
