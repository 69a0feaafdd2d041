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

use std::fmt;
use std::sync::Arc;

use ftm_sim::ProcessId;

use crate::message::{MessageKind, Round, ValueVector};
use crate::signed::SignedCore;

/// An insertion-ordered, deduplicated set of signed cores.
///
/// A certificate holds at most a couple of votes per process (≤ 2n
/// members), so membership is a linear scan over the members' digests.
///
/// The members live in one shared body: a clone — of the certificate, or
/// of an envelope, buffered message or record holding it — is a
/// reference-count bump and shares that body, and
/// [`insert`](Certificate::insert) copies it first only while another
/// clone still holds it (copy on write). The empty certificate has no
/// body and allocates nothing.
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
#[derive(Clone, Default)]
pub struct Certificate {
    /// The members, shared by every clone; `None` when there are none.
    body: Option<Arc<Vec<SignedCore>>>,
}

/// How many distinct senders cast an item of `items` that `counts`
/// accepts: an accepted item counts when no earlier accepted item has its
/// sender. A scan with no allocation and no bound on sender ids —
/// certificates are small (≤ 2n members) — that runs `counts` again on an
/// earlier item only when it has the sender.
pub fn distinct_senders<'a>(
    items: impl Iterator<Item = &'a SignedCore> + Clone,
    counts: impl Fn(&SignedCore) -> bool,
) -> usize {
    items
        .clone()
        .enumerate()
        .filter(|(k, item)| {
            let sender = item.sender();
            counts(item)
                && !items
                    .clone()
                    .take(*k)
                    .any(|earlier| earlier.sender() == sender && counts(earlier))
        })
        .count()
}

impl Certificate {
    /// The empty certificate (e.g. attached to INIT messages).
    pub fn new() -> Self {
        Certificate::default()
    }

    /// An empty certificate with room for `capacity` members, for a
    /// caller that inserts them one at a time and knows how many it
    /// will: the body is allocated once, at its final size.
    pub fn with_capacity(capacity: usize) -> Self {
        Certificate {
            body: (capacity > 0).then(|| Arc::new(Vec::with_capacity(capacity))),
        }
    }

    /// Builds a certificate from items (deduplicating), sized from the
    /// iterator's bound.
    pub fn from_items<I: IntoIterator<Item = SignedCore>>(items: I) -> Self {
        let mut c = Certificate::new();
        c.extend(items);
        c
    }

    /// The members, in insertion order.
    fn items(&self) -> &[SignedCore] {
        self.body.as_deref().map_or(&[], Vec::as_slice)
    }

    /// The members, made this clone's own with room for `additional`
    /// more: a shared body is copied at the size it is about to grow to,
    /// never copied and then grown.
    fn members_mut(&mut self, additional: usize) -> &mut Vec<SignedCore> {
        let body = self.body.get_or_insert_with(Arc::default);
        if Arc::get_mut(body).is_none() {
            let mut own = Vec::with_capacity(body.len() + additional);
            own.extend_from_slice(body);
            *body = Arc::new(own);
        }
        let members = Arc::make_mut(body);
        members.reserve(additional);
        members
    }

    /// Inserts one signed core; returns `true` if it was new. The body is
    /// copied first if another clone shares it.
    pub fn insert(&mut self, item: SignedCore) -> bool {
        let new = !self.items().contains(&item);
        if new {
            self.members_mut(1).push(item);
        }
        new
    }

    /// Whether `other` holds this very body — a clone of this certificate
    /// not inserted into since — rather than equal members of its own.
    pub(crate) fn shares_body(&self, other: &Certificate) -> bool {
        match (&self.body, &other.body) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    /// Set-union with another certificate: how tests assemble a witness
    /// from several certificate variables (`est_cert ∪ next_cert`, say).
    #[cfg(test)]
    pub(crate) fn union(&self, other: &Certificate) -> Certificate {
        let mut out = self.clone();
        for item in other.iter() {
            out.insert(item.clone());
        }
        out
    }

    /// Number of distinct signed cores.
    pub fn len(&self) -> usize {
        self.items().len()
    }

    /// Returns `true` when the certificate holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items().is_empty()
    }

    /// Iterates all items in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &SignedCore> + Clone {
        self.items().iter()
    }

    /// Iterates items of a given kind and round.
    pub fn iter_kind_round(
        &self,
        kind: MessageKind,
        round: Round,
    ) -> impl Iterator<Item = &SignedCore> + Clone {
        self.iter()
            .filter(move |i| i.kind() == kind && i.round() == round)
    }

    /// Count of distinct senders that contributed an item of any of
    /// `kinds` for `round` — one process voting twice, or voting two of the
    /// kinds, counts once. The cardinality behind the paper's majority
    /// tests: `|current_cert|`, `|next_cert|`, `REC_FROM_i` (CURRENT or
    /// NEXT) and CT's ACK/NACK votes.
    pub fn count_senders(&self, kinds: &[MessageKind], round: Round) -> usize {
        distinct_senders(self.iter(), |i| {
            i.round() == round && kinds.contains(&i.kind())
        })
    }

    /// The INIT-only sub-certificate (`est_cert` extracted from a received
    /// certificate — what a process adopts along with an estimate vector).
    pub fn init_portion(&self) -> Certificate {
        Certificate::from_items(
            self.iter()
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

    /// Approximate wire size: sum of item sizes.
    pub fn size_bytes(&self) -> usize {
        self.iter().map(SignedCore::size_bytes).sum()
    }
}

/// Equal when the members are, in order (shared or not).
impl PartialEq for Certificate {
    fn eq(&self, other: &Self) -> bool {
        self.items() == other.items()
    }
}

impl fmt::Debug for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.items()).finish()
    }
}

impl FromIterator<SignedCore> for Certificate {
    fn from_iter<I: IntoIterator<Item = SignedCore>>(iter: I) -> Self {
        Certificate::from_items(iter)
    }
}

/// Room is made once, for the iterator's upper bound (its lower bound
/// when it has none), before the first new member goes in.
impl Extend<SignedCore> for Certificate {
    fn extend<I: IntoIterator<Item = SignedCore>>(&mut self, iter: I) {
        let mut items = iter.into_iter();
        let (low, high) = items.size_hint();
        let Some(first) = items.find(|item| !self.items().contains(item)) else {
            return;
        };
        let members = self.members_mut(high.unwrap_or(low).max(1));
        members.push(first);
        for item in items {
            if !members.contains(&item) {
                members.push(item);
            }
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
        assert_eq!(cert.count_senders(&[MessageKind::Next], 2), 2);
        assert_eq!(cert.count_senders(&[MessageKind::Next], 3), 1);
        assert_eq!(cert.count_senders(&[MessageKind::Current], 2), 0);
    }

    /// `count_senders` against a `BTreeSet` of senders, over seeded
    /// certificates with exact duplicates, equivocating senders (several
    /// statements of one kind and round), mixed kinds and rounds, and
    /// sender ids far past 64: the scan has no width limit.
    #[test]
    fn count_senders_matches_a_set_of_senders() {
        use ftm_crypto::prng::Rng64;
        use std::collections::BTreeSet;

        let key = &keys()[0];
        let mut rng = ftm_crypto::rng_from_seed(64);
        let vector = ValueVector::empty(2);
        let kinds = [
            MessageKind::Current,
            MessageKind::Next,
            MessageKind::Ack,
            MessageKind::Nack,
            MessageKind::Estimate,
        ];
        for _ in 0..200 {
            let mut cert = Certificate::new();
            for _ in 0..rng.next_u64() % 24 {
                let sender = [0, 1, 5, 63, 64, 65, 130, 1000][(rng.next_u64() % 8) as usize];
                let round = 1 + rng.next_u64() % 3;
                let value = rng.next_u64() % 2; // two statements a sender can equivocate between
                let core = match rng.next_u64() % 5 {
                    0 => Core::Current {
                        round,
                        vector: ValueVector::from_entries(vec![Some(value), None]),
                    },
                    1 => Core::Next { round },
                    2 => Core::Ack {
                        round,
                        vector: vector.clone(),
                    },
                    3 => Core::Nack { round },
                    _ => Core::Estimate {
                        round,
                        vector: vector.clone(),
                        ts: value,
                    },
                };
                let item = SignedCore::sign(MessageCore::new(ProcessId(sender), core), key);
                cert.insert(item.clone());
                cert.insert(item); // an exact duplicate
            }
            for round in 0..4 {
                for mask in 0..1u32 << kinds.len() {
                    let asked: Vec<MessageKind> = (kinds.iter().enumerate())
                        .filter(|(b, _)| mask >> b & 1 == 1)
                        .map(|(_, k)| *k)
                        .collect();
                    let reference: BTreeSet<ProcessId> = cert
                        .iter()
                        .filter(|i| i.round() == round && asked.contains(&i.kind()))
                        .map(SignedCore::sender)
                        .collect();
                    assert_eq!(
                        cert.count_senders(&asked, round),
                        reference.len(),
                        "{asked:?} r={round} over {cert:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_clone_shares_the_body_until_either_side_inserts() {
        let ks = keys();
        let a = signed(0, Core::Next { round: 1 }, &ks);
        let b = signed(1, Core::Next { round: 1 }, &ks);
        let original = Certificate::from_items([a.clone()]);
        let mut copy = original.clone();
        assert!(copy.shares_body(&original));
        // A member already there changes nothing and copies nothing.
        assert!(!copy.insert(a.clone()));
        assert!(copy.shares_body(&original));
        // A new member is written to a body of the clone's own.
        assert!(copy.insert(b.clone()));
        assert!(!copy.shares_body(&original));
        assert_eq!(original, Certificate::from_items([a.clone()]));
        assert_eq!(copy, Certificate::from_items([a.clone(), b]));
        // Equal members in separate bodies are equal, not shared.
        let twin = Certificate::from_items([a]);
        assert!(twin == original && !twin.shares_body(&original));
        // The empty certificate has no body to share or allocate.
        assert!(Certificate::new().shares_body(&Certificate::default()));
        assert!(Certificate::new().body.is_none());
        assert!(!Certificate::new().shares_body(&original));
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
    fn rec_from_counts_current_and_next_senders_once() {
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
            signed(0, Core::Next { round: 1 }, &ks),
            signed(1, Core::Next { round: 1 }, &ks),
            signed(2, Core::Next { round: 2 }, &ks),
        ]);
        let rec_from = [MessageKind::Current, MessageKind::Next];
        assert_eq!(cert.count_senders(&rec_from, 1), 2);
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
