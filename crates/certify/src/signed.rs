//! Signed message cores and wire envelopes — the signature module's data.

use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

use ftm_crypto::keydir::{KeyDirectory, VerdictCell};
use ftm_crypto::rsa::{KeyPair, Signature};
use ftm_crypto::sha256::{Digest, Sha256};
use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode, DecodeError, Decoder, Encoder};
use ftm_sim::{LayerSplit, Payload, ProcessId};

use crate::certificate::Certificate;
use crate::error::{CertifyError, FaultClass};
use crate::message::{Core, MessageCore, MessageKind, Round};

/// First byte of a signed pair's hash input. A canonical [`MessageCore`]
/// opens with its sender as a big-endian `u32`, so no in-range sender's
/// core starts with this byte: a pair digest is never a lone core's
/// digest (domain separation). A pair member's wire form opens with four
/// of them where a lone core's opens with its sender.
pub const PAIR_TAG: u8 = 0xFF;

/// The four-byte head of a pair member's wire form.
const PAIR_HEAD: u32 = u32::from_be_bytes([PAIR_TAG; 4]);

/// What a pair's one signature covers: `PAIR_TAG ‖ min(a, b) ‖ max(a, b)`,
/// so both members name the same input whichever one is asked.
fn pair_input(a: &Digest, b: &Digest) -> [u8; 65] {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut input = [PAIR_TAG; 65];
    input[1..33].copy_from_slice(&lo.0);
    input[33..].copy_from_slice(&hi.0);
    input
}

/// A message core plus the sender's signature over it.
///
/// The signature covers the core's digest, or — for a member of a pair
/// signed with one RSA operation ([`SignedCore::sign_pair`]) — the pair
/// digest over both members' digests; a member then carries its
/// sibling's digest so it verifies on its own. Either way
/// [`digest`](SignedCore::digest) is the core's own digest: statement
/// identity, certificate dedup and equality do not see the difference.
///
/// One shared allocation: certificates reference the same signed statement
/// many times across a run, so a clone is a reference-count bump, and what
/// is fixed once the core is signed or decoded — its digest, the digest
/// its signature covers and its canonical length — is computed then, from
/// one encode, and never again.
///
/// # Example
///
/// ```
/// use ftm_certify::{Core, MessageCore, SignedCore};
/// use ftm_crypto::keydir::KeyDirectory;
/// use ftm_sim::ProcessId;
///
/// let mut rng = ftm_crypto::rng_from_seed(5);
/// let (dir, keys) = KeyDirectory::generate(&mut rng, 2, 128);
/// let sc = SignedCore::sign(MessageCore::new(ProcessId(0), Core::Init { value: 9 }), &keys[0]);
/// assert!(sc.verify(&dir).is_ok());
///
/// // Two statements, one RSA operation; each member verifies alone.
/// let decide = MessageCore::new(ProcessId(1), Core::Next { round: 1 });
/// let init = MessageCore::new(ProcessId(1), Core::Init { value: 4 });
/// let [a, b] = SignedCore::sign_pair(decide, init, &keys[1]);
/// assert!(a.verify(&dir).is_ok() && b.verify(&dir).is_ok());
/// assert_eq!(a.signature_bytes(), b.signature_bytes());
/// ```
#[derive(Clone)]
pub struct SignedCore(Arc<Sealed>);

struct Sealed {
    core: MessageCore,
    signature: Signature,
    /// SHA-256 of the canonical core bytes.
    digest: Digest,
    /// The other member's `digest` when signed as a pair.
    sibling: Option<Digest>,
    /// What `signature` covers: `digest`, or the pair digest over
    /// `digest` and `sibling`. The verdict memo is keyed by it.
    signed: Digest,
    /// Length of the canonical core bytes, from the encode that fed
    /// `digest`.
    core_len: usize,
    /// The first check's verdict, for the directory it was taken under.
    /// Every `Sealed` starts with an empty one, and it is never encoded.
    verdict: VerdictCell,
}

/// A core's digest and canonical length, from one encode.
fn measure(core: &MessageCore) -> (Digest, usize) {
    let bytes = core.canonical_bytes();
    (Sha256::digest(&bytes), bytes.len())
}

/// What the signature of a core with `digest` covers: that digest alone,
/// or the pair digest when it was signed with `sibling`.
fn covered(digest: Digest, sibling: Option<Digest>) -> Digest {
    sibling.map_or(digest, |s| Sha256::digest(&pair_input(&digest, &s)))
}

impl SignedCore {
    /// Seals a measured `core` as a lone statement or as the member of a
    /// pair whose other member has digest `sibling`, its signature
    /// covering `signed` ([`covered`]); `sign` turns that digest into the
    /// signature to attach.
    fn seal(
        core: MessageCore,
        (digest, core_len): (Digest, usize),
        sibling: Option<Digest>,
        signed: Digest,
        sign: impl FnOnce(&Digest) -> Signature,
    ) -> Self {
        SignedCore(Arc::new(Sealed {
            signature: sign(&signed),
            core,
            digest,
            sibling,
            signed,
            core_len,
            verdict: VerdictCell::default(),
        }))
    }

    /// Signs `core` with `keys` (which should be the sender's key pair —
    /// fault injectors deliberately violate this).
    pub fn sign(core: MessageCore, keys: &KeyPair) -> Self {
        let measured = measure(&core);
        Self::seal(core, measured, None, measured.0, |digest| {
            keys.sign_digest(digest)
        })
    }

    /// Signs two cores with one RSA operation over their pair digest —
    /// hashed once for both — and returns them as two members sharing
    /// that signature, each carrying the other's digest.
    pub fn sign_pair(a: MessageCore, b: MessageCore, keys: &KeyPair) -> [Self; 2] {
        let (ma, mb) = (measure(&a), measure(&b));
        let pair = covered(ma.0, Some(mb.0));
        let first = Self::seal(a, ma, Some(mb.0), pair, |pair| keys.sign_digest(pair));
        let second = Self::seal(b, mb, Some(ma.0), pair, |_| first.0.signature.clone());
        [first, second]
    }

    /// This statement signed again, alone, under `keys`: what
    /// [`sign`](Self::sign) makes of its core, from the digest and length
    /// measured when it was sealed (used by forgery injectors).
    pub fn resigned(&self, keys: &KeyPair) -> Self {
        let sealed = &self.0;
        let measured = (sealed.digest, sealed.core_len);
        Self::seal(
            sealed.core.clone(),
            measured,
            None,
            sealed.digest,
            |digest| keys.sign_digest(digest),
        )
    }

    /// Assembles a lone signed core from parts (used by forgery
    /// injectors).
    pub fn from_parts(core: MessageCore, signature: Signature) -> Self {
        let measured = measure(&core);
        Self::seal(core, measured, None, measured.0, |_| signature)
    }

    /// The same core and signature claiming `sibling` instead — a member
    /// lifted out of its pair (`None`), or given another's sibling (used
    /// by forgery injectors and hostile-pair tests).
    pub fn with_sibling(&self, sibling: Option<Digest>) -> Self {
        let sealed = &self.0;
        let measured = (sealed.digest, sealed.core_len);
        let signed = covered(sealed.digest, sibling);
        Self::seal(sealed.core.clone(), measured, sibling, signed, |_| {
            sealed.signature.clone()
        })
    }

    /// The digest of the other member of this core's signed pair, if it
    /// was signed as one.
    pub fn sibling(&self) -> Option<Digest> {
        self.0.sibling
    }

    /// The signed statement.
    pub fn core(&self) -> &MessageCore {
        &self.0.core
    }

    /// The claimed sender.
    pub fn sender(&self) -> ProcessId {
        self.0.core.sender
    }

    /// Kind shorthand.
    pub fn kind(&self) -> MessageKind {
        self.0.core.core.kind()
    }

    /// Round shorthand.
    pub fn round(&self) -> Round {
        self.0.core.core.round()
    }

    /// Digest of the canonical core bytes (identity for dedup).
    pub fn digest(&self) -> Digest {
        self.0.digest
    }

    /// Raw signature bytes (wire accounting, forensics and fuzz tests).
    pub fn signature_bytes(&self) -> Vec<u8> {
        self.0.signature.to_bytes()
    }

    /// Verifies the signature against the claimed sender's directory key,
    /// over the digest it covers (the pair digest for a pair member, so a
    /// flipped, swapped, invented or dropped sibling fails here). The
    /// directory memoizes the verdict under `(signer, that digest,
    /// signature)`: both members of a pair share one entry. This object
    /// also carries the entry it was first answered with, so every later
    /// check of it under the same directory — every receiver and
    /// certificate of a simulation holds this one `Arc` — is one atomic
    /// load ([`VerdictCell`]).
    ///
    /// # Errors
    ///
    /// Returns a [`CertifyError`] with class
    /// [`FaultClass::BadSignature`] naming the claimed sender.
    pub fn verify(&self, dir: &KeyDirectory) -> Result<(), CertifyError> {
        let sealed = &*self.0;
        dir.verify_digest_carried(
            &sealed.verdict,
            self.sender().0,
            &sealed.signed,
            &sealed.signature,
        )
        .map_err(|_| {
            CertifyError::new(
                self.sender(),
                FaultClass::BadSignature,
                "core signature does not verify for claimed sender",
            )
        })
    }

    /// On-the-wire size: canonical core bytes plus the signature layer's.
    pub fn size_bytes(&self) -> usize {
        self.0.core_len + self.signature_layer_bytes()
    }

    /// The signature layer's bytes: the signature, plus the sibling digest
    /// a pair member carries.
    fn signature_layer_bytes(&self) -> usize {
        let sibling = self.0.sibling.map_or(0, |s| s.0.len());
        self.0.signature.size_bytes() + sibling
    }
}

// A lone core is `core ‖ bytes(signature)`; a pair member is
// `PAIR_HEAD ‖ sibling (32 raw bytes) ‖ core ‖ bytes(signature)`. Both are
// self-delimiting, so certificate items can be written back to back.
impl CanonicalEncode for SignedCore {
    fn encode(&self, enc: &mut Encoder) {
        if let Some(sibling) = &self.0.sibling {
            enc.u32(PAIR_HEAD);
            for &b in &sibling.0 {
                enc.tag(b);
            }
        }
        enc.nested(&self.0.core);
        enc.bytes(&self.0.signature.to_bytes());
    }
}

impl CanonicalDecode for SignedCore {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let head = dec.u32()?;
        let (core, sibling) = if head == PAIR_HEAD {
            let mut sibling = Digest([0; 32]);
            for b in &mut sibling.0 {
                *b = dec.tag()?;
            }
            (MessageCore::decode(dec)?, Some(sibling))
        } else {
            (
                MessageCore::decode_after_sender(ProcessId(head), dec)?,
                None,
            )
        };
        let sig = Signature::from_bytes(&dec.bytes()?);
        let measured = measure(&core);
        let signed = covered(measured.0, sibling);
        Ok(SignedCore::seal(core, measured, sibling, signed, |_| sig))
    }
}

impl fmt::Debug for SignedCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signed⟨{} {}⟩", self.sender(), self.0.core.label())
    }
}

impl PartialEq for SignedCore {
    fn eq(&self, other: &Self) -> bool {
        // Signed statements are equal when the statement is: RSA signatures
        // here are deterministic, and a second valid signature over the
        // same core carries no extra information.
        Arc::ptr_eq(&self.0, &other.0) || self.0.digest == other.0.digest
    }
}
impl Eq for SignedCore {}

/// What actually travels on the simulated network: a signed core plus the
/// certificate justifying it.
#[derive(Clone, PartialEq)]
pub struct Envelope {
    /// The signed message.
    pub signed: SignedCore,
    /// Justification: a set of signed cores (possibly empty, e.g. INIT).
    pub cert: Certificate,
}

impl CanonicalEncode for Envelope {
    fn encode(&self, enc: &mut Encoder) {
        enc.nested(&self.signed);
        enc.u32(self.cert.len() as u32);
        for item in self.cert.iter() {
            item.encode(enc);
        }
    }
}

impl CanonicalDecode for Envelope {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let signed = SignedCore::decode(dec)?;
        let len = dec.u32()? as usize;
        let mut cert = Certificate::new();
        for _ in 0..len {
            cert.insert(SignedCore::decode(dec)?);
        }
        Ok(Envelope { signed, cert })
    }
}

impl Envelope {
    /// Serializes the envelope to wire bytes (what a real network
    /// deployment would transmit; the simulator passes typed values but
    /// the codec is part of the public API and fully round-trips).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.canonical_bytes()
    }

    /// Reconstructs an envelope from wire bytes. The structure is
    /// validated here; signatures and certificates are validated by the
    /// receive pipeline as usual.
    ///
    /// # Errors
    ///
    /// Any structural corruption ([`DecodeError`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        Self::from_canonical_bytes(bytes)
    }

    /// Builds and signs an envelope in one step.
    pub fn make(sender: ProcessId, core: Core, cert: Certificate, keys: &KeyPair) -> Self {
        Envelope {
            signed: SignedCore::sign(MessageCore::new(sender, core), keys),
            cert,
        }
    }

    /// Claimed sender shorthand.
    pub fn sender(&self) -> ProcessId {
        self.signed.sender()
    }

    /// Kind shorthand.
    pub fn kind(&self) -> MessageKind {
        self.signed.kind()
    }

    /// Round shorthand.
    pub fn round(&self) -> Round {
        self.signed.round()
    }

    /// Content shorthand.
    pub fn core(&self) -> &Core {
        &self.signed.core().core
    }
}

impl fmt::Debug for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Envelope⟨{} {} +cert:{}⟩",
            self.sender(),
            self.signed.core().label(),
            self.cert.len()
        )
    }
}

impl Payload for Envelope {
    fn size_bytes(&self) -> usize {
        self.signed.size_bytes() + self.cert.size_bytes()
    }

    /// The trace label, e.g. `CURRENT(r=2) cert=3`.
    fn write_label(&self, out: &mut String) {
        self.signed.core().write_label(out);
        let _ = write!(out, " cert={}", self.cert.len());
    }

    /// One object when the signed core and the certificate body are —
    /// never by `==`, which compares statements: a copy re-signed (under
    /// another key, say) has the original's digest, so it is equal, and it
    /// is still another message.
    fn is_same(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.signed.0, &other.signed.0) && self.cert.shares_body(&other.cert)
    }

    fn layer_split(&self) -> LayerSplit {
        // The wire envelope decomposes exactly: the protocol core's
        // canonical bytes, the signature layer's bytes over that core (with
        // a pair member's sibling digest), and the certification layer's
        // carried evidence (certificate items, cores *and* their
        // signatures — the evidence only exists because of certification).
        LayerSplit {
            signature_bytes: self.signed.signature_layer_bytes(),
            certificate_bytes: self.cert.size_bytes(),
            protocol_bytes: self.signed.0.core_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ValueVector;

    fn setup() -> (KeyDirectory, Vec<KeyPair>) {
        let mut rng = ftm_crypto::rng_from_seed(21);
        KeyDirectory::generate(&mut rng, 3, 128)
    }

    fn init(sender: u32, value: u64, keys: &KeyPair) -> SignedCore {
        SignedCore::sign(
            MessageCore::new(ProcessId(sender), Core::Init { value }),
            keys,
        )
    }

    #[test]
    fn valid_signature_verifies() {
        let (dir, keys) = setup();
        assert!(init(0, 5, &keys[0]).verify(&dir).is_ok());
    }

    #[test]
    fn impersonation_is_caught_and_classified() {
        let (dir, keys) = setup();
        // p1 signs a core claiming to be p0.
        let forged = init(0, 5, &keys[1]);
        let err = forged.verify(&dir).unwrap_err();
        assert_eq!(err.class, FaultClass::BadSignature);
        assert_eq!(err.culprit, ProcessId(0)); // the *claimed* sender
    }

    #[test]
    fn tampered_core_is_caught() {
        let (dir, keys) = setup();
        let honest = init(0, 5, &keys[0]);
        // Re-assemble with a different value but the old signature.
        let tampered = SignedCore::from_parts(
            MessageCore::new(ProcessId(0), Core::Init { value: 6 }),
            honest.0.signature.clone(),
        );
        assert!(tampered.verify(&dir).is_err());
    }

    #[test]
    fn equality_is_by_statement() {
        let (_, keys) = setup();
        assert_eq!(init(0, 5, &keys[0]), init(0, 5, &keys[0]));
        assert_ne!(init(0, 5, &keys[0]), init(0, 6, &keys[0]));
        assert_ne!(init(0, 5, &keys[0]), init(1, 5, &keys[0]));
    }

    #[test]
    fn repeated_envelope_verification_is_amortized_by_the_directory_cache() {
        let (dir, keys) = setup();
        let sc = init(0, 5, &keys[0]);
        // First verification computes; every later layer re-checking the
        // same signed statement (analyzer, certificates, self-audit) is
        // answered from the directory's verdict memo.
        assert!(sc.verify(&dir).is_ok());
        assert_eq!((dir.cache_hits(), dir.cache_misses()), (0, 1));
        assert!(sc.verify(&dir).is_ok());
        assert!(sc.verify(&dir.clone()).is_ok());
        assert_eq!((dir.cache_hits(), dir.cache_misses()), (2, 1));
        // A forgery over the same core is a different triple — and its
        // rejection is memoized too.
        let forged = init(0, 5, &keys[1]);
        assert!(forged.verify(&dir).is_err());
        assert!(forged.verify(&dir).is_err());
        assert_eq!((dir.cache_hits(), dir.cache_misses()), (3, 2));
    }

    /// A copy of `sc` that shares nothing with it, as a decoder makes one.
    fn fresh(sc: &SignedCore) -> SignedCore {
        SignedCore::from_canonical_bytes(&sc.canonical_bytes()).expect("roundtrip")
    }

    #[test]
    fn one_core_under_two_directories_gets_each_directorys_verdict() {
        let (dir, keys) = setup();
        let (other, _) = KeyDirectory::generate(&mut ftm_crypto::rng_from_seed(22), 3, 128);
        // Checked under `dir` first, then alternately.
        let a = init(0, 5, &keys[0]);
        // Checked under `other` first, then alternately.
        let b = init(0, 6, &keys[0]);
        for _ in 0..3 {
            assert!(a.verify(&dir).is_ok());
            assert!(a.verify(&other).is_err());
            assert!(b.verify(&other).is_err());
            assert!(b.verify(&dir).is_ok());
        }
        // Each directory counts its own checks: one miss per core, then hits.
        assert_eq!((dir.cache_hits(), dir.cache_misses()), (4, 2));
        assert_eq!((other.cache_hits(), other.cache_misses()), (4, 2));
    }

    /// What the counters say of a run of checks does not depend on whether
    /// the checks share one object or each decode a copy of their own.
    #[test]
    fn shared_objects_and_fresh_copies_count_the_same() {
        let (dir, keys) = setup();
        let twin = KeyDirectory::new(
            (0..3)
                .map(|i| dir.key_of(i).expect("registered").clone())
                .collect(),
        );
        let [decide, member] = pair(&keys, 7);
        let (lone, forged, unknown) = (
            init(2, 9, &keys[2]),
            init(0, 5, &keys[1]),
            init(9, 1, &keys[0]),
        );
        let sequence = [
            &lone, &decide, &lone, &forged, &unknown, &member, &forged, &decide, &lone, &member,
        ];
        for (i, sc) in sequence.into_iter().enumerate() {
            assert_eq!(
                sc.verify(&dir).is_ok(),
                fresh(sc).verify(&twin).is_ok(),
                "check {i}"
            );
            assert_eq!(
                (dir.cache_hits(), dir.cache_misses()),
                (twin.cache_hits(), twin.cache_misses()),
                "check {i}"
            );
        }
        // Misses: `lone`, the pair (one entry for both members), `forged`.
        assert_eq!((dir.cache_hits(), dir.cache_misses()), (6, 3));
    }

    /// Checks racing from many threads — on shared objects and on fresh
    /// copies, valid and forged — give a lone thread's verdicts, and each
    /// check is exactly one memo event.
    #[test]
    fn checks_from_parallel_threads_agree() {
        let (dir, keys) = setup();
        let (good, forged) = (init(0, 5, &keys[0]), init(1, 5, &keys[0]));
        let items: Vec<(bool, bool)> = (0..96).map(|i| (i % 3 == 0, i % 2 == 0)).collect();
        let verdicts = ftm_sim::harness::parallel_map(&items, 8, |_, &(forge, copy)| {
            let sc = if forge { &forged } else { &good };
            if copy {
                fresh(sc).verify(&dir).is_ok()
            } else {
                sc.verify(&dir).is_ok()
            }
        });
        for (ok, (forge, _)) in verdicts.iter().zip(&items) {
            assert_eq!(*ok, !forge);
        }
        assert_eq!(dir.cache_hits() + dir.cache_misses(), items.len() as u64);
    }

    /// Every way of making a `SignedCore` other than cloning one makes a
    /// statement whose cell is empty, however its source was checked.
    #[test]
    fn decoded_reassembled_and_resigned_copies_start_empty() {
        let (dir, keys) = setup();
        let [decide, member] = pair(&keys, 7);
        for sc in [&decide, &member] {
            assert!(sc.verify(&dir).is_ok());
            assert!(!sc.0.verdict.is_empty());
            let copies = [
                fresh(sc),
                sc.with_sibling(sc.sibling()),
                SignedCore::from_parts(sc.core().clone(), sc.0.signature.clone()),
                SignedCore::sign(sc.core().clone(), &keys[1]),
            ];
            for copy in &copies {
                assert!(copy.0.verdict.is_empty(), "{copy:?}");
            }
            assert!(!sc.clone().0.verdict.is_empty());
        }
    }

    #[test]
    fn a_forgerys_rejection_is_carried() {
        let (dir, keys) = setup();
        let forged = init(0, 5, &keys[1]);
        assert!(forged.verify(&dir).is_err());
        assert!(!forged.0.verdict.is_empty());
        let counts = (dir.cache_hits(), dir.cache_misses());
        assert_eq!(counts, (0, 1));
        for _ in 0..3 {
            let err = forged.verify(&dir).unwrap_err();
            assert_eq!(
                (err.culprit, err.class),
                (ProcessId(0), FaultClass::BadSignature)
            );
        }
        assert_eq!((dir.cache_hits(), dir.cache_misses()), (3, 1));
    }

    /// p1's DECIDE(1) and INIT(v) signed as one pair.
    fn pair(keys: &[KeyPair], value: u64) -> [SignedCore; 2] {
        let decide = MessageCore::new(
            ProcessId(1),
            Core::Decide {
                round: 1,
                vector: ValueVector::from_entries(vec![Some(1), None, Some(3)]),
            },
        );
        let init = MessageCore::new(ProcessId(1), Core::Init { value });
        SignedCore::sign_pair(decide, init, &keys[1])
    }

    fn flipped(d: Digest, bit: usize) -> Digest {
        let mut d = d;
        d.0[bit / 8] ^= 1 << (bit % 8);
        d
    }

    #[test]
    fn both_members_of_a_pair_verify_and_keep_their_own_identity() {
        let (dir, keys) = setup();
        let [decide, init] = pair(&keys, 7);
        assert!(decide.verify(&dir).is_ok() && init.verify(&dir).is_ok());
        assert_eq!(decide.signature_bytes(), init.signature_bytes());
        assert_eq!(
            (decide.sibling(), init.sibling()),
            (Some(init.digest()), Some(decide.digest()))
        );
        // Identity is the core's: a pair member equals the lone statement.
        assert_eq!(init, SignedCore::sign(init.core().clone(), &keys[1]));
        assert_eq!(init.digest(), init.core().canonical_digest());
        // Order does not matter: either member names the same pair input.
        let [init2, decide2] =
            SignedCore::sign_pair(init.core().clone(), decide.core().clone(), &keys[1]);
        assert_eq!(init2.signature_bytes(), decide.signature_bytes());
        assert_eq!(decide2.signature_bytes(), init.signature_bytes());
    }

    #[test]
    fn a_flipped_sibling_bit_convicts_the_sender_of_a_bad_signature() {
        let (dir, keys) = setup();
        let [decide, _] = pair(&keys, 7);
        let sibling = decide.sibling().expect("a member");
        for bit in [0, 7, 100, 255] {
            let err = decide
                .with_sibling(Some(flipped(sibling, bit)))
                .verify(&dir)
                .unwrap_err();
            assert_eq!(
                (err.culprit, err.class),
                (ProcessId(1), FaultClass::BadSignature)
            );
        }
    }

    #[test]
    fn a_member_lifted_out_of_its_pair_does_not_verify() {
        let (dir, keys) = setup();
        let [decide, init] = pair(&keys, 7);
        assert!(decide.with_sibling(None).verify(&dir).is_err());
        assert!(init.with_sibling(None).verify(&dir).is_err());
    }

    #[test]
    fn two_pairs_of_one_signer_with_siblings_swapped_do_not_verify() {
        let (dir, keys) = setup();
        let [decide_a, init_a] = pair(&keys, 7);
        let [decide_b, init_b] = pair(&keys, 8);
        // Same DECIDE in both pairs, different INITs: each DECIDE claims
        // the other pair's INIT.
        assert!(decide_a
            .with_sibling(decide_b.sibling())
            .verify(&dir)
            .is_err());
        assert!(decide_b
            .with_sibling(decide_a.sibling())
            .verify(&dir)
            .is_err());
        // And each INIT claims the other pair's DECIDE signature.
        let swapped = SignedCore::from_parts(init_a.core().clone(), decide_b.0.signature.clone())
            .with_sibling(init_a.sibling());
        assert!(swapped.verify(&dir).is_err());
        assert!(init_b.verify(&dir).is_ok());
    }

    #[test]
    fn a_lone_core_given_an_invented_sibling_does_not_verify() {
        let (dir, keys) = setup();
        let lone = init(1, 5, &keys[1]);
        let invented = Sha256::digest(b"no such statement");
        assert!(lone.verify(&dir).is_ok());
        assert!(lone.with_sibling(Some(invented)).verify(&dir).is_err());
        assert!(lone.with_sibling(Some(lone.digest())).verify(&dir).is_err());
    }

    #[test]
    fn the_pair_input_opens_with_a_tag_no_core_kind_opens_with() {
        let (a, b) = (Sha256::digest(b"a"), Sha256::digest(b"b"));
        let input = pair_input(&a, &b);
        assert_eq!(input[0], PAIR_TAG);
        assert_eq!(input, pair_input(&b, &a));
        let vector = ValueVector::empty(3);
        let kinds = [
            Core::Init { value: u64::MAX },
            Core::Current {
                round: 1,
                vector: vector.clone(),
            },
            Core::Next { round: 1 },
            Core::Decide {
                round: 1,
                vector: vector.clone(),
            },
            Core::Estimate {
                round: 2,
                vector: vector.clone(),
                ts: 1,
            },
            Core::Propose {
                round: 1,
                vector: vector.clone(),
            },
            Core::Ack { round: 1, vector },
            Core::Nack { round: 1 },
            Core::Checkpoint { slot: 1, digest: a },
        ];
        // Any sender below 2^24 — every directory this stack builds.
        for sender in [0, 1, 6, 0x00FF_FFFF] {
            for core in &kinds {
                let bytes = MessageCore::new(ProcessId(sender), core.clone()).canonical_bytes();
                assert_ne!(bytes[0], PAIR_TAG, "{core:?} from {sender}");
            }
        }
    }

    #[test]
    fn verifying_both_members_costs_one_memo_miss_and_one_hit() {
        let (dir, keys) = setup();
        let [decide, init] = pair(&keys, 7);
        assert!(decide.verify(&dir).is_ok());
        assert!(init.verify(&dir).is_ok());
        assert_eq!((dir.cache_misses(), dir.cache_hits()), (1, 1));
    }

    #[test]
    fn a_member_measures_its_sibling_in_the_signature_layer() {
        let (_, keys) = setup();
        let [_, member] = pair(&keys, 7);
        let lone = init(1, 7, &keys[1]);
        let env = |signed: SignedCore| Envelope {
            signed,
            cert: Certificate::new(),
        };
        let (member_env, lone_env) = (env(member.clone()), env(lone.clone()));
        let (m, l) = (member_env.layer_split(), lone_env.layer_split());
        assert_eq!(m.protocol_bytes, l.protocol_bytes);
        assert_eq!(m.signature_bytes, member.signature_bytes().len() + 32);
        assert_eq!(l.signature_bytes, lone.signature_bytes().len());
        assert_eq!(m.total(), member_env.size_bytes());
        assert_eq!(
            member.size_bytes(),
            member.core().canonical_bytes().len() + member.signature_bytes().len() + 32
        );
    }

    #[test]
    fn members_roundtrip_back_to_back_and_every_truncation_is_an_error() {
        let (dir, keys) = setup();
        let [decide, member] = pair(&keys, 7);
        let env = Envelope {
            signed: decide,
            cert: Certificate::from_items([member, init(0, 5, &keys[0])]),
        };
        let bytes = env.to_bytes();
        let back = Envelope::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(
            (back.size_bytes(), back.layer_split()),
            (env.size_bytes(), env.layer_split())
        );
        for item in std::iter::once(&back.signed).chain(back.cert.iter()) {
            assert!(item.verify(&dir).is_ok());
        }
        // A member's wire form: the four-tag head, the raw sibling, then
        // the lone form.
        let head = back.signed.canonical_bytes();
        assert_eq!(&head[..4], &[PAIR_TAG; 4]);
        assert_eq!(&head[4..36], &back.signed.sibling().expect("a member").0);
        for cut in 0..bytes.len() {
            assert!(Envelope::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn envelope_roundtrips_through_wire_bytes() {
        let (dir, keys) = setup();
        let inner = init(0, 5, &keys[0]);
        let env = Envelope::make(
            ProcessId(1),
            Core::Current {
                round: 2,
                vector: ValueVector::from_entries(vec![Some(5), None, Some(7)]),
            },
            crate::certificate::Certificate::from_items([inner]),
            &keys[1],
        );
        let bytes = env.to_bytes();
        let back = Envelope::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, env);
        // The signature survives the trip and still verifies.
        assert!(back.signed.verify(&dir).is_ok());
        assert_eq!(back.cert.len(), 1);
    }

    #[test]
    fn a_cloned_envelope_is_the_same_message_and_a_resigned_one_is_not() {
        let (_, keys) = setup();
        let env = Envelope::make(
            ProcessId(1),
            Core::Next { round: 2 },
            Certificate::from_items([init(0, 5, &keys[0])]),
            &keys[1],
        );
        let clone = env.clone();
        assert!(env.is_same(&clone));
        assert!(Arc::ptr_eq(&env.signed.0, &clone.signed.0));
        assert!(env.cert.shares_body(&clone.cert));
        // Signed again, separately: equal content, another message.
        let resigned = Envelope {
            signed: SignedCore::sign(env.signed.core().clone(), &keys[1]),
            cert: env.cert.clone(),
        };
        assert!(resigned == env && !resigned.is_same(&env));
        // The same core under an equal certificate of its own body.
        let recertified = Envelope {
            signed: env.signed.clone(),
            cert: Certificate::from_items(env.cert.iter().cloned()),
        };
        assert!(recertified == env && !recertified.is_same(&env));
        // A clone inserted into no longer shares, and the original is
        // untouched.
        let mut grown = env.clone();
        grown.cert.insert(init(2, 6, &keys[2]));
        assert!(!grown.is_same(&env));
        assert_eq!((env.cert.len(), grown.cert.len()), (1, 2));
    }

    #[test]
    fn truncated_wire_bytes_are_rejected() {
        let (_, keys) = setup();
        let env = Envelope::make(
            ProcessId(0),
            Core::Init { value: 1 },
            Certificate::new(),
            &keys[0],
        );
        let bytes = env.to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Envelope::from_bytes(&bytes[..cut]).is_err(),
                "accepted truncation at {cut}"
            );
        }
    }

    #[test]
    fn layer_split_decomposes_wire_bytes_exactly() {
        let (_, keys) = setup();
        let core = MessageCore::new(ProcessId(1), Core::Init { value: 5 });
        let witness = SignedCore::sign(core, &keys[1]);
        let mut cert = Certificate::new();
        cert.insert(witness);
        let env = Envelope::make(
            ProcessId(0),
            Core::Current {
                round: 1,
                vector: ValueVector::empty(3),
            },
            cert,
            &keys[0],
        );
        let split = env.layer_split();
        assert_eq!(split.total(), env.size_bytes());
        assert!(split.signature_bytes > 0, "signature layer unaccounted");
        assert!(split.certificate_bytes > 0, "certificate layer unaccounted");
        assert!(split.protocol_bytes > 0, "protocol core unaccounted");

        // A certificate-free INIT still pays the signature layer.
        let bare = Envelope::make(
            ProcessId(0),
            Core::Init { value: 9 },
            Certificate::new(),
            &keys[0],
        );
        let bare_split = bare.layer_split();
        assert_eq!(bare_split.certificate_bytes, 0);
        assert!(bare_split.signature_bytes > 0);
        assert_eq!(bare_split.total(), bare.size_bytes());
    }

    #[test]
    fn envelope_accessors_and_size() {
        let (_, keys) = setup();
        let env = Envelope::make(
            ProcessId(2),
            Core::Current {
                round: 1,
                vector: ValueVector::empty(3),
            },
            Certificate::new(),
            &keys[2],
        );
        assert_eq!(env.sender(), ProcessId(2));
        assert_eq!(env.kind(), MessageKind::Current);
        assert_eq!(env.round(), 1);
        assert!(env.size_bytes() > 0);
        let mut label = String::new();
        env.write_label(&mut label);
        assert_eq!(label, "CURRENT(r=1) cert=0");
    }
}
