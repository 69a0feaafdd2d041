//! Signed message cores and wire envelopes — the signature module's data.

use std::fmt;
use std::sync::Arc;

use ftm_crypto::keydir::KeyDirectory;
use ftm_crypto::rsa::{KeyPair, Signature};
use ftm_crypto::sha256::{Digest, Sha256};
use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode, DecodeError, Decoder, Encoder};
use ftm_sim::{LayerSplit, Payload, ProcessId};

use crate::certificate::Certificate;
use crate::error::{CertifyError, FaultClass};
use crate::message::{Core, MessageCore, MessageKind, Round};

/// A message core plus the sender's signature over its canonical bytes.
///
/// One shared allocation: certificates reference the same signed statement
/// many times across a run, so a clone is a reference-count bump, and what
/// is fixed once the core is signed or decoded — its digest and its
/// canonical length — is computed then, from one encode, and never again.
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
/// ```
#[derive(Clone)]
pub struct SignedCore(Arc<Sealed>);

struct Sealed {
    core: MessageCore,
    signature: Signature,
    /// SHA-256 of the canonical core bytes.
    digest: Digest,
    /// Length of the canonical core bytes, from the encode that fed
    /// `digest`.
    core_len: usize,
}

impl SignedCore {
    /// Encodes `core` once for both its digest and its length; `sign`
    /// turns the digest into the signature to attach.
    fn seal(core: MessageCore, sign: impl FnOnce(&Digest) -> Signature) -> Self {
        let bytes = core.canonical_bytes();
        let digest = Sha256::digest(&bytes);
        SignedCore(Arc::new(Sealed {
            signature: sign(&digest),
            core,
            digest,
            core_len: bytes.len(),
        }))
    }

    /// Signs `core` with `keys` (which should be the sender's key pair —
    /// fault injectors deliberately violate this).
    pub fn sign(core: MessageCore, keys: &KeyPair) -> Self {
        Self::seal(core, |digest| keys.sign_digest(digest))
    }

    /// Assembles a signed core from parts (used by forgery injectors).
    pub fn from_parts(core: MessageCore, signature: Signature) -> Self {
        Self::seal(core, |_| signature)
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

    /// Verifies the signature against the claimed sender's directory key.
    ///
    /// # Errors
    ///
    /// Returns a [`CertifyError`] with class
    /// [`FaultClass::BadSignature`] naming the claimed sender.
    pub fn verify(&self, dir: &KeyDirectory) -> Result<(), CertifyError> {
        dir.verify_digest(self.sender().0, &self.0.digest, &self.0.signature)
            .map_err(|_| {
                CertifyError::new(
                    self.sender(),
                    FaultClass::BadSignature,
                    "core signature does not verify for claimed sender",
                )
            })
    }

    /// On-the-wire size: canonical core bytes plus signature bytes.
    pub fn size_bytes(&self) -> usize {
        self.0.core_len + self.0.signature.size_bytes()
    }
}

impl CanonicalEncode for SignedCore {
    fn encode(&self, enc: &mut Encoder) {
        enc.nested(&self.0.core);
        enc.bytes(&self.0.signature.to_bytes());
    }
}

impl CanonicalDecode for SignedCore {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let core = MessageCore::decode(dec)?;
        let sig = Signature::from_bytes(&dec.bytes()?);
        Ok(SignedCore::from_parts(core, sig))
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

    fn label(&self) -> String {
        format!("{} cert={}", self.signed.core().label(), self.cert.len())
    }

    fn layer_split(&self) -> LayerSplit {
        // The wire envelope decomposes exactly: the protocol core's
        // canonical bytes, the signature layer's bytes over that core, and
        // the certification layer's carried evidence (certificate items,
        // cores *and* their signatures — the evidence only exists because
        // of certification).
        LayerSplit {
            signature_bytes: self.signed.0.signature.size_bytes(),
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
        assert!(env.label().contains("CURRENT(r=1)"));
    }
}
