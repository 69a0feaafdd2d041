//! RSA signatures over SHA-256 digests, from scratch.
//!
//! The paper's signature module assumes each process holds a private key for
//! signing and every process knows every public key (it cites
//! Rivest–Shamir–Adleman). This module provides textbook RSA with the
//! digest embedded via a deterministic full-domain-style pad, which is
//! unforgeable against the simulation's protocol-level adversary.
//!
//! Key widths default to 256 bits (see the crate-level security
//! disclaimer); the repo benchmark's `crypto.sign_ns` /
//! `crypto.verify_miss_ns` probes measure sign/verify cost.

use crate::prng::Rng64;

use crate::bigint::BigUint;
use crate::error::CryptoError;
use crate::prime::random_prime;
use crate::sha256::{Digest, Sha256};

/// The fixed public exponent (2¹⁶ + 1).
pub const PUBLIC_EXPONENT: u64 = 65537;

/// An RSA public (verification) key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PublicKey {
    n: BigUint,
    e: BigUint,
}

/// An RSA signature: the padded digest raised to the private exponent.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Signature(BigUint);

impl Signature {
    /// Size of the signature in bytes (for the byte-accounting metrics).
    pub fn size_bytes(&self) -> usize {
        self.0.to_bytes_be().len()
    }

    /// Serializes the signature to big-endian bytes (for canonical
    /// encoding of signed messages inside certificates).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes_be()
    }

    /// Reconstructs a signature from bytes produced by
    /// [`Signature::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Signature {
        Signature(BigUint::from_bytes_be(bytes))
    }
}

impl PublicKey {
    /// The modulus bit width.
    pub fn modulus_bits(&self) -> usize {
        self.n.bits()
    }

    /// Verifies `sig` against `digest`.
    ///
    /// Returns `true` iff `sig^e mod n` equals the canonical padding of
    /// `digest` for this modulus.
    pub fn verify_digest(&self, digest: &Digest, sig: &Signature) -> bool {
        if sig.0 >= self.n {
            return false;
        }
        let recovered = sig.0.modpow(&self.e, &self.n);
        recovered == pad_digest(digest, &self.n)
    }

    /// Verifies `sig` over raw message bytes (hashes first).
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        self.verify_digest(&Sha256::digest(message), sig)
    }
}

/// An RSA key pair owned by one simulated process.
///
/// # Example
///
/// ```
/// use ftm_crypto::rsa::KeyPair;
/// let mut rng = ftm_crypto::rng_from_seed(11);
/// let kp = KeyPair::generate(&mut rng, 256);
/// let sig = kp.sign(b"NEXT r=2");
/// assert!(kp.public().verify(b"NEXT r=2", &sig));
/// assert!(!kp.public().verify(b"NEXT r=3", &sig));
/// ```
#[derive(Clone, Debug)]
pub struct KeyPair {
    public: PublicKey,
    d: BigUint,
}

impl KeyPair {
    /// Generates a fresh key pair with a modulus of `modulus_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `modulus_bits < 32` (the padding needs room for the hash
    /// prefix) or if no valid exponent pair is found within the retry
    /// budget (astronomically unlikely).
    pub fn generate<R: Rng64 + ?Sized>(rng: &mut R, modulus_bits: usize) -> KeyPair {
        Self::try_generate(rng, modulus_bits).expect("rsa key generation exhausted retry budget")
    }

    /// Fallible variant of [`KeyPair::generate`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::KeyGeneration`] if no suitable prime pair is
    /// found within the retry budget.
    pub fn try_generate<R: Rng64 + ?Sized>(
        rng: &mut R,
        modulus_bits: usize,
    ) -> Result<KeyPair, CryptoError> {
        assert!(modulus_bits >= 32, "modulus too small for digest padding");
        let e = BigUint::from(PUBLIC_EXPONENT);
        let half = modulus_bits / 2;
        for _ in 0..64 {
            let p = random_prime(rng, modulus_bits - half);
            let q = random_prime(rng, half);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bits() != modulus_bits {
                continue;
            }
            let lambda = p.sub(&BigUint::one()).lcm(&q.sub(&BigUint::one()));
            let Some(d) = e.modinv(&lambda) else {
                continue; // gcd(e, λ) ≠ 1; redraw primes
            };
            return Ok(KeyPair {
                public: PublicKey { n, e },
                d,
            });
        }
        Err(CryptoError::KeyGeneration(
            "no suitable prime pair within retry budget",
        ))
    }

    /// Returns the verification half of the pair.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Signs a precomputed digest.
    pub fn sign_digest(&self, digest: &Digest) -> Signature {
        let m = pad_digest(digest, &self.public.n);
        Signature(m.modpow(&self.d, &self.public.n))
    }

    /// Hashes `message` with SHA-256 and signs the digest.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_digest(&Sha256::digest(message))
    }
}

/// Deterministically expands a digest to a value in `[0, n)`.
///
/// A fixed-point-free variant of full-domain hashing: the digest is fed
/// through SHA-256 with a counter until enough bytes cover the modulus
/// width, then reduced mod `n`. Both signer and verifier recompute it, so
/// any mismatch in the signed bytes changes the padded value.
fn pad_digest(digest: &Digest, n: &BigUint) -> BigUint {
    let needed = n.bits() / 8 + 16;
    let mut stream = Vec::with_capacity(needed + 32);
    let mut counter: u32 = 0;
    while stream.len() < needed {
        let mut h = Sha256::new();
        h.update(b"ftm-fdh");
        h.update(&counter.to_be_bytes());
        h.update(digest.as_bytes());
        stream.extend_from_slice(h.finalize().as_bytes());
        counter += 1;
    }
    BigUint::from_bytes_be(&stream).rem(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(seed: u64) -> KeyPair {
        let mut rng = crate::rng_from_seed(seed);
        KeyPair::generate(&mut rng, 256)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keys(1);
        let sig = kp.sign(b"hello");
        assert!(kp.public().verify(b"hello", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = keys(2);
        let sig = kp.sign(b"hello");
        assert!(!kp.public().verify(b"hellp", &sig));
        assert!(!kp.public().verify(b"", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let (a, b) = (keys(3), keys(4));
        let sig = a.sign(b"msg");
        assert!(!b.public().verify(b"msg", &sig));
    }

    #[test]
    fn verify_rejects_forged_signature() {
        let kp = keys(5);
        for filler in 0..32u64 {
            let garbage = Signature(BigUint::from(filler + 2));
            assert!(!kp.public().verify(b"msg", &garbage));
        }
    }

    #[test]
    fn verify_rejects_signature_outside_modulus() {
        let kp = keys(6);
        let oversized = Signature(BigUint::one().shl(300));
        assert!(!kp.public().verify_digest(&Sha256::digest(b"x"), &oversized));
    }

    #[test]
    fn signatures_are_deterministic() {
        let kp = keys(7);
        assert_eq!(kp.sign(b"same"), kp.sign(b"same"));
    }

    #[test]
    fn modulus_has_requested_width() {
        for bits in [64usize, 128, 256] {
            let mut rng = crate::rng_from_seed(100 + bits as u64);
            let kp = KeyPair::generate(&mut rng, bits);
            assert_eq!(kp.public().modulus_bits(), bits);
            let sig = kp.sign(b"width");
            assert!(kp.public().verify(b"width", &sig));
        }
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        assert_ne!(keys(8).public(), keys(9).public());
    }

    #[test]
    fn signature_size_is_bounded_by_modulus() {
        let kp = keys(10);
        let sig = kp.sign(b"size");
        assert!(sig.size_bytes() <= 256 / 8);
    }
}
