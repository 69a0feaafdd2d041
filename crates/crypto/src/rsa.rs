//! RSA signatures over SHA-256 digests, from scratch.
//!
//! The paper's signature module assumes each process holds a private key for
//! signing and every process knows every public key (it cites
//! Rivest–Shamir–Adleman). This module provides textbook RSA with the
//! digest embedded via a deterministic full-domain-style pad, which is
//! unforgeable against the simulation's protocol-level adversary.
//!
//! Protocol set-ups default to 128-bit moduli (see the crate-level
//! security disclaimer); the repo benchmark's `crypto.sign_ns` /
//! `crypto.verify_miss_ns` probes measure sign/verify cost. Every
//! exponentiation runs in a [`Montgomery`] context built once per key, and
//! signing splits its exponentiation over the two prime factors (CRT).

use std::fmt;

use crate::prng::Rng64;

use crate::bigint::{BigUint, Montgomery};
use crate::error::CryptoError;
use crate::prime::random_prime;
use crate::sha256::{Digest, Sha256};

/// The fixed public exponent (2¹⁶ + 1).
pub const PUBLIC_EXPONENT: u64 = 65537;

/// An RSA public (verification) key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PublicKey {
    n: Montgomery,
    e: BigUint,
}

/// An RSA signature: the padded digest raised to the private exponent.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Signature(BigUint);

impl Signature {
    /// Size of the signature in bytes (for the byte-accounting metrics).
    pub fn size_bytes(&self) -> usize {
        self.0.bits().div_ceil(8)
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
        self.n.modulus().bits()
    }

    /// Verifies `sig` against `digest`.
    ///
    /// Returns `true` iff `sig^e mod n` equals the canonical padding of
    /// `digest` for this modulus.
    pub fn verify_digest(&self, digest: &Digest, sig: &Signature) -> bool {
        if &sig.0 >= self.n.modulus() {
            return false;
        }
        self.n.pow(&sig.0, &self.e) == pad_digest(digest, self.n.modulus())
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
#[derive(Clone)]
pub struct KeyPair {
    public: PublicKey,
    /// The prime factors of the modulus, `p ≠ q`.
    p: Montgomery,
    q: Montgomery,
    /// The private exponent `d = e⁻¹ mod lcm(p − 1, q − 1)`, reduced mod
    /// `p − 1` and mod `q − 1`.
    dp: BigUint,
    dq: BigUint,
    /// `q⁻¹ mod p` in `p`'s Montgomery form, so Garner's product is one
    /// kernel call.
    qinv: BigUint,
}

impl fmt::Debug for KeyPair {
    /// Shows the public half only, so no `{:?}` can leak a private key.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyPair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
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
            let (p1, q1) = (p.sub(&BigUint::one()), q.sub(&BigUint::one()));
            let Some(d) = e.modinv(&p1.lcm(&q1)) else {
                continue; // gcd(e, λ) ≠ 1; redraw primes
            };
            let qinv = q.modinv(&p).expect("distinct primes are coprime");
            let p = Montgomery::new(&p);
            return Ok(KeyPair {
                public: PublicKey {
                    n: Montgomery::new(&n),
                    e,
                },
                dp: d.rem(&p1),
                dq: d.rem(&q1),
                qinv: p.to_mont(&qinv),
                p,
                q: Montgomery::new(&q),
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

    /// Signs a precomputed digest: the padded digest raised to the private
    /// exponent `d` modulo `n = p·q`.
    ///
    /// Computed by the Chinese remainder theorem — `m^d` modulo each prime
    /// (half-width modulus, half-width exponent since `m^d ≡ m^(d mod
    /// (p−1)) mod p`), then Garner's recombination of the two residues into
    /// the one value below `n` that has both.
    pub fn sign_digest(&self, digest: &Digest) -> Signature {
        let m = pad_digest(digest, self.public.n.modulus());
        let (p, q) = (self.p.modulus(), self.q.modulus());
        let m1 = self.p.pow(&m, &self.dp);
        let m2 = self.q.pow(&m, &self.dq);
        // h = qinv · (m1 − m2) mod p, with the difference brought into [0, p).
        let m2_mod_p = m2.rem(p);
        let diff = if m1 >= m2_mod_p {
            m1.sub(&m2_mod_p)
        } else {
            m1.add(p).sub(&m2_mod_p)
        };
        let h = self.p.mul_mont(&self.qinv, &diff);
        Signature(m2.add(&h.mul(q)))
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

    #[test]
    fn size_bytes_is_the_encoded_length() {
        let multi_limb = BigUint::one().shl(64);
        for v in [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(0x1_00u64),
            BigUint::from(u64::MAX),
            multi_limb.sub(&BigUint::one()).add(&multi_limb.shl(3)),
            multi_limb.shl(64),
            keys(10).sign(b"size").0,
        ] {
            let sig = Signature(v);
            assert_eq!(sig.size_bytes(), sig.to_bytes().len(), "{sig:?}");
        }
    }

    #[test]
    fn debug_shows_only_the_public_half() {
        let kp = keys(11);
        let shown = format!("{kp:?}");
        assert_eq!(shown, format!("KeyPair {{ public: {:?}, .. }}", kp.public));
        for secret in [kp.p.modulus(), kp.q.modulus(), &kp.dp, &kp.dq, &kp.qinv] {
            assert!(!shown.contains(&format!("{secret}")[2..]), "{shown}");
        }
    }

    /// CRT signing is `pad^d mod n`, by the reference loop and the full
    /// private exponent. Odd widths give `p` one more bit than `q` (at 129,
    /// one more limb); even widths let either prime be the larger, so
    /// `m₂ ≥ p` occurs.
    #[test]
    fn crt_signature_is_pad_to_the_d_mod_n() {
        let mut m2_reduced = false;
        for bits in [33usize, 64, 65, 128, 129, 256, 512, 1024] {
            let kp = KeyPair::generate(&mut crate::rng_from_seed(bits as u64), bits);
            let (n, p, q) = (kp.public.n.modulus(), kp.p.modulus(), kp.q.modulus());
            assert_eq!(&p.mul(q), n);
            let lambda = p.sub(&BigUint::one()).lcm(&q.sub(&BigUint::one()));
            let d = kp.public.e.modinv(&lambda).expect("generate checked it");
            for msg in [&b""[..], b"a", b"vote CURRENT r=3", b"NEXT r=2"] {
                let digest = Sha256::digest(msg);
                let pad = pad_digest(&digest, n);
                let sig = kp.sign_digest(&digest);
                assert_eq!(sig.0, pad.modpow(&d, n), "{bits} bits, {msg:?}");
                assert_eq!(sig.0.modpow(&kp.public.e, n), pad, "{bits} bits, {msg:?}");
                assert!(
                    kp.public.verify_digest(&digest, &sig),
                    "{bits} bits, {msg:?}"
                );
                m2_reduced |= &pad.modpow(&kp.dq, q) >= p;
            }
        }
        assert!(m2_reduced, "no case had m2 >= p");
    }

    /// The key sizes the repo runs at (128-bit set-ups, the benchmark's
    /// 512-bit workload) exponentiate at constant width under all three
    /// moduli: dropping a width from the list fails here instead of
    /// silently doubling a signature.
    #[test]
    fn key_moduli_land_on_instantiated_widths() {
        for bits in [128usize, 512] {
            let kp = KeyPair::generate(&mut crate::rng_from_seed(bits as u64), bits);
            for ctx in [&kp.public.n, &kp.p, &kp.q] {
                let limbs = ctx.modulus().bits().div_ceil(64);
                assert!(
                    crate::bigint::INSTANTIATED_WIDTHS.contains(&limbs),
                    "{bits}-bit key: no instantiation for {limbs} limbs"
                );
            }
        }
    }

    /// Keys and signatures are bit-identical to the ones the bit-at-a-time
    /// `modpow` produced: same primes from the same draws, same private
    /// exponent, deterministic pad. The hash was computed on the commit
    /// before `Montgomery` existed; every golden above this crate rests on
    /// it.
    #[test]
    fn keys_and_signatures_match_the_square_and_multiply_golden() {
        let mut h = Sha256::new();
        for bits in [128usize, 512] {
            for seed in 1..=4u64 {
                let kp = KeyPair::generate(&mut crate::rng_from_seed(seed), bits);
                h.update(&kp.public.n.modulus().to_bytes_be());
                h.update(&kp.public.e.to_bytes_be());
                for msg in [&b""[..], b"vote CURRENT r=3", b"NEXT r=2"] {
                    h.update(&kp.sign(msg).to_bytes());
                }
            }
        }
        assert_eq!(
            h.finalize().to_string(),
            "508714201eb47a0a2ad0bd0a8f0a892eb90722309371aee8d96d1faa503b38c4"
        );
    }
}
