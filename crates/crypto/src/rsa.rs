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
//! Both run from digest to result in limb scratch that is a stack array for
//! every key of at most 1024 bits: neither allocates, except for the
//! [`Signature`] a signing returns.

use std::fmt;
use std::sync::Arc;

use crate::prng::Rng64;

use crate::bigint::{
    add_in_place, div_rem_in, div_scratch, from_limbs, mul_into, sub_in_place, take, with_scratch,
    BigUint, Montgomery,
};
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
        let n = self.n.modulus();
        if &sig.0 >= n {
            return false;
        }
        let k = n.limbs().len();
        with_scratch(self.verify_scratch(), |mut s| {
            let (base, power, pad) = (take(&mut s, k), take(&mut s, k), take(&mut s, k));
            base[..sig.0.limbs().len()].copy_from_slice(sig.0.limbs());
            self.n.pow_into(base, self.e.limbs(), power, s);
            pad_into(digest, n, pad, s);
            power == pad
        })
    }

    /// Limbs of scratch [`PublicKey::verify_digest`] runs in: its three
    /// buffers, then the most either step takes.
    fn verify_scratch(&self) -> usize {
        let n = self.n.modulus();
        3 * n.limbs().len() + pad_scratch(n).max(self.n.pow_scratch())
    }

    /// Verifies `sig` over raw message bytes (hashes first).
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        self.verify_digest(&Sha256::digest(message), sig)
    }
}

/// An RSA key pair owned by one simulated process.
///
/// Its parts live in one shared allocation, so a clone — every protocol
/// instance a replica builds takes one — is a reference count.
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
pub struct KeyPair(Arc<Parts>);

mod parts {
    use super::{BigUint, Montgomery, PublicKey};

    /// What a [`KeyPair`](super::KeyPair) holds. `pub` inside a private
    /// module, so nothing outside `rsa` can name it; the test build's
    /// `Deref` targets it, which lets the tests read `kp.public`, `kp.p`, …
    /// as fields.
    pub struct Parts {
        pub(super) public: PublicKey,
        /// The prime factors of the modulus, `p ≠ q`.
        pub(super) p: Montgomery,
        pub(super) q: Montgomery,
        /// The private exponent `d = e⁻¹ mod lcm(p − 1, q − 1)`, reduced
        /// mod `p − 1` and mod `q − 1` — which is `e⁻¹ mod (p − 1)` and
        /// `e⁻¹ mod (q − 1)`, derived without `d` or Euclid as
        /// `(1 + k·(p − 1)) / e` with `k = −(p − 1)⁻¹ mod e`
        /// (`crt_exponent`).
        pub(super) dp: BigUint,
        pub(super) dq: BigUint,
        /// `q⁻¹ mod p`, derived by Fermat as `q^(p − 2) mod p` under `p`'s
        /// own context and held in `p`'s Montgomery form, so Garner's
        /// product is one kernel call.
        pub(super) qinv: BigUint,
    }
}
use parts::Parts;

#[cfg(test)]
impl std::ops::Deref for KeyPair {
    type Target = Parts;

    fn deref(&self) -> &Parts {
        &self.0
    }
}

impl fmt::Debug for KeyPair {
    /// Shows the public half only, so no `{:?}` can leak a private key.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyPair")
            .field("public", &self.0.public)
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
            let (Some(dp), Some(dq)) = (crt_exponent(&p), crt_exponent(&q)) else {
                continue; // gcd(e, λ) ≠ 1; redraw primes
            };
            let p = Montgomery::new(&p);
            // q⁻¹ = q^(p − 2) mod p: Fermat, p being prime.
            let qinv = p.pow(&q, &p.modulus().sub(&BigUint::from(2u64)));
            return Ok(KeyPair(Arc::new(Parts {
                public: PublicKey {
                    n: Montgomery::new(&n),
                    e,
                },
                dp,
                dq,
                qinv: p.to_mont(&qinv),
                p,
                q: Montgomery::new(&q),
            })));
        }
        Err(CryptoError::KeyGeneration(
            "no suitable prime pair within retry budget",
        ))
    }

    /// Returns the verification half of the pair.
    pub fn public(&self) -> &PublicKey {
        &self.0.public
    }

    /// Signs a precomputed digest: the padded digest raised to the private
    /// exponent `d` modulo `n = p·q`.
    ///
    /// Computed by the Chinese remainder theorem — `m^d` modulo each prime
    /// (half-width modulus, half-width exponent since `m^d ≡ m^(d mod
    /// (p−1)) mod p`), then Garner's recombination of the two residues into
    /// the one value below `n` that has both — in limb scratch, so the
    /// returned signature is the only allocation.
    pub fn sign_digest(&self, digest: &Digest) -> Signature {
        let Parts {
            public,
            p: p_ctx,
            q: q_ctx,
            dp,
            dq,
            qinv: qinv_mont,
        } = &*self.0;
        let n = public.n.modulus();
        let (p, q) = (p_ctx.modulus().limbs(), q_ctx.modulus().limbs());
        let (k, kp, kq) = (n.limbs().len(), p.len(), q.len());
        with_scratch(self.sign_scratch(), |mut s| {
            let m = take(&mut s, k);
            let (mp, mq) = (take(&mut s, kp), take(&mut s, kq));
            let (m1, m2) = (take(&mut s, kp), take(&mut s, kq));
            let (qinv, h) = (take(&mut s, kp), take(&mut s, kp));
            let sig = take(&mut s, kp + kq);
            pad_into(digest, n, m, s);
            div_rem_in(m, p, None, mp, s);
            div_rem_in(m, q, None, mq, s);
            p_ctx.pow_into(mp, dp.limbs(), m1, s);
            q_ctx.pow_into(mq, dq.limbs(), m2, s);
            // h = qinv · (m1 − m2) mod p, the difference brought into
            // [0, p) by adding p when it borrows.
            let m2_mod_p = mp;
            div_rem_in(m2, p, None, m2_mod_p, s);
            if sub_in_place(m1, m2_mod_p) {
                add_in_place(m1, p);
            }
            qinv[..qinv_mont.limbs().len()].copy_from_slice(qinv_mont.limbs());
            p_ctx.mul_mont_into(qinv, m1, h);
            // m2 + h·q: below p·q, m1 mod p and m2 mod q.
            mul_into(sig, h, q);
            add_in_place(sig, m2);
            Signature(from_limbs(sig))
        })
    }

    /// Limbs of scratch [`KeyPair::sign_digest`] runs in: its eight
    /// buffers, then the most any one step takes.
    fn sign_scratch(&self) -> usize {
        let Parts { public, p, q, .. } = &*self.0;
        let n = public.n.modulus();
        let (k, kp, kq) = (
            n.limbs().len(),
            p.modulus().limbs().len(),
            q.modulus().limbs().len(),
        );
        let step = pad_scratch(n)
            .max(div_scratch(k, kp))
            .max(p.pow_scratch())
            .max(q.pow_scratch());
        k + 5 * kp + 3 * kq + step
    }

    /// Hashes `message` with SHA-256 and signs the digest.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_digest(&Sha256::digest(message))
    }
}

/// `e⁻¹ mod (prime − 1)` for the public exponent `e`, or `None` when `e`
/// divides `prime − 1` and there is no inverse.
///
/// `e = 65537` is prime, so that is the one way `gcd(e, λ) ≠ 1` can happen
/// for `λ = lcm(p − 1, q − 1)`, and for every other prime `r = (prime − 1)
/// mod e` has the inverse `r^(e − 2) mod e` (Fermat). With
/// `k = −r⁻¹ mod e`, `1 + k·(prime − 1)` is a multiple of `e`; as
/// `0 < k < e` its quotient by `e` lies in `[1, prime − 1)`, so it is the
/// inverse — the value `d mod (prime − 1)` Euclid's `d` reduces to.
fn crt_exponent(prime: &BigUint) -> Option<BigUint> {
    let e = BigUint::from(PUBLIC_EXPONENT);
    let p1 = prime.sub(&BigUint::one());
    let r = p1.rem_u64(PUBLIC_EXPONENT);
    if r == 0 {
        return None;
    }
    let r_inv = Montgomery::new(&e).pow(&BigUint::from(r), &BigUint::from(PUBLIC_EXPONENT - 2));
    let k = e.sub(&r_inv);
    Some(p1.mul(&k).add(&BigUint::one()).divrem(&e).0)
}

/// Limbs of SHA-256 counter stream [`pad_into`] draws under `n`: the
/// modulus width plus 16 bytes, in whole digests of four limbs.
fn stream_limbs(n: &BigUint) -> usize {
    (n.bits() / 8 + 16).div_ceil(32) * 4
}

/// Limbs of scratch [`pad_into`] takes under `n`: the stream, then its
/// division.
fn pad_scratch(n: &BigUint) -> usize {
    let stream = stream_limbs(n);
    stream + div_scratch(stream, n.limbs().len())
}

/// Deterministically expands a digest to a value in `[0, n)`, left in the
/// `n.limbs().len()` limbs of `out`, with [`pad_scratch`] limbs of
/// `scratch`.
///
/// A fixed-point-free variant of full-domain hashing: the stream of
/// `SHA-256("ftm-fdh" ‖ counter ‖ digest)` for counters 0, 1, … until it
/// covers the modulus width and 16 bytes more, read as one big-endian
/// number — counter `j`'s digest is the `j`-th group of four limbs from the
/// top, written there directly — and reduced mod `n`. Both signer and
/// verifier recompute it, so any mismatch in the signed bytes changes the
/// padded value.
fn pad_into(digest: &Digest, n: &BigUint, out: &mut [u64], mut scratch: &mut [u64]) {
    let stream = take(&mut scratch, stream_limbs(n));
    let mut input = [0u8; 43];
    input[..7].copy_from_slice(b"ftm-fdh");
    input[11..].copy_from_slice(digest.as_bytes());
    for (counter, group) in (0u32..).zip(stream.rchunks_exact_mut(4)) {
        input[7..11].copy_from_slice(&counter.to_be_bytes());
        let block = Sha256::digest(&input);
        for (limb, bytes) in group.iter_mut().rev().zip(block.0.chunks_exact(8)) {
            *limb = u64::from_be_bytes(bytes.try_into().expect("chunk is 8 bytes"));
        }
    }
    div_rem_in(stream, n.limbs(), None, out, scratch);
}

/// The pad by the former route — a byte stream, one big integer, one heap
/// division: the oracle [`pad_into`] is tested against.
#[cfg(test)]
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

    /// Every width class signs `pad^d mod n` by the oracle, and verifies as
    /// the oracle does on a valid signature, a flipped digest and a
    /// signature ≥ n: one-limb moduli, limb boundaries and one past them,
    /// odd limb counts, the instantiated widths, and 2048 bits, wider than
    /// any key the repo runs.
    #[test]
    fn every_width_signs_and_verifies_like_the_oracle() {
        for bits in [
            33usize, 64, 65, 96, 128, 129, 192, 256, 320, 512, 1024, 2048,
        ] {
            let kp = KeyPair::generate(&mut crate::rng_from_seed(0x3D + bits as u64), bits);
            let (n, e) = (kp.public.n.modulus(), &kp.public.e);
            let (p, q) = (kp.p.modulus(), kp.q.modulus());
            let lambda = p.sub(&BigUint::one()).lcm(&q.sub(&BigUint::one()));
            let d = e.modinv(&lambda).expect("generate checked it");
            let oracle_verdict = |digest: &Digest, sig: &Signature| {
                &sig.0 < n && sig.0.modpow(e, n) == pad_digest(digest, n)
            };
            let msgs: &[&[u8]] = if bits > 1024 {
                &[b"NEXT r=2"]
            } else {
                &[b"", b"NEXT r=2", b"vote CURRENT r=3"]
            };
            for &msg in msgs {
                let digest = Sha256::digest(msg);
                let sig = kp.sign_digest(&digest);
                assert_eq!(sig.0, pad_digest(&digest, n).modpow(&d, n), "{bits} bits");
                let mut flipped = digest;
                flipped.0[31] ^= 1;
                let at_least_n = Signature(sig.0.add(n));
                for (what, digest, sig) in [
                    ("valid", &digest, &sig),
                    ("flipped digest", &flipped, &sig),
                    ("signature >= n", &digest, &at_least_n),
                ] {
                    assert_eq!(
                        kp.public.verify_digest(digest, sig),
                        oracle_verdict(digest, sig),
                        "{bits} bits, {what}"
                    );
                }
                assert!(kp.public.verify_digest(&digest, &sig), "{bits} bits");
            }
        }
    }

    /// Every key of at most 1024 bits signs and verifies in the stack's
    /// scratch; the sweep above's 2048-bit key takes the one heap buffer.
    #[test]
    fn keys_up_to_1024_bits_fit_the_stack_scratch() {
        use crate::bigint::STACK_SCRATCH_LIMBS;
        for bits in [
            33usize, 64, 65, 96, 128, 129, 192, 256, 320, 512, 1024, 2048,
        ] {
            let kp = KeyPair::generate(&mut crate::rng_from_seed(0x3D + bits as u64), bits);
            let need = kp.sign_scratch().max(kp.public.verify_scratch());
            assert_eq!(
                need <= STACK_SCRATCH_LIMBS,
                bits <= 1024,
                "{bits} bits: {need}"
            );
        }
    }

    #[test]
    fn a_clone_shares_its_parts() {
        let kp = keys(12);
        let clone = kp.clone();
        assert!(Arc::ptr_eq(&kp.0, &clone.0));
        assert_eq!(format!("{clone:?}"), format!("{kp:?}"));
        assert_eq!(clone.sign(b"shared"), kp.sign(b"shared"));
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

    /// `dp`, `dq` and `qinv` are Euclid's — `d = e⁻¹ mod lcm(p − 1, q − 1)`
    /// reduced mod `p − 1` and `q − 1`, and `q⁻¹ mod p` — on keys of every
    /// width class, so on prime pairs of both orders (`q > p` at even
    /// widths).
    #[test]
    fn private_parts_match_euclid() {
        for (i, bits) in [33usize, 64, 65, 96, 128, 129, 256, 512]
            .into_iter()
            .enumerate()
        {
            let mut rng = crate::rng_from_seed(0xE0 + i as u64);
            for _ in 0..6 {
                let kp = KeyPair::generate(&mut rng, bits);
                let (p, q) = (kp.p.modulus(), kp.q.modulus());
                let (p1, q1) = (p.sub(&BigUint::one()), q.sub(&BigUint::one()));
                let d = kp
                    .public
                    .e
                    .modinv(&p1.lcm(&q1))
                    .expect("generate checked it");
                assert_eq!(kp.dp, d.rem(&p1), "{bits} bits");
                assert_eq!(kp.dq, d.rem(&q1), "{bits} bits");
                let qinv = q.modinv(p).expect("distinct primes are coprime");
                assert_eq!(kp.qinv, kp.p.to_mont(&qinv), "{bits} bits");
            }
        }
    }

    /// Key generation redraws its primes exactly where Euclid's `d` did not
    /// exist: for constructed primes `p ≡ 1 (mod e)` paired with random
    /// ones either way round, and for random pairs, `crt_exponent` refuses
    /// one of the pair if and only if `e` has no inverse mod
    /// `lcm(p − 1, q − 1)`, and otherwise gives Euclid's inverse mod each
    /// `prime − 1`.
    #[test]
    fn crt_exponent_refuses_where_euclid_does() {
        use crate::prime::{is_probable_prime, random_prime};
        let e = BigUint::from(PUBLIC_EXPONENT);
        let mut rng = crate::rng_from_seed(0xE1);
        let mut one_mod_e = |bits: usize| loop {
            let p = BigUint::random_bits(&mut rng, bits)
                .shl(1)
                .mul(&e)
                .add(&BigUint::one());
            if is_probable_prime(&p, 24, &mut rng) {
                break p;
            }
        };
        let special: Vec<BigUint> = [8usize, 15, 31, 47, 48, 64, 111, 128]
            .into_iter()
            .map(&mut one_mod_e)
            .collect();
        let random: Vec<BigUint> = [17usize, 32, 33, 64, 65, 128, 129, 256]
            .into_iter()
            .map(|bits| random_prime(&mut rng, bits))
            .collect();
        let pairs = special
            .iter()
            .zip(&random)
            .flat_map(|(s, r)| [(s, r), (r, s)])
            .chain(random.iter().zip(random.iter().rev()));
        let mut refused = 0;
        for (p, q) in pairs {
            let (p1, q1) = (p.sub(&BigUint::one()), q.sub(&BigUint::one()));
            let euclid = e.modinv(&p1.lcm(&q1));
            let ours = crt_exponent(p).zip(crt_exponent(q));
            assert_eq!(ours.is_none(), euclid.is_none(), "{p}, {q}");
            if let Some(d) = euclid {
                assert_eq!(ours, Some((d.rem(&p1), d.rem(&q1))), "{p}, {q}");
            }
            refused += usize::from(ours.is_none());
        }
        assert_eq!(refused, 2 * special.len());
        for p in special.iter().chain(&random) {
            let p1 = p.sub(&BigUint::one());
            assert_eq!(crt_exponent(p), e.modinv(&p1), "{p}");
        }
    }

    /// Every part of every key a set-up makes — modulus, exponent, both
    /// primes, both CRT exponents and `qinv` — is bit-identical to the
    /// golden: seven directory keys per stream at each width the repo runs
    /// or tests, and the 128-bit key a `WrongKey` attacker draws. Seven
    /// keys from one stream catch what the golden above cannot: a key that
    /// draws once more or once less shifts every key after it.
    #[test]
    fn key_material_matches_the_golden() {
        fn absorb(h: &mut Sha256, kp: &KeyPair) {
            let (n, p, q) = (kp.public.n.modulus(), kp.p.modulus(), kp.q.modulus());
            for part in [n, &kp.public.e, p, q, &kp.dp, &kp.dq, &kp.qinv] {
                let bytes = part.to_bytes_be();
                h.update(&(bytes.len() as u32).to_be_bytes());
                h.update(&bytes);
            }
        }
        let mut h = Sha256::new();
        for bits in [64usize, 128, 256, 512] {
            for seed in 1..=8u64 {
                let (_, pairs) =
                    crate::keydir::KeyDirectory::generate(&mut crate::rng_from_seed(seed), 7, bits);
                pairs.iter().for_each(|kp| absorb(&mut h, kp));
            }
        }
        for seed in 1..=8u64 {
            absorb(
                &mut h,
                &KeyPair::generate(&mut crate::rng_from_seed(0xBAD ^ seed), 128),
            );
        }
        assert_eq!(
            h.finalize().to_string(),
            "b165553166ed7199f6780a8a7615aa3eb5bb57624465dbce10789fb646018b16"
        );
    }

    /// Exponentiations a seven-key set-up runs — Miller–Rabin witnesses
    /// and each key's `qinv` — summed over seeds 1–8 and 9–16 at each
    /// width the golden above covers. The work is a function of the
    /// draws, so the count is exact: a change that runs one more or one
    /// fewer moves it, and a timing that moves while it stands still is
    /// the host's.
    #[test]
    fn key_setup_exponentiations_are_pinned() {
        use crate::bigint::POWS;
        let mut counts = Vec::new();
        for bits in [64usize, 128, 256, 512] {
            for seeds in [1..=8u64, 9..=16] {
                POWS.with(|c| c.set(0));
                for seed in seeds {
                    crate::keydir::KeyDirectory::generate(&mut crate::rng_from_seed(seed), 7, bits);
                }
                counts.push((bits, POWS.with(std::cell::Cell::get)));
            }
        }
        assert_eq!(
            counts,
            [
                (64, 1945),
                (64, 1891),
                (128, 2369),
                (128, 2336),
                (256, 6246),
                (256, 6547),
                (512, 8017),
                (512, 8057),
            ]
        );
    }
}
