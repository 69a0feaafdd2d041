//! Public-key directory: the trusted mapping from signer identity to
//! verification key that every process is assumed to hold.
//!
//! The paper's model gives each process a private key and assumes public
//! keys are known to everyone (the classical PKI assumption). In the
//! simulation, one [`KeyDirectory`] is built at setup time and shared
//! (immutably) by all processes, faulty ones included — a faulty process can
//! *misuse* its own key but cannot alter the directory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::prng::Rng64;

use crate::error::CryptoError;
use crate::rsa::{KeyPair, PublicKey, Signature};
use crate::sha256::{Digest, Sha256};

/// Identifier of a signer (the process index in the simulation).
pub type SignerId = u32;

/// Upper bound on memoized verdicts; the map is dropped wholesale when it
/// fills (signature verdicts are cheap to recompute, so a rare full reset
/// beats per-entry eviction bookkeeping).
const VERIFY_CACHE_CAPACITY: usize = 1 << 16;

/// Source of memo epochs, process-wide: each directory built and each
/// wholesale clear of a memo draws the next number, so an epoch names one
/// memo in one generation and is never reused. Zero is never drawn; it
/// marks an empty [`VerdictCell`].
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// A signed statement's own copy of its memo entry: set once, by the first
/// check of the statement through
/// [`KeyDirectory::verify_digest_carried`], to that check's verdict and
/// the memo epoch it was taken in.
///
/// A later check under a directory whose memo is still in that epoch —
/// the same directory or a clone, not cleared since — reads the verdict
/// here with one atomic load instead of hashing its way into the memo;
/// any other check asks the memo, as if there were no cell. Either way it
/// counts as the memo would have: the entry the cell copies is still in
/// the memo exactly as long as the epoch has not moved.
///
/// Sound because the verdict is a function of the directory's keys and of
/// the statement's `(signer, digest, signature)`, none of which change
/// after the statement is sealed. The owner must give every statement it
/// seals — decoded, re-assembled or re-signed — a cell of its own, empty,
/// and never encode one: a verdict is taken, never received.
#[derive(Debug, Default)]
pub struct VerdictCell(AtomicU64);

impl VerdictCell {
    /// `(epoch << 1) | verdict`, or zero while empty.
    fn held(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Whether no check has filled the cell yet.
    pub fn is_empty(&self) -> bool {
        self.held() == 0
    }
}

/// Shared memo of signature verdicts keyed by `(signer, digest, signature)`.
///
/// RSA verification dominates the transformed stack's hot path: the same
/// signed core is re-verified by the signature module, the certificate
/// analyzer, and again inside every certificate that carries it. The
/// verdict for a fixed key/digest/signature triple never changes, so it is
/// memoized — *both* outcomes, since Byzantine runs re-present the same
/// forgery many times too.
#[derive(Debug)]
struct VerifyCache {
    verdicts: Mutex<Verdicts>,
    /// The memo's current epoch ([`NEXT_EPOCH`]); moves only under the
    /// `verdicts` lock, when the memo is cleared. It and the cells are
    /// `Relaxed`: they publish no other data, and a verdict read from a
    /// cell is true whatever epoch it was taken in — the epoch decides
    /// only which counter a check lands on, which racing threads make
    /// approximate anyway.
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The memo's table: under each `(signer, digest)` — a `Copy` key, so a
/// lookup borrows the signature instead of cloning its limbs — the
/// signatures presented for it, each with its verdict. A key has one
/// valid signature, so a bucket is longer than one entry only by
/// forgeries.
#[derive(Debug, Default)]
struct Verdicts {
    #[expect(
        clippy::disallowed_types,
        reason = "D2 waiver: the memo is looked up by key and cleared wholesale, never \
                  iterated, so hash order cannot reach a report; it is on the verify hot path"
    )]
    seen: std::collections::HashMap<(SignerId, Digest), Vec<(Signature, bool)>>,
    /// Triples held, over all buckets.
    len: usize,
}

impl VerifyCache {
    fn new() -> Self {
        VerifyCache {
            verdicts: Mutex::default(),
            epoch: AtomicU64::new(fresh_epoch()),
            hits: AtomicU64::default(),
            misses: AtomicU64::default(),
        }
    }

    /// Returns the memoized verdict, or computes it via `compute` and
    /// records it — with the epoch the entry it was read from or written
    /// to belongs to.
    fn verdict(
        &self,
        signer: SignerId,
        digest: &Digest,
        sig: &Signature,
        compute: impl FnOnce() -> bool,
    ) -> (bool, u64) {
        let key = (signer, *digest);
        {
            let verdicts = self.verdicts.lock().expect("verify cache poisoned");
            let seen = verdicts.seen.get(&key).map_or(&[][..], Vec::as_slice);
            if let Some(&(_, ok)) = seen.iter().find(|(s, _)| s == sig) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (ok, self.epoch.load(Ordering::Relaxed));
            }
        }
        // Compute outside the lock: modular exponentiation is the
        // expensive part, and concurrent sweep threads must not serialize
        // on it. A racing duplicate computes the same deterministic
        // verdict, so double-insertion is harmless.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let ok = compute();
        let mut verdicts = self.verdicts.lock().expect("verify cache poisoned");
        if verdicts.len >= VERIFY_CACHE_CAPACITY {
            verdicts.seen.clear();
            verdicts.len = 0;
            self.epoch.store(fresh_epoch(), Ordering::Relaxed);
        }
        verdicts
            .seen
            .entry(key)
            .or_default()
            .push((sig.clone(), ok));
        verdicts.len += 1;
        (ok, self.epoch.load(Ordering::Relaxed))
    }

    /// The verdict `cell` carries if it was taken in this memo's current
    /// epoch, counted as the hit the memo would have answered with.
    fn carried(&self, cell: &VerdictCell) -> Option<bool> {
        let held = cell.held();
        (held != 0 && held >> 1 == self.epoch.load(Ordering::Relaxed)).then(|| {
            self.hits.fetch_add(1, Ordering::Relaxed);
            held & 1 == 1
        })
    }
}

/// An immutable directory of verification keys, indexed by [`SignerId`].
///
/// # Example
///
/// ```
/// use ftm_crypto::keydir::KeyDirectory;
/// let mut rng = ftm_crypto::rng_from_seed(1);
/// let (dir, keys) = KeyDirectory::generate(&mut rng, 4, 128);
/// let sig = keys[2].sign(b"vote");
/// assert!(dir.verify(2, b"vote", &sig).is_ok());
/// assert!(dir.verify(1, b"vote", &sig).is_err()); // wrong claimed signer
/// ```
#[derive(Clone, Debug)]
pub struct KeyDirectory {
    keys: Arc<Vec<PublicKey>>,
    /// Verdict memo, shared by every clone of the directory — all layers
    /// of a process stack (and all stacks of a simulation) hold clones of
    /// the one directory built at setup, so a `(signer, digest, sig)`
    /// triple is verified at most once across the whole run. Its epoch,
    /// drawn here, is the directory's identity to a [`VerdictCell`].
    cache: Arc<VerifyCache>,
}

impl KeyDirectory {
    /// Builds a directory from an explicit list of public keys; the key at
    /// index `i` belongs to signer `i`.
    pub fn new(keys: Vec<PublicKey>) -> Self {
        KeyDirectory {
            keys: Arc::new(keys),
            cache: Arc::new(VerifyCache::new()),
        }
    }

    /// Generates `n` key pairs of `modulus_bits` bits and the matching
    /// directory. Returns `(directory, private_key_pairs)`.
    pub fn generate<R: Rng64 + ?Sized>(
        rng: &mut R,
        n: usize,
        modulus_bits: usize,
    ) -> (KeyDirectory, Vec<KeyPair>) {
        let pairs: Vec<KeyPair> = (0..n)
            .map(|_| KeyPair::generate(rng, modulus_bits))
            .collect();
        let dir = KeyDirectory::new(pairs.iter().map(|kp| kp.public().clone()).collect());
        (dir, pairs)
    }

    /// Number of registered signers.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` when the directory holds no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Looks up the verification key of `signer`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnknownSigner`] for an unregistered id.
    pub fn key_of(&self, signer: SignerId) -> Result<&PublicKey, CryptoError> {
        self.keys
            .get(signer as usize)
            .ok_or(CryptoError::UnknownSigner(signer))
    }

    /// Verifies that `sig` is `signer`'s signature over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnknownSigner`] for an unregistered id and
    /// [`CryptoError::BadSignature`] when verification fails.
    pub fn verify(
        &self,
        signer: SignerId,
        message: &[u8],
        sig: &Signature,
    ) -> Result<(), CryptoError> {
        // Route through the digest form so both entry points share one
        // memo (signing is hash-then-sign, so the verdicts coincide).
        self.verify_digest(signer, &Sha256::digest(message), sig)
    }

    /// Verifies a signature over a precomputed digest.
    ///
    /// Verdicts are memoized per `(signer, digest, signature)` triple, so
    /// re-verifying a signed statement already seen by any clone of this
    /// directory costs a map lookup instead of a modular exponentiation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KeyDirectory::verify`].
    pub fn verify_digest(
        &self,
        signer: SignerId,
        digest: &Digest,
        sig: &Signature,
    ) -> Result<(), CryptoError> {
        verdict_result(self.memo_verdict(signer, digest, sig)?.0)
    }

    /// [`KeyDirectory::verify_digest`] for a statement that carries `cell`:
    /// answered from the cell when it holds this memo's entry, else by the
    /// memo, whose answer fills the cell if it is still empty. Hits,
    /// misses and verdicts are the ones `verify_digest` would give.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KeyDirectory::verify`]. An unknown signer
    /// fails before the cell and leaves it empty.
    pub fn verify_digest_carried(
        &self,
        cell: &VerdictCell,
        signer: SignerId,
        digest: &Digest,
        sig: &Signature,
    ) -> Result<(), CryptoError> {
        self.key_of(signer)?;
        let ok = match self.cache.carried(cell) {
            Some(ok) => ok,
            None => {
                let (ok, epoch) = self.memo_verdict(signer, digest, sig)?;
                // Set once; two racing first checks write equally true
                // verdicts, and whichever epoch stays is at worst stale.
                if cell.is_empty() {
                    cell.0
                        .store((epoch << 1) | u64::from(ok), Ordering::Relaxed);
                }
                ok
            }
        };
        verdict_result(ok)
    }

    /// The memo's verdict on `signer`'s `sig` over `digest`, and the epoch
    /// of the entry it came from.
    fn memo_verdict(
        &self,
        signer: SignerId,
        digest: &Digest,
        sig: &Signature,
    ) -> Result<(bool, u64), CryptoError> {
        let key = self.key_of(signer)?;
        Ok(self
            .cache
            .verdict(signer, digest, sig, || key.verify_digest(digest, sig)))
    }

    /// Number of verifications answered from the verdict memo.
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits.load(Ordering::Relaxed)
    }

    /// Number of verifications that had to run the RSA computation.
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses.load(Ordering::Relaxed)
    }
}

fn verdict_result(ok: bool) -> Result<(), CryptoError> {
    if ok {
        Ok(())
    } else {
        Err(CryptoError::BadSignature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (KeyDirectory, Vec<KeyPair>) {
        let mut rng = crate::rng_from_seed(77);
        KeyDirectory::generate(&mut rng, 3, 128)
    }

    #[test]
    fn verify_accepts_owner() {
        let (dir, keys) = setup();
        for (i, kp) in keys.iter().enumerate() {
            let sig = kp.sign(b"m");
            assert!(dir.verify(i as SignerId, b"m", &sig).is_ok());
        }
    }

    #[test]
    fn verify_rejects_impersonation() {
        let (dir, keys) = setup();
        // Process 0 signs but claims to be process 1.
        let sig = keys[0].sign(b"m");
        assert_eq!(dir.verify(1, b"m", &sig), Err(CryptoError::BadSignature));
    }

    #[test]
    fn unknown_signer_reported() {
        let (dir, keys) = setup();
        let sig = keys[0].sign(b"m");
        assert_eq!(
            dir.verify(9, b"m", &sig),
            Err(CryptoError::UnknownSigner(9))
        );
    }

    #[test]
    fn directory_is_cheap_to_clone() {
        let (dir, _) = setup();
        let clone = dir.clone();
        assert_eq!(clone.len(), dir.len());
        assert!(!dir.is_empty());
    }

    #[test]
    fn repeat_verification_hits_the_cache() {
        let (dir, keys) = setup();
        let sig = keys[0].sign(b"vote");
        assert!(dir.verify(0, b"vote", &sig).is_ok());
        assert_eq!((dir.cache_hits(), dir.cache_misses()), (0, 1));
        assert!(dir.verify(0, b"vote", &sig).is_ok());
        assert_eq!((dir.cache_hits(), dir.cache_misses()), (1, 1));
    }

    #[test]
    fn negative_verdicts_are_cached_too() {
        let (dir, keys) = setup();
        // p0 signs but the statement claims p1: a forgery re-presented
        // many times must not cost an RSA computation each time.
        let sig = keys[0].sign(b"m");
        assert_eq!(dir.verify(1, b"m", &sig), Err(CryptoError::BadSignature));
        assert_eq!(dir.verify(1, b"m", &sig), Err(CryptoError::BadSignature));
        assert_eq!((dir.cache_hits(), dir.cache_misses()), (1, 1));
        // The honest verdict for the same triple under the right signer is
        // a distinct cache entry, not a collision.
        assert!(dir.verify(0, b"m", &sig).is_ok());
        assert_eq!(dir.cache_misses(), 2);
    }

    #[test]
    fn clones_share_one_cache() {
        let (dir, keys) = setup();
        let clone = dir.clone();
        let sig = keys[2].sign(b"shared");
        assert!(dir.verify(2, b"shared", &sig).is_ok());
        assert!(clone.verify(2, b"shared", &sig).is_ok());
        // The clone's verification was answered by the original's memo.
        assert_eq!((dir.cache_hits(), dir.cache_misses()), (1, 1));
        assert_eq!(clone.cache_hits(), 1);
    }

    #[test]
    fn a_carried_verdict_counts_as_the_memo_hit_it_stands_for() {
        let (dir, keys) = setup();
        let digest = Sha256::digest(b"m");
        let (good, forged) = (keys[0].sign_digest(&digest), keys[1].sign_digest(&digest));
        let (cell, forged_cell) = (VerdictCell::default(), VerdictCell::default());
        for _ in 0..3 {
            assert!(dir.verify_digest_carried(&cell, 0, &digest, &good).is_ok());
            assert_eq!(
                dir.verify_digest_carried(&forged_cell, 0, &digest, &forged),
                Err(CryptoError::BadSignature)
            );
        }
        assert!(!cell.is_empty() && !forged_cell.is_empty());
        assert_eq!((dir.cache_hits(), dir.cache_misses()), (4, 2));
        // Plain lookups of the same triples agree and count alike.
        assert!(dir.verify_digest(0, &digest, &good).is_ok());
        assert!(dir.verify_digest(0, &digest, &forged).is_err());
        assert_eq!((dir.cache_hits(), dir.cache_misses()), (6, 2));
    }

    #[test]
    fn an_unknown_signer_leaves_the_cell_empty() {
        let (dir, keys) = setup();
        let digest = Sha256::digest(b"m");
        let cell = VerdictCell::default();
        let sig = keys[0].sign_digest(&digest);
        assert_eq!(
            dir.verify_digest_carried(&cell, 9, &digest, &sig),
            Err(CryptoError::UnknownSigner(9))
        );
        assert!(cell.is_empty());
        assert_eq!((dir.cache_hits(), dir.cache_misses()), (0, 0));
    }

    /// Filling the memo past capacity clears it and moves its epoch: a
    /// verdict carried from before is no longer answered from the cell —
    /// the memo lost the entry it copied — and the check counts the miss
    /// the memo now makes.
    #[test]
    fn filling_the_memo_past_capacity_stales_carried_verdicts() {
        let (dir, keys) = setup();
        let digest = Sha256::digest(b"m");
        let sig = keys[0].sign_digest(&digest);
        let cell = VerdictCell::default();
        assert!(dir.verify_digest_carried(&cell, 0, &digest, &sig).is_ok());
        assert!(dir.verify_digest_carried(&cell, 0, &digest, &sig).is_ok());
        assert_eq!((dir.cache_hits(), dir.cache_misses()), (1, 1));
        let epoch = dir.cache.epoch.load(Ordering::Relaxed);
        for i in 0..VERIFY_CACHE_CAPACITY as u64 {
            let mut other = [0u8; 32];
            other[..8].copy_from_slice(&i.to_be_bytes());
            dir.cache.verdict(1, &Digest(other), &sig, || false);
        }
        assert_ne!(dir.cache.epoch.load(Ordering::Relaxed), epoch);
        let misses = dir.cache_misses();
        assert!(dir.verify_digest_carried(&cell, 0, &digest, &sig).is_ok());
        assert_eq!(dir.cache_misses(), misses + 1);
        // The cell keeps its stale entry (it is set once); the memo, which
        // has the triple again, answers from now on.
        let hits = dir.cache_hits();
        assert!(dir.verify_digest_carried(&cell, 0, &digest, &sig).is_ok());
        assert_eq!(
            (dir.cache_hits(), dir.cache_misses()),
            (hits + 1, misses + 1)
        );
    }

    #[test]
    fn epochs_tell_directories_apart_and_clones_together() {
        let (dir, _) = setup();
        let (twin, _) = setup();
        let epoch = |d: &KeyDirectory| d.cache.epoch.load(Ordering::Relaxed);
        assert_ne!(epoch(&dir), epoch(&twin));
        assert_eq!(epoch(&dir), epoch(&dir.clone()));
        assert_ne!(epoch(&dir), 0);
    }

    #[test]
    fn unknown_signer_is_not_a_cache_event() {
        let (dir, keys) = setup();
        let sig = keys[0].sign(b"m");
        assert_eq!(
            dir.verify(9, b"m", &sig),
            Err(CryptoError::UnknownSigner(9))
        );
        assert_eq!((dir.cache_hits(), dir.cache_misses()), (0, 0));
    }
}
