//! From-scratch cryptographic substrate for the ft-modular reproduction.
//!
//! The paper (Baldoni–Hélary–Raynal, DSN 2000) assumes every process owns a
//! private/public key pair and signs outgoing messages in an unforgeable way
//! (it cites RSA). This crate provides everything that assumption needs,
//! built from first principles so the repository has no external
//! cryptographic dependency:
//!
//! * [`sha256`] — the SHA-256 compression function and streaming hasher;
//! * [`bigint`] — arbitrary-precision unsigned integers (the minimal set of
//!   operations RSA needs: add/sub/mul/divrem) and Montgomery
//!   exponentiation modulo a fixed odd modulus;
//! * [`prime`] — Miller–Rabin probabilistic primality testing and random
//!   prime generation;
//! * [`prng`] — in-tree deterministic generators (SplitMix64,
//!   xoshiro256++) and per-scenario seed derivation;
//! * [`rsa`] — RSA key generation, signing and verification over SHA-256
//!   digests;
//! * [`keydir`] — a public-key directory mapping signer identities to
//!   verification keys (the "trusted directory" every process is assumed to
//!   hold);
//! * [`wire`] — a canonical, deterministic encoding trait: signatures are
//!   computed over canonical bytes, so two structurally equal messages always
//!   hash identically.
//!
//! # Security disclaimer
//!
//! Key sizes are a set-up parameter; `ProtocolConfig` defaults to 128-bit
//! moduli (the repo benchmark also runs 512) so that simulations involving
//! tens of thousands of signatures stay fast. That is **not**
//! cryptographically strong against a real attacker; it is unforgeable
//! *within the simulation*, where the adversary is a protocol-level
//! Byzantine process that does not factor integers. Do not reuse this crate
//! outside the simulator.
//!
//! # Example
//!
//! ```
//! use ftm_crypto::rsa::KeyPair;
//! use ftm_crypto::sha256::Sha256;
//!
//! # fn main() {
//! let mut rng = ftm_crypto::rng_from_seed(42);
//! let keys = KeyPair::generate(&mut rng, 256);
//! let digest = Sha256::digest(b"vote CURRENT r=3");
//! let sig = keys.sign_digest(&digest);
//! assert!(keys.public().verify_digest(&digest, &sig));
//! # }
//! ```

pub mod bigint;
pub mod error;
pub mod keydir;
pub mod prime;
pub mod prng;
pub mod rsa;
pub mod sha256;
pub mod wire;

pub use error::CryptoError;
pub use prng::{derive_seed, Rng64, SplitMix64, Xoshiro256PlusPlus};

/// Creates a deterministic random number generator from a 64-bit seed.
///
/// All randomness in the workspace (key generation, simulated network
/// delays, workloads) flows from explicitly seeded in-tree generators
/// (see [`prng`]) so that every run — including every counterexample found
/// by a sweep — is replayable with zero external dependencies.
///
/// # Example
///
/// ```
/// use ftm_crypto::prng::Rng64;
/// let mut a = ftm_crypto::rng_from_seed(7);
/// let mut b = ftm_crypto::rng_from_seed(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
pub fn rng_from_seed(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::from_seed(seed)
}

include!("../../../clippy_canaries.rs"); // D1–D4 ban canaries, DESIGN.md §13
