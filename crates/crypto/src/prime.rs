//! Miller–Rabin probabilistic primality testing and random prime generation.
//!
//! Used by [`crate::rsa`] to generate the two prime factors of each
//! process's modulus. Witness counts are chosen so the error probability is
//! negligible at simulation scale (`4^-rounds`).

use crate::prng::Rng64;

use crate::bigint::{BigUint, Montgomery};

/// Small primes used for fast trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 25] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
];

/// Miller–Rabin rounds used by [`random_prime`]; error ≤ 4⁻²⁴.
pub const DEFAULT_MR_ROUNDS: u32 = 24;

/// Tests `n` for primality with `rounds` Miller–Rabin witnesses.
///
/// Deterministically correct for `n < 100` (via the trial-division table);
/// probabilistic beyond, with error probability at most `4^-rounds`.
///
/// # Example
///
/// ```
/// use ftm_crypto::bigint::BigUint;
/// use ftm_crypto::prime::is_probable_prime;
/// let mut rng = ftm_crypto::rng_from_seed(0);
/// assert!(is_probable_prime(&BigUint::from(1_000_000_007u64), 16, &mut rng));
/// assert!(!is_probable_prime(&BigUint::from(1_000_000_008u64), 16, &mut rng));
/// ```
pub fn is_probable_prime<R: Rng64 + ?Sized>(n: &BigUint, rounds: u32, rng: &mut R) -> bool {
    if n < &BigUint::from(2u64) {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if n.rem_u64(p) == 0 {
            return n == &BigUint::from(p);
        }
    }

    // Write n - 1 = d * 2^s with d odd.
    let one = BigUint::one();
    let n_minus_1 = n.sub(&one);
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }

    // n is odd (2 is a small prime): one context serves every witness.
    let ctx = Montgomery::new(n);
    let two = BigUint::from(2u64);
    let n_minus_2 = n.sub(&two);
    'witness: for _ in 0..rounds {
        // a uniform in [2, n-2]
        let a = BigUint::random_below(rng, &n_minus_2.sub(&one)).add(&two);
        let mut x = ctx.pow(&a, &d);
        if x == one || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = ctx.mul(&x, &x);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// The returned value is odd, has its top bit set, and passes
/// [`DEFAULT_MR_ROUNDS`] Miller–Rabin rounds.
///
/// # Panics
///
/// Panics if `bits < 3` (no room for an odd prime with the top bit set
/// other than degenerate cases the RSA layer cannot use).
pub fn random_prime<R: Rng64 + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits >= 3, "prime width must be at least 3 bits");
    loop {
        let mut candidate = BigUint::random_bits(rng, bits);
        if candidate.is_even() {
            candidate = candidate.add(&BigUint::one());
            if candidate.bits() != bits {
                continue; // overflowed the width (all-ones candidate)
            }
        }
        if is_probable_prime(&candidate, DEFAULT_MR_ROUNDS, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u64) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn small_primes_recognized() {
        let mut rng = crate::rng_from_seed(3);
        for p in [2u64, 3, 5, 7, 11, 13, 97, 101, 7919] {
            assert!(is_probable_prime(&big(p), 16, &mut rng), "{p}");
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut rng = crate::rng_from_seed(4);
        for c in [0u64, 1, 4, 6, 9, 15, 21, 25, 91, 7917, 1_000_000_008] {
            assert!(!is_probable_prime(&big(c), 16, &mut rng), "{c}");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Fermat pseudoprimes to many bases; Miller-Rabin must catch them.
        let mut rng = crate::rng_from_seed(5);
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_probable_prime(&big(c), 24, &mut rng), "{c}");
        }
    }

    #[test]
    fn known_large_prime() {
        let mut rng = crate::rng_from_seed(6);
        // 2^89 - 1 is a Mersenne prime.
        let p = BigUint::one().shl(89).sub(&BigUint::one());
        assert!(is_probable_prime(&p, 24, &mut rng));
        // 2^67 - 1 = 193707721 × 761838257287 is famously composite.
        let c = BigUint::one().shl(67).sub(&BigUint::one());
        assert!(!is_probable_prime(&c, 24, &mut rng));
    }

    #[test]
    fn random_prime_has_requested_width_and_is_odd() {
        let mut rng = crate::rng_from_seed(7);
        for bits in [16usize, 32, 64, 96, 128] {
            let p = random_prime(&mut rng, bits);
            assert_eq!(p.bits(), bits);
            assert!(p.is_odd());
        }
    }

    #[test]
    fn random_primes_are_distinct() {
        let mut rng = crate::rng_from_seed(8);
        let a = random_prime(&mut rng, 64);
        let b = random_prime(&mut rng, 64);
        assert_ne!(a, b);
    }
}
