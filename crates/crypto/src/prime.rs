//! Miller–Rabin probabilistic primality testing and random prime generation.
//!
//! Used by [`crate::rsa`] to generate the two prime factors of each
//! process's modulus. Witness counts are chosen so the error probability is
//! negligible at simulation scale (`4^-rounds`).
//!
//! Both run on limbs, as signing does: the candidate, its witnesses and
//! their powers live in scratch that `with_scratch` puts on the stack up to
//! 16 limbs, and every exponentiation and squaring is the one Montgomery
//! kernel at the candidate's width.
//!
//! **Draw order.** Every key the repo makes, and with it every golden above
//! this crate, is a function of the RNG stream these two functions read, so
//! the order of the draws is part of their contract:
//!
//! * a candidate of `bits` bits is `bits.div_ceil(64)` `next_u64` calls,
//!   low limb first, the top limb masked to width;
//! * trial division and the split of `n − 1` draw nothing;
//! * each of the `rounds` witnesses is drawn only after the one before it
//!   failed to prove `n` composite, by rejection against `n − 3`: as many
//!   bits as `n − 3` has, the same way, until the draw falls below it;
//!   the test stops drawing at the first witness that proves `n`
//!   composite.
//!
//! A change that draws once more or once less — fewer rounds, a sieve, a
//! witness left untested — moves every key drawn after it; `rsa`'s
//! key-material golden pins the stream.

use crate::bigint::{
    add_in_place, div_rem_in, from_limbs, pow_scratch_bound, random_below_into, random_limbs,
    set_bit, shr_limbs, sub_in_place, take, with_scratch, BigUint, Montgomery,
};
use crate::prng::Rng64;

/// Small primes used for fast trial division before Miller–Rabin, in two
/// runs whose products each fit a `u64`: a candidate's residue modulo a
/// run's product is one pass over its limbs, and the residue modulo each
/// prime of the run one `u64` remainder of that.
const SMALL_PRIME_RUNS: [&[u64]; 2] = [
    &[2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47],
    &[53, 59, 61, 67, 71, 73, 79, 83, 89, 97],
];

/// The product of each run of [`SMALL_PRIME_RUNS`]; an overflow fails to
/// compile.
const RUN_PRODUCTS: [u64; 2] = [product(SMALL_PRIME_RUNS[0]), product(SMALL_PRIME_RUNS[1])];

const fn product(primes: &[u64]) -> u64 {
    let (mut acc, mut i) = (1u64, 0);
    while i < primes.len() {
        acc *= primes[i];
        i += 1;
    }
    acc
}

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
    let n = n.limbs();
    with_scratch(test_scratch(n.len()), |scratch| {
        passes(n, rounds, rng, scratch)
    })
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
    let k = bits.div_ceil(64);
    with_scratch(k + test_scratch(k), |mut scratch| {
        let candidate = take(&mut scratch, k);
        loop {
            random_limbs(rng, bits, candidate);
            set_bit(candidate, bits - 1);
            candidate[0] |= 1;
            if passes(candidate, DEFAULT_MR_ROUNDS, rng, scratch) {
                return from_limbs(candidate);
            }
        }
    })
}

/// Limbs of scratch [`passes`] takes for a `k`-limb candidate: its six
/// buffers, then the exponentiation's.
fn test_scratch(k: usize) -> usize {
    6 * k + pow_scratch_bound(k)
}

/// The test itself, for the normalized limbs of `n`, in
/// [`test_scratch`] limbs of `scratch`.
fn passes<R: Rng64 + ?Sized>(n: &[u64], rounds: u32, rng: &mut R, mut scratch: &mut [u64]) -> bool {
    if n.len() < 2 && n.first().is_none_or(|&l| l < 2) {
        return false;
    }
    for (run, product) in SMALL_PRIME_RUNS.into_iter().zip(RUN_PRODUCTS) {
        let mut residue = [0u64];
        div_rem_in(n, &[product], None, &mut residue, &mut []);
        if let Some(&p) = run.iter().find(|&&p| residue[0].is_multiple_of(p)) {
            return n == [p];
        }
    }

    // n is odd (2 is a small prime): one context serves every witness.
    let ctx = Montgomery::new(&from_limbs(n));
    let k = n.len();
    let (d, n_minus_3) = (take(&mut scratch, k), take(&mut scratch, k));
    let (minus_one, a) = (take(&mut scratch, k), take(&mut scratch, k));
    let (mut x, mut t) = (take(&mut scratch, k), take(&mut scratch, k));

    // n − 1 = d·2^s with d odd.
    t.copy_from_slice(n);
    t[0] -= 1;
    let s = t
        .iter()
        .position(|&l| l != 0)
        .map_or(0, |i| 64 * i + t[i].trailing_zeros() as usize);
    d.fill(0);
    shr_limbs(&mut d[..k - s / 64], &t[s / 64..], (s % 64) as u32);

    // Witnesses a = 2 + (uniform below n − 3), uniform in [2, n − 2],
    // compared in Montgomery form with one (R mod n) and minus one.
    n_minus_3.copy_from_slice(n);
    sub_in_place(n_minus_3, &[3]);
    minus_one.copy_from_slice(n);
    sub_in_place(minus_one, ctx.one());
    'witness: for _ in 0..rounds {
        random_below_into(rng, n_minus_3, a);
        add_in_place(a, &[2]);
        ctx.pow_into(a, d, t, scratch);
        ctx.to_mont_into(t, x);
        if x == ctx.one() || x == minus_one {
            continue 'witness;
        }
        for _ in 1..s {
            ctx.mul_mont_into(x, x, t);
            std::mem::swap(&mut x, &mut t);
            if x == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// The test by the former route — `BigUint` witnesses, `n − 1` and its
/// powers on the heap, draws made apart from [`random_limbs`]: the oracle
/// [`is_probable_prime`] is tested against, verdict and draws.
#[cfg(test)]
fn is_probable_prime_by_bigint<R: Rng64 + ?Sized>(n: &BigUint, rounds: u32, rng: &mut R) -> bool {
    if n < &BigUint::from(2u64) {
        return false;
    }
    for p in SMALL_PRIME_RUNS.concat() {
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

    let ctx = Montgomery::new(n);
    let two = BigUint::from(2u64);
    let n_minus_2 = n.sub(&two);
    let bound = n_minus_2.sub(&one);
    'witness: for _ in 0..rounds {
        // a uniform in [2, n-2]
        let a = loop {
            let a = draw_bits_by_bigint(rng, bound.bits());
            if a < bound {
                break a.add(&two);
            }
        };
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

/// `bits` uniform bits as the former draws made them: one `next_u64` per
/// limb, low limb first, the bits above `bits` masked off.
#[cfg(test)]
fn draw_bits_by_bigint<R: Rng64 + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    let draw: Vec<u64> = (0..bits.div_ceil(64)).map(|_| rng.next_u64()).collect();
    from_limbs(&draw).rem(&BigUint::one().shl(bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::Rng64;

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

    /// The two runs are the 25 primes below 100, in order.
    #[test]
    fn small_prime_runs_are_the_primes_below_100() {
        let primes: Vec<u64> = (2..100u64)
            .filter(|&n| (2..n).all(|m| n % m != 0))
            .collect();
        assert_eq!(SMALL_PRIME_RUNS.concat(), primes);
    }

    /// The RNG's whole state, to compare two streams' positions.
    fn state(rng: &impl std::fmt::Debug) -> String {
        format!("{rng:?}")
    }

    /// The limb test and the `BigUint` oracle give the same verdict and
    /// leave the stream at the same place — same witnesses, same number of
    /// rejected draws — on odd values at every width class (3 and 5 limbs
    /// take the run-time-width exponentiation), primes among them, the
    /// inputs that survive the most witnesses (Carmichael numbers, base-2
    /// strong pseudoprimes), every value below 98, the squares of the small
    /// primes, and a Mersenne prime and composite.
    #[test]
    fn limb_test_matches_the_bigint_oracle_draw_for_draw() {
        let mut inputs: Vec<BigUint> = (0..=97u64).map(big).collect();
        inputs.extend(SMALL_PRIME_RUNS.concat().into_iter().map(|p| big(p * p)));
        inputs.extend(
            [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]
                .into_iter()
                .chain([2047, 3277, 4033, 4681, 8321])
                .map(big),
        );
        for exp in [89, 67] {
            inputs.push(BigUint::one().shl(exp).sub(&BigUint::one()));
        }
        let mut draw = crate::rng_from_seed(0x5EED);
        for limbs in [1usize, 2, 3, 4, 5, 8] {
            for i in 0..48 {
                // Full-width and short tops, so n − 3 and n can differ in
                // length.
                let short = if i % 2 == 1 { draw.next_u64() % 63 } else { 0 };
                let bits = 64 * limbs - short as usize;
                let mut odd = BigUint::random_bits(&mut draw, bits);
                if odd.is_even() {
                    odd = odd.add(&BigUint::one());
                }
                inputs.push(odd);
            }
            for _ in 0..2 {
                inputs.push(random_prime(&mut draw, 64 * limbs));
            }
        }
        // 2⁶⁴ + 1 = 274177 · 67280421310721: n − 3 is one limb shorter.
        inputs.push(BigUint::one().shl(64).add(&BigUint::one()));
        let (mut primes, mut composites) = (0, 0);
        for (i, n) in inputs.iter().enumerate() {
            let mut limbs = crate::rng_from_seed(i as u64);
            let mut oracle = limbs.clone();
            let verdict = is_probable_prime(n, DEFAULT_MR_ROUNDS, &mut limbs);
            assert_eq!(
                verdict,
                is_probable_prime_by_bigint(n, DEFAULT_MR_ROUNDS, &mut oracle),
                "{n}"
            );
            assert_eq!(state(&limbs), state(&oracle), "{n}");
            if verdict {
                primes += 1;
            } else {
                composites += 1;
            }
        }
        // The small primes, the drawn ones, 2⁸⁹ − 1, and any random odd
        // value that is prime.
        assert!(
            primes > 25 + 12 && composites > 200,
            "{primes} / {composites}"
        );
    }

    /// `random_prime` returns the prime the `BigUint` route returned and
    /// leaves the stream where it left it, at odd and even widths, limb
    /// boundaries and one past them.
    #[test]
    fn random_prime_matches_the_bigint_route() {
        let by_bigint = |rng: &mut crate::Xoshiro256PlusPlus, bits: usize| loop {
            let top = BigUint::one().shl(bits - 1);
            let mut candidate = draw_bits_by_bigint(rng, bits).rem(&top).add(&top);
            if candidate.is_even() {
                candidate = candidate.add(&BigUint::one());
            }
            if is_probable_prime_by_bigint(&candidate, DEFAULT_MR_ROUNDS, rng) {
                break candidate;
            }
        };
        for (i, bits) in [
            3usize, 4, 5, 17, 32, 33, 63, 64, 65, 127, 128, 129, 192, 256, 320, 512,
        ]
        .into_iter()
        .enumerate()
        {
            let mut limbs = crate::rng_from_seed(0xB0 + i as u64);
            let mut oracle = limbs.clone();
            for _ in 0..3 {
                assert_eq!(
                    random_prime(&mut limbs, bits),
                    by_bigint(&mut oracle, bits),
                    "{bits}"
                );
                assert_eq!(state(&limbs), state(&oracle), "{bits}");
            }
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
