//! Miller–Rabin probabilistic primality testing and random prime generation.
//!
//! Used by [`crate::rsa`] to generate the two prime factors of each
//! process's modulus. Witness counts are chosen so the error probability is
//! negligible at simulation scale (`4^-rounds`). A one-limb candidate that
//! passes its first drawn witness is put to seven fixed bases that decide
//! primality exactly below 2⁶⁴; a proven prime passes every witness, so
//! its other witnesses need not be raised.
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
//!   composite;
//! * the fixed bases draw nothing. A one-limb candidate they prove prime
//!   still draws each of its remaining witnesses, and does not raise them:
//!   a prime passes every witness, so raising one cannot stop the draws.
//!   One they prove composite raises its drawn witnesses as any other
//!   candidate does, so the verdict is always the drawn witnesses'.
//!
//! A change that draws once more or once less — fewer rounds, a sieve, a
//! witness left undrawn — moves every key drawn after it; `rsa`'s
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

/// Miller–Rabin bases that decide primality exactly below 2⁶⁴ (Sinclair,
/// 2011): an odd `n < 2⁶⁴` that no base proves composite is prime. A base
/// is reduced mod `n` first; a zero residue — `n` a prime factor of the
/// base — proves nothing and counts as a pass.
const FIXED_BASES: [u64; 7] = [2, 325, 9375, 28178, 450775, 9780504, 1795265022];

/// Miller–Rabin rounds used by [`random_prime`]: a composite passes with
/// probability at most 4⁻²⁴, and a one-limb prime is proven by seven
/// fixed bases rather than by raising all 24 witnesses.
pub const DEFAULT_MR_ROUNDS: u32 = 24;

/// Tests `n` for primality with `rounds` Miller–Rabin witnesses.
///
/// Deterministically correct for `n < 100` (via the trial-division table);
/// probabilistic beyond: a prime always passes, a composite with
/// probability at most `4^-rounds`. Below 2⁶⁴ with `rounds > 8`, a
/// candidate that passes its first witness is also put to seven fixed
/// bases that decide primality there (Sinclair, 2011); if they prove it
/// prime, its other witnesses are drawn but not raised. The verdict and
/// the draws are the same either way.
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
    // The one witness body: whether `a` fails to prove n composite.
    let mut passes_witness = |a: &[u64]| {
        ctx.pow_into(a, d, t, scratch);
        ctx.to_mont_into(t, x);
        if x == ctx.one() || x == minus_one {
            return true;
        }
        for _ in 1..s {
            ctx.mul_mont_into(x, x, t);
            std::mem::swap(&mut x, &mut t);
            if x == minus_one {
                return true;
            }
        }
        false
    };
    // Below 2⁶⁴, once the first drawn witness passes, the fixed bases
    // decide. If every one passes, n is prime, and a prime passes every
    // witness: the rest are drawn and not raised. If one proves n
    // composite, the drawn witnesses go on and give the verdict. The proof
    // costs up to seven exponentiations and saves `rounds − 1`.
    let can_prove = k == 1 && rounds > 8;
    let mut proven = false;
    for round in 0..rounds {
        random_below_into(rng, n_minus_3, a);
        if proven {
            continue;
        }
        add_in_place(a, &[2]);
        if !passes_witness(a) {
            return false;
        }
        if can_prove && round == 0 {
            proven = FIXED_BASES.iter().all(|&base| {
                a[0] = base % n[0];
                a[0] == 0 || passes_witness(a)
            });
        }
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

    /// The smallest strong pseudoprimes to the first k prime bases, every
    /// one below 2⁶⁴ (k ≤ 11), then 2⁶⁴ − 1 and 2³² + 1.
    const HARD_COMPOSITES: [u64; 10] = [
        2047,
        1373653,
        25326001,
        3215031751,
        2152302898747,
        3474749660383,
        341550071728321,
        3825123056546413051,
        u64::MAX,
        (1 << 32) + 1,
    ];

    /// Runs the limb test and the oracle from the stream at `seed`, checks
    /// that they give the same verdict and leave the stream at the same
    /// place, and returns the verdict and each side's exponentiations.
    fn against_the_oracle(n: &BigUint, rounds: u32, seed: u64) -> (bool, u64, u64) {
        let pows = || crate::bigint::POWS.with(std::cell::Cell::get);
        let mut limbs = crate::rng_from_seed(seed);
        let mut oracle = limbs.clone();
        let start = pows();
        let verdict = is_probable_prime(n, rounds, &mut limbs);
        let middle = pows();
        assert_eq!(
            verdict,
            is_probable_prime_by_bigint(n, rounds, &mut oracle),
            "{n}"
        );
        assert_eq!(state(&limbs), state(&oracle), "{n}");
        (verdict, middle - start, pows() - middle)
    }

    /// Exponentiations the fixed bases run on `n`: those with a nonzero
    /// residue, up to the first that proves `n` composite.
    fn bases_raised(n: u64) -> u64 {
        let big_n = big(n);
        let mut raised = 0;
        for base in FIXED_BASES.map(|b| b % n).into_iter().filter(|&b| b != 0) {
            raised += 1;
            if !strong_liar(&big_n, &big(base)) {
                break;
            }
        }
        raised
    }

    /// Whether `a` fails to prove the odd `n` composite, by `BigUint`
    /// arithmetic.
    fn strong_liar(n: &BigUint, a: &BigUint) -> bool {
        let n_minus_1 = n.sub(&BigUint::one());
        let (mut d, mut s) = (n_minus_1.clone(), 0);
        while d.is_even() {
            d = d.shr(1);
            s += 1;
        }
        let ctx = Montgomery::new(n);
        let mut x = ctx.pow(a, &d);
        if x == BigUint::one() || x == n_minus_1 {
            return true;
        }
        for _ in 1..s {
            x = ctx.mul(&x, &x);
            if x == n_minus_1 {
                return true;
            }
        }
        false
    }

    /// Every hard composite is rejected, with the oracle's draws, from
    /// several stream positions.
    #[test]
    fn fixed_bases_reject_the_hard_composites() {
        for n in HARD_COMPOSITES {
            for seed in 0..4 {
                let (verdict, _, _) = against_the_oracle(&big(n), DEFAULT_MR_ROUNDS, seed);
                assert!(!verdict, "{n}");
            }
        }
    }

    /// One-limb primes are proven by the fixed bases — one drawn witness
    /// and one exponentiation per base with a nonzero residue, where the
    /// oracle raises all 24 — with the oracle's draws. The last three
    /// divide a base: their zero residue counts as a pass. Multi-limb
    /// candidates and tests of eight rounds or fewer raise every witness.
    #[test]
    fn fixed_bases_prove_one_limb_primes() {
        let dividing = [193u64, 407521, 299210837];
        for p in dividing {
            assert!(FIXED_BASES.iter().any(|b| b % p == 0), "{p}");
        }
        for p in [u64::MAX - 58, (1 << 32) - 5].into_iter().chain(dividing) {
            let nonzero = FIXED_BASES.iter().filter(|&&b| b % p != 0).count() as u64;
            for seed in 0..4 {
                let (verdict, limbs, oracle) = against_the_oracle(&big(p), DEFAULT_MR_ROUNDS, seed);
                assert!(verdict, "{p}");
                assert_eq!((limbs, oracle), (1 + nonzero, 24), "{p}");
                let (verdict, limbs, _) = against_the_oracle(&big(p), 8, seed);
                assert!(verdict, "{p}");
                assert_eq!(limbs, 8, "{p}");
            }
        }
        let mersenne = BigUint::one().shl(89).sub(&BigUint::one());
        let (verdict, limbs, oracle) = against_the_oracle(&mersenne, DEFAULT_MR_ROUNDS, 0);
        assert!(verdict);
        assert_eq!((limbs, oracle), (24, 24));
    }

    /// The test agrees with trial division on every odd value from 99 up
    /// to 2¹⁶, with the oracle's draws, and proves every prime there.
    #[test]
    fn fixed_bases_agree_with_trial_division() {
        let end = if cfg!(miri) { 400 } else { 1 << 16 };
        for n in (99..end).step_by(2) {
            let prime = (3..n)
                .step_by(2)
                .take_while(|m| m * m <= n)
                .all(|m| n % m != 0);
            let (verdict, limbs, _) = against_the_oracle(&big(n), DEFAULT_MR_ROUNDS, n);
            assert_eq!(verdict, prime, "{n}");
            if prime {
                assert_eq!(limbs, 1 + bases_raised(n), "{n}");
            }
        }
    }

    /// Where the first drawn witness is a strong liar, the fixed bases run,
    /// one of them proves the composite so, and the drawn witnesses go on
    /// to give the oracle's verdict: the limb test raises exactly the
    /// oracle's witnesses plus the bases up to that one. The search over
    /// stream seeds must reach the branch at least once.
    #[test]
    fn a_lying_first_witness_leaves_the_verdict_to_the_drawn_witnesses() {
        let seeds = if cfg!(miri) { 8 } else { 64 };
        let mut reached = 0;
        // Trial division rejects the others before any witness.
        let past_trial_division = HARD_COMPOSITES
            .into_iter()
            .filter(|n| SMALL_PRIME_RUNS.concat().iter().all(|p| n % p != 0));
        for n in past_trial_division {
            let big_n = big(n);
            let bound = big_n.sub(&big(3));
            for seed in 0..seeds {
                // The first witness, drawn as the oracle draws it.
                let mut rng = crate::rng_from_seed(seed);
                let first = loop {
                    let a = draw_bits_by_bigint(&mut rng, bound.bits());
                    if a < bound {
                        break a.add(&big(2));
                    }
                };
                if !strong_liar(&big_n, &first) {
                    continue;
                }
                let (verdict, limbs, oracle) = against_the_oracle(&big_n, DEFAULT_MR_ROUNDS, seed);
                assert!(!verdict, "{n}");
                assert_eq!(limbs, oracle + bases_raised(n), "{n}, seed {seed}");
                reached += 1;
            }
        }
        assert!(reached > 0);
    }

    #[test]
    fn random_primes_are_distinct() {
        let mut rng = crate::rng_from_seed(8);
        let a = random_prime(&mut rng, 64);
        let b = random_prime(&mut rng, 64);
        assert_ne!(a, b);
    }
}
