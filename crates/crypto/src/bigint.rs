//! Arbitrary-precision unsigned integers.
//!
//! Exactly the operations RSA needs, implemented over little-endian `u64`
//! limbs with `u128` intermediates:
//!
//! * [`BigUint`] — comparison, addition, subtraction, schoolbook
//!   multiplication, shifts, Knuth Algorithm D division (plus the
//!   single-limb [`BigUint::rem_u64`]), byte conversion and random draws.
//!   Values are kept *normalized* (no trailing zero limbs; zero is the
//!   empty limb vector), which makes structural equality coincide with
//!   numeric equality. Euclid — gcd, lcm and the modular inverse — is a
//!   test oracle only: key generation derives its inverses by Fermat and
//!   by the CRT exponent identity in [`crate::rsa`].
//! * [`Montgomery`] — arithmetic modulo one fixed **odd** modulus:
//!   [`Montgomery::pow`] (fixed 4-bit window over CIOS Montgomery
//!   multiplication) and [`Montgomery::mul`]. Every modulus this crate
//!   exponentiates under is odd (an RSA modulus, its prime factors, a
//!   Miller–Rabin candidate past trial division), so this is the only
//!   modular exponentiation outside the tests, which keep the textbook
//!   square-and-multiply loop as the oracle it is fuzzed against.
//!
//! Multiplication, division and exponentiation are each one body over limb
//! slices (`mul_into`, `div_rem_in`, `Montgomery::pow_into`). The
//! [`BigUint`] methods run them over heap buffers; RSA signing,
//! verification and the Miller–Rabin test run them over caller scratch
//! that `with_scratch` puts on the stack whenever it fits.

use std::cmp::Ordering;
use std::fmt;

use crate::prng::Rng64;

/// An arbitrary-precision unsigned integer.
///
/// # Example
///
/// ```
/// use ftm_crypto::bigint::BigUint;
/// let a = BigUint::from(10u64);
/// let b = BigUint::from(4u64);
/// let (q, r) = a.divrem(&b);
/// assert_eq!(q, BigUint::from(2u64));
/// assert_eq!(r, BigUint::from(2u64));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs, normalized: `limbs.last() != Some(&0)`.
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigUint { limbs: Vec::new() }
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = BigUint {
            limbs: vec![lo, hi],
        };
        n.normalize();
        n
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            let ord = a.cmp(b);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint::default()
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint::from(1u64)
    }

    /// Returns `true` when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` when the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Returns `true` when the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        !self.is_odd()
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bits(&self) -> usize {
        bit_len(&self.limbs)
    }

    /// Builds a value from big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut acc: u64 = 0;
        let mut shift = 0;
        for &b in bytes.iter().rev() {
            acc |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(acc);
                acc = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(acc);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serializes to minimal big-endian bytes (zero encodes as empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first_nonzero = out
            .iter()
            .position(|&b| b != 0)
            .expect("normalized value has a nonzero byte");
        out.drain(..first_nonzero);
        out
    }

    fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Little-endian limbs, normalized (zero is empty).
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        out.extend_from_slice(long);
        out.push(0);
        add_in_place(&mut out, short);
        normalized(out)
    }

    /// Returns `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (unsigned underflow is a logic error here).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(
            self >= other,
            "BigUint::sub underflow: {self:?} - {other:?}"
        );
        let mut out = self.limbs.clone();
        let borrow = sub_in_place(&mut out, &other.limbs);
        debug_assert!(!borrow);
        normalized(out)
    }

    /// Returns `self * other` (schoolbook multiplication).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        mul_into(&mut out, &self.limbs, &other.limbs);
        normalized(out)
    }

    /// Returns `self << bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        let (limb_shift, len) = (bits / 64, self.limbs.len());
        let mut out = vec![0u64; limb_shift + len + 1];
        out[limb_shift + len] = shl_limbs(
            &mut out[limb_shift..limb_shift + len],
            &self.limbs,
            (bits % 64) as u32,
        );
        normalized(out)
    }

    /// Returns `self >> bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let Some(src) = self.limbs.get(bits / 64..) else {
            return BigUint::zero();
        };
        let mut out = vec![0u64; src.len()];
        shr_limbs(&mut out, src, (bits % 64) as u32);
        normalized(out)
    }

    /// Division with remainder: returns `(self / divisor, self % divisor)`.
    ///
    /// `div_rem_in` (Knuth TAOCP vol. 2, Algorithm 4.3.1 D) over heap
    /// buffers.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn divrem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        let (u, v) = (&self.limbs[..], &divisor.limbs[..]);
        let mut q = vec![0u64; u.len() - v.len() + 1];
        let mut r = vec![0u64; v.len()];
        let mut scratch = vec![0u64; div_scratch(u.len(), v.len())];
        div_rem_in(u, v, Some(&mut q), &mut r, &mut scratch);
        (normalized(q), normalized(r))
    }

    /// Returns `self mod m`: `div_rem_in` without the quotient.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "division by zero");
        let (u, v) = (&self.limbs[..], &m.limbs[..]);
        let (mut r, mut scratch) = (
            vec![0u64; v.len()],
            vec![0u64; div_scratch(u.len(), v.len())],
        );
        div_rem_in(u, v, None, &mut r, &mut scratch);
        normalized(r)
    }

    /// Returns `self mod d` for a single-limb divisor, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        let d = u128::from(d);
        let rem = self
            .limbs
            .iter()
            .rev()
            .fold(0u128, |rem, &l| ((rem << 64) | u128::from(l)) % d);
        rem as u64
    }

    /// Textbook `self^exp mod m`, one bit and one full division per step:
    /// the reference oracle [`Montgomery::pow`] is tested against, and the
    /// only exponentiation that takes an even modulus.
    #[cfg(test)]
    pub(crate) fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m == &BigUint::one() {
            return BigUint::zero();
        }
        let mut result = BigUint::one();
        let mut base = self.rem(m);
        for i in 0..exp.bits() {
            if (exp.limbs[i / 64] >> (i % 64)) & 1 == 1 {
                result = result.mul(&base).rem(m);
            }
            base = base.mul(&base).rem(m);
        }
        result
    }

    /// Greatest common divisor (binary-free Euclid via divrem): with
    /// [`BigUint::lcm`] and [`BigUint::modinv`], the oracle key generation's
    /// inverses are tested against.
    #[cfg(test)]
    pub(crate) fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Least common multiple. Returns zero if either operand is zero.
    #[cfg(test)]
    pub(crate) fn lcm(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let g = self.gcd(other);
        self.divrem(&g).0.mul(other)
    }

    /// Modular inverse: the `x` with `self * x ≡ 1 (mod m)`, if it exists.
    ///
    /// Returns `None` when `gcd(self, m) != 1`. Uses the extended Euclidean
    /// algorithm with sign-tracked Bézout coefficients.
    #[cfg(test)]
    pub(crate) fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() {
            return None;
        }
        // Invariants: old_r = old_s·self (mod m), r = s·self (mod m),
        // with s coefficients carried as (magnitude, negative?).
        let mut old_r = self.rem(m);
        let mut r = m.clone();
        let mut old_s = (BigUint::one(), false);
        let mut s = (BigUint::zero(), false);

        while !r.is_zero() {
            let (q, rem) = old_r.divrem(&r);
            old_r = std::mem::replace(&mut r, rem);
            // new_s = old_s - q * s  (signed arithmetic)
            let qs = (q.mul(&s.0), s.1);
            let new_s = signed_sub(&old_s, &qs);
            old_s = std::mem::replace(&mut s, new_s);
        }

        if old_r != BigUint::one() {
            return None;
        }
        let (mag, neg) = old_s;
        let mag = mag.rem(m);
        Some(if neg && !mag.is_zero() {
            m.sub(&mag)
        } else {
            mag
        })
    }

    /// Uniformly random value with exactly `bits` bits (top bit set).
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    #[cfg(test)]
    pub(crate) fn random_bits<R: Rng64 + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits > 0, "cannot draw a 0-bit number");
        let mut limbs = vec![0u64; bits.div_ceil(64)];
        random_limbs(rng, bits, &mut limbs);
        set_bit(&mut limbs, bits - 1);
        BigUint { limbs }
    }

    /// Uniformly random value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[cfg(test)]
    pub(crate) fn random_below<R: Rng64 + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "empty range");
        let mut limbs = vec![0u64; bound.limbs.len()];
        random_below_into(rng, &bound.limbs, &mut limbs);
        normalized(limbs)
    }
}

/// Significant bits of a limb slice, whose top limbs may be zero.
fn bit_len(x: &[u64]) -> usize {
    x.iter()
        .rposition(|&l| l != 0)
        .map_or(0, |i| 64 * (i + 1) - x[i].leading_zeros() as usize)
}

/// Sets bit `i` of `x`.
pub(crate) fn set_bit(x: &mut [u64], i: usize) {
    x[i / 64] |= 1 << (i % 64);
}

/// `a < b` for limb slices of one length.
fn less(a: &[u64], b: &[u64]) -> bool {
    a.iter().rev().lt(b.iter().rev())
}

/// Fills the `bits.div_ceil(64)` limbs of `out` with `bits` uniform bits:
/// one `next_u64` per limb, low limb first, the top one masked — every
/// random value in the crate is drawn by this body, so each costs the same
/// draws wherever it lands.
pub(crate) fn random_limbs<R: Rng64 + ?Sized>(rng: &mut R, bits: usize, out: &mut [u64]) {
    let out = &mut out[..bits.div_ceil(64)];
    out.iter_mut().for_each(|l| *l = rng.next_u64());
    if !bits.is_multiple_of(64) {
        out[bits / 64] &= (1 << (bits % 64)) - 1;
    }
}

/// Leaves a uniform value below `bound` (nonzero, any zero top limbs) in
/// the `bound.len()` limbs of `out`, by rejection: draw as many bits as
/// `bound` has until the draw falls below it.
pub(crate) fn random_below_into<R: Rng64 + ?Sized>(rng: &mut R, bound: &[u64], out: &mut [u64]) {
    let bits = bit_len(bound);
    debug_assert!(bits > 0, "empty range");
    let (out, bound) = (&mut out[..bound.len()], &bound[..bits.div_ceil(64)]);
    let (low, high) = out.split_at_mut(bound.len());
    high.fill(0);
    loop {
        random_limbs(rng, bits, low);
        if less(low, bound) {
            return;
        }
    }
}

/// Limbs of scratch [`with_scratch`] finds on the stack: enough to sign
/// and to verify under any modulus of at most 16 limbs, which is every key
/// the repo runs (1024 bits and below; `rsa`'s tests hold the sizes to it).
pub(crate) const STACK_SCRATCH_LIMBS: usize = 384;

/// Runs `f` over `len` zeroed limbs of scratch: a stack array when `len`
/// fits [`STACK_SCRATCH_LIMBS`], else one heap buffer of exactly `len` —
/// the same code either way, so a wider key costs an allocation, never a
/// second algorithm.
pub(crate) fn with_scratch<T>(len: usize, f: impl FnOnce(&mut [u64]) -> T) -> T {
    if len <= STACK_SCRATCH_LIMBS {
        f(&mut [0; STACK_SCRATCH_LIMBS][..len])
    } else {
        f(&mut vec![0; len])
    }
}

/// Splits the first `len` limbs off `scratch`.
pub(crate) fn take<'a>(scratch: &mut &'a mut [u64], len: usize) -> &'a mut [u64] {
    let (head, rest) = std::mem::take(scratch).split_at_mut(len);
    *scratch = rest;
    head
}

/// Schoolbook product: `out = a·b` in the first `a.len() + b.len()` limbs
/// of `out`.
pub(crate) fn mul_into(out: &mut [u64], a: &[u64], b: &[u64]) {
    let out = &mut out[..a.len() + b.len()];
    out.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let t = u128::from(out[i + j]) + u128::from(ai) * u128::from(bj) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        out[i + b.len()] = carry as u64;
    }
}

/// `x += y` for `y` no longer than `x`; returns the carry out of the top.
pub(crate) fn add_in_place(x: &mut [u64], y: &[u64]) -> bool {
    let mut carry = false;
    for (i, xi) in x.iter_mut().enumerate() {
        let (s, c1) = xi.overflowing_add(y.get(i).copied().unwrap_or(0));
        let (s, c2) = s.overflowing_add(u64::from(carry));
        *xi = s;
        carry = c1 || c2;
    }
    carry
}

/// `x −= y` for `y` no longer than `x`; returns the borrow out of the top.
pub(crate) fn sub_in_place(x: &mut [u64], y: &[u64]) -> bool {
    let mut borrow = false;
    for (i, xi) in x.iter_mut().enumerate() {
        let (d, b1) = xi.overflowing_sub(y.get(i).copied().unwrap_or(0));
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *xi = d;
        borrow = b1 || b2;
    }
    borrow
}

/// `out = x << shift` limb for limb (`shift < 64`); returns the bits
/// shifted out of the top.
fn shl_limbs(out: &mut [u64], x: &[u64], shift: u32) -> u64 {
    let mut carry = 0;
    for (o, &l) in out.iter_mut().zip(x) {
        *o = (l << shift) | carry;
        carry = l.checked_shr(64 - shift).unwrap_or(0);
    }
    carry
}

/// `out = x >> shift` limb for limb (`shift < 64`).
pub(crate) fn shr_limbs(out: &mut [u64], x: &[u64], shift: u32) {
    for (i, o) in out.iter_mut().enumerate() {
        let above = x
            .get(i + 1)
            .map_or(0, |&h| h.checked_shl(64 - shift).unwrap_or(0));
        *o = (x[i] >> shift) | above;
    }
}

/// Limbs of scratch [`div_rem_in`] needs to divide `u_len` limbs by
/// `v_len`: the shifted dividend, one limb longer, and the shifted divisor
/// — none for a one-limb divisor, which needs no shifting.
pub(crate) const fn div_scratch(u_len: usize, v_len: usize) -> usize {
    if v_len == 1 {
        0
    } else {
        u_len + 1 + v_len
    }
}

/// Knuth TAOCP vol. 2, Algorithm 4.3.1 D over limb slices — the crate's
/// one division: [`BigUint::divrem`] runs it over heap buffers, signing
/// and verification over stack ones.
///
/// Divides `u` by `v` (top limb nonzero), writing the remainder into the
/// `v.len()` limbs of `r` and, when asked, the quotient into the
/// `u.len() − v.len() + 1` limbs of `q`, with [`div_scratch`] limbs of
/// `scratch`. A dividend shorter than the divisor is its own remainder and
/// has no quotient limbs.
pub(crate) fn div_rem_in(
    u: &[u64],
    v: &[u64],
    mut q: Option<&mut [u64]>,
    r: &mut [u64],
    scratch: &mut [u64],
) {
    let n = v.len();
    debug_assert!(
        v.last().is_some_and(|&top| top != 0),
        "divisor has a zero top limb"
    );
    let r = &mut r[..n];
    if u.len() < n {
        r.fill(0);
        r[..u.len()].copy_from_slice(u);
        return;
    }
    let m = u.len() - n;
    if n == 1 {
        // One divisor limb: short division, no estimate to correct.
        let d = u128::from(v[0]);
        let mut rem = 0u128;
        for j in (0..=m).rev() {
            let cur = (rem << 64) | u128::from(u[j]);
            if let Some(q) = q.as_deref_mut() {
                q[j] = (cur / d) as u64;
            }
            rem = cur % d;
        }
        r[0] = rem as u64;
        return;
    }

    // Normalize so the divisor's top limb has its high bit set; the
    // dividend gains a limb on top.
    let shift = v[n - 1].leading_zeros();
    let (un, vn) = scratch[..div_scratch(u.len(), n)].split_at_mut(m + n + 1);
    shl_limbs(vn, v, shift);
    un[m + n] = shl_limbs(&mut un[..m + n], u, shift);

    for j in (0..=m).rev() {
        // Estimate q̂ from the top two limbs of the current remainder.
        let top = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
        let mut qhat = top / vn[n - 1] as u128;
        let mut rhat = top % vn[n - 1] as u128;
        while qhat >> 64 != 0 || qhat * vn[n - 2] as u128 > ((rhat << 64) | un[j + n - 2] as u128) {
            #[cfg(test)]
            tests::KNUTH_BRANCHES.with(|b| b.set((b.get().0 + 1, b.get().1)));
            qhat -= 1;
            rhat += vn[n - 1] as u128;
            if rhat >> 64 != 0 {
                break;
            }
        }

        // Multiply-subtract: un[j..j+n+1] -= qhat * vn.
        let mut borrow: i128 = 0;
        let mut carry: u128 = 0;
        for i in 0..n {
            let p = qhat * vn[i] as u128 + carry;
            carry = p >> 64;
            let t = un[j + i] as i128 - borrow - (p as u64) as i128;
            un[j + i] = t as u64;
            borrow = if t < 0 { 1 } else { 0 };
        }
        let t = un[j + n] as i128 - borrow - carry as i128;
        un[j + n] = t as u64;

        if t < 0 {
            // q̂ was one too large: add back.
            #[cfg(test)]
            tests::KNUTH_BRANCHES.with(|b| b.set((b.get().0, b.get().1 + 1)));
            qhat -= 1;
            let mut carry: u128 = 0;
            for i in 0..n {
                let s = un[j + i] as u128 + vn[i] as u128 + carry;
                un[j + i] = s as u64;
                carry = s >> 64;
            }
            un[j + n] = un[j + n].wrapping_add(carry as u64);
        }
        if let Some(q) = q.as_deref_mut() {
            q[j] = qhat as u64;
        }
    }

    // The remainder is the low n limbs, shifted back.
    shr_limbs(r, &un[..n], shift);
}

/// Exponent bits consumed per step of [`Montgomery::pow`]; divides 64, so
/// no window straddles a limb, and is even, so a window's squarings
/// ping-pong between two buffers and end where they began.
const WINDOW_BITS: usize = 4;

/// Word-serial (CIOS) Montgomery multiplication, Koç–Acar–Kaliski — the
/// one kernel every width runs: leaves `a·b·R⁻¹ mod n` in `t`, for
/// `k`-limb `a`, `b`, `n`, `t` (`k = n.len()`, `R = 2^(64k)`) with
/// `a·b < n·R` (either operand below `n` is enough) and
/// `n0_neg_inv = −n⁻¹ mod 2⁶⁴`.
///
/// Each outer step adds `a·bᵢ` and the multiple `m·n` that zeroes the
/// low limb, shifting one limb down, so the running value stays below
/// `2n` — `k` limbs and the one-bit carry `top`; one conditional
/// subtraction finishes. The two additions share one pass with a carry
/// each (`c1`, `c2`): two short dependency chains the processor overlaps.
///
/// `#[inline(always)]` because the body is written once and compiled per
/// caller: where `k` is a constant at the call site (the
/// [`Montgomery::pow_fixed`] instantiations) the slices are stack arrays,
/// both loops unroll and the bounds checks fold away; anywhere else the
/// same code runs at the run-time width.
#[inline(always)]
fn mont_mul(a: &[u64], b: &[u64], n: &[u64], n0_neg_inv: u64, t: &mut [u64]) {
    let k = n.len();
    let (a, b, t) = (&a[..k], &b[..k], &mut t[..k]);
    t.fill(0);
    let mut top = 0u64;
    for &bi in b {
        let s = u128::from(t[0]) + u128::from(a[0]) * u128::from(bi);
        let mut c1 = s >> 64;
        let m = (s as u64).wrapping_mul(n0_neg_inv);
        let mut c2 = (u128::from(s as u64) + u128::from(m) * u128::from(n[0])) >> 64;
        for j in 1..k {
            let s = u128::from(t[j]) + u128::from(a[j]) * u128::from(bi) + c1;
            c1 = s >> 64;
            let s = u128::from(s as u64) + u128::from(m) * u128::from(n[j]) + c2;
            t[j - 1] = s as u64;
            c2 = s >> 64;
        }
        let s = u128::from(top) + c1 + c2;
        t[k - 1] = s as u64;
        top = (s >> 64) as u64;
    }
    if top != 0 || t.iter().rev().ge(n.iter().rev()) {
        let mut borrow = false;
        for (tj, &nj) in t.iter_mut().zip(n) {
            let (d, b1) = tj.overflowing_sub(nj);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *tj = d;
            borrow = b1 || b2;
        }
    }
}

/// Montgomery arithmetic modulo one fixed odd modulus `n` of `k` limbs,
/// with `R = 2^(64k)`.
///
/// A residue `x` is held as `x·R mod n`; the product of two such forms
/// needs only multiplications and shifts (no division by `n`), which is
/// what makes a long chain of modular multiplications — an
/// exponentiation — cheap. Building the context costs two divisions in
/// limb scratch; callers that exponentiate under the same modulus
/// repeatedly (a verification key, the two prime factors of a signing key,
/// a Miller–Rabin candidate) build it once.
///
/// There is one multiplication kernel (`mont_mul`) and one exponentiation
/// loop around it, both written over limb slices. At the limb counts the
/// repo's keys have — 1, 2, 4 and 8: `p`, `q` and `n` of 64-, 128-, 256-
/// and 512-bit keys, and every Miller–Rabin candidate on the way to them
/// — [`Montgomery::pow`] runs them through a `const K` wrapper whose
/// buffers are `[u64; K]` on the stack, which roughly halves a signature;
/// at any other width the same two functions run over the caller's
/// scratch at the run-time width, so a width outside the list costs speed,
/// never a different algorithm.
///
/// # Example
///
/// ```
/// use ftm_crypto::bigint::{BigUint, Montgomery};
/// let ctx = Montgomery::new(&BigUint::from(497u64));
/// assert_eq!(ctx.pow(&BigUint::from(4u64), &BigUint::from(13u64)), BigUint::from(445u64));
/// assert_eq!(ctx.mul(&BigUint::from(400u64), &BigUint::from(300u64)), BigUint::from(223u64));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Montgomery {
    n: BigUint,
    /// `−n⁻¹ mod 2⁶⁴`.
    n0_neg_inv: u64,
    /// `R mod n`, the Montgomery form of one (`k` limbs).
    r1: Vec<u64>,
    /// `R² mod n`; multiplying by it converts into Montgomery form (`k` limbs).
    r2: Vec<u64>,
}

impl fmt::Debug for Montgomery {
    /// Shows the modulus only: the other fields are functions of it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Montgomery({})", self.n)
    }
}

impl Montgomery {
    /// Builds the context for `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even (zero included): `n` must be invertible
    /// modulo `2⁶⁴`.
    pub fn new(n: &BigUint) -> Montgomery {
        assert!(n.is_odd(), "Montgomery modulus must be odd");
        let k = n.limbs.len();
        // Newton iteration on the inverse of n mod 2⁶⁴: an odd n0 is its
        // own inverse mod 8, and each step doubles the correct low bits.
        let n0 = n.limbs[0];
        let mut inv = n0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        // R mod n and R² mod n: the remainders of the limbs 0…0 1, k + 1
        // and 2k + 1 of them, both suffixes of one buffer.
        let (mut r1, mut r2) = (vec![0u64; k], vec![0u64; k]);
        with_scratch(2 * k + 1 + div_scratch(2 * k + 1, k), |scratch| {
            let (power, scratch) = scratch.split_at_mut(2 * k + 1);
            power[2 * k] = 1;
            div_rem_in(&power[k..], &n.limbs, None, &mut r1, scratch);
            div_rem_in(power, &n.limbs, None, &mut r2, scratch);
        });
        Montgomery {
            n0_neg_inv: inv.wrapping_neg(),
            r1,
            r2,
            n: n.clone(),
        }
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Returns `a · b mod n`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        // mont(aR, b) = a·b·R·R⁻¹: one operand in Montgomery form is enough.
        self.redc_product(&self.to_mont(a).limbs, &b.rem(&self.n).limbs)
    }

    /// Returns `x·R mod n`, the Montgomery form of `x`.
    pub(crate) fn to_mont(&self, x: &BigUint) -> BigUint {
        self.redc_product(&x.rem(&self.n).limbs, &self.r2)
    }

    /// One kernel call at the run-time width on operands of at most `k`
    /// limbs, zero-extended here.
    fn redc_product(&self, a: &[u64], b: &[u64]) -> BigUint {
        let n = &self.n.limbs[..];
        let mut buf = vec![0u64; 3 * n.len()];
        let (a_limbs, rest) = buf.split_at_mut(n.len());
        let (b_limbs, t) = rest.split_at_mut(n.len());
        a_limbs[..a.len()].copy_from_slice(a);
        b_limbs[..b.len()].copy_from_slice(b);
        mont_mul(a_limbs, b_limbs, n, self.n0_neg_inv, t);
        from_limbs(t)
    }

    /// Leaves `a·b·R⁻¹ mod n` in the `k` limbs of `out`, for `k`-limb `a`
    /// and `b` below `n`: one kernel call. With `a` in Montgomery form and
    /// `b` not, that is their plain product mod `n`; with both in it, their
    /// product in it.
    pub(crate) fn mul_mont_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        mont_mul(a, b, &self.n.limbs, self.n0_neg_inv, out);
    }

    /// Leaves `x·R mod n`, the Montgomery form of the `k`-limb `x` below
    /// `n`, in the `k` limbs of `out`: one kernel call.
    pub(crate) fn to_mont_into(&self, x: &[u64], out: &mut [u64]) {
        self.mul_mont_into(x, &self.r2, out);
    }

    /// `R mod n`, the Montgomery form of one (`k` limbs).
    pub(crate) fn one(&self) -> &[u64] {
        &self.r1
    }

    /// Returns `base^exp mod n` (so `0` when `n` is one, `1` when only
    /// `exp` is zero): `div_rem_in` reduces the base and
    /// `Montgomery::pow_into` raises it, in heap buffers.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let (n, u) = (&self.n.limbs[..], &base.limbs[..]);
        let (mut reduced, mut out) = (vec![0u64; n.len()], vec![0u64; n.len()]);
        let mut scratch = vec![0u64; div_scratch(u.len(), n.len()).max(self.pow_scratch())];
        div_rem_in(u, n, None, &mut reduced, &mut scratch);
        self.pow_into(&reduced, &exp.limbs, &mut out, &mut scratch);
        normalized(out)
    }

    /// [`Montgomery::pow_in`] with accumulator, scratch and window table
    /// on the stack, for a modulus of exactly `K` limbs: `k` is a constant
    /// in the inlined loop and kernel.
    fn pow_fixed<const K: usize>(&self, base: &[u64], exp: &[u64], out: &mut [u64]) {
        let (mut acc, mut t) = ([0u64; K], [0u64; K]);
        let mut table = [[0u64; K]; 1 << WINDOW_BITS];
        self.pow_in(base, exp, &mut acc, &mut t, table.as_flattened_mut());
        out[..K].copy_from_slice(&acc);
    }

    /// [`Montgomery::pow_in`] at the modulus's run-time width, accumulating
    /// in `out` with product and table from `scratch`
    /// ([`Montgomery::pow_scratch`] limbs): the route of every width
    /// without an instantiation.
    fn pow_dynamic(&self, base: &[u64], exp: &[u64], out: &mut [u64], scratch: &mut [u64]) {
        let k = self.n.limbs.len();
        let (t, table) = scratch.split_at_mut(k);
        self.pow_in(base, exp, &mut out[..k], t, table);
    }

    /// The exponentiation: leaves `base^exp mod n` in `acc`, for a modulus
    /// of `k = acc.len()` limbs, a `k`-limb `base` below it and the
    /// exponent's limbs (zero top limbs allowed), with `k` limbs of scratch
    /// `t` and `16·k` of `table`.
    ///
    /// Left-to-right fixed-window: four squarings and at most one table
    /// multiplication per exponent nibble, each one `mont_mul`. The table
    /// of powers is filled only up to the largest nibble the exponent
    /// contains, so the public exponent `65537` (nibbles 1, 0, 0, 0, 1)
    /// costs no table set-up at all.
    #[inline(always)]
    fn pow_in(&self, base: &[u64], exp: &[u64], acc: &mut [u64], t: &mut [u64], table: &mut [u64]) {
        let k = acc.len();
        let (n, inv) = (&self.n.limbs[..k], self.n0_neg_inv);
        let (t, table) = (&mut t[..k], &mut table[..k << WINDOW_BITS]);
        // Most significant first.
        let mut nibbles = (0..bit_len(exp).div_ceil(WINDOW_BITS)).rev().map(|i| {
            let per_limb = 64 / WINDOW_BITS;
            (exp[i / per_limb] >> (WINDOW_BITS * (i % per_limb))) as usize
                & ((1 << WINDOW_BITS) - 1)
        });

        // table[d·k..][..k] = base^d in Montgomery form, d = 0..=largest.
        let largest = nibbles.clone().max().unwrap_or(0);
        table[..k].copy_from_slice(&self.r1[..k]);
        mont_mul(&base[..k], &self.r2[..k], n, inv, &mut table[k..2 * k]);
        for d in 2..=largest {
            let (filled, next) = table.split_at_mut(d * k);
            mont_mul(&filled[(d - 1) * k..], &filled[k..2 * k], n, inv, next);
        }

        let d = nibbles.next().unwrap_or(0);
        acc.copy_from_slice(&table[d * k..(d + 1) * k]);
        for d in nibbles {
            for _ in 0..WINDOW_BITS / 2 {
                mont_mul(acc, acc, n, inv, t);
                mont_mul(t, t, n, inv, acc);
            }
            if d != 0 {
                mont_mul(acc, &table[d * k..(d + 1) * k], n, inv, t);
                acc.copy_from_slice(t);
            }
        }

        // mont(x·R, 1) = x; the table is done with, so its first entry
        // holds the one.
        let one = &mut table[..k];
        one.fill(0);
        one[0] = 1;
        mont_mul(acc, one, n, inv, t);
        acc.copy_from_slice(t);
    }
}

/// The limb counts with a [`Montgomery::pow_fixed`] instantiation (which,
/// and why those: [`Montgomery`]) — the list the tests read and the
/// dispatch over it, from one place.
macro_rules! instantiated_widths {
    ($($k:literal),+) => {
        #[cfg(test)]
        pub(crate) const INSTANTIATED_WIDTHS: &[usize] = &[$($k),+];

        impl Montgomery {
            /// Leaves `base^exp mod n` in the `k` limbs of `out`, for a
            /// `k`-limb `base` below `n` and the exponent's limbs, with
            /// [`Montgomery::pow_scratch`] limbs of `scratch`.
            pub(crate) fn pow_into(
                &self,
                base: &[u64],
                exp: &[u64],
                out: &mut [u64],
                scratch: &mut [u64],
            ) {
                #[cfg(test)]
                POWS.with(|c| c.set(c.get() + 1));
                match self.n.limbs.len() {
                    $($k => self.pow_fixed::<$k>(base, exp, out),)+
                    _ => self.pow_dynamic(base, exp, out, scratch),
                }
            }

            /// Limbs of scratch [`Montgomery::pow_into`] takes: none at an
            /// instantiated width, whose buffers are its own stack arrays;
            /// the product and the window table at any other.
            pub(crate) fn pow_scratch(&self) -> usize {
                match self.n.limbs.len() {
                    $($k)|+ => 0,
                    k => pow_scratch_bound(k),
                }
            }
        }
    };
}
instantiated_widths!(1, 2, 4, 8);

#[cfg(test)]
thread_local! {
    /// How many exponentiations this thread has run through
    /// [`Montgomery::pow_into`], every route to one included.
    pub(crate) static POWS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The most scratch [`Montgomery::pow_into`] takes under a `k`-limb
/// modulus: the product and the window table of the run-time-width route.
pub(crate) const fn pow_scratch_bound(k: usize) -> usize {
    (1 + (1 << WINDOW_BITS)) * k
}

/// The value of `limbs`, trailing zero limbs dropped.
fn normalized(limbs: Vec<u64>) -> BigUint {
    let mut n = BigUint { limbs };
    n.normalize();
    n
}

/// Normalizes a limb slice into a value.
pub(crate) fn from_limbs(limbs: &[u64]) -> BigUint {
    normalized(limbs.to_vec())
}

#[cfg(test)]
type Signed = (BigUint, bool);

/// Signed subtraction on (magnitude, negative?) pairs.
#[cfg(test)]
fn signed_sub(a: &Signed, b: &Signed) -> Signed {
    match (a.1, b.1) {
        // a - b with both non-negative.
        (false, false) => {
            if a.0 >= b.0 {
                (a.0.sub(&b.0), false)
            } else {
                (b.0.sub(&a.0), true)
            }
        }
        // (-a) - (-b) = b - a.
        (true, true) => {
            if b.0 >= a.0 {
                (b.0.sub(&a.0), false)
            } else {
                (a.0.sub(&b.0), true)
            }
        }
        // a - (-b) = a + b.
        (false, true) => (a.0.add(&b.0), false),
        // (-a) - b = -(a + b).
        (true, false) => (a.0.add(&b.0), true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// How often this thread's divisions took Knuth D's two rare
        /// branches: (q̂ corrections, add-backs).
        pub(super) static KNUTH_BRANCHES: std::cell::Cell<(u64, u64)> =
            const { std::cell::Cell::new((0, 0)) };
    }

    fn big(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn zero_is_normalized_and_empty() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::from(0u64), BigUint::zero());
    }

    #[test]
    fn add_with_carry_chain() {
        let a = BigUint::from(u64::MAX);
        let b = BigUint::one();
        assert_eq!(a.add(&b), big(1u128 << 64));
    }

    #[test]
    fn sub_with_borrow_chain() {
        let a = big(1u128 << 64);
        assert_eq!(a.sub(&BigUint::one()), BigUint::from(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        BigUint::one().sub(&big(2));
    }

    #[test]
    fn mul_u128_cross_check() {
        let a = big(0xdeadbeef_12345678);
        let b = big(0xcafebabe_87654321);
        let expected = 0xdeadbeef_12345678u128 * 0xcafebabe_87654321u128;
        assert_eq!(a.mul(&b), BigUint::from(expected));
    }

    #[test]
    fn divrem_simple() {
        let (q, r) = big(1000).divrem(&big(7));
        assert_eq!(q, big(142));
        assert_eq!(r, big(6));
    }

    #[test]
    fn divrem_multi_limb() {
        // (2^192 + 12345) / (2^64 + 3)
        let a = BigUint::one().shl(192).add(&big(12345));
        let d = BigUint::one().shl(64).add(&big(3));
        let (q, r) = a.divrem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r < d);
    }

    #[test]
    fn divrem_knuth_addback_case() {
        // Crafted to exercise the rare "add back" branch: divisor with
        // second limb small, dividend forcing qhat overestimation.
        let u = BigUint {
            limbs: vec![0, 0, 0x8000_0000_0000_0000, 0x7fff_ffff_ffff_ffff],
        };
        let v = BigUint {
            limbs: vec![1, 0, 0x8000_0000_0000_0000],
        };
        let (q, r) = u.divrem(&v);
        assert_eq!(q.mul(&v).add(&r), u);
        assert!(r < v);
    }

    #[test]
    fn shl_shr_roundtrip() {
        let a = big(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
        for s in [0usize, 1, 63, 64, 65, 127, 130] {
            assert_eq!(a.shl(s).shr(s), a, "shift {s}");
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let a = big(0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10);
        assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
        assert_eq!(BigUint::from_bytes_be(&[]), BigUint::zero());
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 5]), big(5));
    }

    #[test]
    fn rem_u64_matches_divrem() {
        let a = BigUint::one().shl(192).add(&big(12345));
        for d in [1u64, 2, 3, 97, 1 << 32, u64::MAX] {
            assert_eq!(BigUint::from(a.rem_u64(d)), a.rem(&BigUint::from(d)), "{d}");
        }
        assert_eq!(BigUint::zero().rem_u64(7), 0);
    }

    /// The oracle itself, including the even moduli [`Montgomery`] refuses.
    #[test]
    fn modpow_small_cases() {
        assert_eq!(big(4).modpow(&big(13), &big(497)), big(445));
        assert_eq!(big(2).modpow(&big(10), &big(1000)), big(24));
        assert_eq!(big(7).modpow(&BigUint::zero(), &big(13)), BigUint::one());
        assert_eq!(big(7).modpow(&big(5), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn modpow_fermat() {
        // a^(p-1) ≡ 1 mod p for prime p not dividing a.
        let p = big(1_000_000_007);
        for a in [2u128, 3, 999_999_999] {
            assert_eq!(big(a).modpow(&p.sub(&BigUint::one()), &p), BigUint::one());
            assert_eq!(
                Montgomery::new(&p).pow(&big(a), &p.sub(&BigUint::one())),
                BigUint::one()
            );
        }
    }

    #[test]
    fn montgomery_small_cases() {
        let ctx = Montgomery::new(&big(497));
        assert_eq!(ctx.pow(&big(4), &big(13)), big(445));
        assert_eq!(ctx.pow(&big(7), &BigUint::zero()), BigUint::one());
        assert_eq!(ctx.pow(&BigUint::zero(), &BigUint::zero()), BigUint::one());
        assert_eq!(ctx.pow(&BigUint::zero(), &big(5)), BigUint::zero());
        assert_eq!(ctx.mul(&big(496), &big(496)), BigUint::one());
        assert_eq!(ctx.mul(&big(1000), &big(3)), big(3000 % 497));
        let unit = Montgomery::new(&BigUint::one());
        assert_eq!(unit.pow(&big(7), &big(5)), BigUint::zero());
        assert_eq!(unit.pow(&big(7), &BigUint::zero()), BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn montgomery_rejects_even_modulus() {
        let _ = Montgomery::new(&big(1000));
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(big(48).gcd(&big(18)), big(6));
        assert_eq!(big(48).lcm(&big(18)), big(144));
        assert_eq!(big(17).gcd(&BigUint::zero()), big(17));
        assert_eq!(BigUint::zero().lcm(&big(5)), BigUint::zero());
    }

    #[test]
    fn modinv_known() {
        assert_eq!(big(3).modinv(&big(11)), Some(big(4)));
        assert_eq!(big(10).modinv(&big(17)), Some(big(12)));
        assert_eq!(big(6).modinv(&big(9)), None); // gcd = 3
        assert_eq!(
            big(65537)
                .modinv(&big(1_000_000_007))
                .map(|x| { x.mul(&big(65537)).rem(&big(1_000_000_007)) }),
            Some(BigUint::one())
        );
    }

    #[test]
    fn random_bits_has_exact_width() {
        let mut rng = crate::rng_from_seed(1);
        for bits in [1usize, 7, 63, 64, 65, 128, 257] {
            let n = BigUint::random_bits(&mut rng, bits);
            assert_eq!(n.bits(), bits);
        }
    }

    #[test]
    fn random_below_is_in_range() {
        let mut rng = crate::rng_from_seed(2);
        let bound = big(1000);
        for _ in 0..200 {
            assert!(BigUint::random_below(&mut rng, &bound) < bound);
        }
    }

    /// Deterministic seeded fuzzing replacing the former proptest suite:
    /// the in-tree PRNG generates the cases, so every failure is
    /// replayable from the printed iteration number alone.
    mod fuzz {
        use super::*;
        use crate::prng::{Rng64, SplitMix64};

        fn limbs_of(rng: &mut SplitMix64, len: usize) -> Vec<u64> {
            (0..len).map(|_| rng.next_u64()).collect()
        }

        fn u128_of(rng: &mut SplitMix64) -> u128 {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }

        #[test]
        fn add_sub_roundtrip() {
            let mut rng = SplitMix64::from_seed(0xB161);
            for i in 0..500 {
                let (a, b) = (u128_of(&mut rng), u128_of(&mut rng));
                let (x, y) = (BigUint::from(a), BigUint::from(b));
                assert_eq!(x.add(&y).sub(&y), x, "case {i}: a={a} b={b}");
            }
        }

        #[test]
        fn mul_matches_u128() {
            let mut rng = SplitMix64::from_seed(0xB162);
            for i in 0..500 {
                let (a, b) = (rng.next_u64(), rng.next_u64());
                let expected = a as u128 * b as u128;
                assert_eq!(
                    BigUint::from(a).mul(&BigUint::from(b)),
                    BigUint::from(expected),
                    "case {i}: a={a} b={b}"
                );
            }
        }

        #[test]
        fn divrem_invariant() {
            let mut rng = SplitMix64::from_seed(0xB163);
            for i in 0..500 {
                let a = u128_of(&mut rng);
                let b = u128_of(&mut rng).max(1);
                let (x, y) = (BigUint::from(a), BigUint::from(b));
                let (q, r) = x.divrem(&y);
                assert_eq!(q.mul(&y).add(&r), x, "case {i}: a={a} b={b}");
                assert!(r < y, "case {i}: a={a} b={b}");
            }
        }

        #[test]
        fn divrem_multi_limb_invariant() {
            let mut rng = SplitMix64::from_seed(0xB164);
            for i in 0..300 {
                let na = 1 + (rng.next_u64() % 5) as usize;
                let nb = 1 + (rng.next_u64() % 3) as usize;
                let mut x = BigUint {
                    limbs: (0..na).map(|_| rng.next_u64()).collect(),
                };
                x.normalize();
                let mut y = BigUint {
                    limbs: (0..nb).map(|_| rng.next_u64()).collect(),
                };
                y.normalize();
                if y.is_zero() {
                    continue;
                }
                let (q, r) = x.divrem(&y);
                assert_eq!(q.mul(&y).add(&r), x, "case {i}");
                assert!(r < y, "case {i}");
            }
        }

        /// The one Knuth D body called the way signing calls it —
        /// remainder only, stack buffers, dividends with zero top limbs as
        /// the pad's stream can have — gives `divrem`'s remainder and
        /// `q·v + r = u`, `r < v` by multiplication, and the cases reach
        /// both rare branches: the q̂ correction and the add-back.
        #[test]
        fn knuth_d_on_stack_buffers_matches_divrem() {
            let mut rng = SplitMix64::from_seed(0xB16A);
            KNUTH_BRANCHES.with(|b| b.set((0, 0)));
            for i in 0..600 {
                let (u, v) = if i % 4 == 3 {
                    // q̂ = 2⁶⁴ − 1 passes the check against the divisor's
                    // top two limbs and is one too large against the third.
                    (
                        vec![rng.next_u64() >> 1, 0, 1 << 63, (1 << 63) - 1],
                        vec![1, 0, 1 << 63],
                    )
                } else {
                    let nv = 1 + (rng.next_u64() % 6) as usize;
                    let mut v = limbs_of(&mut rng, nv);
                    if i % 3 == 0 {
                        v[nv - 1] >>= rng.next_u64() % 64; // any normalizing shift
                    }
                    v[nv - 1] = v[nv - 1].max(1);
                    let nu = nv + (rng.next_u64() % 6) as usize;
                    let mut u = limbs_of(&mut rng, nu);
                    if i % 5 == 0 {
                        *u.last_mut().expect("nonempty") = 0;
                    }
                    (u, v)
                };
                let (x, y) = (from_limbs(&u), from_limbs(&v));
                let (mut r, mut q) = ([0u64; 6], [0u64; 12]);
                let mut scratch = [0u64; 24];
                div_rem_in(&u, &v, None, &mut r, &mut scratch);
                let rem = from_limbs(&r[..v.len()]);
                assert_eq!(rem, x.divrem(&y).1, "case {i}");
                div_rem_in(&u, &v, Some(&mut q), &mut r, &mut scratch);
                let quot = from_limbs(&q[..u.len() - v.len() + 1]);
                assert_eq!(quot.mul(&y).add(&rem), x, "case {i}");
                assert!(rem < y, "case {i}");
            }
            let (corrections, add_backs) = KNUTH_BRANCHES.with(std::cell::Cell::get);
            assert!(
                corrections > 0 && add_backs > 0,
                "{corrections} / {add_backs}"
            );
        }

        #[test]
        fn bytes_roundtrip() {
            let mut rng = SplitMix64::from_seed(0xB165);
            for i in 0..300 {
                let len = (rng.next_u64() % 40) as usize;
                let mut bytes = vec![0u8; len];
                rng.fill_bytes(&mut bytes);
                let n = BigUint::from_bytes_be(&bytes);
                assert_eq!(BigUint::from_bytes_be(&n.to_bytes_be()), n, "case {i}");
            }
        }

        #[test]
        fn modinv_is_inverse() {
            let mut rng = SplitMix64::from_seed(0xB166);
            for i in 0..300 {
                let a = u128_of(&mut rng).max(1);
                let m = u128_of(&mut rng).max(2);
                let (x, modulus) = (BigUint::from(a), BigUint::from(m));
                if let Some(inv) = x.modinv(&modulus) {
                    assert_eq!(
                        x.mul(&inv).rem(&modulus),
                        BigUint::one().rem(&modulus),
                        "case {i}: a={a} m={m}"
                    );
                    assert!(inv < modulus, "case {i}");
                } else {
                    assert_ne!(x.gcd(&modulus), BigUint::one(), "case {i}: a={a} m={m}");
                }
            }
        }

        #[test]
        fn modpow_matches_naive() {
            let mut rng = SplitMix64::from_seed(0xB167);
            for i in 0..300 {
                let a = (rng.next_u64() % 1000) as u128;
                let e = (rng.next_u64() % 24) as u32;
                let m = (1 + rng.next_u64() % 9999) as u128;
                let expected = {
                    let mut acc: u128 = 1 % m;
                    for _ in 0..e {
                        acc = acc * (a % m) % m;
                    }
                    acc
                };
                let got = BigUint::from(a).modpow(&BigUint::from(e as u64), &BigUint::from(m));
                assert_eq!(got, BigUint::from(expected), "case {i}: a={a} e={e} m={m}");
            }
        }

        /// `Montgomery::{pow, mul}` against the reference loop, over odd
        /// moduli of 1–16 limbs. Rotating through the shapes below puts
        /// every (modulus, base, exponent) edge in many limb counts.
        #[test]
        fn montgomery_matches_reference() {
            let mut rng = SplitMix64::from_seed(0xB168);
            let cases = if cfg!(miri) { 24 } else { 640 };
            for i in 0..cases {
                let k = 1 + i % 16;
                let mut n = limbs_of(&mut rng, k);
                match (i / 16) % 4 {
                    // Top limb all ones: n is just below R, so Montgomery
                    // sums overflow k limbs (the `t[k]` carry).
                    0 => n[k - 1] = u64::MAX,
                    // Top limb tiny: R mod n and intermediate values sit
                    // far above n's top limb.
                    1 => n[k - 1] = 1 + (n[k - 1] & 3),
                    // All limbs ones: n = R − 1, the largest k-limb modulus.
                    2 => n.fill(u64::MAX),
                    _ => n[k - 1] |= 1,
                }
                n[0] |= 1;
                let n = from_limbs(&n);
                if n == BigUint::one() {
                    continue;
                }
                let n_minus_1 = n.sub(&BigUint::one());
                let base = match i % 5 {
                    0 => BigUint::zero(),
                    1 => BigUint::one(),
                    // n − 1 ≡ −1: squares to one, and every product with
                    // it needs the final conditional subtraction.
                    2 => n_minus_1.clone(),
                    3 => from_limbs(&limbs_of(&mut rng, k + 1 + i % 3)), // ≥ n: reduced on entry
                    _ => BigUint::random_below(&mut rng, &n),
                };
                let exp = match i % 7 {
                    0 => BigUint::zero(),
                    1 => BigUint::one(),
                    2 => BigUint::from(65537u64),
                    3 => n_minus_1.clone(),              // full width
                    4 => from_limbs(&vec![u64::MAX; k]), // every window 0xF
                    _ => from_limbs(&limbs_of(&mut rng, 1 + i % (k + 1))),
                };
                let ctx = Montgomery::new(&n);
                assert_eq!(ctx.modulus(), &n);
                assert_eq!(
                    ctx.pow(&base, &exp),
                    base.modpow(&exp, &n),
                    "case {i}: {base}^{exp} mod {n}"
                );
                let other = BigUint::random_below(&mut rng, &n);
                assert_eq!(
                    ctx.mul(&base, &other),
                    base.mul(&other).rem(&n),
                    "case {i}: {base}·{other} mod {n}"
                );
                assert_eq!(
                    ctx.mul(&n_minus_1, &n_minus_1),
                    BigUint::one(),
                    "case {i}: (−1)² mod {n}"
                );
            }
        }

        /// The `K`-limb instantiation and the run-time-width route are the
        /// same function of (modulus, base, exponent), on every pairing of
        /// the edge shapes `montgomery_matches_reference` rotates through.
        fn fixed_and_dynamic_agree<const K: usize>(rng: &mut SplitMix64) {
            let top_ones = {
                let mut n = limbs_of(rng, K);
                n[K - 1] = u64::MAX;
                n
            };
            let top_tiny = {
                let mut n = limbs_of(rng, K);
                n[K - 1] = 1 + (n[K - 1] & 3);
                n
            };
            for mut n in [top_ones, top_tiny, vec![u64::MAX; K]] {
                n[0] |= 1;
                let n = from_limbs(&n);
                if n == BigUint::one() {
                    continue;
                }
                let ctx = Montgomery::new(&n);
                assert_eq!(n.limbs.len(), K);
                let bases = [
                    n.sub(&BigUint::one()),
                    from_limbs(&limbs_of(rng, K + 1)), // ≥ n: reduced on entry
                    BigUint::random_below(rng, &n),
                ];
                let exps = [
                    BigUint::zero(),
                    BigUint::from(65537u64),
                    // Every window 0xF; one limb of them is what Miri has time for.
                    from_limbs(&vec![u64::MAX; if cfg!(miri) { 1 } else { K }]),
                ];
                for base in &bases {
                    let mut reduced = base.rem(&n).limbs;
                    reduced.resize(K, 0);
                    for exp in &exps {
                        let (mut fixed, mut dynamic) = ([0u64; K], [0u64; K]);
                        ctx.pow_fixed::<K>(&reduced, &exp.limbs, &mut fixed);
                        let mut scratch = vec![0u64; pow_scratch_bound(K)];
                        ctx.pow_dynamic(&reduced, &exp.limbs, &mut dynamic, &mut scratch);
                        assert_eq!(fixed, dynamic, "{base}^{exp} mod {n}");
                        assert_eq!(
                            from_limbs(&fixed),
                            ctx.pow(base, exp),
                            "{base}^{exp} mod {n}"
                        );
                    }
                }
            }
        }

        /// Every instantiated width, and 3, 5 and 9 limbs, which
        /// [`Montgomery::pow`] sends down the run-time-width route.
        #[test]
        fn constant_and_run_time_widths_agree() {
            let mut rng = SplitMix64::from_seed(0xB169);
            fixed_and_dynamic_agree::<1>(&mut rng);
            fixed_and_dynamic_agree::<2>(&mut rng);
            fixed_and_dynamic_agree::<3>(&mut rng);
            fixed_and_dynamic_agree::<4>(&mut rng);
            fixed_and_dynamic_agree::<5>(&mut rng);
            fixed_and_dynamic_agree::<8>(&mut rng);
            fixed_and_dynamic_agree::<9>(&mut rng);
            let covered = [1, 2, 3, 4, 5, 8, 9];
            assert!(INSTANTIATED_WIDTHS.iter().all(|k| covered.contains(k)));
        }
    }
}
