//! Canonical (deterministic) wire encoding.
//!
//! Signatures must be computed over *bytes*, and two structurally equal
//! messages must always produce identical bytes — otherwise a correct
//! receiver could reject a correct sender. This module defines the
//! [`CanonicalEncode`] trait and a length-prefixed, tagged writer that makes
//! encodings unambiguous (no concatenation collisions: every variable-length
//! field is preceded by its length, every enum by its tag).

use crate::sha256::{Digest, Sha256};

/// Types with a canonical byte encoding suitable for hashing and signing.
///
/// Implementations must be *injective up to semantic equality*: values that
/// compare equal encode identically, and distinct values encode distinctly.
/// The provided [`canonical_bytes`](CanonicalEncode::canonical_bytes) and
/// [`canonical_digest`](CanonicalEncode::canonical_digest) helpers derive
/// from [`encode`](CanonicalEncode::encode).
///
/// # Example
///
/// ```
/// use ftm_crypto::wire::{CanonicalEncode, Encoder};
///
/// struct Vote { round: u64, next: bool }
/// impl CanonicalEncode for Vote {
///     fn encode(&self, enc: &mut Encoder) {
///         enc.u64(self.round);
///         enc.bool(self.next);
///     }
/// }
/// let v = Vote { round: 3, next: true };
/// assert_eq!(v.canonical_bytes(), Vote { round: 3, next: true }.canonical_bytes());
/// ```
pub trait CanonicalEncode {
    /// Writes the canonical encoding of `self` into `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// The length of the encoding where a type knows it without writing
    /// it, so [`canonical_bytes`](CanonicalEncode::canonical_bytes)
    /// allocates once, at the final size; `0` (the default) grows the
    /// buffer as it is written. Only capacity depends on it, never bytes.
    fn encoded_len_hint(&self) -> usize {
        0
    }

    /// Returns the canonical encoding as a fresh byte vector.
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(self.encoded_len_hint());
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Returns the SHA-256 digest of the canonical encoding.
    fn canonical_digest(&self) -> Digest {
        Sha256::digest(&self.canonical_bytes())
    }
}

/// An append-only canonical byte writer.
///
/// All multi-byte integers are big-endian; byte strings and sequences are
/// length-prefixed with a `u32`, so encodings never collide across field
/// boundaries.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    out: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Creates an empty encoder with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Encoder {
            out: Vec::with_capacity(capacity),
        }
    }

    /// Consumes the encoder, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Returns `true` when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Writes a single byte tag (use for enum discriminants).
    pub fn tag(&mut self, t: u8) {
        self.out.push(t);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.out.push(v as u8);
    }

    /// Writes a big-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a length-prefixed byte string.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds `u32::MAX` bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u32(u32::try_from(bytes.len()).expect("field longer than u32::MAX"));
        self.out.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed sequence of encodable items.
    ///
    /// # Panics
    ///
    /// Panics if the sequence exceeds `u32::MAX` items.
    pub fn seq<T: CanonicalEncode>(&mut self, items: &[T]) {
        self.u32(u32::try_from(items.len()).expect("sequence longer than u32::MAX"));
        for item in items {
            item.encode(self);
        }
    }

    /// Writes a nested encodable value (no framing; use when the field is
    /// fixed-position).
    pub fn nested<T: CanonicalEncode>(&mut self, value: &T) {
        value.encode(self);
    }
}

impl CanonicalEncode for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(*self);
    }
}

impl CanonicalEncode for u32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.u32(*self);
    }
}

impl CanonicalEncode for Vec<u8> {
    fn encode(&self, enc: &mut Encoder) {
        enc.bytes(self);
    }
}

impl<T: CanonicalEncode> CanonicalEncode for &T {
    fn encode(&self, enc: &mut Encoder) {
        (*self).encode(enc);
    }
}

impl CanonicalEncode for Digest {
    fn encoded_len_hint(&self) -> usize {
        4 + self.0.len()
    }

    fn encode(&self, enc: &mut Encoder) {
        enc.bytes(self.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_big_endian() {
        let mut e = Encoder::new();
        e.u32(0x01020304);
        e.u64(0x05060708090a0b0c);
        assert_eq!(
            e.into_bytes(),
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 0xa, 0xb, 0xc]
        );
    }

    #[test]
    fn bytes_are_length_prefixed() {
        let mut e = Encoder::new();
        e.bytes(b"ab");
        assert_eq!(e.into_bytes(), vec![0, 0, 0, 2, b'a', b'b']);
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        // ("a", "bc") must encode differently from ("ab", "c").
        let mut e1 = Encoder::new();
        e1.bytes(b"a");
        e1.bytes(b"bc");
        let mut e2 = Encoder::new();
        e2.bytes(b"ab");
        e2.bytes(b"c");
        assert_ne!(e1.into_bytes(), e2.into_bytes());
    }

    #[test]
    fn seq_is_length_prefixed() {
        let mut e = Encoder::new();
        e.seq(&[1u64, 2]);
        let bytes = e.into_bytes();
        assert_eq!(&bytes[..4], &[0, 0, 0, 2]);
        assert_eq!(bytes.len(), 4 + 16);
    }

    #[test]
    fn digest_of_equal_values_is_equal() {
        assert_eq!(42u64.canonical_digest(), 42u64.canonical_digest());
        assert_ne!(42u64.canonical_digest(), 43u64.canonical_digest());
    }
}

/// Errors produced when decoding canonical bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The buffer ended before the value was complete.
    UnexpectedEnd,
    /// An enum tag byte had no corresponding variant.
    BadTag(u8),
    /// A length prefix exceeded the remaining buffer (or a sanity cap).
    BadLength(u32),
    /// Trailing bytes remained after a complete top-level value.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of input"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            DecodeError::BadLength(l) => write!(f, "length prefix {l} exceeds input"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Types that can be reconstructed from their canonical encoding.
///
/// The decode/encode pair must round-trip:
/// `T::decode(&mut Decoder::new(&t.canonical_bytes())) == Ok(t)`.
pub trait CanonicalDecode: Sized {
    /// Reads one value from the decoder.
    ///
    /// # Errors
    ///
    /// Any structural mismatch with the canonical format.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Decodes a complete buffer, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// As [`CanonicalDecode::decode`], plus [`DecodeError::TrailingBytes`].
    fn from_canonical_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let value = Self::decode(&mut dec)?;
        if dec.remaining() != 0 {
            return Err(DecodeError::TrailingBytes(dec.remaining()));
        }
        Ok(value)
    }
}

/// A cursor over canonical bytes, mirroring [`Encoder`].
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one tag byte.
    pub fn tag(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool` (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.tag()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::BadTag(t)),
        }
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.u32()?;
        if len as usize > self.remaining() {
            return Err(DecodeError::BadLength(len));
        }
        Ok(self.take(len as usize)?.to_vec())
    }

    /// Reads a length-prefixed sequence of decodable items.
    pub fn seq<T: CanonicalDecode>(&mut self) -> Result<Vec<T>, DecodeError> {
        let len = self.u32()?;
        // Each item occupies at least one byte; a longer claim is corrupt.
        if len as usize > self.remaining() {
            return Err(DecodeError::BadLength(len));
        }
        (0..len).map(|_| T::decode(self)).collect()
    }
}

impl CanonicalDecode for u64 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.u64()
    }
}

impl CanonicalDecode for u32 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.u32()
    }
}

impl CanonicalDecode for Vec<u8> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.bytes()
    }
}

impl CanonicalDecode for Digest {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let bytes = dec.bytes()?;
        let arr: [u8; 32] = bytes.try_into().map_err(|_| DecodeError::BadLength(32))?;
        Ok(Digest(arr))
    }
}

#[cfg(test)]
mod decode_tests {
    use super::*;

    #[test]
    fn integers_roundtrip() {
        let mut e = Encoder::new();
        e.u32(7);
        e.u64(9);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u32(), Ok(7));
        assert_eq!(d.u64(), Ok(9));
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn bytes_and_seq_roundtrip() {
        let mut e = Encoder::new();
        e.bytes(b"hi");
        e.seq(&[1u64, 2, 3]);
        let buf = e.into_bytes();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.bytes(), Ok(b"hi".to_vec()));
        assert_eq!(d.seq::<u64>(), Ok(vec![1, 2, 3]));
    }

    #[test]
    fn bad_bool_tag_is_rejected() {
        let mut d = Decoder::new(&[7u8]);
        assert_eq!(d.bool(), Err(DecodeError::BadTag(7)));
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Encoder::new();
        e.bytes(b"hello");
        let mut buf = e.into_bytes();
        buf.truncate(6);
        let mut d = Decoder::new(&buf);
        assert!(matches!(d.bytes(), Err(DecodeError::BadLength(5))));
        assert!(matches!(
            Decoder::new(&[]).u64(),
            Err(DecodeError::UnexpectedEnd)
        ));
    }

    #[test]
    fn from_canonical_bytes_rejects_trailing() {
        let mut e = Encoder::new();
        e.u64(1);
        let mut buf = e.into_bytes();
        buf.push(0);
        assert_eq!(
            u64::from_canonical_bytes(&buf),
            Err(DecodeError::TrailingBytes(1))
        );
    }

    #[test]
    fn digest_roundtrip() {
        let d = Sha256::digest(b"x");
        let bytes = d.canonical_bytes();
        assert_eq!(Digest::from_canonical_bytes(&bytes), Ok(d));
    }
}
