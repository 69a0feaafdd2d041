//! A from-scratch implementation of the SHA-256 hash function (FIPS 180-4).
//!
//! Used for message digests (the value actually signed by [`crate::rsa`])
//! and for content-addressing certificates. Each block is compressed in
//! one loop of eight rounds per step over a 16-word rolling message
//! schedule, with the working variables renamed between rounds rather
//! than shifted; throughput is measured by the repo benchmark's
//! `crypto.sha256_ns_per_kib` probe.

use std::fmt;

/// A 32-byte SHA-256 digest.
///
/// # Example
///
/// ```
/// use ftm_crypto::sha256::{Digest, Sha256};
/// let d: Digest = Sha256::digest(b"abc");
/// assert_eq!(
///     d.to_string(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({self})")
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
///
/// Feed data incrementally with [`Sha256::update`] and finish with
/// [`Sha256::finalize`], or hash a single buffer with [`Sha256::digest`].
///
/// # Example
///
/// ```
/// use ftm_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Sha256::digest(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// Convenience: hashes `data` in one call.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while input.len() >= 64 {
            let block: [u8; 64] = input[..64].try_into().expect("chunk is 64 bytes");
            self.compress(&block);
            input = &input[64..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Completes the hash, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.length_bytes.wrapping_mul(8);
        // Padding: 0x80, zeros up to 56 bytes into a block (of this one,
        // or of the next when fewer than 9 bytes are left), then the 64-bit
        // big-endian bit length — one update that ends on a block boundary.
        let zeros = (64 + 55 - self.buffered) % 64;
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        pad[1 + zeros..9 + zeros].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..9 + zeros]);
        debug_assert_eq!(self.buffered, 0);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// Absorbs one block: 64 rounds, eight per step of the loop, over a
    /// 16-word schedule that each round from the seventeenth on extends in
    /// place.
    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("chunk is 4 bytes"));
        }
        let mut v = self.state;
        for step in 0..8 {
            round::<0>(&mut v, &mut w, step);
            round::<1>(&mut v, &mut w, step);
            round::<2>(&mut v, &mut w, step);
            round::<3>(&mut v, &mut w, step);
            round::<4>(&mut v, &mut w, step);
            round::<5>(&mut v, &mut w, step);
            round::<6>(&mut v, &mut w, step);
            round::<7>(&mut v, &mut w, step);
        }
        for (state, v) in self.state.iter_mut().zip(v) {
            *state = state.wrapping_add(v);
        }
    }
}

/// Round `8·step + R` of the compression, on the working variables `v`
/// and the rolling schedule `w`.
///
/// Nothing is shifted between rounds: the variables are renamed instead.
/// Round `R` of a step reads `a…h` from `v[R′]…v[R′ + 7]` (indices mod
/// 8, `R′ = 8 − R`) and writes only the new `e` over `d` and the new `a`
/// over `h`, which is where the next round reads them. After eight rounds
/// every name is back in its slot.
///
/// The schedule holds the last sixteen message words: round `i` reads
/// `w[i mod 16]` and, from `i = 16` on, first replaces `W[i − 16]` there
/// by `W[i]`, from the words 15, 7 and 2 back.
#[inline(always)]
fn round<const R: usize>(v: &mut [u32; 8], w: &mut [u32; 16], step: usize) {
    let at = |name: usize| (name + 8 - R) % 8;
    let i = 8 * step + R;
    let j = i % 16;
    if i >= 16 {
        let (w15, w2) = (w[(j + 1) % 16], w[(j + 14) % 16]);
        let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
        let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
        w[j] = w[j]
            .wrapping_add(s0)
            .wrapping_add(w[(j + 9) % 16])
            .wrapping_add(s1);
    }

    let (a, b, c, d) = (v[at(0)], v[at(1)], v[at(2)], v[at(3)]);
    let (e, f, g, h) = (v[at(4)], v[at(5)], v[at(6)], v[at(7)]);
    let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
    let ch = (e & f) ^ (!e & g);
    let t1 = h
        .wrapping_add(s1)
        .wrapping_add(ch)
        .wrapping_add(K[i])
        .wrapping_add(w[j]);
    let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
    let maj = (a & b) ^ (a & c) ^ (b & c);
    v[at(3)] = d.wrapping_add(t1);
    v[at(7)] = t1.wrapping_add(s0.wrapping_add(maj));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: Digest) -> String {
        d.to_string()
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    /// FIPS 180-4's 896-bit message: 112 bytes, so the padding and
    /// length share the second block with the last 48.
    #[test]
    fn fips_896_bit_vector() {
        assert_eq!(
            hex(Sha256::digest(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    /// Every message length across the padding boundaries (55/56 bytes:
    /// the length fits the last block or needs another; 63/64: the block
    /// boundary itself) hashes the same fed one byte at a time, in chunks
    /// of several sizes, or at once.
    #[test]
    fn byte_at_a_time_chunked_and_one_shot_agree_at_every_length() {
        let data: Vec<u8> = (0u32..200).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let msg = &data[..len];
            let one_shot = Sha256::digest(msg);
            let mut bytewise = Sha256::new();
            for b in msg {
                bytewise.update(std::slice::from_ref(b));
            }
            assert_eq!(
                bytewise.finalize(),
                one_shot,
                "length {len}, byte at a time"
            );
            for chunk in [3, 7, 55, 56, 64, 65] {
                let mut chunked = Sha256::new();
                for c in msg.chunks(chunk) {
                    chunked.update(c);
                }
                assert_eq!(
                    chunked.finalize(),
                    one_shot,
                    "length {len}, chunks of {chunk}"
                );
            }
        }
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let oneshot = Sha256::digest(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 299, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"a"), Sha256::digest(b"b"));
    }
}
