//! MD5 content hashing.
//!
//! The paper's framework hashes every artifact with MD5 (or records a git
//! revision hash for repository artifacts). We implement MD5 (RFC 1321)
//! in-repo rather than pulling a dependency: the algorithm is ~100 lines,
//! needs no unsafe code, and keeps artifact hashes bit-identical across
//! platforms. MD5 is used strictly as a *content fingerprint* for
//! deduplication, never for security.

use simart_codec::hex;
use std::fmt;
use std::sync::OnceLock;

/// Per-round left-rotate amounts (RFC 1321 §3.4).
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// The sine-derived constants K[i] = floor(|sin(i + 1)| * 2^32).
///
/// Computed once at runtime from `f64::sin` — identical on every IEEE-754
/// platform — instead of being transcribed by hand.
fn k_table() -> &'static [u32; 64] {
    static K: OnceLock<[u32; 64]> = OnceLock::new();
    K.get_or_init(|| {
        let mut k = [0u32; 64];
        for (i, slot) in k.iter_mut().enumerate() {
            *slot = (((i as f64 + 1.0).sin().abs()) * 4294967296.0) as u32;
        }
        k
    })
}

/// A streaming MD5 hasher.
///
/// ```
/// use simart_artifact::Md5;
///
/// let digest = Md5::digest(b"abc");
/// assert_eq!(digest.to_hex(), "900150983cd24fb0d6963f7d28e17f72");
/// ```
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a hasher in the RFC 1321 initial state.
    pub fn new() -> Self {
        Md5 {
            state: [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476],
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let _timer = simart_observe::timer("artifact.hash_us");
        simart_observe::count("artifact.hashed_bytes", data.len() as u64);
        let mut h = Md5::new();
        h.update(data);
        h.finalize()
    }

    /// Feeds more bytes into the hash.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let need = 64 - self.buffered;
            let take = need.min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Completes the hash, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.length_bytes.wrapping_mul(8);
        // Padding: a single 0x80 byte, zeros, then the 64-bit little-endian
        // message length (captured above, before padding bytes inflate the
        // byte counter).
        self.update(&[0x80]);
        while self.buffered != 56 {
            self.update(&[0]);
        }
        self.update(&bit_len.to_le_bytes());

        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        Digest(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let k = k_table();
        let mut m = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            m[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let [mut a, mut b, mut c, mut d] = self.state;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            let rotated = a
                .wrapping_add(f)
                .wrapping_add(k[i])
                .wrapping_add(m[g])
                .rotate_left(S[i]);
            b = b.wrapping_add(rotated);
            a = tmp;
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
    }
}

/// A 128-bit MD5 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 16]);

impl Digest {
    /// Renders the digest as 32 lowercase hex characters.
    pub fn to_hex(self) -> String {
        hex::encode(&self.0)
    }

    /// Parses a 32-character hex string back into a digest.
    ///
    /// Returns `None` when `hex` is not exactly 32 hex characters.
    pub fn from_hex(hex: &str) -> Option<Digest> {
        hex::decode(hex)?.try_into().ok().map(Digest)
    }

    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: &[(&str, &str)] = &[
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(
                Md5::digest(input.as_bytes()).to_hex(),
                *expected,
                "input {input:?}"
            );
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = Md5::digest(&data);
        for chunk_size in [1, 3, 7, 63, 64, 65, 100] {
            let mut h = Md5::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn hex_round_trip() {
        let d = Md5::digest(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("xyz"), None);
        assert_eq!(Digest::from_hex(&"0".repeat(31)), None);
        assert_eq!(Digest::from_hex(&"g".repeat(32)), None);
    }

    #[test]
    fn boundary_lengths() {
        // Exercise the padding logic at block boundaries: 55 bytes fits the
        // length in the same block, 56..=64 forces an extra block.
        for len in 50..70 {
            let data = vec![0xabu8; len];
            let mut h = Md5::new();
            h.update(&data);
            let d1 = h.finalize();
            let d2 = Md5::digest(&data);
            assert_eq!(d1, d2, "length {len}");
        }
    }
}
