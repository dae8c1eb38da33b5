//! The two checksums/hashes whose values are part of on-disk and
//! on-wire formats.

/// IEEE CRC-32 slice-by-8 tables, generated at compile time: `[0]` is
/// the one-byte table, `[k][b]` the state after byte `b` and `k` zero
/// bytes — eight bytes fold in with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(c & 1));
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 of `data` — the checksum in every [`crate::frame`]
/// header.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// Continues a CRC-32 over more bytes: `crc` is the checksum of
/// everything hashed so far (`0` for nothing), the result the checksum
/// of that plus `data`. Lets a reader checksum a file in chunks.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    let table = |k: usize, byte: u32| CRC_TABLES[k][(byte & 0xFF) as usize];
    let mut state = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = table(7, lo) ^ table(6, lo >> 8) ^ table(5, lo >> 16) ^ table(4, lo >> 24);
        state ^= table(3, hi) ^ table(2, hi >> 8) ^ table(1, hi >> 16) ^ table(0, hi >> 24);
    }
    for &b in words.remainder() {
        state = table(0, state ^ u32::from(b)) ^ (state >> 8);
    }
    !state
}

/// FNV-1a 64-bit hash of a byte string: stable across platforms and
/// releases, so it may name things that outlive a process
/// (configuration fingerprints, checkpoint keys, fault-stream seeds).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash over more bytes: `hash` is the hash of
/// everything hashed so far (`fnv1a(b"")` for nothing), the result the
/// hash of that plus `bytes`. Lets a writer hash a text it never holds
/// whole.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_extend_equals_one_shot_at_every_split() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for cut in 0..=data.len() {
            let (head, tail) = data.split_at(cut);
            assert_eq!(crc32_extend(crc32(head), tail), crc32(data), "cut {cut}");
        }
    }

    /// The IEEE polynomial one bit at a time — the model every table
    /// layout of `crc32_extend` has to equal.
    fn crc32_reference(crc: u32, data: &[u8]) -> u32 {
        let mut state = !crc;
        for &b in data {
            state ^= u32::from(b);
            for _ in 0..8 {
                state = (state >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(state & 1));
            }
        }
        !state
    }

    /// xorshift64: deterministic test bytes without a dependency.
    fn next(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    #[test]
    fn crc32_equals_the_bitwise_reference() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        // Every length up to 64 at every split: the 8-byte body, the
        // tail, and a state resumed mid-word.
        for len in 0..=64usize {
            let data: Vec<u8> = (0..len).map(|_| next(&mut seed) as u8).collect();
            let whole = crc32_reference(0, &data);
            assert_eq!(crc32(&data), whole, "len {len}");
            for cut in 0..=len {
                let (head, tail) = data.split_at(cut);
                assert_eq!(
                    crc32_extend(crc32(head), tail),
                    whole,
                    "len {len} cut {cut}"
                );
            }
        }
        for _ in 0..200 {
            let len = (next(&mut seed) % 4097) as usize;
            let data: Vec<u8> = (0..len).map(|_| next(&mut seed) as u8).collect();
            let cut = (next(&mut seed) as usize) % (len + 1);
            let (head, tail) = data.split_at(cut);
            let whole = crc32_reference(0, &data);
            assert_eq!(crc32(&data), whole, "len {len}");
            assert_eq!(
                crc32_extend(crc32(head), tail),
                whole,
                "len {len} cut {cut}"
            );
            assert_eq!(crc32_reference(crc32_reference(0, head), tail), whole);
        }
    }

    #[test]
    fn fnv_known_values() {
        // FNV-1a published test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
