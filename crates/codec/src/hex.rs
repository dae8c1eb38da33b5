//! Lowercase hexadecimal, the text form of blob keys, digests, UUIDs
//! and journaled blob bytes — rendered through one table.

const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Renders `bytes` as lowercase hex, two digits per byte.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &byte in bytes {
        out.push(char::from(DIGITS[usize::from(byte >> 4)]));
        out.push(char::from(DIGITS[usize::from(byte & 0xF)]));
    }
    out
}

/// Parses hex of either case back into bytes: `None` for an odd length
/// or any character that is not a hex digit.
pub fn decode(hex: &str) -> Option<Vec<u8>> {
    let digit = |c: u8| char::from(c).to_digit(16).map(|d| d as u8);
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(hex.len() / 2);
    for pair in hex.as_bytes().chunks_exact(2) {
        out.push(digit(pair[0])? << 4 | digit(pair[1])?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_byte_round_trips_in_lowercase() {
        let all: Vec<u8> = (0..=255).collect();
        let text = encode(&all);
        assert!(text.starts_with("000102") && text.ends_with("fdfeff"));
        assert_eq!(text, text.to_lowercase());
        assert_eq!(decode(&text), Some(all.clone()));
        assert_eq!(decode(&text.to_uppercase()), Some(all));
        assert_eq!(decode(""), Some(Vec::new()));
    }

    #[test]
    fn odd_lengths_and_non_hex_are_rejected() {
        for bad in ["abc", "zz", "0g", "+f", " 1", "é"] {
            assert_eq!(decode(bad), None, "{bad:?}");
        }
    }
}
