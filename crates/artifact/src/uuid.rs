//! UUID generation for artifact identity.
//!
//! The paper's framework gives every artifact a UUID beside its content
//! hash. Here the UUID is name-based (version 3, MD5-derived) and its
//! name *is* the content hash, so an artifact's id, like a run's, is a
//! function of its content; databases written when ids were random
//! (version 4) keep theirs. Implemented in-repo instead of adding a
//! dependency.

use crate::hash::Md5;
use simart_codec::hex;
use std::fmt;
use std::str::FromStr;

/// A 128-bit universally unique identifier.
///
/// ```
/// use simart_artifact::Uuid;
///
/// let a = Uuid::new_v3("artifacts", "gem5-binary");
/// let b = Uuid::new_v3("artifacts", "gem5-binary");
/// assert_eq!(a, b); // name-based UUIDs are deterministic
/// assert_eq!(a.to_string().len(), 36);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Uuid([u8; 16]);

impl Uuid {
    /// The all-zero nil UUID.
    pub const NIL: Uuid = Uuid([0u8; 16]);

    /// Creates a deterministic, name-based (version 3) UUID from a
    /// namespace string and a name, via MD5.
    pub fn new_v3(namespace: &str, name: &str) -> Uuid {
        let mut h = Md5::new();
        h.update(namespace.as_bytes());
        h.update(&[0]);
        h.update(name.as_bytes());
        Uuid(Self::set_version(h.finalize().0, 3))
    }

    /// Builds a UUID from raw bytes, stamping no version bits.
    pub fn from_bytes(bytes: [u8; 16]) -> Uuid {
        Uuid(bytes)
    }

    /// The raw bytes of this UUID.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// The UUID version number encoded in the identifier (0 for raw UUIDs).
    pub fn version(&self) -> u8 {
        self.0[6] >> 4
    }

    /// Whether this is the nil UUID.
    pub fn is_nil(&self) -> bool {
        self.0 == [0u8; 16]
    }

    fn set_version(mut bytes: [u8; 16], version: u8) -> [u8; 16] {
        bytes[6] = (bytes[6] & 0x0f) | (version << 4);
        bytes[8] = (bytes[8] & 0x3f) | 0x80; // RFC 4122 variant
        bytes
    }
}

impl fmt::Display for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex = hex::encode(&self.0);
        let (a, b, c, d, e) = (
            &hex[..8],
            &hex[8..12],
            &hex[12..16],
            &hex[16..20],
            &hex[20..],
        );
        write!(f, "{a}-{b}-{c}-{d}-{e}")
    }
}

impl fmt::Debug for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uuid({self})")
    }
}

/// Error returned when parsing a malformed UUID string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseUuidError;

impl fmt::Display for ParseUuidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid UUID syntax")
    }
}

impl std::error::Error for ParseUuidError {}

impl FromStr for Uuid {
    type Err = ParseUuidError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let groups: Vec<&str> = s.split('-').collect();
        if !groups.iter().map(|group| group.len()).eq([8, 4, 4, 4, 12]) {
            return Err(ParseUuidError);
        }
        let bytes = hex::decode(&groups.concat()).ok_or(ParseUuidError)?;
        bytes.try_into().map(Uuid).map_err(|_| ParseUuidError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v3_has_version_and_variant_bits() {
        for name in ["", "a", "gem5-binary", "0123456789abcdef0123456789abcdef"] {
            let u = Uuid::new_v3("artifacts", name);
            assert_eq!(u.version(), 3);
            assert_eq!(u.as_bytes()[8] & 0xc0, 0x80);
        }
    }

    #[test]
    fn v3_distinguishes_namespace_and_name() {
        let a = Uuid::new_v3("ns1", "x");
        let b = Uuid::new_v3("ns2", "x");
        let c = Uuid::new_v3("ns1", "y");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.version(), 3);
    }

    #[test]
    fn display_parse_round_trip() {
        for n in 0..20 {
            let u = Uuid::new_v3("round-trip", &n.to_string());
            let s = u.to_string();
            assert_eq!(s.parse::<Uuid>().unwrap(), u);
        }
    }

    #[test]
    fn rejects_malformed_strings() {
        assert!("".parse::<Uuid>().is_err());
        assert!("not-a-uuid".parse::<Uuid>().is_err());
        assert!("00000000000000000000000000000000".parse::<Uuid>().is_err());
        assert!("0000000-00000-0000-0000-000000000000"
            .parse::<Uuid>()
            .is_err());
        assert!("00000000-0000-0000-0000-000000000000"
            .parse::<Uuid>()
            .is_ok());
    }

    #[test]
    fn nil_is_nil() {
        assert!(Uuid::NIL.is_nil());
        assert!(!Uuid::new_v3("", "").is_nil());
    }
}
