//! Reading a configuration enum back from the text it is written as.
//!
//! Each enum writes its spellings once, in its `Display` (and, for the
//! CLI, one short spelling); the `FromStr` beside it inverts that
//! spelling over the enum's list of variants rather than repeating it
//! in a second table.

use std::fmt;

/// Text that spells no variant of the enum it was read as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSpelling {
    /// What was being read ("cpu model", "memory system", ...).
    pub what: &'static str,
    /// The text that matched no variant.
    pub text: String,
}

impl fmt::Display for UnknownSpelling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown {} `{}`", self.what, self.text)
    }
}

impl std::error::Error for UnknownSpelling {}

/// Implements `FromStr` for an enum as the inverse of its `Display`
/// over `$all`, the list of its variants.
macro_rules! from_display {
    ($ty:ty, $all:expr, $what:literal) => {
        impl std::str::FromStr for $ty {
            type Err = $crate::spelling::UnknownSpelling;

            fn from_str(text: &str) -> Result<Self, Self::Err> {
                $crate::spelling::parse(&$all, text, $what, |v: $ty| v.to_string())
            }
        }
    };
}
pub(crate) use from_display;

/// The variant of `all` that `spell` writes as `text`.
pub(crate) fn parse<T: Copy, S: AsRef<str>>(
    all: &[T],
    text: &str,
    what: &'static str,
    spell: impl Fn(T) -> S,
) -> Result<T, UnknownSpelling> {
    all.iter()
        .copied()
        .find(|&variant| spell(variant).as_ref() == text)
        .ok_or_else(|| UnknownSpelling {
            what,
            text: text.to_owned(),
        })
}
