//! Memory systems: the *Classic* hierarchy and *Ruby*-style coherence
//! protocols over a DDR3 timing model.
//!
//! Mirrors the two gem5 memory stacks the paper's use-case 2 crosses:
//!
//! * **Classic** — fast, latency-based caches. Optionally built with a
//!   coherent crossbar; without it, multi-core timing CPUs are
//!   unsupported (the configuration class that fails in Figure 8).
//! * **Ruby** — directory-based coherence with real per-line state
//!   machines: the minimal `MI_example` protocol and the
//!   `MESI_Two_Level` protocol.

pub mod cache;
pub mod classic;
pub mod dram;
pub mod ruby;

use crate::spelling::{self, UnknownSpelling};
use crate::stats::Stats;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a cache-line number with one multiplication, folding the
/// product's well-mixed high half into the low bits the table indexes
/// by. Line numbers are the simulated program's, never outside input.
#[derive(Debug, Default, Clone, Copy)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("line numbers hash through write_u64");
    }

    fn write_u64(&mut self, line: u64) {
        let product = line.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = product ^ (product >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-line coherence bookkeeping keyed by line number. Never iterated,
/// so neither the hasher nor the bucket order can reach a statistic.
type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// The cores whose bits are set in `mask`, in ascending order.
fn cores_in(mask: u64) -> impl Iterator<Item = usize> {
    let span = mask.trailing_zeros()..u64::BITS - mask.leading_zeros();
    (span.filter(move |core| mask >> core & 1 != 0)).map(|core| core as usize)
}

/// The kind of memory access a CPU issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Atomic read-modify-write (lock/barrier traffic).
    Atomic,
}

impl AccessKind {
    /// Whether the access needs write permission on the line.
    pub fn needs_write(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Atomic)
    }
}

/// Memory-system configuration selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Classic hierarchy. `coherent` selects a coherent crossbar
    /// between the private L1s.
    Classic {
        /// Whether L1s snoop a coherent crossbar.
        coherent: bool,
    },
    /// Ruby with the MI_example protocol.
    RubyMi,
    /// Ruby with the MESI_Two_Level protocol.
    RubyMesiTwoLevel,
}

impl MemKind {
    /// Classic memory as configured by the paper's boot-exit script
    /// (fast, but without coherence fidelity).
    pub fn classic_fast() -> MemKind {
        MemKind::Classic { coherent: false }
    }

    /// Classic memory with a coherent crossbar (as used for the PARSEC
    /// multi-core runs).
    pub fn classic_coherent() -> MemKind {
        MemKind::Classic { coherent: true }
    }

    /// Whether this memory system keeps multi-core caches coherent.
    pub fn supports_multicore_timing(self) -> bool {
        !matches!(self, MemKind::Classic { coherent: false })
    }

    /// The three memory systems crossed by the paper's Figure 8.
    pub const FIGURE8: [MemKind; 3] = [
        MemKind::Classic { coherent: false },
        MemKind::RubyMi,
        MemKind::RubyMesiTwoLevel,
    ];

    /// Every memory system.
    pub const ALL: [MemKind; 4] = [
        MemKind::Classic { coherent: false },
        MemKind::Classic { coherent: true },
        MemKind::RubyMi,
        MemKind::RubyMesiTwoLevel,
    ];

    /// The CLI's short spelling (`classic`, `coherent`, `mi`, `mesi`).
    pub fn short(self) -> &'static str {
        match self {
            MemKind::Classic { coherent: false } => "classic",
            MemKind::Classic { coherent: true } => "coherent",
            MemKind::RubyMi => "mi",
            MemKind::RubyMesiTwoLevel => "mesi",
        }
    }

    /// The memory system whose [`MemKind::short`] spelling is `text`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSpelling`] for any other text.
    pub fn from_short(text: &str) -> Result<MemKind, UnknownSpelling> {
        spelling::parse(&Self::ALL, text, "memory system", Self::short)
    }
}

impl fmt::Display for MemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemKind::Classic { coherent: false } => f.write_str("Classic"),
            MemKind::Classic { coherent: true } => f.write_str("Classic(coherent)"),
            MemKind::RubyMi => f.write_str("MI_example"),
            MemKind::RubyMesiTwoLevel => f.write_str("MESI_Two_Level"),
        }
    }
}

spelling::from_display!(MemKind, MemKind::ALL, "memory system");

/// A memory system as seen by the CPU models: per-access timing plus
/// statistics.
pub trait MemorySystem {
    /// Performs an access from `core`, returning its latency in CPU
    /// cycles.
    fn access(&mut self, core: usize, addr: u64, kind: AccessKind) -> u64;

    /// Which configuration this system implements.
    fn kind(&self) -> MemKind;

    /// Dumps accumulated statistics into `stats` under `prefix`.
    fn dump_stats(&self, prefix: &str, stats: &mut Stats);
}

/// Builds the memory system for `kind` serving `cores` CPUs.
pub fn build(kind: MemKind, cores: usize) -> Box<dyn MemorySystem> {
    match kind {
        MemKind::Classic { coherent } => Box::new(classic::ClassicMemory::new(cores, coherent)),
        MemKind::RubyMi => Box::new(ruby::RubySystem::new_mi(cores)),
        MemKind::RubyMesiTwoLevel => Box::new(ruby::RubySystem::new_mesi(cores)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(MemKind::classic_fast().to_string(), "Classic");
        assert_eq!(MemKind::RubyMi.to_string(), "MI_example");
        assert_eq!(MemKind::RubyMesiTwoLevel.to_string(), "MESI_Two_Level");
    }

    #[test]
    fn spellings_read_back() {
        for kind in MemKind::ALL {
            assert_eq!(kind.to_string().parse(), Ok(kind));
            assert_eq!(MemKind::from_short(kind.short()), Ok(kind));
        }
        assert!("mesi".parse::<MemKind>().is_err());
    }

    #[test]
    fn coherence_support_flags() {
        assert!(!MemKind::classic_fast().supports_multicore_timing());
        assert!(MemKind::classic_coherent().supports_multicore_timing());
        assert!(MemKind::RubyMi.supports_multicore_timing());
        assert!(MemKind::RubyMesiTwoLevel.supports_multicore_timing());
    }

    #[test]
    fn build_constructs_every_kind() {
        for kind in [
            MemKind::classic_fast(),
            MemKind::classic_coherent(),
            MemKind::RubyMi,
            MemKind::RubyMesiTwoLevel,
        ] {
            let mut mem = build(kind, 2);
            assert_eq!(mem.kind(), kind);
            let latency = mem.access(0, 0x1000, AccessKind::Read);
            assert!(latency > 0);
        }
    }
}
