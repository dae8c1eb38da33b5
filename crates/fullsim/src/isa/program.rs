//! The static program: a dense table of predecoded instructions.
//!
//! A workload's code is generated once per stream and never written
//! afterwards, so there is nothing to encode, decode or invalidate:
//! [`InstStream`](crate::isa::InstStream) walks the table by index,
//! one basic block at a time.

use super::{InstMix, OpClass};
use crate::rng::DetRng;

/// Maximum instructions in one basic block. Blocks normally end at a
/// branch; straight-line code is chopped at this cap.
pub const BLOCK_CAP: usize = 32;

/// The static part of one instruction: everything that does not depend
/// on dynamic state. Effective addresses and branch outcomes are drawn
/// at execute time by [`InstStream`](crate::isa::InstStream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticInst {
    /// Operation class.
    pub op: OpClass,
    /// Destination register.
    pub dst: u8,
    /// First source register.
    pub src1: u8,
    /// Second source register.
    pub src2: u8,
}

/// Statistical code generator: `len` instructions whose operation
/// classes follow `mix` and whose register operands form realistic
/// dependency chains.
///
/// Destinations cycle through a 24-register window; sources read
/// values produced 1..=16 instructions earlier, giving some tight
/// chains and plenty of independent work for wide machines to overlap.
pub fn generate(label: &str, mix: &InstMix, len: usize) -> Vec<StaticInst> {
    let mut rng = DetRng::from_label(&format!("code/{label}"));
    (0..len as u64)
        .map(|i| {
            let op = mix.sample(&mut rng);
            let d1 = 1 + rng.below(16);
            let d2 = 1 + rng.below(16);
            StaticInst {
                op,
                dst: (i % 24 + 1) as u8,
                src1: ((i + 24 - d1 % 24) % 24 + 1) as u8,
                src2: ((i + 24 - d2 % 24) % 24 + 1) as u8,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_code_is_label_deterministic() {
        let a = generate("x", &InstMix::default_int(), 64);
        assert_eq!(a, generate("x", &InstMix::default_int(), 64));
        assert_ne!(a, generate("y", &InstMix::default_int(), 64));
    }
}
