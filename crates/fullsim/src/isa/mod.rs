//! A small RISC-like instruction set and deterministic instruction
//! streams.
//!
//! Real benchmark binaries cannot ship with this reproduction, so
//! workloads are lowered to statistical instruction streams over a
//! compact ISA. A stream is *deterministic*: the same (workload, os,
//! thread) triple always yields the same instruction sequence, which is
//! what lets two simulations of the same configuration produce
//! bit-identical statistics.

use crate::mem::AccessKind;
use crate::rng::DetRng;
use std::fmt;

pub mod func;
pub mod program;

use program::{StaticInst, BLOCK_CAP};

/// Operation classes of the simulated ISA.
///
/// Deliberately mirrors gem5's `OpClass` taxonomy at the granularity
/// the timing models need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU operation (add, logic, shifts).
    IntAlu,
    /// Integer multiply/divide.
    IntMul,
    /// Floating-point add/mul.
    FpAlu,
    /// Floating-point divide/sqrt (long latency).
    FpDiv,
    /// Memory read.
    Load,
    /// Memory write.
    Store,
    /// Conditional branch.
    Branch,
    /// Atomic read-modify-write (locks, barriers).
    Atomic,
    /// Memory fence.
    Fence,
    /// System call (traps into the simulated kernel).
    Syscall,
}

impl OpClass {
    /// All operation classes in declaration order, so that
    /// `ALL[class as usize] == class` (instruction-mix tables index by
    /// it).
    pub const ALL: [OpClass; 10] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::FpAlu,
        OpClass::FpDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::Atomic,
        OpClass::Fence,
        OpClass::Syscall,
    ];

    /// Whether this class accesses memory.
    pub fn is_memory(self) -> bool {
        self.access_kind().is_some()
    }

    /// The memory access this class issues, if it accesses memory.
    pub fn access_kind(self) -> Option<AccessKind> {
        match self {
            OpClass::Load => Some(AccessKind::Read),
            OpClass::Store => Some(AccessKind::Write),
            OpClass::Atomic => Some(AccessKind::Atomic),
            _ => None,
        }
    }

    /// Execution latency in cycles on a simple in-order pipeline
    /// (excluding memory time).
    pub fn base_latency(self) -> u64 {
        match self {
            OpClass::IntAlu | OpClass::Branch => 1,
            OpClass::IntMul => 3,
            OpClass::FpAlu => 4,
            OpClass::FpDiv => 12,
            OpClass::Load | OpClass::Store => 1, // plus memory time
            OpClass::Atomic => 2,                // plus memory time
            OpClass::Fence => 2,
            OpClass::Syscall => 60,
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "IntAlu",
            OpClass::IntMul => "IntMul",
            OpClass::FpAlu => "FpAlu",
            OpClass::FpDiv => "FpDiv",
            OpClass::Load => "Load",
            OpClass::Store => "Store",
            OpClass::Branch => "Branch",
            OpClass::Atomic => "Atomic",
            OpClass::Fence => "Fence",
            OpClass::Syscall => "Syscall",
        };
        f.write_str(s)
    }
}

/// Relative frequencies of each [`OpClass`] in a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct InstMix {
    weights: [f64; 10],
}

impl InstMix {
    /// Builds a mix from `(class, weight)` pairs; unlisted classes get
    /// weight zero.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or any weight is negative.
    pub fn new(entries: &[(OpClass, f64)]) -> InstMix {
        let mut weights = [0.0; 10];
        for (class, weight) in entries {
            assert!(*weight >= 0.0, "negative weight for {class}");
            weights[*class as usize] += weight;
        }
        assert!(
            weights.iter().sum::<f64>() > 0.0,
            "instruction mix cannot be all zeros"
        );
        InstMix { weights }
    }

    /// A generic integer-dominated mix used as a default.
    pub fn default_int() -> InstMix {
        InstMix::new(&[
            (OpClass::IntAlu, 0.45),
            (OpClass::IntMul, 0.03),
            (OpClass::Load, 0.25),
            (OpClass::Store, 0.12),
            (OpClass::Branch, 0.14),
            (OpClass::Syscall, 0.01),
        ])
    }

    /// The normalized fraction of the given class.
    pub fn fraction(&self, class: OpClass) -> f64 {
        self.weights[class as usize] / self.weights.iter().sum::<f64>()
    }

    /// Draws one class from the mix.
    pub fn sample(&self, rng: &mut DetRng) -> OpClass {
        OpClass::ALL[rng.weighted_index(&self.weights)]
    }

    /// Returns a copy with the weight of `class` scaled by `factor`.
    /// Used to model, e.g., newer compilers emitting more vector FP ops.
    pub fn scaled(&self, class: OpClass, factor: f64) -> InstMix {
        let mut weights = self.weights;
        weights[class as usize] *= factor;
        InstMix { weights }
    }
}

/// A single dynamic instruction in a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inst {
    /// Operation class.
    pub op: OpClass,
    /// Effective address for memory operations (0 otherwise).
    pub addr: u64,
    /// Destination register (0-31); consumers model dependencies with it.
    pub dst: u8,
    /// First source register.
    pub src1: u8,
    /// Second source register.
    pub src2: u8,
    /// For branches: whether the branch is taken.
    pub taken: bool,
}

/// Parameters shaping the memory reference stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddressProfile {
    /// Size of the hot working set in bytes.
    pub working_set: u64,
    /// Fraction of accesses that hit the sequential/stride pattern
    /// (the rest scatter uniformly over the working set).
    pub locality: f64,
    /// Fraction of memory accesses that target data shared between
    /// threads (drives coherence traffic).
    pub shared_fraction: f64,
}

impl AddressProfile {
    /// A cache-friendly default (64 KiB hot set, strong locality).
    pub fn friendly() -> AddressProfile {
        AddressProfile {
            working_set: 64 << 10,
            locality: 0.9,
            shared_fraction: 0.05,
        }
    }
}

/// A deterministic instruction stream for one thread, walking an
/// immutable predecoded program one basic block at a time.
///
/// The *static* program — operation classes and register operands —
/// is generated once per workload label ([`program::generate`]) and is
/// the same, in content, for every thread of the workload. A block
/// ends at a branch, at the [`BLOCK_CAP`]th instruction since its
/// entry, or at the last instruction (wrapping to index 0). The
/// *dynamic* parts of each instruction — effective addresses and
/// branch outcomes — are drawn at execute time from the per-thread
/// RNG, so threads running identical code still produce distinct,
/// reproducible memory and control-flow behaviour.
#[derive(Debug, Clone)]
pub struct InstStream {
    addrs: AddressProfile,
    rng: DetRng,
    program: Vec<StaticInst>,
    /// `entered[i]`: a block has been entered at index `i`.
    entered: Vec<bool>,
    /// Blocks entered at an index no block was entered at before.
    first_entries: u64,
    /// Index of the next instruction.
    pos: usize,
    /// Instructions fetched since the current block was entered.
    run: usize,
    cursor: u64,
    stride_pos: u64,
    tile_base: u64,
    thread: u32,
    branch_bias: f64,
}

/// Base virtual address of the shared region (all threads).
const SHARED_BASE: u64 = 0x7000_0000;
/// Base virtual address of a thread's private region.
const PRIVATE_BASE: u64 = 0x1000_0000;
/// Cache-line-sized generation stride.
const LINE: u64 = 64;

/// Instructions in a generated program. Small enough that the dynamic
/// walk revisits blocks constantly (like a loopy inner kernel), large
/// enough to exercise many distinct blocks.
const PROGRAM_LEN: usize = 1024;

impl InstStream {
    /// Creates the stream for a (label, thread) pair. `label` should
    /// fingerprint the workload + OS so different setups diverge.
    pub fn new(label: &str, thread: u32, mix: InstMix, addrs: AddressProfile) -> InstStream {
        InstStream::over(
            program::generate(label, &mix, PROGRAM_LEN),
            label,
            thread,
            addrs,
        )
    }

    /// The stream of `thread` over a given (non-empty) program.
    fn over(program: Vec<StaticInst>, label: &str, thread: u32, addrs: AddressProfile) -> Self {
        InstStream {
            addrs,
            rng: DetRng::from_label(&format!("{label}/t{thread}")),
            entered: vec![false; program.len()],
            program,
            first_entries: 0,
            pos: 0,
            run: 0,
            cursor: 0,
            stride_pos: 0,
            tile_base: 0,
            thread,
            branch_bias: 0.88,
        }
    }

    /// The number of instructions generated so far.
    pub fn generated(&self) -> u64 {
        self.cursor
    }

    /// `(hits, misses)` as the `decode.*` statistics report them, one
    /// count per fetched instruction: the first instruction of a block
    /// entered at an index where no block was entered before is a
    /// miss, every other fetch is a hit.
    pub fn decode_counts(&self) -> (u64, u64) {
        (self.cursor - self.first_entries, self.first_entries)
    }

    /// Fetches the static part of the next instruction, resolves its
    /// branch outcome and advances control flow. Returns
    /// `(inst, taken)`.
    fn fetch_static(&mut self) -> (StaticInst, bool) {
        if self.run == 0 && !std::mem::replace(&mut self.entered[self.pos], true) {
            self.first_entries += 1;
        }
        let inst = self.program[self.pos];
        let is_branch = inst.op == OpClass::Branch;
        // Branch outcome is dynamic: taken jumps to a drawn target,
        // not-taken falls through.
        let taken = is_branch && self.rng.chance(self.branch_bias);
        let fall_through = if self.pos + 1 == self.program.len() {
            0
        } else {
            self.pos + 1
        };
        self.pos = if taken {
            self.rng.below(self.program.len() as u64) as usize
        } else {
            fall_through
        };
        self.run += 1;
        if is_branch || self.run == BLOCK_CAP || fall_through == 0 {
            self.run = 0;
        }
        (inst, taken)
    }

    /// Generates the next instruction.
    pub fn next_inst(&mut self) -> Inst {
        let (sinst, taken) = self.fetch_static();
        self.cursor += 1;
        let addr = if sinst.op.is_memory() {
            self.next_addr(sinst.op)
        } else {
            0
        };
        Inst {
            op: sinst.op,
            addr,
            dst: sinst.dst,
            src1: sinst.src1,
            src2: sinst.src2,
            taken,
        }
    }

    fn next_addr(&mut self, op: OpClass) -> u64 {
        let shared = op == OpClass::Atomic || self.rng.chance(self.addrs.shared_fraction);
        let (base, span) = if shared {
            // Shared region is deliberately small so threads collide on
            // the same lines, creating coherence traffic.
            (SHARED_BASE, (self.addrs.working_set / 8).max(LINE * 16))
        } else {
            (
                PRIVATE_BASE + self.thread as u64 * 0x0100_0000,
                self.addrs.working_set.max(LINE * 4),
            )
        };
        if self.rng.chance(self.addrs.locality) {
            // Local accesses walk a bounded tile (an inner-loop working
            // window), hopping to a new tile occasionally. This makes
            // the reference stream *stationary*: its cache behaviour
            // reaches steady state within a few thousand accesses even
            // for multi-megabyte working sets, which is what lets
            // sampled simulation extrapolate safely.
            const TILE: u64 = 32 << 10;
            let tile_span = span.min(TILE);
            self.stride_pos = (self.stride_pos + LINE) % tile_span;
            if self.stride_pos == 0 && span > tile_span {
                // Finished a tile pass: move to another tile.
                self.tile_base = self.rng.below(span / tile_span) * tile_span;
            }
            base + self.tile_base + self.stride_pos
        } else {
            base + self.rng.below(span / LINE) * LINE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opclass_all_is_indexed_by_discriminant() {
        for (i, class) in OpClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i);
        }
    }

    /// A stream over a hand-written program whose branches never take.
    fn fall_through_stream(ops: &[OpClass]) -> InstStream {
        let inst = |&op| StaticInst {
            op,
            dst: 1,
            src1: 2,
            src2: 3,
        };
        let program = ops.iter().map(inst).collect();
        let mut stream = InstStream::over(program, "blocks", 0, AddressProfile::friendly());
        stream.branch_bias = 0.0;
        stream
    }

    #[test]
    fn blocks_end_at_branches() {
        use OpClass::{Branch, IntAlu, Load, Store};
        let mut s = fall_through_stream(&[IntAlu, Load, Branch, Store]);
        let ops: Vec<_> = (0..4).map(|_| s.next_inst().op).collect();
        assert_eq!(ops, [IntAlu, Load, Branch, Store]);
        // The branch ended the block entered at 0; the next one was
        // entered mid-program and ended at the last index, wrapping.
        assert_eq!(s.entered, [true, false, false, true]);
        assert_eq!((s.pos, s.run), (0, 0), "end of program wraps");
        assert_eq!(s.decode_counts(), (2, 2));
        for _ in 0..4 {
            s.next_inst();
        }
        assert_eq!(s.decode_counts(), (6, 2), "re-entered blocks only hit");
    }

    #[test]
    fn straight_line_code_is_capped() {
        let mut s = fall_through_stream(&[OpClass::IntAlu; BLOCK_CAP * 2 + 1]);
        for _ in 0..BLOCK_CAP * 2 + 1 {
            s.next_inst();
        }
        let entries: Vec<_> = (0..s.entered.len()).filter(|i| s.entered[*i]).collect();
        assert_eq!(entries, [0, BLOCK_CAP, BLOCK_CAP * 2]);
    }

    #[test]
    fn mix_fractions_normalize() {
        let mix = InstMix::new(&[(OpClass::IntAlu, 3.0), (OpClass::Load, 1.0)]);
        assert!((mix.fraction(OpClass::IntAlu) - 0.75).abs() < 1e-12);
        assert!((mix.fraction(OpClass::Load) - 0.25).abs() < 1e-12);
        assert_eq!(mix.fraction(OpClass::FpDiv), 0.0);
    }

    #[test]
    #[should_panic(expected = "all zeros")]
    fn empty_mix_panics() {
        let _ = InstMix::new(&[]);
    }

    #[test]
    fn sampling_tracks_mix() {
        let mix = InstMix::new(&[(OpClass::IntAlu, 0.7), (OpClass::Load, 0.3)]);
        let mut rng = DetRng::from_label("mix");
        let n = 20_000;
        let loads = (0..n)
            .filter(|_| mix.sample(&mut rng) == OpClass::Load)
            .count();
        let frac = loads as f64 / n as f64;
        assert!((0.27..0.33).contains(&frac), "load fraction {frac}");
    }

    #[test]
    fn streams_are_deterministic_per_thread() {
        let make = |thread| {
            let mut s = InstStream::new(
                "wl",
                thread,
                InstMix::default_int(),
                AddressProfile::friendly(),
            );
            (0..100).map(|_| s.next_inst()).collect::<Vec<_>>()
        };
        assert_eq!(make(0), make(0));
        assert_ne!(make(0), make(1));
    }

    #[test]
    fn different_labels_diverge() {
        let insts = |label: &str| {
            let mut s =
                InstStream::new(label, 0, InstMix::default_int(), AddressProfile::friendly());
            (0..64).map(|_| s.next_inst().op).collect::<Vec<_>>()
        };
        assert_ne!(insts("ubuntu-18.04/dedup"), insts("ubuntu-20.04/dedup"));
    }

    #[test]
    fn memory_ops_get_addresses_others_do_not() {
        let mut s = InstStream::new("wl", 0, InstMix::default_int(), AddressProfile::friendly());
        for _ in 0..500 {
            let inst = s.next_inst();
            if inst.op.is_memory() {
                assert_ne!(inst.addr, 0);
                assert_eq!(inst.addr % LINE, 0, "addresses are line-aligned");
            } else {
                assert_eq!(inst.addr, 0);
            }
        }
        assert_eq!(s.generated(), 500);
    }

    #[test]
    fn private_addresses_partition_by_thread() {
        let profile = AddressProfile {
            working_set: 1 << 20,
            locality: 1.0,
            shared_fraction: 0.0,
        };
        let mix = InstMix::new(&[(OpClass::Load, 1.0)]);
        let mut t0 = InstStream::new("wl", 0, mix.clone(), profile);
        let mut t1 = InstStream::new("wl", 1, mix, profile);
        for _ in 0..100 {
            let a0 = t0.next_inst().addr;
            let a1 = t1.next_inst().addr;
            assert!(a0 < PRIVATE_BASE + 0x0100_0000);
            assert!(a1 >= PRIVATE_BASE + 0x0100_0000);
        }
    }

    #[test]
    fn scaled_mix_changes_one_class() {
        let mix = InstMix::new(&[(OpClass::IntAlu, 1.0), (OpClass::FpAlu, 1.0)]);
        let scaled = mix.scaled(OpClass::FpAlu, 3.0);
        assert!(scaled.fraction(OpClass::FpAlu) > mix.fraction(OpClass::FpAlu));
    }
}
