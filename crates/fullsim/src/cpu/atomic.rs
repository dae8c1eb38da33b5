//! The atomic simple CPU: functional memory, coarse timing.
//!
//! Like gem5's `AtomicSimpleCPU`, memory accesses complete atomically
//! (in zero simulated memory time) but still *functionally* traverse
//! the cache hierarchy, keeping cache/coherence state warm. Per-
//! instruction latency is just the operation's execute latency.

use super::{CpuKind, CpuModel, CpuRunResult};
use crate::isa::InstStream;
use crate::mem::MemorySystem;
use crate::stats::Stats;

/// The atomic in-order CPU model.
#[derive(Debug, Default)]
pub struct AtomicSimpleCpu {
    committed: u64,
    cycles: u64,
    memory_ops: u64,
}

impl AtomicSimpleCpu {
    /// Creates the model.
    pub fn new() -> AtomicSimpleCpu {
        AtomicSimpleCpu::default()
    }
}

impl CpuModel for AtomicSimpleCpu {
    fn kind(&self) -> CpuKind {
        CpuKind::AtomicSimple
    }

    fn run(
        &mut self,
        core: usize,
        stream: &mut InstStream,
        budget: u64,
        mem: &mut dyn MemorySystem,
    ) -> CpuRunResult {
        let mut cycles = 0;
        for _ in 0..budget {
            let inst = stream.next_inst();
            cycles += inst.op.base_latency();
            if let Some(kind) = inst.op.access_kind() {
                self.memory_ops += 1;
                // Functional access: state changes, latency ignored.
                let _ = mem.access(core, inst.addr, kind);
            }
        }
        self.committed += budget;
        self.cycles += cycles;
        CpuRunResult {
            instructions: budget,
            cycles,
        }
    }

    fn dump_stats(&self, prefix: &str, stats: &mut Stats) {
        stats.set_count(&format!("{prefix}.committedInsts"), self.committed);
        stats.set_count(&format!("{prefix}.numCycles"), self.cycles);
        stats.set_count(&format!("{prefix}.memoryOps"), self.memory_ops);
        if self.cycles > 0 {
            stats.set_scalar(
                &format!("{prefix}.ipc"),
                self.committed as f64 / self.cycles as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AddressProfile, InstMix, OpClass};
    use crate::mem::{build, MemKind};

    #[test]
    fn memory_state_is_warmed_but_latency_ignored() {
        let mut cpu = AtomicSimpleCpu::new();
        let mut mem = build(MemKind::classic_fast(), 1);
        let mix = InstMix::new(&[(OpClass::Load, 1.0)]);
        let mut stream = InstStream::new("atomic", 0, mix, AddressProfile::friendly());
        let result = cpu.run(0, &mut stream, 1000, mem.as_mut());
        // All loads, base latency 1 -> exactly 1000 cycles regardless of
        // cache misses.
        assert_eq!(result.cycles, 1000);
        let mut stats = Stats::new();
        mem.dump_stats("mem", &mut stats);
        assert!(
            stats.count("mem.l1Hits") + stats.count("mem.misses") > 0,
            "caches were touched"
        );
    }

    #[test]
    fn long_ops_cost_their_latency() {
        let mut cpu = AtomicSimpleCpu::new();
        let mut mem = build(MemKind::classic_fast(), 1);
        let mix = InstMix::new(&[(OpClass::FpDiv, 1.0)]);
        let mut stream = InstStream::new("atomic2", 0, mix, AddressProfile::friendly());
        let result = cpu.run(0, &mut stream, 100, mem.as_mut());
        assert_eq!(result.cycles, 100 * OpClass::FpDiv.base_latency());
    }

    #[test]
    fn stats_accumulate_across_runs() {
        let mut cpu = AtomicSimpleCpu::new();
        let mut mem = build(MemKind::classic_fast(), 1);
        let mut stream = InstStream::new(
            "atomic3",
            0,
            InstMix::default_int(),
            AddressProfile::friendly(),
        );
        cpu.run(0, &mut stream, 500, mem.as_mut());
        cpu.run(0, &mut stream, 500, mem.as_mut());
        let mut stats = Stats::new();
        cpu.dump_stats("cpu", &mut stats);
        assert_eq!(stats.count("cpu.committedInsts"), 1000);
        assert!(stats.scalar("cpu.ipc") > 0.0);
    }
}
