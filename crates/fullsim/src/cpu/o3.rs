//! The out-of-order CPU model.
//!
//! A dataflow-limited pipeline model in the style of gem5's `O3CPU`:
//! instructions issue when their source registers are ready, bounded by
//! fetch/issue width, a reorder buffer, and per-class functional-unit
//! latencies. Memory operations take their latency from the memory
//! system; mispredicted branches stall the front end.
//!
//! The model tracks per-register ready cycles and per-instruction
//! completion cycles — enough micro-architecture to let independent
//! work overlap (ILP) while dependent chains serialize, which is what
//! separates `O3CPU` from `TimingSimpleCPU` in the paper's data.

use super::{mispredicted, CpuKind, CpuModel, CpuRunResult};
use crate::isa::{InstStream, OpClass};
use crate::mem::MemorySystem;
use crate::stats::Stats;
use std::collections::VecDeque;

/// Configuration of the out-of-order pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct O3Config {
    /// Instructions fetched per cycle.
    pub fetch_width: u64,
    /// Instructions issued per cycle.
    pub issue_width: u64,
    /// Reorder-buffer capacity.
    pub rob_size: usize,
    /// Front-end refill penalty on a mispredicted branch.
    pub mispredict_penalty: u64,
    /// Mispredict probability for taken branches.
    pub mispredict_rate: f64,
}

impl Default for O3Config {
    fn default() -> Self {
        O3Config {
            fetch_width: 8,
            issue_width: 8,
            rob_size: 192,
            mispredict_penalty: 14,
            mispredict_rate: 0.04,
        }
    }
}

/// The out-of-order CPU model.
#[derive(Debug)]
pub struct O3Cpu {
    config: O3Config,
    committed: u64,
    cycles: u64,
    mispredicts: u64,
    rob_stalls: u64,
}

impl O3Cpu {
    /// Creates the model with the given pipeline configuration.
    pub fn new(config: O3Config) -> O3Cpu {
        O3Cpu {
            config,
            committed: 0,
            cycles: 0,
            mispredicts: 0,
            rob_stalls: 0,
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &O3Config {
        &self.config
    }
}

impl CpuModel for O3Cpu {
    fn kind(&self) -> CpuKind {
        CpuKind::O3
    }

    fn run(
        &mut self,
        core: usize,
        stream: &mut InstStream,
        budget: u64,
        mem: &mut dyn MemorySystem,
    ) -> CpuRunResult {
        if budget == 0 {
            return CpuRunResult::default();
        }
        let cfg = self.config;
        // Ready cycle per architectural register (33 registers: x0..x32).
        let mut reg_ready = [0u64; 33];
        // Completion cycles of in-flight instructions, oldest first
        // (stand-in for the ROB).
        let mut rob: VecDeque<u64> = VecDeque::with_capacity(cfg.rob_size);
        let mut fetch_stall_until = 0u64;
        let mut last_complete = 0u64;

        for i in 0..budget {
            let inst = stream.next_inst();
            let fetch_cycle = (i / cfg.fetch_width).max(fetch_stall_until);

            // ROB capacity: the i-th instruction cannot dispatch until
            // the (i - rob_size)-th has completed.
            let rob_ready = if rob.len() >= cfg.rob_size {
                let oldest = rob.pop_front().expect("rob non-empty");
                if oldest > fetch_cycle {
                    self.rob_stalls += 1;
                }
                oldest
            } else {
                0
            };

            // Issue once sources are ready, bounded by issue bandwidth
            // (approximated by fetch bandwidth here — both are 8 wide).
            let deps = reg_ready[inst.src1 as usize].max(reg_ready[inst.src2 as usize]);
            let issue = fetch_cycle.max(rob_ready).max(deps);

            let mut latency = inst.op.base_latency();
            if let Some(kind) = inst.op.access_kind() {
                latency += mem.access(core, inst.addr, kind);
            }
            let complete = issue + latency;
            reg_ready[inst.dst as usize] = complete;
            rob.push_back(complete);
            last_complete = last_complete.max(complete);

            if inst.op == OpClass::Branch
                && inst.taken
                && mispredicted(self.committed + i, cfg.mispredict_rate)
            {
                self.mispredicts += 1;
                // Front end restarts after the branch resolves.
                fetch_stall_until = complete + cfg.mispredict_penalty;
            }
        }
        let cycles = last_complete.max(budget / cfg.fetch_width).max(1);
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
        stats.set_count(&format!("{prefix}.branchMispredicts"), self.mispredicts);
        stats.set_count(&format!("{prefix}.robStalls"), self.rob_stalls);
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
    use crate::isa::{AddressProfile, InstMix};
    use crate::mem::{build, MemKind};

    fn run_with(mix: InstMix, budget: u64) -> CpuRunResult {
        let mut cpu = O3Cpu::new(O3Config::default());
        let mut mem = build(MemKind::classic_coherent(), 1);
        let mut stream = InstStream::new("o3", 0, mix, AddressProfile::friendly());
        cpu.run(0, &mut stream, budget, mem.as_mut())
    }

    #[test]
    fn extracts_ilp_from_independent_work() {
        // Pure ALU work: IPC should exceed 1 (wide issue) though
        // dependency chains keep it below the fetch width.
        let result = run_with(InstMix::new(&[(OpClass::IntAlu, 1.0)]), 20_000);
        let ipc = 1.0 / result.cpi();
        assert!(ipc > 1.5, "ipc {ipc}");
        assert!(ipc <= 8.0, "ipc {ipc} cannot beat fetch width");
    }

    #[test]
    fn long_latency_chains_serialize() {
        let div = run_with(InstMix::new(&[(OpClass::FpDiv, 1.0)]), 5_000);
        let alu = run_with(InstMix::new(&[(OpClass::IntAlu, 1.0)]), 5_000);
        assert!(
            div.cpi() > alu.cpi() * 2.0,
            "div {}, alu {}",
            div.cpi(),
            alu.cpi()
        );
    }

    #[test]
    fn smaller_rob_hurts() {
        let mix = InstMix::new(&[(OpClass::Load, 0.4), (OpClass::IntAlu, 0.6)]);
        let cold = AddressProfile {
            working_set: 32 << 20,
            locality: 0.0,
            shared_fraction: 0.0,
        };
        let run = |rob_size| {
            let mut cpu = O3Cpu::new(O3Config {
                rob_size,
                ..O3Config::default()
            });
            let mut mem = build(MemKind::classic_coherent(), 1);
            let mut stream = InstStream::new("o3-rob", 0, mix.clone(), cold);
            cpu.run(0, &mut stream, 20_000, mem.as_mut()).cpi()
        };
        let big = run(192);
        let tiny = run(4);
        assert!(
            tiny > big,
            "tiny-ROB CPI {tiny} should exceed big-ROB CPI {big}"
        );
    }

    #[test]
    fn mispredicts_counted() {
        let mut cpu = O3Cpu::new(O3Config::default());
        let mut mem = build(MemKind::classic_fast(), 1);
        let mix = InstMix::new(&[(OpClass::Branch, 1.0)]);
        let mut stream = InstStream::new("o3-br", 0, mix, AddressProfile::friendly());
        cpu.run(0, &mut stream, 50_000, mem.as_mut());
        assert!(cpu.mispredicts > 100, "mispredicts {}", cpu.mispredicts);
        let mut stats = Stats::new();
        cpu.dump_stats("cpu", &mut stats);
        assert!(stats.count("cpu.branchMispredicts") > 0);
    }

    #[test]
    fn determinism() {
        let a = run_with(InstMix::default_int(), 10_000);
        let b = run_with(InstMix::default_int(), 10_000);
        assert_eq!(a, b);
    }
}
