//! CPU models.
//!
//! Four models mirroring the gem5 CPUs the paper crosses in Figure 8:
//!
//! | model | fidelity |
//! |---|---|
//! | [`KvmCpu`] | virtualization passthrough: no timing, host speed |
//! | [`AtomicSimpleCpu`] | functional caches, atomic (zero-time) memory |
//! | [`TimingSimpleCpu`] | in-order, timing for memory accesses only |
//! | [`O3Cpu`] | out-of-order pipeline: ROB, issue width, FU latencies |
//!
//! All models consume the same deterministic [`InstStream`]s and drive
//! the same [`MemorySystem`], so configurations differ only where the
//! real simulator's would.

mod atomic;
mod kvm;
mod o3;
mod timing;

pub use atomic::AtomicSimpleCpu;
pub use kvm::KvmCpu;
pub use o3::{O3Config, O3Cpu};
pub use timing::TimingSimpleCpu;

use crate::isa::InstStream;
use crate::mem::MemorySystem;
use crate::spelling::{self, UnknownSpelling};
use crate::stats::Stats;
use std::fmt;

/// CPU model selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuKind {
    /// Executes code using the host's hardware; no timing simulation.
    Kvm,
    /// Atomic memory accesses, no timing simulation.
    AtomicSimple,
    /// Timing simulation for memory accesses only.
    TimingSimple,
    /// Out-of-order CPU, timing for both CPU and memory.
    O3,
}

impl CpuKind {
    /// The four CPU models crossed by the paper's Figure 8.
    pub const FIGURE8: [CpuKind; 4] = [
        CpuKind::Kvm,
        CpuKind::AtomicSimple,
        CpuKind::TimingSimple,
        CpuKind::O3,
    ];

    /// Instantiates the model.
    pub fn build(self) -> Box<dyn CpuModel> {
        match self {
            CpuKind::Kvm => Box::new(KvmCpu::new()),
            CpuKind::AtomicSimple => Box::new(AtomicSimpleCpu::new()),
            CpuKind::TimingSimple => Box::new(TimingSimpleCpu::new()),
            CpuKind::O3 => Box::new(O3Cpu::new(O3Config::default())),
        }
    }

    /// Relative wall-clock cost of simulating one instruction on this
    /// model (KVM ≪ atomic < timing < O3). Used by the boot-time model.
    pub fn simulation_weight(self) -> f64 {
        match self {
            CpuKind::Kvm => 0.02,
            CpuKind::AtomicSimple => 1.0,
            CpuKind::TimingSimple => 2.6,
            CpuKind::O3 => 9.0,
        }
    }

    /// The CLI's short spelling (`kvm`, `atomic`, `timing`, `o3`),
    /// which the CLI campaign also records as its `cpu` param.
    pub fn short(self) -> &'static str {
        match self {
            CpuKind::Kvm => "kvm",
            CpuKind::AtomicSimple => "atomic",
            CpuKind::TimingSimple => "timing",
            CpuKind::O3 => "o3",
        }
    }

    /// The model whose [`CpuKind::short`] spelling is `text`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSpelling`] for any other text.
    pub fn from_short(text: &str) -> Result<CpuKind, UnknownSpelling> {
        spelling::parse(&Self::FIGURE8, text, "cpu model", Self::short)
    }
}

impl fmt::Display for CpuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CpuKind::Kvm => "kvmCPU",
            CpuKind::AtomicSimple => "AtomicSimpleCPU",
            CpuKind::TimingSimple => "TimingSimpleCPU",
            CpuKind::O3 => "O3CPU",
        };
        f.write_str(s)
    }
}

spelling::from_display!(CpuKind, CpuKind::FIGURE8, "cpu model");

/// Result of running a batch of instructions on a CPU model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuRunResult {
    /// Instructions committed.
    pub instructions: u64,
    /// Core cycles consumed.
    pub cycles: u64,
}

impl CpuRunResult {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

/// Whether the taken branch that is dynamic instruction `index` of its
/// core is mispredicted at the given `rate`: a deterministic
/// pseudo-random draw from the index alone (streams carry no predictor
/// state).
fn mispredicted(index: u64, rate: f64) -> bool {
    let hash = simart_codec::fnv1a(&index.to_le_bytes());
    ((hash % 10_000) as f64 / 10_000.0) < rate
}

/// A CPU timing model.
pub trait CpuModel {
    /// Which model this is.
    fn kind(&self) -> CpuKind;

    /// Executes `budget` instructions from `stream` on logical core
    /// `core` against `mem`, returning committed instructions and
    /// cycles.
    fn run(
        &mut self,
        core: usize,
        stream: &mut InstStream,
        budget: u64,
        mem: &mut dyn MemorySystem,
    ) -> CpuRunResult;

    /// Dumps model-specific statistics under `prefix`.
    fn dump_stats(&self, prefix: &str, stats: &mut Stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AddressProfile, InstMix};
    use crate::mem::{build, MemKind};

    fn stream() -> InstStream {
        InstStream::new(
            "cpu-test",
            0,
            InstMix::default_int(),
            AddressProfile::friendly(),
        )
    }

    #[test]
    fn display_names_match_the_paper() {
        assert_eq!(CpuKind::Kvm.to_string(), "kvmCPU");
        assert_eq!(CpuKind::AtomicSimple.to_string(), "AtomicSimpleCPU");
        assert_eq!(CpuKind::TimingSimple.to_string(), "TimingSimpleCPU");
        assert_eq!(CpuKind::O3.to_string(), "O3CPU");
    }

    #[test]
    fn spellings_read_back() {
        for kind in CpuKind::FIGURE8 {
            assert_eq!(kind.to_string().parse(), Ok(kind));
            assert_eq!(CpuKind::from_short(kind.short()), Ok(kind));
        }
        assert!("kvm".parse::<CpuKind>().is_err());
        assert!(CpuKind::from_short("kvmCPU").is_err());
    }

    #[test]
    fn all_models_commit_the_budget() {
        for kind in CpuKind::FIGURE8 {
            let mut cpu = kind.build();
            let mut mem = build(MemKind::classic_coherent(), 1);
            let result = cpu.run(0, &mut stream(), 5_000, mem.as_mut());
            assert_eq!(result.instructions, 5_000, "{kind}");
            assert!(result.cycles > 0, "{kind}");
        }
    }

    #[test]
    fn fidelity_ladder_orders_cpi() {
        // KVM reports the fewest cycles; O3 beats the in-order timing
        // model on ILP but pays memory latencies the atomic model skips.
        let run = |kind: CpuKind| {
            let mut cpu = kind.build();
            let mut mem = build(MemKind::classic_coherent(), 1);
            cpu.run(0, &mut stream(), 20_000, mem.as_mut()).cpi()
        };
        let kvm = run(CpuKind::Kvm);
        let atomic = run(CpuKind::AtomicSimple);
        let timing = run(CpuKind::TimingSimple);
        let o3 = run(CpuKind::O3);
        assert!(kvm < atomic, "kvm {kvm} vs atomic {atomic}");
        assert!(atomic < timing, "atomic {atomic} vs timing {timing}");
        assert!(o3 < timing, "o3 {o3} should extract ILP vs timing {timing}");
        assert!(o3 > kvm, "o3 {o3} still pays timing kvm {kvm} skips");
    }

    #[test]
    fn simulation_weight_ladder() {
        assert!(CpuKind::Kvm.simulation_weight() < CpuKind::AtomicSimple.simulation_weight());
        assert!(CpuKind::TimingSimple.simulation_weight() < CpuKind::O3.simulation_weight());
    }

    #[test]
    fn zero_budget_is_empty_result() {
        let mut cpu = CpuKind::TimingSimple.build();
        let mut mem = build(MemKind::classic_fast(), 1);
        let result = cpu.run(0, &mut stream(), 0, mem.as_mut());
        assert_eq!(result, CpuRunResult::default());
        assert_eq!(result.cpi(), 0.0);
    }
}
