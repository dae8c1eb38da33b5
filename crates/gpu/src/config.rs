//! GPU machine configuration (the paper's Table III).

use simart_fullsim::ticks::Clock;

/// Fidelity of the GPU model's dependence tracking.
///
/// The paper attributes the dynamic allocator's surprising average loss
/// to the public model's *overly simplistic* dependence tracking, and
/// suggests improving it "could pay significant dividends". This knob
/// implements that ablation: [`DependenceTracking::Improved`] removes
/// the occupancy-scaled scoreboard/replay stalls (issue logic that can
/// disambiguate in-flight accesses precisely), letting the benefit of
/// extra wavefronts show undiluted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DependenceTracking {
    /// The public GCN3 model's behaviour (the paper's measurements).
    #[default]
    Simplistic,
    /// The hypothetical improved tracker of the paper's future work.
    Improved,
}

/// Configuration of the simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of compute units.
    pub cus: usize,
    /// SIMD16 vector units per CU.
    pub simds_per_cu: usize,
    /// Lanes per SIMD unit.
    pub simd_width: usize,
    /// GPU clock in MHz.
    pub clock_mhz: u64,
    /// Maximum wavefronts resident per SIMD.
    pub max_wavefronts_per_simd: usize,
    /// Vector registers per CU.
    pub vregs_per_cu: u32,
    /// Scalar registers per CU.
    pub sregs_per_cu: u32,
    /// Local data share per CU, bytes.
    pub lds_bytes_per_cu: u64,
    /// L1 instruction cache shared between every 4 CUs, bytes.
    pub l1i_bytes: u64,
    /// L1 data cache per CU, bytes.
    pub l1d_bytes_per_cu: u64,
    /// Unified L2, bytes.
    pub l2_bytes: u64,
    /// Dependence-tracking fidelity (see [`DependenceTracking`]).
    pub dep_tracking: DependenceTracking,
}

impl GpuConfig {
    /// The exact configuration of the paper's Table III.
    pub fn table3() -> GpuConfig {
        GpuConfig {
            cus: 4,
            simds_per_cu: 4,
            simd_width: 16,
            clock_mhz: 1000,
            max_wavefronts_per_simd: 10,
            vregs_per_cu: 8 * 1024,
            sregs_per_cu: 8 * 1024,
            lds_bytes_per_cu: 64 * 1024,
            l1i_bytes: 32 * 1024,
            l1d_bytes_per_cu: 16 * 1024,
            l2_bytes: 256 * 1024,
            dep_tracking: DependenceTracking::Simplistic,
        }
    }

    /// The Table III machine with the future-work improved dependence
    /// tracker (for the ablation study).
    pub fn table3_improved_tracking() -> GpuConfig {
        GpuConfig {
            dep_tracking: DependenceTracking::Improved,
            ..Self::table3()
        }
    }

    /// Maximum wavefronts resident per CU.
    pub fn max_wavefronts_per_cu(&self) -> usize {
        self.max_wavefronts_per_simd * self.simds_per_cu
    }

    /// The GPU clock domain.
    pub fn clock(&self) -> Clock {
        Clock::from_mhz(self.clock_mhz)
    }

    /// Cycles a 64-thread wavefront occupies one SIMD16 per vector
    /// instruction.
    pub fn cycles_per_vector_inst(&self, threads_per_wf: usize) -> u64 {
        (threads_per_wf as u64).div_ceil(self.simd_width as u64)
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::table3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values_match_the_paper() {
        let c = GpuConfig::table3();
        assert_eq!(c.cus, 4);
        assert_eq!(c.simds_per_cu, 4);
        assert_eq!(c.clock_mhz, 1000);
        assert_eq!(c.max_wavefronts_per_cu(), 40, "10 per SIMD16, 40 per CU");
        assert_eq!(c.vregs_per_cu, 8192);
        assert_eq!(c.sregs_per_cu, 8192);
        assert_eq!(c.lds_bytes_per_cu, 64 * 1024);
        assert_eq!(c.l1i_bytes, 32 * 1024);
        assert_eq!(c.l1d_bytes_per_cu, 16 * 1024);
        assert_eq!(c.l2_bytes, 256 * 1024);
    }

    #[test]
    fn wavefront_occupies_simd_for_four_cycles() {
        let c = GpuConfig::table3();
        assert_eq!(c.cycles_per_vector_inst(64), 4);
        assert_eq!(c.cycles_per_vector_inst(16), 1);
        assert_eq!(c.cycles_per_vector_inst(1), 1);
    }

    #[test]
    fn clock_is_one_ghz() {
        assert_eq!(GpuConfig::table3().clock().period(), 1000);
    }
}
