//! Register allocation policies.
//!
//! The paper's use-case 3 compares the two allocators of the public
//! GCN3 GPU model:
//!
//! * **simple** — schedule one wavefront per SIMD16 at a time. Low
//!   occupancy, but it limits the stalls the model's simplistic
//!   dependence tracking produces.
//! * **dynamic** — admit wavefronts up to the per-CU maximum (40)
//!   whenever enough vector and scalar registers remain, monitoring
//!   per-wavefront register requirements.

use crate::config::GpuConfig;
use crate::kernel::GpuKernel;
use std::fmt;

/// Which register allocator to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocPolicy {
    /// One wavefront per SIMD16 at a time.
    Simple,
    /// Up to the maximum wavefronts per CU, bounded by registers.
    Dynamic,
}

impl fmt::Display for AllocPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocPolicy::Simple => f.write_str("simple"),
            AllocPolicy::Dynamic => f.write_str("dynamic"),
        }
    }
}

/// Tracks the register files of one compute unit and admits wavefronts
/// according to the configured policy.
#[derive(Debug, Clone)]
pub struct RegisterFile {
    policy: AllocPolicy,
    vregs_total: u32,
    sregs_total: u32,
    vregs_used: u32,
    sregs_used: u32,
    resident_per_simd: Vec<u32>,
    max_per_simd: u32,
    peak_resident: u32,
}

impl RegisterFile {
    /// Creates the register file of one CU.
    pub fn new(config: &GpuConfig, policy: AllocPolicy) -> RegisterFile {
        RegisterFile {
            policy,
            vregs_total: config.vregs_per_cu,
            sregs_total: config.sregs_per_cu,
            vregs_used: 0,
            sregs_used: 0,
            resident_per_simd: vec![0; config.simds_per_cu],
            max_per_simd: config.max_wavefronts_per_simd as u32,
            peak_resident: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> AllocPolicy {
        self.policy
    }

    /// Currently resident wavefronts on the CU.
    pub fn resident(&self) -> u32 {
        self.resident_per_simd.iter().sum()
    }

    /// Highest resident count observed.
    pub fn peak_resident(&self) -> u32 {
        self.peak_resident
    }

    /// Vector registers currently allocated.
    pub fn vregs_used(&self) -> u32 {
        self.vregs_used
    }

    /// Tries to admit one wavefront of `kernel`, returning the SIMD it
    /// was placed on.
    ///
    /// Admission requires free registers under both policies; the
    /// simple policy additionally caps each SIMD at one resident
    /// wavefront.
    pub fn try_admit(&mut self, kernel: &GpuKernel) -> Option<usize> {
        if self.vregs_used + kernel.vregs_per_wf > self.vregs_total
            || self.sregs_used + kernel.sregs_per_wf > self.sregs_total
        {
            return None;
        }
        let cap = match self.policy {
            AllocPolicy::Simple => 1,
            AllocPolicy::Dynamic => self.max_per_simd,
        };
        let simd = self
            .resident_per_simd
            .iter()
            .enumerate()
            .filter(|(_, count)| **count < cap)
            .min_by_key(|(_, count)| **count)
            .map(|(simd, _)| simd)?;
        self.resident_per_simd[simd] += 1;
        self.vregs_used += kernel.vregs_per_wf;
        self.sregs_used += kernel.sregs_per_wf;
        self.peak_resident = self.peak_resident.max(self.resident());
        Some(simd)
    }

    /// Releases a completed wavefront's registers and SIMD slot.
    ///
    /// # Panics
    ///
    /// Panics on accounting underflow — releasing a wavefront that was
    /// never admitted is a simulator bug.
    pub fn release(&mut self, kernel: &GpuKernel, simd: usize) {
        assert!(
            self.resident_per_simd[simd] > 0,
            "no resident wavefront on SIMD {simd}"
        );
        assert!(
            self.vregs_used >= kernel.vregs_per_wf,
            "vreg accounting underflow"
        );
        assert!(
            self.sregs_used >= kernel.sregs_per_wf,
            "sreg accounting underflow"
        );
        self.resident_per_simd[simd] -= 1;
        self.vregs_used -= kernel.vregs_per_wf;
        self.sregs_used -= kernel.sregs_per_wf;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{GpuInstMix, SyncProfile};

    fn kernel(vregs: u32) -> GpuKernel {
        GpuKernel {
            name: "k".into(),
            input: String::new(),
            workgroups: 100,
            wavefronts_per_wg: 1,
            threads_per_wf: 64,
            vregs_per_wf: vregs,
            sregs_per_wf: 16,
            lds_per_wg: 0,
            insts_per_wf: 10,
            mix: GpuInstMix::compute(),
            sync: SyncProfile::None,
            working_set_per_wf: 1024,
            shared_data: false,
        }
    }

    #[test]
    fn simple_caps_one_wavefront_per_simd() {
        let config = GpuConfig::table3();
        let mut rf = RegisterFile::new(&config, AllocPolicy::Simple);
        let k = kernel(64);
        let mut admitted = 0;
        while rf.try_admit(&k).is_some() {
            admitted += 1;
        }
        assert_eq!(admitted, 4, "one per SIMD16");
    }

    #[test]
    fn dynamic_admits_up_to_register_capacity() {
        let config = GpuConfig::table3();
        let mut rf = RegisterFile::new(&config, AllocPolicy::Dynamic);
        // 512 vregs per wavefront: 8192/512 = 16 fit by registers,
        // which is below the 40-wavefront occupancy cap.
        let k = kernel(512);
        let mut admitted = 0;
        while rf.try_admit(&k).is_some() {
            admitted += 1;
        }
        assert_eq!(admitted, 16);
        assert_eq!(rf.vregs_used(), 8192);
    }

    #[test]
    fn dynamic_caps_at_max_wavefronts() {
        let config = GpuConfig::table3();
        let mut rf = RegisterFile::new(&config, AllocPolicy::Dynamic);
        // Tiny register demand: occupancy cap (40) binds first.
        let k = kernel(8);
        let mut admitted = 0;
        while rf.try_admit(&k).is_some() {
            admitted += 1;
        }
        assert_eq!(admitted, 40);
        assert_eq!(rf.peak_resident(), 40);
    }

    #[test]
    fn release_frees_capacity() {
        let config = GpuConfig::table3();
        let mut rf = RegisterFile::new(&config, AllocPolicy::Simple);
        let k = kernel(64);
        let simd = rf.try_admit(&k).unwrap();
        assert_eq!(rf.resident(), 1);
        rf.release(&k, simd);
        assert_eq!(rf.resident(), 0);
        assert_eq!(rf.vregs_used(), 0);
        assert!(rf.try_admit(&k).is_some());
    }

    #[test]
    #[should_panic(expected = "no resident wavefront")]
    fn double_release_panics() {
        let config = GpuConfig::table3();
        let mut rf = RegisterFile::new(&config, AllocPolicy::Simple);
        let k = kernel(64);
        let simd = rf.try_admit(&k).unwrap();
        rf.release(&k, simd);
        rf.release(&k, simd);
    }

    #[test]
    fn admission_balances_across_simds() {
        let config = GpuConfig::table3();
        let mut rf = RegisterFile::new(&config, AllocPolicy::Dynamic);
        let k = kernel(8);
        let mut placements = vec![0u32; config.simds_per_cu];
        for _ in 0..8 {
            placements[rf.try_admit(&k).unwrap()] += 1;
        }
        assert_eq!(placements, vec![2, 2, 2, 2]);
    }
}
