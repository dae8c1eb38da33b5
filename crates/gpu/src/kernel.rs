//! GPU kernel descriptors.
//!
//! A [`GpuKernel`] is what a dispatch looks like to the machine: a grid
//! of workgroups, per-wavefront register demand, an instruction mix,
//! and a synchronization profile. These are the knobs that decide how
//! the two register allocators behave on a given application.

/// Instruction categories the GPU pipeline distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuOp {
    /// Vector ALU op (occupies a SIMD16 for 4 cycles per wavefront).
    Valu,
    /// Scalar ALU op.
    Salu,
    /// Global memory access (through L1D/L2/DRAM).
    GlobalMem,
    /// Local data share access.
    Lds,
    /// Atomic/synchronization op on global memory.
    Atomic,
}

/// Relative frequency of each [`GpuOp`] in a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuInstMix {
    /// Weight of vector ALU work.
    pub valu: f64,
    /// Weight of scalar work.
    pub salu: f64,
    /// Weight of global memory accesses.
    pub global_mem: f64,
    /// Weight of LDS accesses.
    pub lds: f64,
    /// Weight of atomics (outside explicit lock sections).
    pub atomic: f64,
}

impl GpuInstMix {
    /// A compute-dominated mix.
    pub fn compute() -> GpuInstMix {
        GpuInstMix {
            valu: 0.72,
            salu: 0.10,
            global_mem: 0.12,
            lds: 0.05,
            atomic: 0.01,
        }
    }

    /// A memory-streaming mix.
    pub fn streaming() -> GpuInstMix {
        GpuInstMix {
            valu: 0.40,
            salu: 0.06,
            global_mem: 0.45,
            lds: 0.08,
            atomic: 0.01,
        }
    }

    /// An LDS-tiled mix (shared-memory kernels).
    pub fn lds_tiled() -> GpuInstMix {
        GpuInstMix {
            valu: 0.48,
            salu: 0.07,
            global_mem: 0.18,
            lds: 0.26,
            atomic: 0.01,
        }
    }

    /// Weights in [`GpuOp`] declaration order.
    pub fn weights(&self) -> [f64; 5] {
        [self.valu, self.salu, self.global_mem, self.lds, self.atomic]
    }
}

/// How a kernel synchronizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncProfile {
    /// No inter-workgroup synchronization.
    None,
    /// Wavefronts repeatedly acquire a global mutex, perform a critical
    /// section, and release it.
    Mutex {
        /// Critical-section length in instructions.
        hold_insts: u32,
        /// Lock acquisitions per wavefront.
        acquisitions: u32,
        /// Whether each wavefront locks its *own* lock (the HeteroSync
        /// `Uniq` local-access variants) instead of one global lock.
        unique_locks: bool,
        /// Relative cost of one acquire attempt (sleep mutexes back off
        /// more gently than spin mutexes).
        spin_intensity: f64,
    },
    /// Tree barrier across all wavefronts, repeated per iteration.
    Barrier {
        /// Barrier episodes per wavefront.
        episodes: u32,
    },
}

/// A GPU kernel dispatch descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuKernel {
    /// Kernel/application name.
    pub name: String,
    /// Input-size label (Table IV).
    pub input: String,
    /// Number of workgroups in the grid.
    pub workgroups: u32,
    /// Wavefronts per workgroup.
    pub wavefronts_per_wg: u32,
    /// Threads per wavefront (≤ 64).
    pub threads_per_wf: u32,
    /// Vector registers demanded by each wavefront.
    pub vregs_per_wf: u32,
    /// Scalar registers demanded by each wavefront.
    pub sregs_per_wf: u32,
    /// LDS bytes per workgroup.
    pub lds_per_wg: u64,
    /// Dynamic instructions per wavefront (scaled).
    pub insts_per_wf: u32,
    /// Instruction mix.
    pub mix: GpuInstMix,
    /// Synchronization behaviour.
    pub sync: SyncProfile,
    /// Per-wavefront global working set in bytes (drives cache
    /// contention as occupancy grows).
    pub working_set_per_wf: u64,
    /// Whether global accesses target a kernel-wide shared region
    /// (read-mostly tiles/tables every wavefront walks) instead of
    /// private per-wavefront buffers.
    pub shared_data: bool,
}

impl GpuKernel {
    /// Total wavefronts in the dispatch.
    pub fn total_wavefronts(&self) -> u32 {
        self.workgroups * self.wavefronts_per_wg
    }

    /// Whether the grid offers more wavefronts than the machine can
    /// hold at once (the precondition for the dynamic allocator to
    /// help, per the paper).
    pub fn oversubscribes(&self, max_resident: u32) -> bool {
        self.total_wavefronts() > max_resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(workgroups: u32, wf_per_wg: u32) -> GpuKernel {
        GpuKernel {
            name: "test".into(),
            input: "n/a".into(),
            workgroups,
            wavefronts_per_wg: wf_per_wg,
            threads_per_wf: 64,
            vregs_per_wf: 64,
            sregs_per_wf: 16,
            lds_per_wg: 0,
            insts_per_wf: 100,
            mix: GpuInstMix::compute(),
            sync: SyncProfile::None,
            working_set_per_wf: 4096,
            shared_data: false,
        }
    }

    #[test]
    fn total_wavefronts_multiplies() {
        assert_eq!(kernel(8, 4).total_wavefronts(), 32);
    }

    #[test]
    fn oversubscription_check() {
        // Table III machine: 4 CUs x 40 WFs = 160 resident max.
        assert!(!kernel(8, 4).oversubscribes(160));
        assert!(kernel(100, 2).oversubscribes(160));
    }

    #[test]
    fn mixes_are_plausible() {
        for mix in [
            GpuInstMix::compute(),
            GpuInstMix::streaming(),
            GpuInstMix::lds_tiled(),
        ] {
            let sum: f64 = mix.weights().iter().sum();
            assert!((0.9..=1.1).contains(&sum), "weights {sum}");
        }
        assert!(GpuInstMix::streaming().global_mem > GpuInstMix::compute().global_mem);
        assert!(GpuInstMix::lds_tiled().lds > GpuInstMix::compute().lds);
    }
}
