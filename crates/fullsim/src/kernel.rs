//! Linux kernel versions and the staged boot model.
//!
//! The boot workload is what the paper's use-case 2 exercises across
//! 480 configurations. Boot proceeds through the canonical stages of a
//! Linux bring-up; each stage contributes instructions whose cost the
//! configured CPU/memory models then determine.

use crate::spelling::{self, UnknownSpelling};
use std::fmt;

/// A Linux kernel release line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelVersion {
    /// v4.4 LTS (2016).
    V4_4,
    /// v4.9 LTS (2016).
    V4_9,
    /// v4.14 LTS (2017).
    V4_14,
    /// v4.15 (Ubuntu 18.04 stock kernel).
    V4_15,
    /// v4.19 LTS (2018).
    V4_19,
    /// v5.4 LTS (2019; Ubuntu 20.04 stock kernel).
    V5_4,
}

impl KernelVersion {
    /// The five LTS kernels crossed by the paper's Figure 8.
    pub const FIGURE8: [KernelVersion; 5] = [
        KernelVersion::V4_4,
        KernelVersion::V4_9,
        KernelVersion::V4_14,
        KernelVersion::V4_19,
        KernelVersion::V5_4,
    ];

    /// Every kernel release line.
    pub const ALL: [KernelVersion; 6] = [
        KernelVersion::V4_4,
        KernelVersion::V4_9,
        KernelVersion::V4_14,
        KernelVersion::V4_15,
        KernelVersion::V4_19,
        KernelVersion::V5_4,
    ];

    /// Full version string (the specific point releases the paper's
    /// resources ship).
    pub fn release(self) -> &'static str {
        match self {
            KernelVersion::V4_4 => "4.4.186",
            KernelVersion::V4_9 => "4.9.186",
            KernelVersion::V4_14 => "4.14.134",
            KernelVersion::V4_15 => "4.15.18",
            KernelVersion::V4_19 => "4.19.83",
            KernelVersion::V5_4 => "5.4.51",
        }
    }

    /// The version whose [`KernelVersion::release`] is `text`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSpelling`] for any other text.
    pub fn from_release(text: &str) -> Result<KernelVersion, UnknownSpelling> {
        spelling::parse(&Self::ALL, text, "kernel release", Self::release)
    }

    /// The version whose release line is `text` (`4.19` for
    /// `4.19.83`): the CLI's spelling.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSpelling`] for any other text.
    pub fn from_line(text: &str) -> Result<KernelVersion, UnknownSpelling> {
        spelling::parse(&Self::ALL, text, "kernel line", |kernel| {
            kernel
                .release()
                .rsplit_once('.')
                .map_or("", |(line, _)| line)
        })
    }

    /// Relative boot instruction cost (newer kernels do more work during
    /// bring-up).
    pub fn boot_factor(self) -> f64 {
        match self {
            KernelVersion::V4_4 => 1.00,
            KernelVersion::V4_9 => 1.04,
            KernelVersion::V4_14 => 1.09,
            KernelVersion::V4_15 => 1.10,
            KernelVersion::V4_19 => 1.15,
            KernelVersion::V5_4 => 1.22,
        }
    }

    /// Relative cost of futex/scheduler synchronization paths (newer
    /// kernels are cheaper).
    pub fn sync_factor(self) -> f64 {
        match self {
            KernelVersion::V4_4 => 1.15,
            KernelVersion::V4_9 => 1.10,
            KernelVersion::V4_14 => 1.05,
            KernelVersion::V4_15 => 1.03,
            KernelVersion::V4_19 => 1.00,
            KernelVersion::V5_4 => 0.92,
        }
    }
}

impl fmt::Display for KernelVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.release())
    }
}

/// How far the system boots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BootKind {
    /// Boot the kernel only, then exit (the paper's "booting only the
    /// Linux kernel").
    KernelOnly,
    /// Boot to runlevel 5 (multi-user) under systemd.
    Systemd,
}

impl BootKind {
    /// Both boot targets.
    pub const ALL: [BootKind; 2] = [BootKind::KernelOnly, BootKind::Systemd];
}

impl fmt::Display for BootKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootKind::KernelOnly => f.write_str("kernel-only"),
            BootKind::Systemd => f.write_str("systemd-runlevel5"),
        }
    }
}

spelling::from_display!(BootKind, BootKind::ALL, "boot kind");

/// The canonical boot stages, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BootStage {
    /// Kernel image decompression.
    Decompress,
    /// Early memory-management bring-up.
    EarlyMm,
    /// Scheduler and SMP initialization.
    SchedInit,
    /// Device/driver probing.
    DriverProbe,
    /// Root filesystem mount.
    RootfsMount,
    /// Init system (systemd) to the multi-user target.
    InitSystem,
}

impl BootStage {
    /// Every stage, in boot order.
    pub const ALL: [BootStage; 6] = [
        BootStage::Decompress,
        BootStage::EarlyMm,
        BootStage::SchedInit,
        BootStage::DriverProbe,
        BootStage::RootfsMount,
        BootStage::InitSystem,
    ];

    /// Stages executed for the given boot kind, in order.
    pub fn sequence(kind: BootKind) -> &'static [BootStage] {
        const KERNEL: &[BootStage] = BootStage::ALL.split_at(5).0;
        match kind {
            BootKind::KernelOnly => KERNEL,
            BootKind::Systemd => &Self::ALL,
        }
    }

    /// Baseline dynamic instructions of the stage, in millions, on a
    /// single core with kernel factor 1.0.
    pub fn base_minsts(self) -> u64 {
        match self {
            BootStage::Decompress => 45,
            BootStage::EarlyMm => 60,
            BootStage::SchedInit => 25,
            BootStage::DriverProbe => 110,
            BootStage::RootfsMount => 70,
            BootStage::InitSystem => 620,
        }
    }

    /// Extra instructions per additional core (SMP bring-up work), in
    /// millions.
    pub fn per_core_minsts(self) -> u64 {
        match self {
            BootStage::SchedInit => 8,
            BootStage::DriverProbe => 2,
            BootStage::InitSystem => 12,
            _ => 0,
        }
    }

    /// Total instructions for this stage under a configuration.
    pub fn insts(self, kernel: KernelVersion, cores: u32) -> u64 {
        let base = self.base_minsts() + self.per_core_minsts() * (cores.saturating_sub(1)) as u64;
        ((base * 1_000_000) as f64 * kernel.boot_factor()) as u64
    }
}

impl fmt::Display for BootStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BootStage::Decompress => "decompress",
            BootStage::EarlyMm => "early-mm",
            BootStage::SchedInit => "sched-init",
            BootStage::DriverProbe => "driver-probe",
            BootStage::RootfsMount => "rootfs-mount",
            BootStage::InitSystem => "init-system",
        };
        f.write_str(s)
    }
}

spelling::from_display!(BootStage, BootStage::ALL, "boot stage");

/// Total boot instructions for a configuration.
pub fn boot_insts(kind: BootKind, kernel: KernelVersion, cores: u32) -> u64 {
    BootStage::sequence(kind)
        .iter()
        .map(|s| s.insts(kernel, cores))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spellings_read_back() {
        for kernel in KernelVersion::ALL {
            assert_eq!(KernelVersion::from_release(kernel.release()), Ok(kernel));
        }
        assert_eq!(KernelVersion::from_line("4.19"), Ok(KernelVersion::V4_19));
        assert_eq!(KernelVersion::from_line("5.4"), Ok(KernelVersion::V5_4));
        assert!(KernelVersion::from_line("4.1").is_err());
        for boot in BootKind::ALL {
            assert_eq!(boot.to_string().parse(), Ok(boot));
        }
        for stage in BootStage::ALL {
            assert_eq!(stage.to_string().parse(), Ok(stage));
        }
        assert_eq!(BootStage::sequence(BootKind::KernelOnly).len(), 5);
    }

    #[test]
    fn figure8_uses_five_lts_kernels() {
        assert_eq!(KernelVersion::FIGURE8.len(), 5);
        // Ubuntu 18.04's 4.15 is not an LTS line and is not in the set.
        assert!(!KernelVersion::FIGURE8.contains(&KernelVersion::V4_15));
    }

    #[test]
    fn systemd_boot_costs_more_than_kernel_only() {
        let kernel_only = boot_insts(BootKind::KernelOnly, KernelVersion::V5_4, 1);
        let systemd = boot_insts(BootKind::Systemd, KernelVersion::V5_4, 1);
        assert!(systemd > kernel_only * 2, "{systemd} vs {kernel_only}");
    }

    #[test]
    fn newer_kernels_boot_more_instructions() {
        let old = boot_insts(BootKind::Systemd, KernelVersion::V4_4, 1);
        let new = boot_insts(BootKind::Systemd, KernelVersion::V5_4, 1);
        assert!(new > old);
    }

    #[test]
    fn more_cores_mean_more_smp_work() {
        let one = boot_insts(BootKind::Systemd, KernelVersion::V4_19, 1);
        let eight = boot_insts(BootKind::Systemd, KernelVersion::V4_19, 8);
        assert!(eight > one);
        // But the growth is modest (SMP bring-up, not a full re-boot).
        assert!((eight as f64) < one as f64 * 1.3);
    }

    #[test]
    fn release_strings_match_the_resources() {
        assert_eq!(KernelVersion::V4_15.release(), "4.15.18");
        assert_eq!(KernelVersion::V5_4.release(), "5.4.51");
        assert_eq!(KernelVersion::V5_4.to_string(), "v5.4.51");
    }

    #[test]
    fn stage_sequences_are_ordered_prefixes() {
        let short = BootStage::sequence(BootKind::KernelOnly);
        let full = BootStage::sequence(BootKind::Systemd);
        assert_eq!(&full[..short.len()], short);
        assert_eq!(full.last(), Some(&BootStage::InitSystem));
    }

    #[test]
    fn newer_kernels_have_cheaper_sync() {
        assert!(KernelVersion::V5_4.sync_factor() < KernelVersion::V4_4.sync_factor());
    }
}
