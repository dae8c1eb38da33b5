//! Operating-system images and their performance character.
//!
//! The paper's use-case 1 observes that the *same* benchmark binaryset
//! behaves differently across Ubuntu LTS releases: Ubuntu 20.04 executes
//! more instructions (newer GCC 9.3 codegen vs 18.04's 7.4/7.5) but at
//! higher CPU utilization, netting shorter run times. This module
//! captures that cross-stack effect as an [`OsProfile`] applied when a
//! workload is lowered to instruction streams.

use crate::kernel::KernelVersion;
use crate::spelling;
use std::fmt;

/// A user-land disk image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsImage {
    /// Ubuntu 18.04 LTS server (GCC 7.4 tool-chain, kernel 4.15 line).
    Ubuntu1804,
    /// Ubuntu 20.04 LTS server (GCC 9.3 tool-chain, kernel 5.4 line).
    Ubuntu2004,
}

impl fmt::Display for OsImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsImage::Ubuntu1804 => f.write_str("ubuntu-18.04"),
            OsImage::Ubuntu2004 => f.write_str("ubuntu-20.04"),
        }
    }
}

spelling::from_display!(OsImage, OsImage::ALL, "OS image");

/// Performance-relevant character of an OS image.
#[derive(Debug, Clone, PartialEq)]
pub struct OsProfile {
    /// Bundled system compiler version.
    pub gcc_version: &'static str,
    /// Multiplier on dynamic instruction count (codegen differences;
    /// newer compilers unroll/vectorize more aggressively here).
    pub inst_factor: f64,
    /// Multiplier on effective CPI (lower = better utilization from
    /// newer runtime libraries and scheduler behaviour).
    pub cpi_factor: f64,
    /// Multiplier on synchronization cost (newer futex/scheduler paths
    /// are cheaper).
    pub sync_factor: f64,
    /// Kernel version the stock image boots.
    pub default_kernel: KernelVersion,
}

impl OsImage {
    /// The image's performance profile.
    pub fn profile(self) -> OsProfile {
        match self {
            OsImage::Ubuntu1804 => OsProfile {
                gcc_version: "7.4",
                inst_factor: 1.0,
                cpi_factor: 1.0,
                sync_factor: 1.0,
                default_kernel: KernelVersion::V4_15,
            },
            OsImage::Ubuntu2004 => OsProfile {
                gcc_version: "9.3",
                // More instructions, but noticeably better utilization —
                // the combination the paper measured.
                inst_factor: 1.12,
                cpi_factor: 0.76,
                sync_factor: 0.62,
                default_kernel: KernelVersion::V5_4,
            },
        }
    }

    /// Extra parallel efficiency some applications gain from the newer
    /// user-land (the paper calls out `blackscholes` and `ferret` as
    /// speeding up most on 20.04).
    pub fn parallel_bonus(self, workload: &str) -> f64 {
        match (self, workload) {
            (OsImage::Ubuntu2004, "blackscholes") => 0.022,
            (OsImage::Ubuntu2004, "ferret") => 0.028,
            (OsImage::Ubuntu2004, _) => 0.006,
            (OsImage::Ubuntu1804, _) => 0.0,
        }
    }

    /// Both LTS images evaluated by the paper's use-case 1.
    pub const ALL: [OsImage; 2] = [OsImage::Ubuntu1804, OsImage::Ubuntu2004];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn focal_runs_more_instructions_faster() {
        let bionic = OsImage::Ubuntu1804.profile();
        let focal = OsImage::Ubuntu2004.profile();
        assert!(
            focal.inst_factor > bionic.inst_factor,
            "20.04 executes more instructions"
        );
        assert!(
            focal.cpi_factor < bionic.cpi_factor,
            "20.04 runs at higher utilization"
        );
        // Net effect: shorter execution time on 20.04.
        assert!(focal.inst_factor * focal.cpi_factor < bionic.inst_factor * bionic.cpi_factor);
    }

    #[test]
    fn default_kernels_match_the_paper() {
        assert_eq!(
            OsImage::Ubuntu1804.profile().default_kernel,
            KernelVersion::V4_15
        );
        assert_eq!(
            OsImage::Ubuntu2004.profile().default_kernel,
            KernelVersion::V5_4
        );
    }

    #[test]
    fn parallel_bonus_highlights_blackscholes_and_ferret() {
        let generic = OsImage::Ubuntu2004.parallel_bonus("dedup");
        assert!(OsImage::Ubuntu2004.parallel_bonus("blackscholes") > generic);
        assert!(OsImage::Ubuntu2004.parallel_bonus("ferret") > generic);
        assert_eq!(OsImage::Ubuntu1804.parallel_bonus("ferret"), 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(OsImage::Ubuntu1804.to_string(), "ubuntu-18.04");
        assert_eq!(OsImage::Ubuntu2004.to_string(), "ubuntu-20.04");
        for os in OsImage::ALL {
            assert_eq!(os.to_string().parse(), Ok(os));
        }
        assert!("18.04".parse::<OsImage>().is_err());
    }
}
