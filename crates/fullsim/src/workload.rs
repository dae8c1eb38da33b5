//! Workload profiles: the statistical descriptions that stand in for
//! real benchmark binaries.
//!
//! A [`WorkloadProfile`] captures what the timing models need from a
//! benchmark: dynamic instruction count per input size, instruction
//! mix, memory reference behaviour, parallel fraction, and
//! synchronization intensity. The PARSEC profiles here are calibrated
//! from the suite's published characterization (Bienia, 2011) at the
//! granularity this simulator models.

use crate::isa::{AddressProfile, InstMix, OpClass};
use crate::spelling;
use std::fmt;

/// PARSEC-style input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSize {
    /// Minimal correctness-test input.
    Test,
    /// Small simulation input.
    SimSmall,
    /// Medium simulation input (used by the paper's use-case 1).
    SimMedium,
    /// Large simulation input.
    SimLarge,
    /// Full native input.
    Native,
}

impl InputSize {
    /// Every input size, smallest first.
    pub const ALL: [InputSize; 5] = [
        InputSize::Test,
        InputSize::SimSmall,
        InputSize::SimMedium,
        InputSize::SimLarge,
        InputSize::Native,
    ];

    /// Scale factor applied to a workload's base instruction count.
    pub fn scale(self) -> f64 {
        match self {
            InputSize::Test => 0.01,
            InputSize::SimSmall => 0.25,
            InputSize::SimMedium => 1.0,
            InputSize::SimLarge => 4.0,
            InputSize::Native => 40.0,
        }
    }
}

impl fmt::Display for InputSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InputSize::Test => "test",
            InputSize::SimSmall => "simsmall",
            InputSize::SimMedium => "simmedium",
            InputSize::SimLarge => "simlarge",
            InputSize::Native => "native",
        };
        f.write_str(s)
    }
}

spelling::from_display!(InputSize, InputSize::ALL, "input size");

/// A complete workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Workload name (e.g. `blackscholes`).
    pub name: String,
    /// Dynamic instructions at `SimMedium` input.
    pub base_insts: u64,
    /// Instruction mix.
    pub mix: InstMix,
    /// Memory reference behaviour.
    pub addrs: AddressProfile,
    /// Fraction of work that parallelizes (Amdahl).
    pub parallel_fraction: f64,
    /// Synchronization operations per 1000 parallel-phase instructions.
    pub sync_per_kinst: f64,
}

impl WorkloadProfile {
    /// Total dynamic instructions for the given input size.
    pub fn total_insts(&self, input: InputSize) -> u64 {
        (self.base_insts as f64 * input.scale()) as u64
    }

    /// Instructions in the serial phase.
    pub fn serial_insts(&self, input: InputSize) -> u64 {
        (self.total_insts(input) as f64 * (1.0 - self.parallel_fraction)) as u64
    }

    /// Instructions in the parallel phase (split across threads).
    pub fn parallel_insts(&self, input: InputSize) -> u64 {
        self.total_insts(input) - self.serial_insts(input)
    }
}

/// Builds the profile of one PARSEC application, or `None` for an
/// unknown name. The ten applications are the ones the paper's
/// use-case 1 runs (x264, facesim and canneal are excluded there for
/// runtime bugs, exactly as in the paper).
pub fn parsec_profile(name: &str) -> Option<WorkloadProfile> {
    // (base_insts_in_millions, mix, working_set, locality, shared,
    //  parallel_fraction, sync_per_kinst)
    let fp = |fp_weight: f64| {
        InstMix::new(&[
            (OpClass::IntAlu, 0.30),
            (OpClass::IntMul, 0.02),
            (OpClass::FpAlu, fp_weight),
            (OpClass::FpDiv, fp_weight * 0.08),
            (OpClass::Load, 0.24),
            (OpClass::Store, 0.10),
            (OpClass::Branch, 0.12),
            (OpClass::Syscall, 0.002),
        ])
    };
    let int = || {
        InstMix::new(&[
            (OpClass::IntAlu, 0.44),
            (OpClass::IntMul, 0.03),
            (OpClass::Load, 0.26),
            (OpClass::Store, 0.12),
            (OpClass::Branch, 0.15),
            (OpClass::Syscall, 0.004),
        ])
    };
    let ws = |kib: u64| kib << 10;
    let profile = |base_m: u64,
                   mix: InstMix,
                   working_set: u64,
                   locality: f64,
                   shared: f64,
                   parallel: f64,
                   sync: f64| {
        WorkloadProfile {
            name: name.to_owned(),
            base_insts: base_m * 1_000_000,
            mix,
            addrs: AddressProfile {
                working_set,
                locality,
                shared_fraction: shared,
            },
            parallel_fraction: parallel,
            sync_per_kinst: sync,
        }
    };
    Some(match name {
        "blackscholes" => profile(1_600, fp(0.22), ws(2_048), 0.95, 0.01, 0.960, 0.02),
        "bodytrack" => profile(2_200, fp(0.18), ws(8_192), 0.88, 0.06, 0.870, 0.60),
        "dedup" => profile(3_200, int(), ws(256_000), 0.80, 0.10, 0.820, 1.40),
        "ferret" => profile(4_100, fp(0.12), ws(64_000), 0.85, 0.08, 0.900, 0.90),
        "fluidanimate" => profile(2_600, fp(0.20), ws(64_000), 0.90, 0.09, 0.910, 2.20),
        "freqmine" => profile(3_900, int(), ws(128_000), 0.86, 0.04, 0.880, 0.30),
        "raytrace" => profile(3_400, fp(0.24), ws(128_000), 0.89, 0.03, 0.885, 0.25),
        "streamcluster" => profile(2_900, fp(0.16), ws(16_000), 0.72, 0.07, 0.930, 1.80),
        "swaptions" => profile(1_900, fp(0.26), ws(96), 0.96, 0.01, 0.970, 0.05),
        "vips" => profile(3_600, int(), ws(32_000), 0.87, 0.05, 0.900, 0.45),
        _ => return None,
    })
}

/// Builds the profile of one NAS Parallel Benchmark (the `npb`
/// resource), or `None` for an unknown name. Sizes correspond to the
/// class-A inputs the resource documents.
pub fn npb_profile(name: &str) -> Option<WorkloadProfile> {
    let fp_mix = |fp: f64| {
        InstMix::new(&[
            (OpClass::IntAlu, 0.26),
            (OpClass::FpAlu, fp),
            (OpClass::FpDiv, fp * 0.05),
            (OpClass::Load, 0.27),
            (OpClass::Store, 0.11),
            (OpClass::Branch, 0.08),
            (OpClass::Syscall, 0.001),
        ])
    };
    let profile = |base_m: u64, fp: f64, ws_kib: u64, locality: f64, parallel: f64, sync: f64| {
        WorkloadProfile {
            name: name.to_owned(),
            base_insts: base_m * 1_000_000,
            mix: fp_mix(fp),
            addrs: AddressProfile {
                working_set: ws_kib << 10,
                locality,
                shared_fraction: 0.06,
            },
            parallel_fraction: parallel,
            sync_per_kinst: sync,
        }
    };
    Some(match name {
        "bt" => profile(5_800, 0.30, 96_000, 0.92, 0.94, 0.40),
        "cg" => profile(1_500, 0.24, 150_000, 0.55, 0.92, 1.10), // irregular sparse accesses
        "ep" => profile(2_300, 0.34, 256, 0.97, 0.985, 0.02),    // embarrassingly parallel
        "ft" => profile(3_900, 0.32, 220_000, 0.70, 0.93, 0.70),
        "is" => profile(600, 0.02, 130_000, 0.50, 0.90, 1.30), // integer sort, scatter-heavy
        "lu" => profile(6_400, 0.30, 60_000, 0.90, 0.93, 0.90),
        "mg" => profile(2_100, 0.28, 230_000, 0.75, 0.94, 0.60),
        "sp" => profile(5_100, 0.30, 80_000, 0.91, 0.94, 0.50),
        "ua" => profile(4_200, 0.26, 110_000, 0.80, 0.91, 1.00),
        _ => return None,
    })
}

/// Builds the profile of one GAP Benchmark Suite kernel (the `gapbs`
/// resource) over its reference graphs, or `None` for an unknown name.
pub fn gapbs_profile(name: &str) -> Option<WorkloadProfile> {
    let graph_mix = InstMix::new(&[
        (OpClass::IntAlu, 0.36),
        (OpClass::Load, 0.33), // pointer chasing dominates
        (OpClass::Store, 0.08),
        (OpClass::Branch, 0.19),
        (OpClass::Atomic, 0.02),
        (OpClass::Syscall, 0.001),
    ]);
    let profile = |base_m: u64, locality: f64, parallel: f64, sync: f64| WorkloadProfile {
        name: name.to_owned(),
        base_insts: base_m * 1_000_000,
        mix: graph_mix.clone(),
        addrs: AddressProfile {
            working_set: 512 << 20, // 512 MiB graph, poor locality
            locality,
            shared_fraction: 0.12,
        },
        parallel_fraction: parallel,
        sync_per_kinst: sync,
    };
    Some(match name {
        "bc" => profile(4_800, 0.35, 0.92, 1.20),
        "bfs" => profile(900, 0.30, 0.90, 1.60),
        "cc" => profile(1_700, 0.32, 0.93, 1.10),
        "pr" => profile(3_600, 0.45, 0.95, 0.60),
        "sssp" => profile(2_800, 0.33, 0.89, 1.50),
        "tc" => profile(6_200, 0.40, 0.96, 0.30),
        _ => return None,
    })
}

/// The NPB kernels the `npb` resource ships.
pub const NPB_APPS: [&str; 9] = ["bt", "cg", "ep", "ft", "is", "lu", "mg", "sp", "ua"];

/// The GAPBS kernels the `gapbs` resource ships.
pub const GAPBS_APPS: [&str; 6] = ["bc", "bfs", "cc", "pr", "sssp", "tc"];

/// The ten PARSEC applications of the paper's use-case 1, in the order
/// Table II lists them.
pub const PARSEC_APPS: [&str; 10] = [
    "blackscholes",
    "bodytrack",
    "dedup",
    "ferret",
    "fluidanimate",
    "freqmine",
    "raytrace",
    "streamcluster",
    "swaptions",
    "vips",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_sizes_read_back() {
        for input in InputSize::ALL {
            assert_eq!(input.to_string().parse(), Ok(input));
        }
        assert!("SimMedium".parse::<InputSize>().is_err());
    }

    #[test]
    fn all_ten_parsec_apps_have_profiles() {
        for app in PARSEC_APPS {
            let p = parsec_profile(app).unwrap_or_else(|| panic!("missing {app}"));
            assert_eq!(p.name, app);
            assert!(p.base_insts > 100_000_000, "{app} too small");
            assert!((0.0..=1.0).contains(&p.parallel_fraction));
            assert!(p.addrs.locality > 0.0 && p.addrs.locality <= 1.0);
        }
    }

    #[test]
    fn excluded_apps_are_absent() {
        // The paper removed x264, facesim and canneal for runtime bugs.
        for app in ["x264", "facesim", "canneal"] {
            assert!(parsec_profile(app).is_none(), "{app} should be excluded");
        }
    }

    #[test]
    fn input_size_scales_instruction_counts() {
        let p = parsec_profile("blackscholes").unwrap();
        assert!(p.total_insts(InputSize::SimSmall) < p.total_insts(InputSize::SimMedium));
        assert!(p.total_insts(InputSize::SimMedium) < p.total_insts(InputSize::Native));
        assert_eq!(p.total_insts(InputSize::SimMedium), p.base_insts);
    }

    #[test]
    fn serial_plus_parallel_equals_total() {
        for app in PARSEC_APPS {
            let p = parsec_profile(app).unwrap();
            for input in [InputSize::Test, InputSize::SimMedium, InputSize::SimLarge] {
                assert_eq!(
                    p.serial_insts(input) + p.parallel_insts(input),
                    p.total_insts(input),
                    "{app} {input}"
                );
            }
        }
    }

    #[test]
    fn npb_and_gapbs_catalogs_resolve() {
        for app in NPB_APPS {
            let p = npb_profile(app).unwrap_or_else(|| panic!("missing npb/{app}"));
            assert_eq!(p.name, app);
            assert!(p.base_insts > 100_000_000);
        }
        for app in GAPBS_APPS {
            let p = gapbs_profile(app).unwrap_or_else(|| panic!("missing gapbs/{app}"));
            assert_eq!(p.name, app);
            assert!(p.addrs.locality < 0.5, "graph kernels have poor locality");
        }
        assert!(npb_profile("zz").is_none());
        assert!(gapbs_profile("zz").is_none());
    }

    #[test]
    fn ep_is_embarrassingly_parallel_bfs_is_sync_heavy() {
        assert!(npb_profile("ep").unwrap().parallel_fraction > 0.98);
        assert!(npb_profile("ep").unwrap().sync_per_kinst < 0.1);
        assert!(gapbs_profile("bfs").unwrap().sync_per_kinst > 1.0);
    }

    #[test]
    fn swaptions_is_most_parallel_dedup_among_least() {
        let swaptions = parsec_profile("swaptions").unwrap().parallel_fraction;
        let dedup = parsec_profile("dedup").unwrap().parallel_fraction;
        assert!(swaptions > 0.95);
        assert!(dedup < swaptions);
    }
}
