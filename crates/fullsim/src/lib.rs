//! # simart-fullsim
//!
//! A deterministic, discrete-event **full-system simulator** — this
//! reproduction's stand-in for gem5.
//!
//! The paper's evaluation drives gem5 through large configuration
//! cross-products: CPU model × CPU count × memory system × Linux kernel
//! × boot type × workload × OS image. This crate implements a
//! self-contained simulator exposing exactly those knobs:
//!
//! * [`cpu`] — four CPU models mirroring gem5's: `KvmCpu` (host-speed
//!   virtualization, no timing), `AtomicSimpleCpu` (atomic memory,
//!   IPC ≈ 1), `TimingSimpleCpu` (timing for memory only), and `O3Cpu`
//!   (an out-of-order pipeline with ROB, issue width and functional
//!   units);
//! * [`mem`] — a *Classic* hierarchy (fast, optionally without coherence
//!   fidelity) and a *Ruby*-style system with real `MI` and
//!   `MESI_Two_Level` coherence state machines over a directory, backed
//!   by a DDR3-1600 bank/row timing model;
//! * [`isa`] — a small RISC-like instruction set plus a workload
//!   compiler that lowers statistical workload profiles into
//!   deterministic instruction streams over an immutable, predecoded
//!   program;
//! * [`kernel`] — a staged Linux boot model over five LTS kernel
//!   versions, with the configuration-compatibility matrix that
//!   produces the paper's Figure 8 outcome classes (success, kernel
//!   panic, simulator crash, protocol deadlock, timeout);
//! * [`system`] — the top-level [`system::SystemConfig`] builder and
//!   [`system::SimOutput`]-producing runner with gem5-style [`stats`].
//!
//! Timing follows gem5's convention: one [`Tick`](ticks::Tick) is one
//! picosecond of simulated time.
//!
//! ```
//! use simart_fullsim::system::SystemConfig;
//! use simart_fullsim::cpu::CpuKind;
//! use simart_fullsim::mem::MemKind;
//! use simart_fullsim::kernel::{BootKind, KernelVersion};
//!
//! # fn main() -> Result<(), simart_fullsim::SimError> {
//! let config = SystemConfig::builder()
//!     .cpu(CpuKind::TimingSimple)
//!     .cores(2)
//!     .memory(MemKind::classic_coherent())
//!     .kernel(KernelVersion::V5_4)
//!     .boot(BootKind::Systemd)
//!     .build()?;
//! let output = config.boot_only()?;
//! assert!(output.outcome.is_success());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checkpoint;
pub mod compat;
pub mod cpu;
mod error;
pub mod event;
pub mod isa;
pub mod kernel;
pub mod mem;
pub mod os;
pub mod rng;
pub mod spelling;
pub mod stats;
pub mod system;
pub mod ticks;
pub mod workload;

pub use error::SimError;

/// The version of the simulated model. Every simulated number is a
/// function of it and of the configuration, so it is hashed into the
/// simulator artifact and into the boot-checkpoint key: bump it with
/// any change that moves a simulated number.
pub const MODEL: &str = "simart-fullsim/1";
