//! # simart-gpu
//!
//! A GCN3-like GPU timing model — the reproduction's stand-in for the
//! gem5 GPU model used by the paper's use-case 3.
//!
//! The model is a real (scaled) cycle simulator, not a latency table:
//!
//! * [`config::GpuConfig`] — the Table III machine: 4 compute units,
//!   4 SIMD16s per CU, 1 GHz, up to 10 wavefronts per SIMD, 8K vector +
//!   8K scalar registers per CU, 16 KB L1D per CU, shared 256 KB L2,
//!   one DDR3-1600 channel;
//! * [`alloc`] — the two register-allocation policies the paper
//!   compares: **simple** (one wavefront per SIMD at a time, limiting
//!   stalls) and **dynamic** (admit wavefronts while registers remain);
//! * [`cu`] — per-CU wavefront scheduling with *deliberately simplistic
//!   dependence tracking* (a wavefront blocks on its own outstanding
//!   memory op, and scoreboard scan cost grows with resident
//!   wavefronts) — the modeling property the paper identifies as the
//!   reason the dynamic allocator loses on average;
//! * [`workloads`] — the 29 Table IV benchmarks (HIP samples,
//!   HeteroSync, DNNMark, HACC, LULESH, PENNANT) as kernel descriptors.
//!
//! ```
//! use simart_gpu::{Gpu, alloc::AllocPolicy, workloads};
//!
//! # fn main() {
//! let kernel = workloads::by_name("MatrixTranspose").unwrap();
//! let simple = Gpu::table3().run(&kernel, AllocPolicy::Simple);
//! let dynamic = Gpu::table3().run(&kernel, AllocPolicy::Dynamic);
//! // Plenty of independent workgroups: the dynamic allocator overlaps
//! // them and wins on this kernel.
//! assert!(dynamic.ticks < simple.ticks);
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod config;
pub mod cu;
pub mod kernel;
pub mod memory;
pub mod workloads;

mod gpu;

pub use gpu::{Gpu, GpuRunResult};
