//! # simart-resources
//!
//! A catalog of known-good simulation resources — the analogue of the
//! paper's *gem5-resources* repository.
//!
//! The paper's second contribution is a curated set of components that
//! are "not strictly needed to build and run gem5 but may be utilized
//! in the running of a gem5 simulation": disk images pre-loaded with
//! benchmark suites, kernels, run scripts, tests, and a GPU build
//! environment. This crate reproduces that catalog:
//!
//! * [`catalog`] — the 17 resources of the paper's Table I, typed and
//!   queryable;
//! * [`packfile`] — a Packer-style disk-image builder: a template plus
//!   provisioners deterministically produce a bootable image
//!   description (and the artifacts to register for it);
//! * [`kernels`] — the Linux kernel binaries the resources ship
//!   (five LTS lines plus the Ubuntu stock kernels);
//! * [`disks`] — the pre-built disk images (PARSEC on 18.04/20.04,
//!   boot-exit, …) and the licensing rule that SPEC images are build
//!   scripts only;
//! * [`environment`] — the ROCm/GCN3 build environment resource and
//!   its compatibility checks;
//! * [`suite`] — registration helpers that turn any resource into
//!   properly documented artifacts in an
//!   [`simart_artifact::ArtifactRegistry`];
//! * [`tests_resource`] — the `gem5 tests` entry: ready-made test
//!   programs (asmtest/insttest/square-style) with known architectural
//!   results, runnable on the simulator's functional ISA.
//!
//! ```
//! use simart_resources::catalog::Catalog;
//! use simart_resources::ResourceKind;
//!
//! let catalog = Catalog::standard();
//! assert_eq!(catalog.len(), 17);
//! let parsec = catalog.find("parsec").unwrap();
//! assert_eq!(parsec.kind, ResourceKind::Benchmark);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod disks;
pub mod environment;
pub mod kernels;
pub mod packfile;
pub mod suite;
pub mod tests_resource;

pub use catalog::{Catalog, Resource};
pub use packfile::{DiskImageSpec, PackerTemplate, Provisioner};

use std::fmt;

/// The resource categories of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// A benchmark suite resource.
    Benchmark,
    /// A benchmark that doubles as a test (e.g. boot-exit).
    BenchmarkTest,
    /// A standalone test resource.
    Test,
    /// A kernel resource.
    Kernel,
    /// A single application (DOE proxy apps, etc.).
    Application,
    /// A build/run environment (the GCN docker image).
    Environment,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::Benchmark => "Benchmark",
            ResourceKind::BenchmarkTest => "Benchmark / Test",
            ResourceKind::Test => "Test",
            ResourceKind::Kernel => "Kernel",
            ResourceKind::Application => "Application",
            ResourceKind::Environment => "Environment",
        };
        f.write_str(s)
    }
}
