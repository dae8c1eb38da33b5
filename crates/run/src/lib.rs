//! # simart-run
//!
//! Run objects: provenance-complete descriptions of single simulation
//! runs — the analogue of the paper's `gem5art-run` package.
//!
//! A run is a *special artifact* that references every input artifact
//! (simulator binary + repository, run script, kernel, disk image) plus
//! the concrete parameters of one experiment. All of that information
//! together "specifies one unique experiment (a single data point)":
//! the run's [`FsRun::run_hash`] fingerprints it, so re-creating the
//! same run yields the same identity and the database rejects
//! accidental duplicates.
//!
//! ```
//! use simart_artifact::{Artifact, ArtifactKind, ArtifactRegistry, ContentSource};
//! use simart_run::FsRun;
//!
//! # fn main() -> Result<(), simart_run::RunError> {
//! let mut registry = ArtifactRegistry::new();
//! # let repo = registry.register(Artifact::builder("sim-repo", ArtifactKind::GitRepo)
//! #     .documentation("src").content(ContentSource::git("https://x", "rev"))).unwrap();
//! # let binary = registry.register(Artifact::builder("sim", ArtifactKind::Binary)
//! #     .documentation("bin").content(ContentSource::bytes(b"elf".to_vec())).input(repo.id())).unwrap();
//! # let script = registry.register(Artifact::builder("script", ArtifactKind::RunScript)
//! #     .documentation("cfg").content(ContentSource::bytes(b"py".to_vec()))).unwrap();
//! # let kernel = registry.register(Artifact::builder("vmlinux", ArtifactKind::Kernel)
//! #     .documentation("kernel").content(ContentSource::bytes(b"krn".to_vec()))).unwrap();
//! # let disk = registry.register(Artifact::builder("disk", ArtifactKind::DiskImage)
//! #     .documentation("img").content(ContentSource::bytes(b"img".to_vec()))).unwrap();
//! let run = FsRun::create(&registry)
//!     .simulator(binary.id(), "build/X86/sim.opt")
//!     .simulator_repo(repo.id())
//!     .run_script(script.id(), "configs/run.py")
//!     .kernel(kernel.id(), "vmlinux-5.4.51")
//!     .disk_image(disk.id(), "disks/parsec.img")
//!     .output_dir("results/run1")
//!     .param("blackscholes")
//!     .param("2")
//!     .timeout_seconds(15 * 60)
//!     .build()?;
//! assert_eq!(run.params(), ["blackscholes", "2"]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod error;
mod fs_run;
mod status;
mod store;

pub use error::RunError;
pub use fs_run::{FsRun, FsRunBuilder};
pub use status::RunStatus;
pub use store::{Committed, RunAttempt, RunEdit, RunStore};
