//! # simart-artifact
//!
//! Artifact registration, content hashing, and provenance tracking.
//!
//! This crate is the Rust analogue of the paper's `gem5art-artifact`
//! package: every object that participates in a simulation — simulator
//! binaries, kernels, disk images, run scripts, result archives — is
//! registered as an [`Artifact`] carrying enough metadata (creation
//! command, working directory, documentation, input artifacts) to
//! reproduce it later. Artifacts are deduplicated by content hash and
//! identified by a UUID derived from that hash; their `inputs` edges
//! form the provenance graph.
//!
//! ```
//! use simart_artifact::{Artifact, ArtifactKind, ArtifactRegistry, ContentSource};
//!
//! # fn main() -> Result<(), simart_artifact::ArtifactError> {
//! let mut registry = ArtifactRegistry::new();
//! let repo = registry.register(
//!     Artifact::builder("gem5", ArtifactKind::GitRepo)
//!         .command("git clone https://example.org/sim.git")
//!         .cwd("./")
//!         .path("sim/")
//!         .documentation("main simulator source repository")
//!         .content(ContentSource::git("https://example.org/sim.git", "440f0bc579fb8b10da7181"))
//! )?;
//! let binary = registry.register(
//!     Artifact::builder("gem5-binary", ArtifactKind::Binary)
//!         .command("scons build/X86/gem5.opt -j8")
//!         .cwd("sim/")
//!         .path("sim/build/X86/gem5.opt")
//!         .documentation("optimized X86 simulator binary")
//!         .content(ContentSource::bytes(b"\x7fELF-simulated-binary".to_vec()))
//!         .input(repo.id()),
//! )?;
//! assert_eq!(binary.inputs(), &[repo.id()]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag;
mod error;
pub mod hash;
mod registry;
pub mod uuid;

mod artifact;

pub use artifact::{Artifact, ArtifactBuilder, ArtifactKind, ContentSource, GitInfo};
pub use error::ArtifactError;
pub use hash::Md5;
pub use registry::ArtifactRegistry;
pub use uuid::Uuid;

/// Identifier of a registered artifact (a UUID).
pub type ArtifactId = Uuid;
