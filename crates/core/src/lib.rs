//! # simart
//!
//! Reproducible, agile full-system simulation experiments.
//!
//! This is the umbrella crate of the *simart* project — a Rust
//! reproduction of the gem5art + gem5-resources system from
//! *Enabling Reproducible and Agile Full-System Simulation*
//! (ISPASS 2021). It wires the substrate crates together and provides
//! the "launch script" experience of the paper's Figure 5: register
//! artifacts, build the cross product of run configurations, hand the
//! runs to a scheduler, and query the database afterwards.
//!
//! ```
//! use simart::Experiment;
//! use simart::artifact::{Artifact, ArtifactKind, ContentSource};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let experiment = Experiment::new("quick-demo");
//! experiment.register_artifact(
//!     Artifact::builder("notes", ArtifactKind::Other("doc".into()))
//!         .documentation("experiment notes")
//!         .content(ContentSource::bytes(b"hello".to_vec())),
//! )?;
//! assert_eq!(experiment.artifact_count(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! The substrate crates are re-exported under short names:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`analyze`] | `simart-analyze` | provenance linting |
//! | [`artifact`] | `simart-artifact` | provenance records |
//! | [`db`] | `simart-db` | embedded document database |
//! | [`run`] | `simart-run` | run objects |
//! | [`tasks`] | `simart-tasks` | schedulers |
//! | [`sim`] | `simart-fullsim` | the full-system simulator |
//! | [`gpu`] | `simart-gpu` | the GCN3-like GPU model |
//! | [`resources`] | `simart-resources` | the resource catalog |
//! | [`observe`] | `simart-observe` | span tracing + metrics registry |
//!
//! What a run's params mean is decided by the run script it records:
//! [`kinds`] holds the closed table of scripts this program executes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use simart_analyze as analyze;
pub use simart_artifact as artifact;
pub use simart_db as db;
pub use simart_fullsim as sim;
pub use simart_gpu as gpu;
pub use simart_observe as observe;
pub use simart_resources as resources;
pub use simart_run as run;
pub use simart_tasks as tasks;

pub mod cross;
mod experiment;
pub mod kinds;
pub mod metrics;
pub mod quarantine;
pub mod remote;
pub mod report;

pub use experiment::{ExecOutcome, Experiment, ExperimentError, LaunchOptions, LaunchSummary};
