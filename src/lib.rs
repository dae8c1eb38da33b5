//! Workspace umbrella for the `simart` project.
//!
//! This package exists to host the cross-crate integration tests in
//! `tests/` and the runnable examples in `examples/`; the library API
//! lives in the [`simart`] crate and its substrate crates.

#![forbid(unsafe_code)]

pub use simart;
pub use simart_artifact;
pub use simart_db;
pub use simart_fullsim;
pub use simart_gpu;
pub use simart_resources;
pub use simart_run;
pub use simart_tasks;
