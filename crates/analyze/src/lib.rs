//! # simart-analyze
//!
//! The analysis layer: static provenance linting for simart
//! databases.
//!
//! The rest of the workspace *records* provenance (artifacts, runs,
//! lifecycle events) the way the gem5art paper prescribes; this crate
//! *audits* it:
//!
//! * **[`lint`]** — a read-only pass over a [`simart_db::Database`]
//!   (in memory or on disk) emitting typed, severity-ranked
//!   [`diag::Diagnostic`]s with stable `SAxxxx` codes: dangling
//!   references, DAG cycles/orphans, missing or tampered blobs,
//!   lifecycle event-log violations, missed deduplication.
//!   [`prelaunch`] extends the same reporting to experiment
//!   cross-products before any simulation is launched.
//!
//! The self-test (`lint::self_test`) is wired into `simart check
//! --self-test` so CI proves the detectors actually detect.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod diag;
pub mod engine;
pub mod lint;
mod lints;
pub mod prelaunch;

pub use diag::{Diagnostic, LintCode, LintLevels, Severity};
pub use engine::{campaign_check, check_dir_incremental, record_state, CheckOutcome, Engine};
