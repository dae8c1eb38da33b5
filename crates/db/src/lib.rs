//! # simart-db
//!
//! An embedded document database: the reproduction's stand-in for the
//! MongoDB instance the paper uses to store artifacts, run records, and
//! result files.
//!
//! The framework uses its database as a *provenance log*: insert
//! documents keyed by UUID, deduplicate file content, and query records
//! back by field values. This crate provides exactly those capabilities
//! with zero external services:
//!
//! * [`Value`] and [`json`] — the JSON-like document model and its
//!   text serialization (used for on-disk persistence), re-exported
//!   from `simart-codec` where they are defined;
//! * [`Collection`] — ordered document storage (one map behind one
//!   lock) with declared secondary indexes ([`IndexSpec`]),
//!   copy-on-write [`Snapshot`] reads, and a [`Filter`] query engine
//!   with an index-aware planner;
//! * [`BlobStore`] — content-addressed byte storage (the GridFS
//!   analogue) that deduplicates identical uploads;
//! * [`Database`] — a named set of collections plus a blob store, with
//!   optional directory-backed persistence;
//! * [`journal`] — the append-only write-ahead journal behind
//!   [`Database::open`]: attached databases persist every mutation as
//!   it happens (O(delta) per write) and fold the journal into snapshot
//!   files with [`Database::checkpoint`];
//! * [`ArtifactStore`] — typed artifact ↔ document mapping so
//!   `simart-artifact` records round-trip through the database.
//!
//! ```
//! use simart_db::{Database, Value, Filter};
//!
//! # fn main() -> Result<(), simart_db::DbError> {
//! let db = Database::in_memory();
//! let runs = db.collection("runs");
//! runs.insert(Value::map([
//!     ("_id", Value::from("run-1")),
//!     ("status", Value::from("success")),
//!     ("sim_ticks", Value::from(91_000_000i64)),
//! ]))?;
//! let done = runs.find(&Filter::eq("status", "success"));
//! assert_eq!(done.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod artifact_store;
mod blobstore;
mod collection;
mod database;
mod error;
pub mod journal;
mod query;

pub use artifact_store::ArtifactStore;
pub use blobstore::{BlobKey, BlobStore};
pub use collection::{Collection, IndexDivergence, IndexKind, IndexSpec, Snapshot};
pub use database::{index_manifest, Database, LoadOptions, LoadReport, INDEX_MANIFEST_FILE};
pub use error::DbError;
pub use journal::{
    prefix_crc, read_journal, read_journal_from, JournalCursor, JournalOp, JournalReplay,
    JOURNAL_FILE,
};
pub use query::{Filter, SortOrder};
use simart_codec::json;
pub use simart_codec::Value;
