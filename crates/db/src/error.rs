//! Error type for database operations.

use std::fmt;

/// Errors produced by the embedded document database.
#[derive(Debug)]
#[non_exhaustive]
pub enum DbError {
    /// A document with the same `_id` already exists in the collection.
    DuplicateId {
        /// Collection name.
        collection: String,
        /// The colliding id.
        id: String,
    },
    /// A unique-key constraint was violated.
    UniqueViolation {
        /// Collection name.
        collection: String,
        /// The constrained field path.
        field: String,
        /// Rendered value that collided.
        value: String,
    },
    /// A different index already covers the path being declared.
    IndexConflict {
        /// Collection name.
        collection: String,
        /// The contested field path.
        path: String,
    },
    /// Document rejected because it is not a map or lacks an `_id` string.
    InvalidDocument {
        /// Why the document was rejected.
        reason: String,
    },
    /// A lookup found nothing.
    NotFound {
        /// What was searched for.
        query: String,
    },
    /// Malformed persisted JSON.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// Cause.
        message: String,
    },
    /// A persisted record (document line, blob, or journal frame) is
    /// corrupt. Only surfaced when loading with
    /// [`LoadOptions::strict`](crate::LoadOptions::strict); the default
    /// lenient load counts corrupt records instead.
    CorruptRecord {
        /// The file holding the corrupt record.
        path: String,
        /// What was wrong with it.
        detail: String,
    },
    /// The operation requires a directory-attached database (one opened
    /// with [`Database::open`](crate::Database::open)).
    NotAttached,
    /// A previous journal append failed partway and could not be rolled
    /// back, leaving a torn frame at the journal's tail. Further
    /// appends are refused — they would land after the tear and be
    /// silently discarded by replay — until a
    /// [`Database::checkpoint`](crate::Database::checkpoint) rewrites
    /// the journal.
    JournalPoisoned,
    /// Filesystem failure during persistence.
    Io(std::io::Error),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::DuplicateId { collection, id } => {
                write!(f, "duplicate _id {id:?} in collection {collection:?}")
            }
            DbError::UniqueViolation {
                collection,
                field,
                value,
            } => write!(
                f,
                "unique constraint on {collection:?}.{field} violated by value {value}"
            ),
            DbError::IndexConflict { collection, path } => write!(
                f,
                "an index with a different spec already covers {collection:?}.{path}"
            ),
            DbError::InvalidDocument { reason } => {
                write!(f, "invalid document: {reason}")
            }
            DbError::NotFound { query } => write!(f, "no document matches {query:?}"),
            DbError::Parse { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            DbError::CorruptRecord { path, detail } => {
                write!(f, "corrupt record in {path}: {detail}")
            }
            DbError::NotAttached => {
                write!(
                    f,
                    "database is not attached to a directory (use Database::open)"
                )
            }
            DbError::JournalPoisoned => write!(
                f,
                "journal is poisoned by an unrollbackable failed append; checkpoint to recover"
            ),
            DbError::Io(err) => write!(f, "i/o failure: {err}"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<simart_codec::JsonError> for DbError {
    fn from(err: simart_codec::JsonError) -> DbError {
        DbError::Parse {
            offset: err.offset,
            message: err.message,
        }
    }
}

impl From<std::io::Error> for DbError {
    fn from(err: std::io::Error) -> DbError {
        DbError::Io(err)
    }
}
