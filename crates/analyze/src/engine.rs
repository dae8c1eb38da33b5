//! The incremental analysis engine: O(delta) re-linting driven by the
//! database journal.
//!
//! [`crate::lint::lint_database`] answers "is this database clean?" by
//! rescanning every collection. That is the right primitive, but at the
//! ROADMAP's million-run target it makes `simart check` the slowest
//! step of the check→launch→check loop — even though PR 4's journal
//! already records *exactly* what changed since the last checkpoint.
//! This module reuses that record: every lint is a state machine that
//! (a) learns about a document only through [`Lint::apply_delta`] —
//! a full scan is that same path run once over every stored document —
//! and (b) can be serialized into the `analysis_state` collection
//! together with the [`JournalCursor`] it is valid at. A later
//! `simart check --incremental` restores the state, replays only the
//! journal suffix past the cursor, and reports — cost proportional to
//! the delta, not the database.
//!
//! # Soundness
//!
//! A loaded database is a pure function of (checkpoint files, journal
//! prefix). The recorded state equals the lint state of
//! `f(checkpoint, journal[..cursor.offset])`; replaying
//! `journal[cursor.offset..]` therefore reproduces the lint state of
//! the full load *iff* neither input changed behind the cursor's back.
//! Each guard below closes one way that can happen:
//!
//! * **Cursor validity** — [`JournalCursor::is_valid`] re-hashes the
//!   journal prefix, so `checkpoint()` compaction, `save()`
//!   truncation, and hand-rewrites of the journal all invalidate the
//!   state ("journal compacted past the analysis cursor").
//! * **Divergence** — a journal insert colliding with a *different*
//!   checkpoint document means the checkpoint files were edited after
//!   the journal was written; the [`LoadReport`] records it and the
//!   engine falls back to a full scan.
//! * **Self-reference** — the state document itself travels through
//!   the normal journal path, so the cursor is captured *before* the
//!   state is written and replay skips `analysis_state` records.
//!
//! Whenever any guard fails, [`check_dir_incremental`] says so and
//! falls back to the full scan (which records fresh state for next
//! time). Equivalence is enforced by a property test driving random
//! mutation sequences and asserting byte-identical reports at every
//! step (`tests/incremental_props.rs`).

use crate::diag::{sort_diagnostics, Diagnostic};
use crate::lints;
use simart_db::{
    read_journal_from, BlobKey, Database, DbError, JournalCursor, JournalOp, LoadOptions,
    LoadReport, Value,
};
use simart_observe as observe;
use std::path::Path;

/// The collection the engine persists its state into (written through
/// the normal journal path, like any other document).
pub const STATE_COLLECTION: &str = "analysis_state";
/// `_id` of the single state document.
const STATE_DOC_ID: &str = "engine";
/// Bumped whenever any lint's state layout changes; mismatched
/// versions fall back to a full scan instead of misreading old state.
/// Version 2 added the `indexes` registry entry (SA0017).
const STATE_VERSION: i64 = 2;
/// Once an incremental check has replayed this many journal records,
/// it rewrites the state document so the suffix cannot grow without
/// bound across repeated checks.
const STATE_REFRESH_DELTA: usize = 1024;

/// One change to database content, normalized for lint consumption —
/// a replayed journal record, or one stored document or blob met by
/// [`Engine::full_scan`]'s walk. Inserts and upserts collapse to
/// [`Delta::Write`] (journal replay makes the journal document the
/// final content either way), and blob payloads are pre-hashed to
/// their [`BlobKey`].
#[derive(Debug)]
pub enum Delta<'a> {
    /// A document now has this content (insert or upsert).
    Write {
        /// Collection name.
        collection: &'a str,
        /// The document's `_id`.
        id: &'a str,
        /// The full document.
        doc: &'a Value,
    },
    /// The document with this `_id` was deleted.
    Delete {
        /// Collection name.
        collection: &'a str,
        /// The deleted `_id`.
        id: &'a str,
    },
    /// A whole collection was dropped.
    Drop {
        /// Collection name.
        collection: &'a str,
    },
    /// A blob with this key entered the store.
    BlobPut(BlobKey),
    /// The blob with this key left the store.
    BlobRemove(BlobKey),
}

impl<'a> Delta<'a> {
    /// Normalizes a journal record; `None` for records that cannot
    /// change database content (a document without a string `_id`
    /// never passes insert validation, an unparseable blob key is
    /// ignored by replay).
    pub fn from_op(op: &'a JournalOp) -> Option<Delta<'a>> {
        match op {
            JournalOp::Insert { collection, doc } | JournalOp::Upsert { collection, doc } => {
                let id = doc.at("_id").and_then(Value::as_str)?;
                Some(Delta::Write {
                    collection,
                    id,
                    doc,
                })
            }
            JournalOp::Delete { collection, id } => Some(Delta::Delete { collection, id }),
            JournalOp::DropCollection { collection } => Some(Delta::Drop { collection }),
            JournalOp::BlobPut { data } => Some(Delta::BlobPut(BlobKey::for_content(data))),
            JournalOp::BlobRemove { key } => BlobKey::from_hex(key).map(Delta::BlobRemove),
            // Index declarations never change document content, and
            // indexes are rebuilt (not trusted) on load — no lint
            // state can depend on them.
            JournalOp::EnsureIndex { .. } => None,
        }
    }

    /// The collection this delta touches (`None` for blob deltas).
    pub fn collection(&self) -> Option<&str> {
        match self {
            Delta::Write { collection, .. }
            | Delta::Delete { collection, .. }
            | Delta::Drop { collection } => Some(collection),
            Delta::BlobPut(_) | Delta::BlobRemove(_) => None,
        }
    }

    fn observed_by(&self, row: &Registered) -> bool {
        match self.collection() {
            Some(collection) => row.collections.contains(&collection),
            None => row.blobs,
        }
    }
}

/// One lint as an incremental state machine. Implementations live in
/// `crate::lints`; the registry instantiates all of them.
///
/// The contract mirrors the soundness argument above: however the
/// deltas arrived — the full-scan walk, `restore(state)` plus each
/// suffix record, or any order of writes that ends in the same
/// database content — `emit` must produce the same multiset of
/// diagnostics.
pub trait Lint {
    /// Advances state by one change. This is the only way a lint
    /// learns about a document or a blob; it never sees the database.
    fn apply_delta(&mut self, delta: &Delta<'_>);
    /// Re-derives findings that span documents for whatever the deltas
    /// since the last call touched. The engine calls it after every
    /// replayed record and once after a full-scan walk, which is what
    /// lets the dependency-graph lint (SA0002/SA0003) validate each
    /// component once per walk instead of once per document. Lints
    /// whose `apply_delta` leaves findings current keep the no-op.
    fn settle(&mut self) {}
    /// Examines what only the live database can show (its in-memory
    /// indexes). Runs once per full scan, after the walk; only SA0017's
    /// lint overrides it, so no other lint is ever handed a
    /// [`Database`].
    fn scan_database(&mut self, _db: &Database) {}
    /// Re-examines on-disk context that is not journaled (blob files,
    /// journal layout). Runs on every directory check, incremental or
    /// not; lints without environment findings keep the default no-op.
    fn scan_environment(&mut self, _dir: &Path, _report: &LoadReport) {}
    /// Appends this lint's current findings.
    fn emit(&self, out: &mut Vec<Diagnostic>);
    /// Serializes persistent state (derived caches excluded).
    fn state(&self) -> Value;
    /// Restores from a previously serialized state.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the value does not round-trip;
    /// the engine treats any error as "state is stale" and rescans.
    fn restore(&mut self, state: &Value) -> Result<(), String>;
}

/// One row of the lint registry: a lint and the facts the engine
/// routes by.
pub(crate) struct Registered {
    /// Stable identifier, the key in the persisted state map.
    pub(crate) name: &'static str,
    /// Metric name of this lint's `analyze.lint_us.*` histogram.
    pub(crate) timer_metric: &'static str,
    /// Collections whose document writes/deletes/drops it is fed.
    pub(crate) collections: &'static [&'static str],
    /// Whether it is fed blob-store puts/removes.
    pub(crate) blobs: bool,
    /// The state machine itself.
    pub(crate) lint: Box<dyn Lint>,
}

/// The full lint registry driven as one unit: scan, advance, report.
pub struct Engine {
    lints: Vec<Registered>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with every registered lint in its empty state.
    pub fn new() -> Engine {
        Engine {
            lints: lints::registry(),
        }
    }

    /// Rebuilds every lint's state from the database: resets the
    /// registry, then feeds each stored blob key and — from one
    /// snapshot per collection — each document, by reference, through
    /// the same [`Lint::apply_delta`] that journal replay drives. Blobs
    /// and collections go in name order, so a reference usually meets
    /// its target already present; no lint depends on that.
    pub fn full_scan(&mut self, db: &Database) {
        observe::count("analyze.full_scans", 1);
        self.lints = lints::registry();
        let blobs = db.blobs().keys();
        for row in self.lints.iter_mut().filter(|row| row.blobs) {
            let _timer = observe::timer(row.timer_metric);
            for key in &blobs {
                row.lint.apply_delta(&Delta::BlobPut(*key));
            }
        }
        for collection in db.collection_names() {
            let mut snapshot = None;
            for row in &mut self.lints {
                if !row.collections.contains(&collection.as_str()) {
                    continue;
                }
                let snapshot =
                    snapshot.get_or_insert_with(|| db.collection(&collection).snapshot());
                let _timer = observe::timer(row.timer_metric);
                for (id, doc) in snapshot.iter() {
                    row.lint.apply_delta(&Delta::Write {
                        collection: &collection,
                        id,
                        doc,
                    });
                }
            }
        }
        for row in &mut self.lints {
            let _timer = observe::timer(row.timer_metric);
            row.lint.settle();
            row.lint.scan_database(db);
        }
    }

    /// Advances every observing lint by one replayed journal record.
    /// Records touching [`STATE_COLLECTION`] are skipped: the state
    /// document describes the analysis, it is not analyzed content.
    pub fn apply_op(&mut self, op: &JournalOp) {
        let Some(delta) = Delta::from_op(op) else {
            return;
        };
        if delta.collection() == Some(STATE_COLLECTION) {
            return;
        }
        observe::count("analyze.delta_records", 1);
        for row in &mut self.lints {
            if delta.observed_by(row) {
                let _timer = observe::timer(row.timer_metric);
                row.lint.apply_delta(&delta);
                row.lint.settle();
            }
        }
    }

    /// Runs every lint's environment pass over the database directory.
    pub fn scan_environment(&mut self, dir: &Path, report: &LoadReport) {
        for row in &mut self.lints {
            let _timer = observe::timer(row.timer_metric);
            row.lint.scan_environment(dir, report);
        }
    }

    /// All current findings in the stable report order.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for row in &self.lints {
            row.lint.emit(&mut out);
        }
        sort_diagnostics(&mut out);
        out
    }

    /// The persistable state document, valid at `cursor`.
    fn state_doc(&self, cursor: JournalCursor) -> Value {
        Value::map([
            ("_id".to_owned(), Value::from(STATE_DOC_ID)),
            ("version".to_owned(), Value::from(STATE_VERSION)),
            (
                "cursor".to_owned(),
                Value::map([
                    ("offset", Value::from(cursor.offset as i64)),
                    ("crc", Value::from(i64::from(cursor.crc))),
                ]),
            ),
            (
                "lints".to_owned(),
                Value::map(
                    self.lints
                        .iter()
                        .map(|row| (row.name.to_owned(), row.lint.state())),
                ),
            ),
        ])
    }

    /// Restores every lint from a state document, returning the cursor
    /// the state claims to be valid at (not yet validated against the
    /// journal on disk).
    fn restore_state(&mut self, doc: &Value) -> Result<JournalCursor, String> {
        if doc.at("version").and_then(Value::as_int) != Some(STATE_VERSION) {
            return Err("analysis state was written by an incompatible engine version".into());
        }
        let offset = doc
            .at("cursor.offset")
            .and_then(Value::as_int)
            .filter(|o| *o >= 0)
            .ok_or("analysis state is missing its journal cursor")?;
        let crc = doc
            .at("cursor.crc")
            .and_then(Value::as_int)
            .and_then(|c| u32::try_from(c).ok())
            .ok_or("analysis state is missing its journal cursor")?;
        for row in &mut self.lints {
            let state = doc
                .at(&format!("lints.{}", row.name))
                .ok_or_else(|| format!("analysis state has no entry for lint '{}'", row.name))?;
            row.lint.restore(state)?;
        }
        Ok(JournalCursor {
            offset: offset as u64,
            crc,
        })
    }
}

/// What one engine-driven check produced.
#[derive(Debug)]
pub struct CheckOutcome {
    /// All findings, in the stable report order.
    pub diagnostics: Vec<Diagnostic>,
    /// `true` when recorded state was resumed; `false` on a full scan.
    pub incremental: bool,
    /// Why the check fell back to a full scan, when it did.
    pub fallback: Option<String>,
    /// Journal records replayed past the cursor (incremental runs).
    pub delta_records: usize,
}

/// Builds an engine for an already-loaded database: resume from
/// recorded state when every soundness guard holds, full-scan (with a
/// reason) otherwise.
fn resume_or_rescan(db: &Database, report: &LoadReport) -> Result<(Engine, CheckOutcome), DbError> {
    let mut engine = Engine::new();
    match try_resume(&mut engine, db, report)? {
        Ok(replayed) => {
            let outcome = CheckOutcome {
                diagnostics: Vec::new(),
                incremental: true,
                fallback: None,
                delta_records: replayed,
            };
            Ok((engine, outcome))
        }
        Err(reason) => {
            // A failed restore may have left some lints half-filled;
            // `full_scan` starts over from a fresh registry.
            engine.full_scan(db);
            let outcome = CheckOutcome {
                diagnostics: Vec::new(),
                incremental: false,
                fallback: Some(reason),
                delta_records: 0,
            };
            Ok((engine, outcome))
        }
    }
}

/// The resume path: `Ok(Ok(n))` after replaying `n` suffix records,
/// `Ok(Err(reason))` when a guard demands a full scan, `Err` only for
/// I/O failures reading the journal.
fn try_resume(
    engine: &mut Engine,
    db: &Database,
    report: &LoadReport,
) -> Result<Result<usize, String>, DbError> {
    if !report.divergent.is_empty() {
        return Ok(Err(
            "checkpoint/journal divergence invalidated the recorded analysis state".into(),
        ));
    }
    let Some(dir) = db.attached_dir() else {
        return Ok(Err("database is not attached to a journal directory".into()));
    };
    if !db.has_collection(STATE_COLLECTION) {
        return Ok(Err(
            "no analysis state recorded yet (this full scan records one)".into(),
        ));
    }
    let Some(doc) = db.collection(STATE_COLLECTION).get(STATE_DOC_ID) else {
        return Ok(Err(
            "no analysis state recorded yet (this full scan records one)".into(),
        ));
    };
    let cursor = match engine.restore_state(&doc) {
        Ok(cursor) => cursor,
        Err(reason) => return Ok(Err(reason)),
    };
    if !cursor.is_valid(&dir)? {
        return Ok(Err("journal compacted past the analysis cursor".into()));
    }
    let replay = read_journal_from(&dir, cursor.offset)?;
    for op in &replay.ops {
        engine.apply_op(op);
    }
    Ok(Ok(replay.ops.len()))
}

/// `simart check --incremental`: strict-opens a database directory,
/// resumes from recorded analysis state (or full-scans with a stated
/// reason), runs the environment lints, and keeps the persisted state
/// fresh — after every full scan, and after replays long enough
/// (`STATE_REFRESH_DELTA` records) that the suffix would otherwise grow
/// without bound.
///
/// The load is strict ([`LoadOptions::strict`]): a database too
/// damaged to trust is an *error* on this path (callers print one line
/// and exit 2, exactly like `simart metrics`), while the plain,
/// damage-tolerant report stays available via `simart check`.
///
/// # Errors
///
/// Load failures (missing directory, corrupt checkpoint or blobs in
/// strict mode) and journal I/O failures.
pub fn check_dir_incremental(dir: &Path) -> Result<CheckOutcome, DbError> {
    let _span = observe::span(|| "analyze.check".to_owned());
    let (db, report) = Database::open_with(dir, &LoadOptions::strict())?;
    let (mut engine, mut outcome) = resume_or_rescan(&db, &report)?;
    engine.scan_environment(dir, &report);
    if !outcome.incremental || outcome.delta_records >= STATE_REFRESH_DELTA {
        record_state(&db, &engine)?;
    }
    outcome.diagnostics = engine.diagnostics();
    Ok(outcome)
}

/// In-process check over an already-attached database (the campaign
/// post-run path). Same resume-or-rescan logic as
/// [`check_dir_incremental`] but reuses the caller's handle — a second
/// attached handle on the same directory would double-journal — and
/// skips the environment lints (the journal is mid-flight by design
/// while the campaign still owns it; `simart check` covers the
/// directory once the campaign is done).
///
/// Does not persist state: the campaign checkpoints right after, which
/// moves the cursor, so the caller records state via [`record_state`]
/// once the checkpoint completes.
///
/// # Errors
///
/// Journal I/O failures while validating or replaying the cursor.
pub fn campaign_check(
    db: &Database,
    report: &LoadReport,
) -> Result<(Engine, CheckOutcome), DbError> {
    let _span = observe::span(|| "analyze.check".to_owned());
    let (engine, mut outcome) = resume_or_rescan(db, report)?;
    outcome.diagnostics = engine.diagnostics();
    Ok((engine, outcome))
}

/// Persists the engine's current state into [`STATE_COLLECTION`],
/// stamped with the journal cursor captured *before* the write (so
/// replay-from-cursor sees the state record itself first and skips
/// it).
///
/// # Errors
///
/// [`DbError::NotAttached`] for in-memory databases; journal append
/// failures otherwise.
pub fn record_state(db: &Database, engine: &Engine) -> Result<(), DbError> {
    let cursor = db.journal_cursor()?.ok_or(DbError::NotAttached)?;
    db.collection(STATE_COLLECTION)
        .upsert(engine.state_doc(cursor))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint_database;
    use simart_db::Value;

    fn artifact(id: &str, hash: &str) -> Value {
        Value::map([
            ("_id", Value::from(id)),
            ("hash", Value::from(hash)),
            ("inputs", Value::array([])),
        ])
    }

    #[test]
    fn full_scan_matches_monolithic_lint() {
        let db = Database::in_memory();
        let a = "6ba7b810-9dad-11d1-80b4-00c04fd430c1";
        let b = "6ba7b810-9dad-11d1-80b4-00c04fd430c2";
        db.collection("artifacts")
            .insert(artifact(a, "h1"))
            .unwrap();
        db.collection("artifacts")
            .insert(artifact(b, "h1"))
            .unwrap();
        db.collection("runs")
            .insert(Value::map([
                ("_id", Value::from("r1")),
                ("status", Value::from("created")),
                ("inputs", Value::array([Value::from("missing-input")])),
            ]))
            .unwrap();
        let mut engine = Engine::new();
        engine.full_scan(&db);
        assert_eq!(engine.diagnostics(), lint_database(&db));
        assert_eq!(engine.diagnostics().len(), 2, "{:?}", engine.diagnostics());
    }

    #[test]
    fn state_round_trips_through_a_document() {
        let db = Database::in_memory();
        let a = "6ba7b810-9dad-11d1-80b4-00c04fd430c1";
        db.collection("artifacts")
            .insert(artifact(a, "h1"))
            .unwrap();
        db.collection("quarantine")
            .insert(Value::map([
                ("_id", Value::from("r9")),
                ("released", Value::from(false)),
            ]))
            .unwrap();
        let mut engine = Engine::new();
        engine.full_scan(&db);
        let doc = engine.state_doc(JournalCursor { offset: 7, crc: 9 });
        // Round-trip through the on-disk JSON form, like a real reload.
        let doc = simart_codec::json::from_json(&simart_codec::json::to_json(&doc)).unwrap();
        let mut restored = Engine::new();
        let cursor = restored.restore_state(&doc).expect("restore");
        assert_eq!(cursor, JournalCursor { offset: 7, crc: 9 });
        assert_eq!(restored.diagnostics(), engine.diagnostics());
        assert!(!restored.diagnostics().is_empty());
    }

    #[test]
    fn version_skew_is_a_stated_fallback() {
        let mut engine = Engine::new();
        engine.full_scan(&Database::in_memory());
        let mut doc = engine.state_doc(JournalCursor { offset: 0, crc: 0 });
        doc.set_at("version", Value::from(999i64));
        let err = Engine::new().restore_state(&doc).unwrap_err();
        assert!(err.contains("incompatible engine version"), "{err}");
    }

    #[test]
    fn deltas_skip_the_state_collection_and_unusable_records() {
        let mut engine = Engine::new();
        engine.full_scan(&Database::in_memory());
        engine.apply_op(&JournalOp::Insert {
            collection: STATE_COLLECTION.into(),
            doc: Value::map([("_id", Value::from("engine"))]),
        });
        engine.apply_op(&JournalOp::Insert {
            collection: "runs".into(),
            doc: Value::map([("status", Value::from("created"))]), // no _id
        });
        engine.apply_op(&JournalOp::BlobRemove {
            key: "not-hex".into(),
        });
        assert!(engine.diagnostics().is_empty());
    }
}
