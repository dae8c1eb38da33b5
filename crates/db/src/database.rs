//! The top-level database: named collections + blob store + persistence.

use crate::blobstore::{BlobKey, BlobStore};
use crate::collection::{Collection, IndexKind, IndexSpec};
use crate::error::DbError;
use crate::journal::{self, write_atomic, Journal, JournalCell, JournalCursor, JournalOp};
use crate::json;
use crate::Value;
use parking_lot::RwLock;
use simart_codec::fnv1a;
use simart_observe as observe;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How [`Database::load_with`] treats corrupt persisted records.
#[derive(Debug, Clone, Default)]
pub struct LoadOptions {
    /// When `true`, the first corrupt document line or mismatched blob
    /// aborts the load with [`DbError::CorruptRecord`]. When `false`
    /// (the default), corrupt records are skipped, counted in the
    /// [`LoadReport`] and surfaced on the `load.skipped_records` metric;
    /// printing [`LoadReport::warning`] is the caller's choice.
    pub strict: bool,
}

impl LoadOptions {
    /// Options that reject the first corrupt record instead of
    /// skipping it.
    pub fn strict() -> LoadOptions {
        LoadOptions { strict: true }
    }
}

/// What [`Database::load_with`] observed while reading a directory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Document lines that failed to parse or insert (lenient mode).
    pub skipped_documents: usize,
    /// Blob files whose content did not hash to their filename.
    pub skipped_blobs: usize,
    /// Journal records replayed on top of the checkpoint.
    pub journal_records: usize,
    /// Bytes of journal covered by intact records (the prefix a
    /// re-attach continues from).
    pub journal_valid_bytes: u64,
    /// Torn trailing journal bytes discarded by replay (non-zero after
    /// a crash mid-append).
    pub journal_torn_bytes: u64,
    /// `collection/_id` subjects where a journal insert collided with a
    /// checkpoint document of *different* content — evidence the
    /// checkpoint and journal disagree. The journal version wins.
    /// Index declarations that could not be rebuilt (a unique index the
    /// loaded documents no longer satisfy) appear as
    /// `collection/#index:path` entries.
    pub divergent: Vec<String>,
    /// Secondary indexes rebuilt from the documents during the load
    /// (from the `indexes.json` manifest and journal `idx` records;
    /// re-declarations of an already-rebuilt index are not counted).
    pub indexes_rebuilt: usize,
}

impl LoadReport {
    /// Total records dropped by a lenient load.
    pub fn skipped(&self) -> usize {
        self.skipped_documents + self.skipped_blobs
    }

    /// The one warning line a load of `dir` that skipped records
    /// deserves, or `None` if it skipped nothing.
    pub fn warning(&self, dir: &Path) -> Option<String> {
        (self.skipped() > 0).then(|| {
            format!(
                "warning: {}: skipped {} corrupt document line(s) and {} mismatched blob(s) during load",
                dir.display(),
                self.skipped_documents,
                self.skipped_blobs
            )
        })
    }
}

/// An embedded document database.
///
/// Mirrors how the paper's framework uses MongoDB: a handful of named
/// collections (`artifacts`, `runs`, …) plus a file store. Handles are
/// cheap clones sharing storage.
///
/// Two persistence modes share one on-disk layout:
///
/// * **Snapshot** — [`Database::save`] writes one `.jsonl` file per
///   collection (one document per line) and a `blobs/` directory with
///   one file per content hash; [`Database::load`] reads the same
///   layout back. Cost is O(whole database) per call.
/// * **Journaled** — [`Database::open`] attaches the database to its
///   directory: every subsequent mutation appends one record to
///   `journal.log` *as it happens* (cost O(delta)), and
///   [`Database::checkpoint`] periodically folds the journal into the
///   snapshot files. Killing the process at any instant loses at most
///   the record being written; `load`/`open` replay checkpoint +
///   journal. (Appends are not individually fsynced, so against an OS
///   crash or power loss durability is to the last checkpoint or save
///   — see the [`journal`] module docs for the exact scope.)
#[derive(Debug, Clone)]
pub struct Database {
    collections: Arc<RwLock<BTreeMap<String, Collection>>>,
    blobs: BlobStore,
    journal: JournalCell,
}

impl Default for Database {
    fn default() -> Database {
        let journal = JournalCell::default();
        Database {
            collections: Arc::default(),
            blobs: BlobStore::with_journal(Arc::clone(&journal)),
            journal,
        }
    }
}

impl Database {
    /// Creates an empty in-memory database.
    pub fn in_memory() -> Database {
        Database::default()
    }

    /// Gets (creating on first use) the named collection.
    pub fn collection(&self, name: &str) -> Collection {
        // Stores call this on every operation: the common case is a
        // shared-lock lookup, and only creation takes the write lock.
        if let Some(existing) = self.collections.read().get(name) {
            return existing.clone();
        }
        self.collections
            .write()
            .entry(name.to_owned())
            .or_insert_with(|| Collection::with_journal(name, Arc::clone(&self.journal)))
            .clone()
    }

    /// Whether a collection with this name exists already.
    pub fn has_collection(&self, name: &str) -> bool {
        self.collections.read().contains_key(name)
    }

    /// Names of all collections, sorted.
    pub fn collection_names(&self) -> Vec<String> {
        self.collections.read().keys().cloned().collect()
    }

    /// The database's blob store.
    pub fn blobs(&self) -> &BlobStore {
        &self.blobs
    }

    /// The directory this handle is attached to, or `None` for an
    /// in-memory database.
    pub fn attached_dir(&self) -> Option<PathBuf> {
        self.journal.read().as_ref().map(|j| j.dir().to_owned())
    }

    /// The attached journal's current cursor: the byte offset where
    /// the next record will land, plus the CRC-32 of everything before
    /// it. `None` for an in-memory database.
    ///
    /// Incremental consumers (the analysis engine) persist this cursor
    /// alongside their derived state; as long as
    /// [`JournalCursor::is_valid`] holds they can resume with
    /// [`read_journal_from`](crate::journal::read_journal_from) instead
    /// of rescanning the database.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures reading the journal file.
    pub fn journal_cursor(&self) -> Result<Option<JournalCursor>, DbError> {
        let guard = self.journal.read();
        let Some(journal) = guard.as_ref() else {
            return Ok(None);
        };
        let offset = journal.len()?;
        // The prefix is stable under the read guard: concurrent appends
        // only extend the file past `offset`, and compaction
        // (checkpoint/save) takes its own turn with the cell.
        let cursor = JournalCursor::capture(journal.dir(), offset)?;
        Ok(cursor)
    }

    /// Drops a collection, returning whether it existed.
    pub fn drop_collection(&self, name: &str) -> bool {
        let mut collections = self.collections.write();
        if !collections.contains_key(name) {
            return false;
        }
        journal::append_best_effort(
            &self.journal,
            &JournalOp::DropCollection {
                collection: name.to_owned(),
            },
        );
        collections.remove(name).is_some()
    }

    /// Persists the database to a directory (created if needed).
    ///
    /// Layout: `<dir>/<collection>.jsonl` + `<dir>/blobs/<hash>`.
    ///
    /// The save is crash-safe per file: each collection is written to a
    /// `.jsonl.tmp` sibling, synced, and atomically renamed over the
    /// final name, so an interruption at any point leaves every
    /// `.jsonl` either the previous snapshot or the new one — never a
    /// torn mix. Blobs are content-addressed and written the same way.
    /// Leftover `.tmp` files from an earlier interrupted save are
    /// removed first and are ignored by [`Database::load`].
    ///
    /// Because a completed save captures the whole current state, any
    /// `journal.log` records it covers are superseded and compacted
    /// away afterwards. On an attached database this uses the same
    /// capture-length-then-splice protocol as [`Database::checkpoint`]:
    /// records appended concurrently with the snapshot (from other
    /// threads) survive the splice instead of being truncated unseen.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures as [`DbError::Io`].
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), DbError> {
        let dir = dir.as_ref();
        // Capture the journal length BEFORE the snapshot: only records
        // the snapshot can have seen are folded. Appends racing with
        // the snapshot land past `folded` and survive the splice.
        let folded = {
            let guard = self.journal.read();
            match guard.as_ref() {
                Some(journal) if journal.dir() == dir => Some(journal.len()?),
                _ => None,
            }
        };
        self.write_snapshot(dir)?;
        match folded {
            Some(folded) => {
                let guard = self.journal.read();
                if let Some(journal) = guard.as_ref().filter(|j| j.dir() == dir) {
                    journal.compact_prefix(folded)?;
                }
            }
            // Saving over a foreign journaled directory: this handle is
            // not appending there, so the snapshot supersedes the whole
            // file.
            None => {
                let journal_path = dir.join(journal::JOURNAL_FILE);
                if journal_path.exists() {
                    fs::OpenOptions::new()
                        .write(true)
                        .open(&journal_path)?
                        .set_len(0)?;
                }
            }
        }
        Ok(())
    }

    /// The snapshot body shared by [`Database::save`] and
    /// [`Database::checkpoint`] — writes `.jsonl` + blob files without
    /// touching the journal. Each collection is read through one frozen
    /// [`Snapshot`](crate::Snapshot), by reference, so writers proceed
    /// meanwhile and no document is copied.
    fn write_snapshot(&self, dir: &Path) -> Result<(), DbError> {
        let _timer = observe::timer("db.save_us");
        let _span = observe::span(|| "db.save".to_owned());
        fs::create_dir_all(dir)?;
        remove_stale_tmp_files(dir)?;
        let names = self.collection_names();
        for name in &names {
            let snapshot = self.collection(name).snapshot();
            write_atomic(&dir.join(format!("{name}.jsonl")), |file| {
                snapshot
                    .iter()
                    .try_for_each(|(_, doc)| writeln!(file, "{}", json::to_json(doc)))
            })?;
        }
        // Delete snapshot files of collections that no longer exist —
        // otherwise a dropped collection would be resurrected on reload
        // once checkpoint compaction splices away the DropCollection
        // journal record that encoded the deletion.
        for path in snapshot_files(dir, "jsonl")? {
            let stale = path
                .file_stem()
                .and_then(|s| s.to_str())
                .map(|stem| !names.iter().any(|n| n == stem))
                .unwrap_or(false);
            if stale {
                fs::remove_file(&path)?;
            }
        }
        // Persist index *definitions* (plus one digest of each index's
        // entries, for `simart check`'s divergence lint) in one
        // manifest. Index contents are never load-bearing — loading
        // rebuilds every index from the documents — but without the
        // manifest a `save`d (journal-truncating) directory would
        // forget which indexes were declared.
        let manifest: BTreeMap<String, Value> = names
            .iter()
            .map(|name| (name.clone(), self.collection(name).index_manifest()))
            .filter(|(_, entries)| entries.as_array().is_some_and(|e| !e.is_empty()))
            .collect();
        let manifest_path = dir.join(INDEX_MANIFEST_FILE);
        if manifest.is_empty() {
            if manifest_path.exists() {
                fs::remove_file(&manifest_path)?;
            }
        } else {
            let body = json::to_json(&Value::map([(
                "collections".to_owned(),
                Value::Map(manifest),
            )]));
            write_atomic(&manifest_path, |file| writeln!(file, "{body}"))?;
        }
        let blob_dir = dir.join("blobs");
        fs::create_dir_all(&blob_dir)?;
        remove_stale_tmp_files(&blob_dir)?;
        let keys = self.blobs.keys();
        for &key in &keys {
            let path = blob_dir.join(key.to_hex());
            if !path.exists() {
                // The store is append-only, but don't let a racing
                // mutation turn a missing key into a panic mid-save.
                let Some(content) = self.blobs.get(key) else {
                    continue;
                };
                write_atomic(&path, |file| file.write_all(&content))?;
            }
        }
        // Same reasoning as stale .jsonl files: a blob file whose key
        // left the store must not outlive the BlobRemove record.
        for entry in fs::read_dir(&blob_dir)? {
            let entry = entry?;
            let Some(key) = entry.file_name().to_str().and_then(BlobKey::from_hex) else {
                continue;
            };
            if keys.binary_search(&key).is_err() {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }

    /// Opens a directory-attached database: loads any existing
    /// checkpoint + journal (leniently) and attaches the journal so
    /// every subsequent mutation appends as it happens. The directory
    /// is created if needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures as [`DbError::Io`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Database, DbError> {
        Database::open_with(dir, &LoadOptions::default()).map(|(db, _)| db)
    }

    /// Like [`Database::open`], with explicit [`LoadOptions`] and the
    /// [`LoadReport`] of the initial load.
    ///
    /// # Errors
    ///
    /// As [`Database::load_with`], plus filesystem failures attaching
    /// the journal.
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: &LoadOptions,
    ) -> Result<(Database, LoadReport), DbError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let (db, report) = Database::load_with(dir, options)?;
        // Continue appending after the last intact record; a torn tail
        // (already discarded by replay) is truncated away so the next
        // append starts on a valid frame boundary.
        let journal = Journal::attach(dir, report.journal_valid_bytes)?;
        *db.journal.write() = Some(journal);
        Ok((db, report))
    }

    /// Folds the journal into the snapshot files and compacts it.
    ///
    /// Protocol: record the journal length, write a full snapshot
    /// (atomic per file), then splice off exactly the folded prefix.
    /// Records appended concurrently with the snapshot survive the
    /// splice; replay is idempotent, so a crash between snapshot and
    /// splice merely replays already-folded records to the same state.
    ///
    /// # Errors
    ///
    /// * [`DbError::NotAttached`] — this handle was not opened with
    ///   [`Database::open`].
    /// * [`DbError::Io`] — filesystem failure.
    pub fn checkpoint(&self) -> Result<(), DbError> {
        let _timer = observe::timer("db.checkpoint_us");
        let _span = observe::span(|| "db.checkpoint".to_owned());
        let (dir, folded) = {
            let guard = self.journal.read();
            let journal = guard.as_ref().ok_or(DbError::NotAttached)?;
            (journal.dir().to_owned(), journal.len()?)
        };
        self.write_snapshot(&dir)?;
        let guard = self.journal.read();
        let journal = guard.as_ref().ok_or(DbError::NotAttached)?;
        journal.compact_prefix(folded)?;
        Ok(())
    }

    /// Loads a database previously written by [`Database::save`] or a
    /// journaled directory produced by [`Database::open`], skipping
    /// corrupt records (see [`LoadOptions`] for the strict variant).
    ///
    /// Recovery from interrupted writes is automatic: `.tmp` files
    /// (torn partial writes) are ignored, blob files whose content does
    /// not hash to their filename are discarded rather than loaded, and
    /// a torn journal tail is dropped at the last intact record — so a
    /// crashed save or append can never corrupt the loaded state.
    ///
    /// # Errors
    ///
    /// * [`DbError::Io`] — directory unreadable.
    pub fn load(dir: impl AsRef<Path>) -> Result<Database, DbError> {
        Database::load_with(dir, &LoadOptions::default()).map(|(db, _)| db)
    }

    /// Like [`Database::load`], with explicit [`LoadOptions`], also
    /// returning a [`LoadReport`] describing skipped records and
    /// journal replay.
    ///
    /// # Errors
    ///
    /// * [`DbError::Io`] — directory unreadable.
    /// * [`DbError::CorruptRecord`] — corrupt document line or
    ///   mismatched blob, in strict mode only.
    pub fn load_with(
        dir: impl AsRef<Path>,
        options: &LoadOptions,
    ) -> Result<(Database, LoadReport), DbError> {
        let _timer = observe::timer("db.load_us");
        let _span = observe::span(|| "db.load".to_owned());
        let dir = dir.as_ref();
        let db = Database::in_memory();
        let mut report = LoadReport::default();
        let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            if path.extension().map(|e| e == "jsonl").unwrap_or(false) {
                let name = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .ok_or_else(|| DbError::InvalidDocument {
                        reason: format!("bad collection filename {path:?}"),
                    })?
                    .to_owned();
                let collection = db.collection(&name);
                for (lineno, line) in fs::read_to_string(&path)?.lines().enumerate() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let outcome = json::from_json(line)
                        .map_err(DbError::from)
                        .and_then(|doc| collection.insert(doc));
                    if let Err(err) = outcome {
                        if options.strict {
                            return Err(DbError::CorruptRecord {
                                path: path.display().to_string(),
                                detail: format!("line {}: {err}", lineno + 1),
                            });
                        }
                        report.skipped_documents += 1;
                    }
                }
            }
        }
        let blob_dir = dir.join("blobs");
        if blob_dir.is_dir() {
            for entry in fs::read_dir(&blob_dir)? {
                let entry = entry?;
                // Only files named by a valid content hash are blobs;
                // anything else (.tmp leftovers, strays) is a torn or
                // foreign write and is skipped silently.
                let Some(key) = entry.file_name().to_str().and_then(BlobKey::from_hex) else {
                    continue;
                };
                let data = fs::read(entry.path())?;
                if BlobKey::for_content(&data) != key {
                    if options.strict {
                        return Err(DbError::CorruptRecord {
                            path: entry.path().display().to_string(),
                            detail: "blob content does not hash to its filename".into(),
                        });
                    }
                    report.skipped_blobs += 1;
                    continue;
                }
                db.blobs.put(data);
            }
        }
        // Rebuild declared indexes from the manifest *before* journal
        // replay, so replayed mutations maintain them write-through.
        // Only the specs are consumed here; the recorded digests exist
        // for divergence checking, the indexes themselves are always
        // rebuilt from the loaded documents.
        let manifest_path = dir.join(INDEX_MANIFEST_FILE);
        if manifest_path.is_file() {
            match json::from_json(fs::read_to_string(&manifest_path)?.trim()) {
                Ok(manifest) => {
                    let collections = manifest
                        .at("collections")
                        .and_then(Value::as_map)
                        .cloned()
                        .unwrap_or_default();
                    for (name, state) in collections {
                        for entry in state.as_array().unwrap_or(&[]) {
                            let Some(spec) = index_spec_from_state(entry) else {
                                if options.strict {
                                    return Err(DbError::CorruptRecord {
                                        path: manifest_path.display().to_string(),
                                        detail: format!("bad index entry for collection {name}"),
                                    });
                                }
                                report.skipped_documents += 1;
                                continue;
                            };
                            let path = spec.path.clone();
                            match db.collection(&name).ensure_index(spec) {
                                Ok(()) => report.indexes_rebuilt += 1,
                                Err(err) if options.strict => return Err(err),
                                Err(_) => report.divergent.push(format!("{name}/#index:{path}")),
                            }
                        }
                    }
                }
                Err(err) => {
                    if options.strict {
                        return Err(DbError::CorruptRecord {
                            path: manifest_path.display().to_string(),
                            detail: err.to_string(),
                        });
                    }
                    report.skipped_documents += 1;
                }
            }
        }
        // Replay the journal on top of the checkpoint. The database is
        // not yet attached, so replay never re-journals itself.
        let replay = journal::read_journal(dir)?;
        report.journal_records = replay.ops.len();
        report.journal_valid_bytes = replay.valid_bytes;
        report.journal_torn_bytes = replay.torn_bytes;
        observe::count("db.journal_replay_records", replay.ops.len() as u64);
        for op in replay.ops {
            db.apply_journal_op(op, options, &mut report)?;
        }
        if report.skipped() > 0 {
            observe::count("load.skipped_records", report.skipped() as u64);
        }
        Ok((db, report))
    }

    /// Applies one replayed journal record. Replay is idempotent so a
    /// journal whose prefix was already folded into the checkpoint (a
    /// crash mid-checkpoint) converges to the same state.
    fn apply_journal_op(
        &self,
        op: JournalOp,
        options: &LoadOptions,
        report: &mut LoadReport,
    ) -> Result<(), DbError> {
        match op {
            JournalOp::Insert { collection, doc } => {
                let target = self.collection(&collection);
                let id = doc
                    .at("_id")
                    .and_then(crate::Value::as_str)
                    .map(str::to_owned)
                    .unwrap_or_default();
                match target.get(&id) {
                    // Fresh insert: the common case.
                    None => {
                        if let Err(err) = target.insert(doc) {
                            if options.strict {
                                return Err(err);
                            }
                            report.skipped_documents += 1;
                        }
                    }
                    // Already folded into the checkpoint with identical
                    // content: a replayed suffix, nothing to do.
                    Some(existing) if json::to_json(&existing) == json::to_json(&doc) => {}
                    // Same id, different content: checkpoint and journal
                    // disagree. The journal (the write-ahead record of
                    // what actually happened) wins, but the divergence
                    // is reported for `simart check` to flag.
                    Some(_) => {
                        report.divergent.push(format!("{collection}/{id}"));
                        let _ = target.upsert(doc);
                    }
                }
            }
            JournalOp::Upsert { collection, doc } => {
                if let Err(err) = self.collection(&collection).upsert(doc) {
                    if options.strict {
                        return Err(err);
                    }
                    report.skipped_documents += 1;
                }
            }
            JournalOp::Delete { collection, id } => {
                if self.has_collection(&collection) {
                    self.collection(&collection).delete(&id);
                }
            }
            JournalOp::DropCollection { collection } => {
                self.drop_collection(&collection);
            }
            JournalOp::BlobPut { data } => {
                self.blobs.put(data);
            }
            JournalOp::BlobRemove { key } => {
                if let Some(key) = BlobKey::from_hex(&key) {
                    self.blobs.remove(key);
                }
            }
            JournalOp::EnsureIndex { collection, spec } => {
                let target = self.collection(&collection);
                // Replays over a manifest-rebuilt index are expected;
                // only genuinely new declarations count as rebuilds.
                if target.index_specs().contains(&spec) {
                    return Ok(());
                }
                let path = spec.path.clone();
                match target.ensure_index(spec) {
                    Ok(()) => report.indexes_rebuilt += 1,
                    Err(err) if options.strict => return Err(err),
                    Err(_) => report.divergent.push(format!("{collection}/#index:{path}")),
                }
            }
        }
        Ok(())
    }
}

/// File name of the secondary-index manifest inside a database
/// directory (index specs + a digest of their entries at save time).
pub const INDEX_MANIFEST_FILE: &str = "indexes.json";

/// A collection's entries in the [`INDEX_MANIFEST_FILE`] manifest, from
/// its [`Collection::index_state`]: each index's `keys` map becomes one
/// `digest` (the 16-hex-digit FNV-1a of the map's JSON) beside `path`,
/// `kind` and `unique`. The checkpoint writer records this form, and
/// `simart check` compares a recorded manifest with it, both taking it
/// from [`Collection::index_manifest`], which digests the live indexes
/// without the copy. An entry that carries no `keys` is already in this
/// form and passes through, so a manifest that recorded the full
/// entries normalises to the digests written today.
pub fn index_manifest(state: &Value) -> Value {
    let entries = state.as_array().unwrap_or(&[]).iter().map(|entry| {
        let mut entry = entry.as_map().cloned().unwrap_or_default();
        if let Some(keys) = entry.remove("keys") {
            let digest = fnv1a(json::to_json(&keys).as_bytes());
            entry.insert("digest".to_owned(), Value::from(format!("{digest:016x}")));
        }
        Value::Map(entry)
    });
    Value::Array(entries.collect())
}

/// Decodes one manifest / [`Collection::index_state`] entry back into
/// its [`IndexSpec`]; `None` when fields are missing or malformed.
fn index_spec_from_state(entry: &Value) -> Option<IndexSpec> {
    Some(IndexSpec {
        path: entry.at("path")?.as_str()?.to_owned(),
        kind: IndexKind::parse(entry.at("kind")?.as_str()?)?,
        unique: entry.at("unique")?.as_bool()?,
    })
}

/// Files in `dir` (non-recursive) with the given extension.
fn snapshot_files(dir: &Path, ext: &str) -> Result<Vec<PathBuf>, DbError> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_file() && path.extension().map(|e| e == ext).unwrap_or(false) {
            files.push(path);
        }
    }
    Ok(files)
}

/// Removes `*.tmp` leftovers of an interrupted save from `dir`.
fn remove_stale_tmp_files(dir: &Path) -> Result<(), DbError> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_file() && path.extension().map(|e| e == "tmp").unwrap_or(false) {
            fs::remove_file(&path)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Filter;
    use crate::Value;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simart-db-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn collections_are_created_on_demand_and_shared() {
        let db = Database::in_memory();
        assert!(!db.has_collection("runs"));
        let c1 = db.collection("runs");
        let c2 = db.collection("runs");
        c1.insert(Value::map([("_id", Value::from("r1"))])).unwrap();
        assert_eq!(c2.len(), 1);
        assert_eq!(db.collection_names(), vec!["runs".to_owned()]);
        assert!(db.drop_collection("runs"));
        assert!(!db.drop_collection("runs"));
    }

    #[test]
    fn save_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let db = Database::in_memory();
        let runs = db.collection("runs");
        for i in 0..5i64 {
            runs.insert(Value::map([
                ("_id", Value::from(format!("run-{i}"))),
                ("ticks", Value::from(i * 1000)),
                ("nested", Value::map([("ok", Value::from(i % 2 == 0))])),
            ]))
            .unwrap();
        }
        let key = db.blobs().put(b"result archive".to_vec());
        db.save(&dir).unwrap();

        let restored = Database::load(&dir).unwrap();
        assert_eq!(restored.collection("runs").len(), 5);
        assert_eq!(
            restored
                .collection("runs")
                .count(&Filter::eq("nested.ok", true)),
            3
        );
        assert_eq!(
            restored.blobs().get(key).unwrap().as_ref(),
            b"result archive"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_load_rejects_corrupt_lines_lenient_load_counts_them() {
        let dir = temp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("runs.jsonl"), "{\"_id\":\"a\"}\nnot json\n").unwrap();
        assert!(matches!(
            Database::load_with(&dir, &LoadOptions::strict()),
            Err(DbError::CorruptRecord { .. })
        ));
        // The default load keeps the good line and counts the bad one.
        let (db, report) = Database::load_with(&dir, &LoadOptions::default()).unwrap();
        assert_eq!(db.collection("runs").len(), 1);
        assert!(db.collection("runs").get("a").is_some());
        assert_eq!(report.skipped_documents, 1);
        assert_eq!(report.skipped(), 1);
        let warning = report
            .warning(&dir)
            .expect("a skipped record is worth a warning");
        assert!(warning
            .ends_with("skipped 1 corrupt document line(s) and 0 mismatched blob(s) during load"));
        assert_eq!(LoadReport::default().warning(&dir), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_journals_and_reload_replays() {
        let dir = temp_dir("open-journal");
        let key;
        {
            let db = Database::open(&dir).unwrap();
            assert_eq!(db.attached_dir(), Some(dir.clone()));
            db.collection("runs")
                .insert(Value::map([
                    ("_id", Value::from("r1")),
                    ("n", Value::from(1i64)),
                ]))
                .unwrap();
            db.collection("runs")
                .insert(Value::map([
                    ("_id", Value::from("r2")),
                    ("n", Value::from(2i64)),
                ]))
                .unwrap();
            key = db.blobs().put(b"journaled blob".to_vec());
            db.collection("runs").delete("r2");
            // Dropped without save or checkpoint: the journal alone
            // carries the state.
        }
        assert!(dir.join(journal::JOURNAL_FILE).exists());
        assert!(!dir.join("runs.jsonl").exists());

        let (restored, report) = Database::load_with(&dir, &LoadOptions::default()).unwrap();
        assert_eq!(report.journal_records, 4);
        assert_eq!(restored.collection("runs").len(), 1);
        assert!(restored.collection("runs").get("r1").is_some());
        assert_eq!(
            restored.blobs().get(key).unwrap().as_ref(),
            b"journaled blob"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_folds_journal_and_keeps_state() {
        let dir = temp_dir("checkpoint");
        let db = Database::open(&dir).unwrap();
        for i in 0..3i64 {
            db.collection("runs")
                .insert(Value::map([("_id", Value::from(format!("r{i}")))]))
                .unwrap();
        }
        db.checkpoint().unwrap();
        assert!(dir.join("runs.jsonl").exists());
        assert_eq!(
            fs::metadata(dir.join(journal::JOURNAL_FILE)).unwrap().len(),
            0
        );
        // Post-checkpoint writes land in the journal again.
        db.collection("runs")
            .insert(Value::map([("_id", Value::from("r3"))]))
            .unwrap();
        assert!(fs::metadata(dir.join(journal::JOURNAL_FILE)).unwrap().len() > 0);

        let restored = Database::load(&dir).unwrap();
        assert_eq!(restored.collection("runs").len(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_does_not_resurrect_dropped_collections() {
        let dir = temp_dir("drop-checkpoint");
        let db = Database::open(&dir).unwrap();
        db.collection("runs")
            .insert(Value::map([("_id", Value::from("r1"))]))
            .unwrap();
        db.collection("keep")
            .insert(Value::map([("_id", Value::from("k1"))]))
            .unwrap();
        db.checkpoint().unwrap();
        assert!(dir.join("runs.jsonl").exists());
        // Drop after the checkpoint wrote runs.jsonl, then checkpoint
        // again: the snapshot must delete the stale file, because the
        // splice removes the DropCollection record that encoded the
        // deletion.
        assert!(db.drop_collection("runs"));
        db.checkpoint().unwrap();
        assert!(!dir.join("runs.jsonl").exists());
        let restored = Database::load(&dir).unwrap();
        assert!(!restored.has_collection("runs"));
        assert_eq!(restored.collection("keep").len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_does_not_resurrect_removed_blobs() {
        let dir = temp_dir("blobrm-checkpoint");
        let db = Database::open(&dir).unwrap();
        let doomed = db.blobs().put(b"doomed".to_vec());
        let kept = db.blobs().put(b"kept".to_vec());
        db.checkpoint().unwrap();
        assert!(dir.join("blobs").join(doomed.to_hex()).exists());
        assert!(db.blobs().remove(doomed).is_some());
        db.checkpoint().unwrap();
        assert!(!dir.join("blobs").join(doomed.to_hex()).exists());
        let restored = Database::load(&dir).unwrap();
        assert!(restored.blobs().get(doomed).is_none());
        assert_eq!(restored.blobs().get(kept).unwrap().as_ref(), b"kept");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_does_not_resurrect_dropped_state_either() {
        let dir = temp_dir("drop-save");
        let db = Database::in_memory();
        db.collection("runs")
            .insert(Value::map([("_id", Value::from("r1"))]))
            .unwrap();
        let key = db.blobs().put(b"bytes".to_vec());
        db.save(&dir).unwrap();
        db.drop_collection("runs");
        db.blobs().remove(key);
        db.save(&dir).unwrap();
        assert!(!dir.join("runs.jsonl").exists());
        assert!(!dir.join("blobs").join(key.to_hex()).exists());
        let restored = Database::load(&dir).unwrap();
        assert!(!restored.has_collection("runs"));
        assert!(restored.blobs().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_on_attached_database_keeps_concurrent_appends() {
        // save() must use the capture-length-then-splice protocol:
        // records appended by other threads while the snapshot is being
        // written land past the captured fold point and survive the
        // splice. The old truncate-everything behavior lost them, so a
        // reload here would come up short.
        let dir = temp_dir("save-concurrent");
        let db = Database::open(&dir).unwrap();
        let writer = db.clone();
        let inserts = std::thread::spawn(move || {
            for i in 0..200i64 {
                writer
                    .collection("runs")
                    .insert(Value::map([("_id", Value::from(format!("r{i}")))]))
                    .unwrap();
            }
        });
        for _ in 0..20 {
            db.save(&dir).unwrap();
        }
        inserts.join().unwrap();
        let restored = Database::load(&dir).unwrap();
        assert_eq!(restored.collection("runs").len(), 200);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_cursor_tracks_appends_and_survives_reload() {
        let dir = temp_dir("cursor");
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.attached_dir(), Some(dir.clone()));
        let start = db.journal_cursor().unwrap().unwrap();
        assert_eq!(start.offset, 0);
        db.collection("runs")
            .insert(Value::map([("_id", Value::from("r1"))]))
            .unwrap();
        let after = db.journal_cursor().unwrap().unwrap();
        assert!(after.offset > start.offset);
        assert!(after.is_valid(&dir).unwrap());
        // Replay from the first cursor sees exactly the new record.
        let replay = crate::journal::read_journal_from(&dir, start.offset).unwrap();
        assert_eq!(replay.ops.len(), 1);
        assert_eq!(replay.valid_bytes, after.offset);
        // Checkpoint compacts: the old cursors no longer validate.
        db.checkpoint().unwrap();
        assert!(!after.is_valid(&dir).unwrap());
        // In-memory databases have no cursor.
        assert!(Database::in_memory().journal_cursor().unwrap().is_none());
        assert!(Database::in_memory().attached_dir().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_requires_attachment() {
        let db = Database::in_memory();
        assert!(matches!(db.checkpoint(), Err(DbError::NotAttached)));
    }

    #[test]
    fn reopen_continues_journaling_after_crashless_exit() {
        let dir = temp_dir("reopen");
        {
            let db = Database::open(&dir).unwrap();
            db.collection("runs")
                .insert(Value::map([("_id", Value::from("r1"))]))
                .unwrap();
        }
        {
            let (db, report) = Database::open_with(&dir, &LoadOptions::default()).unwrap();
            assert_eq!(report.journal_records, 1);
            db.collection("runs")
                .insert(Value::map([("_id", Value::from("r2"))]))
                .unwrap();
        }
        let restored = Database::load(&dir).unwrap();
        assert_eq!(restored.collection("runs").len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_journal_tail_is_discarded_and_truncated_on_open() {
        let dir = temp_dir("torn-journal");
        {
            let db = Database::open(&dir).unwrap();
            db.collection("runs")
                .insert(Value::map([("_id", Value::from("r1"))]))
                .unwrap();
        }
        // Simulate a crash mid-append: garbage trailing bytes.
        let journal_path = dir.join(journal::JOURNAL_FILE);
        let mut bytes = fs::read(&journal_path).unwrap();
        let intact = bytes.len() as u64;
        bytes.extend_from_slice(&[0x17, 0x99, 0x02]);
        fs::write(&journal_path, &bytes).unwrap();

        let (db, report) = Database::open_with(&dir, &LoadOptions::default()).unwrap();
        assert_eq!(report.journal_records, 1);
        assert_eq!(report.journal_torn_bytes, 3);
        assert_eq!(report.journal_valid_bytes, intact);
        // The torn tail was truncated, so new appends stay readable.
        db.collection("runs")
            .insert(Value::map([("_id", Value::from("r2"))]))
            .unwrap();
        drop(db);
        let restored = Database::load(&dir).unwrap();
        assert_eq!(restored.collection("runs").len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_divergence_is_reported_and_journal_wins() {
        let dir = temp_dir("divergence");
        {
            let db = Database::open(&dir).unwrap();
            db.collection("runs")
                .insert(Value::map([
                    ("_id", Value::from("r1")),
                    ("n", Value::from(1i64)),
                ]))
                .unwrap();
        }
        // Hand-write a checkpoint that disagrees with the journal.
        fs::write(dir.join("runs.jsonl"), "{\"_id\":\"r1\",\"n\":99}\n").unwrap();
        let (db, report) = Database::load_with(&dir, &LoadOptions::default()).unwrap();
        assert_eq!(report.divergent, vec!["runs/r1".to_owned()]);
        assert_eq!(
            db.collection("runs")
                .get("r1")
                .unwrap()
                .at("n")
                .and_then(Value::as_int),
            Some(1),
            "the journal record wins"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_empties_the_journal_it_supersedes() {
        let dir = temp_dir("save-supersedes");
        let db = Database::open(&dir).unwrap();
        db.collection("runs")
            .insert(Value::map([("_id", Value::from("r1"))]))
            .unwrap();
        assert!(fs::metadata(dir.join(journal::JOURNAL_FILE)).unwrap().len() > 0);
        db.save(&dir).unwrap();
        assert_eq!(
            fs::metadata(dir.join(journal::JOURNAL_FILE)).unwrap().len(),
            0
        );
        let restored = Database::load(&dir).unwrap();
        assert_eq!(restored.collection("runs").len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_save_leaves_previous_snapshot_loadable() {
        let dir = temp_dir("interrupted");
        let db = Database::in_memory();
        db.collection("runs")
            .insert(Value::map([("_id", Value::from("r1"))]))
            .unwrap();
        let key = db.blobs().put(b"good blob".to_vec());
        db.save(&dir).unwrap();

        // Simulate a save that died mid-write: a torn collection tmp
        // file and a torn blob tmp file are left behind, but the real
        // files were never replaced.
        fs::write(dir.join("runs.jsonl.tmp"), "{\"_id\":\"r2\",\"truncat").unwrap();
        fs::write(
            dir.join("blobs").join(format!("{}.tmp", key.to_hex())),
            b"gar",
        )
        .unwrap();

        let restored = Database::load(&dir).unwrap();
        assert_eq!(restored.collection("runs").len(), 1);
        assert!(restored.collection("runs").get("r1").is_some());
        assert_eq!(restored.blobs().get(key).unwrap().as_ref(), b"good blob");

        // The next save clears the torn leftovers.
        restored.save(&dir).unwrap();
        assert!(!dir.join("runs.jsonl.tmp").exists());
        assert!(!dir
            .join("blobs")
            .join(format!("{}.tmp", key.to_hex()))
            .exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_blobs_are_discarded_on_load() {
        let dir = temp_dir("torn-blob");
        let db = Database::in_memory();
        let key = db.blobs().put(b"intact".to_vec());
        db.save(&dir).unwrap();

        // A blob whose content no longer matches its filename (torn or
        // tampered) must not be loaded under that key.
        let fake = BlobKey::for_content(b"never stored");
        fs::write(dir.join("blobs").join(fake.to_hex()), b"mismatched content").unwrap();

        let (restored, report) = Database::load_with(&dir, &LoadOptions::default()).unwrap();
        assert_eq!(restored.blobs().get(key).unwrap().as_ref(), b"intact");
        assert!(restored.blobs().get(fake).is_none());
        assert_eq!(report.skipped_blobs, 1);
        // Strict mode refuses the mismatched blob outright.
        assert!(matches!(
            Database::load_with(&dir, &LoadOptions::strict()),
            Err(DbError::CorruptRecord { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_is_atomic_per_collection_file() {
        let dir = temp_dir("atomic");
        let db = Database::in_memory();
        db.collection("runs")
            .insert(Value::map([("_id", Value::from("r1"))]))
            .unwrap();
        db.save(&dir).unwrap();
        // After a completed save no tmp files remain.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().map(|x| x == "tmp").unwrap_or(false))
            .collect();
        assert!(leftovers.is_empty());
        // Overwriting saves replace content wholesale.
        db.collection("runs")
            .insert(Value::map([("_id", Value::from("r2"))]))
            .unwrap();
        db.save(&dir).unwrap();
        assert_eq!(Database::load(&dir).unwrap().collection("runs").len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_database_round_trips() {
        let dir = temp_dir("empty");
        let db = Database::in_memory();
        db.save(&dir).unwrap();
        let restored = Database::load(&dir).unwrap();
        assert!(restored.collection_names().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn indexes_survive_save_and_load_via_manifest() {
        let dir = temp_dir("index-manifest");
        let db = Database::in_memory();
        let runs = db.collection("runs");
        runs.ensure_index(IndexSpec::hash("status")).unwrap();
        runs.ensure_index(IndexSpec::ordered("ticks")).unwrap();
        for i in 0..6i64 {
            runs.insert(Value::map([
                ("_id", Value::from(format!("r{i}"))),
                (
                    "status",
                    Value::from(if i % 2 == 0 { "done" } else { "new" }),
                ),
                ("ticks", Value::from(i * 10)),
            ]))
            .unwrap();
        }
        db.save(&dir).unwrap();
        let manifest = fs::read_to_string(dir.join(INDEX_MANIFEST_FILE)).unwrap();
        assert!(manifest.contains("\"digest\"") && !manifest.contains("\"keys\""));

        let (restored, report) = Database::load_with(&dir, &LoadOptions::default()).unwrap();
        assert_eq!(report.indexes_rebuilt, 2);
        let rruns = restored.collection("runs");
        assert_eq!(rruns.index_specs().len(), 2);
        assert_eq!(rruns.index_state(), runs.index_state());
        assert!(rruns.verify_indexes().is_empty());
        // Dropping every index removes the manifest again.
        fs::remove_dir_all(&dir).unwrap();
        Database::in_memory().save(&dir).unwrap();
        assert!(!dir.join(INDEX_MANIFEST_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_replays_index_declarations_without_a_manifest() {
        let dir = temp_dir("index-journal");
        {
            let db = Database::open(&dir).unwrap();
            let runs = db.collection("runs");
            runs.insert(Value::map([
                ("_id", Value::from("r1")),
                ("status", Value::from("done")),
            ]))
            .unwrap();
            runs.ensure_index(IndexSpec::hash("status")).unwrap();
            runs.insert(Value::map([
                ("_id", Value::from("r2")),
                ("status", Value::from("new")),
            ]))
            .unwrap();
            // No save: only the journal carries the declaration.
        }
        assert!(!dir.join(INDEX_MANIFEST_FILE).exists());
        let (restored, report) = Database::load_with(&dir, &LoadOptions::default()).unwrap();
        assert_eq!(report.indexes_rebuilt, 1);
        let runs = restored.collection("runs");
        assert_eq!(runs.index_specs(), vec![IndexSpec::hash("status")]);
        assert!(runs.verify_indexes().is_empty());
        assert_eq!(runs.count(&Filter::eq("status", "new")), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_folds_index_declarations_into_the_manifest() {
        let dir = temp_dir("index-checkpoint");
        let db = Database::open(&dir).unwrap();
        let runs = db.collection("runs");
        runs.ensure_unique("hash").unwrap();
        runs.insert(Value::map([
            ("_id", Value::from("r1")),
            ("hash", Value::from("h1")),
        ]))
        .unwrap();
        db.checkpoint().unwrap();
        assert!(dir.join(INDEX_MANIFEST_FILE).is_file());
        drop(db);

        let (restored, report) = Database::load_with(&dir, &LoadOptions::default()).unwrap();
        // The manifest installs it once; the (already folded) journal
        // adds nothing on top.
        assert_eq!(report.indexes_rebuilt, 1);
        let runs = restored.collection("runs");
        assert_eq!(runs.index_specs(), vec![IndexSpec::hash("hash").unique()]);
        assert!(matches!(
            runs.insert(Value::map([
                ("_id", Value::from("r2")),
                ("hash", Value::from("h1")),
            ])),
            Err(DbError::UniqueViolation { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
