//! The append-only write-ahead journal behind [`Database::open`].
//!
//! Snapshot saves ([`Database::save`]) re-serialize every collection on
//! each call, so persistence cost grows with the whole database and a
//! crash loses everything since the last explicit save. The journal
//! inverts that: a directory-attached database appends one CRC-framed
//! record per mutation *as it happens*, so persistence cost is O(delta)
//! and killing the process at any instant loses at most the record
//! being written. [`Database::checkpoint`] periodically folds the
//! journal into the per-collection `.jsonl` snapshot files and
//! compacts it.
//!
//! ## Durability scope
//!
//! Appends are *not* individually fsynced — each record reaches the OS
//! page cache synchronously but the disk at the kernel's discretion.
//! The per-record guarantee therefore covers **process crashes** (kill
//! -9, panic, OOM): the moment `append` returns, the record survives
//! the death of this process. Against an **OS crash or power loss** an
//! arbitrary suffix of un-synced records may be lost or reordered;
//! what is guaranteed durable then is everything up to the last
//! [`Database::checkpoint`] or [`Database::save`], both of which sync
//! every file they write (the checkpoint splice syncs the compacted
//! journal too, so a checkpoint is an fsync barrier for the records it
//! folds). Torn-tail replay makes either outcome recoverable: replay
//! stops at the first bad frame and never loads a partial record.
//!
//! ## On-disk format
//!
//! `<dir>/journal.log` is a sequence of [`simart_codec::frame`] records
//! whose payload is the compact JSON rendering of one [`JournalOp`].
//! Replay ([`read_journal`]) walks records from the start and stops at
//! the first frame that is incomplete, fails its CRC, or does not parse
//! — the *torn tail* a crash mid-append leaves behind. Everything
//! before the tear is recovered exactly; the tear itself is reported,
//! never fatal.
//!
//! [`Database::open`]: crate::Database::open
//! [`Database::save`]: crate::Database::save
//! [`Database::checkpoint`]: crate::Database::checkpoint

use crate::error::DbError;
use crate::json;
use crate::Value;
use parking_lot::{Mutex, RwLock};
use simart_codec::frame::{self, Frame};
use simart_codec::{crc32, crc32_extend, hex};
use simart_observe as observe;
use std::fs;
use std::io::{self, BufWriter, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the journal inside a database directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// One journaled mutation, in the order it was applied in memory.
///
/// Replay of a journal is idempotent: re-applying a suffix whose
/// effects already landed in a checkpoint (possible when a crash
/// interrupts checkpoint compaction) converges to the same state.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// A document was inserted into a collection.
    Insert {
        /// Collection name.
        collection: String,
        /// The inserted document.
        doc: Value,
    },
    /// A document was inserted or replaced (upsert).
    Upsert {
        /// Collection name.
        collection: String,
        /// The new document.
        doc: Value,
    },
    /// A document was deleted.
    Delete {
        /// Collection name.
        collection: String,
        /// The deleted document's `_id`.
        id: String,
    },
    /// A whole collection was dropped.
    DropCollection {
        /// Collection name.
        collection: String,
    },
    /// A blob was stored (content-addressed; the key is the content
    /// hash, so it is not recorded separately).
    BlobPut {
        /// The blob's bytes.
        data: Vec<u8>,
    },
    /// A blob was removed by key.
    BlobRemove {
        /// Hex form of the removed blob's key.
        key: String,
    },
    /// A secondary index was declared on a collection. Journaling the
    /// definition (not the entries — indexes are rebuilt from the
    /// documents) lets declarations survive checkpoint compaction.
    EnsureIndex {
        /// Collection name.
        collection: String,
        /// The declared index.
        spec: crate::collection::IndexSpec,
    },
}

impl JournalOp {
    /// Compact JSON payload for one record.
    fn to_payload(&self) -> String {
        let value = match self {
            JournalOp::Insert { collection, doc } => {
                return DocRecord::Insert.payload(collection, doc)
            }
            JournalOp::Upsert { collection, doc } => {
                return DocRecord::Upsert.payload(collection, doc)
            }
            JournalOp::Delete { collection, id } => Value::map([
                ("op", Value::from("del")),
                ("c", Value::from(collection.clone())),
                ("id", Value::from(id.clone())),
            ]),
            JournalOp::DropCollection { collection } => Value::map([
                ("op", Value::from("drop")),
                ("c", Value::from(collection.clone())),
            ]),
            JournalOp::BlobPut { data } => Value::map([
                ("op", Value::from("blob")),
                ("hex", Value::from(hex::encode(data))),
            ]),
            JournalOp::BlobRemove { key } => Value::map([
                ("op", Value::from("blobrm")),
                ("key", Value::from(key.clone())),
            ]),
            JournalOp::EnsureIndex { collection, spec } => Value::map([
                ("op", Value::from("idx")),
                ("c", Value::from(collection.clone())),
                ("p", Value::from(spec.path.clone())),
                ("k", Value::from(spec.kind.as_str())),
                ("u", Value::from(spec.unique)),
            ]),
        };
        json::to_json(&value)
    }

    /// Parses one record payload back into an op.
    fn from_payload(text: &str) -> Result<JournalOp, String> {
        let value = json::from_json(text).map_err(|e| e.to_string())?;
        let field = |name: &str| -> Result<String, String> {
            value
                .at(name)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("journal record lacks `{name}`"))
        };
        let doc = || -> Result<Value, String> {
            value
                .at("d")
                .cloned()
                .ok_or_else(|| "journal record lacks `d`".to_owned())
        };
        match field("op")?.as_str() {
            "ins" => Ok(JournalOp::Insert {
                collection: field("c")?,
                doc: doc()?,
            }),
            "ups" => Ok(JournalOp::Upsert {
                collection: field("c")?,
                doc: doc()?,
            }),
            "del" => Ok(JournalOp::Delete {
                collection: field("c")?,
                id: field("id")?,
            }),
            "drop" => Ok(JournalOp::DropCollection {
                collection: field("c")?,
            }),
            "blob" => {
                let data = hex::decode(&field("hex")?)
                    .ok_or_else(|| "journal blob record has bad hex".to_owned())?;
                Ok(JournalOp::BlobPut { data })
            }
            "blobrm" => Ok(JournalOp::BlobRemove { key: field("key")? }),
            "idx" => Ok(JournalOp::EnsureIndex {
                collection: field("c")?,
                spec: crate::collection::IndexSpec {
                    path: field("p")?,
                    kind: crate::collection::IndexKind::parse(&field("k")?)
                        .ok_or_else(|| "journal index record has unknown kind".to_owned())?,
                    unique: value
                        .at("u")
                        .and_then(Value::as_bool)
                        .ok_or_else(|| "journal record lacks `u`".to_owned())?,
                },
            }),
            other => Err(format!("unknown journal op `{other}`")),
        }
    }
}

/// The two document-carrying records ([`JournalOp::Insert`] and
/// [`JournalOp::Upsert`]) as the write path appends them: the
/// collection name and the document are borrowed, so a write
/// serialises the stored document without first copying it into an op.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DocRecord {
    Insert,
    Upsert,
}

impl DocRecord {
    /// The record's payload — byte for byte what rendering the
    /// `{op, c, d}` map gives (a map renders its keys sorted).
    fn payload(self, collection: &str, doc: &Value) -> String {
        let op = Value::from(match self {
            DocRecord::Insert => "ins",
            DocRecord::Upsert => "ups",
        });
        let collection = Value::from(collection);
        json::object_to_json([("c", &collection), ("d", doc), ("op", &op)])
    }
}

/// The result of scanning a journal file: the decoded record prefix
/// plus how much of the file (if anything) was torn.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalReplay {
    /// Records recovered, in append order.
    pub ops: Vec<JournalOp>,
    /// Bytes of the file covered by intact records.
    pub valid_bytes: u64,
    /// Trailing bytes after the last intact record — the torn tail a
    /// crash mid-append leaves behind (0 for a cleanly closed journal).
    pub torn_bytes: u64,
}

/// Reads and decodes `<dir>/journal.log`.
///
/// A missing journal (pre-journal layout, or a freshly checkpointed
/// database) yields an empty replay. A torn tail stops the scan at the
/// last intact record; it is reported via
/// [`torn_bytes`](JournalReplay::torn_bytes), never an error.
///
/// # Errors
///
/// Propagates filesystem failures other than the file being absent.
pub fn read_journal(dir: &Path) -> Result<JournalReplay, DbError> {
    read_journal_from(dir, 0)
}

/// Like [`read_journal`], but resumes decoding at byte `offset` — the
/// incremental-analysis entry point: a consumer that recorded a
/// [`JournalCursor`] replays only the records appended since, paying
/// O(delta) instead of O(journal).
///
/// `offset` must be a frame boundary previously obtained from
/// [`Database::journal_cursor`](crate::Database::journal_cursor) or
/// [`JournalReplay::valid_bytes`] *and* still valid for the current
/// file — callers are expected to check [`JournalCursor::is_valid`]
/// first, because compaction renumbers offsets. The returned
/// [`valid_bytes`](JournalReplay::valid_bytes) is absolute (measured
/// from the start of the file), so it can seed the next cursor.
///
/// # Errors
///
/// * [`DbError::CorruptRecord`] — the journal is shorter than
///   `offset` (compacted, truncated, or rewritten since the offset was
///   recorded).
/// * [`DbError::Io`] — other filesystem failures.
pub fn read_journal_from(dir: &Path, offset: u64) -> Result<JournalReplay, DbError> {
    let path = dir.join(JOURNAL_FILE);
    let mut file = match fs::File::open(&path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && offset == 0 => {
            return Ok(JournalReplay::default())
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(DbError::CorruptRecord {
                path: path.display().to_string(),
                detail: format!("journal missing but resume offset is {offset}"),
            })
        }
        Err(e) => return Err(e.into()),
    };
    if file.metadata()?.len() < offset {
        return Err(DbError::CorruptRecord {
            path: path.display().to_string(),
            detail: format!("journal shorter than resume offset {offset}"),
        });
    }
    file.seek(SeekFrom::Start(offset))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let mut ops = Vec::new();
    let mut pos = 0usize;
    // Anything but a whole, parseable record is the torn tail.
    while let Frame::Complete { payload, consumed } = frame::next_frame(&bytes[pos..]) {
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        let Ok(op) = JournalOp::from_payload(text) else {
            break;
        };
        ops.push(op);
        pos += consumed;
    }
    Ok(JournalReplay {
        ops,
        valid_bytes: offset + pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
    })
}

/// A stable position in a journal: a byte offset on a frame boundary
/// plus the CRC-32 of every byte before it.
///
/// The offset alone is not a stable identity — checkpoint compaction
/// splices the folded prefix off the file, so the same offset can name
/// different records before and after a checkpoint (or after a
/// [`save`](crate::Database::save), which truncates the journal). The
/// prefix checksum pins the cursor to the exact bytes it was taken
/// over: [`JournalCursor::is_valid`] accepts the cursor only if the
/// current file still starts with that same prefix, which is exactly
/// the condition under which [`read_journal_from`] resumes where the
/// cursor left off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalCursor {
    /// Byte offset of the next frame (bytes `[0, offset)` are intact
    /// records the cursor's owner has already consumed).
    pub offset: u64,
    /// IEEE CRC-32 of the file's first `offset` bytes.
    pub crc: u32,
}

impl JournalCursor {
    /// Captures a cursor at `offset` by checksumming the journal's
    /// current prefix. Returns `None` if the file is shorter than
    /// `offset` (or absent with `offset > 0`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures other than the file being absent.
    pub fn capture(dir: &Path, offset: u64) -> Result<Option<JournalCursor>, DbError> {
        Ok(prefix_crc(dir, offset)?.map(|crc| JournalCursor { offset, crc }))
    }

    /// Whether this cursor still names a position in `dir`'s journal:
    /// the file is at least `offset` bytes long and its first `offset`
    /// bytes still hash to the recorded checksum. `false` means the
    /// journal was compacted, truncated, or rewritten past the cursor.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures other than the file being absent.
    pub fn is_valid(&self, dir: &Path) -> Result<bool, DbError> {
        Ok(prefix_crc(dir, self.offset)? == Some(self.crc))
    }
}

/// IEEE CRC-32 of the first `upto` bytes of `<dir>/journal.log`, or
/// `None` if the file is shorter than `upto` (a missing file counts as
/// zero-length, so `upto == 0` always yields the empty checksum).
///
/// # Errors
///
/// Propagates filesystem failures other than the file being absent.
pub fn prefix_crc(dir: &Path, upto: u64) -> Result<Option<u32>, DbError> {
    if upto == 0 {
        return Ok(Some(crc32(b"")));
    }
    let file = match fs::File::open(dir.join(JOURNAL_FILE)) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if file.metadata()?.len() < upto {
        return Ok(None);
    }
    let mut reader = file.take(upto);
    let mut crc = crc32(b"");
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = reader.read(&mut buf)?;
        if n == 0 {
            break;
        }
        crc = crc32_extend(crc, &buf[..n]);
    }
    Ok(Some(crc))
}

/// The shared slot holding a database's journal writer. Every
/// [`Collection`](crate::Collection) handle and the blob store share
/// one cell with their owning `Database`, so attaching a journal after
/// load makes all existing handles write through it immediately.
pub(crate) type JournalCell = Arc<RwLock<Option<Journal>>>;

/// Appends an op if the cell currently holds an attached journal.
pub(crate) fn append_if_attached(cell: &JournalCell, op: &JournalOp) -> Result<(), DbError> {
    match cell.read().as_ref() {
        Some(journal) => journal.append(op),
        None => Ok(()),
    }
}

/// [`append_if_attached`] for one document record per document of
/// `docs`, serialised from the borrowed documents and appended as a
/// unit: every record lands, or none does.
pub(crate) fn append_docs_if_attached<'a>(
    cell: &JournalCell,
    record: DocRecord,
    collection: &str,
    docs: impl IntoIterator<Item = &'a Value>,
) -> Result<(), DbError> {
    match cell.read().as_ref() {
        Some(journal) => {
            journal.append_rendered(docs.into_iter().map(|doc| record.payload(collection, doc)))
        }
        None => Ok(()),
    }
}

/// Like [`append_if_attached`] for the write paths that have no error
/// to return an append failure in: `delete` and blob puts. The failure
/// is counted on the `db.journal_append_errors` metric and the
/// in-memory mutation proceeds — durability of that one record is then
/// deferred to the next checkpoint.
pub(crate) fn append_best_effort(cell: &JournalCell, op: &JournalOp) {
    if append_if_attached(cell, op).is_err() {
        observe::count("db.journal_append_errors", 1);
    }
}

/// The append-side journal writer of a directory-attached database.
#[derive(Debug)]
pub(crate) struct Journal {
    dir: PathBuf,
    path: PathBuf,
    writer: Mutex<Writer>,
}

/// Mutable writer state, all guarded by one lock so the tracked length
/// can never disagree with the file contents.
#[derive(Debug)]
struct Writer {
    file: fs::File,
    /// Bytes covered by intact records — where the next append lands.
    /// Tracked explicitly so a failed partial append can be rolled back
    /// to a frame boundary without trusting the (now torn) file length.
    len: u64,
    /// Set when a failed append could not be rolled back: the file ends
    /// in a torn frame, and any further append would land *after* it,
    /// orphaned — replay stops at the first bad frame. A poisoned
    /// journal refuses appends until a compaction rewrites the file.
    poisoned: bool,
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, discarding any
    /// torn tail beyond `valid_bytes` so new appends continue from the
    /// last intact record.
    pub(crate) fn attach(dir: &Path, valid_bytes: u64) -> Result<Journal, DbError> {
        let path = dir.join(JOURNAL_FILE);
        // truncate(false): existing records before `valid_bytes` are
        // the database — set_len below trims only the torn tail.
        let mut file = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        file.set_len(valid_bytes)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Journal {
            dir: dir.to_owned(),
            path,
            writer: Mutex::new(Writer {
                file,
                len: valid_bytes,
                poisoned: false,
            }),
        })
    }

    /// The database directory this journal belongs to.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one framed record.
    pub(crate) fn append(&self, op: &JournalOp) -> Result<(), DbError> {
        self.append_rendered([op.to_payload()])
    }

    /// Appends one framed record per payload, all with one write.
    ///
    /// A failed write is rolled back to the previous frame boundary —
    /// the one before the first of these records — so a torn frame can
    /// never sit *between* intact records (replay would silently
    /// discard everything after it) and a batch is never half
    /// journaled. If the rollback itself fails the journal is poisoned:
    /// every further append returns [`DbError::JournalPoisoned`]
    /// instead of appending after the tear, until a checkpoint
    /// compaction rewrites the file.
    fn append_rendered(&self, payloads: impl IntoIterator<Item = String>) -> Result<(), DbError> {
        let _timer = observe::timer("db.journal_append_us");
        let mut frames = Vec::new();
        for payload in payloads {
            frame::push_frame(&mut frames, payload.as_bytes());
        }
        let mut writer = self.writer.lock();
        if writer.poisoned {
            return Err(DbError::JournalPoisoned);
        }
        let start = writer.len;
        if let Err(err) = writer.file.write_all(&frames) {
            let rolled_back = writer.file.set_len(start).is_ok()
                && writer.file.seek(SeekFrom::Start(start)).is_ok();
            if !rolled_back {
                writer.poisoned = true;
                observe::count("db.journal_poisoned", 1);
            }
            return Err(err.into());
        }
        writer.len = start + frames.len() as u64;
        Ok(())
    }

    /// Bytes covered by intact records (excludes any torn frame a
    /// failed, unrollbackable append left at the tail).
    pub(crate) fn len(&self) -> Result<u64, DbError> {
        Ok(self.writer.lock().len)
    }

    /// Drops the first `upto` bytes (the prefix a checkpoint just
    /// folded into the snapshot), keeping any records appended since.
    ///
    /// The splice is atomic: the suffix is written to a sibling `.tmp`
    /// file, synced, and renamed over the journal, so a crash leaves
    /// either the old journal (replay is idempotent over the folded
    /// prefix) or the compacted one. Only intact records are copied, so
    /// compaction also heals a poisoned journal (drops its torn tail
    /// and re-enables appends).
    pub(crate) fn compact_prefix(&self, upto: u64) -> Result<(), DbError> {
        let mut writer = self.writer.lock();
        let total = writer.len;
        let upto = upto.min(total);
        writer.file.seek(SeekFrom::Start(upto))?;
        // Read exactly the intact suffix — a torn frame past `len`
        // (failed append that could not be rolled back) is left behind.
        let mut rest = vec![0u8; (total - upto) as usize];
        writer.file.read_exact(&mut rest)?;
        write_atomic(&self.path, |file| file.write_all(&rest))?;
        let mut reopened = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&self.path)?;
        reopened.seek(SeekFrom::End(0))?;
        writer.file = reopened;
        writer.len = rest.len() as u64;
        writer.poisoned = false;
        Ok(())
    }
}

/// Crash-safe file write: `body` fills a buffered `<path>.tmp` sibling,
/// which is synced and then renamed over `path`.
pub(crate) fn write_atomic(
    path: &Path,
    body: impl FnOnce(&mut BufWriter<fs::File>) -> io::Result<()>,
) -> Result<(), DbError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = BufWriter::new(fs::File::create(&tmp)?);
    body(&mut file)?;
    file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    Ok(fs::rename(&tmp, path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_round_trip_through_payload_encoding() {
        let ops = [
            JournalOp::Insert {
                collection: "runs".into(),
                doc: Value::map([("_id", Value::from("r1")), ("n", Value::from(3i64))]),
            },
            JournalOp::Upsert {
                collection: "runs".into(),
                doc: Value::map([("_id", Value::from("r1")), ("n", Value::from(4i64))]),
            },
            JournalOp::Delete {
                collection: "runs".into(),
                id: "r1".into(),
            },
            JournalOp::DropCollection {
                collection: "metrics".into(),
            },
            JournalOp::BlobPut {
                data: vec![0, 1, 2, 0xff],
            },
            JournalOp::BlobRemove { key: "00ff".into() },
            JournalOp::EnsureIndex {
                collection: "artifacts".into(),
                spec: crate::collection::IndexSpec::hash("hash").unique(),
            },
            JournalOp::EnsureIndex {
                collection: "runs".into(),
                spec: crate::collection::IndexSpec::ordered("ticks"),
            },
        ];
        for op in ops {
            let text = op.to_payload();
            assert_eq!(JournalOp::from_payload(&text).expect("parse"), op);
        }
    }

    #[test]
    fn torn_tail_is_tolerated_at_any_byte() {
        let dir = std::env::temp_dir().join(format!("simart-journal-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal = Journal::attach(&dir, 0).unwrap();
        let ops: Vec<JournalOp> = (0..4)
            .map(|i| JournalOp::Insert {
                collection: "c".into(),
                doc: Value::map([("_id", Value::from(format!("d{i}")))]),
            })
            .collect();
        for op in &ops {
            journal.append(op).unwrap();
        }
        let full = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        // Record boundaries: replay of any truncation recovers exactly
        // the records wholly before the cut.
        let mut boundaries = vec![0usize];
        {
            let replay = read_journal(&dir).unwrap();
            assert_eq!(replay.ops, ops);
            assert_eq!(replay.torn_bytes, 0);
            assert_eq!(replay.valid_bytes as usize, full.len());
        }
        let mut pos = 0;
        while pos < full.len() {
            let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 8 + len;
            boundaries.push(pos);
        }
        for cut in 0..=full.len() {
            fs::write(dir.join(JOURNAL_FILE), &full[..cut]).unwrap();
            let replay = read_journal(&dir).unwrap();
            let complete = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(replay.ops, ops[..complete], "cut at byte {cut}");
            assert_eq!(replay.valid_bytes as usize, boundaries[complete]);
            assert_eq!(replay.torn_bytes as usize, cut - boundaries[complete]);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let dir = std::env::temp_dir().join(format!("simart-journal-crc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal = Journal::attach(&dir, 0).unwrap();
        for i in 0..3 {
            journal
                .append(&JournalOp::Delete {
                    collection: "c".into(),
                    id: format!("d{i}"),
                })
                .unwrap();
        }
        let mut bytes = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        // Flip a payload byte of the second record.
        let len0 = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let second_payload = 8 + len0 + 8;
        bytes[second_payload] ^= 0x40;
        fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();
        let replay = read_journal(&dir).unwrap();
        assert_eq!(replay.ops.len(), 1, "replay stops at the corrupt record");
        assert!(replay.torn_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_append_poisons_instead_of_orphaning_later_records() {
        let dir =
            std::env::temp_dir().join(format!("simart-journal-poison-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal = Journal::attach(&dir, 0).unwrap();
        let good = JournalOp::Delete {
            collection: "c".into(),
            id: "good".into(),
        };
        journal.append(&good).unwrap();
        // Swap in a read-only handle: the next write fails, and the
        // rollback (set_len on a read-only fd) fails too — the journal
        // must poison itself rather than let a later append land after
        // a torn frame.
        {
            let mut writer = journal.writer.lock();
            writer.file = fs::OpenOptions::new()
                .read(true)
                .open(dir.join(JOURNAL_FILE))
                .unwrap();
        }
        let lost = JournalOp::Delete {
            collection: "c".into(),
            id: "lost".into(),
        };
        assert!(matches!(journal.append(&lost).unwrap_err(), DbError::Io(_)));
        assert!(journal.writer.lock().poisoned);
        assert!(matches!(
            journal.append(&lost).unwrap_err(),
            DbError::JournalPoisoned
        ));
        // Compaction rewrites the file from intact records only, which
        // heals the poison and re-enables appends.
        journal.compact_prefix(0).unwrap();
        let post = JournalOp::Delete {
            collection: "c".into(),
            id: "post".into(),
        };
        journal.append(&post).unwrap();
        let replay = read_journal(&dir).unwrap();
        assert_eq!(replay.ops, vec![good, post]);
        assert_eq!(replay.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn update_many_is_write_ahead_a_refused_append_changes_nothing() {
        use crate::{Collection, Filter};
        let dir =
            std::env::temp_dir().join(format!("simart-journal-update-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let cell: JournalCell = Arc::new(RwLock::new(Some(Journal::attach(&dir, 0).unwrap())));
        let runs = Collection::with_journal("runs", Arc::clone(&cell));
        runs.ensure_unique("hash").unwrap();
        let queued = Value::map([
            ("_id", Value::from("r1")),
            ("hash", Value::from("h1")),
            ("status", Value::from("queued")),
        ]);
        runs.insert(queued.clone()).unwrap();
        let indexed = runs.index_state();
        // The read-only handle of the poison test: the append fails and
        // so does its rollback.
        cell.read().as_ref().unwrap().writer.lock().file = fs::OpenOptions::new()
            .read(true)
            .open(dir.join(JOURNAL_FILE))
            .unwrap();
        let by_id = Filter::eq("_id", "r1");
        let finish = |doc: &mut Value| {
            doc.set_at("hash", Value::from("h2"));
            doc.set_at("status", Value::from("done"));
        };
        let unchanged = || {
            assert_eq!(runs.get("r1"), Some(queued.clone()));
            assert_eq!(runs.index_state(), indexed);
            assert!(runs.verify_indexes().is_empty());
        };
        let refused = runs.update_many(&by_id, finish).unwrap_err();
        assert!(matches!(refused, DbError::Io(_)), "{refused}");
        unchanged();
        let refused = runs.update_many(&by_id, finish).unwrap_err();
        assert!(matches!(refused, DbError::JournalPoisoned), "{refused}");
        unchanged();
        // Healed, the same update goes through — journal first.
        cell.read().as_ref().unwrap().compact_prefix(0).unwrap();
        assert_eq!(runs.update_many(&by_id, finish).unwrap(), 1);
        let done = runs.get("r1").unwrap();
        assert_eq!(done.at("status"), Some(&Value::from("done")));
        assert!(runs.verify_indexes().is_empty());
        assert_eq!(
            read_journal(&dir).unwrap().ops.last(),
            Some(&JournalOp::Upsert {
                collection: "runs".into(),
                doc: done,
            })
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_collision_inside_an_insert_many_batch_refuses_only_that_document() {
        use crate::Collection;
        let dir = std::env::temp_dir().join(format!("simart-journal-batch-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let cell: JournalCell = Arc::new(RwLock::new(Some(Journal::attach(&dir, 0).unwrap())));
        let runs = Collection::with_journal("runs", Arc::clone(&cell));
        runs.ensure_unique("hash").unwrap();
        let run = |id: &str, hash: &str| {
            Value::map([("_id", Value::from(id)), ("hash", Value::from(hash))])
        };
        runs.insert(run("r0", "h0")).unwrap();
        let before = read_journal(&dir).unwrap().ops.len();
        let outcomes = runs
            .insert_many(vec![
                run("r1", "h1"),
                run("r2", "h0"),
                run("r3", "h1"),
                run("r1", "h4"),
                Value::from("no map"),
                run("r5", "h5"),
            ])
            .unwrap();
        let refused: Vec<bool> = outcomes.iter().map(Result::is_err).collect();
        assert_eq!(refused, [false, true, true, true, true, false]);
        assert!(matches!(outcomes[1], Err(DbError::UniqueViolation { .. })));
        assert!(matches!(outcomes[2], Err(DbError::UniqueViolation { .. })));
        assert!(matches!(outcomes[3], Err(DbError::DuplicateId { .. })));
        assert!(matches!(outcomes[4], Err(DbError::InvalidDocument { .. })));
        // One record per admitted document, in batch order.
        let ops = read_journal(&dir).unwrap().ops;
        let inserted: Vec<&Value> = ops[before..]
            .iter()
            .map(|op| match op {
                JournalOp::Insert { doc, .. } => doc,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(inserted, [&run("r1", "h1"), &run("r5", "h5")]);
        let ids: Vec<Value> = runs
            .all()
            .iter()
            .map(|doc| doc.at("_id").unwrap().clone())
            .collect();
        assert_eq!(ids, ["r0", "r1", "r5"].map(Value::from));
        assert!(runs.verify_indexes().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_refused_batch_append_changes_nothing() {
        use crate::collection::IndexSpec;
        use crate::Collection;
        let dir =
            std::env::temp_dir().join(format!("simart-journal-refused-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let cell: JournalCell = Arc::new(RwLock::new(Some(Journal::attach(&dir, 0).unwrap())));
        let runs = Collection::with_journal("runs", Arc::clone(&cell));
        runs.ensure_unique("hash").unwrap();
        runs.ensure_index(IndexSpec::hash("status")).unwrap();
        let run = |id: &str, status: &str| {
            Value::map([
                ("_id", Value::from(id)),
                ("hash", Value::from(format!("h-{id}"))),
                ("status", Value::from(status)),
            ])
        };
        runs.insert(run("r1", "queued")).unwrap();
        let (docs, indexed) = (runs.all(), runs.index_state());
        // The read-only handle of the poison test: the append fails.
        cell.read().as_ref().unwrap().writer.lock().file = fs::OpenOptions::new()
            .read(true)
            .open(dir.join(JOURNAL_FILE))
            .unwrap();
        let unchanged = || {
            assert_eq!(runs.all(), docs);
            assert_eq!(runs.index_state(), indexed);
            assert!(runs.verify_indexes().is_empty());
        };
        let batch = vec![run("r2", "queued"), run("r3", "queued")];
        assert!(matches!(runs.insert_many(batch), Err(DbError::Io(_))));
        unchanged();
        // The same run edited twice in one batch.
        let statuses = ["running", "done"];
        let refused = runs.update_by_ids(&["r1", "r1"], |at, doc| {
            doc.set_at("status", Value::from(statuses[at]));
        });
        assert!(matches!(refused, Err(DbError::JournalPoisoned)));
        unchanged();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_refused_append_undoes_exactly_the_touched_index_pairs() {
        use crate::collection::IndexSpec;
        use crate::{Collection, Filter};
        let dir = std::env::temp_dir().join(format!("simart-journal-delta-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let cell: JournalCell = Arc::new(RwLock::new(Some(Journal::attach(&dir, 0).unwrap())));
        let runs = Collection::with_journal("runs", Arc::clone(&cell));
        runs.ensure_unique("hash").unwrap();
        runs.ensure_index(IndexSpec::hash("status")).unwrap();
        runs.ensure_index(IndexSpec::hash("inputs")).unwrap();
        for id in ["r1", "r2"] {
            runs.insert(Value::map([
                ("_id", Value::from(id)),
                ("hash", Value::from(format!("h-{id}"))),
                ("status", Value::from("queued")),
                ("inputs", Value::array(["gem5", "disk"].map(Value::from))),
            ]))
            .unwrap();
        }
        let (docs, indexed) = (runs.all(), runs.index_state());
        // The read-only handle of the poison test: the append fails
        // after the trial retracted and admitted `status` alone.
        cell.read().as_ref().unwrap().writer.lock().file = fs::OpenOptions::new()
            .read(true)
            .open(dir.join(JOURNAL_FILE))
            .unwrap();
        let refused = runs.update_many(&Filter::eq("status", "queued"), |doc| {
            doc.set_at("status", Value::from("running"));
        });
        assert!(matches!(refused, Err(DbError::Io(_))));
        assert_eq!(runs.all(), docs);
        assert_eq!(runs.index_state(), indexed);
        assert!(runs.verify_indexes().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_prefix_drops_bytes_past_the_tracked_length() {
        // A torn frame past the tracked length (a failed append that
        // could not be rolled back) must not survive compaction.
        let dir = std::env::temp_dir().join(format!("simart-journal-heal-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal = Journal::attach(&dir, 0).unwrap();
        let op = JournalOp::Delete {
            collection: "c".into(),
            id: "keep".into(),
        };
        journal.append(&op).unwrap();
        let mut tail = fs::OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))
            .unwrap();
        tail.write_all(&[0xde, 0xad, 0x01]).unwrap();
        drop(tail);
        assert!(read_journal(&dir).unwrap().torn_bytes > 0);
        journal.compact_prefix(0).unwrap();
        let replay = read_journal(&dir).unwrap();
        assert_eq!(replay.ops, vec![op]);
        assert_eq!(replay.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_journal_from_resumes_at_a_cursor() {
        let dir =
            std::env::temp_dir().join(format!("simart-journal-cursor-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // Before any journal exists: offset 0 reads empty, a cursor at
        // 0 is valid, and a nonzero offset is unreachable.
        assert_eq!(
            read_journal_from(&dir, 0).unwrap(),
            JournalReplay::default()
        );
        let zero = JournalCursor::capture(&dir, 0).unwrap().unwrap();
        assert!(zero.is_valid(&dir).unwrap());
        assert!(JournalCursor::capture(&dir, 9).unwrap().is_none());
        assert!(matches!(
            read_journal_from(&dir, 9),
            Err(DbError::CorruptRecord { .. })
        ));

        let journal = Journal::attach(&dir, 0).unwrap();
        let ops: Vec<JournalOp> = (0..4)
            .map(|i| JournalOp::Delete {
                collection: "c".into(),
                id: format!("d{i}"),
            })
            .collect();
        journal.append(&ops[0]).unwrap();
        journal.append(&ops[1]).unwrap();
        let mid = journal.len().unwrap();
        let cursor = JournalCursor::capture(&dir, mid).unwrap().unwrap();
        journal.append(&ops[2]).unwrap();
        journal.append(&ops[3]).unwrap();

        // The cursor stays valid as the file grows, and replaying from
        // it yields exactly the records appended since — with absolute
        // valid_bytes so the next cursor chains on.
        assert!(cursor.is_valid(&dir).unwrap());
        let replay = read_journal_from(&dir, cursor.offset).unwrap();
        assert_eq!(replay.ops, ops[2..]);
        assert_eq!(replay.valid_bytes, journal.len().unwrap());
        assert_eq!(replay.torn_bytes, 0);
        let next = JournalCursor::capture(&dir, replay.valid_bytes)
            .unwrap()
            .unwrap();
        assert!(next.is_valid(&dir).unwrap());
        assert!(read_journal_from(&dir, next.offset).unwrap().ops.is_empty());

        // An offset that is not a frame boundary decodes nothing: the
        // bytes there fail CRC framing and count as torn.
        let skewed = read_journal_from(&dir, cursor.offset + 1).unwrap();
        assert!(skewed.ops.is_empty());
        assert!(skewed.torn_bytes > 0);

        // Compaction splices the prefix away: the old cursor's offset
        // now points past (or at differently-checksummed) bytes, so
        // validation fails instead of silently replaying wrong records.
        journal.compact_prefix(journal.len().unwrap()).unwrap();
        assert!(!cursor.is_valid(&dir).unwrap());
        assert!(!next.is_valid(&dir).unwrap());
        assert!(JournalCursor::capture(&dir, 0)
            .unwrap()
            .unwrap()
            .is_valid(&dir)
            .unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursor_rejects_a_rewritten_prefix_of_equal_length() {
        // Same length, different bytes: only the checksum catches it.
        let dir =
            std::env::temp_dir().join(format!("simart-journal-rewrite-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal = Journal::attach(&dir, 0).unwrap();
        journal
            .append(&JournalOp::Delete {
                collection: "c".into(),
                id: "aa".into(),
            })
            .unwrap();
        let cursor = JournalCursor::capture(&dir, journal.len().unwrap())
            .unwrap()
            .unwrap();
        drop(journal);
        let rewritten = Journal::attach(&dir, 0).unwrap();
        rewritten
            .append(&JournalOp::Delete {
                collection: "c".into(),
                id: "bb".into(),
            })
            .unwrap();
        // attach(dir, 0) truncated to zero, then an equal-length record
        // with different payload landed.
        assert!(!cursor.is_valid(&dir).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_prefix_keeps_the_suffix() {
        let dir =
            std::env::temp_dir().join(format!("simart-journal-compact-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal = Journal::attach(&dir, 0).unwrap();
        journal
            .append(&JournalOp::Delete {
                collection: "c".into(),
                id: "old".into(),
            })
            .unwrap();
        let folded = journal.len().unwrap();
        journal
            .append(&JournalOp::Delete {
                collection: "c".into(),
                id: "new".into(),
            })
            .unwrap();
        journal.compact_prefix(folded).unwrap();
        let replay = read_journal(&dir).unwrap();
        assert_eq!(
            replay.ops,
            vec![JournalOp::Delete {
                collection: "c".into(),
                id: "new".into()
            }]
        );
        // Appends keep working through the reopened handle.
        journal
            .append(&JournalOp::Delete {
                collection: "c".into(),
                id: "post".into(),
            })
            .unwrap();
        assert_eq!(read_journal(&dir).unwrap().ops.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
