//! Document collections: one ordered map, declared secondary indexes,
//! and copy-on-write snapshots.
//!
//! A collection's documents live in one `BTreeMap` keyed by `_id`,
//! behind the same lock as its indexes: writers hold it for validate →
//! journal append → apply, point reads and index probes hold it
//! shared. The map sits behind an [`Arc`]; [`Collection::snapshot`]
//! (and every scan) clones that `Arc` to freeze a consistent view and
//! releases the lock, and writers use copy-on-write
//! ([`Arc::make_mut`]) so they proceed while snapshots are held.
//!
//! Secondary indexes are declared with [`Collection::ensure_index`]
//! ([`IndexSpec`]) and maintained write-through at the same commit
//! point as the journal append. A write costs what it changed: only
//! the indexes whose field differs between the stored document and its
//! replacement are touched (an index key is a pure function of that
//! field). Index state is never load-bearing: it is rebuilt
//! deterministically from the documents on every load, and
//! [`Collection::verify_indexes`] can cross-check it at any time.

use crate::error::DbError;
use crate::journal::{self, DocRecord, JournalCell, JournalOp};
use crate::query::{Filter, Probe, SortOrder};
use crate::Value;
use parking_lot::RwLock;
use simart_codec::{fnv1a, fnv1a_extend};
use simart_observe as observe;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::Bound;
use std::ops::ControlFlow;
use std::sync::Arc;

/// How a secondary index organizes its keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Rendered-value hash index: serves equality and array-membership
    /// probes. Array fields are multikey — the whole array and each
    /// non-null element are indexed.
    Hash,
    /// Value-ordered index: serves equality, range (`Gt`/`Gte`), and
    /// `find_sorted` traversal in [`Value::compare`] order.
    Ordered,
}

impl IndexKind {
    /// Stable on-disk / journal name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            IndexKind::Hash => "hash",
            IndexKind::Ordered => "ordered",
        }
    }

    /// Parses the stable name back; `None` for unknown text.
    pub fn parse(text: &str) -> Option<IndexKind> {
        match text {
            "hash" => Some(IndexKind::Hash),
            "ordered" => Some(IndexKind::Ordered),
            _ => None,
        }
    }
}

/// A declared secondary index on one dotted field path.
///
/// At most one index may exist per path; redeclaring an identical spec
/// is a no-op, a different spec on the same path is an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSpec {
    /// Dotted field path the index covers.
    pub path: String,
    /// Hash or ordered organization.
    pub kind: IndexKind,
    /// Whether two documents may share a non-null rendered key.
    pub unique: bool,
}

impl IndexSpec {
    /// A non-unique hash index on `path`.
    pub fn hash(path: impl Into<String>) -> IndexSpec {
        IndexSpec {
            path: path.into(),
            kind: IndexKind::Hash,
            unique: false,
        }
    }

    /// A non-unique ordered index on `path`.
    pub fn ordered(path: impl Into<String>) -> IndexSpec {
        IndexSpec {
            path: path.into(),
            kind: IndexKind::Ordered,
            unique: false,
        }
    }

    /// Marks the index unique (null / missing values stay exempt).
    pub fn unique(mut self) -> IndexSpec {
        self.unique = true;
        self
    }
}

/// One discrepancy found by [`Collection::verify_indexes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDivergence {
    /// The indexed field path.
    pub path: String,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

/// Ordered-index key: sorts primarily by [`Value::compare`], with the
/// rendered JSON as a total tie-break so distinct-but-compare-equal
/// values (`1` vs `1.0`) occupy deterministic adjacent slots.
#[derive(Debug, Clone)]
struct OrdKey {
    value: Value,
    rendered: String,
}

impl OrdKey {
    fn for_value(value: &Value) -> OrdKey {
        OrdKey {
            value: value.clone(),
            rendered: crate::json::to_json(value),
        }
    }
}

impl PartialEq for OrdKey {
    fn eq(&self, other: &OrdKey) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for OrdKey {}
impl PartialOrd for OrdKey {
    fn partial_cmp(&self, other: &OrdKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdKey {
    fn cmp(&self, other: &OrdKey) -> std::cmp::Ordering {
        self.value
            .compare(&other.value)
            .then_with(|| self.rendered.cmp(&other.rendered))
    }
}

/// Sentinel rendered strings strictly below / above every real rendered
/// key (all rendered JSON is non-empty and starts with an ASCII
/// character), used to aim range bounds at whole compare-equal classes.
const RENDERED_MIN: &str = "";
const RENDERED_MAX: &str = "\u{10FFFF}";

fn class_bound(value: &Value, top: bool) -> OrdKey {
    OrdKey {
        value: value.clone(),
        rendered: if top { RENDERED_MAX } else { RENDERED_MIN }.to_owned(),
    }
}

/// Rendered key -> the sorted `_id`s filed under it.
type Entries<K> = BTreeMap<K, BTreeSet<String>>;

#[derive(Debug)]
enum IndexData {
    Hash(Entries<String>),
    Ordered(Entries<OrdKey>),
}

#[derive(Debug)]
struct Index {
    spec: IndexSpec,
    data: IndexData,
}

/// The entries one document holds in one index, rendered once from
/// the document's value at the index path.
enum Keys {
    Hash(Vec<String>),
    Ordered(Option<OrdKey>),
}

/// Rendered keys a field value contributes to a hash index: the whole
/// value, plus each non-null element when the value is an array
/// (multikey). Null / missing values contribute nothing (sparse).
fn hash_keys(value: Option<&Value>) -> Vec<String> {
    let Some(value) = value.filter(|value| !value.is_null()) else {
        return Vec::new();
    };
    let mut keys = vec![crate::json::to_json(value)];
    if let Value::Array(items) = value {
        for item in items {
            if item.is_null() {
                continue;
            }
            let key = crate::json::to_json(item);
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
    }
    keys
}

/// Whether two values at an index path render the same keys: `==`,
/// but floats by bits (`0.0 == -0.0`, yet their JSON differs).
fn same_keys(old: Option<&Value>, new: Option<&Value>) -> bool {
    match (old, new) {
        (Some(Value::Float(a)), Some(Value::Float(b))) => a.to_bits() == b.to_bits(),
        (Some(Value::Array(a)), Some(Value::Array(b))) => {
            a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same_keys(Some(a), Some(b)))
        }
        (Some(Value::Map(a)), Some(Value::Map(b))) => {
            let same = |((ka, a), (kb, b))| ka == kb && same_keys(Some(a), Some(b));
            a.len() == b.len() && a.iter().zip(b).all(same)
        }
        _ => old == new,
    }
}

impl Index {
    fn new(spec: IndexSpec) -> Index {
        let data = match spec.kind {
            IndexKind::Hash => IndexData::Hash(BTreeMap::new()),
            IndexKind::Ordered => IndexData::Ordered(BTreeMap::new()),
        };
        Index { spec, data }
    }

    /// The entries a document whose value at the index path is `value`
    /// holds in this index.
    fn keys(&self, value: Option<&Value>) -> Keys {
        match self.spec.kind {
            IndexKind::Hash => Keys::Hash(hash_keys(value)),
            IndexKind::Ordered => Keys::Ordered(value.map(OrdKey::for_value)),
        }
    }

    /// Unique-constraint check for `keys` arriving as `id`; an existing
    /// occupant other than `id` itself is a violation.
    fn check_unique(&self, collection: &str, id: &str, keys: &Keys) -> Result<(), DbError> {
        fn taken<K: Ord>(map: &Entries<K>, key: &K, id: &str) -> bool {
            map.get(key)
                .is_some_and(|ids| ids.iter().any(|other| other != id))
        }
        let held = match (&self.data, keys) {
            _ if !self.spec.unique => None,
            (IndexData::Hash(map), Keys::Hash(keys)) => keys.iter().find(|key| taken(map, key, id)),
            (IndexData::Ordered(map), Keys::Ordered(Some(key))) => {
                Some(&key.rendered).filter(|_| !key.value.is_null() && taken(map, key, id))
            }
            _ => None,
        };
        held.map_or(Ok(()), |key| {
            Err(DbError::UniqueViolation {
                collection: collection.to_owned(),
                field: self.spec.path.clone(),
                value: key.clone(),
            })
        })
    }

    /// Admits (`admit`) or retracts `id` under each of `keys` — the one
    /// place index entries are written.
    fn write(&mut self, id: &str, keys: &Keys, admit: bool) {
        fn one<K: Ord + Clone>(map: &mut Entries<K>, key: &K, id: &str, admit: bool) {
            observe::count("db.index_entries_written", 1);
            if admit {
                map.entry(key.clone()).or_default().insert(id.to_owned());
            } else if let Some(ids) = map.get_mut(key) {
                ids.remove(id);
                if ids.is_empty() {
                    map.remove(key);
                }
            }
        }
        match (&mut self.data, keys) {
            (IndexData::Hash(map), Keys::Hash(keys)) => {
                keys.iter().for_each(|key| one(map, key, id, admit));
            }
            (IndexData::Ordered(map), Keys::Ordered(Some(key))) => one(map, key, id, admit),
            _ => {}
        }
    }

    /// Candidate ids for an equality probe (superset of exact matches:
    /// an ordered index returns the whole compare-equal class).
    fn probe_eq(&self, value: &Value) -> Vec<String> {
        match &self.data {
            IndexData::Hash(map) => map
                .get(&crate::json::to_json(value))
                .map(|ids| ids.iter().cloned().collect())
                .unwrap_or_default(),
            IndexData::Ordered(map) => map
                .range((
                    Bound::Included(class_bound(value, false)),
                    Bound::Included(class_bound(value, true)),
                ))
                .flat_map(|(_, ids)| ids.iter().cloned())
                .collect(),
        }
    }

    /// Candidate ids for an array-membership probe (hash multikey only).
    fn probe_elem(&self, value: &Value) -> Option<Vec<String>> {
        match &self.data {
            IndexData::Hash(map) => Some(
                map.get(&crate::json::to_json(value))
                    .map(|ids| ids.iter().cloned().collect())
                    .unwrap_or_default(),
            ),
            IndexData::Ordered(_) => None,
        }
    }

    /// Candidate ids for a range probe (ordered only), bounded below
    /// by `(value, inclusive)`.
    fn probe_range(&self, (value, inclusive): (&Value, bool)) -> Option<Vec<String>> {
        let IndexData::Ordered(map) = &self.data else {
            return None;
        };
        // The bound aims at a whole compare-equal class: inclusive
        // takes the class, exclusive skips it.
        let start = if inclusive {
            Bound::Included(class_bound(value, false))
        } else {
            Bound::Excluded(class_bound(value, true))
        };
        Some(
            map.range((start, Bound::Unbounded))
                .flat_map(|(_, ids)| ids.iter().cloned())
                .collect(),
        )
    }

    /// Rendered key -> sorted ids view, shared by
    /// [`Collection::index_state`] and divergence checks.
    fn rendered_entries(&self) -> BTreeMap<String, BTreeSet<String>> {
        match &self.data {
            IndexData::Hash(map) => map.clone(),
            IndexData::Ordered(map) => {
                let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
                for (key, ids) in map {
                    out.entry(key.rendered.clone())
                        .or_default()
                        .extend(ids.iter().cloned());
                }
                out
            }
        }
    }

    /// The FNV-1a of the JSON text of [`Self::rendered_entries`] as a
    /// map of id arrays (an entry's `keys` in
    /// [`Collection::index_state`]), rendered entry by entry from the
    /// live index into one reused buffer instead of copying it whole.
    fn digest(&self) -> u64 {
        let entries: Vec<(&str, &BTreeSet<String>)> = match &self.data {
            IndexData::Hash(map) => map.iter().map(|(key, ids)| (key.as_str(), ids)).collect(),
            IndexData::Ordered(map) => {
                let mut entries: Vec<_> = map
                    .iter()
                    .map(|(key, ids)| (key.rendered.as_str(), ids))
                    .collect();
                // Distinct ordered keys render distinctly: sorting by
                // the rendering gives the map's order.
                entries.sort_unstable_by_key(|&(rendered, _)| rendered);
                entries
            }
        };
        let mut hash = fnv1a(b"{");
        let mut text = String::new();
        for (at, (key, ids)) in entries.into_iter().enumerate() {
            text.clear();
            if at > 0 {
                text.push(',');
            }
            crate::json::write_string(&mut text, key);
            text.push_str(":[");
            for (at, id) in ids.iter().enumerate() {
                if at > 0 {
                    text.push(',');
                }
                crate::json::write_string(&mut text, id);
            }
            text.push(']');
            hash = fnv1a_extend(hash, text.as_bytes());
        }
        fnv1a_extend(hash, b"}")
    }

    /// The keys `doc` is expected to occupy, rendered.
    fn expected_keys(&self, doc: &Value) -> Vec<String> {
        match self.keys(doc.at(&self.spec.path)) {
            Keys::Hash(keys) => keys,
            Keys::Ordered(key) => key.into_iter().map(|key| key.rendered).collect(),
        }
    }
}

/// One staged edit: the `_id`, the stored document (none on insert)
/// and the document replacing it (none on delete).
type Edit<'a> = (&'a str, Option<&'a Value>, Option<&'a Value>);

/// A *(document, index)* pair an edit touches: the `_id`, the index's
/// position, the entries to retract and the entries to admit.
type Touched<'a> = (&'a str, usize, Keys, Keys);

/// A batch of staged rewrites: every version the batch's edits made,
/// in edit order, and per document its `_id`, its stored version (none
/// when new) and the position of its last version.
#[derive(Default)]
struct Staged<'a> {
    versions: Vec<Value>,
    docs: Vec<(&'a str, Option<&'a Value>, usize)>,
}

impl<'a> Staged<'a> {
    /// Stages `version` of the document `id`: as the document in
    /// `slot` when an earlier edit of the batch staged it there, as a
    /// new slot holding `stored` otherwise.
    fn push(
        &mut self,
        slot: Option<usize>,
        id: &'a str,
        stored: Option<&'a Value>,
        version: Value,
    ) {
        self.versions.push(version);
        let last = self.versions.len() - 1;
        match slot {
            Some(slot) => self.docs[slot].2 = last,
            None => self.docs.push((id, stored, last)),
        }
    }

    /// The last version staged in `slot`.
    fn last(&self, slot: usize) -> &Value {
        &self.versions[self.docs[slot].2]
    }
}

#[derive(Debug, Default)]
struct IndexSet {
    indexes: Vec<Index>,
}

impl IndexSet {
    fn get(&self, path: &str) -> Option<&Index> {
        self.indexes.iter().find(|ix| ix.spec.path == path)
    }

    /// Applies a batch of edits, touching only what changed: a
    /// *(document, index)* pair takes part iff the document's value at
    /// the index path differs between old and new. Every key is a pure
    /// function of that value, so any other pair's entries are already
    /// right and stay put, still occupying their unique keys against
    /// the rest of the batch. Touched pairs' old entries are retracted
    /// first, then the new ones checked and admitted in staged order: a
    /// swap inside the batch passes; a collision with a bystander, an
    /// untouched pair or an earlier rewrite is refused with the indexes
    /// put back. Returns the touched pairs for [`Self::undo`].
    fn apply<'a>(
        &mut self,
        collection: &str,
        edits: &[Edit<'a>],
    ) -> Result<Vec<Touched<'a>>, DbError> {
        let mut touched = Vec::new();
        for &(id, old, new) in edits {
            for (at, index) in self.indexes.iter().enumerate() {
                let old = old.and_then(|doc| doc.at(&index.spec.path));
                let new = new.and_then(|doc| doc.at(&index.spec.path));
                if !same_keys(old, new) {
                    touched.push((id, at, index.keys(old), index.keys(new)));
                }
            }
        }
        for (id, at, old, _) in &touched {
            self.indexes[*at].write(id, old, false);
        }
        for (admitted, (id, at, _, new)) in touched.iter().enumerate() {
            if let Err(err) = self.indexes[*at].check_unique(collection, id, new) {
                self.undo(&touched, admitted);
                return Err(err);
            }
            self.indexes[*at].write(id, new, true);
        }
        Ok(touched)
    }

    /// Puts back what [`Self::apply`] changed: retracts the first
    /// `admitted` pairs' new entries and re-admits every old one.
    fn undo(&mut self, touched: &[Touched<'_>], admitted: usize) {
        for (id, at, _, new) in &touched[..admitted] {
            self.indexes[*at].write(id, new, false);
        }
        for (id, at, old, _) in touched {
            self.indexes[*at].write(id, old, true);
        }
    }
}

/// A consistent, immutable view of a collection's documents.
///
/// Obtained from [`Collection::snapshot`]; cheap to create (clones one
/// `Arc` under a brief lock) and never blocks or observes subsequent
/// writers, which copy-on-write the map instead. A save writes its
/// `.jsonl` file from one, by reference ([`Snapshot::iter`]).
/// Reads on a snapshot record no query metrics.
#[derive(Debug, Clone)]
pub struct Snapshot {
    name: String,
    docs: Arc<BTreeMap<String, Value>>,
}

impl Snapshot {
    /// The collection's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of documents in the snapshot.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the snapshot holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Fetches a document by `_id`.
    pub fn get(&self, id: &str) -> Option<Value> {
        self.docs.get(id).cloned()
    }

    /// Every `(_id, document)` pair in `_id` order, borrowed from the
    /// snapshot — the read for callers that only look.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.docs.iter().map(|(id, doc)| (id.as_str(), doc))
    }

    /// All documents, ordered by `_id`.
    pub fn all(&self) -> Vec<Value> {
        self.iter().map(|(_, doc)| doc.clone()).collect()
    }
}

fn sort_docs(docs: &mut [Value], sort_path: &str, order: SortOrder) {
    docs.sort_by(|a, b| {
        let va = a.at(sort_path).unwrap_or(&Value::Null);
        let vb = b.at(sort_path).unwrap_or(&Value::Null);
        let ord = va.compare(vb);
        match order {
            SortOrder::Ascending => ord,
            SortOrder::Descending => ord.reverse(),
        }
    });
}

/// A named set of documents with unique `_id`s.
///
/// Collections are cheap `Arc` handles; clones share storage, and all
/// operations are thread-safe (the paper's framework writes results from
/// many concurrent simulation tasks into one database). Documents and
/// declared indexes live behind one collection-wide lock that
/// serializes writers against each other (and against point reads and
/// index probes) while leaving scans and held [`Snapshot`]s
/// contention-free.
///
/// Collections obtained from a directory-attached database
/// ([`Database::open`](crate::Database::open)) write every mutation
/// through the database's append-only journal before applying it in
/// memory, so killing the process at any instant is recoverable by
/// replay (see the [`journal`](crate::journal) module docs for the
/// durability scope against OS crashes). Index definitions are
/// journaled the same way (`idx` records), so they survive checkpoint
/// compaction and crash replay.
#[derive(Debug, Clone)]
pub struct Collection {
    name: String,
    /// Writers hold this lock in write mode for the whole validate +
    /// journal-append + apply sequence, so any holder of the read lock
    /// sees documents and indexes mutually consistent.
    inner: Arc<RwLock<State>>,
    journal: JournalCell,
}

#[derive(Debug, Default)]
struct State {
    /// Every document by `_id`; `Arc`-wrapped for copy-on-write
    /// snapshot isolation.
    docs: Arc<BTreeMap<String, Value>>,
    /// Declared secondary indexes.
    indexes: IndexSet,
}

impl State {
    /// The one plan-or-scan decision, shared by reads and
    /// `update_many`: candidate ids from an applicable index probe
    /// (counted on `db.query_planned_index`), or `None` when the caller
    /// has to scan (counted on `db.query_scans`).
    fn plan(&self, filter: &Filter) -> Option<Vec<String>> {
        let planned = planned_ids(&self.indexes, filter);
        let counter = match planned {
            Some(_) => "db.query_planned_index",
            None => "db.query_scans",
        };
        observe::count(counter, 1);
        planned
    }
}

/// Walks the documents of `docs` matching `filter` in `_id` order:
/// the `planned` candidates when there are some, every document
/// otherwise. The full filter is re-applied either way, so probes only
/// need to over-approximate.
fn walk<'a>(
    docs: &'a BTreeMap<String, Value>,
    planned: Option<Vec<String>>,
    filter: &'a Filter,
    f: &mut dyn FnMut(&'a str, &'a Value) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let visit = |(id, doc): (&'a String, &'a Value)| {
        if filter.matches(doc) {
            f(id, doc)
        } else {
            ControlFlow::Continue(())
        }
    };
    match planned {
        Some(ids) => ids
            .iter()
            .filter_map(|id| docs.get_key_value(id))
            .try_for_each(visit),
        None => docs.iter().try_for_each(visit),
    }
}

impl Collection {
    /// A detached collection (tests only — production collections come
    /// from a [`Database`](crate::Database) and share its journal).
    #[cfg(test)]
    pub(crate) fn new(name: impl Into<String>) -> Collection {
        Collection::with_journal(name, JournalCell::default())
    }

    pub(crate) fn with_journal(name: impl Into<String>, journal: JournalCell) -> Collection {
        Collection {
            name: name.into(),
            inner: Arc::new(RwLock::new(State::default())),
            journal,
        }
    }

    /// The collection's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A consistent copy-on-write snapshot of the collection.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            name: self.name.clone(),
            docs: Arc::clone(&self.inner.read().docs),
        }
    }

    /// Declares a secondary index. Existing documents are indexed
    /// immediately; on an attached database the definition is journaled
    /// (an `idx` record) so it survives checkpoint compaction.
    /// Redeclaring an identical spec is a no-op (and appends nothing).
    ///
    /// # Errors
    ///
    /// * [`DbError::UniqueViolation`] — `spec.unique` and two existing
    ///   documents collide on `spec.path`; the index is not installed.
    /// * [`DbError::IndexConflict`] — a different index already covers
    ///   `spec.path`.
    pub fn ensure_index(&self, spec: IndexSpec) -> Result<(), DbError> {
        let mut state = self.inner.write();
        if let Some(existing) = state.indexes.get(&spec.path) {
            if existing.spec == spec {
                return Ok(());
            }
            return Err(DbError::IndexConflict {
                collection: self.name.clone(),
                path: spec.path,
            });
        }
        let mut index = Index::new(spec.clone());
        for (id, doc) in state.docs.iter() {
            let keys = index.keys(doc.at(&spec.path));
            index.check_unique(&self.name, id, &keys)?;
            index.write(id, &keys, true);
        }
        journal::append_if_attached(
            &self.journal,
            &JournalOp::EnsureIndex {
                collection: self.name.clone(),
                spec,
            },
        )?;
        state.indexes.indexes.push(index);
        Ok(())
    }

    /// Declares a unique constraint on `path` — sugar for a unique
    /// [`IndexKind::Hash`] index. Existing documents are checked
    /// immediately.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UniqueViolation`] when two existing documents
    /// already collide on `path`; the constraint is not installed then.
    pub fn ensure_unique(&self, path: impl Into<String>) -> Result<(), DbError> {
        self.ensure_index(IndexSpec::hash(path).unique())
    }

    /// The declared index specs, in declaration order.
    pub fn index_specs(&self) -> Vec<IndexSpec> {
        let state = self.inner.read();
        state
            .indexes
            .indexes
            .iter()
            .map(|ix| ix.spec.clone())
            .collect()
    }

    /// Canonical, deterministic rendering of every index: an array
    /// (sorted by path) of `{path, kind, unique, keys}` maps, where
    /// `keys` maps each rendered key to its sorted ids. Byte-identical
    /// across a rebuild from the same documents; used by the
    /// persistence manifest, divergence lints, and property tests.
    pub fn index_state(&self) -> Value {
        let state = self.inner.read();
        let mut states: Vec<(String, Value)> = state
            .indexes
            .indexes
            .iter()
            .map(|index| {
                let keys: BTreeMap<String, Value> = index
                    .rendered_entries()
                    .into_iter()
                    .map(|(key, ids)| {
                        (key, Value::Array(ids.into_iter().map(Value::Str).collect()))
                    })
                    .collect();
                (
                    index.spec.path.clone(),
                    Value::map([
                        ("path", Value::from(index.spec.path.as_str())),
                        ("kind", Value::from(index.spec.kind.as_str())),
                        ("unique", Value::from(index.spec.unique)),
                        ("keys", Value::Map(keys)),
                    ]),
                )
            })
            .collect();
        states.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Array(states.into_iter().map(|(_, v)| v).collect())
    }

    /// This collection's entries in the index manifest, byte for byte
    /// [`index_manifest`](crate::index_manifest)`(&self.index_state())`:
    /// each index's `{digest, kind, path, unique}`, sorted by path, its
    /// digest streamed from the live entries under the read lock
    /// instead of from a copy of them.
    pub fn index_manifest(&self) -> Value {
        let state = self.inner.read();
        let mut entries: Vec<&Index> = state.indexes.indexes.iter().collect();
        entries.sort_by(|a, b| a.spec.path.cmp(&b.spec.path));
        Value::array(entries.into_iter().map(|index| {
            Value::map([
                ("digest", Value::from(format!("{:016x}", index.digest()))),
                ("kind", Value::from(index.spec.kind.as_str())),
                ("path", Value::from(index.spec.path.as_str())),
                ("unique", Value::from(index.spec.unique)),
            ])
        }))
    }

    /// Cross-checks every index against the documents, both directions:
    /// entries pointing at missing documents or stale rendered keys, and
    /// documents absent from an index that should cover them. An empty
    /// result means indexes and documents agree exactly.
    pub fn verify_indexes(&self) -> Vec<IndexDivergence> {
        let state = self.inner.read();
        let mut out = Vec::new();
        for index in &state.indexes.indexes {
            let path = &index.spec.path;
            let actual = index.rendered_entries();
            let mut expected: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
            for (id, doc) in state.docs.iter() {
                for key in index.expected_keys(doc) {
                    expected.entry(key).or_default().insert(id.clone());
                }
            }
            for (key, ids) in &actual {
                for id in ids {
                    if expected.get(key).is_none_or(|set| !set.contains(id)) {
                        let detail = if state.docs.contains_key(id) {
                            format!(
                                "index entry {key} -> {id} does not match the document's rendered key"
                            )
                        } else {
                            format!("index entry {key} -> {id} points at a missing document")
                        };
                        out.push(IndexDivergence {
                            path: path.clone(),
                            detail,
                        });
                    }
                }
            }
            for (key, ids) in &expected {
                for id in ids {
                    if actual.get(key).is_none_or(|set| !set.contains(id)) {
                        out.push(IndexDivergence {
                            path: path.clone(),
                            detail: format!("document {id} is missing from the index under {key}"),
                        });
                    }
                }
            }
        }
        out.sort_by(|a, b| (&a.path, &a.detail).cmp(&(&b.path, &b.detail)));
        out
    }

    /// Test hook: plants a raw entry in the index on `path` (no-op when
    /// no such index exists). Exists so divergence detection can be
    /// exercised; never call this outside tests.
    #[doc(hidden)]
    pub fn inject_index_entry(&self, path: &str, rendered_key: &str, id: &str) {
        let mut state = self.inner.write();
        let Some(index) = state
            .indexes
            .indexes
            .iter_mut()
            .find(|ix| ix.spec.path == path)
        else {
            return;
        };
        match &mut index.data {
            IndexData::Hash(map) => {
                map.entry(rendered_key.to_owned())
                    .or_default()
                    .insert(id.to_owned());
            }
            IndexData::Ordered(map) => {
                let value = crate::json::from_json(rendered_key).unwrap_or(Value::Null);
                map.entry(OrdKey {
                    value,
                    rendered: rendered_key.to_owned(),
                })
                .or_default()
                .insert(id.to_owned());
            }
        }
    }

    /// Inserts a document.
    ///
    /// The document must be a map carrying a string `_id` field.
    ///
    /// # Errors
    ///
    /// * [`DbError::InvalidDocument`] — not a map / missing `_id`.
    /// * [`DbError::DuplicateId`] — `_id` already present.
    /// * [`DbError::UniqueViolation`] — a unique index would be violated.
    /// * The journal's error when an attached journal refuses the record.
    pub fn insert(&self, doc: Value) -> Result<(), DbError> {
        self.insert_many(vec![doc])?
            .pop()
            .expect("one outcome per document")
    }

    /// Inserts `docs` in order, each as [`Collection::insert`] would,
    /// with one journal append for the batch. A document that insert
    /// would refuse (invalid, a taken `_id`, a unique key the
    /// collection or an earlier document of the batch holds) is
    /// refused alone; the others go in. Returns one outcome per
    /// document, in order.
    ///
    /// # Errors
    ///
    /// The journal's error when an attached journal refuses the batch's
    /// records: then no document of the batch is inserted.
    pub fn insert_many(&self, docs: Vec<Value>) -> Result<Vec<Result<(), DbError>>, DbError> {
        let _timer = observe::timer("db.insert_us");
        let mut outcomes = Vec::with_capacity(docs.len());
        let mut ids = Vec::with_capacity(docs.len());
        for doc in &docs {
            let (id, outcome) = match id_of(doc) {
                Ok(id) => (Some(id), Ok(())),
                Err(err) => (None, Err(err)),
            };
            ids.push(id);
            outcomes.push(outcome);
        }
        let mut state = self.inner.write();
        let State {
            docs: stored,
            indexes,
        } = &mut *state;
        // Each document's index entries are tried alone, so a collision
        // refuses only its own document.
        let mut batch = HashSet::new();
        let mut touched = Vec::new();
        for ((doc, id), outcome) in docs.iter().zip(&ids).zip(&mut outcomes) {
            let Some(id) = id else { continue };
            if stored.contains_key(id) || batch.contains(id.as_str()) {
                *outcome = Err(DbError::DuplicateId {
                    collection: self.name.clone(),
                    id: id.clone(),
                });
                continue;
            }
            match indexes.apply(&self.name, &[(id, None, Some(doc))]) {
                Ok(pairs) => {
                    batch.insert(id.as_str());
                    touched.extend(pairs);
                }
                Err(err) => *outcome = Err(err),
            }
        }
        if batch.is_empty() {
            return Ok(outcomes);
        }
        let admitted = docs
            .iter()
            .zip(&outcomes)
            .filter(|(_, outcome)| outcome.is_ok());
        self.commit(
            indexes,
            &touched,
            DocRecord::Insert,
            admitted.map(|(doc, _)| doc),
        )?;
        drop((batch, touched));
        let stored = Arc::make_mut(stored);
        for ((doc, id), outcome) in docs.into_iter().zip(ids).zip(&outcomes) {
            if let (Some(id), Ok(())) = (id, outcome) {
                stored.insert(id, doc);
            }
        }
        Ok(outcomes)
    }

    /// The commit point of every document write: appends one `record`
    /// per document of `docs` to an attached journal as a unit — every
    /// record lands, or none does — after `touched`, the trial of their
    /// index edits ([`IndexSet::apply`]). Write-ahead: the caller
    /// stores the documents only once this returns `Ok`, so a crash
    /// right after the append replays to the same state, and a refused
    /// append puts the indexes back and changes nothing.
    fn commit<'a>(
        &self,
        indexes: &mut IndexSet,
        touched: &[Touched<'_>],
        record: DocRecord,
        docs: impl IntoIterator<Item = &'a Value>,
    ) -> Result<(), DbError> {
        journal::append_docs_if_attached(&self.journal, record, &self.name, docs)
            .inspect_err(|_| indexes.undo(touched, touched.len()))
    }

    /// Trial-applies a batch of staged rewrites to the indexes, once
    /// per document from its stored version to its last, then journals
    /// every version in edit order ([`Self::commit`]). Returns each
    /// document's `_id` and last version, for the caller to store.
    fn commit_staged(
        &self,
        indexes: &mut IndexSet,
        mut staged: Staged<'_>,
    ) -> Result<Vec<(String, Value)>, DbError> {
        let edits: Vec<Edit> = staged
            .docs
            .iter()
            .map(|&(id, stored, last)| (id, stored, Some(&staged.versions[last])))
            .collect();
        let touched = indexes.apply(&self.name, &edits)?;
        self.commit(indexes, &touched, DocRecord::Upsert, &staged.versions)?;
        drop(touched);
        Ok(staged
            .docs
            .iter()
            .map(|&(id, _, last)| (id.to_owned(), std::mem::take(&mut staged.versions[last])))
            .collect())
    }

    /// Inserts the document, or replaces any existing document with the
    /// same `_id` (upsert). Returns the replaced document, if any.
    /// Atomic: on a constraint failure the previous document (and its
    /// index entries) stay in place.
    pub fn upsert(&self, doc: Value) -> Result<Option<Value>, DbError> {
        let _timer = observe::timer("db.insert_us");
        let id = id_of(&doc)?;
        let mut state = self.inner.write();
        let State { docs, indexes } = &mut *state;
        // The occupant being replaced is exempt from unique checks.
        let mut staged = Staged::default();
        staged.push(None, &id, docs.get(&id), doc);
        let rewrites = self.commit_staged(indexes, staged)?;
        let (id, doc) = rewrites.into_iter().next().expect("one staged document");
        Ok(Arc::make_mut(docs).insert(id, doc))
    }

    /// Fetches a document by `_id`.
    pub fn get(&self, id: &str) -> Option<Value> {
        self.inner.read().docs.get(id).cloned()
    }

    /// Walks matching documents in `_id` order, planner-first (see
    /// [`State::plan`]).
    fn for_each_matching(
        &self,
        filter: &Filter,
        f: &mut dyn FnMut(&str, &Value) -> ControlFlow<()>,
    ) {
        let state = self.inner.read();
        let _ = match state.plan(filter) {
            // A probe's candidates are few: look them up under the
            // lock, so no writer copies the map on this walk's account.
            planned @ Some(_) => walk(&state.docs, planned, filter, f),
            // A scan can be long: freeze the map, release the lock.
            None => {
                let docs = Arc::clone(&state.docs);
                drop(state);
                walk(&docs, None, filter, f)
            }
        };
    }

    /// Returns all documents matching `filter`, ordered by `_id`.
    pub fn find(&self, filter: &Filter) -> Vec<Value> {
        let _span = observe::span(|| "db.query".to_owned());
        let _timer = observe::timer("db.query_us");
        let mut out = Vec::new();
        self.for_each_matching(filter, &mut |_, doc| {
            out.push(doc.clone());
            ControlFlow::Continue(())
        });
        out
    }

    /// Returns matching documents sorted by a field path.
    ///
    /// With an [`IndexKind::Ordered`] index on `sort_path` the result
    /// is read off the index (documents without the field join the
    /// `Null` block); ties between compare-equal keys order by rendered
    /// key, then `_id`. Without one, this scans and sorts (missing
    /// fields sort as `Null`, ties keep `_id` order).
    pub fn find_sorted(&self, filter: &Filter, sort_path: &str, order: SortOrder) -> Vec<Value> {
        let state = self.inner.read();
        let Some(IndexData::Ordered(map)) = state.indexes.get(sort_path).map(|ix| &ix.data) else {
            drop(state);
            let mut results = self.find(filter);
            sort_docs(&mut results, sort_path, order);
            return results;
        };
        let _span = observe::span(|| "db.query".to_owned());
        let _timer = observe::timer("db.query_us");
        observe::count("db.query_planned_index", 1);
        // The Null block holds explicitly-null documents (indexed) and
        // documents missing the field entirely (not indexed), in `_id`
        // order — matching the scan path's sort semantics.
        let nulls = state
            .docs
            .values()
            .filter(|doc| doc.at(sort_path).is_none_or(Value::is_null));
        let keys: Box<dyn Iterator<Item = (&OrdKey, &BTreeSet<String>)>> = match order {
            SortOrder::Ascending => Box::new(map.iter()),
            SortOrder::Descending => Box::new(map.iter().rev()),
        };
        let keyed = keys
            .filter(|(key, _)| !key.value.is_null())
            .flat_map(|(_, ids)| ids)
            .filter_map(|id| state.docs.get(id));
        let sequence: Box<dyn Iterator<Item = &Value>> = match order {
            SortOrder::Ascending => Box::new(nulls.chain(keyed)),
            SortOrder::Descending => Box::new(keyed.chain(nulls)),
        };
        sequence
            .filter(|doc| filter.matches(doc))
            .cloned()
            .collect()
    }

    /// Counts documents matching `filter`.
    pub fn count(&self, filter: &Filter) -> usize {
        let _span = observe::span(|| "db.query".to_owned());
        let _timer = observe::timer("db.query_us");
        let mut n = 0;
        self.for_each_matching(filter, &mut |_, _| {
            n += 1;
            ControlFlow::Continue(())
        });
        n
    }

    /// Deletes the document with the given `_id`, returning it.
    ///
    /// On an attached database the deletion is journaled; an append
    /// failure (counted on `db.journal_append_errors`) does not abort
    /// the in-memory delete — durability of that record then waits for
    /// the next checkpoint.
    pub fn delete(&self, id: &str) -> Option<Value> {
        let mut state = self.inner.write();
        if !state.docs.contains_key(id) {
            return None;
        }
        journal::append_best_effort(
            &self.journal,
            &JournalOp::Delete {
                collection: self.name.clone(),
                id: id.to_owned(),
            },
        );
        let doc = Arc::make_mut(&mut state.docs).remove(id)?;
        // Retraction only: nothing is admitted, so nothing is refused.
        let retracted = state.indexes.apply(&self.name, &[(id, Some(&doc), None)]);
        debug_assert!(retracted.is_ok());
        Some(doc)
    }

    /// Applies `update` to every matching document (the `_id` field is
    /// protected). Returns how many documents matched; one that `update`
    /// leaves as it was is counted, but not journaled again. The whole batch
    /// runs under the write lock, so no writer interleaves, and unique
    /// indexes are re-enforced at commit: in every index whose field a
    /// rewrite changed (the others already hold the right entries) its
    /// entries are retracted, checked — against bystanders, unchanged
    /// entries and the batch's other rewrites — and admitted before
    /// anything is journaled, and the batch's records are journaled as
    /// a unit before anything is stored, so a rejected batch leaves the
    /// collection exactly as it was.
    ///
    /// # Errors
    ///
    /// * [`DbError::UniqueViolation`] when any rewritten document would
    ///   collide with an existing document or another rewrite on a
    ///   declared unique index.
    /// * The journal's error when an attached journal refuses the
    ///   batch's records.
    ///
    /// Either way the whole batch is rejected and no state changes.
    pub fn update_many(
        &self,
        filter: &Filter,
        update: impl Fn(&mut Value),
    ) -> Result<usize, DbError> {
        let mut state = self.inner.write();
        let planned = state.plan(filter);
        let State { docs, indexes } = &mut *state;
        // Stage every rewrite first — nothing is journaled or stored
        // until the whole batch validates. The old documents stay
        // borrowed from the map.
        let mut staged = Staged::default();
        let mut matched = 0;
        let _ = walk(docs, planned, filter, &mut |id, old| {
            matched += 1;
            let mut new = old.clone();
            update(&mut new);
            if new.at("_id").and_then(Value::as_str) != Some(id) {
                new.set_at("_id", Value::from(id));
            }
            if new != *old {
                staged.push(None, id, Some(old), new);
            }
            ControlFlow::Continue(())
        });
        // A batch that changed nothing touches neither the journal nor
        // the map (`make_mut` copies it when a snapshot holds it).
        if staged.docs.is_empty() {
            return Ok(matched);
        }
        let rewrites = self.commit_staged(indexes, staged)?;
        let docs = Arc::make_mut(docs);
        for (id, new) in rewrites {
            docs.insert(id, new);
        }
        Ok(matched)
    }

    /// Applies a batch of edits by `_id`, in order: `update(i, doc)`
    /// edits the document `ids[i]` as the edits before it in the batch
    /// left it, so an id may come more than once. An id that names no
    /// document is skipped: `update` is not called for it.
    ///
    /// This is [`Collection::update_many`] with every edit kept apart:
    /// each edit that changes its document journals the version it
    /// made as a record of its own (`_id` protected; an edit that
    /// changes nothing journals nothing), so the journal holds the
    /// records the edits made one at a time would write, in their
    /// order, in one append. Each document's index entries move once,
    /// from its stored version to its last. The batch is all or
    /// nothing, as in `update_many`.
    ///
    /// # Errors
    ///
    /// As [`Collection::update_many`]; no state changes then.
    pub fn update_by_ids(
        &self,
        ids: &[&str],
        mut update: impl FnMut(usize, &mut Value),
    ) -> Result<(), DbError> {
        let mut state = self.inner.write();
        let State { docs, indexes } = &mut *state;
        let mut staged = Staged::default();
        let mut slots: HashMap<&str, usize> = HashMap::new();
        for (at, &id) in ids.iter().enumerate() {
            let Some((id, stored)) = docs.get_key_value(id) else {
                continue;
            };
            let slot = slots.get(id.as_str()).copied();
            let current = slot.map_or(stored, |slot| staged.last(slot));
            let mut new = current.clone();
            update(at, &mut new);
            if new.at("_id").and_then(Value::as_str) != Some(id) {
                new.set_at("_id", Value::from(id.as_str()));
            }
            if new != *current {
                if slot.is_none() {
                    slots.insert(id, staged.docs.len());
                }
                staged.push(slot, id, Some(stored), new);
            }
        }
        if staged.docs.is_empty() {
            return Ok(());
        }
        let rewrites = self.commit_staged(indexes, staged)?;
        let docs = Arc::make_mut(docs);
        for (id, new) in rewrites {
            docs.insert(id, new);
        }
        Ok(())
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.inner.read().docs.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().docs.is_empty()
    }

    /// Snapshot of all documents (ordered by `_id`).
    pub fn all(&self) -> Vec<Value> {
        self.snapshot().all()
    }

    /// Projects one field from every matching document.
    pub fn distinct(&self, filter: &Filter, path: &str) -> Vec<Value> {
        let mut seen: HashSet<String> = HashSet::new();
        let mut out = Vec::new();
        self.for_each_matching(filter, &mut |_, doc| {
            if let Some(v) = doc.at(path) {
                let key = crate::json::to_json(v);
                if seen.insert(key) {
                    out.push(v.clone());
                }
            }
            ControlFlow::Continue(())
        });
        out
    }
}

/// Resolves the best applicable probe into sorted, deduplicated
/// candidate ids. `None` means no probe applies and the caller scans.
fn planned_ids(indexes: &IndexSet, filter: &Filter) -> Option<Vec<String>> {
    for probe in filter.probes() {
        let ids: Option<Vec<String>> = match &probe {
            Probe::Ids(ids) => Some(ids.iter().map(|id| (*id).to_owned()).collect()),
            Probe::Eq { path, value } => indexes.get(path).map(|ix| ix.probe_eq(value)),
            Probe::Elem { path, value } => indexes.get(path).and_then(|ix| ix.probe_elem(value)),
            Probe::Range { path, lower } => indexes.get(path).and_then(|ix| ix.probe_range(*lower)),
        };
        if let Some(mut ids) = ids {
            ids.sort();
            ids.dedup();
            return Some(ids);
        }
    }
    None
}

fn id_of(doc: &Value) -> Result<String, DbError> {
    let map = doc.as_map().ok_or_else(|| DbError::InvalidDocument {
        reason: "document must be a map".into(),
    })?;
    map.get("_id")
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| DbError::InvalidDocument {
            reason: "document must carry a string `_id`".into(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: &str, extra: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        let mut map: Vec<(String, Value)> = vec![("_id".into(), Value::from(id))];
        map.extend(extra.into_iter().map(|(k, v)| (k.to_owned(), v)));
        map.into_iter().collect()
    }

    #[test]
    fn insert_get_delete_round_trip() {
        let c = Collection::new("runs");
        c.insert(doc("a", [("n", Value::from(1i64))])).unwrap();
        assert_eq!(c.get("a").unwrap().at("n").and_then(Value::as_int), Some(1));
        assert_eq!(c.len(), 1);
        assert!(c.delete("a").is_some());
        assert!(c.get("a").is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn rejects_duplicate_ids_and_bad_documents() {
        let c = Collection::new("runs");
        c.insert(doc("a", [])).unwrap();
        assert!(matches!(
            c.insert(doc("a", [])),
            Err(DbError::DuplicateId { .. })
        ));
        assert!(matches!(
            c.insert(Value::from(3i64)),
            Err(DbError::InvalidDocument { .. })
        ));
        assert!(matches!(
            c.insert(Value::map([("x", Value::from(1i64))])),
            Err(DbError::InvalidDocument { .. })
        ));
    }

    #[test]
    fn unique_constraint_enforced() {
        let c = Collection::new("artifacts");
        c.ensure_unique("hash").unwrap();
        c.insert(doc("a", [("hash", Value::from("h1"))])).unwrap();
        let err = c
            .insert(doc("b", [("hash", Value::from("h1"))]))
            .unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        // Null / missing values are exempt.
        c.insert(doc("c", [("hash", Value::Null)])).unwrap();
        c.insert(doc("d", [])).unwrap();
        // Deleting frees the key.
        c.delete("a");
        c.insert(doc("e", [("hash", Value::from("h1"))])).unwrap();
    }

    #[test]
    fn ensure_unique_rejects_preexisting_collisions() {
        let c = Collection::new("x");
        c.insert(doc("a", [("k", Value::from(1i64))])).unwrap();
        c.insert(doc("b", [("k", Value::from(1i64))])).unwrap();
        assert!(c.ensure_unique("k").is_err());
        // Constraint was not installed.
        c.insert(doc("c", [("k", Value::from(1i64))])).unwrap();
    }

    #[test]
    fn upsert_replaces_and_restores_on_conflict() {
        let c = Collection::new("x");
        c.ensure_unique("k").unwrap();
        c.insert(doc("a", [("k", Value::from("ka"))])).unwrap();
        c.insert(doc("b", [("k", Value::from("kb"))])).unwrap();
        // Plain replace.
        let old = c.upsert(doc("a", [("k", Value::from("ka2"))])).unwrap();
        assert_eq!(old.unwrap().at("k").and_then(Value::as_str), Some("ka"));
        // Conflicting upsert fails and leaves the old doc in place.
        let err = c.upsert(doc("a", [("k", Value::from("kb"))])).unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        assert_eq!(
            c.get("a").unwrap().at("k").and_then(Value::as_str),
            Some("ka2")
        );
        assert!(c.verify_indexes().is_empty());
    }

    #[test]
    fn find_sort_count_distinct() {
        let c = Collection::new("x");
        for (id, app, t) in [("1", "dedup", 5i64), ("2", "vips", 3), ("3", "dedup", 9)] {
            c.insert(doc(id, [("app", Value::from(app)), ("t", Value::from(t))]))
                .unwrap();
        }
        assert_eq!(c.count(&Filter::eq("app", "dedup")), 2);
        let sorted = c.find_sorted(&Filter::All, "t", SortOrder::Descending);
        let ts: Vec<i64> = sorted
            .iter()
            .filter_map(|d| d.at("t").and_then(Value::as_int))
            .collect();
        assert_eq!(ts, vec![9, 5, 3]);
        let apps = c.distinct(&Filter::All, "app");
        assert_eq!(apps.len(), 2);
    }

    #[test]
    fn update_many_reindexes_and_protects_id() {
        let c = Collection::new("x");
        c.ensure_unique("k").unwrap();
        c.insert(doc(
            "a",
            [("k", Value::from("v1")), ("status", Value::from("running"))],
        ))
        .unwrap();
        let n = c
            .update_many(&Filter::eq("status", "running"), |d| {
                d.set_at("status", Value::from("done"));
                d.set_at("k", Value::from("v2"));
                d.set_at("_id", Value::from("hacked"));
            })
            .unwrap();
        assert_eq!(n, 1);
        let got = c.get("a").expect("_id update must be ignored");
        assert_eq!(got.at("status").and_then(Value::as_str), Some("done"));
        // Old key freed, new key owned.
        c.insert(doc("b", [("k", Value::from("v1"))])).unwrap();
        assert!(c.insert(doc("c", [("k", Value::from("v2"))])).is_err());
    }

    #[test]
    fn update_many_rejects_unique_violations_leaving_state_unchanged() {
        let c = Collection::new("x");
        c.ensure_unique("k").unwrap();
        c.insert(doc(
            "a",
            [("k", Value::from("v1")), ("g", Value::from(1i64))],
        ))
        .unwrap();
        c.insert(doc(
            "b",
            [("k", Value::from("v2")), ("g", Value::from(1i64))],
        ))
        .unwrap();
        c.insert(doc(
            "c",
            [("k", Value::from("v3")), ("g", Value::from(2i64))],
        ))
        .unwrap();
        // Collision with a document outside the batch: rejected whole.
        let err = c
            .update_many(&Filter::eq("g", 1i64), |d| {
                d.set_at("k", Value::from("v3"));
                d.set_at("touched", Value::from(true));
            })
            .unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        // Batch-internal collision: both rewrites target the same key.
        let err = c
            .update_many(&Filter::eq("g", 1i64), |d| {
                d.set_at("k", Value::from("fresh"));
                d.set_at("touched", Value::from(true));
            })
            .unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        // Nothing changed: no document was touched, every original key
        // is still owned, and the index still serves the old keys.
        for (id, key) in [("a", "v1"), ("b", "v2"), ("c", "v3")] {
            let got = c.get(id).unwrap();
            assert!(got.at("touched").is_none(), "{id} was rewritten");
            assert_eq!(got.at("k").and_then(Value::as_str), Some(key));
            assert!(c.insert(doc("dup", [("k", Value::from(key))])).is_err());
        }
        // Swapping values within the batch is legal: the trial retracts
        // the old keys before admitting the rewrites.
        let n = c
            .update_many(&Filter::eq("g", 1i64), |d| {
                let next = match d.at("k").and_then(Value::as_str) {
                    Some("v1") => "v2",
                    _ => "v1",
                };
                d.set_at("k", Value::from(next));
            })
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(
            c.get("a").unwrap().at("k").and_then(Value::as_str),
            Some("v2")
        );
        assert_eq!(
            c.get("b").unwrap().at("k").and_then(Value::as_str),
            Some("v1")
        );
    }

    #[test]
    fn clones_share_storage() {
        let c = Collection::new("x");
        let c2 = c.clone();
        c.insert(doc("a", [])).unwrap();
        assert_eq!(c2.len(), 1);
    }

    #[test]
    fn snapshot_is_isolated_from_writers() {
        let c = Collection::new("x");
        for i in 0..20i64 {
            c.insert(doc(&format!("d{i}"), [("n", Value::from(i))]))
                .unwrap();
        }
        let snap = c.snapshot();
        c.insert(doc("later", [])).unwrap();
        c.delete("d3");
        c.update_many(&Filter::All, |d| {
            d.set_at("n", Value::from(-1i64));
        })
        .unwrap();
        assert_eq!(snap.len(), 20);
        assert!(snap.get("later").is_none());
        assert_eq!(
            snap.get("d3").unwrap().at("n").and_then(Value::as_int),
            Some(3)
        );
        assert_eq!(c.len(), 20);
        // Snapshot iteration stays in _id order.
        let ids: Vec<String> = snap
            .all()
            .iter()
            .map(|d| d.at("_id").and_then(Value::as_str).unwrap().to_owned())
            .collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        // The borrowing walk sees the same documents under the same ids.
        let walked: Vec<&str> = snap.iter().map(|(id, _)| id).collect();
        assert_eq!(walked, ids);
        assert!(snap
            .iter()
            .all(|(id, d)| d.at("_id").and_then(Value::as_str) == Some(id)));
    }

    #[test]
    fn ensure_index_is_idempotent_and_rejects_conflicts() {
        let c = Collection::new("x");
        c.ensure_index(IndexSpec::hash("k")).unwrap();
        c.ensure_index(IndexSpec::hash("k")).unwrap();
        assert!(matches!(
            c.ensure_index(IndexSpec::ordered("k")),
            Err(DbError::IndexConflict { .. })
        ));
        assert!(matches!(
            c.ensure_index(IndexSpec::hash("k").unique()),
            Err(DbError::IndexConflict { .. })
        ));
        assert_eq!(c.index_specs(), vec![IndexSpec::hash("k")]);
    }

    /// Every filter shape must return identical results through the
    /// planner (indexed collection) and the scan (no indexes).
    #[test]
    fn planner_and_scan_agree() {
        let indexed = Collection::new("i");
        let plain = Collection::new("p");
        indexed.ensure_index(IndexSpec::hash("app")).unwrap();
        indexed.ensure_index(IndexSpec::ordered("t")).unwrap();
        indexed.ensure_index(IndexSpec::hash("tags")).unwrap();
        let docs: Vec<Value> = (0..40i64)
            .map(|i| {
                let mut d = doc(
                    &format!("d{i:02}"),
                    [
                        (
                            "app",
                            Value::from(["dedup", "vips", "x264"][i as usize % 3]),
                        ),
                        ("tags", Value::array([Value::from(format!("g{}", i % 4))])),
                    ],
                );
                // A few docs with null / missing / odd-typed sort fields.
                match i % 5 {
                    0 => (),
                    1 => {
                        d.set_at("t", Value::Null);
                    }
                    2 => {
                        d.set_at("t", Value::from(i));
                    }
                    3 => {
                        d.set_at("t", Value::from(i as f64 + 0.5));
                    }
                    _ => {
                        d.set_at("t", Value::from(format!("s{i}")));
                    }
                }
                d
            })
            .collect();
        for d in &docs {
            indexed.insert(d.clone()).unwrap();
            plain.insert(d.clone()).unwrap();
        }
        let filters = [
            Filter::All,
            Filter::eq("app", "dedup"),
            Filter::eq("app", "nope"),
            Filter::eq("_id", "d07"),
            Filter::eq("t", Value::Null),
            Filter::gt("t", 10i64),
            Filter::gte("t", 12.5).and(Filter::gt("t", 30i64)),
            Filter::gt("t", 20i64).and(Filter::gte("t", 20i64)),
            Filter::elem_match("tags", "g2"),
            Filter::eq("app", "dedup").and(Filter::gt("t", 5i64)),
            Filter::gt("t", "a"),
        ];
        for filter in &filters {
            assert_eq!(
                indexed.find(filter),
                plain.find(filter),
                "filter {filter:?} diverged"
            );
            assert_eq!(indexed.count(filter), plain.count(filter));
        }
        assert!(indexed.verify_indexes().is_empty());
    }

    #[test]
    fn ordered_index_drives_find_sorted() {
        let c = Collection::new("x");
        c.ensure_index(IndexSpec::ordered("t")).unwrap();
        c.insert(doc("a", [("t", Value::from(5i64))])).unwrap();
        c.insert(doc("b", [("t", Value::from(3i64))])).unwrap();
        c.insert(doc("c", [("t", Value::Null)])).unwrap();
        c.insert(doc("d", [])).unwrap();
        c.insert(doc("e", [("t", Value::from(9i64))])).unwrap();
        let ids = |docs: Vec<Value>| -> Vec<String> {
            docs.iter()
                .map(|d| d.at("_id").and_then(Value::as_str).unwrap().to_owned())
                .collect()
        };
        assert_eq!(
            ids(c.find_sorted(&Filter::All, "t", SortOrder::Ascending)),
            vec!["c", "d", "b", "a", "e"]
        );
        assert_eq!(
            ids(c.find_sorted(&Filter::All, "t", SortOrder::Descending)),
            vec!["e", "a", "b", "c", "d"]
        );
        assert_eq!(
            ids(c.find_sorted(&Filter::gt("t", 3i64), "t", SortOrder::Ascending)),
            vec!["a", "e"]
        );
    }

    #[test]
    fn verify_indexes_detects_injected_divergence() {
        let c = Collection::new("x");
        c.ensure_index(IndexSpec::hash("hash")).unwrap();
        c.insert(doc("a", [("hash", Value::from("h1"))])).unwrap();
        assert!(c.verify_indexes().is_empty());
        c.inject_index_entry("hash", "\"ghost\"", "no-such-doc");
        let problems = c.verify_indexes();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].detail.contains("missing document"));
        c.inject_index_entry("hash", "\"wrong\"", "a");
        let problems = c.verify_indexes();
        assert_eq!(problems.len(), 2);
        assert!(problems.iter().any(|p| p
            .detail
            .contains("does not match the document's rendered key")));
    }

    #[test]
    fn index_state_matches_scratch_rebuild() {
        let c = Collection::new("x");
        c.ensure_index(IndexSpec::hash("app")).unwrap();
        c.ensure_index(IndexSpec::ordered("t")).unwrap();
        for i in 0..25i64 {
            c.insert(doc(
                &format!("d{i}"),
                [
                    ("app", Value::from(["a", "b"][i as usize % 2])),
                    ("t", Value::from(i % 7)),
                ],
            ))
            .unwrap();
        }
        c.delete("d3");
        c.update_many(&Filter::eq("app", "a"), |d| {
            d.set_at("t", Value::from(99i64));
        })
        .unwrap();
        let rebuilt = Collection::new("x");
        // Declare in reverse order: index_state sorts by path.
        rebuilt.ensure_index(IndexSpec::ordered("t")).unwrap();
        rebuilt.ensure_index(IndexSpec::hash("app")).unwrap();
        for d in c.all() {
            rebuilt.insert(d).unwrap();
        }
        assert_eq!(
            crate::json::to_json(&c.index_state()),
            crate::json::to_json(&rebuilt.index_state())
        );
    }

    #[test]
    fn the_manifest_digested_in_place_is_the_one_from_index_state() {
        let c = Collection::new("x");
        // Declared out of path order, with a unique and a multikey index.
        c.ensure_index(IndexSpec::ordered("t")).unwrap();
        c.ensure_index(IndexSpec::hash("tags")).unwrap();
        c.ensure_unique("name").unwrap();
        let manifest = || crate::json::to_json(&c.index_manifest());
        let from_state = || crate::json::to_json(&crate::index_manifest(&c.index_state()));
        assert_eq!(manifest(), from_state(), "no documents");
        let values = [
            Value::from(1i64),
            Value::from(1.0),
            Value::from(-0.0),
            Value::from("a\"quoted\"\n\u{1}"),
            Value::Null,
            Value::array([Value::from("x"), Value::Null, Value::from(2i64)]),
            Value::map([("k", Value::from(true))]),
        ];
        for (i, value) in values.iter().enumerate() {
            c.insert(doc(
                &format!("d\"{i}"),
                [
                    ("t", value.clone()),
                    ("tags", value.clone()),
                    ("name", Value::from(format!("n{i}"))),
                ],
            ))
            .unwrap();
        }
        c.delete("d\"0");
        assert_eq!(manifest(), from_state());
    }
}
