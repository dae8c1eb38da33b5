//! The collection under threads: writers, point readers, scanners and a
//! held snapshot all at once, on a journaled collection with a unique,
//! a multikey and an ordered index declared.
//!
//! Every writer owns an id range (its operations have exactly one legal
//! outcome, asserted on the spot against a local model) and also works
//! a range shared with the other writers. Every stored document carries
//! a version no other write uses, and every operation that took effect
//! logs which version it replaced, so the shared range resolves to one
//! sequential history per id afterwards: a version replaced twice would
//! be a lost update.
//!
//! Interleavings are forced, never slept for: all threads start at one
//! barrier, and the snapshot is taken once every writer has reported
//! being half-way, so the slowest still has half its work to do. A
//! panicking thread fails the test instead of hanging it: nothing waits
//! on a thread mid-work, and `done` is raised whatever the writers did.

use simart_codec::json;
use simart_db::{Collection, Database, DbError, Filter, IndexSpec, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering::SeqCst};
use std::sync::Barrier;

const WRITERS: usize = 4;
const STEPS: usize = 1000;
const OWN_IDS: usize = 24;
const SHARED_IDS: usize = 12;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "simart-collection-threads-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// xorshift64*: a per-thread operation stream that repeats run to run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }
}

fn doc(id: &str, writer: usize, step: usize) -> Value {
    let version = format!("w{writer}:{step}");
    Value::map([
        ("_id", Value::from(id)),
        ("hash", Value::from(format!("{id}#{version}"))),
        ("v", Value::from(version)),
        (
            "inputs",
            Value::array([
                Value::from(format!("art-{}", step % 5)),
                Value::from(format!("by-w{writer}")),
            ]),
        ),
        ("n", Value::from(step)),
        ("tag", Value::from(["even", "odd"][step % 2])),
    ])
}

fn text<'a>(doc: &'a Value, path: &str) -> &'a str {
    doc.at(path)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("document without a string `{path}`: {doc:?}"))
}

/// A document read back whole: its unique key is derived from its id
/// and version, so a mix of two writes cannot pass.
fn assert_intact(doc: &Value) {
    let expected = format!("{}#{}", text(doc, "_id"), text(doc, "v"));
    assert_eq!(text(doc, "hash"), expected);
}

fn assert_strictly_ascending(docs: &[Value]) {
    for pair in docs.windows(2) {
        assert!(
            text(&pair[0], "_id") < text(&pair[1], "_id"),
            "scan out of `_id` order: {} then {}",
            text(&pair[0], "_id"),
            text(&pair[1], "_id")
        );
    }
}

/// Counters bracketing every attempt at one kind of count-changing
/// operation.
#[derive(Default)]
struct Bracket {
    started: AtomicI64,
    done: AtomicI64,
    void: AtomicI64,
}

impl Bracket {
    /// Runs `attempt`, which says whether it changed the count.
    fn run(&self, attempt: impl FnOnce() -> bool) {
        self.started.fetch_add(1, SeqCst);
        let counter = if attempt() { &self.done } else { &self.void };
        counter.fetch_add(1, SeqCst);
    }
}

/// Creations and deletions, bracketed, so a reader can bound the
/// document count at the instant it looked without knowing how the
/// threads interleaved.
#[derive(Default)]
struct Tally {
    creates: Bracket,
    deletes: Bracket,
}

impl Tally {
    /// Runs `count` and checks its result against the creations and
    /// deletions that can have been applied at that instant: at least
    /// what had finished before, at most what had started (and not
    /// already come to nothing) by the time it returned.
    fn check(&self, what: &str, count: impl FnOnce() -> usize) {
        let (creates, deletes) = (&self.creates, &self.deletes);
        let created = creates.done.load(SeqCst);
        let create_void = creates.void.load(SeqCst);
        let deleted = deletes.done.load(SeqCst);
        let delete_void = deletes.void.load(SeqCst);
        let n = count() as i64;
        let created_at_most = creates.started.load(SeqCst) - create_void;
        let deleted_at_most = deletes.started.load(SeqCst) - delete_void;
        let (low, high) = (created - deleted_at_most, created_at_most - deleted);
        assert!(
            low <= n && n <= high,
            "{what} = {n}, outside [{low}, {high}]"
        );
    }
}

#[derive(Clone, Copy)]
enum Op {
    Insert,
    Upsert,
    Update,
    Delete,
}

/// What an operation did to its id: `(document before, document
/// after)`, or `None` when it changed nothing (duplicate insert, update
/// or delete of an absent id).
type Effect = Option<(Option<Value>, Option<Value>)>;

fn apply(c: &Collection, tally: &Tally, op: Op, id: &str, new: &Value) -> Effect {
    match op {
        Op::Insert => {
            let mut effect = None;
            tally.creates.run(|| match c.insert(new.clone()) {
                Ok(()) => {
                    effect = Some((None, Some(new.clone())));
                    true
                }
                Err(DbError::DuplicateId { .. }) => false,
                Err(other) => panic!("insert {id}: {other}"),
            });
            effect
        }
        Op::Upsert => {
            let mut before = None;
            tally.creates.run(|| {
                before = c.upsert(new.clone()).expect("upsert");
                before.is_none()
            });
            Some((before, Some(new.clone())))
        }
        Op::Update => {
            let before = RefCell::new(None);
            let changed = c
                .update_many(&Filter::eq("_id", id), |stored| {
                    before.replace(Some(stored.clone()));
                    *stored = new.clone();
                })
                .expect("update_many");
            assert!(changed <= 1, "`_id` matched {changed} documents");
            before.take().map(|old| (Some(old), Some(new.clone())))
        }
        Op::Delete => {
            let mut before = None;
            tally.deletes.run(|| {
                before = c.delete(id);
                before.is_some()
            });
            before.map(|old| (Some(old), None))
        }
    }
}

/// The same operation on a sequential model.
fn apply_model(model: &mut BTreeMap<String, Value>, op: Op, id: &str, new: &Value) -> Effect {
    let before = model.get(id).cloned();
    let after = match (op, &before) {
        (Op::Insert, Some(_)) | (Op::Update | Op::Delete, None) => return None,
        (Op::Delete, Some(_)) => None,
        _ => Some(new.clone()),
    };
    match &after {
        Some(doc) => model.insert(id.to_owned(), doc.clone()),
        None => model.remove(id),
    };
    Some((before, after))
}

/// One effective operation on a shared id: the version it replaced and
/// the document it left.
type Transition = (String, Option<String>, Option<Value>);

fn writer(
    w: usize,
    c: &Collection,
    tally: &Tally,
    start: &Barrier,
    half_way: &AtomicUsize,
) -> (BTreeMap<String, Value>, Vec<Transition>) {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (w as u64 + 1));
    let mut own = BTreeMap::new();
    let mut log = Vec::new();
    start.wait();
    for step in 0..STEPS {
        if step == STEPS / 2 {
            half_way.fetch_add(1, SeqCst);
        }
        let op = [Op::Insert, Op::Upsert, Op::Update, Op::Delete][rng.below(4)];
        if rng.below(2) == 0 {
            let id = format!("s-{:02}", rng.below(SHARED_IDS));
            let new = doc(&id, w, step);
            if let Some((before, after)) = apply(c, tally, op, &id, &new) {
                log.push((id, before.map(|old| text(&old, "v").to_owned()), after));
            }
        } else {
            let id = format!("w{w}-{:02}", rng.below(OWN_IDS));
            let new = doc(&id, w, step);
            let expected = apply_model(&mut own, op, &id, &new);
            assert_eq!(
                apply(c, tally, op, &id, &new),
                expected,
                "{id} at step {step}"
            );
        }
        // The unique index holds under fire: a second id may not take a
        // live document's key, and the refused insert leaves no trace.
        if step % 40 == 0 {
            if let Some(live) = own.values().next() {
                let mut thief = doc(&format!("w{w}-thief"), w, step);
                thief.set_at("hash", Value::from(text(live, "hash")));
                tally.creates.run(|| {
                    let refused = c.insert(thief.clone());
                    assert!(matches!(refused, Err(DbError::UniqueViolation { .. })));
                    false
                });
                assert!(c.get(&format!("w{w}-thief")).is_none());
            }
        }
    }
    (own, log)
}

/// Resolves the shared range's transition logs to its final documents,
/// checking that they form one sequential history per id.
fn resolve(logs: Vec<Transition>) -> BTreeMap<String, Value> {
    let mut written: BTreeMap<String, BTreeMap<String, Value>> = BTreeMap::new();
    let mut replaced: BTreeSet<(String, String)> = BTreeSet::new();
    let mut balance: BTreeMap<String, i64> = BTreeMap::new();
    for (id, before, after) in logs {
        match before {
            Some(version) => assert!(
                replaced.insert((id.clone(), version.clone())),
                "{id}: version {version} was replaced twice (lost update)"
            ),
            None => *balance.entry(id.clone()).or_default() += 1,
        }
        match after {
            Some(doc) => {
                let version = text(&doc, "v").to_owned();
                written.entry(id).or_default().insert(version, doc);
            }
            None => *balance.entry(id).or_default() -= 1,
        }
    }
    let mut finals = BTreeMap::new();
    for (id, version) in &replaced {
        assert!(
            written
                .get(id)
                .is_some_and(|docs| docs.contains_key(version)),
            "{id}: replaced version {version} was never written"
        );
    }
    for (id, docs) in written {
        let mut live = docs
            .into_iter()
            .filter(|(version, _)| !replaced.contains(&(id.clone(), version.clone())));
        let last = live.next();
        assert!(live.next().is_none(), "{id}: two unreplaced versions");
        assert_eq!(
            balance.get(&id).copied().unwrap_or(0),
            i64::from(last.is_some()),
            "{id}: creations and deletions do not add up"
        );
        if let Some((_, doc)) = last {
            finals.insert(id, doc);
        }
    }
    finals
}

#[test]
fn concurrent_use_matches_a_sequential_model() {
    let dir = temp_dir("model");
    let db = Database::open(&dir).expect("open");
    let c = db.collection("runs");
    c.ensure_unique("hash").expect("unique index");
    c.ensure_index(IndexSpec::hash("inputs"))
        .expect("multikey index");
    c.ensure_index(IndexSpec::ordered("n"))
        .expect("ordered index");

    let tally = Tally::default();
    let start = Barrier::new(WRITERS + 5);
    let half_way = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let (c, tally, start, half_way, done) = (&c, &tally, &start, &half_way, &done);

    let (model, held) = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| scope.spawn(move || writer(w, c, tally, start, half_way)))
            .collect();
        // Point readers: `get`, `len`, and an index-planned walk (which
        // runs under the read lock).
        for r in 0..2u64 {
            scope.spawn(move || {
                let mut rng = Rng(0xD1B5_4A32_D192_ED03 ^ (r + 1));
                start.wait();
                while !done.load(SeqCst) {
                    let id = match rng.below(2) {
                        0 => format!("s-{:02}", rng.below(SHARED_IDS)),
                        _ => format!("w{}-{:02}", rng.below(WRITERS), rng.below(OWN_IDS)),
                    };
                    if let Some(doc) = c.get(&id) {
                        assert_eq!(text(&doc, "_id"), id);
                        assert_intact(&doc);
                    }
                    tally.check("len()", || c.len());
                    let by = format!("by-w{}", rng.below(WRITERS));
                    let hits = c.find(&Filter::elem_match("inputs", by.as_str()));
                    assert_strictly_ascending(&hits);
                    for doc in &hits {
                        assert_intact(doc);
                        assert_eq!(doc.at("inputs.1").and_then(Value::as_str), Some(&*by));
                    }
                }
            });
        }
        // Scanners: `tag` is not indexed, `all()` never is.
        for _ in 0..2 {
            scope.spawn(move || {
                start.wait();
                while !done.load(SeqCst) {
                    let odd = c.find(&Filter::eq("tag", "odd"));
                    assert_strictly_ascending(&odd);
                    for doc in &odd {
                        assert_intact(doc);
                        assert_eq!(text(doc, "tag"), "odd");
                    }
                    tally.check("all().len()", || {
                        let all = c.all();
                        assert_strictly_ascending(&all);
                        all.len()
                    });
                    let snapshot = c.snapshot();
                    assert_eq!(snapshot.len(), snapshot.all().len());
                }
            });
        }
        // A snapshot taken while the writers are half-way, re-read
        // while they finish.
        let holder = scope.spawn(move || {
            start.wait();
            while half_way.load(SeqCst) < WRITERS && !done.load(SeqCst) {
                std::thread::yield_now();
            }
            let snapshot = c.snapshot();
            let (len, all) = (snapshot.len(), snapshot.all());
            assert_eq!(len, all.len());
            while !done.load(SeqCst) {
                assert_eq!(snapshot.len(), len);
                assert_eq!(snapshot.all(), all);
            }
            (snapshot, len, all)
        });

        let finished: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
        done.store(true, SeqCst);
        let mut model = BTreeMap::new();
        let mut logs = Vec::new();
        for writer in finished {
            let (own, log) = writer.expect("writer");
            model.extend(own);
            logs.extend(log);
        }
        model.extend(resolve(logs));
        (model, holder.join().expect("snapshot holder"))
    });

    let expected: Vec<Value> = model.into_values().collect();
    assert!(
        expected.len() > SHARED_IDS,
        "the run left too little to compare"
    );
    assert_eq!(c.all(), expected);
    assert_eq!(c.len(), expected.len());
    assert_eq!(c.verify_indexes(), Vec::new());
    let (snapshot, len, all) = held;
    assert_eq!(snapshot.len(), len);
    assert_eq!(snapshot.all(), all);
    assert_ne!(
        all, expected,
        "the writers changed nothing after the snapshot"
    );

    // The journal alone (nothing was checkpointed) replays to the same
    // documents and indexes; so does the folded checkpoint.
    let indexes = json::to_json(&c.index_state());
    drop((snapshot, db));
    for fold in [true, false] {
        let reopened = Database::open(&dir).expect("reopen");
        let runs = reopened.collection("runs");
        assert_eq!(runs.all(), expected);
        assert_eq!(json::to_json(&runs.index_state()), indexes);
        assert_eq!(runs.verify_indexes(), Vec::new());
        if fold {
            reopened.checkpoint().expect("checkpoint");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `len()` and `is_empty()` read one map under one lock: while threads
/// move documents (insert the new id, then delete the old one) the
/// count is the base plus the moves in flight — never below the base,
/// which a count summed over separately locked parts could report.
#[test]
fn len_is_exact_while_documents_move() {
    const BASE: usize = 64;
    const MOVES: usize = 500;
    let c = Database::in_memory().collection("moves");
    let seed = |w: usize| -> Vec<String> {
        (0..BASE / WRITERS)
            .map(|slot| format!("m{w}-{slot:02}-0000"))
            .collect()
    };
    for w in 0..WRITERS {
        for id in seed(w) {
            c.insert(doc(&id, w, 0)).expect("seed");
        }
    }
    let start = Barrier::new(WRITERS + 2);
    let done = AtomicBool::new(false);
    let (c, start, done) = (&c, &start, &done);
    std::thread::scope(|scope| {
        let movers: Vec<_> = (0..WRITERS)
            .map(|w| {
                scope.spawn(move || {
                    let mut ids = seed(w);
                    start.wait();
                    for step in 1..=MOVES {
                        let slot = step % ids.len();
                        let to = format!("m{w}-{slot:02}-{step:04}");
                        c.insert(doc(&to, w, step)).expect("move in");
                        let from = std::mem::replace(&mut ids[slot], to);
                        assert!(c.delete(&from).is_some(), "move out of {from}");
                    }
                })
            })
            .collect();
        for _ in 0..2 {
            scope.spawn(move || {
                start.wait();
                while !done.load(SeqCst) {
                    let n = c.len();
                    assert!((BASE..=BASE + WRITERS).contains(&n), "len() = {n}");
                    assert!(!c.is_empty());
                    let n = c.snapshot().len();
                    assert!((BASE..=BASE + WRITERS).contains(&n), "snapshot len = {n}");
                }
            });
        }
        let finished: Vec<_> = movers.into_iter().map(|m| m.join()).collect();
        done.store(true, SeqCst);
        for mover in finished {
            mover.expect("mover");
        }
    });
    assert_eq!(c.len(), BASE);
}
