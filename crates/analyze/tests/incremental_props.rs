//! Equivalence properties for the incremental lint engine.
//!
//! The contract `simart check --incremental` rests on: a warm
//! [`Engine`] fed journal deltas produces **byte-identical** reports to
//! a fresh full scan, after every single mutation — and the persisted
//! state round-trips through the `analysis_state` collection, survives
//! reopen, and is loudly invalidated when a checkpoint compacts the
//! journal past its cursor.

use proptest::collection::vec;
use proptest::prelude::*;
use simart_analyze::diag::render_text;
use simart_analyze::{check_dir_incremental, lint, Engine};
use simart_artifact::Uuid;
use simart_db::{read_journal_from, BlobKey, Database, JournalOp, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn unique_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "simart-incr-props-{}-{tag}-{seq}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A mutation against the database, drawn from a pool small enough that
/// collisions (duplicate hashes, re-upserts, deletes of live docs) are
/// common and large enough to hit every lint's delta path.
#[derive(Debug, Clone)]
enum Op {
    UpsertArtifact {
        slot: u8,
        inputs: Vec<u8>,
        hash: u8,
        payload: u8,
    },
    BadArtifact {
        slot: u8,
    },
    DeleteArtifact {
        slot: u8,
    },
    UpsertRun {
        slot: u8,
        status: u8,
        events: u8,
        hash: u8,
        inputs: Vec<u8>,
    },
    DeleteRun {
        slot: u8,
    },
    Letter {
        slot: u8,
        released: bool,
    },
    DeleteLetter {
        slot: u8,
    },
    BlobPut {
        content: u8,
    },
    BlobRemove {
        content: u8,
    },
    DropRuns,
}

fn op_strategy() -> BoxedStrategy<Op> {
    let inputs = || vec(any::<u8>(), 0..4);
    prop_oneof![
        (any::<u8>(), inputs(), any::<u8>(), any::<u8>()).prop_map(
            |(slot, inputs, hash, payload)| Op::UpsertArtifact {
                slot,
                inputs,
                hash,
                payload
            }
        ),
        any::<u8>().prop_map(|slot| Op::BadArtifact { slot }),
        any::<u8>().prop_map(|slot| Op::DeleteArtifact { slot }),
        (
            (any::<u8>(), any::<u8>()),
            (any::<u8>(), any::<u8>(), inputs())
        )
            .prop_map(|((slot, status), (events, hash, inputs))| Op::UpsertRun {
                slot,
                status,
                events,
                hash,
                inputs
            }),
        any::<u8>().prop_map(|slot| Op::DeleteRun { slot }),
        (any::<u8>(), any::<bool>()).prop_map(|(slot, released)| Op::Letter { slot, released }),
        any::<u8>().prop_map(|slot| Op::DeleteLetter { slot }),
        any::<u8>().prop_map(|content| Op::BlobPut { content }),
        any::<u8>().prop_map(|content| Op::BlobRemove { content }),
        Just(Op::DropRuns),
    ]
    .boxed()
}

fn artifact_id(slot: u8) -> String {
    Uuid::new_v3("incr-props", &format!("artifact-{}", slot % 6)).to_string()
}

fn run_id(slot: u8) -> String {
    format!("run-{}", slot % 6)
}

/// Input slots resolve mostly to pool artifacts, sometimes to a ghost
/// uuid (dangling reference) and sometimes to a non-uuid string.
fn input_ref(slot: u8) -> String {
    match slot % 9 {
        0..=5 => artifact_id(slot),
        6 | 7 => Uuid::new_v3("incr-props", &format!("ghost-{}", slot % 2)).to_string(),
        _ => "not-a-uuid".to_owned(),
    }
}

fn blob_content(content: u8) -> [u8; 1] {
    [content % 5]
}

/// Payload selector: none, a valid blob-key hex (which may or may not
/// be in the store), or garbage that is not a key at all.
fn payload_value(selector: u8) -> Option<Value> {
    match selector % 3 {
        0 => None,
        1 => Some(Value::from(
            BlobKey::for_content(&blob_content(selector)).to_hex(),
        )),
        _ => Some(Value::from("not-a-blob-key")),
    }
}

const STATUSES: [&str; 7] = [
    "created",
    "queued",
    "running",
    "done",
    "failed",
    "retrying",
    "quarantined",
];

/// Event-log shapes covering clean replays and every replay lint.
fn run_events(selector: u8) -> Vec<&'static str> {
    match selector % 6 {
        0 => vec![],
        1 => vec!["status:queued", "status:running", "status:done"],
        2 => vec!["status:queued", "status:done"],
        3 => vec!["status:queued", "status:running", "status:retrying"],
        4 => vec!["status:queued", "status:running", "remote-dispatch:1:g1"],
        _ => vec!["status:bogus"],
    }
}

fn apply(db: &Database, op: &Op) {
    match op {
        Op::UpsertArtifact {
            slot,
            inputs,
            hash,
            payload,
        } => {
            let mut doc = Value::map([
                ("_id", Value::from(artifact_id(*slot))),
                ("name", Value::from("prop")),
                ("kind", Value::from("binary")),
                ("hash", Value::from(format!("hash-{}", hash % 4))),
                (
                    "inputs",
                    Value::array(inputs.iter().map(|i| Value::from(input_ref(*i)))),
                ),
            ]);
            if let Some(payload) = payload_value(*payload) {
                doc.set_at("payload", payload);
            }
            db.collection("artifacts")
                .upsert(doc)
                .expect("upsert artifact");
        }
        Op::BadArtifact { slot } => {
            db.collection("artifacts")
                .upsert(Value::map([
                    ("_id", Value::from(format!("bad-{}", slot % 3))),
                    ("hash", Value::from("hash-bad")),
                ]))
                .expect("upsert bad artifact");
        }
        Op::DeleteArtifact { slot } => {
            db.collection("artifacts").delete(&artifact_id(*slot));
        }
        Op::UpsertRun {
            slot,
            status,
            events,
            hash,
            inputs,
        } => {
            let mut doc = Value::map([
                ("_id", Value::from(run_id(*slot))),
                ("hash", Value::from(format!("rh-{}", hash % 4))),
                (
                    "status",
                    Value::from(STATUSES[*status as usize % STATUSES.len()]),
                ),
                (
                    "inputs",
                    Value::array(inputs.iter().map(|i| Value::from(input_ref(*i)))),
                ),
                (
                    "events",
                    Value::array(run_events(*events).into_iter().map(Value::from)),
                ),
            ]);
            if let Some(payload) = payload_value(*hash) {
                doc.set_at("results.payload", payload);
            }
            db.collection("runs").upsert(doc).expect("upsert run");
        }
        Op::DeleteRun { slot } => {
            db.collection("runs").delete(&run_id(*slot));
        }
        Op::Letter { slot, released } => {
            db.collection("quarantine")
                .upsert(Value::map([
                    ("_id", Value::from(run_id(*slot))),
                    ("released", Value::from(*released)),
                ]))
                .expect("upsert dead letter");
        }
        Op::DeleteLetter { slot } => {
            db.collection("quarantine").delete(&run_id(*slot));
        }
        Op::BlobPut { content } => {
            db.blobs().put(blob_content(*content).to_vec());
        }
        Op::BlobRemove { content } => {
            db.blobs()
                .remove(BlobKey::for_content(&blob_content(*content)));
        }
        Op::DropRuns => {
            db.drop_collection("runs");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE equivalence property: after every mutation, a warm engine
    /// that only saw journal deltas renders the same report, byte for
    /// byte, as a fresh engine that scanned the whole database.
    #[test]
    fn incremental_report_is_byte_identical_to_full_scan(ops in vec(op_strategy(), 1..25)) {
        let dir = unique_dir("equiv");
        let db = Database::open(&dir).expect("open attached database");
        let mut warm = Engine::new();
        warm.full_scan(&db);
        let mut offset = 0u64;
        for op in &ops {
            apply(&db, op);
            let replay = read_journal_from(&dir, offset).expect("read journal suffix");
            for jop in &replay.ops {
                warm.apply_op(jop);
            }
            offset = replay.valid_bytes;
            let mut fresh = Engine::new();
            fresh.full_scan(&db);
            prop_assert_eq!(
                render_text(&warm.diagnostics()),
                render_text(&fresh.diagnostics()),
                "after {op:?}"
            );
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A full scan is one walk over the stored documents and blobs,
    /// and the walk must not depend on its visiting order: feeding the
    /// same final content to a fresh engine back to front — collections
    /// in reverse name order, documents in reverse id order, blobs last
    /// instead of first — renders the same report.
    #[test]
    fn reversed_replay_of_final_content_matches_full_scan(ops in vec(op_strategy(), 1..25)) {
        let db = Database::in_memory();
        for op in &ops {
            apply(&db, op);
        }
        let mut scanned = Engine::new();
        scanned.full_scan(&db);
        let mut replayed = Engine::new();
        for collection in db.collection_names().into_iter().rev() {
            for doc in db.collection(&collection).all().into_iter().rev() {
                replayed.apply_op(&JournalOp::Upsert { collection: collection.clone(), doc });
            }
        }
        for key in db.blobs().keys().into_iter().rev() {
            let data = db.blobs().get(key).expect("listed blob").to_vec();
            replayed.apply_op(&JournalOp::BlobPut { data });
        }
        prop_assert_eq!(
            render_text(&replayed.diagnostics()),
            render_text(&scanned.diagnostics())
        );
    }
}

/// The persisted-state path: the first check records state after a
/// loud full scan, the next check resumes from the cursor and still
/// matches a fresh `lint_dir`, a checkpoint compacts the journal past
/// the cursor (loud fallback again), and the re-recorded state resumes
/// silently afterwards.
#[test]
fn persisted_state_resumes_and_checkpoint_invalidates_the_cursor() {
    let dir = unique_dir("persist");
    let ghost = Uuid::new_v3("incr-props", "persist-ghost").to_string();
    {
        let db = Database::open(&dir).expect("open attached database");
        db.collection("runs")
            .upsert(Value::map([
                ("_id", Value::from("run-a")),
                ("hash", Value::from("rh-dup")),
                ("status", Value::from("created")),
            ]))
            .expect("seed run");
        db.collection("runs")
            .upsert(Value::map([
                ("_id", Value::from("run-b")),
                ("hash", Value::from("rh-dup")),
                ("status", Value::from("created")),
            ]))
            .expect("seed run");
    }

    let (full, _) = lint::lint_dir(&dir).expect("full lint");
    let first = check_dir_incremental(&dir).expect("first check");
    assert!(!first.incremental);
    assert_eq!(
        first.fallback.as_deref(),
        Some("no analysis state recorded yet (this full scan records one)")
    );
    assert_eq!(render_text(&first.diagnostics), render_text(&full));

    // A dangling input lands in the journal; the resumed check picks it
    // up from the cursor and agrees with a fresh full scan.
    {
        let db = Database::open(&dir).expect("reopen attached database");
        db.collection("runs")
            .upsert(Value::map([
                ("_id", Value::from("run-c")),
                ("hash", Value::from("rh-c")),
                ("status", Value::from("created")),
                ("inputs", Value::array([Value::from(ghost.as_str())])),
            ]))
            .expect("seed defect");
    }
    let (full, _) = lint::lint_dir(&dir).expect("full lint after mutation");
    let second = check_dir_incremental(&dir).expect("second check");
    assert!(
        second.incremental,
        "state recorded by the first check resumes"
    );
    assert!(second.fallback.is_none());
    assert!(second.delta_records > 0);
    assert_eq!(render_text(&second.diagnostics), render_text(&full));

    // Checkpointing folds and truncates the journal: the recorded
    // cursor no longer names a journal prefix, so the check says so and
    // rescans — then the state it re-records resumes again.
    {
        let db = Database::open(&dir).expect("reopen for checkpoint");
        db.checkpoint().expect("checkpoint");
    }
    let third = check_dir_incremental(&dir).expect("post-checkpoint check");
    assert!(!third.incremental);
    assert_eq!(
        third.fallback.as_deref(),
        Some("journal compacted past the analysis cursor")
    );
    let (full, _) = lint::lint_dir(&dir).expect("full lint after checkpoint");
    assert_eq!(render_text(&third.diagnostics), render_text(&full));

    let fourth = check_dir_incremental(&dir).expect("final check");
    assert!(fourth.incremental);
    assert!(fourth.fallback.is_none());
    assert_eq!(render_text(&fourth.diagnostics), render_text(&full));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resumed check replays exactly what was journaled past its cursor,
/// however large the database: the same appended runs read as the same
/// `delta_records` over 100 and over 2 000 recorded runs. A count, not
/// a timing — restoring the state document is still O(database).
#[test]
fn resumed_check_replays_exactly_the_appended_records() {
    const APPENDED: usize = 10;
    let run = |id: String| {
        Value::map([
            ("hash", Value::from(format!("rh-{id}"))),
            ("_id", Value::from(id)),
            ("status", Value::from("done")),
            ("inputs", Value::array([])),
            (
                "events",
                Value::array(["status:queued", "status:running", "status:done"].map(Value::from)),
            ),
        ])
    };
    for recorded in [100, 2_000] {
        let dir = unique_dir(&format!("delta-{recorded}"));
        {
            let db = Database::open(&dir).expect("open attached database");
            for i in 0..recorded {
                db.collection("runs")
                    .insert(run(format!("run-{i:05}")))
                    .expect("record run");
            }
        }
        let first = check_dir_incremental(&dir).expect("first check records state");
        assert!(!first.incremental);
        {
            let db = Database::open(&dir).expect("reopen attached database");
            for i in 0..APPENDED {
                db.collection("runs")
                    .insert(run(format!("appended-{i}")))
                    .expect("append run");
            }
        }
        let second = check_dir_incremental(&dir).expect("resumed check");
        assert!(second.incremental, "{recorded} runs: {:?}", second.fallback);
        // The appended runs, plus the state document the first check
        // journaled just past the cursor it recorded.
        assert_eq!(second.delta_records, APPENDED + 1, "{recorded} runs");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
