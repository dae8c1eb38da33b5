//! Property-based tests for secondary indexes.
//!
//! The maintenance invariant: after *any* sequence of mutations —
//! inserts, upserts, deletes, and bulk updates, in any order — every
//! declared index renders byte-identical to a scratch rebuild over the
//! surviving documents, and `verify_indexes` finds nothing to complain
//! about. The journaled variant proves the same holds across a
//! crash-replay: dropping an attached database without a checkpoint
//! and reloading rebuilds the exact same index state.

use proptest::prelude::*;
use simart_codec::json;
use simart_db::{Collection, Database, Filter, IndexSpec, Value};
use std::fs;

/// The three index shapes under test: a scalar hash key, a multikey
/// hash over an array field, and an ordered numeric key.
fn declare_indexes(collection: &Collection) {
    collection
        .ensure_index(IndexSpec::hash("tag"))
        .expect("hash index");
    collection
        .ensure_index(IndexSpec::hash("refs"))
        .expect("multikey index");
    collection
        .ensure_index(IndexSpec::ordered("n"))
        .expect("ordered index");
}

/// One random mutation. Encoded as plain tuples so proptest shrinks
/// well: (selector, document slot, tag + ref count packed, n).
type Op = (u8, u8, u8, i64);

fn apply(collection: &Collection, ops: &[Op]) {
    for &(selector, slot, packed, n) in ops {
        let (tag, refs) = (packed % 5, (packed / 5) % 4);
        let id = format!("d{}", slot % 24);
        let doc = || {
            let mut doc = Value::map([
                ("_id", Value::from(id.as_str())),
                ("tag", Value::from(format!("t{tag}"))),
                ("n", Value::from(n % 100)),
            ]);
            doc.set_at(
                "refs",
                Value::array((0..refs).map(|r| Value::from(format!("a{r}")))),
            );
            doc
        };
        match selector % 4 {
            // Insert: rejected on a duplicate _id, which must leave
            // every index untouched.
            0 => {
                let _ = collection.insert(doc());
            }
            1 => {
                let _ = collection.upsert(doc());
            }
            2 => {
                collection.delete(&id);
            }
            // Bulk rewrite of every indexed field on a tag group
            // (no unique index declared here, so it cannot reject).
            _ => {
                collection
                    .update_many(&Filter::eq("tag", format!("t{tag}")), |d| {
                        d.set_at("n", Value::from(n % 7));
                        d.set_at("refs", Value::array([Value::from("rewritten")]));
                    })
                    .expect("no unique index to violate");
            }
        }
    }
}

/// Scratch rebuild: a fresh collection with the same index specs,
/// fed the surviving documents.
fn rebuild(collection: &Collection) -> Value {
    let fresh = Database::in_memory().collection(collection.name());
    for spec in collection.index_specs() {
        fresh.ensure_index(spec).expect("redeclare index");
    }
    for doc in collection.all() {
        fresh.insert(doc).expect("reinsert");
    }
    fresh.index_state()
}

fn rand_suffix() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    COUNTER.fetch_add(1, Ordering::SeqCst)
}

proptest! {
    /// In-memory: any mutation sequence leaves every index
    /// byte-identical to a scratch rebuild, with nothing for
    /// `verify_indexes` to find — and indexed queries agree with a
    /// filter scan over the same collection.
    #[test]
    fn indexes_match_scratch_rebuild_after_any_mutations(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<i64>()), 0..64),
    ) {
        let collection = Database::in_memory().collection("props");
        declare_indexes(&collection);
        apply(&collection, &ops);

        prop_assert!(collection.verify_indexes().is_empty());
        prop_assert_eq!(
            json::to_json(&collection.index_state()),
            json::to_json(&rebuild(&collection))
        );
        // Index-planned queries and brute-force filtering agree.
        for tag in 0..5u8 {
            let filter = Filter::eq("tag", format!("t{tag}"));
            let by_scan = collection.all().iter().filter(|d| filter.matches(d)).count();
            prop_assert_eq!(collection.count(&filter), by_scan);
        }
        let range = Filter::gt("n", 50i64);
        let by_scan = collection.all().iter().filter(|d| range.matches(d)).count();
        prop_assert_eq!(collection.count(&range), by_scan);
    }
}

proptest! {
    /// Commit-time unique enforcement: a bulk rewrite that would land
    /// two documents on one unique key — whether colliding with a
    /// bystander outside the batch or with another rewrite inside it —
    /// is rejected whole, and the collection (documents *and* index
    /// state) renders byte-identical to the moment before the call.
    /// Accepted batches still match a scratch rebuild.
    #[test]
    fn rejected_update_many_batches_leave_state_unchanged(
        docs in proptest::collection::btree_map(0u8..12, (0u8..6, 0u8..4), 1..12),
        target in 0u8..6,
        group in 0u8..4,
    ) {
        let collection = Database::in_memory().collection("uniq");
        collection.ensure_unique("u").expect("unique index");
        for (&slot, &(u, g)) in &docs {
            // Seed at most one owner per unique key.
            let _ = collection.insert(Value::map([
                ("_id", Value::from(format!("d{slot}"))),
                ("u", Value::from(format!("u{u}"))),
                ("g", Value::from(i64::from(g))),
            ]));
        }
        let before_docs = json::to_json(&Value::array(collection.all()));
        let before_index = json::to_json(&collection.index_state());

        let result = collection.update_many(&Filter::eq("g", i64::from(group)), |d| {
            d.set_at("u", Value::from(format!("u{target}")));
            d.set_at("touched", Value::from(true));
        });

        match result {
            Err(_) => {
                // Rejected: nothing moved.
                prop_assert_eq!(
                    json::to_json(&Value::array(collection.all())),
                    before_docs
                );
                prop_assert_eq!(
                    json::to_json(&collection.index_state()),
                    before_index
                );
            }
            Ok(n) => {
                // Accepted: every rewrite targeted the same key, so an
                // accepted batch can hold at most one document — and
                // afterwards at most one document owns that key.
                prop_assert!(n <= 1);
                prop_assert!(collection.count(&Filter::eq("u", format!("u{target}"))) <= 1);
            }
        }
        prop_assert!(collection.verify_indexes().is_empty());
        prop_assert_eq!(
            json::to_json(&collection.index_state()),
            json::to_json(&rebuild(&collection))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Journal replay: an attached database dropped without a
    /// checkpoint (the crash model) reloads with the exact same index
    /// state the live process held — the declaration travels as an
    /// `idx` journal record and the entries rebuild from the replayed
    /// documents.
    #[test]
    fn crash_replay_rebuilds_identical_index_state(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<i64>()), 0..24),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "simart-index-props-{}-{}",
            std::process::id(),
            rand_suffix()
        ));
        let _ = fs::remove_dir_all(&dir);
        let live_state;
        {
            let db = Database::open(&dir).expect("open attached");
            let collection = db.collection("props");
            declare_indexes(&collection);
            apply(&collection, &ops);
            live_state = json::to_json(&collection.index_state());
            // Crash: drop with no checkpoint, journal only.
        }
        let restored = Database::load(&dir).expect("replay");
        let collection = restored.collection("props");
        prop_assert_eq!(json::to_json(&collection.index_state()), live_state);
        prop_assert!(collection.verify_indexes().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// The three `RunStore` index shapes — a unique hash key, a
/// low-cardinality hash key, a multikey array every document shares —
/// plus a sparse ordered key.
fn declare_run_indexes(collection: &Collection) {
    for spec in [
        IndexSpec::hash("hash").unique(),
        IndexSpec::hash("status"),
        IndexSpec::hash("inputs"),
        IndexSpec::ordered("results.simTicks"),
    ] {
        collection.ensure_index(spec).expect("run index");
    }
}

fn run_doc(slot: u8) -> Value {
    Value::map([
        ("_id", Value::from(format!("r{slot:02}"))),
        ("hash", Value::from(format!("h{slot:02}"))),
        ("status", Value::from("queued")),
        (
            "inputs",
            Value::array(["gem5", "kernel", "disk"].map(Value::from)),
        ),
        ("events", Value::array([])),
    ])
}

/// One edit of the delta generator: (what to change, which documents,
/// a value). `what` picks non-indexed fields only, indexed fields only,
/// both, the shared multikey array, or a unique key that may collide.
type Edit = (u8, u8, i64);

fn apply_edit(collection: &Collection, (what, which, n): Edit) {
    let filter = match which % 4 {
        0 => Filter::eq("_id", format!("r{:02}", which % 16)),
        1 => Filter::eq("status", ["queued", "running", "done"][which as usize % 3]),
        2 => Filter::elem_match("inputs", "kernel"),
        _ => Filter::gt("results.simTicks", n % 50),
    };
    let status = ["queued", "running", "done"][n.unsigned_abs() as usize % 3];
    let _ = collection.update_many(&filter, |doc| match what % 6 {
        0 => {
            doc.set_at("events", Value::array([Value::from(n)]));
        }
        1 => {
            doc.set_at("status", Value::from(status));
        }
        2 => {
            doc.set_at("status", Value::from(status));
            doc.set_at("results.simTicks", Value::from(n % 50));
            doc.set_at("note", Value::from(n));
        }
        3 => {
            doc.set_at(
                "inputs",
                Value::array([Value::from("gem5"), Value::from(n % 3)]),
            );
        }
        4 => {
            // May collide with a bystander or inside the batch: a
            // refusal must leave everything as it was.
            doc.set_at("hash", Value::from(format!("h{:02}", n.rem_euclid(20))));
            doc.set_at("status", Value::from(status));
        }
        _ => {
            // `0.0 == -0.0`, but they render differently.
            let zero = if n % 2 == 0 { 0.0 } else { -0.0 };
            doc.set_at("results.simTicks", Value::from(zero));
            doc.set_at("note", Value::from(n));
        }
    });
}

proptest! {
    /// The delta: `update_many` retracts and admits only the *(document,
    /// index)* pairs whose field an edit changed. After every single
    /// edit — of non-indexed fields only, indexed fields only, both, the
    /// multikey array all documents share, a unique key that may be
    /// refused — the write-through state still equals a full rebuild.
    #[test]
    fn delta_maintenance_equals_full_retract_and_admit(
        edits in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<i64>()), 1..40),
    ) {
        let collection = Database::in_memory().collection("runs");
        declare_run_indexes(&collection);
        for slot in 0..16 {
            collection.insert(run_doc(slot)).expect("seed run");
        }
        for edit in edits {
            apply_edit(&collection, edit);
            prop_assert!(collection.verify_indexes().is_empty(), "after {:?}", edit);
            prop_assert_eq!(
                json::to_json(&collection.index_state()),
                json::to_json(&rebuild(&collection)),
                "after {:?}", edit
            );
        }
    }
}

#[test]
fn a_batch_that_swaps_two_unique_keys_is_accepted() {
    let collection = Database::in_memory().collection("runs");
    declare_run_indexes(&collection);
    for slot in 0..3 {
        collection.insert(run_doc(slot)).unwrap();
    }
    let swapped = collection
        .update_many(&Filter::gte("_id", "r01"), |doc| {
            let other = match doc.at("hash").and_then(Value::as_str) {
                Some("h01") => "h02",
                _ => "h01",
            };
            doc.set_at("hash", Value::from(other));
        })
        .expect("old keys are retracted before the new ones are checked");
    assert_eq!(swapped, 2);
    assert_eq!(
        collection.get("r01").unwrap().at("hash"),
        Some(&Value::from("h02"))
    );
    assert_eq!(
        collection.get("r02").unwrap().at("hash"),
        Some(&Value::from("h01"))
    );
    assert_eq!(collection.index_state(), rebuild(&collection));
}

#[test]
fn a_rewrite_onto_an_untouched_documents_unique_key_is_refused() {
    let collection = Database::in_memory().collection("runs");
    declare_run_indexes(&collection);
    for slot in 0..3 {
        collection.insert(run_doc(slot)).unwrap();
    }
    let (docs, indexes) = (collection.all(), collection.index_state());
    // r02 is in the batch but its `hash` is not rewritten: its entry is
    // never retracted, and still blocks r01 from taking the key.
    let refused = collection.update_many(&Filter::gte("_id", "r01"), |doc| {
        if doc.at("_id") == Some(&Value::from("r01")) {
            doc.set_at("hash", Value::from("h02"));
        }
        doc.set_at("status", Value::from("running"));
    });
    assert!(matches!(
        refused,
        Err(simart_db::DbError::UniqueViolation { .. })
    ));
    // So does a bystander outside the batch.
    let refused = collection.update_many(&Filter::eq("_id", "r01"), |doc| {
        doc.set_at("hash", Value::from("h00"));
        doc.set_at("status", Value::from("running"));
    });
    assert!(matches!(
        refused,
        Err(simart_db::DbError::UniqueViolation { .. })
    ));
    assert_eq!(collection.all(), docs);
    assert_eq!(collection.index_state(), indexes);
    assert!(collection.verify_indexes().is_empty());
}

#[test]
fn a_sign_flip_of_zero_moves_the_ordered_key() {
    let collection = Database::in_memory().collection("runs");
    declare_run_indexes(&collection);
    let mut doc = run_doc(0);
    doc.set_at("results.simTicks", Value::from(0.0));
    collection.insert(doc).unwrap();
    collection
        .update_many(&Filter::All, |doc| {
            doc.set_at("results.simTicks", Value::from(-0.0));
            doc.set_at("status", Value::from("done"));
        })
        .unwrap();
    assert!(collection.verify_indexes().is_empty());
    assert_eq!(collection.index_state(), rebuild(&collection));
}
