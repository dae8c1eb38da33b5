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
        let range = Filter::lt("n", 50i64);
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
