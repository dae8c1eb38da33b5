//! Property-based tests for the document model, JSON codec,
//! collections, and blob store.

use proptest::prelude::*;
use simart_codec::json;
use simart_db::{BlobStore, Database, Value};

/// Strategy for arbitrary document values (bounded depth).
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: JSON cannot carry NaN/Inf.
        (-1e15f64..1e15).prop_map(Value::Float),
        "[a-zA-Z0-9 _\\-\\.\u{e9}\u{4e16}]{0,12}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            proptest::collection::btree_map("[a-z]{1,6}", inner, 0..6).prop_map(Value::Map),
        ]
    })
}

proptest! {
    /// Every document value round-trips through the JSON codec.
    #[test]
    fn json_round_trip(value in value_strategy()) {
        let text = json::to_json(&value);
        let back = json::from_json(&text).expect("own output parses");
        prop_assert_eq!(back, value);
    }

    /// compare() is a total order: antisymmetric and transitive over
    /// sampled triples.
    #[test]
    fn value_ordering_is_consistent(a in value_strategy(),
                                    b in value_strategy(),
                                    c in value_strategy()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.compare(&b), b.compare(&a).reverse());
        if a.compare(&b) != Ordering::Greater && b.compare(&c) != Ordering::Greater {
            prop_assert_ne!(a.compare(&c), Ordering::Greater);
        }
    }

    /// Collection length equals inserts minus deletes; get() agrees
    /// with membership.
    #[test]
    fn collection_bookkeeping(ops in proptest::collection::vec((0u8..2, 0u32..16), 0..64)) {
        let collection = Database::in_memory().collection("props");
        let mut model: std::collections::BTreeSet<u32> = Default::default();
        for (op, key) in ops {
            let id = format!("doc-{key}");
            if op == 0 {
                let doc = Value::map([("_id", Value::from(id.as_str()))]);
                match collection.insert(doc) {
                    Ok(()) => prop_assert!(model.insert(key), "insert succeeded only if absent"),
                    Err(_) => prop_assert!(model.contains(&key), "duplicate rejected"),
                }
            } else {
                let removed = collection.delete(&id).is_some();
                prop_assert_eq!(removed, model.remove(&key));
            }
        }
        prop_assert_eq!(collection.len(), model.len());
        for key in model {
            let id = format!("doc-{key}");
            prop_assert!(collection.get(&id).is_some());
        }
    }

    /// Blob store: content-addressed round trip and dedup.
    #[test]
    fn blobstore_round_trip(blobs in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..128), 0..16)) {
        let store = BlobStore::new();
        let distinct: std::collections::BTreeSet<Vec<u8>> = blobs.iter().cloned().collect();
        for blob in &blobs {
            let key = store.put(blob.clone());
            let fetched = store.get(key).unwrap();
            prop_assert_eq!(fetched.as_ref(), blob.as_slice());
        }
        prop_assert_eq!(store.len(), distinct.len(), "identical content stored once");
    }

    /// Database save/load round-trips arbitrary documents.
    #[test]
    fn database_persistence_round_trip(docs in proptest::collection::vec(value_strategy(), 0..8)) {
        let db = Database::in_memory();
        let collection = db.collection("props");
        let mut stored = 0;
        for (i, body) in docs.into_iter().enumerate() {
            let mut doc = Value::map([("_id", Value::from(format!("d{i}")))]);
            doc.set_at("body", body);
            collection.insert(doc).unwrap();
            stored += 1;
        }
        let dir = std::env::temp_dir().join(format!(
            "simart-db-props-{}-{stored}-{}",
            std::process::id(),
            rand_suffix()
        ));
        db.save(&dir).unwrap();
        let restored = Database::load(&dir).unwrap();
        prop_assert_eq!(restored.collection("props").len(), stored);
        for doc in collection.all() {
            let id = doc.at("_id").and_then(Value::as_str).unwrap();
            prop_assert_eq!(restored.collection("props").get(id).unwrap(), doc);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

fn rand_suffix() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    COUNTER.fetch_add(1, Ordering::SeqCst)
}
