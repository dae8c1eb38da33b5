//! Persisting and reloading observability metric snapshots.
//!
//! `simart campaign` snapshots the live [`simart_observe`] registry
//! into a `metrics` collection — one document per metric — before it
//! checkpoints its database, and `simart metrics` reconstructs a
//! [`Snapshot`] from those documents to render it. The persisted form
//! is plain database documents, so *reading* recorded metrics never
//! opens a capture window.
//!
//! Document shapes (`_id` is the metric name):
//!
//! ```text
//! { "_id": "sim.boots",          "kind": "counter",   "value": 6 }
//! { "_id": "pool.depth",         "kind": "gauge",     "value": 2 }
//! { "_id": "db.journal_append_us", "kind": "histogram",
//!   "count": 6, "sum_us": 5400, "buckets": [0, 0, ...] }
//! ```

use simart_db::{Database, DbError, Value};
use simart_observe::{bucket_bounds_us, HistogramSnapshot, MetricValue, Snapshot};

/// The collection `simart campaign` writes metric documents into.
pub const METRICS_COLLECTION: &str = "metrics";

/// Replaces the database's `metrics` collection with the snapshot's
/// contents (one document per metric). An empty snapshot (nothing
/// was recorded: no capture window was open) leaves the database
/// untouched, so re-saving a campaign from a process that recorded
/// nothing does not erase previously recorded metrics.
///
/// # Errors
///
/// Propagates document insertion failures.
pub fn persist_snapshot(db: &Database, snapshot: &Snapshot) -> Result<(), DbError> {
    if snapshot.metrics.is_empty() {
        return Ok(());
    }
    db.drop_collection(METRICS_COLLECTION);
    let collection = db.collection(METRICS_COLLECTION);
    for (name, value) in &snapshot.metrics {
        let doc = match value {
            MetricValue::Counter(v) => Value::map([
                ("_id", Value::from(name.clone())),
                ("kind", Value::from("counter")),
                ("value", Value::from(*v)),
            ]),
            MetricValue::Gauge(v) => Value::map([
                ("_id", Value::from(name.clone())),
                ("kind", Value::from("gauge")),
                ("value", Value::from(*v)),
            ]),
            MetricValue::Histogram(h) => Value::map([
                ("_id", Value::from(name.clone())),
                ("kind", Value::from("histogram")),
                ("count", Value::from(h.count)),
                ("sum_us", Value::from(h.sum_us)),
                ("buckets", Value::from(h.buckets.clone())),
            ]),
        };
        collection.insert(doc)?;
    }
    Ok(())
}

/// Reconstructs a [`Snapshot`] from the database's `metrics`
/// collection. Returns an empty snapshot when the collection is absent
/// (the campaign was run without observability).
///
/// # Errors
///
/// Returns a one-line description when a metric document is malformed
/// (wrong kind tag, missing fields, or a histogram whose bucket count
/// does not match the fixed bucket layout).
pub fn load_snapshot(db: &Database) -> Result<Snapshot, String> {
    let mut snapshot = Snapshot::default();
    if !db.has_collection(METRICS_COLLECTION) {
        return Ok(snapshot);
    }
    let expected_buckets = bucket_bounds_us().len() + 1;
    for doc in db.collection(METRICS_COLLECTION).all() {
        let name = doc
            .at("_id")
            .and_then(Value::as_str)
            .ok_or_else(|| "metric document has no _id".to_owned())?
            .to_owned();
        let kind = doc.at("kind").and_then(Value::as_str).unwrap_or("");
        let int_field = |field: &str| -> Result<u64, String> {
            doc.at(field)
                .and_then(Value::as_int)
                .map(|v| v as u64)
                .ok_or_else(|| format!("metric `{name}` has no integer `{field}` field"))
        };
        let value = match kind {
            "counter" => MetricValue::Counter(int_field("value")?),
            "gauge" => MetricValue::Gauge(int_field("value")? as i64),
            "histogram" => {
                let buckets: Vec<u64> = doc
                    .at("buckets")
                    .and_then(Value::as_array)
                    .map(|items| {
                        items
                            .iter()
                            .filter_map(Value::as_int)
                            .map(|v| v as u64)
                            .collect()
                    })
                    .ok_or_else(|| format!("metric `{name}` has no `buckets` array"))?;
                if buckets.len() != expected_buckets {
                    return Err(format!(
                        "metric `{name}` has {} buckets, expected {expected_buckets} \
                         (recorded by an incompatible simart version?)",
                        buckets.len()
                    ));
                }
                MetricValue::Histogram(HistogramSnapshot {
                    count: int_field("count")?,
                    sum_us: int_field("sum_us")?,
                    buckets,
                })
            }
            other => return Err(format!("metric `{name}` has unknown kind `{other}`")),
        };
        snapshot.metrics.insert(name, value);
    }
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let mut snapshot = Snapshot::default();
        snapshot
            .metrics
            .insert("sim.boots".to_owned(), MetricValue::Counter(6));
        snapshot
            .metrics
            .insert("pool.depth".to_owned(), MetricValue::Gauge(-2));
        let mut h = HistogramSnapshot::empty();
        h.count = 3;
        h.sum_us = 3_000;
        h.buckets[12] = 3;
        snapshot
            .metrics
            .insert("db.save_us".to_owned(), MetricValue::Histogram(h));
        snapshot
    }

    #[test]
    fn snapshot_round_trips_through_database() {
        let db = Database::in_memory();
        let snapshot = sample_snapshot();
        persist_snapshot(&db, &snapshot).unwrap();
        assert_eq!(load_snapshot(&db).unwrap(), snapshot);
    }

    #[test]
    fn missing_collection_loads_empty() {
        let db = Database::in_memory();
        assert!(load_snapshot(&db).unwrap().metrics.is_empty());
    }

    #[test]
    fn empty_snapshot_preserves_existing_metrics() {
        let db = Database::in_memory();
        persist_snapshot(&db, &sample_snapshot()).unwrap();
        persist_snapshot(&db, &Snapshot::default()).unwrap();
        assert_eq!(load_snapshot(&db).unwrap(), sample_snapshot());
    }

    #[test]
    fn repersisting_replaces_the_collection() {
        let db = Database::in_memory();
        persist_snapshot(&db, &sample_snapshot()).unwrap();
        let mut smaller = Snapshot::default();
        smaller
            .metrics
            .insert("only.one".to_owned(), MetricValue::Counter(1));
        persist_snapshot(&db, &smaller).unwrap();
        assert_eq!(load_snapshot(&db).unwrap(), smaller);
    }

    #[test]
    fn malformed_documents_are_one_line_errors() {
        let db = Database::in_memory();
        db.collection(METRICS_COLLECTION)
            .insert(Value::map([
                ("_id", Value::from("bad")),
                ("kind", Value::from("sparkline")),
            ]))
            .unwrap();
        let err = load_snapshot(&db).unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");
        assert!(!err.contains('\n'), "one line: {err}");
    }

    #[test]
    fn wrong_bucket_count_is_rejected() {
        let db = Database::in_memory();
        db.collection(METRICS_COLLECTION)
            .insert(Value::map([
                ("_id", Value::from("h")),
                ("kind", Value::from("histogram")),
                ("count", Value::from(1u64)),
                ("sum_us", Value::from(5u64)),
                ("buckets", Value::from(vec![1u64, 0])),
            ]))
            .unwrap();
        let err = load_snapshot(&db).unwrap_err();
        assert!(err.contains("expected"), "{err}");
    }
}
