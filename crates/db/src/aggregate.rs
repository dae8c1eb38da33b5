//! Aggregation over query results: the analysis layer the paper feeds
//! into Jupyter/matplotlib, reproduced as group-by statistics.
//!
//! Aggregations read from a [`Snapshot`] rather than a live
//! [`Collection`](crate::Collection): take the snapshot once with
//! [`Collection::snapshot`](crate::Collection::snapshot) and every
//! stage sees the same isolated state, without re-locking the
//! collection per stage and without tearing across concurrent writers.

use crate::collection::Snapshot;
use crate::query::Filter;
use crate::Value;
use std::collections::BTreeMap;

/// A numeric reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// Number of documents carrying the value.
    Count,
    /// Sum of the values.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Smallest value.
    Min,
    /// Largest value.
    Max,
}

impl Reduce {
    fn apply(self, values: &[f64]) -> Option<f64> {
        if values.is_empty() {
            return if self == Reduce::Count {
                Some(0.0)
            } else {
                None
            };
        }
        Some(match self {
            Reduce::Count => values.len() as f64,
            Reduce::Sum => values.iter().sum(),
            Reduce::Mean => values.iter().sum::<f64>() / values.len() as f64,
            Reduce::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            Reduce::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }
}

/// Groups matching documents by the (stringified) value at
/// `group_path` and reduces the numbers found at `value_path`.
///
/// Documents lacking either path are skipped, as are non-numeric
/// values at `value_path`. Groups come back sorted by key.
pub fn group_reduce(
    snapshot: &Snapshot,
    filter: &Filter,
    group_path: &str,
    value_path: &str,
    reduce: Reduce,
) -> BTreeMap<String, f64> {
    let mut buckets: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for doc in snapshot.find(filter) {
        let Some(key) = doc.at(group_path) else {
            continue;
        };
        let key = match key {
            Value::Str(s) => s.clone(),
            other => crate::json::to_json(other),
        };
        if let Some(value) = doc.at(value_path).and_then(Value::as_float) {
            buckets.entry(key).or_default().push(value);
        }
    }
    buckets
        .into_iter()
        .filter_map(|(key, values)| reduce.apply(&values).map(|v| (key, v)))
        .collect()
}

/// Reduces the numbers at `value_path` across all matching documents.
pub fn reduce(
    snapshot: &Snapshot,
    filter: &Filter,
    value_path: &str,
    reduce: Reduce,
) -> Option<f64> {
    let values: Vec<f64> = snapshot
        .find(filter)
        .iter()
        .filter_map(|doc| doc.at(value_path).and_then(Value::as_float))
        .collect();
    reduce.apply(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Collection;
    use crate::database::Database;

    fn populated() -> Collection {
        let collection = Database::in_memory().collection("agg");
        let rows = [
            ("r1", "dedup", 1, 100.0),
            ("r2", "dedup", 2, 60.0),
            ("r3", "dedup", 8, 20.0),
            ("r4", "vips", 1, 80.0),
            ("r5", "vips", 2, 45.0),
            ("r6", "vips", 8, 15.0),
        ];
        for (id, app, cores, time) in rows {
            collection
                .insert(Value::map([
                    ("_id", Value::from(id)),
                    ("app", Value::from(app)),
                    ("cores", Value::from(cores as i64)),
                    ("time", Value::from(time)),
                ]))
                .unwrap();
        }
        collection
    }

    #[test]
    fn group_means_per_app() {
        let c = populated().snapshot();
        let means = group_reduce(&c, &Filter::All, "app", "time", Reduce::Mean);
        assert_eq!(means.len(), 2);
        assert!((means["dedup"] - 60.0).abs() < 1e-9);
        assert!((means["vips"] - 140.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn group_by_numeric_key_stringifies() {
        let c = populated().snapshot();
        let sums = group_reduce(&c, &Filter::All, "cores", "time", Reduce::Sum);
        assert_eq!(sums["1"], 180.0);
        assert_eq!(sums["8"], 35.0);
    }

    #[test]
    fn filters_apply_before_grouping() {
        let c = populated().snapshot();
        let maxima = group_reduce(
            &c,
            &Filter::eq("app", "dedup"),
            "cores",
            "time",
            Reduce::Max,
        );
        assert_eq!(maxima.len(), 3);
        assert_eq!(maxima["1"], 100.0);
    }

    #[test]
    fn whole_collection_reductions() {
        let c = populated().snapshot();
        assert_eq!(reduce(&c, &Filter::All, "time", Reduce::Count), Some(6.0));
        assert_eq!(reduce(&c, &Filter::All, "time", Reduce::Min), Some(15.0));
        assert_eq!(reduce(&c, &Filter::All, "time", Reduce::Max), Some(100.0));
        assert_eq!(
            reduce(&c, &Filter::eq("app", "nope"), "time", Reduce::Mean),
            None
        );
        assert_eq!(
            reduce(&c, &Filter::eq("app", "nope"), "time", Reduce::Count),
            Some(0.0)
        );
    }

    #[test]
    fn missing_and_non_numeric_values_are_skipped() {
        let c = populated();
        c.insert(Value::map([
            ("_id", Value::from("weird")),
            ("app", Value::from("dedup")),
            ("time", Value::from("not a number")),
        ]))
        .unwrap();
        c.insert(Value::map([("_id", Value::from("empty"))]))
            .unwrap();
        let snap = c.snapshot();
        let means = group_reduce(&snap, &Filter::All, "app", "time", Reduce::Mean);
        assert!((means["dedup"] - 60.0).abs() < 1e-9, "bad rows ignored");
    }
}
