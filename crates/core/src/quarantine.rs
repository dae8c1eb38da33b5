//! The dead-letter quarantine: persisted records of runs whose tasks
//! exhausted their redelivery budget.
//!
//! When a supervised scheduler (the broker) gives up on a task — every
//! lease expired and the redelivery cap ran out — the campaign loop
//! writes a [`DeadLetter`] into the `quarantine` collection alongside
//! the terminal `Quarantined` run status. Quarantined runs are never
//! auto-resumed; `simart quarantine` lists them and `--release` moves
//! one back to `Queued` for the next `--resume` to pick up.
//!
//! Document shape (`_id` is the run id):
//!
//! ```text
//! { "_id": "<run uuid>", "task": "campaign/abc123", "error": "...",
//!   "redeliveries": 2, "leaseEvents": ["delivery:1:lease-expired", ...],
//!   "attempts": 0, "released": false }
//! ```

use simart_artifact::Uuid;
use simart_db::{Database, DbError, Value};

/// The collection dead-letter documents are persisted into.
pub const QUARANTINE_COLLECTION: &str = "quarantine";

/// A quarantined run: the task's final report distilled into a durable
/// record of why the supervisor gave up on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// The run the task was executing.
    pub run_id: Uuid,
    /// The task's name (`experiment/run-hash`).
    pub task: String,
    /// The supervisor's final error message.
    pub error: String,
    /// How many times the task was redelivered before giving up.
    pub redeliveries: u32,
    /// Per-delivery lease history (`delivery:N:cause` entries).
    pub lease_events: Vec<String>,
    /// Executor attempts that actually reported back (0 when every
    /// delivery died holding its lease).
    pub attempts: u32,
    /// Whether the run has since been released back to the queue.
    pub released: bool,
}

impl DeadLetter {
    fn to_doc(&self) -> Value {
        Value::map([
            ("_id", Value::from(self.run_id.to_string())),
            ("task", Value::from(self.task.clone())),
            ("error", Value::from(self.error.clone())),
            ("redeliveries", Value::from(self.redeliveries)),
            (
                "leaseEvents",
                Value::array(self.lease_events.iter().map(|e| Value::from(e.clone()))),
            ),
            ("attempts", Value::from(self.attempts)),
            ("released", Value::from(self.released)),
        ])
    }

    fn from_doc(doc: &Value) -> Result<DeadLetter, String> {
        let id_str = doc
            .at("_id")
            .and_then(Value::as_str)
            .ok_or_else(|| "quarantine document has no _id".to_owned())?;
        let run_id = id_str
            .parse::<Uuid>()
            .map_err(|_| format!("quarantine document id `{id_str}` is not a uuid"))?;
        let str_field = |field: &str| -> Result<String, String> {
            doc.at(field)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("quarantine record `{id_str}` has no `{field}` field"))
        };
        let int_field = |field: &str| -> Result<u32, String> {
            doc.at(field)
                .and_then(Value::as_int)
                .map(|v| v as u32)
                .ok_or_else(|| {
                    format!("quarantine record `{id_str}` has no integer `{field}` field")
                })
        };
        let lease_events = doc
            .at("leaseEvents")
            .and_then(Value::as_array)
            .map(|items| {
                items
                    .iter()
                    .filter_map(Value::as_str)
                    .map(str::to_owned)
                    .collect()
            })
            .unwrap_or_default();
        Ok(DeadLetter {
            run_id,
            task: str_field("task")?,
            error: str_field("error")?,
            redeliveries: int_field("redeliveries")?,
            lease_events,
            attempts: int_field("attempts")?,
            released: doc.at("released").and_then(Value::as_bool).unwrap_or(false),
        })
    }
}

/// Writes (or replaces) a dead-letter record, keyed by run id.
///
/// # Errors
///
/// Propagates document persistence failures.
pub fn persist(db: &Database, letter: &DeadLetter) -> Result<(), DbError> {
    let collection = db.collection(QUARANTINE_COLLECTION);
    // Reports list the quarantine sorted by task; the ordered index
    // lets `load_all` read that order straight off the index.
    collection.ensure_index(simart_db::IndexSpec::ordered("task"))?;
    collection.upsert(letter.to_doc())?;
    Ok(())
}

/// Loads every dead-letter record, sorted by task name. Returns an
/// empty list when the collection is absent.
///
/// # Errors
///
/// Returns a one-line description when a record is malformed.
pub fn load_all(db: &Database) -> Result<Vec<DeadLetter>, String> {
    if !db.has_collection(QUARANTINE_COLLECTION) {
        return Ok(Vec::new());
    }
    // find_sorted orders by task with `_id` (the run id) breaking
    // ties — exactly the report order — and walks the ordered index
    // declared by `persist` instead of sorting a full scan.
    db.collection(QUARANTINE_COLLECTION)
        .find_sorted(
            &simart_db::Filter::All,
            "task",
            simart_db::SortOrder::Ascending,
        )
        .iter()
        .map(DeadLetter::from_doc)
        .collect::<Result<Vec<_>, _>>()
}

/// Marks a dead letter as released (its run is being re-queued).
/// Returns `false` when no record with that id exists.
///
/// # Errors
///
/// Propagates document persistence failures.
pub fn release(db: &Database, run_id: Uuid) -> Result<bool, DbError> {
    let collection = db.collection(QUARANTINE_COLLECTION);
    match collection.get(&run_id.to_string()) {
        Some(mut doc) => {
            doc.set_at("released", Value::from(true));
            collection.upsert(doc)?;
            Ok(true)
        }
        None => Ok(false),
    }
}

/// Renders the quarantine as a human-readable report.
pub fn render_text(letters: &[DeadLetter]) -> String {
    if letters.is_empty() {
        return "quarantine is empty\n".to_owned();
    }
    let mut out = String::new();
    out.push_str(&format!("{} quarantined run(s)\n", letters.len()));
    for letter in letters {
        out.push_str(&format!(
            "  {}  {}  redeliveries={}  attempts={}{}\n",
            letter.run_id,
            letter.task,
            letter.redeliveries,
            letter.attempts,
            if letter.released { "  [released]" } else { "" },
        ));
        out.push_str(&format!("    error: {}\n", letter.error));
        for event in &letter.lease_events {
            out.push_str(&format!("    lease: {event}\n"));
        }
    }
    out
}

/// Renders the quarantine as a JSON array (one object per record).
pub fn render_json(letters: &[DeadLetter]) -> String {
    let docs: Vec<Value> = letters.iter().map(DeadLetter::to_doc).collect();
    simart_codec::json::to_json(&Value::array(docs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(task: &str, released: bool) -> DeadLetter {
        DeadLetter {
            run_id: Uuid::new_v3("quarantine-test", task),
            task: task.to_owned(),
            error: "task quarantined: redelivery cap (1) exhausted".to_owned(),
            redeliveries: 1,
            lease_events: vec![
                "delivery:1:worker-died".to_owned(),
                "delivery:2:lease-expired".to_owned(),
            ],
            attempts: 0,
            released,
        }
    }

    #[test]
    fn dead_letters_round_trip() {
        let db = Database::in_memory();
        let letter = sample("exp/abc", false);
        persist(&db, &letter).unwrap();
        assert_eq!(load_all(&db).unwrap(), vec![letter]);
    }

    #[test]
    fn persist_is_an_upsert_by_run_id() {
        let db = Database::in_memory();
        let mut letter = sample("exp/abc", false);
        persist(&db, &letter).unwrap();
        letter.redeliveries = 3;
        persist(&db, &letter).unwrap();
        let loaded = load_all(&db).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].redeliveries, 3);
    }

    #[test]
    fn load_all_sorts_by_task() {
        let db = Database::in_memory();
        persist(&db, &sample("exp/zzz", false)).unwrap();
        persist(&db, &sample("exp/aaa", true)).unwrap();
        let tasks: Vec<_> = load_all(&db).unwrap().into_iter().map(|l| l.task).collect();
        assert_eq!(tasks, vec!["exp/aaa", "exp/zzz"]);
    }

    #[test]
    fn missing_collection_is_empty() {
        let db = Database::in_memory();
        assert!(load_all(&db).unwrap().is_empty());
    }

    #[test]
    fn release_flips_the_flag() {
        let db = Database::in_memory();
        let letter = sample("exp/abc", false);
        persist(&db, &letter).unwrap();
        assert!(release(&db, letter.run_id).unwrap());
        assert!(load_all(&db).unwrap()[0].released);
        // Unknown ids are reported, not invented.
        assert!(!release(&db, Uuid::new_v3("quarantine-test", "other")).unwrap());
    }

    #[test]
    fn malformed_documents_are_one_line_errors() {
        let db = Database::in_memory();
        db.collection(QUARANTINE_COLLECTION)
            .insert(Value::map([("_id", Value::from("not-a-uuid"))]))
            .unwrap();
        let err = load_all(&db).unwrap_err();
        assert!(err.contains("not a uuid"), "{err}");
        assert!(!err.contains('\n'), "one line: {err}");
    }

    #[test]
    fn text_rendering_lists_lease_history() {
        let text = render_text(&[sample("exp/abc", true)]);
        assert!(text.contains("exp/abc"));
        assert!(text.contains("[released]"));
        assert!(text.contains("lease: delivery:2:lease-expired"));
        assert_eq!(render_text(&[]), "quarantine is empty\n");
    }

    #[test]
    fn json_rendering_is_an_array() {
        let json = render_json(&[sample("exp/abc", false)]);
        assert!(json.trim_start().starts_with('['));
        assert!(json.contains("\"redeliveries\""));
    }
}
