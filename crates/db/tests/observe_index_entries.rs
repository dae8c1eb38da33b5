//! A run-record edit writes the index entries it changed, and no more:
//! inside a capture window `db.index_entries_written` (one count per
//! entry retracted or admitted) reads 0 for an event-only edit, 2 for a
//! status edge and 3 for a status edge that also attaches the first
//! `results.simTicks` — however many documents share the status and
//! the `inputs` keys. A full retract-and-admit of the `RunStore`
//! indexes would be 16–17 per edit (hash 1 + status 1 + `inputs` 6,
//! each retracted and admitted again).
//!
//! Exact counts on the process-global registry: the only test in its
//! binary, like `core/tests/observe_planned_index.rs`.

use simart_db::{Database, Filter, IndexSpec, Value};
use simart_observe as observe;

fn entries_written(edit: impl FnOnce()) -> u64 {
    observe::reset();
    observe::enable();
    edit();
    observe::disable();
    match observe::snapshot().metrics.get("db.index_entries_written") {
        Some(observe::MetricValue::Counter(n)) => *n,
        _ => 0,
    }
}

#[test]
fn an_edit_writes_only_the_index_entries_it_changed() {
    for co_keyed in [50usize, 5_000] {
        let runs = Database::in_memory().collection("runs");
        for spec in [
            IndexSpec::hash("hash").unique(),
            IndexSpec::hash("status"),
            IndexSpec::hash("inputs"),
            IndexSpec::ordered("results.simTicks"),
        ] {
            runs.ensure_index(spec).unwrap();
        }
        let inputs = ["gem5", "script", "kernel", "disk", "repo"].map(Value::from);
        for i in 0..co_keyed {
            runs.insert(Value::map([
                ("_id", Value::from(format!("run-{i:05}"))),
                ("hash", Value::from(format!("{i:032x}"))),
                ("status", Value::from("queued")),
                ("inputs", Value::array(inputs.clone())),
                ("events", Value::array([Value::from("status:queued")])),
            ]))
            .unwrap();
        }
        let one = Filter::eq("_id", "run-00007");
        let edit = |update: &dyn Fn(&mut Value)| {
            entries_written(|| assert_eq!(runs.update_many(&one, update).unwrap(), 1))
        };
        let event_only = edit(&|doc| {
            doc.set_at("events", Value::array([Value::from("dispatch:w1:g1")]));
        });
        let status_edge = edit(&|doc| {
            doc.set_at("status", Value::from("running"));
        });
        let status_and_ticks = edit(&|doc| {
            doc.set_at("status", Value::from("done"));
            doc.set_at("results.simTicks", Value::from(91_000_000i64));
        });
        assert_eq!(
            (event_only, status_edge, status_and_ticks),
            (0, 2, 3),
            "with {co_keyed} co-keyed documents"
        );
        assert!(runs.verify_indexes().is_empty());
    }
}
