//! Hard-crash test for index durability: `SIGKILL` a process that is
//! journaling indexed writes, then prove the replayed database rebuilds
//! every index consistent with the recovered documents.
//!
//! Index entries are never load-bearing on disk — only the declaration
//! travels through the journal (`idx` record) and manifest; the entries
//! themselves are always rebuilt from whatever documents survive. So a
//! kill at *any* byte of the journal must leave: (a) a clean lenient
//! load, (b) `verify_indexes` silent, (c) an index state byte-identical
//! to a scratch rebuild over the recovered prefix, and (d) the unique
//! constraint still enforced.
//!
//! The test re-executes its own binary (libtest `--exact` on the
//! env-gated writer below) so the kill hits a real separate process
//! mid-append, not a simulated truncation.

use simart_codec::json;
use simart_db::{Database, Filter, IndexSpec, Value, JOURNAL_FILE};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const ENV_DIR: &str = "SIMART_INDEX_CRASH_DIR";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simart-index-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Child process body: open the directory attached, declare the index
/// suite, and append indexed documents until the parent kills us. Runs
/// only when re-executed with `SIMART_INDEX_CRASH_DIR` set; as a normal
/// test it is a no-op.
#[test]
fn crash_writer_child() {
    let Ok(dir) = std::env::var(ENV_DIR) else {
        return;
    };
    let db = Database::open(PathBuf::from(dir)).expect("child opens db");
    let runs = db.collection("runs");
    runs.ensure_unique("hash").expect("unique index");
    runs.ensure_index(IndexSpec::hash("status"))
        .expect("hash index");
    runs.ensure_index(IndexSpec::hash("inputs"))
        .expect("multikey index");
    runs.ensure_index(IndexSpec::ordered("ticks"))
        .expect("ordered index");
    for i in 0u64.. {
        runs.insert(Value::map([
            ("_id", Value::from(format!("run-{i}"))),
            ("hash", Value::from(format!("h{i}"))),
            (
                "status",
                Value::from(if i % 3 == 0 { "done" } else { "running" }),
            ),
            (
                "inputs",
                Value::array([
                    Value::from(format!("art-{}", i % 5)),
                    Value::from(format!("art-{}", i % 7)),
                ]),
            ),
            ("ticks", Value::from((i * 31 % 1000) as i64)),
        ]))
        .expect("child insert");
        if i % 16 == 0 {
            runs.delete(&format!("run-{}", i / 2));
        }
    }
}

#[test]
fn sigkill_mid_write_replays_to_consistent_indexes() {
    let dir = temp_dir("kill");
    std::fs::create_dir_all(&dir).expect("create dir");

    let mut child = Command::new(std::env::current_exe().expect("own binary"))
        .args(["--exact", "crash_writer_child", "--nocapture"])
        .env(ENV_DIR, &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("child spawns");

    // Let the writer commit a healthy stream of records, then kill it
    // cold mid-append. The invariants below hold wherever the kill
    // lands, including inside a torn frame.
    let journal = dir.join(JOURNAL_FILE);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
        if bytes > 8_192 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "child never produced a journal ({bytes} bytes)"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    // (a) The lenient load replays the valid prefix without error.
    let db = Database::load(&dir).expect("journal replays after SIGKILL");
    let runs = db.collection("runs");
    assert!(!runs.is_empty(), "some committed records survived");
    assert_eq!(runs.index_specs().len(), 4, "declarations replayed");

    // (b) The rebuilt indexes agree with the recovered documents.
    assert!(
        runs.verify_indexes().is_empty(),
        "{:?}",
        runs.verify_indexes()
    );

    // (c) Byte-identical to a scratch rebuild over the same documents.
    let fresh = Database::in_memory().collection("runs");
    for spec in runs.index_specs() {
        fresh.ensure_index(spec).expect("redeclare");
    }
    for doc in runs.all() {
        fresh.insert(doc).expect("reinsert");
    }
    assert_eq!(
        json::to_json(&runs.index_state()),
        json::to_json(&fresh.index_state())
    );

    // (d) The unique constraint came back with the declaration.
    let existing = runs.all().into_iter().next().expect("one survivor");
    let hash = existing
        .at("hash")
        .and_then(Value::as_str)
        .expect("hash field");
    let dup = runs.insert(Value::map([
        ("_id", Value::from("dup-after-crash")),
        ("hash", Value::from(hash)),
    ]));
    assert!(dup.is_err(), "unique index survives the crash");

    // And indexed queries agree with a brute-force scan.
    for status in ["done", "running"] {
        let filter = Filter::eq("status", status);
        let by_scan = runs.all().iter().filter(|d| filter.matches(d)).count();
        assert_eq!(runs.count(&filter), by_scan, "status {status}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
