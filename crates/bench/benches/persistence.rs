//! Persistence cost: whole-snapshot `save` versus journaled writes.
//!
//! Before the write-ahead journal, persisting a campaign after every
//! mutation meant rewriting every `.jsonl` file — O(database). With the
//! journal, each mutation appends one CRC-framed record — O(delta),
//! independent of database size. This bench measures both on the same
//! data so the asymptotic claim is a number, not an assertion.
//!
//! The query half makes the same kind of claim for secondary indexes:
//! an indexed point lookup resolves through a hash probe — O(log n) in
//! practice, flat for any campaign you can store — while a filter over
//! an unindexed path scans every document, O(n). Both are measured on the
//! same documents at 1k and 100k so the planner's benefit is a number
//! too. The bench also proves the planner took the index route by
//! reading the `db.query_planned_index` / `db.query_scans` counters
//! over a capture window.
//!
//! Run modes:
//!
//! - `cargo bench -p simart-bench --bench persistence` — print the
//!   timing tables.
//! - `... --bench persistence -- --test` — additionally assert the
//!   O(delta) and index-asymptotics properties (appends beat full
//!   saves and stay flat as the database grows; indexed lookups stay
//!   flat from 1k to 100k docs while unindexed scans grow ≥10x),
//!   exiting nonzero on regression.

use simart_db::{Database, Filter, IndexSpec, Value};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Best-of repetitions per measurement (first runs warm caches).
const REPEATS: usize = 9;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "simart-bench-persistence-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn doc(i: usize) -> Value {
    Value::map([
        ("_id", Value::from(format!("run-{i:06}"))),
        ("hash", Value::from(format!("{i:032x}"))),
        ("status", Value::from("done")),
        (
            "events",
            Value::from(vec![
                Value::from("status:queued"),
                Value::from("status:running"),
                Value::from("status:done"),
            ]),
        ),
        (
            "results",
            Value::map([
                ("sim_ticks", Value::from(91_000_000 + i as i64)),
                ("outcome", Value::from("success")),
            ]),
        ),
    ])
}

fn populate(db: &Database, docs: usize) {
    let runs = db.collection("runs");
    for i in 0..docs {
        runs.insert(doc(i)).expect("insert");
    }
}

/// Best-of-`REPEATS` timing of one full snapshot `save` for a database
/// holding `docs` documents.
fn measure_save(docs: usize) -> Duration {
    let db = Database::in_memory();
    populate(&db, docs);
    let dir = temp_dir(&format!("save-{docs}"));
    std::fs::create_dir_all(&dir).unwrap();
    let mut best = Duration::MAX;
    for _ in 0..REPEATS {
        let start = Instant::now();
        db.save(&dir).expect("save");
        best = best.min(start.elapsed());
    }
    std::fs::remove_dir_all(&dir).unwrap();
    best
}

/// Best-of-`REPEATS` timing of a single journaled insert against an
/// attached, freshly checkpointed database holding `docs` documents —
/// the per-mutation persistence cost after the refactor.
fn measure_journaled_insert(docs: usize) -> Duration {
    let dir = temp_dir(&format!("journal-{docs}"));
    let db = Database::open(&dir).expect("open");
    populate(&db, docs);
    db.checkpoint().expect("checkpoint");
    let runs = db.collection("runs");
    let mut best = Duration::MAX;
    for r in 0..REPEATS {
        let start = Instant::now();
        runs.insert(doc(1_000_000 + r)).expect("journaled insert");
        best = best.min(start.elapsed());
    }
    std::fs::remove_dir_all(&dir).unwrap();
    best
}

/// Sizes for the query-asymptotics half: the lookup/scan contrast
/// needs two decades of growth to be unambiguous.
const QUERY_SIZES: [usize; 2] = [1_000, 100_000];

/// In-memory database with a hash index on the (unique per document)
/// `hash` field, populated with `docs` documents. The index is
/// declared first, so the fill also exercises write-through
/// maintenance at scale.
fn indexed_db(docs: usize) -> Database {
    let db = Database::in_memory();
    let runs = db.collection("runs");
    runs.ensure_index(IndexSpec::hash("hash")).expect("index");
    populate(&db, docs);
    db
}

/// Best-of-`REPEATS` per-query cost of an indexed point lookup,
/// averaged over a rotating batch of keys so no single BTree path is
/// artificially hot.
fn measure_point_lookup(db: &Database, docs: usize) -> Duration {
    const BATCH: usize = 64;
    let runs = db.collection("runs");
    let mut best = Duration::MAX;
    for r in 0..REPEATS {
        let start = Instant::now();
        for k in 0..BATCH {
            let i = (r * BATCH + k * 97) % docs;
            let hits = runs.find(&Filter::eq("hash", format!("{i:032x}")));
            assert_eq!(hits.len(), 1, "point lookup finds its document");
        }
        best = best.min(start.elapsed() / BATCH as u32);
    }
    best
}

/// Best-of-`REPEATS` cost of a filter over an unindexed path — the
/// planner finds no probe and falls back to a full collection scan.
fn measure_scan(db: &Database, docs: usize) -> Duration {
    let runs = db.collection("runs");
    let mut best = Duration::MAX;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let n = runs.count(&Filter::eq("results.outcome", "success"));
        best = best.min(start.elapsed());
        assert_eq!(n, docs, "scan sees every document");
    }
    best
}

/// Runs a known mix of planned and scanned queries inside a capture
/// window and returns the (`db.query_planned_index`, `db.query_scans`)
/// counters.
fn planner_counters(db: &Database) -> (u64, u64) {
    use simart_observe as observe;
    let runs = db.collection("runs");
    observe::reset();
    observe::enable();
    for i in 0..40usize {
        let _ = runs.find(&Filter::eq("hash", format!("{i:032x}")));
    }
    for _ in 0..10 {
        let _ = runs.count(&Filter::eq("results.outcome", "success"));
    }
    observe::disable();
    let snapshot = observe::snapshot();
    let counter = |name: &str| match snapshot.metrics.get(name) {
        Some(observe::MetricValue::Counter(n)) => *n,
        _ => 0,
    };
    let counts = (counter("db.query_planned_index"), counter("db.query_scans"));
    observe::reset();
    counts
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");

    let sizes = [100usize, 1000];
    let mut saves = Vec::new();
    let mut appends = Vec::new();
    println!("persistence: full snapshot save vs journaled append (best of {REPEATS})");
    println!(
        "{:>8}  {:>14}  {:>18}  {:>7}",
        "docs", "save (full)", "append (journal)", "ratio"
    );
    for &docs in &sizes {
        let save = measure_save(docs);
        let append = measure_journaled_insert(docs);
        println!(
            "{docs:>8}  {:>12.1}us  {:>16.2}us  {:>6.0}x",
            save.as_secs_f64() * 1e6,
            append.as_secs_f64() * 1e6,
            save.as_secs_f64() / append.as_secs_f64().max(1e-9),
        );
        saves.push(save);
        appends.push(append);
    }

    println!("\nquery: indexed point lookup vs unindexed scan (best of {REPEATS})");
    println!(
        "{:>8}  {:>16}  {:>14}  {:>7}",
        "docs", "indexed lookup", "scan", "ratio"
    );
    let mut lookups = Vec::new();
    let mut scans = Vec::new();
    for &docs in &QUERY_SIZES {
        let db = indexed_db(docs);
        let lookup = measure_point_lookup(&db, docs);
        let scan = measure_scan(&db, docs);
        println!(
            "{docs:>8}  {:>14.2}us  {:>12.1}us  {:>6.0}x",
            lookup.as_secs_f64() * 1e6,
            scan.as_secs_f64() * 1e6,
            scan.as_secs_f64() / lookup.as_secs_f64().max(1e-9),
        );
        lookups.push(lookup);
        scans.push(scan);
    }

    let (planned, scanned) = planner_counters(&indexed_db(QUERY_SIZES[0]));
    println!(
        "\nplanner counters over a 40 lookup / 10 scan mix: \
         db.query_planned_index={planned} db.query_scans={scanned}"
    );

    if test_mode {
        // O(delta) claim, with generous margins against CI noise:
        // 1. persisting one mutation is much cheaper than rewriting the
        //    snapshot of a 1000-doc database;
        assert!(
            appends[1] * 5 < saves[1],
            "journaled append ({:?}) should be far cheaper than a full save ({:?})",
            appends[1],
            saves[1],
        );
        // 2. append cost does not scale with database size (allow a
        //    wide band — both numbers are single-digit microseconds).
        assert!(
            appends[1] < appends[0] * 20 + Duration::from_micros(200),
            "append cost must stay flat as the database grows: {:?} at 100 docs, {:?} at 1000",
            appends[0],
            appends[1],
        );
        // 3. full saves *do* scale with size — the contrast that makes
        //    the journal worth having.
        assert!(
            saves[1] > saves[0],
            "full save should grow with database size: {:?} at 100 docs, {:?} at 1000",
            saves[0],
            saves[1],
        );
        // 4. Indexed point lookups stay flat across two decades of
        //    growth: within 2x from 1k to 100k documents (plus a small
        //    absolute allowance for timer noise — both numbers are
        //    single-digit microseconds, while an O(n) lookup at 100k
        //    would be milliseconds).
        assert!(
            lookups[1] < lookups[0] * 2 + Duration::from_micros(20),
            "indexed point lookup must stay flat: {:?} at {} docs, {:?} at {}",
            lookups[0],
            QUERY_SIZES[0],
            lookups[1],
            QUERY_SIZES[1],
        );
        // 5. Unindexed scans do scale with size — the contrast that
        //    makes the planner worth having. (100x the documents must
        //    cost at least 10x the time; the slack absorbs cache
        //    effects and CI noise.)
        assert!(
            scans[1] >= scans[0] * 10,
            "unindexed scan should grow with database size: {:?} at {} docs, {:?} at {}",
            scans[0],
            QUERY_SIZES[0],
            scans[1],
            QUERY_SIZES[1],
        );
        // 6. The planner counters prove the lookups actually took the
        //    index route and the unindexed filter actually scanned.
        assert!(
            planned >= 40,
            "point lookups must be planned through the index: planned={planned}"
        );
        assert!(
            scanned >= 10,
            "unindexed filters must be counted as scans: scans={scanned}"
        );
        println!("persistence bench assertions passed");
    }
}
