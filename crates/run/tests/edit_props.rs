//! The run store's one write primitive, [`RunEdit`](simart_run::RunEdit):
//! a batched edit is the same calls made one at a time, a batch of
//! edits is the same edits committed one at a time, and the lifecycle
//! check cannot be raced.

use proptest::prelude::*;
use simart_artifact::Uuid;
use simart_artifact::{Artifact, ArtifactKind, ArtifactRegistry, ContentSource};
use simart_codec::json;
use simart_db::{Database, JournalOp};
use simart_run::{FsRun, RunEdit, RunError, RunStatus, RunStore};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;

const STATUSES: [RunStatus; 8] = [
    RunStatus::Created,
    RunStatus::Queued,
    RunStatus::Running,
    RunStatus::Retrying,
    RunStatus::Done,
    RunStatus::Failed,
    RunStatus::TimedOut,
    RunStatus::Quarantined,
];

const DISPOSITIONS: [&str; 3] = ["succeeded", "errored", "timed-out"];

fn sample_run() -> FsRun {
    run_with("edit")
}

/// A run whose one param is `param`: runs of distinct params are
/// distinct runs over the same artifacts.
fn run_with(param: &str) -> FsRun {
    let mut registry = ArtifactRegistry::new();
    let mut register = |name: &str, kind: ArtifactKind, content: ContentSource| {
        registry
            .register(
                Artifact::builder(name, kind)
                    .documentation(name)
                    .content(content),
            )
            .unwrap()
            .id()
    };
    let repo = register(
        "repo",
        ArtifactKind::GitRepo,
        ContentSource::git("https://x", "rev"),
    );
    let binary = register(
        "bin",
        ArtifactKind::Binary,
        ContentSource::bytes(b"elf".to_vec()),
    );
    let script = register(
        "script",
        ArtifactKind::RunScript,
        ContentSource::bytes(b"py".to_vec()),
    );
    let kernel = register(
        "kernel",
        ArtifactKind::Kernel,
        ContentSource::bytes(b"krn".to_vec()),
    );
    let disk = register(
        "disk",
        ArtifactKind::DiskImage,
        ContentSource::bytes(b"img".to_vec()),
    );
    FsRun::create(&registry)
        .simulator(binary, "sim")
        .simulator_repo(repo)
        .run_script(script, "run.py")
        .kernel(kernel, "vmlinux")
        .disk_image(disk, "disk.img")
        .param(param)
        .build()
        .unwrap()
}

/// A fresh in-memory store holding `run`.
fn store_with(run: &FsRun) -> (Database, RunStore) {
    let db = Database::in_memory();
    let store = RunStore::new(&db).unwrap();
    store.record(run).unwrap();
    (db, store)
}

fn document(db: &Database, run: &FsRun) -> String {
    json::to_json(
        &db.collection(RunStore::COLLECTION)
            .get(&run.id().to_string())
            .unwrap(),
    )
}

proptest! {
    /// Any sequence of events, results, attempts and legal or illegal
    /// (checked and unchecked) status writes leaves a byte-identical
    /// document, the same archived payloads, the same refused edges and
    /// the same attempt count and payload key whether it is committed as one edit or
    /// made one call at a time.
    #[test]
    fn a_batched_edit_is_the_calls_made_one_at_a_time(
        steps in proptest::collection::vec((0u8..5, any::<u8>()), 0..24),
    ) {
        let run = sample_run();
        let (batched_db, batched) = store_with(&run);
        let (stepwise_db, stepwise) = store_with(&run);
        let id = run.id();

        let mut edit = batched.edit(id);
        let mut refused = Vec::new();
        let mut attempts = 0;
        let mut archived = None;
        for &(kind, arg) in &steps {
            let status = STATUSES[usize::from(arg) % STATUSES.len()];
            let outcome = format!("outcome-{arg}");
            let payload = vec![arg; usize::from(arg % 5)];
            let disposition = DISPOSITIONS[usize::from(arg) % DISPOSITIONS.len()];
            let delay = Duration::from_millis(u64::from(arg));
            match kind {
                0 => {
                    let event = format!("event:{arg}");
                    stepwise.log_event(id, &event).unwrap();
                    edit = edit.event(event);
                }
                1 => {
                    archived = Some(
                        stepwise
                            .attach_results(id, u64::from(arg), &outcome, &payload)
                            .unwrap(),
                    );
                    edit = edit.results(u64::from(arg), &outcome, &payload);
                }
                2 => {
                    attempts = stepwise.record_attempt(id, disposition, delay).unwrap();
                    edit = edit.attempt(disposition, delay);
                }
                3 => {
                    match stepwise.transition(id, status) {
                        Ok(()) => {}
                        Err(RunError::IllegalTransition { from, to }) => refused.push((from, to)),
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                    edit = edit.transition(status);
                }
                _ => {
                    stepwise.set_status(id, status).unwrap();
                    edit = edit.set_status(status);
                }
            }
        }
        let committed = edit.commit().unwrap();

        prop_assert_eq!(document(&batched_db, &run), document(&stepwise_db, &run));
        prop_assert_eq!(committed.refused, refused);
        prop_assert_eq!(committed.attempts, attempts);
        prop_assert_eq!(committed.payload, archived);
        prop_assert_eq!(batched.load_results(id), stepwise.load_results(id));
        prop_assert_eq!(batched_db.blobs().len(), stepwise_db.blobs().len());
    }
}

/// Adds the part `(kind, arg)` names to `edit`: the same five calls,
/// with the same arguments, as the one-edit property above.
fn part<'a>(edit: RunEdit<'a>, (kind, arg): (u8, u8)) -> RunEdit<'a> {
    let status = STATUSES[usize::from(arg) % STATUSES.len()];
    match kind {
        0 => edit.event(format!("event:{arg}")),
        1 => edit.results(
            u64::from(arg),
            &format!("outcome-{arg}"),
            &vec![arg; usize::from(arg % 5)],
        ),
        2 => edit.attempt(
            DISPOSITIONS[usize::from(arg) % DISPOSITIONS.len()],
            Duration::from_millis(u64::from(arg)),
        ),
        3 => edit.transition(status),
        _ => edit.set_status(status),
    }
}

/// A fresh journaled store in its own directory, holding `runs`.
fn attached_store(tag: &str, runs: &[FsRun]) -> (PathBuf, Database, RunStore) {
    static STORES: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "simart-edit-batch-{tag}-{}-{}",
        std::process::id(),
        STORES.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).unwrap();
    let store = RunStore::new(&db).unwrap();
    for run in runs {
        store.record(run).unwrap();
    }
    (dir, db, store)
}

/// The `runs` records of `dir`'s journal, in append order.
fn run_records(dir: &Path) -> Vec<String> {
    simart_db::read_journal(dir)
        .unwrap()
        .ops
        .into_iter()
        .filter_map(|op| match op {
            JournalOp::Insert { collection, doc } | JournalOp::Upsert { collection, doc }
                if collection == RunStore::COLLECTION =>
            {
                Some(json::to_json(&doc))
            }
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Edits across several runs, some run edited more than once and
    /// some edit naming no run, committed as one batch leave the same
    /// documents, the same `runs` journal records in the same order,
    /// the same index state and the same outcomes as the same edits
    /// committed one by one.
    #[test]
    fn a_batch_of_edits_is_the_edits_made_one_at_a_time(
        edits in proptest::collection::vec(
            (0usize..4, proptest::collection::vec((0u8..5, any::<u8>()), 0..6)),
            0..10,
        ),
    ) {
        let runs: Vec<FsRun> = ["a", "b", "c"].into_iter().map(run_with).collect();
        // Index 3 names a run no store holds.
        let id = |at: usize| runs.get(at).map_or(Uuid::NIL, FsRun::id);
        let (batched_dir, batched_db, batched) = attached_store("batched", &runs);
        let (stepwise_dir, stepwise_db, stepwise) = attached_store("stepwise", &runs);

        let stepwise_outcomes: Vec<String> = edits
            .iter()
            .map(|(at, parts)| {
                let edit = parts.iter().fold(stepwise.edit(id(*at)), |edit, &p| part(edit, p));
                format!("{:?}", edit.commit())
            })
            .collect();
        let batch = edits
            .iter()
            .map(|(at, parts)| parts.iter().fold(batched.edit(id(*at)), |edit, &p| part(edit, p)))
            .collect();
        let batched_outcomes: Vec<String> = batched
            .commit_many(batch)
            .unwrap()
            .iter()
            .map(|outcome| format!("{outcome:?}"))
            .collect();

        prop_assert_eq!(batched_outcomes, stepwise_outcomes);
        for run in &runs {
            prop_assert_eq!(document(&batched_db, run), document(&stepwise_db, run));
        }
        prop_assert_eq!(run_records(&batched_dir), run_records(&stepwise_dir));
        let index_state = |db: &Database| json::to_json(&db.collection(RunStore::COLLECTION).index_state());
        prop_assert_eq!(index_state(&batched_db), index_state(&stepwise_db));
        prop_assert!(batched_db.collection(RunStore::COLLECTION).verify_indexes().is_empty());
        drop((batched, batched_db, stepwise, stepwise_db));
        let _ = std::fs::remove_dir_all(&batched_dir);
        let _ = std::fs::remove_dir_all(&stepwise_dir);
    }
}

/// `Running -> Done` and `Running -> Failed` are both legal, but only
/// until one of them is taken: however two threads race them, exactly
/// one call succeeds and the event log holds exactly one terminal
/// `status:` entry. (The lifecycle check used to read the status under
/// one lock acquisition and write under another, so both could pass.)
#[test]
fn racing_terminal_edges_take_exactly_one() {
    let run = sample_run();
    let (_db, store) = store_with(&run);
    let id = run.id();
    for round in 0..500 {
        // Re-arm the run for the next round (unchecked: `Done` is a sink).
        if round > 0 {
            store.set_status(id, RunStatus::Queued).unwrap();
        }
        store.transition(id, RunStatus::Running).unwrap();
        let logged_before = store.events(id).len();

        let start = Barrier::new(2);
        let race = |edge: RunStatus| {
            start.wait();
            store.transition(id, edge).is_ok()
        };
        let (done, failed) = std::thread::scope(|scope| {
            let done = scope.spawn(|| race(RunStatus::Done));
            let failed = scope.spawn(|| race(RunStatus::Failed));
            (done.join().unwrap(), failed.join().unwrap())
        });

        assert!(done != failed, "round {round}: done={done} failed={failed}");
        let winner = if done { "status:done" } else { "status:failed" };
        assert_eq!(
            store.events(id)[logged_before..],
            [winner.to_owned()],
            "round {round}"
        );
        assert_eq!(
            store.load(id).unwrap().status().to_string(),
            winner["status:".len()..]
        );
    }
}

/// A refused edge with nothing else in its edit changes nothing, so
/// nothing reaches the journal; with an event beside it, the event is
/// still written (one record).
#[test]
fn a_refused_edge_journals_nothing_of_its_own() {
    let dir = std::env::temp_dir().join(format!("simart-edit-refused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).unwrap();
    let store = RunStore::new(&db).unwrap();
    let run = sample_run();
    store.record(&run).unwrap();
    let journaled = || simart_db::read_journal(&dir).unwrap().ops.len();
    let before = journaled();

    assert!(matches!(
        store.transition(run.id(), RunStatus::Done),
        Err(RunError::IllegalTransition {
            from: RunStatus::Created,
            to: RunStatus::Done
        })
    ));
    assert_eq!(journaled(), before);

    let committed = store
        .edit(run.id())
        .event("remote-dispatch:2:g1")
        .transition(RunStatus::Done)
        .commit()
        .unwrap();
    assert_eq!(committed.refused, [(RunStatus::Created, RunStatus::Done)]);
    assert_eq!(journaled(), before + 1);
    assert_eq!(store.events(run.id()), ["remote-dispatch:2:g1"]);
    drop((store, db));
    let _ = std::fs::remove_dir_all(&dir);
}
