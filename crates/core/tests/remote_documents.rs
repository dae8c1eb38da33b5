//! What a remote launch leaves in the database.
//!
//! `remote_run_documents_are_pinned` hashes the checkpointed `runs`
//! snapshot, its index manifest and the blob names of a one-worker
//! pipe launch whose runs both save and restore boot checkpoints: the
//! final run documents are the contract, whichever thread journaled
//! them and in how many records.
//!
//! The other tests pin how the launching thread writes them: a run
//! delivered once reaches the journal three times — admitted, started
//! (the dispatch), and settled, its ack in the same record as the
//! archived result — plus one record per extra delivery.

use simart::artifact::{Artifact, ArtifactId, ArtifactKind, ContentSource};
use simart::db::{read_journal, Database, JournalOp, Value};
use simart::remote::CHECKPOINT_DIR_ENV;
use simart::run::{FsRun, RunStore};
use simart::tasks::{FaultInjector, RemoteConfig, RemoteScheduler, WorkerCommand};
use simart::{Experiment, LaunchOptions, LaunchSummary};
use simart_codec::fnv1a;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "simart-remote-documents-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn register_components(experiment: &Experiment) -> [ArtifactId; 5] {
    let mut ids = Vec::new();
    for (name, kind) in [
        ("sim-repo", ArtifactKind::GitRepo),
        ("sim", ArtifactKind::Binary),
        ("script", ArtifactKind::RunScript),
        ("vmlinux", ArtifactKind::Kernel),
        ("disk", ArtifactKind::DiskImage),
    ] {
        let builder = Artifact::builder(name, kind)
            .documentation(name)
            .content(ContentSource::bytes(name.as_bytes().to_vec()));
        ids.push(
            experiment
                .register_artifact(builder)
                .expect("register")
                .id(),
        );
    }
    [ids[1], ids[0], ids[2], ids[3], ids[4]]
}

fn make_run(experiment: &Experiment, ids: [ArtifactId; 5], params: &[&str]) -> FsRun {
    let [binary, repo, script, kernel, disk] = ids;
    experiment
        .create_fs_run(|b| {
            b.simulator(binary, "sim")
                .simulator_repo(repo)
                .run_script(script, "run.py")
                .kernel(kernel, "vmlinux")
                .disk_image(disk, "disk.img")
                .params(params.iter().copied())
        })
        .expect("build run")
}

/// Pipe workers: this crate's binary re-executed, restoring boot
/// checkpoints from (and saving them to) `checkpoints`.
fn worker_command(checkpoints: &Path) -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_simart"))
        .arg("worker")
        .env(CHECKPOINT_DIR_ENV, checkpoints.display().to_string())
}

fn pin(path: &Path) -> String {
    format!("{:016x}", fnv1a(&std::fs::read(path).expect("read")))
}

/// The sorted names of every blob file, one hash over all of them.
fn blob_names(dir: &Path) -> String {
    let mut names: Vec<String> = std::fs::read_dir(dir.join("blobs"))
        .expect("blobs")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    format!(
        "{} {:016x}",
        names.len(),
        fnv1a(names.join("\n").as_bytes())
    )
}

/// Six runs over two configurations, launched on one pipe worker into
/// a fresh database with a cold checkpoint store: the first run of
/// each configuration saves its boot checkpoint, the other two
/// restore it. One worker keeps every delivery on generation 1.
#[test]
fn remote_run_documents_are_pinned() {
    let dir = temp_dir("pinned");
    let checkpoints = temp_dir("pinned-ckpt");
    let experiment = Experiment::with_database("documents", Database::open(&dir).expect("open"))
        .expect("session");
    let ids = register_components(&experiment);
    let runs: Vec<FsRun> = ["a", "b", "c"]
        .iter()
        .flat_map(|copy| [["kvm", "1", copy], ["atomic", "2", copy]])
        .map(|params| make_run(&experiment, ids, &params))
        .collect();

    let remote = RemoteScheduler::new(worker_command(&checkpoints), 1).expect("spawn worker");
    let summary = experiment.launch_remote(runs, &remote, &LaunchOptions::default());
    assert!(remote.shutdown());
    assert_eq!(
        summary,
        LaunchSummary {
            done: 6,
            fresh: 6,
            ..LaunchSummary::default()
        }
    );
    experiment.database().checkpoint().expect("checkpoint");
    assert_eq!(
        [
            pin(&dir.join("runs.jsonl")),
            pin(&dir.join("indexes.json")),
            blob_names(&dir),
        ]
        .join(" "),
        "531c7334468f9db3 40d22211a9e7ed80 2 80e3bf579b99627b"
    );
    drop(experiment);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&checkpoints);
}

/// An event with what varies between runs of these tests cut off: the
/// worker generation of a delivery and the key of a checkpoint.
fn shape(event: &str) -> &str {
    if event.starts_with("remote-") {
        event.rsplit_once(":g").map_or(event, |(head, _)| head)
    } else if event.starts_with("checkpoint-") {
        event.split_once(':').map_or(event, |(head, _)| head)
    } else {
        event
    }
}

/// Per run id, the event shapes each journaled `runs` record added, in
/// journal order.
fn records(dir: &Path) -> BTreeMap<String, Vec<Vec<String>>> {
    let mut records: BTreeMap<String, Vec<Vec<String>>> = BTreeMap::new();
    for op in read_journal(dir).expect("journal").ops {
        let (JournalOp::Insert { collection, doc } | JournalOp::Upsert { collection, doc }) = op
        else {
            continue;
        };
        if collection != RunStore::COLLECTION {
            continue;
        }
        let id = doc.at("_id").and_then(Value::as_str).expect("_id");
        let events: Vec<&str> = doc
            .at("events")
            .and_then(Value::as_array)
            .expect("events")
            .iter()
            .map(|event| event.as_str().expect("event"))
            .collect();
        let run = records.entry(id.to_owned()).or_default();
        let before: usize = run.iter().map(Vec::len).sum();
        run.push(
            events[before..]
                .iter()
                .map(|e| shape(e).to_owned())
                .collect(),
        );
    }
    records
}

/// What one clean delivery adds, record by record, for a run whose
/// worker saved (or restored) its boot checkpoint.
fn clean_delivery(trail: &str) -> Vec<Vec<String>> {
    [
        &["status:queued"][..],
        &["remote-dispatch:1", "status:running"],
        &[
            "remote-ack:1",
            "checkpoint-key",
            trail,
            "attempt:1:succeeded",
            "status:done",
        ],
    ]
    .iter()
    .map(|record| record.iter().map(|&event| event.to_owned()).collect())
    .collect()
}

#[test]
fn a_run_delivered_once_is_journaled_three_times() {
    let dir = temp_dir("three");
    let checkpoints = temp_dir("three-ckpt");
    let experiment = Experiment::with_database("documents", Database::open(&dir).expect("open"))
        .expect("session");
    let ids = register_components(&experiment);
    let run = make_run(&experiment, ids, &["kvm", "1"]);

    let remote = RemoteScheduler::new(worker_command(&checkpoints), 1).expect("spawn worker");
    let summary = experiment.launch_remote(vec![run.clone()], &remote, &LaunchOptions::default());
    assert!(remote.shutdown());
    assert_eq!(summary.done, 1, "{summary:?}");
    assert_eq!(
        records(&dir)[&run.id().to_string()],
        clean_delivery("checkpoint-save")
    );
    drop(experiment);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&checkpoints);
}

/// Two workers and a cold checkpoint store: cold boots race restores,
/// so reports arrive out of submission order, and a one-job queue keeps
/// the launching thread submitting while they do — it settles them in
/// the order they came in. Each run still gets the remote golden event
/// log in three records, and the summary is the one a launch that
/// settled in submission order returned.
#[test]
fn reports_settled_out_of_submission_order_keep_each_run_golden() {
    let dir = temp_dir("order");
    let checkpoints = temp_dir("order-ckpt");
    let experiment = Experiment::with_database("documents", Database::open(&dir).expect("open"))
        .expect("session");
    let ids = register_components(&experiment);
    let mut runs = vec![make_run(&experiment, ids, &["o3", "4"])];
    for copy in ["a", "b", "c", "d", "e", "f", "g"] {
        runs.push(make_run(&experiment, ids, &["kvm", "1", copy]));
    }

    let config = RemoteConfig {
        queue_capacity: 1,
        ..RemoteConfig::default()
    };
    let remote = RemoteScheduler::with_config(worker_command(&checkpoints), 2, config)
        .expect("spawn workers");
    let summary = experiment.launch_remote(runs.clone(), &remote, &LaunchOptions::default());
    assert!(remote.shutdown());
    assert_eq!(
        summary,
        LaunchSummary {
            done: 8,
            fresh: 8,
            ..LaunchSummary::default()
        }
    );
    let records = records(&dir);
    assert_eq!(records.len(), runs.len(), "one record set per run");
    for run in &runs {
        let written = &records[&run.id().to_string()];
        // Two workers may both miss the cold store for one
        // configuration; each then saves.
        let trail = if written[2].contains(&"checkpoint-restore".to_owned()) {
            "checkpoint-restore"
        } else {
            "checkpoint-save"
        };
        assert_eq!(*written, clean_delivery(trail), "{:?}", run.params());
    }
    drop(experiment);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&checkpoints);
}

/// The first delivery is SIGKILLed as it is dispatched; the second one
/// succeeds. The extra delivery costs one dispatch record (its
/// `Running` edge is refused: the run is already running), and the ack
/// of the delivery that reported still opens the settle record.
#[test]
fn a_redelivered_run_acks_in_its_settle_record() {
    let dir = temp_dir("redelivered");
    let checkpoints = temp_dir("redelivered-ckpt");
    let experiment = Experiment::with_database("documents", Database::open(&dir).expect("open"))
        .expect("session");
    let ids = register_components(&experiment);
    let run = make_run(&experiment, ids, &["timing", "2"]);

    let mut config = RemoteConfig::default();
    config.supervisor.max_redeliveries = 1;
    config.fault = Some(Arc::new(
        FaultInjector::new(11)
            .worker_kills(1.0)
            .worker_kill_limit(1),
    ));
    let remote = RemoteScheduler::with_config(worker_command(&checkpoints), 1, config)
        .expect("spawn worker");
    let summary = experiment.launch_remote(vec![run.clone()], &remote, &LaunchOptions::default());
    assert!(remote.shutdown());
    assert_eq!(
        summary,
        LaunchSummary {
            done: 1,
            fresh: 1,
            retried: 1,
            ..LaunchSummary::default()
        }
    );
    let mut expected = clean_delivery("checkpoint-save");
    expected.insert(2, vec!["remote-dispatch:2".to_owned()]);
    expected[3][0] = "remote-ack:2".to_owned();
    assert_eq!(records(&dir)[&run.id().to_string()], expected);
    drop(experiment);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&checkpoints);
}
