//! One journaled write per run lifecycle step.
//!
//! A launched run's record reaches the journal at most four times:
//! admitted (one insert, already `queued`), started, archived, sealed
//! on the in-process pool; admitted, started (the dispatch), and acked,
//! archived and sealed in one write in a worker process
//! (`remote_documents.rs` pins that three). The event log those writes
//! leave is the one the field-at-a-time sequence (ten writes per remote
//! run) left before them. A stray extra rewrite per run fails here.

use simart::artifact::{Artifact, ArtifactId, ArtifactKind, ContentSource};
use simart::db::{read_journal, Database, JournalOp};
use simart::remote::{encode_run_payload, CAMPAIGN_KIND, CHECKPOINT_DIR_ENV};
use simart::run::{FsRun, RunStore};
use simart::tasks::{PoolScheduler, RemoteScheduler, RemoteTaskSpec, WorkerCommand};
use simart::{ExecOutcome, Experiment, LaunchOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simart-write-count-{tag}-{}", std::process::id()));
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

/// `runs` records (inserts and rewrites) per run id in `dir`'s journal.
fn run_records(dir: &Path) -> BTreeMap<String, usize> {
    let mut records = BTreeMap::new();
    for op in read_journal(dir).expect("journal").ops {
        let (JournalOp::Insert { collection, doc } | JournalOp::Upsert { collection, doc }) = op
        else {
            continue;
        };
        if collection == RunStore::COLLECTION {
            let id = doc.at("_id").and_then(|id| id.as_str()).expect("_id");
            *records.entry(id.to_owned()).or_default() += 1;
        }
    }
    records
}

/// An event with what varies between runs of this test cut off: the
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

fn assert_runs(experiment: &Experiment, dir: &Path, runs: &[(FsRun, &[&str])]) {
    let records = run_records(dir);
    assert_eq!(
        records.len(),
        runs.len(),
        "one journaled record set per run"
    );
    for (run, golden) in runs {
        let events = experiment.runs().events(run.id());
        let shapes: Vec<&str> = events.iter().map(|event| shape(event)).collect();
        assert_eq!(shapes, *golden, "events of {:?}", run.params());
        let written = records[&run.id().to_string()];
        assert!(
            written <= 4,
            "{written} `runs` records journaled for {:?}, at most 4 expected",
            run.params()
        );
    }
}

#[test]
fn a_pool_launched_run_is_journaled_four_times() {
    let dir = temp_dir("pool");
    let experiment =
        Experiment::with_database("writes", Database::open(&dir).expect("open")).expect("session");
    let ids = register_components(&experiment);
    let good = make_run(&experiment, ids, &["good"]);
    let bad = make_run(&experiment, ids, &["bad"]);
    let crash = make_run(&experiment, ids, &["crash"]);

    let pool = PoolScheduler::new(2);
    let summary = experiment.launch_with(
        vec![good.clone(), bad.clone(), crash.clone()],
        &pool,
        |run: &FsRun| {
            let app = run.params()[0].as_str();
            if app == "crash" {
                return Err("executor crashed".to_owned());
            }
            Ok(ExecOutcome {
                outcome: if app == "good" { "success" } else { "panic" }.to_owned(),
                sim_ticks: 7,
                payload: format!("stats of {app}").into_bytes(),
                success: app == "good",
                events: vec![format!("exec:first:{app}"), format!("exec:second:{app}")],
            })
        },
        &LaunchOptions::default(),
    );
    assert_eq!((summary.done, summary.failed), (1, 2), "{summary:?}");

    assert_runs(
        &experiment,
        &dir,
        &[
            (
                good,
                &[
                    "status:queued",
                    "status:running",
                    "exec:first:good",
                    "exec:second:good",
                    "attempt:1:succeeded",
                    "status:done",
                ],
            ),
            (
                bad,
                &[
                    "status:queued",
                    "status:running",
                    "exec:first:bad",
                    "exec:second:bad",
                    "attempt:1:errored",
                    "status:retrying",
                    "status:failed",
                ],
            ),
            (
                crash,
                &[
                    "status:queued",
                    "status:running",
                    "attempt:1:errored",
                    "status:retrying",
                    "status:failed",
                ],
            ),
        ],
    );
    drop(experiment);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_remote_launched_run_is_journaled_at_most_four_times() {
    let dir = temp_dir("remote");
    let checkpoints = temp_dir("remote-ckpt");
    let experiment =
        Experiment::with_database("writes", Database::open(&dir).expect("open")).expect("session");
    let ids = register_components(&experiment);
    let runs: Vec<FsRun> = [["kvm", "1"], ["atomic", "2"], ["timing", "1"]]
        .iter()
        .map(|params| make_run(&experiment, ids, params))
        .collect();

    // The pipe transport: this crate's binary re-executed as a worker.
    let command = WorkerCommand::new(env!("CARGO_BIN_EXE_simart"))
        .arg("worker")
        .env(CHECKPOINT_DIR_ENV, checkpoints.display().to_string());
    let remote = RemoteScheduler::new(command, 2).expect("spawn workers");
    let summary = experiment.launch_remote(runs.clone(), &remote, &LaunchOptions::default());
    assert!(remote.shutdown());
    assert_eq!(summary.done, 3, "{summary:?}");

    let golden: &[&str] = &[
        "status:queued",
        "remote-dispatch:1",
        "status:running",
        "remote-ack:1",
        "checkpoint-key",
        "checkpoint-save",
        "attempt:1:succeeded",
        "status:done",
    ];
    let expected: Vec<(FsRun, &[&str])> = runs.into_iter().map(|run| (run, golden)).collect();
    assert_runs(&experiment, &dir, &expected);
    drop(experiment);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&checkpoints);
}

/// A launch's delivery events reach it through its tasks' own sink,
/// which ends with the launch: once it has settled, a bare submit that
/// reuses one of its task names is none of that campaign's business
/// and must not write to its run record.
#[test]
fn a_settled_remote_launch_is_deaf_to_later_submits() {
    let dir = temp_dir("hook");
    let checkpoints = temp_dir("hook-ckpt");
    let experiment =
        Experiment::with_database("writes", Database::open(&dir).expect("open")).expect("session");
    let ids = register_components(&experiment);
    let run = make_run(&experiment, ids, &["kvm", "1"]);

    let command = WorkerCommand::new(env!("CARGO_BIN_EXE_simart"))
        .arg("worker")
        .env(CHECKPOINT_DIR_ENV, checkpoints.display().to_string());
    let remote = RemoteScheduler::new(command, 1).expect("spawn workers");
    let summary = experiment.launch_remote(vec![run.clone()], &remote, &LaunchOptions::default());
    assert_eq!(summary.done, 1, "{summary:?}");
    let settled = (run_records(&dir), experiment.runs().events(run.id()));

    let spec = RemoteTaskSpec::new(
        format!("writes/{}", run.run_hash()),
        CAMPAIGN_KIND,
        encode_run_payload(run.params()),
    );
    remote.submit(spec).expect("submit").wait();
    assert!(remote.shutdown());
    assert_eq!(
        (run_records(&dir), experiment.runs().events(run.id())),
        settled,
        "the settled run was written to again"
    );
    drop(experiment);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&checkpoints);
}
