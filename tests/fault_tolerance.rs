//! Fault tolerance end to end: a campaign runs under a deterministic
//! fault injector, the session "dies" with runs stranded mid-flight
//! (plus a torn save on disk), and a second session resumes from the
//! persisted database alone — finishing every run while keeping the
//! provenance log coherent: one record per run, the terminal status
//! written exactly once per completed launch, and `Done` work never
//! silently redone.

use simart::artifact::{Artifact, ArtifactId, ArtifactKind, ContentSource};
use simart::db::Database;
use simart::run::{FsRun, RunStatus};
use simart::tasks::{FaultInjector, PoolScheduler, RetryPolicy};
use simart::{ExecOutcome, Experiment, LaunchOptions};
use std::sync::Arc;
use std::time::Duration;

const TERMINAL_EVENTS: [&str; 3] = ["status:done", "status:failed", "status:timed-out"];

fn register_components(experiment: &Experiment) -> [ArtifactId; 5] {
    let repo = experiment
        .register_artifact(
            Artifact::builder("sim-repo", ArtifactKind::GitRepo)
                .documentation("src")
                .content(ContentSource::git("https://example.org/sim", "rev1")),
        )
        .unwrap();
    let binary = experiment
        .register_artifact(
            Artifact::builder("sim", ArtifactKind::Binary)
                .documentation("bin")
                .content(ContentSource::bytes(b"elf".to_vec()))
                .input(repo.id()),
        )
        .unwrap();
    let script = experiment
        .register_artifact(
            Artifact::builder("script", ArtifactKind::RunScript)
                .documentation("cfg")
                .content(ContentSource::bytes(b"py".to_vec())),
        )
        .unwrap();
    let kernel = experiment
        .register_artifact(
            Artifact::builder("vmlinux", ArtifactKind::Kernel)
                .documentation("kernel")
                .content(ContentSource::bytes(b"krn".to_vec())),
        )
        .unwrap();
    let disk = experiment
        .register_artifact(
            Artifact::builder("disk", ArtifactKind::DiskImage)
                .documentation("img")
                .content(ContentSource::bytes(b"img".to_vec())),
        )
        .unwrap();
    [binary.id(), repo.id(), script.id(), kernel.id(), disk.id()]
}

fn make_run(experiment: &Experiment, ids: [ArtifactId; 5], app: &str) -> FsRun {
    let [binary, repo, script, kernel, disk] = ids;
    experiment
        .create_fs_run(|b| {
            b.simulator(binary, "sim")
                .simulator_repo(repo)
                .run_script(script, "run.py")
                .kernel(kernel, "vmlinux")
                .disk_image(disk, "disk.img")
                .param(app)
        })
        .unwrap()
}

fn succeed(_run: &FsRun) -> Result<ExecOutcome, String> {
    Ok(ExecOutcome {
        outcome: "success".into(),
        sim_ticks: 1,
        payload: vec![],
        success: true,
        events: vec![],
    })
}

#[test]
fn faulted_campaign_resumes_to_completion() {
    let dir = std::env::temp_dir().join(format!("simart-ft-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let apps = ["a", "b", "c", "d", "e", "f"];
    let pool = PoolScheduler::new(3);

    // Session 1: the campaign runs under a fault injector aggressive
    // enough to defeat some runs even with a retry budget; one further
    // run is stranded mid-flight when the session "dies".
    let (all_ids, done_in_first) = {
        let experiment = Experiment::new("ft");
        let ids = register_components(&experiment);
        let runs: Vec<FsRun> = apps
            .iter()
            .map(|app| make_run(&experiment, ids, app))
            .collect();
        let mut all_ids: Vec<_> = runs.iter().map(|r| r.id()).collect();
        let injector = Arc::new(FaultInjector::new(42).errors(0.6));
        let options = LaunchOptions::default()
            .retry_policy(RetryPolicy::immediate(2))
            .fault(Arc::clone(&injector));
        let summary = experiment.launch_with(runs, &pool, succeed, &options);
        assert_eq!(summary.total(), apps.len());
        assert_eq!(summary.done + summary.failed, apps.len());
        assert!(
            injector.injected_errors() > 0,
            "the injector actually fired"
        );

        // A seventh run was recorded and mid-flight when the session
        // crashed: its status is stranded at Running forever.
        let stranded = make_run(&experiment, ids, "stranded");
        all_ids.push(stranded.id());
        experiment.runs().record(&stranded).unwrap();
        experiment
            .runs()
            .set_status(stranded.id(), RunStatus::Running)
            .unwrap();

        experiment.database().save(&dir).unwrap();
        (all_ids, summary.done)
    };

    // The crash also tore a later save: a partial collection file is
    // left behind. Recovery must ignore it.
    std::fs::write(dir.join("runs.jsonl.tmp"), "{\"_id\":\"torn").unwrap();

    // Session 2: a fresh process loads the database, re-registers the
    // identical artifact set (content hashes make identity stable), and
    // resumes the same sweep with the faults gone.
    let db = Database::load(&dir).unwrap();
    let experiment = Experiment::with_database("ft", db).unwrap();
    let ids = register_components(&experiment);
    let runs: Vec<FsRun> = apps
        .iter()
        .chain(std::iter::once(&"stranded"))
        .map(|app| make_run(&experiment, ids, app))
        .collect();
    let summary = experiment.launch_with(runs, &pool, succeed, &LaunchOptions::resuming());

    // Done work is skipped, everything else (failed + stranded) is
    // re-queued under its original record and completes.
    assert_eq!(summary.skipped_done, done_in_first);
    assert_eq!(summary.requeued, all_ids.len() - done_in_first);
    assert_eq!(summary.done, summary.requeued);
    assert_eq!(summary.failed + summary.timed_out, 0);

    // One record per experiment — resuming never duplicates documents.
    assert_eq!(experiment.runs().len(), all_ids.len());

    for &id in &all_ids {
        let run = experiment.runs().load(id).unwrap();
        assert_eq!(run.status(), RunStatus::Done, "every run ends terminal");
        let events = experiment.runs().events(id);
        // `Done` is a sink: written exactly once, and nothing follows it.
        let done_events = events.iter().filter(|e| *e == "status:done").count();
        assert_eq!(
            done_events, 1,
            "terminal success written exactly once: {events:?}"
        );
        assert_eq!(events.last().map(String::as_str), Some("status:done"));
        // Each completed launch seals at most one terminal status: a run
        // sees either one (done straight away) or two (failed in the
        // first session, done on resume) — never more.
        let terminal = events
            .iter()
            .filter(|e| TERMINAL_EVENTS.contains(&e.as_str()))
            .count();
        assert!(
            (1..=2).contains(&terminal),
            "one terminal status per completed launch: {events:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_and_retry_schedules_are_reproducible() {
    let histories = |seed: u64| {
        let experiment = Experiment::new("det");
        let ids = register_components(&experiment);
        let runs: Vec<FsRun> = ["x", "y", "z"]
            .iter()
            .map(|app| make_run(&experiment, ids, app))
            .collect();
        let run_ids: Vec<_> = runs.iter().map(|r| r.id()).collect();
        let pool = PoolScheduler::new(2);
        let options = LaunchOptions::default()
            .retry_policy(RetryPolicy::fixed(Duration::from_millis(1)).max_attempts(3))
            .fault(Arc::new(FaultInjector::new(seed).errors(0.5)));
        experiment.launch_with(runs, &pool, succeed, &options);
        run_ids
            .into_iter()
            .map(|id| {
                experiment
                    .runs()
                    .attempt_history(id)
                    .unwrap()
                    .into_iter()
                    .map(|a| (a.index, a.disposition, a.delay_ms))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    // Same seed, new database, new schedulers: bit-identical attempt
    // histories, including backoff delays.
    assert_eq!(histories(7), histories(7));
    assert_eq!(histories(1234), histories(1234));
}
