//! Chaos end-to-end tests for the broker's supervision layer: killed
//! workers are respawned and their tasks redelivered with zero lost
//! runs, and tasks that exhaust the redelivery cap land in the
//! persistent dead-letter quarantine, survive `--resume`, and come back
//! only through an explicit `simart quarantine --release`.

use simart::artifact::{Artifact, ArtifactId, ArtifactKind, ContentSource};
use simart::db::Database;
use simart::run::{FsRun, RunStatus};
use simart::tasks::{BrokerScheduler, FaultInjector, SupervisorConfig};
use simart::{ExecOutcome, Experiment, LaunchOptions};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

fn register_artifacts(experiment: &Experiment) -> [ArtifactId; 5] {
    let repo = experiment
        .register_artifact(
            Artifact::builder("sim-repo", ArtifactKind::GitRepo)
                .documentation("src")
                .content(ContentSource::git("https://example.org/chaos", "rev")),
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
                .content(ContentSource::bytes(b"cfg".to_vec())),
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

fn ok_outcome(_: &FsRun) -> Result<ExecOutcome, String> {
    Ok(ExecOutcome {
        outcome: "success".into(),
        sim_ticks: 1,
        payload: vec![],
        success: true,
        events: vec![],
    })
}

fn quick_supervision(max_redeliveries: u32) -> SupervisorConfig {
    SupervisorConfig {
        heartbeat: Duration::from_millis(10),
        max_redeliveries,
        ..SupervisorConfig::default()
    }
}

fn simart(args: &[&str]) -> (String, String, i32) {
    let output = Command::new(env!("CARGO_BIN_EXE_simart"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.code().unwrap_or(-1),
    )
}

/// SIGKILL-style chaos: one worker is killed mid-campaign. The
/// supervisor respawns a replacement and redelivers the orphaned task,
/// so the campaign completes with zero lost runs.
#[test]
fn killed_worker_is_respawned_and_no_runs_are_lost() {
    let experiment = Experiment::new("chaos");
    let ids = register_artifacts(&experiment);
    let runs: Vec<FsRun> = ["a", "b", "c"]
        .iter()
        .map(|app| make_run(&experiment, ids, app))
        .collect();
    let run_ids: Vec<_> = runs.iter().map(|r| r.id()).collect();

    let broker = BrokerScheduler::with_config(2, quick_supervision(1));
    // Every first delivery draws a kill, but the budget allows exactly
    // one: precisely one worker dies holding a lease.
    let chaos = Arc::new(FaultInjector::new(7).worker_kills(1.0).worker_kill_limit(1));
    let options = LaunchOptions::default().worker_fault(Arc::clone(&chaos));
    let summary = experiment.launch_with(runs, &broker, ok_outcome, &options);

    assert_eq!(summary.done, 3, "zero lost runs: {summary:?}");
    assert_eq!(summary.quarantined, 0);
    assert_eq!(chaos.injected_kills(), 1, "the kill budget was spent");
    assert_eq!(
        broker.redelivered(),
        1,
        "the orphaned task was redelivered once"
    );
    assert!(
        broker.worker_respawns() >= 1,
        "a replacement worker was spawned"
    );
    assert_eq!(broker.detached_live(), 0, "no detached workers left behind");
    for id in run_ids {
        assert_eq!(
            experiment.runs().load(id).unwrap().status(),
            RunStatus::Done
        );
    }
}

/// A task whose every delivery is killed exhausts the redelivery cap:
/// the run is quarantined with a persisted dead letter, `--resume`
/// skips it, `simart quarantine` lists it, and only `--release` brings
/// it back.
#[test]
fn exhausted_redeliveries_quarantine_end_to_end() {
    let dir = std::env::temp_dir().join(format!("simart-supervision-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db_arg = dir.to_str().unwrap().to_owned();

    // Session 1: every delivery of the single run is killed, so one
    // redelivery is allowed and then the supervisor gives up.
    let poisoned_id = {
        let db = Database::open(&dir).unwrap();
        let experiment = Experiment::with_database("chaos", db).unwrap();
        let ids = register_artifacts(&experiment);
        let runs = vec![make_run(&experiment, ids, "poisoned")];
        let run_id = runs[0].id();

        let broker = BrokerScheduler::with_config(2, quick_supervision(1));
        let chaos = Arc::new(FaultInjector::new(7).worker_kills(1.0));
        let options = LaunchOptions::default().worker_fault(chaos);
        let summary = experiment.launch_with(runs, &broker, ok_outcome, &options);
        assert_eq!(summary.quarantined, 1, "{summary:?}");
        assert_eq!(summary.done, 0);
        assert_eq!(
            experiment.runs().load(run_id).unwrap().status(),
            RunStatus::Quarantined
        );

        let letters = simart::quarantine::load_all(experiment.database()).unwrap();
        assert_eq!(letters.len(), 1);
        assert_eq!(letters[0].run_id, run_id);
        assert_eq!(letters[0].redeliveries, 1);
        assert!(!letters[0].released);
        assert!(
            letters[0].error.contains("redelivery cap"),
            "{}",
            letters[0].error
        );
        assert_eq!(
            letters[0].lease_events.len(),
            2,
            "{:?}",
            letters[0].lease_events
        );

        // Session 1b: resume never touches a quarantined run.
        let resumed = experiment.launch_with(
            vec![make_run(&experiment, ids, "poisoned")],
            &broker,
            ok_outcome,
            &LaunchOptions::resuming(),
        );
        assert_eq!(resumed.skipped_quarantined, 1, "{resumed:?}");
        assert_eq!(
            experiment.runs().load(run_id).unwrap().status(),
            RunStatus::Quarantined
        );

        experiment.database().checkpoint().unwrap();
        run_id
    };

    // The CLI lists the dead letter; a consistent quarantine lints
    // clean (SA0014 fires only when the two collections disagree).
    let id_str = poisoned_id.to_string();
    let (stdout, stderr, code) = simart(&["quarantine", "--db", &db_arg]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains(&id_str), "{stdout}");
    assert!(stdout.contains("redeliveries=1"), "{stdout}");
    let (stdout, _, code) = simart(&["quarantine", "--db", &db_arg, "--format", "json"]);
    assert_eq!(code, 0);
    assert!(stdout.contains(&id_str), "{stdout}");
    let (stdout, _, code) = simart(&["check", "--db", &db_arg]);
    assert_eq!(code, 0, "{stdout}");

    // Releasing an unknown id is a loud error.
    let bogus = simart::artifact::Uuid::new_v3("supervision-e2e", "bogus").to_string();
    let (_, stderr, code) = simart(&["quarantine", "--db", &db_arg, "--release", &bogus]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("no quarantined run"), "{stderr}");

    // Release the real one: the dead letter flips to released and the
    // run is re-queued.
    let (stdout, stderr, code) = simart(&["quarantine", "--db", &db_arg, "--release", &id_str]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("released"), "{stdout}");

    // Session 2: with the chaos gone, resume picks the released run up
    // and it completes on its original record.
    {
        let db = Database::open(&dir).unwrap();
        let experiment = Experiment::with_database("chaos", db).unwrap();
        let ids = register_artifacts(&experiment);
        let summary = experiment.launch_with(
            vec![make_run(&experiment, ids, "poisoned")],
            &BrokerScheduler::with_config(2, quick_supervision(1)),
            ok_outcome,
            &LaunchOptions::resuming(),
        );
        assert_eq!((summary.requeued, summary.done), (1, 1), "{summary:?}");
        assert_eq!(
            experiment.runs().load(poisoned_id).unwrap().status(),
            RunStatus::Done
        );
        let letters = simart::quarantine::load_all(experiment.database()).unwrap();
        assert!(letters[0].released, "release is durable");
        experiment.database().checkpoint().unwrap();
    }

    // The healed database still lints clean: a released dead letter is
    // history, not a constraint.
    let (stdout, _, code) = simart(&["check", "--db", &db_arg]);
    assert_eq!(code, 0, "{stdout}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Releasing rewrites the snapshot, so a document line the load had to
/// skip is gone from disk afterwards: the release says so on stderr.
#[test]
fn release_reports_corrupt_lines_it_drops() {
    let dir = std::env::temp_dir().join(format!("simart-release-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db_arg = dir.to_str().unwrap().to_owned();
    let run_id = {
        let db = Database::open(&dir).unwrap();
        let experiment = Experiment::with_database("chaos", db).unwrap();
        let ids = register_artifacts(&experiment);
        let runs = vec![make_run(&experiment, ids, "poisoned")];
        let run_id = runs[0].id();
        let broker = BrokerScheduler::with_config(2, quick_supervision(1));
        let chaos = Arc::new(FaultInjector::new(7).worker_kills(1.0));
        let options = LaunchOptions::default().worker_fault(chaos);
        let summary = experiment.launch_with(runs, &broker, ok_outcome, &options);
        assert_eq!(summary.quarantined, 1, "{summary:?}");
        experiment.database().checkpoint().unwrap();
        run_id
    };
    let runs_file = dir.join("runs.jsonl");
    let mut runs = std::fs::read_to_string(&runs_file).unwrap();
    runs.push_str("{not a document\n");
    std::fs::write(&runs_file, runs).unwrap();

    let (stdout, stderr, code) = simart(&[
        "quarantine",
        "--db",
        &db_arg,
        "--release",
        &run_id.to_string(),
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("released"), "{stdout}");
    assert!(
        stderr.contains(&format!(
            "warning: {db_arg}: skipped 1 corrupt document line(s)"
        )),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
