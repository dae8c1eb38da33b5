//! `launch_remote` ships every run as a campaign boot, so a campaign
//! worker reads its params as `[cpu, cores]`. A run whose script names
//! another run kind is refused before admission instead of being
//! dispatched to a worker that would misread it; a script that names
//! no kind still ships.

use simart::artifact::{Artifact, ArtifactId, ArtifactKind, ContentSource};
use simart::db::Database;
use simart::kinds::RunKind;
use simart::run::{FsRun, RunStatus};
use simart::tasks::{RemoteScheduler, WorkerCommand};
use simart::{Experiment, LaunchOptions, LaunchSummary};

fn session() -> (Experiment, [ArtifactId; 5]) {
    let experiment = Experiment::with_database("kinds", Database::in_memory()).expect("session");
    let mut ids = Vec::new();
    for (name, kind) in [
        ("sim", ArtifactKind::Binary),
        ("sim-repo", ArtifactKind::GitRepo),
        ("script", ArtifactKind::RunScript),
        ("vmlinux", ArtifactKind::Kernel),
        ("disk", ArtifactKind::DiskImage),
    ] {
        let builder = Artifact::builder(name, kind)
            .documentation(name)
            .content(ContentSource::bytes(name.as_bytes().to_vec()));
        let artifact = experiment.register_artifact(builder).expect("register");
        ids.push(artifact.id());
    }
    (experiment, [ids[0], ids[1], ids[2], ids[3], ids[4]])
}

fn run(experiment: &Experiment, ids: [ArtifactId; 5], script: &str, params: &[&str]) -> FsRun {
    let [binary, repo, script_id, kernel, disk] = ids;
    experiment
        .create_fs_run(|b| {
            b.simulator(binary, "sim")
                .simulator_repo(repo)
                .run_script(script_id, script)
                .kernel(kernel, "vmlinux")
                .disk_image(disk, "disk.img")
                .params(params.iter().copied())
        })
        .expect("build run")
}

#[test]
fn a_run_of_another_kind_is_refused_before_admission() {
    let (experiment, ids) = session();
    let figure8 = [
        "O3CPU",
        "MESI_Two_Level",
        "4",
        "systemd-runlevel5",
        "5.4.51",
    ];
    let refused = run(&experiment, ids, RunKind::Figure8Boot.script(), &figure8);
    let parsec = ["blackscholes", "ubuntu-20.04", "2", "simmedium"];
    let recorded = run(&experiment, ids, RunKind::Table2Parsec.script(), &parsec);
    // Recorded before the launch: the refusal must leave it as created.
    experiment.runs().record(&recorded).expect("record");
    let campaign = run(
        &experiment,
        ids,
        RunKind::CampaignBoot.script(),
        &["kvm", "1"],
    );
    let unregistered = run(&experiment, ids, "configs/run.py", &["atomic", "2"]);
    let (refused_id, recorded_id) = (refused.id(), recorded.id());

    let command = WorkerCommand::new(env!("CARGO_BIN_EXE_simart")).arg("worker");
    let remote = RemoteScheduler::new(command, 1).expect("spawn worker");
    let runs = vec![refused, recorded, campaign, unregistered];
    let summary = experiment.launch_remote(runs, &remote, &LaunchOptions::default());
    let submitted = remote.stats().submitted;
    assert!(remote.shutdown());

    assert_eq!(
        summary,
        LaunchSummary {
            done: 2,
            failed: 2,
            fresh: 2,
            ..LaunchSummary::default()
        }
    );
    assert_eq!(submitted, 2, "only the campaign boot and run.py ship");
    assert!(
        experiment.runs().load(refused_id).is_err(),
        "a refused run is never recorded"
    );
    let stored = experiment.runs().load(recorded_id).expect("recorded run");
    assert_eq!(stored.status(), RunStatus::Created);
    assert!(experiment.runs().events(recorded_id).is_empty());
    assert_eq!(experiment.runs().attempt_count(recorded_id), 0);
}
