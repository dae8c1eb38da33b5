//! `launch_remote` ships every run as the task kind its run script
//! names, and a campaign worker runs one handler per run kind, so a
//! Figure 8 or Table II run over the pipe driver stores exactly what
//! the same run stores when executed locally: outcome, `simTicks` and
//! payload. A script that names no kind still ships as a campaign boot.

use simart::artifact::{Artifact, ArtifactId, ArtifactKind, ContentSource};
use simart::db::{BlobKey, Database, Value};
use simart::kinds::{self, ParsecRun, RunKind, RunSpec};
use simart::remote::execute_campaign_params;
use simart::run::{FsRun, RunStatus};
use simart::sim::compat::figure8_configs;
use simart::sim::os::OsImage;
use simart::sim::system::Fidelity;
use simart::sim::workload::InputSize;
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

fn run(experiment: &Experiment, ids: [ArtifactId; 5], script: &str, params: Vec<String>) -> FsRun {
    let [binary, repo, script_id, kernel, disk] = ids;
    experiment
        .create_fs_run(|b| {
            b.simulator(binary, "sim")
                .simulator_repo(repo)
                .run_script(script_id, script)
                .kernel(kernel, "vmlinux")
                .disk_image(disk, "disk.img")
                .params(params)
        })
        .expect("build run")
}

#[test]
fn every_run_kind_travels_and_stores_what_a_local_run_stores() {
    let (experiment, ids) = session();
    // Figure 8 samples across the matrix (successes and failures alike)
    // and Table II runs, all at Smoke.
    let mut specs: Vec<RunSpec> = figure8_configs()
        .into_iter()
        .step_by(97)
        .map(|config| RunSpec::Figure8(config, Fidelity::Smoke))
        .collect();
    for (app, os, cores) in [
        ("blackscholes", OsImage::Ubuntu1804, 1),
        ("dedup", OsImage::Ubuntu2004, 2),
    ] {
        specs.push(RunSpec::Table2(ParsecRun {
            app,
            os,
            cores,
            input: InputSize::SimSmall,
            fidelity: Fidelity::Smoke,
        }));
    }
    let mut runs: Vec<FsRun> = specs
        .iter()
        .map(|spec| run(&experiment, ids, spec.kind().script(), spec.encode()))
        .collect();
    let campaign = ["kvm", "1"].map(str::to_owned).to_vec();
    runs.push(run(
        &experiment,
        ids,
        RunKind::CampaignBoot.script(),
        campaign,
    ));
    let unregistered = ["atomic", "2"].map(str::to_owned).to_vec();
    runs.push(run(&experiment, ids, "configs/run.py", unregistered));

    let command = WorkerCommand::new(env!("CARGO_BIN_EXE_simart")).arg("worker");
    let remote = RemoteScheduler::new(command, 2).expect("spawn workers");
    let summary = experiment.launch_remote(runs.clone(), &remote, &LaunchOptions::default());
    let submitted = remote.stats().submitted;
    assert!(remote.shutdown());

    let n = runs.len();
    assert_eq!(
        summary,
        LaunchSummary {
            done: n,
            fresh: n,
            ..LaunchSummary::default()
        }
    );
    assert_eq!(submitted as usize, n, "every kind ships");
    let stored = experiment.database().collection("runs");
    for run in &runs {
        let local = match RunKind::of_script(run.run_script_path()) {
            Some(_) => kinds::execute(run),
            None => execute_campaign_params(run.params()),
        }
        .expect("runs locally");
        assert_eq!(
            experiment.runs().load(run.id()).expect("stored").status(),
            RunStatus::Done
        );
        let doc = stored.get(&run.id().to_string()).expect("run document");
        let field = |path| doc.at(path).cloned();
        let what = format!("{} {:?}", run.run_script_path(), run.params());
        assert_eq!(
            field("results.outcome"),
            Some(Value::from(local.outcome.as_str())),
            "{what}"
        );
        assert_eq!(
            field("results.simTicks"),
            Some(Value::from(local.sim_ticks)),
            "{what}"
        );
        let payload = doc
            .at("results.payload")
            .and_then(Value::as_str)
            .and_then(BlobKey::from_hex)
            .and_then(|key| experiment.database().blobs().get(key))
            .expect("archived payload");
        assert_eq!(*payload, *local.payload, "{what}");
    }
}
