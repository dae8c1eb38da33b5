//! One launch body for every scheduler.
//!
//! `two_launches_share_one_process_driver` launches from two threads
//! onto one pipe process driver: each run's delivery provenance must
//! reach its own launch, whichever launch settles first.
//!
//! A run the process driver refuses (here: after shutdown) counts as
//! failed and keeps its `Queued` record for a resuming relaunch.
//!
//! `every_scheduler_stores_the_same_runs` launches the same runs with
//! the same executor on the three thread drivers and on the process
//! driver over pipes and over TCP: what each stores per run is the
//! same, apart from the `remote-*` delivery trail.

use simart::artifact::{Artifact, ArtifactId, ArtifactKind, ContentSource};
use simart::db::{BlobKey, Database, Value};
use simart::kinds::{self, ParsecRun, RunKind, RunSpec};
use simart::run::{FsRun, RunStatus};
use simart::sim::compat::figure8_configs;
use simart::sim::os::OsImage;
use simart::sim::system::Fidelity;
use simart::sim::workload::InputSize;
use simart::tasks::{
    BrokerScheduler, PoolScheduler, RemoteConfig, RemoteScheduler, Scheduler, SerialScheduler,
    TransportKind, WorkerCommand,
};
use simart::{Experiment, LaunchOptions, LaunchSummary};

fn session(name: &str) -> (Experiment, [ArtifactId; 5]) {
    let experiment = Experiment::with_database(name, Database::in_memory()).expect("session");
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
        ids.push(
            experiment
                .register_artifact(builder)
                .expect("register")
                .id(),
        );
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

/// The `boot.cfg` runs of the given cpus, on one and two cores.
fn boots(experiment: &Experiment, ids: [ArtifactId; 5], cpus: &[&str]) -> Vec<FsRun> {
    cpus.iter()
        .flat_map(|cpu| ["1", "2"].map(|cores| vec![cpu.to_string(), cores.to_owned()]))
        .map(|params| run(experiment, ids, RunKind::CampaignBoot.script(), params))
        .collect()
}

fn worker() -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_simart")).arg("worker")
}

fn count(events: &[String], prefix: &str) -> usize {
    events.iter().filter(|e| e.starts_with(prefix)).count()
}

#[test]
fn two_launches_share_one_process_driver() {
    let remote = RemoteScheduler::new(worker(), 2).expect("spawn workers");
    std::thread::scope(|scope| {
        for name in ["a", "b"] {
            let remote = &remote;
            scope.spawn(move || {
                let (experiment, ids) = session(name);
                let runs = boots(&experiment, ids, &["kvm", "atomic", "timing"]);
                let summary =
                    experiment.launch_remote(runs.clone(), remote, &LaunchOptions::default());
                assert_eq!(summary.done, 6, "{name}: {summary:?}");
                for run in &runs {
                    let id = run.id();
                    let status = experiment.runs().load(id).expect("stored").status();
                    let events = experiment.runs().events(id);
                    let what = format!("{name} {:?}: {events:?}", run.params());
                    assert_eq!(status, RunStatus::Done, "{what}");
                    assert_eq!(count(&events, "remote-dispatch:"), 1, "{what}");
                    assert_eq!(count(&events, "remote-ack:"), 1, "{what}");
                }
            });
        }
    });
    assert!(remote.shutdown());
}

#[test]
fn a_run_the_process_driver_refuses_stays_queued() {
    let remote = RemoteScheduler::new(worker(), 1).expect("spawn worker");
    assert!(remote.shutdown());
    let (experiment, ids) = session("refused");
    let runs = boots(&experiment, ids, &["kvm"]);
    let summary = experiment.launch_remote(runs.clone(), &remote, &LaunchOptions::default());
    assert_eq!((summary.fresh, summary.failed, summary.done), (2, 2, 0));
    for run in &runs {
        let stored = experiment.runs().load(run.id()).expect("stored");
        assert_eq!(stored.status(), RunStatus::Queued);
    }
}

/// What one run stored: its outcome, `simTicks`, results blob and its
/// events less the `remote-*` delivery trail.
type Stored = (Option<Value>, Option<Value>, Vec<u8>, Vec<String>);

fn launch_on(scheduler: &dyn Scheduler) -> Vec<(String, Stored)> {
    let (experiment, ids) = session("parity");
    let mut runs = boots(&experiment, ids, &["kvm"]);
    let figure8 = RunSpec::Figure8(figure8_configs().remove(0), Fidelity::Smoke);
    let table2 = RunSpec::Table2(ParsecRun {
        app: "blackscholes",
        os: OsImage::Ubuntu1804,
        cores: 1,
        input: InputSize::SimSmall,
        fidelity: Fidelity::Smoke,
    });
    for spec in [figure8, table2] {
        runs.push(run(&experiment, ids, spec.kind().script(), spec.encode()));
    }
    let n = runs.len();
    let summary = experiment.launch_with(
        runs.clone(),
        scheduler,
        kinds::execute,
        &LaunchOptions::default(),
    );
    assert_eq!(
        summary,
        LaunchSummary {
            done: n,
            fresh: n,
            ..LaunchSummary::default()
        },
        "{}",
        scheduler.name()
    );
    let stored = experiment.database().collection("runs");
    runs.iter()
        .map(|run| {
            let doc = stored.get(&run.id().to_string()).expect("run document");
            let payload = doc
                .at("results.payload")
                .and_then(Value::as_str)
                .and_then(BlobKey::from_hex)
                .and_then(|key| experiment.database().blobs().get(key))
                .expect("archived payload");
            let events = experiment
                .runs()
                .events(run.id())
                .into_iter()
                .filter(|e| !e.starts_with("remote-"))
                .collect();
            let stored = (
                doc.at("results.outcome").cloned(),
                doc.at("results.simTicks").cloned(),
                payload.to_vec(),
                events,
            );
            (run.run_hash().to_owned(), stored)
        })
        .collect()
}

#[test]
fn every_scheduler_stores_the_same_runs() {
    let tcp = RemoteConfig {
        transport: TransportKind::Tcp,
        ..RemoteConfig::default()
    };
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(SerialScheduler::new()),
        Box::new(PoolScheduler::new(2)),
        Box::new(BrokerScheduler::new(2)),
        Box::new(RemoteScheduler::new(worker(), 2).expect("spawn pipe workers")),
        Box::new(RemoteScheduler::with_config(worker(), 2, tcp).expect("spawn tcp workers")),
    ];
    let serial = launch_on(schedulers[0].as_ref());
    assert_eq!(serial.len(), 4);
    for scheduler in &schedulers[1..] {
        assert_eq!(
            launch_on(scheduler.as_ref()),
            serial,
            "{}",
            scheduler.name()
        );
    }
}
