//! The capture window is the only observability switch: the recording
//! machinery is in every build, and a process that never calls
//! `observe::enable()` records nothing, however much instrumented code
//! it runs.
//!
//! The registry and trace buffers are process-global, so the check has
//! this test binary to itself.

use simart::artifact::{Artifact, ArtifactKind, ContentSource};
use simart::db::Database;
use simart::observe::{self, MetricValue};
use simart::remote::execute_campaign_params;
use simart::run::FsRun;
use simart::tasks::PoolScheduler;
use simart::{Experiment, LaunchOptions};

#[test]
fn a_campaign_records_only_inside_the_capture_window() {
    let dir = std::env::temp_dir().join(format!("simart-capture-window-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let experiment =
        Experiment::with_database("window", Database::open(&dir).expect("open")).expect("session");
    let [repo, binary, script, kernel, disk] = [
        ("sim-repo", ArtifactKind::GitRepo),
        ("sim", ArtifactKind::Binary),
        ("script", ArtifactKind::RunScript),
        ("vmlinux", ArtifactKind::Kernel),
        ("disk", ArtifactKind::DiskImage),
    ]
    .map(|(name, kind)| {
        let builder = Artifact::builder(name, kind)
            .documentation(name)
            .content(ContentSource::bytes(name.as_bytes().to_vec()));
        experiment
            .register_artifact(builder)
            .expect("register")
            .id()
    });
    let pool = PoolScheduler::new(2);
    // The CLI campaign's boot sweep, launched and checkpointed. The
    // `tag` param keeps the two sweeps apart; `boot.cfg` reads only
    // `[cpu, cores]`, so these runs record a script that names no kind.
    let campaign = |tag: &str| -> usize {
        let mut runs = Vec::new();
        for cpu in ["kvm", "atomic", "timing"] {
            for cores in ["1", "2"] {
                let run = experiment.create_fs_run(|b| {
                    b.simulator(binary, "sim")
                        .simulator_repo(repo)
                        .run_script(script, "run.py")
                        .kernel(kernel, "vmlinux")
                        .disk_image(disk, "disk.img")
                        .params([cpu, cores, tag])
                });
                runs.push(run.expect("build run"));
            }
        }
        let launched = runs.len();
        let summary = experiment.launch_with(
            runs,
            &pool,
            |run: &FsRun| execute_campaign_params(run.params()),
            &LaunchOptions::default(),
        );
        assert_eq!(summary.done, launched, "{tag}: {summary:?}");
        experiment.database().checkpoint().expect("checkpoint");
        launched
    };

    campaign("closed");
    assert!(
        observe::snapshot().metrics.is_empty(),
        "a closed window records no metric: {:?}",
        observe::snapshot().metrics.keys()
    );
    assert!(
        observe::drain_trace().is_empty(),
        "a closed window records no span"
    );

    observe::enable();
    let launched = campaign("open");
    observe::disable();
    assert_eq!(
        observe::snapshot().metrics.get("experiment.runs_launched"),
        Some(&MetricValue::Counter(launched as u64))
    );
    assert!(!observe::drain_trace().is_empty());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
