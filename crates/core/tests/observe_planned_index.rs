//! The reproducibility query must ride the multikey `runs.inputs`
//! index: inside a capture window, each `Experiment::runs_using` call
//! (`RunStore::find_by_artifact`) bumps `db.query_planned_index` once
//! and never falls back to a `db.query_scans` collection scan.
//!
//! This asserts exact counts on the process-global metrics registry, so
//! it is the only test in its binary: sibling test threads querying
//! collections used to inflate the counters. Scoped registries (ROADMAP
//! item 5a) are the real fix; process isolation is the cheap one.

use simart::artifact::{Artifact, ArtifactKind, ContentSource, Uuid};
use simart::observe;
use simart::Experiment;

#[test]
fn runs_using_rides_the_inputs_index() {
    let experiment = Experiment::new("planned-index");
    let register = |name: &str, kind| {
        let builder = Artifact::builder(name, kind)
            .documentation(name)
            .content(ContentSource::bytes(name.as_bytes().to_vec()));
        experiment.register_artifact(builder).unwrap().id()
    };
    let repo = register("repo", ArtifactKind::GitRepo);
    let binary = register("sim", ArtifactKind::Binary);
    let script = register("script", ArtifactKind::RunScript);
    let disk = register("disk", ArtifactKind::DiskImage);
    let kernels = [
        register("vmlinux-4.19", ArtifactKind::Kernel),
        register("vmlinux-5.4", ArtifactKind::Kernel),
    ];
    // Three runs per kernel, all sharing the other four inputs.
    for (k, kernel) in kernels.iter().enumerate() {
        for cores in ["1", "2", "4"] {
            let run = experiment
                .create_fs_run(|b| {
                    b.simulator(binary, "sim")
                        .simulator_repo(repo)
                        .run_script(script, "run.py")
                        .kernel(*kernel, "vmlinux")
                        .disk_image(disk, "disk.img")
                        .params([cores, &k.to_string()])
                })
                .unwrap();
            experiment.runs().record(&run).unwrap();
        }
    }

    let ghost = Uuid::new_v3("planned-index", "ghost");
    let counter = |name: &str| match observe::snapshot().metrics.get(name) {
        Some(observe::MetricValue::Counter(n)) => *n,
        _ => 0,
    };
    for (artifact, expected) in [
        (kernels[0], 3),
        (kernels[1], 3),
        (disk, 6),
        (repo, 6),
        (ghost, 0),
    ] {
        observe::reset();
        observe::enable();
        let found = experiment.runs_using(artifact).unwrap();
        observe::disable();
        assert_eq!(found.len(), expected, "runs using {artifact}");
        assert_eq!(counter("db.query_planned_index"), 1, "one indexed probe");
        assert_eq!(counter("db.query_scans"), 0, "no collection scan");
    }
}
