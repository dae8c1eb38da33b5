//! The reproducibility story, end to end: an experiment recorded in
//! the database can be reconstructed **from the database alone** and
//! re-executed to identical results. The record names its run script,
//! and the run kind that script names reads the recorded params.

use simart::db::{Database, Filter, Value};
use simart::kinds::{self, RunSpec};
use simart::resources::{disks, kernels::KernelResource, suite};
use simart::sim::kernel::KernelVersion;
use simart::sim::os::OsImage;
use simart::tasks::PoolScheduler;
use simart::Experiment;

#[test]
fn experiments_reproduce_from_database_records_alone() {
    let dir = std::env::temp_dir().join(format!("simart-prov-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: run a small experiment and persist the database.
    let original_results: Vec<(String, u64)> = {
        let experiment = Experiment::new("provenance");
        let (simulator, repo, script, kernel, disk) = experiment
            .with_registry(|registry| {
                let [repo, binary, script] =
                    suite::register_simulator(registry, "20.1.0.4", "X86")?;
                let kernel = suite::register_kernel(
                    registry,
                    &KernelResource::standard(KernelVersion::V5_4),
                )?;
                let disk = suite::register_disk_image(
                    registry,
                    &disks::parsec_image(OsImage::Ubuntu2004),
                )?;
                Ok((binary.id(), repo.id(), script.id(), kernel.id(), disk.id()))
            })
            .unwrap();

        let runs: Vec<_> = ["blackscholes", "dedup"]
            .iter()
            .map(|app| {
                experiment
                    .create_fs_run(|b| {
                        b.simulator(simulator, "sim")
                            .simulator_repo(repo)
                            .run_script(script, "configs/run_parsec.py")
                            .kernel(kernel, "vmlinux")
                            .disk_image(disk, "disk.img")
                            .param(*app)
                            .param("ubuntu-20.04")
                            .param("2")
                            .param("simsmall")
                            .param("smoke")
                    })
                    .unwrap()
            })
            .collect();
        let pool = PoolScheduler::new(2);
        let summary = experiment.launch(runs, &pool, kinds::execute);
        assert_eq!(summary.done, 2);
        experiment.database().save(&dir).unwrap();

        experiment
            .query_runs(&Filter::eq("status", "done"))
            .iter()
            .map(|doc| {
                (
                    doc.at("params.0")
                        .and_then(Value::as_str)
                        .unwrap()
                        .to_owned(),
                    doc.at("results.simTicks").and_then(Value::as_int).unwrap() as u64,
                )
            })
            .collect()
    };

    // Phase 2: a different "researcher" loads only the database and
    // re-executes the experiments described by the run records.
    let restored = Database::load(&dir).unwrap();
    let run_docs = restored
        .collection("runs")
        .find(&Filter::eq("status", "done"));
    assert_eq!(run_docs.len(), 2);
    for doc in run_docs {
        let spec = RunSpec::of_document(&doc).expect("recorded params decode");
        let ticks = spec.execute().expect("runs").sim_ticks;
        let recorded = doc.at("results.simTicks").and_then(Value::as_int).unwrap() as u64;
        assert_eq!(
            ticks, recorded,
            "re-executing {spec:?} from the database reproduces the recorded result"
        );
        // Artifact provenance is also intact: every input is resolvable.
        let inputs = doc.at("inputs").and_then(Value::as_array).unwrap();
        for input in inputs {
            let id = input.as_str().unwrap();
            assert!(
                restored.collection("artifacts").get(id).is_some(),
                "input artifact {id} archived with the run"
            );
        }
    }
    let _ = original_results;
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn artifact_documentation_survives_the_database() {
    let experiment = Experiment::new("docs");
    experiment
        .with_registry(|registry| {
            suite::register_kernel(registry, &KernelResource::standard(KernelVersion::V4_19))
                .map(|_| ())
        })
        .unwrap();
    let docs = experiment.database().collection("artifacts").all();
    assert_eq!(docs.len(), 1);
    let documentation = docs[0].at("documentation").and_then(Value::as_str).unwrap();
    assert!(
        documentation.contains("4.19.83"),
        "reproduction docs stored: {documentation}"
    );
    let command = docs[0].at("command").and_then(Value::as_str).unwrap();
    assert!(
        command.contains("git checkout"),
        "creation command stored: {command}"
    );
}
