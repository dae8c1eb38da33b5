//! An artifact's id is a function of its content, and the database is
//! the registry of record: a session reopening a database adopts the
//! stored artifacts, so re-registering stored content returns the
//! stored id in any order, under whichever rule minted it, and can
//! never bind that id — or that content — to anything else.

use simart::analyze::lint::lint_database;
use simart::artifact::{Artifact, ArtifactBuilder, ArtifactError, ArtifactKind, ContentSource};
use simart::artifact::{ArtifactId, Md5, Uuid};
use simart::db::{Database, Value};
use simart::resources::{kernels::KernelResource, suite};
use simart::sim::kernel::KernelVersion;
use simart::{Experiment, ExperimentError};
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simart-identity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn session(dir: &Path) -> Experiment {
    Experiment::with_database("identity", Database::open(dir).unwrap()).unwrap()
}

fn journal(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("journal.log")).unwrap()
}

fn builder(name: &str, kind: ArtifactKind, inputs: &[ArtifactId]) -> ArtifactBuilder {
    Artifact::builder(name, kind)
        .command(format!("build {name}"))
        .documentation(format!("{name} for the identity tests"))
        .content(ContentSource::bytes(format!("{name} bytes").into_bytes()))
        .inputs(inputs.iter().copied())
}

/// Five run inputs, each registered after the inputs it lists.
fn components(experiment: &Experiment) -> [ArtifactId; 5] {
    let register = |name, kind, inputs: &[ArtifactId]| {
        experiment
            .register_artifact(builder(name, kind, inputs))
            .unwrap()
            .id()
    };
    let repo = register("sim-repo", ArtifactKind::GitRepo, &[]);
    let binary = register("sim", ArtifactKind::Binary, &[repo]);
    let script = register("script", ArtifactKind::RunScript, &[repo]);
    let kernel = register("vmlinux", ArtifactKind::Kernel, &[]);
    let disk = register("disk", ArtifactKind::DiskImage, &[kernel]);
    [repo, binary, script, kernel, disk]
}

fn run_hash(
    experiment: &Experiment,
    [repo, binary, script, kernel, disk]: [ArtifactId; 5],
) -> String {
    let run = experiment
        .create_fs_run(|b| {
            b.simulator(binary, "sim")
                .simulator_repo(repo)
                .run_script(script, "run.py")
                .kernel(kernel, "vmlinux")
                .disk_image(disk, "disk.img")
                .params(["dedup", "4"])
        })
        .unwrap();
    experiment.runs().record(&run).unwrap();
    assert_eq!(run.input_artifacts(), [binary, repo, script, kernel, disk]);
    run.run_hash().to_owned()
}

#[test]
fn stored_artifacts_keep_their_ids_in_every_registration_order() {
    let dir = scratch("orders");
    let stored = {
        let experiment = session(&dir);
        let repo = experiment
            .register_artifact(builder("repo", ArtifactKind::GitRepo, &[]))
            .unwrap();
        let binary = experiment
            .register_artifact(builder("bin", ArtifactKind::Binary, &[repo.id()]))
            .unwrap();
        let kernel = experiment
            .register_artifact(builder("kernel", ArtifactKind::Kernel, &[]))
            .unwrap();
        [repo.id(), binary.id(), kernel.id()]
    };
    let written = journal(&dir);
    let orders = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for order in orders {
        let experiment = session(&dir);
        for i in order {
            let registered = match i {
                0 => builder("repo", ArtifactKind::GitRepo, &[]),
                1 => builder("bin", ArtifactKind::Binary, &[stored[0]]),
                _ => builder("kernel", ArtifactKind::Kernel, &[]),
            };
            let artifact = experiment.register_artifact(registered).unwrap();
            assert_eq!(artifact.id(), stored[i], "order {order:?}, artifact {i}");
        }
        assert_eq!(experiment.database().collection("artifacts").len(), 3);
        assert_eq!(journal(&dir), written, "order {order:?} wrote nothing");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn databases_with_random_ids_resume_under_their_stored_ids() {
    // The same content registered today, and the run hash built on it.
    let today = Experiment::new("today");
    let minted = components(&today);
    let hash_before = run_hash(&today, minted);

    // The documents as a version-4 era session stored them: the same
    // bytes but for the id values.
    let v4 = |id: ArtifactId| {
        let mut bytes = Md5::digest(id.to_string().as_bytes()).0;
        bytes[6] = (bytes[6] & 0x0f) | 0x40;
        bytes[8] = (bytes[8] & 0x3f) | 0x80;
        Uuid::from_bytes(bytes)
    };
    let dir = scratch("v4");
    {
        let db = Database::open(&dir).unwrap();
        for mut doc in today.database().collection("artifacts").all() {
            let id = |value: &Value| v4(value.as_str().unwrap().parse().unwrap());
            let stored_id = id(doc.at("_id").unwrap());
            let inputs = doc.at("inputs").and_then(Value::as_array).unwrap();
            let inputs = Value::array(inputs.iter().map(|i| Value::from(id(i).to_string())));
            doc.set_at("_id", Value::from(stored_id.to_string()));
            doc.set_at("inputs", inputs);
            db.collection("artifacts").insert(doc).unwrap();
        }
    }

    let resumed = session(&dir);
    let ids = components(&resumed);
    assert_eq!(ids, minted.map(v4), "stored ids are returned");
    assert!(ids.iter().all(|id| id.version() == 4));
    assert_eq!(resumed.database().collection("artifacts").len(), 5);
    assert_eq!(run_hash(&resumed, ids), hash_before);
    assert!(lint_database(resumed.database()).is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stored_content_under_another_name_is_refused_and_writes_nothing() {
    let dir = scratch("rename");
    let stored = session(&dir)
        .register_artifact(builder("vmlinux", ArtifactKind::Kernel, &[]))
        .unwrap()
        .id();
    let written = journal(&dir);

    let experiment = session(&dir);
    let renamed = Artifact::builder("vmlinux-renamed", ArtifactKind::Kernel)
        .command("build vmlinux")
        .documentation("the same bytes under another name")
        .content(ContentSource::bytes(b"vmlinux bytes".to_vec()));
    let err = experiment.register_artifact(renamed).unwrap_err();
    assert!(
        matches!(
            err,
            ExperimentError::Artifact(ArtifactError::ConflictingDuplicate { existing, .. })
                if existing == stored
        ),
        "{err}"
    );
    let docs = experiment.database().collection("artifacts").all();
    assert_eq!(docs.len(), 1);
    assert_eq!(docs[0].at("name").and_then(Value::as_str), Some("vmlinux"));
    assert_eq!(journal(&dir), written);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fresh_sessions_journal_the_same_registrations_identically() {
    let journals: Vec<Vec<u8>> = (0..4)
        .map(|i| {
            let dir = scratch(&format!("journal-{i}"));
            let experiment = session(&dir);
            let registered = experiment
                .with_registry(|registry| {
                    let mut n = suite::register_simulator(registry, "20.1.0.4", "X86")?.len();
                    for version in KernelVersion::FIGURE8 {
                        suite::register_kernel(registry, &KernelResource::standard(version))?;
                        n += 1;
                    }
                    Ok(n)
                })
                .unwrap();
            assert_eq!(registered, 8);
            assert_eq!(experiment.database().collection("artifacts").len(), 8);
            let bytes = journal(&dir);
            std::fs::remove_dir_all(&dir).unwrap();
            bytes
        })
        .collect();
    for other in &journals[1..] {
        assert!(
            *other == journals[0],
            "journal.log differs between sessions"
        );
    }
}

#[test]
fn the_simulator_model_is_part_of_the_binary_hash() {
    let mut registry = simart::artifact::ArtifactRegistry::new();
    let [_, binary, _] = suite::register_simulator(&mut registry, "20.1.0.4", "X86").unwrap();
    let content = |model| suite::simulator_content("20.1.0.4", "X86", model).fingerprint();
    assert_eq!(binary.hash(), content(simart::sim::MODEL).to_hex());
    assert_ne!(content(simart::sim::MODEL), content("another-model"));
    assert!(
        !binary.documentation().contains(simart::sim::MODEL),
        "the model is content, not documentation"
    );
}
