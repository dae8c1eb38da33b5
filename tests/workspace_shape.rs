//! The workspace builds one way: no cargo feature selects code, no
//! crate can contain `unsafe`, and the vendored shims are the two the
//! build needs. A `[features]` table, a feature-gated `cfg`, a crate
//! root without `forbid(unsafe_code)` or a third shim fails here, as
//! do a SipHash map on the simulator's per-access path, a per-byte
//! hex `format!` outside `simart_codec::hex`, an artifact id that is
//! not a function of content, a second provenance graph, a job queue
//! outside the lease table, a second decoder of stored params, and
//! supervision decided anywhere but the pure coordinator core.

use std::path::{Path, PathBuf};

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir` whose name satisfies `wanted`, skipping build
/// output and hidden directories.
fn files(dir: &Path, wanted: &dyn Fn(&str) -> bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let (path, name) = (entry.path(), entry.file_name());
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                files(&path, wanted, out);
            }
        } else if wanted(&name) {
            out.push(path);
        }
    }
}

fn manifests() -> Vec<PathBuf> {
    let mut out = Vec::new();
    files(&repo(), &|name| name == "Cargo.toml", &mut out);
    out
}

#[test]
fn no_manifest_declares_features() {
    let manifests = manifests();
    assert!(manifests.len() >= 16, "found only {manifests:?}");
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).unwrap();
        assert!(
            !text.lines().any(|line| line.trim() == "[features]"),
            "{} has a [features] table",
            manifest.display()
        );
    }
}

#[test]
fn no_source_is_feature_gated() {
    // Spelled in two parts so this file does not match itself.
    let gate = ["feature", "=\""].concat();
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        files(
            &repo().join(dir),
            &|name| name.ends_with(".rs"),
            &mut sources,
        );
    }
    assert!(sources.len() > 100, "found only {} sources", sources.len());
    for source in sources {
        let text = std::fs::read_to_string(&source).unwrap();
        for (number, line) in text.lines().enumerate() {
            let dense: String = line.split_whitespace().collect();
            assert!(
                !(dense.contains("cfg") && dense.contains(&gate)),
                "{}:{}: {line}",
                source.display(),
                number + 1
            );
        }
    }
}

#[test]
fn every_crate_root_forbids_unsafe() {
    for manifest in manifests() {
        let package = manifest.parent().unwrap();
        if package.ends_with("benchmark") {
            continue; // frozen harness, a workspace of its own
        }
        let root = package.join("src/lib.rs");
        let text = std::fs::read_to_string(&root).unwrap();
        assert!(
            text.lines().any(|line| line == "#![forbid(unsafe_code)]"),
            "{} lacks #![forbid(unsafe_code)]",
            root.display()
        );
    }
}

#[test]
fn shims_are_exactly_the_two_vendored_crates() {
    let mut shims: Vec<String> = std::fs::read_dir(repo().join("crates/shims"))
        .unwrap()
        .flatten()
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .collect();
    shims.sort();
    assert_eq!(shims, ["parking_lot", "proptest"]);
}

#[test]
fn one_queue_in_the_lease_table() {
    // Queue order lives in `LeaseTable` alone: a driver that keeps its
    // own FIFO of job ids must keep it in step with the table by hand.
    // A test's shadow FIFO is a reference model, not a driver's queue.
    // Spelled in parts, as above.
    let banned = ["VecDeque", "Sender", "Receiver"].map(|kind| [kind, "<JobId>"].concat());
    let mut sources = Vec::new();
    files(
        &repo().join("crates/tasks/src"),
        &|name| name.ends_with(".rs"),
        &mut sources,
    );
    assert!(sources.len() >= 10, "found only {sources:?}");
    for source in sources {
        if source.ends_with("lease.rs") {
            continue;
        }
        let text = non_test(&source);
        for (number, line) in text.lines().enumerate() {
            let dense: String = line.split_whitespace().collect();
            assert!(
                !banned.iter().any(|spelling| dense.contains(spelling)),
                "{}:{}: {line}",
                source.display(),
                number + 1
            );
        }
    }
}

#[test]
fn simulator_hot_path_has_no_siphash() {
    // Every simulated access probes these maps; std's default hasher
    // costs more than the probe. Spelled in parts, as above.
    let banned = [
        ["HashMap::", "new()"].concat(),
        ["Random", "State"].concat(),
    ];
    let mut sources = Vec::new();
    for dir in ["mem", "cpu", "isa"] {
        let dir = repo().join("crates/fullsim/src").join(dir);
        files(&dir, &|name| name.ends_with(".rs"), &mut sources);
    }
    assert!(sources.len() >= 10, "found only {sources:?}");
    for source in sources {
        let text = std::fs::read_to_string(&source).unwrap();
        for (number, line) in text.lines().enumerate() {
            assert!(
                !banned.iter().any(|spelling| line.contains(spelling)),
                "{}:{}: {line}",
                source.display(),
                number + 1
            );
        }
    }
}

#[test]
fn hex_is_rendered_in_one_place() {
    // A per-byte `format!` of two hex digits costs an allocation per
    // byte; digests, keys and UUIDs go through `simart_codec::hex`.
    // Spelled in parts, as above.
    let banned = ["02", "x}"].concat();
    let sources = package_sources();
    assert!(sources.len() > 80, "found only {} sources", sources.len());
    for source in sources {
        if source.ends_with("crates/codec/src/hex.rs") {
            continue;
        }
        let text = std::fs::read_to_string(&source).unwrap();
        for (number, line) in text.lines().enumerate() {
            assert!(
                !line.contains(&banned),
                "{}:{}: {line}",
                source.display(),
                number + 1
            );
        }
    }
}

/// Every `.rs` file under some package's `src/`.
fn package_sources() -> Vec<PathBuf> {
    let mut sources = Vec::new();
    for package in std::fs::read_dir(repo().join("crates")).unwrap().flatten() {
        files(
            &package.path().join("src"),
            &|name| name.ends_with(".rs"),
            &mut sources,
        );
    }
    sources
}

#[test]
fn artifact_identity_is_content() {
    // An artifact's id is minted from its content hash, never drawn
    // from a generator.
    let manifest = std::fs::read_to_string(repo().join("crates/artifact/Cargo.toml")).unwrap();
    assert!(
        !manifest
            .lines()
            .any(|line| line.trim_start().starts_with("rand")),
        "simart-artifact depends on rand"
    );
    let mut sources = Vec::new();
    files(
        &repo().join("crates/artifact/src"),
        &|name| name.ends_with(".rs"),
        &mut sources,
    );
    assert!(sources.len() >= 5, "found only {sources:?}");
    for source in sources {
        let text = std::fs::read_to_string(&source).unwrap();
        for banned in ["new_v4", "SmallRng"] {
            assert!(
                !text.contains(banned),
                "{} names {banned}",
                source.display()
            );
        }
    }
}

#[test]
fn one_provenance_graph() {
    // The stored `inputs` are the provenance graph: only the linter
    // mirrors them into a `DependencyGraph`, and the `artifacts`
    // collection indexes nothing but its unique content hash.
    let mut naming: Vec<String> = package_sources()
        .into_iter()
        .filter(|source| {
            std::fs::read_to_string(source)
                .unwrap()
                .contains("DependencyGraph")
        })
        .map(|source| source.strip_prefix(repo()).unwrap().display().to_string())
        .collect();
    naming.sort();
    assert_eq!(
        naming,
        ["crates/analyze/src/lints.rs", "crates/artifact/src/dag.rs"]
    );
    let store = std::fs::read_to_string(repo().join("crates/db/src/artifact_store.rs")).unwrap();
    let declared: Vec<&str> = store
        .lines()
        .filter(|line| line.contains("ensure_"))
        .map(str::trim)
        .collect();
    assert_eq!(declared, [r#"store.collection().ensure_unique("hash")?;"#]);
}

#[test]
fn one_launch_body() {
    // Every scheduler, the process driver included, is launched by
    // `Experiment::launch_with`: one submit, one seal. Delivery events
    // reach the launch through each task's sink, an `mpsc::Sender`, so
    // nothing of the launch runs under the coordinator's lock.
    let source = std::fs::read_to_string(repo().join("crates/core/src/experiment.rs")).unwrap();
    let code = source.split("#[cfg(test)]").next().unwrap();
    assert_eq!(code.matches(".submit(").count(), 1, "one submit call site");
    for gone in ["set_event_hook", "seal_remote"] {
        assert!(!source.contains(gone), "experiment.rs names {gone}");
    }
    let cli = std::fs::read_to_string(repo().join("crates/core/src/bin/simart.rs")).unwrap();
    assert!(
        !cli.contains("launch_remote"),
        "the CLI calls launch_remote"
    );
}

#[test]
fn one_params_decoder() {
    // A stored param is read back by the `FromStr` beside its enum in
    // `simart-fullsim`, through `simart::kinds`: a `match` arm on a
    // stored spelling anywhere else is a second decoder that can drift
    // from the first. (`benchmark/` keeps its own until it is unfrozen.)
    let spellings = [
        "kvm",
        "kvmCPU",
        "MESI_Two_Level",
        "ubuntu-18.04",
        "systemd-runlevel5",
    ];
    let enum_modules = [
        "cpu/mod.rs",
        "mem/mod.rs",
        "os.rs",
        "kernel.rs",
        "workload.rs",
    ]
    .map(|module| repo().join("crates/fullsim/src").join(module));
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        files(
            &repo().join(dir),
            &|name| name.ends_with(".rs"),
            &mut sources,
        );
    }
    assert!(sources.len() > 100, "found only {} sources", sources.len());
    for source in sources {
        if enum_modules.contains(&source) {
            continue;
        }
        let text = std::fs::read_to_string(&source).unwrap();
        for (number, line) in text.lines().enumerate() {
            let dense: String = line.split_whitespace().collect();
            for spelling in spellings {
                let quoted = format!("\"{spelling}\"");
                let arm = dense.match_indices(&quoted).any(|(at, _)| {
                    let rest = dense[at + quoted.len()..].trim_start_matches(')');
                    rest.starts_with("=>") || rest.starts_with('|')
                });
                assert!(!arm, "{}:{}: {line}", source.display(), number + 1);
            }
        }
    }
}

/// The part of a source file before its unit tests.
fn non_test(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    text.split("#[cfg(test)]").next().unwrap().to_owned()
}

#[test]
fn one_coordinator() {
    // Supervision is decided in one pure core: `coord.rs` does no I/O,
    // takes no lock and reads no clock, and the thread and process
    // drivers keep no generations, revocations or atomic counters of
    // their own beside it.
    let src = repo().join("crates/tasks/src");
    let core = non_test(&src.join("coord.rs"));
    for banned in [
        "std::thread",
        "std::process",
        "std::net",
        "std::io",
        "Mutex",
        "Condvar",
        "Atomic",
        "Instant::now",
    ] {
        assert!(!core.contains(banned), "coord.rs names {banned}");
    }
    for driver in ["broker.rs", "remote.rs"] {
        let shell = non_test(&src.join(driver));
        for banned in ["next_generation", "fn revoke_lease", "AtomicU64"] {
            assert!(!shell.contains(banned), "{driver} names {banned}");
        }
    }
}
