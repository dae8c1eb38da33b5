//! The provenance-DAG walks must ride the multikey `inputs` index:
//! inside a capture window, a dependent-closure walk bumps
//! `db.query_planned_index` on every frontier step and never falls back
//! to a `db.query_scans` collection scan.
//!
//! This asserts exact counts on the process-global metrics registry, so
//! it is the only test in its binary: sibling test threads querying
//! collections used to inflate the counters. Scoped registries (ROADMAP
//! item 5a) are the real fix; process isolation is the cheap one.

use simart_artifact::{Artifact, ArtifactId, ArtifactKind, ArtifactRegistry, ContentSource};
use simart_db::{ArtifactStore, Database};
use simart_observe as observe;

#[test]
fn dependency_walks_ride_the_inputs_index() {
    // A diamond provenance DAG: repo → {bin, script} → results.
    let mut registry = ArtifactRegistry::new();
    let mut register = |name: &str, kind, inputs: &[ArtifactId]| {
        let builder = Artifact::builder(name, kind)
            .documentation(name)
            .content(ContentSource::bytes(name.as_bytes().to_vec()))
            .inputs(inputs.iter().copied());
        registry.register(builder).unwrap()
    };
    let repo = register("repo", ArtifactKind::GitRepo, &[]);
    let bin = register("bin", ArtifactKind::Binary, &[repo.id()]);
    let script = register("script", ArtifactKind::RunScript, &[repo.id()]);
    let results = register("results", ArtifactKind::Results, &[bin.id(), script.id()]);
    let db = Database::in_memory();
    let store = ArtifactStore::new(&db).unwrap();
    for artifact in [&repo, &bin, &script, &results] {
        store.save(artifact, None).unwrap();
    }

    observe::reset();
    observe::enable();
    let impact = store.dependent_closure(repo.id()).unwrap();
    let closure = store.input_closure(results.id()).unwrap();
    observe::disable();
    assert_eq!(impact.len(), 3);
    assert_eq!(closure.len(), 4);
    let snapshot = observe::snapshot();
    let counter = |name: &str| match snapshot.metrics.get(name) {
        Some(observe::MetricValue::Counter(n)) => *n,
        _ => 0,
    };
    // Frontier probes: repo, bin, script, results — one indexed
    // `inputs` probe each (the input walk uses primary-key gets,
    // which are neither planned nor scans).
    assert_eq!(counter("db.query_planned_index"), 4);
    assert_eq!(counter("db.query_scans"), 0);
}
