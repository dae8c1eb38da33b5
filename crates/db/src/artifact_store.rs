//! Typed persistence of [`simart_artifact::Artifact`] records.
//!
//! The paper's workflow step ①/② is "register all artifacts; associated
//! files are stored in the database as well". [`ArtifactStore`] maps
//! artifact records to documents in an `artifacts` collection (with a
//! unique constraint on the content hash, mirroring the paper's "no
//! duplicate artifacts" rule) and optional payload bytes to the blob
//! store.

use crate::blobstore::BlobKey;
use crate::database::Database;
use crate::error::DbError;
use crate::query::Filter;
use crate::Value;
use simart_artifact::{Artifact, ArtifactId, ArtifactKind, GitInfo};
use std::str::FromStr;
use std::sync::Arc;

/// Artifact ↔ document mapping over a [`Database`].
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    db: Database,
}

impl ArtifactStore {
    /// Collection name used for artifact documents.
    pub const COLLECTION: &'static str = "artifacts";

    /// Wraps a database, installing the hash-uniqueness constraint, the
    /// lookup indexes behind [`find_by_name`](Self::find_by_name) and
    /// [`find_by_kind`](Self::find_by_kind), and the multikey `inputs`
    /// index the provenance-DAG walks ([`dependents`](Self::dependents),
    /// [`dependent_closure`](Self::dependent_closure)) probe instead of
    /// scanning the collection.
    ///
    /// # Errors
    ///
    /// Fails if the database already contains duplicate artifact hashes.
    pub fn new(db: &Database) -> Result<ArtifactStore, DbError> {
        let store = ArtifactStore { db: db.clone() };
        let collection = store.collection();
        collection.ensure_unique("hash")?;
        collection.ensure_index(crate::IndexSpec::hash("name"))?;
        collection.ensure_index(crate::IndexSpec::hash("kind"))?;
        collection.ensure_index(crate::IndexSpec::hash("inputs"))?;
        Ok(store)
    }

    fn collection(&self) -> crate::Collection {
        self.db.collection(Self::COLLECTION)
    }

    /// Persists an artifact record, optionally with its payload bytes.
    ///
    /// Re-saving the identical artifact is a no-op (the paper stores a
    /// file "unless it already exists there").
    ///
    /// # Errors
    ///
    /// Propagates uniqueness violations for distinct artifacts whose
    /// content hashes collide.
    pub fn save(&self, artifact: &Artifact, payload: Option<&[u8]>) -> Result<(), DbError> {
        let doc = artifact_to_doc(artifact, payload.map(|p| self.db.blobs().put(p.to_vec())));
        match self.collection().insert(doc) {
            Ok(()) => Ok(()),
            Err(DbError::DuplicateId { .. }) => Ok(()), // identical record already saved
            Err(other) => Err(other),
        }
    }

    /// Loads an artifact by id.
    ///
    /// # Errors
    ///
    /// [`DbError::NotFound`] when absent; [`DbError::InvalidDocument`]
    /// when the stored document is malformed.
    pub fn load(&self, id: ArtifactId) -> Result<Artifact, DbError> {
        let doc = self
            .collection()
            .get(&id.to_string())
            .ok_or_else(|| DbError::NotFound {
                query: id.to_string(),
            })?;
        doc_to_artifact(&doc)
    }

    /// Loads the payload bytes stored with an artifact, if any.
    pub fn load_payload(&self, id: ArtifactId) -> Option<Arc<[u8]>> {
        let doc = self.collection().get(&id.to_string())?;
        let key = BlobKey::from_hex(doc.at("payload").and_then(Value::as_str)?)?;
        self.db.blobs().get(key)
    }

    /// All stored artifacts with the given name.
    pub fn find_by_name(&self, name: &str) -> Result<Vec<Artifact>, DbError> {
        self.collection()
            .find(&Filter::eq("name", name))
            .iter()
            .map(doc_to_artifact)
            .collect()
    }

    /// All stored artifacts of the given kind.
    pub fn find_by_kind(&self, kind: &ArtifactKind) -> Result<Vec<Artifact>, DbError> {
        self.collection()
            .find(&Filter::eq("kind", kind_str(kind)))
            .iter()
            .map(doc_to_artifact)
            .collect()
    }

    /// Direct dependents of an artifact: every stored artifact that
    /// lists `id` among its `inputs`. One probe of the multikey
    /// `inputs` index (`db.query_planned_index`), never a collection
    /// scan.
    ///
    /// # Errors
    ///
    /// [`DbError::InvalidDocument`] when a stored document is malformed.
    pub fn dependents(&self, id: ArtifactId) -> Result<Vec<Artifact>, DbError> {
        self.collection()
            .find(&Filter::elem_match("inputs", id.to_string()))
            .iter()
            .map(doc_to_artifact)
            .collect()
    }

    /// Transitive dependents of an artifact (the impact set: everything
    /// whose provenance includes `id`), breadth-first, nearest layer
    /// first and `_id`-ordered within a layer. Each frontier step is an
    /// indexed `inputs` probe, so the walk touches only the reachable
    /// region of the DAG — not the whole collection.
    ///
    /// # Errors
    ///
    /// [`DbError::InvalidDocument`] when a stored document is malformed.
    pub fn dependent_closure(&self, id: ArtifactId) -> Result<Vec<Artifact>, DbError> {
        let mut seen = std::collections::BTreeSet::new();
        let mut frontier = std::collections::VecDeque::from([id]);
        let mut out = Vec::new();
        while let Some(node) = frontier.pop_front() {
            let mut layer = self.dependents(node)?;
            layer.sort_by_key(Artifact::id);
            for artifact in layer {
                if seen.insert(artifact.id()) {
                    frontier.push_back(artifact.id());
                    out.push(artifact);
                }
            }
        }
        Ok(out)
    }

    /// Transitive inputs of an artifact (its reproduction closure as
    /// stored), breadth-first from `id` itself. Each step is a primary
    /// key lookup; inputs referencing unstored artifacts are skipped —
    /// the linter (SA0003) reports them, a walk should not fail on
    /// them.
    ///
    /// # Errors
    ///
    /// [`DbError::NotFound`] when `id` itself is not stored;
    /// [`DbError::InvalidDocument`] when a stored document is malformed.
    pub fn input_closure(&self, id: ArtifactId) -> Result<Vec<Artifact>, DbError> {
        let mut seen = std::collections::BTreeSet::from([id]);
        let mut frontier = vec![self.load(id)?];
        let mut out = Vec::new();
        while let Some(artifact) = frontier.pop() {
            for &input in artifact.inputs() {
                if seen.insert(input) {
                    match self.load(input) {
                        Ok(found) => frontier.push(found),
                        Err(DbError::NotFound { .. }) => {}
                        Err(other) => return Err(other),
                    }
                }
            }
            out.push(artifact);
        }
        Ok(out)
    }

    /// Number of stored artifacts.
    pub fn len(&self) -> usize {
        self.collection().len()
    }

    /// Whether no artifacts are stored.
    pub fn is_empty(&self) -> bool {
        self.collection().is_empty()
    }
}

fn kind_str(kind: &ArtifactKind) -> String {
    kind.to_string()
}

fn kind_from_str(s: &str) -> ArtifactKind {
    match s {
        "git repo" => ArtifactKind::GitRepo,
        "binary" => ArtifactKind::Binary,
        "kernel" => ArtifactKind::Kernel,
        "disk image" => ArtifactKind::DiskImage,
        "run script" => ArtifactKind::RunScript,
        "benchmark suite" => ArtifactKind::BenchmarkSuite,
        "environment" => ArtifactKind::Environment,
        "results" => ArtifactKind::Results,
        "run" => ArtifactKind::Run,
        other => {
            let label = other
                .strip_prefix("other(")
                .and_then(|s| s.strip_suffix(')'))
                .unwrap_or(other);
            ArtifactKind::Other(label.to_owned())
        }
    }
}

/// Converts an artifact into its document form.
pub(crate) fn artifact_to_doc(artifact: &Artifact, payload: Option<BlobKey>) -> Value {
    let mut doc = Value::map([
        ("_id", Value::from(artifact.id().to_string())),
        ("name", Value::from(artifact.name())),
        ("kind", Value::from(kind_str(artifact.kind()))),
        ("command", Value::from(artifact.command())),
        ("cwd", Value::from(artifact.cwd())),
        ("path", Value::from(artifact.path())),
        ("documentation", Value::from(artifact.documentation())),
        ("hash", Value::from(artifact.hash())),
        (
            "inputs",
            Value::array(artifact.inputs().iter().map(|i| Value::from(i.to_string()))),
        ),
    ]);
    if let Some(git) = artifact.git() {
        doc.set_at(
            "git",
            Value::map([
                ("url", Value::from(git.url.as_str())),
                ("hash", Value::from(git.revision.as_str())),
            ]),
        );
    }
    if let Some(key) = payload {
        doc.set_at("payload", Value::from(key.to_hex()));
    }
    doc
}

/// Reconstructs an artifact from its document form.
pub(crate) fn doc_to_artifact(doc: &Value) -> Result<Artifact, DbError> {
    let invalid = |why: &str| DbError::InvalidDocument {
        reason: why.to_owned(),
    };
    let str_field = |path: &str| -> Result<String, DbError> {
        doc.at(path)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| invalid(&format!("missing string field `{path}`")))
    };
    let id = ArtifactId::from_str(&str_field("_id")?).map_err(|_| invalid("bad _id"))?;
    let inputs: Result<Vec<ArtifactId>, DbError> = doc
        .at("inputs")
        .and_then(Value::as_array)
        .ok_or_else(|| invalid("missing inputs"))?
        .iter()
        .map(|v| {
            v.as_str()
                .and_then(|s| ArtifactId::from_str(s).ok())
                .ok_or_else(|| invalid("bad input id"))
        })
        .collect();
    let git = doc.at("git").map(|g| -> Result<GitInfo, DbError> {
        Ok(GitInfo {
            url: g
                .at("url")
                .and_then(Value::as_str)
                .ok_or_else(|| invalid("bad git.url"))?
                .to_owned(),
            revision: g
                .at("hash")
                .and_then(Value::as_str)
                .ok_or_else(|| invalid("bad git.hash"))?
                .to_owned(),
        })
    });
    let git = match git {
        Some(result) => Some(result?),
        None => None,
    };
    Ok(Artifact::from_stored(
        id,
        str_field("name")?,
        kind_from_str(&str_field("kind")?),
        str_field("command")?,
        str_field("cwd")?,
        str_field("path")?,
        str_field("documentation")?,
        inputs?,
        str_field("hash")?,
        git,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simart_artifact::{ArtifactRegistry, ContentSource};

    fn sample_registry() -> (ArtifactRegistry, Artifact) {
        let mut registry = ArtifactRegistry::new();
        let repo = registry
            .register(
                Artifact::builder("sim-repo", ArtifactKind::GitRepo)
                    .command("git clone https://example.org/sim.git")
                    .documentation("simulator sources")
                    .content(ContentSource::git("https://example.org/sim.git", "abc123")),
            )
            .unwrap();
        let binary = registry
            .register(
                Artifact::builder("sim-binary", ArtifactKind::Binary)
                    .command("scons build/X86/sim.opt -j8")
                    .cwd("sim/")
                    .path("sim/build/X86/sim.opt")
                    .documentation("optimized simulator binary")
                    .content(ContentSource::bytes(b"\x7fELF".to_vec()))
                    .input(repo.id()),
            )
            .unwrap();
        ((registry), (*binary).clone())
    }

    #[test]
    fn save_load_round_trip_preserves_all_fields() {
        let (_registry, artifact) = sample_registry();
        let db = Database::in_memory();
        let store = ArtifactStore::new(&db).unwrap();
        store.save(&artifact, Some(b"payload-bytes")).unwrap();

        let loaded = store.load(artifact.id()).unwrap();
        assert_eq!(loaded, artifact);
        assert_eq!(
            store.load_payload(artifact.id()).unwrap().as_ref(),
            b"payload-bytes"
        );
    }

    #[test]
    fn resaving_identical_artifact_is_noop() {
        let (_registry, artifact) = sample_registry();
        let db = Database::in_memory();
        let store = ArtifactStore::new(&db).unwrap();
        store.save(&artifact, None).unwrap();
        store.save(&artifact, None).unwrap();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn git_provenance_round_trips() {
        let mut registry = ArtifactRegistry::new();
        let repo = registry
            .register(
                Artifact::builder("repo", ArtifactKind::GitRepo)
                    .documentation("sources")
                    .content(ContentSource::git("https://example.org/x.git", "rev9")),
            )
            .unwrap();
        let db = Database::in_memory();
        let store = ArtifactStore::new(&db).unwrap();
        store.save(&repo, None).unwrap();
        let loaded = store.load(repo.id()).unwrap();
        assert_eq!(loaded.git().unwrap().revision, "rev9");
    }

    #[test]
    fn find_by_name_and_kind() {
        let (_registry, artifact) = sample_registry();
        let db = Database::in_memory();
        let store = ArtifactStore::new(&db).unwrap();
        store.save(&artifact, None).unwrap();
        assert_eq!(store.find_by_name("sim-binary").unwrap().len(), 1);
        assert_eq!(store.find_by_kind(&ArtifactKind::Binary).unwrap().len(), 1);
        assert!(store
            .find_by_kind(&ArtifactKind::Kernel)
            .unwrap()
            .is_empty());
    }

    /// A diamond provenance DAG: repo → {bin, script} → results.
    fn diamond() -> (ArtifactStore, [Artifact; 4]) {
        let mut registry = ArtifactRegistry::new();
        let repo = registry
            .register(
                Artifact::builder("repo", ArtifactKind::GitRepo)
                    .documentation("sources")
                    .content(ContentSource::git("https://example.org/x.git", "rev1")),
            )
            .unwrap();
        let bin = registry
            .register(
                Artifact::builder("bin", ArtifactKind::Binary)
                    .documentation("binary")
                    .content(ContentSource::bytes(b"elf".to_vec()))
                    .input(repo.id()),
            )
            .unwrap();
        let script = registry
            .register(
                Artifact::builder("script", ArtifactKind::RunScript)
                    .documentation("script")
                    .content(ContentSource::bytes(b"#!/bin/sh".to_vec()))
                    .input(repo.id()),
            )
            .unwrap();
        let results = registry
            .register(
                Artifact::builder("results", ArtifactKind::Results)
                    .documentation("stats")
                    .content(ContentSource::bytes(b"stats".to_vec()))
                    .input(bin.id())
                    .input(script.id()),
            )
            .unwrap();
        let db = Database::in_memory();
        let store = ArtifactStore::new(&db).unwrap();
        let arts = [
            (*repo).clone(),
            (*bin).clone(),
            (*script).clone(),
            (*results).clone(),
        ];
        for artifact in &arts {
            store.save(artifact, None).unwrap();
        }
        (store, arts)
    }

    #[test]
    fn dependency_walks_cover_the_reachable_region() {
        let (store, [repo, bin, script, results]) = diamond();
        // Direct dependents of the root: the middle layer only.
        let direct: Vec<_> = store
            .dependents(repo.id())
            .unwrap()
            .iter()
            .map(|a| a.name().to_owned())
            .collect();
        assert_eq!(direct.len(), 2);
        assert!(direct.contains(&"bin".to_owned()));
        assert!(direct.contains(&"script".to_owned()));
        // Transitive dependents of the root: everything else, each
        // exactly once despite the diamond.
        let impact = store.dependent_closure(repo.id()).unwrap();
        assert_eq!(impact.len(), 3);
        assert!(impact.iter().any(|a| a.id() == results.id()));
        // A leaf has no dependents.
        assert!(store.dependents(results.id()).unwrap().is_empty());
        // Input closure from the sink reaches the whole diamond once.
        let closure = store.input_closure(results.id()).unwrap();
        assert_eq!(closure.len(), 4);
        assert!(closure.iter().any(|a| a.id() == repo.id()));
        assert!(closure.iter().any(|a| a.id() == bin.id()));
        assert!(closure.iter().any(|a| a.id() == script.id()));
    }

    #[test]
    fn other_kind_round_trips() {
        assert_eq!(
            kind_from_str(&kind_str(&ArtifactKind::Other("trace".into()))),
            ArtifactKind::Other("trace".into())
        );
        assert_eq!(kind_from_str("kernel"), ArtifactKind::Kernel);
    }

    #[test]
    fn load_missing_artifact_errors() {
        let db = Database::in_memory();
        let store = ArtifactStore::new(&db).unwrap();
        assert!(matches!(
            store.load(ArtifactId::NIL),
            Err(DbError::NotFound { .. })
        ));
    }
}
