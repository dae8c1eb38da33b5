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
use crate::Value;
use simart_artifact::{Artifact, ArtifactId, ArtifactKind, GitInfo};
use std::str::FromStr;

/// Artifact ↔ document mapping over a [`Database`].
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    db: Database,
}

impl ArtifactStore {
    /// Collection name used for artifact documents.
    pub const COLLECTION: &'static str = "artifacts";

    /// Wraps a database, installing the hash-uniqueness constraint —
    /// the collection's only index: artifacts are read by id, or all at
    /// once when a session adopts them.
    ///
    /// # Errors
    ///
    /// Fails if the database already contains duplicate artifact hashes.
    pub fn new(db: &Database) -> Result<ArtifactStore, DbError> {
        let store = ArtifactStore { db: db.clone() };
        store.collection().ensure_unique("hash")?;
        Ok(store)
    }

    fn collection(&self) -> crate::Collection {
        self.db.collection(Self::COLLECTION)
    }

    /// Persists an artifact record, optionally with its payload bytes.
    ///
    /// Re-saving the identical artifact is a no-op (the paper stores a
    /// file "unless it already exists there"): an id is derived from
    /// the content or adopted from this database, so an occupied id
    /// already holds this record.
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

    /// Every stored artifact that decodes, in `_id` order. A malformed
    /// document is skipped here; `simart check` reports it.
    pub fn all(&self) -> Vec<Artifact> {
        self.collection()
            .snapshot()
            .iter()
            .filter_map(|(_, doc)| doc_to_artifact(doc).ok())
            .collect()
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
        ("kind", Value::from(artifact.kind().to_string())),
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
        let payload = db
            .collection(ArtifactStore::COLLECTION)
            .get(&artifact.id().to_string());
        let key = payload.as_ref().and_then(|doc| doc.at("payload")?.as_str());
        let key = BlobKey::from_hex(key.unwrap()).unwrap();
        assert_eq!(db.blobs().get(key).unwrap().as_ref(), b"payload-bytes");
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
    fn all_skips_documents_that_do_not_decode() {
        let (_registry, artifact) = sample_registry();
        let db = Database::in_memory();
        let store = ArtifactStore::new(&db).unwrap();
        store.save(&artifact, None).unwrap();
        db.collection(ArtifactStore::COLLECTION)
            .insert(Value::map([
                ("_id", Value::from("not-a-uuid")),
                ("hash", Value::from("h")),
            ]))
            .unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.all(), vec![artifact]);
    }

    #[test]
    fn other_kind_round_trips() {
        assert_eq!(
            kind_from_str(&ArtifactKind::Other("trace".into()).to_string()),
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
