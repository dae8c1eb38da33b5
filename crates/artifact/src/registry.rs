//! In-memory artifact registry with hash-based deduplication.

use crate::artifact::{Artifact, ArtifactBuilder};
use crate::error::ArtifactError;
use crate::uuid::Uuid;
use std::collections::HashMap;
use std::sync::Arc;

/// Namespace of the name-based id minted for newly registered content.
const ID_NAMESPACE: &str = "simart-artifact";

/// Registry holding every artifact of an experiment session.
///
/// Enforces the paper's uniqueness rules:
///
/// * an artifact is identified by its content hash — registering the same
///   content with identical metadata returns the existing record instead
///   of creating a duplicate;
/// * registering the same content with *different* metadata is an error
///   (duplicate artifacts are not permitted in the database);
/// * content registered for the first time gets the id
///   `Uuid::new_v3("simart-artifact", hash)`, so the same content gets
///   the same id in every session, whatever order it is registered in;
///   changed content at the same path is a new artifact — the hash is
///   the "safety net" of the paper.
///
/// Records read back from a database enter through
/// [`ArtifactRegistry::adopt`] and keep their stored ids.
#[derive(Debug, Default)]
pub struct ArtifactRegistry {
    /// Adopted records first, then registrations in order.
    artifacts: Vec<Arc<Artifact>>,
    by_id: HashMap<Uuid, usize>,
    by_hash: HashMap<String, usize>,
}

impl ArtifactRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an artifact, or returns the existing record when the
    /// identical registration was already made (or adopted).
    ///
    /// # Errors
    ///
    /// * [`ArtifactError::MissingField`] — required metadata absent.
    /// * [`ArtifactError::UnknownInput`] — an input id is unregistered.
    /// * [`ArtifactError::ConflictingDuplicate`] — same content hash
    ///   registered before with different metadata.
    pub fn register(&mut self, builder: ArtifactBuilder) -> Result<Arc<Artifact>, ArtifactError> {
        builder.validate()?;
        if let Some(&input) = builder.inputs.iter().find(|i| !self.by_id.contains_key(i)) {
            return Err(ArtifactError::UnknownInput {
                input,
                artifact: builder.name.clone(),
            });
        }
        let content = builder.content.as_ref().expect("validated above");
        let hash = content.fingerprint().to_hex();
        let git = content.git_info().cloned();

        if let Some(&at) = self.by_hash.get(&hash) {
            let existing = &self.artifacts[at];
            if let Some(conflict) = conflict_between(existing, &builder) {
                return Err(ArtifactError::ConflictingDuplicate {
                    existing: existing.id(),
                    conflict,
                });
            }
            return Ok(Arc::clone(existing));
        }
        let id = Uuid::new_v3(ID_NAMESPACE, &hash);
        Ok(self.adopt(Artifact::from_parts(id, builder, hash, git)))
    }

    /// Holds an already-identified record — one read back from a
    /// database — under its own id, whichever rule minted it, so that
    /// re-registering its content returns it. Nothing is validated: a
    /// stored record's inputs may be missing, which `simart check`
    /// reports. A record whose id or hash is already held is not added;
    /// the held one is returned.
    pub fn adopt(&mut self, artifact: Artifact) -> Arc<Artifact> {
        let held = self
            .by_id
            .get(&artifact.id())
            .or_else(|| self.by_hash.get(artifact.hash()));
        if let Some(&at) = held {
            return Arc::clone(&self.artifacts[at]);
        }
        let at = self.artifacts.len();
        self.by_id.insert(artifact.id(), at);
        self.by_hash.insert(artifact.hash().to_owned(), at);
        self.artifacts.push(Arc::new(artifact));
        Arc::clone(&self.artifacts[at])
    }

    /// Looks up an artifact by id.
    pub fn get(&self, id: Uuid) -> Option<Arc<Artifact>> {
        self.by_id
            .get(&id)
            .map(|&at| Arc::clone(&self.artifacts[at]))
    }

    /// Iterates over all held artifacts: adopted records first, then
    /// registrations in the order they were made.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Artifact>> {
        self.artifacts.iter()
    }

    /// Number of held artifacts.
    pub fn len(&self) -> usize {
        self.artifacts.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.artifacts.is_empty()
    }
}

fn conflict_between(existing: &Artifact, incoming: &ArtifactBuilder) -> Option<String> {
    if existing.name() != incoming.name {
        return Some(format!("name {:?} vs {:?}", existing.name(), incoming.name));
    }
    if existing.kind() != &incoming.kind {
        return Some(format!("kind {} vs {}", existing.kind(), incoming.kind));
    }
    if existing.command() != incoming.command {
        return Some("creation command differs".to_owned());
    }
    if existing.path() != incoming.path {
        return Some(format!("path {:?} vs {:?}", existing.path(), incoming.path));
    }
    if existing.inputs() != incoming.inputs.as_slice() {
        return Some("input set differs".to_owned());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{ArtifactKind, ContentSource};

    fn binary(name: &str, data: &[u8]) -> ArtifactBuilder {
        Artifact::builder(name, ArtifactKind::Binary)
            .command(format!("make {name}"))
            .path(format!("out/{name}"))
            .documentation("test artifact")
            .content(ContentSource::bytes(data.to_vec()))
    }

    #[test]
    fn identical_registration_dedupes() {
        let mut r = ArtifactRegistry::new();
        let a = r.register(binary("tool", b"bits")).unwrap();
        let b = r.register(binary("tool", b"bits")).unwrap();
        assert_eq!(a.id(), b.id());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn changed_content_creates_new_artifact() {
        let mut r = ArtifactRegistry::new();
        let v1 = r.register(binary("tool", b"v1")).unwrap();
        let v2 = r.register(binary("tool", b"v2")).unwrap();
        assert_ne!(v1.id(), v2.id());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn ids_come_from_content_not_registration_order() {
        let mut forward = ArtifactRegistry::new();
        let a = forward.register(binary("a", b"a")).unwrap();
        let b = forward.register(binary("b", b"b")).unwrap();
        let mut backward = ArtifactRegistry::new();
        assert_eq!(backward.register(binary("b", b"b")).unwrap().id(), b.id());
        assert_eq!(backward.register(binary("a", b"a")).unwrap().id(), a.id());
        assert_eq!(a.id(), Uuid::new_v3("simart-artifact", a.hash()));
        assert_eq!(a.id().version(), 3);
    }

    #[test]
    fn adopted_records_keep_their_ids() {
        let mut minted = ArtifactRegistry::new();
        let tool = minted.register(binary("tool", b"bits")).unwrap();
        let stored_id = Uuid::from_bytes([0x42; 16]);
        let stored = Artifact::from_stored(
            stored_id,
            tool.name().to_owned(),
            tool.kind().clone(),
            tool.command().to_owned(),
            tool.cwd().to_owned(),
            tool.path().to_owned(),
            tool.documentation().to_owned(),
            Vec::new(),
            tool.hash().to_owned(),
            None,
        );
        let mut r = ArtifactRegistry::new();
        assert_eq!(r.adopt(stored.clone()).id(), stored_id);
        assert_eq!(r.adopt(stored).id(), stored_id, "adoption is idempotent");
        assert_eq!(r.register(binary("tool", b"bits")).unwrap().id(), stored_id);
        assert!(r.register(binary("renamed", b"bits")).is_err());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn iteration_follows_registration_order() {
        let mut r = ArtifactRegistry::new();
        let names = ["zeta", "alpha", "mid", "beta"];
        for name in names {
            r.register(binary(name, name.as_bytes())).unwrap();
        }
        let seen: Vec<&str> = r.iter().map(|a| a.name()).collect();
        assert_eq!(seen, names);
    }

    #[test]
    fn conflicting_metadata_is_rejected() {
        let mut r = ArtifactRegistry::new();
        r.register(binary("tool", b"bits")).unwrap();
        let err = r.register(binary("other-tool", b"bits")).unwrap_err();
        assert!(matches!(err, ArtifactError::ConflictingDuplicate { .. }));
    }

    #[test]
    fn unknown_input_is_rejected() {
        let mut r = ArtifactRegistry::new();
        let ghost = Uuid::new_v3("test", "ghost");
        let err = r.register(binary("tool", b"x").input(ghost)).unwrap_err();
        assert!(matches!(err, ArtifactError::UnknownInput { .. }));
    }

    #[test]
    fn lookup_by_id() {
        let mut r = ArtifactRegistry::new();
        let a = r.register(binary("tool", b"bits")).unwrap();
        assert_eq!(r.get(a.id()).unwrap().name(), "tool");
        assert!(r.get(Uuid::NIL).is_none());
    }

    #[test]
    fn git_artifacts_record_provenance() {
        let mut r = ArtifactRegistry::new();
        let repo = r
            .register(
                Artifact::builder("repo", ArtifactKind::GitRepo)
                    .documentation("src")
                    .content(ContentSource::git("https://example.org/s.git", "deadbeef")),
            )
            .unwrap();
        let git = repo.git().unwrap();
        assert_eq!(git.url, "https://example.org/s.git");
        assert_eq!(git.revision, "deadbeef");
    }
}
