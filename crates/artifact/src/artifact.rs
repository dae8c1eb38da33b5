//! The [`Artifact`] record and its builder.

use crate::error::ArtifactError;
use crate::hash::{Digest, Md5};
use crate::uuid::Uuid;
use std::fmt;

/// The role an artifact plays in an experiment.
///
/// Mirrors the free-form `typ` string of the paper's framework, but as a
/// closed enum so experiment code cannot typo a category. [`ArtifactKind::Other`]
/// remains for extensions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ArtifactKind {
    /// A source-code repository (identified by git URL + revision).
    GitRepo,
    /// A compiled simulator or workload binary.
    Binary,
    /// An OS kernel image.
    Kernel,
    /// A bootable disk image.
    DiskImage,
    /// A run/configuration script.
    RunScript,
    /// A packaged benchmark suite.
    BenchmarkSuite,
    /// An execution environment (e.g. a container image).
    Environment,
    /// Results produced by a run.
    Results,
    /// A run record itself (runs are artifacts too).
    Run,
    /// Anything else; carries a user label.
    Other(String),
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactKind::GitRepo => f.write_str("git repo"),
            ArtifactKind::Binary => f.write_str("binary"),
            ArtifactKind::Kernel => f.write_str("kernel"),
            ArtifactKind::DiskImage => f.write_str("disk image"),
            ArtifactKind::RunScript => f.write_str("run script"),
            ArtifactKind::BenchmarkSuite => f.write_str("benchmark suite"),
            ArtifactKind::Environment => f.write_str("environment"),
            ArtifactKind::Results => f.write_str("results"),
            ArtifactKind::Run => f.write_str("run"),
            ArtifactKind::Other(label) => write!(f, "other({label})"),
        }
    }
}

/// Git provenance recorded for repository-backed artifacts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GitInfo {
    /// Upstream repository URL.
    pub url: String,
    /// Revision hash the artifact was produced from.
    pub revision: String,
}

/// Where an artifact's content comes from, for hashing purposes.
///
/// The paper hashes the file at `path` with MD5, or records the git
/// revision for repositories. In this reproduction content is usually
/// synthetic, so inline bytes are the common case; git sources record
/// URL + revision exactly like the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentSource {
    /// Inline content bytes (hashed with MD5).
    Bytes(Vec<u8>),
    /// A git repository: the revision hash *is* the content identity.
    Git(GitInfo),
    /// Content described only by a stable textual descriptor (hashed).
    /// Used for resources whose bytes are generated on demand.
    Descriptor(String),
}

impl ContentSource {
    /// Inline bytes content.
    pub fn bytes(data: Vec<u8>) -> ContentSource {
        ContentSource::Bytes(data)
    }

    /// Git repository content.
    pub fn git(url: impl Into<String>, revision: impl Into<String>) -> ContentSource {
        ContentSource::Git(GitInfo {
            url: url.into(),
            revision: revision.into(),
        })
    }

    /// Descriptor-only content.
    pub fn descriptor(text: impl Into<String>) -> ContentSource {
        ContentSource::Descriptor(text.into())
    }

    /// Computes the content fingerprint for this source.
    pub fn fingerprint(&self) -> Digest {
        match self {
            ContentSource::Bytes(data) => Md5::digest(data),
            ContentSource::Git(info) => {
                let mut h = Md5::new();
                h.update(b"git:");
                h.update(info.url.as_bytes());
                h.update(b"@");
                h.update(info.revision.as_bytes());
                h.finalize()
            }
            ContentSource::Descriptor(text) => {
                let mut h = Md5::new();
                h.update(b"descriptor:");
                h.update(text.as_bytes());
                h.finalize()
            }
        }
    }

    /// Git provenance, when this source is a repository.
    pub fn git_info(&self) -> Option<&GitInfo> {
        match self {
            ContentSource::Git(info) => Some(info),
            _ => None,
        }
    }
}

/// A fully registered artifact.
///
/// Carries the user-supplied reproduction metadata from the paper's
/// `registerArtifact` call (command, cwd, path, documentation, inputs)
/// plus the generated identity attributes (UUID, MD5 hash, git info).
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    id: Uuid,
    name: String,
    kind: ArtifactKind,
    command: String,
    cwd: String,
    path: String,
    documentation: String,
    inputs: Vec<Uuid>,
    hash: String,
    git: Option<GitInfo>,
}

impl Artifact {
    /// Starts building an artifact with the two always-required fields.
    pub fn builder(name: impl Into<String>, kind: ArtifactKind) -> ArtifactBuilder {
        ArtifactBuilder {
            name: name.into(),
            kind,
            command: String::new(),
            cwd: String::new(),
            path: String::new(),
            documentation: String::new(),
            inputs: Vec::new(),
            content: None,
        }
    }

    /// The artifact's unique registration id.
    pub fn id(&self) -> Uuid {
        self.id
    }

    /// The artifact's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The artifact's role.
    pub fn kind(&self) -> &ArtifactKind {
        &self.kind
    }

    /// The command that (re)creates this artifact.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// Directory the creation command runs in.
    pub fn cwd(&self) -> &str {
        &self.cwd
    }

    /// Path of the produced object.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Free-form documentation recorded at registration time.
    pub fn documentation(&self) -> &str {
        &self.documentation
    }

    /// Ids of the artifacts this one was built from.
    pub fn inputs(&self) -> &[Uuid] {
        &self.inputs
    }

    /// Hex MD5 content hash (or git-revision-derived fingerprint).
    pub fn hash(&self) -> &str {
        &self.hash
    }

    /// Git provenance, for repository artifacts.
    pub fn git(&self) -> Option<&GitInfo> {
        self.git.as_ref()
    }

    /// Reconstructs an artifact from previously persisted fields.
    ///
    /// Intended for storage layers that round-trip artifacts through a
    /// database; performs no registry validation.
    #[allow(clippy::too_many_arguments)]
    pub fn from_stored(
        id: Uuid,
        name: String,
        kind: ArtifactKind,
        command: String,
        cwd: String,
        path: String,
        documentation: String,
        inputs: Vec<Uuid>,
        hash: String,
        git: Option<GitInfo>,
    ) -> Artifact {
        Artifact {
            id,
            name,
            kind,
            command,
            cwd,
            path,
            documentation,
            inputs,
            hash,
            git,
        }
    }

    pub(crate) fn from_parts(
        id: Uuid,
        builder: ArtifactBuilder,
        hash: String,
        git: Option<GitInfo>,
    ) -> Artifact {
        Artifact {
            id,
            name: builder.name,
            kind: builder.kind,
            command: builder.command,
            cwd: builder.cwd,
            path: builder.path,
            documentation: builder.documentation,
            inputs: builder.inputs,
            hash,
            git,
        }
    }
}

/// Builder for [`Artifact`] registrations.
///
/// Registration is completed by [`crate::ArtifactRegistry::register`],
/// which assigns the UUID, computes the hash, and enforces dedup rules.
#[derive(Debug, Clone)]
pub struct ArtifactBuilder {
    pub(crate) name: String,
    pub(crate) kind: ArtifactKind,
    pub(crate) command: String,
    pub(crate) cwd: String,
    pub(crate) path: String,
    pub(crate) documentation: String,
    pub(crate) inputs: Vec<Uuid>,
    pub(crate) content: Option<ContentSource>,
}

impl ArtifactBuilder {
    /// Records the command which must be executed to create the artifact.
    pub fn command(mut self, command: impl Into<String>) -> Self {
        self.command = command.into();
        self
    }

    /// Records the directory in which the command should run.
    pub fn cwd(mut self, cwd: impl Into<String>) -> Self {
        self.cwd = cwd.into();
        self
    }

    /// Records the path of the produced object.
    pub fn path(mut self, path: impl Into<String>) -> Self {
        self.path = path.into();
        self
    }

    /// Records the artifact's documentation. Required: the framework's
    /// central goal is that experiments stay understandable later.
    pub fn documentation(mut self, documentation: impl Into<String>) -> Self {
        self.documentation = documentation.into();
        self
    }

    /// Adds one input dependency (must already be registered).
    pub fn input(mut self, input: Uuid) -> Self {
        self.inputs.push(input);
        self
    }

    /// Adds several input dependencies.
    pub fn inputs(mut self, inputs: impl IntoIterator<Item = Uuid>) -> Self {
        self.inputs.extend(inputs);
        self
    }

    /// Sets the content source used for hashing. Required.
    pub fn content(mut self, content: ContentSource) -> Self {
        self.content = Some(content);
        self
    }

    pub(crate) fn validate(&self) -> Result<(), ArtifactError> {
        let missing = |field| ArtifactError::MissingField {
            field,
            artifact: self.name.clone(),
        };
        if self.name.trim().is_empty() {
            return Err(missing("name"));
        }
        if self.documentation.trim().is_empty() {
            return Err(missing("documentation"));
        }
        if self.content.is_none() {
            return Err(missing("content"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_requires_documentation() {
        let b = Artifact::builder("thing", ArtifactKind::Binary)
            .content(ContentSource::bytes(vec![1, 2, 3]));
        assert!(matches!(
            b.validate(),
            Err(ArtifactError::MissingField {
                field: "documentation",
                ..
            })
        ));
    }

    #[test]
    fn builder_requires_content() {
        let b = Artifact::builder("thing", ArtifactKind::Binary).documentation("docs");
        assert!(matches!(
            b.validate(),
            Err(ArtifactError::MissingField {
                field: "content",
                ..
            })
        ));
    }

    #[test]
    fn builder_rejects_blank_name() {
        let b = Artifact::builder("  ", ArtifactKind::Binary)
            .documentation("docs")
            .content(ContentSource::bytes(vec![]));
        assert!(matches!(
            b.validate(),
            Err(ArtifactError::MissingField { field: "name", .. })
        ));
    }

    #[test]
    fn content_fingerprints_are_stable_and_distinct() {
        let a = ContentSource::bytes(b"hello".to_vec()).fingerprint();
        let b = ContentSource::bytes(b"hello".to_vec()).fingerprint();
        let c = ContentSource::bytes(b"world".to_vec()).fingerprint();
        assert_eq!(a, b);
        assert_ne!(a, c);

        let g1 = ContentSource::git("https://x", "abc").fingerprint();
        let g2 = ContentSource::git("https://x", "abd").fingerprint();
        assert_ne!(g1, g2);

        // A descriptor and raw bytes with identical text must not collide:
        // the domain prefix separates them.
        let d = ContentSource::descriptor("hello").fingerprint();
        let raw = ContentSource::bytes(b"hello".to_vec()).fingerprint();
        assert_ne!(d, raw);
    }

    #[test]
    fn kind_display_is_compact() {
        assert_eq!(ArtifactKind::GitRepo.to_string(), "git repo");
        assert_eq!(
            ArtifactKind::Other("trace".into()).to_string(),
            "other(trace)"
        );
    }
}
