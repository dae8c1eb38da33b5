//! Error type for artifact registration.

use crate::uuid::Uuid;
use std::fmt;

/// Errors produced while registering artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArtifactError {
    /// A required builder field was left empty.
    MissingField {
        /// Name of the missing field.
        field: &'static str,
        /// Artifact name supplied to the builder (may itself be empty).
        artifact: String,
    },
    /// An artifact with the same content hash but conflicting metadata is
    /// already registered. The paper forbids duplicate artifacts in the
    /// database; matching metadata silently dedupes instead.
    ConflictingDuplicate {
        /// The existing registration the new one collides with.
        existing: Uuid,
        /// Human-readable description of the first conflicting attribute.
        conflict: String,
    },
    /// An `inputs` edge references an artifact id that has not been
    /// registered.
    UnknownInput {
        /// The dangling input id.
        input: Uuid,
        /// Name of the artifact being registered.
        artifact: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::MissingField { field, artifact } => {
                write!(
                    f,
                    "artifact {artifact:?} is missing required field `{field}`"
                )
            }
            ArtifactError::ConflictingDuplicate { existing, conflict } => {
                write!(
                    f,
                    "content already registered as {existing} with different metadata: {conflict}"
                )
            }
            ArtifactError::UnknownInput { input, artifact } => {
                write!(f, "artifact {artifact:?} lists unregistered input {input}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}
