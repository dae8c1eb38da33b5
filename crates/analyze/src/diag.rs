//! Diagnostics: stable lint codes, severities, lint-level overrides,
//! and text/JSON rendering.

use simart_codec::json;
use simart_db::Value;
use std::collections::HashSet;
use std::fmt;

/// How bad a finding is. [`Severity::Error`] findings make `simart
/// check` exit non-zero; [`Severity::Warning`] findings do so only
/// under `--deny warnings` (or a per-code `--deny`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not provably broken provenance.
    Warning,
    /// Broken provenance: the database cannot be fully reproduced or
    /// trusted as recorded.
    Error,
}

impl Severity {
    /// The lowercase display name ("warning" / "error").
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Every lint the analysis layer can emit, with a stable `SAxxxx` code.
///
/// Codes are part of the tool's interface: scripts grep for them and
/// `--deny`/`--allow` address them, so codes are never renumbered —
/// retired lints leave holes. `SA00xx` are static provenance lints;
/// `SA01xx` are dynamic-analysis findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// SA0001: a run document references an artifact id that is not in
    /// the artifact collection.
    DanglingArtifactRef,
    /// SA0002: the artifact dependency graph contains a cycle.
    ArtifactCycle,
    /// SA0003: an artifact input references an id that no artifact
    /// document declares (an orphaned DAG node).
    OrphanArtifactInput,
    /// SA0004: a document references a blob key absent from the blob
    /// store (or unparseable).
    MissingBlob,
    /// SA0005: an on-disk blob file's content does not hash to its
    /// file name; `Database::load` silently discards such blobs.
    HashMismatch,
    /// SA0006: a run's provenance event log violates the lifecycle
    /// transition rules (including a terminal status written twice).
    LifecycleViolation,
    /// SA0007: a run entered `Retrying` with no prior failed attempt on
    /// record.
    RetryWithoutFailure,
    /// SA0008: two artifact documents share a content hash — they
    /// should have deduplicated to one registration.
    DuplicateArtifact,
    /// SA0009: two run documents share a run hash — the second should
    /// have been refused as a duplicate experiment.
    DuplicateRunHash,
    /// SA0010: an experiment cross-product resource axis names a
    /// resource absent from the catalog.
    UnknownResource,
    /// SA0011: a run document's `status` field disagrees with a replay
    /// of its event log.
    StatusEventMismatch,
    /// SA0012: the database directory holds journal records (or a torn
    /// journal tail) not yet folded into the checkpoint files — the
    /// campaign that owned it did not finish its checkpoint.
    UnreplayedJournal,
    /// SA0013: a journal insert collides with a checkpoint document of
    /// different content — the checkpoint and the write-ahead journal
    /// disagree about the same `_id`.
    JournalDivergence,
    /// SA0014: a quarantine record is out of sync with its run — the
    /// unreleased dead letter's run is missing, or the run's status is
    /// not `quarantined` (it was re-queued without a release, so its
    /// results may rest on a run the supervisor gave up on).
    QuarantinedRunReferenced,
    /// SA0015: a run's event log records a remote dispatch to a worker
    /// generation that never acked and was never re-delivered,
    /// re-queued, or quarantined — the attempt was orphaned by a
    /// coordinator crash, so the run's recorded status cannot be
    /// trusted to reflect its last delivery.
    OrphanedRemoteAttempt,
    /// SA0016: a run's event log records a checkpoint restore or save
    /// whose content-addressed key disagrees with the `checkpoint-key`
    /// the run's own configuration hashes to — the boot prefix the run
    /// actually used was built from a *different* input, so its results
    /// cannot be attributed to the recorded configuration.
    StaleCheckpoint,
    /// SA0017: a declared secondary index disagrees with the documents
    /// it covers — an entry points at a missing or non-matching
    /// document, a document is missing from its index, or the persisted
    /// index manifest does not match a rebuild from the checkpoint.
    /// Indexes are derived state; divergence means the database was
    /// hand-edited (or a write path has a bug), and queries planned
    /// through the index may silently miss documents.
    IndexDivergence,
    /// SA0018: a run's remote-delivery journal shows a resumed worker
    /// session diverging from the coordinator — an ack for a delivery
    /// the coordinator never dispatched, or the same delivery acked
    /// under two different generations. Either is the signature of a
    /// split-brain resume: two incarnations of a session both believe
    /// they own the delivery.
    SessionResumeDivergence,
}

/// All lint codes, in code order.
pub const ALL_CODES: &[LintCode] = &[
    LintCode::DanglingArtifactRef,
    LintCode::ArtifactCycle,
    LintCode::OrphanArtifactInput,
    LintCode::MissingBlob,
    LintCode::HashMismatch,
    LintCode::LifecycleViolation,
    LintCode::RetryWithoutFailure,
    LintCode::DuplicateArtifact,
    LintCode::DuplicateRunHash,
    LintCode::UnknownResource,
    LintCode::StatusEventMismatch,
    LintCode::UnreplayedJournal,
    LintCode::JournalDivergence,
    LintCode::QuarantinedRunReferenced,
    LintCode::OrphanedRemoteAttempt,
    LintCode::StaleCheckpoint,
    LintCode::IndexDivergence,
    LintCode::SessionResumeDivergence,
];

impl LintCode {
    /// The stable code string, e.g. `"SA0001"`.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::DanglingArtifactRef => "SA0001",
            LintCode::ArtifactCycle => "SA0002",
            LintCode::OrphanArtifactInput => "SA0003",
            LintCode::MissingBlob => "SA0004",
            LintCode::HashMismatch => "SA0005",
            LintCode::LifecycleViolation => "SA0006",
            LintCode::RetryWithoutFailure => "SA0007",
            LintCode::DuplicateArtifact => "SA0008",
            LintCode::DuplicateRunHash => "SA0009",
            LintCode::UnknownResource => "SA0010",
            LintCode::StatusEventMismatch => "SA0011",
            LintCode::UnreplayedJournal => "SA0012",
            LintCode::JournalDivergence => "SA0013",
            LintCode::QuarantinedRunReferenced => "SA0014",
            LintCode::OrphanedRemoteAttempt => "SA0015",
            LintCode::StaleCheckpoint => "SA0016",
            LintCode::IndexDivergence => "SA0017",
            LintCode::SessionResumeDivergence => "SA0018",
        }
    }

    /// The kebab-case lint name, e.g. `"dangling-artifact-ref"`.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::DanglingArtifactRef => "dangling-artifact-ref",
            LintCode::ArtifactCycle => "artifact-cycle",
            LintCode::OrphanArtifactInput => "orphan-artifact-input",
            LintCode::MissingBlob => "missing-blob",
            LintCode::HashMismatch => "hash-mismatch",
            LintCode::LifecycleViolation => "lifecycle-violation",
            LintCode::RetryWithoutFailure => "retry-without-failure",
            LintCode::DuplicateArtifact => "duplicate-artifact",
            LintCode::DuplicateRunHash => "duplicate-run-hash",
            LintCode::UnknownResource => "unknown-resource",
            LintCode::StatusEventMismatch => "status-event-mismatch",
            LintCode::UnreplayedJournal => "unreplayed-journal",
            LintCode::JournalDivergence => "journal-divergence",
            LintCode::QuarantinedRunReferenced => "quarantined-run-referenced",
            LintCode::OrphanedRemoteAttempt => "orphaned-remote-attempt",
            LintCode::StaleCheckpoint => "stale-checkpoint",
            LintCode::IndexDivergence => "index-divergence",
            LintCode::SessionResumeDivergence => "session-resume-divergence",
        }
    }

    /// The severity a finding has unless overridden by [`LintLevels`].
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::RetryWithoutFailure
            | LintCode::DuplicateArtifact
            | LintCode::DuplicateRunHash
            | LintCode::StatusEventMismatch
            | LintCode::UnreplayedJournal
            | LintCode::OrphanedRemoteAttempt
            | LintCode::StaleCheckpoint => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Parses a user-supplied lint spec: a code (`SA0004`, case
    /// insensitive) or a lint name (`missing-blob`).
    pub fn from_spec(spec: &str) -> Option<LintCode> {
        let upper = spec.to_ascii_uppercase();
        ALL_CODES
            .iter()
            .copied()
            .find(|c| c.code() == upper || c.name() == spec)
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.code(), self.name())
    }
}

/// One finding: a lint code, its (possibly overridden) severity, the
/// provenance object it is about, and a human-readable message.
///
/// `Ord` is the *report order* — code, then subject, then message
/// (severity only as a final tiebreak) — defined here once so every
/// consumer (text reports, JSON reports, the incremental-vs-full-scan
/// equivalence tests) sorts identically by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Effective severity (defaults from the code; [`LintLevels`] may
    /// promote it).
    pub severity: Severity,
    /// The object the finding is about, e.g. `run:<uuid>`,
    /// `artifact:<uuid>`, `blob:<hex>`, `axis:<name>`, `object:<id>`.
    pub subject: String,
    /// What is wrong.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic at the code's default severity.
    pub fn new(code: LintCode, subject: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            subject: subject.into(),
            message: message.into(),
        }
    }
}

impl Ord for Diagnostic {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.code, &self.subject, &self.message, self.severity).cmp(&(
            other.code,
            &other.subject,
            &other.message,
            other.severity,
        ))
    }
}

impl PartialOrd for Diagnostic {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {} ({})",
            self.severity,
            self.code.code(),
            self.code.name(),
            self.message,
            self.subject
        )
    }
}

/// The `--deny`/`--allow` lint-level table.
///
/// `allow` suppresses a lint entirely; `deny` promotes it to
/// [`Severity::Error`]; `deny warnings` promotes every warning. An
/// explicit per-code `allow` wins over `deny warnings`.
#[derive(Debug, Clone, Default)]
pub struct LintLevels {
    deny_warnings: bool,
    denied: HashSet<LintCode>,
    allowed: HashSet<LintCode>,
}

impl LintLevels {
    /// An empty table: every lint at its default severity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a `--deny` spec (`warnings`, a code, or a lint name).
    ///
    /// # Errors
    ///
    /// Returns the unrecognized spec.
    pub fn deny(&mut self, spec: &str) -> Result<(), String> {
        if spec == "warnings" {
            self.deny_warnings = true;
            return Ok(());
        }
        let code = LintCode::from_spec(spec).ok_or_else(|| format!("unknown lint '{spec}'"))?;
        self.denied.insert(code);
        self.allowed.remove(&code);
        Ok(())
    }

    /// Registers an `--allow` spec (a code or a lint name).
    ///
    /// # Errors
    ///
    /// Returns the unrecognized spec.
    pub fn allow(&mut self, spec: &str) -> Result<(), String> {
        let code = LintCode::from_spec(spec).ok_or_else(|| format!("unknown lint '{spec}'"))?;
        self.allowed.insert(code);
        self.denied.remove(&code);
        Ok(())
    }

    /// Applies the table: drops allowed findings, promotes denied ones,
    /// and returns the rest sorted deterministically.
    pub fn apply(&self, diagnostics: Vec<Diagnostic>) -> Vec<Diagnostic> {
        let mut kept: Vec<Diagnostic> = diagnostics
            .into_iter()
            .filter(|d| !self.allowed.contains(&d.code))
            .map(|mut d| {
                if self.denied.contains(&d.code)
                    || (self.deny_warnings && d.severity == Severity::Warning)
                {
                    d.severity = Severity::Error;
                }
                d
            })
            .collect();
        sort_diagnostics(&mut kept);
        kept
    }
}

/// Sorts diagnostics into the stable report order — the total order
/// [`Diagnostic`]'s `Ord` defines (code, then subject, then message).
pub fn sort_diagnostics(diagnostics: &mut [Diagnostic]) {
    diagnostics.sort();
}

/// Returns the findings in report order without mutating the caller's
/// slice — how the renderers enforce determinism by construction.
fn in_report_order(diagnostics: &[Diagnostic]) -> Vec<Diagnostic> {
    let mut ordered = diagnostics.to_vec();
    sort_diagnostics(&mut ordered);
    ordered
}

/// Whether any finding is at [`Severity::Error`].
pub fn has_errors(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().any(|d| d.severity == Severity::Error)
}

/// Renders the human-readable report, one finding per line, with a
/// trailing summary line. Findings are emitted in report order
/// regardless of input order.
pub fn render_text(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in in_report_order(diagnostics) {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let errors = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diagnostics.len() - errors;
    out.push_str(&format!(
        "check: {errors} error{}, {warnings} warning{}\n",
        if errors == 1 { "" } else { "s" },
        if warnings == 1 { "" } else { "s" },
    ));
    out
}

/// Renders the machine-readable report as a JSON array of findings,
/// in report order regardless of input order.
pub fn render_json(diagnostics: &[Diagnostic]) -> String {
    let items = in_report_order(diagnostics).into_iter().map(|d| {
        Value::map([
            ("code", Value::from(d.code.code())),
            ("name", Value::from(d.code.name())),
            ("severity", Value::from(d.severity.as_str())),
            ("subject", Value::from(d.subject.clone())),
            ("message", Value::from(d.message.clone())),
        ])
    });
    json::to_json(&Value::array(items))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_names_are_stable_and_unique() {
        let codes: HashSet<&str> = ALL_CODES.iter().map(|c| c.code()).collect();
        let names: HashSet<&str> = ALL_CODES.iter().map(|c| c.name()).collect();
        assert_eq!(codes.len(), ALL_CODES.len());
        assert_eq!(names.len(), ALL_CODES.len());
        let contiguous: Vec<String> = (1..=18).map(|n| format!("SA{n:04}")).collect();
        let in_order: Vec<&str> = ALL_CODES.iter().map(|c| c.code()).collect();
        assert_eq!(in_order, contiguous, "18 codes, SA0001-SA0018");
        assert_eq!(LintCode::from_spec("SA0004"), Some(LintCode::MissingBlob));
        assert_eq!(LintCode::from_spec("sa0004"), Some(LintCode::MissingBlob));
        assert_eq!(
            LintCode::from_spec("missing-blob"),
            Some(LintCode::MissingBlob)
        );
        assert_eq!(LintCode::from_spec("no-such-lint"), None);
    }

    #[test]
    fn levels_allow_deny_and_promote() {
        let mut levels = LintLevels::new();
        levels.deny("warnings").unwrap();
        levels.allow("duplicate-artifact").unwrap();
        levels.deny("SA0009").unwrap();
        assert!(levels.deny("bogus").is_err());
        let diags = vec![
            Diagnostic::new(LintCode::DuplicateArtifact, "hash:x", "dup"),
            Diagnostic::new(LintCode::DuplicateRunHash, "hash:y", "dup run"),
            Diagnostic::new(LintCode::RetryWithoutFailure, "run:z", "retry"),
        ];
        let out = levels.apply(diags);
        assert_eq!(out.len(), 2, "allowed lint dropped");
        assert!(
            out.iter().all(|d| d.severity == Severity::Error),
            "warnings promoted"
        );
    }

    #[test]
    fn renderers_sort_by_construction() {
        // Deliberately out of order: same code, subjects reversed, plus
        // a lower code last. Both renderers must emit report order
        // without the caller sorting first.
        let diags = vec![
            Diagnostic::new(LintCode::MissingBlob, "run:b", "z message"),
            Diagnostic::new(LintCode::MissingBlob, "run:b", "a message"),
            Diagnostic::new(LintCode::MissingBlob, "run:a", "m message"),
            Diagnostic::new(LintCode::DanglingArtifactRef, "run:z", "dangles"),
        ];
        let text = render_text(&diags);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("SA0001"));
        assert!(lines[1].contains("run:a"));
        assert!(lines[2].contains("a message"));
        assert!(lines[3].contains("z message"));
        let json = render_json(&diags);
        let a = json.find("\"SA0001\"").unwrap();
        let b = json.find("a message").unwrap();
        let c = json.find("z message").unwrap();
        assert!(a < b && b < c, "json respects report order");
        // Ord agrees with sort_diagnostics.
        let mut sorted = diags.clone();
        sort_diagnostics(&mut sorted);
        let mut via_ord = diags;
        via_ord.sort();
        assert_eq!(sorted, via_ord);
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut diags = vec![
            Diagnostic::new(LintCode::MissingBlob, "artifact:b", "gone"),
            Diagnostic::new(LintCode::DanglingArtifactRef, "run:a", "dangles"),
        ];
        sort_diagnostics(&mut diags);
        assert_eq!(diags[0].code, LintCode::DanglingArtifactRef);
        let text = render_text(&diags);
        assert!(text.contains("error[SA0001]"));
        assert!(text.contains("2 errors, 0 warnings"));
        let json = render_json(&diags);
        assert!(json.contains("\"SA0004\""));
        assert!(json.contains("\"missing-blob\""));
        assert!(has_errors(&diags));
    }
}
