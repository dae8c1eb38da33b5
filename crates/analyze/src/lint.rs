//! The provenance linter: a read-only pass over a simart database that
//! cross-checks artifacts, runs, blobs, and event logs against the
//! invariants the write paths are supposed to maintain.
//!
//! The write paths (`ArtifactRegistry`, `RunStore`) enforce these
//! invariants going *forward*; the linter re-derives them over data at
//! rest, so hand-edits, partial saves, version skew, and plain bugs
//! surface as typed [`Diagnostic`]s instead of silent corruption — the
//! static half of the paper's "trust the provenance you recorded"
//! story.

use crate::diag::{Diagnostic, LintCode};
use crate::engine::Engine;
use simart_artifact::Uuid;
use simart_db::{BlobKey, Database, DbError, LoadOptions, LoadReport, Value};
use std::path::Path;

/// Lints an in-memory database, returning all findings sorted in the
/// stable report order. Read-only: looks only at collections that
/// already exist. This is the full-scan entry point of the incremental
/// engine ([`crate::engine`]); `simart check --incremental` reuses the
/// same lint registry against recorded state instead.
pub fn lint_database(db: &Database) -> Vec<Diagnostic> {
    let mut engine = Engine::new();
    engine.full_scan(db);
    engine.diagnostics()
}

/// Lints a database directory on disk: loads it (checkpoint + journal
/// replay), runs [`lint_database`], scans `blobs/` for files whose
/// content does not hash to their file name (SA0005) — exactly the
/// blobs a lenient `Database::load` discards — and inspects the journal
/// state the load reported (SA0012 unreplayed-journal, SA0013
/// journal-divergence). Returns the findings and the load's report.
///
/// # Errors
///
/// Propagates load failures (missing directory, corrupt JSONL).
pub fn lint_dir(dir: &Path) -> Result<(Vec<Diagnostic>, LoadReport), DbError> {
    // Lenient load: the linter's job is to *report* damage, so corrupt
    // documents must not abort the whole pass (SA0005/SA0012/SA0013
    // findings describe them instead).
    let (db, report) = Database::load_with(dir, &LoadOptions::default())?;
    let mut engine = Engine::new();
    engine.full_scan(&db);
    engine.scan_environment(dir, &report);
    Ok((engine.diagnostics(), report))
}

/// Runs the linter against a freshly seeded database containing one
/// instance of every static defect class (plus a clean control
/// database) and verifies each expected code fires — the linter's
/// own smoke test, wired into CI via `simart check --self-test`.
///
/// # Errors
///
/// Returns a description of the first expectation that failed.
pub fn self_test() -> Result<String, String> {
    // A clean database must lint clean.
    let clean = Database::in_memory();
    seed_artifact(&clean, uuid("clean-a"), &[], "hash-clean", None);
    // Remote controls ride along: a re-delivered dispatch superseded by
    // a later one, and a final dispatch that was acked, are both fine.
    seed_run(
        &clean,
        "run-clean",
        "rh-clean",
        "done",
        &[uuid("clean-a")],
        &[
            "status:queued",
            "remote-dispatch:1:g1",
            "remote-dispatch:2:g2",
            "status:running",
            "remote-ack:2:g2",
            // A session reconnect that resumes the same generation is
            // fine (SA0018 control) — the ack above still pairs with
            // its own dispatch.
            "remote-reconnect:7:g2",
            // Checkpoint controls: a restore (or first-boot save) under
            // the key the run's own configuration declared is fine.
            "checkpoint-key:00f0e1d2c3b4a596",
            "checkpoint-restore:00f0e1d2c3b4a596",
            "status:done",
        ],
    );
    // Quarantine controls: a consistent quarantined run and a released
    // dead letter (even for a long-gone run) are both fine — including
    // when the quarantine itself closes an unacked remote dispatch.
    seed_run(
        &clean,
        "run-clean-q",
        "rh-clean-q",
        "quarantined",
        &[],
        &[
            "status:queued",
            "remote-dispatch:1:g1",
            "status:quarantined",
        ],
    );
    seed_dead_letter(&clean, "run-clean-q", false);
    seed_dead_letter(&clean, "run-long-gone", true);
    let diags = lint_database(&clean);
    if !diags.is_empty() {
        return Err(format!("clean database produced findings: {diags:?}"));
    }

    // A dirty database must trip every static lint.
    let db = Database::in_memory();
    // SA0008: duplicate content hash.
    seed_artifact(&db, uuid("dup-1"), &[], "hash-dup", None);
    seed_artifact(&db, uuid("dup-2"), &[], "hash-dup", None);
    // SA0002: cycle a <-> b. SA0003: orphan input on c.
    seed_artifact(&db, uuid("cyc-a"), &[uuid("cyc-b")], "hash-a", None);
    seed_artifact(&db, uuid("cyc-b"), &[uuid("cyc-a")], "hash-b", None);
    seed_artifact(
        &db,
        uuid("art-c"),
        &[uuid("never-registered")],
        "hash-c",
        None,
    );
    // SA0004: payload key absent from the blob store.
    seed_artifact(&db, uuid("art-d"), &[], "hash-d", Some(&"0".repeat(32)));
    // SA0001: run referencing an unknown artifact.
    seed_run(
        &db,
        "run-1",
        "rh-1",
        "done",
        &[uuid("ghost")],
        &["status:queued", "status:running", "status:done"],
    );
    // SA0006: terminal status written twice.
    seed_run(
        &db,
        "run-2",
        "rh-2",
        "done",
        &[],
        &[
            "status:queued",
            "status:running",
            "status:done",
            "status:done",
        ],
    );
    // SA0007: retrying with no prior failed attempt (running -> retrying
    // is itself legal, so only SA0007 fires).
    seed_run(
        &db,
        "run-3",
        "rh-3",
        "retrying",
        &[],
        &["status:queued", "status:running", "status:retrying"],
    );
    // SA0009: duplicate run hash.
    seed_run(&db, "run-4", "rh-dup", "created", &[], &[]);
    seed_run(&db, "run-5", "rh-dup", "created", &[], &[]);
    // SA0011: status field drifted from the event log.
    seed_run(
        &db,
        "run-6",
        "rh-6",
        "done",
        &[],
        &["status:queued", "status:running"],
    );
    // SA0014: an unreleased dead letter whose run was re-queued without
    // a release.
    seed_run(&db, "run-7", "rh-7", "queued", &[], &["status:queued"]);
    seed_dead_letter(&db, "run-7", false);
    // SA0015: a remote dispatch with no ack, redelivery, re-queue, or
    // quarantine after it (the run document froze mid-delivery).
    seed_run(
        &db,
        "run-8",
        "rh-8",
        "running",
        &[],
        &["status:queued", "status:running", "remote-dispatch:1:g1"],
    );
    // SA0016: a checkpoint restore whose key disagrees with the key the
    // run's configuration declared (the boot prefix came from a
    // different input than the one on record).
    seed_run(
        &db,
        "run-9",
        "rh-9",
        "done",
        &[],
        &[
            "status:queued",
            "status:running",
            "checkpoint-key:00f0e1d2c3b4a596",
            "checkpoint-restore:ffffffffffffffff",
            "status:done",
        ],
    );
    // SA0018: session-resume divergence — the same delivery acked under
    // two worker generations (split-brain: two incarnations of one
    // session both believed they owned the work). The second ack also
    // pairs with no dispatch, the other half of the signature.
    seed_run(
        &db,
        "run-10",
        "rh-10",
        "done",
        &[],
        &[
            "status:queued",
            "status:running",
            "remote-dispatch:1:g1",
            "remote-ack:1:g1",
            "remote-ack:1:g2",
            "status:done",
        ],
    );
    // SA0017: a secondary-index entry pointing at a run that does not
    // exist (the write paths can never produce this; the injection
    // stands in for a code or hand-edit bug corrupting maintenance).
    // The spurious candidate id is harmless to other lints: planner
    // probes over-approximate and the full filter is always re-applied.
    let runs = db.collection("runs");
    runs.ensure_index(simart_db::IndexSpec::hash("status"))
        .map_err(|e| format!("declaring self-test index: {e}"))?;
    runs.inject_index_entry("status", "\"done\"", "ghost-run");

    let diags = lint_database(&db);
    let expect = [
        LintCode::DanglingArtifactRef,
        LintCode::ArtifactCycle,
        LintCode::OrphanArtifactInput,
        LintCode::MissingBlob,
        LintCode::LifecycleViolation,
        LintCode::RetryWithoutFailure,
        LintCode::DuplicateArtifact,
        LintCode::DuplicateRunHash,
        LintCode::StatusEventMismatch,
        LintCode::QuarantinedRunReferenced,
        LintCode::OrphanedRemoteAttempt,
        LintCode::StaleCheckpoint,
        LintCode::IndexDivergence,
        LintCode::SessionResumeDivergence,
    ];
    for code in expect {
        if !diags.iter().any(|d| d.code == code) {
            return Err(format!(
                "seeded defect for {code} was not detected; got {diags:?}"
            ));
        }
    }

    // SA0005 needs a database on disk with a tampered blob file, and
    // SA0017's environment pass a checkpoint hand-edited after its
    // save: moving a document to another key of an indexed field leaves
    // the manifest's digest of that index disagreeing with a rebuild.
    let dir = std::env::temp_dir().join(format!("simart-check-selftest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk = Database::in_memory();
    disk.blobs().put(b"intact".to_vec());
    let notes = disk.collection("notes");
    notes
        .ensure_index(simart_db::IndexSpec::hash("topic"))
        .and_then(|()| {
            notes.insert(Value::map([
                ("_id", Value::from("n1")),
                ("topic", Value::from("boot")),
            ]))
        })
        .map_err(|e| format!("seeding self-test index: {e}"))?;
    disk.save(&dir)
        .map_err(|e| format!("saving self-test db: {e}"))?;
    let fake = BlobKey::for_content(b"original content").to_hex();
    std::fs::write(dir.join("blobs").join(fake), b"tampered")
        .map_err(|e| format!("seeding tampered blob: {e}"))?;
    std::fs::write(
        dir.join("notes.jsonl"),
        "{\"_id\":\"n1\",\"topic\":\"perf\"}\n",
    )
    .map_err(|e| format!("seeding edited checkpoint: {e}"))?;
    let (disk_diags, _) = lint_dir(&dir).map_err(|e| format!("linting self-test dir: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    for (code, seeded) in [
        (LintCode::HashMismatch, "tampered blob"),
        (LintCode::IndexDivergence, "hand-edited indexed checkpoint"),
    ] {
        if !disk_diags.iter().any(|d| d.code == code) {
            return Err(format!("{seeded} was not detected; got {disk_diags:?}"));
        }
    }

    // SA0012/SA0013 need a journaled directory: an attached database
    // dropped without a checkpoint leaves journal records behind
    // (SA0012), and a hand-edited checkpoint that disagrees with a
    // journal insert is divergence (SA0013). A collection outside the
    // provenance schema keeps the other lints quiet.
    let jdir = std::env::temp_dir().join(format!(
        "simart-check-selftest-journal-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&jdir);
    {
        let jdb =
            Database::open(&jdir).map_err(|e| format!("opening self-test journal db: {e}"))?;
        jdb.collection("notes")
            .insert(Value::map([
                ("_id", Value::from("n1")),
                ("v", Value::from(1i64)),
            ]))
            .map_err(|e| format!("seeding journaled doc: {e}"))?;
    }
    std::fs::write(jdir.join("notes.jsonl"), "{\"_id\":\"n1\",\"v\":2}\n")
        .map_err(|e| format!("seeding divergent checkpoint: {e}"))?;
    let (journal_diags, _) = lint_dir(&jdir).map_err(|e| format!("linting journaled dir: {e}"))?;
    let _ = std::fs::remove_dir_all(&jdir);
    if !journal_diags
        .iter()
        .any(|d| d.code == LintCode::UnreplayedJournal)
    {
        return Err(format!(
            "unreplayed journal was not detected; got {journal_diags:?}"
        ));
    }
    if !journal_diags
        .iter()
        .any(|d| d.code == LintCode::JournalDivergence)
    {
        return Err(format!(
            "journal divergence was not detected; got {journal_diags:?}"
        ));
    }

    // SA0010 comes from prelaunch cross-product validation.
    let catalog = simart_resources::Catalog::standard();
    let axes = vec![(
        "benchmark".to_owned(),
        vec!["no-such-suite".to_owned(), "npb".to_owned()],
    )];
    let pre = crate::prelaunch::validate_axes(&axes, &catalog);
    if !pre.iter().any(|d| d.code == LintCode::UnknownResource) {
        return Err(format!("unknown resource was not detected; got {pre:?}"));
    }
    if pre.len() != 1 {
        return Err(format!(
            "catalog resource 'npb' was wrongly flagged: {pre:?}"
        ));
    }

    Ok(format!(
        "lint self-test: clean database clean; all {} seeded defect classes detected",
        // + SA0005, SA0010, SA0012, SA0013 seeded outside `expect`.
        expect.len() + 4
    ))
}

fn uuid(name: &str) -> String {
    Uuid::new_v3("simart-analyze-selftest", name).to_string()
}

fn seed_artifact(db: &Database, id: String, inputs: &[String], hash: &str, payload: Option<&str>) {
    let mut doc = Value::map([
        ("_id", Value::from(id)),
        ("name", Value::from("seeded")),
        ("kind", Value::from("binary")),
        ("hash", Value::from(hash)),
        (
            "inputs",
            Value::array(inputs.iter().map(|i| Value::from(i.clone()))),
        ),
    ]);
    if let Some(payload) = payload {
        doc.set_at("payload", Value::from(payload));
    }
    db.collection("artifacts")
        .insert(doc)
        .expect("seeding artifact");
}

fn seed_dead_letter(db: &Database, run_id: &str, released: bool) {
    db.collection("quarantine")
        .insert(Value::map([
            ("_id", Value::from(run_id)),
            ("task", Value::from("seeded/task")),
            ("error", Value::from("seeded: redelivery cap exhausted")),
            ("redeliveries", Value::from(1u32)),
            (
                "leaseEvents",
                Value::array([Value::from("delivery:1:lease-expired")]),
            ),
            ("attempts", Value::from(0u32)),
            ("released", Value::from(released)),
        ]))
        .expect("seeding dead letter");
}

fn seed_run(db: &Database, id: &str, hash: &str, status: &str, inputs: &[String], events: &[&str]) {
    db.collection("runs")
        .insert(Value::map([
            ("_id", Value::from(id)),
            ("hash", Value::from(hash)),
            ("status", Value::from(status)),
            (
                "inputs",
                Value::array(inputs.iter().map(|i| Value::from(i.clone()))),
            ),
            (
                "events",
                Value::array(events.iter().map(|e| Value::from(*e))),
            ),
        ]))
        .expect("seeding run");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        self_test().expect("lint self-test");
    }

    #[test]
    fn empty_database_is_clean() {
        assert!(lint_database(&Database::in_memory()).is_empty());
    }

    #[test]
    fn registry_written_database_is_clean() {
        use simart_artifact::{Artifact, ArtifactKind, ArtifactRegistry, ContentSource};
        let mut registry = ArtifactRegistry::new();
        let repo = registry
            .register(
                Artifact::builder("repo", ArtifactKind::GitRepo)
                    .documentation("src")
                    .content(ContentSource::git("https://x", "rev")),
            )
            .expect("register repo");
        registry
            .register(
                Artifact::builder("bin", ArtifactKind::Binary)
                    .documentation("bin")
                    .content(ContentSource::bytes(b"elf".to_vec()))
                    .input(repo.id()),
            )
            .expect("register binary");
        let db = Database::in_memory();
        let store = simart_db::ArtifactStore::new(&db).expect("store");
        for artifact in registry.iter() {
            store.save(artifact, None).expect("save artifact");
        }
        assert!(lint_database(&db).is_empty());
    }

    #[test]
    fn unreleased_dead_letters_constrain_their_runs() {
        // Missing run: the quarantine points at nothing.
        let db = Database::in_memory();
        seed_dead_letter(&db, "gone", false);
        let diags = lint_database(&db);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::QuarantinedRunReferenced);
        assert!(diags[0].message.contains("missing"), "{}", diags[0].message);
        // Released letters constrain nothing, even with no run.
        let db = Database::in_memory();
        seed_dead_letter(&db, "gone", true);
        assert!(lint_database(&db).is_empty());
        // A consistent quarantined run is clean.
        let db = Database::in_memory();
        seed_run(
            &db,
            "q",
            "rh-q",
            "quarantined",
            &[],
            &["status:queued", "status:quarantined"],
        );
        seed_dead_letter(&db, "q", false);
        assert!(lint_database(&db).is_empty());
    }

    #[test]
    fn orphaned_remote_dispatch_is_flagged_but_closed_ones_are_not() {
        use crate::lints::lint_remote_attempts;
        fn scan(events: &[&str]) -> Vec<Diagnostic> {
            let doc = Value::map([(
                "events",
                Value::array(events.iter().map(|e| Value::from(*e))),
            )]);
            let mut diags = Vec::new();
            lint_remote_attempts(&doc, "run:t", &mut diags);
            diags
        }
        // Open dispatch at end of log: orphaned.
        let diags = scan(&["status:queued", "status:running", "remote-dispatch:2:g3"]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, LintCode::OrphanedRemoteAttempt);
        assert!(
            diags[0].message.contains("delivery 2"),
            "{}",
            diags[0].message
        );
        assert!(
            diags[0].message.contains("generation 3"),
            "{}",
            diags[0].message
        );
        // An ack, a re-queue, or a quarantine closes the dispatch; a
        // later dispatch supersedes (redelivery), so only an open final
        // one counts.
        for closer in ["remote-ack:1:g1", "status:queued", "status:quarantined"] {
            let diags = scan(&["status:queued", "remote-dispatch:1:g1", closer]);
            assert!(
                diags.is_empty(),
                "closer {closer} did not clear the dispatch: {diags:?}"
            );
        }
        let diags = scan(&[
            "remote-dispatch:1:g1",
            "remote-dispatch:2:g2",
            "remote-ack:2:g2",
        ]);
        assert!(diags.is_empty(), "{diags:?}");
        // No remote events at all: nothing to flag.
        assert!(scan(&["status:queued", "status:running", "status:done"]).is_empty());
    }

    #[test]
    fn session_resume_divergence_is_flagged_but_consistent_resumes_are_not() {
        use crate::lints::lint_session_resume;
        fn scan(events: &[&str]) -> Vec<Diagnostic> {
            let doc = Value::map([(
                "events",
                Value::array(events.iter().map(|e| Value::from(*e))),
            )]);
            let mut diags = Vec::new();
            lint_session_resume(&doc, "run:t", &mut diags);
            diags
        }
        // An ack pairing with its own dispatch is clean, including
        // across a reconnect of the same session/generation.
        assert!(scan(&["remote-dispatch:1:g1", "remote-ack:1:g1"]).is_empty());
        assert!(scan(&[
            "remote-dispatch:1:g1",
            "remote-reconnect:7:g1",
            "remote-ack:1:g1",
        ])
        .is_empty());
        // A redelivery acked under its own (bumped) generation is clean.
        assert!(scan(&[
            "remote-dispatch:1:g1",
            "remote-dispatch:2:g2",
            "remote-ack:2:g2",
        ])
        .is_empty());
        // No remote events at all: nothing to flag.
        assert!(scan(&["status:queued", "status:done"]).is_empty());
        // An ack the coordinator never dispatched is divergence.
        let diags = scan(&["remote-dispatch:1:g1", "remote-ack:1:g2"]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, LintCode::SessionResumeDivergence);
        assert!(
            diags[0].message.contains("no matching"),
            "{}",
            diags[0].message
        );
        // The same delivery acked under two generations is split-brain
        // (the second ack here also pairs with a real dispatch, so only
        // the two-generations arm fires).
        let diags = scan(&[
            "remote-dispatch:1:g1",
            "remote-ack:1:g1",
            "remote-dispatch:1:g2",
            "remote-ack:1:g2",
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, LintCode::SessionResumeDivergence);
        assert!(
            diags[0].message.contains("two worker"),
            "{}",
            diags[0].message
        );
        // Re-acking under the SAME generation is idempotent delivery,
        // not divergence (first-report-wins absorbs it).
        assert!(scan(&["remote-dispatch:1:g1", "remote-ack:1:g1", "remote-ack:1:g1",]).is_empty());
    }

    #[test]
    fn stale_checkpoints_are_flagged_but_matching_ones_are_not() {
        use crate::lints::lint_checkpoint_events;
        fn scan(events: &[&str]) -> Vec<Diagnostic> {
            let doc = Value::map([(
                "events",
                Value::array(events.iter().map(|e| Value::from(*e))),
            )]);
            let mut diags = Vec::new();
            lint_checkpoint_events(&doc, "run:t", &mut diags);
            diags
        }
        // Restore and save under the declared key: clean. (A first boot
        // journals key + save; a warm run journals key + restore.)
        assert!(scan(&["checkpoint-key:aa", "checkpoint-save:aa"]).is_empty());
        assert!(scan(&["checkpoint-key:aa", "checkpoint-restore:aa"]).is_empty());
        // No checkpoint events at all: nothing to flag.
        assert!(scan(&["status:queued", "status:done"]).is_empty());
        // A restore under a different key than the configuration
        // declared is stale.
        let diags = scan(&["checkpoint-key:aa", "checkpoint-restore:bb"]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, LintCode::StaleCheckpoint);
        assert!(diags[0].message.contains("bb"), "{}", diags[0].message);
        assert!(diags[0].message.contains("aa"), "{}", diags[0].message);
        // A save with no declared key cannot be tied to the run.
        let diags = scan(&["checkpoint-save:aa"]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, LintCode::StaleCheckpoint);
        assert!(
            diags[0].message.contains("no prior"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn each_seeded_defect_maps_to_its_code() {
        let db = Database::in_memory();
        seed_run(
            &db,
            "r",
            "h",
            "failed",
            &[uuid("nope")],
            &[
                "status:queued",
                "status:done", // queued -> done is illegal
            ],
        );
        let diags = lint_database(&db);
        let codes: Vec<LintCode> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&LintCode::DanglingArtifactRef));
        assert!(codes.contains(&LintCode::LifecycleViolation));
        assert!(codes.contains(&LintCode::StatusEventMismatch));
        assert!(!codes.contains(&LintCode::DuplicateRunHash));
    }
}
