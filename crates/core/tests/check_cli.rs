//! Golden-file tests for the `simart check` CLI: a clean fixture
//! database exits 0 with empty reports, and every seeded defect class
//! surfaces its stable SA code in both the text and JSON formats, with
//! byte-exact output for a fixed fixture.

use simart::artifact::Uuid;
use simart::db::{BlobKey, Database, Value};
use std::path::PathBuf;
use std::process::{Command, Output};

fn uuid(name: &str) -> String {
    Uuid::new_v3("check-cli", name).to_string()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simart-check-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_check(db_dir: &PathBuf, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simart"))
        .arg("check")
        .arg("--db")
        .arg(db_dir)
        .args(extra)
        .output()
        .expect("running simart check")
}

fn seed_artifact(db: &Database, id: &str, inputs: &[&str], hash: &str, payload: Option<&str>) {
    let mut doc = Value::map([
        ("_id", Value::from(id)),
        ("name", Value::from("fixture")),
        ("kind", Value::from("binary")),
        ("hash", Value::from(hash)),
        (
            "inputs",
            Value::array(inputs.iter().map(|i| Value::from(*i))),
        ),
    ]);
    if let Some(payload) = payload {
        doc.set_at("payload", Value::from(payload));
    }
    db.collection("artifacts")
        .insert(doc)
        .expect("seed artifact");
}

fn seed_run(db: &Database, id: &str, hash: &str, status: &str, inputs: &[&str], events: &[&str]) {
    db.collection("runs")
        .insert(Value::map([
            ("_id", Value::from(id)),
            ("hash", Value::from(hash)),
            ("status", Value::from(status)),
            (
                "inputs",
                Value::array(inputs.iter().map(|i| Value::from(*i))),
            ),
            (
                "events",
                Value::array(events.iter().map(|e| Value::from(*e))),
            ),
        ]))
        .expect("seed run");
}

#[test]
fn clean_database_exits_zero_with_empty_reports() {
    let dir = temp_dir("clean");
    let db = Database::in_memory();
    let a = uuid("clean-artifact");
    seed_artifact(&db, &a, &[], "hash-clean", None);
    seed_run(
        &db,
        "run-1",
        "rh-1",
        "done",
        &[&a],
        &["status:queued", "status:running", "status:done"],
    );
    db.save(&dir).expect("save fixture");

    let text = run_check(&dir, &[]);
    assert_eq!(text.status.code(), Some(0), "{text:?}");
    assert_eq!(
        String::from_utf8_lossy(&text.stdout),
        "check: 0 errors, 0 warnings\n"
    );

    let json = run_check(&dir, &["--format", "json"]);
    assert_eq!(json.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&json.stdout).trim(), "[]");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 100 000-deep line in a checkpoint file is one more corrupt line:
/// the lenient load skips and counts it exactly as it does a torn one,
/// and the check runs to its report instead of overflowing its stack.
#[test]
fn a_deeply_nested_line_is_skipped_like_a_broken_one() {
    let dir = temp_dir("deep");
    let db = Database::in_memory();
    let a = uuid("deep-artifact");
    seed_artifact(&db, &a, &[], "hash-deep", None);
    seed_run(
        &db,
        "run-1",
        "rh-1",
        "done",
        &[&a],
        &["status:queued", "status:running", "status:done"],
    );
    db.save(&dir).expect("save fixture");
    let checkpoint = dir.join("runs.jsonl");
    let clean = std::fs::read_to_string(&checkpoint).expect("read checkpoint");
    let check_with = |line: &str| {
        std::fs::write(&checkpoint, format!("{clean}{line}\n")).expect("write checkpoint");
        run_check(&dir, &[])
    };
    let broken = check_with("{\"broken");
    assert_eq!(broken.status.code(), Some(0), "{broken:?}");
    assert_eq!(
        String::from_utf8_lossy(&broken.stdout),
        "check: 0 errors, 0 warnings\n"
    );
    assert!(
        String::from_utf8_lossy(&broken.stderr).contains("skipped 1 corrupt document line(s)"),
        "{broken:?}"
    );
    let deep = check_with(&format!("{}{}", "[".repeat(100_000), "]".repeat(100_000)));
    assert_eq!(
        (deep.status.code(), &deep.stdout, &deep.stderr),
        (broken.status.code(), &broken.stdout, &broken.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_database_is_a_usage_error() {
    let dir = temp_dir("missing").join("nope");
    let out = run_check(&dir, &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

/// One seeded defect per static lint code; each must surface its SA
/// code in both output formats, and the text report must match the
/// golden rendering byte for byte.
#[test]
fn every_seeded_defect_reports_its_code() {
    let dir = temp_dir("defects");
    let db = Database::in_memory();
    let (cyc_a, cyc_b) = (uuid("cyc-a"), uuid("cyc-b"));
    let orphan = uuid("orphan-input");
    let ghost = uuid("ghost");
    let holder = uuid("orphan-holder");
    // SA0002: cycle. SA0003: orphan input. SA0004: missing payload blob.
    // SA0008: duplicate hash.
    seed_artifact(&db, &cyc_a, &[&cyc_b], "hash-a", None);
    seed_artifact(&db, &cyc_b, &[&cyc_a], "hash-b", None);
    seed_artifact(&db, &holder, &[&orphan], "hash-dup", None);
    seed_artifact(&db, &uuid("dup"), &[], "hash-dup", Some(&"0".repeat(32)));
    // SA0001 + SA0006 + SA0011: dangling input, illegal transition, and
    // a status field that disagrees with the replay.
    seed_run(
        &db,
        "run-bad",
        "rh-bad",
        "done",
        &[&ghost],
        &["status:queued", "status:done"],
    );
    // SA0007: retrying without a failed attempt.
    seed_run(
        &db,
        "run-retry",
        "rh-retry",
        "retrying",
        &[],
        &["status:queued", "status:running", "status:retrying"],
    );
    // SA0009: duplicate run hash.
    seed_run(&db, "run-dup-1", "rh-dup", "created", &[], &[]);
    seed_run(&db, "run-dup-2", "rh-dup", "created", &[], &[]);
    db.save(&dir).expect("save fixture");
    // SA0005: a blob file whose content does not hash to its name.
    let fake = BlobKey::for_content(b"what the file should hold").to_hex();
    std::fs::write(dir.join("blobs").join(&fake), b"tampered").expect("tamper blob");
    let actual_hash = BlobKey::for_content(b"tampered").to_hex();

    let text = run_check(&dir, &[]);
    assert_eq!(text.status.code(), Some(1), "{text:?}");
    let stdout = String::from_utf8_lossy(&text.stdout);
    let golden = format!(
        "error[SA0001] dangling-artifact-ref: input artifact {ghost} is not in the artifact collection (run:run-bad)\n\
         error[SA0002] artifact-cycle: artifact dependency cycle through [{m0}, {m1}] (artifact:{m0})\n\
         error[SA0003] orphan-artifact-input: input {orphan} is referenced by [{holder}] but no artifact document declares it (artifact:{orphan})\n\
         error[SA0004] missing-blob: payload blob {zeros} is not in the blob store (artifact:{dup})\n\
         error[SA0005] hash-mismatch: blob content hashes to {actual_hash}, not to its file name (blob:{fake})\n\
         error[SA0006] lifecycle-violation: event log records illegal transition queued -> done (run:run-bad)\n\
         warning[SA0007] retry-without-failure: run entered retrying with no prior failed attempt on record (run:run-retry)\n\
         warning[SA0008] duplicate-artifact: artifacts [{d0}, {d1}] share content hash hash-dup but were not deduplicated (hash:hash-dup)\n\
         warning[SA0009] duplicate-run-hash: runs [run-dup-1, run-dup-2] share run hash rh-dup; duplicate experiments should be refused (hash:rh-dup)\n\
         check: 6 errors, 3 warnings\n",
        m0 = std::cmp::min(&cyc_a, &cyc_b),
        m1 = std::cmp::max(&cyc_a, &cyc_b),
        zeros = "0".repeat(32),
        dup = uuid("dup"),
        d0 = std::cmp::min(holder.clone(), uuid("dup")),
        d1 = std::cmp::max(holder.clone(), uuid("dup")),
    );
    assert_eq!(stdout, golden);

    let json = run_check(&dir, &["--format", "json"]);
    assert_eq!(json.status.code(), Some(1));
    let json_out = String::from_utf8_lossy(&json.stdout);
    for code in [
        "SA0001", "SA0002", "SA0003", "SA0004", "SA0005", "SA0006", "SA0007", "SA0008", "SA0009",
    ] {
        assert!(stdout.contains(code), "text output lacks {code}: {stdout}");
        assert!(
            json_out.contains(&format!("\"code\":\"{code}\"")),
            "json lacks {code}"
        );
    }
    // SA0011 rides along on run-bad (status 'done' vs replay 'done'?
    // no: replay ends 'done' there). Check it separately below.
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_event_mismatch_is_reported() {
    let dir = temp_dir("sa0011");
    let db = Database::in_memory();
    seed_run(
        &db,
        "run-drift",
        "rh",
        "done",
        &[],
        &["status:queued", "status:running"],
    );
    db.save(&dir).expect("save fixture");
    let out = run_check(&dir, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "warning-only report: {stdout}");
    assert!(
        stdout.contains("warning[SA0011] status-event-mismatch"),
        "{stdout}"
    );

    let json = run_check(&dir, &["--format", "json"]);
    assert!(String::from_utf8_lossy(&json.stdout).contains("\"code\":\"SA0011\""));
    let _ = std::fs::remove_dir_all(&dir);
}

/// One seeded defect per journal-layout, quarantine, and checkpoint
/// lint code (SA0012–SA0016); like the SA0001–SA0011 fixture, the text
/// report must match the golden rendering byte for byte and the JSON
/// report must carry every code.
#[test]
fn journal_and_quarantine_defects_report_their_codes() {
    let dir = temp_dir("journal-defects");
    {
        // Checkpointed base: two unreleased dead letters (one pointing
        // at a missing run, one at a re-queued run — SA0014) and a run
        // whose last remote dispatch was never acked (SA0015).
        let db = Database::in_memory();
        seed_run(&db, "run-requeued", "rh-rq", "created", &[], &[]);
        seed_run(
            &db,
            "run-orphan",
            "rh-orph",
            "running",
            &[],
            &["status:queued", "status:running", "remote-dispatch:3:g2"],
        );
        // …and a run restored from a checkpoint whose key disagrees
        // with the one its configuration declared (SA0016).
        seed_run(
            &db,
            "run-stale",
            "rh-stale",
            "done",
            &[],
            &[
                "status:queued",
                "status:running",
                "checkpoint-key:1111111111111111",
                "checkpoint-restore:2222222222222222",
                "status:done",
            ],
        );
        for letter in ["run-gone", "run-requeued"] {
            db.collection("quarantine")
                .insert(Value::map([
                    ("_id", Value::from(letter)),
                    ("released", Value::from(false)),
                ]))
                .expect("seed dead letter");
        }
        db.save(&dir).expect("save fixture");
    }
    {
        // One journal record not folded into the checkpoints (SA0012)…
        let db = Database::open(&dir).expect("reopen attached");
        seed_run(&db, "run-div", "rh-div", "created", &[], &[]);
    }
    // …that also collides with a hand-written checkpoint version of the
    // same document (SA0013), plus a torn 3-byte tail (second SA0012).
    let checkpoint = dir.join("runs.jsonl");
    let mut runs = std::fs::read_to_string(&checkpoint).expect("read checkpoint");
    runs.push_str("{\"_id\":\"run-div\",\"hash\":\"rh-div-old\"}\n");
    std::fs::write(&checkpoint, runs).expect("rewrite checkpoint");
    let journal = dir.join("journal.log");
    let mut bytes = std::fs::read(&journal).expect("read journal");
    bytes.extend_from_slice(b"xyz");
    std::fs::write(&journal, bytes).expect("tear journal");

    let text = run_check(&dir, &[]);
    assert_eq!(text.status.code(), Some(1), "{text:?}");
    let stdout = String::from_utf8_lossy(&text.stdout);
    let golden =
        "warning[SA0012] unreplayed-journal: journal holds 1 record(s) not folded into the checkpoint files; the owning campaign did not finish (or never ran) its checkpoint (journal:log)\n\
         warning[SA0012] unreplayed-journal: journal ends in a torn tail of 3 byte(s) (interrupted append); records before the tear replay cleanly (journal:tail)\n\
         error[SA0013] journal-divergence: journal insert collides with a checkpoint document of different content; the journal version wins on replay (journal:runs/run-div)\n\
         error[SA0014] quarantined-run-referenced: unreleased dead letter references a run missing from the run collection (run:run-gone)\n\
         error[SA0014] quarantined-run-referenced: run has an unreleased dead letter but status 'created' (re-queued without `simart quarantine --release`?) (run:run-requeued)\n\
         warning[SA0015] orphaned-remote-attempt: last remote dispatch (delivery 3 to worker generation 2) was never acked, re-delivered, or quarantined — orphaned by a coordinator crash? (run:run-orphan)\n\
         warning[SA0016] stale-checkpoint: checkpoint-restore used key 2222222222222222 but the run's configuration hashes to checkpoint key 1111111111111111 — stale checkpoint (input changed since it was saved?) (run:run-stale)\n\
         check: 3 errors, 4 warnings\n";
    assert_eq!(stdout, golden);

    let json = run_check(&dir, &["--format", "json"]);
    assert_eq!(json.status.code(), Some(1));
    let json_out = String::from_utf8_lossy(&json.stdout);
    for code in ["SA0012", "SA0013", "SA0014", "SA0015", "SA0016"] {
        assert!(stdout.contains(code), "text output lacks {code}: {stdout}");
        assert!(
            json_out.contains(&format!("\"code\":\"{code}\"")),
            "json lacks {code}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--incremental` falls back loudly when no state is recorded, resumes
/// silently (and byte-identically) once it is, detects a journal
/// compacted past its cursor, and shares the strict-load one-line
/// precheck with `simart metrics`.
#[test]
fn incremental_check_resumes_and_falls_back_loudly() {
    let dir = temp_dir("incremental");
    {
        let db = Database::open(&dir).expect("create attached db");
        let a = uuid("incr-artifact");
        seed_artifact(&db, &a, &[], "hash-incr", None);
        seed_run(
            &db,
            "run-1",
            "rh-1",
            "done",
            &[&a],
            &["status:queued", "status:running", "status:done"],
        );
    }

    // First incremental run: no recorded state yet → loud full scan
    // that matches the plain scan byte for byte, then records state.
    let full = run_check(&dir, &[]);
    let first = run_check(&dir, &["--incremental"]);
    assert_eq!(first.status.code(), Some(0), "{first:?}");
    assert_eq!(first.stdout, full.stdout);
    assert!(
        String::from_utf8_lossy(&first.stderr)
            .contains("note: falling back to a full scan: no analysis state recorded yet"),
        "{first:?}"
    );

    // Second run resumes from the cursor: same report, no note. The
    // state record it replays over is its own bookkeeping and must not
    // surface as an SA0012 "unreplayed journal" finding.
    let second = run_check(&dir, &["--incremental"]);
    assert_eq!(second.status.code(), Some(0), "{second:?}");
    assert_eq!(second.stdout, full.stdout);
    assert_eq!(
        String::from_utf8_lossy(&second.stderr),
        "",
        "resume is silent"
    );

    // A new defect lands in the journal; the incremental replay picks
    // it up without a fallback and agrees with a fresh full scan.
    let ghost = uuid("incr-ghost");
    {
        let db = Database::open(&dir).expect("reopen attached");
        seed_run(&db, "run-bad", "rh-bad", "created", &[&ghost], &[]);
    }
    let third = run_check(&dir, &["--incremental"]);
    assert_eq!(third.status.code(), Some(1), "{third:?}");
    assert!(
        String::from_utf8_lossy(&third.stdout).contains("error[SA0001]"),
        "{third:?}"
    );
    assert_eq!(String::from_utf8_lossy(&third.stderr), "");
    let fresh = run_check(&dir, &[]);
    assert_eq!(third.stdout, fresh.stdout);

    // Checkpointing compacts the journal past the cursor: loud fallback.
    {
        let db = Database::open(&dir).expect("reopen attached");
        db.checkpoint().expect("checkpoint");
    }
    let compacted = run_check(&dir, &["--incremental"]);
    assert_eq!(compacted.status.code(), Some(1), "{compacted:?}");
    assert!(
        String::from_utf8_lossy(&compacted.stderr).contains(
            "note: falling back to a full scan: journal compacted past the analysis cursor"
        ),
        "{compacted:?}"
    );

    // A corrupt checkpoint document is a strict-load failure: one-line
    // error and exit 2, while the lenient plain check keeps working.
    let checkpoint = dir.join("runs.jsonl");
    let mut runs = std::fs::read_to_string(&checkpoint).expect("read checkpoint");
    runs.push_str("{not json\n");
    std::fs::write(&checkpoint, runs).expect("corrupt checkpoint");
    let corrupt = run_check(&dir, &["--incremental"]);
    assert_eq!(corrupt.status.code(), Some(2), "{corrupt:?}");
    let stderr = String::from_utf8_lossy(&corrupt.stderr);
    assert!(
        stderr.starts_with("error: cannot lint database at"),
        "{stderr}"
    );
    assert!(
        corrupt.stdout.is_empty(),
        "one-line precheck prints no report"
    );
    let lenient = run_check(&dir, &[]);
    assert_eq!(lenient.status.code(), Some(1), "{lenient:?}");

    // And a missing directory is the same usage error as plain check.
    let missing = temp_dir("incremental-missing").join("nope");
    let gone = run_check(&missing, &["--incremental"]);
    assert_eq!(gone.status.code(), Some(2), "{gone:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deny_warnings_makes_warnings_fatal_and_allow_suppresses() {
    let dir = temp_dir("levels");
    let db = Database::in_memory();
    seed_run(&db, "run-dup-1", "rh-dup", "created", &[], &[]);
    seed_run(&db, "run-dup-2", "rh-dup", "created", &[], &[]);
    db.save(&dir).expect("save fixture");

    // Default: a warning, exit 0.
    let out = run_check(&dir, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("warning[SA0009]"));

    // --deny warnings: promoted to error, exit 1.
    let deny = run_check(&dir, &["--deny", "warnings"]);
    assert_eq!(deny.status.code(), Some(1), "{deny:?}");
    assert!(String::from_utf8_lossy(&deny.stdout).contains("error[SA0009]"));

    // --deny by name works too.
    let by_name = run_check(&dir, &["--deny", "duplicate-run-hash"]);
    assert_eq!(by_name.status.code(), Some(1));

    // --allow suppresses the finding entirely.
    let allow = run_check(&dir, &["--allow", "SA0009"]);
    assert_eq!(allow.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&allow.stdout),
        "check: 0 errors, 0 warnings\n"
    );

    // Unknown lint names are usage errors.
    // The retired data-race lint, by code and by name, is unknown too.
    for spec in ["no-such-lint", "sa0101", "data-race"] {
        let bogus = run_check(&dir, &["--deny", spec]);
        assert_eq!(bogus.status.code(), Some(2), "{spec}");
        let stderr = String::from_utf8_lossy(&bogus.stderr);
        assert!(stderr.contains("unknown lint"), "{spec}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `simart campaign --check` lints the campaign's own database after
/// the runs finish and records analysis state past the checkpoint, so
/// the next `simart check --incremental` resumes without a fallback.
#[test]
fn campaign_check_lints_and_records_state_for_incremental() {
    let dir = temp_dir("campaign-check");
    let out = Command::new(env!("CARGO_BIN_EXE_simart"))
        .args(["campaign", "--db", dir.to_str().unwrap(), "--check"])
        .output()
        .expect("campaign runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("check: 0 errors, 0 warnings"), "{stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr)
            .contains("note: falling back to a full scan: no analysis state recorded yet"),
        "first campaign has no prior analysis state: {out:?}"
    );

    let incr = run_check(&dir, &["--incremental"]);
    assert_eq!(incr.status.code(), Some(0), "{incr:?}");
    assert_eq!(
        String::from_utf8_lossy(&incr.stderr),
        "",
        "campaign-recorded state resumes silently"
    );
    assert!(
        String::from_utf8_lossy(&incr.stdout).contains("check: 0 errors"),
        "{incr:?}"
    );

    // A resumed campaign's check also picks the state up incrementally.
    let resumed = Command::new(env!("CARGO_BIN_EXE_simart"))
        .args([
            "campaign",
            "--db",
            dir.to_str().unwrap(),
            "--resume",
            "--check",
        ])
        .output()
        .expect("campaign resumes");
    assert_eq!(resumed.status.code(), Some(0), "{resumed:?}");
    assert!(
        String::from_utf8_lossy(&resumed.stdout).contains("check: 0 errors, 0 warnings"),
        "{resumed:?}"
    );
    assert!(
        !String::from_utf8_lossy(&resumed.stderr).contains("falling back"),
        "resumed campaign check is incremental: {resumed:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// SA0017: an indexed collection's checkpoint is hand-edited after the
/// save, so a scratch rebuild of the index no longer matches the state
/// the `indexes.json` manifest recorded at save time. The rebuild
/// itself succeeds (the edited documents are valid), which is exactly
/// why the manifest comparison — not a load failure — must catch it.
#[test]
fn tampered_checkpoint_is_an_index_divergence() {
    let dir = temp_dir("sa0017");
    let db = Database::in_memory();
    let notes = db.collection("notes");
    notes
        .ensure_index(simart::db::IndexSpec::hash("topic"))
        .expect("declare index");
    for (id, topic) in [("note-1", "boot"), ("note-2", "boot"), ("note-3", "perf")] {
        notes
            .insert(Value::map([
                ("_id", Value::from(id)),
                ("topic", Value::from(topic)),
            ]))
            .expect("seed note");
    }
    db.save(&dir).expect("save fixture");

    // Untampered, the manifest and a rebuild agree: clean report.
    let clean = run_check(&dir, &[]);
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");

    // Hand-edit the checkpoint, moving note-2 to another index key.
    let checkpoint = dir.join("notes.jsonl");
    let text = std::fs::read_to_string(&checkpoint).expect("read checkpoint");
    assert!(
        text.contains("\"_id\":\"note-2\""),
        "fixture layout: {text}"
    );
    let tampered = text
        .lines()
        .map(|line| {
            if line.contains("\"_id\":\"note-2\"") {
                line.replace("\"topic\":\"boot\"", "\"topic\":\"perf\"")
            } else {
                line.to_owned()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    assert_ne!(text, tampered, "the edit must change an indexed field");
    std::fs::write(&checkpoint, tampered).expect("tamper checkpoint");

    let out = run_check(&dir, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let golden = "error[SA0017] index-divergence: persisted index manifest disagrees with an \
         index rebuild from the checkpoint documents; the checkpoint was modified after its \
         save (collection:notes)\n\
         check: 1 error, 0 warnings\n";
    assert_eq!(stdout, golden);

    let json = run_check(&dir, &["--format", "json"]);
    assert_eq!(json.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&json.stdout).contains("\"code\":\"SA0017\""),
        "{json:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// SA0018: a run whose event log shows the same delivery acked under
/// two worker generations — the split-brain signature a diverged
/// session resume leaves behind. The second ack also pairs with no
/// dispatch, so both arms of the lint fire; the text report must match
/// the golden rendering byte for byte.
#[test]
fn session_resume_divergence_is_reported() {
    let dir = temp_dir("sa0018");
    let db = Database::in_memory();
    seed_run(
        &db,
        "run-split",
        "rh-split",
        "done",
        &[],
        &[
            "status:queued",
            "status:running",
            "remote-dispatch:1:g1",
            "remote-ack:1:g1",
            "remote-reconnect:4:g2",
            "remote-ack:1:g2",
            "status:done",
        ],
    );
    db.save(&dir).expect("save fixture");

    let out = run_check(&dir, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let golden = "error[SA0018] session-resume-divergence: delivery 1 was acked under two worker \
         generations (1 and 2) — two incarnations of the session both completed the same \
         delivery (split-brain) (run:run-split)\n\
         error[SA0018] session-resume-divergence: remote-ack for delivery 1 under worker \
         generation 2 has no matching remote-dispatch — a resumed session acked work the \
         coordinator never handed it (split-brain?) (run:run-split)\n\
         check: 2 errors, 0 warnings\n";
    assert_eq!(stdout, golden);

    let json = run_check(&dir, &["--format", "json"]);
    assert_eq!(json.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&json.stdout).contains("\"code\":\"SA0018\""),
        "{json:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn self_test_subcommand_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_simart"))
        .args(["check", "--self-test"])
        .output()
        .expect("running self-test");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("PASS  lint self-test"), "{stdout}");
    assert_eq!(
        stdout.lines().count(),
        1,
        "one PASS line, no SKIP: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.is_empty(),
        "a passing self-test prints nothing else: {stderr}"
    );
}

/// Manifests once recorded every index's rendered entries (`keys`)
/// where they now record one digest. A directory whose manifest has the
/// entries still rebuilds every index on open, checks clean, and still
/// shows a hand-edited checkpoint as SA0017.
#[test]
fn entry_form_index_manifests_load_and_check() {
    use simart::db::{IndexSpec, LoadOptions, INDEX_MANIFEST_FILE};
    let dir = temp_dir("entry-manifest");
    let db = Database::in_memory();
    let notes = db.collection("notes");
    notes
        .ensure_index(IndexSpec::hash("topic"))
        .expect("declare hash index");
    notes
        .ensure_index(IndexSpec::ordered("rank"))
        .expect("declare ordered index");
    for (id, topic, rank) in [
        ("note-1", "boot", 3i64),
        ("note-2", "boot", 1),
        ("note-3", "perf", 2),
    ] {
        notes
            .insert(Value::map([
                ("_id", Value::from(id)),
                ("topic", Value::from(topic)),
                ("rank", Value::from(rank)),
            ]))
            .expect("seed note");
    }
    db.save(&dir).expect("save fixture");
    // The entry form is `index_state()` per collection, as written then.
    let manifest = Value::map([("collections", Value::map([("notes", notes.index_state())]))]);
    let manifest_path = dir.join(INDEX_MANIFEST_FILE);
    std::fs::write(
        &manifest_path,
        format!("{}\n", simart_codec::json::to_json(&manifest)),
    )
    .expect("write entry-form manifest");
    assert!(std::fs::read_to_string(&manifest_path)
        .expect("read manifest")
        .contains("\"keys\""));

    let (reopened, report) =
        Database::open_with(&dir, &LoadOptions::default()).expect("open entry-form directory");
    assert_eq!(report.indexes_rebuilt, 2, "{report:?}");
    assert_eq!(
        reopened.collection("notes").index_state(),
        notes.index_state()
    );
    drop(reopened);

    let clean = run_check(&dir, &[]);
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");

    let checkpoint = dir.join("notes.jsonl");
    let text = std::fs::read_to_string(&checkpoint).expect("read checkpoint");
    let tampered = text.replace("\"rank\":1", "\"rank\":7");
    assert_ne!(text, tampered, "the edit must change an indexed field");
    std::fs::write(&checkpoint, tampered).expect("tamper checkpoint");
    let out = run_check(&dir, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("error[SA0017] index-divergence"),
        "{out:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
