//! Golden-file tests for the `simart metrics` CLI and an end-to-end
//! check that `simart campaign --trace-out` produces a valid Chrome
//! trace whose metrics are inspectable afterwards.
//!
//! The text-report test is byte-exact on purpose: the report is the
//! stable human interface to recorded metrics, and any formatting
//! drift should be a conscious decision, not an accident.

use simart::db::{Database, Value};
use simart::metrics::persist_snapshot;
use simart::observe::{HistogramSnapshot, MetricValue, Snapshot};
use simart_codec::json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("simart-metrics-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_simart(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simart"))
        .args(args)
        .output()
        .expect("running simart")
}

fn run_metrics(db_dir: &Path, extra: &[&str]) -> Output {
    let mut args = vec!["metrics", "--db", db_dir.to_str().unwrap()];
    args.extend_from_slice(extra);
    run_simart(&args)
}

/// A deterministic snapshot exercising all three metric kinds. The
/// histogram's three observations all land in the 10 000 µs bucket, so
/// every reported quantile is exactly that bucket's bound.
fn fixture_snapshot() -> Snapshot {
    let mut snapshot = Snapshot::default();
    snapshot
        .metrics
        .insert("sim.boots".to_owned(), MetricValue::Counter(6));
    snapshot
        .metrics
        .insert("pool.depth".to_owned(), MetricValue::Gauge(-2));
    let mut h = HistogramSnapshot::empty();
    h.count = 3;
    h.sum_us = 27_500;
    h.buckets[12] = 3; // the 10_000 µs bucket
    snapshot
        .metrics
        .insert("db.checkpoint_us".to_owned(), MetricValue::Histogram(h));
    snapshot
}

fn seed_fixture_db(dir: &Path) -> Snapshot {
    let db = Database::in_memory();
    let snapshot = fixture_snapshot();
    persist_snapshot(&db, &snapshot).expect("seed metrics");
    db.save(dir).expect("save fixture db");
    snapshot
}

#[test]
fn text_report_is_byte_exact() {
    let dir = temp_dir("golden-text");
    seed_fixture_db(&dir);
    let out = run_metrics(&dir, &[]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = "histogram  db.checkpoint_us: count 3, sum 27500us, \
                  p50 10000us, p95 10000us, p99 10000us\n\
                  gauge      pool.depth = -2\n\
                  counter    sim.boots = 6\n\
                  metrics: 3 recorded\n";
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden);
}

#[test]
fn json_report_matches_library_rendering() {
    let dir = temp_dir("golden-json");
    let snapshot = seed_fixture_db(&dir);
    let out = run_metrics(&dir, &["--format", "json"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The CLI reconstructs the snapshot from persisted documents; its
    // JSON must round-trip to the library rendering of the original.
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("{}\n", snapshot.render_json())
    );
}

#[test]
fn database_without_metrics_reports_zero() {
    let dir = temp_dir("no-metrics");
    let db = Database::in_memory();
    db.collection("runs")
        .insert(Value::map([("_id", Value::from("r0"))]))
        .expect("seed run");
    db.save(&dir).expect("save db");
    let out = run_metrics(&dir, &[]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "metrics: 0 recorded\n"
    );
}

#[test]
fn nonexistent_database_is_exit_2_with_one_line_error() {
    let dir = temp_dir("missing"); // never created
    let out = run_metrics(&dir, &[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no database at"), "stderr: {stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "one line: {stderr}");
}

#[test]
fn torn_database_is_exit_2_with_one_line_error() {
    let dir = temp_dir("torn");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("metrics.jsonl"), "{\"_id\": \"truncated").unwrap();
    let out = run_metrics(&dir, &[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error:"), "stderr: {stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "one line: {stderr}");
}

#[test]
fn malformed_metric_document_is_exit_2() {
    let dir = temp_dir("bad-doc");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("metrics.jsonl"),
        "{\"_id\": \"weird\", \"kind\": \"sparkline\"}\n",
    )
    .unwrap();
    let out = run_metrics(&dir, &[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown kind"), "stderr: {stderr}");
}

#[test]
fn missing_db_flag_is_a_usage_error() {
    let out = run_simart(&["metrics"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage:"));
}

#[test]
fn unknown_format_is_a_usage_error() {
    let dir = temp_dir("bad-format");
    seed_fixture_db(&dir);
    let out = run_metrics(&dir, &["--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2));
}

/// End-to-end: run a campaign with a database and a trace file, then
/// inspect it. This pins the two headline acceptance behaviours — the
/// trace is a valid Chrome `trace_event` document, and `simart
/// metrics` reports the scheduler queue-wait and db-save histograms.
#[test]
fn campaign_trace_and_metrics_end_to_end() {
    let dir = temp_dir("e2e");
    let trace_path = temp_dir("e2e-trace").with_extension("json");
    let out = run_simart(&[
        "campaign",
        "--db",
        dir.to_str().unwrap(),
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("metrics:"), "stdout: {stdout}");
    assert!(stdout.contains("trace written to"), "stdout: {stdout}");

    // The trace must be well-formed JSON in Chrome trace_event shape.
    let text = std::fs::read_to_string(&trace_path).expect("trace file exists");
    let trace = json::from_json(&text).expect("trace parses as JSON");
    let events = trace
        .at("traceEvents")
        .and_then(Value::as_array)
        .expect("trace has a traceEvents array");
    assert!(!events.is_empty(), "trace records at least one event");
    for event in events {
        let ph = event
            .at("ph")
            .and_then(Value::as_str)
            .expect("event has ph");
        assert!(ph == "X" || ph == "i", "unexpected phase {ph}");
        assert_eq!(event.at("cat").and_then(Value::as_str), Some("simart"));
        assert!(
            event.at("ts").and_then(Value::as_int).is_some(),
            "event has ts"
        );
        if ph == "X" {
            assert!(
                event.at("dur").and_then(Value::as_int).is_some(),
                "span has dur"
            );
        }
    }

    // The recorded metrics are inspectable afterwards and include the
    // scheduler queue-wait and journal-append histograms (the campaign
    // runs attached, so run-state transitions append to the journal
    // inside the capture window).
    let report = run_metrics(&dir, &[]);
    assert!(report.status.success());
    let text = String::from_utf8_lossy(&report.stdout);
    assert!(
        text.contains("histogram  tasks.queue_wait_us:"),
        "report: {text}"
    );
    assert!(
        text.contains("histogram  db.journal_append_us:"),
        "report: {text}"
    );
    assert!(text.contains("counter    sim.boots"), "report: {text}");
}
