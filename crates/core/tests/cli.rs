//! End-to-end tests of the `simart` CLI binary.

use std::process::Command;

fn simart(args: &[&str]) -> (String, String, i32) {
    let output = Command::new(env!("CARGO_BIN_EXE_simart"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.code().unwrap_or(-1),
    )
}

#[test]
fn no_arguments_prints_usage() {
    let (_, stderr, code) = simart(&[]);
    assert_eq!(code, 2);
    assert!(stderr.contains("usage: simart"));
}

#[test]
fn catalog_lists_all_resources() {
    let (stdout, _, code) = simart(&["catalog"]);
    assert_eq!(code, 0);
    for name in ["boot-exit", "parsec", "GCN-docker", "gem5-tests"] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn boot_reports_success_and_failure_via_exit_code() {
    let (stdout, _, code) = simart(&[
        "boot", "--cpu", "kvm", "--cores", "4", "--mem", "mesi", "--kernel", "5.4",
    ]);
    assert_eq!(code, 0, "kvm boots everywhere: {stdout}");
    assert!(stdout.contains("outcome       : success"));

    // Atomic CPU on Ruby is the canonical unsupported configuration.
    let (stdout, _, code) = simart(&["boot", "--cpu", "atomic", "--mem", "mi"]);
    assert_eq!(code, 1, "unsupported boot exits nonzero: {stdout}");
    assert!(stdout.contains("unsupported"));
}

#[test]
fn campaign_refuses_suite() {
    // A campaign is a boot campaign: its runs read `[cpu, cores]`, so a
    // suite axis would record params nothing runs.
    let (_, stderr, code) = simart(&["campaign", "--suite", "npb"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown option `--suite`"), "{stderr}");
}

#[test]
fn gpu_subcommand_validates_workloads() {
    let (stdout, _, code) = simart(&["gpu", "2dshfl"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("shader ticks"));

    let (_, stderr, code) = simart(&["gpu", "not-a-kernel"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown GPU workload"));
}

#[test]
fn selftest_passes() {
    let (stdout, _, code) = simart(&["selftest"]);
    assert_eq!(code, 0, "{stdout}");
    assert_eq!(stdout.matches("PASS").count(), 5);
    assert_eq!(stdout.matches("FAIL").count(), 0);
}

#[test]
fn campaign_persists_and_resumes() {
    let dir = std::env::temp_dir().join(format!("simart-cli-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = dir.to_str().unwrap();

    // Session 1: every run fails under a saturating fault injector —
    // this is the "crashed/flaky campaign" whose state is persisted.
    let (stdout, _, code) = simart(&["campaign", "--db", db, "--fault-rate", "1.0"]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("fresh 6"), "{stdout}");
    assert!(stdout.contains("failed 6"), "{stdout}");
    assert!(stdout.contains("database checkpointed"), "{stdout}");

    // Session 2 without --resume: the stored runs are duplicates.
    let (stdout, _, code) = simart(&["campaign", "--db", db]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("skipped duplicates 6"), "{stdout}");

    // Session 3 with --resume and no faults: all six are re-queued
    // under their original records and succeed this time.
    let (stdout, _, code) = simart(&["campaign", "--db", db, "--resume"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("requeued 6"), "{stdout}");
    assert!(stdout.contains("done 6"), "{stdout}");

    // Session 4 with --resume: everything is already done.
    let (stdout, _, code) = simart(&["campaign", "--db", db, "--resume"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("skipped done 6"), "{stdout}");
    assert!(stdout.contains("done 0"), "{stdout}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn remote_scheduler_rejects_the_options_it_would_ignore() {
    for (option, value, instead) in [
        ("--retries", "2", "--max-redeliveries"),
        ("--fault-rate", "0.5", "--kill-rate"),
    ] {
        let (stdout, stderr, code) = simart(&["campaign", "--scheduler", "remote", option, value]);
        assert_eq!(code, 2, "{option}: {stdout}{stderr}");
        assert!(stderr.contains(option), "{stderr}");
        assert!(stderr.contains(instead), "{stderr}");
        assert!(!stdout.contains("campaign:"), "nothing ran: {stdout}");
    }
}

#[test]
fn mistyped_options_are_refused_not_defaulted() {
    // Each of these exited 0 having run something other than what was
    // asked: two workers, no chaos, one core.
    for (args, culprit) in [
        (&["campaign", "--workers", "abc"][..], "--workers"),
        (&["campaign", "--kil-rate", "1.0"], "--kil-rate"),
        (&["campaign", "--retries"], "--retries"),
        (&["boot", "--cores", "x"], "--cores"),
        (&["boot", "--cpu", "k v m"], "--cpu"),
        (&["matrix", "--fast"], "--fast"),
    ] {
        let (stdout, stderr, code) = simart(args);
        assert_eq!(code, 2, "{args:?}: {stdout}{stderr}");
        assert_eq!(stderr.lines().count(), 1, "one line: {stderr}");
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert!(stderr.contains(culprit), "{stderr}");
        assert_eq!(stdout, "", "nothing ran");
    }
}

#[test]
fn matrix_totals_match_figure_8() {
    let (stdout, _, code) = simart(&["matrix"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("| kernel-panic | 27"));
    assert!(stdout.contains("| sim-crash    | 11"));
    assert!(stdout.contains("| deadlock     | 4"));
}

#[test]
fn a_closed_stdout_ends_with_the_sigpipe_status_not_a_panic() {
    // `simart boot … | true`: the reader is gone before the first line.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_simart"))
        .args(["boot", "--cpu", "o3", "--mem", "mesi"])
        .stdout(writer)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(141), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
