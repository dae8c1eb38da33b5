//! Pins what `simart metrics` reports about the schedulers after fixed
//! CLI campaigns: the set of `broker.*`, `supervisor.*` and `tasks.*`
//! metric names, and every count those names carry.
//!
//! A count that was equal on 20 of 20 runs is pinned exactly. A count
//! that rides on a wall-clock race is pinned as the relation or bound
//! that held on all 20 runs instead, and says so where it is checked:
//! under a seeded `--kill-rate`, a worker can finish its job before
//! the coordinator's SIGKILL lands, and a heartbeat (the remote
//! worker's, or the thread supervisor's tick) races the campaign's
//! length.

use simart_codec::json;
use simart_codec::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// The six boots of `simart campaign`.
const RUNS: i64 = 6;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "simart-scheduler-pins-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `simart campaign` with `args` into a fresh database and returns
/// its scheduler metrics: each name with its counter value, or its
/// observation count for a histogram.
fn campaign_metrics(name: &str, args: &[&str]) -> BTreeMap<String, i64> {
    let dir = temp_dir(name);
    let db = dir.to_str().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_simart"))
        .args(["campaign", "--db", db])
        .args(args)
        .output()
        .expect("running simart campaign");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{name}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("outcomes: done 6, failed 0"),
        "{name}: {stdout}"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_simart"))
        .args(["metrics", "--db", db, "--format", "json"])
        .output()
        .expect("running simart metrics");
    assert!(out.status.success(), "{name}: metrics exit {}", out.status);
    let doc = json::from_json(&String::from_utf8_lossy(&out.stdout)).expect("metrics JSON");
    let _ = std::fs::remove_dir_all(&dir);
    doc.as_array()
        .expect("a list of metrics")
        .iter()
        .filter_map(|metric| {
            let name = metric.at("name").and_then(Value::as_str)?;
            let family = name.split('.').next()?;
            if !["broker", "supervisor", "tasks"].contains(&family) {
                return None;
            }
            let count = metric.at("value").or_else(|| metric.at("count"));
            Some((
                name.to_owned(),
                count.and_then(Value::as_int).expect("a count"),
            ))
        })
        .collect()
}

fn pinned(pairs: &[(&str, i64)]) -> BTreeMap<String, i64> {
    pairs
        .iter()
        .map(|(name, count)| ((*name).to_owned(), *count))
        .collect()
}

#[test]
fn thread_driver_campaigns_are_pinned() {
    // `pool` and `broker` are the same thread driver in the CLI.
    for scheduler in ["pool", "broker"] {
        let mut metrics = campaign_metrics(scheduler, &["--scheduler", scheduler]);
        // The gauge moves only when a worker is detached or reaped,
        // and a clean campaign does neither.
        let detached = metrics.remove("broker.detached_live");
        assert_eq!(detached, None);
        assert_eq!(
            metrics,
            pinned(&[
                ("broker.dequeued", RUNS),
                ("broker.enqueued", RUNS),
                ("broker.queue_latency_us", RUNS),
                ("tasks.executed", RUNS),
                ("tasks.queue_wait_us", RUNS),
                ("tasks.run_time_us", RUNS),
            ]),
            "{scheduler}"
        );
    }
}

#[test]
fn remote_pipe_campaign_is_pinned() {
    // No redelivery, dead letter or respawn on a clean run: those
    // counters are never bumped, so their names are absent.
    let mut metrics = campaign_metrics("pipe", &["--scheduler", "remote"]);
    // Heartbeats arrive every 20 ms, so whether a clean campaign sees
    // any follows its wall time: none on an idle 2-vCPU box, one or two
    // on 7 of 15 runs beside two CPU-bound processes. Not pinned.
    metrics.remove("broker.remote_heartbeats");
    assert_eq!(
        metrics,
        pinned(&[
            ("broker.remote_acks", RUNS),
            ("broker.remote_dispatches", RUNS),
            ("broker.remote_queue_latency_us", RUNS),
            ("broker.remote_submitted", RUNS),
        ])
    );
}

#[test]
fn remote_kill_campaign_keeps_its_relations() {
    let mut metrics = campaign_metrics(
        "kill",
        &[
            "--scheduler",
            "remote",
            "--kill-rate",
            "0.5",
            "--fault-seed",
            "7",
            "--max-redeliveries",
            "12",
        ],
    );
    // Heartbeats follow the campaign's wall time, as above. Not
    // pinned.
    metrics.remove("broker.remote_heartbeats");
    let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
    assert_eq!(
        names,
        [
            "broker.remote_acks",
            "broker.remote_dispatches",
            "broker.remote_kills",
            "broker.remote_queue_latency_us",
            "broker.remote_redelivered",
            "broker.remote_respawns",
            "broker.remote_submitted",
        ]
    );
    let count = |name: &str| metrics[name];
    // Exact: every run is submitted once and acked once.
    assert_eq!(count("broker.remote_submitted"), RUNS);
    assert_eq!(count("broker.remote_acks"), RUNS);
    // Relations, not values: kills 4, redeliveries 4 and dispatches
    // 10 are the usual counts, but a job that finishes before its
    // SIGKILL lands is acked, not redelivered (and its next delivery
    // is never drawn), and a worker killed after the last ack may not
    // be noticed, so not replaced, before shutdown. Every redelivery
    // follows a respawn, which follows a kill, and is one more
    // dispatch.
    let kills = count("broker.remote_kills");
    assert!(kills >= 1, "seed 7 at rate 0.5 draws a kill: {metrics:?}");
    let respawns = count("broker.remote_respawns");
    assert!(respawns <= kills, "{metrics:?}");
    assert!(
        count("broker.remote_redelivered") <= respawns,
        "{metrics:?}"
    );
    assert_eq!(
        count("broker.remote_dispatches"),
        RUNS + count("broker.remote_redelivered"),
        "{metrics:?}"
    );
    assert_eq!(
        count("broker.remote_queue_latency_us"),
        count("broker.remote_dispatches")
    );
}
