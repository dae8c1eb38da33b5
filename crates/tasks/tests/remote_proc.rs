//! Cross-process tests for the remote scheduler: real worker
//! processes, real PIDs, real SIGKILLs.
//!
//! This test binary is its own worker program: when spawned with
//! `SIMART_REMOTE_WORKER` set it runs [`worker_main`] with the test
//! handler registry instead of the test list (hence `harness = false`
//! in Cargo.toml). The coordinator under test therefore exercises the
//! full pipeline — process spawn, Hello/HelloAck handshake,
//! heartbeats, dispatch, result frames, kill + respawn + redelivery —
//! against genuine OS processes.

use simart_tasks::{
    worker_main, HandlerRegistry, RemoteConfig, RemoteScheduler, RemoteTaskSpec, SubmitError,
    SupervisorConfig, TaskState, WorkerCommand, WorkerJob,
};
use std::io::Write;
use std::time::{Duration, Instant};

/// Handlers the worker side of every test resolves against.
fn registry() -> HandlerRegistry {
    let mut registry = HandlerRegistry::new();
    registry.register("echo", |job: &WorkerJob| Ok(job.payload.clone()));
    registry.register("fail", |job: &WorkerJob| Err(job.payload.clone()));
    registry.register("sleep-ms", |job: &WorkerJob| {
        let ms: u64 = job
            .payload
            .parse()
            .map_err(|_| "bad sleep payload".to_owned())?;
        std::thread::sleep(Duration::from_millis(ms));
        Ok("slept".to_owned())
    });
    // Satellite fixture: on first delivery, write a bogus frame (bad
    // CRC) straight onto the wire — the coordinator must kill us and
    // redeliver; the respawned worker's second delivery succeeds.
    registry.register("garbage-once", |job: &WorkerJob| {
        if job.delivery == 1 {
            let mut out = std::io::stdout();
            let _ = out.write_all(&[1, 0, 0, 0, 0, 0, 0, 0, b'Z']);
            let _ = out.flush();
            std::thread::sleep(Duration::from_millis(100));
            Ok("should never be accepted".to_owned())
        } else {
            Ok("recovered".to_owned())
        }
    });
    // Worker-death fixture: die mid-task. Payload "once" dies only on
    // the first delivery; "always" dies on every delivery (driving
    // the task into quarantine).
    registry.register("exit", |job: &WorkerJob| {
        if job.payload == "always" || job.delivery == 1 {
            std::process::exit(17);
        }
        Ok("survived".to_owned())
    });
    registry
}

fn worker_cmd() -> WorkerCommand {
    WorkerCommand::new(std::env::current_exe().expect("own path")).env("SIMART_REMOTE_WORKER", "1")
}

/// Fast supervision for tests: 15 ms heartbeat, 100 ms grace
/// (staleness window = 160 ms).
fn config(max_redeliveries: u32) -> RemoteConfig {
    RemoteConfig {
        supervisor: SupervisorConfig {
            heartbeat: Duration::from_millis(15),
            grace: Duration::from_millis(100),
            max_redeliveries,
            ..SupervisorConfig::default()
        },
        ..RemoteConfig::default()
    }
}

/// After shutdown the worker PID must be fully reaped: either gone
/// from /proc or (PID since reused) no longer a zombie child of us.
fn assert_reaped(pid: u32) {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return; // no such PID: reaped and recycled
    };
    let Some(close) = stat.rfind(')') else { return };
    let mut fields = stat[close + 1..].split_whitespace();
    let state = fields.next().unwrap_or("");
    let ppid = fields.next().unwrap_or("");
    assert!(
        !(state == "Z" && ppid == std::process::id().to_string()),
        "worker pid {pid} left behind as a zombie"
    );
}

fn round_trip_and_failures() {
    let remote = RemoteScheduler::with_config(worker_cmd(), 2, config(0)).unwrap();
    let oks: Vec<_> = (0..8)
        .map(|i| {
            remote
                .submit(RemoteTaskSpec::new(
                    format!("ok-{i}"),
                    "echo",
                    format!("payload-{i}"),
                ))
                .unwrap()
        })
        .collect();
    let err = remote
        .submit(RemoteTaskSpec::new("bad", "fail", "deliberate"))
        .unwrap();
    let unknown = remote
        .submit(RemoteTaskSpec::new("odd", "no-such-kind", ""))
        .unwrap();
    for (i, handle) in oks.into_iter().enumerate() {
        let report = handle.wait();
        assert_eq!(
            report.state,
            TaskState::Succeeded,
            "ok-{i}: {:?}",
            report.error
        );
        assert_eq!(
            report.output.as_deref(),
            Some(format!("payload-{i}").as_str())
        );
        assert_eq!(report.redeliveries, 0);
        assert!(report.lease_events.is_empty());
    }
    let report = err.wait();
    assert_eq!(report.state, TaskState::Failed);
    assert_eq!(report.error.as_deref(), Some("deliberate"));
    let report = unknown.wait();
    assert_eq!(report.state, TaskState::Failed);
    assert!(report.error.unwrap().contains("no handler"));
    let stats = remote.stats();
    assert_eq!(stats.submitted, 10);
    assert_eq!(stats.completed, 10);
    let pids = remote.worker_pids();
    assert!(remote.shutdown(), "drain completes cleanly");
    for pid in pids {
        assert_reaped(pid);
    }
}

/// Satellite: a torn/corrupt frame must not wedge the coordinator —
/// the offending worker is killed and respawned, the lease revoked,
/// and the task redelivered to completion.
fn torn_frame_recovers_via_redelivery() {
    let remote = RemoteScheduler::with_config(worker_cmd(), 1, config(2)).unwrap();
    let before = remote.worker_pids();
    let report = remote
        .submit(RemoteTaskSpec::new("torn", "garbage-once", ""))
        .unwrap()
        .wait();
    assert_eq!(
        report.state,
        TaskState::Succeeded,
        "error: {:?}",
        report.error
    );
    assert_eq!(report.output.as_deref(), Some("recovered"));
    assert!(report.redeliveries >= 1, "recovered via redelivery");
    assert!(
        report.lease_events.iter().any(|e| e.contains("torn-frame")),
        "lease history records the torn frame: {:?}",
        report.lease_events
    );
    let stats = remote.stats();
    assert!(stats.frame_errors >= 1, "frame error counted");
    assert!(stats.respawns >= 1, "worker respawned");
    let after = remote.worker_pids();
    assert_ne!(before, after, "offending worker was replaced");
    remote.shutdown();
    for pid in before.into_iter().chain(after) {
        assert_reaped(pid);
    }
}

/// Worker death mid-task → respawn with bumped generation and
/// redelivery; exhausting the cap quarantines with full lease
/// history.
fn worker_death_redelivers_then_quarantines() {
    let remote = RemoteScheduler::with_config(worker_cmd(), 1, config(1)).unwrap();
    let report = remote
        .submit(RemoteTaskSpec::new("dies-once", "exit", "once"))
        .unwrap()
        .wait();
    assert_eq!(
        report.state,
        TaskState::Succeeded,
        "error: {:?}",
        report.error
    );
    assert_eq!(report.output.as_deref(), Some("survived"));
    assert_eq!(report.redeliveries, 1);
    assert_eq!(
        report.lease_events,
        vec!["delivery:1:worker-died".to_owned()]
    );

    let report = remote
        .submit(RemoteTaskSpec::new("dies-always", "exit", "always"))
        .unwrap()
        .wait();
    assert_eq!(report.state, TaskState::Quarantined);
    assert_eq!(report.redeliveries, 1);
    let error = report.error.unwrap();
    assert!(
        error.contains("redelivery cap (1) exhausted after 2 deliveries"),
        "{error}"
    );
    assert!(error.contains("worker-died"), "{error}");
    assert_eq!(
        report.lease_events,
        vec![
            "delivery:1:worker-died".to_owned(),
            "delivery:2:worker-died".to_owned()
        ]
    );
    let stats = remote.stats();
    assert!(stats.respawns >= 2);
    assert_eq!(stats.dead_lettered, 1);
    remote.shutdown();
}

/// Satellite: drain-vs-abandon side by side, mirroring the
/// `PoolScheduler::shutdown_now()` contrast — and in both modes every
/// child PID must be reaped (no zombies), even mid-task.
fn drain_vs_abandon_reaps_all_pids() {
    // Drain: the in-flight task finishes, the queued one runs too.
    let remote = RemoteScheduler::with_config(worker_cmd(), 1, config(0)).unwrap();
    let pids = remote.worker_pids();
    let busy = remote
        .submit(RemoteTaskSpec::new("busy", "sleep-ms", "200"))
        .unwrap();
    let queued = remote
        .submit(RemoteTaskSpec::new("queued", "sleep-ms", "1"))
        .unwrap();
    assert!(remote.shutdown(), "drain runs all work to completion");
    assert_eq!(busy.wait().state, TaskState::Succeeded);
    assert_eq!(queued.wait().state, TaskState::Succeeded);
    for pid in pids {
        assert_reaped(pid);
    }

    // Abandon: queued work is discarded, the mid-task worker is
    // SIGKILLed, and the PIDs are still reaped.
    let remote = RemoteScheduler::with_config(worker_cmd(), 1, config(0)).unwrap();
    let pids = remote.worker_pids();
    let busy = remote
        .submit(RemoteTaskSpec::new("busy", "sleep-ms", "30000"))
        .unwrap();
    std::thread::sleep(Duration::from_millis(150)); // let it dispatch
    let queued = remote
        .submit(RemoteTaskSpec::new("queued", "sleep-ms", "1"))
        .unwrap();
    let started = Instant::now();
    assert_eq!(remote.shutdown_now(), 1, "one queued job discarded");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "abandon does not drain"
    );
    let busy = busy.wait();
    assert_eq!(busy.state, TaskState::Failed);
    assert!(busy.error.unwrap().contains("scheduler dropped task"));
    assert_eq!(queued.wait().state, TaskState::Failed);
    for pid in pids {
        assert_reaped(pid);
    }
}

/// Bounded-queue backpressure: a full queue blocks up to the submit
/// deadline then errs; shutdown errs immediately.
fn backpressure_deadline_and_shutdown_submit() {
    let mut config = config(0);
    config.queue_capacity = 1;
    config.submit_deadline = Duration::from_millis(120);
    let remote = RemoteScheduler::with_config(worker_cmd(), 1, config).unwrap();
    // Occupy the only worker, then fill the queue to capacity.
    let busy = remote
        .submit(RemoteTaskSpec::new("busy", "sleep-ms", "700"))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // ensure dispatch happened
    let queued = remote
        .submit(RemoteTaskSpec::new("queued", "sleep-ms", "1"))
        .unwrap();
    let started = Instant::now();
    let refused = remote.submit(RemoteTaskSpec::new("overflow", "echo", ""));
    assert_eq!(refused.unwrap_err(), SubmitError::Backpressure);
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_millis(100),
        "blocked before refusing: {waited:?}"
    );
    assert_eq!(busy.wait().state, TaskState::Succeeded);
    assert_eq!(queued.wait().state, TaskState::Succeeded);
    remote.shutdown();
    let refused = remote.submit(RemoteTaskSpec::new("late", "echo", ""));
    assert_eq!(refused.unwrap_err(), SubmitError::Shutdown);
}

/// An idle worker steals queued work from a busy peer's queue.
fn idle_workers_steal_from_busy_peers() {
    let remote = RemoteScheduler::with_config(worker_cmd(), 2, config(0)).unwrap();
    // Pin both workers briefly, then queue a burst: whichever worker
    // frees up first drains its own queue and steals from the other.
    let pins: Vec<_> = (0..2)
        .map(|i| {
            remote
                .submit(RemoteTaskSpec::new(format!("pin-{i}"), "sleep-ms", "250"))
                .unwrap()
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    let burst: Vec<_> = (0..8)
        .map(|i| {
            remote
                .submit(RemoteTaskSpec::new(format!("b-{i}"), "echo", "x"))
                .unwrap()
        })
        .collect();
    for handle in pins.into_iter().chain(burst) {
        assert_eq!(handle.wait().state, TaskState::Succeeded);
    }
    remote.shutdown();
}

/// A worker that stops answering (SIGSTOP: alive, but silent) is
/// declared wedged once its heartbeats go stale — SIGKILLed, reaped,
/// respawned — and the task it held is redelivered.
fn stalled_worker_is_recycled_on_heartbeat_loss() {
    let remote = RemoteScheduler::with_config(worker_cmd(), 1, config(1)).unwrap();
    let stalled = remote.worker_pids()[0];
    let handle = remote
        .submit(RemoteTaskSpec::new("stalls", "sleep-ms", "300"))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while remote.stats().in_flight == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let stopped = std::process::Command::new("kill")
        .args(["-STOP", &stalled.to_string()])
        .status()
        .expect("run kill(1)");
    assert!(stopped.success(), "kill -STOP {stalled}");
    let report = handle.wait();
    assert_eq!(
        report.state,
        TaskState::Succeeded,
        "error: {:?}",
        report.error
    );
    assert_eq!(report.redeliveries, 1);
    assert_eq!(
        report.lease_events,
        vec!["delivery:1:heartbeat-lost".to_owned()]
    );
    assert!(remote.stats().respawns >= 1, "stalled worker was replaced");
    assert!(!remote.worker_pids().contains(&stalled));
    remote.shutdown();
    assert_reaped(stalled);
}

fn main() {
    if std::env::var_os("SIMART_REMOTE_WORKER").is_some() {
        std::process::exit(worker_main(&registry()));
    }
    let tests: &[(&str, fn())] = &[
        ("round_trip_and_failures", round_trip_and_failures),
        (
            "torn_frame_recovers_via_redelivery",
            torn_frame_recovers_via_redelivery,
        ),
        (
            "worker_death_redelivers_then_quarantines",
            worker_death_redelivers_then_quarantines,
        ),
        (
            "drain_vs_abandon_reaps_all_pids",
            drain_vs_abandon_reaps_all_pids,
        ),
        (
            "backpressure_deadline_and_shutdown_submit",
            backpressure_deadline_and_shutdown_submit,
        ),
        (
            "idle_workers_steal_from_busy_peers",
            idle_workers_steal_from_busy_peers,
        ),
        (
            "stalled_worker_is_recycled_on_heartbeat_loss",
            stalled_worker_is_recycled_on_heartbeat_loss,
        ),
    ];
    for (name, test) in tests {
        eprintln!("test remote_proc::{name} ...");
        test();
        eprintln!("test remote_proc::{name} ... ok");
    }
    println!("remote_proc: {} tests passed", tests.len());
}
