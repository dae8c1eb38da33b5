//! # simart-tasks
//!
//! Task scheduling for simulation runs — the analogue of the paper's
//! `gem5art-tasks` package, which hands run objects to Celery, the
//! Python `multiprocessing` library, or no scheduler at all.
//!
//! Two executors. In process there is one — a queue drained by
//! supervised worker threads — behind the three [`Scheduler`] names the
//! paper's modes call for; they differ only in how it is started, so a
//! task means the same thing on each:
//!
//! * [`SerialScheduler`] — one worker, and `submit` returns when the
//!   task has settled ("no job scheduler at all");
//! * [`PoolScheduler`] — `n` workers (the `multiprocessing` analogue);
//! * [`BrokerScheduler`] — `n` workers and a chosen
//!   [`SupervisorConfig`], e.g. with redelivery (the Celery analogue).
//!
//! [`RemoteScheduler`] is the same delivery contract, and the fourth
//! [`Scheduler`], over crash-isolated worker *processes* (pipes or
//! TCP). A closure cannot cross a process boundary, so it ships a
//! task's wire form ([`Task::wire`]) instead, and tells the task's
//! sink ([`Task::events_to`]) each delivery event.
//!
//! Every submission returns a [`TaskHandle`] whose
//! [`TaskHandle::wait`] yields the final [`TaskReport`]. Like the
//! paper's framework, a task that exceeds its timeout is *terminated*
//! (reported as [`TaskState::TimedOut`]) rather than left to run the
//! cluster dry. The timeout bounds each attempt and is enforced in one
//! place on every scheduler: the lease below.
//!
//! Fault tolerance is first-class: a [`RetryPolicy`] gives tasks
//! deterministic backoff schedules (fixed or doubling, with a cap),
//! and a seeded
//! [`FaultInjector`] deterministically injects panics, spurious
//! errors, and delays to exercise those paths. Reports carry the full
//! per-attempt history ([`AttemptRecord`]), which is bit-identical
//! across runs with equal seeds.
//!
//! Every scheduler *supervises* its workers, and the contract is
//! written once, in the crate-private `lease` module: waiting jobs
//! form one queue, oldest first; every delivery holds a lease; a
//! heartbeat supervisor redelivers work whose lease expired or whose
//! worker died (up to [`SupervisorConfig::max_redeliveries`]) and
//! replaces the worker; the first report wins; and a task that
//! exhausts redelivery is dead-lettered as [`TaskState::Quarantined`]. See
//! [`BrokerScheduler::with_config`] and [`RemoteScheduler`].
//!
//! ```
//! use simart_tasks::{PoolScheduler, Scheduler, Task};
//!
//! let pool = PoolScheduler::new(4);
//! let handles: Vec<_> = (0..8)
//!     .map(|i| pool.submit(Task::new(format!("sim-{i}"), move || Ok(format!("ticks={}", i * 100)))))
//!     .collect();
//! for handle in handles {
//!     assert!(handle.wait().state.is_success());
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod broker;
mod coord;
mod fault;
mod lease;
mod pool;
pub mod remote;
mod retry;
mod serial;
mod supervise;
mod task;
pub mod transport;
pub mod wire;
mod worker;

pub use broker::BrokerScheduler;
pub use fault::{Fault, FaultInjector, NetFault};
pub use pool::PoolScheduler;
pub use remote::{
    worker_main, worker_main_connect, HandlerRegistry, RemoteConfig, RemoteEvent, RemoteScheduler,
    RemoteStats, RemoteTaskSpec, SubmitError, WorkerCommand, WorkerJob,
};
pub use retry::{Backoff, RetryPolicy};
pub use serial::SerialScheduler;
pub use supervise::SupervisorConfig;
pub use task::{AttemptDisposition, AttemptRecord, Task, TaskHandle, TaskReport, TaskState};
pub use transport::{ChaosReader, ChaosWriter, TransportKind, WORKER_SESSION_ENV};

/// A task scheduler: accepts tasks, returns handles to their results.
pub trait Scheduler {
    /// Submits a task for execution.
    fn submit(&self, task: Task) -> TaskHandle;

    /// A short name for reports ("serial", "pool", "broker", "remote").
    fn name(&self) -> &'static str;
}

/// Submits every task and waits for all reports, preserving order.
pub fn run_all<S: Scheduler + ?Sized>(
    scheduler: &S,
    tasks: impl IntoIterator<Item = Task>,
) -> Vec<TaskReport> {
    let handles: Vec<TaskHandle> = tasks.into_iter().map(|t| scheduler.submit(t)).collect();
    handles.into_iter().map(TaskHandle::wait).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn schedulers() -> Vec<Box<dyn Scheduler>> {
        vec![
            Box::new(SerialScheduler::new()),
            Box::new(PoolScheduler::new(4)),
            Box::new(BrokerScheduler::new(4)),
        ]
    }

    #[test]
    fn all_schedulers_run_tasks_to_completion() {
        for scheduler in schedulers() {
            let reports = run_all(
                scheduler.as_ref(),
                (0..10).map(|i| Task::new(format!("t{i}"), move || Ok(format!("out-{i}")))),
            );
            assert_eq!(reports.len(), 10, "{}", scheduler.name());
            for (i, report) in reports.iter().enumerate() {
                assert!(report.state.is_success());
                assert_eq!(report.output.as_deref(), Some(format!("out-{i}").as_str()));
                assert_eq!(report.attempts, 1);
            }
        }
    }

    #[test]
    fn failures_are_reported_not_panicked() {
        for scheduler in schedulers() {
            let report = scheduler
                .submit(Task::new("boom", || Err("simulation exploded".to_owned())))
                .wait();
            assert_eq!(report.state, TaskState::Failed, "{}", scheduler.name());
            assert_eq!(report.error.as_deref(), Some("simulation exploded"));
        }
    }

    #[test]
    fn panicking_tasks_are_contained() {
        for scheduler in schedulers() {
            let report = scheduler
                .submit(Task::new("panic", || panic!("unexpected condition")))
                .wait();
            assert_eq!(report.state, TaskState::Failed, "{}", scheduler.name());
            assert!(report.error.as_deref().unwrap_or("").contains("panic"));
        }
    }

    #[test]
    fn timeouts_terminate_runaway_tasks() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let mut shapes = Vec::new();
        for scheduler in schedulers() {
            let ran = Arc::new(AtomicU32::new(0));
            let seen = Arc::clone(&ran);
            let task = Task::new("runaway", move || {
                seen.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_secs(30));
                Ok(String::new())
            })
            .timeout(Duration::from_millis(50))
            .retries(2);
            let report = scheduler.submit(task).wait();
            assert_eq!(report.state, TaskState::TimedOut, "{}", scheduler.name());
            assert!(report.duration < Duration::from_secs(5));
            // Timeouts are terminal: the retries are not spent on them.
            assert_eq!(ran.load(Ordering::SeqCst), 1, "{}", scheduler.name());
            shapes.push((
                report.state,
                report.attempts,
                report.detached,
                report.history.len(),
            ));
        }
        assert_eq!(shapes, vec![(TaskState::TimedOut, 1, true, 0); 3]);
    }

    #[test]
    fn retry_policies_apply_on_every_scheduler() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        // (policy, timeout, failing attempts). The first case backs
        // off for longer than its timeout: the timeout bounds an
        // attempt, not the sleep between two. It goes first so this
        // test opens with 450 ms on the serial scheduler: the test
        // harness starts `schedulers_record_profiling_metrics`, which
        // counts pool and broker submissions on the process-global
        // registry, right after this one.
        let cases = [
            (
                RetryPolicy::fixed(Duration::from_millis(400)).max_attempts(3),
                Some(Duration::from_millis(50)),
                1,
            ),
            (
                RetryPolicy::fixed(Duration::from_millis(1)).max_attempts(4),
                None,
                2,
            ),
        ];
        for (policy, timeout, failures) in cases {
            for scheduler in schedulers() {
                let counter = Arc::new(AtomicU32::new(0));
                let seen = Arc::clone(&counter);
                let mut task = Task::new("flaky", move || {
                    if seen.fetch_add(1, Ordering::SeqCst) < failures {
                        Err("transient".to_owned())
                    } else {
                        Ok("recovered".to_owned())
                    }
                })
                .retry_policy(policy.clone());
                if let Some(timeout) = timeout {
                    task = task.timeout(timeout);
                }
                let report = scheduler.submit(task).wait();
                let on = format!("{} under {policy}", scheduler.name());
                assert_eq!(report.state, TaskState::Succeeded, "{on}: {report:?}");
                assert_eq!(report.attempts, failures + 1, "{on}");
                assert_eq!(report.history.len() as u32, failures + 1, "{on}");
                assert_eq!(report.history[1].delay_before, policy.delay_before(2));
                assert!(!report.detached, "{on}");
            }
        }
    }

    #[test]
    fn fault_injection_is_identical_across_schedulers() {
        use std::sync::Arc;
        let history_on = |scheduler: Box<dyn Scheduler>| {
            let injector = Arc::new(FaultInjector::new(77).errors(0.6));
            scheduler
                .submit(
                    Task::new("replayed", || Ok("ok".to_owned()))
                        .fault_injector(injector)
                        .retries(6),
                )
                .wait()
                .history
        };
        let histories: Vec<_> = schedulers().into_iter().map(history_on).collect();
        assert_eq!(histories[0], histories[1]);
        assert_eq!(histories[1], histories[2]);
    }

    #[test]
    fn schedulers_record_profiling_metrics() {
        use simart_observe as observe;
        observe::enable();
        let pool_reports = run_all(
            &PoolScheduler::new(2),
            (0..4).map(|i| Task::new(format!("m{i}"), || Ok(String::new()))),
        );
        let broker = BrokerScheduler::new(2);
        let broker_reports = run_all(
            &broker,
            (0..2).map(|i| Task::new(format!("b{i}"), || Ok(String::new()))),
        );
        observe::disable();
        assert!(pool_reports
            .iter()
            .chain(&broker_reports)
            .all(|r| r.state.is_success()));
        let snap = observe::snapshot();
        for name in [
            "tasks.queue_wait_us",
            "tasks.run_time_us",
            "broker.queue_latency_us",
        ] {
            match snap.metrics.get(name) {
                Some(observe::MetricValue::Histogram(h)) => {
                    assert!(h.count >= 2, "{name} count = {}", h.count)
                }
                other => panic!("{name} missing or wrong kind: {other:?}"),
            }
        }
        assert_eq!(
            snap.metrics.get("pool.enqueued"),
            Some(&observe::MetricValue::Counter(4))
        );
        assert_eq!(
            snap.metrics.get("broker.enqueued"),
            Some(&observe::MetricValue::Counter(2))
        );
        observe::reset();
    }

    #[test]
    fn pool_drop_drains_while_broker_shutdown_discards() {
        // Side-by-side pin of the two shutdown semantics: a dropped
        // pool runs every queued task to completion, while a broker
        // told to shut down discards its queue and synthesizes failure
        // reports. Both use one gated worker so submissions stay
        // queued until we decide their fate.
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::mpsc::channel;
        use std::sync::Arc;

        let pool_ran = Arc::new(AtomicU32::new(0));
        {
            let pool = PoolScheduler::new(1);
            let (gate_tx, gate_rx) = channel::<()>();
            // A task must be `Sync`; a receiver is not.
            let gate_rx = std::sync::Mutex::new(gate_rx);
            let _gated = pool.submit(Task::new("gate", move || {
                let _ = gate_rx.lock().unwrap().recv();
                Ok(String::new())
            }));
            for i in 0..3 {
                let ran = Arc::clone(&pool_ran);
                let _ = pool.submit(Task::new(format!("pool-{i}"), move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    Ok(String::new())
                }));
            }
            gate_tx.send(()).unwrap();
            // Pool dropped here: queued tasks drain to completion.
        }
        assert_eq!(
            pool_ran.load(Ordering::SeqCst),
            3,
            "pool drop drains the queue"
        );

        let broker_ran = Arc::new(AtomicU32::new(0));
        let broker = BrokerScheduler::new(1);
        let (gate_tx, gate_rx) = channel::<()>();
        // A task must be `Sync`; a receiver is not.
        let gate_rx = std::sync::Mutex::new(gate_rx);
        let gated = broker.submit(Task::new("gate", move || {
            let _ = gate_rx.lock().unwrap().recv();
            Ok(String::new())
        }));
        let queued: Vec<_> = (0..3)
            .map(|i| {
                let ran = Arc::clone(&broker_ran);
                broker.submit(Task::new(format!("broker-{i}"), move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    Ok(String::new())
                }))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            broker.shutdown_now(),
            3,
            "broker shutdown discards the queue"
        );
        gate_tx.send(()).unwrap();
        assert!(gated.wait().state.is_success());
        for handle in queued {
            assert_eq!(handle.wait().state, TaskState::Failed);
        }
        assert_eq!(
            broker_ran.load(Ordering::SeqCst),
            0,
            "discarded tasks never ran"
        );
    }

    #[test]
    fn scheduler_names() {
        let names: Vec<&str> = schedulers().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["serial", "pool", "broker"]);
    }
}
