//! The thread-pool executor (the `multiprocessing` analogue).

use crate::broker::{BrokerScheduler, Label};
use crate::supervise::SupervisorConfig;
use crate::task::{Task, TaskHandle};
use crate::Scheduler;

const POOL: Label = Label {
    name: "pool",
    enqueued: "pool.enqueued",
    dequeued: "pool.dequeued",
};

/// A fixed pool of worker threads draining a shared queue: the
/// supervised thread driver ([`BrokerScheduler`]) with the default
/// [`SupervisorConfig`], reporting as `"pool"`.
///
/// Dropping the pool signals shutdown and joins the workers; queued
/// tasks still run to completion first. To discard them instead, call
/// [`Self::shutdown_now`].
#[derive(Debug)]
pub struct PoolScheduler(BrokerScheduler);

impl PoolScheduler {
    /// Creates a pool with `size` workers.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> PoolScheduler {
        PoolScheduler(BrokerScheduler::start(
            &POOL,
            size,
            SupervisorConfig::default(),
        ))
    }

    /// [`BrokerScheduler::shutdown_now`]: closes the queue and discards
    /// still-queued jobs without running them, in contrast to the
    /// default drop behaviour of draining the queue to completion.
    pub fn shutdown_now(&self) -> u64 {
        self.0.shutdown_now()
    }

    /// Tasks dropped without execution (shutdown or post-shutdown
    /// submission).
    pub fn dropped(&self) -> u64 {
        self.0.dropped()
    }
}

impl Scheduler for PoolScheduler {
    fn submit(&self, task: Task) -> TaskHandle {
        self.0.submit(task)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskState;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn runs_tasks_concurrently() {
        let pool = PoolScheduler::new(4);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let running = Arc::clone(&running);
                let peak = Arc::clone(&peak);
                pool.submit(Task::new(format!("t{i}"), move || {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    running.fetch_sub(1, Ordering::SeqCst);
                    Ok(String::new())
                }))
            })
            .collect();
        for handle in handles {
            assert!(handle.wait().state.is_success());
        }
        assert!(peak.load(Ordering::SeqCst) > 1, "tasks overlapped");
        assert!(peak.load(Ordering::SeqCst) <= 4, "bounded by pool size");
    }

    #[test]
    fn drop_drains_queued_tasks() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = PoolScheduler::new(2);
            for i in 0..6 {
                let counter = Arc::clone(&counter);
                let _handle = pool.submit(Task::new(format!("t{i}"), move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    Ok(String::new())
                }));
            }
            // Pool dropped here.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn shutdown_now_discards_queued_tasks() {
        let pool = PoolScheduler::new(1);
        let (gate_tx, gate_rx) = channel::<()>();
        // A task must be `Sync`; a receiver is not.
        let gate_rx = std::sync::Mutex::new(gate_rx);
        let first = pool.submit(Task::new("gated", move || {
            let _ = gate_rx.lock().unwrap().recv();
            Ok("released".to_owned())
        }));
        let queued: Vec<_> = (0..3)
            .map(|i| pool.submit(Task::new(format!("queued-{i}"), || Ok(String::new()))))
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        let discarded = pool.shutdown_now();
        assert_eq!(discarded, 3);
        gate_tx.send(()).unwrap();
        assert!(first.wait().state.is_success(), "in-progress task finishes");
        for handle in queued {
            let report = handle.wait();
            assert_eq!(report.state, TaskState::Failed);
            assert!(report
                .error
                .as_deref()
                .unwrap_or("")
                .contains("scheduler dropped task"));
        }
        // Submissions after shutdown are dropped the same way.
        let late = pool.submit(Task::new("late", || Ok(String::new()))).wait();
        assert_eq!(late.state, TaskState::Failed);
        assert_eq!(pool.dropped(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = PoolScheduler::new(0);
    }
}
