//! The serial (no-scheduler) executor.

use crate::broker::{BrokerScheduler, Label};
use crate::supervise::SupervisorConfig;
use crate::task::{Task, TaskHandle};
use crate::Scheduler;
use std::sync::mpsc::sync_channel;

const SERIAL: Label = Label {
    name: "serial",
    enqueued: "serial.enqueued",
    dequeued: "serial.dequeued",
};

/// Runs one task at a time, in submission order — the paper's "no job
/// scheduler at all" mode. Useful for debugging a single run.
///
/// It is the supervised thread driver ([`BrokerScheduler`]) with one
/// worker and the default [`SupervisorConfig`], whose `submit` returns
/// once the task has settled: the handle is already resolved. A task
/// that submits to the *same* serial scheduler from inside its work
/// would therefore wait on itself.
#[derive(Debug)]
pub struct SerialScheduler(BrokerScheduler);

impl SerialScheduler {
    /// Creates the serial scheduler.
    pub fn new() -> SerialScheduler {
        SerialScheduler(BrokerScheduler::start(
            &SERIAL,
            1,
            SupervisorConfig::default(),
        ))
    }
}

impl Default for SerialScheduler {
    fn default() -> SerialScheduler {
        SerialScheduler::new()
    }
}

impl Scheduler for SerialScheduler {
    fn submit(&self, task: Task) -> TaskHandle {
        let handle = self.0.submit(task);
        let name = handle.name().to_owned();
        let (tx, rx) = sync_channel(1);
        // Cannot fail: `rx` is alive and has room for the one report.
        let _ = tx.send(handle.wait());
        TaskHandle { receiver: rx, name }
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_inline_and_in_order() {
        let scheduler = SerialScheduler::new();
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        for i in 0..5 {
            let log = std::sync::Arc::clone(&log);
            let handle = scheduler.submit(Task::new(format!("t{i}"), move || {
                log.lock().unwrap().push(i);
                Ok(String::new())
            }));
            // Already finished by the time submit returns.
            assert!(handle.try_wait().is_some());
        }
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }
}
