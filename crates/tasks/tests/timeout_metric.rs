//! `tasks.timeouts` counts the tasks reported timed-out, whichever
//! scheduler ran them. The metrics registry is process-global, so the
//! check has this test binary to itself.

use simart_observe as observe;
use simart_tasks::{BrokerScheduler, PoolScheduler, Scheduler, SerialScheduler, Task, TaskState};
use std::time::Duration;

#[test]
fn every_scheduler_counts_its_timeouts() {
    let schedulers: [Box<dyn Scheduler>; 3] = [
        Box::new(SerialScheduler::new()),
        Box::new(PoolScheduler::new(2)),
        Box::new(BrokerScheduler::new(2)),
    ];
    observe::enable();
    for scheduler in &schedulers {
        let runaway = Task::new("runaway", || {
            std::thread::sleep(Duration::from_secs(30));
            Ok(String::new())
        })
        .timeout(Duration::from_millis(20));
        assert_eq!(scheduler.submit(runaway).wait().state, TaskState::TimedOut);
        let fine = Task::new("fine", || Ok(String::new())).timeout(Duration::from_secs(5));
        assert!(scheduler.submit(fine).wait().state.is_success());
    }
    observe::disable();
    assert_eq!(
        observe::snapshot().metrics.get("tasks.timeouts"),
        Some(&observe::MetricValue::Counter(3))
    );
}
