//! Task definitions, handles, and reports.

use crate::fault::FaultInjector;
use crate::remote::RemoteEvent;
use crate::retry::RetryPolicy;
use simart_observe as observe;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The work a task performs: returns its textual output or an error
/// message (results proper are written to the database by the closure).
/// `Fn` (not `FnOnce`) so failed attempts can be retried.
pub type TaskFn = Arc<dyn Fn() -> Result<String, String> + Send + Sync + 'static>;

/// Lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskState {
    /// Completed and returned output.
    Succeeded,
    /// Returned an error (possibly after retries).
    Failed,
    /// Exceeded its timeout and was terminated.
    TimedOut,
    /// Exhausted the scheduler's redelivery cap (its lease expired or
    /// its worker died on every delivery) and was dead-lettered. Terminal:
    /// the task is never automatically retried or redelivered again.
    Quarantined,
}

impl TaskState {
    /// Whether the task succeeded.
    pub fn is_success(self) -> bool {
        self == TaskState::Succeeded
    }
}

impl fmt::Display for TaskState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskState::Succeeded => f.write_str("succeeded"),
            TaskState::Failed => f.write_str("failed"),
            TaskState::TimedOut => f.write_str("timed-out"),
            TaskState::Quarantined => f.write_str("quarantined"),
        }
    }
}

/// How a single attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttemptDisposition {
    /// The attempt returned output.
    Succeeded,
    /// The attempt returned an error or panicked.
    Errored,
}

impl fmt::Display for AttemptDisposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttemptDisposition::Succeeded => f.write_str("succeeded"),
            AttemptDisposition::Errored => f.write_str("errored"),
        }
    }
}

/// One entry of a task's attempt history. Contains only deterministic
/// fields (no wall-clock measurements), so two runs under the same
/// retry policy, seed, and fault plan produce identical histories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub index: u32,
    /// How the attempt ended.
    pub disposition: AttemptDisposition,
    /// Backoff delay scheduled before this attempt (zero for the
    /// first).
    pub delay_before: Duration,
}

/// A schedulable unit of work.
#[derive(Clone)]
pub struct Task {
    pub(crate) name: String,
    pub(crate) work: TaskFn,
    pub(crate) timeout: Option<Duration>,
    pub(crate) policy: RetryPolicy,
    pub(crate) fault: Option<Arc<FaultInjector>>,
    /// What a worker process runs in place of `work`: a handler kind
    /// and its payload. The thread drivers ignore it.
    pub(crate) wire: Option<(String, String)>,
    /// Where the process driver sends this task's delivery events. The
    /// thread drivers have none to send.
    pub(crate) events: Option<Sender<RemoteEvent>>,
    /// When the task entered a scheduler queue (disarmed outside a
    /// capture window); feeds the `tasks.queue_wait_us` histogram.
    pub(crate) queue_stamp: observe::Stamp,
}

impl Task {
    /// Creates a task from a name and its work closure.
    pub fn new(
        name: impl Into<String>,
        work: impl Fn() -> Result<String, String> + Send + Sync + 'static,
    ) -> Task {
        Task {
            name: name.into(),
            work: Arc::new(work),
            timeout: None,
            policy: RetryPolicy::none(),
            fault: None,
            wire: None,
            events: None,
            queue_stamp: observe::Stamp::now(),
        }
    }

    /// Marks the moment the task was handed to a scheduler; the delta
    /// to execution start is its queue wait. Called by every
    /// scheduler's `submit`.
    pub(crate) fn stamp_queued(&mut self) {
        self.queue_stamp = observe::Stamp::now();
    }

    /// Sets the wall-clock timeout of each attempt (the paper's
    /// framework kills gem5 jobs that exceed theirs). It is the one
    /// deadline, and every scheduler enforces it the same way: through
    /// the task's lease, which expires `timeout` plus
    /// [`SupervisorConfig::grace`](crate::SupervisorConfig::grace) after
    /// an attempt starts. Backoff sleeps between attempts do not count.
    pub fn timeout(mut self, timeout: Duration) -> Task {
        self.timeout = Some(timeout);
        self
    }

    /// Allows up to `retries` immediate re-executions after failures
    /// (broker/Celery-style). Timeouts are terminal and never retried.
    /// Sugar for an immediate [`RetryPolicy`] with `retries + 1`
    /// attempts.
    pub fn retries(mut self, retries: u32) -> Task {
        self.policy = self.policy.max_attempts(retries + 1);
        self
    }

    /// Installs a full retry policy (attempts, backoff, cap),
    /// replacing any previous policy or `retries` setting.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Task {
        self.policy = policy;
        self
    }

    /// Attaches a fault injector consulted once per attempt.
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Task {
        self.fault = Some(injector);
        self
    }

    /// Gives the task a wire form: the handler `kind` a worker process
    /// resolves ([`crate::HandlerRegistry`]) and the `payload` it is
    /// handed. The process driver ships only this, and refuses a task
    /// without one; the thread drivers run the closure.
    pub fn wire(mut self, kind: impl Into<String>, payload: impl Into<String>) -> Task {
        self.wire = Some((kind.into(), payload.into()));
        self
    }

    /// Sends the task's delivery events ([`RemoteEvent`]) to `sink`, in
    /// the order they happened, each before the report it precedes.
    pub fn events_to(mut self, sink: Sender<RemoteEvent>) -> Task {
        self.events = Some(sink);
        self
    }

    /// The task's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task's retry policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }
}

impl fmt::Debug for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task")
            .field("name", &self.name)
            .field("timeout", &self.timeout)
            .field("policy", &self.policy)
            .field("fault", &self.fault.is_some())
            .field("wire", &self.wire.as_ref().map(|(kind, _)| kind))
            .finish_non_exhaustive()
    }
}

/// Final report of a task execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskReport {
    /// Task name.
    pub name: String,
    /// Terminal state.
    pub state: TaskState,
    /// Task output on success.
    pub output: Option<String>,
    /// Error message on failure/timeout.
    pub error: Option<String>,
    /// Number of execution attempts started — including, for a task
    /// whose lease expired, the attempt that never returned. `0` when
    /// the task never reached a worker.
    pub attempts: u32,
    /// Wall-clock duration across all attempts.
    pub duration: Duration,
    /// Whether the worker thread running the task was detached when
    /// its lease expired (the task timed out). A detached worker cannot
    /// be killed; it runs until its work returns and is then joined by
    /// the supervisor, which counts it in the scheduler's stats.
    pub detached: bool,
    /// History of the attempts that returned, in order (empty for a
    /// task whose lease expired: its worker still holds it).
    pub history: Vec<AttemptRecord>,
    /// How many times the scheduler's supervisor redelivered the task
    /// after a lease expired or its worker died (`0` when nothing went
    /// wrong).
    pub redeliveries: u32,
    /// Supervisor lease events (`"delivery:<n>:<cause>"`), in order.
    /// Empty when no lease was ever recovered.
    pub lease_events: Vec<String>,
}

impl TaskReport {
    /// A synthesized failure report for a task the scheduler dropped
    /// without executing (e.g. a broker shut down with work queued).
    pub(crate) fn dropped_by_scheduler(name: String) -> TaskReport {
        TaskReport {
            name,
            state: TaskState::Failed,
            output: None,
            error: Some("scheduler dropped task without a report".to_owned()),
            attempts: 0,
            duration: Duration::ZERO,
            detached: false,
            history: Vec::new(),
            redeliveries: 0,
            lease_events: Vec::new(),
        }
    }
}

/// Handle to a submitted task.
#[derive(Debug)]
pub struct TaskHandle {
    pub(crate) receiver: Receiver<TaskReport>,
    pub(crate) name: String,
}

impl TaskHandle {
    /// Blocks until the task finishes, returning its report.
    ///
    /// If the scheduler dropped the task without reporting (e.g. it was
    /// shut down with the task still queued), a synthesized
    /// [`TaskState::Failed`] report is returned with zero attempts and
    /// a "scheduler dropped task" error — submitters always get a
    /// report, never a panic.
    pub fn wait(self) -> TaskReport {
        match self.receiver.recv() {
            Ok(report) => report,
            Err(_) => TaskReport::dropped_by_scheduler(self.name),
        }
    }

    /// Non-blocking poll; returns the report when finished.
    pub fn try_wait(&self) -> Option<TaskReport> {
        self.receiver.try_recv().ok()
    }

    /// The task's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Executes one task to completion on the calling thread — retries
/// with backoff, fault injection — and returns its report. No deadline is enforced here: `arm` is told each attempt's
/// number and start instant as it starts (and, before a backoff sleep,
/// the instant it is due), so the scheduler's lease bounds it — a
/// runaway attempt wedges only the calling worker, which the
/// supervisor detaches and replaces.
pub(crate) fn execute(task: Task, mut arm: impl FnMut(u32, Instant)) -> TaskReport {
    let Task {
        name,
        work,
        timeout: _,
        policy,
        fault,
        wire: _,
        events: _,
        queue_stamp,
    } = task;
    queue_stamp.observe_into("tasks.queue_wait_us");
    observe::count("tasks.executed", 1);
    let _task_span = observe::span(|| format!("task:{name}"));
    let started = Instant::now();
    let mut attempts = 0u32;
    let mut history = Vec::new();
    let mut delay_before = Duration::ZERO;
    let (state, output, error) = loop {
        attempts += 1;
        if !delay_before.is_zero() {
            // The lease must outlive the backoff: until the attempt
            // starts, count its timeout from when it is due.
            arm(attempts, Instant::now() + delay_before);
            std::thread::sleep(delay_before);
        }
        arm(attempts, Instant::now());
        let attempt_stamp = observe::Stamp::now();
        // An injected fault fires *inside* the attempt: injected panics
        // are caught, injected delays count against the attempt's lease.
        let outcome = run_caught(|| {
            if let Some(injector) = &fault {
                injector.inject(&name, attempts)?;
            }
            work()
        });
        attempt_stamp.observe_into("tasks.run_time_us");
        history.push(AttemptRecord {
            index: attempts,
            disposition: match outcome {
                Ok(_) => AttemptDisposition::Succeeded,
                Err(_) => AttemptDisposition::Errored,
            },
            delay_before,
        });
        match outcome {
            Ok(output) => break (TaskState::Succeeded, Some(output), None),
            Err(err) => {
                if attempts >= policy.attempts_allowed() {
                    break (TaskState::Failed, None, Some(err));
                }
                let delay = policy.delay_before(attempts + 1);
                observe::count("tasks.retries", 1);
                observe::observe_us("tasks.retry_delay_us", delay.as_micros() as u64);
                delay_before = delay;
            }
        }
    };
    TaskReport {
        name,
        state,
        output,
        error,
        attempts,
        duration: started.elapsed(),
        detached: false,
        history,
        redeliveries: 0,
        lease_events: Vec::new(),
    }
}

fn run_caught(work: impl FnOnce() -> Result<String, String>) -> Result<String, String> {
    match catch_unwind(AssertUnwindSafe(work)) {
        Ok(result) => result,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_owned());
            Err(format!("task panicked: {message}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BrokerScheduler, Scheduler, SerialScheduler};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::mpsc::channel;

    /// Runs a task with no lease to re-arm.
    fn execute(task: Task) -> TaskReport {
        super::execute(task, |_, _| {})
    }

    #[test]
    fn task_builder_records_options() {
        let task = Task::new("t", || Ok(String::new()))
            .timeout(Duration::from_secs(1))
            .retries(3);
        assert_eq!(task.name(), "t");
        assert_eq!(task.timeout, Some(Duration::from_secs(1)));
        assert_eq!(task.policy().attempts_allowed(), 4);
        assert!(format!("{task:?}").contains("\"t\""));
    }

    #[test]
    fn state_display() {
        assert_eq!(TaskState::Succeeded.to_string(), "succeeded");
        assert_eq!(TaskState::TimedOut.to_string(), "timed-out");
        assert!(TaskState::Succeeded.is_success());
        assert!(!TaskState::Failed.is_success());
    }

    #[test]
    fn execute_success_path() {
        let report = execute(Task::new("ok", || Ok("done".to_owned())));
        assert!(report.state.is_success());
        assert_eq!(report.output.as_deref(), Some("done"));
        assert!(report.error.is_none());
        assert!(!report.detached);
        assert_eq!(
            report.history,
            vec![AttemptRecord {
                index: 1,
                disposition: AttemptDisposition::Succeeded,
                delay_before: Duration::ZERO,
            }]
        );
    }

    #[test]
    fn retries_rerun_until_success() {
        let counter = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&counter);
        let task = Task::new("flaky", move || {
            if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                Err("transient".to_owned())
            } else {
                Ok("recovered".to_owned())
            }
        })
        .retries(5);
        let report = execute(task);
        assert!(report.state.is_success());
        assert_eq!(report.attempts, 3);
        assert_eq!(counter.load(Ordering::SeqCst), 3);
        assert_eq!(report.history.len(), 3);
        assert_eq!(report.history[2].disposition, AttemptDisposition::Succeeded);
    }

    #[test]
    fn retries_exhaust_to_failure() {
        let task = Task::new("hopeless", || Err("always".to_owned())).retries(2);
        let report = execute(task);
        assert_eq!(report.state, TaskState::Failed);
        assert_eq!(report.attempts, 3);
        assert!(report
            .history
            .iter()
            .all(|a| a.disposition == AttemptDisposition::Errored));
    }

    #[test]
    fn timeouts_are_not_retried() {
        let counter = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&counter);
        let task = Task::new("slow", move || {
            seen.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_secs(10));
            Ok(String::new())
        })
        .timeout(Duration::from_millis(30))
        .retries(5);
        let report = SerialScheduler::new().submit(task).wait();
        assert_eq!(report.state, TaskState::TimedOut);
        assert_eq!(report.attempts, 1);
        assert!(report.detached, "the timed-out worker is detached");
        assert_eq!(counter.load(Ordering::SeqCst), 1, "the work ran once");
    }

    #[test]
    fn dropped_handle_does_not_panic_worker() {
        let broker = BrokerScheduler::new(1);
        drop(broker.submit(Task::new("orphan", || Ok(String::new()))));
        let next = broker.submit(Task::new("next", || Ok(String::new())));
        assert!(next.wait().state.is_success());
        assert_eq!(broker.worker_respawns(), 0, "the one worker lived on");
    }

    #[test]
    fn wait_on_dropped_scheduler_returns_failed_report() {
        let (tx, rx) = channel::<TaskReport>();
        let handle = TaskHandle {
            receiver: rx,
            name: "ghost".to_owned(),
        };
        drop(tx);
        let report = handle.wait();
        assert_eq!(report.state, TaskState::Failed);
        assert_eq!(report.attempts, 0);
        assert!(report
            .error
            .as_deref()
            .unwrap_or("")
            .contains("scheduler dropped task"));
    }

    #[test]
    fn backoff_delays_are_honored() {
        let policy = RetryPolicy::fixed(Duration::from_millis(25)).max_attempts(3);
        let task = Task::new("backoff", || Err("always".to_owned())).retry_policy(policy);
        let started = Instant::now();
        let report = execute(task);
        assert_eq!(report.state, TaskState::Failed);
        assert_eq!(report.attempts, 3);
        assert!(
            started.elapsed() >= Duration::from_millis(50),
            "two backoff sleeps"
        );
        assert_eq!(report.history[0].delay_before, Duration::ZERO);
        assert_eq!(report.history[1].delay_before, Duration::from_millis(25));
        assert_eq!(report.history[2].delay_before, Duration::from_millis(25));
    }

    #[test]
    fn injected_spurious_errors_are_retried() {
        // Seed chosen so the injector fires on some attempts; error
        // rate 1.0 makes every attempt fail via injection.
        let injector = Arc::new(FaultInjector::new(1).errors(1.0));
        let task = Task::new("faulted", || Ok("real work".to_owned()))
            .fault_injector(Arc::clone(&injector))
            .retries(2);
        let report = execute(task);
        assert_eq!(report.state, TaskState::Failed);
        assert_eq!(report.attempts, 3);
        assert_eq!(injector.injected_errors(), 3);
        assert!(report
            .error
            .as_deref()
            .unwrap_or("")
            .contains("injected fault"));
    }

    #[test]
    fn injected_panics_are_contained_and_retried() {
        let injector = Arc::new(FaultInjector::new(2).panics(1.0));
        let task = Task::new("panicky", || Ok(String::new()))
            .fault_injector(Arc::clone(&injector))
            .retries(1);
        let report = execute(task);
        assert_eq!(report.state, TaskState::Failed);
        assert_eq!(report.attempts, 2);
        assert_eq!(injector.injected_panics(), 2);
        assert!(report.error.as_deref().unwrap_or("").contains("panic"));
    }

    #[test]
    fn fault_histories_are_reproducible() {
        let run = |seed: u64| {
            let injector = Arc::new(FaultInjector::new(seed).errors(0.5));
            let task = Task::new("replay", || Ok("ok".to_owned()))
                .fault_injector(injector)
                .retries(8);
            execute(task).history
        };
        assert_eq!(run(1234), run(1234));
    }
}
