//! Task definitions, handles, and reports.

use crate::fault::FaultInjector;
use crate::retry::RetryPolicy;
use crate::trace;
use crossbeam::channel::{bounded, Receiver, Sender};
use simart_observe as observe;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// Exhausted the broker's redelivery cap (its lease expired or its
    /// worker died on every delivery) and was dead-lettered. Terminal:
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
    /// The attempt outlived its deadline.
    TimedOut,
}

impl fmt::Display for AttemptDisposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttemptDisposition::Succeeded => f.write_str("succeeded"),
            AttemptDisposition::Errored => f.write_str("errored"),
            AttemptDisposition::TimedOut => f.write_str("timed-out"),
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
    /// Id for race-detector tracepoints (`0` when tracing is compiled
    /// out). Clones share the id: they are the same logical task.
    pub(crate) trace_id: u64,
    /// When the task entered a scheduler queue (zero-sized unless the
    /// `observe` feature is on); feeds the `tasks.queue_wait_us`
    /// histogram.
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
            trace_id: trace::fresh_id(),
            queue_stamp: observe::Stamp::now(),
        }
    }

    /// Marks the moment the task was handed to a scheduler; the delta
    /// to execution start is its queue wait. Called by every
    /// scheduler's `submit`.
    pub(crate) fn stamp_queued(&mut self) {
        self.queue_stamp = observe::Stamp::now();
    }

    /// Sets a wall-clock timeout (the paper's framework kills gem5 jobs
    /// that exceed theirs). Takes precedence over the retry policy's
    /// per-attempt deadline.
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

    /// Installs a full retry policy (attempts, backoff, jitter,
    /// deadlines), replacing any previous policy or `retries` setting.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Task {
        self.policy = policy;
        self
    }

    /// Attaches a fault injector consulted once per attempt.
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Task {
        self.fault = Some(injector);
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
    /// Number of execution attempts made.
    pub attempts: u32,
    /// Wall-clock duration across all attempts.
    pub duration: Duration,
    /// Whether a watchdogged worker thread was detached (leaked) when
    /// the task timed out. Detached workers keep running until their
    /// work returns; brokers count them in their stats.
    pub detached: bool,
    /// Per-attempt history, in order.
    pub history: Vec<AttemptRecord>,
    /// How many times the broker's supervisor redelivered the task
    /// after a lease expired or its worker died (`0` outside the
    /// broker or when nothing went wrong).
    pub redeliveries: u32,
    /// Supervisor lease events (`"delivery:<n>:<cause>"`), in order.
    /// Empty outside the broker or when no lease was ever recovered.
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

/// Executes one task to completion — retries with backoff, per-attempt
/// and total deadlines, fault injection — and returns its report.
/// Shared by all schedulers.
pub(crate) fn execute(task: Task) -> TaskReport {
    execute_mode(task, false)
}

/// Executes one task under external (lease-based) supervision: no
/// watchdog thread is spawned and neither the task timeout nor the
/// policy's per-attempt deadline is enforced in-process — the broker's
/// supervisor enforces the deadline via the task's lease, so a runaway
/// attempt wedges only its worker thread instead of leaking an
/// unreaped watchdog thread per attempt.
pub(crate) fn execute_supervised(task: Task) -> TaskReport {
    execute_mode(task, true)
}

fn execute_mode(task: Task, supervised: bool) -> TaskReport {
    let Task {
        name,
        work,
        timeout,
        policy,
        fault,
        trace_id,
        queue_stamp,
    } = task;
    queue_stamp.observe_into("tasks.queue_wait_us");
    observe::count("tasks.executed", 1);
    let _task_span = observe::span(|| format!("task:{name}"));
    let attempt_deadline = if supervised {
        None
    } else {
        timeout.or(policy.per_attempt_deadline())
    };
    let started = Instant::now();
    let mut attempts = 0u32;
    let mut history = Vec::new();
    let mut detached = false;
    let mut delay_before = Duration::ZERO;
    let (state, output, error) = loop {
        attempts += 1;
        trace::task_start(trace_id);
        let attempt_work = wrap_with_faults(&work, &fault, &name, attempts);
        let attempt_stamp = observe::Stamp::now();
        let outcome = run_attempt(attempt_work, attempt_deadline);
        attempt_stamp.observe_into("tasks.run_time_us");
        history.push(AttemptRecord {
            index: attempts,
            disposition: match outcome {
                AttemptOutcome::Success(_) => AttemptDisposition::Succeeded,
                AttemptOutcome::Error(_) => AttemptDisposition::Errored,
                AttemptOutcome::TimedOut => AttemptDisposition::TimedOut,
            },
            delay_before,
        });
        match outcome {
            AttemptOutcome::Success(output) => break (TaskState::Succeeded, Some(output), None),
            AttemptOutcome::TimedOut => {
                // The watchdogged worker cannot be killed safely; it is
                // detached and keeps running until its work returns.
                detached = true;
                observe::count("tasks.timeouts", 1);
                break (
                    TaskState::TimedOut,
                    None,
                    Some(format!("task exceeded its timeout of {attempt_deadline:?}")),
                );
            }
            AttemptOutcome::Error(err) => {
                if attempts >= policy.attempts_allowed() {
                    break (TaskState::Failed, None, Some(err));
                }
                let delay = policy.delay_before(attempts + 1);
                if let Some(total) = policy.total_budget() {
                    if started.elapsed() + delay > total {
                        break (
                            TaskState::Failed,
                            None,
                            Some(format!(
                                "{err} (total retry deadline {total:?} exhausted \
                                 after {attempts} attempts)"
                            )),
                        );
                    }
                }
                observe::count("tasks.retries", 1);
                observe::observe_us("tasks.retry_delay_us", delay.as_micros() as u64);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                delay_before = delay;
                trace::task_requeue(trace_id);
            }
        }
    };
    trace::task_finish(trace_id);
    TaskReport {
        name,
        state,
        output,
        error,
        attempts,
        duration: started.elapsed(),
        detached,
        history,
        redeliveries: 0,
        lease_events: Vec::new(),
    }
}

/// Executes one task, reporting through `report_tx`.
pub(crate) fn execute_reporting(task: Task, report_tx: Sender<TaskReport>) {
    // A dropped handle is fine: the result is simply unobserved.
    let _ = report_tx.send(execute(task));
}

/// Wraps the work closure so any injected fault fires *inside* the
/// attempt: injected panics are caught, injected delays are subject to
/// the attempt deadline.
fn wrap_with_faults(
    work: &TaskFn,
    fault: &Option<Arc<FaultInjector>>,
    name: &str,
    attempt: u32,
) -> TaskFn {
    match fault {
        None => Arc::clone(work),
        Some(injector) => {
            let injector = Arc::clone(injector);
            let inner = Arc::clone(work);
            let task_name = name.to_owned();
            Arc::new(move || {
                injector.inject(&task_name, attempt)?;
                inner()
            })
        }
    }
}

enum AttemptOutcome {
    Success(String),
    Error(String),
    TimedOut,
}

fn run_attempt(work: TaskFn, timeout: Option<Duration>) -> AttemptOutcome {
    match timeout {
        None => match run_caught(&work) {
            Ok(output) => AttemptOutcome::Success(output),
            Err(err) => AttemptOutcome::Error(err),
        },
        Some(limit) => {
            // Run the work on a watchdog-observed thread; on timeout the
            // runaway thread is detached (it cannot be force-killed
            // safely) and the task is reported as terminated.
            let (tx, rx) = bounded(1);
            let attempt = std::thread::spawn(move || {
                let _ = tx.send(run_caught(&work));
            });
            match rx.recv_timeout(limit) {
                Ok(result) => {
                    // The thread has nothing left to do but exit: reap
                    // it before the next attempt spawns. The allocator
                    // hands an exited thread's arena to the next new
                    // thread; one still exiting makes that thread grow
                    // an arena of its own (about +5 MB of peak RSS per
                    // lost race on the `parsec_detailed` campaign).
                    let _ = attempt.join();
                    match result {
                        Ok(output) => AttemptOutcome::Success(output),
                        Err(err) => AttemptOutcome::Error(err),
                    }
                }
                Err(_) => AttemptOutcome::TimedOut,
            }
        }
    }
}

fn run_caught(work: &TaskFn) -> Result<String, String> {
    match catch_unwind(AssertUnwindSafe(|| work())) {
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
    use std::sync::atomic::{AtomicU32, Ordering};

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
    fn execute_reporting_success_path() {
        let (tx, rx) = bounded(1);
        execute_reporting(Task::new("ok", || Ok("done".to_owned())), tx);
        let report = rx.recv().unwrap();
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
        let (tx, rx) = bounded(1);
        execute_reporting(task, tx);
        let report = rx.recv().unwrap();
        assert!(report.state.is_success());
        assert_eq!(report.attempts, 3);
        assert_eq!(counter.load(Ordering::SeqCst), 3);
        assert_eq!(report.history.len(), 3);
        assert_eq!(report.history[2].disposition, AttemptDisposition::Succeeded);
    }

    #[test]
    fn retries_exhaust_to_failure() {
        let task = Task::new("hopeless", || Err("always".to_owned())).retries(2);
        let (tx, rx) = bounded(1);
        execute_reporting(task, tx);
        let report = rx.recv().unwrap();
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
        let (tx, rx) = bounded(1);
        execute_reporting(task, tx);
        let report = rx.recv().unwrap();
        assert_eq!(report.state, TaskState::TimedOut);
        assert_eq!(report.attempts, 1);
        assert!(report.detached, "timed-out watchdog worker is detached");
    }

    #[test]
    fn dropped_handle_does_not_panic_worker() {
        let (tx, rx) = bounded(1);
        drop(rx);
        execute_reporting(Task::new("orphan", || Ok(String::new())), tx);
    }

    #[test]
    fn wait_on_dropped_scheduler_returns_failed_report() {
        let (tx, rx) = bounded::<TaskReport>(1);
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
    fn total_deadline_stops_retrying() {
        let policy = RetryPolicy::fixed(Duration::from_millis(40))
            .max_attempts(100)
            .total_deadline(Duration::from_millis(60));
        let task = Task::new("budgeted", || Err("always".to_owned())).retry_policy(policy);
        let report = execute(task);
        assert_eq!(report.state, TaskState::Failed);
        assert!(report.attempts < 100, "deadline cut retries short");
        assert!(report.error.as_deref().unwrap_or("").contains("deadline"));
    }

    #[test]
    fn policy_attempt_deadline_applies_without_task_timeout() {
        let task = Task::new("slow", || {
            std::thread::sleep(Duration::from_secs(10));
            Ok(String::new())
        })
        .retry_policy(RetryPolicy::none().attempt_deadline(Duration::from_millis(30)));
        let report = execute(task);
        assert_eq!(report.state, TaskState::TimedOut);
        assert!(report.detached);
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
    fn supervised_execution_leaves_deadlines_to_the_lease() {
        // Under supervision no watchdog thread runs: a task slower than
        // its timeout completes normally (the broker's lease, not the
        // executor, decides when it is overdue).
        let task = Task::new("slowish", || {
            std::thread::sleep(Duration::from_millis(60));
            Ok("late but fine".to_owned())
        })
        .timeout(Duration::from_millis(10));
        let report = execute_supervised(task);
        assert!(report.state.is_success());
        assert!(!report.detached);
        assert_eq!(report.redeliveries, 0);
        assert!(report.lease_events.is_empty());
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
