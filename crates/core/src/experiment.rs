//! The [`Experiment`] session: the paper's Figure 2 workflow as one
//! object.
//!
//! 1. the user registers artifacts (①), whose records and payloads land
//!    in the database (②);
//! 2. run objects are created (③) and passed to the task library (④);
//! 3. an executor runs them (⑤) and results are stored back (⑥/⑦);
//! 4. the database can be queried at any time (⑧).

use crate::kinds::RunKind;
use parking_lot::Mutex;
use simart_artifact::{
    Artifact, ArtifactBuilder, ArtifactError, ArtifactId, ArtifactRegistry, Uuid,
};
use simart_db::{ArtifactStore, Database, DbError, Filter, Value};
use simart_observe as observe;
use simart_run::{FsRun, RunEdit, RunError, RunStatus, RunStore};
use simart_tasks::{
    FaultInjector, RemoteEvent, RemoteScheduler, RetryPolicy, Scheduler, Task, TaskHandle,
    TaskReport, TaskState,
};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Errors surfaced by experiment orchestration.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExperimentError {
    /// Artifact registration failed.
    Artifact(ArtifactError),
    /// Run creation or persistence failed.
    Run(RunError),
    /// Database failure.
    Db(DbError),
    /// The run's script names a [`RunKind`] whose params these are not:
    /// one is missing, unread or spelt another way.
    Params(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Artifact(e) => write!(f, "artifact error: {e}"),
            ExperimentError::Run(e) => write!(f, "run error: {e}"),
            ExperimentError::Db(e) => write!(f, "database error: {e}"),
            ExperimentError::Params(e) => write!(f, "run params: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Artifact(e) => Some(e),
            ExperimentError::Run(e) => Some(e),
            ExperimentError::Db(e) => Some(e),
            ExperimentError::Params(_) => None,
        }
    }
}

impl From<ArtifactError> for ExperimentError {
    fn from(e: ArtifactError) -> Self {
        ExperimentError::Artifact(e)
    }
}

impl From<RunError> for ExperimentError {
    fn from(e: RunError) -> Self {
        ExperimentError::Run(e)
    }
}

impl From<DbError> for ExperimentError {
    fn from(e: DbError) -> Self {
        ExperimentError::Db(e)
    }
}

/// What executing one run produced (returned by the user's executor
/// closure).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecOutcome {
    /// Short outcome label (`success`, `kernel-panic`, …).
    pub outcome: String,
    /// Simulated ticks of the measured phase.
    pub sim_ticks: u64,
    /// Archived payload (stats dump).
    pub payload: Vec<u8>,
    /// Whether the run counts as successful.
    pub success: bool,
    /// Provenance events the executor wants journaled on the run
    /// record (e.g. the `checkpoint-key:`/`checkpoint-restore:`/
    /// `checkpoint-save:` trail audited by `simart check`'s SA0016).
    pub events: Vec<String>,
}

/// Aggregate summary of a launched batch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LaunchSummary {
    /// Runs that completed successfully.
    pub done: usize,
    /// Runs that failed (simulation-level failure or executor error).
    pub failed: usize,
    /// Runs killed on timeout.
    pub timed_out: usize,
    /// Runs dead-lettered by the scheduler's supervisor after
    /// exhausting task redeliveries; their [`crate::quarantine`]
    /// records hold the lease history.
    pub quarantined: usize,
    /// Runs skipped because the identical experiment was already
    /// recorded in the database.
    pub skipped_duplicates: usize,
    /// Runs skipped on resume because they already finished
    /// successfully (their results are never silently redone).
    pub skipped_done: usize,
    /// Runs skipped on resume because they sit in quarantine — only an
    /// explicit release re-queues a quarantined run.
    pub skipped_quarantined: usize,
    /// Runs re-queued on resume: previously failed, timed out, or
    /// stranded mid-flight by a crashed session.
    pub requeued: usize,
    /// Runs recorded and executed for the first time by this launch.
    pub fresh: usize,
    /// Runs that needed more than one attempt (whatever their final
    /// state).
    pub retried: usize,
}

impl LaunchSummary {
    /// Total runs examined (executed + skipped).
    pub fn total(&self) -> usize {
        self.done
            + self.failed
            + self.timed_out
            + self.quarantined
            + self.skipped_duplicates
            + self.skipped_done
            + self.skipped_quarantined
    }
}

/// Fault-tolerance knobs for [`Experiment::launch_with`].
#[derive(Debug, Clone, Default)]
pub struct LaunchOptions {
    /// Retry policy applied to every run's task (default: single
    /// attempt, no backoff).
    pub retry_policy: RetryPolicy,
    /// Optional deterministic fault injector threaded into every task.
    pub fault: Option<Arc<FaultInjector>>,
    /// Optional injector for worker-level chaos (stalls and kills),
    /// attached to each task so the scheduler's workers — serial, pool
    /// and broker alike — consult it at dequeue time; the supervisor
    /// recovers the lease. Keep its attempt-level rates at zero — attempt
    /// faults belong in [`LaunchOptions::fault`], which is injected
    /// around the executor so provenance still records the attempt.
    pub worker_fault: Option<Arc<FaultInjector>>,
    /// Resume mode: instead of skipping duplicate runs outright,
    /// consult their stored status — `Done` runs are skipped, while
    /// failed, timed-out, and stranded (`Queued`/`Running`/`Retrying`)
    /// runs are re-queued and executed again under the same record.
    pub resume: bool,
}

impl LaunchOptions {
    /// Options for resuming an interrupted campaign.
    pub fn resuming() -> LaunchOptions {
        LaunchOptions {
            resume: true,
            ..LaunchOptions::default()
        }
    }

    /// Sets the retry policy.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> LaunchOptions {
        self.retry_policy = policy;
        self
    }

    /// Sets the fault injector.
    pub fn fault(mut self, injector: Arc<FaultInjector>) -> LaunchOptions {
        self.fault = Some(injector);
        self
    }

    /// Sets the worker-chaos injector (stalls and kills).
    pub fn worker_fault(mut self, injector: Arc<FaultInjector>) -> LaunchOptions {
        self.worker_fault = Some(injector);
        self
    }
}

/// An experiment session: registry + database + run store, with launch
/// orchestration.
///
/// Built over an *attached* database ([`Database::open`]), the session
/// is durable as it goes: artifact registrations, run records, status
/// transitions, and archived results all write through to the on-disk
/// journal at commit time, so a crash at any point loses no completed
/// run. Call [`Database::checkpoint`] at natural boundaries to fold
/// the journal into the snapshot files.
#[derive(Clone)]
pub struct Experiment {
    name: String,
    db: Database,
    registry: Arc<Mutex<ArtifactRegistry>>,
    artifacts: ArtifactStore,
    runs: RunStore,
}

impl fmt::Debug for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Experiment")
            .field("name", &self.name)
            .field("artifacts", &self.artifacts.len())
            .field("runs", &self.runs.len())
            .finish()
    }
}

impl Experiment {
    /// Creates an experiment backed by a fresh in-memory database.
    ///
    /// # Panics
    ///
    /// Never panics for a fresh database; constraint installation on a
    /// fresh store is infallible.
    pub fn new(name: impl Into<String>) -> Experiment {
        Self::with_database(name, Database::in_memory()).expect("fresh database has no conflicts")
    }

    /// Creates an experiment over an existing database (e.g. one loaded
    /// from disk to extend previous results).
    ///
    /// The stored artifacts are the registry of record: the session
    /// adopts every one that decodes, so re-registering stored content
    /// returns the stored record under its stored id.
    ///
    /// # Errors
    ///
    /// Fails if the database's existing contents violate artifact or
    /// run uniqueness constraints.
    pub fn with_database(
        name: impl Into<String>,
        db: Database,
    ) -> Result<Experiment, ExperimentError> {
        let artifacts = ArtifactStore::new(&db)?;
        let runs = RunStore::new(&db)?;
        let mut registry = ArtifactRegistry::new();
        for artifact in artifacts.all() {
            registry.adopt(artifact);
        }
        Ok(Experiment {
            name: name.into(),
            db,
            registry: Arc::new(Mutex::new(registry)),
            artifacts,
            runs,
        })
    }

    /// The experiment's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying database handle.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The run store.
    pub fn runs(&self) -> &RunStore {
        &self.runs
    }

    /// Registers an artifact (workflow steps ① and ②: the registry
    /// assigns identity, the database archives the record).
    ///
    /// # Errors
    ///
    /// Propagates registry and persistence failures.
    pub fn register_artifact(
        &self,
        builder: ArtifactBuilder,
    ) -> Result<Arc<Artifact>, ExperimentError> {
        self.with_registry(|registry| registry.register(builder))
    }

    /// Runs a closure with access to the artifact registry (for
    /// resource helpers that register several artifacts at once).
    ///
    /// # Errors
    ///
    /// Returns whatever the closure returns; the artifacts it newly
    /// registered are persisted first — once each, in registration
    /// order, even when it then failed.
    pub fn with_registry<T>(
        &self,
        f: impl FnOnce(&mut ArtifactRegistry) -> Result<T, ArtifactError>,
    ) -> Result<T, ExperimentError> {
        let mut registry = self.registry.lock();
        let held = registry.len();
        let result = f(&mut registry);
        for artifact in registry.iter().skip(held) {
            self.artifacts.save(artifact, None)?;
        }
        Ok(result?)
    }

    /// Number of artifacts the session holds: those adopted from the
    /// database and those registered since.
    pub fn artifact_count(&self) -> usize {
        self.registry.lock().len()
    }

    /// Creates a full-system run builder against this experiment's
    /// registry, yielding the built run (workflow step ③).
    ///
    /// A run whose script names a [`RunKind`] must carry exactly the
    /// params that kind records ([`RunKind::check`]); a run under any
    /// other script is not checked.
    ///
    /// # Errors
    ///
    /// Propagates run-construction failures;
    /// [`ExperimentError::Params`] for params its kind refuses.
    pub fn create_fs_run(
        &self,
        configure: impl FnOnce(simart_run::FsRunBuilder<'_>) -> simart_run::FsRunBuilder<'_>,
    ) -> Result<FsRun, ExperimentError> {
        let run = configure(FsRun::create(&self.registry.lock())).build()?;
        if let Some(kind) = RunKind::of_script(run.run_script_path()) {
            kind.check(run.params()).map_err(ExperimentError::Params)?;
        }
        Ok(run)
    }

    /// Launches runs through a scheduler (steps ④–⑦).
    ///
    /// `execute` maps a run to its [`ExecOutcome`]; typically it builds
    /// a [`simart_fullsim::system::SystemConfig`] from the run's
    /// parameters and simulates it. Runs whose hash is already in the
    /// database are *skipped* (the same experiment is never measured
    /// twice), mirroring the framework's dedup discipline.
    ///
    /// Equivalent to [`Experiment::launch_with`] with default
    /// [`LaunchOptions`] (one attempt, no fault injection, no resume).
    pub fn launch<S: Scheduler + ?Sized>(
        &self,
        runs: Vec<FsRun>,
        scheduler: &S,
        execute: impl Fn(&FsRun) -> Result<ExecOutcome, String> + Send + Sync + Clone + 'static,
    ) -> LaunchSummary {
        self.launch_with(runs, scheduler, execute, &LaunchOptions::default())
    }

    /// [`Experiment::launch`] with fault-tolerance options: a
    /// [`RetryPolicy`] honored by the task layer, an optional
    /// deterministic [`FaultInjector`], and resume mode. This is the one
    /// launch body, for every scheduler.
    ///
    /// Each run travels as one task. A thread driver runs its closure,
    /// which archives each attempt as it ends. The process driver ships
    /// its wire form instead: the task kind its run script names
    /// ([`crate::remote::task_kind`]; [`crate::remote::CAMPAIGN_KIND`]
    /// when it names none) with its params as payload. That attempt is
    /// archived here from the outcome the worker sent back. A worker
    /// process honours no retry policy and no fault injector, so a task
    /// launched with either has no wire form, and the process driver
    /// panics on it: use [`simart_tasks::SupervisorConfig::max_redeliveries`]
    /// and [`simart_tasks::RemoteConfig::fault`] there.
    ///
    /// Delivery provenance reaches the launch through each task's sink
    /// and is journaled onto its run as `remote-dispatch:<d>:g<g>` and
    /// `remote-ack:<d>:g<g>` events — the trail SA0015 audits for
    /// attempts orphaned by a coordinator crash — and, over TCP, as
    /// `remote-reconnect:<session>:g<g>` when a worker session resumes
    /// holding the run's lease (SA0018).
    ///
    /// The calling thread writes everything the scheduler reports, in
    /// rounds of 64 runs. Each round admits its runs with one
    /// journal append, submits them all, then journals the events in
    /// (a dispatch together with `Running`) and settles the reports
    /// already in, oldest first, as one batched edit: one more append.
    /// After the last round it blocks on the oldest report and settles
    /// it the same way, with every report in behind it. Each edit still
    /// writes its own record, so a run's records are those of writing
    /// them one at a time. An ack goes in the same record as the result
    /// it acknowledges and the terminal status, which is written
    /// exactly once per launched run, never from inside the attempt
    /// closure: a detached attempt that straggles in after its run timed
    /// out cannot overwrite it, because store transitions enforce the
    /// lifecycle. A run whose task never reached a worker (refused or
    /// dropped by the scheduler) counts as failed and stays `Queued`, so
    /// a resuming relaunch picks it up.
    pub fn launch_with<S: Scheduler + ?Sized>(
        &self,
        runs: Vec<FsRun>,
        scheduler: &S,
        execute: impl Fn(&FsRun) -> Result<ExecOutcome, String> + Send + Sync + Clone + 'static,
        options: &LaunchOptions,
    ) -> LaunchSummary {
        let _span = observe::span(|| format!("experiment.launch:{}", self.name));
        let (sink, events) = mpsc::channel();
        let mut launch = Launch {
            summary: LaunchSummary::default(),
            events,
            runs: HashMap::new(),
            acks: HashMap::new(),
        };
        let mut waiting = VecDeque::new();
        let mut runs = runs.into_iter().peekable();
        // Round by round: workers start on the first round while the
        // next one is admitted.
        while runs.peek().is_some() {
            let round = runs.by_ref().take(ROUND).collect();
            for fs_run in self.admit(round, options, &mut launch.summary) {
                let run_id = fs_run.id();
                let (task, ran_here) = self.task(fs_run, execute.clone(), options);
                launch.runs.insert(task.name().to_owned(), run_id);
                observe::count("experiment.runs_launched", 1);
                let handle = scheduler.submit(task.events_to(sink.clone()));
                waiting.push_back((run_id, ran_here, handle));
            }
            let reports = take_ready(&mut waiting);
            self.settle(reports, options, &mut launch);
        }
        // Every run is submitted: block on the oldest report, and settle
        // it with every report in behind it.
        while let Some((run_id, ran_here, handle)) = waiting.pop_front() {
            let mut reports = vec![(run_id, ran_here, handle.wait())];
            reports.extend(take_ready(&mut waiting));
            self.settle(reports, options, &mut launch);
        }
        launch.summary
    }

    /// [`Experiment::launch_with`] on the process driver, executing
    /// each run as its kind says ([`crate::kinds::execute`]).
    ///
    /// # Panics
    ///
    /// Panics if `options` carry a retry policy or a fault injector
    /// (see [`Experiment::launch_with`]).
    pub fn launch_remote(
        &self,
        runs: Vec<FsRun>,
        scheduler: &RemoteScheduler,
        options: &LaunchOptions,
    ) -> LaunchSummary {
        self.launch_with(runs, scheduler, crate::kinds::execute, options)
    }

    /// Journals every event reported so far and seals `reports`, oldest
    /// first, as one batched edit. The reports are in before the drain,
    /// so each run's dispatch is journaled ahead of its seal.
    fn settle(&self, reports: Vec<Reported>, options: &LaunchOptions, launch: &mut Launch) {
        let mut edits = launch.drain(&self.runs);
        for (run_id, ran_here, report) in reports {
            edits.extend(self.seal(run_id, &ran_here, report, options, launch));
        }
        let _ = self.runs.commit_many(edits);
    }

    /// The edit that seals a run's terminal status from its task's
    /// report, exactly once per run, and counts it in the summary.
    /// `ran_here` counts the attempts the task's closure started in
    /// this process: those archived themselves. An attempt that ran in
    /// a worker process instead is archived from the outcome it sent
    /// back, in the same record as its ack and the terminal status.
    fn seal(
        &self,
        run_id: Uuid,
        ran_here: &AtomicU32,
        mut report: TaskReport,
        options: &LaunchOptions,
        launch: &mut Launch,
    ) -> Option<RunEdit<'_>> {
        launch.runs.remove(&report.name);
        let summary = &mut launch.summary;
        if report.attempts == 0 && report.lease_events.is_empty() {
            // No worker ever took the task: the record stays `Queued`.
            summary.failed += 1;
            return None;
        }
        let mut edit = self.runs.edit(run_id);
        for ack in launch.acks.remove(&run_id).into_iter().flatten() {
            edit = edit.event(ack);
        }
        let remote = ran_here.load(Ordering::SeqCst) == 0 && report.attempts > 0;
        if remote && matches!(report.state, TaskState::Succeeded | TaskState::Failed) {
            // A worker reporting `success: false` (e.g. a kernel panic)
            // still produced real results — only the terminal status
            // differs. A version-skewed or mangled outcome encoding
            // fails loudly: never archive a guess.
            let outcome = report
                .output
                .as_deref()
                .and_then(|output| crate::remote::decode_outcome(output).ok());
            let (archived, success) = archive_attempt(edit, outcome.as_ref(), Duration::ZERO);
            edit = archived;
            if !success {
                report.state = TaskState::Failed;
            }
        }
        if report.attempts > 1 || report.redeliveries > 0 {
            summary.retried += 1;
        }
        let (status, count) = match report.state {
            TaskState::Succeeded => (RunStatus::Done, &mut summary.done),
            TaskState::Failed => (RunStatus::Failed, &mut summary.failed),
            TaskState::TimedOut => {
                // The attempt never returned, so record it here before
                // sealing the terminal status.
                edit = edit.attempt(
                    "timed-out",
                    options.retry_policy.delay_before(report.attempts),
                );
                (RunStatus::TimedOut, &mut summary.timed_out)
            }
            TaskState::Quarantined => {
                // The quarantine record is persisted *first* so it
                // exists by the time the status flips.
                let letter = crate::quarantine::DeadLetter {
                    run_id,
                    task: report.name,
                    error: report.error.unwrap_or_default(),
                    redeliveries: report.redeliveries,
                    lease_events: report.lease_events,
                    attempts: report.attempts,
                    released: false,
                };
                let _ = crate::quarantine::persist(&self.db, &letter);
                (RunStatus::Quarantined, &mut summary.quarantined)
            }
        };
        *count += 1;
        Some(edit.transition(status))
    }

    /// The task for one run, and the count of attempts its closure has
    /// started. Each attempt executes the run and archives what it
    /// produced, under the launch's retry policy and fault injectors.
    /// The task carries the run's wire form only when `options` ask for
    /// nothing a worker process cannot honour.
    fn task(
        &self,
        fs_run: FsRun,
        execute: impl Fn(&FsRun) -> Result<ExecOutcome, String> + Send + Sync + 'static,
        options: &LaunchOptions,
    ) -> (Task, Arc<AtomicU32>) {
        let name = format!("{}/{}", self.name, fs_run.run_hash());
        let wire = (options.retry_policy == RetryPolicy::default()
            && options.fault.is_none()
            && options.worker_fault.is_none())
        .then(|| {
            let kind = RunKind::of_script(fs_run.run_script_path());
            (
                crate::remote::task_kind(kind.unwrap_or(RunKind::CampaignBoot)),
                crate::remote::encode_run_payload(fs_run.params()),
            )
        });
        let store = self.runs.clone();
        let policy = options.retry_policy.clone();
        let fault = options.fault.clone();
        let timeout = fs_run.timeout();
        let fault_name = name.clone();
        // 1-based attempt counter for this run, shared across the
        // per-attempt invocations of the closure below.
        let attempts = Arc::new(AtomicU32::new(0));
        let attempt_counter = Arc::clone(&attempts);
        let mut task = Task::new(name, move || {
            let attempt = attempt_counter.fetch_add(1, Ordering::SeqCst) + 1;
            // Queued -> Running on the first attempt, Retrying ->
            // Running afterwards.
            let _ = store.transition(fs_run.id(), RunStatus::Running);
            // Faults are injected around the executor (not around the
            // bookkeeping) so injected errors still leave a complete
            // provenance trail. Injected panics unwind here and are
            // caught by the task layer.
            let result = match &fault {
                Some(injector) => injector
                    .inject(&fault_name, attempt)
                    .and_then(|()| execute(&fs_run)),
                None => execute(&fs_run),
            };
            let (mut edit, success) = archive_attempt(
                store.edit(fs_run.id()),
                result.as_ref().ok(),
                policy.delay_before(attempt),
            );
            if !success {
                // Park the run for a possible retry; the terminal
                // status (if retries are exhausted) is sealed after
                // the report arrives, exactly once.
                edit = edit.transition(RunStatus::Retrying);
            }
            let _ = edit.commit();
            match result {
                Ok(outcome) if outcome.success => Ok(outcome.outcome),
                Ok(outcome) => Err(outcome.outcome),
                Err(err) => Err(err),
            }
        })
        .timeout(timeout)
        .retry_policy(options.retry_policy.clone());
        if let Some(injector) = &options.worker_fault {
            // Consulted by the scheduler's workers for worker-level
            // chaos; its attempt stream is expected to stay silent.
            task = task.fault_injector(Arc::clone(injector));
        }
        if let Some((kind, payload)) = wire {
            task = task.wire(kind, payload);
        }
        (task, attempts)
    }

    /// Admits a round of runs for launch, with one journal append for
    /// the fresh ones, recorded already `Queued`. A duplicate is skipped,
    /// or taken back under resume ([`Self::readmit`]). Returns the runs
    /// to execute, in order; `summary` counts every run either way.
    fn admit(
        &self,
        mut round: Vec<FsRun>,
        options: &LaunchOptions,
        summary: &mut LaunchSummary,
    ) -> Vec<FsRun> {
        for fs_run in &mut round {
            let _ = fs_run.transition(RunStatus::Queued);
        }
        let Ok(outcomes) = self.runs.record_many(&round) else {
            summary.failed += round.len();
            return Vec::new();
        };
        let admitted = round.into_iter().zip(outcomes);
        admitted
            .filter_map(|(fs_run, outcome)| match outcome {
                Ok(()) => {
                    summary.fresh += 1;
                    Some(fs_run)
                }
                Err(RunError::DuplicateRun { .. }) => self.readmit(&fs_run, options, summary),
                Err(_) => {
                    summary.failed += 1;
                    None
                }
            })
            .collect()
    }

    /// Applies resume semantics to a run whose hash is already stored:
    /// returns the *stored* record to execute, so provenance
    /// accumulates on one document, or `None` when the run is skipped.
    fn readmit(
        &self,
        fs_run: &FsRun,
        options: &LaunchOptions,
        summary: &mut LaunchSummary,
    ) -> Option<FsRun> {
        if !options.resume {
            summary.skipped_duplicates += 1;
            return None;
        }
        let stored = match self.runs.find_by_hash(fs_run.run_hash()) {
            Ok(Some(stored)) => stored,
            _ => {
                summary.failed += 1;
                return None;
            }
        };
        match stored.status() {
            RunStatus::Done => {
                summary.skipped_done += 1;
                return None;
            }
            RunStatus::Quarantined => {
                // Dead-lettered runs wait for an explicit
                // release; resume never takes that edge.
                summary.skipped_quarantined += 1;
                return None;
            }
            RunStatus::Queued => {
                // Stranded in the queue; already in the right
                // state to relaunch.
                summary.requeued += 1;
            }
            RunStatus::Created
            | RunStatus::Running
            | RunStatus::Retrying
            | RunStatus::Failed
            | RunStatus::TimedOut => {
                let _ = self.runs.transition(stored.id(), RunStatus::Queued);
                summary.requeued += 1;
            }
        }
        Some(stored)
    }

    /// Queries run documents (workflow step ⑧).
    pub fn query_runs(&self, filter: &Filter) -> Vec<Value> {
        self.db.collection(RunStore::COLLECTION).find(filter)
    }

    /// Finds every run that used the given artifact — the
    /// reproducibility query.
    ///
    /// # Errors
    ///
    /// Propagates decode failures from corrupt records.
    pub fn runs_using(&self, artifact: ArtifactId) -> Result<Vec<FsRun>, ExperimentError> {
        Ok(self.runs.find_by_artifact(artifact)?)
    }
}

/// Runs per round of [`Experiment::launch_with`]: each round admits
/// them with one journal append, and each settle pass journals with
/// one more. Small enough that a round fits the process driver's
/// 256-job queue with room to spare, so submits do not block on
/// backpressure while nothing settles; PERFORMANCE.md ("Group commit")
/// has the sweep.
const ROUND: usize = 64;

/// A run whose task has reported: its id, the count of attempts its
/// closure started here, and the report.
type Reported = (Uuid, Arc<AtomicU32>, TaskReport);

/// Takes every report already in from the front of `waiting`, oldest
/// first, up to the first task still out.
fn take_ready(waiting: &mut VecDeque<(Uuid, Arc<AtomicU32>, TaskHandle)>) -> Vec<Reported> {
    let mut ready = Vec::new();
    while let Some(report) = waiting.front().and_then(|(_, _, handle)| handle.try_wait()) {
        let (run_id, ran_here, _) = waiting.pop_front().expect("polled the front");
        ready.push((run_id, ran_here, report));
    }
    ready
}

/// What one launch holds while its reports come in: the summary so
/// far, and the delivery events its tasks' sink received.
struct Launch {
    summary: LaunchSummary,
    events: mpsc::Receiver<RemoteEvent>,
    /// Run id by task name, for every run awaiting its report.
    runs: HashMap<String, Uuid>,
    /// `remote-ack` lines held for their run's settle write.
    acks: HashMap<Uuid, Vec<String>>,
}

impl Launch {
    /// The edits of every event enqueued so far, in order: a dispatch
    /// together with `Running`, a reconnect on its own. An ack is held
    /// for its run's settle record.
    fn drain<'s>(&mut self, store: &'s RunStore) -> Vec<RunEdit<'s>> {
        let mut edits = Vec::new();
        while let Ok(event) = self.events.try_recv() {
            let (task, line) = match &event {
                RemoteEvent::Dispatched {
                    task,
                    delivery,
                    generation,
                } => (task, format!("remote-dispatch:{delivery}:g{generation}")),
                RemoteEvent::Acked {
                    task,
                    delivery,
                    generation,
                } => (task, format!("remote-ack:{delivery}:g{generation}")),
                // A worker session resumed over a fresh TCP connection
                // while holding this run's lease; journal the resume so
                // SA0018 can audit acks against live sessions.
                RemoteEvent::Reconnected {
                    task,
                    session,
                    generation,
                } => (task, format!("remote-reconnect:{session}:g{generation}")),
            };
            let Some(&id) = self.runs.get(task) else {
                continue;
            };
            let edit = match event {
                RemoteEvent::Acked { .. } => {
                    self.acks.entry(id).or_default().push(line);
                    continue;
                }
                // Queued -> Running on the first delivery; later
                // deliveries find the run already Running and the
                // refused edge is simply dropped.
                RemoteEvent::Dispatched { .. } => {
                    store.edit(id).event(line).transition(RunStatus::Running)
                }
                _ => store.edit(id).event(line),
            };
            edits.push(edit);
        }
        edits
    }
}

/// Adds to `edit` what one attempt produced — the executor's
/// provenance events (e.g. the checkpoint save/restore trail) before
/// the results, then the attempt record — and says whether the attempt
/// succeeded. `None` is an attempt that produced no outcome at all.
fn archive_attempt<'a>(
    mut edit: RunEdit<'a>,
    outcome: Option<&ExecOutcome>,
    delay_before: Duration,
) -> (RunEdit<'a>, bool) {
    if let Some(outcome) = outcome {
        for event in &outcome.events {
            edit = edit.event(event.as_str());
        }
        edit = edit.results(outcome.sim_ticks, &outcome.outcome, &outcome.payload);
    }
    let success = outcome.is_some_and(|outcome| outcome.success);
    let disposition = if success { "succeeded" } else { "errored" };
    (edit.attempt(disposition, delay_before), success)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simart_artifact::{ArtifactKind, ContentSource};
    use simart_tasks::PoolScheduler;

    fn experiment_with_components() -> (Experiment, [ArtifactId; 5]) {
        let experiment = Experiment::new("test");
        let repo = experiment
            .register_artifact(
                Artifact::builder("sim-repo", ArtifactKind::GitRepo)
                    .documentation("src")
                    .content(ContentSource::git("https://x", "rev1")),
            )
            .unwrap();
        let binary = experiment
            .register_artifact(
                Artifact::builder("sim", ArtifactKind::Binary)
                    .documentation("bin")
                    .content(ContentSource::bytes(b"elf".to_vec()))
                    .input(repo.id()),
            )
            .unwrap();
        let script = experiment
            .register_artifact(
                Artifact::builder("script", ArtifactKind::RunScript)
                    .documentation("cfg")
                    .content(ContentSource::bytes(b"py".to_vec())),
            )
            .unwrap();
        let kernel = experiment
            .register_artifact(
                Artifact::builder("vmlinux", ArtifactKind::Kernel)
                    .documentation("kernel")
                    .content(ContentSource::bytes(b"krn".to_vec())),
            )
            .unwrap();
        let disk = experiment
            .register_artifact(
                Artifact::builder("disk", ArtifactKind::DiskImage)
                    .documentation("img")
                    .content(ContentSource::bytes(b"img".to_vec())),
            )
            .unwrap();
        let ids = [binary.id(), repo.id(), script.id(), kernel.id(), disk.id()];
        (experiment, ids)
    }

    fn make_run(experiment: &Experiment, ids: [ArtifactId; 5], app: &str) -> FsRun {
        let [binary, repo, script, kernel, disk] = ids;
        experiment
            .create_fs_run(|b| {
                b.simulator(binary, "sim")
                    .simulator_repo(repo)
                    .run_script(script, "run.py")
                    .kernel(kernel, "vmlinux")
                    .disk_image(disk, "disk.img")
                    .param(app)
            })
            .unwrap()
    }

    #[test]
    fn artifacts_are_mirrored_into_the_database() {
        let (experiment, _) = experiment_with_components();
        assert_eq!(experiment.artifact_count(), 5);
        assert_eq!(
            experiment.database().collection("artifacts").len(),
            5,
            "registry and database stay in sync"
        );
    }

    #[test]
    fn launch_executes_and_archives_results() {
        let (experiment, ids) = experiment_with_components();
        let runs: Vec<FsRun> = ["a", "b", "c"]
            .iter()
            .map(|app| make_run(&experiment, ids, app))
            .collect();
        let run_ids: Vec<_> = runs.iter().map(|r| r.id()).collect();
        let pool = PoolScheduler::new(2);
        let summary = experiment.launch(runs, &pool, |run| {
            Ok(ExecOutcome {
                outcome: "success".into(),
                sim_ticks: 1000 + run.params()[0].len() as u64,
                payload: format!("stats for {}", run.params()[0]).into_bytes(),
                success: true,
                events: vec![],
            })
        });
        assert_eq!(summary.done, 3);
        assert_eq!(summary.total(), 3);
        for id in run_ids {
            let stored = experiment.runs().load(id).unwrap();
            assert_eq!(stored.status(), RunStatus::Done);
            assert!(experiment.runs().load_results(id).is_some());
        }
    }

    #[test]
    fn duplicate_runs_are_skipped() {
        let (experiment, ids) = experiment_with_components();
        let first = vec![make_run(&experiment, ids, "same")];
        let second = vec![make_run(&experiment, ids, "same")];
        let pool = PoolScheduler::new(1);
        let ok = |_: &FsRun| {
            Ok(ExecOutcome {
                outcome: "success".into(),
                sim_ticks: 1,
                payload: vec![],
                success: true,
                events: vec![],
            })
        };
        let s1 = experiment.launch(first, &pool, ok);
        assert_eq!(s1.done, 1);
        let s2 = experiment.launch(second, &pool, ok);
        assert_eq!(s2.skipped_duplicates, 1);
        assert_eq!(s2.done, 0);
    }

    #[test]
    fn failures_are_recorded() {
        let (experiment, ids) = experiment_with_components();
        let runs = vec![make_run(&experiment, ids, "doomed")];
        let id = runs[0].id();
        let pool = PoolScheduler::new(1);
        let summary = experiment.launch(runs, &pool, |_| Err("simulated crash".to_owned()));
        assert_eq!(summary.failed, 1);
        assert_eq!(
            experiment.runs().load(id).unwrap().status(),
            RunStatus::Failed
        );
    }

    #[test]
    fn retry_policy_reruns_flaky_executors() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let (experiment, ids) = experiment_with_components();
        let runs = vec![make_run(&experiment, ids, "flaky")];
        let id = runs[0].id();
        let pool = PoolScheduler::new(1);
        let calls = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&calls);
        let options = LaunchOptions::default().retry_policy(RetryPolicy::immediate(3));
        let summary = experiment.launch_with(
            runs,
            &pool,
            move |_| {
                if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err("transient".to_owned())
                } else {
                    Ok(ExecOutcome {
                        outcome: "success".into(),
                        sim_ticks: 7,
                        payload: vec![],
                        success: true,
                        events: vec![],
                    })
                }
            },
            &options,
        );
        assert_eq!(summary.done, 1);
        assert_eq!(summary.retried, 1);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(
            experiment.runs().load(id).unwrap().status(),
            RunStatus::Done
        );
        let history = experiment.runs().attempt_history(id).unwrap();
        assert_eq!(history.len(), 3);
        assert_eq!(history[2].disposition, "succeeded");
        // Terminal status appears exactly once in the provenance log.
        let terminal: Vec<_> = experiment
            .runs()
            .events(id)
            .into_iter()
            .filter(|e| ["status:done", "status:failed", "status:timed-out"].contains(&e.as_str()))
            .collect();
        assert_eq!(terminal, vec!["status:done"]);
    }

    #[test]
    fn resume_skips_done_and_requeues_failed() {
        let (experiment, ids) = experiment_with_components();
        let good = make_run(&experiment, ids, "good");
        let bad = make_run(&experiment, ids, "bad");
        let good_id = good.id();
        let bad_id = bad.id();
        let pool = PoolScheduler::new(2);
        let run_batch = |resume: bool, fail_bad: bool| {
            let runs = vec![
                make_run(&experiment, ids, "good"),
                make_run(&experiment, ids, "bad"),
            ];
            let options = if resume {
                LaunchOptions::resuming()
            } else {
                LaunchOptions::default()
            };
            experiment.launch_with(
                runs,
                &pool,
                move |run: &FsRun| {
                    if fail_bad && run.params()[0] == "bad" {
                        Err("boom".to_owned())
                    } else {
                        Ok(ExecOutcome {
                            outcome: "success".into(),
                            sim_ticks: 1,
                            payload: vec![],
                            success: true,
                            events: vec![],
                        })
                    }
                },
                &options,
            )
        };
        // First launch with the original run objects: good done, bad failed.
        let options = LaunchOptions::default();
        let s1 = experiment.launch_with(
            vec![good, bad],
            &pool,
            |run: &FsRun| {
                if run.params()[0] == "bad" {
                    Err("boom".to_owned())
                } else {
                    Ok(ExecOutcome {
                        outcome: "success".into(),
                        sim_ticks: 1,
                        payload: vec![],
                        success: true,
                        events: vec![],
                    })
                }
            },
            &options,
        );
        assert_eq!((s1.done, s1.failed, s1.fresh), (1, 1, 2));
        // Non-resume relaunch: both are duplicates, nothing runs.
        let s2 = run_batch(false, true);
        assert_eq!(s2.skipped_duplicates, 2);
        assert_eq!(s2.total(), 2);
        // Resume: the done run is skipped, the failed one re-queued and
        // (healed) succeeds on the same record.
        let s3 = run_batch(true, false);
        assert_eq!((s3.skipped_done, s3.requeued, s3.done), (1, 1, 1));
        assert_eq!(
            experiment.runs().load(bad_id).unwrap().status(),
            RunStatus::Done
        );
        assert_eq!(
            experiment.runs().load(good_id).unwrap().status(),
            RunStatus::Done
        );
        // The healed run kept one record: no duplicate documents.
        assert_eq!(experiment.runs().len(), 2);
    }

    #[test]
    fn resume_requeues_stranded_running_runs() {
        let (experiment, ids) = experiment_with_components();
        let run = make_run(&experiment, ids, "stranded");
        let id = run.id();
        experiment.runs().record(&run).unwrap();
        // Simulate a crashed session: the run was mid-flight.
        experiment
            .runs()
            .set_status(id, RunStatus::Running)
            .unwrap();
        let pool = PoolScheduler::new(1);
        let summary = experiment.launch_with(
            vec![make_run(&experiment, ids, "stranded")],
            &pool,
            |_| {
                Ok(ExecOutcome {
                    outcome: "success".into(),
                    sim_ticks: 9,
                    payload: vec![],
                    success: true,
                    events: vec![],
                })
            },
            &LaunchOptions::resuming(),
        );
        assert_eq!((summary.requeued, summary.done), (1, 1));
        assert_eq!(
            experiment.runs().load(id).unwrap().status(),
            RunStatus::Done
        );
    }

    #[test]
    fn fault_injection_flows_through_launch() {
        let (experiment, ids) = experiment_with_components();
        let runs = vec![make_run(&experiment, ids, "faulted")];
        let id = runs[0].id();
        let pool = PoolScheduler::new(1);
        let injector = Arc::new(simart_tasks::FaultInjector::new(5).errors(1.0));
        let options = LaunchOptions::default()
            .retry_policy(RetryPolicy::immediate(2))
            .fault(Arc::clone(&injector));
        let summary = experiment.launch_with(
            runs,
            &pool,
            |_| {
                Ok(ExecOutcome {
                    outcome: "success".into(),
                    sim_ticks: 1,
                    payload: vec![],
                    success: true,
                    events: vec![],
                })
            },
            &options,
        );
        assert_eq!(summary.failed, 1);
        assert_eq!(injector.injected_errors(), 2, "both attempts were injected");
        assert_eq!(
            experiment.runs().load(id).unwrap().status(),
            RunStatus::Failed
        );
    }

    #[test]
    fn query_runs_via_database() {
        let (experiment, ids) = experiment_with_components();
        let runs = vec![
            make_run(&experiment, ids, "q1"),
            make_run(&experiment, ids, "q2"),
        ];
        let pool = PoolScheduler::new(2);
        experiment.launch(runs, &pool, |_| {
            Ok(ExecOutcome {
                outcome: "success".into(),
                sim_ticks: 42,
                payload: vec![],
                success: true,
                events: vec![],
            })
        });
        let done = experiment.query_runs(&Filter::eq("status", "done"));
        assert_eq!(done.len(), 2);
        let with_results = experiment.query_runs(&Filter::gte("results.simTicks", 1i64));
        assert_eq!(with_results.len(), 2);
    }

    #[test]
    fn runs_using_traces_artifact_impact() {
        let (experiment, ids) = experiment_with_components();
        let runs = vec![make_run(&experiment, ids, "x")];
        let pool = PoolScheduler::new(1);
        experiment.launch(runs, &pool, |_| {
            Ok(ExecOutcome {
                outcome: "success".into(),
                sim_ticks: 1,
                payload: vec![],
                success: true,
                events: vec![],
            })
        });
        let kernel = ids[3];
        assert_eq!(experiment.runs_using(kernel).unwrap().len(), 1);
    }

    /// `launch_remote` must refuse the option before it touches the
    /// scheduler, so a worker program that never speaks the protocol
    /// will do.
    fn launch_remote_with(options: LaunchOptions) {
        let (experiment, ids) = experiment_with_components();
        let runs = vec![make_run(&experiment, ids, "x")];
        let remote = RemoteScheduler::new(simart_tasks::WorkerCommand::new("cat"), 1).unwrap();
        experiment.launch_remote(runs, &remote, &options);
    }

    #[test]
    #[should_panic(expected = "use SupervisorConfig::max_redeliveries")]
    fn launch_remote_rejects_a_retry_policy() {
        launch_remote_with(LaunchOptions::default().retry_policy(RetryPolicy::immediate(3)));
    }

    #[test]
    #[should_panic(expected = "for chaos use RemoteConfig::fault")]
    fn launch_remote_rejects_a_fault_injector() {
        launch_remote_with(LaunchOptions::default().fault(Arc::new(FaultInjector::new(1))));
    }

    #[test]
    #[should_panic(expected = "for chaos use RemoteConfig::fault")]
    fn launch_remote_rejects_a_worker_fault_injector() {
        launch_remote_with(LaunchOptions::default().worker_fault(Arc::new(FaultInjector::new(1))));
    }
}
