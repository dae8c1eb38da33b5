//! Crash-isolated multi-process task execution: the remote scheduler.
//!
//! [`RemoteScheduler`] is the process-level sibling of
//! [`BrokerScheduler`](crate::BrokerScheduler). Where the broker runs
//! worker *threads* in the coordinator's address space, the remote
//! scheduler spawns worker *processes* (the hidden `simart worker`
//! subcommand) and speaks the CRC-framed wire protocol of
//! [`crate::wire`] over a [`crate::transport`] byte stream per worker
//! — stdin/stdout pipes by default, or loopback TCP with
//! session-resume reconnects ([`TransportKind::Tcp`]). A segfaulting
//! or SIGKILLed simulation can therefore never take the coordinator
//! down — the deployment shape of the paper's Celery workers.
//!
//! Over TCP the *connection* can die while the *process* lives. The
//! Hello handshake carries a session token; a worker that loses its
//! connection redials with capped exponential backoff and resumes its
//! session. On resume the coordinator reconciles in-flight work: the
//! lease it granted stays granted (the worker may still be computing),
//! an unsent result is re-sent by the worker and deduplicated by
//! first-report-wins, and a dispatch frame lost in flight resolves
//! through ordinary lease expiry and redelivery. When *no* worker is
//! reachable past [`RemoteConfig::unreachable_deadline`] while work is
//! pending, the coordinator fails that work loudly instead of hanging.
//!
//! The delivery contract is the broker's, because it is the same code:
//! the pure `LeaseTable` (numbered deliveries under leases of task
//! timeout + grace, first-report-wins, redelivery up to
//! [`SupervisorConfig::max_redeliveries`] then
//! [`TaskState::Quarantined`], `"delivery:<n>:<cause>"` history in the
//! report), and so is the supervision around it: the pure
//! `Coordinator` decides which worker is retired, replaced, expired or
//! stale, and what is redelivered. This module is the process-level
//! shell that feeds it what the pipes, sockets and PIDs say and carries
//! out what it decides: a retired worker is SIGKILLed and reaped, and a
//! replacement spawned under the generation the core minted.
//!
//! The shell keeps the I/O: dispatch (an idle ready worker is sent the
//! head of the queue, and leased it once the frame is written),
//! bounded-queue backpressure on submit (blocking with a deadline,
//! [`SubmitError`] on shutdown), sessions and reconnects, and literal
//! chaos — a [`FaultInjector`] with a kill rate makes the coordinator
//! SIGKILL real worker PIDs at dispatch time.
//!
//! A process boundary cannot ship closures, so a worker runs a task's
//! *wire form*: a handler kind resolved by the worker's
//! [`HandlerRegistry`] plus an opaque string payload. As a
//! [`Scheduler`] the driver ships a [`Task`]'s wire form
//! ([`Task::wire`]) and refuses a task without one: a worker process
//! honours neither the task's retry policy nor its fault injector.
//! Each job's delivery events go to its own sink ([`Task::events_to`]),
//! each before the report it precedes. A bare [`RemoteTaskSpec`] is the
//! same wire form submitted directly; it has no sink. The worker side
//! of the protocol is [`worker_main`].

use crate::coord::{Coordinator, Effect, Loss, Observed, Phase, Workers};
use crate::fault::{Fault, FaultInjector};
use crate::lease::{Cause, Job, JobId, Owner, Settled};
use crate::supervise::SupervisorConfig;
use crate::task::{AttemptDisposition, AttemptRecord, Task, TaskHandle, TaskReport, TaskState};
use crate::transport::{
    self, ChaosReader, ChaosWriter, Duplex, SessionFrames, Transport, TransportKind,
    WORKER_SESSION_ENV,
};
use crate::wire::{Message, WireReader, PROTOCOL_VERSION};
use crate::Scheduler;
use simart_observe as observe;
use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::worker::{worker_main, worker_main_connect, HandlerRegistry, WorkerJob};

/// How a worker process is launched. The program must run
/// [`worker_main`] and speak the wire protocol on stdin/stdout
/// (stderr is inherited, so worker logs land in the coordinator's
/// stderr).
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    program: PathBuf,
    args: Vec<String>,
    envs: Vec<(String, String)>,
}

impl WorkerCommand {
    /// A command launching `program` with no arguments.
    pub fn new(program: impl Into<PathBuf>) -> WorkerCommand {
        WorkerCommand {
            program: program.into(),
            args: Vec::new(),
            envs: Vec::new(),
        }
    }

    /// Appends a command-line argument.
    pub fn arg(mut self, arg: impl Into<String>) -> WorkerCommand {
        self.args.push(arg.into());
        self
    }

    /// Sets an environment variable for the worker process.
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> WorkerCommand {
        self.envs.push((key.into(), value.into()));
        self
    }

    /// Spawns the worker with its stdin/stdout piped to the
    /// coordinator (the pipe transport).
    pub(crate) fn spawn_piped(&self) -> std::io::Result<Child> {
        let mut cmd = Command::new(&self.program);
        cmd.args(&self.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        for (key, value) in &self.envs {
            cmd.env(key, value);
        }
        cmd.spawn()
    }

    /// Spawns the worker pointed at a TCP coordinator: `--connect
    /// ADDR` is appended and the session token rides in
    /// [`WORKER_SESSION_ENV`]. Stdio is left alone — the socket is
    /// the protocol, stdout is free for logs.
    pub(crate) fn spawn_connected(&self, addr: &str, session: u64) -> std::io::Result<Child> {
        let mut cmd = Command::new(&self.program);
        cmd.args(&self.args)
            .arg("--connect")
            .arg(addr)
            .env(WORKER_SESSION_ENV, session.to_string())
            .stdin(Stdio::null());
        for (key, value) in &self.envs {
            cmd.env(key, value);
        }
        cmd.spawn()
    }
}

/// Tuning for a [`RemoteScheduler`].
#[derive(Clone)]
pub struct RemoteConfig {
    /// The broker supervision contract: heartbeat cadence, lease
    /// grace, how often a job may be redelivered. `max_detached` is
    /// unused — remote workers are killed, never detached.
    pub supervisor: SupervisorConfig,
    /// Bound on queued (not yet dispatched) jobs; submits beyond it
    /// block until space frees or `submit_deadline` passes.
    pub queue_capacity: usize,
    /// How long a backpressured submit may block before returning
    /// [`SubmitError::Backpressure`].
    pub submit_deadline: Duration,
    /// How long a draining shutdown waits for in-flight and queued
    /// work before abandoning the remainder.
    pub drain_deadline: Duration,
    /// Chaos injector consulted once per dispatch; a
    /// [`Fault::WorkerKill`] draw SIGKILLs the worker's real PID.
    /// With network-fault rates configured (and the TCP transport),
    /// worker connections are additionally wrapped in
    /// [`ChaosWriter`]/[`ChaosReader`].
    pub fault: Option<Arc<FaultInjector>>,
    /// Which byte stream workers speak the wire protocol over.
    pub transport: TransportKind,
    /// TCP only: how long the coordinator tolerates queued or
    /// in-flight work with *no* reachable worker before failing that
    /// work loudly (`workers-unreachable`) instead of hanging.
    pub unreachable_deadline: Duration,
}

impl Default for RemoteConfig {
    fn default() -> RemoteConfig {
        RemoteConfig {
            supervisor: SupervisorConfig::default(),
            queue_capacity: 256,
            submit_deadline: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(60),
            fault: None,
            transport: TransportKind::Pipe,
            unreachable_deadline: Duration::from_secs(30),
        }
    }
}

impl fmt::Debug for RemoteConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteConfig")
            .field("supervisor", &self.supervisor)
            .field("queue_capacity", &self.queue_capacity)
            .field("submit_deadline", &self.submit_deadline)
            .field("drain_deadline", &self.drain_deadline)
            .field("fault", &self.fault.is_some())
            .field("transport", &self.transport)
            .field("unreachable_deadline", &self.unreachable_deadline)
            .finish()
    }
}

/// A unit of work submittable across the process boundary: a handler
/// `kind` (resolved in the worker's [`HandlerRegistry`]) plus an
/// opaque payload string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteTaskSpec {
    /// Task name, for reports and provenance.
    pub name: String,
    /// Handler kind the worker resolves.
    pub kind: String,
    /// Opaque serialized input handed to the handler.
    pub payload: String,
    /// Wall-clock timeout enforced by the coordinator's lease (the
    /// worker is SIGKILLed once timeout + grace passes).
    pub timeout: Option<Duration>,
}

impl RemoteTaskSpec {
    /// Creates a spec with no timeout.
    pub fn new(
        name: impl Into<String>,
        kind: impl Into<String>,
        payload: impl Into<String>,
    ) -> RemoteTaskSpec {
        RemoteTaskSpec {
            name: name.into(),
            kind: kind.into(),
            payload: payload.into(),
            timeout: None,
        }
    }

    /// Sets the lease-enforced timeout.
    pub fn timeout(mut self, timeout: Duration) -> RemoteTaskSpec {
        self.timeout = Some(timeout);
        self
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue stayed full past the submit deadline.
    Backpressure,
    /// The scheduler is shutting down and accepts no new work.
    Shutdown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Backpressure => {
                f.write_str("remote queue full: backpressure deadline exceeded")
            }
            SubmitError::Shutdown => f.write_str("remote scheduler is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A job's delivery provenance, sent to the sink of the task it names
/// ([`Task::events_to`]); the experiment layer journals them onto runs
/// as `remote-dispatch` / `remote-ack` / `remote-reconnect` events.
/// Redeliveries and dead letters reach the run through
/// [`TaskReport::lease_events`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteEvent {
    /// A job was written to a worker's pipe.
    Dispatched {
        /// Task name.
        task: String,
        /// 1-based delivery number.
        delivery: u32,
        /// Generation of the worker it went to.
        generation: u64,
    },
    /// A worker's result was accepted (first report wins).
    Acked {
        /// Task name.
        task: String,
        /// Delivery number that reported.
        delivery: u32,
        /// Generation that reported.
        generation: u64,
    },
    /// A worker session reconnected over a fresh TCP connection while
    /// holding this task's lease; the coordinator resumed the session
    /// and kept the lease (emitted once per in-flight task per
    /// reconnect, for `remote-reconnect:<session>:g<gen>` provenance).
    Reconnected {
        /// Task whose lease survived the reconnect.
        task: String,
        /// Session token that resumed.
        session: u64,
        /// Generation of the resuming worker.
        generation: u64,
    },
}

/// Counters snapshot from [`RemoteScheduler::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RemoteStats {
    /// Live worker slots.
    pub workers: usize,
    /// Jobs accepted by `submit`.
    pub submitted: u64,
    /// Results delivered to handles.
    pub completed: u64,
    /// Jobs discarded at shutdown without a report.
    pub dropped: u64,
    /// Jobs dead-lettered (quarantined / failed / timed out by the
    /// supervisor).
    pub dead_lettered: u64,
    /// Lease recoveries that led to another delivery.
    pub redelivered: u64,
    /// Worker processes respawned after death or a wedge.
    pub respawns: u64,
    /// Hard frame/decode errors on worker pipes.
    pub frame_errors: u64,
    /// Real SIGKILLs sent by the chaos injector.
    pub chaos_kills: u64,
    /// TCP sessions that reconnected and resumed after losing their
    /// connection.
    pub reconnects: u64,
    /// Worker connections lost while the process stayed alive
    /// (partitions, resets, broken dispatch writes).
    pub partitions: u64,
    /// In-flight leases reconciled (kept granted) across a session
    /// resume.
    pub resume_reconciled: u64,
    /// Jobs queued but not yet dispatched.
    pub backlog: usize,
    /// Jobs dispatched and awaiting a result (live leases).
    pub in_flight: usize,
}

/// What the lease table keeps for each job: the spec to dispatch, and
/// where its single report goes.
struct RemoteJob {
    spec: RemoteTaskSpec,
    report_tx: SyncSender<TaskReport>,
}

/// The I/O half of a worker slot; the core keeps its generation and
/// phase.
#[derive(Default)]
struct Slot {
    child: Option<Child>,
    /// Writer half of the worker's connection (`None` while a TCP
    /// worker is between connections).
    writer: Option<Box<dyn Write + Send>>,
    pid: u32,
    reader: Option<JoinHandle<()>>,
    /// Session token minted at spawn; a reconnecting TCP worker
    /// presents it in its Hello to resume this slot.
    session: u64,
    /// Monotonic id of the currently attached connection (`0` before
    /// the first attach); stale readers carry an older epoch.
    conn_epoch: u64,
    /// A connection has been attached at least once — the next attach
    /// is a *resume*, not the initial join.
    had_conn: bool,
    /// Lifetime chaos-frame counter for this session, shared with the
    /// [`ChaosWriter`] of every connection so reconnects continue the
    /// session's fault stream instead of replaying frame 0.
    net_frames: SessionFrames,
}

struct CoordState {
    /// Supervision: the queue, leases, generations, phases, counters.
    coord: Coordinator<RemoteJob>,
    slots: Vec<Slot>,
    /// The core's effect buffer, reused by every input.
    effects: Vec<Effect<RemoteJob>>,
    /// Where each unsettled job's delivery events go, if anywhere.
    sinks: HashMap<JobId, Sender<RemoteEvent>>,
    retired_readers: Vec<JoinHandle<()>>,
    next_session: u64,
    next_epoch: u64,
    /// No new submits accepted.
    shutdown: bool,
    /// Children reaped and threads joined; terminal.
    reaped: bool,
    drained_clean: bool,
}

struct Shared {
    command: WorkerCommand,
    config: RemoteConfig,
    transport: Box<dyn Transport>,
    state: Mutex<CoordState>,
    /// Signalled when queue space frees, leases resolve, or shutdown
    /// progresses — submitters and the draining shutdown wait here.
    space: Condvar,
    stopping: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, CoordState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Process-level scheduler: spawns crash-isolated worker processes and
/// delivers [`RemoteTaskSpec`]s to them over the wire protocol under
/// the broker's lease/supervision contract. See the module docs.
pub struct RemoteScheduler {
    shared: Arc<Shared>,
    /// The supervisor, plus the acceptor on a joining transport.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl RemoteScheduler {
    /// Spawns `workers` worker processes with default configuration.
    ///
    /// # Errors
    ///
    /// Propagates the spawn failure if no worker process could be
    /// started at all.
    pub fn new(command: WorkerCommand, workers: usize) -> std::io::Result<RemoteScheduler> {
        RemoteScheduler::with_config(command, workers, RemoteConfig::default())
    }

    /// Spawns `workers` worker processes under `config`.
    ///
    /// # Errors
    ///
    /// Propagates the spawn failure if no worker process could be
    /// started at all.
    pub fn with_config(
        command: WorkerCommand,
        workers: usize,
        config: RemoteConfig,
    ) -> std::io::Result<RemoteScheduler> {
        let workers = workers.max(1);
        let transport = transport::make_transport(config.transport)?;
        let mut spawns = Vec::new();
        let unreachable = config.unreachable_deadline;
        let coord = Coordinator::new(
            config.supervisor,
            Workers::Processes { unreachable },
            workers,
            Instant::now(),
            &mut spawns,
        );
        let shared = Arc::new(Shared {
            command,
            config,
            transport,
            state: Mutex::new(CoordState {
                coord,
                slots: (0..workers).map(|_| Slot::default()).collect(),
                effects: Vec::new(),
                sinks: HashMap::new(),
                retired_readers: Vec::new(),
                next_session: 0,
                next_epoch: 0,
                shutdown: false,
                reaped: false,
                drained_clean: true,
            }),
            space: Condvar::new(),
            stopping: AtomicBool::new(false),
        });
        let mut spawn_error = None;
        {
            let mut st = shared.lock();
            for spawn in spawns {
                if let Effect::Spawn { slot, generation } = spawn {
                    if let Err(err) = start_worker(&shared, &mut st, slot, generation) {
                        spawn_error = Some(err);
                    }
                }
            }
        }
        if shared.lock().slots.iter().all(|s| s.child.is_none()) {
            shared.transport.close();
            return Err(
                spawn_error.unwrap_or_else(|| std::io::Error::other("no worker process started"))
            );
        }
        let mut threads = Vec::new();
        let supervised = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || supervise_loop(&supervised)));
        if shared.transport.joins() {
            let accepting = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_loop(&accepting)));
        }
        Ok(RemoteScheduler {
            shared,
            threads: Mutex::new(threads),
        })
    }

    /// Submits a spec, blocking while the bounded queue is full.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Backpressure`] when the queue stays full past
    /// the configured deadline; [`SubmitError::Shutdown`] after
    /// shutdown began.
    pub fn submit(&self, spec: RemoteTaskSpec) -> Result<TaskHandle, SubmitError> {
        self.enqueue(spec, None)
    }

    /// [`RemoteScheduler::submit`], telling `sink` the job's delivery
    /// events.
    fn enqueue(
        &self,
        spec: RemoteTaskSpec,
        sink: Option<Sender<RemoteEvent>>,
    ) -> Result<TaskHandle, SubmitError> {
        let name = spec.name.clone();
        // Room for the one report: a send never blocks.
        let (report_tx, receiver) = sync_channel(1);
        let deadline = Instant::now() + self.shared.config.submit_deadline;
        let mut st = self.shared.lock();
        loop {
            if st.shutdown {
                return Err(SubmitError::Shutdown);
            }
            if st.coord.queued() < self.shared.config.queue_capacity {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                observe::count("broker.remote_backpressure_timeouts", 1);
                return Err(SubmitError::Backpressure);
            }
            let (guard, _) = self
                .shared
                .space
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st = guard;
        }
        observe::count("broker.remote_submitted", 1);
        let (timeout, job) = (spec.timeout, name.clone());
        let payload = RemoteJob { spec, report_tx };
        let job = apply(&self.shared, &mut st, |coord, _, now| {
            coord.submit(job, timeout, payload, now)
        });
        if let (Some(job), Some(sink)) = (job, sink) {
            st.sinks.insert(job, sink);
        }
        pump(&self.shared, &mut st);
        Ok(TaskHandle { receiver, name })
    }

    /// Gracefully drains: refuses new submits, waits (up to the drain
    /// deadline) for queued and in-flight work to finish — the
    /// supervisor keeps respawning and redelivering during the wait —
    /// then sends every worker `Drain`, closes its stdin, and reaps
    /// all child PIDs. Returns `true` when everything completed (no
    /// work was abandoned).
    pub fn shutdown(&self) -> bool {
        let mut guard = self.shared.lock();
        if guard.reaped {
            return guard.drained_clean;
        }
        guard.shutdown = true;
        let deadline = Instant::now() + self.shared.config.drain_deadline;
        while !guard.coord.is_empty() && Instant::now() < deadline {
            let (next, _) = self
                .shared
                .space
                .wait_timeout(guard, Duration::from_millis(20))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            guard = next;
        }
        let st = &mut *guard;
        let clean = st.coord.is_empty();
        st.drained_clean = clean;
        st.coord.abandon();
        let tcp = self.shared.transport.joins();
        for slot in &mut st.slots {
            match slot.writer.as_mut() {
                Some(writer) => {
                    let _ = writer
                        .write_all(&Message::Drain.to_frame())
                        .and_then(|()| writer.flush());
                }
                // A disconnected TCP worker cannot hear the Drain;
                // kill it so the reap below does not wait out its
                // whole grace.
                None if tcp => {
                    if let Some(child) = slot.child.as_mut() {
                        let _ = child.kill();
                    }
                }
                None => {}
            }
            // Dropping the pipe writer closes the worker's stdin, so
            // even a worker that missed the Drain frame exits on EOF.
            slot.writer = None;
        }
        drop(guard);
        // No further joins: reconnecting workers exhaust their dial
        // budget and exit.
        self.shared.transport.close();
        self.reap(Duration::from_secs(5));
        clean
    }

    /// Abandons immediately: discards queued jobs, drops in-flight
    /// leases (their handles synthesize "scheduler dropped task"
    /// reports), SIGKILLs every worker, and reaps all child PIDs.
    /// Returns how many queued jobs were discarded — the side-by-side
    /// contrast to the draining [`RemoteScheduler::shutdown`].
    pub fn shutdown_now(&self) -> u64 {
        let mut guard = self.shared.lock();
        if guard.reaped {
            return 0;
        }
        let st = &mut *guard;
        st.shutdown = true;
        st.drained_clean = st.coord.is_empty();
        let discarded = st.coord.abandon() as u64;
        for slot in &mut st.slots {
            if let Some(child) = slot.child.as_mut() {
                let _ = child.kill();
            }
            slot.writer = None;
        }
        drop(guard);
        self.shared.transport.close();
        self.shared.space.notify_all();
        self.reap(Duration::ZERO);
        discarded
    }

    /// Current counters.
    pub fn stats(&self) -> RemoteStats {
        let st = self.shared.lock();
        let c = &st.coord.counters;
        RemoteStats {
            workers: st.slots.iter().filter(|slot| slot.child.is_some()).count(),
            submitted: c.submitted,
            completed: c.completed,
            dropped: c.dropped,
            dead_lettered: c.dead_lettered,
            redelivered: c.redelivered,
            respawns: c.respawns,
            frame_errors: c.frame_errors,
            chaos_kills: c.chaos_kills,
            reconnects: c.reconnects,
            partitions: c.partitions,
            resume_reconciled: c.resume_reconciled,
            backlog: st.coord.queued(),
            in_flight: st.coord.in_flight(),
        }
    }

    /// The coordinator's bound listener address, when the transport
    /// has one (`--transport tcp`).
    pub fn listen_addr(&self) -> Option<std::net::SocketAddr> {
        self.shared.transport.listen_addr()
    }

    /// OS PIDs of the currently live worker processes (for tests that
    /// kill them or assert they were reaped).
    pub fn worker_pids(&self) -> Vec<u32> {
        let st = self.shared.lock();
        st.slots
            .iter()
            .filter(|s| s.child.is_some())
            .map(|s| s.pid)
            .collect()
    }

    /// Waits for every child PID to exit, force-killing any still
    /// alive after `grace`, then joins the reader, supervisor and
    /// acceptor threads. Leaves no zombies behind.
    fn reap(&self, grace: Duration) {
        let (children, readers) = {
            let mut st = self.shared.lock();
            let children: Vec<Child> = st.slots.iter_mut().filter_map(|s| s.child.take()).collect();
            let mut readers: Vec<JoinHandle<()>> = st
                .slots
                .iter_mut()
                .filter_map(|s| s.reader.take())
                .collect();
            readers.append(&mut st.retired_readers);
            (children, readers)
        };
        for mut child in children {
            let deadline = Instant::now() + grace;
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() >= deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                    Err(_) => break,
                }
            }
        }
        for reader in readers {
            let _ = reader.join();
        }
        self.shared.lock().reaped = true;
        self.shared.space.notify_all();
        self.shared.stopping.store(true, Ordering::SeqCst);
        let threads = std::mem::take(&mut *self.threads.lock().unwrap_or_else(|p| p.into_inner()));
        for thread in threads {
            let _ = thread.join();
        }
    }
}

/// The process driver: ships each task's wire form under the task's
/// timeout, and tells the task's sink its delivery events.
impl Scheduler for RemoteScheduler {
    /// A submit refused by backpressure or shutdown returns a handle
    /// that reports the task dropped without an attempt.
    ///
    /// # Panics
    ///
    /// Panics if the task has no wire form ([`Task::wire`]).
    fn submit(&self, task: Task) -> TaskHandle {
        let Some((kind, payload)) = task.wire else {
            panic!(
                "task `{}` has no wire form, and a worker process runs nothing else: it honours \
                 no retry policy or fault injector. For retries use \
                 SupervisorConfig::max_redeliveries; for chaos use RemoteConfig::fault",
                task.name
            );
        };
        let spec = RemoteTaskSpec {
            name: task.name.clone(),
            kind,
            payload,
            timeout: task.timeout,
        };
        // Refused: with no sender left, the handle reports the task
        // dropped.
        self.enqueue(spec, task.events)
            .unwrap_or_else(|_| TaskHandle {
                receiver: std::sync::mpsc::channel().1,
                name: task.name,
            })
    }

    fn name(&self) -> &'static str {
        "remote"
    }
}

impl Drop for RemoteScheduler {
    fn drop(&mut self) {
        let reaped = self.shared.lock().reaped;
        if !reaped {
            self.shutdown();
        }
    }
}

impl fmt::Debug for RemoteScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteScheduler")
            .field("stats", &self.stats())
            .finish()
    }
}

/// The metric each core counter feeds, counted as the counter moves.
const OBSERVED: [Observed; 8] = [
    ("broker.remote_acks", |c| c.completed),
    ("broker.remote_redelivered", |c| c.redelivered),
    ("broker.remote_dead_letters", |c| c.dead_lettered),
    ("broker.remote_respawns", |c| c.respawns),
    ("broker.remote_lost_dispatches", |c| c.resent),
    ("broker.remote_partitions", |c| c.partitions),
    ("broker.remote_reconnects", |c| c.reconnects),
    ("broker.remote_resume_reconciled", |c| c.resume_reconciled),
];

/// Feeds the core one input, stamped now, and carries out what it
/// decides — all under the state lock. A retired worker is SIGKILLed
/// and reaped; a spawn that fails leaves its slot empty.
fn apply<R>(
    shared: &Arc<Shared>,
    st: &mut CoordState,
    input: impl FnOnce(&mut Coordinator<RemoteJob>, &mut Vec<Effect<RemoteJob>>, Instant) -> R,
) -> R {
    let before = st.coord.counters;
    let mut effects = std::mem::take(&mut st.effects);
    let out = input(&mut st.coord, &mut effects, Instant::now());
    for effect in effects.drain(..) {
        match effect {
            Effect::Spawn { slot, generation } => {
                if let Err(err) = start_worker(shared, st, slot, generation) {
                    eprintln!("simart-tasks: failed to respawn remote worker: {err}");
                }
            }
            Effect::Retire(owner) => {
                let slot = &mut st.slots[owner.slot];
                slot.writer = None;
                if let Some(mut child) = slot.child.take() {
                    let _ = child.kill();
                    let _ = child.wait(); // immediate after SIGKILL; reaps the PID
                }
                st.coord.reaped(owner);
            }
            Effect::Deliver(Settled {
                job,
                payload,
                report,
            }) => {
                st.sinks.remove(&job);
                let _ = payload.report_tx.send(report);
            }
            Effect::Event((job, event)) => {
                if let Some(sink) = st.sinks.get(&job) {
                    let _ = sink.send(event);
                }
            }
        }
    }
    st.effects = effects;
    for (name, moved) in st.coord.counters.moved_since(&before, &OBSERVED) {
        observe::count(name, moved);
    }
    out
}

/// Starts `slot_idx`'s worker process as `generation`. One that cannot
/// start leaves the slot empty. The old session token is retired with
/// the slot, so a zombie connection of a killed process can never
/// attach to its replacement.
fn start_worker(
    shared: &Arc<Shared>,
    st: &mut CoordState,
    slot_idx: usize,
    generation: u64,
) -> std::io::Result<()> {
    if let Some(old_reader) = st.slots[slot_idx].reader.take() {
        // May be the calling thread itself (frame-error path), so it
        // is joined later from the shutdown path, never here.
        st.retired_readers.push(old_reader);
    }
    match spawn_worker(shared, st, slot_idx, generation) {
        Ok(slot) => {
            st.slots[slot_idx] = slot;
            Ok(())
        }
        Err(err) => {
            st.slots[slot_idx] = Slot::default();
            st.coord.reaped(Owner {
                slot: slot_idx,
                generation,
            });
            Err(err)
        }
    }
}

/// Spawns a worker process on the configured transport and builds its
/// slot. Pipe workers come back with their connection attached and a
/// reader thread running; TCP workers dial in later and attach via
/// [`attach_connection`]. Must run under the state lock.
fn spawn_worker(
    shared: &Arc<Shared>,
    st: &mut CoordState,
    slot_idx: usize,
    generation: u64,
) -> std::io::Result<Slot> {
    st.next_session += 1;
    let session = st.next_session;
    let (child, duplex) = shared.transport.spawn(&shared.command, session)?;
    let pid = child.id();
    let mut slot = Slot {
        child: Some(child),
        pid,
        session,
        ..Slot::default()
    };
    if let Some(duplex) = duplex {
        st.next_epoch += 1;
        let epoch = st.next_epoch;
        slot.writer = Some(duplex.writer);
        slot.conn_epoch = epoch;
        slot.had_conn = true;
        let reader = duplex.reader;
        let shared = Arc::clone(shared);
        slot.reader = Some(std::thread::spawn(move || {
            reader_loop(&shared, slot_idx, generation, epoch, reader)
        }));
    }
    Ok(slot)
}

/// Per-worker reader thread: handles the worker's frames until EOF or
/// a corrupt one.
fn reader_loop(
    shared: &Arc<Shared>,
    slot_idx: usize,
    generation: u64,
    epoch: u64,
    mut input: Box<dyn Read + Send>,
) {
    let owner = Owner {
        slot: slot_idx,
        generation,
    };
    let mut wire = WireReader::new();
    loop {
        match wire.next(&mut input) {
            Ok(Some(message)) => handle_message(shared, owner, message),
            Ok(None) => {
                // Pipe EOF means a dead process: the supervisor reaps
                // and respawns. TCP EOF means a dead *connection*: mark
                // it lost so the session can resume on reconnect.
                if shared.transport.joins() {
                    conn_lost(shared, owner, epoch);
                }
                return;
            }
            Err(why) => return on_frame_error(shared, owner, epoch, &why),
        }
    }
}

/// A TCP worker's connection died while its process (presumably)
/// lives: drop the writer, keep the lease — the session resumes when
/// the worker redials, and a worker that never does exhausts its dial
/// budget, exits, and is recovered as `worker-died`.
fn conn_lost(shared: &Arc<Shared>, owner: Owner, epoch: u64) {
    let mut guard = shared.lock();
    let st = &mut *guard;
    let stale = !st.coord.is_current(owner)
        || st.slots[owner.slot].conn_epoch != epoch
        || st.coord.phase(owner.slot) == Phase::Exiting;
    if st.coord.abandoned() || st.reaped || stale {
        return; // a stale reader of a replaced connection or worker
    }
    if st.slots[owner.slot].child.is_some() {
        partitioned(shared, st, owner);
    }
    drop(guard);
    shared.space.notify_all();
}

/// Drops a slot's dead connection: the worker is unreachable until it
/// redials.
fn partitioned(shared: &Arc<Shared>, st: &mut CoordState, owner: Owner) {
    st.slots[owner.slot].writer = None;
    apply(shared, st, |coord, effects, now| {
        coord.lost(owner, Loss::Connection, now, effects)
    });
}

/// Acceptor thread (joining transports only): polls for worker
/// connections and attaches each to its session's slot.
fn accept_loop(shared: &Arc<Shared>) {
    while !shared.stopping.load(Ordering::SeqCst) {
        match shared.transport.poll_join() {
            Some(duplex) => attach_connection(shared, duplex),
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// The coordinator's answer to a worker's Hello, on either transport.
/// A protocol mismatch marks the worker exiting (the same binary would
/// only loop) and kills it. Otherwise the HelloAck goes out on
/// `writer`, which becomes the slot's connection. `false` (writer
/// dropped) when the worker was refused or the connection is already
/// dead.
fn answer_hello(
    shared: &Shared,
    st: &mut CoordState,
    owner: Owner,
    mut writer: Box<dyn Write + Send>,
    protocol: u64,
    pid: u64,
) -> bool {
    let slot = &mut st.slots[owner.slot];
    if protocol != PROTOCOL_VERSION {
        eprintln!(
            "simart-tasks: worker pid {pid} speaks protocol {protocol}, \
             coordinator speaks {PROTOCOL_VERSION}; dropping it"
        );
        st.coord.exiting(owner);
        if let Some(child) = slot.child.as_mut() {
            let _ = child.kill();
        }
        return false;
    }
    let ack = Message::HelloAck {
        generation: owner.generation,
        heartbeat_ms: (shared.config.supervisor.heartbeat.as_millis() as u64).max(1),
        session: slot.session,
    };
    if writer
        .write_all(&ack.to_frame())
        .and_then(|()| writer.flush())
        .is_err()
    {
        return false;
    }
    slot.writer = Some(writer);
    true
}

/// Reads the Hello off a freshly joined connection and wires the
/// connection into the slot whose session token the worker presented.
/// A second attach for a session is a *resume*: the core keeps the
/// in-flight lease granted and counts the reconnect.
fn attach_connection(shared: &Arc<Shared>, mut duplex: Duplex) {
    // Read outside the state lock, under a read timeout so a client
    // that never speaks cannot wedge the acceptor. The worker sends
    // nothing after Hello until it sees the HelloAck, so the throwaway
    // decoder below cannot swallow post-handshake frames.
    if let Some(stream) = duplex.stream.as_ref() {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    }
    let hello = WireReader::new().next(&mut duplex.reader);
    if let Some(stream) = duplex.stream.as_ref() {
        let _ = stream.set_read_timeout(None);
    }
    let Ok(Some(Message::Hello {
        protocol,
        pid,
        session,
    })) = hello
    else {
        return; // gone or garbled before the handshake: ignore
    };
    let mut guard = shared.lock();
    let st = &mut *guard;
    if st.coord.abandoned() || st.reaped {
        return;
    }
    let Some(slot_idx) = (0..st.slots.len()).position(|i| {
        let slot = &st.slots[i];
        slot.session == session
            && slot.session != 0
            && slot.child.is_some()
            && st.coord.phase(i) != Phase::Exiting
    }) else {
        // Unknown or retired session (e.g. recycled while the worker
        // was dialing): drop the connection; the worker exhausts its
        // retry budget and exits.
        return;
    };
    let owner = st.coord.owner(slot_idx);
    let resumed = st.slots[slot_idx].had_conn;
    let _span = resumed.then(|| observe::span(|| "remote.reconnect".to_owned()));
    let chaos = shared
        .config
        .fault
        .as_ref()
        .filter(|injector| injector.net_faults_enabled())
        .cloned();
    let (reader, writer): (Box<dyn Read + Send>, Box<dyn Write + Send>) = match chaos {
        Some(injector) => {
            let sever = duplex.stream.as_ref().and_then(|s| s.try_clone().ok());
            (
                Box::new(ChaosReader::new(
                    duplex.reader,
                    Arc::clone(&injector),
                    session,
                )),
                Box::new(
                    ChaosWriter::new(duplex.writer, sever, injector, session)
                        .share_frames(&st.slots[slot_idx].net_frames),
                ),
            )
        }
        None => (duplex.reader, duplex.writer),
    };
    if !answer_hello(shared, st, owner, writer, protocol, pid) {
        return; // refused, or the connection died (or chaos reset it): the worker redials
    }
    st.next_epoch += 1;
    let epoch = st.next_epoch;
    if let Some(old_reader) = st.slots[slot_idx].reader.take() {
        st.retired_readers.push(old_reader);
    }
    let reader_handle = {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || reader_loop(&shared, slot_idx, owner.generation, epoch, reader))
    };
    let slot = &mut st.slots[slot_idx];
    slot.conn_epoch = epoch;
    slot.had_conn = true;
    slot.reader = Some(reader_handle);
    // On a resume the lease stays granted: the worker may still be
    // computing, its re-sent result dedups under first-report-wins,
    // and a dispatch lost in flight is sent again on a heartbeat.
    let session = resumed.then_some(session);
    apply(shared, st, |coord, effects, now| {
        coord.ready(owner, now, session, effects)
    });
    pump(shared, st);
    drop(guard);
    shared.space.notify_all();
}

fn handle_message(shared: &Arc<Shared>, owner: Owner, message: Message) {
    let mut guard = shared.lock();
    let st = &mut *guard;
    match message {
        // Pipe transport only: a TCP worker's Hello is consumed by
        // [`attach_connection`] before its reader thread starts.
        Message::Hello { protocol, pid, .. } => {
            if !st.coord.is_current(owner) {
                return; // stale reader of a replaced worker
            }
            let Some(writer) = st.slots[owner.slot].writer.take() else {
                return;
            };
            if answer_hello(shared, st, owner, writer, protocol, pid) {
                apply(shared, st, |coord, effects, now| {
                    coord.ready(owner, now, None, effects)
                });
                pump(shared, st);
            }
        }
        Message::Heartbeat { busy, .. } => {
            observe::count("broker.remote_heartbeats", 1);
            // The worker reports which job it is running (0 = idle).
            // Frames on one stream are processed in order, so an idle
            // heartbeat a staleness budget after a grant means the
            // dispatch frame never arrived: the core queues it again.
            if apply(shared, st, |coord, _, now| {
                coord.heartbeat(owner, busy, now)
            }) {
                pump(shared, st);
                shared.space.notify_all();
            }
        }
        Message::TaskResult {
            job,
            delivery,
            generation,
            ok,
            output,
            error,
        } => {
            // First report wins, whatever delivery or generation it
            // came from.
            let reporter = Owner {
                slot: owner.slot,
                generation,
            };
            apply(shared, st, |coord, effects, now| {
                let Some(record) = coord.job(job) else {
                    return false;
                };
                let report = result_report(record, ok, output, error, now);
                coord.report(job, reporter, delivery as u32, report, now, effects)
            });
            if st.coord.is_current(owner) {
                pump(shared, st);
            }
            shared.space.notify_all();
        }
        Message::Bye { .. } => st.coord.exiting(owner),
        // Coordinator-bound streams never carry these legitimately.
        Message::HelloAck { .. } | Message::Dispatch { .. } | Message::Drain => {}
    }
}

/// A worker's result frame as the job's report.
fn result_report(
    record: &Job<RemoteJob>,
    ok: bool,
    output: String,
    error: String,
    now: Instant,
) -> TaskReport {
    let (state, disposition) = if ok {
        (TaskState::Succeeded, AttemptDisposition::Succeeded)
    } else {
        (TaskState::Failed, AttemptDisposition::Errored)
    };
    TaskReport {
        name: record.name.clone(),
        state,
        output: ok.then_some(output),
        error: (!ok).then_some(error),
        attempts: 1,
        duration: now.saturating_duration_since(record.submitted),
        detached: false,
        history: vec![AttemptRecord {
            index: record.delivery,
            disposition,
            delay_before: Duration::ZERO,
        }],
        redeliveries: 0,
        lease_events: Vec::new(),
    }
}

/// Satellite: a torn or corrupt frame must never wedge the
/// coordinator. Log it, kill + reap the worker, revoke its lease
/// (redelivering the task), and respawn — the pipe-level mirror of
/// the journal's torn-tail tolerance.
fn on_frame_error(shared: &Arc<Shared>, owner: Owner, epoch: u64, why: &str) {
    observe::count("broker.remote_frame_errors", 1);
    let mut guard = shared.lock();
    let st = &mut *guard;
    st.coord.counters.frame_errors += 1;
    if !st.coord.is_current(owner) || st.slots[owner.slot].conn_epoch != epoch {
        return;
    }
    eprintln!(
        "simart-tasks: remote worker pid {} wrote a corrupt frame ({why}); \
         killing and respawning it",
        st.slots[owner.slot].pid
    );
    apply(shared, st, |coord, effects, now| {
        coord.lost(owner, Loss::TornFrame, now, effects)
    });
    pump(shared, st);
    drop(guard);
    shared.space.notify_all();
}

/// Gives every idle, ready worker the oldest queued job.
fn pump(shared: &Arc<Shared>, st: &mut CoordState) {
    for i in 0..st.slots.len() {
        while st.coord.queued() > 0 && st.coord.idle(i) && dispatch(shared, st, i) {}
    }
}

/// Sends the job at the head of the queue to idle slot `i` and grants
/// the lease. Returns `false` when there is nothing to send, or the
/// worker's connection was broken (the job stays at the head of the
/// queue, and the worker is left for the supervisor to recycle or its
/// session to resume).
fn dispatch(shared: &Arc<Shared>, st: &mut CoordState, i: usize) -> bool {
    let owner = st.coord.owner(i);
    let Some((job, record)) = st.coord.head() else {
        return false;
    };
    let spec = &record.payload.spec;
    let message = Message::Dispatch {
        job,
        delivery: u64::from(record.delivery),
        generation: owner.generation,
        name: spec.name.clone(),
        kind: spec.kind.clone(),
        payload: spec.payload.clone(),
        timeout_ms: spec.timeout.map_or(0, |t| t.as_millis() as u64),
    };
    let written = match st.slots[i].writer.as_mut() {
        Some(writer) => writer
            .write_all(&message.to_frame())
            .and_then(|()| writer.flush())
            .is_ok(),
        None => false,
    };
    if !written {
        if shared.transport.joins() {
            // The connection broke, not (necessarily) the process:
            // drop it and let the session resume on redial.
            partitioned(shared, st, owner);
        } else if let Some(child) = st.slots[i].child.as_mut() {
            let _ = child.kill(); // supervisor reaps and respawns
        }
        return false;
    }
    let chaos_kill = apply(shared, st, |coord, effects, now| {
        let Some(record) = coord.grant(job, owner, now, effects) else {
            return false; // unreachable: `job` is the head
        };
        observe::count("broker.remote_dispatches", 1);
        observe::observe_us(
            "broker.remote_queue_latency_us",
            now.saturating_duration_since(record.submitted).as_micros() as u64,
        );
        shared.config.fault.as_ref().is_some_and(|injector| {
            matches!(
                injector.take_worker_fault(&record.name, record.delivery),
                Some(Fault::WorkerKill)
            )
        })
    });
    if chaos_kill {
        st.coord.counters.chaos_kills += 1;
        observe::count("broker.remote_kills", 1);
        if let Some(child) = st.slots[i].child.as_mut() {
            let _ = child.kill(); // a real SIGKILL to a real PID
        }
    }
    true
}

/// The supervisor thread: ticks on the configured heartbeat, telling
/// the core which workers exited and carrying out what it decides —
/// the process-level twin of the broker's supervisor.
fn supervise_loop(shared: &Arc<Shared>) {
    let heartbeat = shared
        .config
        .supervisor
        .heartbeat
        .max(Duration::from_millis(1));
    while !shared.stopping.load(Ordering::SeqCst) {
        std::thread::sleep(heartbeat);
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let _span = observe::span(|| "remote.supervise_tick".to_owned());
        let mut st = shared.lock();
        if st.reaped {
            return;
        }
        tick(shared, &mut st);
        drop(st);
        shared.space.notify_all();
    }
}

fn tick(shared: &Arc<Shared>, st: &mut CoordState) {
    let mut exited = Vec::new();
    for (i, slot) in st.slots.iter_mut().enumerate() {
        let child = slot.child.as_mut();
        if child.is_some_and(|child| matches!(child.try_wait(), Ok(Some(_)))) {
            // try_wait() already reaped the PID; drop the handle.
            slot.child = None;
            exited.push(st.coord.owner(i));
        }
    }
    let (queued, in_flight) = (st.coord.queued(), st.coord.in_flight());
    let failed = apply(shared, st, |coord, effects, now| {
        coord.tick(now, &exited, effects)
    });
    if let Some(Cause::WorkersUnreachable(deadline)) = failed {
        // Loud degradation: work was pending but no worker was
        // reachable (children may be alive yet disconnected — a total
        // partition).
        eprintln!(
            "simart-tasks: no remote worker reachable for {deadline:?} with {queued} queued and \
             {in_flight} in-flight jobs; failed them (workers-unreachable)"
        );
    }
    pump(shared, st);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_sets_fields() {
        let spec = RemoteTaskSpec::new("run-1", "campaign-boot", "{\"p\":1}")
            .timeout(Duration::from_secs(3));
        assert_eq!(spec.name, "run-1");
        assert_eq!(spec.kind, "campaign-boot");
        assert_eq!(spec.timeout, Some(Duration::from_secs(3)));
    }

    #[test]
    fn submit_error_messages() {
        assert!(SubmitError::Backpressure
            .to_string()
            .contains("backpressure"));
        assert!(SubmitError::Shutdown.to_string().contains("shut down"));
        assert_ne!(SubmitError::Backpressure, SubmitError::Shutdown);
    }

    #[test]
    fn config_defaults_are_sane() {
        let config = RemoteConfig::default();
        assert!(config.queue_capacity > 0);
        assert!(config.submit_deadline > Duration::ZERO);
        assert!(config.drain_deadline > Duration::ZERO);
        assert!(config.fault.is_none());
        assert_eq!(config.transport, TransportKind::Pipe);
        assert!(config.unreachable_deadline > Duration::ZERO);
        assert!(format!("{config:?}").contains("queue_capacity"));
        assert!(format!("{config:?}").contains("transport"));
    }

    #[test]
    fn registry_contains_panics_and_unknown_kinds() {
        let mut registry = HandlerRegistry::new();
        registry.register("boom", |_| panic!("kapow"));
        registry.register("echo", |job: &WorkerJob| Ok(job.payload.clone()));
        let job = |kind: &str| WorkerJob {
            job: 1,
            name: "t".to_owned(),
            kind: kind.to_owned(),
            payload: "data".to_owned(),
            delivery: 1,
            generation: 1,
        };
        assert_eq!(registry.run(&job("echo")).unwrap(), "data");
        assert!(registry.run(&job("boom")).unwrap_err().contains("kapow"));
        assert!(registry
            .run(&job("mystery"))
            .unwrap_err()
            .contains("no handler"));
    }

    #[test]
    fn spawn_failure_of_all_workers_errors() {
        let command = WorkerCommand::new("/nonexistent/simart-worker-binary");
        assert!(RemoteScheduler::new(command, 2).is_err());
    }

    #[test]
    fn worker_command_builder_accumulates() {
        let command = WorkerCommand::new("prog").arg("worker").env("K", "V");
        assert_eq!(command.args, vec!["worker".to_owned()]);
        assert_eq!(command.envs, vec![("K".to_owned(), "V".to_owned())]);
    }
}
