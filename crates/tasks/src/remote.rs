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
//! report). This module is the process-level driver that feeds it: a
//! worker whose PID dies, whose heartbeats stop, whose lease expires
//! or whose stream tears is SIGKILLed, reaped and respawned under a
//! bumped generation, and the lease it held is revoked.
//!
//! Around the table: dispatch (an idle ready worker is sent the head
//! of the table's queue, and leased it once the frame is written),
//! bounded-queue backpressure on submit (blocking with a deadline,
//! [`SubmitError`] on shutdown), and literal chaos — a
//! [`FaultInjector`] with a kill rate makes the coordinator SIGKILL
//! real worker PIDs at dispatch time.
//!
//! Because a process boundary cannot ship closures, remote tasks are
//! [`RemoteTaskSpec`]s: a handler *kind* resolved by the worker's
//! [`HandlerRegistry`] plus an opaque string payload. The worker side
//! of the protocol is [`worker_main`].

use crate::fault::{Fault, FaultInjector};
use crate::lease::{Cause, JobId, LeaseTable, Owner, Revoked, Settled};
use crate::retry::RetryPolicy;
use crate::supervise::SupervisorConfig;
use crate::task::{AttemptDisposition, AttemptRecord, TaskHandle, TaskReport, TaskState};
use crate::transport::{
    self, ChaosReader, ChaosWriter, Duplex, Transport, TransportKind, WORKER_SESSION_ENV,
};
use crate::wire::{FrameDecoder, Message, PROTOCOL_VERSION};
use simart_observe as observe;
use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// Lifecycle notifications for dispatch provenance (consumed by the
/// experiment layer to journal `remote-dispatch` / `remote-ack` /
/// `remote-reconnect` events onto runs). Redeliveries and dead letters
/// reach the run through [`TaskReport::lease_events`] instead. Hooks
/// run on coordinator threads while internal state is locked: keep
/// them quick and never call back into the scheduler.
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

#[derive(Default)]
struct StatCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    dropped: AtomicU64,
    dead_lettered: AtomicU64,
    redelivered: AtomicU64,
    respawns: AtomicU64,
    frame_errors: AtomicU64,
    chaos_kills: AtomicU64,
    reconnects: AtomicU64,
    partitions: AtomicU64,
    resume_reconciled: AtomicU64,
}

type EventHook = Arc<dyn Fn(&RemoteEvent) + Send + Sync>;

/// What the lease table keeps for each job: the spec to dispatch, and
/// where its single report goes.
struct RemoteJob {
    spec: RemoteTaskSpec,
    report_tx: SyncSender<TaskReport>,
}

struct Slot {
    generation: u64,
    child: Option<Child>,
    /// Writer half of the worker's connection (`None` while a TCP
    /// worker is between connections).
    writer: Option<Box<dyn Write + Send>>,
    pid: u32,
    /// Handshake complete (Hello seen, HelloAck sent).
    ready: bool,
    /// Drain sent or Bye received: reap without respawn.
    exiting: bool,
    /// The job this worker process was last sent and has not answered.
    busy: Option<JobId>,
    last_seen: Instant,
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
    net_frames: Arc<AtomicU64>,
}

impl Slot {
    /// Alive, handshaken, not draining, and not working on anything.
    fn idle(&self) -> bool {
        self.child.is_some() && self.ready && !self.exiting && self.busy.is_none()
    }
}

struct CoordState {
    slots: Vec<Slot>,
    /// The delivery contract: the dispatch queue, leases, redelivery,
    /// dead letters.
    table: LeaseTable<RemoteJob>,
    retired_readers: Vec<JoinHandle<()>>,
    next_generation: u64,
    next_session: u64,
    next_epoch: u64,
    /// When pending work first found no reachable worker (drives the
    /// loud `workers-unreachable` degradation).
    unreachable_since: Option<Instant>,
    /// No new submits accepted.
    shutdown: bool,
    /// No more respawns (shutdown is reaping).
    abandoned: bool,
    /// Children reaped and threads joined; terminal.
    reaped: bool,
    drained_clean: bool,
}

impl CoordState {
    fn owner(&self, slot: usize) -> Owner {
        Owner {
            slot,
            generation: self.slots[slot].generation,
        }
    }
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
    stats: StatCounters,
    hook: Mutex<Option<EventHook>>,
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
        let table = LeaseTable::new(config.supervisor);
        let shared = Arc::new(Shared {
            command,
            config,
            transport,
            state: Mutex::new(CoordState {
                slots: Vec::new(),
                table,
                retired_readers: Vec::new(),
                next_generation: 0,
                next_session: 0,
                next_epoch: 0,
                unreachable_since: None,
                shutdown: false,
                abandoned: false,
                reaped: false,
                drained_clean: true,
            }),
            space: Condvar::new(),
            stopping: AtomicBool::new(false),
            stats: StatCounters::default(),
            hook: Mutex::new(None),
        });
        let mut spawn_error = None;
        {
            let mut st = shared.lock();
            for index in 0..workers {
                st.next_generation += 1;
                let generation = st.next_generation;
                match spawn_worker(&shared, &mut st, index, generation) {
                    Ok(slot) => st.slots.push(slot),
                    Err(err) => {
                        spawn_error = Some(err);
                        st.slots.push(dead_slot(generation));
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
        let name = spec.name.clone();
        // Room for the one report: a send never blocks.
        let (report_tx, receiver) = sync_channel(1);
        let deadline = Instant::now() + self.shared.config.submit_deadline;
        let mut st = self.shared.lock();
        loop {
            if st.shutdown {
                return Err(SubmitError::Shutdown);
            }
            if st.table.queued() < self.shared.config.queue_capacity {
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
        self.shared.stats.submitted.fetch_add(1, Ordering::SeqCst);
        observe::count("broker.remote_submitted", 1);
        let timeout = spec.timeout;
        let payload = RemoteJob { spec, report_tx };
        st.table
            .submit(name.clone(), timeout, payload, Instant::now());
        pump(&self.shared, &mut st);
        Ok(TaskHandle { receiver, name })
    }

    /// Installs the lifecycle event hook (replacing any previous one).
    /// See [`RemoteEvent`] for the constraints hooks must observe.
    pub fn set_event_hook(&self, hook: impl Fn(&RemoteEvent) + Send + Sync + 'static) {
        *self.shared.hook.lock().unwrap_or_else(|p| p.into_inner()) = Some(Arc::new(hook));
    }

    /// Removes the lifecycle event hook and drops what it captured;
    /// later events go unobserved until another hook is installed.
    pub fn clear_event_hook(&self) {
        *self.shared.hook.lock().unwrap_or_else(|p| p.into_inner()) = None;
    }

    /// Gracefully drains: refuses new submits, waits (up to the drain
    /// deadline) for queued and in-flight work to finish — the
    /// supervisor keeps respawning and redelivering during the wait —
    /// then sends every worker `Drain`, closes its stdin, and reaps
    /// all child PIDs. Returns `true` when everything completed (no
    /// work was abandoned).
    pub fn shutdown(&self) -> bool {
        let mut st = self.shared.lock();
        if st.reaped {
            return st.drained_clean;
        }
        st.shutdown = true;
        let deadline = Instant::now() + self.shared.config.drain_deadline;
        while !st.table.is_empty() && Instant::now() < deadline {
            let (guard, _) = self
                .shared
                .space
                .wait_timeout(st, Duration::from_millis(20))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st = guard;
        }
        let clean = st.table.is_empty();
        st.drained_clean = clean;
        st.abandoned = true;
        let discarded = st.table.discard_all() as u64;
        self.shared
            .stats
            .dropped
            .fetch_add(discarded, Ordering::SeqCst);
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
            slot.exiting = true;
        }
        drop(st);
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
        let mut st = self.shared.lock();
        if st.reaped {
            return 0;
        }
        st.shutdown = true;
        st.abandoned = true;
        st.drained_clean = st.table.is_empty();
        let discarded = st.table.discard_all() as u64;
        self.shared
            .stats
            .dropped
            .fetch_add(discarded, Ordering::SeqCst);
        for slot in &mut st.slots {
            if let Some(child) = slot.child.as_mut() {
                let _ = child.kill();
            }
            slot.writer = None;
            slot.exiting = true;
        }
        drop(st);
        self.shared.transport.close();
        self.shared.space.notify_all();
        self.reap(Duration::ZERO);
        discarded
    }

    /// Current counters.
    pub fn stats(&self) -> RemoteStats {
        let st = self.shared.lock();
        let s = &self.shared.stats;
        RemoteStats {
            workers: st.slots.iter().filter(|slot| slot.child.is_some()).count(),
            submitted: s.submitted.load(Ordering::SeqCst),
            completed: s.completed.load(Ordering::SeqCst),
            dropped: s.dropped.load(Ordering::SeqCst),
            dead_lettered: s.dead_lettered.load(Ordering::SeqCst),
            redelivered: s.redelivered.load(Ordering::SeqCst),
            respawns: s.respawns.load(Ordering::SeqCst),
            frame_errors: s.frame_errors.load(Ordering::SeqCst),
            chaos_kills: s.chaos_kills.load(Ordering::SeqCst),
            reconnects: s.reconnects.load(Ordering::SeqCst),
            partitions: s.partitions.load(Ordering::SeqCst),
            resume_reconciled: s.resume_reconciled.load(Ordering::SeqCst),
            backlog: st.table.queued(),
            in_flight: st.table.in_flight(),
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

fn dead_slot(generation: u64) -> Slot {
    Slot {
        generation,
        child: None,
        writer: None,
        pid: 0,
        ready: false,
        exiting: false,
        busy: None,
        last_seen: Instant::now(),
        reader: None,
        session: 0,
        conn_epoch: 0,
        had_conn: false,
        net_frames: Arc::new(AtomicU64::new(0)),
    }
}

fn emit(shared: &Shared, event: RemoteEvent) {
    let hook = shared
        .hook
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    if let Some(hook) = hook {
        hook(&event);
    }
}

/// Spawns a worker process on the configured transport and builds its
/// slot. Pipe workers come back with their connection attached and a
/// reader thread running; TCP workers dial in later and attach via
/// [`attach_connection`]. Must run under the state lock (the reader
/// thread indexes `st.slots[slot_idx]`, which may not be pushed yet).
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
        ..dead_slot(generation)
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
    let mut wire = WireReader::new();
    loop {
        match wire.next(&mut input) {
            Ok(Some(message)) => handle_message(shared, slot_idx, generation, message),
            Ok(None) => {
                // Pipe EOF means a dead process: the supervisor reaps
                // and respawns. TCP EOF means a dead *connection*: mark
                // it lost so the session can resume on reconnect.
                if shared.transport.joins() {
                    conn_lost(shared, slot_idx, generation, epoch);
                }
                return;
            }
            Err(why) => return on_frame_error(shared, slot_idx, generation, epoch, &why),
        }
    }
}

/// A TCP worker's connection died while its process (presumably)
/// lives: drop the writer, keep the lease — the session resumes when
/// the worker redials, and a worker that never does exhausts its dial
/// budget, exits, and is recovered as `worker-died`.
fn conn_lost(shared: &Arc<Shared>, slot_idx: usize, generation: u64, epoch: u64) {
    let mut st = shared.lock();
    if st.abandoned || st.reaped {
        return;
    }
    let slot = &mut st.slots[slot_idx];
    if slot.generation != generation || slot.conn_epoch != epoch || slot.exiting {
        return; // a stale reader of a replaced connection or worker
    }
    if slot.child.is_some() {
        mark_partitioned(shared, slot);
    }
    drop(st);
    shared.space.notify_all();
}

/// Drops a slot's dead connection, once: the worker is unreachable
/// until it redials.
fn mark_partitioned(shared: &Shared, slot: &mut Slot) {
    if slot.writer.take().is_some() {
        slot.ready = false;
        shared.stats.partitions.fetch_add(1, Ordering::SeqCst);
        observe::count("broker.remote_partitions", 1);
    }
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
/// A protocol mismatch marks the worker for reaping without respawn
/// (the same binary would only loop). Otherwise the HelloAck goes out
/// on `writer`, which becomes the slot's connection, and the slot is
/// ready for work. `false` (writer dropped) when the worker was refused
/// or the connection is already dead.
fn answer_hello(
    shared: &Shared,
    slot: &mut Slot,
    mut writer: Box<dyn Write + Send>,
    protocol: u64,
    pid: u64,
) -> bool {
    if protocol != PROTOCOL_VERSION {
        eprintln!(
            "simart-tasks: worker pid {pid} speaks protocol {protocol}, \
             coordinator speaks {PROTOCOL_VERSION}; dropping it"
        );
        slot.exiting = true;
        if let Some(child) = slot.child.as_mut() {
            let _ = child.kill();
        }
        return false;
    }
    let ack = Message::HelloAck {
        generation: slot.generation,
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
    slot.ready = true;
    slot.last_seen = Instant::now();
    true
}

/// Reads the Hello off a freshly joined connection and wires the
/// connection into the slot whose session token the worker presented.
/// A second attach for a session is a *resume*: the in-flight lease is
/// reconciled (kept granted), the reconnect is counted, and the race
/// detector gets its join-then-send barrier.
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
    let mut st = shared.lock();
    if st.abandoned || st.reaped {
        return;
    }
    let Some(slot_idx) = st
        .slots
        .iter()
        .position(|s| s.session == session && s.session != 0 && s.child.is_some() && !s.exiting)
    else {
        // Unknown or retired session (e.g. recycled while the worker
        // was dialing): drop the connection; the worker exhausts its
        // retry budget and exits.
        return;
    };
    let generation = st.slots[slot_idx].generation;
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
    if !answer_hello(shared, &mut st.slots[slot_idx], writer, protocol, pid) {
        return; // refused, or the connection died (or chaos reset it): the worker redials
    }
    st.next_epoch += 1;
    let epoch = st.next_epoch;
    if let Some(old_reader) = st.slots[slot_idx].reader.take() {
        st.retired_readers.push(old_reader);
    }
    let reader_handle = {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || reader_loop(&shared, slot_idx, generation, epoch, reader))
    };
    let slot = &mut st.slots[slot_idx];
    slot.conn_epoch = epoch;
    slot.had_conn = true;
    slot.reader = Some(reader_handle);
    if resumed {
        shared.stats.reconnects.fetch_add(1, Ordering::SeqCst);
        observe::count("broker.remote_reconnects", 1);
        // Reconcile in-flight work: the lease stays granted (the
        // worker may still be computing; its re-sent result dedups
        // under first-report-wins, and a dispatch lost in flight
        // resolves through lease expiry).
        let reconciled = slot
            .busy
            .filter(|&job| st.table.lease(job).is_some())
            .and_then(|job| st.table.get(job))
            .map(|job| job.name.clone());
        if let Some(task) = reconciled {
            shared
                .stats
                .resume_reconciled
                .fetch_add(1, Ordering::SeqCst);
            observe::count("broker.remote_resume_reconciled", 1);
            emit(
                shared,
                RemoteEvent::Reconnected {
                    task,
                    session,
                    generation,
                },
            );
        }
    }
    pump(shared, &mut st);
    drop(st);
    shared.space.notify_all();
}

fn handle_message(shared: &Arc<Shared>, slot_idx: usize, generation: u64, message: Message) {
    let mut st = shared.lock();
    match message {
        // Pipe transport only: a TCP worker's Hello is consumed by
        // [`attach_connection`] before its reader thread starts.
        Message::Hello { protocol, pid, .. } => {
            if st.slots[slot_idx].generation != generation {
                return; // stale reader of a replaced worker
            }
            let Some(writer) = st.slots[slot_idx].writer.take() else {
                return;
            };
            if answer_hello(shared, &mut st.slots[slot_idx], writer, protocol, pid) {
                pump(shared, &mut st);
            }
        }
        Message::Heartbeat { busy, .. } => {
            observe::count("broker.remote_heartbeats", 1);
            if st.slots[slot_idx].generation != generation {
                return;
            }
            st.slots[slot_idx].last_seen = Instant::now();
            // Lost-dispatch reconciliation: the worker reports which
            // job it is running (0 = idle). Frames on one stream are
            // processed in order, so an *idle* heartbeat arriving a
            // full staleness budget after the lease was granted means
            // the dispatch frame never arrived (a silent one-way
            // partition ate it) — send it again now instead of waiting
            // out the task's full lease.
            let stale_after = shared.config.supervisor.remote_stale_after();
            let lost = st.slots[slot_idx].busy.filter(|&job| {
                busy != job
                    && st
                        .table
                        .lease(job)
                        .is_some_and(|lease| lease.granted.elapsed() >= stale_after)
            });
            if let Some(job) = lost {
                st.slots[slot_idx].busy = None;
                // The job never reached a worker, so this is a re-send
                // of the *same* delivery — it spends no redelivery
                // budget.
                if st.table.resend(job, Cause::DispatchLost) {
                    observe::count("broker.remote_lost_dispatches", 1);
                }
                pump(shared, &mut st);
                shared.space.notify_all();
            }
        }
        Message::TaskResult {
            job,
            delivery,
            generation: reporter_gen,
            ok,
            output,
            error,
        } => {
            let result = if ok { Ok(output) } else { Err(error) };
            accept_result(shared, &mut st, job, delivery as u32, reporter_gen, result);
            if st.slots[slot_idx].generation == generation {
                if st.slots[slot_idx].busy == Some(job) {
                    st.slots[slot_idx].busy = None;
                }
                st.slots[slot_idx].last_seen = Instant::now();
                pump(shared, &mut st);
            }
            shared.space.notify_all();
        }
        Message::Bye { .. } => {
            if st.slots[slot_idx].generation == generation {
                st.slots[slot_idx].exiting = true;
                st.slots[slot_idx].ready = false;
            }
        }
        // Coordinator-bound streams never carry these legitimately.
        Message::HelloAck { .. } | Message::Dispatch { .. } | Message::Drain => {}
    }
}

/// A worker's result frame → the job's report. First report wins,
/// whatever delivery or generation it came from: a stale worker
/// finishing after redelivery still settles the job, and whichever
/// result comes second finds it gone.
fn accept_result(
    shared: &Arc<Shared>,
    st: &mut CoordState,
    job: JobId,
    delivery: u32,
    reporter_gen: u64,
    result: Result<String, String>,
) {
    let Some(record) = st.table.get(job) else {
        return;
    };
    let (state, disposition) = match result {
        Ok(_) => (TaskState::Succeeded, AttemptDisposition::Succeeded),
        Err(_) => (TaskState::Failed, AttemptDisposition::Errored),
    };
    let report = TaskReport {
        name: record.name.clone(),
        state,
        output: result.as_ref().ok().cloned(),
        error: result.err(),
        attempts: 1,
        duration: record.submitted.elapsed(),
        detached: false,
        history: vec![AttemptRecord {
            index: record.delivery,
            disposition,
            delay_before: Duration::ZERO,
        }],
        redeliveries: 0,
        lease_events: Vec::new(),
    };
    let Some(Settled { payload, report }) = st.table.complete(job, report) else {
        return;
    };
    observe::count("broker.remote_acks", 1);
    emit(
        shared,
        RemoteEvent::Acked {
            task: report.name.clone(),
            delivery,
            generation: reporter_gen,
        },
    );
    let _ = payload.report_tx.send(report);
    shared.stats.completed.fetch_add(1, Ordering::SeqCst);
}

/// Satellite: a torn or corrupt frame must never wedge the
/// coordinator. Log it, kill + reap the worker, revoke its lease
/// (redelivering the task), and respawn — the pipe-level mirror of
/// the journal's torn-tail tolerance.
fn on_frame_error(shared: &Arc<Shared>, slot_idx: usize, generation: u64, epoch: u64, why: &str) {
    shared.stats.frame_errors.fetch_add(1, Ordering::SeqCst);
    observe::count("broker.remote_frame_errors", 1);
    let mut st = shared.lock();
    if st.slots[slot_idx].generation != generation || st.slots[slot_idx].conn_epoch != epoch {
        return;
    }
    eprintln!(
        "simart-tasks: remote worker pid {} wrote a corrupt frame ({why}); \
         killing and respawning it",
        st.slots[slot_idx].pid
    );
    recycle_slot(shared, &mut st, slot_idx, Cause::ProcessLost("torn-frame"));
    pump(shared, &mut st);
    shared.space.notify_all();
}

/// Kills, reaps, and (unless abandoned) respawns a slot's worker,
/// revoking any lease it held with the given cause.
fn recycle_slot(shared: &Arc<Shared>, st: &mut CoordState, slot_idx: usize, cause: Cause) {
    if let Some(mut child) = st.slots[slot_idx].child.take() {
        let _ = child.kill();
        let _ = child.wait(); // immediate after SIGKILL; reaps the PID
    }
    worker_gone(shared, st, slot_idx, cause, true);
}

/// The slot's process is gone (and reaped): forget its connection,
/// revoke what it held, and fill the slot again if asked to.
fn worker_gone(
    shared: &Arc<Shared>,
    st: &mut CoordState,
    slot_idx: usize,
    cause: Cause,
    respawn: bool,
) {
    let slot = &mut st.slots[slot_idx];
    slot.writer = None;
    slot.ready = false;
    slot.busy = None;
    for job in st.table.held_by(st.owner(slot_idx)) {
        revoke_lease(shared, st, job, cause);
    }
    if respawn && !st.abandoned {
        respawn_slot(shared, st, slot_idx);
    }
}

fn respawn_slot(shared: &Arc<Shared>, st: &mut CoordState, slot_idx: usize) {
    if let Some(old_reader) = st.slots[slot_idx].reader.take() {
        // May be the calling thread itself (frame-error path), so it
        // is joined later from the shutdown path, never here.
        st.retired_readers.push(old_reader);
    }
    st.next_generation += 1;
    let generation = st.next_generation;
    // The old session token is retired with the slot, so a zombie
    // connection of the killed process can never attach to the new one.
    match spawn_worker(shared, st, slot_idx, generation) {
        Ok(slot) => {
            st.slots[slot_idx] = slot;
            shared.stats.respawns.fetch_add(1, Ordering::SeqCst);
            observe::count("broker.remote_respawns", 1);
        }
        Err(err) => {
            eprintln!("simart-tasks: failed to respawn remote worker: {err}");
            st.slots[slot_idx] = dead_slot(generation);
        }
    }
}

/// Revokes a lease and acts on the table's verdict: the next delivery
/// is queued, or the dead letter delivered.
fn revoke_lease(shared: &Arc<Shared>, st: &mut CoordState, job: JobId, cause: Cause) {
    match st.table.revoke(job, cause, Instant::now()) {
        Some(Revoked::Requeued) => {
            shared.stats.redelivered.fetch_add(1, Ordering::SeqCst);
            observe::count("broker.remote_redelivered", 1);
        }
        Some(Revoked::DeadLettered(settled)) => deliver_dead_letter(shared, settled),
        None => {}
    }
}

/// Hands a job's terminal, table-synthesized report to its submitter.
fn deliver_dead_letter(shared: &Arc<Shared>, settled: Settled<RemoteJob>) {
    let Settled { payload, report } = settled;
    observe::count("broker.remote_dead_letters", 1);
    let _ = payload.report_tx.send(report);
    shared.stats.dead_lettered.fetch_add(1, Ordering::SeqCst);
}

/// Gives every idle, ready worker the oldest queued job.
fn pump(shared: &Arc<Shared>, st: &mut CoordState) {
    for i in 0..st.slots.len() {
        while st.slots[i].idle() && dispatch(shared, st, i) {}
    }
}

/// Sends the job at the head of the queue to idle slot `i` and grants
/// the lease. Returns `false` when there is nothing to send, or the
/// worker's connection was broken (the job stays at the head of the
/// queue, and the worker is left for the supervisor to recycle or its
/// session to resume).
fn dispatch(shared: &Arc<Shared>, st: &mut CoordState, i: usize) -> bool {
    let owner = st.owner(i);
    let Some((job, record)) = st.table.head() else {
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
            mark_partitioned(shared, &mut st.slots[i]);
        } else if let Some(child) = st.slots[i].child.as_mut() {
            let _ = child.kill(); // supervisor reaps and respawns
        }
        return false;
    }
    let now = Instant::now();
    let Some(record) = st.table.grant(job, owner, now) else {
        return true; // unreachable: `job` is the head
    };
    st.slots[i].busy = Some(job);
    observe::count("broker.remote_dispatches", 1);
    observe::observe_us(
        "broker.remote_queue_latency_us",
        now.duration_since(record.submitted).as_micros() as u64,
    );
    emit(
        shared,
        RemoteEvent::Dispatched {
            task: record.name.clone(),
            delivery: record.delivery,
            generation: owner.generation,
        },
    );
    let chaos_kill = shared.config.fault.as_ref().is_some_and(|injector| {
        matches!(
            injector.take_worker_fault(&record.name, record.delivery),
            Some(Fault::WorkerKill)
        )
    });
    if chaos_kill {
        shared.stats.chaos_kills.fetch_add(1, Ordering::SeqCst);
        observe::count("broker.remote_kills", 1);
        if let Some(child) = st.slots[i].child.as_mut() {
            let _ = child.kill(); // a real SIGKILL to a real PID
        }
    }
    true
}

/// The supervisor thread: ticks on the configured heartbeat, reaping
/// dead workers, recycling wedged ones, expiring leases, and keeping
/// the dispatch pump primed — the process-level twin of the broker's
/// supervisor.
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
    let now = Instant::now();
    let stale_after = shared.config.supervisor.remote_stale_after();
    let expired = st.table.expired(now);
    for i in 0..st.slots.len() {
        let exited = match st.slots[i].child.as_mut() {
            Some(child) => matches!(child.try_wait(), Ok(Some(_))),
            None => false,
        };
        if exited {
            // try_wait() already reaped the PID; drop the handle.
            st.slots[i].child = None;
            let respawn = !st.slots[i].exiting;
            worker_gone(shared, st, i, Cause::ProcessLost("worker-died"), respawn);
            continue;
        }
        let slot = &st.slots[i];
        if slot.child.is_none() || !slot.ready || slot.exiting {
            continue;
        }
        if slot.busy.is_some_and(|job| expired.contains(&job)) {
            recycle_slot(shared, st, i, Cause::LeaseExpired);
        } else if now.duration_since(slot.last_seen) >= stale_after {
            recycle_slot(shared, st, i, Cause::ProcessLost("heartbeat-lost"));
        }
    }
    if !st.abandoned && st.table.queued() > 0 && st.slots.iter().all(|s| s.child.is_none()) {
        // Every spawn has failed: fail queued work fast instead of
        // letting submitters hang forever.
        fail_everything(shared, st, Cause::NoWorkers, now);
    }
    // Loud degradation: work is pending but no worker is reachable
    // (children may be alive yet disconnected — a total partition).
    // Past the deadline, fail everything queued *and* in flight
    // rather than hanging silently.
    let any_ready = st
        .slots
        .iter()
        .any(|s| s.child.is_some() && s.ready && !s.exiting);
    if !st.abandoned && !st.table.is_empty() && !any_ready {
        let since = *st.unreachable_since.get_or_insert(now);
        let deadline = shared.config.unreachable_deadline;
        if now.duration_since(since) >= deadline {
            eprintln!(
                "simart-tasks: no remote worker reachable for {deadline:?} with {} queued and {} \
                 in-flight jobs; failing them (workers-unreachable)",
                st.table.queued(),
                st.table.in_flight()
            );
            fail_everything(shared, st, Cause::WorkersUnreachable(deadline), now);
            st.unreachable_since = None;
        }
    } else {
        st.unreachable_since = None;
    }
    pump(shared, st);
}

/// Dead-letters every queued and in-flight job with `cause`.
fn fail_everything(shared: &Arc<Shared>, st: &mut CoordState, cause: Cause, now: Instant) {
    for slot in &mut st.slots {
        slot.busy = None;
    }
    for settled in st.table.fail_all(cause, now) {
        deliver_dead_letter(shared, settled);
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// A dispatched job as seen by a worker-side handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerJob {
    /// Coordinator-unique job id.
    pub job: u64,
    /// Task name.
    pub name: String,
    /// Handler kind.
    pub kind: String,
    /// Opaque payload from the spec.
    pub payload: String,
    /// 1-based delivery number (`> 1` means this is a redelivery).
    pub delivery: u32,
    /// Generation this worker process was assigned at handshake.
    pub generation: u64,
}

type HandlerFn = Box<dyn Fn(&WorkerJob) -> Result<String, String> + Send + Sync>;

/// Maps handler kinds to worker-side handler functions.
#[derive(Default)]
pub struct HandlerRegistry {
    handlers: HashMap<String, HandlerFn>,
}

impl HandlerRegistry {
    /// An empty registry.
    pub fn new() -> HandlerRegistry {
        HandlerRegistry::default()
    }

    /// Registers the handler for `kind` (replacing any previous one).
    pub fn register(
        &mut self,
        kind: impl Into<String>,
        handler: impl Fn(&WorkerJob) -> Result<String, String> + Send + Sync + 'static,
    ) {
        self.handlers.insert(kind.into(), Box::new(handler));
    }

    /// Runs the matching handler, containing panics as errors. Public
    /// so embedders can exercise their registries without spawning a
    /// worker process; [`worker_main`] calls it per dispatch.
    pub fn run(&self, job: &WorkerJob) -> Result<String, String> {
        let handler = self
            .handlers
            .get(&job.kind)
            .ok_or_else(|| format!("worker has no handler for kind `{}`", job.kind))?;
        match catch_unwind(AssertUnwindSafe(|| handler(job))) {
            Ok(result) => result,
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_owned());
                Err(format!("handler panicked: {message}"))
            }
        }
    }
}

impl fmt::Debug for HandlerRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HandlerRegistry")
            .field("kinds", &self.handlers.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Reads whole messages off a byte stream.
struct WireReader {
    decoder: FrameDecoder,
    buf: [u8; 8192],
}

impl WireReader {
    fn new() -> WireReader {
        WireReader {
            decoder: FrameDecoder::new(),
            buf: [0u8; 8192],
        }
    }

    /// `Ok(None)` once the stream ends (EOF or a read error — either
    /// way the peer is gone), `Err(why)` on a corrupt frame.
    fn next(&mut self, input: &mut impl Read) -> Result<Option<Message>, String> {
        loop {
            if let Some(payload) = self.decoder.next_frame().map_err(|e| e.to_string())? {
                return Message::decode(&payload)
                    .map(Some)
                    .map_err(|e| e.to_string());
            }
            match input.read(&mut self.buf) {
                Ok(0) | Err(_) => return Ok(None),
                Ok(n) => self.decoder.feed(&self.buf[..n]),
            }
        }
    }
}

fn send_frame<W: Write>(out: &Mutex<W>, message: &Message) -> std::io::Result<()> {
    let mut out = out.lock().unwrap_or_else(|p| p.into_inner());
    out.write_all(&message.to_frame())?;
    out.flush()
}

/// How one connection's worth of the worker protocol ended.
enum SessionEnd {
    /// The coordinator drained us.
    Drained,
    /// The stream ended cleanly (coordinator gone, or connection cut).
    Eof,
    /// The stream carried garbage (or the wrong message mid-handshake).
    Corrupt,
    /// A frame could not be written.
    WriteFailed,
}

/// The worker side of the protocol over one connection, whatever
/// carries it: say [`Message::Hello`], wait for the
/// [`Message::HelloAck`] carrying our generation and heartbeat cadence
/// (then call `on_handshake`), re-send a result a previous connection
/// failed to deliver, and loop — heartbeats from a background thread,
/// one [`Message::TaskResult`] per [`Message::Dispatch`] (handler
/// panics are contained and reported as errors), a [`Message::Bye`] in
/// answer to [`Message::Drain`]. A result that cannot be written is
/// left in `unsent`. The flag returned with the end says whether the
/// handshake completed.
fn run_session<W: Write + Send + 'static>(
    registry: &HandlerRegistry,
    input: &mut impl Read,
    out: &Arc<Mutex<W>>,
    session: u64,
    unsent: &mut Option<Message>,
    on_handshake: impl FnOnce(),
) -> (SessionEnd, bool) {
    let pid = u64::from(std::process::id());
    let hello = Message::Hello {
        protocol: PROTOCOL_VERSION,
        pid,
        session,
    };
    if send_frame(out, &hello).is_err() {
        return (SessionEnd::WriteFailed, false);
    }
    let mut wire = WireReader::new();
    let (generation, heartbeat_ms) = match wire.next(input) {
        Ok(Some(Message::HelloAck {
            generation,
            heartbeat_ms,
            ..
        })) => (generation, heartbeat_ms),
        Ok(None) => return (SessionEnd::Eof, false),
        _ => return (SessionEnd::Corrupt, false),
    };
    on_handshake();
    if let Some(reply) = unsent.as_ref() {
        if send_frame(out, reply).is_err() {
            return (SessionEnd::WriteFailed, true);
        }
    }
    *unsent = None;
    let busy = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    {
        let out = Arc::clone(out);
        let busy = Arc::clone(&busy);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(heartbeat_ms.max(1)));
            let beat = Message::Heartbeat {
                pid,
                busy: busy.load(Ordering::SeqCst),
            };
            if stop.load(Ordering::SeqCst) || send_frame(&out, &beat).is_err() {
                return; // session over, or connection gone (main loop sees EOF)
            }
        });
    }
    let end = loop {
        match wire.next(input) {
            Ok(None) => break SessionEnd::Eof,
            Err(_) => break SessionEnd::Corrupt,
            Ok(Some(Message::Dispatch {
                job,
                delivery,
                name,
                kind,
                payload,
                ..
            })) => {
                busy.store(job, Ordering::SeqCst);
                let work = WorkerJob {
                    job,
                    name,
                    kind,
                    payload,
                    delivery: delivery as u32,
                    generation,
                };
                let (ok, output, error) = match registry.run(&work) {
                    Ok(output) => (true, output, String::new()),
                    Err(error) => (false, String::new(), error),
                };
                let reply = Message::TaskResult {
                    job,
                    delivery,
                    generation,
                    ok,
                    output,
                    error,
                };
                let sent = send_frame(out, &reply);
                // Only report idle once the result is on the wire: an
                // idle heartbeat overtaking the result would read as a
                // lost dispatch to the coordinator.
                busy.store(0, Ordering::SeqCst);
                if sent.is_err() {
                    *unsent = Some(reply);
                    break SessionEnd::WriteFailed;
                }
            }
            Ok(Some(Message::Drain)) => {
                let _ = send_frame(out, &Message::Bye { pid });
                break SessionEnd::Drained;
            }
            Ok(Some(_)) => {}
        }
    };
    stop.store(true, Ordering::SeqCst);
    (end, true)
}

/// Runs the worker side of the protocol on this process's
/// stdin/stdout until the coordinator drains it or goes away.
/// Returns the process exit code: `0` for a graceful end (drain or
/// coordinator EOF), non-zero for a corrupt stream or a write failure.
///
/// Nothing else in the process may write to stdout — the byte stream
/// *is* the protocol.
pub fn worker_main(registry: &HandlerRegistry) -> i32 {
    let stdout = Arc::new(Mutex::new(std::io::stdout()));
    // Pipes have no reconnect, hence no session and nothing to resume.
    let session = run_session(
        registry,
        &mut std::io::stdin(),
        &stdout,
        0,
        &mut None,
        || {},
    );
    match session.0 {
        SessionEnd::Drained | SessionEnd::Eof => 0,
        SessionEnd::WriteFailed => 1,
        SessionEnd::Corrupt => 2,
    }
}

/// How many consecutive failed dials (or failed handshakes) a TCP
/// worker tolerates before giving up and exiting.
const MAX_DIAL_FAILURES: u32 = 8;

/// Runs the worker side of the protocol over TCP: dials `addr`,
/// presents the session token from [`WORKER_SESSION_ENV`] in its
/// [`Message::Hello`], and — because over TCP the *connection* can die
/// while the process lives — redials with capped exponential backoff
/// on any connection loss, resuming the same session. EOF *and*
/// corrupt streams end the connection, not the process:
/// chaos-corrupted coordinator frames are healed by a reconnect. A
/// [`Message::TaskResult`] the dead connection failed to carry is
/// re-sent first on the new one; the coordinator's first-report-wins
/// dedup makes any duplicate harmless.
///
/// Returns the process exit code: `0` after a [`Message::Drain`],
/// non-zero once the consecutive-dial-failure budget is exhausted
/// (coordinator gone for good).
pub fn worker_main_connect(registry: &HandlerRegistry, addr: &str) -> i32 {
    let session = std::env::var(WORKER_SESSION_ENV)
        .ok()
        .and_then(|raw| raw.parse::<u64>().ok())
        .unwrap_or(0);
    let backoff = RetryPolicy::exponential(Duration::from_millis(20))
        .cap(Duration::from_millis(400))
        .max_attempts(MAX_DIAL_FAILURES + 1);
    let mut unsent: Option<Message> = None;
    let mut failures = 0u32;
    loop {
        if failures >= MAX_DIAL_FAILURES {
            eprintln!(
                "simart-tasks: worker gave up on coordinator {addr} after \
                 {MAX_DIAL_FAILURES} consecutive failed dials"
            );
            return 1;
        }
        // delay_before(1) is zero: the first dial (and the redial
        // right after a live session drops) is immediate.
        std::thread::sleep(backoff.delay_before(failures + 1));
        let connection = TcpStream::connect(addr).and_then(|stream| {
            let _ = stream.set_nodelay(true);
            Ok((stream.try_clone()?, stream.try_clone()?, stream))
        });
        let Ok((writer, mut input, stream)) = connection else {
            failures += 1;
            continue;
        };
        // Handshake under a read timeout: a HelloAck lost to a chaos
        // partition must not wedge the worker forever.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let (end, handshook) = run_session(
            registry,
            &mut input,
            &Arc::new(Mutex::new(writer)),
            session,
            &mut unsent,
            || {
                let _ = stream.set_read_timeout(None);
            },
        );
        let _ = stream.shutdown(std::net::Shutdown::Both);
        match (end, handshook) {
            (SessionEnd::Drained, _) => return 0,
            // A session that was live resets the failure budget and
            // redials immediately; a dial that never completed the
            // handshake burns budget.
            (_, true) => failures = 1,
            (_, false) => failures += 1,
        }
    }
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
