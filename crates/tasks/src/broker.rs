//! The supervised thread driver: the one in-process executor.
//!
//! Tasks wait in the lease table's queue; idle worker threads wait on
//! a condition variable and take the head of the queue, and a
//! supervisor watches them. The structure mirrors a distributed Celery
//! deployment collapsed into one process: the queue carries task
//! metadata + payload, workers ack by reporting, and per-queue
//! statistics are observable while the system runs.
//!
//! The driver serves three constructors that differ only in their
//! arguments and in the label they report under:
//! [`BrokerScheduler::with_config`] (any worker count, any
//! [`SupervisorConfig`]), [`PoolScheduler::new`](crate::PoolScheduler::new)
//! (`n` workers, default config) and
//! [`SerialScheduler::new`](crate::SerialScheduler::new) (one worker,
//! default config, `submit` waits for the report).
//!
//! # Supervision
//!
//! Every dequeued job carries a *lease*: a deadline of the task's
//! timeout plus a grace period, owned by the worker that dequeued it
//! and re-armed by that worker as it starts each attempt — so the
//! timeout bounds an attempt, and a task backing off between attempts
//! is not overdue. The lease is the only deadline: attempts run on the
//! worker's own thread, unwatched.
//!
//! What happens to a lease or a worker is decided by the pure,
//! crate-private `Coordinator`, the same core the remote scheduler
//! drives. This module is its thread shell. A supervisor thread ticks
//! on a heartbeat ([`SupervisorConfig::heartbeat`]); each tick joins
//! detached threads that have finished, tells the core which workers
//! died (e.g. a simulated SIGKILL via [`Fault::WorkerKill`]), and
//! carries out what it decides: a worker whose lease expired is
//! presumed wedged and *retired* by detaching its thread (at most
//! [`SupervisorConfig::max_detached`] at once, else the task fails
//! fast), a replacement is spawned, and the task is *redelivered*, up
//! to [`SupervisorConfig::max_redeliveries`] times, after which it is
//! dead-lettered with [`TaskState::Quarantined`]. A worker learns it
//! was replaced from the core's generation check and exits after its
//! current job.
//!
//! Exactly one report is ever delivered per submitted task
//! (first-report-wins: a detached straggler that eventually finishes
//! after its task was redelivered either wins the race — at-least-once
//! semantics — or its stale report is discarded).
//!
//! With the default config (`max_redeliveries: 0`) an expired lease is
//! reported as [`TaskState::TimedOut`] at once: the task is terminated
//! as far as its submitter can tell, and the wedged thread is reaped
//! once it finishes.

use crate::coord::{Coordinator, Counters, Effect, Observed, Workers};
use crate::fault::Fault;
use crate::lease::{JobId, Owner, Settled};
use crate::supervise::SupervisorConfig;
use crate::task::{execute, Task, TaskHandle, TaskReport, TaskState};
use crate::Scheduler;
use parking_lot::Mutex;
use simart_observe as observe;
use std::fmt;
// A glob, so the unit tests below (`use super::*`) still find the
// atomic counters they count with.
use std::sync::atomic::*;
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// What tells the schedulers of the driver's three constructors apart:
/// the name they report under and their queue-traffic counters.
pub(crate) struct Label {
    pub(crate) name: &'static str,
    pub(crate) enqueued: &'static str,
    pub(crate) dequeued: &'static str,
}

const BROKER: Label = Label {
    name: "broker",
    enqueued: "broker.enqueued",
    dequeued: "broker.dequeued",
};

/// What the lease table keeps for each job: the task, and where its
/// single report goes.
struct BrokerJob {
    task: Task,
    report_tx: SyncSender<TaskReport>,
}

/// The thread in one position of the worker pool.
struct WorkerSlot {
    handle: Option<JoinHandle<()>>,
    /// Set by the worker on clean loop exit (queue closed, or replaced).
    /// A finished thread without it died abruptly.
    graceful: Arc<AtomicBool>,
}

/// Mutable supervision state, behind one lock.
struct SupervisionState {
    /// Supervision: the queue, leases, generations, counters, and
    /// whether the queue is closed.
    coord: Coordinator<BrokerJob>,
    slots: Vec<WorkerSlot>,
    /// The core's effect buffer, reused by every input.
    effects: Vec<Effect<BrokerJob>>,
    /// Detached (presumed-wedged) worker threads awaiting reap.
    detached: Vec<(Owner, JoinHandle<()>)>,
}

/// State shared between the scheduler handle, workers, and supervisor.
struct Shared {
    label: &'static Label,
    config: SupervisorConfig,
    state: Mutex<SupervisionState>,
    /// Signalled when the queue gains a job or closes; idle workers
    /// wait here.
    queued: Condvar,
}

/// A broker queue with attached worker threads and a supervisor.
pub struct BrokerScheduler {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
    /// Dropping this sender stops the supervisor loop.
    stop: Option<Sender<()>>,
    worker_count: usize,
}

impl BrokerScheduler {
    /// Starts a broker with `workers` attached worker threads and the
    /// default [`SupervisorConfig`] (no redelivery: an expired lease is
    /// reported as timed-out).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> BrokerScheduler {
        Self::with_config(workers, SupervisorConfig::default())
    }

    /// Starts a broker with an explicit supervision config.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_config(workers: usize, config: SupervisorConfig) -> BrokerScheduler {
        Self::start(&BROKER, workers, config)
    }

    /// Starts the driver under `label`.
    pub(crate) fn start(
        label: &'static Label,
        workers: usize,
        config: SupervisorConfig,
    ) -> BrokerScheduler {
        let name = label.name;
        assert!(workers > 0, "a {name} scheduler needs at least one worker");
        let mut spawns = Vec::new();
        let coord = Coordinator::new(
            config,
            Workers::Threads,
            workers,
            Instant::now(),
            &mut spawns,
        );
        let slots = (0..workers).map(|_| WorkerSlot {
            handle: None,
            graceful: Arc::default(),
        });
        let shared = Arc::new(Shared {
            label,
            config,
            state: Mutex::new(SupervisionState {
                coord,
                slots: slots.collect(),
                effects: Vec::new(),
                detached: Vec::new(),
            }),
            queued: Condvar::new(),
        });
        apply(&shared, &mut shared.state.lock(), |_, effects, _| {
            effects.append(&mut spawns)
        });
        let (stop_tx, stop_rx) = channel::<()>();
        let supervisor = spawn_supervisor(Arc::clone(&shared), stop_rx);
        BrokerScheduler {
            shared,
            supervisor: Some(supervisor),
            stop: Some(stop_tx),
            worker_count: workers,
        }
    }

    /// Closes the queue and discards still-queued jobs without running
    /// them (in-progress tasks finish). Handles of discarded tasks
    /// resolve to synthesized "scheduler dropped task" failure reports;
    /// later submissions are dropped the same way, and expired leases
    /// are no longer redelivered. Returns the number of jobs discarded
    /// by this call.
    pub fn shutdown_now(&self) -> u64 {
        // Dropping a job drops its report sender, so the handle
        // synthesizes the failure.
        let discarded = self.shared.state.lock().coord.close(true) as u64;
        self.shared.queued.notify_all();
        discarded
    }

    /// Number of attached workers (the configured pool size; the
    /// supervisor holds the pool at this size across deaths).
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    fn counters(&self) -> Counters {
        self.shared.state.lock().coord.counters
    }

    /// Tasks submitted so far.
    pub fn submitted(&self) -> u64 {
        self.counters().submitted
    }

    /// Tasks completed so far (a report from an actual execution was
    /// delivered).
    pub fn completed(&self) -> u64 {
        self.counters().completed
    }

    /// Tasks dropped without execution (shutdown or post-shutdown
    /// submission).
    pub fn dropped(&self) -> u64 {
        self.counters().dropped
    }

    /// Tasks dead-lettered by the supervisor (lease expired or worker
    /// died, with no redelivery allowed or the cap exhausted).
    pub fn dead_lettered(&self) -> u64 {
        self.counters().dead_lettered
    }

    /// Worker threads detached by lease expirations, cumulatively.
    /// Unlike the live gauge ([`Self::detached_live`]) this never
    /// decreases; it counts how often the broker had to presume a
    /// worker wedged.
    pub fn detached_workers(&self) -> u64 {
        self.counters().retired
    }

    /// Detached worker threads currently alive (not yet reaped). The
    /// supervisor joins finished detached threads each heartbeat, so
    /// this returns to zero once wedged work unwinds.
    pub fn detached_live(&self) -> u64 {
        self.shared.state.lock().coord.unreaped() as u64
    }

    /// Tasks redelivered after a lease expiration or worker death.
    pub fn redelivered(&self) -> u64 {
        self.counters().redelivered
    }

    /// Leases that expired (task outlived timeout + grace).
    pub fn lease_expirations(&self) -> u64 {
        self.counters().expirations
    }

    /// Replacement workers spawned by the supervisor.
    pub fn worker_respawns(&self) -> u64 {
        self.counters().respawns
    }

    /// Detached worker threads joined (reaped) by the supervisor.
    pub fn detached_reaped(&self) -> u64 {
        self.counters().reaped
    }

    /// Tasks currently queued or running.
    pub fn in_flight(&self) -> u64 {
        let c = self.counters();
        c.submitted
            .saturating_sub(c.completed + c.dropped + c.dead_lettered)
    }
}

impl fmt::Debug for BrokerScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokerScheduler")
            .field("workers", &self.worker_count)
            .field("config", &self.shared.config)
            .field("submitted", &self.submitted())
            .field("completed", &self.completed())
            .field("dropped", &self.dropped())
            .field("dead_lettered", &self.dead_lettered())
            .field("in_flight", &self.in_flight())
            .finish_non_exhaustive()
    }
}

impl Scheduler for BrokerScheduler {
    fn submit(&self, mut task: Task) -> TaskHandle {
        let name = task.name().to_owned();
        // Room for the one report: a send never blocks.
        let (tx, rx) = sync_channel(1);
        task.stamp_queued();
        let (job, timeout) = (name.clone(), task.timeout);
        let payload = BrokerJob {
            task,
            report_tx: tx,
        };
        // Once shut down, the core drops the job and its report
        // sender with it, so the handle resolves to a synthesized
        // failure.
        let queued = apply(
            &self.shared,
            &mut self.shared.state.lock(),
            |coord, _, now| coord.submit(job, timeout, payload, now).is_some(),
        );
        if queued {
            observe::count(self.shared.label.enqueued, 1);
            self.shared.queued.notify_one();
        }
        TaskHandle { receiver: rx, name }
    }

    fn name(&self) -> &'static str {
        self.shared.label.name
    }
}

impl Drop for BrokerScheduler {
    fn drop(&mut self) {
        // Close the queue without discarding: workers run what is
        // already queued, then find it empty and exit.
        self.shared.state.lock().coord.close(false);
        self.shared.queued.notify_all();
        // Disconnecting the stop channel ends the supervisor loop.
        self.stop.take();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        // Collect handles first, then join without holding the state
        // lock (workers lock it to take and settle leases).
        let (workers, detached) = {
            let mut st = self.shared.state.lock();
            let workers: Vec<_> = st
                .slots
                .iter_mut()
                .filter_map(|slot| slot.handle.take())
                .collect();
            (workers, std::mem::take(&mut st.detached))
        };
        for worker in workers {
            let _ = worker.join();
        }
        // Detached threads may be wedged in arbitrarily long work and
        // their reports are already suppressed; dropping their handles
        // (instead of joining) keeps Drop from blocking on them.
        drop(detached);
    }
}

/// The metric each core counter feeds, counted as the counter moves.
const OBSERVED: [Observed; 4] = [
    ("broker.redelivered", |c| c.redelivered),
    ("broker.lease_expirations", |c| c.expirations),
    ("broker.worker_respawns", |c| c.respawns),
    ("broker.detached_reaped", |c| c.reaped),
];

/// Feeds the core one input, stamped now, and carries out what it
/// decides — all under the state lock. A retired worker's thread is
/// detached (or joined, if it already ended).
fn apply<R>(
    shared: &Arc<Shared>,
    st: &mut SupervisionState,
    input: impl FnOnce(&mut Coordinator<BrokerJob>, &mut Vec<Effect<BrokerJob>>, Instant) -> R,
) -> R {
    let before = st.coord.counters;
    let mut effects = std::mem::take(&mut st.effects);
    let now = Instant::now();
    let out = input(&mut st.coord, &mut effects, now);
    for effect in effects.drain(..) {
        match effect {
            Effect::Spawn { slot, generation } => {
                let owner = Owner { slot, generation };
                st.slots[slot] = spawn_worker(shared, owner);
                st.coord.ready(owner, now, None, &mut Vec::new());
            }
            Effect::Retire(owner) => {
                let Some(handle) = st.slots[owner.slot].handle.take() else {
                    continue;
                };
                if handle.is_finished() {
                    let _ = handle.join();
                    st.coord.reaped(owner);
                } else {
                    st.detached.push((owner, handle));
                    observe::gauge("broker.detached_live", st.detached.len() as i64);
                }
            }
            Effect::Deliver(Settled {
                payload, report, ..
            }) => {
                if report.state == TaskState::TimedOut {
                    observe::count("tasks.timeouts", 1);
                }
                let _ = payload.report_tx.send(report);
            }
            Effect::Event(_) => {}
        }
    }
    st.effects = effects;
    for (name, moved) in st.coord.counters.moved_since(&before, &OBSERVED) {
        observe::count(name, moved);
    }
    if st.coord.counters.redelivered > before.redelivered {
        shared.queued.notify_all();
    }
    out
}

/// Starts the worker thread of `owner`.
fn spawn_worker(shared: &Arc<Shared>, owner: Owner) -> WorkerSlot {
    let graceful = Arc::new(AtomicBool::new(false));
    let (shared, exited) = (Arc::clone(shared), Arc::clone(&graceful));
    let Owner { slot, generation } = owner;
    let name = format!("simart-{}-worker-{slot}-g{generation}", shared.label.name);
    let handle = std::thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(&shared, owner, &exited))
        .expect("spawning scheduler worker");
    WorkerSlot {
        handle: Some(handle),
        graceful,
    }
}

fn worker_loop(shared: &Arc<Shared>, owner: Owner, graceful: &AtomicBool) {
    while let Some((job, task, delivery)) = take_head(shared, owner) {
        observe::count(shared.label.dequeued, 1);
        // Broker-to-worker handoff latency (the task's own queue stamp
        // keeps ticking until `execute`).
        if let Some(us) = task.queue_stamp.elapsed_us() {
            observe::observe_us("broker.queue_latency_us", us);
        }
        let worker_fault = task
            .fault
            .as_ref()
            .and_then(|inj| inj.take_worker_fault(task.name(), delivery));
        match worker_fault {
            Some(Fault::WorkerKill) => {
                // Simulated SIGKILL: die holding the lease, without
                // setting the graceful flag.
                return;
            }
            Some(Fault::WorkerStall(stall)) => std::thread::sleep(stall),
            _ => {}
        }
        // Each attempt re-arms the lease, so the task's timeout bounds
        // the attempt and a backoff sleep is never overdue.
        let report = execute(task, |attempt, start| {
            shared.state.lock().coord.rearm(job, owner, attempt, start);
        });
        // First report wins: a delivery whose job already settled (it
        // was dead-lettered, or another delivery finished first) gets
        // nothing back and its report is discarded.
        let mut st = shared.state.lock();
        apply(shared, &mut st, |coord, effects, now| {
            coord.report(job, owner, delivery, report, now, effects)
        });
        if !st.coord.is_current(owner) {
            // The supervisor presumed this worker wedged and already
            // spawned a replacement; exit so the slot has one owner.
            break;
        }
    }
    graceful.store(true, Ordering::SeqCst);
}

/// Waits for a job at the head of the queue and takes its lease in
/// the same critical section — before the worker consults its faults,
/// so a killed worker leaves a lease behind for the supervisor to
/// recover. `None` once the queue is closed and empty.
fn take_head(shared: &Arc<Shared>, owner: Owner) -> Option<(JobId, Task, u32)> {
    let mut st = shared.state.lock();
    loop {
        if let Some((job, _)) = st.coord.head() {
            let granted = apply(shared, &mut st, |coord, effects, now| {
                let granted = coord.grant(job, owner, now, effects)?;
                Some((granted.payload.task.clone(), granted.delivery))
            });
            return granted.map(|(task, delivery)| (job, task, delivery));
        }
        if st.coord.closed() {
            return None;
        }
        st = shared
            .queued
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

fn spawn_supervisor(shared: Arc<Shared>, stop: Receiver<()>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("simart-{}-supervisor", shared.label.name))
        .spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(shared.config.heartbeat) {
                supervise_tick(&shared);
            }
        })
        .expect("spawning scheduler supervisor")
}

/// One supervisor heartbeat: join finished detached threads, find the
/// workers that died, and let the core decide the rest.
fn supervise_tick(shared: &Arc<Shared>) {
    let _tick_span = observe::span(|| "supervisor.tick".to_owned());
    let mut guard = shared.state.lock();
    let st = &mut *guard;
    let (finished, running) = std::mem::take(&mut st.detached)
        .into_iter()
        .partition::<Vec<_>, _>(|(_, handle)| handle.is_finished());
    st.detached = running;
    let joined: Vec<Owner> = finished
        .into_iter()
        .map(|(owner, handle)| {
            let _ = handle.join();
            owner
        })
        .collect();
    let mut exited = Vec::new();
    for (slot, worker) in st.slots.iter_mut().enumerate() {
        let died = worker.handle.as_ref().is_some_and(JoinHandle::is_finished)
            && !worker.graceful.load(Ordering::SeqCst);
        if let Some(handle) = worker.handle.take_if(|_| died) {
            let _ = handle.join();
            exited.push(st.coord.owner(slot));
        }
    }
    // The gauge moves only where the detached set changes: here when a
    // thread was joined, and in the `Retire` arm when one is detached.
    if !joined.is_empty() {
        observe::gauge("broker.detached_live", st.detached.len() as i64);
    }
    apply(shared, st, |coord, effects, now| {
        for owner in joined {
            coord.reaped(owner);
        }
        coord.tick(now, &exited, effects)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultInjector;
    use std::time::Duration;

    /// Config with tight timings for tests that exercise supervision.
    fn quick(max_redeliveries: u32) -> SupervisorConfig {
        SupervisorConfig {
            heartbeat: Duration::from_millis(10),
            grace: Duration::from_millis(40),
            max_redeliveries,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn tracks_in_flight_counts() {
        let broker = BrokerScheduler::new(2);
        assert_eq!(broker.workers(), 2);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                broker.submit(Task::new(format!("t{i}"), || {
                    std::thread::sleep(Duration::from_millis(20));
                    Ok(String::new())
                }))
            })
            .collect();
        assert_eq!(broker.submitted(), 4);
        for handle in handles {
            handle.wait();
        }
        assert_eq!(broker.completed(), 4);
        assert_eq!(broker.in_flight(), 0);
    }

    #[test]
    fn retries_flow_through_broker() {
        let broker = BrokerScheduler::new(2);
        let tries = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&tries);
        let report = broker
            .submit(
                Task::new("flaky", move || {
                    if seen.fetch_add(1, Ordering::SeqCst) == 0 {
                        Err("first attempt fails".to_owned())
                    } else {
                        Ok("second attempt works".to_owned())
                    }
                })
                .retries(2),
            )
            .wait();
        assert!(report.state.is_success());
        assert_eq!(report.attempts, 2);
    }

    #[test]
    fn shutdown_drops_queued_tasks_with_failure_reports() {
        let broker = BrokerScheduler::new(1);
        // Gate the single worker on the first task so the rest stay
        // queued while we shut down.
        let (gate_tx, gate_rx) = channel::<()>();
        // A task must be `Sync`; a receiver is not.
        let gate_rx = std::sync::Mutex::new(gate_rx);
        let first = broker.submit(Task::new("gated", move || {
            let _ = gate_rx.lock().unwrap().recv();
            Ok("released".to_owned())
        }));
        let queued: Vec<_> = (0..3)
            .map(|i| broker.submit(Task::new(format!("queued-{i}"), || Ok(String::new()))))
            .collect();
        // Give the worker time to pick up the gated task.
        std::thread::sleep(Duration::from_millis(50));
        let discarded = broker.shutdown_now();
        assert_eq!(discarded, 3, "the three queued tasks are discarded");
        assert_eq!(broker.dropped(), 3);
        gate_tx.send(()).unwrap();
        let report = first.wait();
        assert!(report.state.is_success(), "in-progress task finishes");
        for handle in queued {
            let report = handle.wait();
            assert_eq!(report.state, TaskState::Failed);
            assert_eq!(report.attempts, 0);
            assert!(report
                .error
                .as_deref()
                .unwrap_or("")
                .contains("scheduler dropped task"));
        }
        // Submissions after shutdown are dropped the same way.
        let late = broker
            .submit(Task::new("late", || Ok(String::new())))
            .wait();
        assert_eq!(late.state, TaskState::Failed);
        assert_eq!(broker.dropped(), 4);
    }

    #[test]
    fn timed_out_tasks_count_detached_workers() {
        let broker = BrokerScheduler::new(2);
        let report = broker
            .submit(
                Task::new("runaway", || {
                    std::thread::sleep(Duration::from_millis(300));
                    Ok(String::new())
                })
                .timeout(Duration::from_millis(30)),
            )
            .wait();
        assert_eq!(report.state, TaskState::TimedOut);
        assert!(report.detached);
        assert_eq!(broker.detached_workers(), 1);
        assert_eq!(broker.lease_expirations(), 1);
        // A well-behaved task leaves the counter alone.
        let ok = broker
            .submit(Task::new("fine", || Ok(String::new())))
            .wait();
        assert!(ok.state.is_success());
        assert_eq!(broker.detached_workers(), 1);
        // Let the runaway worker finish before the test exits.
        std::thread::sleep(Duration::from_millis(300));
    }

    #[test]
    fn detached_workers_are_reaped_once_they_finish() {
        let broker = BrokerScheduler::with_config(1, quick(0));
        let report = broker
            .submit(
                Task::new("briefly-wedged", || {
                    std::thread::sleep(Duration::from_millis(150));
                    Ok(String::new())
                })
                .timeout(Duration::from_millis(20)),
            )
            .wait();
        assert_eq!(report.state, TaskState::TimedOut);
        assert_eq!(broker.detached_workers(), 1);
        assert!(broker.worker_respawns() >= 1);
        // Once the wedged work unwinds, the supervisor joins the thread
        // and the live gauge returns to zero.
        let deadline = Instant::now() + Duration::from_secs(5);
        while broker.detached_live() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(broker.detached_live(), 0, "detached thread was reaped");
        assert_eq!(broker.detached_reaped(), 1);
        // The pool is back at strength: a fresh task still runs.
        let ok = broker
            .submit(Task::new("after", || Ok(String::new())))
            .wait();
        assert!(ok.state.is_success());
    }

    #[test]
    fn expired_leases_are_redelivered_up_to_cap() {
        let broker = BrokerScheduler::with_config(1, quick(2));
        // Wedges on the first delivery only; redelivery succeeds.
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        let report = broker
            .submit(
                Task::new("wedge-once", move || {
                    if seen.fetch_add(1, Ordering::SeqCst) == 0 {
                        std::thread::sleep(Duration::from_millis(250));
                    }
                    Ok("recovered".to_owned())
                })
                .timeout(Duration::from_millis(20)),
            )
            .wait();
        assert!(
            report.state.is_success(),
            "redelivered task succeeds: {report:?}"
        );
        assert_eq!(report.redeliveries, 1);
        assert_eq!(
            report.lease_events,
            vec!["delivery:1:lease-expired".to_owned()]
        );
        assert_eq!(broker.redelivered(), 1);
        assert_eq!(broker.lease_expirations(), 1);
        // Let the wedged first delivery unwind before the test exits.
        std::thread::sleep(Duration::from_millis(250));
    }

    #[test]
    fn exhausted_redeliveries_are_quarantined() {
        let broker = BrokerScheduler::with_config(2, quick(1));
        let report = broker
            .submit(
                Task::new("always-wedged", || {
                    std::thread::sleep(Duration::from_millis(400));
                    Ok(String::new())
                })
                .timeout(Duration::from_millis(20)),
            )
            .wait();
        assert_eq!(report.state, TaskState::Quarantined);
        assert_eq!(report.redeliveries, 1);
        assert_eq!(
            report.lease_events,
            vec![
                "delivery:1:lease-expired".to_owned(),
                "delivery:2:lease-expired".to_owned()
            ]
        );
        assert!(report
            .error
            .as_deref()
            .unwrap_or("")
            .contains("redelivery cap"));
        assert_eq!(broker.dead_lettered(), 1);
        assert_eq!(broker.in_flight(), 0);
        // Let both wedged deliveries unwind before the test exits.
        std::thread::sleep(Duration::from_millis(450));
    }

    #[test]
    fn killed_workers_are_respawned_and_tasks_redelivered() {
        // Kill the worker on the first delivery only.
        let injector = Arc::new(FaultInjector::new(9).worker_kills(1.0).worker_kill_limit(1));
        let broker = BrokerScheduler::with_config(1, quick(1));
        let report = broker
            .submit(
                Task::new("victim", || Ok("survived".to_owned()))
                    .fault_injector(Arc::clone(&injector))
                    .timeout(Duration::from_secs(5)),
            )
            .wait();
        assert!(
            report.state.is_success(),
            "redelivered after kill: {report:?}"
        );
        assert_eq!(report.redeliveries, 1);
        assert_eq!(
            report.lease_events,
            vec!["delivery:1:worker-died".to_owned()]
        );
        assert_eq!(injector.injected_kills(), 1);
        assert!(broker.worker_respawns() >= 1);
        assert_eq!(broker.redelivered(), 1);
        // The pool healed: more work still runs.
        let ok = broker
            .submit(Task::new("after-kill", || Ok(String::new())))
            .wait();
        assert!(ok.state.is_success());
    }

    #[test]
    fn injected_delay_past_timeout_expires_the_lease() {
        // Satellite: a delayed attempt that exceeds the timeout must
        // produce TimedOut plus one lease expiration — not a hung
        // wait(). delays(1.0, ..) guarantees the injected delay fires;
        // assert the drawn magnitude actually exceeds the timeout so
        // the test cannot silently weaken.
        let injector = Arc::new(FaultInjector::new(21).delays(1.0, Duration::from_millis(400)));
        match injector.fault_for("delayed", 1) {
            Some(Fault::Delay(d)) => {
                assert!(
                    d > Duration::from_millis(30),
                    "seed must draw a long delay, got {d:?}"
                )
            }
            other => panic!("expected a delay fault, got {other:?}"),
        }
        let broker = BrokerScheduler::with_config(1, quick(0));
        let report = broker
            .submit(
                Task::new("delayed", || Ok(String::new()))
                    .fault_injector(Arc::clone(&injector))
                    .timeout(Duration::from_millis(30)),
            )
            .wait();
        assert_eq!(report.state, TaskState::TimedOut);
        assert!(report.detached);
        assert_eq!(broker.lease_expirations(), 1);
        // Let the delayed delivery unwind before the test exits.
        std::thread::sleep(Duration::from_millis(450));
    }

    #[test]
    fn one_worker_runs_the_queue_oldest_first_and_skips_settled_jobs() {
        let broker = BrokerScheduler::with_config(1, quick(1));
        let log = Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
        // Logs its name on every delivery. Given a hold, its first
        // delivery blocks on it past its lease, then reports
        // "straggler".
        let logged = |name: &str, hold: Option<Receiver<()>>| {
            let (log, name) = (Arc::clone(&log), name.to_owned());
            let timed = hold.is_some();
            // A task must be `Sync`; a receiver is not.
            let hold = std::sync::Mutex::new(hold);
            let task = Task::new(name.clone(), move || {
                log.lock().unwrap().push(name.clone());
                let held = hold.lock().unwrap().take();
                match held {
                    Some(hold) => {
                        let _ = hold.recv();
                        Ok("straggler".to_owned())
                    }
                    None => Ok("delivered".to_owned()),
                }
            });
            if timed {
                task.timeout(Duration::from_millis(20))
            } else {
                task
            }
        };
        let gate = || {
            let (open, hold) = channel::<()>();
            let hold = std::sync::Mutex::new(hold);
            let task = Task::new("gate", move || {
                let _ = hold.lock().unwrap().recv();
                Ok(String::new())
            });
            (open, broker.submit(task))
        };
        let redelivered = |count: u64| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while broker.redelivered() < count && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(broker.redelivered(), count);
        };

        // The wedged job's redelivery joins the queue behind the two
        // jobs submitted while its first delivery ran.
        let (release, hold) = channel();
        let wedged = broker.submit(logged("w1", Some(hold)));
        let earlier = [
            broker.submit(logged("a", None)),
            broker.submit(logged("b", None)),
        ];
        let report = wedged.wait();
        release.send(()).unwrap();
        assert_eq!(report.output.as_deref(), Some("delivered"), "{report:?}");
        assert_eq!(report.redeliveries, 1);
        assert!(earlier.into_iter().all(|h| h.wait().state.is_success()));
        assert_eq!(*log.lock().unwrap(), ["w1", "a", "b", "w1"]);

        // The straggler settles a job whose redelivery waits behind a
        // gate: that delivery is skipped, never run.
        log.lock().unwrap().clear();
        let (release, hold) = channel();
        let wedged = broker.submit(logged("w2", Some(hold)));
        let (open, gated) = gate();
        redelivered(2);
        release.send(()).unwrap();
        let report = wedged.wait();
        assert_eq!(report.output.as_deref(), Some("straggler"), "{report:?}");
        assert_eq!(report.lease_events, ["delivery:1:lease-expired"]);
        let after = broker.submit(logged("c", None));
        open.send(()).unwrap();
        assert!(gated.wait().state.is_success());
        assert!(after.wait().state.is_success());
        assert_eq!(*log.lock().unwrap(), ["w2", "c"]);

        // Once more, but shut down while the settled job's redelivery
        // is still queued: only the live job behind it is discarded.
        let (release, hold) = channel();
        let wedged = broker.submit(logged("w3", Some(hold)));
        let (open, gated) = gate();
        redelivered(3);
        release.send(()).unwrap();
        assert_eq!(wedged.wait().output.as_deref(), Some("straggler"));
        let dropped = broker.submit(logged("d", None));
        assert_eq!(broker.shutdown_now(), 1, "the settled job is not counted");
        open.send(()).unwrap();
        assert!(gated.wait().state.is_success());
        assert_eq!(dropped.wait().attempts, 0);
        assert_eq!(*log.lock().unwrap(), ["w2", "c", "w3"]);
    }

    #[test]
    fn detached_cap_fails_fast_instead_of_leaking() {
        let config = SupervisorConfig {
            heartbeat: Duration::from_millis(10),
            grace: Duration::from_millis(20),
            max_redeliveries: 0,
            max_detached: 1,
        };
        let broker = BrokerScheduler::with_config(2, config);
        let wedge = |name: &str| {
            broker.submit(
                Task::new(name.to_owned(), || {
                    std::thread::sleep(Duration::from_millis(300));
                    Ok(String::new())
                })
                .timeout(Duration::from_millis(20)),
            )
        };
        let first = wedge("wedge-1").wait();
        assert_eq!(first.state, TaskState::TimedOut);
        assert_eq!(broker.detached_workers(), 1);
        // The second wedge hits the cap: fail fast, no extra detach.
        let second = wedge("wedge-2").wait();
        assert_eq!(second.state, TaskState::TimedOut);
        assert!(second
            .error
            .as_deref()
            .unwrap_or("")
            .contains("detached-worker cap"));
        assert_eq!(
            broker.detached_workers(),
            1,
            "no second detach past the cap"
        );
        std::thread::sleep(Duration::from_millis(350));
    }
}
