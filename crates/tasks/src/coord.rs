//! The supervision core, written once: a pure state machine around
//! the lease table.
//!
//! [`Coordinator`] decides everything the thread driver
//! ([`BrokerScheduler`](crate::BrokerScheduler)) and the process driver
//! ([`RemoteScheduler`](crate::RemoteScheduler)) decide about their
//! workers. It owns the [`LeaseTable`] (queue, leases, redelivery, dead
//! letters), each worker slot's generation, [`Phase`] and `last_seen`,
//! the closed and abandoned flags, how long work has found no
//! reachable worker, and one set of [`Counters`]. It does no I/O,
//! spawns nothing, takes no lock and never reads a clock: an input that
//! needs the time takes `now`, and what the driver must do comes back
//! as [`Effect`]s in a buffer the caller reuses.
//!
//! The drivers are shells: they own threads, processes, pipes,
//! sockets, waits and each job's event sink, feed the core what
//! happened and carry out what it returns. A thread driver *retires*
//! an owner by detaching its thread, a process driver by SIGKILL and
//! reap.
//!
//! Broker shutdown [closes](Coordinator::close) the core: nothing is
//! redelivered or replaced from then on. A remote drain keeps
//! redelivering until it [abandons](Coordinator::abandon) what is
//! left.

use crate::lease::{Cause, Job, JobId, LeaseTable, Owner, Revoked, Settled};
use crate::remote::RemoteEvent;
use crate::supervise::SupervisorConfig;
use crate::task::{TaskReport, TaskState};
use std::time::{Duration, Instant};

/// What the workers are. The core's few differences follow from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workers {
    /// Threads in this process. One that ends unasked is
    /// `worker-died`; a wedged one is detached, at most
    /// [`SupervisorConfig::max_detached`] at once, and its timed-out
    /// report says it was.
    Threads,
    /// Worker processes. They heartbeat, so a silent one goes stale;
    /// each job's sink hears its delivery [events](RemoteEvent); and
    /// work that finds no reachable worker for `unreachable` fails
    /// loudly.
    Processes {
        /// How long pending work may find no ready worker.
        unreachable: Duration,
    },
}

/// Where a worker slot's current occupant is in its life. A ready slot
/// is *busy* while the table shows its owner holding a lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Spawned and not yet answered, or its connection is gone until
    /// the session resumes.
    Starting,
    /// Takes work.
    Ready,
    /// Said goodbye, refused, or drained: reaped, never replaced.
    Exiting,
    /// Nothing occupies the slot.
    Gone,
}

/// How a worker was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Loss {
    /// Its thread or process ended unasked.
    Died,
    /// Its stream carried a corrupt frame.
    TornFrame,
    /// Its connection broke while its process may live on: it keeps
    /// its lease and may resume its session.
    Connection,
}

/// What the driver must do.
pub(crate) enum Effect<P> {
    /// Start a worker in `slot` as `generation`, then answer
    /// [`Coordinator::ready`] (or [`Coordinator::reaped`] if it could
    /// not start).
    Spawn { slot: usize, generation: u64 },
    /// Stop this owner (detach its thread, or SIGKILL its process) and
    /// answer [`Coordinator::reaped`] once it is gone.
    Retire(Owner),
    /// Hand a job's one report (a worker's, or a dead letter) to its
    /// submitter.
    Deliver(Settled<P>),
    /// Tell the job's event sink, before any report of it is delivered.
    Event((JobId, RemoteEvent)),
}

/// Both drivers' counters. Their getters read these under the lock
/// that guards the core. `frame_errors` and `chaos_kills` are tallied
/// by the process driver, which reads the frames and draws the kills.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Counters {
    pub(crate) submitted: u64,
    /// Worker reports delivered (first report wins).
    pub(crate) completed: u64,
    /// Jobs forgotten without a report: closed, discarded, abandoned.
    pub(crate) dropped: u64,
    pub(crate) dead_lettered: u64,
    pub(crate) redelivered: u64,
    /// Lost dispatches queued again under the same delivery.
    pub(crate) resent: u64,
    pub(crate) expirations: u64,
    /// Owners retired while presumed alive (wedged or stale).
    pub(crate) retired: u64,
    /// Of those, the ones since reaped.
    pub(crate) reaped: u64,
    /// Replacement workers started.
    pub(crate) respawns: u64,
    pub(crate) reconnects: u64,
    pub(crate) partitions: u64,
    pub(crate) resume_reconciled: u64,
    pub(crate) frame_errors: u64,
    pub(crate) chaos_kills: u64,
}

/// A metric name beside the counter it follows.
pub(crate) type Observed = (&'static str, fn(&Counters) -> u64);

impl Counters {
    /// How far each observed counter moved since `before`, where it
    /// moved.
    pub(crate) fn moved_since<'a>(
        &'a self,
        before: &'a Counters,
        observed: &'a [Observed],
    ) -> impl Iterator<Item = (&'static str, u64)> + 'a {
        observed.iter().filter_map(move |&(name, count)| {
            let moved = count(self) - count(before);
            (moved > 0).then_some((name, moved))
        })
    }
}

struct Slot {
    generation: u64,
    phase: Phase,
    last_seen: Instant,
}

pub(crate) struct Coordinator<P> {
    config: SupervisorConfig,
    workers: Workers,
    table: LeaseTable<P>,
    slots: Vec<Slot>,
    next_generation: u64,
    /// Owners retired while presumed alive and not yet reaped.
    unreaped: Vec<Owner>,
    closed: bool,
    abandoned: bool,
    unreachable_since: Option<Instant>,
    pub(crate) counters: Counters,
}

impl<P> Coordinator<P> {
    /// A core for `slots` workers, each of which `effects` asks the
    /// driver to spawn.
    pub(crate) fn new(
        config: SupervisorConfig,
        workers: Workers,
        slots: usize,
        now: Instant,
        effects: &mut Vec<Effect<P>>,
    ) -> Coordinator<P> {
        let mut coord = Coordinator {
            config,
            workers,
            table: LeaseTable::new(config),
            slots: Vec::with_capacity(slots),
            next_generation: 0,
            unreaped: Vec::new(),
            closed: false,
            abandoned: false,
            unreachable_since: None,
            counters: Counters::default(),
        };
        for slot in 0..slots {
            let fresh = coord.mint(now);
            coord.slots.push(fresh);
            effects.push(Effect::Spawn {
                slot,
                generation: coord.next_generation,
            });
        }
        coord
    }

    /// The current occupant of `slot`.
    pub(crate) fn owner(&self, slot: usize) -> Owner {
        Owner {
            slot,
            generation: self.slots[slot].generation,
        }
    }

    /// `owner` still occupies its slot: it was not replaced.
    pub(crate) fn is_current(&self, owner: Owner) -> bool {
        self.slots
            .get(owner.slot)
            .is_some_and(|slot| slot.generation == owner.generation)
    }

    pub(crate) fn phase(&self, slot: usize) -> Phase {
        self.slots[slot].phase
    }

    /// The slot is ready and holds no lease.
    pub(crate) fn idle(&self, slot: usize) -> bool {
        self.slots[slot].phase == Phase::Ready && self.table.held_by(self.owner(slot)).is_empty()
    }

    pub(crate) fn job(&self, job: JobId) -> Option<&Job<P>> {
        self.table.get(job)
    }

    /// The oldest job awaiting a grant.
    pub(crate) fn head(&mut self) -> Option<(JobId, &Job<P>)> {
        self.table.head()
    }

    pub(crate) fn queued(&self) -> usize {
        self.table.queued()
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.table.in_flight()
    }

    /// No unsettled job remains.
    pub(crate) fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    pub(crate) fn closed(&self) -> bool {
        self.closed
    }

    pub(crate) fn abandoned(&self) -> bool {
        self.abandoned
    }

    /// Owners retired while presumed alive and not yet reaped.
    pub(crate) fn unreaped(&self) -> usize {
        self.unreaped.len()
    }

    /// Queues a job, unless the core is closed: then it is dropped (and
    /// its payload with it) and `None` comes back.
    pub(crate) fn submit(
        &mut self,
        name: String,
        timeout: Option<Duration>,
        payload: P,
        now: Instant,
    ) -> Option<JobId> {
        self.counters.submitted += 1;
        if self.closed {
            self.counters.dropped += 1;
            return None;
        }
        Some(self.table.submit(name, timeout, payload, now))
    }

    /// Leases the head of the queue to `owner`, which must be current
    /// and idle. The process driver calls it once the dispatch frame
    /// is written.
    pub(crate) fn grant(
        &mut self,
        job: JobId,
        owner: Owner,
        now: Instant,
        effects: &mut Vec<Effect<P>>,
    ) -> Option<&Job<P>> {
        if !self.is_current(owner) || !self.idle(owner.slot) {
            return None;
        }
        let record = self.table.grant(job, owner, now)?;
        if matches!(self.workers, Workers::Processes { .. }) {
            effects.push(Effect::Event((
                job,
                RemoteEvent::Dispatched {
                    task: record.name.clone(),
                    delivery: record.delivery,
                    generation: owner.generation,
                },
            )));
        }
        Some(record)
    }

    /// `owner` starts attempt `attempt` of its leased job at `start`.
    pub(crate) fn rearm(&mut self, job: JobId, owner: Owner, attempt: u32, start: Instant) {
        self.table.rearm(job, owner, attempt, start);
    }

    /// `owner` reports `delivery` of `job`. The first report wins; a
    /// later one is discarded and `false` comes back.
    pub(crate) fn report(
        &mut self,
        job: JobId,
        owner: Owner,
        delivery: u32,
        report: TaskReport,
        now: Instant,
        effects: &mut Vec<Effect<P>>,
    ) -> bool {
        if self.is_current(owner) {
            self.slots[owner.slot].last_seen = now;
        }
        let Some(settled) = self.table.complete(job, report) else {
            return false;
        };
        self.counters.completed += 1;
        if matches!(self.workers, Workers::Processes { .. }) {
            effects.push(Effect::Event((
                job,
                RemoteEvent::Acked {
                    task: settled.report.name.clone(),
                    delivery,
                    generation: owner.generation,
                },
            )));
        }
        effects.push(Effect::Deliver(settled));
        true
    }

    /// `owner` is alive and running job `busy` (`0`: none). A lease it
    /// holds on any other job, granted a staleness budget ago, is a
    /// dispatch that never arrived: it is queued again under the same
    /// delivery, spending no budget. `true` when one was.
    pub(crate) fn heartbeat(&mut self, owner: Owner, busy: JobId, now: Instant) -> bool {
        if !self.is_current(owner) {
            return false;
        }
        self.slots[owner.slot].last_seen = now;
        let Some(stale_after) = self.stale_after() else {
            return false;
        };
        let mut resent = false;
        for job in self.table.held_by(owner) {
            let lost = job != busy
                && self.table.lease(job).is_some_and(|lease| {
                    now.saturating_duration_since(lease.granted) >= stale_after
                });
            if lost && self.table.resend(job, Cause::DispatchLost) {
                self.counters.resent += 1;
                resent = true;
            }
        }
        resent
    }

    /// `owner` answered (its Hello, or its thread started) and takes
    /// work. `resumed` names the session of a worker that reconnected:
    /// the leases it holds stay granted.
    pub(crate) fn ready(
        &mut self,
        owner: Owner,
        now: Instant,
        resumed: Option<u64>,
        effects: &mut Vec<Effect<P>>,
    ) {
        if !self.is_current(owner) || !self.alive(owner.slot) {
            return;
        }
        let slot = &mut self.slots[owner.slot];
        slot.phase = Phase::Ready;
        slot.last_seen = now;
        let Some(session) = resumed else {
            return;
        };
        self.counters.reconnects += 1;
        for job in self.table.held_by(owner) {
            let Some(record) = self.table.get(job) else {
                continue;
            };
            self.counters.resume_reconciled += 1;
            if matches!(self.workers, Workers::Processes { .. }) {
                effects.push(Effect::Event((
                    job,
                    RemoteEvent::Reconnected {
                        task: record.name.clone(),
                        session,
                        generation: owner.generation,
                    },
                )));
            }
        }
    }

    /// `owner` said goodbye or was refused: it is reaped, never
    /// replaced.
    pub(crate) fn exiting(&mut self, owner: Owner) {
        if self.is_current(owner) && self.alive(owner.slot) {
            self.slots[owner.slot].phase = Phase::Exiting;
        }
    }

    /// `owner` was lost. A lost connection only makes it unreachable;
    /// otherwise it is retired, what it held is revoked, and its slot
    /// is filled again unless it was exiting or the core is closed or
    /// abandoned.
    pub(crate) fn lost(
        &mut self,
        owner: Owner,
        loss: Loss,
        now: Instant,
        effects: &mut Vec<Effect<P>>,
    ) {
        if !self.is_current(owner) || self.slots[owner.slot].phase == Phase::Gone {
            return;
        }
        match loss {
            Loss::Connection => {
                let slot = &mut self.slots[owner.slot];
                if slot.phase == Phase::Ready {
                    slot.phase = Phase::Starting;
                    self.counters.partitions += 1;
                }
            }
            Loss::Died => {
                let cause = match self.workers {
                    Workers::Threads => Cause::WorkerDied,
                    Workers::Processes { .. } => Cause::ProcessLost("worker-died"),
                };
                self.retire(owner, cause, false, now, effects);
            }
            Loss::TornFrame => {
                self.retire(owner, Cause::ProcessLost("torn-frame"), true, now, effects);
            }
        }
    }

    /// `owner`'s thread or process is gone and joined or reaped. A slot
    /// it still occupies is left empty.
    pub(crate) fn reaped(&mut self, owner: Owner) {
        if let Some(at) = self.unreaped.iter().position(|&o| o == owner) {
            self.unreaped.swap_remove(at);
            self.counters.reaped += 1;
        }
        if self.is_current(owner) {
            self.slots[owner.slot].phase = Phase::Gone;
        }
    }

    /// One supervisor heartbeat at `now`. The `exited` owners died;
    /// then each ready slot whose lease expired, or whose worker went
    /// silent, is retired; then pending work that no worker process can
    /// take fails (`no-workers`, `workers-unreachable`): the cause of
    /// such a fail-all comes back.
    pub(crate) fn tick(
        &mut self,
        now: Instant,
        exited: &[Owner],
        effects: &mut Vec<Effect<P>>,
    ) -> Option<Cause> {
        let expired = self.table.expired(now);
        for slot in 0..self.slots.len() {
            let owner = self.owner(slot);
            if exited.contains(&owner) {
                self.lost(owner, Loss::Died, now, effects);
                continue;
            }
            if self.slots[slot].phase != Phase::Ready {
                continue;
            }
            let held = self.table.held_by(owner);
            let expired = held.iter().any(|job| expired.contains(job));
            let silent = now.saturating_duration_since(self.slots[slot].last_seen);
            if expired {
                self.expire(owner, now, effects);
            } else if self.stale_after().is_some_and(|after| silent >= after) {
                let cause = Cause::ProcessLost("heartbeat-lost");
                self.retire(owner, cause, true, now, effects);
            }
        }
        let Workers::Processes { unreachable } = self.workers else {
            return None;
        };
        if self.abandoned {
            self.unreachable_since = None;
            return None;
        }
        let mut failed = None;
        if self.table.queued() > 0 && self.slots.iter().all(|s| s.phase == Phase::Gone) {
            failed = Some(self.fail_all(Cause::NoWorkers, now, effects));
        }
        if self.table.is_empty() || self.slots.iter().any(|s| s.phase == Phase::Ready) {
            self.unreachable_since = None;
            return failed;
        }
        let since = *self.unreachable_since.get_or_insert(now);
        if now.saturating_duration_since(since) < unreachable {
            return failed;
        }
        self.unreachable_since = None;
        Some(self.fail_all(Cause::WorkersUnreachable(unreachable), now, effects))
    }

    /// Stops redelivery and replacement at once; with `discard_queued`,
    /// also forgets every queued job without a report. Returns how many
    /// it forgot.
    pub(crate) fn close(&mut self, discard_queued: bool) -> usize {
        self.closed = true;
        let discarded = if discard_queued {
            self.table.discard_queued()
        } else {
            0
        };
        self.counters.dropped += discarded as u64;
        discarded
    }

    /// Gives up: every worker is exiting, nothing is replaced, and
    /// every unsettled job is forgotten without a report. Returns how
    /// many of them were queued.
    pub(crate) fn abandon(&mut self) -> usize {
        self.abandoned = true;
        for slot in &mut self.slots {
            if slot.phase != Phase::Gone {
                slot.phase = Phase::Exiting;
            }
        }
        let discarded = self.table.discard_all();
        self.counters.dropped += discarded as u64;
        discarded
    }

    fn alive(&self, slot: usize) -> bool {
        matches!(self.slots[slot].phase, Phase::Starting | Phase::Ready)
    }

    fn stale_after(&self) -> Option<Duration> {
        match self.workers {
            Workers::Threads => None,
            Workers::Processes { .. } => Some(self.config.remote_stale_after()),
        }
    }

    /// A fresh occupant's slot record under the next generation.
    fn mint(&mut self, now: Instant) -> Slot {
        self.next_generation += 1;
        Slot {
            generation: self.next_generation,
            phase: Phase::Starting,
            last_seen: now,
        }
    }

    /// `owner`'s lease expired. Its worker is presumed wedged and
    /// retired, unless the core is closed or too many retired threads
    /// still run: then the lease fails without a retirement.
    fn expire(&mut self, owner: Owner, now: Instant, effects: &mut Vec<Effect<P>>) {
        self.counters.expirations += 1;
        let capped =
            self.workers == Workers::Threads && self.unreaped.len() >= self.config.max_detached;
        if !self.closed && !capped {
            return self.retire(owner, Cause::LeaseExpired, true, now, effects);
        }
        let cause = if self.closed {
            Cause::LeaseExpired
        } else {
            Cause::DetachedCap
        };
        for job in self.table.held_by(owner) {
            self.revoke(job, cause, now, effects);
        }
    }

    /// Retires `owner` (`alive`: it may still be running), revokes what
    /// it held, and fills its slot again unless it was exiting or the
    /// core is closed or abandoned.
    fn retire(
        &mut self,
        owner: Owner,
        cause: Cause,
        alive: bool,
        now: Instant,
        effects: &mut Vec<Effect<P>>,
    ) {
        effects.push(Effect::Retire(owner));
        if alive {
            self.unreaped.push(owner);
            self.counters.retired += 1;
        }
        for job in self.table.held_by(owner) {
            self.revoke(job, cause, now, effects);
        }
        let exiting = self.slots[owner.slot].phase == Phase::Exiting;
        if self.closed || self.abandoned || exiting {
            self.slots[owner.slot].phase = Phase::Gone;
            return;
        }
        let fresh = self.mint(now);
        self.slots[owner.slot] = fresh;
        self.counters.respawns += 1;
        effects.push(Effect::Spawn {
            slot: owner.slot,
            generation: self.next_generation,
        });
    }

    /// Revokes a lease: the job is queued again while budget remains
    /// and the core is open, else dead-lettered.
    fn revoke(&mut self, job: JobId, cause: Cause, now: Instant, effects: &mut Vec<Effect<P>>) {
        let dead = if self.closed || cause == Cause::DetachedCap {
            self.table.fail(job, cause, now)
        } else {
            match self.table.revoke(job, cause, now) {
                Some(Revoked::Requeued) => {
                    self.counters.redelivered += 1;
                    None
                }
                Some(Revoked::DeadLettered(settled)) => Some(settled),
                None => None,
            }
        };
        let Some(mut settled) = dead else {
            return;
        };
        self.counters.dead_lettered += 1;
        // The thread behind an expired, never-redelivered lease was
        // detached and is still running somewhere.
        settled.report.detached = self.workers == Workers::Threads
            && cause == Cause::LeaseExpired
            && settled.report.state == TaskState::TimedOut;
        effects.push(Effect::Deliver(settled));
    }

    fn fail_all(&mut self, cause: Cause, now: Instant, effects: &mut Vec<Effect<P>>) -> Cause {
        for settled in self.table.fail_all(cause, now) {
            self.counters.dead_lettered += 1;
            effects.push(Effect::Deliver(settled));
        }
        cause
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    const GRACE: Duration = Duration::from_millis(40);
    const SLOTS: usize = 3;
    const MAX_DETACHED: usize = 2;

    fn config(cap: u32) -> SupervisorConfig {
        SupervisorConfig {
            heartbeat: Duration::from_millis(20),
            grace: GRACE,
            max_redeliveries: cap,
            max_detached: MAX_DETACHED,
        }
    }

    fn worker_report(name: &str) -> TaskReport {
        TaskReport {
            state: TaskState::Succeeded,
            output: Some("ok".to_owned()),
            attempts: 1,
            ..TaskReport::dropped_by_scheduler(name.to_owned())
        }
    }

    /// A lease as the model expects it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Held {
        owner: Owner,
        granted: Instant,
        deadline: Option<Instant>,
        /// The last attempt its owner announced.
        attempt: u32,
    }

    /// What the model independently expects of one job.
    #[derive(Default)]
    struct Shadow {
        timeout: Option<Duration>,
        delivery: u32,
        /// The `delivery:<n>:<cause>` trail.
        events: Vec<String>,
        lease: Option<Held>,
        /// Reports delivered plus discards: must end at exactly one.
        outcomes: u32,
    }

    /// A dead letter the current input must deliver.
    struct Due {
        attempts: u32,
        state: TaskState,
        detached: bool,
    }

    /// What one input made the core ask of its driver.
    #[derive(Default)]
    struct Drained {
        retired: Vec<Owner>,
        spawned: Vec<(usize, u64)>,
        delivered: usize,
        events: usize,
    }

    /// Drives a [`Coordinator`] through a seeded interleaving under a
    /// hand-advanced clock, playing a driver that carries out every
    /// effect, and checks the supervision contract after every step:
    /// the table inside the core must match a shadow kept without it.
    struct Model {
        seed: u64,
        rng: u64,
        cap: u32,
        workers: Workers,
        coord: Coordinator<JobId>,
        effects: Vec<Effect<JobId>>,
        now: Instant,
        next_job: JobId,
        jobs: BTreeMap<JobId, Shadow>,
        /// The order grants must follow: unsettled, unleased jobs,
        /// oldest submit / redelivery / resend first.
        queue: VecDeque<JobId>,
        due: BTreeMap<JobId, Due>,
        /// Each slot's generation as last seen.
        generations: Vec<u64>,
        /// The largest generation any spawn carried.
        spawned: u64,
        /// Retired owners the driver has not reaped yet.
        retiring: Vec<Owner>,
        /// Deliveries started and not yet reported; stale ones stay
        /// in, like stragglers do.
        executions: Vec<(JobId, Owner, u32)>,
        ops: Vec<String>,
    }

    impl Model {
        fn new(seed: u64, cap: u32, processes: bool) -> Model {
            let workers = if processes {
                Workers::Processes {
                    unreachable: Duration::from_millis(400),
                }
            } else {
                Workers::Threads
            };
            let now = Instant::now();
            let mut effects = Vec::new();
            let coord = Coordinator::new(config(cap), workers, SLOTS, now, &mut effects);
            let mut model = Model {
                seed,
                rng: seed,
                cap,
                workers,
                coord,
                effects,
                now,
                next_job: 0,
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                due: BTreeMap::new(),
                generations: vec![0; SLOTS],
                spawned: 0,
                retiring: Vec::new(),
                executions: Vec::new(),
                ops: vec![format!("new {workers:?}")],
            };
            let drained = model.drain();
            model.ensure(drained.spawned.len() == SLOTS, "one spawn per slot");
            model
        }

        /// splitmix64
        fn below(&mut self, bound: u64) -> u64 {
            self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        }

        /// Less than `steps` whole 10 ms steps: deadlines and staleness
        /// windows are whole steps too, so inputs land on them exactly.
        fn some_wait(&mut self, steps: u64) -> Duration {
            Duration::from_millis(10 * self.below(steps))
        }

        fn ensure(&self, ok: bool, what: &str) {
            assert!(
                ok,
                "{what}\n  seed {} max_redeliveries {}\n  {}",
                self.seed,
                self.cap,
                self.ops.join("\n  ")
            );
        }

        fn processes(&self) -> bool {
            matches!(self.workers, Workers::Processes { .. })
        }

        /// The cause of a worker that died holding a lease.
        fn died(&self) -> Cause {
            match self.workers {
                Workers::Threads => Cause::WorkerDied,
                Workers::Processes { .. } => Cause::ProcessLost("worker-died"),
            }
        }

        /// A slot's current owner, or now and then the one before it.
        fn some_owner(&mut self) -> Owner {
            let slot = self.below(SLOTS as u64) as usize;
            let current = self.coord.owner(slot);
            if current.generation > 1 && self.below(4) == 0 {
                return Owner {
                    generation: current.generation - 1,
                    ..current
                };
            }
            current
        }

        fn some_job(&mut self) -> JobId {
            self.below(self.next_job + 1)
        }

        /// Jobs with no outcome yet, and no dead letter on its way.
        fn live(&self) -> Vec<JobId> {
            let live = self
                .jobs
                .iter()
                .filter(|(job, shadow)| shadow.outcomes == 0 && !self.due.contains_key(job));
            live.map(|(job, _)| *job).collect()
        }

        /// The job `owner` holds a lease on, by the shadow.
        fn held(&self, owner: Owner) -> Option<JobId> {
            let mut held = self
                .jobs
                .iter()
                .filter(|(_, shadow)| shadow.lease.is_some_and(|lease| lease.owner == owner));
            held.next().map(|(job, _)| *job)
        }

        /// Ends `job`'s lease, if it holds one, with its one
        /// `delivery:<n>:<cause>` event.
        fn end_lease(&mut self, job: JobId, cause: Cause) -> Option<Held> {
            let shadow = self.jobs.get_mut(&job).expect("leased job was submitted");
            let lease = shadow.lease.take()?;
            let event = format!("delivery:{}:{}", shadow.delivery, cause.label());
            shadow.events.push(event);
            Some(lease)
        }

        /// `job`'s lease ends, and the job joins the back of the queue
        /// under its next delivery when `spend`, else (a resend) under
        /// the same one.
        fn requeue(&mut self, job: JobId, cause: Cause, spend: bool) {
            self.end_lease(job, cause);
            let shadow = self.jobs.get_mut(&job).expect("requeued job was submitted");
            shadow.delivery += u32::from(spend);
            self.queue.push_back(job);
        }

        /// The input must revoke `job`'s lease for `cause`: requeued
        /// while the core is open and the budget allows, else a dead
        /// letter.
        fn revoke(&mut self, job: JobId, cause: Cause) {
            let delivery = self.jobs[&job].delivery;
            if self.coord.closed || cause == Cause::DetachedCap || delivery > self.cap {
                return self.dead_letter(job, cause);
            }
            self.requeue(job, cause, true);
        }

        /// The input must dead-letter `job`: a held lease's event
        /// first, then the state the cause table gives, with the last
        /// attempt announced.
        fn dead_letter(&mut self, job: JobId, cause: Cause) {
            let attempts = self.end_lease(job, cause).map_or(0, |lease| lease.attempt);
            let state = match cause {
                Cause::DetachedCap => TaskState::TimedOut,
                _ if self.jobs[&job].delivery > 1 => TaskState::Quarantined,
                Cause::LeaseExpired => TaskState::TimedOut,
                _ => TaskState::Failed,
            };
            let detached = self.workers == Workers::Threads
                && cause == Cause::LeaseExpired
                && state == TaskState::TimedOut;
            self.queue.retain(|&queued| queued != job);
            let due = Due {
                attempts,
                state,
                detached,
            };
            self.due.insert(job, due);
        }

        /// A report left the core: the job's first, carrying its whole
        /// delivery history and `attempts`.
        fn reported(&mut self, job: JobId, report: &TaskReport, attempts: u32) {
            self.settle(job);
            let shadow = &self.jobs[&job];
            self.ensure(shadow.outcomes == 1, "a job got a second report");
            self.ensure(report.attempts == attempts, "attempts differ");
            self.ensure(
                report.redeliveries + 1 == shadow.delivery,
                "redeliveries != delivery - 1",
            );
            self.ensure(report.redeliveries <= self.cap, "redelivered past the cap");
            self.ensure(
                report.lease_events == shadow.events,
                "lease history differs",
            );
            self.ensure(
                report.state != TaskState::Quarantined || report.redeliveries > 0,
                "quarantined without a redelivery",
            );
            self.ensure(self.coord.table.get(job).is_none(), "a settled job is live");
        }

        /// `job` left the core, with a report or dropped without one.
        fn settle(&mut self, job: JobId) {
            let shadow = self.jobs.get_mut(&job).expect("settled job was submitted");
            shadow.outcomes += 1;
            shadow.lease = None;
            self.queue.retain(|&queued| queued != job);
        }

        /// Carries out the effects of the last input as a driver would,
        /// checking each, and reports them.
        fn drain(&mut self) -> Drained {
            let mut out = Drained::default();
            for effect in std::mem::take(&mut self.effects) {
                match effect {
                    Effect::Spawn { slot, generation } => {
                        self.ensure(generation > self.spawned, "spawn generations go back");
                        self.spawned = generation;
                        out.spawned.push((slot, generation));
                    }
                    Effect::Retire(owner) => {
                        out.retired.push(owner);
                        self.retiring.push(owner);
                    }
                    Effect::Deliver(settled) => {
                        let (job, report) = (settled.payload, settled.report);
                        let attempts = if report.output.is_some() {
                            1
                        } else {
                            let due = self.due.remove(&job);
                            let expect = due.as_ref().map(|due| (due.state, due.detached));
                            self.ensure(
                                expect == Some((report.state, report.detached)),
                                "a dead letter the input does not imply, or in another state",
                            );
                            due.map_or(0, |due| due.attempts)
                        };
                        self.reported(job, &report, attempts);
                        out.delivered += 1;
                    }
                    Effect::Event(_) => {
                        self.ensure(self.processes(), "a thread driver was sent an event");
                        out.events += 1;
                    }
                }
            }
            self.ensure(
                self.due.is_empty(),
                "a dead letter the input implies is missing",
            );
            // A new worker answers at once half the time, and now and
            // then cannot start at all.
            for &(slot, generation) in &out.spawned {
                let owner = Owner { slot, generation };
                match self.below(16) {
                    0 => {
                        self.ops.push(format!("  spawn of {owner:?} fails"));
                        self.coord.reaped(owner);
                    }
                    1..=8 => {
                        self.ops.push(format!("  {owner:?} ready"));
                        self.coord.ready(owner, self.now, None, &mut self.effects);
                    }
                    _ => {}
                }
            }
            out
        }

        /// The contract that holds between any two inputs: the table
        /// inside the core is the shadow.
        fn check(&mut self) {
            for slot in 0..SLOTS {
                let generation = self.coord.slots[slot].generation;
                self.ensure(
                    generation >= self.generations[slot],
                    "a generation went back",
                );
                self.generations[slot] = generation;
            }
            let mut due = BTreeSet::new();
            for (&job, shadow) in &self.jobs {
                let record = self.coord.table.get(job);
                self.ensure(
                    (shadow.outcomes == 0) == record.is_some(),
                    "a job vanished, or outlived its report",
                );
                if let Some(record) = record {
                    self.ensure(record.delivery == shadow.delivery, "delivery differs");
                    self.ensure(record.events == shadow.events, "lease history differs");
                }
                let lease = self.coord.table.lease(job).map(|lease| Held {
                    owner: lease.owner,
                    granted: lease.granted,
                    deadline: lease.deadline,
                    attempt: lease.attempt,
                });
                self.ensure(lease == shadow.lease, "lease differs");
                let Some(lease) = lease else { continue };
                self.ensure(
                    self.coord.is_current(lease.owner),
                    "a replaced owner holds a lease",
                );
                let held = self.coord.table.held_by(lease.owner);
                self.ensure(held == [job], "an owner holds two leases");
                if lease.deadline.is_some_and(|deadline| self.now >= deadline) {
                    due.insert(job);
                }
            }
            let expired = self.coord.table.expired(self.now);
            self.ensure(
                expired.into_iter().collect::<BTreeSet<_>>() == due,
                "expired set differs",
            );
            self.ensure(
                self.coord.queued() == self.queue.len(),
                "queued() differs from the shadow queue",
            );
            let head = self.coord.head().map(|(job, _)| job);
            self.ensure(
                head == self.queue.front().copied(),
                "head is not the oldest",
            );
            for owner in &self.coord.unreaped {
                self.ensure(self.retiring.contains(owner), "unreaped but never retired");
            }
        }

        /// `owner`, which was in `phase` before the input, must have
        /// been retired (and replaced unless the core was closed or
        /// abandoned or the owner was exiting) exactly when `retires`.
        fn expect_retired(
            &self,
            owner: Owner,
            retires: bool,
            phase: Phase,
            was: (bool, bool),
            drained: &Drained,
        ) {
            let retired = drained.retired.contains(&owner);
            self.ensure(
                retired == retires,
                "lost or expired, and retired, must agree",
            );
            if !retires {
                return;
            }
            let held = self.coord.table.held_by(owner);
            self.ensure(held.is_empty(), "a retired owner kept a lease");
            let (closed, abandoned) = was;
            let refill = !closed && !abandoned && phase != Phase::Exiting;
            let spawn = drained.spawned.iter().find(|(slot, _)| *slot == owner.slot);
            self.ensure(
                spawn.is_some() == refill,
                "replaced unless closed, abandoned or exiting",
            );
            if let Some(&(_, generation)) = spawn {
                self.ensure(
                    generation > owner.generation,
                    "a replacement's generation is not larger",
                );
            }
        }

        fn was(&self) -> (bool, bool) {
            (self.coord.closed, self.coord.abandoned)
        }

        fn step(&mut self) {
            match self.below(27) {
                0..=2 => self.submit(),
                3..=7 => self.grant(),
                8 => self.report(),
                9..=12 => self.heartbeat(false),
                13 => self.heartbeat(true),
                14 | 15 => self.lose(),
                16..=18 => self.tick(),
                19..=21 => self.ready(),
                22 => self.reap(),
                23 | 24 => self.rearm(),
                25 => self.exit(),
                _ => self.shut(),
            }
            self.check();
        }

        fn submit(&mut self) {
            let timeout = match self.below(3) {
                0 => None,
                n => Some(Duration::from_millis(50 * n)),
            };
            let job = self.next_job + 1;
            self.ops.push(format!("submit {job} timeout {timeout:?}"));
            let closed = self.coord.closed;
            let got = self.coord.submit(format!("t{job}"), timeout, job, self.now);
            self.ensure(
                got == (!closed).then_some(job),
                "a closed core refuses, an open one queues under an unused id",
            );
            if got.is_some() {
                self.next_job = job;
                let shadow = Shadow {
                    timeout,
                    delivery: 1,
                    ..Shadow::default()
                };
                self.jobs.insert(job, shadow);
                self.queue.push_back(job);
            }
        }

        /// `owner` is current, ready and holds no lease, by the shadow.
        fn idle(&self, owner: Owner) -> bool {
            self.coord.is_current(owner)
                && self.coord.slots[owner.slot].phase == Phase::Ready
                && self.held(owner).is_none()
        }

        /// The head three times in four, else any id; to an idle worker
        /// half the time, as a driver grants, else to anyone.
        fn grant(&mut self) {
            let idle: Vec<Owner> = (0..SLOTS)
                .map(|slot| self.coord.owner(slot))
                .filter(|&owner| self.idle(owner))
                .collect();
            let owner = if !idle.is_empty() && self.below(2) == 0 {
                idle[self.below(idle.len() as u64) as usize]
            } else {
                self.some_owner()
            };
            let head = self.queue.front().copied();
            let job = match head {
                Some(head) if self.below(4) != 0 => head,
                _ => self.some_job(),
            };
            self.ops.push(format!("grant {job} to {owner:?}"));
            let grantable = head == Some(job) && self.idle(owner);
            let granted = self.coord.grant(job, owner, self.now, &mut self.effects);
            let delivery = granted.map(|record| record.delivery);
            self.ensure(
                delivery.is_some() == grantable,
                "a grant takes the head, to an idle worker",
            );
            let drained = self.drain();
            let Some(delivery) = delivery else {
                return self.ensure(drained.events == 0, "an event without a grant");
            };
            self.queue.pop_front();
            let shadow = self.jobs.get_mut(&job).expect("granted job was submitted");
            shadow.lease = Some(Held {
                owner,
                granted: self.now,
                deadline: shadow.timeout.map(|t| self.now + t + GRACE),
                attempt: 0,
            });
            let granted = shadow.delivery;
            self.ensure(delivery == granted, "granted another delivery");
            let events = usize::from(self.processes());
            self.ensure(drained.events == events, "one Dispatched per process grant");
            self.executions.push((job, owner, delivery));
        }

        fn report(&mut self) {
            if self.executions.is_empty() {
                return;
            }
            let at = self.below(self.executions.len() as u64) as usize;
            let (job, owner, delivery) = self.executions.swap_remove(at);
            self.ops
                .push(format!("report {job} delivery {delivery} by {owner:?}"));
            let first = self.jobs[&job].outcomes == 0;
            let report = worker_report(&format!("t{job}"));
            let won = self
                .coord
                .report(job, owner, delivery, report, self.now, &mut self.effects);
            self.ensure(won == first, "the first report wins, and only it");
            let drained = self.drain();
            self.ensure(
                drained.delivered == usize::from(won),
                "a winner is delivered once",
            );
            let events = usize::from(won && self.processes());
            self.ensure(
                drained.events == events,
                "one Acked per accepted process report",
            );
        }

        /// A busy or idle heartbeat. A `late` one comes from a lease
        /// holder, busy with nothing, once the clock has passed its
        /// staleness window with no tick in between: what a driver
        /// sees when beats arrive between supervisor ticks.
        fn heartbeat(&mut self, late: bool) {
            let stale_after = self.coord.stale_after();
            let (owner, busy) = if late {
                let holders: Vec<Held> = self.jobs.values().filter_map(|s| s.lease).collect();
                if holders.is_empty() {
                    return;
                }
                let lease = holders[self.below(holders.len() as u64) as usize];
                let window = lease.granted + stale_after.unwrap_or_default();
                let advance = window.saturating_duration_since(self.now) + self.some_wait(3);
                self.now += advance;
                self.ops.push(format!("advance {advance:?}"));
                (lease.owner, 0)
            } else {
                let owner = self.some_owner();
                let busy = match self.below(3) {
                    0 => 0,
                    1 => self.held(owner).unwrap_or(0),
                    _ => self.some_job(),
                };
                (owner, busy)
            };
            self.ops.push(format!("heartbeat {owner:?} busy {busy}"));
            let current = self.coord.is_current(owner);
            let lost = self.held(owner).filter(|&job| {
                let granted = self.jobs[&job].lease.expect("held").granted;
                let silent = self.now.saturating_duration_since(granted);
                current && job != busy && stale_after.is_some_and(|after| silent >= after)
            });
            let resent = self.coord.heartbeat(owner, busy, self.now);
            self.ensure(
                resent == lost.is_some(),
                "resends exactly the lost dispatch",
            );
            if let Some(job) = lost {
                self.requeue(job, Cause::DispatchLost, false);
            }
        }

        fn lose(&mut self) {
            let owner = self.some_owner();
            let loss = [Loss::Died, Loss::TornFrame, Loss::Connection][self.below(3) as usize];
            self.ops.push(format!("lost {owner:?} {loss:?}"));
            let phase = self.coord.slots[owner.slot].phase;
            let current = self.coord.is_current(owner);
            let was = self.was();
            let retires = current && phase != Phase::Gone && loss != Loss::Connection;
            if let Some(job) = self.held(owner).filter(|_| retires) {
                let cause = match loss {
                    Loss::TornFrame => Cause::ProcessLost("torn-frame"),
                    _ => self.died(),
                };
                self.revoke(job, cause);
            }
            self.coord.lost(owner, loss, self.now, &mut self.effects);
            let drained = self.drain();
            self.expect_retired(owner, retires, phase, was, &drained);
            if loss == Loss::Connection {
                let unreachable = current && phase == Phase::Ready;
                let now = self.coord.slots[owner.slot].phase;
                self.ensure(
                    now == if unreachable { Phase::Starting } else { phase },
                    "connection",
                );
            }
        }

        fn tick(&mut self) {
            let advance = self.some_wait(15);
            self.now += advance;
            let mut exited = Vec::new();
            for slot in 0..SLOTS {
                if self.coord.slots[slot].phase != Phase::Gone && self.below(8) == 0 {
                    exited.push(self.coord.owner(slot));
                }
            }
            self.ops
                .push(format!("tick +{advance:?}, exited {exited:?}"));
            // What each slot must see, in slot order: the retired-alive
            // count grows as the tick goes, and requeued jobs join the
            // queue in that order.
            let (closed, abandoned) = self.was();
            let stale_after = self.coord.stale_after();
            let mut unreaped = self.coord.unreaped.len();
            let mut expect = Vec::new();
            for slot in 0..SLOTS {
                let owner = self.coord.owner(slot);
                let phase = self.coord.slots[slot].phase;
                let held = self.held(owner);
                let lease = held.and_then(|job| self.jobs[&job].lease);
                let deadline = lease.and_then(|lease| lease.deadline);
                let expired = phase == Phase::Ready && deadline.is_some_and(|d| self.now >= d);
                let silent = self
                    .now
                    .saturating_duration_since(self.coord.slots[slot].last_seen);
                let stale = phase == Phase::Ready && stale_after.is_some_and(|a| silent >= a);
                let capped = !self.processes() && unreaped >= MAX_DETACHED;
                let exits = exited.contains(&owner);
                let (retires, cause) = if exits {
                    (true, self.died())
                } else if expired && !closed && capped {
                    (false, Cause::DetachedCap)
                } else if expired {
                    (!closed, Cause::LeaseExpired)
                } else {
                    (stale, Cause::ProcessLost("heartbeat-lost"))
                };
                if retires && !exits {
                    unreaped += 1;
                }
                if let Some(job) = held.filter(|_| exits || expired || stale) {
                    self.revoke(job, cause);
                }
                expect.push((owner, retires, phase));
            }
            let failed = self.coord.tick(self.now, &exited, &mut self.effects);
            let gone = self.coord.slots.iter().all(|s| s.phase == Phase::Gone);
            let no_workers = self.processes() && !abandoned && gone && !self.queue.is_empty();
            self.ensure(
                no_workers == (failed == Some(Cause::NoWorkers)),
                "no-workers fails all exactly when work waits and every slot is gone",
            );
            if let Some(cause) = failed {
                self.ensure(
                    self.processes() && !abandoned,
                    "only a live process core fails all",
                );
                for job in self.live() {
                    self.dead_letter(job, cause);
                }
            }
            let drained = self.drain();
            for (owner, retires, phase) in expect {
                self.expect_retired(owner, retires, phase, (closed, abandoned), &drained);
            }
        }

        fn ready(&mut self) {
            let owner = self.some_owner();
            let resumed = (self.below(3) == 0).then_some(7);
            self.ops
                .push(format!("ready {owner:?} resumed {resumed:?}"));
            let phase = self.coord.slots[owner.slot].phase;
            let takes =
                self.coord.is_current(owner) && matches!(phase, Phase::Starting | Phase::Ready);
            let held = self.coord.table.held_by(owner).len();
            self.coord
                .ready(owner, self.now, resumed, &mut self.effects);
            let drained = self.drain();
            let after = self.coord.slots[owner.slot].phase;
            self.ensure(after == if takes { Phase::Ready } else { phase }, "ready");
            let events = if takes && resumed.is_some() && self.processes() {
                held
            } else {
                0
            };
            self.ensure(
                drained.events == events,
                "one Reconnected per lease kept on resume",
            );
        }

        fn reap(&mut self) {
            if self.retiring.is_empty() {
                return;
            }
            let at = self.below(self.retiring.len() as u64) as usize;
            let owner = self.retiring.swap_remove(at);
            self.ops.push(format!("reaped {owner:?}"));
            self.coord.reaped(owner);
            self.ensure(
                !self.coord.unreaped.contains(&owner),
                "a reaped owner is still unreaped",
            );
        }

        /// A started delivery's owner, or anyone, announces attempt
        /// 1–5: only the current owner of a held lease moves its
        /// deadline and records the attempt.
        fn rearm(&mut self) {
            if self.executions.is_empty() {
                return;
            }
            let at = self.below(self.executions.len() as u64) as usize;
            let (job, mut owner, _) = self.executions[at];
            if self.below(3) == 0 {
                owner = self.some_owner();
            }
            let attempt = self.below(5) as u32 + 1;
            let start = self.now + self.some_wait(8);
            self.ops.push(format!(
                "rearm {job} by {owner:?} attempt {attempt} start +{:?}",
                start - self.now
            ));
            self.coord.rearm(job, owner, attempt, start);
            let shadow = self.jobs.get_mut(&job).expect("started job was submitted");
            if let Some(lease) = shadow.lease.as_mut().filter(|lease| lease.owner == owner) {
                lease.deadline = shadow.timeout.map(|t| start + t + GRACE);
                lease.attempt = attempt;
            }
        }

        fn exit(&mut self) {
            if self.below(4) != 0 {
                return;
            }
            let owner = self.some_owner();
            self.ops.push(format!("exiting {owner:?}"));
            let phase = self.coord.slots[owner.slot].phase;
            let takes =
                self.coord.is_current(owner) && matches!(phase, Phase::Starting | Phase::Ready);
            self.coord.exiting(owner);
            let after = self.coord.slots[owner.slot].phase;
            self.ensure(
                after == if takes { Phase::Exiting } else { phase },
                "exiting",
            );
        }

        /// Rare, or nothing else would ever get far.
        fn shut(&mut self) {
            if self.below(12) != 0 {
                return;
            }
            let queued: Vec<JobId> = self.queue.iter().copied().collect();
            let forgotten = match self.below(3) {
                0 => {
                    self.ops.push("abandon".to_owned());
                    let dropped = self.coord.abandon();
                    let exiting = self
                        .coord
                        .slots
                        .iter()
                        .all(|s| matches!(s.phase, Phase::Exiting | Phase::Gone));
                    self.ensure(exiting, "an abandoned core left a worker running");
                    self.ensure(dropped == queued.len(), "abandon counts the queued");
                    self.live()
                }
                n => {
                    let discard = n == 1;
                    self.ops.push(format!("close, discarding queued {discard}"));
                    let dropped = self.coord.close(discard);
                    let expect = if discard { queued.len() } else { 0 };
                    self.ensure(dropped == expect, "close discards the queued, if asked");
                    if discard {
                        queued
                    } else {
                        Vec::new()
                    }
                }
            };
            forgotten.into_iter().for_each(|job| self.settle(job));
        }

        /// Stragglers report, then the rest is abandoned: every job
        /// must end with exactly one outcome.
        fn finish(&mut self) {
            while let Some((job, owner, delivery)) = self.executions.pop() {
                let report = worker_report(&format!("t{job}"));
                self.coord
                    .report(job, owner, delivery, report, self.now, &mut self.effects);
                self.drain();
            }
            self.ops.push("finish: abandon".to_owned());
            let dropped = self.coord.abandon();
            self.ensure(dropped == self.queue.len(), "abandon counts the queued");
            self.live().into_iter().for_each(|job| self.settle(job));
            let once = self.jobs.values().all(|shadow| shadow.outcomes == 1);
            self.ensure(once, "a job ended without exactly one outcome");
            self.check();
        }
    }

    proptest! {
        /// Random interleavings of submit / grant (head and any other
        /// id, current and replaced owner) / report (current and stale)
        /// / busy, idle and late heartbeats / each loss / ticks with
        /// exits, expiries and silence / re-arm (owner and stale) /
        /// ready / reaped / exiting / close / abandon, for threads and
        /// for processes: one outcome per job, grants in one FIFO, the
        /// exact lease, delivery number and event trail of every job
        /// after every input, dead letters in the state their cause
        /// gives, budget-free resends, and every lost or expired owner
        /// retired and replaced.
        #[test]
        fn interleavings_keep_the_supervision_contract(
            seed in any::<u64>(),
            cap in 0u32..4,
            processes in any::<bool>(),
        ) {
            let mut model = Model::new(seed, cap, processes);
            for _ in 0..150 {
                model.step();
            }
            model.finish();
        }
    }
}
