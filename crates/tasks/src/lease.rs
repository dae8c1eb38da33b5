//! The delivery contract, written once: a pure lease state machine.
//!
//! [`LeaseTable`] owns everything the broker (threads) and the remote
//! coordinator (processes) promise about a submitted job:
//!
//! * a job has one identity ([`JobId`]) and settles **exactly once** —
//!   whoever reports first wins, and a settled job leaves the table so
//!   no later report, revocation or queued delivery can produce a
//!   second one;
//! * jobs awaiting a grant wait in **one FIFO**: a submit, a
//!   redelivery and a resend each join the back, and only the head of
//!   the queue can be granted, so the oldest waiting job runs next;
//! * deliveries are numbered from 1; a *grant* leases the current
//!   delivery to an [`Owner`] until `timeout + grace`, and the owner
//!   *re-arms* that deadline as it starts each further attempt, so the
//!   timeout bounds an attempt, not the delivery;
//! * a *revoked* lease appends one `delivery:<n>:<cause>` event and is
//!   redelivered (`n + 1`) while the redelivery cap allows, otherwise
//!   dead-lettered with the single cause → ([`TaskState`], error text)
//!   classification below;
//! * a *resend* re-queues a dispatch that never arrived under the
//!   **same** delivery number, spending no budget.
//!
//! The table does no I/O, spawns nothing, and never reads a clock —
//! every operation that needs the time takes `now`. Worker lifecycles
//! (detach/respawn, spawn/kill) are decided by the coordinator core
//! (`coord.rs`), which owns this table; the drivers carry out only the
//! I/O those decisions need (threads, processes, frames, metrics).
//!
//! One seeded model test checks this contract: `coord.rs`'s
//! `interleavings_keep_the_supervision_contract` drives the core that
//! owns the table and holds every job's lease, delivery number, event
//! trail and queue position to a shadow after each input. The examples
//! here pin each cause's exact dead-letter message.

use crate::supervise::SupervisorConfig;
use crate::task::{TaskReport, TaskState};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Scheduler-unique job identity (never reused).
pub(crate) type JobId = u64;

/// A lease holder: a position in the worker pool plus the generation
/// occupying it, so a replacement is never mistaken for the worker it
/// replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Owner {
    pub(crate) slot: usize,
    pub(crate) generation: u64,
}

/// Why a lease was revoked (or a job failed outright). The label is
/// the `<cause>` of the `delivery:<n>:<cause>` event grammar; data a
/// dead-letter message needs rides along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cause {
    /// The lease outlived `timeout + grace`.
    LeaseExpired,
    /// The lease expired but the broker may not detach another thread.
    DetachedCap,
    /// A broker worker thread died holding the lease.
    WorkerDied,
    /// A worker process was lost; the label says how (`worker-died`,
    /// `heartbeat-lost`, `torn-frame`).
    ProcessLost(&'static str),
    /// The dispatch frame never reached the worker.
    DispatchLost,
    /// No worker process could be started at all.
    NoWorkers,
    /// No worker was reachable for this long.
    WorkersUnreachable(Duration),
}

impl Cause {
    pub(crate) fn label(self) -> &'static str {
        match self {
            Cause::LeaseExpired => "lease-expired",
            Cause::DetachedCap => "detached-cap",
            Cause::WorkerDied => "worker-died",
            Cause::ProcessLost(how) => how,
            Cause::DispatchLost => "dispatch-lost",
            Cause::NoWorkers => "no-workers",
            Cause::WorkersUnreachable(_) => "workers-unreachable",
        }
    }
}

/// A live (unsettled) job. Handed out by shared reference only; the
/// table alone mutates it.
pub(crate) struct Job<P> {
    /// What the driver needs to run and report the job.
    pub(crate) payload: P,
    pub(crate) name: String,
    pub(crate) timeout: Option<Duration>,
    /// 1-based number of the current delivery.
    pub(crate) delivery: u32,
    /// The `delivery:<n>:<cause>` trail so far.
    pub(crate) events: Vec<String>,
    pub(crate) submitted: Instant,
}

/// An in-flight delivery.
pub(crate) struct Lease {
    pub(crate) owner: Owner,
    pub(crate) granted: Instant,
    /// `None` for jobs without a timeout: recovered only when their
    /// owner is lost.
    pub(crate) deadline: Option<Instant>,
    /// The last attempt the owner announced ([`LeaseTable::rearm`]);
    /// `0` until it announces one. A dead letter reports it.
    pub(crate) attempt: u32,
}

/// A job leaving the table with its single report.
pub(crate) struct Settled<P> {
    pub(crate) job: JobId,
    pub(crate) payload: P,
    pub(crate) report: TaskReport,
}

/// What revoking a lease led to.
pub(crate) enum Revoked<P> {
    /// The job awaits its next delivery at the back of the queue.
    Requeued,
    /// The cap is spent: deliver this terminal report.
    DeadLettered(Settled<P>),
}

pub(crate) struct LeaseTable<P> {
    config: SupervisorConfig,
    jobs: BTreeMap<JobId, Job<P>>,
    leases: BTreeMap<JobId, Lease>,
    /// Jobs awaiting a grant, oldest first. Every unsettled, unleased
    /// job is in it exactly once; a job that settles while queued (a
    /// straggler's report) leaves its id behind, and [`Self::head`]
    /// drops such ids when it meets them.
    queue: VecDeque<JobId>,
    next_job: JobId,
}

impl<P> LeaseTable<P> {
    pub(crate) fn new(config: SupervisorConfig) -> LeaseTable<P> {
        LeaseTable {
            config,
            jobs: BTreeMap::new(),
            leases: BTreeMap::new(),
            queue: VecDeque::new(),
            next_job: 0,
        }
    }

    /// Registers a job and queues its first delivery.
    pub(crate) fn submit(
        &mut self,
        name: String,
        timeout: Option<Duration>,
        payload: P,
        now: Instant,
    ) -> JobId {
        self.next_job += 1;
        self.jobs.insert(
            self.next_job,
            Job {
                payload,
                name,
                timeout,
                delivery: 1,
                events: Vec::new(),
                submitted: now,
            },
        );
        self.queue.push_back(self.next_job);
        self.next_job
    }

    /// The job, while it is unsettled.
    pub(crate) fn get(&self, job: JobId) -> Option<&Job<P>> {
        self.jobs.get(&job)
    }

    /// The job's lease, while it is in flight.
    pub(crate) fn lease(&self, job: JobId) -> Option<&Lease> {
        self.leases.get(&job)
    }

    /// No unsettled job remains.
    pub(crate) fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Jobs currently leased.
    pub(crate) fn in_flight(&self) -> usize {
        self.leases.len()
    }

    /// Jobs awaiting a grant.
    pub(crate) fn queued(&self) -> usize {
        self.jobs.len() - self.leases.len()
    }

    /// The oldest job awaiting a grant, after dropping the ids of jobs
    /// that settled while queued.
    pub(crate) fn head(&mut self) -> Option<(JobId, &Job<P>)> {
        while let Some(&job) = self.queue.front() {
            if let Some(record) = self.jobs.get(&job) {
                return Some((job, record));
            }
            self.queue.pop_front();
        }
        None
    }

    /// Takes the head of the queue, leases its current delivery to
    /// `owner` and returns the job to deliver. `None` unless `job` is
    /// the [head](Self::head).
    pub(crate) fn grant(&mut self, job: JobId, owner: Owner, now: Instant) -> Option<&Job<P>> {
        if self.head()?.0 != job {
            return None;
        }
        self.queue.pop_front();
        let record = &self.jobs[&job];
        let deadline = record.timeout.map(|t| now + t + self.config.grace);
        self.leases.insert(
            job,
            Lease {
                owner,
                granted: now,
                deadline,
                attempt: 0,
            },
        );
        Some(record)
    }

    /// `owner` announces attempt `attempt` of its leased job, due to
    /// start at `start` (now, or when a backoff sleep ends): the
    /// deadline moves to `start + timeout + grace`. A no-op unless
    /// `owner` still holds the job's lease.
    pub(crate) fn rearm(&mut self, job: JobId, owner: Owner, attempt: u32, start: Instant) {
        if let Some(lease) = self.leases.get_mut(&job).filter(|l| l.owner == owner) {
            let timeout = self.jobs.get(&job).and_then(|record| record.timeout);
            lease.deadline = timeout.map(|t| start + t + self.config.grace);
            lease.attempt = attempt;
        }
    }

    /// Settles the job with a worker's report, stamped with the
    /// delivery history. `None` when the job already settled — the
    /// late report is discarded (first report wins).
    pub(crate) fn complete(&mut self, job: JobId, mut report: TaskReport) -> Option<Settled<P>> {
        let record = self.jobs.remove(&job)?;
        self.leases.remove(&job);
        report.redeliveries = record.delivery - 1;
        report.lease_events = record.events;
        Some(Settled {
            job,
            payload: record.payload,
            report,
        })
    }

    /// Leases past their deadline at `now`, oldest job first.
    pub(crate) fn expired(&self, now: Instant) -> Vec<JobId> {
        self.leases
            .iter()
            .filter(|(_, lease)| lease.deadline.is_some_and(|deadline| now >= deadline))
            .map(|(job, _)| *job)
            .collect()
    }

    /// Jobs leased to `owner`, oldest first.
    pub(crate) fn held_by(&self, owner: Owner) -> Vec<JobId> {
        self.leases
            .iter()
            .filter(|(_, lease)| lease.owner == owner)
            .map(|(job, _)| *job)
            .collect()
    }

    /// Revokes the job's lease: records the event, then queues the
    /// next delivery if the cap allows, else dead-letters. `None` when
    /// the job holds no lease (already settled, or waiting in the
    /// queue).
    pub(crate) fn revoke(&mut self, job: JobId, cause: Cause, now: Instant) -> Option<Revoked<P>> {
        let record = self.leases.get(&job).and(self.jobs.get_mut(&job))?;
        if record.delivery > self.config.max_redeliveries {
            return self.fail(job, cause, now).map(Revoked::DeadLettered);
        }
        self.leases.remove(&job);
        record.events.push(event(record.delivery, cause));
        record.delivery += 1;
        self.queue.push_back(job);
        Some(Revoked::Requeued)
    }

    /// Re-queues a delivery that never reached its worker: the lease
    /// is dropped and the event recorded, but the delivery number (and
    /// so the redelivery budget) is untouched. `false` when the job
    /// holds no lease.
    pub(crate) fn resend(&mut self, job: JobId, cause: Cause) -> bool {
        let Some(record) = self.leases.remove(&job).and(self.jobs.get_mut(&job)) else {
            return false;
        };
        record.events.push(event(record.delivery, cause));
        self.queue.push_back(job);
        true
    }

    /// Dead-letters the job now, whatever budget remains. A held lease
    /// is revoked (and the event recorded) first.
    pub(crate) fn fail(&mut self, job: JobId, cause: Cause, now: Instant) -> Option<Settled<P>> {
        let mut record = self.jobs.remove(&job)?;
        let lease = self.leases.remove(&job);
        if lease.is_some() {
            record.events.push(event(record.delivery, cause));
        }
        let (state, error) = self.classify(&record, cause);
        Some(Settled {
            job,
            payload: record.payload,
            report: TaskReport {
                name: record.name,
                state,
                output: None,
                error: Some(error),
                attempts: lease.map_or(0, |lease| lease.attempt),
                duration: now.saturating_duration_since(record.submitted),
                detached: false,
                history: Vec::new(),
                redeliveries: record.delivery - 1,
                lease_events: record.events,
            },
        })
    }

    /// [`LeaseTable::fail`] for every unsettled job, oldest first;
    /// empties the queue.
    pub(crate) fn fail_all(&mut self, cause: Cause, now: Instant) -> Vec<Settled<P>> {
        self.queue.clear();
        let jobs: Vec<JobId> = self.jobs.keys().copied().collect();
        jobs.into_iter()
            .filter_map(|job| self.fail(job, cause, now))
            .collect()
    }

    /// Forgets every queued job without a report (the scheduler is
    /// dropping them, and their payloads with them) and empties the
    /// queue. Returns how many jobs it dropped.
    pub(crate) fn discard_queued(&mut self) -> usize {
        let queue = std::mem::take(&mut self.queue);
        let dropped = queue
            .into_iter()
            .filter(|job| self.jobs.remove(job).is_some());
        dropped.count()
    }

    /// Forgets every unsettled job, queued or in flight, without a
    /// report. Returns how many of them were queued.
    pub(crate) fn discard_all(&mut self) -> usize {
        let queued = self.discard_queued();
        self.leases.clear();
        self.jobs.clear();
        queued
    }

    /// The terminal state and message for a job that cannot be
    /// delivered again.
    fn classify(&self, job: &Job<P>, cause: Cause) -> (TaskState, String) {
        let SupervisorConfig {
            grace,
            max_redeliveries,
            max_detached,
            ..
        } = self.config;
        match cause {
            Cause::DetachedCap => (
                TaskState::TimedOut,
                format!(
                    "task lease expired but the detached-worker cap ({max_detached}) is reached; \
                     failing fast without redelivery"
                ),
            ),
            _ if job.delivery > 1 => (
                TaskState::Quarantined,
                format!(
                    "task quarantined: redelivery cap ({max_redeliveries}) exhausted after {} \
                     deliveries (last cause: {})",
                    job.delivery,
                    cause.label()
                ),
            ),
            Cause::LeaseExpired => (
                TaskState::TimedOut,
                format!(
                    "task lease expired (timeout {:?} + grace {grace:?}); no redeliveries allowed",
                    job.timeout
                ),
            ),
            Cause::WorkerDied => (
                TaskState::Failed,
                "worker died holding the task lease; no redeliveries allowed".to_owned(),
            ),
            Cause::NoWorkers => (
                TaskState::Failed,
                "no live worker processes remain; task cannot be delivered".to_owned(),
            ),
            Cause::WorkersUnreachable(deadline) => (
                TaskState::Failed,
                format!(
                    "no remote worker reachable past the unreachable deadline ({deadline:?}); \
                     the coordinator degraded loudly instead of hanging"
                ),
            ),
            Cause::ProcessLost(_) | Cause::DispatchLost => (
                TaskState::Failed,
                format!(
                    "worker process died holding the task lease ({}); no redeliveries allowed",
                    cause.label()
                ),
            ),
        }
    }
}

fn event(delivery: u32, cause: Cause) -> String {
    format!("delivery:{delivery}:{}", cause.label())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRACE: Duration = Duration::from_millis(40);

    fn config(max_redeliveries: u32) -> SupervisorConfig {
        SupervisorConfig {
            grace: GRACE,
            max_redeliveries,
            max_detached: 7,
            ..SupervisorConfig::default()
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

    /// With no redelivery budget, each cause maps to the state and the
    /// exact message its scheduler has always produced.
    #[test]
    fn unredelivered_causes_classify_as_before() {
        let unreachable = Duration::from_millis(400);
        let cases = [
            (
                Cause::LeaseExpired,
                TaskState::TimedOut,
                "task lease expired (timeout Some(30ms) + grace 40ms); no redeliveries allowed",
            ),
            (
                Cause::DetachedCap,
                TaskState::TimedOut,
                "task lease expired but the detached-worker cap (7) is reached; \
                 failing fast without redelivery",
            ),
            (
                Cause::WorkerDied,
                TaskState::Failed,
                "worker died holding the task lease; no redeliveries allowed",
            ),
            (
                Cause::ProcessLost("worker-died"),
                TaskState::Failed,
                "worker process died holding the task lease (worker-died); \
                 no redeliveries allowed",
            ),
            (
                Cause::ProcessLost("heartbeat-lost"),
                TaskState::Failed,
                "worker process died holding the task lease (heartbeat-lost); \
                 no redeliveries allowed",
            ),
            (
                Cause::ProcessLost("torn-frame"),
                TaskState::Failed,
                "worker process died holding the task lease (torn-frame); \
                 no redeliveries allowed",
            ),
            (
                Cause::NoWorkers,
                TaskState::Failed,
                "no live worker processes remain; task cannot be delivered",
            ),
            (
                Cause::WorkersUnreachable(unreachable),
                TaskState::Failed,
                "no remote worker reachable past the unreachable deadline (400ms); \
                 the coordinator degraded loudly instead of hanging",
            ),
        ];
        let now = Instant::now();
        let owner = Owner {
            slot: 0,
            generation: 1,
        };
        for (cause, state, error) in cases {
            let mut table = LeaseTable::new(config(0));
            let timeout = Some(Duration::from_millis(30));
            let job = table.submit("t".to_owned(), timeout, (), now);
            assert!(table.grant(job, owner, now).is_some());
            let later = now + Duration::from_millis(75);
            let Some(Revoked::DeadLettered(settled)) = table.revoke(job, cause, later) else {
                panic!("{cause:?}: no budget, so the revocation must dead-letter");
            };
            let report = settled.report;
            assert_eq!(report.state, state, "{cause:?}");
            assert_eq!(report.error.as_deref(), Some(error), "{cause:?}");
            assert_eq!(
                report.lease_events,
                [format!("delivery:1:{}", cause.label())]
            );
            assert_eq!((report.attempts, report.redeliveries), (0, 0));
            assert_eq!(report.duration, Duration::from_millis(75));
            assert!(table.is_empty());
        }
    }

    /// The cap is spent one delivery at a time, then the job is
    /// quarantined with the whole trail.
    #[test]
    fn exhausted_cap_quarantines_with_history() {
        let mut table = LeaseTable::new(config(1));
        let now = Instant::now();
        let owner = Owner {
            slot: 2,
            generation: 5,
        };
        let job = table.submit("t".to_owned(), None, (), now);
        assert!(table.expired(now + Duration::from_secs(3600)).is_empty());
        table.grant(job, owner, now);
        assert!(matches!(
            table.revoke(job, Cause::WorkerDied, now),
            Some(Revoked::Requeued)
        ));
        assert!(
            table.revoke(job, Cause::WorkerDied, now).is_none(),
            "not leased"
        );
        assert_eq!(
            table.grant(job, owner, now).map(|job| job.delivery),
            Some(2)
        );
        let Some(Revoked::DeadLettered(settled)) = table.revoke(job, Cause::LeaseExpired, now)
        else {
            panic!("second revocation exhausts a cap of one");
        };
        assert_eq!(settled.report.state, TaskState::Quarantined);
        assert_eq!(
            settled.report.error.as_deref(),
            Some(
                "task quarantined: redelivery cap (1) exhausted after 2 deliveries \
                 (last cause: lease-expired)"
            )
        );
        assert_eq!(
            settled.report.lease_events,
            ["delivery:1:worker-died", "delivery:2:lease-expired"]
        );
        assert_eq!(settled.report.redeliveries, 1);
    }

    /// The remote coordinator's `no-workers` fast-fail: every queued
    /// job is reported `Failed` exactly once, with no lease event.
    #[test]
    fn fail_all_reports_every_pending_job_once() {
        let mut table = LeaseTable::new(config(3));
        let now = Instant::now();
        let jobs: Vec<JobId> = (0..5)
            .map(|i| table.submit(format!("t{i}"), None, (), now))
            .collect();
        let settled = table.fail_all(Cause::NoWorkers, now);
        assert_eq!(settled.len(), jobs.len());
        for (i, settled) in settled.iter().enumerate() {
            assert_eq!(settled.report.name, format!("t{i}"));
            assert_eq!(settled.report.state, TaskState::Failed);
            assert!(settled.report.lease_events.is_empty());
        }
        assert!(table.is_empty());
        assert!(
            table.fail_all(Cause::NoWorkers, now).is_empty(),
            "only once"
        );
        for job in jobs {
            assert!(table.complete(job, worker_report("late")).is_none());
        }
    }
}
