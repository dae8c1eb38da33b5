//! Deterministic fault injection for exercising retry and recovery
//! paths.
//!
//! A [`FaultInjector`] is attached to tasks (see
//! [`Task::fault_injector`](crate::Task::fault_injector)) and consulted
//! once per attempt. Whether a fault fires — and which kind — is a pure
//! function of `(seed, task name, attempt)`, so a failing campaign can
//! be replayed exactly: same seed, same faults, same attempt histories.
//!
//! Three fault kinds cover the failure modes the schedulers must
//! survive: panics (caught and converted to task failures), spurious
//! errors (retried under the task's [`RetryPolicy`](crate::RetryPolicy)),
//! and injected delays (which push slow tasks into their deadlines).
//!
//! A second family of *worker* faults ([`Fault::WorkerStall`] and
//! [`Fault::WorkerKill`]) models the execution environment rather than
//! the task payload: a stalled or killed worker thread. These are drawn
//! from a separate deterministic stream keyed by `(seed, task name,
//! delivery)` so enabling them never perturbs the per-attempt fault
//! plan, and they are only interpreted by the broker's supervision
//! layer ([`BrokerScheduler`](crate::BrokerScheduler)).

use simart_codec::fnv1a;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A single injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The attempt panics (callers catch it and report a failure).
    Panic,
    /// The attempt returns an error without running the real work.
    SpuriousError,
    /// The attempt is delayed before the real work runs.
    Delay(Duration),
    /// The worker thread stalls for the given duration while holding
    /// its task lease (the task itself is untouched).
    WorkerStall(Duration),
    /// The worker thread dies abruptly while holding its task lease,
    /// as if SIGKILLed; the lease dangles until a supervisor recovers
    /// it.
    WorkerKill,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Panic => f.write_str("panic"),
            Fault::SpuriousError => f.write_str("spurious error"),
            Fault::Delay(d) => write!(f, "delay({d:?})"),
            Fault::WorkerStall(d) => write!(f, "worker-stall({d:?})"),
            Fault::WorkerKill => f.write_str("worker-kill"),
        }
    }
}

/// A single injected network fault, applied per frame by the chaos
/// transport wrapper (`transport::ChaosTransport`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The frame is delayed in flight by the given duration.
    Latency(Duration),
    /// One byte of the frame is flipped in flight (the CRC layer
    /// detects it and the connection is dropped).
    Corrupt,
    /// The frame is silently dropped — a one-way partition: the sender
    /// believes it went out, the receiver never sees it, and only
    /// heartbeat loss reveals the split.
    Partition,
    /// The connection is severed after the frame is dropped, as if the
    /// peer's host reset the TCP stream; reconnecting transports dial
    /// back in with backoff.
    Reset,
}

impl fmt::Display for NetFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetFault::Latency(d) => write!(f, "net-latency({d:?})"),
            NetFault::Corrupt => f.write_str("net-corrupt"),
            NetFault::Partition => f.write_str("net-partition"),
            NetFault::Reset => f.write_str("net-reset"),
        }
    }
}

/// Deterministic, seeded fault injector.
///
/// Rates are probabilities in [0, 1] per attempt; they are evaluated in
/// the order panic → error → delay from a single uniform draw, so the
/// combined rate is their sum (clamped at 1).
pub struct FaultInjector {
    seed: u64,
    panic_rate: f64,
    error_rate: f64,
    delay_rate: f64,
    max_delay: Duration,
    stall_rate: f64,
    max_stall: Duration,
    kill_rate: f64,
    kill_limit: u64,
    net_latency_rate: f64,
    max_net_latency: Duration,
    net_corrupt_rate: f64,
    net_partition_rate: f64,
    net_reset_rate: f64,
    injected_panics: AtomicU64,
    injected_errors: AtomicU64,
    injected_delays: AtomicU64,
    injected_stalls: AtomicU64,
    injected_kills: AtomicU64,
    injected_latencies: AtomicU64,
    injected_corruptions: AtomicU64,
    injected_partitions: AtomicU64,
    injected_resets: AtomicU64,
}

impl FaultInjector {
    /// An injector that never fires; enable fault kinds with the
    /// builder methods.
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            seed,
            panic_rate: 0.0,
            error_rate: 0.0,
            delay_rate: 0.0,
            max_delay: Duration::ZERO,
            stall_rate: 0.0,
            max_stall: Duration::ZERO,
            kill_rate: 0.0,
            kill_limit: u64::MAX,
            net_latency_rate: 0.0,
            max_net_latency: Duration::ZERO,
            net_corrupt_rate: 0.0,
            net_partition_rate: 0.0,
            net_reset_rate: 0.0,
            injected_panics: AtomicU64::new(0),
            injected_errors: AtomicU64::new(0),
            injected_delays: AtomicU64::new(0),
            injected_stalls: AtomicU64::new(0),
            injected_kills: AtomicU64::new(0),
            injected_latencies: AtomicU64::new(0),
            injected_corruptions: AtomicU64::new(0),
            injected_partitions: AtomicU64::new(0),
            injected_resets: AtomicU64::new(0),
        }
    }

    /// Panics a fraction `rate` of attempts.
    pub fn panics(mut self, rate: f64) -> FaultInjector {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Fails a fraction `rate` of attempts with a spurious error.
    pub fn errors(mut self, rate: f64) -> FaultInjector {
        self.error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Delays a fraction `rate` of attempts by up to `max_delay`.
    pub fn delays(mut self, rate: f64, max_delay: Duration) -> FaultInjector {
        self.delay_rate = rate.clamp(0.0, 1.0);
        self.max_delay = max_delay;
        self
    }

    /// Stalls a fraction `rate` of worker deliveries by up to
    /// `max_stall`.
    pub fn worker_stalls(mut self, rate: f64, max_stall: Duration) -> FaultInjector {
        self.stall_rate = rate.clamp(0.0, 1.0);
        self.max_stall = max_stall;
        self
    }

    /// Kills the worker on a fraction `rate` of deliveries.
    pub fn worker_kills(mut self, rate: f64) -> FaultInjector {
        self.kill_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Caps the total number of worker kills this injector will apply
    /// (default: unlimited). The plan ([`Self::worker_fault_for`]) is
    /// unaffected; the cap only gates [`Self::take_worker_fault`],
    /// which lets chaos tests kill a worker exactly once and then let
    /// the redelivered task succeed.
    pub fn worker_kill_limit(mut self, limit: u64) -> FaultInjector {
        self.kill_limit = limit;
        self
    }

    /// Delays a fraction `rate` of frames in flight by up to
    /// `max_latency`.
    pub fn net_latency(mut self, rate: f64, max_latency: Duration) -> FaultInjector {
        self.net_latency_rate = rate.clamp(0.0, 1.0);
        self.max_net_latency = max_latency;
        self
    }

    /// Flips a byte in a fraction `rate` of frames in flight.
    pub fn net_corruption(mut self, rate: f64) -> FaultInjector {
        self.net_corrupt_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Silently drops a fraction `rate` of frames (one-way partition).
    pub fn net_partitions(mut self, rate: f64) -> FaultInjector {
        self.net_partition_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Severs the connection on a fraction `rate` of frames.
    pub fn net_resets(mut self, rate: f64) -> FaultInjector {
        self.net_reset_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// The injector's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether any network fault kind is enabled (lets transports skip
    /// the chaos wrapper entirely when the answer is no).
    pub fn net_faults_enabled(&self) -> bool {
        self.net_latency_rate > 0.0
            || self.net_corrupt_rate > 0.0
            || self.net_partition_rate > 0.0
            || self.net_reset_rate > 0.0
    }

    /// The fault (if any) for this `(task, attempt)` pair. Pure: equal
    /// inputs on equal seeds give equal answers, and calling it does
    /// not count as an injection.
    pub fn fault_for(&self, task: &str, attempt: u32) -> Option<Fault> {
        let stream = self.seed ^ fnv1a(task.as_bytes());
        let category = unit_draw(stream, u64::from(attempt) << 1);
        let panic_edge = self.panic_rate;
        let error_edge = panic_edge + self.error_rate;
        let delay_edge = error_edge + self.delay_rate;
        if category < panic_edge {
            Some(Fault::Panic)
        } else if category < error_edge {
            Some(Fault::SpuriousError)
        } else if category < delay_edge {
            let magnitude = unit_draw(stream, (u64::from(attempt) << 1) | 1);
            Some(Fault::Delay(Duration::from_secs_f64(
                self.max_delay.as_secs_f64() * magnitude,
            )))
        } else {
            None
        }
    }

    /// Applies the fault for this attempt, if any: sleeps on a delay,
    /// returns `Err` on a spurious error, and panics on a panic fault.
    /// Injections are counted in the observability counters.
    pub fn inject(&self, task: &str, attempt: u32) -> Result<(), String> {
        match self.fault_for(task, attempt) {
            None => Ok(()),
            Some(Fault::Delay(delay)) => {
                self.injected_delays.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(delay);
                Ok(())
            }
            Some(Fault::SpuriousError) => {
                self.injected_errors.fetch_add(1, Ordering::SeqCst);
                Err(format!(
                    "injected fault: spurious error ({task} attempt {attempt})"
                ))
            }
            Some(Fault::Panic) => {
                self.injected_panics.fetch_add(1, Ordering::SeqCst);
                panic!("injected fault: panic ({task} attempt {attempt})");
            }
            // Worker faults come only from `worker_fault_for` / the
            // broker's `take_worker_fault` path, never `fault_for`.
            Some(Fault::WorkerStall(_) | Fault::WorkerKill) => {
                unreachable!("fault_for never returns worker faults")
            }
        }
    }

    /// The worker fault (if any) for this `(task, delivery)` pair.
    /// Pure, like [`Self::fault_for`], and drawn from a separate
    /// stream: enabling worker faults never changes which per-attempt
    /// faults fire. Only ever returns [`Fault::WorkerStall`] or
    /// [`Fault::WorkerKill`].
    pub fn worker_fault_for(&self, task: &str, delivery: u32) -> Option<Fault> {
        let stream = self.seed ^ fnv1a(task.as_bytes()) ^ WORKER_STREAM_SALT;
        let category = unit_draw(stream, u64::from(delivery) << 1);
        let stall_edge = self.stall_rate;
        let kill_edge = stall_edge + self.kill_rate;
        if category < stall_edge {
            let magnitude = unit_draw(stream, (u64::from(delivery) << 1) | 1);
            Some(Fault::WorkerStall(Duration::from_secs_f64(
                self.max_stall.as_secs_f64() * magnitude,
            )))
        } else if category < kill_edge {
            Some(Fault::WorkerKill)
        } else {
            None
        }
    }

    /// Claims the worker fault for this delivery, counting it and
    /// applying the kill budget ([`Self::worker_kill_limit`]). Returns
    /// the fault for the *caller* to act on (the injector cannot kill
    /// the calling thread itself); a kill past the budget is reported
    /// as `None`.
    pub fn take_worker_fault(&self, task: &str, delivery: u32) -> Option<Fault> {
        match self.worker_fault_for(task, delivery) {
            Some(Fault::WorkerStall(stall)) => {
                self.injected_stalls.fetch_add(1, Ordering::SeqCst);
                Some(Fault::WorkerStall(stall))
            }
            Some(Fault::WorkerKill) => {
                let limit = self.kill_limit;
                let claimed = self
                    .injected_kills
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |kills| {
                        (kills < limit).then_some(kills + 1)
                    })
                    .is_ok();
                claimed.then_some(Fault::WorkerKill)
            }
            _ => None,
        }
    }

    /// The network fault (if any) for the `frame`-th frame of worker
    /// session `session`. Pure, like [`Self::fault_for`], and drawn
    /// from a third stream salted away from both the attempt and the
    /// worker streams: enabling network chaos never changes which task
    /// or worker faults fire. Rates are evaluated in the order
    /// latency → corrupt → partition → reset from one uniform draw.
    pub fn net_fault_for(&self, session: u64, frame: u64) -> Option<NetFault> {
        let stream = self.seed ^ mix(session) ^ NET_STREAM_SALT;
        let category = unit_draw(stream, frame << 1);
        let latency_edge = self.net_latency_rate;
        let corrupt_edge = latency_edge + self.net_corrupt_rate;
        let partition_edge = corrupt_edge + self.net_partition_rate;
        let reset_edge = partition_edge + self.net_reset_rate;
        if category < latency_edge {
            let magnitude = unit_draw(stream, (frame << 1) | 1);
            Some(NetFault::Latency(Duration::from_secs_f64(
                self.max_net_latency.as_secs_f64() * magnitude,
            )))
        } else if category < corrupt_edge {
            Some(NetFault::Corrupt)
        } else if category < partition_edge {
            Some(NetFault::Partition)
        } else if category < reset_edge {
            Some(NetFault::Reset)
        } else {
            None
        }
    }

    /// Claims the network fault for this frame, counting it. Returns
    /// the fault for the transport wrapper to act on.
    pub fn take_net_fault(&self, session: u64, frame: u64) -> Option<NetFault> {
        let fault = self.net_fault_for(session, frame);
        match fault {
            Some(NetFault::Latency(_)) => {
                self.injected_latencies.fetch_add(1, Ordering::SeqCst);
            }
            Some(NetFault::Corrupt) => {
                self.injected_corruptions.fetch_add(1, Ordering::SeqCst);
            }
            Some(NetFault::Partition) => {
                self.injected_partitions.fetch_add(1, Ordering::SeqCst);
            }
            Some(NetFault::Reset) => {
                self.injected_resets.fetch_add(1, Ordering::SeqCst);
            }
            None => {}
        }
        fault
    }

    /// Deterministic read-chunk size in `[1, max]` for the `read`-th
    /// read of worker session `session` — the chaos transport uses it
    /// to re-chunk the byte stream at arbitrary boundaries, modelling
    /// TCP segmentation. Pure, from the network stream.
    pub fn net_chunk_len(&self, session: u64, read: u64, max: usize) -> usize {
        if max <= 1 {
            return max;
        }
        let stream = self.seed ^ mix(session) ^ NET_STREAM_SALT;
        let draw = unit_draw(stream, CHUNK_COUNTER_BASE | read);
        1 + (draw * (max as f64 - 1.0)) as usize
    }

    /// Panics injected so far.
    pub fn injected_panics(&self) -> u64 {
        self.injected_panics.load(Ordering::SeqCst)
    }

    /// Spurious errors injected so far.
    pub fn injected_errors(&self) -> u64 {
        self.injected_errors.load(Ordering::SeqCst)
    }

    /// Delays injected so far.
    pub fn injected_delays(&self) -> u64 {
        self.injected_delays.load(Ordering::SeqCst)
    }

    /// Worker stalls injected so far.
    pub fn injected_stalls(&self) -> u64 {
        self.injected_stalls.load(Ordering::SeqCst)
    }

    /// Worker kills injected so far (never exceeds the kill limit).
    pub fn injected_kills(&self) -> u64 {
        self.injected_kills.load(Ordering::SeqCst)
    }

    /// Frame latencies injected so far.
    pub fn injected_latencies(&self) -> u64 {
        self.injected_latencies.load(Ordering::SeqCst)
    }

    /// Frame corruptions injected so far.
    pub fn injected_corruptions(&self) -> u64 {
        self.injected_corruptions.load(Ordering::SeqCst)
    }

    /// Frame drops (one-way partitions) injected so far.
    pub fn injected_partitions(&self) -> u64 {
        self.injected_partitions.load(Ordering::SeqCst)
    }

    /// Connection resets injected so far.
    pub fn injected_resets(&self) -> u64 {
        self.injected_resets.load(Ordering::SeqCst)
    }

    /// Total faults injected so far, worker and network faults
    /// included.
    pub fn injected_total(&self) -> u64 {
        self.injected_panics()
            + self.injected_errors()
            + self.injected_delays()
            + self.injected_stalls()
            + self.injected_kills()
            + self.injected_latencies()
            + self.injected_corruptions()
            + self.injected_partitions()
            + self.injected_resets()
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("seed", &self.seed)
            .field("panic_rate", &self.panic_rate)
            .field("error_rate", &self.error_rate)
            .field("delay_rate", &self.delay_rate)
            .field("max_delay", &self.max_delay)
            .field("injected_total", &self.injected_total())
            .finish()
    }
}

/// Salt separating the worker-fault stream from the per-attempt fault
/// stream for the same `(seed, task)` pair.
const WORKER_STREAM_SALT: u64 = 0x574F_524B_4552_2121; // "WORKER!!"

/// Salt separating the network-fault stream from both other streams.
const NET_STREAM_SALT: u64 = 0x4E45_5457_4F52_4B21; // "NETWORK!"

/// High bit separating chunk-size draws from frame-fault draws within
/// the network stream (frame counters stay far below 2^63).
const CHUNK_COUNTER_BASE: u64 = 1 << 63;

/// SplitMix64 finalizer: spreads a session token over the whole u64
/// space before it is xored into the stream seed (tokens are small
/// sequential integers, which would otherwise collide with the
/// task-name hash space only trivially perturbed).
fn mix(value: u64) -> u64 {
    let mut z = value.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic draw in [0, 1): SplitMix64 finalizer over
/// `(stream, counter)`.
fn unit_draw(stream: u64, counter: u64) -> f64 {
    let mut z = stream ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_never_fire() {
        let injector = FaultInjector::new(1);
        for attempt in 1..100 {
            assert_eq!(injector.fault_for("any", attempt), None);
        }
        assert_eq!(injector.injected_total(), 0);
    }

    #[test]
    fn full_panic_rate_always_fires() {
        let injector = FaultInjector::new(2).panics(1.0);
        for attempt in 1..20 {
            assert_eq!(injector.fault_for("t", attempt), Some(Fault::Panic));
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultInjector::new(99)
            .panics(0.2)
            .errors(0.3)
            .delays(0.2, Duration::from_millis(50));
        let b = FaultInjector::new(99)
            .panics(0.2)
            .errors(0.3)
            .delays(0.2, Duration::from_millis(50));
        let c = FaultInjector::new(100)
            .panics(0.2)
            .errors(0.3)
            .delays(0.2, Duration::from_millis(50));
        let plan = |inj: &FaultInjector| -> Vec<Option<Fault>> {
            (1..64)
                .map(|attempt| inj.fault_for("task-x", attempt))
                .collect()
        };
        assert_eq!(plan(&a), plan(&b));
        assert_ne!(plan(&a), plan(&c));
    }

    #[test]
    fn decisions_vary_by_task_name() {
        let injector = FaultInjector::new(7).errors(0.5);
        let by_task = |name: &str| -> Vec<bool> {
            (1..64)
                .map(|attempt| injector.fault_for(name, attempt).is_some())
                .collect()
        };
        assert_ne!(by_task("run-a"), by_task("run-b"));
    }

    #[test]
    fn spurious_errors_are_returned_and_counted() {
        let injector = FaultInjector::new(3).errors(1.0);
        let result = injector.inject("t", 1);
        assert!(result.unwrap_err().contains("injected fault"));
        assert_eq!(injector.injected_errors(), 1);
        assert_eq!(injector.injected_total(), 1);
    }

    #[test]
    fn panic_faults_panic_and_are_counted() {
        let injector = FaultInjector::new(4).panics(1.0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = injector.inject("t", 1);
        }));
        assert!(caught.is_err());
        assert_eq!(injector.injected_panics(), 1);
    }

    #[test]
    fn delay_faults_sleep_within_bound() {
        let injector = FaultInjector::new(5).delays(1.0, Duration::from_millis(10));
        match injector.fault_for("t", 1) {
            Some(Fault::Delay(d)) => assert!(d <= Duration::from_millis(10)),
            other => panic!("expected a delay fault, got {other:?}"),
        }
        assert!(injector.inject("t", 1).is_ok());
        assert_eq!(injector.injected_delays(), 1);
    }

    #[test]
    fn worker_faults_use_a_separate_stream() {
        let plain = FaultInjector::new(42)
            .errors(0.4)
            .delays(0.3, Duration::from_millis(5));
        let with_worker = FaultInjector::new(42)
            .errors(0.4)
            .delays(0.3, Duration::from_millis(5))
            .worker_stalls(0.5, Duration::from_millis(5))
            .worker_kills(0.5);
        // Enabling worker faults must not perturb the attempt plan.
        for attempt in 1..64 {
            assert_eq!(
                plain.fault_for("t", attempt),
                with_worker.fault_for("t", attempt)
            );
        }
        // And attempt-only injectors never produce worker faults.
        for delivery in 1..64 {
            assert_eq!(plain.worker_fault_for("t", delivery), None);
        }
    }

    #[test]
    fn worker_kill_limit_caps_take_but_not_the_plan() {
        let injector = FaultInjector::new(6).worker_kills(1.0).worker_kill_limit(1);
        assert_eq!(injector.worker_fault_for("t", 1), Some(Fault::WorkerKill));
        assert_eq!(injector.worker_fault_for("t", 2), Some(Fault::WorkerKill));
        assert_eq!(injector.take_worker_fault("t", 1), Some(Fault::WorkerKill));
        assert_eq!(injector.take_worker_fault("t", 2), None);
        assert_eq!(injector.injected_kills(), 1);
    }

    #[test]
    fn worker_stalls_are_deterministic_and_bounded() {
        let a = FaultInjector::new(8).worker_stalls(1.0, Duration::from_millis(20));
        let b = FaultInjector::new(8).worker_stalls(1.0, Duration::from_millis(20));
        for delivery in 1..32 {
            let fault = a.worker_fault_for("t", delivery);
            assert_eq!(fault, b.worker_fault_for("t", delivery));
            match fault {
                Some(Fault::WorkerStall(d)) => assert!(d <= Duration::from_millis(20)),
                other => panic!("expected a stall, got {other:?}"),
            }
        }
        assert!(a.take_worker_fault("t", 1).is_some());
        assert_eq!(a.injected_stalls(), 1);
        assert_eq!(a.injected_total(), 1);
    }

    #[test]
    fn net_faults_use_a_third_stream() {
        let plain = FaultInjector::new(42)
            .errors(0.4)
            .worker_kills(0.5)
            .worker_stalls(0.2, Duration::from_millis(5));
        let with_net = FaultInjector::new(42)
            .errors(0.4)
            .worker_kills(0.5)
            .worker_stalls(0.2, Duration::from_millis(5))
            .net_latency(0.2, Duration::from_millis(5))
            .net_corruption(0.2)
            .net_partitions(0.2)
            .net_resets(0.2);
        // Enabling network chaos must not perturb the attempt plan or
        // the worker-fault plan.
        for n in 1..64 {
            assert_eq!(plain.fault_for("t", n), with_net.fault_for("t", n));
            assert_eq!(
                plain.worker_fault_for("t", n),
                with_net.worker_fault_for("t", n)
            );
        }
        // And injectors without network rates never produce net faults.
        for frame in 0..64 {
            assert_eq!(plain.net_fault_for(1, frame), None);
        }
        assert!(!plain.net_faults_enabled());
        assert!(with_net.net_faults_enabled());
    }

    #[test]
    fn net_faults_are_deterministic_per_seed_and_session() {
        let a = FaultInjector::new(9).net_partitions(0.3).net_resets(0.3);
        let b = FaultInjector::new(9).net_partitions(0.3).net_resets(0.3);
        let c = FaultInjector::new(10).net_partitions(0.3).net_resets(0.3);
        let plan = |inj: &FaultInjector, session: u64| -> Vec<Option<NetFault>> {
            (0..64)
                .map(|frame| inj.net_fault_for(session, frame))
                .collect()
        };
        assert_eq!(plan(&a, 1), plan(&b, 1));
        assert_ne!(plan(&a, 1), plan(&c, 1));
        assert_ne!(plan(&a, 1), plan(&a, 2), "sessions draw distinct streams");
    }

    #[test]
    fn taking_net_faults_counts_them() {
        let injector = FaultInjector::new(12)
            .net_latency(0.25, Duration::from_millis(2))
            .net_corruption(0.25)
            .net_partitions(0.25)
            .net_resets(0.25);
        for frame in 0..400 {
            let took = injector.take_net_fault(3, frame);
            assert_eq!(took, injector.net_fault_for(3, frame));
            if let Some(NetFault::Latency(d)) = took {
                assert!(d <= Duration::from_millis(2));
            }
        }
        assert!(injector.injected_latencies() > 0);
        assert!(injector.injected_corruptions() > 0);
        assert!(injector.injected_partitions() > 0);
        assert!(injector.injected_resets() > 0);
        assert_eq!(
            injector.injected_total(),
            injector.injected_latencies()
                + injector.injected_corruptions()
                + injector.injected_partitions()
                + injector.injected_resets()
        );
    }

    #[test]
    fn chunk_lengths_are_bounded_deterministic_and_varied() {
        let a = FaultInjector::new(13).net_partitions(0.1);
        let b = FaultInjector::new(13).net_partitions(0.1);
        let mut distinct = std::collections::HashSet::new();
        for read in 0..256 {
            let len = a.net_chunk_len(5, read, 512);
            assert_eq!(len, b.net_chunk_len(5, read, 512));
            assert!((1..=512).contains(&len));
            distinct.insert(len);
        }
        assert!(distinct.len() > 16, "chunk sizes should spread");
        assert_eq!(a.net_chunk_len(5, 0, 1), 1);
        assert_eq!(a.net_chunk_len(5, 0, 0), 0);
    }

    #[test]
    fn rates_partition_the_unit_interval() {
        let injector = FaultInjector::new(11)
            .panics(0.25)
            .errors(0.25)
            .delays(0.25, Duration::from_millis(1));
        let mut counts = [0u32; 4];
        for attempt in 1..=400 {
            match injector.fault_for("mix", attempt) {
                Some(Fault::Panic) => counts[0] += 1,
                Some(Fault::SpuriousError) => counts[1] += 1,
                Some(Fault::Delay(_)) => counts[2] += 1,
                Some(Fault::WorkerStall(_) | Fault::WorkerKill) => {
                    panic!("attempt stream never yields worker faults")
                }
                None => counts[3] += 1,
            }
        }
        // Each category should land near 100 of 400 draws.
        for count in counts {
            assert!(
                (40..=160).contains(&count),
                "skewed draw distribution: {counts:?}"
            );
        }
    }
}
