//! Supervision policy shared by every scheduler.
//!
//! All pair every delivery with a *lease* — a deadline of the task's
//! timeout plus a grace period — and run a supervisor that ticks on a
//! heartbeat, replaces workers that died or wedged, and recovers their
//! leases by redelivering the task (up to a cap) or dead-lettering it
//! (the crate-private `lease` module is that contract).
//! [`SupervisorConfig`] is the knob set; with the defaults — what the
//! serial and pool schedulers run under — nothing is redelivered and
//! an expired lease is reported as timed-out, so redelivery is
//! strictly opt-in per scheduler instance.

use std::time::Duration;

/// Tuning for a scheduler's supervisor ([`BrokerScheduler`](crate::BrokerScheduler),
/// [`RemoteScheduler`](crate::RemoteScheduler)).
///
/// Construct with [`SupervisorConfig::default`] and override fields as
/// needed:
///
/// ```
/// use simart_tasks::SupervisorConfig;
/// let config = SupervisorConfig { max_redeliveries: 2, ..SupervisorConfig::default() };
/// assert_eq!(config.max_redeliveries, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Interval between supervisor ticks. Lease expiry and worker
    /// death are detected within one heartbeat of happening.
    pub heartbeat: Duration,
    /// Slack added to a task's timeout when computing its lease
    /// deadline, so an attempt finishing *at* its timeout is not falsely
    /// redelivered. Tasks without a timeout hold open-ended leases and
    /// are only recovered if their worker dies.
    pub grace: Duration,
    /// How many times an expired or orphaned lease may be redelivered
    /// before the task is dead-lettered. `0` (the default) disables
    /// redelivery: an expired lease is reported as timed-out
    /// immediately.
    pub max_redeliveries: u32,
    /// Cap on live detached (presumed-wedged) worker threads. Once
    /// reached, further lease expirations fail fast with a clear error
    /// instead of detaching more threads; the cap frees up again as
    /// the supervisor reaps detached threads that finish.
    pub max_detached: usize,
}

impl SupervisorConfig {
    /// How long a remote worker process may go silent before the
    /// coordinator declares it wedged and recycles it: the lease
    /// grace plus four heartbeat intervals, so a worker must miss
    /// several consecutive heartbeats (not just jitter past one)
    /// before being SIGKILLed.
    pub fn remote_stale_after(&self) -> Duration {
        self.grace + self.heartbeat * 4
    }
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            heartbeat: Duration::from_millis(20),
            grace: Duration::from_millis(100),
            max_redeliveries: 0,
            max_detached: 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_preserve_watchdog_semantics() {
        let config = SupervisorConfig::default();
        assert_eq!(config.max_redeliveries, 0, "redelivery must be opt-in");
        assert!(config.max_detached > 0);
        assert!(config.heartbeat < config.grace + Duration::from_secs(1));
    }
}
