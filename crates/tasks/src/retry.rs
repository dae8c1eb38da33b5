//! Retry policies: how many attempts a task gets and how long to wait
//! between them.
//!
//! A [`RetryPolicy`] describes a *deterministic* backoff schedule:
//! fixed or doubling delays and an optional cap. Determinism matters
//! for reproducible experiments — two campaigns launched with the same
//! policy retry at exactly the same offsets and produce identical
//! attempt histories.
//!
//! The schedule is monotone non-decreasing by construction (a delay is
//! fixed or doubles, then is capped) and never exceeds the cap, so
//! retries can only ever get *less* aggressive.

use std::fmt;
use std::time::Duration;

/// The shape of the delay sequence between attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backoff {
    /// The same delay before every retry.
    Fixed {
        /// Delay before each retry.
        delay: Duration,
    },
    /// Delays double: `base * 2^k` before the k-th retry (k = 0 for
    /// the first retry).
    Exponential {
        /// Delay before the first retry.
        base: Duration,
    },
}

/// When and how often a task is retried after an error.
///
/// Panics and plain errors are retried; an attempt that outlives the
/// task's timeout ([`Task::timeout`](crate::Task::timeout)) is terminal
/// (a run that outlived its deadline once will do so again).
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    backoff: Backoff,
    max_attempts: u32,
    cap: Option<Duration>,
}

impl RetryPolicy {
    /// No retries: the task gets exactly one attempt.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            backoff: Backoff::Fixed {
                delay: Duration::ZERO,
            },
            max_attempts: 1,
            cap: None,
        }
    }

    /// Up to `max_attempts` attempts with no delay between them
    /// (the legacy `Task::retries` behaviour).
    pub fn immediate(max_attempts: u32) -> RetryPolicy {
        RetryPolicy::none().max_attempts(max_attempts)
    }

    /// Fixed `delay` between attempts; 3 attempts by default.
    pub fn fixed(delay: Duration) -> RetryPolicy {
        RetryPolicy {
            backoff: Backoff::Fixed { delay },
            max_attempts: 3,
            ..RetryPolicy::none()
        }
    }

    /// Exponential backoff starting at `base`, doubling each retry,
    /// capped at 60 s; 3 attempts by default.
    pub fn exponential(base: Duration) -> RetryPolicy {
        RetryPolicy {
            backoff: Backoff::Exponential { base },
            max_attempts: 3,
            cap: Some(Duration::from_secs(60)),
        }
    }

    /// Sets the total number of attempts (clamped to at least 1).
    pub fn max_attempts(mut self, attempts: u32) -> RetryPolicy {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Caps every delay at `cap`.
    pub fn cap(mut self, cap: Duration) -> RetryPolicy {
        self.cap = Some(cap);
        self
    }

    /// Total attempts this policy allows (≥ 1).
    pub fn attempts_allowed(&self) -> u32 {
        self.max_attempts
    }

    /// The delay slept before `attempt` (1-based). Attempt 1 always
    /// starts immediately.
    pub fn delay_before(&self, attempt: u32) -> Duration {
        if attempt <= 1 {
            return Duration::ZERO;
        }
        *self
            .schedule(attempt)
            .last()
            .expect("schedule(n >= 2) is non-empty")
    }

    /// The full backoff schedule: delays before attempts `2..=attempts`
    /// (attempt 1 has no delay, so the vector has `attempts - 1`
    /// entries). Monotone non-decreasing and bounded by the cap.
    pub fn schedule(&self, attempts: u32) -> Vec<Duration> {
        (2..=attempts)
            .map(|attempt| {
                let delay = match self.backoff {
                    Backoff::Fixed { delay } => delay,
                    Backoff::Exponential { base } => {
                        let scaled = base.as_secs_f64() * 2f64.powi(attempt as i32 - 2);
                        // Saturate far past any sensible cap instead of
                        // overflowing Duration::from_secs_f64.
                        Duration::from_secs_f64(scaled.min(1e9))
                    }
                };
                self.cap.map_or(delay, |cap| delay.min(cap))
            })
            .collect()
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

impl fmt::Display for RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.backoff {
            Backoff::Fixed { delay } => {
                write!(f, "fixed({delay:?}) x{}", self.max_attempts)
            }
            Backoff::Exponential { base } => {
                write!(f, "exponential({base:?}, x2) x{}", self.max_attempts)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_allows_one_attempt_with_no_delay() {
        let policy = RetryPolicy::none();
        assert_eq!(policy.attempts_allowed(), 1);
        assert_eq!(policy.delay_before(1), Duration::ZERO);
        assert_eq!(policy.delay_before(2), Duration::ZERO);
        assert!(policy.schedule(5).iter().all(Duration::is_zero));
    }

    #[test]
    fn fixed_backoff_repeats_the_delay() {
        let policy = RetryPolicy::fixed(Duration::from_millis(250)).max_attempts(4);
        assert_eq!(policy.schedule(4), vec![Duration::from_millis(250); 3]);
    }

    #[test]
    fn exponential_backoff_doubles_until_cap() {
        let policy = RetryPolicy::exponential(Duration::from_millis(100))
            .max_attempts(6)
            .cap(Duration::from_millis(500));
        assert_eq!(
            policy.schedule(6),
            vec![
                Duration::from_millis(100),
                Duration::from_millis(200),
                Duration::from_millis(400),
                Duration::from_millis(500),
                Duration::from_millis(500),
            ]
        );
    }

    #[test]
    fn builder_clamps_degenerate_values() {
        let policy = RetryPolicy::fixed(Duration::ZERO).max_attempts(0);
        assert_eq!(policy.attempts_allowed(), 1);
    }

    #[test]
    fn display_summarises_the_policy() {
        let fixed = RetryPolicy::fixed(Duration::from_millis(10)).max_attempts(5);
        assert!(fixed.to_string().contains("fixed"));
        let exp = RetryPolicy::exponential(Duration::from_millis(10));
        assert!(exp.to_string().contains("exponential"));
    }
}
