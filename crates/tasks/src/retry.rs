//! Retry policies: how many attempts a task gets and how long to wait
//! between them.
//!
//! A [`RetryPolicy`] describes a *deterministic* backoff schedule:
//! fixed or exponential delays, an optional cap, and seeded jitter.
//! Determinism matters for reproducible experiments — two campaigns
//! launched with the same policy (and seed) retry at exactly the same
//! offsets and produce identical attempt histories.
//!
//! The schedule is monotone non-decreasing by construction (each delay
//! is at least the previous one) and never exceeds the cap, so retries
//! can only ever get *less* aggressive.

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
    /// Delays grow geometrically: `base * factor^k` before the k-th
    /// retry (k = 0 for the first retry).
    Exponential {
        /// Delay before the first retry.
        base: Duration,
        /// Geometric growth factor (≥ 1.0).
        factor: f64,
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
    jitter: f64,
    seed: u64,
    total_deadline: Option<Duration>,
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
            jitter: 0.0,
            seed: 0,
            total_deadline: None,
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
            backoff: Backoff::Exponential { base, factor: 2.0 },
            max_attempts: 3,
            cap: Some(Duration::from_secs(60)),
            ..RetryPolicy::none()
        }
    }

    /// Sets the total number of attempts (clamped to at least 1).
    pub fn max_attempts(mut self, attempts: u32) -> RetryPolicy {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the exponential growth factor (clamped to at least 1.0);
    /// no effect on fixed backoff.
    pub fn factor(mut self, factor: f64) -> RetryPolicy {
        if let Backoff::Exponential { base, .. } = self.backoff {
            self.backoff = Backoff::Exponential {
                base,
                factor: factor.max(1.0),
            };
        }
        self
    }

    /// Caps every delay (jitter included) at `cap`.
    pub fn cap(mut self, cap: Duration) -> RetryPolicy {
        self.cap = Some(cap);
        self
    }

    /// Adds multiplicative jitter: each delay is stretched by up to
    /// `fraction` (clamped to [0, 1]) of itself, deterministically from
    /// the seed.
    pub fn jitter(mut self, fraction: f64) -> RetryPolicy {
        self.jitter = fraction.clamp(0.0, 1.0);
        self
    }

    /// Seeds the jitter stream. Equal seeds give bit-identical
    /// schedules.
    pub fn seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }

    /// Wall-clock budget across *all* attempts and backoff sleeps; once
    /// exhausted no further retry is scheduled.
    pub fn total_deadline(mut self, deadline: Duration) -> RetryPolicy {
        self.total_deadline = Some(deadline);
        self
    }

    /// Total attempts this policy allows (≥ 1).
    pub fn attempts_allowed(&self) -> u32 {
        self.max_attempts
    }

    /// The all-attempts wall-clock budget, if any.
    pub fn total_budget(&self) -> Option<Duration> {
        self.total_deadline
    }

    /// The jitter fraction in [0, 1].
    pub fn jitter_fraction(&self) -> f64 {
        self.jitter
    }

    /// The jitter seed.
    pub fn seed_value(&self) -> u64 {
        self.seed
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
        let mut delays = Vec::new();
        let mut prev = Duration::ZERO;
        for attempt in 2..=attempts {
            let retry_index = attempt - 2;
            let raw = match self.backoff {
                Backoff::Fixed { delay } => delay,
                Backoff::Exponential { base, factor } => {
                    let scaled = base.as_secs_f64() * factor.powi(retry_index as i32);
                    // Saturate far past any sensible cap instead of
                    // overflowing Duration::from_secs_f64.
                    Duration::from_secs_f64(scaled.min(1e9))
                }
            };
            let mut delay = if self.jitter > 0.0 {
                let stretch = 1.0 + self.jitter * unit_draw(self.seed, attempt);
                Duration::from_secs_f64(raw.as_secs_f64() * stretch)
            } else {
                raw
            };
            if let Some(cap) = self.cap {
                delay = delay.min(cap);
            }
            // Monotone by construction: never back off less than before.
            delay = delay.max(prev);
            prev = delay;
            delays.push(delay);
        }
        delays
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
            Backoff::Exponential { base, factor } => {
                write!(f, "exponential({base:?}, x{factor}) x{}", self.max_attempts)
            }
        }
    }
}

/// Deterministic draw in [0, 1) from `(seed, attempt)` — the SplitMix64
/// finalizer over a golden-ratio-stepped counter.
fn unit_draw(seed: u64, attempt: u32) -> f64 {
    let mut z = seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
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
    fn jittered_schedules_are_deterministic_per_seed() {
        let make = |seed| {
            RetryPolicy::exponential(Duration::from_millis(50))
                .max_attempts(8)
                .jitter(0.5)
                .seed(seed)
                .schedule(8)
        };
        assert_eq!(make(42), make(42));
        assert_ne!(make(42), make(43));
    }

    #[test]
    fn jittered_schedules_stay_monotone_and_capped() {
        let cap = Duration::from_secs(2);
        let schedule = RetryPolicy::exponential(Duration::from_millis(10))
            .max_attempts(12)
            .cap(cap)
            .jitter(1.0)
            .seed(7)
            .schedule(12);
        for pair in schedule.windows(2) {
            assert!(pair[0] <= pair[1], "schedule must be non-decreasing");
        }
        assert!(schedule.iter().all(|d| *d <= cap));
    }

    #[test]
    fn builder_clamps_degenerate_values() {
        let policy = RetryPolicy::fixed(Duration::ZERO)
            .max_attempts(0)
            .jitter(9.0);
        assert_eq!(policy.attempts_allowed(), 1);
        assert_eq!(policy.jitter_fraction(), 1.0);
        let policy = RetryPolicy::exponential(Duration::from_millis(1)).factor(0.25);
        assert_eq!(policy.schedule(3)[0], policy.schedule(3)[1]);
    }

    #[test]
    fn deadlines_are_recorded() {
        let policy =
            RetryPolicy::fixed(Duration::from_millis(5)).total_deadline(Duration::from_secs(3));
        assert_eq!(policy.total_budget(), Some(Duration::from_secs(3)));
    }

    #[test]
    fn display_summarises_the_policy() {
        let fixed = RetryPolicy::fixed(Duration::from_millis(10)).max_attempts(5);
        assert!(fixed.to_string().contains("fixed"));
        let exp = RetryPolicy::exponential(Duration::from_millis(10));
        assert!(exp.to_string().contains("exponential"));
    }
}
