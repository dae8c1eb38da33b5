//! Property-based tests for [`RetryPolicy`] backoff schedules: monotone
//! non-decreasing, bounded by the cap, and fixed delays repeated
//! exactly.

use proptest::prelude::*;
use simart_tasks::RetryPolicy;
use std::time::Duration;

/// An arbitrary exponential policy from small integer parts (durations
/// in milliseconds).
fn policy(base_ms: u64, cap_ms: u64, attempts: u32) -> RetryPolicy {
    RetryPolicy::exponential(Duration::from_millis(base_ms))
        .cap(Duration::from_millis(cap_ms))
        .max_attempts(attempts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Delays never shrink: each retry waits at least as long as the
    /// one before, for any base/cap combination.
    #[test]
    fn schedules_are_monotone_nondecreasing(
        base_ms in 1u64..500,
        cap_ms in 1u64..5000,
        attempts in 2u32..16,
    ) {
        let schedule = policy(base_ms, cap_ms, attempts).schedule(attempts);
        prop_assert_eq!(schedule.len(), (attempts - 1) as usize);
        for pair in schedule.windows(2) {
            prop_assert!(pair[0] <= pair[1], "delay shrank: {:?} -> {:?}", pair[0], pair[1]);
        }
    }

    /// No delay ever exceeds the cap.
    #[test]
    fn schedules_are_bounded_by_the_cap(
        base_ms in 1u64..500,
        cap_ms in 1u64..5000,
        attempts in 2u32..16,
    ) {
        let cap = Duration::from_millis(cap_ms);
        let schedule = policy(base_ms, cap_ms, attempts).schedule(attempts);
        for delay in &schedule {
            prop_assert!(*delay <= cap, "{delay:?} exceeds cap {cap:?}");
        }
    }

    /// Fixed policies wait exactly the configured delay before every
    /// retry, and the first attempt is never delayed.
    #[test]
    fn fixed_policies_repeat_the_delay(
        delay_ms in 0u64..1000,
        attempts in 2u32..16,
    ) {
        let policy = RetryPolicy::fixed(Duration::from_millis(delay_ms)).max_attempts(attempts);
        prop_assert_eq!(policy.delay_before(1), Duration::ZERO);
        let schedule = policy.schedule(attempts);
        for delay in schedule {
            prop_assert_eq!(delay, Duration::from_millis(delay_ms));
        }
    }
}
