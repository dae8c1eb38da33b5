//! `timer` and `Stamp` record elapsed time into histograms.
//!
//! This asserts exact counts on the process-global registry, so it is
//! the only test in its binary: sibling test threads recording into (or
//! resetting) the same registry used to make it flaky. Scoped registries
//! (ROADMAP item 5a) are the real fix; process isolation is the cheap one.

use simart_observe::{self as observe, MetricValue, Stamp};

#[test]
fn timer_and_stamp_record_elapsed_time() {
    observe::enable();
    {
        let _t = observe::timer("m.timer.hist_us");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let stamp = Stamp::now();
    std::thread::sleep(std::time::Duration::from_millis(2));
    stamp.observe_into("m.stamp.hist_us");
    observe::disable();
    for name in ["m.timer.hist_us", "m.stamp.hist_us"] {
        match observe::snapshot().metrics.get(name) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 1, "{name}");
                assert!(h.sum_us >= 1_000, "{name}: {}us", h.sum_us);
            }
            other => panic!("{name}: expected histogram, got {other:?}"),
        }
    }
}
