//! # simart-observe
//!
//! Structured tracing, metrics, and profiling hooks for the simart
//! stack — the observability layer behind `simart metrics` and
//! `simart campaign --trace-out`.
//!
//! Two recording surfaces share one switch:
//!
//! * **Spans & events** ([`span()`], [`event`]) — a span-based trace with
//!   monotonic timestamps, dense thread ids, and parent links,
//!   recorded through a lock-cheap per-thread buffer and drained with
//!   [`drain_trace`] to a [`Trace`] that serializes to JSONL or a
//!   Chrome `trace_event` file (open it in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev)).
//! * **Metrics** ([`count`], [`gauge`], [`observe_us`], [`timer`]) — a
//!   process-global registry of counters, gauges, and fixed-bucket
//!   histograms with p50/p95/p99 quantiles, snapshotted with
//!   [`snapshot`].
//!
//! ## One switch: the capture window
//!
//! The recording machinery is compiled into every build; whether it
//! records is decided at run time, by [`enable`] / [`disable`] alone.
//! Outside the window every hook is one relaxed atomic load and a
//! return: [`timer`] and [`Stamp::now`] read no clock, name closures
//! are never invoked, and nothing touches the registry or the trace
//! buffers — about 2 ns per hook, bounded by `benches/overhead.rs
//! --test`. A program that never calls [`enable`] records nothing.
//!
//! The *data model* ([`Trace`], [`Snapshot`], [`HistogramSnapshot`],
//! …) is plain data, so tools that only *read* recorded data (e.g.
//! `simart metrics` over a saved campaign database) never open a
//! window.
//!
//! ```
//! use simart_observe as observe;
//!
//! observe::enable();
//! {
//!     let _span = observe::span(|| "boot".to_owned());
//!     observe::count("sim.boots", 1);
//!     observe::observe_us("db.save_us", 1_000);
//! }
//! let trace = observe::drain_trace();
//! let snapshot = observe::snapshot();
//! observe::disable();
//! assert_eq!(trace.spans[0].name, "boot");
//! assert!(snapshot.metrics.contains_key("sim.boots"));
//! ```
//!
//! This crate depends only on std and the `simart-codec` leaf (for
//! JSON string escaping): it sits at the bottom of the simart stack so
//! every crate can instrument itself without dependency cycles.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod metrics;
pub mod span;

pub use metrics::{
    bucket_bounds_us, count, gauge, observe_us, snapshot, timer, HistogramSnapshot, MetricValue,
    Snapshot, Stamp, Timer,
};
pub use span::{drain_trace, event, span, EventRecord, SpanGuard, SpanRecord, Trace};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether recording is currently active.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens the capture window: spans, events, and metric updates are
/// recorded from here until [`disable`].
#[inline(always)]
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Closes the capture window. Already-recorded data stays available to
/// [`drain_trace`] and [`snapshot`].
#[inline(always)]
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Resets all recorded state — metrics back to zero and the trace
/// buffers emptied. Intended for tests and for tools that run several
/// capture windows in one process.
pub fn reset() {
    metrics::reset_metrics();
    let _ = span::drain_trace();
}

// Nothing in this binary opens the window, which is what these tests
// rely on; the tests that do drive process-global state and live in
// `tests/capture_window.rs`, one binary to themselves.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_window_records_nothing_and_never_names() {
        assert!(!is_enabled(), "the window starts closed");
        {
            let _span = span(|| unreachable!("name closure must not run"));
            event(|| unreachable!("name closure must not run"));
        }
        count("c", 1);
        gauge("g", 5);
        observe_us("h", 10);
        let _timer = timer("t");
        let stamp = Stamp::now();
        assert_eq!(
            stamp.elapsed_us(),
            None,
            "a closed-window stamp is disarmed"
        );
        stamp.observe_into("s");
        assert!(drain_trace().is_empty());
        assert!(snapshot().metrics.is_empty());
    }
}
