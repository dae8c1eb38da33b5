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
//! ## Zero-cost when off
//!
//! The recording machinery only compiles in with the **`enabled`**
//! cargo feature (instrumented crates forward it through their own
//! `observe` feature). Without it, every hook in this crate is an
//! empty `#[inline(always)]` function, [`SpanGuard`], [`Timer`], and
//! [`Stamp`] are zero-sized, name closures are never invoked, and no
//! global state exists — the instrumented hot paths compile to
//! nothing (proved by `benches/overhead.rs --test`). With the feature
//! on, recording is additionally runtime-gated by [`enable`] /
//! [`disable`], so instrumented binaries only pay inside an explicit
//! capture window. This mirrors the tracepoint-shim pattern used by
//! the race detector.
//!
//! The *data model* ([`Trace`], [`Snapshot`], [`HistogramSnapshot`],
//! …) is always compiled, so tools that only *read* recorded data
//! (e.g. `simart metrics` over a saved campaign database) work in any
//! build.
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
//! # #[cfg(feature = "enabled")]
//! assert!(trace.to_chrome_json().contains("traceEvents"));
//! # let _ = (trace, snapshot);
//! ```
//!
//! This crate depends only on std and the `simart-codec` leaf (for
//! JSON string escaping): it sits at the bottom of the simart stack so
//! every crate can instrument itself without dependency cycles.

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
///
/// Always `false` without the `enabled` feature.
#[inline(always)]
pub fn is_enabled() -> bool {
    cfg!(feature = "enabled") && ENABLED.load(Ordering::Relaxed)
}

/// Opens the capture window: spans, events, and metric updates are
/// recorded from here until [`disable`]. A no-op without the `enabled`
/// feature.
#[inline(always)]
pub fn enable() {
    if cfg!(feature = "enabled") {
        ENABLED.store(true, Ordering::SeqCst);
    }
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

// The enabled build's capture-window tests drive process-global state
// and live in `tests/capture_window.rs`, one binary to themselves.
#[cfg(all(test, not(feature = "enabled")))]
mod tests {
    use super::*;

    #[test]
    fn disabled_build_records_nothing_and_never_names() {
        enable();
        assert!(!is_enabled(), "enable() is inert without the feature");
        {
            let _span = span(|| unreachable!("name closure must not run"));
            event(|| unreachable!("name closure must not run"));
        }
        count("c", 1);
        gauge("g", 5);
        observe_us("h", 10);
        let _timer = timer("t");
        let stamp = Stamp::now();
        stamp.observe_into("s");
        assert!(drain_trace().is_empty());
        assert!(snapshot().metrics.is_empty());
    }

    #[test]
    fn disabled_guards_are_zero_sized() {
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
        assert_eq!(std::mem::size_of::<Timer>(), 0);
        assert_eq!(std::mem::size_of::<Stamp>(), 0);
    }
}
