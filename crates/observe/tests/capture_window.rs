//! The tests that drive the process-global capture window: the
//! enable/disable gate, the metrics registry and the span recorder.
//!
//! They assert exact contents of global state (and reset it), so they
//! run one after another inside a single `#[test]` in a binary of their
//! own; as parallel unit tests they tore each other's windows down.
//! Scoped registries (ROADMAP item 5a) are the real fix; process
//! isolation is the cheap one. `timer_stamp.rs` is the fourth of the
//! kind.

use simart_observe::{
    count, disable, drain_trace, enable, event, gauge, observe_us, reset, snapshot, span,
    MetricValue,
};

#[test]
fn capture_window_scenarios() {
    runtime_gate_bounds_the_capture_window();
    registry_records_inside_capture_window();
    spans_nest_via_parent_links_and_threads_get_dense_ids();
}

fn runtime_gate_bounds_the_capture_window() {
    disable();
    reset();
    count("gate.c", 1);
    {
        let _span = span(|| "gate.closed".to_owned());
    }
    assert!(drain_trace().is_empty());
    assert!(snapshot().metrics.is_empty());

    enable();
    count("gate.c", 2);
    {
        let _span = span(|| "gate.open".to_owned());
    }
    disable();
    let trace = drain_trace();
    assert_eq!(trace.spans.len(), 1);
    assert_eq!(trace.spans[0].name, "gate.open");
    assert_eq!(
        snapshot().metrics.get("gate.c"),
        Some(&MetricValue::Counter(2))
    );
    reset();
}

fn registry_records_inside_capture_window() {
    enable();
    count("m.test.counter", 2);
    count("m.test.counter", 3);
    gauge("m.test.gauge", 9);
    observe_us("m.test.hist_us", 1_000);
    observe_us("m.test.hist_us", 1_000);
    disable();
    // Outside the window nothing lands.
    count("m.test.counter", 100);
    let snap = snapshot();
    assert_eq!(
        snap.metrics.get("m.test.counter"),
        Some(&MetricValue::Counter(5))
    );
    assert_eq!(
        snap.metrics.get("m.test.gauge"),
        Some(&MetricValue::Gauge(9))
    );
    match snap.metrics.get("m.test.hist_us") {
        Some(MetricValue::Histogram(h)) => {
            assert_eq!((h.count, h.sum_us), (2, 2_000));
            assert_eq!(h.quantile(0.5), 1_000);
        }
        other => panic!("expected histogram, got {other:?}"),
    }
}

fn spans_nest_via_parent_links_and_threads_get_dense_ids() {
    enable();
    let _ = drain_trace();
    {
        let _outer = span(|| "t.outer".to_owned());
        {
            let _inner = span(|| "t.inner".to_owned());
        }
        event(|| "t.marker".to_owned());
    }
    std::thread::spawn(|| {
        let _other = span(|| "t.other-thread".to_owned());
    })
    .join()
    .unwrap();
    disable();
    let trace = drain_trace();
    let find = |name: &str| {
        trace
            .spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("span {name} missing"))
    };
    let outer = find("t.outer");
    let inner = find("t.inner");
    let other = find("t.other-thread");
    assert_eq!(inner.parent, outer.id, "nesting recorded via parent link");
    assert_eq!(outer.parent, 0, "outer is a root");
    assert_eq!(other.parent, 0);
    assert_ne!(
        other.thread, outer.thread,
        "distinct threads get distinct ids"
    );
    assert!(outer.dur_us >= inner.dur_us || outer.start_us <= inner.start_us);
    assert_eq!(trace.events.len(), 1);
    assert_eq!(trace.events[0].name, "t.marker");
    // Drained means gone.
    assert!(drain_trace().is_empty());
}
