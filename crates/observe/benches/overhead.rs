//! Overhead benchmark for the observability hooks.
//!
//! Runs the same arithmetic kernel twice — bare, and saturated with
//! `simart-observe` hooks (counter, histogram, timer, stamp, span) on
//! every iteration — and reports the per-iteration cost difference.
//!
//! The instrumented kernel runs with the capture window **closed** —
//! the state every program is in unless it calls `enable()` — where
//! each hook must cost one relaxed atomic load and nothing else (no
//! clock read, no name formatting, no lock, no allocation). `--test`
//! mode asserts that and exits non-zero on a regression, so CI can
//! gate the closed-window path:
//!
//! ```text
//! cargo bench -p simart-observe -- --test
//! ```
//!
//! The cost of recording inside an open window is printed too, but not
//! asserted: that path legitimately costs.

use simart_observe as observe;
use std::hint::black_box;
use std::time::{Duration, Instant};

const REPEATS: usize = 7;

/// The bare kernel: a xorshift accumulator with no instrumentation.
fn baseline(iters: u64) -> u64 {
    let mut acc = 0x9e3779b97f4a7c15u64;
    for i in 0..iters {
        acc ^= acc << 13;
        acc ^= acc >> 7;
        acc = acc.wrapping_add(black_box(i));
    }
    acc
}

/// The same kernel with every hook class on the hot path.
fn instrumented(iters: u64) -> u64 {
    let mut acc = 0x9e3779b97f4a7c15u64;
    for i in 0..iters {
        let _timer = observe::timer("bench.iter_us");
        let stamp = observe::Stamp::now();
        let _span = observe::span(|| format!("bench.iter.{i}"));
        acc ^= acc << 13;
        acc ^= acc >> 7;
        acc = acc.wrapping_add(black_box(i));
        observe::count("bench.iters", 1);
        observe::observe_us("bench.value_us", acc & 0xff);
        stamp.observe_into("bench.stamp_us");
    }
    acc
}

/// Minimum wall-clock over `REPEATS` runs (minimum is the standard
/// noise-robust estimator for micro-benchmarks).
fn measure(f: impl Fn(u64) -> u64, iters: u64) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..REPEATS {
        let start = Instant::now();
        black_box(f(black_box(iters)));
        best = best.min(start.elapsed());
    }
    best
}

fn per_iter_ns(d: Duration, iters: u64) -> f64 {
    d.as_nanos() as f64 / iters as f64
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    // `cargo bench` also passes --bench / filter strings; ignore them.
    let iters: u64 = if test_mode { 2_000_000 } else { 10_000_000 };

    // Warm up both paths once.
    black_box(baseline(10_000));
    black_box(instrumented(10_000));

    let base = measure(baseline, iters);
    let cold = measure(instrumented, iters);
    let base_ns = per_iter_ns(base, iters);
    let cold_ns = per_iter_ns(cold, iters);
    let overhead_ns = (cold_ns - base_ns).max(0.0);

    println!("observe-overhead ({iters} iters, best of {REPEATS}):");
    println!("  baseline     {base_ns:>8.2} ns/iter");
    println!("  instrumented {cold_ns:>8.2} ns/iter  (capture window closed)");
    println!("  overhead     {overhead_ns:>8.2} ns/iter");

    // Also show the true recording cost inside a capture window.
    observe::enable();
    let hot = measure(instrumented, iters / 10);
    observe::disable();
    observe::reset();
    println!(
        "  recording    {:>8.2} ns/iter  (capture window open)",
        per_iter_ns(hot, iters / 10)
    );

    if test_mode {
        // Six closed-window hooks are six relaxed loads and two guard
        // drops (~11 ns/iter measured). The slack is for scheduler
        // noise: a real regression (a clock read, lock, or allocation
        // made before the `is_enabled()` check) costs far more than
        // 25 ns/iter.
        let limit_ns = 25.0;
        if overhead_ns > limit_ns {
            eprintln!(
                "FAIL  closed-window observability path regressed: {overhead_ns:.2} ns/iter \
                 overhead (limit {limit_ns} ns/iter)"
            );
            std::process::exit(1);
        }
        println!("PASS  closed-window path within limit ({overhead_ns:.2} <= {limit_ns} ns/iter)");
    }
}
