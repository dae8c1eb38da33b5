//! Reference-campaign benchmark for simart.
//!
//! ```text
//! bench --workload W --seed S --seconds N --trace 0|1   one run, result line last
//! bench run   [--seed S] [--seconds N]                  every workload, end to end
//! bench trace [--seed S] [--seconds N]                  every workload, per layer
//! bench aa    [--seed S] [--seconds N]                  two sets, compared to the bounds
//! bench worker [--connect ADDR]                         the remote worker (internal)
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod adapter;
mod gen;
mod layers;
mod report;
mod span;
mod stats;
mod workloads;

use report::{Metric, RunResult, Stamp, END_TO_END, PER_LAYER, RUN_SECONDS};
use span::Tracer;
use stats::median;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{PassReport, WORKLOADS};

/// Fewest timed passes a run reports the median of.
const MIN_PASSES: usize = 3;
/// Largest share of the demanded CPU time the hypervisor may take from
/// a pass that still counts as timed (quiet periods show 0.1–0.8 %,
/// disturbed ones 7–45 %).
const MAX_STOLEN: f64 = 0.03;
/// Most passes a run times again because they were disturbed.
const MAX_RETIMED: usize = 2;

/// The benchmark's own directory: where `cargo run` says the manifest
/// is, else where it was when this binary was built.
fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

fn stamp() -> Stamp {
    Stamp::capture(&bench_dir().join(".."))
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn numeric_flag(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name} wants a whole number, not `{text}`")),
    }
}

fn metric(name: &str, value: f64) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit: report::unit_of(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the manifest tables"))
            .to_owned(),
    }
}

fn correctness(passes: &[&PassReport]) -> Vec<String> {
    let mut errors: Vec<String> = passes.iter().flat_map(|p| p.errors.clone()).collect();
    if passes.windows(2).any(|w| w[0].digest != w[1].digest) {
        errors.push("digest differs between passes".to_owned());
    }
    if passes.iter().any(|p| p.failed != 0) {
        errors.push("runs failed".to_owned());
    }
    errors
}

fn result_of(passes: &[&PassReport], metrics: Vec<Metric>) -> RunResult {
    let errors = correctness(passes);
    for error in &errors {
        eprintln!("incorrect: {error}");
    }
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    RunResult {
        correct: errors.is_empty(),
        attempted: attempted.max(1),
        // Any correctness violation condemns the whole run.
        failed: if errors.is_empty() {
            0
        } else {
            attempted.max(1)
        },
        metrics,
    }
}

/// Timed passes until `seconds` of measured wall time (at least
/// `MIN_PASSES`), each on fresh state; medians reported.
///
/// On a shared host the hypervisor now and then holds the vCPUs back
/// for tens of seconds. A pass it took more than `MAX_STOLEN` of the
/// demanded CPU time from measures the neighbours, not the program: it
/// is still checked for correctness, but timed again, at most
/// `MAX_RETIMED` times per run.
fn measure_end_to_end(workload: &str, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let root = workloads::work_root(&out_dir());
    let mut passes: Vec<PassReport> = Vec::new();
    let mut disturbed: Vec<PassReport> = Vec::new();
    while passes.len() < MIN_PASSES || passes.iter().map(|p| p.wall_s).sum::<f64>() < seconds as f64
    {
        let work = root.join(format!("pass{}", passes.len() + disturbed.len()));
        let before = stats::cpu_demand_now();
        let pass = workloads::run_pass(workload, seed, &work, None)?;
        let stolen = stats::stolen_frac(before, stats::cpu_demand_now());
        let retime = stolen > MAX_STOLEN && disturbed.len() < MAX_RETIMED;
        eprintln!(
            "pass: setup {:.4} s, wall {:.3} s, {} served, {:.1}% of CPU time stolen{}",
            pass.setup_once_s + pass.setup_s,
            pass.wall_s,
            pass.served,
            stolen * 100.0,
            if retime { " (timed again)" } else { "" }
        );
        if retime {
            disturbed.push(pass);
        } else {
            passes.push(pass);
        }
    }
    let checked: Vec<&PassReport> = passes.iter().chain(&disturbed).collect();
    let column =
        |pick: fn(&PassReport) -> f64| median(&passes.iter().map(pick).collect::<Vec<_>>());
    let worker_rss_kb = passes.iter().map(|p| p.worker_rss_kb).max().unwrap_or(0);
    let metrics = vec![
        metric(
            "setup_s",
            checked.iter().map(|p| p.setup_once_s).sum::<f64>() + column(|p| p.setup_s),
        ),
        metric("wall_s", column(|p| p.wall_s)),
        metric("runs_per_s", column(|p| p.served as f64 / p.wall_s)),
        metric(
            "peak_rss_mb",
            (stats::own_peak_rss_kb() + worker_rss_kb) as f64 / 1024.0,
        ),
        metric(
            "db_bytes_per_run",
            column(|p| p.db_bytes as f64 / p.db_runs as f64),
        ),
    ];
    Ok(result_of(&checked, metrics))
}

/// One untraced pass, one traced pass, then the isolated layer loops.
fn measure_per_layer(workload: &str, seed: u64) -> Result<RunResult, String> {
    let root = workloads::work_root(&out_dir());
    let workers = workloads::workers();
    let untraced = workloads::run_pass(workload, seed, &root.join("untraced"), None)?;
    let tracer = Tracer::new();
    let traced = workloads::run_pass(workload, seed, &root.join("traced"), Some(&tracer))?;
    tracer
        .write_chrome(&out_dir().join(format!("{workload}.trace.json")))
        .map_err(|e| format!("cannot write trace: {e}"))?;
    let loops = Instant::now();
    let layer_metrics = layers::measure(&root.join("layers"), seed, workers);
    let _ = std::fs::remove_dir_all(root.join("layers"));
    let layer_metrics = layer_metrics?;
    eprintln!("layer loops took {:.1} s", loops.elapsed().as_secs_f64());

    let campaign = tracer.total("campaign");
    let phases = [
        ("phase.create_s", tracer.total("create_runs")),
        ("phase.launch_s", tracer.total("launch")),
        ("phase.checkpoint_s", tracer.total("db.checkpoint")),
        ("phase.verify_s", tracer.total("verify")),
        ("phase.open_s", tracer.total("db.open")),
        ("phase.query_s", tracer.total("query")),
        ("phase.lint_s", tracer.total("lint")),
    ];
    let busy = tracer.total("execute");
    let launch = tracer.total("launch");
    let unattributed = stats::unattributed_frac(&phases.map(|(_, s)| s), campaign);
    let mut values: Vec<(String, f64)> = layer_metrics;
    values.extend(phases.map(|(name, s)| (name.to_owned(), s)));
    values.extend([
        ("phase.execute_busy_s".to_owned(), busy),
        (
            "phase.control_self_s".to_owned(),
            workers as f64 * launch - busy,
        ),
        ("phase.unattributed_frac".to_owned(), unattributed),
        (
            "tasks.worker_busy_frac".to_owned(),
            busy / (workers as f64 * launch),
        ),
        (
            "tasks.queue_wait_ms_p50".to_owned(),
            stats::percentile(&traced.queue_wait_ms, 50.0),
        ),
        (
            "tasks.queue_wait_ms_p95".to_owned(),
            stats::percentile(&traced.queue_wait_ms, 95.0),
        ),
        ("tasks.redeliveries".to_owned(), traced.redeliveries as f64),
        ("tasks.reconnects".to_owned(), traced.reconnects as f64),
        (
            "trace.overhead_frac".to_owned(),
            traced.wall_s / untraced.wall_s - 1.0,
        ),
        ("trace.spans".to_owned(), tracer.snapshot().len() as f64),
    ]);
    // Emit in manifest order, and exactly the manifest's names.
    let metrics = PER_LAYER
        .iter()
        .map(|(name, ..)| {
            values
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, value)| metric(name, *value))
                .ok_or_else(|| format!("per-layer metric `{name}` was not measured"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut result = result_of(&[&untraced, &traced], metrics);
    if unattributed > 0.10 {
        eprintln!(
            "incorrect: {:.1}% of the traced pass is unattributed",
            unattributed * 100.0
        );
        result.correct = false;
        result.failed = result.attempted;
    }
    Ok(result)
}

/// The driver's entry point: one workload, one result line.
fn single_run(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = numeric_flag(args, "--seed", 1)?;
    let seconds = numeric_flag(args, "--seconds", RUN_SECONDS)?;
    let trace = numeric_flag(args, "--trace", 0)?;
    eprintln!(
        "stamp: {}",
        Stamp::capture(&bench_dir().join("..")).to_json()
    );
    let result = if trace == 0 {
        measure_end_to_end(workload, seed, seconds)
    } else {
        measure_per_layer(workload, seed)
    };
    let _ = std::fs::remove_dir_all(workloads::work_root(&out_dir()));
    let result = result?;
    println!("{}", result.to_json_line());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a process of its own (peak memory is per
/// process) and parses its result line.
fn child_run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no current exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("CARGO_MANIFEST_DIR", bench_dir())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .last()
        .and_then(RunResult::from_json_line)
        .ok_or_else(|| format!("{workload} printed no result line ({})", output.status))
}

/// One full set: every workload, each in its own process.
fn run_set(seed: u64, seconds: u64, trace: bool) -> Result<Vec<(&'static str, RunResult)>, String> {
    WORKLOADS
        .iter()
        .map(|w| child_run(w.name, seed, seconds, trace).map(|result| (w.name, result)))
        .collect()
}

fn print_set(set: &[(&str, RunResult)]) {
    for (workload, result) in set {
        println!(
            "{workload}: correct={} attempted={} failed={} failed_frac={}",
            result.correct,
            result.attempted,
            result.failed,
            result.failed as f64 / result.attempted as f64
        );
        for m in &result.metrics {
            println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
}

fn set_to_json(set: &[(&str, RunResult)]) -> String {
    let rows: Vec<String> = set
        .iter()
        .map(|(workload, result)| format!("\"{workload}\": {}", result.to_json_line()))
        .collect();
    format!("{{{}}}", rows.join(", "))
}

fn write_out(name: &str, body: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(name), body))
        .map_err(|e| format!("cannot write {}: {e}", dir.join(name).display()))
}

/// `run` and `trace`: every workload, printed by name with units.
fn all_workloads(args: &[String], trace: bool) -> Result<ExitCode, String> {
    let seed = numeric_flag(args, "--seed", 1)?;
    let seconds = numeric_flag(args, "--seconds", RUN_SECONDS)?;
    let stamp = stamp();
    let set = run_set(seed, seconds, trace)?;
    println!("stamp: {}", stamp.to_json());
    print_set(&set);
    write_out(
        if trace { "trace.json" } else { "run.json" },
        &format!(
            "{{\"stamp\": {}, \"seed\": {seed}, \"results\": {}}}\n",
            stamp.to_json(),
            set_to_json(&set)
        ),
    )?;
    Ok(if set.iter().all(|(_, r)| r.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worsening(better: &str, a: f64, b: f64) -> f64 {
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

/// `aa`: the same build measured twice must agree within its own bounds.
fn aa(args: &[String]) -> Result<ExitCode, String> {
    let seed = numeric_flag(args, "--seed", 1)?;
    let seconds = numeric_flag(args, "--seconds", RUN_SECONDS)?;
    let stamp = stamp();
    let first = run_set(seed, seconds, false)?;
    let second = run_set(seed, seconds, false)?;
    let mut breaches = 0usize;
    let mut rows = String::new();
    println!("stamp: {}", stamp.to_json());
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        if !(a.correct && b.correct) {
            breaches += 1;
            println!("{workload}: incorrect results");
        }
        for (name, _, better, bound) in END_TO_END {
            let value = |r: &RunResult| r.metrics.iter().find(|m| m.name == name).map(|m| m.value);
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                return Err(format!("{workload} did not report {name}"));
            };
            // Either order may be the "parent": take the worse direction.
            let diff = worsening(better, x, y).max(worsening(better, y, x));
            let breach = diff > bound;
            breaches += usize::from(breach);
            println!(
                "{workload:<20} {name:<18} {x:>14.4} {y:>14.4} {:>8.2}% {:>6.0}%{}",
                diff * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
            let _ = write!(
                rows,
                "{}{{\"workload\": \"{workload}\", \"metric\": \"{name}\", \"first\": {x}, \
                 \"second\": {y}, \"diff\": {diff}, \"bound\": {bound}, \"breach\": {breach}}}",
                if rows.is_empty() { "" } else { ", " }
            );
        }
    }
    write_out(
        "aa.json",
        &format!(
            "{{\"stamp\": {}, \"seed\": {seed}, \"breaches\": {breaches}, \"rows\": [{rows}]}}\n",
            stamp.to_json()
        ),
    )?;
    println!("{breaches} breaches");
    Ok(if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("worker") => {
            let code = adapter::worker_main(flag(&args, "--connect"));
            return ExitCode::from(u8::try_from(code).unwrap_or(1));
        }
        Some("run") => all_workloads(&args, false),
        Some("trace") => all_workloads(&args, true),
        Some("aa") => aa(&args),
        _ => single_run(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: bench --workload W --seed N --seconds N --trace 0|1 | run | trace | aa"
            );
            for workload in &WORKLOADS {
                eprintln!("  {}: {}", workload.name, workload.why);
            }
            ExitCode::from(2)
        }
    }
}
