//! Metric names, units and bounds; the result line; the stamp.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// How long one run measures, in seconds (`run_seconds` of the
/// manifest): three passes of 4 s or more.
pub const RUN_SECONDS: u64 = 12;

/// `(name, unit, better, bound)`: what a user of the system sees.
/// `failed_frac` of the issue is the result line's `failed` ÷
/// `attempted`, which must stay 0, and so is not listed here.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("runs_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
    ("db_bytes_per_run", "B/run", "lower", 0.02),
];

/// `(name, unit, better)`: one layer each, no bound.
pub const PER_LAYER: [(&str, &str, &str); 56] = [
    ("artifact.register_us", "us", "lower"),
    ("run.create_us", "us", "lower"),
    ("run.record_us", "us", "lower"),
    ("run.transition_us", "us", "lower"),
    ("run.log_event_us", "us", "lower"),
    ("run.attach_results_us", "us", "lower"),
    ("run.record_attempt_us", "us", "lower"),
    ("run.find_by_hash_us", "us", "lower"),
    ("core.launch_overhead_us_per_run.mem", "us", "lower"),
    ("core.launch_overhead_us_per_run.disk", "us", "lower"),
    ("core.resume_skip_us_per_run", "us", "lower"),
    ("core.remote_codec_us", "us", "lower"),
    ("db.insert_us", "us", "lower"),
    ("db.update_us.n1k", "us", "lower"),
    ("db.update_us.n12k", "us", "lower"),
    ("db.blob_put_us", "us", "lower"),
    ("db.blob_get_us", "us", "lower"),
    ("db.find_indexed_us", "us", "lower"),
    ("db.find_scan_ms", "ms", "lower"),
    ("db.checkpoint_ms", "ms", "lower"),
    ("db.journal_replay_ms", "ms", "lower"),
    ("db.open_ms", "ms", "lower"),
    ("tasks.wire_frame_us", "us", "lower"),
    ("tasks.dispatch_us.serial", "us", "lower"),
    ("tasks.dispatch_us.pool", "us", "lower"),
    ("tasks.dispatch_us.broker", "us", "lower"),
    ("tasks.dispatch_us.remote_pipe", "us", "lower"),
    ("tasks.dispatch_us.remote_tcp", "us", "lower"),
    ("tasks.worker_busy_frac", "frac", "higher"),
    ("tasks.queue_wait_ms_p50", "ms", "lower"),
    ("tasks.queue_wait_ms_p95", "ms", "lower"),
    ("tasks.redeliveries", "count", "lower"),
    ("tasks.reconnects", "count", "lower"),
    ("fullsim.config_build_us", "us", "lower"),
    ("fullsim.boot_cold_us_p50", "us", "lower"),
    ("fullsim.boot_cold_us_p95", "us", "lower"),
    ("fullsim.stats_dump_us", "us", "lower"),
    ("fullsim.workload_us_p50.timing", "us", "lower"),
    ("fullsim.workload_us_p50.o3", "us", "lower"),
    ("fullsim.boot_restore_us", "us", "lower"),
    ("fullsim.decode_hit_rate", "frac", "higher"),
    ("fullsim.boot_events_per_run", "count", "lower"),
    ("analyze.check_full_ms", "ms", "lower"),
    ("analyze.check_incr_ms", "ms", "lower"),
    ("phase.create_s", "s", "lower"),
    ("phase.launch_s", "s", "lower"),
    ("phase.execute_busy_s", "s", "lower"),
    ("phase.checkpoint_s", "s", "lower"),
    ("phase.verify_s", "s", "lower"),
    ("phase.open_s", "s", "lower"),
    ("phase.query_s", "s", "lower"),
    ("phase.lint_s", "s", "lower"),
    ("phase.control_self_s", "s", "lower"),
    ("phase.unattributed_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.spans", "count", "lower"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one `--workload` run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The unit the manifest declares for `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|(n, unit, ..)| (*n, *unit))
        .chain(PER_LAYER.iter().map(|(n, unit, _)| (*n, *unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

impl RunResult {
    /// The result line: one JSON object, the last line of stdout.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a line `to_json_line` wrote (names and units hold no
    /// quotes or escapes, so a scan is enough).
    pub fn from_json_line(line: &str) -> Option<RunResult> {
        let after =
            |text: &str, key: &str| -> Option<usize> { text.find(key).map(|at| at + key.len()) };
        let scalar = |key: &str| -> Option<&str> {
            let rest = &line[after(line, key)?..];
            Some(rest[..rest.find([',', '}'])?].trim())
        };
        let mut metrics = Vec::new();
        let mut rest = &line[after(line, "\"metrics\": {")?..];
        while let Some(open) = rest.find('"') {
            let name_end = open + 1 + rest[open + 1..].find('"')?;
            let name = &rest[open + 1..name_end];
            let body = &rest[name_end..];
            let value_at = after(body, "\"value\": ")?;
            let value_end = value_at + body[value_at..].find(',')?;
            let unit_at = after(body, "\"unit\": \"")?;
            let unit_end = unit_at + body[unit_at..].find('"')?;
            metrics.push(Metric {
                name: name.to_owned(),
                value: body[value_at..value_end].trim().parse().ok()?,
                unit: body[unit_at..unit_end].to_owned(),
            });
            rest = &body[unit_end + 2..];
        }
        Some(RunResult {
            correct: scalar("\"correct\": ")? == "true",
            attempted: scalar("\"attempted\": ")?.parse().ok()?,
            failed: scalar("\"failed\": ")?.parse().ok()?,
            metrics,
        })
    }
}

/// How a result was produced; travels with every result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    pub commit: String,
    pub date: String,
    pub nproc: usize,
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
        .filter(|line| !line.is_empty())
}

/// `YYYY-MM-DD` (UTC) for a UNIX timestamp.
pub fn civil_date(unix_seconds: u64) -> String {
    // Days-to-civil, Howard Hinnant's algorithm.
    let z = (unix_seconds / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

impl Stamp {
    /// Reads the commit only when `repo` is a git checkout (the
    /// benchmark driver's is not), so git never searches upwards.
    pub fn capture(repo: &Path) -> Stamp {
        let commit = repo
            .join(".git")
            .exists()
            .then(|| command_line("git", &["rev-parse", "--short", "HEAD"], repo))
            .flatten();
        Stamp {
            commit: commit.unwrap_or_else(|| "unknown".to_owned()),
            date: civil_date(
                SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0),
            ),
            nproc: crate::workloads::workers(),
            rustc: command_line("rustc", &["--version"], repo)
                .unwrap_or_else(|| "unknown".to_owned()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"commit\": \"{}\", \"date\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\"}}",
            self.commit, self.date, self.nproc, self.rustc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// The manifest this harness implements, rendered from its tables.
    fn manifest() -> String {
        let mut out = String::from("{\n");
        out.push_str(
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
             \"benchmark/Cargo.toml\", \"--\"],\n",
        );
        out.push_str("  \"paths\": [\"benchmark\"],\n");
        let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
        out.push_str("  \"workloads\": [\n");
        for (i, workload) in WORKLOADS.iter().enumerate() {
            let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
                workload.name, workload.why
            );
        }
        out.push_str("  ],\n  \"end_to_end\": [\n");
        for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
            let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \
                 \"bound\": {bound}}}{comma}"
            );
        }
        out.push_str("  ],\n  \"per_layer\": [\n");
        for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
            let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_emits() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path).unwrap_or_default();
        assert!(
            on_disk == manifest(),
            "{} is out of date; it should read:\n{}",
            path.display(),
            manifest()
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|(name, ..)| *name));
        names.extend(PER_LAYER.iter().map(|(name, ..)| *name));
        for name in &names {
            assert!(name_ok(name), "bad name {name}");
            assert!(WORKLOADS.iter().any(|w| w.name == *name) || unit_ok(unit_of(name).unwrap()));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(END_TO_END
            .iter()
            .all(|(.., bound)| *bound > 0.0 && *bound <= 0.25));
        assert!(END_TO_END.iter().any(|(name, unit, better, _)| {
            (*name, *unit, *better) == ("setup_s", "s", "lower")
        }));
    }

    #[test]
    fn result_line_round_trips() {
        let result = RunResult {
            correct: true,
            attempted: 2880,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "wall_s".into(),
                    value: 5.123456789,
                    unit: "s".into(),
                },
                Metric {
                    name: "db.update_us.n12k".into(),
                    value: 1e-7,
                    unit: "us".into(),
                },
            ],
        };
        let line = result.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::from_json_line(&line), Some(result));
        assert_eq!(RunResult::from_json_line("cargo noise"), None);
    }

    #[test]
    fn civil_dates() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(951_782_400), "2000-02-29");
        assert_eq!(civil_date(1_790_553_600), "2026-09-28");
    }
}
