//! The four reference workloads. Sizes are constants, chosen on the
//! 2-core reference box for 4–6 s per pass; they are never calibrated
//! at run time, so two builds always do the same work.

use crate::adapter::{
    self, Campaign, Executor, Family, InProc, Record, Remote, SchedKind, Summary, Wire,
};
use crate::gen;
use crate::span::{SpanId, Tracer, NO_PARENT};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A workload as the manifest lists it, plus the digest its passes
/// must reproduce.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// MD5 over the sorted `(config, outcome, simTicks, md5(payload))`
    /// lines of a pass. A simulator speed-up must leave it unchanged; it
    /// moves only with the sizes below or the simulated statistics.
    digest: &'static str,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "boot_sweep_cold",
        why: "Figure 8 boot cross-product, cold Standard boots on a thread pool: fullsim about 2/3 and control plane 1/3 of wall, so either side's change shows",
        digest: "d3cc61e58c7f3a1a65d787ef21fa35de",
    },
    Workload {
        name: "parsec_detailed",
        why: "Table II PARSEC x OS x cores x 2 systems at Detailed fidelity: simulator interpretation is >95% of wall; db/tasks/run changes must not move it",
        digest: "a2f6e096aac7a67c024cd65cdf0c53cd",
    },
    Workload {
        name: "restore_fanout_tcp",
        why: "thousands of ~10 us checkpoint restores via launch_remote over TCP: admit+hash, journal, CoW shards, wire codec and leases do all the work",
        digest: "1ba69ce0dd01897ca405aeca777ce3b8",
    },
    Workload {
        name: REOPEN,
        why: "reopen a journaled db, resume-skip every run, figure queries, full and incremental lint: the read side that a write-path shortcut would slow",
        digest: "ad05f5377390f15508ee522cff56747e",
    },
];

/// Replicas of Figure 8's 480 configurations (the paper's campaign is
/// one replica; five make a pass long enough to time).
const BOOT_REPLICAS: usize = 5;
/// Replicas of Table II's 120 configurations.
const PARSEC_REPLICAS: usize = 2;
/// Replicas of the 16 fan-out configurations.
const FANOUT_REPLICAS: usize = 450;
/// Replicas of the 16 fan-out configurations in the reopened database.
const REOPEN_DB_REPLICAS: usize = 250;
/// Share of the reopened database's runs folded into snapshot files in
/// set-up; the rest stay in the journal.
const REOPEN_FOLDED_SHARE: f64 = 0.9;
/// Open → skip → query → lint → append → check rounds per pass.
const REOPEN_ROUNDS: usize = 4;
/// Replicas appended each round (6 × 16 = 96 runs).
const REOPEN_APPEND_REPLICAS: usize = 6;
/// Runs whose archived payload each round retrieves.
const REOPEN_LOADS: usize = 1000;

/// Untraced set-ups per pass of a campaign workload.
const SETUP_REPEATS: usize = 5;
const REOPEN: &str = "reopen_query_check";

/// Worker threads or processes: one per core.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// What one pass measured and verified.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    /// Set-up this pass repeated (median of its repeats).
    pub setup_s: f64,
    /// Set-up done once per process, in the pass that did it.
    pub setup_once_s: f64,
    pub wall_s: f64,
    /// Runs brought to a terminal state (run records served, for
    /// `reopen_query_check`).
    pub served: u64,
    pub attempted: u64,
    pub failed: u64,
    pub db_bytes: u64,
    /// Runs in the database when its size was taken.
    pub db_runs: u64,
    pub worker_rss_kb: u64,
    pub digest: String,
    /// Correctness violations (digest, Figure 8 counts, lint, resume).
    pub errors: Vec<String>,
    pub redeliveries: u64,
    pub reconnects: u64,
    /// Submit → executor entry per run; traced in-process passes only.
    pub queue_wait_ms: Vec<f64>,
}

/// Tracing context of a pass: the tracer and the pass's root span.
struct Trace {
    tracer: Arc<Tracer>,
    root: SpanId,
}

/// Runs `work` as a named phase (a child span of the pass when traced).
fn phase<T>(trace: &Option<Trace>, name: &str, work: impl FnOnce() -> T) -> T {
    match trace {
        None => work(),
        Some(t) => t.tracer.scope(name, t.root, |id| {
            if name == "launch" {
                t.tracer.set_executor_parent(id);
            }
            work()
        }),
    }
}

fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Digest of a pass's records plus the number that are not `done` with
/// a retrievable, key-matching payload.
pub fn digest_records(records: &[Record]) -> (String, u64) {
    let mut bad = 0u64;
    let mut lines: Vec<String> = records
        .iter()
        .map(|r| {
            if r.status != "done" || r.payload_md5.is_none() {
                bad += 1;
            }
            format!(
                "{}|{}|{}|{}",
                gen::config_of(&r.params).join(","),
                r.outcome,
                r.sim_ticks,
                r.payload_md5.as_deref().unwrap_or("-"),
            )
        })
        .collect();
    lines.sort();
    (adapter::md5_hex(lines.join("\n").as_bytes()), bad)
}

/// Checks every record and the pass digest, filling the report.
fn verify(workload: &str, campaign: &Campaign, attempted: usize, report: &mut PassReport) {
    let records = campaign.records();
    let (digest, bad) = digest_records(&records);
    report.attempted = attempted as u64;
    // A run that never reached the database (refused at admit) is as
    // failed as one that is not done.
    report.failed = bad + (attempted as u64).saturating_sub(records.len() as u64);
    if records.len() != attempted {
        report.errors.push(format!(
            "{} run records for {attempted} runs",
            records.len()
        ));
    }
    if workload == "boot_sweep_cold" {
        check_figure8(&records, &mut report.errors);
    }
    let expected = WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .map_or("", |w| w.digest);
    if digest != expected {
        report
            .errors
            .push(format!("digest {digest} differs from expected {expected}"));
    }
    report.digest = digest;
    let diagnostics = campaign.lint_full();
    if diagnostics != 0 {
        report
            .errors
            .push(format!("lint reports {diagnostics} diagnostics"));
    }
}

/// Outcome counts per CPU model must equal Figure 8's, per replica.
fn check_figure8(records: &[Record], errors: &mut Vec<String>) {
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for record in records {
        let cpu = record.params.first().cloned().unwrap_or_default();
        *counts.entry((cpu, record.outcome.clone())).or_insert(0) += 1;
    }
    let expected = adapter::figure8_expected_counts();
    for (cpu, outcome, per_replica) in &expected {
        let seen = counts
            .get(&(cpu.clone(), (*outcome).to_owned()))
            .copied()
            .unwrap_or(0);
        if seen != per_replica * BOOT_REPLICAS {
            errors.push(format!(
                "Figure 8: {cpu} {outcome} = {seen}, expected {}",
                per_replica * BOOT_REPLICAS
            ));
        }
    }
    let total: usize = expected.iter().map(|(_, _, n)| n * BOOT_REPLICAS).sum();
    if records.len() != total {
        errors.push(format!(
            "Figure 8: {} outcomes, expected {total}",
            records.len()
        ));
    }
}

fn note_summary(summary: &Summary, fresh: usize, errors: &mut Vec<String>) {
    if summary.done != fresh || summary.fresh != fresh {
        errors.push(format!(
            "launch summary is not {fresh} fresh and done: {summary:?}"
        ));
    }
}

/// Queue wait (submit → executor entry) per run, in ms.
fn queue_waits(scheduler: &InProc, tracer: &Tracer) -> Vec<f64> {
    let submitted = scheduler.submit_times();
    tracer
        .snapshot()
        .iter()
        .filter(|s| s.name == "execute")
        .filter_map(|s| {
            let run = s.run.as_ref()?;
            let at = tracer.ns(*submitted.get(run)?);
            Some(s.start_ns.saturating_sub(at) as f64 / 1e6)
        })
        .collect()
}

/// How a campaign workload executes its runs.
#[derive(Clone, Copy)]
enum Engine {
    /// Thread pool in this process, with the executor this builds.
    Pool(fn(Option<adapter::SpanSink>) -> Executor),
    /// Worker processes over TCP, restoring from a pre-warmed store.
    RemoteTcp,
}

/// A create → launch → checkpoint campaign workload.
#[derive(Clone, Copy)]
struct CampaignSpec {
    name: &'static str,
    family: Family,
    base: fn() -> Vec<Vec<String>>,
    replicas: usize,
    engine: Engine,
}

const CAMPAIGNS: [CampaignSpec; 3] = [
    CampaignSpec {
        name: "boot_sweep_cold",
        family: Family::Boot,
        base: adapter::figure8_params,
        replicas: BOOT_REPLICAS,
        engine: Engine::Pool(adapter::boot_executor),
    },
    CampaignSpec {
        name: "parsec_detailed",
        family: Family::Parsec,
        base: adapter::table2_params,
        replicas: PARSEC_REPLICAS,
        engine: Engine::Pool(adapter::parsec_executor),
    },
    CampaignSpec {
        name: "restore_fanout_tcp",
        family: Family::Fanout,
        base: adapter::fanout_params,
        replicas: FANOUT_REPLICAS,
        engine: Engine::RemoteTcp,
    },
];

/// The engine, built: where a campaign's runs execute.
enum Backend {
    Pool(InProc, Executor),
    Remote(Remote),
}

/// Everything set-up leaves behind for the measured part.
struct Ready {
    specs: Vec<Vec<String>>,
    campaign: Campaign,
    artifacts: adapter::Artifacts,
    backend: Backend,
    db_dir: PathBuf,
    span_dir: PathBuf,
}

/// Set-up: inputs from the seed, a fresh journaled database, artifact
/// registration, and the workers (for the remote workload also the
/// sequential checkpoint pre-warm).
fn campaign_setup(
    spec: &CampaignSpec,
    seed: u64,
    work: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Ready, String> {
    let tracing = tracer.is_some();
    let base = (spec.base)();
    let specs = gen::generate(&base, spec.replicas, seed);
    let db_dir = work.join("db");
    let (campaign, _) = Campaign::open(spec.name, &db_dir)?;
    let artifacts = campaign.register(spec.family)?;
    let span_dir = work.join("spans");
    let backend = match spec.engine {
        Engine::Pool(executor) => Backend::Pool(
            InProc::new(SchedKind::Pool, workers(), tracing),
            executor(tracer.map(|t| t.sink())),
        ),
        Engine::RemoteTcp => {
            let store_dir = work.join("checkpoints");
            prewarm(&store_dir, &base)?;
            if tracing {
                std::fs::create_dir_all(&span_dir).map_err(|e| e.to_string())?;
            }
            Backend::Remote(Remote::spawn(
                Wire::Tcp,
                workers(),
                Some(&store_dir),
                tracing.then_some(span_dir.as_path()),
            )?)
        }
    };
    Ok(Ready {
        specs,
        campaign,
        artifacts,
        backend,
        db_dir,
        span_dir,
    })
}

/// The measured part — first `create_fs_run` to checkpoint on disk —
/// then sizes, worker facts and verification, which are not timed.
fn campaign_measure(
    spec: &CampaignSpec,
    ready: Ready,
    tracer: Option<&Arc<Tracer>>,
    report: &mut PassReport,
) -> Result<(), String> {
    let Ready {
        specs,
        campaign,
        artifacts,
        backend,
        db_dir,
        span_dir,
    } = ready;
    let trace = tracer.map(|tracer| Trace {
        tracer: Arc::clone(tracer),
        root: tracer.begin("campaign", NO_PARENT),
    });
    let wall = Instant::now();
    let runs = phase(&trace, "create_runs", || {
        campaign.create_runs(&artifacts, &specs)
    })?;
    let summary = phase(&trace, "launch", || match &backend {
        Backend::Pool(pool, executor) => campaign.launch(runs, pool, executor),
        Backend::Remote(remote) => campaign.launch_remote(runs, remote),
    });
    phase(&trace, "db.checkpoint", || campaign.checkpoint())?;
    report.wall_s = wall.elapsed().as_secs_f64();
    report.served =
        (summary.done + summary.failed + summary.timed_out + summary.quarantined) as u64;
    note_summary(&summary, specs.len(), &mut report.errors);

    report.db_bytes = dir_bytes(&db_dir);
    report.db_runs = specs.len() as u64;
    if let Backend::Remote(remote) = &backend {
        report.worker_rss_kb = remote.worker_peak_rss_kb();
        (report.redeliveries, report.reconnects) = remote.delivery_faults();
        // Traced workers write their span files as they exit.
        if !remote.shutdown() {
            report
                .errors
                .push("remote scheduler abandoned work".to_owned());
        }
    }
    phase(&trace, "verify", || {
        verify(spec.name, &campaign, specs.len(), report)
    });
    if let Some(t) = &trace {
        t.tracer.end(t.root);
        match &backend {
            Backend::Pool(pool, _) => report.queue_wait_ms = queue_waits(pool, &t.tracer),
            Backend::Remote(_) => t
                .tracer
                .merge_worker_spans(&adapter::read_worker_spans(&span_dir)),
        }
    }
    Ok(())
}

/// One pass of a campaign workload. Set-up is cheap next to the pass,
/// so an untraced pass sets up `SETUP_REPEATS` times (fresh state each
/// time, the last one used) and reports the median.
fn campaign_pass(
    spec: &CampaignSpec,
    seed: u64,
    work: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<PassReport, String> {
    let mut report = PassReport::default();
    let repeats = if tracer.is_some() { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut ready = None;
    for i in 0..repeats {
        // The previous set-up's database and workers go before the
        // clock starts again.
        drop(ready.take());
        let start = Instant::now();
        ready = Some(campaign_setup(
            spec,
            seed,
            &work.join(format!("setup{i}")),
            tracer,
        )?);
        setups.push(start.elapsed().as_secs_f64());
    }
    report.setup_s = crate::stats::median(&setups);
    let ready = ready.expect("at least one set-up ran");
    campaign_measure(spec, ready, tracer, &mut report)?;
    Ok(report)
}

/// Boots every configuration into the checkpoint store, one at a time.
///
/// Sequential on purpose: two writers racing on a cold key share one
/// temporary file in `CheckpointStore::save`, and roughly one run in a
/// thousand then fails with `checkpoint save failed` (see README).
fn prewarm(store_dir: &Path, base: &[Vec<String>]) -> Result<(), String> {
    let store = adapter::ckpt_open(store_dir)?;
    for params in base {
        adapter::ckpt_boot_or_restore(&store, &adapter::fanout_config(params)?)?;
    }
    Ok(())
}

/// One pass of `reopen_query_check`: the database is built in set-up,
/// the rounds over it are measured.
fn reopen_pass(
    seed: u64,
    work: &Path,
    pristine: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<PassReport, String> {
    let mut report = PassReport::default();
    let workers = workers();
    let base = adapter::fanout_params();

    // ---- set-up: the database the rounds reopen ----------------------
    // Built once per process under `pristine`, then copied into each
    // pass's directory, so every pass starts from identical state
    // without paying the build three times.
    let mut specs = gen::generate(&base, REOPEN_DB_REPLICAS, seed);
    let appends: Vec<Vec<Vec<String>>> = (0..REOPEN_ROUNDS)
        .map(|round| {
            let seed = seed.wrapping_add(1 + round as u64);
            gen::generate(&base, REOPEN_APPEND_REPLICAS, seed)
        })
        .collect();
    let store_dir = pristine.join("checkpoints");
    if !pristine.exists() {
        let build = Instant::now();
        prewarm(&store_dir, &base)?;
        let executor = adapter::restore_executor(adapter::ckpt_open(&store_dir)?, None);
        let (campaign, open_report) = Campaign::open(REOPEN, &pristine.join("db"))?;
        let artifacts = campaign.register(Family::Fanout)?;
        let pool = InProc::new(SchedKind::Pool, workers, false);
        let folded = (specs.len() as f64 * REOPEN_FOLDED_SHARE) as usize;
        for (slice, fold) in [(&specs[..folded], true), (&specs[folded..], false)] {
            let runs = campaign.create_runs(&artifacts, slice)?;
            let summary = campaign.launch(runs, &pool, &executor);
            note_summary(&summary, slice.len(), &mut report.errors);
            if fold {
                campaign.checkpoint()?;
            }
        }
        // Analysis state for the first round's incremental check.
        campaign.record_check(&campaign.check(&open_report)?)?;
        report.setup_once_s = build.elapsed().as_secs_f64();
    }
    let setup = Instant::now();
    let db_dir = work.join("db");
    copy_tree(&pristine.join("db"), &db_dir)
        .map_err(|e| format!("cannot copy the pristine database: {e}"))?;
    let executor =
        adapter::restore_executor(adapter::ckpt_open(&store_dir)?, tracer.map(|t| t.sink()));
    report.setup_s = setup.elapsed().as_secs_f64();

    // ---- measured: the rounds ----------------------------------------
    let trace = tracer.map(|tracer| Trace {
        tracer: Arc::clone(tracer),
        root: tracer.begin("campaign", NO_PARENT),
    });
    let wall = Instant::now();
    let mut served = 0usize;
    for (round, append) in appends.iter().enumerate() {
        let (campaign, open_report) = phase(&trace, "db.open", || Campaign::open(REOPEN, &db_dir))?;
        let artifacts = campaign.register(Family::Fanout)?;
        let pool = InProc::new(SchedKind::Pool, workers, false);
        let runs = phase(&trace, "create_runs", || {
            campaign.create_runs(&artifacts, &specs)
        })?;
        let sample: Vec<_> = runs.iter().take(REOPEN_LOADS).cloned().collect();
        let skipped = phase(&trace, "launch", || {
            campaign.launch_resuming(runs, &pool, &executor)
        });
        if skipped.skipped_done != specs.len() || skipped.total() != specs.len() {
            report.errors.push(format!(
                "round {round}: resume did not skip every run: {skipped:?}"
            ));
        }
        served += skipped.skipped_done;
        let counts = phase(&trace, "query", || {
            [
                campaign.count_done(),
                campaign.count_ticks_above(0),
                campaign.count_output_dir_contains("results"),
                campaign.count_runs_using_kernel(&artifacts),
                sample
                    .iter()
                    .filter(|run| campaign.load_results_len(run).is_some())
                    .count(),
            ]
        });
        if counts[..4] != [specs.len(); 4] || counts[4] != sample.len() {
            report.errors.push(format!(
                "round {round}: query counts {counts:?} for {} runs",
                specs.len()
            ));
        }
        served += counts.iter().sum::<usize>();
        let diagnostics = phase(&trace, "lint", || campaign.lint_full());
        if diagnostics != 0 {
            report.errors.push(format!(
                "round {round}: lint reports {diagnostics} diagnostics"
            ));
        }
        served += specs.len();
        let fresh = phase(&trace, "create_runs", || {
            campaign.create_runs(&artifacts, append)
        })?;
        let appended = phase(&trace, "launch", || {
            campaign.launch(fresh, &pool, &executor)
        });
        note_summary(&appended, append.len(), &mut report.errors);
        served += appended.done;
        specs.extend(append.iter().cloned());
        let checked = phase(&trace, "lint", || {
            let checked = campaign.check(&open_report)?;
            campaign.record_check(&checked).map(|()| checked)
        })?;
        if checked.diagnostics != 0 || !checked.incremental {
            report.errors.push(format!(
                "round {round}: incremental check: {} diagnostics, resumed={}",
                checked.diagnostics, checked.incremental
            ));
        }
        if round + 1 == appends.len() {
            phase(&trace, "db.checkpoint", || campaign.checkpoint())?;
        }
    }
    report.wall_s = wall.elapsed().as_secs_f64();
    report.served = served as u64;

    // ---- not timed ---------------------------------------------------
    report.db_bytes = dir_bytes(&db_dir);
    report.db_runs = specs.len() as u64;
    let (campaign, _) = Campaign::open(REOPEN, &db_dir)?;
    phase(&trace, "verify", || {
        verify(REOPEN, &campaign, specs.len(), &mut report)
    });
    if let Some(t) = &trace {
        t.tracer.end(t.root);
    }
    Ok(report)
}

/// Runs one pass of `workload` in the fresh directory `work`, which is
/// removed afterwards; state kept for the process's later passes goes
/// next to it.
pub fn run_pass(
    workload: &str,
    seed: u64,
    work: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<PassReport, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let report = match CAMPAIGNS.iter().find(|spec| spec.name == workload) {
        Some(spec) => campaign_pass(spec, seed, work, tracer),
        None if workload == REOPEN => {
            reopen_pass(seed, work, &work.with_file_name("pristine"), tracer)
        }
        None => Err(format!("unknown workload `{workload}`")),
    };
    // The pass's scratch state goes whether or not the pass worked.
    let _ = std::fs::remove_dir_all(work);
    report
}

/// The scratch directory passes of this process work in.
pub fn work_root(out_dir: &Path) -> PathBuf {
    out_dir.join("work").join(std::process::id().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(params: &[&str], ticks: u64) -> Record {
        Record {
            params: params.iter().map(|p| (*p).to_owned()).collect(),
            status: "done".to_owned(),
            outcome: "success".to_owned(),
            sim_ticks: ticks,
            payload_md5: Some("00".to_owned()),
        }
    }

    #[test]
    fn digest_ignores_order_and_replica_tags() {
        let a = [
            record(&["kvm", "1", "rep=0000000000000007-000001"], 5),
            record(&["o3", "2", "rep=0000000000000007-000000"], 9),
        ];
        let b = [
            record(&["o3", "2", "rep=0000000000000008-000001"], 9),
            record(&["kvm", "1", "rep=0000000000000008-000000"], 5),
        ];
        assert_eq!(digest_records(&a), digest_records(&b));
        let c = [a[0].clone(), record(&["o3", "2", "rep=x"], 10)];
        assert_ne!(
            digest_records(&a).0,
            digest_records(&c).0,
            "ticks are covered"
        );
    }

    #[test]
    fn digest_counts_runs_without_verified_results() {
        let mut queued = record(&["kvm", "1"], 1);
        queued.status = "queued".to_owned();
        let mut lost = record(&["kvm", "2"], 1);
        lost.payload_md5 = None;
        let (_, bad) = digest_records(&[record(&["kvm", "4"], 1), queued, lost]);
        assert_eq!(bad, 2);
    }

    #[test]
    fn same_seed_same_inputs_and_digest_is_seed_free() {
        let base = adapter::fanout_params();
        assert_eq!(gen::generate(&base, 3, 11), gen::generate(&base, 3, 11));
        let as_records = |seed: u64| -> Vec<Record> {
            gen::generate(&base, 3, seed)
                .iter()
                .map(|params| {
                    let params: Vec<&str> = params.iter().map(String::as_str).collect();
                    record(&params, 1)
                })
                .collect()
        };
        assert_ne!(gen::generate(&base, 3, 11), gen::generate(&base, 3, 12));
        assert_eq!(
            digest_records(&as_records(11)),
            digest_records(&as_records(12))
        );
    }

    #[test]
    fn every_workload_has_a_pass_and_a_one_line_why() {
        for workload in &WORKLOADS {
            assert!(
                workload.name == REOPEN || CAMPAIGNS.iter().any(|c| c.name == workload.name),
                "{}",
                workload.name
            );
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
            assert_eq!(workload.digest.len(), 32);
        }
    }
}
