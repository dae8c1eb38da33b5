//! Isolated per-layer loops: each times one public entry point of one
//! layer over generated inputs, from outside the program.
//!
//! Per-operation metrics are the median of their samples unless the
//! name says otherwise; counts are exact.

use crate::adapter::{self, Campaign, Db, Family, InProc, Remote, SchedKind, Ticket, Wire};
use crate::gen;
use crate::stats::{median, percentile};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Runs in the control-plane loops.
const RUNS: usize = 1000;
/// Runs appended before the incremental check.
const APPENDED: usize = 96;
/// No-op tasks per scheduler in the dispatch loops.
const TASKS: usize = 2000;
/// Round trips per codec loop.
const CODEC_ITERS: usize = 2000;
/// Collection sizes for the update-slope pair.
const SMALL: usize = 1000;
const LARGE: usize = 12_000;
/// Distinct blobs written (each is fsynced at checkpoint).
const BLOBS: usize = 200;
/// Journal records left unfolded before the reopen.
const UNFOLDED: usize = 2000;
/// Restores timed against a warm checkpoint store.
const RESTORES: usize = 1000;

pub type Metrics = Vec<(String, f64)>;

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Times `op` once per item, returning the samples in µs.
fn each_us<T>(items: &[T], mut op: impl FnMut(usize, &T) -> bool) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let start = Instant::now();
        let ok = black_box(op(i, black_box(item)));
        samples.push(us(start));
        if !ok {
            return Err(format!("layer loop: operation {i} failed"));
        }
    }
    Ok(samples)
}

fn fanout_specs(replicas: usize, seed: u64) -> Vec<Vec<String>> {
    gen::generate(&adapter::fanout_params(), replicas, seed)
}

/// `artifact.register_us`: per artifact, over fresh registries.
fn artifact_layer(out: &mut Metrics) -> Result<(), String> {
    let mut samples = Vec::new();
    for i in 0..30 {
        let campaign = Campaign::in_memory(&format!("register-{i}"));
        let start = Instant::now();
        campaign.register(Family::Boot)?;
        samples.push(us(start) / campaign.artifact_count() as f64);
    }
    out.push(("artifact.register_us".into(), median(&samples)));
    Ok(())
}

/// `run.*`: the run store's calls, one sample per run, on a journaled
/// database.
fn run_layer(out: &mut Metrics, work: &Path, seed: u64) -> Result<(), String> {
    let (campaign, _) = Campaign::open("layers-run", &work.join("run-db"))?;
    let artifacts = campaign.register(Family::Fanout)?;
    let specs = fanout_specs(RUNS.div_ceil(16), seed);
    let mut runs = Vec::with_capacity(specs.len());
    let create = each_us(&specs, |_, params| {
        campaign
            .create_run(&artifacts, params)
            .map(|run| runs.push(run))
            .is_ok()
    })?;
    let payload = vec![b's'; 732];
    let loops: [(&str, Vec<f64>); 7] = [
        ("run.create_us", create),
        (
            "run.record_us",
            each_us(&runs, |_, run| campaign.record(run))?,
        ),
        (
            "run.transition_us",
            each_us(&runs, |_, run| campaign.transition_queued(run))?,
        ),
        (
            "run.log_event_us",
            each_us(&runs, |_, run| {
                campaign.log_event(run, "remote-dispatch:1:g1")
            })?,
        ),
        (
            "run.attach_results_us",
            each_us(&runs, |i, run| {
                campaign.attach_results(run, i as u64 + 1, &payload)
            })?,
        ),
        (
            "run.record_attempt_us",
            each_us(&runs, |_, run| campaign.record_attempt(run))?,
        ),
        (
            "run.find_by_hash_us",
            each_us(&runs, |_, run| campaign.find_by_hash(run))?,
        ),
    ];
    for (name, samples) in loops {
        out.push((name.into(), median(&samples)));
    }
    Ok(())
}

/// `core.launch_overhead_us_per_run.*`, `core.resume_skip_us_per_run`,
/// `analyze.check_*`: whole launches with an executor that does
/// nothing, on the serial scheduler.
fn core_layer(out: &mut Metrics, work: &Path, seed: u64) -> Result<(), String> {
    let serial = InProc::new(SchedKind::Serial, 1, false);
    let noop = adapter::noop_executor();
    let specs = fanout_specs(RUNS.div_ceil(16), seed);
    let launch_us_per_run = |campaign: &Campaign| -> Result<f64, String> {
        let artifacts = campaign.register(Family::Fanout)?;
        let runs = campaign.create_runs(&artifacts, &specs)?;
        let start = Instant::now();
        let summary = campaign.launch(runs, &serial, &noop);
        let elapsed = us(start);
        if summary.done != specs.len() {
            return Err(format!(
                "no-op launch did not finish every run: {summary:?}"
            ));
        }
        Ok(elapsed / specs.len() as f64)
    };
    out.push((
        "core.launch_overhead_us_per_run.mem".into(),
        launch_us_per_run(&Campaign::in_memory("layers-mem"))?,
    ));
    let (campaign, report) = Campaign::open("layers-disk", &work.join("core-db"))?;
    out.push((
        "core.launch_overhead_us_per_run.disk".into(),
        launch_us_per_run(&campaign)?,
    ));

    let artifacts = campaign.register(Family::Fanout)?;
    let runs = campaign.create_runs(&artifacts, &specs)?;
    let start = Instant::now();
    let skipped = campaign.launch_resuming(runs, &serial, &noop);
    let elapsed = us(start);
    if skipped.skipped_done != specs.len() {
        return Err(format!("resume did not skip every run: {skipped:?}"));
    }
    out.push((
        "core.resume_skip_us_per_run".into(),
        elapsed / specs.len() as f64,
    ));

    let start = Instant::now();
    let diagnostics = campaign.lint_full();
    out.push(("analyze.check_full_ms".into(), ms(start)));
    campaign.record_check(&campaign.check(&report)?)?;
    let appended = fanout_specs(APPENDED / 16, seed.wrapping_add(1));
    let summary = campaign.launch(campaign.create_runs(&artifacts, &appended)?, &serial, &noop);
    let start = Instant::now();
    let checked = campaign.check(&report)?;
    out.push(("analyze.check_incr_ms".into(), ms(start)));
    if diagnostics != 0
        || checked.diagnostics != 0
        || !checked.incremental
        || summary.done != appended.len()
    {
        return Err(format!(
            "check loop: {diagnostics}/{} diagnostics, resumed={}",
            checked.diagnostics, checked.incremental
        ));
    }
    Ok(())
}

/// `db.*`: the document store and blob store under the run store.
fn db_layer(out: &mut Metrics, work: &Path) -> Result<(), String> {
    let dir = work.join("bare-db");
    let small_docs: Vec<usize> = (0..SMALL).collect();
    let large_docs: Vec<usize> = (0..LARGE).collect();
    let probes: Vec<usize> = (0..SMALL).map(|i| i * (LARGE / SMALL)).collect();
    {
        let db = Db::open(&dir)?;
        if !(db.ensure_indexes("n1k") && db.ensure_indexes("n12k")) {
            return Err("cannot declare indexes".into());
        }
        each_us(&small_docs, |_, &i| {
            db.insert("n1k", adapter::sample_doc(i))
        })?;
        let insert = each_us(&large_docs, |_, &i| {
            db.insert("n12k", adapter::sample_doc(i))
        })?;
        out.push(("db.insert_us".into(), median(&insert)));
        // The same update at two collection sizes: the difference is
        // what a copy-on-write shard costs as it grows.
        let small = each_us(&small_docs, |_, &i| db.update_status("n1k", i, "running"))?;
        let large = each_us(&probes, |_, &i| db.update_status("n12k", i, "running"))?;
        out.push(("db.update_us.n1k".into(), median(&small)));
        out.push(("db.update_us.n12k".into(), median(&large)));

        let blobs: Vec<Vec<u8>> = (0..BLOBS)
            .map(|i| format!("{i:0>732}").into_bytes())
            .collect();
        let mut keys = Vec::with_capacity(BLOBS);
        let put = each_us(&blobs, |_, bytes| {
            keys.push(db.blob_put(bytes.clone()));
            true
        })?;
        out.push(("db.blob_put_us".into(), median(&put)));
        let get = each_us(&keys, |_, key| db.blob_get(key) == Some(732))?;
        out.push(("db.blob_get_us".into(), median(&get)));

        let indexed = each_us(&probes, |_, &i| db.find_by_hash("n12k", i) == 1)?;
        out.push(("db.find_indexed_us".into(), median(&indexed)));
        let scans: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                black_box(db.scan_weight_above("n12k", 500));
                ms(start)
            })
            .collect();
        out.push(("db.find_scan_ms".into(), median(&scans)));

        let start = Instant::now();
        if !db.checkpoint() {
            return Err("checkpoint failed".into());
        }
        out.push(("db.checkpoint_ms".into(), ms(start)));
        // Leave a journal tail for the reopen to replay.
        let tail: Vec<usize> = (0..UNFOLDED).map(|i| i * (LARGE / UNFOLDED)).collect();
        each_us(&tail, |_, &i| db.update_status("n12k", i, "done"))?;
    }
    let start = Instant::now();
    let records = adapter::journal_records(&dir);
    out.push(("db.journal_replay_ms".into(), ms(start)));
    let start = Instant::now();
    let db = Db::open(&dir)?;
    out.push(("db.open_ms".into(), ms(start)));
    if db.len("n12k") != LARGE || records < UNFOLDED {
        return Err(format!(
            "reopen saw {} documents and {records} journal records",
            db.len("n12k")
        ));
    }
    Ok(())
}

/// `core.remote_codec_us`, `tasks.wire_frame_us`: pure codecs.
fn codec_layer(out: &mut Metrics, seed: u64) -> Result<(), String> {
    let params = fanout_specs(1, seed).swap_remove(0);
    let outcome = adapter::sample_outcome();
    let start = Instant::now();
    for _ in 0..CODEC_ITERS {
        if !black_box(adapter::remote_codec_round_trip(
            black_box(&params),
            &outcome,
        )) {
            return Err("remote codec did not round-trip".into());
        }
    }
    out.push((
        "core.remote_codec_us".into(),
        us(start) / CODEC_ITERS as f64,
    ));
    let payload = adapter::sample_wire_payload(&params);
    let start = Instant::now();
    for job in 0..CODEC_ITERS {
        if !black_box(adapter::wire_frame_round_trip(
            job as u64 + 1,
            black_box(&payload),
        )) {
            return Err("wire frame did not round-trip".into());
        }
    }
    out.push(("tasks.wire_frame_us".into(), us(start) / CODEC_ITERS as f64));
    Ok(())
}

/// Per-task µs for `TASKS` no-op tasks, first submit → last report.
fn dispatch_us(submit: impl Fn(String) -> Option<Ticket>) -> Result<f64, String> {
    let start = Instant::now();
    let tickets: Vec<_> = (0..TASKS).map(|i| submit(format!("noop-{i}"))).collect();
    // Counting waits for every ticket, so the clock stops at the last
    // report (`all` would stop at the first failure).
    let failed = tickets
        .into_iter()
        .map(|ticket| ticket.is_some_and(Ticket::wait))
        .filter(|ok| !ok)
        .count();
    let per_task = us(start) / TASKS as f64;
    match failed {
        0 => Ok(per_task),
        n => Err(format!("{n} no-op tasks failed or were refused")),
    }
}

/// `tasks.dispatch_us.*`: every scheduler on the same no-op tasks.
fn dispatch_layer(out: &mut Metrics, workers: usize) -> Result<(), String> {
    for (name, kind) in [
        ("serial", SchedKind::Serial),
        ("pool", SchedKind::Pool),
        ("broker", SchedKind::Broker),
    ] {
        let scheduler = InProc::new(kind, workers, false);
        let per_task = dispatch_us(|task| Some(scheduler.submit_noop(task)))?;
        out.push((format!("tasks.dispatch_us.{name}"), per_task));
    }
    for (name, wire) in [("remote_pipe", Wire::Pipe), ("remote_tcp", Wire::Tcp)] {
        let remote = Remote::spawn(wire, workers, None, None)?;
        let per_task = dispatch_us(|task| remote.submit_noop(task))?;
        out.push((format!("tasks.dispatch_us.{name}"), per_task));
        if !remote.shutdown() {
            return Err(format!("{name} scheduler abandoned work at shutdown"));
        }
    }
    Ok(())
}

/// `fullsim.*`: the simulator's entry points, one call per sample.
fn fullsim_layer(out: &mut Metrics, work: &Path) -> Result<(), String> {
    let figure8 = adapter::figure8_params();
    let mut configs = Vec::with_capacity(figure8.len());
    let build = each_us(&figure8, |_, params| {
        adapter::boot_config(params)
            .map(|config| configs.push(config))
            .is_ok()
    })?;
    out.push(("fullsim.config_build_us".into(), median(&build)));
    let mut outputs = Vec::with_capacity(configs.len());
    let boot = each_us(&configs, |_, config| {
        adapter::sim_boot(config)
            .map(|output| outputs.push(output))
            .is_ok()
    })?;
    out.push(("fullsim.boot_cold_us_p50".into(), percentile(&boot, 50.0)));
    out.push(("fullsim.boot_cold_us_p95".into(), percentile(&boot, 95.0)));
    let dump = each_us(&outputs, |_, output| {
        !adapter::stats_dump(output).is_empty()
    })?;
    out.push(("fullsim.stats_dump_us".into(), median(&dump)));
    let (hits, misses, events) = outputs
        .iter()
        .map(adapter::boot_counters)
        .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
    out.push((
        "fullsim.decode_hit_rate".into(),
        hits as f64 / (hits + misses).max(1) as f64,
    ));
    out.push((
        "fullsim.boot_events_per_run".into(),
        events as f64 / outputs.len() as f64,
    ));

    // Table II on the OS both systems boot, at the two cheaper core
    // counts: 20 samples per system (too few for a p95).
    for (name, system) in [("timing", "timing-classic"), ("o3", "o3-mesi")] {
        let table2: Vec<Vec<String>> = adapter::table2_params()
            .into_iter()
            .filter(|p| p[1] == "ubuntu-18.04" && p[2] != "8" && p[3] == system)
            .collect();
        let samples = each_us(&table2, |_, params| {
            adapter::parsec_config(params)
                .and_then(|config| adapter::sim_workload(&config, params))
                .is_ok()
        })?;
        out.push((
            format!("fullsim.workload_us_p50.{name}"),
            percentile(&samples, 50.0),
        ));
    }

    let store = adapter::ckpt_open(&work.join("checkpoints"))?;
    let fanout: Vec<_> = adapter::fanout_params()
        .iter()
        .map(|params| adapter::fanout_config(params))
        .collect::<Result<_, _>>()?;
    for config in &fanout {
        adapter::ckpt_boot_or_restore(&store, config)?;
    }
    let restores: Vec<&adapter::SimConfig> = fanout.iter().cycle().take(RESTORES).collect();
    let restore = each_us(&restores, |_, config| {
        matches!(
            adapter::ckpt_boot_or_restore(&store, config),
            Ok((_, events)) if events.iter().any(|e| e.starts_with("checkpoint-restore:"))
        )
    })?;
    out.push(("fullsim.boot_restore_us".into(), median(&restore)));
    Ok(())
}

/// Every isolated loop, in layer order. `work` is a scratch directory
/// the caller removes.
pub fn measure(work: &Path, seed: u64, workers: usize) -> Result<Metrics, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let mut out = Metrics::new();
    artifact_layer(&mut out)?;
    run_layer(&mut out, work, seed)?;
    core_layer(&mut out, work, seed)?;
    db_layer(&mut out, work)?;
    codec_layer(&mut out, seed)?;
    dispatch_layer(&mut out, workers)?;
    fullsim_layer(&mut out, work)?;
    Ok(out)
}
