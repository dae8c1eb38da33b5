//! `simart` — the command-line front end.
//!
//! ```text
//! simart catalog                     list the resource catalog (Table I)
//! simart boot [options]              boot one full-system configuration
//! simart parsec <app> [options]      boot + run one PARSEC application
//! simart gpu <app> [--alloc X]       run one GPU kernel
//! simart campaign [options]          run (or resume) a persisted boot campaign
//! simart metrics [options]           report profiling metrics from a saved campaign
//! simart quarantine [options]        inspect or release dead-lettered runs
//! simart check [options]             lint a run database's provenance
//! simart selftest                    run the bundled test programs
//! simart matrix                      triage the Figure 8 boot matrix
//! ```
//!
//! Exit code 2 is a usage problem. An option the subcommand does not
//! have, or a value it cannot read, is one — nothing mistyped falls
//! back to a default.

use simart::analyze::diag::{has_errors, render_json, render_text};
use simart::analyze::{lint, LintLevels};
use simart::artifact::{Artifact, ArtifactId, ArtifactKind, ContentSource};
use simart::cross::CrossProduct;
use simart::db::Database;
use simart::gpu::alloc::AllocPolicy;
use simart::gpu::{workloads, Gpu};
use simart::kinds::RunKind;
use simart::report::Table;
use simart::resources::{tests_resource, Catalog};
use simart::run::{RunStatus, RunStore};
use simart::sim::compat::{evaluate, figure8_configs};
use simart::sim::cpu::CpuKind;
use simart::sim::kernel::{BootKind, KernelVersion};
use simart::sim::mem::MemKind;
use simart::sim::os::OsImage;
use simart::sim::system::{Fidelity, SystemConfig};
use simart::sim::ticks::format_ticks;
use simart::sim::workload::{gapbs_profile, npb_profile, parsec_profile, InputSize};
use simart::tasks::{
    BrokerScheduler, FaultInjector, RemoteConfig, RemoteScheduler, RetryPolicy, Scheduler,
    SupervisorConfig, TransportKind, WorkerCommand,
};
use simart::{Experiment, LaunchOptions};
use std::fmt;
use std::io::{ErrorKind, Write};
use std::sync::Arc;

/// Writes to stdout, where every human-facing line of the program
/// goes. A reader that went away (`simart check | head`) stops the
/// program with status 141, what a shell reports for a process killed
/// by SIGPIPE, so a cut-off report never reads as a clean one.
fn emit(text: fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    if let Err(err) = stdout.write_fmt(text).and_then(|()| stdout.flush()) {
        if err.kind() == ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        panic!("failed printing to stdout: {err}");
    }
}

/// `println!` through [`emit`].
macro_rules! say {
    () => {
        emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` through [`emit`].
macro_rules! show {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(cmd) = args.first() {
        check_options(cmd, &args[1..]);
    }
    let code = match args.first().map(String::as_str) {
        // Hidden subcommand: run as a remote campaign worker. Over
        // pipes stdout is the wire — the handler registry must never
        // print to it; with --connect the socket is the wire instead.
        Some("worker") => {
            let registry = simart::remote::campaign_registry();
            match flag(&args[1..], "--connect") {
                Some(addr) => simart::tasks::worker_main_connect(&registry, &addr),
                None => simart::tasks::worker_main(&registry),
            }
        }
        Some("catalog") => catalog(),
        Some("boot") => boot(&args[1..]),
        Some("parsec") => workload_cmd(&args[1..], "parsec"),
        Some("npb") => workload_cmd(&args[1..], "npb"),
        Some("gapbs") => workload_cmd(&args[1..], "gapbs"),
        Some("gpu") => gpu(&args[1..]),
        Some("campaign") => campaign(&args[1..]),
        Some("metrics") => metrics(&args[1..]),
        Some("quarantine") => quarantine(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("selftest") => selftest(),
        Some("matrix") => matrix(),
        _ => {
            eprintln!(
                "usage: simart <catalog|boot|parsec|npb|gapbs|gpu|campaign|metrics|quarantine|check|selftest|matrix> [options]\n\
                 \n\
                 boot options:     --cpu kvm|atomic|timing|o3  --cores N  --mem classic|coherent|mi|mesi\n\
                 \u{20}                 --kernel 4.4|4.9|4.14|4.15|4.19|5.4  --boot kernel|systemd\n\
                 parsec options:   <app> --os 18.04|20.04 --cores N\n\
                 gpu options:      <app> --alloc simple|dynamic\n\
                 campaign options: --db DIR  --resume  --retries N  --trace-out FILE\n\
                 \u{20}                 --fault-rate R --fault-seed S (deterministic fault injection)\n\
                 \u{20}                 --scheduler pool|broker|remote  --workers N  (pool = broker:\n\
                 \u{20}                 one supervised thread driver)  --max-redeliveries N  --kill-rate R\n\
                 \u{20}                 --transport pipe|tcp  --partition-rate R (network chaos, tcp only)\n\
                 \u{20}                 --checkpoint-dir DIR (boot once, restore many)\n\
                 \u{20}                 --check (lint the database after the campaign)\n\
                 metrics options:  --db DIR  --format text|json\n\
                 quarantine opts:  --db DIR  --format text|json  --release ID\n\
                 check options:    --db DIR  --format text|json  --deny LINT  --allow LINT\n\
                 \u{20}                 --incremental (resume from recorded analysis state)\n\
                 \u{20}                 --self-test (LINT: warnings, SAxxxx, or a lint name)"
            );
            2
        }
    };
    std::process::exit(code);
}

/// Prints one `error:` line and exits 2, the usage-problem code of
/// every subcommand.
fn usage_error(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// The options `cmd` understands: those that take a value, then the
/// bare switches.
fn options_of(cmd: &str) -> (&'static [&'static str], &'static [&'static str]) {
    match cmd {
        "worker" => (&["--connect"], &[]),
        "boot" => (&["--cpu", "--cores", "--mem", "--kernel", "--boot"], &[]),
        "parsec" | "npb" | "gapbs" => (&["--os", "--cores"], &[]),
        "gpu" => (&["--alloc"], &[]),
        "campaign" => (
            &[
                "--db",
                "--trace-out",
                "--retries",
                "--fault-rate",
                "--fault-seed",
                "--scheduler",
                "--workers",
                "--max-redeliveries",
                "--kill-rate",
                "--transport",
                "--partition-rate",
                "--checkpoint-dir",
            ],
            &["--resume", "--check"],
        ),
        "metrics" => (&["--db", "--format"], &[]),
        "quarantine" => (&["--db", "--format", "--release"], &[]),
        "check" => (
            &["--db", "--format", "--deny", "--allow"],
            &["--incremental", "--self-test"],
        ),
        _ => (&[], &[]),
    }
}

/// Refuses what `cmd` would otherwise ignore: an `--option` it does
/// not have, or a valued option with nothing after it.
fn check_options(cmd: &str, args: &[String]) {
    let (valued, switches) = options_of(cmd);
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if valued.contains(&arg) {
            if rest.next().is_none() {
                usage_error(format!("{arg} needs a value"));
            }
        } else if arg.starts_with("--") && !switches.contains(&arg) {
            usage_error(format!("unknown option `{arg}` for `simart {cmd}`"));
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The value of `--name` as read by `parse`, or `default` when the
/// option is absent. A value `parse` refuses is a usage error — never
/// the default, which would run something other than what was asked.
fn parsed<T>(args: &[String], name: &str, default: T, parse: impl Fn(&str) -> Option<T>) -> T {
    match flag(args, name) {
        None => default,
        Some(value) => parse(&value)
            .unwrap_or_else(|| usage_error(format!("invalid value `{value}` for {name}"))),
    }
}

fn number<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

/// All values of a repeatable `--name value` flag, in order.
fn flag_values(args: &[String], name: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .cloned()
        .collect()
}

fn catalog() -> i32 {
    let catalog = Catalog::standard();
    let mut table = Table::new("Resources", &["name", "type", "variant"]);
    for resource in catalog.iter() {
        table.row(&[
            resource.name.to_owned(),
            resource.kind.to_string(),
            resource.variant.to_owned(),
        ]);
    }
    say!("{}", table.render());
    0
}

fn boot(args: &[String]) -> i32 {
    let cpu = parsed(args, "--cpu", CpuKind::TimingSimple, |s| {
        CpuKind::from_short(s).ok()
    });
    let cores: u32 = parsed(args, "--cores", 1, number);
    let mem = parsed(args, "--mem", MemKind::classic_fast(), |s| {
        MemKind::from_short(s).ok()
    });
    let kernel = parsed(args, "--kernel", KernelVersion::V5_4, |s| {
        KernelVersion::from_line(s).ok()
    });
    let boot_kind = parsed(args, "--boot", BootKind::Systemd, |s| match s {
        "kernel" => Some(BootKind::KernelOnly),
        "systemd" => Some(BootKind::Systemd),
        _ => None,
    });
    let config = match SystemConfig::builder()
        .cpu(cpu)
        .cores(cores)
        .memory(mem)
        .kernel(kernel)
        .boot(boot_kind)
        .fidelity(Fidelity::Standard)
        .build()
    {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    match config.boot_only() {
        Ok(output) => {
            say!("configuration : {}", config.label());
            say!("outcome       : {}", output.outcome);
            say!("boot time     : {}", format_ticks(output.sim_ticks));
            say!("instructions  : {}", output.instructions);
            say!("host estimate : {:.1}s", output.host_seconds);
            if output.outcome.is_success() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn workload_cmd(args: &[String], suite: &str) -> i32 {
    let Some(app) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: simart {suite} <app> [--os 18.04|20.04] [--cores N]");
        return 2;
    };
    let profile = match suite {
        "parsec" => parsec_profile(app),
        "npb" => npb_profile(app),
        _ => gapbs_profile(app),
    };
    let Some(profile) = profile else {
        eprintln!("error: unknown {suite} application `{app}`");
        return 2;
    };
    let os = parsed(args, "--os", OsImage::Ubuntu1804, |s| {
        format!("ubuntu-{s}").parse().ok()
    });
    let cores: u32 = parsed(args, "--cores", 2, number);
    let config = match SystemConfig::builder()
        .cores(cores)
        .os(os)
        .fidelity(Fidelity::Standard)
        .build()
    {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    match config.run_workload(&profile, InputSize::SimMedium) {
        Ok(output) => {
            say!("{app} on {os} with {cores} core(s):");
            say!("  outcome      : {}", output.outcome);
            say!("  exec time    : {}", format_ticks(output.sim_ticks));
            say!("  instructions : {}", output.instructions);
            say!(
                "  IPC/core     : {:.3}",
                output.stats.scalar("workload.utilization")
            );
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn gpu(args: &[String]) -> i32 {
    let Some(app) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: simart gpu <app> [--alloc simple|dynamic]");
        return 2;
    };
    let Some(kernel) = workloads::by_name(app) else {
        eprintln!("error: unknown GPU workload `{app}`");
        return 2;
    };
    let policy = parsed(args, "--alloc", AllocPolicy::Simple, |s| match s {
        "simple" => Some(AllocPolicy::Simple),
        "dynamic" => Some(AllocPolicy::Dynamic),
        _ => None,
    });
    let result = Gpu::table3().run(&kernel, policy);
    say!("{app} under the {policy} register allocator:");
    say!("  shader ticks  : {}", result.ticks);
    say!("  instructions  : {}", result.instructions);
    say!("  occupancy/CU  : {}", result.peak_occupancy);
    say!("  lock retries  : {}", result.lock_retries);
    0
}

/// Registers the fixed artifact set every campaign session uses.
///
/// Contents are byte-identical across sessions, so artifact ids and
/// run hashes are stable and `--resume` can match stored records.
fn register_campaign_artifacts(
    experiment: &Experiment,
) -> Result<[ArtifactId; 5], simart::ExperimentError> {
    let repo = experiment.register_artifact(
        Artifact::builder("sim-repo", ArtifactKind::GitRepo)
            .documentation("simulator sources")
            .content(ContentSource::git(
                "https://example.org/simart",
                "campaign-rev",
            )),
    )?;
    let binary = experiment.register_artifact(
        Artifact::builder("sim", ArtifactKind::Binary)
            .documentation("simulator binary")
            // The simulated model is what the binary is: a new model
            // gives the campaign's runs new hashes.
            .content(ContentSource::bytes(
                format!("simart-binary:{}", simart::sim::MODEL).into_bytes(),
            ))
            .input(repo.id()),
    )?;
    let script = experiment.register_artifact(
        Artifact::builder("boot-script", ArtifactKind::RunScript)
            .documentation("boot configuration")
            .content(ContentSource::bytes(b"boot-config".to_vec())),
    )?;
    let kernel = experiment.register_artifact(
        Artifact::builder("vmlinux", ArtifactKind::Kernel)
            .documentation("linux kernel")
            .content(ContentSource::bytes(b"vmlinux-5.4".to_vec())),
    )?;
    let disk = experiment.register_artifact(
        Artifact::builder("disk", ArtifactKind::DiskImage)
            .documentation("ubuntu image")
            .content(ContentSource::bytes(b"ubuntu-18.04.img".to_vec())),
    )?;
    Ok([binary.id(), repo.id(), script.id(), kernel.id(), disk.id()])
}

fn campaign(args: &[String]) -> i32 {
    let db_dir = flag(args, "--db").map(std::path::PathBuf::from);
    let trace_out = flag(args, "--trace-out").map(std::path::PathBuf::from);
    let resume = args.iter().any(|a| a == "--resume");
    let retries: u32 = parsed(args, "--retries", 0, number);
    let fault_rate: f64 = parsed(args, "--fault-rate", 0.0, number);
    let fault_seed: u64 = parsed(args, "--fault-seed", 0, number);
    let kill_rate: f64 = parsed(args, "--kill-rate", 0.0, number);
    let partition_rate: f64 = parsed(args, "--partition-rate", 0.0, number);
    let scheduler_kind = flag(args, "--scheduler").unwrap_or_else(|| "pool".to_owned());
    if !["pool", "broker", "remote"].contains(&scheduler_kind.as_str()) {
        eprintln!("error: unknown scheduler `{scheduler_kind}` (expected pool, broker, or remote)");
        return 2;
    }
    let transport: TransportKind = match flag(args, "--transport")
        .as_deref()
        .unwrap_or("pipe")
        .parse()
    {
        Ok(kind) => kind,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if transport == TransportKind::Tcp && scheduler_kind != "remote" {
        eprintln!("error: --transport tcp requires --scheduler remote");
        return 2;
    }
    // Network chaos injects faults on real worker connections; only
    // the TCP transport has connections to partition.
    if partition_rate > 0.0 && transport != TransportKind::Tcp {
        eprintln!("error: --partition-rate requires --transport tcp");
        return 2;
    }
    let workers: usize = parsed(args, "--workers", 2, number);
    // Remote workers are supervised by redelivery, and their faults are
    // real process kills; a worker process has no per-attempt retry or
    // in-process error injection to hand these two options to.
    if scheduler_kind == "remote" && retries > 0 {
        eprintln!("error: --retries has no effect with --scheduler remote; use --max-redeliveries");
        return 2;
    }
    if scheduler_kind == "remote" && fault_rate > 0.0 {
        eprintln!("error: --fault-rate has no effect with --scheduler remote; use --kill-rate");
        return 2;
    }
    let max_redeliveries: u32 = parsed(args, "--max-redeliveries", 1, number);

    let check_after = args.iter().any(|a| a == "--check");

    // "Boot once, restore many": export the checkpoint directory so
    // the shared executor (and any spawned `simart worker` process,
    // which inherits the environment) restores boot prefixes from the
    // content-addressed store instead of re-simulating them.
    if let Some(dir) = flag(args, "--checkpoint-dir") {
        std::env::set_var(simart::remote::CHECKPOINT_DIR_ENV, &dir);
        say!("boot checkpoints: {dir}");
    }

    // A campaign with a database directory runs *attached*: every run
    // insert and status transition appends to the write-ahead journal
    // as it happens, so killing the process at any instant loses no
    // completed run — `--resume` replays the journal and skips them.
    // The load report feeds the post-run check (--check): journal
    // divergence observed at open invalidates recorded analysis state.
    let mut load_report = simart::db::LoadReport::default();
    let db = match &db_dir {
        Some(dir) => match Database::open_with(dir, &simart::db::LoadOptions::default()) {
            Ok((db, report)) => {
                if let Some(warning) = report.warning(dir) {
                    eprintln!("{warning}");
                }
                load_report = report;
                db
            }
            Err(e) => {
                eprintln!("error: cannot open database at {}: {e}", dir.display());
                return 2;
            }
        },
        None => Database::in_memory(),
    };
    let experiment = match Experiment::with_database("campaign", db) {
        Ok(experiment) => experiment,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let [binary, repo, script, kernel, disk] = match register_campaign_artifacts(&experiment) {
        Ok(ids) => ids,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    // A boot campaign: its runs read `[cpu, cores]` and nothing else
    // (suite workloads run through `simart parsec|npb|gapbs`).
    let sweep = CrossProduct::new()
        .axis("cpu", ["kvm", "atomic", "timing"])
        .axis("cores", ["1", "2"]);
    let mut runs = Vec::with_capacity(sweep.len());
    for combo in sweep.iter() {
        let run = experiment.create_fs_run(|b| {
            let mut b = b
                .simulator(binary, "sim")
                .simulator_repo(repo)
                .run_script(script, RunKind::CampaignBoot.script())
                .kernel(kernel, "vmlinux-5.4")
                .disk_image(disk, "ubuntu.img");
            for param in combo.params() {
                b = b.param(param);
            }
            b
        });
        match run {
            Ok(run) => runs.push(run),
            Err(e) => {
                eprintln!("error: cannot create run for {}: {e}", combo.label());
                return 2;
            }
        }
    }

    let mut options = if resume {
        LaunchOptions::resuming()
    } else {
        LaunchOptions::default()
    };
    if retries > 0 {
        options = options.retry_policy(RetryPolicy::immediate(retries + 1));
    }
    if fault_rate > 0.0 {
        options = options.fault(Arc::new(FaultInjector::new(fault_seed).errors(fault_rate)));
    }
    // Remote kills are real SIGKILLs configured on the scheduler below.
    if kill_rate > 0.0 && scheduler_kind != "remote" {
        options = options.worker_fault(Arc::new(
            FaultInjector::new(fault_seed).worker_kills(kill_rate),
        ));
    }

    // Profiling capture window: everything the campaign does from here
    // on records spans and metrics.
    simart::observe::reset();
    simart::observe::enable();
    // Threads or processes, the same lease supervises the workers.
    let supervisor = SupervisorConfig {
        max_redeliveries,
        ..SupervisorConfig::default()
    };
    let remote = if scheduler_kind == "remote" {
        // Crash-isolated worker processes: this same binary re-executed
        // as `simart worker`, speaking the framed wire protocol.
        let Ok(program) = std::env::current_exe() else {
            eprintln!("error: cannot locate the simart binary for worker processes");
            return 2;
        };
        let mut config = RemoteConfig {
            supervisor,
            transport,
            ..RemoteConfig::default()
        };
        if kill_rate > 0.0 || partition_rate > 0.0 {
            // Real SIGKILLs against real worker PIDs and real faults on
            // real worker connections, same seed discipline as the
            // in-process injectors.
            let mut injector = FaultInjector::new(fault_seed);
            if kill_rate > 0.0 {
                injector = injector.worker_kills(kill_rate);
            }
            if partition_rate > 0.0 {
                injector = injector
                    .net_partitions(partition_rate)
                    .net_resets(partition_rate / 2.0)
                    .net_corruption(partition_rate / 4.0)
                    .net_latency(partition_rate, std::time::Duration::from_millis(2));
            }
            config.fault = Some(Arc::new(injector));
        }
        let command = WorkerCommand::new(program).arg("worker");
        match RemoteScheduler::with_config(command, workers, config) {
            Ok(remote) => Some(remote),
            Err(e) => {
                eprintln!("error: cannot spawn worker processes: {e}");
                return 2;
            }
        }
    } else {
        None
    };
    // `pool` and `broker` name one supervised thread driver.
    let mut broker = None;
    let scheduler: &dyn Scheduler = match &remote {
        Some(remote) => remote,
        None => broker.insert(BrokerScheduler::with_config(workers, supervisor)),
    };
    let summary = experiment.launch_with(runs, scheduler, simart::kinds::execute, &options);
    // Either driver stops here, before the post-run check and checkpoint.
    drop(broker);
    if remote.is_some_and(|remote| !remote.shutdown()) {
        eprintln!("warning: remote scheduler shut down with work outstanding");
    }
    say!(
        "campaign: {} runs — fresh {}, requeued {}, skipped done {}, skipped duplicates {}, \
         skipped quarantined {}",
        summary.total(),
        summary.fresh,
        summary.requeued,
        summary.skipped_done,
        summary.skipped_duplicates,
        summary.skipped_quarantined,
    );
    say!(
        "outcomes: done {}, failed {}, timed out {}, quarantined {}, retried {}",
        summary.done,
        summary.failed,
        summary.timed_out,
        summary.quarantined,
        summary.retried,
    );
    if summary.quarantined > 0 {
        if let Some(dir) = &db_dir {
            say!(
                "quarantined runs need an explicit release: see `simart quarantine --db {}`",
                dir.display()
            );
        }
    }

    // Post-run provenance check (--check): lint the campaign's own
    // database before it is checkpointed — incremental when analysis
    // state recorded by a previous campaign or `simart check
    // --incremental` is still valid, full scan otherwise. Runs inside
    // the capture window so the analyze.* metrics land in the snapshot.
    let mut check_errors = false;
    let mut check_engine = None;
    if check_after {
        let (engine, outcome) =
            match simart::analyze::campaign_check(experiment.database(), &load_report) {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("error: cannot lint campaign database: {e}");
                    return 2;
                }
            };
        if db_dir.is_some() {
            if let Some(reason) = &outcome.fallback {
                eprintln!("note: falling back to a full scan: {reason}");
            }
        }
        show!("{}", render_text(&outcome.diagnostics));
        check_errors = has_errors(&outcome.diagnostics);
        check_engine = Some(engine);
    }

    if let Some(dir) = &db_dir {
        // Every run mutation is already on disk in the journal; record
        // the metrics snapshot (its inserts append too, still inside
        // the capture window), then fold everything into checkpoint
        // files. No whole-DB saves needed.
        let snapshot = simart::observe::snapshot();
        if let Err(e) = simart::metrics::persist_snapshot(experiment.database(), &snapshot) {
            eprintln!("error: cannot record metrics: {e}");
            return 2;
        }
        if let Err(e) = experiment.database().checkpoint() {
            eprintln!(
                "error: cannot checkpoint database at {}: {e}",
                dir.display()
            );
            return 2;
        }
        say!("database checkpointed to {}", dir.display());
        // The checkpoint compacts the journal, which invalidates any
        // cursor captured before it — so the analysis state is recorded
        // only now, against the fresh post-checkpoint journal. The
        // metrics inserts above are unobserved by every lint, so the
        // engine's view is still exact.
        if let Some(engine) = &check_engine {
            if let Err(e) = simart::analyze::record_state(experiment.database(), engine) {
                eprintln!("error: cannot record analysis state: {e}");
                return 2;
            }
        }
        if !snapshot.metrics.is_empty() {
            say!(
                "metrics: {} recorded (inspect with `simart metrics --db {}`)",
                snapshot.metrics.len(),
                dir.display()
            );
        }
    }

    simart::observe::disable();
    if let Some(path) = &trace_out {
        let trace = simart::observe::drain_trace();
        if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
            eprintln!("error: cannot write trace to {}: {e}", path.display());
            return 2;
        }
        say!(
            "trace written to {} ({} spans, {} events; open in chrome://tracing or ui.perfetto.dev)",
            path.display(),
            trace.spans.len(),
            trace.events.len()
        );
    }
    i32::from(summary.failed + summary.timed_out + summary.quarantined > 0 || check_errors)
}

/// `simart metrics` — renders the profiling metrics a previous
/// `simart campaign --db DIR` recorded into its database.
///
/// Exit codes: 0 success (including "no metrics recorded"), 2 usage/IO
/// problems.
fn metrics(args: &[String]) -> i32 {
    let format = flag(args, "--format").unwrap_or_else(|| "text".to_owned());
    if format != "text" && format != "json" {
        eprintln!("error: unknown format `{format}` (expected text or json)");
        return 2;
    }
    let Some(dir) = flag(args, "--db") else {
        eprintln!("usage: simart metrics --db DIR [--format text|json]");
        return 2;
    };
    let path = std::path::Path::new(&dir);
    if !path.is_dir() {
        eprintln!(
            "error: no database at {dir}: not a directory (create one with \
             `simart campaign --db {dir}`)"
        );
        return 2;
    }
    // Strict load: a torn or corrupt database is a hard error for a
    // reporting tool, not something to paper over.
    let db = match Database::load_with(path, &simart::db::LoadOptions::strict()) {
        Ok((db, _)) => db,
        Err(e) => {
            eprintln!("error: cannot load database at {dir}: {e}");
            return 2;
        }
    };
    let snapshot = match simart::metrics::load_snapshot(&db) {
        Ok(snapshot) => snapshot,
        Err(e) => {
            eprintln!("error: cannot read metrics from {dir}: {e}");
            return 2;
        }
    };
    if format == "json" {
        say!("{}", snapshot.render_json());
    } else {
        show!("{}", snapshot.render_text());
    }
    0
}

/// `simart quarantine` — inspect or release dead-lettered runs.
///
/// Exit codes: 0 success (including an empty quarantine), 1 unknown
/// release id, 2 usage/IO problems.
fn quarantine(args: &[String]) -> i32 {
    let format = flag(args, "--format").unwrap_or_else(|| "text".to_owned());
    if format != "text" && format != "json" {
        eprintln!("error: unknown format `{format}` (expected text or json)");
        return 2;
    }
    let Some(dir) = flag(args, "--db") else {
        eprintln!("usage: simart quarantine --db DIR [--format text|json] [--release ID]");
        return 2;
    };
    let path = std::path::Path::new(&dir);
    if !path.is_dir() {
        eprintln!(
            "error: no database at {dir}: not a directory (create one with \
             `simart campaign --db {dir}`)"
        );
        return 2;
    }
    if let Some(id) = flag(args, "--release") {
        return quarantine_release(path, &dir, &id);
    }
    // Read-only listing: strict load, like `simart metrics`.
    let db = match Database::load_with(path, &simart::db::LoadOptions::strict()) {
        Ok((db, _)) => db,
        Err(e) => {
            eprintln!("error: cannot load database at {dir}: {e}");
            return 2;
        }
    };
    let letters = match simart::quarantine::load_all(&db) {
        Ok(letters) => letters,
        Err(e) => {
            eprintln!("error: cannot read quarantine from {dir}: {e}");
            return 2;
        }
    };
    if format == "json" {
        say!("{}", simart::quarantine::render_json(&letters));
    } else {
        show!("{}", simart::quarantine::render_text(&letters));
    }
    0
}

/// Releases one quarantined run: marks its dead letter released and
/// re-queues the run so the next `campaign --resume` picks it up.
fn quarantine_release(path: &std::path::Path, dir: &str, id: &str) -> i32 {
    let Ok(run_id) = id.parse::<simart::artifact::Uuid>() else {
        eprintln!("error: `{id}` is not a run id (expected a uuid from `simart quarantine`)");
        return 2;
    };
    // Attached open: the release and re-queue write through the
    // journal, same as campaign mutations. The checkpoint below
    // rewrites the snapshot without any line the load skipped, so the
    // skip is reported here.
    let db = match Database::open_with(path, &simart::db::LoadOptions::default()) {
        Ok((db, report)) => {
            if let Some(warning) = report.warning(path) {
                eprintln!("{warning}");
            }
            db
        }
        Err(e) => {
            eprintln!("error: cannot open database at {dir}: {e}");
            return 2;
        }
    };
    match simart::quarantine::release(&db, run_id) {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("error: no quarantined run {id} at {dir}");
            return 1;
        }
        Err(e) => {
            eprintln!("error: cannot release {id}: {e}");
            return 2;
        }
    }
    let runs = match RunStore::new(&db) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("error: cannot open run store at {dir}: {e}");
            return 2;
        }
    };
    if let Err(e) = runs.transition(run_id, RunStatus::Queued) {
        eprintln!("error: cannot re-queue run {id}: {e}");
        return 2;
    }
    if let Err(e) = db.checkpoint() {
        eprintln!("error: cannot checkpoint database at {dir}: {e}");
        return 2;
    }
    say!("released {id}: re-queued (run with `simart campaign --db {dir} --resume`)");
    0
}

/// `simart check` — the provenance linter front end.
///
/// Exit codes: 0 clean, 1 error-severity findings (or a failed
/// self-test), 2 usage/IO problems.
fn check(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--self-test") {
        return check_self_test();
    }

    let mut levels = LintLevels::new();
    for spec in flag_values(args, "--deny") {
        if let Err(e) = levels.deny(&spec) {
            eprintln!("error: --deny {spec}: {e}");
            return 2;
        }
    }
    for spec in flag_values(args, "--allow") {
        if let Err(e) = levels.allow(&spec) {
            eprintln!("error: --allow {spec}: {e}");
            return 2;
        }
    }
    let format = flag(args, "--format").unwrap_or_else(|| "text".to_owned());
    if format != "text" && format != "json" {
        eprintln!("error: unknown format `{format}` (expected text or json)");
        return 2;
    }
    let Some(dir) = flag(args, "--db") else {
        eprintln!(
            "usage: simart check --db DIR [--incremental] [--format text|json] \
             [--deny LINT] [--allow LINT]"
        );
        return 2;
    };
    if !std::path::Path::new(&dir).is_dir() {
        eprintln!(
            "error: no database at {dir}: not a directory (create one with \
             `simart campaign --db {dir}`)"
        );
        return 2;
    }

    let incremental = args.iter().any(|a| a == "--incremental");
    let diagnostics = if incremental {
        // Resume from the analysis state a previous `--incremental`
        // check or `campaign --check` recorded, replaying only the
        // journal suffix past its cursor. Loads strictly (like `simart
        // metrics`): a corrupt document or blob is exit 2, not a lint.
        // Missing/stale state or a journal compacted past the cursor
        // fall back to a full scan with a note saying so.
        match simart::analyze::check_dir_incremental(std::path::Path::new(&dir)) {
            Ok(outcome) => {
                if let Some(reason) = &outcome.fallback {
                    eprintln!("note: falling back to a full scan: {reason}");
                }
                levels.apply(outcome.diagnostics)
            }
            Err(e) => {
                eprintln!("error: cannot lint database at {dir}: {e}");
                return 2;
            }
        }
    } else {
        let path = std::path::Path::new(&dir);
        match lint::lint_dir(path) {
            Ok((diagnostics, report)) => {
                if let Some(warning) = report.warning(path) {
                    eprintln!("{warning}");
                }
                levels.apply(diagnostics)
            }
            Err(e) => {
                eprintln!("error: cannot lint database at {dir}: {e}");
                return 2;
            }
        }
    };
    if format == "json" {
        say!("{}", render_json(&diagnostics));
    } else {
        show!("{}", render_text(&diagnostics));
    }
    i32::from(has_errors(&diagnostics))
}

/// Proves the detectors detect: seeds one instance of every defect
/// class and checks each lint fires.
fn check_self_test() -> i32 {
    match lint::self_test() {
        Ok(summary) => {
            say!("PASS  {summary}");
            0
        }
        Err(e) => {
            say!("FAIL  lint self-test: {e}");
            1
        }
    }
}

fn selftest() -> i32 {
    let mut failures = 0;
    for (name, passed) in tests_resource::run_all() {
        say!("{}  {name}", if passed { "PASS" } else { "FAIL" });
        if !passed {
            failures += 1;
        }
    }
    i32::from(failures > 0)
}

fn matrix() -> i32 {
    let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
    for config in figure8_configs() {
        *counts.entry(evaluate(&config).label()).or_insert(0) += 1;
    }
    let mut table = Table::new(
        "Figure 8 outcome totals (480 configurations)",
        &["outcome", "count"],
    );
    for (outcome, count) in counts {
        table.row(&[outcome.to_owned(), count.to_string()]);
    }
    say!("{}", table.render());
    0
}
