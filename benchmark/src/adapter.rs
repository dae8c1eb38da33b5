//! The only file that calls into the program under test.
//!
//! Everything else in the harness — input generation, timing loops,
//! spans, percentiles, verification, reporting — works on the plain
//! types re-exported or defined here. A PR that merges or renames the
//! program's entry points (ROADMAP item 2's single `launch`) needs a
//! follow-up in this file only.

use simart::analyze::lint::lint_database;
use simart::analyze::{campaign_check, record_state};
use simart::artifact::hash::Md5;
use simart::artifact::ArtifactId;
use simart::db::journal::read_journal;
use simart::db::{BlobKey, Database, Filter, IndexSpec, LoadOptions, LoadReport, Value};
use simart::remote::{
    campaign_registry, decode_outcome, decode_run_payload, encode_outcome, encode_run_payload,
    CAMPAIGN_KIND, CHECKPOINT_DIR_ENV,
};
use simart::resources::{disks, kernels::KernelResource, suite};
use simart::run::{FsRun, RunStatus};
use simart::sim::checkpoint::CheckpointStore;
use simart::sim::compat::{figure8_configs, o3_counts};
use simart::sim::cpu::CpuKind;
use simart::sim::kernel::{BootKind, KernelVersion};
use simart::sim::mem::MemKind;
use simart::sim::os::OsImage;
use simart::sim::system::{Fidelity, SimOutput, SystemConfig};
use simart::sim::workload::{parsec_profile, InputSize, PARSEC_APPS};
use simart::tasks::wire::{FrameDecoder, Message};
use simart::tasks::{
    BrokerScheduler, HandlerRegistry, PoolScheduler, RemoteConfig, RemoteScheduler, RemoteTaskSpec,
    Scheduler, SerialScheduler, SupervisorConfig, Task, TaskHandle, TransportKind, WorkerCommand,
    WorkerJob,
};
use simart::{ExecOutcome, Experiment, LaunchOptions};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// A run object as the program builds it.
pub type Run = FsRun;
/// What an executor returns for one run.
pub type Outcome = ExecOutcome;
/// The program's per-launch tally.
pub type Summary = simart::LaunchSummary;
/// A simulated system, ready to boot.
pub type SimConfig = SystemConfig;
/// What one simulation produced.
pub type SimOut = SimOutput;
/// The content-addressed boot-checkpoint directory.
pub type CkptStore = CheckpointStore;
/// What opening a database observed (journal replay, divergence).
pub type OpenReport = LoadReport;
/// A database document.
pub type Doc = Value;

/// Receives `(run hash, span name, start, end)` from inside executors.
pub type SpanSink = Arc<dyn Fn(&str, &'static str, Instant, Instant) + Send + Sync>;

/// An executor closure as every launch path takes it.
pub type Executor = Arc<dyn Fn(&Run) -> Result<Outcome, String> + Send + Sync>;

/// Handler kind the harness-as-worker answers with an empty result,
/// for the dispatch micro-loops.
const NOOP_KIND: &str = "bench-noop";
/// Names the file a traced worker writes its handler spans to.
const WORKER_SPAN_ENV: &str = "BENCH_WORKER_SPANS";
/// Host-side cap no simulated run comes near (the paper's 24 h).
const RUN_TIMEOUT_S: u64 = 24 * 3600;

// ---------------------------------------------------------------------
// Base configurations (the seed only adds replicas and order)
// ---------------------------------------------------------------------

/// Figure 8's 480 configurations as run parameters
/// `[cpu, mem, cores, boot, kernel]`, in canonical order.
pub fn figure8_params() -> Vec<Vec<String>> {
    figure8_configs()
        .iter()
        .map(|c| {
            vec![
                c.cpu.to_string(),
                c.mem.to_string(),
                c.cores.to_string(),
                c.boot.to_string(),
                c.kernel.release().to_owned(),
            ]
        })
        .collect()
}

/// Table II's 120 configurations as run parameters
/// `[app, os, cores, system, input]`.
pub fn table2_params() -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for app in PARSEC_APPS {
        for os in OsImage::ALL {
            for cores in [1u32, 2, 8] {
                for system in ["timing-classic", "o3-mesi"] {
                    out.push(vec![
                        app.to_owned(),
                        os.to_string(),
                        cores.to_string(),
                        system.to_owned(),
                        InputSize::SimMedium.to_string(),
                    ]);
                }
            }
        }
    }
    out
}

/// The 16 restore-fan-out configurations `[cpu, cores]`, in the
/// spelling the program's campaign worker parses.
pub fn fanout_params() -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for cpu in ["kvm", "atomic", "timing", "o3"] {
        for cores in [1u32, 2, 4, 8] {
            out.push(vec![cpu.to_owned(), cores.to_string()]);
        }
    }
    out
}

/// Figure 8's expected outcome counts per CPU model for one replica:
/// `(cpu, outcome label, count)`.
pub fn figure8_expected_counts() -> Vec<(String, &'static str, usize)> {
    let o3 = CpuKind::O3.to_string();
    let o3_failures =
        o3_counts::PANICS + o3_counts::CRASHES + o3_counts::DEADLOCKS + o3_counts::TIMEOUTS;
    vec![
        (CpuKind::Kvm.to_string(), "success", 120),
        (CpuKind::AtomicSimple.to_string(), "success", 40),
        (CpuKind::AtomicSimple.to_string(), "unsupported", 80),
        (CpuKind::TimingSimple.to_string(), "success", 90),
        (CpuKind::TimingSimple.to_string(), "unsupported", 30),
        (o3.clone(), "kernel-panic", o3_counts::PANICS),
        (o3.clone(), "sim-crash", o3_counts::CRASHES),
        (o3.clone(), "deadlock", o3_counts::DEADLOCKS),
        (o3.clone(), "timeout", o3_counts::TIMEOUTS),
        (o3.clone(), "unsupported", 30),
        (o3, "success", 120 - 30 - o3_failures),
    ]
}

// ---------------------------------------------------------------------
// Simulator calls
// ---------------------------------------------------------------------

/// Builds the `Fidelity::Standard` system a Figure 8 run describes.
pub fn boot_config(params: &[String]) -> Result<SimConfig, String> {
    let field = |i: usize| params.get(i).map(String::as_str).unwrap_or("");
    let cpu = CpuKind::FIGURE8
        .into_iter()
        .find(|c| c.to_string() == field(0))
        .ok_or_else(|| format!("unknown cpu {}", field(0)))?;
    let mem = MemKind::FIGURE8
        .into_iter()
        .find(|m| m.to_string() == field(1))
        .ok_or_else(|| format!("unknown memory system {}", field(1)))?;
    let cores: u32 = field(2).parse().map_err(|e| format!("bad cores: {e}"))?;
    let boot = [BootKind::KernelOnly, BootKind::Systemd]
        .into_iter()
        .find(|b| b.to_string() == field(3))
        .ok_or_else(|| format!("unknown boot kind {}", field(3)))?;
    let kernel = KernelVersion::FIGURE8
        .into_iter()
        .find(|k| k.release() == field(4))
        .ok_or_else(|| format!("unknown kernel {}", field(4)))?;
    SystemConfig::builder()
        .cpu(cpu)
        .cores(cores)
        .memory(mem)
        .kernel(kernel)
        .boot(boot)
        .fidelity(Fidelity::Standard)
        .build()
        .map_err(|e| e.to_string())
}

/// Builds the `Fidelity::Detailed` system a Table II run describes.
pub fn parsec_config(params: &[String]) -> Result<SimConfig, String> {
    let field = |i: usize| params.get(i).map(String::as_str).unwrap_or("");
    let os = OsImage::ALL
        .into_iter()
        .find(|os| os.to_string() == field(1))
        .ok_or_else(|| format!("unknown OS image {}", field(1)))?;
    let cores: u32 = field(2).parse().map_err(|e| format!("bad cores: {e}"))?;
    let (cpu, mem) = match field(3) {
        "timing-classic" => (CpuKind::TimingSimple, MemKind::classic_coherent()),
        "o3-mesi" => (CpuKind::O3, MemKind::RubyMesiTwoLevel),
        other => return Err(format!("unknown system {other}")),
    };
    SystemConfig::builder()
        .cpu(cpu)
        .cores(cores)
        .memory(mem)
        .kernel(os.profile().default_kernel)
        .os(os)
        .boot(BootKind::Systemd)
        .fidelity(Fidelity::Detailed)
        .build()
        .map_err(|e| e.to_string())
}

/// Builds the system the program's campaign worker boots for
/// `[cpu, cores]` parameters (defaults everywhere else).
pub fn fanout_config(params: &[String]) -> Result<SimConfig, String> {
    let cpu = match params.first().map(String::as_str) {
        Some("kvm") => CpuKind::Kvm,
        Some("atomic") => CpuKind::AtomicSimple,
        Some("timing") => CpuKind::TimingSimple,
        Some("o3") => CpuKind::O3,
        other => return Err(format!("unknown cpu {other:?}")),
    };
    let cores: u32 = params
        .get(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "bad cores".to_owned())?;
    SystemConfig::builder()
        .cpu(cpu)
        .cores(cores)
        .fidelity(Fidelity::Standard)
        .build()
        .map_err(|e| e.to_string())
}

/// Cold boot.
pub fn sim_boot(config: &SimConfig) -> Result<SimOut, String> {
    config.boot_only().map_err(|e| e.to_string())
}

/// Boot, then run the PARSEC application named by `params[0]`.
pub fn sim_workload(config: &SimConfig, params: &[String]) -> Result<SimOut, String> {
    let app = params.first().map(String::as_str).unwrap_or("");
    let profile = parsec_profile(app).ok_or_else(|| format!("unknown PARSEC app {app}"))?;
    config
        .run_workload(&profile, InputSize::SimMedium)
        .map_err(|e| e.to_string())
}

/// Renders the gem5-style stats dump archived as a run's payload.
pub fn stats_dump(output: &SimOut) -> String {
    output.stats.dump()
}

/// `(decode hits, decode misses, boot events processed)` of one boot.
pub fn boot_counters(output: &SimOut) -> (u64, u64, u64) {
    (
        output.stats.count("boot.decode.hits"),
        output.stats.count("boot.decode.misses"),
        output.stats.count("boot.queue.processed"),
    )
}

/// Opens (creating) a boot-checkpoint directory.
pub fn ckpt_open(dir: &Path) -> Result<CkptStore, String> {
    CheckpointStore::open(dir).map_err(|e| e.to_string())
}

/// Restores the boot for `config`, or simulates and saves it; returns
/// the boot output and the provenance events.
pub fn ckpt_boot_or_restore(
    store: &CkptStore,
    config: &SimConfig,
) -> Result<(SimOut, Vec<String>), String> {
    let (checkpoint, events) = store.boot_or_restore(config).map_err(|e| e.to_string())?;
    Ok((
        checkpoint.boot().clone(),
        events.iter().map(ToString::to_string).collect(),
    ))
}

fn archived(output: &SimOut, events: Vec<String>) -> Outcome {
    ExecOutcome {
        outcome: output.outcome.label().to_owned(),
        sim_ticks: output.sim_ticks,
        payload: stats_dump(output).into_bytes(),
        // Workflow-level success, as in the paper's boot tests: the
        // measurement completed and the simulated outcome is the datum.
        success: true,
        events,
    }
}

fn timed<T>(sink: &Option<SpanSink>, run: &Run, name: &'static str, work: impl FnOnce() -> T) -> T {
    match sink {
        None => work(),
        Some(sink) => {
            let start = Instant::now();
            let value = work();
            sink(run.run_hash(), name, start, Instant::now());
            value
        }
    }
}

/// Executor for Figure 8 runs: cold `boot_only`, stats dump archived.
pub fn boot_executor(sink: Option<SpanSink>) -> Executor {
    Arc::new(move |run: &Run| {
        timed(&sink, run, "execute", || {
            let config = boot_config(run.params())?;
            let output = timed(&sink, run, "fullsim.boot", || sim_boot(&config))?;
            Ok(archived(&output, Vec::new()))
        })
    })
}

/// Executor for Table II runs: boot + `run_workload(SimMedium)`.
pub fn parsec_executor(sink: Option<SpanSink>) -> Executor {
    Arc::new(move |run: &Run| {
        timed(&sink, run, "execute", || {
            let config = parsec_config(run.params())?;
            let output = timed(&sink, run, "fullsim.workload", || {
                sim_workload(&config, run.params())
            })?;
            Ok(archived(&output, Vec::new()))
        })
    })
}

/// Executor for fan-out runs inside this process: restore the boot
/// from `store` (a pre-warmed store makes every run a restore).
pub fn restore_executor(store: CkptStore, sink: Option<SpanSink>) -> Executor {
    Arc::new(move |run: &Run| {
        timed(&sink, run, "execute", || {
            let config = fanout_config(run.params())?;
            let (output, events) = timed(&sink, run, "fullsim.restore", || {
                ckpt_boot_or_restore(&store, &config)
            })?;
            Ok(archived(&output, events))
        })
    })
}

/// Executor that simulates nothing: isolates the control plane.
pub fn noop_executor() -> Executor {
    Arc::new(|_: &Run| {
        Ok(ExecOutcome {
            outcome: "success".to_owned(),
            sim_ticks: 1,
            payload: Vec::new(),
            success: true,
            events: Vec::new(),
        })
    })
}

// ---------------------------------------------------------------------
// In-process schedulers
// ---------------------------------------------------------------------

/// Which in-process scheduler to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    Serial,
    Pool,
    Broker,
}

/// An in-process scheduler. With `stamping` on it notes when each task
/// was submitted, so the harness can compute queue wait from outside.
pub struct InProc {
    inner: Box<dyn Scheduler>,
    submitted: Option<Mutex<HashMap<String, Instant>>>,
}

impl InProc {
    pub fn new(kind: SchedKind, workers: usize, stamping: bool) -> InProc {
        let inner: Box<dyn Scheduler> = match kind {
            SchedKind::Serial => Box::new(SerialScheduler::new()),
            SchedKind::Pool => Box::new(PoolScheduler::new(workers)),
            SchedKind::Broker => Box::new(BrokerScheduler::new(workers)),
        };
        InProc {
            inner,
            submitted: stamping.then(|| Mutex::new(HashMap::new())),
        }
    }

    /// Submit instants by run hash (task names end in `/<hash>`).
    pub fn submit_times(&self) -> HashMap<String, Instant> {
        let Some(map) = &self.submitted else {
            return HashMap::new();
        };
        map.lock()
            .expect("submit map poisoned")
            .iter()
            .map(|(name, at)| {
                let hash = name.rsplit('/').next().unwrap_or(name);
                (hash.to_owned(), *at)
            })
            .collect()
    }

    /// Submits a task that does nothing.
    pub fn submit_noop(&self, name: String) -> Ticket {
        Ticket(self.inner.submit(Task::new(name, || Ok(String::new()))))
    }
}

impl Scheduler for InProc {
    fn submit(&self, task: Task) -> TaskHandle {
        if let Some(map) = &self.submitted {
            map.lock()
                .expect("submit map poisoned")
                .insert(task.name().to_owned(), Instant::now());
        }
        self.inner.submit(task)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A submitted task's handle.
pub struct Ticket(TaskHandle);

impl Ticket {
    /// Blocks for the report; `true` when the task succeeded.
    pub fn wait(self) -> bool {
        self.0.wait().state.is_success()
    }
}

// ---------------------------------------------------------------------
// Remote scheduler and the harness-as-worker
// ---------------------------------------------------------------------

/// Which byte stream remote workers speak over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    Pipe,
    Tcp,
}

/// Worker processes (this binary, re-executed as `bench worker`).
pub struct Remote {
    scheduler: RemoteScheduler,
}

impl Remote {
    /// Spawns `workers` worker processes. `checkpoint_dir` reaches them
    /// through the program's environment variable; `span_dir` asks each
    /// worker to time its handler and leave a span file there.
    pub fn spawn(
        wire: Wire,
        workers: usize,
        checkpoint_dir: Option<&Path>,
        span_dir: Option<&Path>,
    ) -> Result<Remote, String> {
        let program = std::env::current_exe().map_err(|e| format!("no current exe: {e}"))?;
        let mut command = WorkerCommand::new(program).arg("worker");
        if let Some(dir) = checkpoint_dir {
            command = command.env(CHECKPOINT_DIR_ENV, dir.to_string_lossy());
        }
        if let Some(dir) = span_dir {
            command = command.env(WORKER_SPAN_ENV, dir.to_string_lossy());
        }
        let config = RemoteConfig {
            // The defaults kill a worker after 180 ms of silence and
            // never redeliver; a vCPU the hypervisor holds back for
            // that long would fail a run that did nothing wrong.
            supervisor: SupervisorConfig {
                grace: Duration::from_secs(5),
                max_redeliveries: 3,
                ..SupervisorConfig::default()
            },
            transport: match wire {
                Wire::Pipe => TransportKind::Pipe,
                Wire::Tcp => TransportKind::Tcp,
            },
            ..RemoteConfig::default()
        };
        RemoteScheduler::with_config(command, workers, config)
            .map(|scheduler| Remote { scheduler })
            .map_err(|e| format!("cannot spawn worker processes: {e}"))
    }

    /// Largest `VmHWM` among the live worker processes, in kB.
    pub fn worker_peak_rss_kb(&self) -> u64 {
        self.scheduler
            .worker_pids()
            .into_iter()
            .filter_map(|pid| {
                std::fs::read_to_string(format!("/proc/{pid}/status"))
                    .ok()
                    .and_then(|status| crate::stats::vm_hwm_kb(&status))
            })
            .max()
            .unwrap_or(0)
    }

    /// `(redeliveries, reconnects)` so far.
    pub fn delivery_faults(&self) -> (u64, u64) {
        let stats = self.scheduler.stats();
        (stats.redelivered, stats.reconnects)
    }

    /// Submits a no-op task; `None` when the submit was refused.
    pub fn submit_noop(&self, name: String) -> Option<Ticket> {
        self.scheduler
            .submit(RemoteTaskSpec::new(name, NOOP_KIND, ""))
            .ok()
            .map(Ticket)
    }

    /// Drains and reaps every worker; `true` when nothing was abandoned.
    pub fn shutdown(&self) -> bool {
        self.scheduler.shutdown()
    }
}

/// One handler invocation as a traced worker saw it (UNIX-epoch ns, so
/// the coordinator can place it on its own timeline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSpan {
    pub run: String,
    pub start_unix_ns: u128,
    pub end_unix_ns: u128,
    pub pid: u32,
}

fn unix_ns(at: SystemTime) -> u128 {
    at.duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0)
}

/// The worker side: serves the program's campaign kind (and the no-op
/// kind) until drained. Returns the process exit code.
pub fn worker_main(connect: Option<&str>) -> i32 {
    let campaign = campaign_registry();
    let span_dir = std::env::var_os(WORKER_SPAN_ENV).map(PathBuf::from);
    let spans: Arc<Mutex<Vec<WorkerSpan>>> = Arc::default();
    let mut registry = HandlerRegistry::new();
    registry.register(NOOP_KIND, |_: &WorkerJob| Ok(String::new()));
    let recorded = Arc::clone(&spans);
    let tracing = span_dir.is_some();
    registry.register(CAMPAIGN_KIND, move |job: &WorkerJob| {
        if !tracing {
            return campaign.run(job);
        }
        let start = SystemTime::now();
        let result = campaign.run(job);
        recorded
            .lock()
            .expect("worker span list poisoned")
            .push(WorkerSpan {
                run: job.name.rsplit('/').next().unwrap_or(&job.name).to_owned(),
                start_unix_ns: unix_ns(start),
                end_unix_ns: unix_ns(SystemTime::now()),
                pid: std::process::id(),
            });
        result
    });
    let code = match connect {
        Some(addr) => simart::tasks::worker_main_connect(&registry, addr),
        None => simart::tasks::worker_main(&registry),
    };
    if let Some(dir) = span_dir {
        let body: String = spans
            .lock()
            .expect("worker span list poisoned")
            .iter()
            .map(|s| format!("{}\t{}\t{}\n", s.run, s.start_unix_ns, s.end_unix_ns))
            .collect();
        // Best effort: a missing span file shows up as missing busy time.
        let _ = std::fs::write(
            dir.join(format!("worker-{}.spans", std::process::id())),
            body,
        );
    }
    code
}

/// Reads every span file traced workers left in `dir`.
pub fn read_worker_spans(dir: &Path) -> Vec<WorkerSpan> {
    let mut spans = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return spans;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(pid) = name
            .strip_prefix("worker-")
            .and_then(|rest| rest.strip_suffix(".spans"))
            .and_then(|pid| pid.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(body) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        for line in body.lines() {
            let mut fields = line.split('\t');
            if let (Some(run), Some(Ok(start)), Some(Ok(end))) = (
                fields.next(),
                fields.next().map(str::parse::<u128>),
                fields.next().map(str::parse::<u128>),
            ) {
                spans.push(WorkerSpan {
                    run: run.to_owned(),
                    start_unix_ns: start,
                    end_unix_ns: end,
                    pid,
                });
            }
        }
    }
    spans
}

// ---------------------------------------------------------------------
// Campaign session: artifacts, runs, launch paths, read side
// ---------------------------------------------------------------------

/// Which artifact set a workload's runs reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Figure 8: simulator, boot-exit image, five kernels.
    Boot,
    /// Table II: simulator, two kernels, two PARSEC images.
    Parsec,
    /// Restore fan-out: simulator, boot-exit image, the 5.4 kernel.
    Fanout,
}

/// Registered artifact ids for one family.
pub struct Artifacts {
    family: Family,
    simulator: ArtifactId,
    repo: ArtifactId,
    script: ArtifactId,
    /// `(selector, kernel id, kernel path, disk id, disk path)`; the
    /// selector is the kernel release (Boot), the OS name (Parsec), or
    /// empty (Fanout).
    variants: Vec<(String, ArtifactId, String, ArtifactId, String)>,
}

/// One run record as read back for verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub params: Vec<String>,
    pub status: String,
    pub outcome: String,
    pub sim_ticks: u64,
    /// MD5 of the archived payload, when it could be retrieved and its
    /// content hashes to the key the record stores.
    pub payload_md5: Option<String>,
}

/// An experiment session over a database.
pub struct Campaign {
    experiment: Experiment,
}

impl Campaign {
    /// Opens (creating) the journaled database at `dir` and starts a
    /// session on it.
    pub fn open(name: &str, dir: &Path) -> Result<(Campaign, OpenReport), String> {
        let (db, report) = Database::open_with(dir, &LoadOptions::default())
            .map_err(|e| format!("cannot open database at {}: {e}", dir.display()))?;
        let experiment = Experiment::with_database(name, db).map_err(|e| e.to_string())?;
        Ok((Campaign { experiment }, report))
    }

    /// A session on a fresh in-memory database.
    pub fn in_memory(name: &str) -> Campaign {
        Campaign {
            experiment: Experiment::new(name),
        }
    }

    /// Registers the family's artifacts (idempotent on a reopened
    /// database: the registry assigns the same ids in the same order).
    pub fn register(&self, family: Family) -> Result<Artifacts, String> {
        self.experiment
            .with_registry(|registry| {
                let [repo, binary, script] =
                    suite::register_simulator(registry, "20.1.0.4", "X86")?;
                let mut variants = Vec::new();
                match family {
                    Family::Boot | Family::Fanout => {
                        let disk = suite::register_disk_image(registry, &disks::boot_exit_image())?;
                        let versions: &[KernelVersion] = if family == Family::Boot {
                            &KernelVersion::FIGURE8
                        } else {
                            &[KernelVersion::V5_4]
                        };
                        for &version in versions {
                            let kernel = suite::register_kernel(
                                registry,
                                &KernelResource::standard(version),
                            )?;
                            let selector = if family == Family::Boot {
                                version.release().to_owned()
                            } else {
                                String::new()
                            };
                            variants.push((
                                selector,
                                kernel.id(),
                                format!("vmlinux-{}", version.release()),
                                disk.id(),
                                "disks/boot-exit.img".to_owned(),
                            ));
                        }
                    }
                    Family::Parsec => {
                        for os in OsImage::ALL {
                            let version = os.profile().default_kernel;
                            let kernel = suite::register_kernel(
                                registry,
                                &KernelResource::standard(version),
                            )?;
                            let disk =
                                suite::register_disk_image(registry, &disks::parsec_image(os))?;
                            variants.push((
                                os.to_string(),
                                kernel.id(),
                                format!("vmlinux-{}", version.release()),
                                disk.id(),
                                format!("disks/parsec-{os}.img"),
                            ));
                        }
                    }
                }
                Ok(Artifacts {
                    family,
                    simulator: binary.id(),
                    repo: repo.id(),
                    script: script.id(),
                    variants,
                })
            })
            .map_err(|e| e.to_string())
    }

    /// How many artifacts the session has registered.
    pub fn artifact_count(&self) -> usize {
        self.experiment.artifact_count()
    }

    /// Builds (and hashes) the run object for one parameter vector.
    pub fn create_run(&self, artifacts: &Artifacts, params: &[String]) -> Result<Run, String> {
        let selector = match artifacts.family {
            Family::Boot => params.get(4).map(String::as_str).unwrap_or(""),
            Family::Parsec => params.get(1).map(String::as_str).unwrap_or(""),
            Family::Fanout => "",
        };
        let (_, kernel, kernel_path, disk, disk_path) = artifacts
            .variants
            .iter()
            .find(|(key, ..)| key == selector)
            .ok_or_else(|| format!("no artifacts registered for `{selector}`"))?;
        self.experiment
            .create_fs_run(|b| {
                b.simulator(artifacts.simulator, "gem5/build/X86/gem5.opt")
                    .simulator_repo(artifacts.repo)
                    .run_script(artifacts.script, "configs/run.py")
                    .kernel(*kernel, kernel_path.clone())
                    .disk_image(*disk, disk_path.clone())
                    .params(params.iter().cloned())
                    .timeout_seconds(RUN_TIMEOUT_S)
            })
            .map_err(|e| e.to_string())
    }

    /// One run object per parameter vector, in order.
    pub fn create_runs(
        &self,
        artifacts: &Artifacts,
        specs: &[Vec<String>],
    ) -> Result<Vec<Run>, String> {
        specs
            .iter()
            .map(|params| self.create_run(artifacts, params))
            .collect()
    }

    /// `Experiment::launch`: fresh runs through an in-process scheduler.
    pub fn launch(&self, runs: Vec<Run>, scheduler: &InProc, executor: &Executor) -> Summary {
        let executor = Arc::clone(executor);
        self.experiment
            .launch(runs, scheduler, move |run| executor(run))
    }

    /// `Experiment::launch_with(resuming)`: done runs are skipped.
    pub fn launch_resuming(
        &self,
        runs: Vec<Run>,
        scheduler: &InProc,
        executor: &Executor,
    ) -> Summary {
        let executor = Arc::clone(executor);
        self.experiment.launch_with(
            runs,
            scheduler,
            move |run| executor(run),
            &LaunchOptions::resuming(),
        )
    }

    /// `Experiment::launch_remote`: runs travel to worker processes.
    pub fn launch_remote(&self, runs: Vec<Run>, remote: &Remote) -> Summary {
        self.experiment
            .launch_remote(runs, &remote.scheduler, &LaunchOptions::default())
    }

    /// `Database::checkpoint`: folds the journal into snapshot files.
    pub fn checkpoint(&self) -> Result<(), String> {
        self.experiment
            .database()
            .checkpoint()
            .map_err(|e| e.to_string())
    }

    // --- run store, one call each (per-layer loops) -------------------

    pub fn record(&self, run: &Run) -> bool {
        self.experiment.runs().record(run).is_ok()
    }

    pub fn transition_queued(&self, run: &Run) -> bool {
        self.experiment
            .runs()
            .transition(run.id(), RunStatus::Queued)
            .is_ok()
    }

    pub fn log_event(&self, run: &Run, event: &str) -> bool {
        self.experiment.runs().log_event(run.id(), event).is_ok()
    }

    pub fn attach_results(&self, run: &Run, sim_ticks: u64, payload: &[u8]) -> bool {
        self.experiment
            .runs()
            .attach_results(run.id(), sim_ticks, "success", payload)
            .is_ok()
    }

    pub fn record_attempt(&self, run: &Run) -> bool {
        self.experiment
            .runs()
            .record_attempt(run.id(), "succeeded", Duration::ZERO)
            .is_ok()
    }

    pub fn find_by_hash(&self, run: &Run) -> bool {
        matches!(
            self.experiment.runs().find_by_hash(run.run_hash()),
            Ok(Some(_))
        )
    }

    // --- read side (figure queries, verification, lint) ---------------

    fn runs_collection(&self) -> simart::db::Collection {
        self.experiment
            .database()
            .collection(simart::run::RunStore::COLLECTION)
    }

    /// Indexed equality: how many runs are `done`.
    pub fn count_done(&self) -> usize {
        self.runs_collection()
            .find(&Filter::eq("status", "done"))
            .len()
    }

    /// Range over `results.simTicks` (ordered index): runs above `min`.
    pub fn count_ticks_above(&self, min: u64) -> usize {
        self.runs_collection()
            .find(&Filter::gt("results.simTicks", min))
            .len()
    }

    /// Unindexed scan: runs whose output directory mentions `needle`.
    pub fn count_output_dir_contains(&self, needle: &str) -> usize {
        self.runs_collection()
            .find(&Filter::contains("outputDir", needle))
            .len()
    }

    /// The reproducibility query: runs that used the family's first
    /// kernel artifact.
    pub fn count_runs_using_kernel(&self, artifacts: &Artifacts) -> usize {
        self.experiment
            .runs_using(artifacts.variants[0].1)
            .map(|runs| runs.len())
            .unwrap_or(0)
    }

    /// Retrieves a run's archived payload; its length when present.
    pub fn load_results_len(&self, run: &Run) -> Option<usize> {
        self.experiment
            .runs()
            .load_results(run.id())
            .map(|bytes| bytes.len())
    }

    /// Every run record, with its payload re-hashed against its key.
    pub fn records(&self) -> Vec<Record> {
        let blobs = self.experiment.database().blobs();
        self.runs_collection()
            .all()
            .iter()
            .map(|doc| {
                let text = |path: &str| {
                    doc.at(path)
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_owned()
                };
                let payload_md5 = doc
                    .at("results.payload")
                    .and_then(Value::as_str)
                    .and_then(BlobKey::from_hex)
                    .and_then(|key| blobs.get(key).map(|bytes| (key, bytes)))
                    .filter(|(key, bytes)| BlobKey::for_content(bytes) == *key)
                    .map(|(_, bytes)| Md5::digest(&bytes).to_hex());
                Record {
                    params: doc
                        .at("params")
                        .and_then(Value::as_array)
                        .map(|items| {
                            items
                                .iter()
                                .filter_map(|p| p.as_str().map(str::to_owned))
                                .collect()
                        })
                        .unwrap_or_default(),
                    status: text("status"),
                    outcome: text("results.outcome"),
                    sim_ticks: doc
                        .at("results.simTicks")
                        .and_then(Value::as_int)
                        .and_then(|n| u64::try_from(n).ok())
                        .unwrap_or(0),
                    payload_md5,
                }
            })
            .collect()
    }

    /// Full provenance lint; the number of diagnostics.
    pub fn lint_full(&self) -> usize {
        lint_database(self.experiment.database()).len()
    }

    /// Engine-driven check: resumes from recorded analysis state and
    /// replays the journal suffix when it can, scans everything when
    /// it cannot.
    pub fn check(&self, report: &OpenReport) -> Result<Checked, String> {
        let (engine, outcome) =
            campaign_check(self.experiment.database(), report).map_err(|e| e.to_string())?;
        Ok(Checked {
            engine,
            diagnostics: outcome.diagnostics.len(),
            incremental: outcome.incremental,
        })
    }

    /// Records a check's analysis state, for the next check to resume.
    pub fn record_check(&self, checked: &Checked) -> Result<(), String> {
        record_state(self.experiment.database(), &checked.engine).map_err(|e| e.to_string())
    }
}

/// What an engine-driven check found, plus the state to record.
pub struct Checked {
    engine: simart::analyze::Engine,
    pub diagnostics: usize,
    /// Whether recorded state was resumed (no full scan).
    pub incremental: bool,
}

/// MD5 of `bytes`, hex (the program's own implementation: a digest
/// mismatch also catches a broken hash).
pub fn md5_hex(bytes: &[u8]) -> String {
    Md5::digest(bytes).to_hex()
}

// ---------------------------------------------------------------------
// Bare database (per-layer loops)
// ---------------------------------------------------------------------

/// A database handle without an experiment on top.
pub struct Db {
    db: Database,
}

/// A document shaped like a small run record.
pub fn sample_doc(i: usize) -> Doc {
    Value::map([
        ("_id", Value::from(format!("doc-{i:06}"))),
        (
            "hash",
            Value::from(format!("{:032x}", i as u128 * 0x9e37_79b9)),
        ),
        ("status", Value::from("queued")),
        ("group", Value::from((i % 16) as u64)),
        ("weight", Value::from((i % 997) as u64)),
        ("params", Value::array(["o3", "8", "rep"].map(Value::from))),
    ])
}

impl Db {
    pub fn open(dir: &Path) -> Result<Db, String> {
        Database::open(dir)
            .map(|db| Db { db })
            .map_err(|e| e.to_string())
    }

    /// Declares the indexes the loops probe (`status` hash, `hash`
    /// unique), as the run store does.
    pub fn ensure_indexes(&self, collection: &str) -> bool {
        let c = self.db.collection(collection);
        c.ensure_unique("hash").is_ok() && c.ensure_index(IndexSpec::hash("status")).is_ok()
    }

    pub fn insert(&self, collection: &str, doc: Doc) -> bool {
        self.db.collection(collection).insert(doc).is_ok()
    }

    /// One `update_many` by `_id`, flipping the status field.
    pub fn update_status(&self, collection: &str, i: usize, status: &str) -> bool {
        self.db
            .collection(collection)
            .update_many(&Filter::eq("_id", format!("doc-{i:06}")), |doc| {
                doc.set_at("status", Value::from(status));
            })
            .map(|n| n == 1)
            .unwrap_or(false)
    }

    /// Indexed equality probe on `hash`.
    pub fn find_by_hash(&self, collection: &str, i: usize) -> usize {
        self.db
            .collection(collection)
            .find(&Filter::eq(
                "hash",
                format!("{:032x}", i as u128 * 0x9e37_79b9),
            ))
            .len()
    }

    /// Unindexed range scan on `weight`.
    pub fn scan_weight_above(&self, collection: &str, min: u64) -> usize {
        self.db
            .collection(collection)
            .find(&Filter::gt("weight", min))
            .len()
    }

    pub fn blob_put(&self, bytes: Vec<u8>) -> String {
        self.db.blobs().put(bytes).to_hex()
    }

    pub fn blob_get(&self, key: &str) -> Option<usize> {
        BlobKey::from_hex(key)
            .and_then(|key| self.db.blobs().get(key))
            .map(|bytes| bytes.len())
    }

    pub fn checkpoint(&self) -> bool {
        self.db.checkpoint().is_ok()
    }

    pub fn len(&self, collection: &str) -> usize {
        self.db.collection(collection).len()
    }
}

/// Decodes every record of the journal in `dir` (replay without
/// applying); the number of records.
pub fn journal_records(dir: &Path) -> usize {
    read_journal(dir)
        .map(|replay| replay.ops.len())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Codecs (per-layer loops)
// ---------------------------------------------------------------------

/// Run payload and outcome through the remote JSON codec and back;
/// `true` when both round-trip.
pub fn remote_codec_round_trip(params: &[String], outcome: &Outcome) -> bool {
    let payload = encode_run_payload(params);
    let back = decode_run_payload(&payload);
    let text = encode_outcome(outcome);
    matches!((back, decode_outcome(&text)), (Ok(p), Ok(o)) if p == params && o == *outcome)
}

/// An outcome shaped like a worker's reply.
pub fn sample_outcome() -> Outcome {
    ExecOutcome {
        outcome: "success".to_owned(),
        sim_ticks: 123_456_789_012,
        payload: b"outcome=success ticks=123456789012 instructions=987654321".to_vec(),
        success: true,
        events: vec![
            "checkpoint-key:0123456789abcdef".to_owned(),
            "checkpoint-restore:0123456789abcdef".to_owned(),
        ],
    }
}

/// One dispatch message framed, fed through the decoder and parsed;
/// `true` when it round-trips.
pub fn wire_frame_round_trip(job: u64, payload: &str) -> bool {
    let message = Message::Dispatch {
        job,
        delivery: 1,
        generation: 1,
        name: format!("campaign/{job:032x}"),
        kind: CAMPAIGN_KIND.to_owned(),
        payload: payload.to_owned(),
        timeout_ms: RUN_TIMEOUT_S * 1000,
    };
    let mut decoder = FrameDecoder::new();
    decoder.feed(&message.to_frame());
    match decoder.next_frame() {
        Ok(Some(frame)) => matches!(Message::decode(&frame), Ok(back) if back == message),
        _ => false,
    }
}

/// A wire payload for `wire_frame_round_trip`.
pub fn sample_wire_payload(params: &[String]) -> String {
    encode_run_payload(params)
}
