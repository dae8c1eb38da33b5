//! Cost pins for the write path: what launching and checkpointing the
//! six boots of `simart campaign` costs per run, on the thread driver
//! and over the pipe process driver.
//!
//! Per run, each driver pins the `runs` journal records and their
//! bytes, the journal appends (observations of `db.journal_append_us`),
//! `db.index_entries_written`, the wire frames and frame bytes this
//! process wrote and read (`wire.frames`, `wire.frame_bytes`), and the
//! heap allocations of the whole process, counted by this binary's own
//! `#[global_allocator]`. Everything is counted inside one capture
//! window that opens after the runs are built (and the workers are up)
//! and closes after the checkpoint.
//!
//! A count that was equal on 20 of 20 runs is pinned by equality. A
//! count that rides on scheduling is pinned as a ceiling above the
//! largest of 20 runs, and its spread is stated where it is checked.
//!
//! The metrics registry and the allocation counter are process-global,
//! so this binary holds one test, which runs the two campaigns one
//! after the other.

use simart::artifact::{Artifact, ArtifactId, ArtifactKind, ContentSource};
use simart::db::Database;
use simart::kinds::RunKind;
use simart::observe::{self, MetricValue};
use simart::run::{FsRun, RunStore};
use simart::tasks::{
    BrokerScheduler, RemoteConfig, RemoteScheduler, Scheduler, SupervisorConfig, WorkerCommand,
};
use simart::Experiment;
use simart_codec::frame::{next_frame, Frame};
use simart_codec::json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The six boots of `simart campaign`.
const RUNS: u64 = 6;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simart-cost-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The CLI campaign's artifacts and its `cpu × cores` boots.
fn campaign(experiment: &Experiment) -> Vec<FsRun> {
    let register = |name: &str, kind, content: &str| -> ArtifactId {
        let builder = Artifact::builder(name, kind)
            .documentation(name)
            .content(ContentSource::bytes(content.as_bytes().to_vec()));
        experiment
            .register_artifact(builder)
            .expect("register")
            .id()
    };
    let repo = register("sim-repo", ArtifactKind::GitRepo, "simulator sources");
    let binary = register(
        "sim",
        ArtifactKind::Binary,
        &format!("simart-binary:{}", simart::sim::MODEL),
    );
    let script = register("boot-script", ArtifactKind::RunScript, "boot-config");
    let kernel = register("vmlinux", ArtifactKind::Kernel, "vmlinux-5.4");
    let disk = register("disk", ArtifactKind::DiskImage, "ubuntu-18.04.img");
    let mut runs = Vec::new();
    for cpu in ["kvm", "atomic", "timing"] {
        for cores in ["1", "2"] {
            let run = experiment.create_fs_run(|b| {
                b.simulator(binary, "sim")
                    .simulator_repo(repo)
                    .run_script(script, RunKind::CampaignBoot.script())
                    .kernel(kernel, "vmlinux-5.4")
                    .disk_image(disk, "ubuntu.img")
                    .params([cpu, cores])
            });
            runs.push(run.expect("build run"));
        }
    }
    runs
}

/// What one campaign cost, summed over its runs.
#[derive(Debug, Default)]
struct Cost {
    run_records: u64,
    run_record_bytes: u64,
    appends: u64,
    index_entries: u64,
    frames: u64,
    frame_bytes: u64,
    allocations: u64,
}

impl Cost {
    /// Checks the deterministic totals against their per-run pins.
    fn assert_per_run(&self, driver: &str, pinned: &[(&str, u64, u64)]) {
        for &(name, total, per_run) in pinned {
            assert_eq!(total, per_run * RUNS, "{driver}: {name} ({self:?})");
        }
    }
}

/// The `runs` document records in `journal` bytes, and their framed
/// size.
fn run_records(journal: &[u8]) -> (u64, u64) {
    let (mut records, mut bytes) = (0, 0);
    let mut rest = journal;
    while let Frame::Complete { payload, consumed } = next_frame(rest) {
        let op = json::from_json(std::str::from_utf8(payload).expect("utf-8")).expect("record");
        let is_doc = matches!(op.at("op").and_then(|op| op.as_str()), Some("ins" | "ups"));
        if is_doc && op.at("c").and_then(|c| c.as_str()) == Some(RunStore::COLLECTION) {
            records += 1;
            bytes += consumed as u64;
        }
        rest = &rest[consumed..];
    }
    (records, bytes)
}

fn counter(snapshot: &observe::Snapshot, name: &str) -> u64 {
    match snapshot.metrics.get(name) {
        Some(MetricValue::Counter(n)) => *n,
        Some(MetricValue::Histogram(h)) => h.count,
        _ => 0,
    }
}

/// Launches the campaign on `scheduler` into the database at `dir` and
/// checkpoints it, inside one capture window.
fn measure(dir: &Path, experiment: &Experiment, scheduler: &dyn Scheduler) -> Cost {
    let runs = campaign(experiment);
    let journal = dir.join(simart::db::JOURNAL_FILE);
    let before = std::fs::metadata(&journal).map_or(0, |meta| meta.len()) as usize;
    observe::reset();
    observe::enable();
    let allocated = || ALLOCATIONS.load(Ordering::Relaxed);
    let start = allocated();
    let summary =
        experiment.launch_with(runs, scheduler, simart::kinds::execute, &Default::default());
    let mut allocations = allocated() - start;
    // Read the journal before the checkpoint compacts it, and outside
    // the allocation count.
    let window = std::fs::read(&journal).expect("journal")[before..].to_vec();
    let start = allocated();
    experiment.database().checkpoint().expect("checkpoint");
    allocations += allocated() - start;
    observe::disable();
    assert_eq!(summary.done, RUNS as usize, "{summary:?}");
    let snapshot = observe::snapshot();
    let (run_records, run_record_bytes) = run_records(&window);
    Cost {
        run_records,
        run_record_bytes,
        appends: counter(&snapshot, "db.journal_append_us"),
        index_entries: counter(&snapshot, "db.index_entries_written"),
        frames: counter(&snapshot, "wire.frames"),
        frame_bytes: counter(&snapshot, "wire.frame_bytes"),
        allocations,
    }
}

fn thread_driver() -> Cost {
    let dir = temp_dir("threads");
    let experiment = Experiment::with_database("campaign", Database::open(&dir).expect("open"))
        .expect("session");
    let broker = BrokerScheduler::with_config(2, SupervisorConfig::default());
    let cost = measure(&dir, &experiment, &broker);
    drop(broker);
    let _ = std::fs::remove_dir_all(&dir);
    cost
}

fn pipe_driver() -> Cost {
    let dir = temp_dir("pipes");
    let experiment = Experiment::with_database("campaign", Database::open(&dir).expect("open"))
        .expect("session");
    let command = WorkerCommand::new(env!("CARGO_BIN_EXE_simart")).arg("worker");
    let remote = RemoteScheduler::with_config(command, 2, RemoteConfig::default()).expect("spawn");
    let cost = measure(&dir, &experiment, &remote);
    assert!(remote.shutdown(), "nothing outstanding");
    let _ = std::fs::remove_dir_all(&dir);
    cost
}

#[test]
fn write_path_costs_per_run_are_pinned() {
    let threads = thread_driver();
    threads.assert_per_run(
        "threads",
        &[
            ("runs records", threads.run_records, 4),
            ("runs record bytes", threads.run_record_bytes, 3655),
            ("index entries written", threads.index_entries, 12),
        ],
    );
    // Per run, the attempt's three appends on its worker thread (the
    // `Running` edge, the blob of its payload, its archive record);
    // one for the round's admits; one per settle pass, of which there
    // are at most as many as runs: 21–25 over 20 runs.
    assert!(
        threads.appends <= 3 * RUNS + 1 + RUNS,
        "threads: {} journal appends",
        threads.appends
    );
    assert_eq!((threads.frames, threads.frame_bytes), (0, 0));
    // 3 260–3 307 over 20 runs (543.3–551.2 per run): the supervisor's
    // tick spans race the campaign.
    assert!(
        threads.allocations <= 565 * RUNS,
        "threads: {} allocations",
        threads.allocations
    );

    let pipes = pipe_driver();
    pipes.assert_per_run(
        "pipes",
        &[
            ("runs records", pipes.run_records, 3),
            ("runs record bytes", pipes.run_record_bytes, 2702),
        ],
    );
    // One append for the round's admits, one per payload blob, and one
    // per settle pass: the round's own and, after it, at most one per
    // run: 11–14 over 20 runs.
    assert!(
        pipes.appends <= 1 + RUNS + 1 + RUNS,
        "pipes: {} journal appends",
        pipes.appends
    );
    // A settle pass that journals a run's dispatch and its seal moves
    // its `status` entries once, `queued` to `done`, where two records
    // moved them twice: 68–72 over 20 runs.
    assert!(
        pipes.index_entries <= 12 * RUNS,
        "pipes: {} index entries written",
        pipes.index_entries
    );
    // A dispatch and a result per run, plus whatever of the workers'
    // handshakes lands inside the window and any heartbeat of a boot
    // slower than 20 ms: 12–16 frames of 2 724–2 990 bytes over 20
    // runs.
    assert!(
        (2 * RUNS..=3 * RUNS).contains(&pipes.frames),
        "pipes: {} frames",
        pipes.frames
    );
    assert!(
        pipes.frame_bytes <= 500 * RUNS,
        "pipes: {} frame bytes",
        pipes.frame_bytes
    );
    // 2 575–2 621 over 20 runs (429.2–436.8 per run).
    assert!(
        pipes.allocations <= 450 * RUNS,
        "pipes: {} allocations",
        pipes.allocations
    );
}
