//! Golden bytes for the formats that outlive a process: a journal
//! record, a protocol frame, a checkpoint header and key, and a fault
//! stream. The literals were captured from the tree *before* the
//! shared `simart-codec` crate replaced the per-crate copies of the
//! frame, CRC-32, FNV-1a and JSON code; they must never change without
//! a format-version bump.
//!
//! `simulator_stat_dumps_are_pinned` does the same for the simulator's
//! results: `determinism.rs` compares a run with itself, this compares
//! it with the commit before the interpreter loop was last edited.

use simart_codec::fnv1a;
use simart_db::{Database, Value};
use simart_fullsim::checkpoint::{checkpoint_key, CheckpointStore};
use simart_fullsim::cpu::CpuKind;
use simart_fullsim::isa::InstStream;
use simart_fullsim::kernel::KernelVersion;
use simart_fullsim::mem::MemKind;
use simart_fullsim::system::{Fidelity, SystemConfig};
use simart_fullsim::workload::{parsec_profile, InputSize};
use simart_tasks::wire::Message;
use simart_tasks::{Fault, FaultInjector};
use std::time::Duration;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("simart-format-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn journal_record_bytes_are_pinned() {
    let dir = scratch("journal");
    let db = Database::open(&dir).unwrap();
    db.collection("runs")
        .insert(Value::map([
            ("_id", Value::from("run-0001")),
            ("status", Value::from("done")),
            ("ticks", Value::from(91_000_000i64)),
            ("note", Value::from("tab\t \"quoted\" é")),
        ]))
        .unwrap();
    assert_eq!(
        hex(&std::fs::read(dir.join("journal.log")).unwrap()),
        "6c000000622cd57a7b2263223a2272756e73222c2264223a7b225f6964223a2272756e2d30303031222c\
         226e6f7465223a227461625c74205c2271756f7465645c2220c3a9222c22737461747573223a22646f6e\
         65222c227469636b73223a39313030303030307d2c226f70223a22696e73227d"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dispatch_frame_bytes_are_pinned() {
    let dispatch = Message::Dispatch {
        job: 9,
        delivery: 2,
        generation: 7,
        name: "campaign/abc123".to_owned(),
        kind: "campaign-boot".to_owned(),
        payload: "{\"params\":[\"kvm\",\"2\"]}\n".to_owned(),
        timeout_ms: 1500,
    };
    assert_eq!(
        hex(&dispatch.to_frame()),
        "a30000003993cdb27b2274797065223a226469737061746368222c226a6f62223a392c2264656c697665\
         7279223a322c2267656e65726174696f6e223a372c226e616d65223a2263616d706169676e2f61626331\
         3233222c226b696e64223a2263616d706169676e2d626f6f74222c227061796c6f6164223a227b5c2270\
         6172616d735c223a5b5c226b766d5c222c5c22325c225d7d5c6e222c2274696d656f75744d73223a3135\
         30307d"
    );
}

#[test]
fn checkpoint_key_and_header_frame_are_pinned() {
    let config = SystemConfig::builder()
        .fidelity(Fidelity::Smoke)
        .build()
        .unwrap();
    let key = checkpoint_key(&config);
    assert_eq!(key, "bb16ef3f52260fe8");

    let dir = scratch("ckpt");
    let store = CheckpointStore::open(&dir).unwrap();
    store.boot_or_restore(&config).unwrap();
    let file = std::fs::read(store.path_for(&key)).unwrap();
    // Magic, then the header frame: [len][crc][version/key/label].
    let len = u32::from_le_bytes(file[8..12].try_into().unwrap()) as usize;
    assert_eq!(
        hex(&file[..8 + 8 + len]),
        "534d41525443500a7000000017c3b70976657273696f6e20310a6b657920626231366566336635323236\
         306665380a6c6162656c20317854696d696e6753696d706c654350552f436c617373696328636f686572\
         656e74292f76352e342e35312f73797374656d642d72756e6c6576656c352f7562756e74752d31382e30\
         340a"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_stream_draws_are_pinned() {
    // Rates of 1.0 turn every draw into a magnitude, which exposes the
    // per-(seed, task, attempt) stream to the nanosecond.
    let injector = FaultInjector::new(42)
        .delays(1.0, Duration::from_secs(1000))
        .worker_stalls(1.0, Duration::from_secs(1000));
    assert_eq!(
        injector.fault_for("campaign/abc123", 3),
        Some(Fault::Delay(Duration::from_nanos(63_515_902_822)))
    );
    assert_eq!(
        injector.worker_fault_for("campaign/abc123", 2),
        Some(Fault::WorkerStall(Duration::from_nanos(990_117_613_985)))
    );
}

#[test]
fn simulator_stat_dumps_are_pinned() {
    // Kernel 4.4 with MESI_Two_Level is a cell of Figure 8 that O3
    // boots at both 1 and 4 cores.
    let config = |cpu, cores, mem, fidelity| {
        SystemConfig::builder()
            .cpu(cpu)
            .cores(cores)
            .memory(mem)
            .kernel(KernelVersion::V4_4)
            .fidelity(fidelity)
            .build()
            .unwrap()
    };
    let mut lines = Vec::new();
    for cpu in CpuKind::FIGURE8 {
        for mem in [
            MemKind::classic_coherent(),
            MemKind::RubyMi,
            MemKind::RubyMesiTwoLevel,
        ] {
            let boot = config(cpu, 1, mem, Fidelity::Smoke).boot_only().unwrap();
            let hash = fnv1a(boot.stats.dump().as_bytes());
            lines.push(format!("boot {cpu} {mem} {hash:016x}"));
        }
    }
    let mut workload = |app: &str, cpu, cores, fidelity| {
        let out = config(cpu, cores, MemKind::RubyMesiTwoLevel, fidelity)
            .run_workload(&parsec_profile(app).unwrap(), InputSize::SimSmall)
            .unwrap();
        assert!(out.outcome.is_success(), "{app} {cpu} x{cores}");
        let hash = fnv1a(out.stats.dump().as_bytes());
        lines.push(format!("{app} {cpu} x{cores} {fidelity:?} {hash:016x}"));
    };
    for app in ["dedup", "streamcluster"] {
        for cpu in [CpuKind::TimingSimple, CpuKind::O3] {
            for cores in [1, 4] {
                workload(app, cpu, cores, Fidelity::Smoke);
            }
        }
    }
    workload("blackscholes", CpuKind::TimingSimple, 2, Fidelity::Detailed);
    assert_eq!(
        lines.join("\n"),
        "boot kvmCPU Classic(coherent) 3a3f9aa24f2239a6\n\
         boot kvmCPU MI_example 5e3554ab9ff26a2c\n\
         boot kvmCPU MESI_Two_Level 3ddd3901022c70c6\n\
         boot AtomicSimpleCPU Classic(coherent) 878b1e11b5a4de2b\n\
         boot AtomicSimpleCPU MI_example 9106bc64d49ee5c6\n\
         boot AtomicSimpleCPU MESI_Two_Level f6d16864958055f1\n\
         boot TimingSimpleCPU Classic(coherent) 9bbbc7910ef68e10\n\
         boot TimingSimpleCPU MI_example ded7d044c65425c1\n\
         boot TimingSimpleCPU MESI_Two_Level a3a56d7100299660\n\
         boot O3CPU Classic(coherent) 3ccdd9a3b832e0c6\n\
         boot O3CPU MI_example 8ce4ed89ff9230e4\n\
         boot O3CPU MESI_Two_Level c2a64c484d24fcb9\n\
         dedup TimingSimpleCPU x1 Smoke 23490ca48ba01aff\n\
         dedup TimingSimpleCPU x4 Smoke cd88d9e3daa329e1\n\
         dedup O3CPU x1 Smoke a6fd77bc604b0894\n\
         dedup O3CPU x4 Smoke 71e0486bb875b05e\n\
         streamcluster TimingSimpleCPU x1 Smoke 8ad3d370c29d4051\n\
         streamcluster TimingSimpleCPU x4 Smoke 16ffde395b033d71\n\
         streamcluster O3CPU x1 Smoke dbab92a8fe6f13b1\n\
         streamcluster O3CPU x4 Smoke 8e4e1a03a6cdbc61\n\
         blackscholes TimingSimpleCPU x2 Detailed 4666d856070c5651"
    );
}

/// Table II's other half: TimingSimple on the coherent Classic stack
/// and O3 on `MI_example`, which `simulator_stat_dumps_are_pinned`
/// only boots.
#[test]
fn classic_and_mi_workload_dumps_are_pinned() {
    let mut lines = Vec::new();
    let mut workload = |app: &str, cpu, cores, mem: MemKind| {
        let out = SystemConfig::builder()
            .cpu(cpu)
            .cores(cores)
            .memory(mem)
            .fidelity(Fidelity::Smoke)
            .build()
            .unwrap()
            .run_workload(&parsec_profile(app).unwrap(), InputSize::SimSmall)
            .unwrap();
        assert!(out.outcome.is_success(), "{app} {cpu} {mem} x{cores}");
        let hash = fnv1a(out.stats.dump().as_bytes());
        lines.push(format!("{app} {cpu} {mem} x{cores} {hash:016x}"));
    };
    for app in ["dedup", "blackscholes"] {
        for cores in [1, 2, 8] {
            workload(
                app,
                CpuKind::TimingSimple,
                cores,
                MemKind::classic_coherent(),
            );
        }
        workload(app, CpuKind::O3, 4, MemKind::RubyMi);
    }
    assert_eq!(
        lines.join("\n"),
        "dedup TimingSimpleCPU Classic(coherent) x1 497b2dfb6599b5ce\n\
         dedup TimingSimpleCPU Classic(coherent) x2 303cc687999da06e\n\
         dedup TimingSimpleCPU Classic(coherent) x8 6b9d6e4ff1c55c82\n\
         dedup O3CPU MI_example x4 990fe258afb732c6\n\
         blackscholes TimingSimpleCPU Classic(coherent) x1 c36b0aeb0de54214\n\
         blackscholes TimingSimpleCPU Classic(coherent) x2 20185ddfc4153933\n\
         blackscholes TimingSimpleCPU Classic(coherent) x8 5441237cf0f4ec62\n\
         blackscholes O3CPU MI_example x4 8654ef8445261c20"
    );
}

/// Aggregated statistics can hide two compensating errors; the latency
/// of every single access cannot. Four threads take turns, one memory
/// access each, against every memory system: `dedup` streams through
/// the L2 (evictions and back-invalidations), `swaptions` stays
/// resident and shares lines (hits, upgrades, downgrades, forwards).
#[test]
fn memory_latency_traces_are_pinned() {
    let mut lines = Vec::new();
    for app in ["dedup", "swaptions"] {
        let profile = parsec_profile(app).unwrap();
        for kind in [
            MemKind::classic_fast(),
            MemKind::classic_coherent(),
            MemKind::RubyMi,
            MemKind::RubyMesiTwoLevel,
        ] {
            let mut mem = simart_fullsim::mem::build(kind, 4);
            let mut streams: Vec<_> = (0..4)
                .map(|t| InstStream::new("latency-trace", t, profile.mix.clone(), profile.addrs))
                .collect();
            let mut trace = Vec::with_capacity(50_000 * 8);
            for access in 0..50_000 {
                let core = access % 4;
                let (addr, access_kind) = loop {
                    let inst = streams[core].next_inst();
                    if let Some(access_kind) = inst.op.access_kind() {
                        break (inst.addr, access_kind);
                    }
                };
                trace.extend_from_slice(&mem.access(core, addr, access_kind).to_le_bytes());
            }
            lines.push(format!("{app} {kind} {:016x}", fnv1a(&trace)));
        }
    }
    assert_eq!(
        lines.join("\n"),
        "dedup Classic 66e455f6598d7b6d\n\
         dedup Classic(coherent) 2c7ad1e3d315f1ed\n\
         dedup MI_example 77a5e728b675da5d\n\
         dedup MESI_Two_Level 2fc29a6b6ffcc675\n\
         swaptions Classic 9179547b8e9b6722\n\
         swaptions Classic(coherent) 3ab17cc8227ccd52\n\
         swaptions MI_example 9c6bdb97b7668b9b\n\
         swaptions MESI_Two_Level f80f3e2ae8098bef"
    );
}

/// The files a collection leaves behind — journal records of inserts,
/// `update_many` rewrites, an upsert and a delete, then the `.jsonl`
/// snapshot, the index manifest and the post-checkpoint journal tail —
/// hashed on the commit before `update_many` learned to maintain only
/// the indexes an edit touches.
#[test]
fn collection_files_are_pinned() {
    use simart_db::{Filter, IndexSpec};
    let dir = scratch("collection");
    let db = Database::open(&dir).unwrap();
    let runs = db.collection("runs");
    // The three `RunStore` index specs, plus the ordered one on
    // `results.simTicks` that older directories still declare.
    runs.ensure_index(IndexSpec::hash("hash").unique()).unwrap();
    runs.ensure_index(IndexSpec::hash("status")).unwrap();
    runs.ensure_index(IndexSpec::hash("inputs")).unwrap();
    runs.ensure_index(IndexSpec::ordered("results.simTicks"))
        .unwrap();
    let inputs = || Value::array(["art-gem5", "art-kernel", "art-disk \"x\"\n"].map(Value::from));
    let run = |i: usize| {
        Value::map([
            ("_id", Value::from(format!("run-{i:04}"))),
            ("hash", Value::from(format!("h{i:02}"))),
            ("status", Value::from("queued")),
            ("inputs", inputs()),
            ("events", Value::array([Value::from("status:queued")])),
            ("name", Value::from(format!("boot/é\t{i}"))),
        ])
    };
    for i in 0..6 {
        runs.insert(run(i)).unwrap();
    }
    let push_event = |doc: &mut Value, event: &str| {
        let mut events = doc.at("events").and_then(Value::as_array).unwrap().to_vec();
        events.push(Value::from(event));
        doc.set_at("events", Value::Array(events));
    };
    let by_id = |i: usize| Filter::eq("_id", format!("run-{i:04}"));
    // Only `events` (no indexed field).
    runs.update_many(&by_id(1), |d| push_event(d, "dispatch:w1:g1"))
        .unwrap();
    // Only `status`, on every queued run.
    runs.update_many(&Filter::eq("status", "queued"), |d| {
        d.set_at("status", Value::from("running"));
    })
    .unwrap();
    // `status` + the first `results.simTicks`.
    runs.update_many(&by_id(2), |d| {
        d.set_at("status", Value::from("done"));
        d.set_at("results.simTicks", Value::from(91_000_000i64));
        push_event(d, "status:done");
    })
    .unwrap();
    let mut replaced = run(3);
    replaced.set_at("hash", Value::from("h03-again"));
    replaced.set_at("results.simTicks", Value::from(1.5));
    runs.upsert(replaced).unwrap();
    runs.delete("run-0005").unwrap();
    let pin = |file: &str| format!("{:016x}", fnv1a(&std::fs::read(dir.join(file)).unwrap()));
    let journal_before = pin("journal.log");
    db.checkpoint().unwrap();
    runs.update_many(&by_id(4), |d| {
        d.set_at("status", Value::from("failed"));
    })
    .unwrap();
    runs.update_many(&by_id(2), |d| push_event(d, "archived"))
        .unwrap();
    assert_eq!(
        [
            journal_before,
            pin("runs.jsonl"),
            pin("indexes.json"),
            pin("journal.log")
        ]
        .join(" "),
        "a53723f7f3ced529 4b9cbf9413c9e115 62230750587afc1d a548f83920860d3f"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What a campaign's identity rests on: the run ids and run hashes of
/// the benchmark's three artifact families, and every stored artifact
/// document with its own id removed and the ids in its `inputs`
/// replaced by those inputs' content hashes. Artifact ids themselves
/// are not pinned — only what they name.
#[test]
fn run_identity_is_pinned() {
    use simart::Experiment;
    use simart_fullsim::os::OsImage;
    use simart_resources::kernels::KernelResource;
    use simart_resources::{disks, suite};
    use std::collections::BTreeMap;

    let experiment = Experiment::new("identity-pin");
    // (kernel, kernel path, disk, disk path, params) per run.
    let (repo, binary, script, specs) = experiment
        .with_registry(|registry| {
            let [repo, binary, script] = suite::register_simulator(registry, "20.1.0.4", "X86")?;
            let mut specs = Vec::new();
            for os in OsImage::ALL {
                let version = os.profile().default_kernel;
                let kernel = suite::register_kernel(registry, &KernelResource::standard(version))?;
                let disk = suite::register_disk_image(registry, &disks::parsec_image(os))?;
                for app in ["dedup", "blackscholes"] {
                    specs.push((
                        kernel.id(),
                        format!("vmlinux-{}", version.release()),
                        disk.id(),
                        format!("disks/parsec-{os}.img"),
                        vec![app.to_owned(), os.to_string(), "8".to_owned()],
                    ));
                }
            }
            let boot_exit = suite::register_disk_image(registry, &disks::boot_exit_image())?;
            for version in KernelVersion::FIGURE8 {
                let kernel = suite::register_kernel(registry, &KernelResource::standard(version))?;
                for cores in ["1", "4"] {
                    specs.push((
                        kernel.id(),
                        format!("vmlinux-{}", version.release()),
                        boot_exit.id(),
                        "disks/boot-exit.img".to_owned(),
                        vec![
                            "boot".to_owned(),
                            cores.to_owned(),
                            version.release().to_owned(),
                        ],
                    ));
                }
            }
            Ok((repo.id(), binary.id(), script.id(), specs))
        })
        .unwrap();
    let mut identities: Vec<String> = specs
        .into_iter()
        .map(|(kernel, kernel_path, disk, disk_path, params)| {
            let run = experiment
                .create_fs_run(|b| {
                    b.simulator(binary, "gem5/build/X86/gem5.opt")
                        .simulator_repo(repo)
                        .run_script(script, "configs/run.py")
                        .kernel(kernel, kernel_path)
                        .disk_image(disk, disk_path)
                        .params(params)
                })
                .unwrap();
            format!("{} {}", run.id(), run.run_hash())
        })
        .collect();
    identities.sort();

    let docs = experiment.database().collection("artifacts").all();
    let hash_of: BTreeMap<String, String> = docs
        .iter()
        .map(|doc| {
            let text = |path| doc.at(path).and_then(Value::as_str).unwrap().to_owned();
            (text("_id"), text("hash"))
        })
        .collect();
    let mut rendered: Vec<String> = docs
        .into_iter()
        .map(|doc| {
            let Value::Map(mut fields) = doc else {
                panic!("artifact document is a map")
            };
            fields.remove("_id");
            if let Some(Value::Array(inputs)) = fields.get_mut("inputs") {
                for input in inputs {
                    *input = Value::from(hash_of[input.as_str().unwrap()].as_str());
                }
            }
            simart_codec::json::to_json(&Value::Map(fields))
        })
        .collect();
    rendered.sort();
    assert_eq!(
        format!(
            "{} runs {:016x}, {} artifacts {:016x}",
            identities.len(),
            fnv1a(identities.join("\n").as_bytes()),
            rendered.len(),
            fnv1a(rendered.join("\n").as_bytes()),
        ),
        "14 runs 4c335c3dbdc416d5, 12 artifacts 70e8cdf37f10e483"
    );
}
