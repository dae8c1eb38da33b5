//! Use-case 2: Linux boot tests (Figure 8).
//!
//! Boots the 480-configuration cross product — 5 LTS kernels × 4 CPU
//! models × {1,2,4,8} cores × 3 memory systems × 2 boot targets — and
//! classifies every outcome, reproducing the aggregate pattern the
//! paper reports (kvm everywhere, Atomic only on Classic, Timing
//! everywhere but multi-core Classic, O3 ≈40 % success with 27 kernel
//! panics / 11 simulator crashes / 4 MI_example deadlocks and the rest
//! timeouts).

use simart::db::Filter;
use simart::kinds::{self, RunKind, RunSpec};
use simart::resources::{disks, kernels::KernelResource, suite};
use simart::run::FsRun;
use simart::sim::compat::{figure8_configs, BootConfig, BootOutcome};
use simart::sim::cpu::CpuKind;
use simart::sim::kernel::KernelVersion;
use simart::sim::system::Fidelity;
use simart::tasks::PoolScheduler;
use simart::Experiment;
use std::collections::BTreeMap;

/// One boot-test result.
#[derive(Debug, Clone, PartialEq)]
pub struct Uc2Row {
    /// The configuration.
    pub config: BootConfig,
    /// What happened.
    pub outcome: BootOutcome,
    /// Boot time in ticks (0 for non-successful runs).
    pub boot_ticks: u64,
}

/// Complete use-case 2 results.
#[derive(Debug, Clone, PartialEq)]
pub struct Uc2Data {
    /// All 480 results.
    pub rows: Vec<Uc2Row>,
}

impl Uc2Data {
    /// Aggregate outcome counts for one CPU model.
    pub fn outcome_counts(&self, cpu: CpuKind) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for row in self.rows.iter().filter(|r| r.config.cpu == cpu) {
            *counts.entry(row.outcome.label()).or_insert(0) += 1;
        }
        counts
    }

    /// Success rate for one CPU model over configurations that are not
    /// structurally unsupported.
    pub fn success_rate(&self, cpu: CpuKind) -> f64 {
        let supported: Vec<&Uc2Row> = self
            .rows
            .iter()
            .filter(|r| {
                r.config.cpu == cpu && !matches!(r.outcome, BootOutcome::Unsupported { .. })
            })
            .collect();
        if supported.is_empty() {
            return 0.0;
        }
        supported.iter().filter(|r| r.outcome.is_success()).count() as f64 / supported.len() as f64
    }
}

/// Runs all 480 boot tests through the framework at `fidelity`, which
/// each run records as its last param, returning outcomes.
pub fn run(fidelity: Fidelity) -> Uc2Data {
    let experiment = Experiment::new("usecase2-boot-tests");

    // Artifacts: simulator, boot-exit image, five kernels, run script.
    let (simulator, repo, script, disk, kernel_ids) = experiment
        .with_registry(|registry| {
            let [repo, binary, script] = suite::register_simulator(registry, "20.1.0.4", "X86")?;
            let disk = suite::register_disk_image(registry, &disks::boot_exit_image())?;
            let mut kernel_ids = Vec::new();
            for version in KernelVersion::FIGURE8 {
                let kernel = suite::register_kernel(registry, &KernelResource::standard(version))?;
                kernel_ids.push((version, kernel.id()));
            }
            Ok((binary.id(), repo.id(), script.id(), disk.id(), kernel_ids))
        })
        .expect("use-case 2 artifact registration is conflict-free");

    let mut runs: Vec<FsRun> = Vec::new();
    for config in figure8_configs() {
        let kernel_artifact = kernel_ids
            .iter()
            .find(|(v, _)| *v == config.kernel)
            .map(|(_, id)| *id)
            .expect("all Figure 8 kernels registered");
        let run = experiment
            .create_fs_run(|b| {
                b.simulator(simulator, "gem5/build/X86/gem5.opt")
                    .simulator_repo(repo)
                    .run_script(script, RunKind::Figure8Boot.script())
                    .kernel(
                        kernel_artifact,
                        format!("vmlinux-{}", config.kernel.release()),
                    )
                    .disk_image(disk, "disks/boot-exit.img")
                    .params(RunSpec::Figure8(config, fidelity).encode())
                    .timeout_seconds(24 * 3600)
            })
            .expect("valid boot-test run");
        runs.push(run);
    }

    let pool = PoolScheduler::new(
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4),
    );
    experiment.launch(runs, &pool, kinds::execute);

    // Reconstruct the matrix from the database.
    let mut rows = Vec::new();
    for doc in experiment.query_runs(&Filter::eq("status", "done")) {
        let Ok(RunSpec::Figure8(config, _)) = RunSpec::of_document(&doc) else {
            panic!("stored params decode as a Figure 8 boot");
        };
        let outcome = kinds::decode_boot_outcome(
            doc.at("results.outcome")
                .and_then(simart::db::Value::as_str)
                .expect("outcome"),
        );
        let boot_ticks = doc
            .at("results.simTicks")
            .and_then(simart::db::Value::as_int)
            .unwrap_or(0) as u64;
        rows.push(Uc2Row {
            config,
            outcome,
            boot_ticks,
        });
    }
    rows.sort_by_key(|r| {
        (
            r.config.kernel,
            r.config.cpu.to_string(),
            r.config.mem.to_string(),
            r.config.cores,
            r.config.boot.to_string(),
        )
    });
    assert_eq!(rows.len(), 480, "all boot tests recorded");
    Uc2Data { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simart::sim::compat::o3_counts;
    use simart::sim::mem::MemKind;

    #[test]
    fn figure8_matrix_matches_the_paper() {
        let data = run(Fidelity::Smoke);
        assert_eq!(data.rows.len(), 480);

        // kvm works in all cases.
        assert_eq!(data.success_rate(CpuKind::Kvm), 1.0);
        assert_eq!(data.outcome_counts(CpuKind::Kvm)["success"], 120);

        // Atomic works in all supported (Classic) cases.
        let atomic = data.outcome_counts(CpuKind::AtomicSimple);
        assert_eq!(atomic["success"], 40);
        assert_eq!(atomic["unsupported"], 80, "Ruby rejects the atomic CPU");

        // Timing fails only >1 core on incoherent Classic.
        let timing = data.outcome_counts(CpuKind::TimingSimple);
        assert_eq!(timing["unsupported"], 30);
        assert_eq!(timing["success"], 90);

        // O3: the paper's exact failure counts.
        let o3 = data.outcome_counts(CpuKind::O3);
        assert_eq!(o3["kernel-panic"], o3_counts::PANICS);
        assert_eq!(o3["sim-crash"], o3_counts::CRASHES);
        assert_eq!(o3["deadlock"], o3_counts::DEADLOCKS);
        assert_eq!(o3["timeout"], o3_counts::TIMEOUTS);
        let rate = data.success_rate(CpuKind::O3);
        assert!((0.35..=0.45).contains(&rate), "O3 ≈40% success, got {rate}");
    }

    #[test]
    fn deadlocks_only_on_mi_example() {
        let data = run(Fidelity::Smoke);
        for row in &data.rows {
            if row.outcome == BootOutcome::ProtocolDeadlock {
                assert_eq!(row.config.mem, MemKind::RubyMi);
                assert_eq!(row.config.cpu, CpuKind::O3);
            }
        }
    }

    #[test]
    fn successful_boots_have_positive_times() {
        let data = run(Fidelity::Smoke);
        for row in &data.rows {
            if row.outcome.is_success() {
                assert!(row.boot_ticks > 0, "{:?}", row.config);
            }
        }
    }
}
