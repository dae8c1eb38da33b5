//! Use-case 1: PARSEC across Ubuntu LTS releases (Table II, Figures 6
//! and 7).
//!
//! Runs the full framework pipeline exactly as the paper's launch
//! script does: register the simulator, kernels, run script and both
//! PARSEC disk images as artifacts; create one [`FsRun`] per
//! (OS × application × core count) combination; execute the cross
//! product through a scheduler; then answer Figures 6 and 7 from the
//! database.

use simart::artifact::ArtifactId;
use simart::db::{Filter, Value};
use simart::kinds::{self, ParsecRun, RunKind, RunSpec};
use simart::resources::{disks, kernels::KernelResource, suite};
use simart::run::FsRun;
use simart::sim::kernel::KernelVersion;
use simart::sim::os::OsImage;
use simart::sim::system::Fidelity;
use simart::sim::ticks::Tick;
use simart::sim::workload::{InputSize, PARSEC_APPS};
use simart::tasks::PoolScheduler;
use simart::Experiment;

/// Core counts evaluated by Table II.
pub const CORE_COUNTS: [u32; 3] = [1, 2, 8];

/// One measured data point.
#[derive(Debug, Clone, PartialEq)]
pub struct Uc1Row {
    /// PARSEC application.
    pub app: String,
    /// OS image the run used.
    pub os: OsImage,
    /// Core count.
    pub cores: u32,
    /// Benchmark execution time in ticks.
    pub exec_ticks: Tick,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// CPU utilization (instructions per core-cycle).
    pub utilization: f64,
}

/// Complete use-case 1 results.
#[derive(Debug, Clone, PartialEq)]
pub struct Uc1Data {
    /// All 60 data points.
    pub rows: Vec<Uc1Row>,
}

impl Uc1Data {
    /// Looks up one data point.
    pub fn get(&self, app: &str, os: OsImage, cores: u32) -> Option<&Uc1Row> {
        self.rows
            .iter()
            .find(|r| r.app == app && r.os == os && r.cores == cores)
    }

    /// Figure 6 series: per-app absolute execution-time difference
    /// (Ubuntu 18.04 minus 20.04, in simulated seconds) for each core
    /// count. Positive = 18.04 slower.
    pub fn figure6(&self) -> Vec<(String, u32, f64)> {
        let mut series = Vec::new();
        for app in PARSEC_APPS {
            for cores in CORE_COUNTS {
                if let (Some(bionic), Some(focal)) = (
                    self.get(app, OsImage::Ubuntu1804, cores),
                    self.get(app, OsImage::Ubuntu2004, cores),
                ) {
                    let diff = seconds(bionic.exec_ticks) - seconds(focal.exec_ticks);
                    series.push((app.to_owned(), cores, diff));
                }
            }
        }
        series
    }

    /// Figure 7 series: per-app speedup from 1 to 8 cores, per OS.
    pub fn figure7(&self) -> Vec<(String, OsImage, f64)> {
        let mut series = Vec::new();
        for app in PARSEC_APPS {
            for os in OsImage::ALL {
                if let (Some(one), Some(eight)) = (self.get(app, os, 1), self.get(app, os, 8)) {
                    series.push((
                        app.to_owned(),
                        os,
                        one.exec_ticks as f64 / eight.exec_ticks as f64,
                    ));
                }
            }
        }
        series
    }
}

/// Ticks to simulated seconds.
pub fn seconds(ticks: Tick) -> f64 {
    ticks as f64 / simart::sim::ticks::TICKS_PER_SECOND as f64
}

/// Registered artifact handles for the use-case 1 experiment.
struct Uc1Artifacts {
    simulator: ArtifactId,
    repo: ArtifactId,
    script: ArtifactId,
    kernel_bionic: ArtifactId,
    kernel_focal: ArtifactId,
    disk_bionic: ArtifactId,
    disk_focal: ArtifactId,
}

fn register_artifacts(experiment: &Experiment) -> Uc1Artifacts {
    experiment
        .with_registry(|registry| {
            let [repo, binary, script] = suite::register_simulator(registry, "20.1.0.4", "X86")?;
            let kernel_bionic =
                suite::register_kernel(registry, &KernelResource::standard(KernelVersion::V4_15))?;
            let kernel_focal =
                suite::register_kernel(registry, &KernelResource::standard(KernelVersion::V5_4))?;
            let disk_bionic =
                suite::register_disk_image(registry, &disks::parsec_image(OsImage::Ubuntu1804))?;
            let disk_focal =
                suite::register_disk_image(registry, &disks::parsec_image(OsImage::Ubuntu2004))?;
            Ok(Uc1Artifacts {
                simulator: binary.id(),
                repo: repo.id(),
                script: script.id(),
                kernel_bionic: kernel_bionic.id(),
                kernel_focal: kernel_focal.id(),
                disk_bionic: disk_bionic.id(),
                disk_focal: disk_focal.id(),
            })
        })
        .expect("use-case 1 artifact registration is conflict-free")
}

/// Runs the full use-case 1 experiment, returning the measured data.
///
/// `fidelity` selects sample sizes (use [`Fidelity::Smoke`] in tests);
/// each run records it as its last param.
pub fn run(fidelity: Fidelity) -> Uc1Data {
    let experiment = Experiment::new("usecase1-parsec");
    let artifacts = register_artifacts(&experiment);

    // The cross product of Figure 5's launch script ("for each
    // combination P in [cpus, benchmarks, ...]").
    let sweep = simart::cross::CrossProduct::new()
        .axis("app", PARSEC_APPS)
        .axis("os", OsImage::ALL.map(|os| os.to_string()))
        .axis("cores", CORE_COUNTS.map(|c| c.to_string()));
    let mut runs: Vec<FsRun> = Vec::new();
    for combo in sweep.iter() {
        let os: OsImage = combo
            .get("os")
            .and_then(|os| os.parse().ok())
            .expect("the os axis spells OS images");
        let (kernel, disk) = match os {
            OsImage::Ubuntu1804 => (artifacts.kernel_bionic, artifacts.disk_bionic),
            OsImage::Ubuntu2004 => (artifacts.kernel_focal, artifacts.disk_focal),
        };
        let run = experiment
            .create_fs_run(|b| {
                b.simulator(artifacts.simulator, "gem5/build/X86/gem5.opt")
                    .simulator_repo(artifacts.repo)
                    .run_script(artifacts.script, RunKind::Table2Parsec.script())
                    .kernel(kernel, format!("vmlinux-{}", os.profile().default_kernel))
                    .disk_image(disk, format!("disks/parsec-{os}.img"))
                    .output_dir(format!("results/{}", combo.label()))
                    .params(combo.params())
                    .param(InputSize::SimMedium.to_string())
                    .param(fidelity.to_string())
                    .timeout_seconds(24 * 3600)
            })
            .expect("valid use-case 1 run");
        runs.push(run);
    }

    let pool = PoolScheduler::new(
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4),
    );
    let summary = experiment.launch(runs, &pool, kinds::execute);
    assert_eq!(
        summary.failed + summary.timed_out,
        0,
        "use-case 1 runs all succeed"
    );

    // Step 8: answer the figures from the database.
    let mut rows = Vec::new();
    for doc in experiment.query_runs(&Filter::eq("status", "done")) {
        let Ok(RunSpec::Table2(ParsecRun { app, os, cores, .. })) = RunSpec::of_document(&doc)
        else {
            panic!("stored params decode as a Table II run");
        };
        let exec_ticks = doc
            .at("results.simTicks")
            .and_then(Value::as_int)
            .expect("ticks") as u64;
        // Details live in the archived stats payload.
        let run_id = doc
            .at("_id")
            .and_then(Value::as_str)
            .expect("id")
            .parse()
            .expect("uuid");
        let payload = experiment
            .runs()
            .load_results(run_id)
            .expect("results archived");
        let stats = simart::sim::stats::Stats::parse_dump(&String::from_utf8_lossy(&payload));
        let instructions = stats.count("workload.instructions");
        let utilization = stats.scalar("workload.utilization");
        rows.push(Uc1Row {
            app: app.to_owned(),
            os,
            cores,
            exec_ticks,
            instructions,
            utilization,
        });
    }
    rows.sort_by(|a, b| (&a.app, a.os as u8, a.cores).cmp(&(&b.app, b.os as u8, b.cores)));
    Uc1Data { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_produces_sixty_rows() {
        let data = run(Fidelity::Smoke);
        assert_eq!(data.rows.len(), 60, "2 OS x 10 apps x 3 core counts");
        assert_eq!(data.figure6().len(), 30);
        assert_eq!(data.figure7().len(), 20);
    }

    #[test]
    fn shape_bionic_slower_and_gap_shrinks_with_cores() {
        let data = run(Fidelity::Smoke);
        let fig6 = data.figure6();
        let positive = fig6.iter().filter(|(_, _, diff)| *diff > 0.0).count();
        assert!(
            positive as f64 / fig6.len() as f64 > 0.9,
            "applications typically take longer on 18.04 ({positive}/{})",
            fig6.len()
        );
        for app in PARSEC_APPS {
            let at = |cores| {
                fig6.iter()
                    .find(|(a, c, _)| a == app && *c == cores)
                    .map(|(_, _, d)| *d)
                    .unwrap()
            };
            assert!(
                at(8) < at(1),
                "{app}: difference shrinks with cores ({} vs {})",
                at(8),
                at(1)
            );
        }
    }

    #[test]
    fn shape_focal_more_instructions_higher_utilization() {
        let data = run(Fidelity::Smoke);
        for app in PARSEC_APPS {
            let bionic = data.get(app, OsImage::Ubuntu1804, 2).unwrap();
            let focal = data.get(app, OsImage::Ubuntu2004, 2).unwrap();
            assert!(
                focal.instructions > bionic.instructions,
                "{app}: more instructions"
            );
            assert!(
                focal.utilization > bionic.utilization,
                "{app}: higher utilization"
            );
        }
    }

    #[test]
    fn shape_focal_speedups_higher_especially_blackscholes_ferret() {
        let data = run(Fidelity::Smoke);
        let speedup = |app: &str, os| {
            data.figure7()
                .into_iter()
                .find(|(a, o, _)| a == app && *o == os)
                .map(|(_, _, s)| s)
                .unwrap()
        };
        let mut focal_higher = 0;
        for app in PARSEC_APPS {
            if speedup(app, OsImage::Ubuntu2004) > speedup(app, OsImage::Ubuntu1804) {
                focal_higher += 1;
            }
        }
        assert!(
            focal_higher >= 7,
            "20.04 generally achieves greater speedup ({focal_higher}/10)"
        );
        for app in ["blackscholes", "ferret"] {
            let gain = speedup(app, OsImage::Ubuntu2004) / speedup(app, OsImage::Ubuntu1804);
            assert!(
                gain > 1.02,
                "{app} shows a pronounced 20.04 speedup gain ({gain:.3})"
            );
        }
    }
}
