//! Quickstart: the complete framework workflow in ~60 lines.
//!
//! Registers the artifacts of a tiny experiment, creates one
//! full-system run, executes it through the simulator, and queries the
//! database for the archived results.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use simart::db::Filter;
use simart::kinds::{self, ParsecRun, RunSpec};
use simart::resources::{disks, kernels::KernelResource, suite};
use simart::sim::kernel::KernelVersion;
use simart::sim::os::OsImage;
use simart::sim::system::Fidelity;
use simart::sim::workload::InputSize;
use simart::tasks::SerialScheduler;
use simart::Experiment;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. An experiment session: artifact registry + database.
    let experiment = Experiment::new("quickstart");

    // 2. Register every input as an artifact (steps 1-2 of the paper's
    //    workflow). The resource helpers fill in reproduction docs.
    let (simulator, repo, script, kernel, disk) = experiment.with_registry(|registry| {
        let [repo, binary, script] = suite::register_simulator(registry, "20.1.0.4", "X86")?;
        let kernel =
            suite::register_kernel(registry, &KernelResource::standard(KernelVersion::V5_4))?;
        let disk = suite::register_disk_image(registry, &disks::parsec_image(OsImage::Ubuntu2004))?;
        Ok((binary.id(), repo.id(), script.id(), kernel.id(), disk.id()))
    })?;
    println!("registered {} artifacts", experiment.artifact_count());

    // 3. Create a run object: one unique experiment. Its run script
    //    names the Table II kind, which records
    //    `[app, os, cores, input, fidelity]`.
    let spec = RunSpec::Table2(ParsecRun {
        app: "blackscholes",
        os: OsImage::Ubuntu2004,
        cores: 2,
        input: InputSize::SimSmall,
        fidelity: Fidelity::Smoke,
    });
    let run = experiment.create_fs_run(|b| {
        b.simulator(simulator, "gem5/build/X86/gem5.opt")
            .simulator_repo(repo)
            .run_script(script, spec.kind().script())
            .kernel(kernel, "vmlinux-5.4.51")
            .disk_image(disk, "disks/parsec-ubuntu-20.04.img")
            .params(spec.encode())
    })?;
    println!("created run {} (hash {})", run.id(), run.run_hash());

    // 4-7. Launch it: the kind boots the simulated system, runs the
    //       benchmark, and the framework archives the results.
    let summary = experiment.launch(vec![run], &SerialScheduler::new(), kinds::execute);
    println!("launch summary: {summary:?}");

    // 8. Query the database.
    for doc in experiment.query_runs(&Filter::eq("status", "done")) {
        let ticks = doc
            .at("results.simTicks")
            .and_then(simart::db::Value::as_int)
            .unwrap_or(0);
        println!(
            "run {} -> {} simulated ticks",
            doc.at("hash")
                .and_then(simart::db::Value::as_str)
                .unwrap_or("?"),
            ticks
        );
    }
    Ok(())
}
