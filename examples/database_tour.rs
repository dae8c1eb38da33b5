//! Database tour: run a small sweep, then slice the results with the
//! query layer, render Markdown, and persist the
//! database to disk — everything the paper does in Jupyter, in Rust.
//!
//! ```text
//! cargo run --example database_tour --release
//! ```

use simart::cross::CrossProduct;
use simart::db::{Database, Filter, Value};
use simart::kinds::{self, ParsecRun, RunKind, RunSpec};
use simart::report::Table;
use simart::resources::{disks, kernels::KernelResource, suite};
use simart::sim::kernel::KernelVersion;
use simart::sim::os::OsImage;
use simart::sim::system::Fidelity;
use simart::sim::workload::InputSize;
use simart::tasks::PoolScheduler;
use simart::Experiment;
use std::collections::BTreeMap;

/// A stored run's params, read by the kind its run script names.
fn parsec_run(doc: &Value) -> ParsecRun {
    match RunSpec::of_document(doc) {
        Ok(RunSpec::Table2(run)) => run,
        other => panic!("not a Table II run: {other:?}"),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let experiment = Experiment::new("database-tour");
    let (simulator, repo, script, kernel, disk) = experiment.with_registry(|r| {
        let [repo, bin, script] = suite::register_simulator(r, "20.1.0.4", "X86")?;
        let kernel = suite::register_kernel(r, &KernelResource::standard(KernelVersion::V5_4))?;
        let disk = suite::register_disk_image(r, &disks::parsec_image(OsImage::Ubuntu2004))?;
        Ok((bin.id(), repo.id(), script.id(), kernel.id(), disk.id()))
    })?;

    // A small sweep: 3 apps x 3 core counts, in the Table II layout
    // `[app, os, cores, input, fidelity]` its run script records.
    let sweep = CrossProduct::new()
        .axis("app", ["blackscholes", "dedup", "swaptions"])
        .axis("os", [OsImage::Ubuntu2004.to_string()])
        .axis("cores", ["1", "2", "8"])
        .axis("input", [InputSize::SimSmall.to_string()])
        .axis("fidelity", [Fidelity::Smoke.to_string()]);
    let runs: Vec<_> = sweep
        .iter()
        .map(|combo| {
            experiment
                .create_fs_run(|b| {
                    b.simulator(simulator, "sim")
                        .simulator_repo(repo)
                        .run_script(script, RunKind::Table2Parsec.script())
                        .kernel(kernel, "vmlinux")
                        .disk_image(disk, "disk.img")
                        .params(combo.params())
                })
                .expect("valid run")
        })
        .collect();

    let pool = PoolScheduler::new(4);
    let summary = experiment.launch(runs, &pool, kinds::execute);
    println!("launched: {summary:?}\n");

    // Query, then reduce in plain Rust: mean simulated time per
    // application over the runs that finished.
    let runs_collection = experiment.database().collection("runs");
    let mut ticks: BTreeMap<&str, Vec<i64>> = BTreeMap::new();
    for doc in runs_collection.find(&Filter::eq("status", "done")) {
        let sim_ticks = doc.at("results.simTicks").and_then(Value::as_int);
        ticks
            .entry(parsec_run(&doc).app)
            .or_default()
            .extend(sim_ticks);
    }
    let mut table = Table::new(
        "Mean simulated ticks per application",
        &["app", "mean ticks"],
    );
    for (app, ticks) in &ticks {
        let mean = ticks.iter().map(|&t| t as f64).sum::<f64>() / ticks.len() as f64;
        table.row(&[(*app).to_owned(), format!("{mean:.0}")]);
    }
    println!("{}", table.render());
    println!("same table as Markdown:\n\n{}", table.render_markdown());

    // Targeted query: which runs took more than 2 simulated seconds?
    let slow = runs_collection.find(
        &Filter::eq("status", "done").and(Filter::gt("results.simTicks", 2_000_000_000_000i64)),
    );
    println!("{} run(s) took more than 2 simulated seconds:", slow.len());
    for doc in slow {
        let run = parsec_run(&doc);
        println!("  {} on {} core(s)", run.app, run.cores);
    }

    // Persist everything; a collaborator can `Database::load` it.
    let dir = std::env::temp_dir().join("simart-database-tour");
    let _ = std::fs::remove_dir_all(&dir);
    experiment.database().save(&dir)?;
    let restored = Database::load(&dir)?;
    println!(
        "\ndatabase persisted to {} ({} runs, {} artifacts) and reloaded successfully",
        dir.display(),
        restored.collection("runs").len(),
        restored.collection("artifacts").len()
    );

    // Attached mode: `open` journals every mutation as it commits —
    // kill the process at any point and nothing committed is lost.
    // `checkpoint` folds the journal back into the snapshot files.
    let attached = Database::open(&dir)?;
    attached.collection("notes").insert(Value::map([
        ("_id", Value::from("tour")),
        ("text", Value::from("journaled the moment it was inserted")),
    ]))?;
    attached.checkpoint()?;
    println!(
        "attached reopen: note journaled and checkpointed ({} collections on disk)",
        Database::load(&dir)?.collection_names().len()
    );
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
