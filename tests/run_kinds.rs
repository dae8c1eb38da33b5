//! Every run kind reads back exactly the params it records, and a run
//! whose script names a kind is refused at creation when one of its
//! params is missing, unread or misspelt. The fidelity is one of those
//! params, so runs at different fidelities have different run hashes.

use proptest::prelude::*;
use simart::artifact::{Artifact, ArtifactId, ArtifactKind, ContentSource};
use simart::kinds::{CampaignBoot, ParsecRun, RunKind, RunSpec};
use simart::sim::compat::BootConfig;
use simart::sim::cpu::CpuKind;
use simart::sim::kernel::{BootKind, KernelVersion};
use simart::sim::mem::MemKind;
use simart::sim::os::OsImage;
use simart::sim::system::Fidelity;
use simart::sim::workload::{InputSize, PARSEC_APPS};
use simart::{Experiment, ExperimentError};

fn spec() -> impl Strategy<Value = RunSpec> {
    prop_oneof![
        (0usize..4, 1u32..65).prop_map(|(cpu, cores)| RunSpec::Campaign(CampaignBoot {
            cpu: CpuKind::FIGURE8[cpu],
            cores,
        })),
        (
            0usize..4,
            0usize..4,
            1u32..65,
            (0usize..2, 0usize..6, 0usize..3)
        )
            .prop_map(
                |(cpu, mem, cores, (boot, kernel, fidelity))| RunSpec::Figure8(
                    BootConfig {
                        cpu: CpuKind::FIGURE8[cpu],
                        mem: MemKind::ALL[mem],
                        cores,
                        boot: BootKind::ALL[boot],
                        kernel: KernelVersion::ALL[kernel],
                    },
                    Fidelity::ALL[fidelity]
                )
            ),
        (0usize..10, 0usize..2, 1u32..65, (0usize..5, 0usize..3)).prop_map(
            |(app, os, cores, (input, fidelity))| RunSpec::Table2(ParsecRun {
                app: PARSEC_APPS[app],
                os: OsImage::ALL[os],
                cores,
                input: InputSize::ALL[input],
                fidelity: Fidelity::ALL[fidelity],
            })
        ),
    ]
}

proptest! {
    #[test]
    fn every_kind_round_trips_its_params(spec in spec()) {
        let kind = spec.kind();
        let params = spec.encode();
        prop_assert_eq!(params.len(), kind.params().len());
        prop_assert_eq!(kind.decode(&params), Ok(spec));
        prop_assert_eq!(kind.check(&params), Ok(spec));
        prop_assert_eq!(RunKind::of_script(kind.script()), Some(kind));
    }
}

fn session() -> (Experiment, [ArtifactId; 5]) {
    let experiment = Experiment::new("run-kinds");
    let ids = [
        ("sim", ArtifactKind::Binary),
        ("sim-repo", ArtifactKind::GitRepo),
        ("script", ArtifactKind::RunScript),
        ("vmlinux", ArtifactKind::Kernel),
        ("disk", ArtifactKind::DiskImage),
    ]
    .map(|(name, kind)| {
        let builder = Artifact::builder(name, kind)
            .documentation(name)
            .content(ContentSource::bytes(name.as_bytes().to_vec()));
        experiment
            .register_artifact(builder)
            .expect("register")
            .id()
    });
    (experiment, ids)
}

fn create(
    experiment: &Experiment,
    [binary, repo, script, kernel, disk]: [ArtifactId; 5],
    path: &str,
    params: &[&str],
) -> Result<String, ExperimentError> {
    experiment
        .create_fs_run(|b| {
            b.simulator(binary, "sim")
                .simulator_repo(repo)
                .run_script(script, path)
                .kernel(kernel, "vmlinux")
                .disk_image(disk, "disk.img")
                .params(params.iter().copied())
        })
        .map(|run| run.run_hash().to_owned())
}

#[test]
fn each_registered_script_refuses_missing_extra_and_misspelt_params() {
    let (experiment, ids) = session();
    type Params<'a> = &'a [&'a str];
    let cases: [(RunKind, Params, &[Params]); 3] = [
        (RunKind::CampaignBoot, &["kvm", "1"], &[&["kvmCPU", "1"]]),
        (
            RunKind::Figure8Boot,
            &[
                "O3CPU",
                "MESI_Two_Level",
                "4",
                "systemd-runlevel5",
                "5.4.51",
                "standard",
            ],
            &[
                &[
                    "O3CPU",
                    "MESI_Two_Level",
                    "4",
                    "systemd-runlevel5",
                    "v5.4.51",
                    "standard",
                ],
                &[
                    "O3CPU",
                    "MESI_Two_Level",
                    "4",
                    "systemd-runlevel5",
                    "5.4.51",
                    "Standard",
                ],
            ],
        ),
        (
            RunKind::Table2Parsec,
            &["blackscholes", "ubuntu-20.04", "2", "simmedium", "smoke"],
            &[
                &["blackscholes", "ubuntu-20.04", "2", "SimMedium", "smoke"],
                &["blackscholes", "ubuntu-20.04", "2", "simmedium", "Smoke"],
            ],
        ),
    ];
    for (kind, valid, misspelt) in cases {
        let script = kind.script();
        create(&experiment, ids, script, valid).unwrap_or_else(|e| panic!("{script}: {e}"));
        let missing = &valid[..valid.len() - 1];
        let extra = [valid, &["parsec"]].concat();
        for params in [missing, &extra]
            .into_iter()
            .chain(misspelt.iter().copied())
        {
            let refused = create(&experiment, ids, script, params);
            assert!(
                matches!(refused, Err(ExperimentError::Params(_))),
                "{script} {params:?}: {refused:?}"
            );
        }
    }
}

#[test]
fn each_fidelity_is_its_own_run() {
    let (experiment, ids) = session();
    let mut hashes: Vec<String> = Fidelity::ALL
        .iter()
        .map(|fidelity| {
            let fidelity = fidelity.to_string();
            let params = ["dedup", "ubuntu-20.04", "2", "simmedium", &fidelity];
            create(&experiment, ids, RunKind::Table2Parsec.script(), &params).expect("created")
        })
        .collect();
    hashes.sort();
    hashes.dedup();
    assert_eq!(hashes.len(), 3, "Smoke, Standard and Detailed: {hashes:?}");
}

#[test]
fn a_number_spelt_another_way_is_refused() {
    let (experiment, ids) = session();
    let refused = create(&experiment, ids, "boot.cfg", &["kvm", "01"]).unwrap_err();
    let message = refused.to_string();
    assert!(message.contains("boot.cfg reads [cpu, cores]"), "{message}");
}

#[test]
fn a_script_that_names_no_kind_is_not_checked() {
    let (experiment, ids) = session();
    for params in [&["kvm", "1", "copy"][..], &[], &["anything"]] {
        create(&experiment, ids, "configs/run.py", params).expect("unchecked");
    }
}
