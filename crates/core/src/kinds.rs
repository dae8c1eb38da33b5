//! Run kinds: what a run's params mean, keyed by the run script the run
//! records (DESIGN §1).
//!
//! [`RunKind`] is the closed table of run scripts this program executes.
//! A kind decodes params into a typed [`RunSpec`], encodes the spec back
//! to the exact strings a run records, and executes it. The params say
//! everything that shapes the result, the [`Fidelity`] included, so the
//! run hash names what ran. [`Experiment::create_fs_run`](crate::Experiment::create_fs_run)
//! refuses a run of a kind whose params do not round-trip
//! ([`RunKind::check`]); a script that names no kind is not checked.

use crate::experiment::ExecOutcome;
use crate::remote::CHECKPOINT_DIR_ENV;
use simart_db::Value;
use simart_fullsim::checkpoint::CheckpointStore;
use simart_fullsim::compat::{BootConfig, BootOutcome};
use simart_fullsim::cpu::CpuKind;
use simart_fullsim::kernel::{BootKind, BootStage, KernelVersion};
use simart_fullsim::mem::MemKind;
use simart_fullsim::os::OsImage;
use simart_fullsim::system::{Fidelity, SimOutput, SystemConfig};
use simart_fullsim::workload::{parsec_profile, InputSize, PARSEC_APPS};
use simart_run::FsRun;
use std::fmt::Display;

/// The run scripts this program executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunKind {
    /// `boot.cfg`: the CLI campaign's boot, `[cpu, cores]` with the
    /// short cpu spelling ([`CpuKind::short`]), at
    /// [`Fidelity::Standard`].
    CampaignBoot,
    /// `configs/run_exit.py`: a Figure 8 boot,
    /// `[cpu, mem, cores, boot, kernel, fidelity]`.
    Figure8Boot,
    /// `configs/run_parsec.py`: a Table II PARSEC run,
    /// `[app, os, cores, input, fidelity]`.
    Table2Parsec,
}

impl RunKind {
    /// Every kind.
    pub const ALL: [RunKind; 3] = [
        RunKind::CampaignBoot,
        RunKind::Figure8Boot,
        RunKind::Table2Parsec,
    ];

    /// The run-script path a run of this kind records.
    pub fn script(self) -> &'static str {
        match self {
            RunKind::CampaignBoot => "boot.cfg",
            RunKind::Figure8Boot => "configs/run_exit.py",
            RunKind::Table2Parsec => "configs/run_parsec.py",
        }
    }

    /// The names of the params the kind reads, in order.
    pub fn params(self) -> &'static [&'static str] {
        match self {
            RunKind::CampaignBoot => &["cpu", "cores"],
            RunKind::Figure8Boot => &["cpu", "mem", "cores", "boot", "kernel", "fidelity"],
            RunKind::Table2Parsec => &["app", "os", "cores", "input", "fidelity"],
        }
    }

    /// The kind a run-script path names, if any.
    pub fn of_script(path: &str) -> Option<RunKind> {
        Self::ALL.into_iter().find(|kind| kind.script() == path)
    }

    /// Decodes the params this kind reads; any after them are left
    /// unread ([`RunKind::check`] refuses them).
    ///
    /// # Errors
    ///
    /// Names the param that is missing or does not parse.
    pub fn decode(self, params: &[String]) -> Result<RunSpec, String> {
        Ok(match self {
            RunKind::CampaignBoot => RunSpec::Campaign(CampaignBoot {
                cpu: self.param(params, 0, CpuKind::from_short)?,
                cores: self.param(params, 1, str::parse)?,
            }),
            RunKind::Figure8Boot => RunSpec::Figure8(
                BootConfig {
                    cpu: self.param(params, 0, str::parse)?,
                    mem: self.param(params, 1, str::parse)?,
                    cores: self.param(params, 2, str::parse)?,
                    boot: self.param(params, 3, str::parse)?,
                    kernel: self.param(params, 4, KernelVersion::from_release)?,
                },
                self.param(params, 5, str::parse)?,
            ),
            RunKind::Table2Parsec => RunSpec::Table2(ParsecRun {
                app: self.param(params, 0, |app| {
                    PARSEC_APPS
                        .into_iter()
                        .find(|known| *known == app)
                        .ok_or("unknown PARSEC application")
                })?,
                os: self.param(params, 1, str::parse)?,
                cores: self.param(params, 2, str::parse)?,
                input: self.param(params, 3, str::parse)?,
                fidelity: self.param(params, 4, str::parse)?,
            }),
        })
    }

    fn param<T, E: Display>(
        self,
        params: &[String],
        at: usize,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, String> {
        let (script, name) = (self.script(), self.params()[at]);
        let text = params
            .get(at)
            .ok_or_else(|| format!("{script}: missing param `{name}`"))?;
        parse(text).map_err(|e| format!("{script}: bad param `{name}` {text:?}: {e}"))
    }

    /// Decodes `params`, refusing them unless the spec encodes back to
    /// exactly them: nothing unread, missing or spelt another way.
    ///
    /// # Errors
    ///
    /// Says what the kind reads and what it would record instead.
    pub fn check(self, params: &[String]) -> Result<RunSpec, String> {
        let spec = self.decode(params)?;
        let recorded = spec.encode();
        if recorded != params {
            return Err(format!(
                "{} reads [{}]; params {params:?} are not what it records ({recorded:?})",
                self.script(),
                self.params().join(", ")
            ));
        }
        Ok(spec)
    }
}

/// A CLI campaign boot: defaults everywhere but the cpu and cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignBoot {
    /// CPU model.
    pub cpu: CpuKind,
    /// Number of cores.
    pub cores: u32,
}

/// A Table II run: one PARSEC application on the Table II system
/// (timing CPU, coherent Classic memory, the OS image's stock kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsecRun {
    /// PARSEC application, one of [`PARSEC_APPS`].
    pub app: &'static str,
    /// OS image.
    pub os: OsImage,
    /// Number of cores.
    pub cores: u32,
    /// Input size.
    pub input: InputSize,
    /// Sampling fidelity.
    pub fidelity: Fidelity,
}

/// A run's params, decoded by its [`RunKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSpec {
    /// [`RunKind::CampaignBoot`].
    Campaign(CampaignBoot),
    /// [`RunKind::Figure8Boot`]: the configuration and the fidelity it
    /// boots at.
    Figure8(BootConfig, Fidelity),
    /// [`RunKind::Table2Parsec`].
    Table2(ParsecRun),
}

impl RunSpec {
    /// Decodes a stored run document through the kind its recorded run
    /// script names.
    ///
    /// # Errors
    ///
    /// A document without a run script or string params, a script that
    /// names no kind, or params the kind cannot read.
    pub fn of_document(doc: &Value) -> Result<RunSpec, String> {
        let script = doc
            .at("paths.runScript")
            .and_then(Value::as_str)
            .ok_or("run document has no run script")?;
        let params = doc
            .at("params")
            .and_then(Value::as_array)
            .and_then(|params| {
                params
                    .iter()
                    .map(|p| p.as_str().map(str::to_owned))
                    .collect::<Option<Vec<String>>>()
            })
            .ok_or("run document has no string params")?;
        kind_of(script)?.decode(&params)
    }

    /// The kind that reads this spec.
    pub fn kind(&self) -> RunKind {
        match self {
            RunSpec::Campaign(_) => RunKind::CampaignBoot,
            RunSpec::Figure8(..) => RunKind::Figure8Boot,
            RunSpec::Table2(_) => RunKind::Table2Parsec,
        }
    }

    /// The params a run of this spec records.
    pub fn encode(&self) -> Vec<String> {
        match self {
            RunSpec::Campaign(boot) => vec![boot.cpu.short().to_owned(), boot.cores.to_string()],
            RunSpec::Figure8(config, fidelity) => vec![
                config.cpu.to_string(),
                config.mem.to_string(),
                config.cores.to_string(),
                config.boot.to_string(),
                config.kernel.release().to_owned(),
                fidelity.to_string(),
            ],
            RunSpec::Table2(run) => vec![
                run.app.to_owned(),
                run.os.to_string(),
                run.cores.to_string(),
                run.input.to_string(),
                run.fidelity.to_string(),
            ],
        }
    }

    /// Simulates the spec.
    ///
    /// A campaign boot reports `outcome=… ticks=… instructions=…`, and
    /// with [`CHECKPOINT_DIR_ENV`] set restores its boot prefix from
    /// (or saves it to) the [`CheckpointStore`] there, reporting the
    /// `checkpoint-*` events. A Figure 8 boot reports
    /// [`encode_boot_outcome`] and always succeeds: the measurement
    /// completed, and the boot outcome is the datum. A Table II run
    /// reports the workload's label. Both report the stats dump.
    ///
    /// # Errors
    ///
    /// A configuration the simulator refuses to build or run.
    pub fn execute(&self) -> Result<ExecOutcome, String> {
        let builder = SystemConfig::builder();
        let dumped = |outcome: String, success: bool, output: SimOutput| ExecOutcome {
            outcome,
            sim_ticks: output.sim_ticks,
            payload: output.stats.dump().into_bytes(),
            success,
            events: vec![],
        };
        match self {
            RunSpec::Campaign(boot) => {
                let config = builder
                    .fidelity(Fidelity::Standard)
                    .cpu(boot.cpu)
                    .cores(boot.cores)
                    .build();
                let config = config.map_err(|e| e.to_string())?;
                let (output, events) = match std::env::var(CHECKPOINT_DIR_ENV) {
                    Ok(dir) if !dir.is_empty() => {
                        let store = CheckpointStore::open(dir).map_err(|e| e.to_string())?;
                        let (checkpoint, events) =
                            store.boot_or_restore(&config).map_err(|e| e.to_string())?;
                        let events = events.iter().map(|e| e.to_string()).collect();
                        (checkpoint.boot().clone(), events)
                    }
                    _ => (config.boot_only().map_err(|e| e.to_string())?, Vec::new()),
                };
                Ok(ExecOutcome {
                    outcome: output.outcome.to_string(),
                    sim_ticks: output.sim_ticks,
                    payload: format!(
                        "outcome={} ticks={} instructions={}",
                        output.outcome, output.sim_ticks, output.instructions
                    )
                    .into_bytes(),
                    success: output.outcome.is_success(),
                    events,
                })
            }
            RunSpec::Figure8(config, fidelity) => {
                let output = builder
                    .fidelity(*fidelity)
                    .cpu(config.cpu)
                    .cores(config.cores)
                    .memory(config.mem)
                    .kernel(config.kernel)
                    .boot(config.boot)
                    .build()
                    .and_then(|system| system.boot_only())
                    .map_err(|e| e.to_string())?;
                Ok(dumped(encode_boot_outcome(&output.outcome), true, output))
            }
            RunSpec::Table2(run) => {
                let profile = parsec_profile(run.app).expect("decoded from PARSEC_APPS");
                let output = builder
                    .fidelity(run.fidelity)
                    .cpu(CpuKind::TimingSimple)
                    .cores(run.cores)
                    .memory(MemKind::classic_coherent())
                    .kernel(run.os.profile().default_kernel)
                    .os(run.os)
                    .boot(BootKind::Systemd)
                    .build()
                    .and_then(|system| system.run_workload(&profile, run.input))
                    .map_err(|e| e.to_string())?;
                let label = output.outcome.label().to_owned();
                Ok(dumped(label, output.outcome.is_success(), output))
            }
        }
    }
}

fn kind_of(script: &str) -> Result<RunKind, String> {
    RunKind::of_script(script).ok_or_else(|| format!("run script `{script}` names no run kind"))
}

/// Executes `run` through the kind its run script names: the executor
/// for a launch of registered runs.
///
/// # Errors
///
/// A script that names no kind, params it cannot read, or
/// [`RunSpec::execute`]'s errors.
pub fn execute(run: &FsRun) -> Result<ExecOutcome, String> {
    kind_of(run.run_script_path())?
        .decode(run.params())?
        .execute()
}

/// The outcome string a Figure 8 run stores: the outcome's label, with
/// the panicking stage or the refusal's reason after a colon.
pub fn encode_boot_outcome(outcome: &BootOutcome) -> String {
    match outcome {
        BootOutcome::KernelPanic { stage } => format!("kernel-panic:{stage}"),
        BootOutcome::Unsupported { reason } => format!("unsupported:{reason}"),
        other => other.label().to_owned(),
    }
}

/// Reads back a stored Figure 8 outcome string. A stage it cannot read
/// is `driver-probe`; an outcome it cannot read is an `unsupported`
/// one that quotes it.
pub fn decode_boot_outcome(text: &str) -> BootOutcome {
    if let Some(reason) = text.strip_prefix("unsupported:") {
        return BootOutcome::Unsupported {
            reason: reason.to_owned(),
        };
    }
    if let Some(stage) = text.strip_prefix("kernel-panic:") {
        let stage = stage.parse().unwrap_or(BootStage::DriverProbe);
        return BootOutcome::KernelPanic { stage };
    }
    [
        BootOutcome::Success,
        BootOutcome::SimulatorCrash,
        BootOutcome::ProtocolDeadlock,
        BootOutcome::Timeout,
    ]
    .into_iter()
    .find(|outcome| outcome.label() == text)
    .unwrap_or_else(|| BootOutcome::Unsupported {
        reason: format!("undecodable outcome {text}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_outcomes_round_trip() {
        let mut outcomes = vec![
            BootOutcome::Success,
            BootOutcome::SimulatorCrash,
            BootOutcome::ProtocolDeadlock,
            BootOutcome::Timeout,
            BootOutcome::Unsupported {
                reason: "atomic CPU on Ruby".to_owned(),
            },
        ];
        outcomes.extend(BootStage::ALL.map(|stage| BootOutcome::KernelPanic { stage }));
        for outcome in outcomes {
            assert_eq!(decode_boot_outcome(&encode_boot_outcome(&outcome)), outcome);
        }
    }
}
