//! System assembly and top-level simulation.
//!
//! [`SystemConfig`] is the analogue of a gem5 run-script configuration:
//! CPU model and count, memory system, kernel, OS image, and boot
//! target. [`SystemConfig::boot_only`] reproduces the boot-exit
//! workload of use-case 2; [`SystemConfig::run_workload`] boots and
//! then executes a benchmark as use-case 1 does.
//!
//! Timing uses sampled detailed simulation: a deterministic sample of
//! each phase's instruction stream runs through the configured CPU and
//! memory models to measure CPI, which is then extrapolated to the
//! phase's full instruction count (the standard sampling methodology
//! for long-running full-system workloads).

use crate::compat::{self, BootConfig, BootOutcome};
use crate::cpu::{CpuKind, CpuModel};
use crate::error::SimError;
use crate::event::EventQueue;
use crate::isa::{AddressProfile, InstMix, InstStream, OpClass};
use crate::kernel::{BootKind, BootStage, KernelVersion};
use crate::mem::{self, MemKind, MemorySystem};
use crate::os::OsImage;
use crate::spelling;
use crate::stats::Stats;
use crate::ticks::{Clock, Tick};
use crate::workload::{InputSize, WorkloadProfile};
use simart_observe as observe;
use std::fmt;

/// How many instructions each timing sample simulates in detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Tiny samples for unit tests.
    Smoke,
    /// Default sample size.
    #[default]
    Standard,
    /// Larger samples for final numbers.
    Detailed,
}

impl Fidelity {
    /// Every fidelity, smallest samples first.
    pub const ALL: [Fidelity; 3] = [Fidelity::Smoke, Fidelity::Standard, Fidelity::Detailed];

    /// Sampled instructions per phase per thread.
    pub fn sample_insts(self) -> u64 {
        match self {
            Fidelity::Smoke => 3_000,
            Fidelity::Standard => 20_000,
            Fidelity::Detailed => 80_000,
        }
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Fidelity::Smoke => "smoke",
            Fidelity::Standard => "standard",
            Fidelity::Detailed => "detailed",
        })
    }
}

spelling::from_display!(Fidelity, Fidelity::ALL, "fidelity");

/// A fully specified simulated system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    cpu: CpuKind,
    cores: u32,
    clock: Clock,
    mem: MemKind,
    kernel: KernelVersion,
    boot: BootKind,
    os: OsImage,
    fidelity: Fidelity,
}

/// Builder for [`SystemConfig`].
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    cpu: CpuKind,
    cores: u32,
    clock: Clock,
    mem: MemKind,
    kernel: KernelVersion,
    boot: BootKind,
    os: OsImage,
    fidelity: Fidelity,
}

impl Default for SystemConfigBuilder {
    fn default() -> Self {
        SystemConfigBuilder {
            cpu: CpuKind::TimingSimple,
            cores: 1,
            clock: Clock::from_ghz(3),
            mem: MemKind::classic_coherent(),
            kernel: KernelVersion::V5_4,
            boot: BootKind::Systemd,
            os: OsImage::Ubuntu1804,
            fidelity: Fidelity::Standard,
        }
    }
}

impl SystemConfigBuilder {
    /// Selects the CPU model.
    pub fn cpu(mut self, cpu: CpuKind) -> Self {
        self.cpu = cpu;
        self
    }

    /// Sets the number of cores.
    pub fn cores(mut self, cores: u32) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the CPU clock.
    pub fn clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Selects the memory system.
    pub fn memory(mut self, mem: MemKind) -> Self {
        self.mem = mem;
        self
    }

    /// Selects the kernel version.
    pub fn kernel(mut self, kernel: KernelVersion) -> Self {
        self.kernel = kernel;
        self
    }

    /// Selects the boot target.
    pub fn boot(mut self, boot: BootKind) -> Self {
        self.boot = boot;
        self
    }

    /// Selects the OS (user-land) image.
    pub fn os(mut self, os: OsImage) -> Self {
        self.os = os;
        self
    }

    /// Selects sampling fidelity.
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for impossible parameters
    /// (zero or >64 cores).
    pub fn build(self) -> Result<SystemConfig, SimError> {
        if self.cores == 0 {
            return Err(SimError::invalid("a system needs at least one core"));
        }
        if self.cores > 64 {
            return Err(SimError::invalid(format!(
                "{} cores exceed the 64-core limit",
                self.cores
            )));
        }
        Ok(SystemConfig {
            cpu: self.cpu,
            cores: self.cores,
            clock: self.clock,
            mem: self.mem,
            kernel: self.kernel,
            boot: self.boot,
            os: self.os,
            fidelity: self.fidelity,
        })
    }
}

/// The result of a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutput {
    /// How the run ended.
    pub outcome: BootOutcome,
    /// Simulated time consumed by the measured phase (ticks).
    pub sim_ticks: Tick,
    /// Total (extrapolated) instructions executed in the measured phase.
    pub instructions: u64,
    /// Estimated host (wall-clock) seconds the real simulator would
    /// need for this run, from per-model simulation weights.
    pub host_seconds: f64,
    /// All statistics.
    pub stats: Stats,
}

impl SimOutput {
    /// Simulated seconds of the measured phase.
    pub fn sim_seconds(&self) -> f64 {
        self.sim_ticks as f64 / crate::ticks::TICKS_PER_SECOND as f64
    }
}

/// A post-boot checkpoint: boot state captured once, resumable by any
/// identically configured system (the hack-back resource's workflow).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    config_label: String,
    boot: SimOutput,
}

impl Checkpoint {
    /// Fingerprint of the configuration the checkpoint was taken on.
    pub fn config_label(&self) -> &str {
        &self.config_label
    }

    /// The captured boot output.
    pub fn boot(&self) -> &SimOutput {
        &self.boot
    }

    /// Reassembles a checkpoint from its serialized parts (the durable
    /// store in [`crate::checkpoint`] is the only caller).
    pub(crate) fn from_parts(config_label: String, boot: SimOutput) -> Checkpoint {
        Checkpoint { config_label, boot }
    }
}

/// One phase's detailed sample, with the models it ran on (for their
/// statistics).
struct PhaseSample {
    /// Cycles per instruction of each thread.
    cpis: Vec<f64>,
    /// `(hits, misses)` summed over the sampled streams
    /// ([`InstStream::decode_counts`]).
    decode: (u64, u64),
    cpus: Vec<Box<dyn CpuModel>>,
    mem: Box<dyn MemorySystem>,
}

/// The instruction mix of kernel/boot code: branchy, syscall-heavy,
/// light on FP.
fn boot_mix() -> InstMix {
    InstMix::new(&[
        (OpClass::IntAlu, 0.40),
        (OpClass::Load, 0.24),
        (OpClass::Store, 0.13),
        (OpClass::Branch, 0.18),
        (OpClass::Atomic, 0.02),
        (OpClass::Fence, 0.01),
        (OpClass::Syscall, 0.02),
    ])
}

impl SystemConfig {
    /// Starts building a configuration.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::default()
    }

    /// The CPU model.
    pub fn cpu(&self) -> CpuKind {
        self.cpu
    }

    /// The core count.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// The memory system.
    pub fn memory(&self) -> MemKind {
        self.mem
    }

    /// The kernel version.
    pub fn kernel(&self) -> KernelVersion {
        self.kernel
    }

    /// The boot target.
    pub fn boot_kind(&self) -> BootKind {
        self.boot
    }

    /// The OS image.
    pub fn os(&self) -> OsImage {
        self.os
    }

    /// The sampling fidelity.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// A stable textual fingerprint of the configuration (used to seed
    /// instruction streams and to key run records).
    pub fn label(&self) -> String {
        format!(
            "{}x{}/{}/{}/{}/{}",
            self.cores, self.cpu, self.mem, self.kernel, self.boot, self.os
        )
    }

    fn boot_config(&self) -> BootConfig {
        BootConfig {
            cpu: self.cpu,
            cores: self.cores,
            mem: self.mem,
            kernel: self.kernel,
            boot: self.boot,
        }
    }

    /// Measures CPI for one phase by detailed simulation of a sample:
    /// `threads` streams of `mix` over `addrs`, one CPU model each, on
    /// a memory system built for `mem_cores` cores.
    ///
    /// Threads interleave on the shared memory system in fixed-size
    /// slices so coherence traffic is exercised exactly as concurrent
    /// execution would.
    fn sample_phase(
        &self,
        label: &str,
        threads: u32,
        mix: &InstMix,
        addrs: AddressProfile,
        mem_cores: u32,
    ) -> PhaseSample {
        const SLICE: u64 = 256;
        // Warmup: run a fixed-length prefix of the stream on the same
        // detailed CPU model to populate caches and coherence state,
        // then measure. Its cycles stay out of the CPI but are counted
        // in the CPU's `numCycles`. The warmup length is independent
        // of the fidelity so every sample size measures the same warm
        // steady state — without this, cold-start misses bias small
        // samples and the fidelity levels would disagree.
        const WARMUP: u64 = 32_768;
        let mut mem = mem::build(self.mem, mem_cores as usize);
        let mut cpus: Vec<_> = (0..threads).map(|_| self.cpu.build()).collect();
        let mut streams: Vec<_> = (0..threads)
            .map(|t| InstStream::new(label, t, mix.clone(), addrs))
            .collect();
        let _timer = observe::timer("sim.cpi_sample_us");
        let mut run_phase = |budget_per_thread: u64| -> Vec<f64> {
            let mut done = vec![0u64; streams.len()];
            let mut cycles = vec![0u64; streams.len()];
            let mut remaining = streams.len();
            while remaining > 0 {
                remaining = 0;
                for t in 0..streams.len() {
                    if done[t] < budget_per_thread {
                        let budget = SLICE.min(budget_per_thread - done[t]);
                        let result = cpus[t].run(t, &mut streams[t], budget, mem.as_mut());
                        observe::count("sim.ticks", result.cycles);
                        done[t] += result.instructions;
                        cycles[t] += result.cycles;
                        if done[t] < budget_per_thread {
                            remaining += 1;
                        }
                    }
                }
            }
            (done.iter().zip(&cycles))
                .map(|(done, cycles)| *cycles as f64 / (*done).max(1) as f64)
                .collect()
        };
        run_phase(WARMUP);
        let cpis = run_phase(self.fidelity.sample_insts());
        let decode = streams.iter().fold((0, 0), |(hits, misses), s| {
            let (h, m) = s.decode_counts();
            (hits + h, misses + m)
        });
        PhaseSample {
            cpis,
            decode,
            cpus,
            mem,
        }
    }

    /// Boots the system (the use-case 2 "boot-exit" workload).
    ///
    /// # Errors
    ///
    /// Infallible for a built config today, but kept fallible for
    /// forward compatibility with resource-dependent boots.
    pub fn boot_only(&self) -> Result<SimOutput, SimError> {
        let _span = observe::span(|| format!("sim.boot:{}", self.label()));
        let _timer = observe::timer("sim.boot_us");
        observe::count("sim.boots", 1);
        let outcome = compat::evaluate(&self.boot_config());
        let mut stats = Stats::new();
        stats.set_count("system.cores", self.cores as u64);

        // Per-stage instruction counts for the configured kernel.
        let stages = BootStage::sequence(self.boot);
        let label = format!("boot/{}", self.label());
        let sample = self.sample_phase(&label, 1, &boot_mix(), AddressProfile::friendly(), 1);
        let (hits, misses) = sample.decode;
        stats.set_count("boot.decode.hits", hits);
        stats.set_count("boot.decode.misses", misses);
        observe::count("sim.decode_hits", hits);
        observe::count("sim.decode_misses", misses);
        let cpi = sample.cpis[0];

        // Drive stage completions through the event queue; failures cut
        // the boot short at the failing stage.
        let mut queue: EventQueue<BootStage> = EventQueue::new();
        let mut when: Tick = 0;
        for stage in stages {
            let insts = stage.insts(self.kernel, self.cores);
            let cycles = (insts as f64 * cpi) as u64;
            when += self.clock.cycles_to_ticks(cycles);
            queue.schedule(when, *stage);
        }

        let fail_stage = match &outcome {
            BootOutcome::KernelPanic { stage } => Some(*stage),
            BootOutcome::Unsupported { .. } => Some(BootStage::Decompress),
            BootOutcome::SimulatorCrash | BootOutcome::ProtocolDeadlock => {
                Some(BootStage::SchedInit)
            }
            _ => None,
        };

        let mut instructions = 0u64;
        let mut completed_ticks: Tick = 0;
        while let Some(event) = queue.pop() {
            observe::count("sim.boot_events", 1);
            if Some(event.payload) == fail_stage {
                break;
            }
            completed_ticks = event.when;
            instructions += event.payload.insts(self.kernel, self.cores);
            stats.set_count(&format!("boot.stage.{}.endTick", event.payload), event.when);
        }
        // Timeouts burn the whole budget without finishing.
        if outcome == BootOutcome::Timeout {
            completed_ticks = completed_ticks.saturating_mul(20);
        }

        // Event-queue state travels with the boot so a restored
        // checkpoint resumes with the same simulated-time bookkeeping.
        stats.set_count("boot.queue.processed", queue.processed());
        stats.set_count("boot.queue.lastTick", queue.now());
        stats.set_count("boot.instructions", instructions);
        stats.set_scalar("boot.cpi", cpi);
        stats.set_count("simTicks", completed_ticks);
        let host_seconds = instructions as f64 * self.cpu.simulation_weight() / 2.0e8;
        stats.set_scalar("hostSeconds", host_seconds);
        Ok(SimOutput {
            outcome,
            sim_ticks: completed_ticks,
            instructions,
            host_seconds,
            stats,
        })
    }

    /// Boots and captures a [`Checkpoint`] of the post-boot state —
    /// the mechanism behind the hack-back resource (checkpoint after
    /// the booting process, then execute host-provided scripts without
    /// re-booting).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors; a failed boot is reported
    /// through the checkpoint's outcome.
    pub fn checkpoint_boot(&self) -> Result<Checkpoint, SimError> {
        let boot = self.boot_only()?;
        Ok(Checkpoint {
            config_label: self.label(),
            boot,
        })
    }

    /// Resumes from a post-boot checkpoint and runs `workload` without
    /// paying the boot again. The checkpoint must come from an
    /// identically configured system.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the checkpoint was captured
    /// under a different configuration (resuming it would silently
    /// change the experiment).
    pub fn run_workload_from(
        &self,
        checkpoint: &Checkpoint,
        workload: &WorkloadProfile,
        input: InputSize,
    ) -> Result<SimOutput, SimError> {
        if checkpoint.config_label != self.label() {
            return Err(SimError::invalid(format!(
                "checkpoint was captured on `{}`, not `{}`",
                checkpoint.config_label,
                self.label()
            )));
        }
        if !checkpoint.boot.outcome.is_success() {
            return Ok(checkpoint.boot.clone());
        }
        // Resuming costs no boot-simulation host time.
        let mut output = self.workload_phase(workload, input, &checkpoint.boot.stats, 0.0)?;
        output.stats.set_count("checkpoint.restored", 1);
        Ok(output)
    }

    /// Runs `workload` in syscall-emulation (SE) mode: no kernel, no
    /// disk image, no boot — the simulator services syscalls directly.
    /// This is how the statically linked test binaries of the
    /// `gem5 tests` resource run.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn run_se_workload(
        &self,
        workload: &WorkloadProfile,
        input: InputSize,
    ) -> Result<SimOutput, SimError> {
        let mut se_stats = Stats::new();
        se_stats.set_count("system.cores", self.cores as u64);
        se_stats.set_count("se.mode", 1);
        let mut output = self.workload_phase(workload, input, &se_stats, 0.0)?;
        output.stats.set_count("se.mode", 1);
        Ok(output)
    }

    /// Boots, then runs `workload` to completion, returning benchmark
    /// execution statistics (the use-case 1 flow).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors; an *unsupported or failing
    /// boot* is reported through [`SimOutput::outcome`], not an error.
    pub fn run_workload(
        &self,
        workload: &WorkloadProfile,
        input: InputSize,
    ) -> Result<SimOutput, SimError> {
        let boot = self.boot_only()?;
        if !boot.outcome.is_success() {
            return Ok(boot);
        }
        self.workload_phase(workload, input, &boot.stats, boot.host_seconds)
    }

    /// The benchmark-execution phase shared by cold runs and
    /// checkpoint resumes.
    fn workload_phase(
        &self,
        workload: &WorkloadProfile,
        input: InputSize,
        boot_stats: &Stats,
        boot_host_seconds: f64,
    ) -> Result<SimOutput, SimError> {
        let _span = observe::span(|| format!("sim.workload:{}/{input}", workload.name));
        observe::count("sim.workloads", 1);
        let os = self.os.profile();
        let bonus = self.os.parallel_bonus(&workload.name);
        let parallel_fraction = (workload.parallel_fraction + bonus).min(0.995);

        let total_insts = (workload.total_insts(input) as f64 * os.inst_factor) as u64;
        let serial_insts = (total_insts as f64 * (1.0 - parallel_fraction)) as u64;
        let parallel_insts = total_insts - serial_insts;

        // Common-random-numbers design: the sampled stream is seeded by
        // (workload, input) only, so configurations that differ in OS or
        // kernel compare against the *same* instruction sample and their
        // differences come entirely from the modeled factors, not
        // sampling noise.
        let label = format!("{}/{}", workload.name, input);

        // Serial phase: one thread on the full memory system, whose
        // models go before the parallel phase builds its own.
        let (serial_cpi, serial_decode) = {
            let serial = self.sample_phase(
                &format!("{label}/serial"),
                1,
                &workload.mix,
                workload.addrs,
                self.cores,
            );
            (serial.cpis[0], serial.decode)
        };

        // Parallel phase: all threads interleaved on one memory system.
        // Per-component statistics of this (sampled) phase are dumped
        // gem5-style under `system.*`.
        let parallel = self.sample_phase(
            &format!("{label}/parallel"),
            self.cores,
            &workload.mix,
            workload.addrs,
            self.cores,
        );
        let parallel_cpis = parallel.cpis;
        let mut component_stats = Stats::new();
        for (i, cpu) in parallel.cpus.iter().enumerate() {
            cpu.dump_stats(&format!("system.cpu{i}"), &mut component_stats);
        }
        parallel.mem.dump_stats("system.mem", &mut component_stats);
        let hits = serial_decode.0 + parallel.decode.0;
        let misses = serial_decode.1 + parallel.decode.1;
        component_stats.set_count("system.decode.hits", hits);
        component_stats.set_count("system.decode.misses", misses);
        observe::count("sim.decode_hits", hits);
        observe::count("sim.decode_misses", misses);

        // Synchronization: lock/barrier traffic serializes and its cost
        // grows with contention (cores), moderated by kernel futex
        // quality and OS runtime efficiency.
        let sync_ops = parallel_insts as f64 * workload.sync_per_kinst / 1000.0;
        let sync_cost_per_op = 55.0
            * (1.0 + 0.38 * (self.cores.saturating_sub(1)) as f64)
            * self.kernel.sync_factor()
            * os.sync_factor;
        let sync_cycles_per_thread = sync_ops * sync_cost_per_op / self.cores as f64;

        let serial_cycles = serial_insts as f64 * serial_cpi * os.cpi_factor;
        let per_thread_insts = parallel_insts as f64 / self.cores as f64;
        let parallel_cycles = parallel_cpis
            .iter()
            .map(|cpi| per_thread_insts * cpi * os.cpi_factor + sync_cycles_per_thread)
            .fold(0.0f64, f64::max);

        let total_cycles = (serial_cycles + parallel_cycles) as u64;
        let sim_ticks = self.clock.cycles_to_ticks(total_cycles);

        let mut stats = boot_stats.clone();
        stats.absorb("", &component_stats);
        stats.set_count("workload.instructions", total_insts);
        stats.set_count("workload.serialInsts", serial_insts);
        stats.set_count("workload.parallelInsts", parallel_insts);
        stats.set_scalar("workload.serialCpi", serial_cpi * os.cpi_factor);
        stats.set_scalar(
            "workload.parallelCpi",
            parallel_cpis.iter().sum::<f64>() / parallel_cpis.len() as f64 * os.cpi_factor,
        );
        stats.set_count("workload.syncOps", sync_ops as u64);
        stats.set_count("workload.execTicks", sim_ticks);
        stats.set_scalar(
            "workload.utilization",
            total_insts as f64 / (total_cycles.max(1) as f64 * self.cores as f64),
        );
        let host_seconds =
            boot_host_seconds + total_insts as f64 * self.cpu.simulation_weight() / 2.0e8;
        stats.set_scalar("hostSeconds", host_seconds);

        Ok(SimOutput {
            outcome: BootOutcome::Success,
            sim_ticks,
            instructions: total_insts,
            host_seconds,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::parsec_profile;

    fn base() -> SystemConfigBuilder {
        SystemConfig::builder().fidelity(Fidelity::Smoke)
    }

    #[test]
    fn builder_validates_core_count() {
        assert!(base().cores(0).build().is_err());
        assert!(base().cores(65).build().is_err());
        assert!(base().cores(8).build().is_ok());
    }

    #[test]
    fn boot_succeeds_on_default_config() {
        let config = base().build().unwrap();
        let output = config.boot_only().unwrap();
        assert!(output.outcome.is_success());
        assert!(output.sim_ticks > 0);
        assert!(output.instructions > 500_000_000, "boot runs ~1e9 insts");
        assert!(output.stats.contains("boot.stage.init-system.endTick"));
    }

    #[test]
    fn unsupported_config_reports_outcome_not_error() {
        let config = base()
            .cpu(CpuKind::AtomicSimple)
            .memory(MemKind::RubyMi)
            .build()
            .unwrap();
        let output = config.boot_only().unwrap();
        assert!(matches!(output.outcome, BootOutcome::Unsupported { .. }));
        assert_eq!(output.sim_ticks, 0, "no progress before rejection");
    }

    #[test]
    fn kernel_only_boot_is_shorter_than_systemd() {
        let kernel_only = base()
            .boot(BootKind::KernelOnly)
            .build()
            .unwrap()
            .boot_only()
            .unwrap();
        let systemd = base()
            .boot(BootKind::Systemd)
            .build()
            .unwrap()
            .boot_only()
            .unwrap();
        assert!(systemd.sim_ticks > kernel_only.sim_ticks * 2);
    }

    #[test]
    fn kvm_boots_fast() {
        let kvm = base()
            .cpu(CpuKind::Kvm)
            .build()
            .unwrap()
            .boot_only()
            .unwrap();
        let timing = base()
            .cpu(CpuKind::TimingSimple)
            .build()
            .unwrap()
            .boot_only()
            .unwrap();
        assert!(kvm.sim_ticks * 4 < timing.sim_ticks);
        assert!(kvm.host_seconds < timing.host_seconds);
    }

    #[test]
    fn workload_runs_and_scales_with_cores() {
        let profile = parsec_profile("blackscholes").unwrap();
        let run = |cores| {
            base()
                .cores(cores)
                .os(OsImage::Ubuntu1804)
                .build()
                .unwrap()
                .run_workload(&profile, InputSize::SimSmall)
                .unwrap()
        };
        let one = run(1);
        let eight = run(8);
        assert!(one.outcome.is_success());
        let speedup = one.sim_ticks as f64 / eight.sim_ticks as f64;
        assert!(speedup > 2.5, "8-core speedup {speedup}");
        assert!(speedup < 8.0, "speedup {speedup} must be sublinear");
    }

    #[test]
    fn ubuntu_2004_runs_more_instructions_in_less_time() {
        let profile = parsec_profile("dedup").unwrap();
        let run = |os| {
            base()
                .cores(2)
                .os(os)
                .build()
                .unwrap()
                .run_workload(&profile, InputSize::SimSmall)
                .unwrap()
        };
        let bionic = run(OsImage::Ubuntu1804);
        let focal = run(OsImage::Ubuntu2004);
        assert!(
            focal.instructions > bionic.instructions,
            "more instructions on 20.04"
        );
        assert!(focal.sim_ticks < bionic.sim_ticks, "but less time");
        assert!(
            focal.stats.scalar("workload.utilization")
                > bionic.stats.scalar("workload.utilization"),
            "at higher utilization"
        );
    }

    #[test]
    fn failed_boot_short_circuits_workload() {
        let profile = parsec_profile("vips").unwrap();
        let config = base()
            .cpu(CpuKind::TimingSimple)
            .cores(2)
            .memory(MemKind::classic_fast())
            .build()
            .unwrap();
        let output = config.run_workload(&profile, InputSize::SimSmall).unwrap();
        assert!(!output.outcome.is_success());
        assert!(!output.stats.contains("workload.execTicks"));
    }

    #[test]
    fn deterministic_outputs() {
        let profile = parsec_profile("ferret").unwrap();
        let run = || {
            base()
                .cores(2)
                .build()
                .unwrap()
                .run_workload(&profile, InputSize::Test)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.sim_ticks, b.sim_ticks);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn se_mode_skips_boot_entirely() {
        let profile = crate::workload::npb_profile("ep").unwrap();
        let config = base().cores(4).build().unwrap();
        let se = config.run_se_workload(&profile, InputSize::Test).unwrap();
        let fs = config.run_workload(&profile, InputSize::Test).unwrap();
        assert!(se.outcome.is_success());
        assert_eq!(se.stats.count("se.mode"), 1);
        assert!(
            !se.stats.contains("boot.instructions"),
            "no boot phase in SE mode"
        );
        // The benchmark itself times identically; only boot differs.
        assert_eq!(se.sim_ticks, fs.sim_ticks);
        assert!(se.host_seconds < fs.host_seconds);
    }

    #[test]
    fn checkpoint_resume_matches_cold_run() {
        let profile = parsec_profile("swaptions").unwrap();
        let config = base().cores(2).build().unwrap();
        let cold = config.run_workload(&profile, InputSize::Test).unwrap();
        let checkpoint = config.checkpoint_boot().unwrap();
        let resumed = config
            .run_workload_from(&checkpoint, &profile, InputSize::Test)
            .unwrap();
        assert_eq!(
            resumed.sim_ticks, cold.sim_ticks,
            "identical benchmark timing"
        );
        assert_eq!(resumed.instructions, cold.instructions);
        assert!(
            resumed.host_seconds < cold.host_seconds,
            "boot simulation time saved"
        );
        assert_eq!(resumed.stats.count("checkpoint.restored"), 1);
    }

    #[test]
    fn checkpoints_refuse_foreign_configurations() {
        let profile = parsec_profile("swaptions").unwrap();
        let two_cores = base().cores(2).build().unwrap();
        let four_cores = base().cores(4).build().unwrap();
        let checkpoint = two_cores.checkpoint_boot().unwrap();
        let err = four_cores.run_workload_from(&checkpoint, &profile, InputSize::Test);
        assert!(matches!(err, Err(SimError::InvalidConfig { .. })));
    }

    #[test]
    fn failed_boot_checkpoints_carry_the_failure() {
        let profile = parsec_profile("swaptions").unwrap();
        let config = base()
            .cpu(CpuKind::AtomicSimple)
            .memory(MemKind::RubyMi)
            .build()
            .unwrap();
        let checkpoint = config.checkpoint_boot().unwrap();
        assert!(!checkpoint.boot().outcome.is_success());
        let resumed = config
            .run_workload_from(&checkpoint, &profile, InputSize::Test)
            .unwrap();
        assert!(!resumed.outcome.is_success());
    }

    #[test]
    fn label_captures_all_knobs() {
        let config = base().cores(4).cpu(CpuKind::O3).build().unwrap();
        let label = config.label();
        assert!(label.contains("4x"));
        assert!(label.contains("O3CPU"));
        assert!(label.contains("v5.4.51"));
    }
}
