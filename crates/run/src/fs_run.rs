//! Full-system run objects (the paper's `createFSRun`).

use crate::error::RunError;
use crate::status::RunStatus;
use simart_artifact::hash::Md5;
use simart_artifact::{ArtifactId, ArtifactKind, ArtifactRegistry, Uuid};
use std::time::Duration;

/// A provenance-complete full-system run description.
///
/// Mirrors the parameters of the paper's `createFSRun` (Figure 4): the
/// simulator binary and repository, the run script, the Linux kernel,
/// the disk image — each as both a host location and a registered
/// artifact — plus free-form run-script parameters and a timeout.
#[derive(Debug, Clone, PartialEq)]
pub struct FsRun {
    id: Uuid,
    hash: String,
    simulator: ArtifactId,
    simulator_path: String,
    simulator_repo: ArtifactId,
    run_script: ArtifactId,
    run_script_path: String,
    kernel: ArtifactId,
    kernel_path: String,
    disk_image: ArtifactId,
    disk_image_path: String,
    output_dir: String,
    params: Vec<String>,
    timeout: Duration,
    status: RunStatus,
}

impl FsRun {
    /// Starts building a full-system run, validating against `registry`.
    pub fn create(registry: &ArtifactRegistry) -> FsRunBuilder<'_> {
        FsRunBuilder {
            registry,
            simulator: None,
            simulator_path: String::new(),
            simulator_repo: None,
            run_script: None,
            run_script_path: String::new(),
            kernel: None,
            kernel_path: String::new(),
            disk_image: None,
            disk_image_path: String::new(),
            output_dir: "results".to_owned(),
            params: Vec::new(),
            timeout: Duration::from_secs(15 * 60),
        }
    }

    /// The run's unique id (derived from its content hash).
    pub fn id(&self) -> Uuid {
        self.id
    }

    /// The run hash: fingerprint of every input artifact hash plus the
    /// parameters. Identical experiments produce identical hashes.
    pub fn run_hash(&self) -> &str {
        &self.hash
    }

    /// Simulator binary artifact.
    pub fn simulator(&self) -> ArtifactId {
        self.simulator
    }

    /// Simulator repository artifact.
    pub fn simulator_repo(&self) -> ArtifactId {
        self.simulator_repo
    }

    /// Run-script artifact.
    pub fn run_script(&self) -> ArtifactId {
        self.run_script
    }

    /// The run script's host path: the name the run's params are
    /// written for.
    pub fn run_script_path(&self) -> &str {
        &self.run_script_path
    }

    /// Kernel artifact.
    pub fn kernel(&self) -> ArtifactId {
        self.kernel
    }

    /// Disk-image artifact.
    pub fn disk_image(&self) -> ArtifactId {
        self.disk_image
    }

    /// Host output directory.
    pub fn output_dir(&self) -> &str {
        &self.output_dir
    }

    /// Run-script parameters.
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// Timeout after which the job is terminated.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Current lifecycle status.
    pub fn status(&self) -> RunStatus {
        self.status
    }

    /// Every input artifact id, in a fixed order.
    pub fn input_artifacts(&self) -> [ArtifactId; 5] {
        [
            self.simulator,
            self.simulator_repo,
            self.run_script,
            self.kernel,
            self.disk_image,
        ]
    }

    /// Advances the lifecycle.
    ///
    /// # Errors
    ///
    /// Returns the run unchanged as `Err` when the transition is
    /// illegal (e.g. `Done -> Running`).
    pub fn transition(&mut self, next: RunStatus) -> Result<(), RunStatus> {
        if self.status.can_transition_to(next) {
            self.status = next;
            Ok(())
        } else {
            Err(self.status)
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_stored_parts(
        id: Uuid,
        hash: String,
        components: [ArtifactId; 5],
        paths: [String; 4],
        output_dir: String,
        params: Vec<String>,
        timeout: Duration,
        status: RunStatus,
    ) -> FsRun {
        let [simulator, simulator_repo, run_script, kernel, disk_image] = components;
        let [simulator_path, run_script_path, kernel_path, disk_image_path] = paths;
        FsRun {
            id,
            hash,
            simulator,
            simulator_path,
            simulator_repo,
            run_script,
            run_script_path,
            kernel,
            kernel_path,
            disk_image,
            disk_image_path,
            output_dir,
            params,
            timeout,
            status,
        }
    }

    pub(crate) fn paths(&self) -> [&str; 4] {
        [
            &self.simulator_path,
            &self.run_script_path,
            &self.kernel_path,
            &self.disk_image_path,
        ]
    }
}

/// Builder for [`FsRun`], validating artifact references as they are
/// supplied.
#[derive(Debug)]
pub struct FsRunBuilder<'a> {
    registry: &'a ArtifactRegistry,
    simulator: Option<ArtifactId>,
    simulator_path: String,
    simulator_repo: Option<ArtifactId>,
    run_script: Option<ArtifactId>,
    run_script_path: String,
    kernel: Option<ArtifactId>,
    kernel_path: String,
    disk_image: Option<ArtifactId>,
    disk_image_path: String,
    output_dir: String,
    params: Vec<String>,
    timeout: Duration,
}

impl<'a> FsRunBuilder<'a> {
    /// Sets the simulator binary artifact and its host path.
    pub fn simulator(mut self, id: ArtifactId, path: impl Into<String>) -> Self {
        self.simulator = Some(id);
        self.simulator_path = path.into();
        self
    }

    /// Sets the simulator source-repository artifact.
    pub fn simulator_repo(mut self, id: ArtifactId) -> Self {
        self.simulator_repo = Some(id);
        self
    }

    /// Sets the run-script artifact and its host path.
    pub fn run_script(mut self, id: ArtifactId, path: impl Into<String>) -> Self {
        self.run_script = Some(id);
        self.run_script_path = path.into();
        self
    }

    /// Sets the kernel artifact and its host path.
    pub fn kernel(mut self, id: ArtifactId, path: impl Into<String>) -> Self {
        self.kernel = Some(id);
        self.kernel_path = path.into();
        self
    }

    /// Sets the disk-image artifact and its host path.
    pub fn disk_image(mut self, id: ArtifactId, path: impl Into<String>) -> Self {
        self.disk_image = Some(id);
        self.disk_image_path = path.into();
        self
    }

    /// Sets the output directory.
    pub fn output_dir(mut self, dir: impl Into<String>) -> Self {
        self.output_dir = dir.into();
        self
    }

    /// Appends one run-script parameter.
    pub fn param(mut self, param: impl Into<String>) -> Self {
        self.params.push(param.into());
        self
    }

    /// Appends several run-script parameters.
    pub fn params(mut self, params: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.params.extend(params.into_iter().map(Into::into));
        self
    }

    /// Sets the timeout in seconds (default 15 minutes, as in Figure 4).
    pub fn timeout_seconds(mut self, seconds: u64) -> Self {
        self.timeout = Duration::from_secs(seconds);
        self
    }

    /// Finalizes the run, computing its identity hash.
    ///
    /// # Errors
    ///
    /// * [`RunError::MissingComponent`] — a required artifact was not
    ///   supplied;
    /// * [`RunError::UnknownArtifact`] — an id is not in the registry;
    /// * [`RunError::WrongKind`] — an artifact has an unexpected kind.
    pub fn build(self) -> Result<FsRun, RunError> {
        let resolve = |id: Option<ArtifactId>,
                       component: &'static str,
                       accepted: &[ArtifactKind]|
         -> Result<ArtifactId, RunError> {
            let id = id.ok_or(RunError::MissingComponent { component })?;
            let artifact = self
                .registry
                .get(id)
                .ok_or(RunError::UnknownArtifact { id, component })?;
            if !accepted.contains(artifact.kind()) {
                return Err(RunError::WrongKind {
                    component,
                    found: artifact.kind().to_string(),
                });
            }
            Ok(id)
        };

        let simulator = resolve(self.simulator, "simulator", &[ArtifactKind::Binary])?;
        let simulator_repo = resolve(
            self.simulator_repo,
            "simulator_repo",
            &[ArtifactKind::GitRepo],
        )?;
        let run_script = resolve(
            self.run_script,
            "run_script",
            &[ArtifactKind::RunScript, ArtifactKind::GitRepo],
        )?;
        let kernel = resolve(self.kernel, "kernel", &[ArtifactKind::Kernel])?;
        let disk_image = resolve(self.disk_image, "disk_image", &[ArtifactKind::DiskImage])?;

        // Run hash: input artifact hashes + parameters. Host paths and
        // output directory are deliberately excluded — they do not
        // change the experiment, only where it lives.
        let mut hasher = Md5::new();
        for id in [simulator, simulator_repo, run_script, kernel, disk_image] {
            let artifact = self.registry.get(id).expect("resolved above");
            hasher.update(artifact.hash().as_bytes());
            hasher.update(b"/");
        }
        for param in &self.params {
            hasher.update(param.as_bytes());
            hasher.update(b"\x1f");
        }
        let hash = hasher.finalize().to_hex();
        let id = Uuid::new_v3("simart-run", &hash);

        Ok(FsRun {
            id,
            hash,
            simulator,
            simulator_path: self.simulator_path,
            simulator_repo,
            run_script,
            run_script_path: self.run_script_path,
            kernel,
            kernel_path: self.kernel_path,
            disk_image,
            disk_image_path: self.disk_image_path,
            output_dir: self.output_dir,
            params: self.params,
            timeout: self.timeout,
            status: RunStatus::Created,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simart_artifact::{Artifact, ContentSource};

    pub(crate) fn registry_with_components() -> (ArtifactRegistry, [ArtifactId; 5]) {
        let mut registry = ArtifactRegistry::new();
        let repo = registry
            .register(
                Artifact::builder("sim-repo", ArtifactKind::GitRepo)
                    .documentation("src")
                    .content(ContentSource::git("https://x", "rev1")),
            )
            .unwrap();
        let binary = registry
            .register(
                Artifact::builder("sim", ArtifactKind::Binary)
                    .documentation("bin")
                    .content(ContentSource::bytes(b"elf".to_vec()))
                    .input(repo.id()),
            )
            .unwrap();
        let script = registry
            .register(
                Artifact::builder("script", ArtifactKind::RunScript)
                    .documentation("cfg")
                    .content(ContentSource::bytes(b"py".to_vec())),
            )
            .unwrap();
        let kernel = registry
            .register(
                Artifact::builder("vmlinux", ArtifactKind::Kernel)
                    .documentation("kernel")
                    .content(ContentSource::bytes(b"krn".to_vec())),
            )
            .unwrap();
        let disk = registry
            .register(
                Artifact::builder("disk", ArtifactKind::DiskImage)
                    .documentation("img")
                    .content(ContentSource::bytes(b"img".to_vec())),
            )
            .unwrap();
        let ids = [binary.id(), repo.id(), script.id(), kernel.id(), disk.id()];
        (registry, ids)
    }

    pub(crate) fn sample_run(registry: &ArtifactRegistry, ids: [ArtifactId; 5]) -> FsRun {
        let [binary, repo, script, kernel, disk] = ids;
        FsRun::create(registry)
            .simulator(binary, "build/sim.opt")
            .simulator_repo(repo)
            .run_script(script, "configs/run.py")
            .kernel(kernel, "vmlinux")
            .disk_image(disk, "disk.img")
            .param("blackscholes")
            .param("8")
            .build()
            .unwrap()
    }

    #[test]
    fn identical_inputs_produce_identical_identity() {
        let (registry, ids) = registry_with_components();
        let a = sample_run(&registry, ids);
        let b = sample_run(&registry, ids);
        assert_eq!(a.run_hash(), b.run_hash());
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn parameters_change_identity_but_paths_do_not() {
        let (registry, ids) = registry_with_components();
        let [binary, repo, script, kernel, disk] = ids;
        let base = sample_run(&registry, ids);

        let different_param = FsRun::create(&registry)
            .simulator(binary, "build/sim.opt")
            .simulator_repo(repo)
            .run_script(script, "configs/run.py")
            .kernel(kernel, "vmlinux")
            .disk_image(disk, "disk.img")
            .param("blackscholes")
            .param("2")
            .build()
            .unwrap();
        assert_ne!(base.run_hash(), different_param.run_hash());

        let different_path = FsRun::create(&registry)
            .simulator(binary, "elsewhere/sim.opt")
            .simulator_repo(repo)
            .run_script(script, "other/run.py")
            .kernel(kernel, "boot/vmlinux")
            .disk_image(disk, "images/disk.img")
            .output_dir("scratch")
            .param("blackscholes")
            .param("8")
            .build()
            .unwrap();
        assert_eq!(base.run_hash(), different_path.run_hash());
    }

    #[test]
    fn missing_components_are_rejected() {
        let (registry, ids) = registry_with_components();
        let [binary, repo, ..] = ids;
        let err = FsRun::create(&registry)
            .simulator(binary, "sim")
            .simulator_repo(repo)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            RunError::MissingComponent {
                component: "run_script"
            }
        ));
    }

    #[test]
    fn wrong_kinds_are_rejected() {
        let (registry, ids) = registry_with_components();
        let [binary, repo, script, kernel, disk] = ids;
        let err = FsRun::create(&registry)
            .simulator(kernel, "oops") // a kernel is not a simulator binary
            .simulator_repo(repo)
            .run_script(script, "run.py")
            .kernel(binary, "oops")
            .disk_image(disk, "disk.img")
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            RunError::WrongKind {
                component: "simulator",
                ..
            }
        ));
    }

    #[test]
    fn unknown_artifacts_are_rejected() {
        let (registry, ids) = registry_with_components();
        let [_, repo, script, kernel, disk] = ids;
        let ghost = Uuid::new_v3("test", "ghost");
        let err = FsRun::create(&registry)
            .simulator(ghost, "sim")
            .simulator_repo(repo)
            .run_script(script, "run.py")
            .kernel(kernel, "vmlinux")
            .disk_image(disk, "disk.img")
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            RunError::UnknownArtifact {
                component: "simulator",
                ..
            }
        ));
    }

    #[test]
    fn lifecycle_transitions_enforced() {
        let (registry, ids) = registry_with_components();
        let mut run = sample_run(&registry, ids);
        assert_eq!(run.status(), RunStatus::Created);
        run.transition(RunStatus::Queued).unwrap();
        run.transition(RunStatus::Running).unwrap();
        run.transition(RunStatus::Done).unwrap();
        assert_eq!(run.transition(RunStatus::Running), Err(RunStatus::Done));
    }

    #[test]
    fn default_timeout_matches_figure_4() {
        let (registry, ids) = registry_with_components();
        let run = sample_run(&registry, ids);
        assert_eq!(run.timeout(), Duration::from_secs(900), "60*15 seconds");
    }
}
