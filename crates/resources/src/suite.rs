//! Registration helpers: turn resources into documented artifacts.
//!
//! The paper's two contributions "function best when working in
//! tandem": resources provide the components, the artifact framework
//! records which were used. These helpers perform that hand-off with
//! the documentation fields filled in the way the framework requires.

use crate::disks;
use crate::kernels::KernelResource;
use crate::packfile::DiskImageSpec;
use simart_artifact::{Artifact, ArtifactKind, ArtifactRegistry, ContentSource};
use simart_fullsim::os::OsImage;
use simart_fullsim::MODEL;
use std::sync::Arc;

/// Registers a kernel resource, returning the kernel artifact.
///
/// # Errors
///
/// Propagates registry errors (conflicting duplicates).
pub fn register_kernel(
    registry: &mut ArtifactRegistry,
    kernel: &KernelResource,
) -> Result<Arc<Artifact>, simart_artifact::ArtifactError> {
    registry.register(
        Artifact::builder(kernel.binary_name(), ArtifactKind::Kernel)
            .command(format!(
                "cd linux-stable; git checkout v{}; make -j8 vmlinux",
                kernel.version.release()
            ))
            .cwd("linux-stable/")
            .path(format!("linux-stable/{}", kernel.binary_name()))
            .documentation(format!(
                "Linux kernel {} built from the linux-kernel resource with config [{}]",
                kernel.version.release(),
                kernel.config.join(" ")
            ))
            .content(ContentSource::descriptor(kernel.content_descriptor())),
    )
}

/// Registers a built disk image, returning the disk-image artifact.
///
/// # Errors
///
/// Propagates registry errors.
pub fn register_disk_image(
    registry: &mut ArtifactRegistry,
    image: &DiskImageSpec,
) -> Result<Arc<Artifact>, simart_artifact::ArtifactError> {
    registry.register(
        Artifact::builder(image.name.clone(), ArtifactKind::DiskImage)
            .command(format!("packer build {}.json", image.name))
            .cwd("disk-image/")
            .path(format!("disk-image/{}.img", image.name))
            .documentation(image.build_transcript.clone())
            .content(ContentSource::descriptor(image.content_descriptor())),
    )
}

/// The content of a simulator binary: its version, its variant and the
/// simulated `model`, so a change to the model moves the binary's hash
/// and every run hash over it.
pub fn simulator_content(version: &str, variant: &str, model: &str) -> ContentSource {
    ContentSource::descriptor(format!("gem5.opt:{version}:{variant}:{model}"))
}

/// Registers the standard experiment substrate: simulator repository +
/// binary (of the simulator [`MODEL`]) and a run script, returning
/// `(repo, binary, script)`.
///
/// # Errors
///
/// Propagates registry errors.
pub fn register_simulator(
    registry: &mut ArtifactRegistry,
    version: &str,
    variant: &str,
) -> Result<[Arc<Artifact>; 3], simart_artifact::ArtifactError> {
    let repo = registry.register(
        Artifact::builder("gem5", ArtifactKind::GitRepo)
            .command(format!(
                "git clone https://gem5.googlesource.com/public/gem5; git checkout v{version}"
            ))
            .cwd("./")
            .path("gem5/")
            .documentation(format!("simulator source repository at v{version}"))
            .content(ContentSource::git(
                "https://gem5.googlesource.com/public/gem5",
                version,
            )),
    )?;
    let binary = registry.register(
        Artifact::builder(format!("gem5-{variant}"), ArtifactKind::Binary)
            .command(format!("scons build/{variant}/gem5.opt -j8"))
            .cwd("gem5/")
            .path(format!("gem5/build/{variant}/gem5.opt"))
            .documentation(format!(
                "optimized {variant} simulator binary at v{version}"
            ))
            .content(simulator_content(version, variant, MODEL))
            .input(repo.id()),
    )?;
    let script = registry.register(
        Artifact::builder("run-script", ArtifactKind::RunScript)
            .command("git clone https://gem5.googlesource.com/public/gem5-resources")
            .cwd("gem5-resources/")
            .path("gem5-resources/src/boot-exit/configs/run_exit.py")
            .documentation("full-system run script from the resources repository")
            .content(ContentSource::descriptor(format!("run-script:{version}")))
            .input(repo.id()),
    )?;
    Ok([repo, binary, script])
}

/// Registers the PARSEC images for both Ubuntu releases, returning
/// `(bionic, focal)` disk-image artifacts — the use-case 1 setup.
///
/// # Errors
///
/// Propagates registry errors.
pub fn register_parsec_images(
    registry: &mut ArtifactRegistry,
) -> Result<[Arc<Artifact>; 2], simart_artifact::ArtifactError> {
    let bionic = register_disk_image(registry, &disks::parsec_image(OsImage::Ubuntu1804))?;
    let focal = register_disk_image(registry, &disks::parsec_image(OsImage::Ubuntu2004))?;
    Ok([bionic, focal])
}

#[cfg(test)]
mod tests {
    use super::*;
    use simart_fullsim::kernel::KernelVersion;

    #[test]
    fn kernel_registration_is_idempotent() {
        let mut registry = ArtifactRegistry::new();
        let kernel = KernelResource::standard(KernelVersion::V5_4);
        let a = register_kernel(&mut registry, &kernel).unwrap();
        let b = register_kernel(&mut registry, &kernel).unwrap();
        assert_eq!(a.id(), b.id());
        assert_eq!(registry.len(), 1);
        assert_eq!(a.kind(), &ArtifactKind::Kernel);
    }

    #[test]
    fn disk_images_register_with_build_documentation() {
        let mut registry = ArtifactRegistry::new();
        let image = disks::boot_exit_image();
        let artifact = register_disk_image(&mut registry, &image).unwrap();
        assert!(artifact.documentation().contains("packer build"));
        assert_eq!(artifact.kind(), &ArtifactKind::DiskImage);
    }

    #[test]
    fn simulator_registration_wires_provenance() {
        let mut registry = ArtifactRegistry::new();
        let [repo, binary, script] = register_simulator(&mut registry, "20.1.0.4", "X86").unwrap();
        assert_eq!(binary.inputs(), &[repo.id()]);
        assert_eq!(script.inputs(), &[repo.id()]);
        assert_eq!(repo.git().unwrap().revision, "20.1.0.4");
    }

    #[test]
    fn parsec_images_differ_as_artifacts() {
        let mut registry = ArtifactRegistry::new();
        let [bionic, focal] = register_parsec_images(&mut registry).unwrap();
        assert_ne!(bionic.hash(), focal.hash());
        assert_ne!(bionic.id(), focal.id());
    }
}
