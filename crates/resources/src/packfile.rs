//! The Packer-style disk-image builder.
//!
//! gem5-resources builds its disk images with HashiCorp Packer: a
//! template names a base OS, a preseed configuration, and a list of
//! provisioners (scripts to run, files to copy, benchmarks to
//! install). We reproduce that pipeline deterministically: the same
//! template always builds a byte-identical [`DiskImageSpec`], whose
//! fingerprint doubles as the disk-image artifact's content.

use simart_codec::fnv1a;
use simart_fullsim::os::OsImage;
use std::fmt;

/// A provisioning step in a template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provisioner {
    /// Run a shell script inside the image.
    Shell {
        /// Script name (for documentation).
        name: String,
        /// Script body.
        script: String,
    },
    /// Copy a file into the image.
    FileCopy {
        /// Source path on the build host.
        source: String,
        /// Destination inside the image.
        destination: String,
    },
    /// Install a benchmark suite (compiles it with the image's
    /// tool-chain).
    InstallBenchmark {
        /// Suite name (e.g. `parsec`).
        suite: String,
        /// Applications to build (empty = all).
        apps: Vec<String>,
    },
}

impl Provisioner {
    fn fingerprint_text(&self) -> String {
        match self {
            Provisioner::Shell { name, script } => format!("shell:{name}:{script}"),
            Provisioner::FileCopy {
                source,
                destination,
            } => {
                format!("copy:{source}->{destination}")
            }
            Provisioner::InstallBenchmark { suite, apps } => {
                format!("install:{suite}:{}", apps.join(","))
            }
        }
    }
}

/// A Packer-style image template.
#[derive(Debug, Clone, PartialEq)]
pub struct PackerTemplate {
    name: String,
    base_os: OsImage,
    preseed: String,
    provisioners: Vec<Provisioner>,
}

impl PackerTemplate {
    /// Starts a template for the given base OS image.
    pub fn new(name: impl Into<String>, base_os: OsImage) -> PackerTemplate {
        PackerTemplate {
            name: name.into(),
            base_os,
            preseed: "ubuntu-server-defaults".to_owned(),
            provisioners: Vec::new(),
        }
    }

    /// Overrides the preseed configuration.
    pub fn preseed(mut self, preseed: impl Into<String>) -> Self {
        self.preseed = preseed.into();
        self
    }

    /// Appends a provisioner.
    pub fn provisioner(mut self, provisioner: Provisioner) -> Self {
        self.provisioners.push(provisioner);
        self
    }

    /// Convenience: appends a shell provisioner.
    pub fn shell(self, name: impl Into<String>, script: impl Into<String>) -> Self {
        self.provisioner(Provisioner::Shell {
            name: name.into(),
            script: script.into(),
        })
    }

    /// Convenience: appends a benchmark-install provisioner.
    pub fn install(self, suite: impl Into<String>, apps: &[&str]) -> Self {
        self.provisioner(Provisioner::InstallBenchmark {
            suite: suite.into(),
            apps: apps.iter().map(|a| (*a).to_owned()).collect(),
        })
    }

    /// The template name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The provisioners, in order.
    pub fn provisioners(&self) -> &[Provisioner] {
        &self.provisioners
    }

    /// Builds the image. Deterministic: identical templates produce
    /// identical image specifications and fingerprints.
    pub fn build(&self) -> DiskImageSpec {
        let mut installed = Vec::new();
        let mut transcript = format!(
            "packer build {}\nbase: {}\npreseed: {}\n",
            self.name, self.base_os, self.preseed
        );
        for provisioner in &self.provisioners {
            transcript.push_str(&provisioner.fingerprint_text());
            transcript.push('\n');
            if let Provisioner::InstallBenchmark { suite, apps } = provisioner {
                if apps.is_empty() {
                    installed.push(format!("{suite}/*"));
                } else {
                    installed.extend(apps.iter().map(|a| format!("{suite}/{a}")));
                }
            }
        }
        let fingerprint = fnv1a(transcript.as_bytes());
        DiskImageSpec {
            name: self.name.clone(),
            os: self.base_os,
            installed,
            build_transcript: transcript,
            fingerprint,
        }
    }
}

/// A built disk image: what gets registered as a disk-image artifact
/// and later mounted by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskImageSpec {
    /// Image name.
    pub name: String,
    /// The user-land OS installed on the image.
    pub os: OsImage,
    /// Installed benchmark binaries (`suite/app` entries).
    pub installed: Vec<String>,
    /// Reproducible build transcript (the "documentation" of the
    /// image, like the Packer scripts the resources ship).
    pub build_transcript: String,
    /// Content fingerprint of the image.
    pub fingerprint: u64,
}

impl DiskImageSpec {
    /// Whether the image contains the given `suite/app` binary.
    pub fn has_app(&self, suite: &str, app: &str) -> bool {
        self.installed
            .iter()
            .any(|entry| entry == &format!("{suite}/{app}") || entry == &format!("{suite}/*"))
    }

    /// A stable textual content descriptor (for artifact hashing).
    pub fn content_descriptor(&self) -> String {
        format!("disk-image:{}:{:016x}", self.name, self.fingerprint)
    }
}

impl fmt::Display for DiskImageSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} installed apps)",
            self.name,
            self.os,
            self.installed.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsec_template(os: OsImage) -> PackerTemplate {
        PackerTemplate::new(format!("parsec-{os}"), os)
            .shell(
                "apt",
                "apt-get update && apt-get install -y build-essential",
            )
            .install("parsec", &["blackscholes", "dedup", "ferret"])
    }

    #[test]
    fn identical_templates_build_identical_images() {
        let a = parsec_template(OsImage::Ubuntu1804).build();
        let b = parsec_template(OsImage::Ubuntu1804).build();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn different_os_or_apps_change_the_fingerprint() {
        let bionic = parsec_template(OsImage::Ubuntu1804).build();
        let focal = parsec_template(OsImage::Ubuntu2004).build();
        assert_ne!(bionic.fingerprint, focal.fingerprint);

        let fewer = PackerTemplate::new("parsec-ubuntu-18.04", OsImage::Ubuntu1804)
            .shell(
                "apt",
                "apt-get update && apt-get install -y build-essential",
            )
            .install("parsec", &["blackscholes"])
            .build();
        assert_ne!(bionic.fingerprint, fewer.fingerprint);
    }

    #[test]
    fn installed_apps_are_queryable() {
        let image = parsec_template(OsImage::Ubuntu2004).build();
        assert!(image.has_app("parsec", "dedup"));
        assert!(!image.has_app("parsec", "vips"));
        let everything = PackerTemplate::new("all", OsImage::Ubuntu1804)
            .install("npb", &[])
            .build();
        assert!(everything.has_app("npb", "cg"), "wildcard install");
    }

    #[test]
    fn transcript_documents_the_build() {
        let image = parsec_template(OsImage::Ubuntu1804).build();
        assert!(image.build_transcript.contains("packer build"));
        assert!(image.build_transcript.contains("install:parsec"));
        assert!(image
            .content_descriptor()
            .starts_with("disk-image:parsec-ubuntu-18.04:"));
    }

    #[test]
    fn provisioner_order_matters() {
        let ab = PackerTemplate::new("x", OsImage::Ubuntu1804)
            .shell("a", "1")
            .shell("b", "2")
            .build();
        let ba = PackerTemplate::new("x", OsImage::Ubuntu1804)
            .shell("b", "2")
            .shell("a", "1")
            .build();
        assert_ne!(ab.fingerprint, ba.fingerprint);
    }
}
