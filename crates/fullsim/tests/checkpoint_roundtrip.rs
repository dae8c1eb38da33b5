//! End-to-end proof of the "boot once, restore many" workflow: a run
//! resumed from an on-disk checkpoint is **bit-identical** (every
//! statistic, every tick) to the cold-boot run it replaces.

use simart_fullsim::checkpoint::{checkpoint_key, CheckpointEvent, CheckpointStore};
use simart_fullsim::system::{Fidelity, SystemConfig};
use simart_fullsim::workload::{parsec_profile, InputSize};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simart-ckpt-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn restored_workload_is_bit_identical_to_cold_boot() {
    let dir = tmp_dir("bitident");
    let store = CheckpointStore::open(&dir).unwrap();
    let config = SystemConfig::builder()
        .fidelity(Fidelity::Smoke)
        .cores(2)
        .build()
        .unwrap();
    let profile = parsec_profile("blackscholes").unwrap();

    // Cold run: boot simulated inline.
    let cold = config.run_workload(&profile, InputSize::Test).unwrap();

    // Warm run: boot saved by one "experiment", restored by the next.
    let (_, events) = store.boot_or_restore(&config).unwrap();
    assert!(matches!(events[1], CheckpointEvent::Saved(_)));
    let (restored, events) = store.boot_or_restore(&config).unwrap();
    assert!(matches!(events[1], CheckpointEvent::Restored(_)));
    let warm = config
        .run_workload_from(&restored, &profile, InputSize::Test)
        .unwrap();

    // Bit-identical: simulated time, instructions, and every statistic
    // (scalars compared as exact f64 values, not rounded renderings).
    assert_eq!(warm.sim_ticks, cold.sim_ticks);
    assert_eq!(warm.instructions, cold.instructions);
    for (name, value) in cold.stats.iter() {
        if name == "hostSeconds" {
            // The restore saves boot host time by design.
            continue;
        }
        assert_eq!(
            Some(value),
            warm.stats.iter().find(|(n, _)| *n == name).map(|(_, v)| v),
            "stat {name} differs between cold and restored runs"
        );
    }
    assert_eq!(warm.stats.count("checkpoint.restored"), 1);
    assert!(warm.host_seconds < cold.host_seconds);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_keys_are_stable_across_processes() {
    // The key is a pure content hash: any process, any time, same key.
    let config = SystemConfig::builder()
        .fidelity(Fidelity::Smoke)
        .build()
        .unwrap();
    let a = checkpoint_key(&config);
    let b = checkpoint_key(&config.clone());
    assert_eq!(a, b);
    assert_eq!(a.len(), 16, "16 hex digits");
    assert!(a.bytes().all(|b| b.is_ascii_hexdigit()));
}
