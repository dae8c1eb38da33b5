//! Golden bytes for the formats that outlive a process: a journal
//! record, a protocol frame, a checkpoint header and key, and a fault
//! stream. The literals were captured from the tree *before* the
//! shared `simart-codec` crate replaced the per-crate copies of the
//! frame, CRC-32, FNV-1a and JSON code; they must never change without
//! a format-version bump.

use simart_db::{Database, Value};
use simart_fullsim::checkpoint::{checkpoint_key, CheckpointStore};
use simart_fullsim::system::{Fidelity, SystemConfig};
use simart_tasks::wire::Message;
use simart_tasks::{Fault, FaultInjector};
use std::time::Duration;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("simart-format-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn journal_record_bytes_are_pinned() {
    let dir = scratch("journal");
    let db = Database::open(&dir).unwrap();
    db.collection("runs")
        .insert(Value::map([
            ("_id", Value::from("run-0001")),
            ("status", Value::from("done")),
            ("ticks", Value::from(91_000_000i64)),
            ("note", Value::from("tab\t \"quoted\" é")),
        ]))
        .unwrap();
    assert_eq!(
        hex(&std::fs::read(dir.join("journal.log")).unwrap()),
        "6c000000622cd57a7b2263223a2272756e73222c2264223a7b225f6964223a2272756e2d30303031222c\
         226e6f7465223a227461625c74205c2271756f7465645c2220c3a9222c22737461747573223a22646f6e\
         65222c227469636b73223a39313030303030307d2c226f70223a22696e73227d"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dispatch_frame_bytes_are_pinned() {
    let dispatch = Message::Dispatch {
        job: 9,
        delivery: 2,
        generation: 7,
        name: "campaign/abc123".to_owned(),
        kind: "campaign-boot".to_owned(),
        payload: "{\"params\":[\"kvm\",\"2\"]}\n".to_owned(),
        timeout_ms: 1500,
    };
    assert_eq!(
        hex(&dispatch.to_frame()),
        "a30000003993cdb27b2274797065223a226469737061746368222c226a6f62223a392c2264656c697665\
         7279223a322c2267656e65726174696f6e223a372c226e616d65223a2263616d706169676e2f61626331\
         3233222c226b696e64223a2263616d706169676e2d626f6f74222c227061796c6f6164223a227b5c2270\
         6172616d735c223a5b5c226b766d5c222c5c22325c225d7d5c6e222c2274696d656f75744d73223a3135\
         30307d"
    );
}

#[test]
fn checkpoint_key_and_header_frame_are_pinned() {
    let config = SystemConfig::builder()
        .fidelity(Fidelity::Smoke)
        .build()
        .unwrap();
    let key = checkpoint_key(&config);
    assert_eq!(key, "80f59a9b98943900");

    let dir = scratch("ckpt");
    let store = CheckpointStore::open(&dir).unwrap();
    store.boot_or_restore(&config).unwrap();
    let file = std::fs::read(store.path_for(&key)).unwrap();
    // Magic, then the header frame: [len][crc][version/key/label].
    let len = u32::from_le_bytes(file[8..12].try_into().unwrap()) as usize;
    assert_eq!(
        hex(&file[..8 + 8 + len]),
        "534d41525443500a700000006ae5e12476657273696f6e20310a6b657920383066353961396239383934\
         333930300a6c6162656c20317854696d696e6753696d706c654350552f436c617373696328636f686572\
         656e74292f76352e342e35312f73797374656d642d72756e6c6576656c352f7562756e74752d31382e30\
         340a"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_stream_draws_are_pinned() {
    // Rates of 1.0 turn every draw into a magnitude, which exposes the
    // per-(seed, task, attempt) stream to the nanosecond.
    let injector = FaultInjector::new(42)
        .delays(1.0, Duration::from_secs(1000))
        .worker_stalls(1.0, Duration::from_secs(1000));
    assert_eq!(
        injector.fault_for("campaign/abc123", 3),
        Some(Fault::Delay(Duration::from_nanos(63_515_902_822)))
    );
    assert_eq!(
        injector.worker_fault_for("campaign/abc123", 2),
        Some(Fault::WorkerStall(Duration::from_nanos(990_117_613_985)))
    );
}
