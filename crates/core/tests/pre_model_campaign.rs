//! A campaign directory written before the simulator binary's hash named
//! the simulated model still loads and checks clean, and `--resume`
//! runs its six boots again under the current model: new run hashes,
//! new records, and the six old records left exactly as they were.
//!
//! `crates/db/tests/fixtures/campaign-before-model/` is that directory,
//! committed as `simart campaign --db DIR` wrote it.

use simart::db::{Database, LoadOptions, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../db/tests/fixtures/campaign-before-model")
}

fn simart(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_simart"))
        .args(args)
        .output()
        .expect("run simart");
    assert!(out.stderr.is_empty(), "{out:?}");
    out
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let (path, target) = {
            let entry = entry.unwrap();
            (entry.path(), to.join(entry.file_name()))
        };
        if path.is_dir() {
            copy_dir(&path, &target);
        } else {
            std::fs::copy(&path, &target).unwrap();
        }
    }
}

fn check_is_clean(dir: &str) {
    let out = simart(&["check", "--db", dir, "--deny", "warnings"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

/// Every run document by id.
fn runs(dir: &Path) -> BTreeMap<String, Value> {
    let (db, report) = Database::load_with(dir, &LoadOptions::strict()).expect("strict load");
    assert_eq!(report.skipped(), 0);
    db.collection("runs")
        .all()
        .into_iter()
        .map(|doc| {
            (
                doc.at("_id").and_then(Value::as_str).unwrap().to_owned(),
                doc,
            )
        })
        .collect()
}

#[test]
fn an_old_campaign_checks_clean_and_resumes_under_the_current_model() {
    let dir = std::env::temp_dir().join(format!("simart-pre-model-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    copy_dir(&fixture(), &dir);
    let old = runs(&dir);
    assert_eq!(old.len(), 6);
    assert!(old
        .values()
        .all(|doc| doc.at("status").and_then(Value::as_str) == Some("done")));
    let text = dir.to_str().unwrap();
    check_is_clean(text);

    let out = simart(&["campaign", "--db", text, "--resume"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("fresh 6, requeued 0, skipped done 0"),
        "{stdout}"
    );

    let new = runs(&dir);
    assert_eq!(new.len(), 12);
    for (id, doc) in &old {
        assert_eq!(new.get(id), Some(doc), "old record {id} untouched");
    }
    let hashes = |docs: &BTreeMap<String, Value>| -> Vec<String> {
        docs.values()
            .map(|doc| doc.at("hash").and_then(Value::as_str).unwrap().to_owned())
            .collect()
    };
    let old_hashes = hashes(&old);
    let fresh = hashes(&new).into_iter().filter(|h| !old_hashes.contains(h));
    assert_eq!(fresh.count(), 6, "six new run hashes");
    check_is_clean(text);
    std::fs::remove_dir_all(&dir).unwrap();
}
