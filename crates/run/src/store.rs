//! Persistence of run records in the document database.

use crate::error::RunError;
use crate::fs_run::FsRun;
use crate::status::RunStatus;
use simart_artifact::{ArtifactId, Uuid};
use simart_db::{BlobKey, Database, Filter, Value};
use simart_observe as observe;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// Stores run records (and their result payloads) in a [`Database`].
///
/// Uniqueness: the run *hash* is unique — recording the same experiment
/// twice is refused, which is how the paper's framework prevents
/// accidental duplicate data points.
///
/// Durability rides on the database: when the store wraps an attached
/// database ([`Database::open`]), every record, status transition, and
/// attached result is written through to the on-disk journal as it
/// happens — no explicit save required for a crashed session to keep
/// its completed runs.
#[derive(Debug, Clone)]
pub struct RunStore {
    db: Database,
}

impl RunStore {
    /// Collection used for run documents.
    pub const COLLECTION: &'static str = "runs";

    /// Wraps a database, installing the run-hash uniqueness constraint
    /// plus the status and inputs lookup indexes behind
    /// [`find_by_status`](Self::find_by_status) and
    /// [`find_by_artifact`](Self::find_by_artifact).
    ///
    /// # Errors
    ///
    /// Fails if existing documents already violate uniqueness.
    pub fn new(db: &Database) -> Result<RunStore, RunError> {
        let collection = db.collection(Self::COLLECTION);
        collection.ensure_unique("hash")?;
        collection.ensure_index(simart_db::IndexSpec::hash("status"))?;
        collection.ensure_index(simart_db::IndexSpec::hash("inputs"))?;
        Ok(RunStore { db: db.clone() })
    }

    /// Records a new run.
    ///
    /// A run recorded past `Created` (admission records its runs
    /// already `Queued`) opens its event log with `status:<status>`:
    /// the document is the one that recording it `Created` and then
    /// taking the edge would leave, in one write.
    ///
    /// # Errors
    ///
    /// [`RunError::DuplicateRun`] when a run with the same hash exists.
    pub fn record(&self, run: &FsRun) -> Result<(), RunError> {
        self.record_many(std::slice::from_ref(run))?
            .pop()
            .expect("one outcome per run")
    }

    /// Records new runs, each as [`RunStore::record`] would, with one
    /// journal append: a duplicate is refused alone. Returns one
    /// outcome per run, in order.
    ///
    /// # Errors
    ///
    /// The journal's error when an attached journal refuses the batch:
    /// then no run of it is recorded.
    pub fn record_many(&self, runs: &[FsRun]) -> Result<Vec<Result<(), RunError>>, RunError> {
        let _timer = observe::timer("run.record_us");
        let docs = runs
            .iter()
            .map(|run| {
                observe::count("run.records", 1);
                let mut doc = run_to_doc(run);
                if run.status() != RunStatus::Created {
                    observe::count("run.transitions", 1);
                    push_event(&mut doc, &format!("status:{}", run.status()));
                }
                doc
            })
            .collect();
        let outcomes = self.db.collection(Self::COLLECTION).insert_many(docs)?;
        let outcomes = outcomes.into_iter().zip(runs);
        Ok(outcomes
            .map(|(outcome, run)| match outcome {
                Ok(()) => Ok(()),
                Err(simart_db::DbError::UniqueViolation { .. })
                | Err(simart_db::DbError::DuplicateId { .. }) => Err(RunError::DuplicateRun {
                    hash: run.run_hash().to_owned(),
                }),
                Err(other) => Err(other.into()),
            })
            .collect())
    }

    /// Commits `edits` in order as one batch, with one journal append.
    /// Each edit applies to its run's document as the edits before it
    /// left it — a run may be edited more than once — and writes its
    /// own record: the documents, the records and their order are
    /// those of committing the edits one by one ([`RunEdit::commit`]).
    /// Returns one outcome per edit, in order.
    ///
    /// # Errors
    ///
    /// The journal's error when an attached journal refuses the batch:
    /// then no edit of it is written.
    pub fn commit_many(
        &self,
        edits: Vec<RunEdit<'_>>,
    ) -> Result<Vec<Result<Committed, RunError>>, RunError> {
        let ids: Vec<String> = edits.iter().map(|edit| edit.id.to_string()).collect();
        let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
        let mut outcomes: Vec<Option<Result<Committed, RunError>>> =
            edits.iter().map(|_| None).collect();
        self.db
            .collection(Self::COLLECTION)
            .update_by_ids(&ids, |at, doc| outcomes[at] = Some(edits[at].apply(doc)))?;
        // An edit whose run is unknown was never applied.
        let outcomes = outcomes.into_iter().zip(&edits);
        Ok(outcomes
            .map(|(outcome, edit)| outcome.unwrap_or_else(|| Err(not_found(edit.id))))
            .collect())
    }

    /// Starts an atomic edit of run `id`'s document; see [`RunEdit`].
    pub fn edit(&self, id: Uuid) -> RunEdit<'_> {
        RunEdit {
            store: self,
            id,
            parts: Vec::new(),
        }
    }

    /// Loads a run by id.
    ///
    /// # Errors
    ///
    /// [`simart_db::DbError::NotFound`] via [`RunError::Db`] when
    /// absent; [`RunError::Corrupt`] when undecodable.
    pub fn load(&self, id: Uuid) -> Result<FsRun, RunError> {
        let doc = self
            .db
            .collection(Self::COLLECTION)
            .get(&id.to_string())
            .ok_or_else(|| not_found(id))?;
        doc_to_run(&doc)
    }

    /// Updates a run's status in the database, appending a
    /// `status:<new>` entry to the run's provenance event log.
    ///
    /// This is the *unchecked* write — it does not validate the
    /// lifecycle and exists for administrative repair and for
    /// simulating crashes in tests. Prefer [`RunStore::transition`].
    ///
    /// # Errors
    ///
    /// Propagates lookup failures.
    pub fn set_status(&self, id: Uuid, status: RunStatus) -> Result<(), RunError> {
        self.edit(id).set_status(status).commit().map(drop)
    }

    /// Appends a free-form provenance event to the run's event log
    /// without touching its status. Used by the remote scheduler to
    /// journal per-delivery facts (`remote-dispatch:<n>:g<gen>`,
    /// `remote-ack:<n>:g<gen>`) that `simart check` later audits for
    /// orphaned attempts.
    ///
    /// # Errors
    ///
    /// Propagates lookup failures.
    pub fn log_event(&self, id: Uuid, event: &str) -> Result<(), RunError> {
        self.edit(id).event(event).commit().map(drop)
    }

    /// Moves a run to `next`, enforcing the lifecycle: the change is
    /// refused (and nothing is written) unless the run's current
    /// status [can transition](RunStatus::can_transition_to) to `next`.
    /// The check and the write are one step under the collection's
    /// write lock, so of two racing edges out of one status exactly
    /// one is taken.
    ///
    /// # Errors
    ///
    /// [`RunError::IllegalTransition`] on a lifecycle violation;
    /// propagates lookup failures.
    pub fn transition(&self, id: Uuid, next: RunStatus) -> Result<(), RunError> {
        match self.edit(id).transition(next).commit()?.refused.first() {
            Some(&(from, to)) => Err(RunError::IllegalTransition { from, to }),
            None => Ok(()),
        }
    }

    /// Appends one attempt to the run's attempt history (bumping the
    /// attempt counter and logging an `attempt:<n>:<disposition>`
    /// provenance event) and returns the new attempt count.
    ///
    /// # Errors
    ///
    /// Propagates lookup failures.
    pub fn record_attempt(
        &self,
        id: Uuid,
        disposition: &str,
        delay_before: Duration,
    ) -> Result<u32, RunError> {
        let committed = self.edit(id).attempt(disposition, delay_before).commit()?;
        Ok(committed.attempts)
    }

    /// Number of attempts recorded for a run (0 when none, or when the
    /// run is unknown).
    pub fn attempt_count(&self, id: Uuid) -> u32 {
        self.db
            .collection(Self::COLLECTION)
            .get(&id.to_string())
            .and_then(|doc| doc.at("attemptCount").and_then(Value::as_int))
            .and_then(|n| u32::try_from(n).ok())
            .unwrap_or(0)
    }

    /// The run's attempt history, oldest first.
    ///
    /// # Errors
    ///
    /// Propagates lookup and decode failures.
    pub fn attempt_history(&self, id: Uuid) -> Result<Vec<RunAttempt>, RunError> {
        let corrupt = |why: &str| RunError::Corrupt {
            reason: why.to_owned(),
        };
        let doc = self
            .db
            .collection(Self::COLLECTION)
            .get(&id.to_string())
            .ok_or_else(|| not_found(id))?;
        let Some(attempts) = doc.at("attempts").and_then(Value::as_array) else {
            return Ok(Vec::new());
        };
        attempts
            .iter()
            .map(|entry| {
                Ok(RunAttempt {
                    index: entry
                        .at("index")
                        .and_then(Value::as_int)
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| corrupt("attempt without index"))?,
                    disposition: entry
                        .at("disposition")
                        .and_then(Value::as_str)
                        .ok_or_else(|| corrupt("attempt without disposition"))?
                        .to_owned(),
                    delay_ms: entry
                        .at("delayMs")
                        .and_then(Value::as_int)
                        .and_then(|n| u64::try_from(n).ok())
                        .ok_or_else(|| corrupt("attempt without delayMs"))?,
                })
            })
            .collect()
    }

    /// The run's provenance event log (status changes and attempts, in
    /// write order). Empty for unknown runs.
    pub fn events(&self, id: Uuid) -> Vec<String> {
        self.db
            .collection(Self::COLLECTION)
            .get(&id.to_string())
            .and_then(|doc| {
                doc.at("events").and_then(Value::as_array).map(|events| {
                    events
                        .iter()
                        .filter_map(|e| e.as_str().map(str::to_owned))
                        .collect::<Vec<_>>()
                })
            })
            .unwrap_or_default()
    }

    /// Attaches results: summary statistics fields plus an archived
    /// payload (e.g. the stats dump) stored in the blob store.
    ///
    /// # Errors
    ///
    /// Propagates lookup failures.
    pub fn attach_results(
        &self,
        id: Uuid,
        sim_ticks: u64,
        outcome: &str,
        payload: &[u8],
    ) -> Result<BlobKey, RunError> {
        let committed = self
            .edit(id)
            .results(sim_ticks, outcome, payload)
            .commit()?;
        Ok(committed.payload.expect("the edit attached results"))
    }

    /// Loads the archived result payload of a run, if any.
    pub fn load_results(&self, id: Uuid) -> Option<Arc<[u8]>> {
        let doc = self.db.collection(Self::COLLECTION).get(&id.to_string())?;
        let key = BlobKey::from_hex(doc.at("results.payload")?.as_str()?)?;
        self.db.blobs().get(key)
    }

    /// Finds the run with the given hash (unique per experiment), if
    /// recorded.
    ///
    /// # Errors
    ///
    /// Propagates decode failures.
    pub fn find_by_hash(&self, hash: &str) -> Result<Option<FsRun>, RunError> {
        self.db
            .collection(Self::COLLECTION)
            .find(&Filter::eq("hash", hash))
            .first()
            .map(doc_to_run)
            .transpose()
    }

    /// All runs in the given status.
    ///
    /// # Errors
    ///
    /// Propagates decode failures.
    pub fn find_by_status(&self, status: RunStatus) -> Result<Vec<FsRun>, RunError> {
        self.db
            .collection(Self::COLLECTION)
            .find(&Filter::eq("status", status.to_string()))
            .iter()
            .map(doc_to_run)
            .collect()
    }

    /// All runs that used the given artifact as any input — the
    /// reproducibility query ("which results depend on this kernel?").
    ///
    /// # Errors
    ///
    /// Propagates decode failures.
    pub fn find_by_artifact(&self, artifact: ArtifactId) -> Result<Vec<FsRun>, RunError> {
        self.db
            .collection(Self::COLLECTION)
            .find(&Filter::elem_match("inputs", artifact.to_string()))
            .iter()
            .map(doc_to_run)
            .collect()
    }

    /// Number of recorded runs.
    pub fn len(&self) -> usize {
        self.db.collection(Self::COLLECTION).len()
    }

    /// Whether no runs are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One atomic edit of a run document, started by [`RunStore::edit`]:
/// any mix of provenance events, results, attempt records and
/// lifecycle edges.
///
/// [`commit`](RunEdit::commit) applies the parts in the order they
/// were added, under the collection's write lock, as one rewrite of
/// the document and (on an attached database) one journal record. The
/// document ends up exactly as the same steps made one call at a time
/// leave it. A checked edge ([`transition`](RunEdit::transition)) is
/// judged against the status the document has at that point of the
/// edit; a refused edge drops only itself — the parts around it are
/// still written, as they were when each was a call of its own.
#[derive(Debug)]
#[must_use = "an edit writes nothing until it is committed"]
pub struct RunEdit<'a> {
    store: &'a RunStore,
    id: Uuid,
    parts: Vec<Part>,
}

#[derive(Debug)]
enum Part {
    Event(String),
    Results {
        sim_ticks: u64,
        outcome: String,
        payload: BlobKey,
    },
    Attempt {
        disposition: String,
        delay_before: Duration,
    },
    Status {
        next: RunStatus,
        checked: bool,
    },
}

/// What a committed [`RunEdit`] did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Committed {
    /// The attempt count the edit's last `attempt` part recorded (0
    /// when it had none).
    pub attempts: u32,
    /// Blob-store key of the payload the edit's last `results` part
    /// archived.
    pub payload: Option<BlobKey>,
    /// The `(from, to)` of every lifecycle edge the edit refused, in
    /// edit order.
    pub refused: Vec<(RunStatus, RunStatus)>,
}

impl RunEdit<'_> {
    /// Appends a free-form provenance event to the event log.
    pub fn event(mut self, event: impl Into<String>) -> Self {
        self.parts.push(Part::Event(event.into()));
        self
    }

    /// Attaches results: summary statistics fields plus `payload`
    /// (e.g. the stats dump), which goes to the blob store right away.
    pub fn results(mut self, sim_ticks: u64, outcome: &str, payload: &[u8]) -> Self {
        let payload = self.store.db.blobs().put(payload.to_vec());
        self.parts.push(Part::Results {
            sim_ticks,
            outcome: outcome.to_owned(),
            payload,
        });
        self
    }

    /// Appends one attempt to the attempt history: bumps the attempt
    /// counter and logs an `attempt:<n>:<disposition>` event.
    pub fn attempt(mut self, disposition: &str, delay_before: Duration) -> Self {
        self.parts.push(Part::Attempt {
            disposition: disposition.to_owned(),
            delay_before,
        });
        self
    }

    /// Takes the lifecycle edge to `next` if it is
    /// [legal](RunStatus::can_transition_to), logging `status:<next>`.
    pub fn transition(mut self, next: RunStatus) -> Self {
        self.parts.push(Part::Status {
            next,
            checked: true,
        });
        self
    }

    /// Writes status `next` (and its `status:<next>` event) without
    /// consulting the lifecycle; see [`RunStore::set_status`].
    pub fn set_status(mut self, next: RunStatus) -> Self {
        self.parts.push(Part::Status {
            next,
            checked: false,
        });
        self
    }

    /// Applies the edit. An edit that changes nothing (no parts, or
    /// only refused edges) writes nothing.
    ///
    /// # Errors
    ///
    /// Propagates lookup failures; [`RunError::Corrupt`] when a checked
    /// edge found no readable status to leave (the edge is dropped, the
    /// rest of the edit is written).
    pub fn commit(self) -> Result<Committed, RunError> {
        let store = self.store;
        store
            .commit_many(vec![self])?
            .pop()
            .expect("one outcome per edit")
    }

    /// Applies the parts to the run document, in order. A checked edge
    /// that finds no readable status is dropped, and the first such
    /// failure is returned once the rest of the edit is applied.
    fn apply(&self, doc: &mut Value) -> Result<Committed, RunError> {
        let mut done = Committed::default();
        let mut unreadable = None;
        for part in &self.parts {
            if let Err(err) = part.apply(doc, &mut done) {
                unreadable.get_or_insert(err);
            }
        }
        unreadable.map_or(Ok(done), Err)
    }
}

impl Part {
    /// Applies this part to the run document, noting in `done` what
    /// the caller is told about it.
    fn apply(&self, doc: &mut Value, done: &mut Committed) -> Result<(), RunError> {
        match self {
            Part::Event(event) => push_event(doc, event),
            Part::Results {
                sim_ticks,
                outcome,
                payload,
            } => {
                doc.set_at("results.simTicks", Value::from(*sim_ticks));
                doc.set_at("results.outcome", Value::from(outcome.as_str()));
                doc.set_at("results.payload", Value::from(payload.to_hex()));
                done.payload = Some(*payload);
            }
            Part::Attempt {
                disposition,
                delay_before,
            } => done.attempts = push_attempt(doc, disposition, *delay_before),
            Part::Status { next, checked } => {
                if *checked {
                    let from = doc
                        .at("status")
                        .and_then(Value::as_str)
                        .and_then(|status| status.parse::<RunStatus>().ok())
                        .ok_or_else(|| RunError::Corrupt {
                            reason: "missing or unknown `status`".to_owned(),
                        })?;
                    if !from.can_transition_to(*next) {
                        done.refused.push((from, *next));
                        return Ok(());
                    }
                }
                observe::count("run.transitions", 1);
                doc.set_at("status", Value::from(next.to_string()));
                push_event(doc, &format!("status:{next}"));
            }
        }
        Ok(())
    }
}

/// One recorded attempt of a run — the persisted mirror of the task
/// layer's attempt records. `delay_ms` is the scheduled backoff before
/// the attempt, so histories are deterministic for a fixed retry seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunAttempt {
    /// 1-based attempt number.
    pub index: u32,
    /// How the attempt ended ("succeeded", "errored", "timed-out").
    pub disposition: String,
    /// Backoff delay scheduled before this attempt, in milliseconds.
    pub delay_ms: u64,
}

fn not_found(id: Uuid) -> RunError {
    RunError::Db(simart_db::DbError::NotFound {
        query: id.to_string(),
    })
}

/// Appends one entry to a run document's provenance event log.
fn push_event(doc: &mut Value, event: &str) {
    push_to(doc, "events", Value::from(event));
}

/// Appends `item` to the array under the document's top-level `field`,
/// in place; a missing (or non-array) field becomes a fresh array.
fn push_to(doc: &mut Value, field: &str, item: Value) {
    let Value::Map(map) = doc else {
        return;
    };
    match map.get_mut(field) {
        Some(Value::Array(items)) => items.push(item),
        _ => {
            map.insert(field.to_owned(), Value::Array(vec![item]));
        }
    }
}

/// Records one attempt on a run document — counter, history entry and
/// `attempt:<n>:<disposition>` event — and returns the new count.
fn push_attempt(doc: &mut Value, disposition: &str, delay_before: Duration) -> u32 {
    let prior = doc.at("attemptCount").and_then(Value::as_int).unwrap_or(0);
    let count = u32::try_from(prior).unwrap_or(0).saturating_add(1);
    doc.set_at("attemptCount", Value::from(u64::from(count)));
    push_to(
        doc,
        "attempts",
        Value::map([
            ("index", Value::from(u64::from(count))),
            ("disposition", Value::from(disposition)),
            (
                "delayMs",
                Value::from(u64::try_from(delay_before.as_millis()).unwrap_or(u64::MAX)),
            ),
        ]),
    );
    push_event(doc, &format!("attempt:{count}:{disposition}"));
    count
}

fn run_to_doc(run: &FsRun) -> Value {
    let [simulator_path, run_script_path, kernel_path, disk_image_path] = run.paths();
    Value::map([
        ("_id", Value::from(run.id().to_string())),
        ("hash", Value::from(run.run_hash())),
        ("status", Value::from(run.status().to_string())),
        (
            "inputs",
            Value::array(
                run.input_artifacts()
                    .iter()
                    .map(|a| Value::from(a.to_string())),
            ),
        ),
        ("simulator", Value::from(run.simulator().to_string())),
        (
            "simulatorRepo",
            Value::from(run.simulator_repo().to_string()),
        ),
        ("runScript", Value::from(run.run_script().to_string())),
        ("kernel", Value::from(run.kernel().to_string())),
        ("diskImage", Value::from(run.disk_image().to_string())),
        (
            "paths",
            Value::map([
                ("simulator", Value::from(simulator_path)),
                ("runScript", Value::from(run_script_path)),
                ("kernel", Value::from(kernel_path)),
                ("diskImage", Value::from(disk_image_path)),
            ]),
        ),
        ("outputDir", Value::from(run.output_dir())),
        (
            "params",
            Value::array(run.params().iter().map(|p| Value::from(p.as_str()))),
        ),
        ("timeoutSeconds", Value::from(run.timeout().as_secs())),
    ])
}

fn doc_to_run(doc: &Value) -> Result<FsRun, RunError> {
    let corrupt = |why: &str| RunError::Corrupt {
        reason: why.to_owned(),
    };
    let text = |path: &str| -> Result<String, RunError> {
        doc.at(path)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| corrupt(&format!("missing `{path}`")))
    };
    let uuid = |path: &str| -> Result<Uuid, RunError> {
        Uuid::from_str(&text(path)?).map_err(|_| corrupt(&format!("bad uuid at `{path}`")))
    };
    let id = uuid("_id")?;
    let components = [
        uuid("simulator")?,
        uuid("simulatorRepo")?,
        uuid("runScript")?,
        uuid("kernel")?,
        uuid("diskImage")?,
    ];
    let paths = [
        text("paths.simulator")?,
        text("paths.runScript")?,
        text("paths.kernel")?,
        text("paths.diskImage")?,
    ];
    let params = doc
        .at("params")
        .and_then(Value::as_array)
        .ok_or_else(|| corrupt("missing `params`"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| corrupt("non-string param"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let status = text("status")?
        .parse::<RunStatus>()
        .map_err(|e| corrupt(&e.to_string()))?;
    let timeout = Duration::from_secs(
        doc.at("timeoutSeconds")
            .and_then(Value::as_int)
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| corrupt("missing timeout"))?,
    );
    Ok(FsRun::from_stored_parts(
        id,
        text("hash")?,
        components,
        paths,
        text("outputDir")?,
        params,
        timeout,
        status,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simart_artifact::{Artifact, ArtifactKind, ArtifactRegistry, ContentSource};

    fn setup() -> (ArtifactRegistry, [ArtifactId; 5], Database, RunStore) {
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
        let db = Database::in_memory();
        let store = RunStore::new(&db).unwrap();
        (registry, ids, db, store)
    }

    fn make_run(registry: &ArtifactRegistry, ids: [ArtifactId; 5], app: &str) -> FsRun {
        let [binary, repo, script, kernel, disk] = ids;
        FsRun::create(registry)
            .simulator(binary, "build/sim.opt")
            .simulator_repo(repo)
            .run_script(script, "configs/run.py")
            .kernel(kernel, "vmlinux")
            .disk_image(disk, "disk.img")
            .param(app)
            .build()
            .unwrap()
    }

    #[test]
    fn record_load_round_trip() {
        let (registry, ids, _db, store) = setup();
        let run = make_run(&registry, ids, "dedup");
        store.record(&run).unwrap();
        let loaded = store.load(run.id()).unwrap();
        assert_eq!(loaded, run);
        let by_hash = store.find_by_hash(run.run_hash()).unwrap().unwrap();
        assert_eq!(by_hash.id(), run.id());
        assert!(store.find_by_hash("no-such-hash").unwrap().is_none());
    }

    #[test]
    fn duplicate_experiments_are_refused() {
        let (registry, ids, _db, store) = setup();
        let run = make_run(&registry, ids, "dedup");
        store.record(&run).unwrap();
        let again = make_run(&registry, ids, "dedup");
        assert!(matches!(
            store.record(&again),
            Err(RunError::DuplicateRun { .. })
        ));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn status_updates_and_queries() {
        let (registry, ids, _db, store) = setup();
        let run = make_run(&registry, ids, "vips");
        store.record(&run).unwrap();
        store.set_status(run.id(), RunStatus::Running).unwrap();
        assert_eq!(store.find_by_status(RunStatus::Running).unwrap().len(), 1);
        assert!(store.find_by_status(RunStatus::Done).unwrap().is_empty());
        assert!(store.set_status(Uuid::NIL, RunStatus::Running).is_err());
    }

    #[test]
    fn results_round_trip_through_blob_store() {
        let (registry, ids, _db, store) = setup();
        let run = make_run(&registry, ids, "ferret");
        store.record(&run).unwrap();
        store
            .attach_results(run.id(), 123_456, "success", b"stats dump here")
            .unwrap();
        assert_eq!(
            store.load_results(run.id()).unwrap().as_ref(),
            b"stats dump here"
        );
        let doc = store.load(run.id()).unwrap();
        let _ = doc; // run decodes fine with results attached
    }

    #[test]
    fn transition_enforces_the_lifecycle() {
        let (registry, ids, _db, store) = setup();
        let run = make_run(&registry, ids, "lifecycle");
        store.record(&run).unwrap();
        store.transition(run.id(), RunStatus::Queued).unwrap();
        store.transition(run.id(), RunStatus::Running).unwrap();
        store.transition(run.id(), RunStatus::Done).unwrap();
        // Done is a sink — even the unchecked-looking rerun edge fails.
        let err = store.transition(run.id(), RunStatus::Queued).unwrap_err();
        assert!(matches!(
            err,
            RunError::IllegalTransition {
                from: RunStatus::Done,
                to: RunStatus::Queued
            }
        ));
        assert_eq!(store.load(run.id()).unwrap().status(), RunStatus::Done);
    }

    #[test]
    fn failed_runs_can_be_requeued() {
        let (registry, ids, _db, store) = setup();
        let run = make_run(&registry, ids, "requeue");
        store.record(&run).unwrap();
        store.transition(run.id(), RunStatus::Queued).unwrap();
        store.transition(run.id(), RunStatus::Running).unwrap();
        store.transition(run.id(), RunStatus::Failed).unwrap();
        store.transition(run.id(), RunStatus::Queued).unwrap();
        assert_eq!(store.load(run.id()).unwrap().status(), RunStatus::Queued);
    }

    #[test]
    fn status_changes_accumulate_in_the_event_log() {
        let (registry, ids, _db, store) = setup();
        let run = make_run(&registry, ids, "events");
        store.record(&run).unwrap();
        store.transition(run.id(), RunStatus::Queued).unwrap();
        store.transition(run.id(), RunStatus::Running).unwrap();
        store.transition(run.id(), RunStatus::Done).unwrap();
        assert_eq!(
            store.events(run.id()),
            vec!["status:queued", "status:running", "status:done"]
        );
        assert!(store.events(Uuid::NIL).is_empty());
    }

    #[test]
    fn log_event_appends_without_touching_status() {
        let (registry, ids, _db, store) = setup();
        let run = make_run(&registry, ids, "events");
        store.record(&run).unwrap();
        store.log_event(run.id(), "remote-dispatch:1:g2").unwrap();
        store.log_event(run.id(), "remote-ack:1:g2").unwrap();
        assert_eq!(
            store.events(run.id()),
            vec!["remote-dispatch:1:g2", "remote-ack:1:g2"]
        );
        assert_eq!(store.load(run.id()).unwrap().status(), run.status());
        assert!(store.log_event(Uuid::NIL, "remote-dispatch:1:g0").is_err());
    }

    #[test]
    fn attempts_are_recorded_with_history_and_events() {
        let (registry, ids, _db, store) = setup();
        let run = make_run(&registry, ids, "attempts");
        store.record(&run).unwrap();
        assert_eq!(store.attempt_count(run.id()), 0);
        assert!(store.attempt_history(run.id()).unwrap().is_empty());
        assert_eq!(
            store
                .record_attempt(run.id(), "errored", Duration::ZERO)
                .unwrap(),
            1
        );
        assert_eq!(
            store
                .record_attempt(run.id(), "succeeded", Duration::from_millis(250))
                .unwrap(),
            2
        );
        assert_eq!(store.attempt_count(run.id()), 2);
        assert_eq!(
            store.attempt_history(run.id()).unwrap(),
            vec![
                RunAttempt {
                    index: 1,
                    disposition: "errored".to_owned(),
                    delay_ms: 0
                },
                RunAttempt {
                    index: 2,
                    disposition: "succeeded".to_owned(),
                    delay_ms: 250
                },
            ]
        );
        assert_eq!(
            store.events(run.id()),
            vec!["attempt:1:errored", "attempt:2:succeeded"]
        );
        assert!(store
            .record_attempt(Uuid::NIL, "errored", Duration::ZERO)
            .is_err());
    }

    #[test]
    fn find_by_artifact_links_runs_to_inputs() {
        let (registry, ids, _db, store) = setup();
        let run_a = make_run(&registry, ids, "a");
        let run_b = make_run(&registry, ids, "b");
        store.record(&run_a).unwrap();
        store.record(&run_b).unwrap();
        let kernel = ids[3];
        let dependents = store.find_by_artifact(kernel).unwrap();
        assert_eq!(dependents.len(), 2);
        let ghost = Uuid::new_v3("t", "ghost");
        assert!(store.find_by_artifact(ghost).unwrap().is_empty());
    }
}
