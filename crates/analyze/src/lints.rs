//! The lint registry: every SA lint as an incremental state machine.
//!
//! Each unit implements [`Lint`]: it advances by one [`Delta`] at a
//! time — a replayed journal record, or one stored document met by a
//! full scan's walk; the unit cannot tell which — serializes the
//! *committed* part of its state (derived caches are rebuilt on
//! restore), and emits its current findings. The diagnostics produced
//! must be byte-identical however the deltas arrived — the property
//! tests in `tests/incremental_props.rs` hold every unit to that.
//!
//! State layouts follow one discipline: maps keyed by the document id
//! the finding hangs off, so a rewrite of one document recomputes only
//! that document's findings (plus whatever cross-document structure it
//! participates in — hash groups, reference reverse-indexes, DAG
//! components).

use crate::diag::{Diagnostic, LintCode};
use crate::engine::{Delta, Lint, Registered};
use simart_artifact::dag::{DependencyGraph, GraphIssue};
use simart_artifact::Uuid;
use simart_codec::json;
use simart_db::{BlobKey, Database, LoadReport, Value};
use simart_run::RunStatus;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::Path;

/// One instance of every lint, in registration order, with the
/// collections (and whether the blob store) each is fed. SA0010
/// (`UnknownResource`) is represented by [`ResourceLint`], whose logic
/// runs over experiment axes in the prelaunch gate rather than over
/// database content.
pub(crate) fn registry() -> Vec<Registered> {
    macro_rules! row {
        ($name:literal, $collections:expr, $blobs:literal, $lint:expr) => {
            Registered {
                name: $name,
                timer_metric: concat!("analyze.lint_us.", $name),
                collections: $collections,
                blobs: $blobs,
                lint: Box::new($lint),
            }
        };
    }
    vec![
        row!("refs", &["artifacts", "runs"], false, RefLint::default()),
        row!("dag", &["artifacts"], false, DagLint::default()),
        row!(
            "blob_refs",
            &["artifacts", "runs"],
            true,
            BlobRefLint::default()
        ),
        row!("blob_files", &[], false, BlobFileLint::default()), // environment pass only
        row!("run_log", &["runs"], false, RunLogLint::default()),
        row!("dup_artifacts", &["artifacts"], false, DupLint::artifacts()),
        row!("dup_runs", &["runs"], false, DupLint::runs()),
        row!("resources", &[], false, ResourceLint),
        row!(
            "quarantine",
            &["quarantine", "runs"],
            false,
            QuarantineLint::default()
        ),
        row!("journal", &[], false, JournalLint::default()), // environment pass only
        // Indexes are maintained at the write commit point and rebuilt
        // from documents on load; no journal record can change whether
        // they diverge, so there is nothing to feed.
        row!("indexes", &[], false, IndexLint::default()),
    ]
}

// ---------------------------------------------------------------------
// State (de)serialization helpers. Persisted findings carry only
// (code, subject, message); severity is re-derived from the code, and
// report order is re-established by the engine's final sort.

fn diag_value(d: &Diagnostic) -> Value {
    Value::map([
        ("code", Value::from(d.code.code())),
        ("subject", Value::from(d.subject.clone())),
        ("message", Value::from(d.message.clone())),
    ])
}

fn diag_from(v: &Value) -> Result<Diagnostic, String> {
    let code = v
        .at("code")
        .and_then(Value::as_str)
        .and_then(LintCode::from_spec)
        .ok_or("persisted diagnostic has no recognizable code")?;
    let subject = v
        .at("subject")
        .and_then(Value::as_str)
        .ok_or("persisted diagnostic has no subject")?;
    let message = v
        .at("message")
        .and_then(Value::as_str)
        .ok_or("persisted diagnostic has no message")?;
    Ok(Diagnostic::new(code, subject, message))
}

fn diags_value(diags: &[Diagnostic]) -> Value {
    Value::array(diags.iter().map(diag_value))
}

fn diags_from(v: &Value) -> Result<Vec<Diagnostic>, String> {
    expect_array(v, "diagnostic list")?
        .iter()
        .map(diag_from)
        .collect()
}

fn expect_array<'v>(v: &'v Value, what: &str) -> Result<&'v [Value], String> {
    v.as_array()
        .ok_or_else(|| format!("persisted {what} is not an array"))
}

fn expect_map<'v>(v: &'v Value, what: &str) -> Result<&'v BTreeMap<String, Value>, String> {
    v.as_map()
        .ok_or_else(|| format!("persisted {what} is not a map"))
}

fn str_items(v: &Value, what: &str) -> Result<Vec<String>, String> {
    expect_array(v, what)?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("persisted {what} holds a non-string item"))
        })
        .collect()
}

fn sorted_str_array<'a>(items: impl IntoIterator<Item = &'a String>) -> Value {
    let mut items: Vec<&String> = items.into_iter().collect();
    items.sort();
    Value::array(items.into_iter().map(|s| Value::from(s.clone())))
}

/// The string inputs of an artifact/run document, in declaration
/// order. Non-string items are ignored.
fn doc_inputs(doc: &Value) -> Vec<String> {
    doc.at("inputs")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|i| i.as_str().map(str::to_owned))
        .collect()
}

// ---------------------------------------------------------------------
// SA0001 — runs referencing artifacts that do not exist.

#[derive(Default)]
struct RefLint {
    /// Every string `_id` in the artifact collection (no uuid gate:
    /// a run may legally reference an artifact with a malformed id —
    /// that misdeed is SA0003's, not SA0001's).
    artifacts: HashSet<String>,
    /// Run id → its declared string inputs, in document order.
    run_inputs: BTreeMap<String, Vec<String>>,
    /// Derived: input id → runs referencing it.
    rev: HashMap<String, HashSet<String>>,
    /// Derived: run id → current findings.
    findings: BTreeMap<String, Vec<Diagnostic>>,
}

impl RefLint {
    fn recompute(&mut self, run: &str) {
        let inputs = self.run_inputs.get(run).map(Vec::as_slice).unwrap_or(&[]);
        let diags: Vec<Diagnostic> = inputs
            .iter()
            .filter(|input| !self.artifacts.contains(*input))
            .map(|input| {
                Diagnostic::new(
                    LintCode::DanglingArtifactRef,
                    format!("run:{run}"),
                    format!("input artifact {input} is not in the artifact collection"),
                )
            })
            .collect();
        if diags.is_empty() {
            self.findings.remove(run);
        } else {
            self.findings.insert(run.to_owned(), diags);
        }
    }

    fn unlink(&mut self, run: &str, inputs: &[String]) {
        for input in inputs {
            if let Some(runs) = self.rev.get_mut(input) {
                runs.remove(run);
                if runs.is_empty() {
                    self.rev.remove(input);
                }
            }
        }
    }

    fn set_run(&mut self, id: &str, inputs: Vec<String>) {
        if let Some(old) = self.run_inputs.remove(id) {
            self.unlink(id, &old);
        }
        for input in &inputs {
            self.rev
                .entry(input.clone())
                .or_default()
                .insert(id.to_owned());
        }
        self.run_inputs.insert(id.to_owned(), inputs);
        self.recompute(id);
    }

    fn remove_run(&mut self, id: &str) {
        if let Some(old) = self.run_inputs.remove(id) {
            self.unlink(id, &old);
        }
        self.findings.remove(id);
    }

    fn touched_runs(&self, input: &str) -> Vec<String> {
        self.rev
            .get(input)
            .map(|runs| runs.iter().cloned().collect())
            .unwrap_or_default()
    }
}

impl Lint for RefLint {
    fn apply_delta(&mut self, delta: &Delta<'_>) {
        match delta {
            Delta::Write {
                collection: "artifacts",
                id,
                ..
            } if self.artifacts.insert((*id).to_owned()) => {
                for run in self.touched_runs(id) {
                    self.recompute(&run);
                }
            }
            Delta::Delete {
                collection: "artifacts",
                id,
            } if self.artifacts.remove(*id) => {
                for run in self.touched_runs(id) {
                    self.recompute(&run);
                }
            }
            Delta::Drop {
                collection: "artifacts",
            } => {
                self.artifacts.clear();
                let runs: Vec<String> = self.run_inputs.keys().cloned().collect();
                for run in runs {
                    self.recompute(&run);
                }
            }
            Delta::Write {
                collection: "runs",
                id,
                doc,
            } => self.set_run(id, doc_inputs(doc)),
            Delta::Delete {
                collection: "runs",
                id,
            } => self.remove_run(id),
            Delta::Drop { collection: "runs" } => {
                self.run_inputs.clear();
                self.rev.clear();
                self.findings.clear();
            }
            _ => {}
        }
    }

    fn emit(&self, out: &mut Vec<Diagnostic>) {
        for diags in self.findings.values() {
            out.extend(diags.iter().cloned());
        }
    }

    fn state(&self) -> Value {
        Value::map([
            ("artifacts".to_owned(), sorted_str_array(&self.artifacts)),
            (
                "runs".to_owned(),
                Value::map(
                    self.run_inputs
                        .iter()
                        // Inputs keep document order.
                        .map(|(id, inputs)| (id.clone(), Value::from(inputs.clone()))),
                ),
            ),
        ])
    }

    fn restore(&mut self, state: &Value) -> Result<(), String> {
        *self = RefLint::default();
        self.artifacts = str_items(
            state.at("artifacts").unwrap_or(&Value::Null),
            "artifact id set",
        )?
        .into_iter()
        .collect();
        for (id, inputs) in expect_map(state.at("runs").unwrap_or(&Value::Null), "run input map")? {
            self.set_run(id, str_items(inputs, "run input list")?);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// SA0002 / SA0003 — dependency cycles, orphan inputs, malformed ids.

/// Per-document committed record: `None` when the `_id` failed uuid
/// parsing (the document contributes nothing to the graph), otherwise
/// the raw declared input strings.
type DagRecord = Option<Vec<String>>;

#[derive(Default)]
struct DagLint {
    /// The committed state: artifact id → record.
    docs: BTreeMap<String, DagRecord>,
    // Derived caches, rebuilt wholesale by `rebuild`:
    /// Malformed-id / malformed-input findings, per document.
    doc_findings: BTreeMap<String, Vec<Diagnostic>>,
    /// Declared artifact uuids.
    declared: HashSet<Uuid>,
    /// Edges `input → artifact`, duplicates preserved.
    edges_out: HashMap<Uuid, Vec<Uuid>>,
    /// Union-find over weakly-connected components.
    parent: HashMap<Uuid, Uuid>,
    /// Root → member nodes (only valid at roots).
    members: HashMap<Uuid, Vec<Uuid>>,
    /// Root → cycle/orphan findings from the last re-validation.
    component_findings: HashMap<Uuid, Vec<Diagnostic>>,
    /// Nodes whose component changed since the last `settle`.
    dirty: Vec<Uuid>,
}

impl DagLint {
    fn find(&mut self, node: Uuid) -> Uuid {
        let mut root = node;
        while self.parent[&root] != root {
            root = self.parent[&root];
        }
        let mut cur = node;
        while self.parent[&cur] != root {
            let next = self.parent[&cur];
            self.parent.insert(cur, root);
            cur = next;
        }
        root
    }

    fn ensure(&mut self, node: Uuid) -> Uuid {
        if let std::collections::hash_map::Entry::Vacant(entry) = self.parent.entry(node) {
            entry.insert(node);
            self.members.insert(node, vec![node]);
        }
        self.find(node)
    }

    fn union(&mut self, a: Uuid, b: Uuid) {
        let ra = self.ensure(a);
        let rb = self.ensure(b);
        if ra == rb {
            return;
        }
        let (big, small) = if self.members[&ra].len() >= self.members[&rb].len() {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let moved = self.members.remove(&small).expect("small root has members");
        self.parent.insert(small, big);
        self.members
            .get_mut(&big)
            .expect("big root has members")
            .extend(moved);
        // Both previous components are superseded by the merged one.
        self.component_findings.remove(&ra);
        self.component_findings.remove(&rb);
    }

    /// Re-runs full graph validation, scoped to one weakly-connected
    /// component: cycles and orphans can only involve nodes reachable
    /// through edges, and edges never leave a component.
    fn revalidate(&mut self, root: Uuid) {
        let members = self.members.get(&root).cloned().unwrap_or_default();
        let mut graph = DependencyGraph::new();
        for m in &members {
            if self.declared.contains(m) {
                graph.add_node(*m);
            }
        }
        for m in &members {
            if let Some(outs) = self.edges_out.get(m) {
                for to in outs {
                    graph.add_edge_unchecked(*m, *to);
                }
            }
        }
        let diags = graph_issue_diags(graph.validate());
        if diags.is_empty() {
            self.component_findings.remove(&root);
        } else {
            self.component_findings.insert(root, diags);
        }
    }

    /// Plays one committed record into the derived caches and marks
    /// the (possibly merged) component it landed in for `settle`.
    fn integrate(&mut self, id: &str, record: &DagRecord) {
        let Some(inputs) = record else {
            self.doc_findings.insert(
                id.to_owned(),
                vec![Diagnostic::new(
                    LintCode::OrphanArtifactInput,
                    format!("artifact:{id}"),
                    format!("artifact id '{id}' is not a valid uuid"),
                )],
            );
            return;
        };
        let Ok(uuid) = id.parse::<Uuid>() else { return };
        let subject = format!("artifact:{id}");
        let mut diags = Vec::new();
        self.declared.insert(uuid);
        self.ensure(uuid);
        for input in inputs {
            match input.parse::<Uuid>() {
                Ok(from) => {
                    self.edges_out.entry(from).or_default().push(uuid);
                    self.union(uuid, from);
                }
                Err(_) => diags.push(Diagnostic::new(
                    LintCode::OrphanArtifactInput,
                    subject.clone(),
                    format!("input '{input}' is not a valid uuid"),
                )),
            }
        }
        if diags.is_empty() {
            self.doc_findings.remove(id);
        } else {
            self.doc_findings.insert(id.to_owned(), diags);
        }
        self.dirty.push(uuid);
    }

    /// Rebuilds every derived cache from the committed records. This
    /// is the O(artifacts) escape hatch for operations a union-find
    /// cannot play backwards (document deletion, a changed re-insert,
    /// a collection drop) — rare events next to the insert-only flow
    /// of a running campaign.
    fn rebuild(&mut self) {
        self.doc_findings.clear();
        self.declared.clear();
        self.edges_out.clear();
        self.parent.clear();
        self.members.clear();
        self.component_findings.clear();
        self.dirty.clear();
        let docs: Vec<(String, DagRecord)> = self
            .docs
            .iter()
            .map(|(id, r)| (id.clone(), r.clone()))
            .collect();
        for (id, record) in docs {
            self.integrate(&id, &record);
        }
        self.settle();
    }

    fn record_for(id: &str, doc: &Value) -> DagRecord {
        if id.parse::<Uuid>().is_ok() {
            Some(doc_inputs(doc))
        } else {
            None
        }
    }
}

fn graph_issue_diags(issues: Vec<GraphIssue>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for issue in issues {
        match issue {
            GraphIssue::Cycle { members } => {
                let names: Vec<String> = members.iter().map(Uuid::to_string).collect();
                diags.push(Diagnostic::new(
                    LintCode::ArtifactCycle,
                    format!("artifact:{}", names[0]),
                    format!("artifact dependency cycle through [{}]", names.join(", ")),
                ));
            }
            GraphIssue::Orphan {
                node,
                referenced_by,
            } => {
                let refs: Vec<String> = referenced_by.iter().map(Uuid::to_string).collect();
                diags.push(Diagnostic::new(
                    LintCode::OrphanArtifactInput,
                    format!("artifact:{node}"),
                    format!(
                        "input {node} is referenced by [{}] but no artifact document declares it",
                        refs.join(", ")
                    ),
                ));
            }
        }
    }
    diags
}

impl Lint for DagLint {
    fn apply_delta(&mut self, delta: &Delta<'_>) {
        match delta {
            Delta::Write {
                collection: "artifacts",
                id,
                doc,
            } => {
                let record = DagLint::record_for(id, doc);
                match self.docs.get(*id) {
                    Some(old) if *old == record => {} // unchanged upsert
                    Some(_) => {
                        self.docs.insert((*id).to_owned(), record);
                        self.rebuild();
                    }
                    None => {
                        self.docs.insert((*id).to_owned(), record.clone());
                        self.integrate(id, &record);
                    }
                }
            }
            Delta::Delete {
                collection: "artifacts",
                id,
            } if self.docs.remove(*id).is_some() => {
                self.rebuild();
            }
            Delta::Drop {
                collection: "artifacts",
            } => {
                self.docs.clear();
                self.rebuild();
            }
            _ => {}
        }
    }

    /// Re-validates every component a delta touched since the last
    /// call, once each however many of its documents arrived.
    fn settle(&mut self) {
        let mut done = HashSet::new();
        for node in std::mem::take(&mut self.dirty) {
            let root = self.find(node);
            if done.insert(root) {
                self.revalidate(root);
            }
        }
    }

    fn emit(&self, out: &mut Vec<Diagnostic>) {
        for diags in self
            .doc_findings
            .values()
            .chain(self.component_findings.values())
        {
            out.extend(diags.iter().cloned());
        }
    }

    fn state(&self) -> Value {
        Value::map(self.docs.iter().map(|(id, record)| {
            let value = match record {
                None => Value::Null,
                Some(inputs) => Value::array(inputs.iter().map(|i| Value::from(i.clone()))),
            };
            (id.clone(), value)
        }))
    }

    fn restore(&mut self, state: &Value) -> Result<(), String> {
        *self = DagLint::default();
        for (id, record) in expect_map(state, "dag document map")? {
            let record = match record {
                Value::Null => None,
                other => Some(str_items(other, "dag input list")?),
            };
            self.docs.insert(id.clone(), record);
        }
        self.rebuild();
        Ok(())
    }
}

// ---------------------------------------------------------------------
// SA0004 — payload references that do not resolve to a stored blob.

#[derive(Default)]
struct BlobRefLint {
    /// Keys currently in the blob store.
    blobs: BTreeSet<BlobKey>,
    /// Subject (`artifact:<id>` / `run:<id>`) → its payload hex ref.
    refs: BTreeMap<String, String>,
    /// Derived: parseable key → subjects referencing it.
    rev: BTreeMap<BlobKey, BTreeSet<String>>,
    /// Derived: subject → current finding.
    findings: BTreeMap<String, Diagnostic>,
}

impl BlobRefLint {
    fn recompute(&mut self, subject: &str) {
        let Some(hex) = self.refs.get(subject) else {
            self.findings.remove(subject);
            return;
        };
        let diag = match BlobKey::from_hex(hex) {
            None => Some(Diagnostic::new(
                LintCode::MissingBlob,
                subject,
                format!("payload reference '{hex}' is not a valid blob key"),
            )),
            Some(key) if !self.blobs.contains(&key) => Some(Diagnostic::new(
                LintCode::MissingBlob,
                subject,
                format!("payload blob {hex} is not in the blob store"),
            )),
            Some(_) => None,
        };
        match diag {
            Some(diag) => {
                self.findings.insert(subject.to_owned(), diag);
            }
            None => {
                self.findings.remove(subject);
            }
        }
    }

    fn set_ref(&mut self, subject: &str, hex: Option<String>) {
        if let Some(old) = self.refs.remove(subject) {
            if let Some(key) = BlobKey::from_hex(&old) {
                if let Some(subjects) = self.rev.get_mut(&key) {
                    subjects.remove(subject);
                    if subjects.is_empty() {
                        self.rev.remove(&key);
                    }
                }
            }
        }
        if let Some(hex) = hex {
            if let Some(key) = BlobKey::from_hex(&hex) {
                self.rev.entry(key).or_default().insert(subject.to_owned());
            }
            self.refs.insert(subject.to_owned(), hex);
        }
        self.recompute(subject);
    }

    fn blob_flip(&mut self, key: BlobKey, present: bool) {
        let changed = if present {
            self.blobs.insert(key)
        } else {
            self.blobs.remove(&key)
        };
        if changed {
            let subjects: Vec<String> = self
                .rev
                .get(&key)
                .map(|s| s.iter().cloned().collect())
                .unwrap_or_default();
            for subject in subjects {
                self.recompute(&subject);
            }
        }
    }

    fn drop_prefix(&mut self, prefix: &str) {
        let subjects: Vec<String> = self
            .refs
            .range(prefix.to_owned()..)
            .take_while(|(s, _)| s.starts_with(prefix))
            .map(|(s, _)| s.clone())
            .collect();
        for subject in subjects {
            self.set_ref(&subject, None);
        }
    }

    /// The payload hex an artifact document contributes — gated on a
    /// valid uuid `_id` (malformed ids stop at their SA0003 finding).
    fn artifact_ref(id: &str, doc: &Value) -> Option<String> {
        if id.parse::<Uuid>().is_err() {
            return None;
        }
        doc.at("payload").and_then(Value::as_str).map(str::to_owned)
    }

    fn run_ref(doc: &Value) -> Option<String> {
        doc.at("results.payload")
            .and_then(Value::as_str)
            .map(str::to_owned)
    }
}

impl Lint for BlobRefLint {
    fn apply_delta(&mut self, delta: &Delta<'_>) {
        match delta {
            Delta::Write {
                collection: "artifacts",
                id,
                doc,
            } => {
                self.set_ref(
                    &format!("artifact:{id}"),
                    BlobRefLint::artifact_ref(id, doc),
                );
            }
            Delta::Write {
                collection: "runs",
                id,
                doc,
            } => {
                self.set_ref(&format!("run:{id}"), BlobRefLint::run_ref(doc));
            }
            Delta::Delete {
                collection: "artifacts",
                id,
            } => {
                self.set_ref(&format!("artifact:{id}"), None);
            }
            Delta::Delete {
                collection: "runs",
                id,
            } => {
                self.set_ref(&format!("run:{id}"), None);
            }
            Delta::Drop {
                collection: "artifacts",
            } => self.drop_prefix("artifact:"),
            Delta::Drop { collection: "runs" } => self.drop_prefix("run:"),
            Delta::BlobPut(key) => self.blob_flip(*key, true),
            Delta::BlobRemove(key) => self.blob_flip(*key, false),
            _ => {}
        }
    }

    fn emit(&self, out: &mut Vec<Diagnostic>) {
        out.extend(self.findings.values().cloned());
    }

    fn state(&self) -> Value {
        Value::map([
            (
                "blobs".to_owned(),
                Value::array(self.blobs.iter().map(|k| Value::from(k.to_hex()))),
            ),
            (
                "refs".to_owned(),
                Value::map(
                    self.refs
                        .iter()
                        .map(|(s, h)| (s.clone(), Value::from(h.clone()))),
                ),
            ),
        ])
    }

    fn restore(&mut self, state: &Value) -> Result<(), String> {
        *self = BlobRefLint::default();
        for hex in str_items(state.at("blobs").unwrap_or(&Value::Null), "blob key set")? {
            let key = BlobKey::from_hex(&hex)
                .ok_or_else(|| format!("persisted blob key '{hex}' is not parseable"))?;
            self.blobs.insert(key);
        }
        let refs = expect_map(state.at("refs").unwrap_or(&Value::Null), "payload ref map")?;
        for (subject, hex) in refs {
            let hex = hex
                .as_str()
                .ok_or("persisted payload ref is not a string")?
                .to_owned();
            self.set_ref(subject, Some(hex));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// SA0005 — blob files whose content does not hash to their name.
// Environment-only: blob files are not journaled as files, so this
// lint rescans `blobs/` on every directory check.

#[derive(Default)]
struct BlobFileLint {
    findings: Vec<Diagnostic>,
}

impl Lint for BlobFileLint {
    fn apply_delta(&mut self, _delta: &Delta<'_>) {}

    fn scan_environment(&mut self, dir: &Path, _report: &LoadReport) {
        self.findings = scan_blob_files(dir);
    }

    fn emit(&self, out: &mut Vec<Diagnostic>) {
        out.extend(self.findings.iter().cloned());
    }

    fn state(&self) -> Value {
        Value::Null
    }

    fn restore(&mut self, _state: &Value) -> Result<(), String> {
        self.findings.clear();
        Ok(())
    }
}

// ---------------------------------------------------------------------
// SA0006 / SA0007 / SA0011 / SA0015 / SA0016 — event-log replay lints.
// A run's findings depend only on its own document, so incremental
// means "recompute the one document that changed".

#[derive(Default)]
struct RunLogLint {
    findings: BTreeMap<String, Vec<Diagnostic>>,
}

impl RunLogLint {
    fn compute(&mut self, id: &str, doc: &Value) {
        let subject = format!("run:{id}");
        let mut diags = Vec::new();
        let remote = lint_remote_trail(doc, &subject);
        replay_events(doc, &subject, &mut diags);
        diags.extend(remote.orphan);
        lint_checkpoint_events(doc, &subject, &mut diags);
        diags.extend(remote.divergence);
        if diags.is_empty() {
            self.findings.remove(id);
        } else {
            self.findings.insert(id.to_owned(), diags);
        }
    }
}

impl Lint for RunLogLint {
    fn apply_delta(&mut self, delta: &Delta<'_>) {
        match delta {
            Delta::Write {
                collection: "runs",
                id,
                doc,
            } => self.compute(id, doc),
            Delta::Delete {
                collection: "runs",
                id,
            } => {
                self.findings.remove(*id);
            }
            Delta::Drop { collection: "runs" } => self.findings.clear(),
            _ => {}
        }
    }

    fn emit(&self, out: &mut Vec<Diagnostic>) {
        for diags in self.findings.values() {
            out.extend(diags.iter().cloned());
        }
    }

    fn state(&self) -> Value {
        Value::map(
            self.findings
                .iter()
                .map(|(id, diags)| (id.clone(), diags_value(diags))),
        )
    }

    fn restore(&mut self, state: &Value) -> Result<(), String> {
        *self = RunLogLint::default();
        for (id, diags) in expect_map(state, "run-log finding map")? {
            self.findings.insert(id.clone(), diags_from(diags)?);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// SA0008 / SA0009 — duplicate content hashes: one state machine, two
// registry rows. It maintains hash → id-set groups over the one
// collection its row feeds it; a group of two or more is a finding.

struct DupLint {
    /// The code the group finding fires as.
    code: LintCode,
    /// Renders the finding message for a duplicate group.
    message: fn(&str, &BTreeSet<String>) -> String,
    /// Whether only documents with a uuid `_id` count (artifacts:
    /// malformed ids stop at their SA0003 finding).
    uuid_ids_only: bool,
    /// id → its hash (the committed state).
    hashes: BTreeMap<String, String>,
    /// Derived: hash → ids carrying it.
    groups: HashMap<String, BTreeSet<String>>,
    /// Derived: hash → current finding.
    findings: BTreeMap<String, Diagnostic>,
}

impl DupLint {
    fn new(
        code: LintCode,
        message: fn(&str, &BTreeSet<String>) -> String,
        uuid_ids_only: bool,
    ) -> DupLint {
        DupLint {
            code,
            message,
            uuid_ids_only,
            hashes: BTreeMap::new(),
            groups: HashMap::new(),
            findings: BTreeMap::new(),
        }
    }

    /// SA0008 over `artifacts`.
    fn artifacts() -> DupLint {
        DupLint::new(LintCode::DuplicateArtifact, artifact_dup_message, true)
    }

    /// SA0009 over `runs`.
    fn runs() -> DupLint {
        DupLint::new(LintCode::DuplicateRunHash, run_dup_message, false)
    }

    fn clear(&mut self) {
        self.hashes.clear();
        self.groups.clear();
        self.findings.clear();
    }

    fn set(&mut self, id: &str, hash: Option<String>) {
        if let Some(old) = self.hashes.remove(id) {
            if let Some(group) = self.groups.get_mut(&old) {
                group.remove(id);
                if group.is_empty() {
                    self.groups.remove(&old);
                }
            }
            self.recompute(&old);
        }
        if let Some(hash) = hash {
            self.groups
                .entry(hash.clone())
                .or_default()
                .insert(id.to_owned());
            self.hashes.insert(id.to_owned(), hash.clone());
            self.recompute(&hash);
        }
    }

    fn recompute(&mut self, hash: &str) {
        match self.groups.get(hash) {
            Some(ids) if ids.len() > 1 => {
                let diag =
                    Diagnostic::new(self.code, format!("hash:{hash}"), (self.message)(hash, ids));
                self.findings.insert(hash.to_owned(), diag);
            }
            _ => {
                self.findings.remove(hash);
            }
        }
    }
}

fn artifact_dup_message(hash: &str, ids: &BTreeSet<String>) -> String {
    let ids: Vec<String> = ids.iter().cloned().collect();
    format!(
        "artifacts [{}] share content hash {hash} but were not deduplicated",
        ids.join(", ")
    )
}

fn run_dup_message(hash: &str, ids: &BTreeSet<String>) -> String {
    let ids: Vec<String> = ids.iter().cloned().collect();
    format!(
        "runs [{}] share run hash {hash}; duplicate experiments should be refused",
        ids.join(", ")
    )
}

impl Lint for DupLint {
    /// The engine feeds each instance one collection only (its registry
    /// row), so the collection name is not matched here.
    fn apply_delta(&mut self, delta: &Delta<'_>) {
        match delta {
            Delta::Write { id, doc, .. } => {
                let hash = if self.uuid_ids_only && id.parse::<Uuid>().is_err() {
                    None
                } else {
                    doc.at("hash").and_then(Value::as_str).map(str::to_owned)
                };
                self.set(id, hash);
            }
            Delta::Delete { id, .. } => self.set(id, None),
            Delta::Drop { .. } => self.clear(),
            Delta::BlobPut(_) | Delta::BlobRemove(_) => {}
        }
    }

    fn emit(&self, out: &mut Vec<Diagnostic>) {
        out.extend(self.findings.values().cloned());
    }

    fn state(&self) -> Value {
        Value::map(
            self.hashes
                .iter()
                .map(|(id, h)| (id.clone(), Value::from(h.clone()))),
        )
    }

    fn restore(&mut self, state: &Value) -> Result<(), String> {
        self.clear();
        for (id, hash) in expect_map(state, "hash map")? {
            let hash = hash
                .as_str()
                .ok_or("persisted hash is not a string")?
                .to_owned();
            self.set(id, Some(hash));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// SA0010 — unknown resource references. The logic runs over experiment
// cross-product axes in the prelaunch gate (`crate::prelaunch`), not
// over stored documents, so the registry entry is a stateless
// placeholder that keeps the registry an exhaustive index of lints.

struct ResourceLint;

impl Lint for ResourceLint {
    fn apply_delta(&mut self, _delta: &Delta<'_>) {}

    fn emit(&self, _out: &mut Vec<Diagnostic>) {}

    fn state(&self) -> Value {
        Value::Null
    }

    fn restore(&mut self, _state: &Value) -> Result<(), String> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// SA0014 — unreleased dead letters must point at quarantined runs.

#[derive(Default)]
struct QuarantineLint {
    /// Dead-letter id → released flag.
    letters: BTreeMap<String, bool>,
    /// Run id → its `status` field (`<missing>` when absent).
    run_status: HashMap<String, String>,
    /// Derived: letter id → current finding.
    findings: BTreeMap<String, Diagnostic>,
}

impl QuarantineLint {
    fn recompute(&mut self, id: &str) {
        let subject = format!("run:{id}");
        let diag = match self.letters.get(id) {
            Some(false) => match self.run_status.get(id) {
                None => Some(Diagnostic::new(
                    LintCode::QuarantinedRunReferenced,
                    subject,
                    "unreleased dead letter references a run missing from the run collection"
                        .to_owned(),
                )),
                Some(status) if status != "quarantined" => Some(Diagnostic::new(
                    LintCode::QuarantinedRunReferenced,
                    subject,
                    format!(
                        "run has an unreleased dead letter but status '{status}' \
                         (re-queued without `simart quarantine --release`?)"
                    ),
                )),
                Some(_) => None,
            },
            _ => None,
        };
        match diag {
            Some(diag) => {
                self.findings.insert(id.to_owned(), diag);
            }
            None => {
                self.findings.remove(id);
            }
        }
    }

    fn status_of(doc: &Value) -> String {
        doc.at("status")
            .and_then(Value::as_str)
            .unwrap_or("<missing>")
            .to_owned()
    }
}

impl Lint for QuarantineLint {
    fn apply_delta(&mut self, delta: &Delta<'_>) {
        match delta {
            Delta::Write {
                collection: "quarantine",
                id,
                doc,
            } => {
                let released = doc.at("released").and_then(Value::as_bool).unwrap_or(false);
                self.letters.insert((*id).to_owned(), released);
                self.recompute(id);
            }
            Delta::Delete {
                collection: "quarantine",
                id,
            } => {
                self.letters.remove(*id);
                self.findings.remove(*id);
            }
            Delta::Drop {
                collection: "quarantine",
            } => {
                self.letters.clear();
                self.findings.clear();
            }
            Delta::Write {
                collection: "runs",
                id,
                doc,
            } => {
                self.run_status
                    .insert((*id).to_owned(), QuarantineLint::status_of(doc));
                if self.letters.contains_key(*id) {
                    self.recompute(id);
                }
            }
            Delta::Delete {
                collection: "runs",
                id,
            } => {
                self.run_status.remove(*id);
                if self.letters.contains_key(*id) {
                    self.recompute(id);
                }
            }
            Delta::Drop { collection: "runs" } => {
                self.run_status.clear();
                let letters: Vec<String> = self.letters.keys().cloned().collect();
                for id in letters {
                    self.recompute(&id);
                }
            }
            _ => {}
        }
    }

    fn emit(&self, out: &mut Vec<Diagnostic>) {
        out.extend(self.findings.values().cloned());
    }

    fn state(&self) -> Value {
        Value::map([
            (
                "letters".to_owned(),
                Value::map(
                    self.letters
                        .iter()
                        .map(|(id, r)| (id.clone(), Value::from(*r))),
                ),
            ),
            (
                "run_status".to_owned(),
                Value::map({
                    let mut entries: Vec<(String, Value)> = self
                        .run_status
                        .iter()
                        .map(|(id, s)| (id.clone(), Value::from(s.clone())))
                        .collect();
                    entries.sort_by(|a, b| a.0.cmp(&b.0));
                    entries
                }),
            ),
        ])
    }

    fn restore(&mut self, state: &Value) -> Result<(), String> {
        *self = QuarantineLint::default();
        for (id, released) in expect_map(
            state.at("letters").unwrap_or(&Value::Null),
            "dead-letter map",
        )? {
            let released = released
                .as_bool()
                .ok_or("persisted released flag is not a boolean")?;
            self.letters.insert(id.clone(), released);
        }
        for (id, status) in expect_map(
            state.at("run_status").unwrap_or(&Value::Null),
            "run status map",
        )? {
            let status = status
                .as_str()
                .ok_or("persisted run status is not a string")?;
            self.run_status.insert(id.clone(), status.to_owned());
        }
        let letters: Vec<String> = self.letters.keys().cloned().collect();
        for id in letters {
            self.recompute(&id);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// SA0012 / SA0013 — journal layout findings. Derived from what the
// load reported, so like SA0005 this is environment-scoped and
// recomputed on every directory check.

#[derive(Default)]
struct JournalLint {
    findings: Vec<Diagnostic>,
}

impl Lint for JournalLint {
    fn apply_delta(&mut self, _delta: &Delta<'_>) {}

    fn scan_environment(&mut self, dir: &Path, report: &LoadReport) {
        // Analysis-state records are expected residents of the journal
        // between checkpoints (`record_state` appends one after every
        // full scan); counting them would make the checker dirty its
        // own next report. Discount them from the SA0012 record count.
        let state_records = if report.journal_records > 0 {
            simart_db::read_journal(dir)
                .map(|replay| {
                    replay
                        .ops
                        .iter()
                        .filter(|op| op_collection(op) == Some(crate::engine::STATE_COLLECTION))
                        .count()
                })
                .unwrap_or(0)
        } else {
            0
        };
        self.findings = journal_report_diagnostics(report, state_records);
    }

    fn emit(&self, out: &mut Vec<Diagnostic>) {
        out.extend(self.findings.iter().cloned());
    }

    fn state(&self) -> Value {
        Value::Null
    }

    fn restore(&mut self, _state: &Value) -> Result<(), String> {
        self.findings.clear();
        Ok(())
    }
}

// ---------------------------------------------------------------------
// SA0017 — declared secondary indexes diverging from their documents.

/// Cross-checks declared secondary indexes against the documents they
/// cover. Two passes share the code:
///
/// * the *live* pass (`scan_database`) runs
///   [`verify_indexes`](simart_db::Collection::verify_indexes) over
///   every collection — this catches a write path whose incremental
///   index maintenance drifted from the documents at runtime;
/// * the *environment* pass (`scan_environment`) compares the persisted
///   `indexes.json` manifest against a rebuild from the loaded
///   documents, digest by digest ([`simart_db::index_manifest`]
///   normalises the recorded one, also when it recorded full entries;
///   [`Collection::index_manifest`](simart_db::Collection::index_manifest)
///   digests the rebuilt indexes in place) — this
///   catches hand-edited checkpoints, since the load itself rebuilds
///   in-memory indexes from documents (making them consistent by
///   construction) and only the manifest still testifies to what was
///   recorded at save time.
///
/// The environment comparison only runs over a *quiet* directory — no
/// unreplayed journal records, torn tail, or divergence — because a
/// mid-flight journal legitimately carries writes the manifest predates
/// (SA0012/SA0013 already report that state). Incremental resumes
/// always leave journal records behind (the analysis-state document
/// itself is journaled), so the gate also keeps the pass off resumed
/// state, where `scan_database` never stashed a database handle.
#[derive(Default)]
struct IndexLint {
    /// Handle stashed by `scan_database` for the environment pass.
    db: Option<Database>,
    /// Live-pass findings (in-memory index vs documents).
    live: Vec<Diagnostic>,
    /// Environment-pass findings (manifest vs rebuild).
    environment: Vec<Diagnostic>,
}

impl Lint for IndexLint {
    fn apply_delta(&mut self, _delta: &Delta<'_>) {}

    fn scan_database(&mut self, db: &Database) {
        self.db = Some(db.clone());
        for name in db.collection_names() {
            for divergence in db.collection(&name).verify_indexes() {
                self.live.push(Diagnostic::new(
                    LintCode::IndexDivergence,
                    format!("collection:{name}"),
                    format!("index on `{}`: {}", divergence.path, divergence.detail),
                ));
            }
        }
    }

    fn scan_environment(&mut self, dir: &Path, report: &LoadReport) {
        self.environment.clear();
        let Some(db) = self.db.clone() else {
            return; // resumed state: see the quiet-directory argument above
        };
        if report.journal_records != 0
            || report.journal_torn_bytes != 0
            || !report.divergent.is_empty()
        {
            return;
        }
        let path = dir.join(simart_db::INDEX_MANIFEST_FILE);
        let Ok(text) = std::fs::read_to_string(&path) else {
            return; // no manifest recorded: nothing to compare
        };
        let Ok(manifest) = json::from_json(text.trim()) else {
            self.environment.push(Diagnostic::new(
                LintCode::IndexDivergence,
                format!("manifest:{}", simart_db::INDEX_MANIFEST_FILE),
                "persisted index manifest is not valid JSON".to_owned(),
            ));
            return;
        };
        let empty = BTreeMap::new();
        let recorded = manifest
            .at("collections")
            .and_then(Value::as_map)
            .unwrap_or(&empty);
        for (name, state) in recorded {
            if simart_db::index_manifest(state) != db.collection(name).index_manifest() {
                self.environment.push(Diagnostic::new(
                    LintCode::IndexDivergence,
                    format!("collection:{name}"),
                    "persisted index manifest disagrees with an index rebuild from the \
                     checkpoint documents; the checkpoint was modified after its save"
                        .to_owned(),
                ));
            }
        }
    }

    fn emit(&self, out: &mut Vec<Diagnostic>) {
        out.extend(self.live.iter().cloned());
        out.extend(self.environment.iter().cloned());
    }

    fn state(&self) -> Value {
        // Both passes re-derive everything from the database and the
        // directory; nothing survives to the next session.
        Value::Null
    }

    fn restore(&mut self, _state: &Value) -> Result<(), String> {
        *self = IndexLint::default();
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Shared scan primitives (used by the units above; `pub(crate)` so
// `lint.rs` unit tests can exercise them directly).

/// The string entries of a run document's `events` array, in order.
fn events(doc: &Value) -> impl Iterator<Item = &str> {
    doc.at("events")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_str)
}

/// Replays a run's provenance event log against the lifecycle rules:
/// every `status:` event must be a legal transition from the replayed
/// state (SA0006), `retrying` needs a prior failed attempt (SA0007),
/// and the document's `status` field must match the replay (SA0011).
pub(crate) fn replay_events(doc: &Value, subject: &str, diagnostics: &mut Vec<Diagnostic>) {
    let mut current = RunStatus::Created;
    let mut saw_failed_attempt = false;
    for event in events(doc) {
        if let Some(status) = event.strip_prefix("status:") {
            let Ok(next) = status.parse::<RunStatus>() else {
                diagnostics.push(Diagnostic::new(
                    LintCode::LifecycleViolation,
                    subject.to_owned(),
                    format!("event log names unknown status '{status}'"),
                ));
                continue;
            };
            if !current.can_transition_to(next) {
                diagnostics.push(Diagnostic::new(
                    LintCode::LifecycleViolation,
                    subject.to_owned(),
                    format!("event log records illegal transition {current} -> {next}"),
                ));
            }
            if next == RunStatus::Retrying && !saw_failed_attempt {
                diagnostics.push(Diagnostic::new(
                    LintCode::RetryWithoutFailure,
                    subject.to_owned(),
                    "run entered retrying with no prior failed attempt on record".to_owned(),
                ));
            }
            current = next;
        } else if let Some(attempt) = event.strip_prefix("attempt:") {
            if !attempt.ends_with(":succeeded") {
                saw_failed_attempt = true;
            }
        }
    }
    if let Some(status) = doc.at("status").and_then(Value::as_str) {
        if status.parse::<RunStatus>().ok() != Some(current) {
            diagnostics.push(Diagnostic::new(
                LintCode::StatusEventMismatch,
                subject.to_owned(),
                format!("document status '{status}' disagrees with event-log replay '{current}'"),
            ));
        }
    }
}

/// What a run's remote delivery trail shows, read in one pass for the
/// two lints that audit it.
pub(crate) struct RemoteTrail {
    /// SA0015, when the last dispatch was left open.
    pub(crate) orphan: Option<Diagnostic>,
    /// SA0018 findings, in event order.
    pub(crate) divergence: Vec<Diagnostic>,
}

/// Walks a run's `remote-dispatch:<delivery>:g<generation>` /
/// `remote-ack:<delivery>:g<generation>` trail once, for two audits
/// (`remote-reconnect` events change neither):
///
/// * orphaned remote attempts (SA0015): a dispatch that is never
///   followed by a `remote-ack`, another dispatch (a redelivery
///   supersedes the orphan), a quarantine, or a re-queue. Such a run
///   was dispatched to a worker whose answer the coordinator never
///   journaled — the signature of a coordinator crash mid-campaign — so
///   its recorded status may not reflect its last delivery.
/// * session-resume divergence (SA0018): every ack must pair with a
///   prior dispatch of the *same* delivery under the *same* generation,
///   and no delivery may be acked under two different generations. A
///   resumed session acking a delivery the coordinator never
///   dispatched, or the same delivery acked by two worker generations,
///   is the split-brain signature: two incarnations of one session both
///   believed they owned the work, so the run's recorded output cannot
///   be attributed to a single delivery.
pub(crate) fn lint_remote_trail(doc: &Value, subject: &str) -> RemoteTrail {
    let mut open: Option<&str> = None;
    let mut dispatched: Vec<(&str, &str)> = Vec::new();
    let mut acked: Vec<(&str, &str)> = Vec::new();
    let mut divergence = Vec::new();
    for event in events(doc) {
        if let Some(dispatch) = event.strip_prefix("remote-dispatch:") {
            open = Some(dispatch);
            dispatched.extend(dispatch.split_once(":g"));
        } else if let Some(ack) = event.strip_prefix("remote-ack:") {
            open = None;
            let Some((delivery, generation)) = ack.split_once(":g") else {
                continue;
            };
            if !dispatched.contains(&(delivery, generation)) {
                divergence.push(Diagnostic::new(
                    LintCode::SessionResumeDivergence,
                    subject.to_owned(),
                    format!(
                        "remote-ack for delivery {delivery} under worker \
                         generation {generation} has no matching \
                         remote-dispatch — a resumed session acked work the \
                         coordinator never handed it (split-brain?)"
                    ),
                ));
            }
            if let Some(&(_, earlier)) = acked
                .iter()
                .find(|(d, g)| *d == delivery && *g != generation)
            {
                divergence.push(Diagnostic::new(
                    LintCode::SessionResumeDivergence,
                    subject.to_owned(),
                    format!(
                        "delivery {delivery} was acked under two worker \
                         generations ({earlier} and {generation}) — two \
                         incarnations of the session both completed the same \
                         delivery (split-brain)"
                    ),
                ));
            }
            acked.push((delivery, generation));
        } else if event == "status:queued" || event == "status:quarantined" {
            open = None;
        }
    }
    let orphan = open.map(|dispatch| {
        let (delivery, generation) = dispatch.split_once(":g").unwrap_or((dispatch, "?"));
        Diagnostic::new(
            LintCode::OrphanedRemoteAttempt,
            subject.to_owned(),
            format!(
                "last remote dispatch (delivery {delivery} to worker generation \
                 {generation}) was never acked, re-delivered, or quarantined — \
                 orphaned by a coordinator crash?"
            ),
        )
    });
    RemoteTrail { orphan, divergence }
}

/// Scans a run's event log for stale checkpoints (SA0016): every
/// `checkpoint-restore:<key>` / `checkpoint-save:<key>` must use the
/// key the run's own `checkpoint-key:<key>` event declares. The
/// executor journals `checkpoint-key` with the key its configuration
/// hashes to *before* touching the store, so a restore or save under a
/// different key means the boot prefix the run used was built from a
/// different input than the one on record — its results cannot be
/// attributed to the recorded configuration.
pub(crate) fn lint_checkpoint_events(
    doc: &Value,
    subject: &str,
    diagnostics: &mut Vec<Diagnostic>,
) {
    let mut declared: Option<&str> = None;
    for event in events(doc) {
        if let Some(key) = event.strip_prefix("checkpoint-key:") {
            declared = Some(key);
            continue;
        }
        let Some((verb, used)) = ["restore", "save"].iter().find_map(|verb| {
            event
                .strip_prefix(&format!("checkpoint-{verb}:"))
                .map(|key| (*verb, key))
        }) else {
            continue;
        };
        match declared {
            None => diagnostics.push(Diagnostic::new(
                LintCode::StaleCheckpoint,
                subject.to_owned(),
                format!(
                    "event log records checkpoint-{verb}:{used} with no prior \
                     checkpoint-key event — the boot prefix cannot be tied to \
                     the run's configuration"
                ),
            )),
            Some(want) if want != used => diagnostics.push(Diagnostic::new(
                LintCode::StaleCheckpoint,
                subject.to_owned(),
                format!(
                    "checkpoint-{verb} used key {used} but the run's \
                     configuration hashes to checkpoint key {want} — stale \
                     checkpoint (input changed since it was saved?)"
                ),
            )),
            Some(_) => {}
        }
    }
}

/// Scans `<dir>/blobs/` for content-hash mismatches (SA0005): every
/// non-`.tmp` file must hash to its own file name, because the store is
/// content-addressed. `Database::load` silently drops offenders; the
/// lint makes that loud.
pub(crate) fn scan_blob_files(dir: &Path) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let blob_dir = dir.join("blobs");
    let Ok(entries) = std::fs::read_dir(&blob_dir) else {
        return diagnostics;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.is_file() || path.extension().is_some_and(|e| e == "tmp") {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        let subject = format!("blob:{name}");
        if BlobKey::from_hex(&name).is_none() {
            diagnostics.push(Diagnostic::new(
                LintCode::HashMismatch,
                subject,
                "file name in blobs/ is not a blob key".to_owned(),
            ));
            continue;
        }
        let Ok(content) = std::fs::read(&path) else {
            diagnostics.push(Diagnostic::new(
                LintCode::HashMismatch,
                subject,
                "blob file is unreadable".to_owned(),
            ));
            continue;
        };
        let actual = BlobKey::for_content(&content).to_hex();
        if actual != name {
            diagnostics.push(Diagnostic::new(
                LintCode::HashMismatch,
                subject,
                format!("blob content hashes to {actual}, not to its file name"),
            ));
        }
    }
    diagnostics
}

/// The collection a raw journal record touches, if any (blob records
/// touch none).
fn op_collection(op: &simart_db::JournalOp) -> Option<&str> {
    match op {
        simart_db::JournalOp::Insert { collection, .. }
        | simart_db::JournalOp::Upsert { collection, .. }
        | simart_db::JournalOp::Delete { collection, .. }
        | simart_db::JournalOp::DropCollection { collection }
        | simart_db::JournalOp::EnsureIndex { collection, .. } => Some(collection),
        simart_db::JournalOp::BlobPut { .. } | simart_db::JournalOp::BlobRemove { .. } => None,
    }
}

/// Derives journal-layout findings from what the load observed:
/// SA0012 for records (or a torn tail) not yet folded into checkpoint
/// files — discounting `state_records` analysis-state residents —
/// SA0013 for checkpoint/journal disagreement about one `_id`.
pub(crate) fn journal_report_diagnostics(
    report: &LoadReport,
    state_records: usize,
) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let records = report.journal_records.saturating_sub(state_records);
    if records > 0 {
        diagnostics.push(Diagnostic::new(
            LintCode::UnreplayedJournal,
            "journal:log",
            format!(
                "journal holds {records} record(s) not folded into the checkpoint files; \
                 the owning campaign did not finish (or never ran) its checkpoint"
            ),
        ));
    }
    if report.journal_torn_bytes > 0 {
        diagnostics.push(Diagnostic::new(
            LintCode::UnreplayedJournal,
            "journal:tail",
            format!(
                "journal ends in a torn tail of {} byte(s) (interrupted append); \
                 records before the tear replay cleanly",
                report.journal_torn_bytes
            ),
        ));
    }
    for subject in &report.divergent {
        // `collection/#index:path` markers are index-rebuild failures,
        // not document collisions — they fire as SA0017.
        if let Some((collection, path)) = subject.split_once("/#index:") {
            diagnostics.push(Diagnostic::new(
                LintCode::IndexDivergence,
                format!("collection:{collection}"),
                format!(
                    "declared index on `{path}` could not be rebuilt from the loaded \
                     documents (they no longer satisfy its constraints)"
                ),
            ));
            continue;
        }
        diagnostics.push(Diagnostic::new(
            LintCode::JournalDivergence,
            format!("journal:{subject}"),
            "journal insert collides with a checkpoint document of different content; \
             the journal version wins on replay"
                .to_owned(),
        ));
    }
    diagnostics
}

/// The SA0015 half of [`lint_remote_trail`], for the unit tests.
#[cfg(test)]
pub(crate) fn lint_remote_attempts(doc: &Value, subject: &str, diagnostics: &mut Vec<Diagnostic>) {
    diagnostics.extend(lint_remote_trail(doc, subject).orphan);
}

/// The SA0018 half of [`lint_remote_trail`], for the unit tests.
#[cfg(test)]
pub(crate) fn lint_session_resume(doc: &Value, subject: &str, diagnostics: &mut Vec<Diagnostic>) {
    diagnostics.extend(lint_remote_trail(doc, subject).divergence);
}
