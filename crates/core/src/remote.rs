//! Campaign execution over the remote (multi-process) scheduler.
//!
//! The [`simart_tasks::RemoteScheduler`] ships work to crash-isolated
//! worker *processes* over a framed pipe protocol, so the executor
//! closure used by in-process schedulers cannot cross the boundary.
//! Instead, both sides agree on a task *kind* plus a JSON payload:
//!
//! * the coordinator encodes a run's params with [`encode_run_payload`]
//!   and submits a task of the kind its run script names
//!   ([`task_kind`]);
//! * the worker process (the hidden `simart worker` subcommand)
//!   resolves the kind through [`campaign_registry`], which holds one
//!   handler per [`RunKind`], simulates the decoded spec, and returns
//!   the outcome encoded by [`encode_outcome`];
//! * the coordinator decodes it with [`decode_outcome`] and archives
//!   results exactly as a local launch would.
//!
//! Everything here is deliberately stringly-typed JSON: the payload
//! travels through [`simart_tasks::wire`] frames, and version skew
//! between coordinator and worker binaries must fail loudly (a decode
//! error) rather than silently misinterpret fields.

use crate::experiment::ExecOutcome;
use crate::kinds::RunKind;
use simart_codec::json::{from_json, to_json};
use simart_db::Value;
use simart_tasks::{HandlerRegistry, WorkerJob};

/// Task kind dispatched to campaign workers for a
/// [`RunKind::CampaignBoot`] run, and for a run whose script names no
/// kind: boot the configuration its `[cpu, cores]` params describe.
pub const CAMPAIGN_KIND: &str = "campaign-boot";

/// The task kind a run of `kind` travels as: [`CAMPAIGN_KIND`] for a
/// campaign boot, the run-script path for every other kind.
pub fn task_kind(kind: RunKind) -> &'static str {
    match kind {
        RunKind::CampaignBoot => CAMPAIGN_KIND,
        other => other.script(),
    }
}

/// Encodes a run's sweep parameters as the wire payload for a
/// [`CAMPAIGN_KIND`] task.
pub fn encode_run_payload(params: &[String]) -> String {
    to_json(&Value::map([(
        "params",
        Value::array(params.iter().map(|p| Value::from(p.clone()))),
    )]))
}

/// Decodes the parameter list from a [`CAMPAIGN_KIND`] payload.
///
/// # Errors
///
/// Returns a description of the malformation (worker and coordinator
/// binaries disagreeing about the payload schema must fail loudly).
pub fn decode_run_payload(payload: &str) -> Result<Vec<String>, String> {
    let doc = from_json(payload).map_err(|e| format!("bad campaign payload: {e}"))?;
    let params = doc
        .at("params")
        .and_then(Value::as_array)
        .ok_or_else(|| "campaign payload has no `params` array".to_owned())?;
    params
        .iter()
        .map(|p| {
            p.as_str()
                .map(str::to_owned)
                .ok_or_else(|| "campaign payload has a non-string parameter".to_owned())
        })
        .collect()
}

/// Encodes an [`ExecOutcome`] as a worker's result string.
///
/// The stats payload is carried as text — campaign payloads are small
/// human-readable stat dumps, and the wire protocol is UTF-8 JSON.
pub fn encode_outcome(outcome: &ExecOutcome) -> String {
    to_json(&Value::map([
        ("outcome", Value::from(outcome.outcome.clone())),
        // Stringified so u64 tick counts round-trip losslessly through
        // the i64-typed JSON integer.
        ("simTicks", Value::from(outcome.sim_ticks.to_string())),
        (
            "payload",
            Value::from(String::from_utf8_lossy(&outcome.payload).into_owned()),
        ),
        ("success", Value::from(outcome.success)),
        (
            "events",
            Value::array(outcome.events.iter().map(|e| Value::from(e.clone()))),
        ),
    ]))
}

/// Decodes a worker's result string back into an [`ExecOutcome`].
///
/// # Errors
///
/// Returns a description of the malformation.
pub fn decode_outcome(text: &str) -> Result<ExecOutcome, String> {
    let doc = from_json(text).map_err(|e| format!("bad campaign outcome: {e}"))?;
    let field = |name: &str| -> Result<&str, String> {
        doc.at(name)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("campaign outcome is missing `{name}`"))
    };
    Ok(ExecOutcome {
        outcome: field("outcome")?.to_owned(),
        sim_ticks: field("simTicks")?
            .parse()
            .map_err(|e| format!("campaign outcome has a bad `simTicks`: {e}"))?,
        payload: field("payload")?.as_bytes().to_vec(),
        success: doc
            .at("success")
            .and_then(Value::as_bool)
            .ok_or_else(|| "campaign outcome is missing `success`".to_owned())?,
        // Absent in payloads from pre-checkpoint workers: an empty
        // trail, not a malformation.
        events: doc
            .at("events")
            .and_then(Value::as_array)
            .map(|events| {
                events
                    .iter()
                    .filter_map(|e| e.as_str().map(str::to_owned))
                    .collect()
            })
            .unwrap_or_default(),
    })
}

/// Environment variable naming the boot-checkpoint directory.
///
/// `simart campaign --checkpoint-dir DIR` exports it so the
/// "boot once, restore many" path works identically for the in-process
/// schedulers *and* the `simart worker` processes the remote scheduler
/// spawns (children inherit the coordinator's environment).
pub const CHECKPOINT_DIR_ENV: &str = "SIMART_CHECKPOINT_DIR";

/// Boots the configuration a campaign run's parameters describe
/// (`[cpu, cores]`, read by [`RunKind::CampaignBoot`]). Params past the
/// two it reads are ignored here; `create_fs_run` refuses them on
/// `boot.cfg` runs.
///
/// When [`CHECKPOINT_DIR_ENV`] is set, the boot prefix is restored
/// from (or saved to) the content-addressed checkpoint store there,
/// and the outcome carries the `checkpoint-*` provenance events for
/// the run's journal.
///
/// # Errors
///
/// Returns a description of bad parameters or a simulation failure.
pub fn execute_campaign_params(params: &[String]) -> Result<ExecOutcome, String> {
    RunKind::CampaignBoot.decode(params)?.execute()
}

/// The handler registry a campaign worker process runs under: one
/// handler per [`RunKind`], under its [`task_kind`], that decodes the
/// payload's params, simulates them, and returns the encoded outcome.
/// A simulation-level failure (e.g. a kernel panic) is reported as `Ok`
/// with `success: false` — the *coordinator* decides run disposition;
/// only transport/decode problems are worker errors.
pub fn campaign_registry() -> HandlerRegistry {
    let mut registry = HandlerRegistry::new();
    for kind in RunKind::ALL {
        registry.register(task_kind(kind), move |job: &WorkerJob| {
            let params = decode_run_payload(&job.payload)?;
            let outcome = kind.decode(&params)?.execute()?;
            Ok(encode_outcome(&outcome))
        });
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips() {
        let params = vec![
            "kvm".to_owned(),
            "2".to_owned(),
            "with \"quotes\"".to_owned(),
        ];
        let payload = encode_run_payload(&params);
        assert_eq!(decode_run_payload(&payload).unwrap(), params);
        assert!(decode_run_payload("{}").is_err());
        assert!(decode_run_payload("not json").is_err());
    }

    #[test]
    fn outcome_round_trips() {
        let outcome = ExecOutcome {
            outcome: "kernel-panic".to_owned(),
            sim_ticks: u64::MAX,
            payload: b"outcome=kernel-panic ticks=1".to_vec(),
            success: false,
            events: vec![
                "checkpoint-key:abc".to_owned(),
                "checkpoint-restore:abc".to_owned(),
            ],
        };
        let text = encode_outcome(&outcome);
        assert_eq!(decode_outcome(&text).unwrap(), outcome);
        assert!(decode_outcome("{}").is_err());
        // Payloads from pre-checkpoint workers have no `events` field;
        // they decode to an empty trail.
        let old = r#"{"outcome":"success","simTicks":"1","payload":"p","success":true}"#;
        assert_eq!(decode_outcome(old).unwrap().events, Vec::<String>::new());
    }

    #[test]
    fn campaign_handler_boots_a_configuration() {
        let registry = campaign_registry();
        let job = WorkerJob {
            job: 1,
            name: "t".to_owned(),
            kind: CAMPAIGN_KIND.to_owned(),
            payload: encode_run_payload(&["kvm".to_owned(), "1".to_owned()]),
            delivery: 1,
            generation: 1,
        };
        let outcome = decode_outcome(&registry.run(&job).unwrap()).unwrap();
        assert!(outcome.sim_ticks > 0);
        // Bad parameters are a handler error, not a panic.
        let bad = WorkerJob {
            payload: encode_run_payload(&["warp".to_owned()]),
            ..job
        };
        assert!(registry.run(&bad).is_err());
    }
}
