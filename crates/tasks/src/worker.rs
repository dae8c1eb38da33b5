//! The worker side of the remote scheduler's protocol: what runs
//! inside a `simart worker` process.
//!
//! A worker says [`Message::Hello`], waits for its
//! [`Message::HelloAck`], then answers each [`Message::Dispatch`] with
//! one [`Message::TaskResult`] from its [`HandlerRegistry`] while a
//! background thread heartbeats the job it is running.
//! [`worker_main`] speaks it on stdin/stdout; [`worker_main_connect`]
//! over TCP, redialing and resuming its session when the connection
//! drops.

use crate::retry::RetryPolicy;
use crate::transport::WORKER_SESSION_ENV;
use crate::wire::{Message, WireReader, PROTOCOL_VERSION};
use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A dispatched job as seen by a worker-side handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerJob {
    /// Coordinator-unique job id.
    pub job: u64,
    /// Task name.
    pub name: String,
    /// Handler kind.
    pub kind: String,
    /// Opaque payload from the spec.
    pub payload: String,
    /// 1-based delivery number (`> 1` means this is a redelivery).
    pub delivery: u32,
    /// Generation this worker process was assigned at handshake.
    pub generation: u64,
}

type HandlerFn = Box<dyn Fn(&WorkerJob) -> Result<String, String> + Send + Sync>;

/// Maps handler kinds to worker-side handler functions.
#[derive(Default)]
pub struct HandlerRegistry {
    handlers: HashMap<String, HandlerFn>,
}

impl HandlerRegistry {
    /// An empty registry.
    pub fn new() -> HandlerRegistry {
        HandlerRegistry::default()
    }

    /// Registers the handler for `kind` (replacing any previous one).
    pub fn register(
        &mut self,
        kind: impl Into<String>,
        handler: impl Fn(&WorkerJob) -> Result<String, String> + Send + Sync + 'static,
    ) {
        self.handlers.insert(kind.into(), Box::new(handler));
    }

    /// Runs the matching handler, containing panics as errors. Public
    /// so embedders can exercise their registries without spawning a
    /// worker process; [`worker_main`] calls it per dispatch.
    pub fn run(&self, job: &WorkerJob) -> Result<String, String> {
        let handler = self
            .handlers
            .get(&job.kind)
            .ok_or_else(|| format!("worker has no handler for kind `{}`", job.kind))?;
        match catch_unwind(AssertUnwindSafe(|| handler(job))) {
            Ok(result) => result,
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_owned());
                Err(format!("handler panicked: {message}"))
            }
        }
    }
}

impl fmt::Debug for HandlerRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HandlerRegistry")
            .field("kinds", &self.handlers.keys().collect::<Vec<_>>())
            .finish()
    }
}

fn send_frame<W: Write>(out: &Mutex<W>, message: &Message) -> std::io::Result<()> {
    let mut out = out.lock().unwrap_or_else(|p| p.into_inner());
    out.write_all(&message.to_frame())?;
    out.flush()
}

/// How one connection's worth of the worker protocol ended.
enum SessionEnd {
    /// The coordinator drained us.
    Drained,
    /// The stream ended cleanly (coordinator gone, or connection cut).
    Eof,
    /// The stream carried garbage (or the wrong message mid-handshake).
    Corrupt,
    /// A frame could not be written.
    WriteFailed,
}

/// The worker side of the protocol over one connection, whatever
/// carries it: say [`Message::Hello`], wait for the
/// [`Message::HelloAck`] carrying our generation and heartbeat cadence
/// (then call `on_handshake`), re-send a result a previous connection
/// failed to deliver, and loop — heartbeats from a background thread,
/// one [`Message::TaskResult`] per [`Message::Dispatch`] (handler
/// panics are contained and reported as errors), a [`Message::Bye`] in
/// answer to [`Message::Drain`]. A result that cannot be written is
/// left in `unsent`. The flag returned with the end says whether the
/// handshake completed.
fn run_session<W: Write + Send + 'static>(
    registry: &HandlerRegistry,
    input: &mut impl Read,
    out: &Arc<Mutex<W>>,
    session: u64,
    unsent: &mut Option<Message>,
    on_handshake: impl FnOnce(),
) -> (SessionEnd, bool) {
    let pid = u64::from(std::process::id());
    let hello = Message::Hello {
        protocol: PROTOCOL_VERSION,
        pid,
        session,
    };
    if send_frame(out, &hello).is_err() {
        return (SessionEnd::WriteFailed, false);
    }
    let mut wire = WireReader::new();
    let (generation, heartbeat_ms) = match wire.next(input) {
        Ok(Some(Message::HelloAck {
            generation,
            heartbeat_ms,
            ..
        })) => (generation, heartbeat_ms),
        Ok(None) => return (SessionEnd::Eof, false),
        _ => return (SessionEnd::Corrupt, false),
    };
    on_handshake();
    if let Some(reply) = unsent.as_ref() {
        if send_frame(out, reply).is_err() {
            return (SessionEnd::WriteFailed, true);
        }
    }
    *unsent = None;
    let busy = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    {
        let out = Arc::clone(out);
        let busy = Arc::clone(&busy);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(heartbeat_ms.max(1)));
            let beat = Message::Heartbeat {
                pid,
                busy: busy.load(Ordering::SeqCst),
            };
            if stop.load(Ordering::SeqCst) || send_frame(&out, &beat).is_err() {
                return; // session over, or connection gone (main loop sees EOF)
            }
        });
    }
    let end = loop {
        match wire.next(input) {
            Ok(None) => break SessionEnd::Eof,
            Err(_) => break SessionEnd::Corrupt,
            Ok(Some(Message::Dispatch {
                job,
                delivery,
                name,
                kind,
                payload,
                ..
            })) => {
                busy.store(job, Ordering::SeqCst);
                let work = WorkerJob {
                    job,
                    name,
                    kind,
                    payload,
                    delivery: delivery as u32,
                    generation,
                };
                let (ok, output, error) = match registry.run(&work) {
                    Ok(output) => (true, output, String::new()),
                    Err(error) => (false, String::new(), error),
                };
                let reply = Message::TaskResult {
                    job,
                    delivery,
                    generation,
                    ok,
                    output,
                    error,
                };
                let sent = send_frame(out, &reply);
                // Only report idle once the result is on the wire: an
                // idle heartbeat overtaking the result would read as a
                // lost dispatch to the coordinator.
                busy.store(0, Ordering::SeqCst);
                if sent.is_err() {
                    *unsent = Some(reply);
                    break SessionEnd::WriteFailed;
                }
            }
            Ok(Some(Message::Drain)) => {
                let _ = send_frame(out, &Message::Bye { pid });
                break SessionEnd::Drained;
            }
            Ok(Some(_)) => {}
        }
    };
    stop.store(true, Ordering::SeqCst);
    (end, true)
}

/// Runs the worker side of the protocol on this process's
/// stdin/stdout until the coordinator drains it or goes away.
/// Returns the process exit code: `0` for a graceful end (drain or
/// coordinator EOF), non-zero for a corrupt stream or a write failure.
///
/// Nothing else in the process may write to stdout — the byte stream
/// *is* the protocol.
pub fn worker_main(registry: &HandlerRegistry) -> i32 {
    let stdout = Arc::new(Mutex::new(std::io::stdout()));
    // Pipes have no reconnect, hence no session and nothing to resume.
    let session = run_session(
        registry,
        &mut std::io::stdin(),
        &stdout,
        0,
        &mut None,
        || {},
    );
    match session.0 {
        SessionEnd::Drained | SessionEnd::Eof => 0,
        SessionEnd::WriteFailed => 1,
        SessionEnd::Corrupt => 2,
    }
}

/// How many consecutive failed dials (or failed handshakes) a TCP
/// worker tolerates before giving up and exiting.
const MAX_DIAL_FAILURES: u32 = 8;

/// Runs the worker side of the protocol over TCP: dials `addr`,
/// presents the session token from [`WORKER_SESSION_ENV`] in its
/// [`Message::Hello`], and — because over TCP the *connection* can die
/// while the process lives — redials with capped exponential backoff
/// on any connection loss, resuming the same session. EOF *and*
/// corrupt streams end the connection, not the process:
/// chaos-corrupted coordinator frames are healed by a reconnect. A
/// [`Message::TaskResult`] the dead connection failed to carry is
/// re-sent first on the new one; the coordinator's first-report-wins
/// dedup makes any duplicate harmless.
///
/// Returns the process exit code: `0` after a [`Message::Drain`],
/// non-zero once the consecutive-dial-failure budget is exhausted
/// (coordinator gone for good).
pub fn worker_main_connect(registry: &HandlerRegistry, addr: &str) -> i32 {
    let session = std::env::var(WORKER_SESSION_ENV)
        .ok()
        .and_then(|raw| raw.parse::<u64>().ok())
        .unwrap_or(0);
    let backoff = RetryPolicy::exponential(Duration::from_millis(20))
        .cap(Duration::from_millis(400))
        .max_attempts(MAX_DIAL_FAILURES + 1);
    let mut unsent: Option<Message> = None;
    let mut failures = 0u32;
    loop {
        if failures >= MAX_DIAL_FAILURES {
            eprintln!(
                "simart-tasks: worker gave up on coordinator {addr} after \
                 {MAX_DIAL_FAILURES} consecutive failed dials"
            );
            return 1;
        }
        // delay_before(1) is zero: the first dial (and the redial
        // right after a live session drops) is immediate.
        std::thread::sleep(backoff.delay_before(failures + 1));
        let connection = TcpStream::connect(addr).and_then(|stream| {
            let _ = stream.set_nodelay(true);
            Ok((stream.try_clone()?, stream.try_clone()?, stream))
        });
        let Ok((writer, mut input, stream)) = connection else {
            failures += 1;
            continue;
        };
        // Handshake under a read timeout: a HelloAck lost to a chaos
        // partition must not wedge the worker forever.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let (end, handshook) = run_session(
            registry,
            &mut input,
            &Arc::new(Mutex::new(writer)),
            session,
            &mut unsent,
            || {
                let _ = stream.set_read_timeout(None);
            },
        );
        let _ = stream.shutdown(std::net::Shutdown::Both);
        match (end, handshook) {
            (SessionEnd::Drained, _) => return 0,
            // A session that was live resets the failure budget and
            // redials immediately; a dial that never completed the
            // handshake burns budget.
            (_, true) => failures = 1,
            (_, false) => failures += 1,
        }
    }
}
