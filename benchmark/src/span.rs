//! In-memory spans around the harness's own calls into the program,
//! written out as Chrome-trace JSON when a traced run ends.
//!
//! Spans stop at the program's public-function boundaries: what happens
//! inside `launch` is visible only through the executor spans the
//! harness's own closures record.

use crate::adapter::{SpanSink, WorkerSpan};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

/// Index of a span in its tracer; `NO_PARENT` for roots.
pub type SpanId = usize;
pub const NO_PARENT: SpanId = usize::MAX;
const EXECUTOR_LANE: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Run hash for per-run spans.
    pub run: Option<String>,
    /// Lane in the trace viewer: 0 for the coordinator's own calls, a
    /// PID for worker processes, `EXECUTOR_LANE` for in-process
    /// executor spans (packed into free lanes when written out, since
    /// the program runs every attempt on a thread of its own).
    pub lane: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    epoch: Instant,
    epoch_unix_ns: u128,
    spans: Mutex<Vec<Span>>,
    /// Parent handed to spans arriving through the executor sink.
    executor_parent: AtomicUsize,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            epoch_unix_ns: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0),
            spans: Mutex::new(Vec::new()),
            executor_parent: AtomicUsize::new(NO_PARENT),
        })
    }

    /// Nanoseconds from this tracer's epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a coordinator span; `end` closes it.
    pub fn begin(&self, name: &str, parent: SpanId) -> SpanId {
        let now = self.ns(Instant::now());
        self.push(Span {
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            parent,
            run: None,
            lane: 0,
        })
    }

    pub fn end(&self, id: SpanId) {
        let now = self.ns(Instant::now());
        self.spans.lock().expect("span list poisoned")[id].end_ns = now;
    }

    /// Runs `work` inside a coordinator span.
    pub fn scope<T>(&self, name: &str, parent: SpanId, work: impl FnOnce(SpanId) -> T) -> T {
        let id = self.begin(name, parent);
        let value = work(id);
        self.end(id);
        value
    }

    /// Spans the executors report from now on hang under `parent`.
    pub fn set_executor_parent(&self, parent: SpanId) {
        self.executor_parent.store(parent, Ordering::SeqCst);
    }

    /// The callback executors report their spans through.
    pub fn sink(self: &Arc<Tracer>) -> SpanSink {
        let tracer = Arc::clone(self);
        Arc::new(move |run, name, start, end| {
            tracer.push(Span {
                name: name.to_owned(),
                start_ns: tracer.ns(start),
                end_ns: tracer.ns(end),
                parent: tracer.executor_parent.load(Ordering::SeqCst),
                run: Some(run.to_owned()),
                lane: EXECUTOR_LANE,
            });
        })
    }

    /// Places worker-process handler spans on this tracer's timeline as
    /// `execute` spans, under the same parent as in-process executors.
    pub fn merge_worker_spans(&self, spans: &[WorkerSpan]) {
        let parent = self.executor_parent.load(Ordering::SeqCst);
        let rebase = |unix_ns: u128| unix_ns.saturating_sub(self.epoch_unix_ns) as u64;
        for span in spans {
            self.push(Span {
                name: "execute".to_owned(),
                start_ns: rebase(span.start_unix_ns),
                end_ns: rebase(span.end_unix_ns),
                parent,
                run: Some(span.run.clone()),
                lane: u64::from(span.pid),
            });
        }
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.snapshot()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Writes every span as a Chrome-trace "complete" event. `fullsim.*`
    /// spans are re-parented under their run's `execute` span and share
    /// its lane.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.snapshot();
        let execute_of: HashMap<String, SpanId> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "execute")
            .filter_map(|(id, s)| s.run.clone().map(|run| (run, id)))
            .collect();
        // Greedy interval partitioning of in-process `execute` spans.
        let mut order: Vec<SpanId> = execute_of
            .values()
            .copied()
            .filter(|&id| spans[id].lane == EXECUTOR_LANE)
            .collect();
        order.sort_by_key(|&id| spans[id].start_ns);
        let mut lane_free_at: Vec<u64> = Vec::new();
        for id in order {
            let lane = match lane_free_at
                .iter()
                .position(|&free| free <= spans[id].start_ns)
            {
                Some(lane) => lane,
                None => {
                    lane_free_at.push(0);
                    lane_free_at.len() - 1
                }
            };
            lane_free_at[lane] = spans[id].end_ns;
            spans[id].lane = lane as u64 + 1;
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, span) in spans.iter().enumerate() {
            let execute = span
                .run
                .as_ref()
                .filter(|_| span.name.starts_with("fullsim."))
                .and_then(|run| execute_of.get(run).copied());
            let (parent, lane) = match execute {
                Some(execute) => (execute, spans[execute].lane),
                None => (span.parent, span.lane),
            };
            if id > 0 {
                out.push_str(",\n");
            }
            let _ =
                write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"run\":\"{}\"}}}}",
                span.name,
                lane,
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
                id,
                if parent == NO_PARENT { -1 } else { parent as i64 },
                span.run.as_deref().unwrap_or(""),
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_totals_add_up() {
        let tracer = Tracer::new();
        let root = tracer.begin("campaign", NO_PARENT);
        tracer.scope("launch", root, |launch| {
            tracer.set_executor_parent(launch);
            let sink = tracer.sink();
            let start = Instant::now();
            sink(
                "abc",
                "execute",
                start,
                start + std::time::Duration::from_millis(2),
            );
        });
        tracer.end(root);
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[2].run.as_deref(), Some("abc"));
        assert!((tracer.total("execute") - 0.002).abs() < 1e-9);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
