//! In-memory span recorder.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public functions, and kept in memory until the run ends.
//! [`Tracer::write_trace_events`] then writes them once as trace-event
//! JSON (`ph: "X"` complete events), which Perfetto and `chrome://tracing`
//! load directly. A disabled tracer records nothing and costs one branch.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `sim.run`.
    pub name: &'static str,
    /// What the call worked on, e.g. `TMM/LP(modular)`.
    pub tag: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End time; equal to `start_ns` while the span is open.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Small per-thread number for the trace file.
    pub tid: usize,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
struct Buf {
    t0: Instant,
    spans: Vec<Span>,
    open: HashMap<ThreadId, Vec<usize>>,
    tids: HashMap<ThreadId, usize>,
}

/// Handle to a shared span buffer; cheap to clone into `'static` closures.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<Buf>>>);

/// Closes its span when dropped.
#[must_use = "the span closes when the guard is dropped"]
pub struct SpanGuard {
    buf: Option<Arc<Mutex<Buf>>>,
    idx: usize,
}

fn lock(buf: &Mutex<Buf>) -> MutexGuard<'_, Buf> {
    buf.lock()
        .expect("span buffer poisoned by a panicking span")
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// A recording tracer whose clock starts now.
    pub fn on() -> Self {
        Tracer(Some(Arc::new(Mutex::new(Buf {
            t0: Instant::now(),
            spans: Vec::new(),
            open: HashMap::new(),
            tids: HashMap::new(),
        }))))
    }

    /// Open a span; `tag` is only evaluated when recording.
    pub fn span(&self, name: &'static str, tag: impl FnOnce() -> String) -> SpanGuard {
        let Some(buf) = &self.0 else {
            return SpanGuard { buf: None, idx: 0 };
        };
        let tag = tag();
        let thread = std::thread::current().id();
        let mut b = lock(buf);
        let now = b.t0.elapsed().as_nanos() as u64;
        let next_tid = b.tids.len();
        let tid = *b.tids.entry(thread).or_insert(next_tid);
        let idx = b.spans.len();
        let stack = b.open.entry(thread).or_default();
        let parent = stack.last().copied();
        stack.push(idx);
        b.spans.push(Span {
            name,
            tag,
            start_ns: now,
            end_ns: now,
            parent,
            tid,
        });
        SpanGuard {
            buf: Some(buf.clone()),
            idx,
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map(|buf| lock(buf).spans.clone())
            .unwrap_or_default()
    }

    /// Write every span as trace-event JSON, with `meta` as process
    /// metadata (string pairs shown under the process name).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn write_trace_events(
        &self,
        path: &std::path::Path,
        meta: &[(&str, String)],
    ) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\":[\n");
        let args: Vec<String> = meta
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", esc(k), esc(v)))
            .collect();
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"lp-perfbench\",{}}}}}",
            args.join(",")
        );
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"tag\":\"{}\"}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                esc(&s.tag),
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(buf) = self.buf.take() else { return };
        // A poisoned buffer means a span's body panicked; the panic is
        // already unwinding, so leave the span open rather than abort.
        let Ok(mut b) = buf.lock() else { return };
        let now = b.t0.elapsed().as_nanos() as u64;
        b.spans[self.idx].end_ns = now;
        let thread = std::thread::current().id();
        if let Some(stack) = b.open.get_mut(&thread) {
            if stack.last() == Some(&self.idx) {
                stack.pop();
            }
        }
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Sum of durations, in seconds, of spans named `name` whose tag passes
/// `keep`.
pub fn total_secs(spans: &[Span], name: &str, keep: impl Fn(&str) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && keep(&s.tag))
        .map(Span::secs)
        .sum()
}

/// Self time of the spans named `name`: their total duration minus the
/// part covered by their direct children.
pub fn self_secs(spans: &[Span], name: &str) -> f64 {
    let mut total = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if s.name != name {
            continue;
        }
        let children: f64 = spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(Span::secs)
            .sum();
        total += s.secs() - children;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let t = Tracer::on();
        {
            let _outer = t.span("outer", String::new);
            {
                let _inner = t.span("inner", || "x".into());
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].secs() >= spans[1].secs());
        let own = self_secs(&spans, "outer");
        assert!((0.0..spans[0].secs()).contains(&own));
        assert!(total_secs(&spans, "inner", |tag| tag == "x") > 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        drop(t.span("x", || unreachable!("tag built while disabled")));
        assert!(t.spans().is_empty());
    }
}
