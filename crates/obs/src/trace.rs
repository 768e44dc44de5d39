//! Structured span tracing: the `bat/trace/v1` JSONL schema.
//!
//! A trace is one JSON document per line. The first line is the meta
//! record — the only place wall-clock time appears:
//!
//! ```json
//! {"v":"bat/trace/v1","meta":{"epoch_unix_ms":1754600000000}}
//! ```
//!
//! Every following line is one completed span:
//!
//! ```json
//! {"v":"bat/trace/v1","span":"trial","id":5,"parent":1,"t_us":120,"dur_us":84321,"tuner":"pso","seed":3}
//! ```
//!
//! `id` is process-unique and nonzero; `parent` is the enclosing span's id
//! or `0` for roots; `t_us`/`dur_us` are microseconds since the epoch
//! instant and span duration, both monotonic. Remaining keys are
//! span-specific attributes (strings, integers, floats). Spans are written
//! on drop, so a parent appears *after* its children — consumers sort by
//! `t_us` or rebuild the tree from `parent` links.
//!
//! Parent linking is a per-thread span stack: a [`Span`] created while
//! another is live on the same thread nests under it. Work that fans out
//! to pool workers crosses threads, so the fan-out site captures
//! [`current`] and passes it to [`span_at`] explicitly.
//!
//! The sink is process-global and installed at most once ([`install`]);
//! when no sink is installed — or tracing is [`disable`]d — span
//! construction is a single relaxed atomic load and spans are inert. Writes are buffered: call [`flush`] before reading
//! the file.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The trace-schema identifier every record carries.
pub const TRACE_SCHEMA: &str = "bat/trace/v1";

struct Sink {
    file: Mutex<BufWriter<File>>,
    epoch: Instant,
}

static SINK: OnceLock<Sink> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Install the process trace sink, writing to `path`, and enable
/// tracing. At most one sink per process; a second install fails.
pub fn install(path: &Path) -> io::Result<()> {
    if SINK.get().is_some() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            "trace sink already installed",
        ));
    }
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    let epoch_unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    writeln!(
        w,
        "{{\"v\":\"{TRACE_SCHEMA}\",\"meta\":{{\"epoch_unix_ms\":{epoch_unix_ms}}}}}"
    )?;
    let sink = Sink {
        file: Mutex::new(w),
        epoch: Instant::now(),
    };
    SINK.set(sink).map_err(|_| {
        io::Error::new(io::ErrorKind::AlreadyExists, "trace sink already installed")
    })?;
    ENABLED.store(true, Ordering::Release);
    Ok(())
}

/// True when a sink is installed and tracing is enabled — the hot-path
/// gate, one atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Stop emitting spans (the sink stays installed) and flush.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
    flush();
}

/// Resume emitting spans on the installed sink. No-op without a sink.
pub fn enable() {
    if SINK.get().is_some() {
        ENABLED.store(true, Ordering::Release);
    }
}

/// Flush buffered trace output to the file.
pub fn flush() {
    if let Some(sink) = SINK.get() {
        let _ = sink.file.lock().expect("trace sink poisoned").flush();
    }
}

/// The innermost live span id on this thread (`0` when none) — capture
/// before fanning work out to other threads, feed to [`span_at`].
pub fn current() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

struct SpanInner {
    kind: &'static str,
    id: u64,
    parent: u64,
    start: Instant,
    attrs: String,
}

/// A live span: records attributes, writes one JSONL record on drop.
/// Inert (zero allocation, no I/O) while tracing is disabled.
pub struct Span(Option<SpanInner>);

/// Escape `v` as JSON string contents into `out`.
fn escape_into(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn new_span(kind: &'static str, parent: u64) -> Span {
    if !enabled() {
        return Span(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Span(Some(SpanInner {
        kind,
        id,
        parent,
        start: Instant::now(),
        attrs: String::new(),
    }))
}

/// Open a span nested under this thread's innermost live span.
pub fn span(kind: &'static str) -> Span {
    let parent = if enabled() { current() } else { 0 };
    new_span(kind, parent)
}

/// Open a span under an explicit parent id (use across threads, where
/// the per-thread stack cannot see the logical parent).
pub fn span_at(kind: &'static str, parent: u64) -> Span {
    new_span(kind, parent)
}

impl Span {
    /// This span's id (`0` when inert) — pass to [`span_at`] from
    /// other threads.
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |s| s.id)
    }

    /// Record a string attribute.
    pub fn record_str(&mut self, key: &str, value: &str) {
        if let Some(s) = self.0.as_mut() {
            s.attrs.push_str(",\"");
            escape_into(&mut s.attrs, key);
            s.attrs.push_str("\":\"");
            escape_into(&mut s.attrs, value);
            s.attrs.push('"');
        }
    }

    /// Record an integer attribute.
    pub fn record_u64(&mut self, key: &str, value: u64) {
        if let Some(s) = self.0.as_mut() {
            s.attrs.push_str(",\"");
            escape_into(&mut s.attrs, key);
            let _ = write!(s.attrs, "\":{value}");
        }
    }

    /// Record a float attribute (non-finite values become `null`).
    pub fn record_f64(&mut self, key: &str, value: f64) {
        if let Some(s) = self.0.as_mut() {
            s.attrs.push_str(",\"");
            escape_into(&mut s.attrs, key);
            if value.is_finite() {
                let _ = write!(s.attrs, "\":{value}");
            } else {
                s.attrs.push_str("\":null");
            }
        }
    }

    /// Builder-style [`Span::record_str`].
    pub fn str_attr(mut self, key: &str, value: &str) -> Self {
        self.record_str(key, value);
        self
    }

    /// Builder-style [`Span::record_u64`].
    pub fn u64_attr(mut self, key: &str, value: u64) -> Self {
        self.record_u64(key, value);
        self
    }

    /// Builder-style [`Span::record_f64`].
    pub fn f64_attr(mut self, key: &str, value: f64) -> Self {
        self.record_f64(key, value);
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else { return };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&inner.id) {
                stack.pop();
            } else {
                // Out-of-order drop (spans moved across an await-like
                // boundary we don't have, or leaked): remove by value.
                stack.retain(|&id| id != inner.id);
            }
        });
        let Some(sink) = SINK.get() else { return };
        let t_us = inner
            .start
            .saturating_duration_since(sink.epoch)
            .as_micros();
        let dur_us = inner.start.elapsed().as_micros();
        let mut line = String::with_capacity(96 + inner.attrs.len());
        let _ = write!(
            line,
            "{{\"v\":\"{TRACE_SCHEMA}\",\"span\":\"{}\",\"id\":{},\"parent\":{},\"t_us\":{},\"dur_us\":{}{}}}",
            inner.kind, inner.id, inner.parent, t_us, dur_us, inner.attrs
        );
        line.push('\n');
        let mut w = sink.file.lock().expect("trace sink poisoned");
        let _ = w.write_all(line.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink is process-global, so all trace tests share one file and
    // run under one test lock.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn trace_path() -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bat-obs-trace-test-{}.jsonl", std::process::id()))
    }

    fn install_once() -> std::path::PathBuf {
        let path = trace_path();
        match install(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => enable(),
            Err(e) => panic!("install: {e}"),
        }
        path
    }

    #[test]
    fn spans_nest_on_one_thread_and_records_parse() {
        let _g = LOCK.lock().unwrap();
        let path = install_once();
        let outer_id;
        {
            let mut outer = span("outer");
            outer.record_str("name", "he said \"hi\"\n");
            outer_id = outer.id();
            assert_ne!(outer_id, 0);
            assert_eq!(current(), outer_id);
            {
                let inner = span("inner").u64_attr("k", 7).f64_attr("x", 1.5);
                assert_ne!(inner.id(), outer_id);
            }
            assert_eq!(current(), outer_id);
        }
        assert_eq!(current(), 0);
        flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"meta\""));
        let inner_line = lines.iter().find(|l| l.contains("\"inner\"")).unwrap();
        assert!(inner_line.contains(&format!("\"parent\":{outer_id}")));
        assert!(inner_line.contains("\"k\":7"));
        assert!(inner_line.contains("\"x\":1.5"));
        let outer_line = lines.iter().find(|l| l.contains("\"outer\"")).unwrap();
        assert!(outer_line.contains("\\\"hi\\\"\\n"));
        assert!(outer_line.contains("\"parent\":0"));
        for l in &lines {
            assert!(l.starts_with("{\"v\":\"bat/trace/v1\""), "{l}");
            assert!(l.ends_with('}'), "{l}");
        }
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = LOCK.lock().unwrap();
        let path = install_once();
        disable();
        let before = std::fs::read_to_string(&path).unwrap().len();
        {
            let mut s = span("ghost");
            assert_eq!(s.id(), 0);
            s.record_u64("k", 1);
        }
        flush();
        let after = std::fs::read_to_string(&path).unwrap().len();
        assert_eq!(before, after);
        enable();
    }

    #[test]
    fn cross_thread_parents_via_span_at() {
        let _g = LOCK.lock().unwrap();
        let path = install_once();
        let root = span("root-xt");
        let parent = root.id();
        std::thread::spawn(move || {
            let _child = span_at("child-xt", parent);
        })
        .join()
        .unwrap();
        drop(root);
        flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let child = text.lines().find(|l| l.contains("child-xt")).unwrap();
        assert!(child.contains(&format!("\"parent\":{parent}")));
    }
}
