//! Spans recorded from outside the program: a layer's public call is
//! wrapped in `open`/`close`, spans nest through a stack, and a span's
//! self time is its duration minus the time its children cover.
//!
//! Calls too frequent to record one by one (a tuner's `ask` and `tell`)
//! are summed by [`Timed`] and attached to their parent as one aggregate
//! child, so they still subtract from the parent's self time.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use bat_tuners::{StepCtx, StepTuner, Told};

/// Name of the spans whose time is measurement work of the benchmark
/// itself (replays); it is excluded from the traced wall time.
pub const REPLAY: &str = "bench.replay";

/// Spans that only structure the tree; their self time is uncovered.
const STRUCTURAL: [&str; 3] = ["campaign", "trial", "session"];

struct Span {
    name: String,
    start_ns: u64,
    dur_ns: u64,
    child_ns: u64,
    count: u64,
    parent: Option<usize>,
}

/// An in-memory span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            dur_ns: 0,
            child_ns: 0,
            count: 1,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans close in LIFO order");
        let dur = self.now_ns() - self.spans[id].start_ns;
        self.spans[id].dur_ns = dur;
        if let Some(p) = self.spans[id].parent {
            self.spans[p].child_ns += dur;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Attach `count` calls totalling `dur_ns` as one child of span `parent`.
    pub fn aggregate(&mut self, parent: usize, name: &str, dur_ns: u64, count: u64) {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.spans[parent].start_ns,
            dur_ns,
            child_ns: 0,
            count,
            parent: Some(parent),
        });
        self.spans[parent].child_ns += dur_ns;
    }

    /// Self time (seconds) and call count per span name.
    pub fn self_times(&self) -> BTreeMap<String, (f64, u64)> {
        let mut out: BTreeMap<String, (f64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += s.dur_ns.saturating_sub(s.child_ns) as f64 * 1e-9;
            e.1 += s.count;
        }
        out
    }

    /// Traced wall time: the root spans minus the replays inside them.
    pub fn wall_s(&self) -> f64 {
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns)
            .sum();
        roots.saturating_sub(self.total_ns(REPLAY)) as f64 * 1e-9
    }

    fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Sum of the self times of every layer span (everything that is
    /// neither structural nor a replay).
    pub fn layer_self_s(&self) -> f64 {
        self.self_times()
            .iter()
            .filter(|(name, _)| name.as_str() != REPLAY && !STRUCTURAL.contains(&name.as_str()))
            .map(|(_, (s, _))| s)
            .sum()
    }

    /// Write every span as one JSON line (name, start, end, parent, count).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"count\":{}}}",
                s.name,
                s.start_ns,
                s.start_ns + s.dur_ns,
                s.count
            )?;
        }
        f.flush()
    }
}

/// A [`StepTuner`] wrapper that times the wrapped session's `ask` and
/// `tell` and the gap between them (the driver's evaluation round trip),
/// and keeps each ask's size so the evaluated batches can be replayed.
pub struct Timed<'a> {
    inner: &'a mut dyn StepTuner,
    ask_end: Option<Instant>,
    pub ask_ns: u64,
    pub tell_ns: u64,
    /// Ask-to-tell gaps, in microseconds, one per told step.
    pub gaps_us: Vec<f64>,
    /// Candidates asked per step.
    pub sizes: Vec<usize>,
}

impl<'a> Timed<'a> {
    pub fn new(inner: &'a mut dyn StepTuner) -> Timed<'a> {
        Timed {
            inner,
            ask_end: None,
            ask_ns: 0,
            tell_ns: 0,
            gaps_us: Vec::new(),
            sizes: Vec::new(),
        }
    }
}

impl StepTuner for Timed<'_> {
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
        let t = Instant::now();
        let out = self.inner.ask(ctx);
        let end = Instant::now();
        self.ask_ns += (end - t).as_nanos() as u64;
        self.ask_end = Some(end);
        self.sizes.push(out.len());
        out
    }

    fn tell(&mut self, results: &[Told]) {
        let t = Instant::now();
        if let Some(end) = self.ask_end.take() {
            self.gaps_us.push((t - end).as_secs_f64() * 1e6);
        }
        self.inner.tell(results);
        self.tell_ns += t.elapsed().as_nanos() as u64;
    }
}
