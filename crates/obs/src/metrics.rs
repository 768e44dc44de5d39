//! The process-wide metrics registry.
//!
//! Metrics are registered once by name and live for the life of the
//! process ([`counter`], [`gauge`], [`histogram`] leak one allocation per
//! distinct name and return `&'static` handles — call sites cache them in
//! a `OnceLock` so the registry lock is off the hot path). Updates are
//! relaxed atomics; counters additionally shard across cache-line-padded
//! slots keyed by thread so concurrent workers never contend on one line.
//! Reads merge the shards — totals are exact once writers quiesce, and
//! monotone snapshots while they run.
//!
//! Histograms bucket by `floor(log2(v)) + 1` (value 0 in bucket 0), so 32
//! buckets cover the full microsecond range from "sub-µs" to "about an
//! hour" — coarse, but queue waits and block timings vary over orders of
//! magnitude and a log scale is the honest shape for that.
//!
//! [`render_prometheus`] produces the standard text exposition: `# HELP` /
//! `# TYPE` headers, cumulative `_bucket{le="..."}` lines for histograms.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Counter shards: enough that a handful of pool workers rarely
/// collide, few enough that merging on read stays trivial.
const SHARDS: usize = 8;

/// Histogram buckets: bucket `i` holds values `< 2^i` (cumulative
/// upper bound `2^i - 1`), bucket 31 catches the rest.
pub const HISTOGRAM_BUCKETS: usize = 32;

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

thread_local! {
    static SHARD: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS
    };
}

/// A monotone counter, sharded per thread.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        let s = SHARD.with(|s| *s);
        self.shards[s].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum over all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// An up/down instantaneous value (queue depths, open sessions).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram of `u64` observations.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index for one observation: 0 for 0, else `floor(log2 v) + 1`
/// clamped to the last bucket.
#[inline]
fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Non-cumulative per-bucket counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

struct Entry {
    name: &'static str,
    help: &'static str,
    metric: Metric,
}

fn registry() -> &'static Mutex<Vec<Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn register<T>(
    name: &'static str,
    help: &'static str,
    pick: impl Fn(&Metric) -> Option<&'static T>,
    make: impl FnOnce() -> (&'static T, Metric),
) -> &'static T {
    let mut entries = registry().lock().expect("metrics registry poisoned");
    if let Some(e) = entries.iter().find(|e| e.name == name) {
        return pick(&e.metric)
            .unwrap_or_else(|| panic!("metric {name:?} registered with a different type"));
    }
    let (handle, metric) = make();
    entries.push(Entry { name, help, metric });
    handle
}

/// The counter named `name`, registering it on first use. The first
/// registration's help text wins; re-registering under a different
/// metric type panics (it is a naming bug, not a runtime condition).
pub fn counter(name: &'static str, help: &'static str) -> &'static Counter {
    register(
        name,
        help,
        |m| match m {
            Metric::Counter(c) => Some(*c),
            _ => None,
        },
        || {
            let c: &'static Counter = Box::leak(Box::default());
            (c, Metric::Counter(c))
        },
    )
}

/// The gauge named `name`, registering it on first use.
pub fn gauge(name: &'static str, help: &'static str) -> &'static Gauge {
    register(
        name,
        help,
        |m| match m {
            Metric::Gauge(g) => Some(*g),
            _ => None,
        },
        || {
            let g: &'static Gauge = Box::leak(Box::default());
            (g, Metric::Gauge(g))
        },
    )
}

/// The histogram named `name`, registering it on first use.
pub fn histogram(name: &'static str, help: &'static str) -> &'static Histogram {
    register(
        name,
        help,
        |m| match m {
            Metric::Histogram(h) => Some(*h),
            _ => None,
        },
        || {
            let h: &'static Histogram = Box::leak(Box::default());
            (h, Metric::Histogram(h))
        },
    )
}

/// Current value of a registered counter, by name.
pub fn counter_value(name: &str) -> Option<u64> {
    let entries = registry().lock().expect("metrics registry poisoned");
    entries
        .iter()
        .find(|e| e.name == name)
        .and_then(|e| match &e.metric {
            Metric::Counter(c) => Some(c.get()),
            _ => None,
        })
}

/// Current value of a registered gauge, by name.
pub fn gauge_value(name: &str) -> Option<i64> {
    let entries = registry().lock().expect("metrics registry poisoned");
    entries
        .iter()
        .find(|e| e.name == name)
        .and_then(|e| match &e.metric {
            Metric::Gauge(g) => Some(g.get()),
            _ => None,
        })
}

/// Render every registered metric as Prometheus text exposition,
/// sorted by name so scrapes are diffable.
pub fn render_prometheus() -> String {
    use std::fmt::Write;
    let entries = registry().lock().expect("metrics registry poisoned");
    let mut sorted: Vec<&Entry> = entries.iter().collect();
    sorted.sort_by_key(|e| e.name);
    let mut out = String::new();
    for e in &sorted {
        let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
        match &e.metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "# TYPE {} counter", e.name);
                let _ = writeln!(out, "{} {}", e.name, c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "# TYPE {} gauge", e.name);
                let _ = writeln!(out, "{} {}", e.name, g.get());
            }
            Metric::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {} histogram", e.name);
                let buckets = h.buckets();
                let mut cum = 0u64;
                for (i, b) in buckets.iter().enumerate() {
                    cum += b;
                    if i + 1 < HISTOGRAM_BUCKETS {
                        let le = (1u64 << i) - 1;
                        let _ = writeln!(out, "{}_bucket{{le=\"{}\"}} {}", e.name, le, cum);
                    } else {
                        let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", e.name, cum);
                    }
                }
                let _ = writeln!(out, "{}_sum {}", e.name, h.sum());
                let _ = writeln!(out, "{}_count {}", e.name, h.count());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = counter("test_counter_sums_total", "test");
        let before = c.get();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get() - before, 4000);
        assert_eq!(counter_value("test_counter_sums_total"), Some(c.get()));
    }

    #[test]
    fn registration_is_idempotent() {
        let a = counter("test_idempotent_total", "first");
        let b = counter("test_idempotent_total", "second");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn gauge_tracks_up_and_down() {
        let g = gauge("test_gauge", "test");
        g.set(0);
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        assert_eq!(gauge_value("test_gauge"), Some(3));
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        let h = histogram("test_histo_us", "test");
        h.observe(0); // bucket 0
        h.observe(1); // bucket 1
        h.observe(2); // bucket 2
        h.observe(3); // bucket 2
        h.observe(1024); // bucket 11
        let b = h.buckets();
        assert_eq!(b[0], 1);
        assert_eq!(b[1], 1);
        assert_eq!(b[2], 2);
        assert_eq!(b[11], 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
    }

    #[test]
    fn exposition_has_help_type_and_cumulative_buckets() {
        counter("test_render_total", "Rendered counter.").add(7);
        histogram("test_render_us", "Rendered histogram.").observe(3);
        let text = render_prometheus();
        assert!(text.contains("# HELP test_render_total Rendered counter."));
        assert!(text.contains("# TYPE test_render_total counter"));
        assert!(text.contains("# TYPE test_render_us histogram"));
        assert!(text.contains("test_render_us_bucket{le=\"+Inf\"}"));
        assert!(text.contains("test_render_us_count"));
        // Sorted output: HELP lines appear in name order.
        let pos_total = text.find("# HELP test_render_total").unwrap();
        let pos_us = text.find("# HELP test_render_us").unwrap();
        assert!(pos_total < pos_us);
    }
}
