//! Offline stand-in for the subset of the `rayon` API used by this
//! workspace.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the same call surface (`into_par_iter`, `par_iter`, `par_iter_mut`,
//! `par_chunks_mut`, plus `map`/`enumerate` adapters and
//! `sum`/`collect`/`for_each` terminals) backed by a lazily-initialized
//! **persistent worker pool** (`pool`): parked OS threads claim blocks
//! of work from a shared atomic cursor, so a parallel terminal costs one
//! queue push + condvar wake instead of per-call thread creation.
//!
//! Order-preserving terminals (`collect`, `sum`) write each result directly
//! into its input slot of a pre-sized output buffer, so outputs are
//! bit-identical to the serial order no matter how blocks interleave; on a
//! single-thread pool (or inside an already-parallel region) everything
//! runs serially, which matches rayon's semantics for deterministic,
//! order-preserving pipelines. Side-effect terminals (`for_each`) schedule
//! adaptively through the same block-claiming cursor.
//!
//! Integer ranges get a dedicated lazy implementation ([`RangePar`]): the
//! range is never materialized — workers claim index windows by arithmetic
//! alone, so `(0..10u64.pow(8)).into_par_iter().map(f).sum()` only ever
//! allocates the pipeline's *outputs*.
//!
//! Thread-count control (see [`current_num_threads`] for resolution order):
//! [`set_global_threads`] (`--threads`), the `BAT_THREADS` environment
//! variable, then `available_parallelism`. [`with_thread_limit`] overrides
//! the count per calling thread, which lets tests sweep thread counts
//! inside one process.

use std::mem::{ManuallyDrop, MaybeUninit};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

mod pool;

pub use pool::{current_num_threads, pool_busy_us, set_global_threads, with_thread_limit};
use pool::{worker_count, IN_PARALLEL};

/// Shared mutable output pointer for disjoint-slot writes across workers.
/// Accessed only through [`OutPtr::write`] so closures capture the wrapper
/// (with its `Sync` impl) rather than the raw pointer field.
struct OutPtr<U>(*mut MaybeUninit<U>);
// SAFETY: workers write disjoint slots (each index is claimed exactly once
// by the block cursor), and the owning terminal joins every worker before
// reading the buffer back.
unsafe impl<U: Send> Send for OutPtr<U> {}
unsafe impl<U: Send> Sync for OutPtr<U> {}

impl<U> OutPtr<U> {
    /// Write slot `i`.
    ///
    /// SAFETY: caller must hold the unique claim on index `i` and stay in
    /// bounds of the buffer the pointer was taken from.
    unsafe fn write(&self, i: usize, value: U) {
        unsafe { self.0.add(i).write(MaybeUninit::new(value)) }
    }
}

/// Shared input pointer for by-value reads of claimed items.
struct InPtr<T>(*const T);
// SAFETY: each item is `ptr::read` exactly once (disjoint block claims),
// mirroring a by-value move into the claiming worker.
unsafe impl<T: Send> Send for InPtr<T> {}
unsafe impl<T: Send> Sync for InPtr<T> {}

impl<T> InPtr<T> {
    /// Move item `i` out of the buffer.
    ///
    /// SAFETY: caller must hold the unique claim on index `i` (each item is
    /// read at most once) and stay in bounds.
    unsafe fn read(&self, i: usize) -> T {
        unsafe { std::ptr::read(self.0.add(i)) }
    }
}

/// Convert a fully-written `Vec<MaybeUninit<U>>` into `Vec<U>`.
///
/// SAFETY: caller must guarantee every slot was initialized.
unsafe fn assume_init_vec<U>(out: Vec<MaybeUninit<U>>) -> Vec<U> {
    let mut out = ManuallyDrop::new(out);
    let (ptr, len, cap) = (out.as_mut_ptr(), out.len(), out.capacity());
    // SAFETY: MaybeUninit<U> and U have identical layout, and per the
    // caller's contract every element is initialized.
    unsafe { Vec::from_raw_parts(ptr.cast::<U>(), len, cap) }
}

/// Free a consumed input buffer without dropping its (moved-out) elements.
fn free_consumed<T>(mut items: ManuallyDrop<Vec<T>>) {
    // SAFETY: every element was moved out by `ptr::read`, so dropping the
    // Vec at length 0 frees the allocation without double-dropping.
    unsafe {
        items.set_len(0);
        ManuallyDrop::drop(&mut items);
    }
}

/// Apply `f` to every item, returning the results in input order. Runs on
/// the worker pool when more than one thread is available: workers claim
/// blocks of indices and write each result straight into its input slot,
/// so the output is bit-identical to the serial order.
fn run_map<T, U, F>(items: Vec<T>, f: &F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 {
        let was = IN_PARALLEL.with(|c| c.replace(true));
        let out = items.into_iter().map(f).collect();
        IN_PARALLEL.with(|c| c.set(was));
        return out;
    }
    let mut out: Vec<MaybeUninit<U>> = Vec::with_capacity(n);
    // SAFETY: MaybeUninit slots need no initialization.
    unsafe { out.set_len(n) };
    let items = ManuallyDrop::new(items);
    let src = InPtr(items.as_ptr());
    let dst = OutPtr(out.as_mut_ptr());
    // ~8 claims per worker balances skew against cursor traffic.
    let block = (n / (workers * 8)).clamp(1, 1024);
    let cursor = AtomicUsize::new(0);
    let cursor = &cursor;
    pool::run_parallel(workers, &move || loop {
        let lo = cursor.fetch_add(block, Ordering::Relaxed);
        if lo >= n {
            break;
        }
        let hi = (lo + block).min(n);
        for i in lo..hi {
            // SAFETY: index `i` belongs to exactly one claimed block, so
            // the item is moved out once and the slot written once.
            unsafe {
                let item = src.read(i);
                dst.write(i, f(item));
            }
        }
    });
    // `run_parallel` panics on worker failure before reaching this point
    // (the buffers then leak, which is safe); from here every item was
    // consumed and every slot written.
    free_consumed(items);
    // SAFETY: all `n` slots initialized by the claim loop above.
    unsafe { assume_init_vec(out) }
}

/// Apply `f` to every item with adaptive scheduling: each worker claims the
/// next pending *block* of items from a shared cursor when it drains its
/// current one, so skewed per-item costs rebalance while fine-grained
/// items (single floats, small slots) amortize the claim overhead.
/// Execution order is unspecified (side effects must not depend on it, as
/// with rayon's `for_each`), but every item runs exactly once.
fn run_for_each<T, F>(items: Vec<T>, f: &F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 {
        let was = IN_PARALLEL.with(|c| c.replace(true));
        items.into_iter().for_each(f);
        IN_PARALLEL.with(|c| c.set(was));
        return;
    }
    let items = ManuallyDrop::new(items);
    let src = InPtr(items.as_ptr());
    let block = (n / (workers * 8)).clamp(1, 1024);
    let cursor = AtomicUsize::new(0);
    let cursor = &cursor;
    pool::run_parallel(workers, &move || loop {
        let lo = cursor.fetch_add(block, Ordering::Relaxed);
        if lo >= n {
            break;
        }
        let hi = (lo + block).min(n);
        for i in lo..hi {
            // SAFETY: each index is claimed exactly once.
            f(unsafe { src.read(i) });
        }
    });
    free_consumed(items);
}

/// A materialized "parallel" iterator: the item list plus order-preserving
/// parallel terminals.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Map every item through `f` (executed at the terminal operation).
    pub fn map<U: Send, F: Fn(T) -> U + Sync>(self, f: F) -> MapIter<T, F> {
        MapIter {
            items: self.items,
            f,
        }
    }

    /// Pair every item with its index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Apply `f` to every item (adaptive scheduling; execution order is
    /// unspecified).
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        run_for_each(self.items, &f);
    }

    /// Collect the items (identity pipeline).
    pub fn collect<B: FromIterator<T>>(self) -> B {
        self.items.into_iter().collect()
    }

    /// Sum the items.
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }

    /// Apply `f` in parallel, keeping the `Some` results in input order.
    pub fn filter_map<U: Send, F: Fn(T) -> Option<U> + Sync>(self, f: F) -> ParIter<U> {
        ParIter {
            items: run_map(self.items, &f).into_iter().flatten().collect(),
        }
    }

    /// Maximum item under `cmp`.
    pub fn max_by<F: Fn(&T, &T) -> std::cmp::Ordering>(self, cmp: F) -> Option<T> {
        self.items.into_iter().max_by(cmp)
    }

    /// Minimum item under `cmp`.
    pub fn min_by<F: Fn(&T, &T) -> std::cmp::Ordering>(self, cmp: F) -> Option<T> {
        self.items.into_iter().min_by(cmp)
    }
}

/// A mapped parallel pipeline (`par_iter().map(f)`).
pub struct MapIter<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, U, F> MapIter<T, F>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    /// Compose another map stage onto the pipeline.
    pub fn map<V: Send, G: Fn(U) -> V + Sync>(self, g: G) -> MapIter<T, impl Fn(T) -> V + Sync> {
        let f = self.f;
        MapIter {
            items: self.items,
            f: move |t| g(f(t)),
        }
    }

    /// Run the pipeline and collect the outputs in input order.
    pub fn collect<B: FromIterator<U>>(self) -> B {
        run_map(self.items, &self.f).into_iter().collect()
    }

    /// Run the pipeline and sum the outputs.
    pub fn sum<S: std::iter::Sum<U>>(self) -> S {
        run_map(self.items, &self.f).into_iter().sum()
    }

    /// Run the pipeline for its side effects (adaptive scheduling).
    pub fn for_each<G: Fn(U) + Sync>(self, g: G) {
        let f = self.f;
        run_for_each(self.items, &|t| g(f(t)));
    }
}

/// Conversion into a parallel iterator by value.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Concrete parallel-iterator type ([`ParIter`] for materialized
    /// sources, [`RangePar`] for lazy integer ranges).
    type Iter;
    /// Build the parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T>;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// Integer types usable as lazy parallel-range items.
pub trait RangeIndex: Copy + Send + Sync {
    /// `self + k`, where `k` is an in-range offset by construction.
    fn offset(self, k: u64) -> Self;
}

/// A lazy parallel iterator over an integer range. Unlike [`ParIter`], the
/// items are never materialized: each worker derives claimed index windows
/// from `(start, len)` and streams them.
pub struct RangePar<T> {
    start: T,
    len: u64,
}

/// Stream `f` over `start..start+len`, collecting the outputs in input
/// order. Workers claim index windows from a shared cursor and write each
/// output straight into its slot, so the result is bit-identical to the
/// serial order without materializing the input range.
fn run_range_map<T, U, F>(start: T, len: u64, f: &F) -> Vec<U>
where
    T: RangeIndex,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let items = usize::try_from(len).expect("range too large to collect");
    let workers = worker_count(items);
    if workers <= 1 {
        let was = IN_PARALLEL.with(|c| c.replace(true));
        let mut out = Vec::with_capacity(items);
        for k in 0..len {
            out.push(f(start.offset(k)));
        }
        IN_PARALLEL.with(|c| c.set(was));
        return out;
    }
    let mut out: Vec<MaybeUninit<U>> = Vec::with_capacity(items);
    // SAFETY: MaybeUninit slots need no initialization.
    unsafe { out.set_len(items) };
    let dst = OutPtr(out.as_mut_ptr());
    let block = (len / (workers as u64 * 8)).clamp(1, 65_536);
    let cursor = AtomicU64::new(0);
    let cursor = &cursor;
    pool::run_parallel(workers, &move || loop {
        let lo = cursor.fetch_add(block, Ordering::Relaxed);
        if lo >= len {
            break;
        }
        let hi = lo.saturating_add(block).min(len);
        for k in lo..hi {
            // SAFETY: window `lo..hi` is claimed exactly once, so each
            // slot is written exactly once.
            unsafe { dst.write(k as usize, f(start.offset(k))) };
        }
    });
    // SAFETY: all slots initialized (run_parallel panics on failure first,
    // leaking the buffer, which is safe).
    unsafe { assume_init_vec(out) }
}

/// Stream `f` over the range for its side effects; nothing is collected, so
/// arbitrarily long ranges cost no memory.
///
/// Scheduling is adaptive: instead of one static subrange per worker, each
/// worker claims the next `block`-sized window of the remaining range when
/// it drains its current one, so skewed per-item costs cannot strand the
/// tail of the range behind one slow worker.
fn run_range_for_each<T, F>(start: T, len: u64, f: &F)
where
    T: RangeIndex,
    F: Fn(T) + Sync,
{
    let workers = worker_count(usize::try_from(len.min(usize::MAX as u64)).unwrap_or(usize::MAX));
    if workers <= 1 {
        let was = IN_PARALLEL.with(|c| c.replace(true));
        for k in 0..len {
            f(start.offset(k));
        }
        IN_PARALLEL.with(|c| c.set(was));
        return;
    }
    // ~8 claims per worker balances skew against cursor traffic; the block
    // is capped so very long ranges still rebalance frequently.
    let block = (len / (workers as u64 * 8)).clamp(1, 65_536);
    let cursor = AtomicU64::new(0);
    let cursor = &cursor;
    pool::run_parallel(workers, &move || loop {
        let lo = cursor.fetch_add(block, Ordering::Relaxed);
        if lo >= len {
            break;
        }
        let hi = lo.saturating_add(block).min(len);
        for k in lo..hi {
            f(start.offset(k));
        }
    });
}

impl<T: RangeIndex> RangePar<T> {
    /// Map every range item through `f` (executed at the terminal).
    pub fn map<U: Send, F: Fn(T) -> U + Sync>(self, f: F) -> RangeMapIter<T, F> {
        RangeMapIter {
            start: self.start,
            len: self.len,
            f,
        }
    }

    /// Apply `f` in parallel, keeping the `Some` results in input order.
    pub fn filter_map<U: Send, F: Fn(T) -> Option<U> + Sync>(self, f: F) -> ParIter<U> {
        ParIter {
            items: run_range_map(self.start, self.len, &f)
                .into_iter()
                .flatten()
                .collect(),
        }
    }

    /// Apply `f` to every range item, streaming (no materialization).
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        run_range_for_each(self.start, self.len, &f);
    }

    /// Collect the range items (identity pipeline).
    pub fn collect<B: FromIterator<T>>(self) -> B {
        (0..self.len).map(|k| self.start.offset(k)).collect()
    }

    /// Sum the range items.
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        (0..self.len).map(|k| self.start.offset(k)).sum()
    }
}

/// A mapped lazy range pipeline (`(a..b).into_par_iter().map(f)`).
pub struct RangeMapIter<T, F> {
    start: T,
    len: u64,
    f: F,
}

impl<T, U, F> RangeMapIter<T, F>
where
    T: RangeIndex,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    /// Compose another map stage onto the pipeline.
    pub fn map<V: Send, G: Fn(U) -> V + Sync>(
        self,
        g: G,
    ) -> RangeMapIter<T, impl Fn(T) -> V + Sync> {
        let f = self.f;
        RangeMapIter {
            start: self.start,
            len: self.len,
            f: move |t| g(f(t)),
        }
    }

    /// Run the pipeline and collect the outputs in input order.
    pub fn collect<B: FromIterator<U>>(self) -> B {
        run_range_map(self.start, self.len, &self.f)
            .into_iter()
            .collect()
    }

    /// Run the pipeline and sum the outputs (serial, order-preserving
    /// reduction over the collected outputs, matching the eager path).
    pub fn sum<S: std::iter::Sum<U>>(self) -> S {
        run_range_map(self.start, self.len, &self.f)
            .into_iter()
            .sum()
    }

    /// Run the pipeline for its side effects, streaming.
    pub fn for_each<G: Fn(U) + Sync>(self, g: G) {
        let f = self.f;
        run_range_for_each(self.start, self.len, &|t| g(f(t)));
    }
}

macro_rules! impl_range_par {
    ($($t:ty),*) => {$(
        impl RangeIndex for $t {
            #[inline]
            fn offset(self, k: u64) -> Self {
                self + k as $t
            }
        }
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = RangePar<$t>;
            fn into_par_iter(self) -> RangePar<$t> {
                let len = if self.end > self.start {
                    (self.end - self.start) as u64
                } else {
                    0
                };
                RangePar { start: self.start, len }
            }
        }
    )*};
}
impl_range_par!(u32, u64, usize, i32, i64);

/// `par_iter` / `par_iter_mut` over slices.
pub trait ParallelSlice<T: Sync + Send> {
    /// Parallel iterator over shared references.
    fn par_iter(&self) -> ParIter<&T>;
}

/// Mutable slice operations (`par_iter_mut`, `par_chunks_mut`).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over mutable references.
    fn par_iter_mut(&mut self) -> ParIter<&mut T>;
    /// Parallel iterator over mutable, contiguous, non-overlapping chunks.
    fn par_chunks_mut(&mut self, chunk: usize) -> ParIter<&mut [T]>;
}

impl<T: Sync + Send> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<&mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }

    fn par_chunks_mut(&mut self, chunk: usize) -> ParIter<&mut [T]> {
        assert!(chunk > 0, "chunk size must be non-zero");
        ParIter {
            items: self.chunks_mut(chunk).collect(),
        }
    }
}

/// The traits and types `use rayon::prelude::*` is expected to bring in.
pub mod prelude {
    pub use super::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::with_thread_limit;

    #[test]
    fn map_sum_matches_serial() {
        let par: u64 = (0u64..10_000).into_par_iter().map(|x| x * x).sum();
        let ser: u64 = (0u64..10_000).map(|x| x * x).sum();
        assert_eq!(par, ser);
    }

    #[test]
    fn collect_preserves_order() {
        let v: Vec<usize> = (0usize..1000).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(v, (1usize..=1000).collect::<Vec<_>>());
    }

    #[test]
    fn collect_preserves_order_at_every_thread_count() {
        for threads in 1..=6 {
            let v: Vec<String> = with_thread_limit(threads, || {
                (0usize..257)
                    .into_par_iter()
                    .map(|x| x.to_string())
                    .collect()
            });
            let ser: Vec<String> = (0usize..257).map(|x| x.to_string()).collect();
            assert_eq!(v, ser, "threads={threads}");
        }
    }

    #[test]
    fn chunks_mut_cover_disjointly() {
        let mut data = vec![0u32; 103];
        data.par_chunks_mut(10).enumerate().for_each(|(i, c)| {
            for slot in c.iter_mut() {
                *slot += i as u32 + 1;
            }
        });
        assert!(data.iter().all(|&x| x > 0));
        assert_eq!(data[0], 1);
        assert_eq!(data[102], 11);
    }

    #[test]
    fn range_filter_map_preserves_order() {
        let v: Vec<u64> = (0u64..1000)
            .into_par_iter()
            .filter_map(|x| (x % 3 == 0).then_some(x))
            .collect();
        let ser: Vec<u64> = (0u64..1000).filter(|x| x % 3 == 0).collect();
        assert_eq!(v, ser);
    }

    #[test]
    fn range_for_each_streams_every_item_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let count = AtomicU64::new(0);
        let sum = AtomicU64::new(0);
        (0u64..100_003).into_par_iter().for_each(|x| {
            count.fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 100_003);
        assert_eq!(sum.load(Ordering::Relaxed), 100_003 * 100_002 / 2);
    }

    #[test]
    fn signed_and_offset_ranges_work() {
        let v: Vec<i64> = (-5i64..5).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (-5i64..5).map(|x| x * 2).collect::<Vec<_>>());
        let s: usize = (10usize..20).into_par_iter().sum();
        assert_eq!(s, (10usize..20).sum::<usize>());
        let empty: Vec<u32> = (7u32..7).into_par_iter().map(|x| x).collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn for_each_with_skewed_costs_covers_every_item_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 397usize;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        (0..n).collect::<Vec<_>>().into_par_iter().for_each(|i| {
            // Skew: the first few items are far more expensive; adaptive
            // claiming must still run every item exactly once.
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn range_for_each_block_claiming_covers_uneven_lengths() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Lengths around block-size boundaries (block cap is 65_536 and the
        // claim granularity depends on worker count): every index must be
        // visited exactly once regardless of how blocks tile the range.
        for len in [1u64, 2, 7, 1023, 4096, 4099] {
            let sum = AtomicU64::new(0);
            (0..len).into_par_iter().for_each(|x| {
                sum.fetch_add(x + 1, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), len * (len + 1) / 2, "{len}");
        }
    }

    #[test]
    fn nested_parallelism_is_serialized() {
        let out: Vec<u64> = (0u64..8)
            .into_par_iter()
            .map(|i| (0u64..100).into_par_iter().map(move |j| i + j).sum::<u64>())
            .collect();
        assert_eq!(out[0], 4950);
        assert_eq!(out[7], 4950 + 700);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            with_thread_limit(4, || {
                (0u64..1000).into_par_iter().for_each(|x| {
                    if x == 457 {
                        panic!("boom");
                    }
                });
            });
        });
        assert!(
            result.is_err(),
            "panic inside a parallel region must surface"
        );
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        // A panicking job must not wedge or poison the pool for later calls.
        let _ = std::panic::catch_unwind(|| {
            with_thread_limit(4, || {
                (0u64..64).into_par_iter().for_each(|_| panic!("boom"));
            });
        });
        let v: Vec<u64> =
            with_thread_limit(4, || (0u64..100).into_par_iter().map(|x| x * 3).collect());
        assert_eq!(v, (0u64..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn drop_types_are_freed_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted(#[allow(dead_code)] u64);
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let items: Vec<Counted> = (0..501).map(Counted).collect();
        let lens: Vec<u64> = with_thread_limit(3, || items.into_par_iter().map(|c| c.0).collect());
        assert_eq!(lens.len(), 501);
        assert_eq!(DROPS.load(Ordering::Relaxed), 501);
    }
}
