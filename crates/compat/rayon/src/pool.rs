//! The persistent worker pool behind every parallel terminal.
//!
//! The original compat-rayon spawned fresh scoped OS threads on every
//! `par_iter` call, so thread creation dominated small parallel calls
//! (a campaign's chunks of trials, a forest's trees, a kernel's rows).
//! This module replaces spawn-per-call with a lazily-initialized pool of
//! *parked* OS threads that live for the process: a parallel terminal
//! injects one job, the pool's workers (plus the calling thread) run it
//! cooperatively, and the call returns when every participant is done.
//!
//! A job is a borrowed `&(dyn Fn() + Sync)` closure: each participant calls
//! it exactly once, and the closure itself loops claiming blocks of work
//! from a shared atomic cursor (the same block-claiming discipline the old
//! `run_for_each` used). Because the submitting call blocks until every
//! participant has returned, the borrow is valid for as long as any worker
//! can observe it — that is the safety argument for the one lifetime
//! erasure below.
//!
//! Pool size resolution (checked once, at first parallel call):
//!   1. [`set_global_threads`] — explicit configuration (`--threads`);
//!   2. the `BAT_THREADS` environment variable;
//!   3. `std::thread::available_parallelism()`.
//!
//! [`with_thread_limit`] additionally overrides the count for calls made
//! from the current thread, without touching global state (test harnesses
//! sweep thread counts this way).

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::LocalKey;

thread_local! {
    /// True while this thread is executing inside a parallel terminal;
    /// nested parallel calls then run serially instead of over-spawning.
    /// Permanently true on pool worker threads.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };

    /// Per-thread cap on the participants of parallel calls issued from
    /// this thread (0 = no cap). See [`with_thread_limit`].
    static THREAD_LIMIT: Cell<usize> = const { Cell::new(0) };
}

/// Holds a thread-local cell at a value for the guard's lifetime and
/// restores the previous value on drop — on unwind as on return, so a
/// caught panic leaves neither a stale thread limit nor a stale parallel
/// flag behind.
pub(crate) struct Restore<T: Copy + 'static> {
    cell: &'static LocalKey<Cell<T>>,
    prev: T,
}

impl<T: Copy + 'static> Restore<T> {
    fn set(cell: &'static LocalKey<Cell<T>>, value: T) -> Self {
        let prev = cell.with(|c| c.replace(value));
        Restore { cell, prev }
    }
}

impl<T: Copy + 'static> Drop for Restore<T> {
    fn drop(&mut self) {
        self.cell.with(|c| c.set(self.prev));
    }
}

/// Mark this thread as inside a parallel region until the guard drops.
pub(crate) fn parallel_region() -> Restore<bool> {
    Restore::set(&IN_PARALLEL, true)
}

/// Explicitly requested pool size (0 = unset). Read once, when the size
/// resolves.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

/// The resolved pool size (workers + caller). Fixed for the process once a
/// parallel terminal has run.
static RESOLVED: OnceLock<usize> = OnceLock::new();

/// Configure the pool size ahead of the first parallel call (`--threads`
/// plumbing). Returns `false` when the pool size had already resolved — the
/// call then has no effect and the caller should warn. Takes precedence
/// over `BAT_THREADS`, which takes precedence over
/// `available_parallelism`.
pub fn set_global_threads(n: usize) -> bool {
    REQUESTED.store(n.max(1), Ordering::Relaxed);
    RESOLVED.get().is_none()
}

/// The number of threads parallel terminals may use (pool workers plus the
/// calling thread). Resolves — and fixes — the pool size.
pub fn current_num_threads() -> usize {
    *RESOLVED.get_or_init(|| {
        let requested = REQUESTED.load(Ordering::Relaxed);
        if requested > 0 {
            return requested;
        }
        if let Ok(v) = std::env::var("BAT_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Run `f` with parallel calls *from this thread* pinned to exactly
/// `limit` participating threads (1 = serial). This is an override, not a
/// cap: it may exceed the resolved pool size, in which case the pool grows
/// extra parked workers — tests use this to sweep thread counts 1/2/4
/// inside one process, even on a single-core host. Purely thread-local:
/// other threads and the global configuration are unaffected.
pub fn with_thread_limit<R>(limit: usize, f: impl FnOnce() -> R) -> R {
    let _limit = Restore::set(&THREAD_LIMIT, limit.max(1));
    f()
}

/// Number of threads a parallel terminal over `items` items should use,
/// honouring nesting (serial) and the per-thread override or pool size.
pub(crate) fn worker_count(items: usize) -> usize {
    if items < 2 || IN_PARALLEL.with(Cell::get) {
        return 1;
    }
    let threads = match THREAD_LIMIT.with(Cell::get) {
        0 => current_num_threads(),
        limit => limit,
    };
    threads.min(items)
}

/// A lifetime-erased borrowed job closure. The `'static` is a lie told to
/// the borrow checker: the reference is valid until the submitting
/// [`run_parallel`] call returns, and that call blocks until every
/// participant has finished — enforced by the `started`/`finished`
/// accounting below.
struct Job {
    func: &'static (dyn Fn() + Sync),
    /// Submission instant, for the ticket-wait histogram.
    submitted: std::time::Instant,
    /// Unclaimed participant tickets. Mutated only under the pool queue
    /// lock, so claiming and queue removal stay consistent.
    tickets: AtomicUsize,
    /// Workers that claimed a ticket (final once `tickets` reaches 0 under
    /// the queue lock — afterwards no new claims are possible).
    started: AtomicUsize,
    /// Workers that finished running the closure.
    finished: AtomicUsize,
    /// The payload of the first worker that panicked, re-raised by the
    /// caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Completion signalling for the submitting thread.
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl Job {
    /// Run the job closure once, recording completion and the first panic.
    fn participate(&self) {
        let f = self.func;
        let t0 = std::time::Instant::now();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
            let mut first = self.panic.lock().unwrap_or_else(|e| e.into_inner());
            if first.is_none() {
                *first = Some(payload);
            }
        }
        obs().busy_us.add(t0.elapsed().as_micros() as u64);
        let _guard = self.done_lock.lock().unwrap_or_else(|e| e.into_inner());
        self.finished.fetch_add(1, Ordering::Release);
        self.done_cv.notify_all();
    }
}

/// Hard ceiling on pool workers, against runaway `with_thread_limit`
/// values. Far above any realistic host or sweep.
const MAX_WORKERS: usize = 256;

/// Observability handles for the pool, registered once. Out-of-band
/// telemetry only — nothing here influences scheduling.
struct PoolMetrics {
    jobs: &'static bat_obs::metrics::Counter,
    busy_us: &'static bat_obs::metrics::Counter,
    queue_depth: &'static bat_obs::metrics::Gauge,
    workers: &'static bat_obs::metrics::Gauge,
    ticket_wait_us: &'static bat_obs::metrics::Histogram,
}

fn obs() -> &'static PoolMetrics {
    use bat_obs::metrics::{counter, gauge, histogram};
    static M: OnceLock<PoolMetrics> = OnceLock::new();
    M.get_or_init(|| PoolMetrics {
        jobs: counter(
            "bat_pool_jobs_total",
            "Parallel jobs submitted to the worker pool.",
        ),
        busy_us: counter(
            "bat_pool_busy_us_total",
            "Microseconds participants (workers + callers) spent running job closures.",
        ),
        queue_depth: gauge("bat_pool_queue_depth", "Jobs waiting in the pool queue."),
        workers: gauge("bat_pool_workers", "Pool worker threads spawned."),
        ticket_wait_us: histogram(
            "bat_pool_ticket_wait_us",
            "Microseconds between job submission and a worker claiming a ticket.",
        ),
    })
}

/// The process-wide pool: a queue of pending jobs plus parked workers.
struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
    /// Worker threads spawned so far. The pool starts at the resolved size
    /// minus the participating caller and grows on demand when a
    /// `with_thread_limit` override asks for more.
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

impl Pool {
    /// Make sure at least `want` parked workers exist (capped).
    fn ensure_workers(&self, want: usize) -> usize {
        let want = want.min(MAX_WORKERS);
        let mut spawned = self.spawned.lock().unwrap_or_else(|e| e.into_inner());
        while *spawned < want {
            std::thread::Builder::new()
                .name(format!("bat-rayon-{spawned}"))
                .spawn(worker_loop)
                .expect("failed to spawn pool worker");
            *spawned += 1;
        }
        obs().workers.set(*spawned as i64);
        want
    }
}

/// Body of every pool worker: park on the queue, claim one ticket of the
/// front job, run it, repeat. Workers live for the process — parking is a
/// condvar wait, so an idle pool costs nothing.
fn worker_loop() {
    IN_PARALLEL.with(|c| c.set(true));
    let pool = pool();
    loop {
        let job: Arc<Job> = {
            let mut queue = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                // Claim a ticket from the first job that still has one;
                // drop exhausted jobs from the queue as they are found.
                while let Some(front) = queue.front() {
                    if front.tickets.load(Ordering::Relaxed) == 0 {
                        queue.pop_front();
                        continue;
                    }
                    break;
                }
                if let Some(front) = queue.front() {
                    front.tickets.fetch_sub(1, Ordering::Relaxed);
                    front.started.fetch_add(1, Ordering::Relaxed);
                    let job = Arc::clone(front);
                    if job.tickets.load(Ordering::Relaxed) == 0 {
                        queue.pop_front();
                    }
                    obs().queue_depth.set(queue.len() as i64);
                    obs()
                        .ticket_wait_us
                        .observe(job.submitted.elapsed().as_micros() as u64);
                    break job;
                }
                queue = pool
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        job.participate();
    }
}

/// Run `f` on up to `participants` threads — the calling thread plus up to
/// `participants - 1` pool workers — returning when *every* participant has
/// finished. `f` is called once per participant and is expected to loop
/// claiming work from shared state it captures. Re-raises the caller's
/// panic, else the first worker's, with its original payload.
pub(crate) fn run_parallel(participants: usize, f: &(dyn Fn() + Sync)) {
    debug_assert!(participants >= 2, "serial calls never reach the pool");
    let pool = pool();
    let extra = pool.ensure_workers(participants.saturating_sub(1));
    if extra == 0 {
        // Degenerate override: run in place, still marked parallel.
        let _region = parallel_region();
        let t0 = std::time::Instant::now();
        f();
        obs().busy_us.add(t0.elapsed().as_micros() as u64);
        return;
    }
    obs().jobs.inc();

    // SAFETY: lifetime erasure only. The job can outlive this frame only
    // inside worker threads that are still *running* it, and we block on
    // exactly those below, so the borrow can never dangle.
    let func = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(f) };
    let job = Arc::new(Job {
        func,
        submitted: std::time::Instant::now(),
        tickets: AtomicUsize::new(extra),
        started: AtomicUsize::new(0),
        finished: AtomicUsize::new(0),
        panic: Mutex::new(None),
        done_lock: Mutex::new(()),
        done_cv: Condvar::new(),
    });

    {
        let mut queue = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.push_back(Arc::clone(&job));
        obs().queue_depth.set(queue.len() as i64);
    }
    pool.available.notify_all();

    // The caller is a participant too; its share of the claim loop runs
    // inside the parallel region, so nested calls from it serialize.
    let region = parallel_region();
    let t0 = std::time::Instant::now();
    let caller_panic = catch_unwind(AssertUnwindSafe(f)).err();
    obs().busy_us.add(t0.elapsed().as_micros() as u64);
    drop(region);

    // Cancel unclaimed tickets: workers that have not started by the time
    // the caller drains the cursor would only observe no work left, and the
    // caller must not park waiting for a busy pool to get around to that.
    let started = {
        let mut queue = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
        job.tickets.store(0, Ordering::Relaxed);
        if let Some(pos) = queue.iter().position(|j| Arc::ptr_eq(j, &job)) {
            queue.remove(pos);
        }
        obs().queue_depth.set(queue.len() as i64);
        // No further claims can happen once tickets hit 0 under the lock.
        job.started.load(Ordering::Relaxed)
    };

    let mut guard = job.done_lock.lock().unwrap_or_else(|e| e.into_inner());
    while job.finished.load(Ordering::Acquire) < started {
        guard = job.done_cv.wait(guard).unwrap_or_else(|e| e.into_inner());
    }
    drop(guard);

    let worker_panic = || job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(payload) = caller_panic.or_else(worker_panic) {
        resume_unwind(payload);
    }
}
