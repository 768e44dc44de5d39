//! Fair scheduling of evaluation work across sessions.
//!
//! The daemon hosts many sessions, each measuring its batches on its own
//! worker thread; an unbounded free-for-all would let one chatty session
//! starve the rest and oversubscribe the host's cores. The
//! [`FairScheduler`] bounds how many batches evaluate at once and grants
//! turns in round-robin arrival order: each waiting session gets one batch
//! through before any session gets a second, so N concurrent campaigns
//! make even progress regardless of who connected first.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, OnceLock};

/// Observability handles for the scheduler — the ROADMAP's named fairness
/// counters. Telemetry only; grant order is untouched.
struct SchedMetrics {
    grants: &'static bat_obs::metrics::Counter,
    active: &'static bat_obs::metrics::Gauge,
    queued: &'static bat_obs::metrics::Gauge,
    wait_us: &'static bat_obs::metrics::Histogram,
}

fn obs() -> &'static SchedMetrics {
    use bat_obs::metrics::{counter, gauge, histogram};
    static M: OnceLock<SchedMetrics> = OnceLock::new();
    M.get_or_init(|| SchedMetrics {
        grants: counter(
            "bat_sched_grants_total",
            "Round-robin evaluation slots granted by the fair scheduler.",
        ),
        active: gauge("bat_sched_active", "Turn-holders currently evaluating."),
        queued: gauge(
            "bat_sched_queued",
            "Requests waiting for an evaluation turn.",
        ),
        wait_us: histogram(
            "bat_sched_wait_us",
            "Microseconds a ticket waited from enqueue to slot grant.",
        ),
    })
}

/// A round-robin turn gate over at most `max_concurrent` slots.
pub struct FairScheduler {
    state: Mutex<SchedState>,
    turn: Condvar,
}

struct SchedState {
    /// Tickets in arrival order; the front ticket takes the next free slot.
    queue: VecDeque<u64>,
    /// Monotonic ticket source (a session holds a fresh ticket per turn, so
    /// re-queueing sessions go to the back — that is the round-robin).
    next_ticket: u64,
    /// Turn-holders currently evaluating.
    active: usize,
    /// Slot bound.
    max_concurrent: usize,
}

impl FairScheduler {
    /// A scheduler with `max_concurrent` evaluation slots (clamped ≥ 1).
    pub fn new(max_concurrent: usize) -> FairScheduler {
        FairScheduler {
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                next_ticket: 0,
                active: 0,
                max_concurrent: max_concurrent.max(1),
            }),
            turn: Condvar::new(),
        }
    }

    /// Run `work` inside one evaluation turn: blocks until a slot is free
    /// *and* every earlier-queued request has started, runs, releases.
    pub fn run<T>(&self, work: impl FnOnce() -> T) -> T {
        let enqueued = std::time::Instant::now();
        let ticket = {
            let mut st = self.state.lock().expect("scheduler poisoned");
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.queue.push_back(ticket);
            obs().queued.set(st.queue.len() as i64);
            loop {
                if st.active < st.max_concurrent && st.queue.front() == Some(&ticket) {
                    st.queue.pop_front();
                    st.active += 1;
                    obs().grants.inc();
                    obs().queued.set(st.queue.len() as i64);
                    obs().active.set(st.active as i64);
                    obs().wait_us.observe(enqueued.elapsed().as_micros() as u64);
                    break;
                }
                st = self.turn.wait(st).expect("scheduler poisoned");
            }
            ticket
        };
        let _ = ticket;
        let out = work();
        let mut st = self.state.lock().expect("scheduler poisoned");
        st.active -= 1;
        obs().active.set(st.active as i64);
        drop(st);
        self.turn.notify_all();
        out
    }

    /// Turn-holders currently evaluating (for tests and introspection).
    pub fn active(&self) -> usize {
        self.state.lock().expect("scheduler poisoned").active
    }

    /// Requests waiting for a turn (for tests and introspection).
    pub fn queued(&self) -> usize {
        self.state.lock().expect("scheduler poisoned").queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn concurrency_never_exceeds_the_slot_bound() {
        let sched = Arc::new(FairScheduler::new(2));
        let inside = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let sched = Arc::clone(&sched);
                let inside = Arc::clone(&inside);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        sched.run(|| {
                            let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::yield_now();
                            inside.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2);
        assert_eq!(sched.active(), 0);
    }

    #[test]
    fn turns_run_in_arrival_order_when_serialized() {
        let sched = Arc::new(FairScheduler::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        // Hold the only slot while the others queue up, so their arrival
        // order is fixed before any of them can run.
        let gate = Arc::new((Mutex::new(true), Condvar::new()));
        let holder = {
            let sched = Arc::clone(&sched);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                sched.run(|| {
                    let (lock, cv) = &*gate;
                    let mut held = lock.lock().unwrap();
                    while *held {
                        held = cv.wait(held).unwrap();
                    }
                })
            })
        };
        while sched.active() == 0 {
            std::thread::yield_now();
        }
        let mut waiters = Vec::new();
        for id in 0..4u64 {
            let worker_sched = Arc::clone(&sched);
            let order = Arc::clone(&order);
            waiters.push(std::thread::spawn(move || {
                worker_sched.run(|| order.lock().unwrap().push(id));
            }));
            // Let this waiter enqueue before spawning the next.
            while sched.queued() < id as usize + 1 {
                std::thread::yield_now();
            }
        }
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = false;
        cv.notify_all();
        holder.join().unwrap();
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }
}
