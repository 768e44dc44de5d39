//! The measurement harness shared by all tuners.
//!
//! [`Evaluator`] wraps a [`TuningProblem`] with the suite's measurement
//! protocol: every configuration is "run" `runs` times with deterministic
//! multiplicative noise, aggregated by median, memoized, and counted against
//! an evaluation budget. Because all tuners evaluate through this one type,
//! comparisons between optimization algorithms are apples-to-apples — the
//! paper's core motivation.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::HashMap;

use bat_gpusim::{noise_key, noisy_time_ms, FaultModel};

use crate::error::Error;
use crate::measurement::{EvalFailure, Measurement};
use crate::problem::TuningProblem;

/// Bounded, deterministic retry policy for retryable measurement failures
/// ([`EvalFailure::is_retryable`]): transient flakes and timeouts are
/// re-attempted up to `max_retries` times within one budget-charged
/// evaluation, with a linear backoff priced against the evaluation budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries after the initial attempt of one evaluation.
    pub max_retries: u32,
    /// Backoff cost: the r-th retry charges `1 + backoff_evals · r`
    /// evaluations — the cool-down a real harness would spend sleeping,
    /// expressed in budget currency so chaos campaigns stay comparable.
    pub backoff_evals: u32,
    /// Quarantine a configuration after this many observed crashes: further
    /// proposals fail immediately with [`EvalFailure::Crash`] instead of
    /// re-executing a known device-killer. `0` disables quarantine.
    pub quarantine_after: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_evals: 0,
            quarantine_after: 3,
        }
    }
}

/// Per-configuration fault ledger: measurement attempts consumed (the
/// deterministic fault-draw counter) and crash strikes toward quarantine.
#[derive(Default)]
struct FaultEntry {
    attempts: u64,
    crashes: u32,
    quarantined: bool,
}

/// Installed fault-injection state: the model, the retry policy and the
/// per-configuration attempt/strike ledger. Every evaluator has one; the
/// default [`FaultModel::disabled`] injects nothing.
struct FaultInjection {
    model: FaultModel,
    policy: RetryPolicy,
    /// `model.salt_for(noise salt)`, fixed at construction.
    salt: u64,
    /// The model can flake, time out or crash. Only then do attempt
    /// numbers and crash strikes matter, so only then is `ledger` kept.
    can_fail: bool,
    ledger: Mutex<HashMap<u64, FaultEntry>>,
}

impl FaultInjection {
    fn new(model: FaultModel, policy: RetryPolicy, noise_salt: u64) -> Self {
        FaultInjection {
            model,
            policy,
            salt: model.salt_for(noise_salt),
            can_fail: model.transient_rate > 0.0
                || model.timeout_rate > 0.0
                || model.crash_rate > 0.0,
            ledger: Mutex::new(HashMap::new()),
        }
    }
}

/// Measurement-protocol settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Protocol {
    /// Runs per configuration (the paper-style protocol uses several runs
    /// and a robust aggregate).
    pub runs: u32,
    /// Relative run-to-run noise (σ of the multiplicative factor).
    pub sigma: f64,
    /// Seed folded into the deterministic noise.
    pub seed: u64,
    /// Measurement parallelism: how many configurations the evaluation
    /// side measures per step of the ask/tell protocol (step-driven tuners
    /// ask up to this many candidates before seeing any result). `1` is
    /// the classic strictly-serial protocol; values are clamped to ≥ 1.
    pub batch: u32,
}

impl Default for Protocol {
    fn default() -> Self {
        Protocol {
            runs: 5,
            sigma: 0.01,
            seed: 0,
            batch: 1,
        }
    }
}

impl Protocol {
    /// A protocol with zero noise and a single run (pure model output).
    pub fn noiseless() -> Self {
        Protocol {
            runs: 1,
            sigma: 0.0,
            seed: 0,
            batch: 1,
        }
    }

    /// The same protocol with a different measurement parallelism.
    pub fn with_batch(mut self, batch: u32) -> Self {
        self.batch = batch;
        self
    }

    /// The validated measurement parallelism (never 0).
    pub fn batch(&self) -> usize {
        self.batch.max(1) as usize
    }
}

/// Number of independent memo-cache shards. Tuners running under rayon hit
/// the cache from many threads; index-keyed sharding keeps them from
/// serializing on one global mutex.
const CACHE_SHARDS: usize = 64;

thread_local! {
    /// Per-thread configuration decode scratch: measurement sits in every
    /// tuner's inner loop, so the per-call `Vec<i64>` is hoisted here.
    static CONFIG_SCRATCH: RefCell<Vec<i64>> = const { RefCell::new(Vec::new()) };

    /// Reusable dedup scratch: the ask/tell driver calls `evaluate_batch`
    /// once per generation, so its bookkeeping buffers are hoisted here
    /// instead of being reallocated per call.
    static BATCH_SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::default());
}

/// Scratch buffers reused across `evaluate_batch` calls on one thread.
#[derive(Default)]
struct BatchScratch {
    /// Unique memo-missing indices, in first-occurrence order.
    to_measure: Vec<u64>,
    /// `(output position, to_measure slot)` for every memo miss.
    occurrences: Vec<(usize, usize)>,
    /// Index → `to_measure` slot.
    slot_of: HashMap<u64, usize>,
}

/// Salt folded into the energy noise stream so a configuration's energy
/// samples scatter independently of its time samples (a real power meter
/// does not jitter in lockstep with the wall clock).
const ENERGY_NOISE_STREAM: u64 = 0x656e_6572_6779_u64; // "energy"

/// Process-global observability handles for the evaluator hot path,
/// registered once and cached so the registry lock is off the hot path.
/// Strictly out-of-band: these tallies aggregate over *every* evaluator in
/// the process (the per-instance [`AtomicU64`] counters below remain the
/// budget/artifact source of truth) and never feed back into outcomes.
struct EvalMetrics {
    evals: &'static bat_obs::metrics::Counter,
    batches: &'static bat_obs::metrics::Counter,
    memo_hits: &'static bat_obs::metrics::Counter,
    dedup_hits: &'static bat_obs::metrics::Counter,
    measured: &'static bat_obs::metrics::Counter,
    retries_transient: &'static bat_obs::metrics::Counter,
    retries_timeout: &'static bat_obs::metrics::Counter,
    backoff_charged: &'static bat_obs::metrics::Counter,
    crashes: &'static bat_obs::metrics::Counter,
    quarantined: &'static bat_obs::metrics::Counter,
}

fn obs() -> &'static EvalMetrics {
    use bat_obs::metrics::counter;
    static M: std::sync::OnceLock<EvalMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| EvalMetrics {
        evals: counter(
            "bat_eval_evals_total",
            "Evaluations charged against budgets (incl. retry backoff), all evaluators.",
        ),
        batches: counter(
            "bat_eval_batches_total",
            "Evaluation batches (a single evaluation is a batch of one).",
        ),
        memo_hits: counter(
            "bat_eval_memo_hits_total",
            "Evaluations served from the memo cache.",
        ),
        dedup_hits: counter(
            "bat_eval_dedup_hits_total",
            "Duplicate in-batch occurrences measured once by batch dedup.",
        ),
        measured: counter(
            "bat_eval_measured_total",
            "Configurations actually decoded and measured (one per retry chain).",
        ),
        retries_transient: counter(
            "bat_eval_retries_transient_total",
            "Retries spent on transient measurement failures.",
        ),
        retries_timeout: counter(
            "bat_eval_retries_timeout_total",
            "Retries spent on measurement timeouts.",
        ),
        backoff_charged: counter(
            "bat_eval_backoff_evals_total",
            "Extra evaluations charged as linear retry backoff.",
        ),
        crashes: counter(
            "bat_eval_crashes_total",
            "Crash outcomes observed (quarantine strikes).",
        ),
        quarantined: counter(
            "bat_eval_quarantined_total",
            "Configurations quarantined after repeated crashes.",
        ),
    })
}

/// The evaluation harness: memoization + noise + budget accounting. Built
/// through [`Evaluator::builder`].
pub struct Evaluator<'p> {
    problem: &'p dyn TuningProblem,
    protocol: Protocol,
    /// `mix(problem.noise_salt(), protocol.seed)`, fixed at construction —
    /// the problem name/platform hash is not worth redoing per measurement.
    noise_salt: u64,
    measure_energy: bool,
    cache_enabled: bool,
    cache: Vec<Mutex<HashMap<u64, Result<Measurement, EvalFailure>>>>,
    faults: FaultInjection,
    evals: AtomicU64,
    distinct: AtomicU64,
    retries: AtomicU64,
    quarantined: AtomicU64,
    budget: Option<u64>,
}

impl<'p> Evaluator<'p> {
    /// Start building an evaluator for `problem` — the only way to
    /// construct one, shared by in-process use and the tuning server.
    pub fn builder(problem: &'p dyn TuningProblem) -> EvaluatorBuilder<'p> {
        EvaluatorBuilder::new(problem)
    }

    /// The cache shard responsible for `index` (multiplicative hash so
    /// consecutive indices — the common tuner access pattern — spread
    /// across shards).
    #[inline]
    fn shard(&self, index: u64) -> &Mutex<HashMap<u64, Result<Measurement, EvalFailure>>> {
        let mixed = index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.cache[(mixed >> 58) as usize % CACHE_SHARDS]
    }

    /// The wrapped problem.
    pub fn problem(&self) -> &dyn TuningProblem {
        self.problem
    }

    /// The measurement protocol (the step driver reads its `batch` knob).
    pub fn protocol(&self) -> &Protocol {
        &self.protocol
    }

    /// Number of evaluations performed so far (every call counts, cached or
    /// not — on real hardware a revisited configuration still spends budget
    /// unless the tuner itself deduplicates).
    pub fn evals_used(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// Number of *distinct* configurations measured.
    pub fn distinct_evals(&self) -> u64 {
        self.distinct.load(Ordering::Relaxed)
    }

    /// Number of retries spent on retryable measurement failures.
    pub fn retries_used(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Number of configurations quarantined after repeated crashes.
    pub fn quarantined_configs(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Remaining budget, if a budget is set.
    pub fn budget_left(&self) -> Option<u64> {
        self.budget.map(|b| b.saturating_sub(self.evals_used()))
    }

    /// True when another evaluation may be performed.
    pub fn has_budget(&self) -> bool {
        self.budget_left().is_none_or(|left| left > 0)
    }

    /// Evaluate a configuration by dense index: a batch of one. Returns
    /// `None` when the budget is exhausted.
    pub fn evaluate_index(&self, index: u64) -> Option<Result<Measurement, EvalFailure>> {
        self.evaluate_batch(std::slice::from_ref(&index)).pop()
    }

    /// Evaluate a configuration by value vector. Returns `None` when the
    /// budget is exhausted. Configurations with values outside the space are
    /// reported as [`EvalFailure::Restricted`] (and still spend budget).
    pub fn evaluate_config(&self, config: &[i64]) -> Option<Result<Measurement, EvalFailure>> {
        match self.problem.space().index_of(config) {
            Some(idx) => self.evaluate_index(idx),
            None => (self.claim(1) == 1).then_some(Err(EvalFailure::Restricted)),
        }
    }

    /// Claim up to `want` evaluations from the budget in one
    /// compare-and-swap transaction; returns how many were granted.
    /// Concurrent callers can never spend past the budget together.
    fn claim(&self, want: u64) -> u64 {
        let claimed = match self.budget {
            None => {
                self.evals.fetch_add(want, Ordering::Relaxed);
                want
            }
            Some(budget) => loop {
                let used = self.evals.load(Ordering::Relaxed);
                let claim = budget.saturating_sub(used).min(want);
                if claim == 0 {
                    break 0;
                }
                if self
                    .evals
                    .compare_exchange(used, used + claim, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    break claim;
                }
            },
        };
        obs().evals.add(claimed);
        claimed
    }

    /// Evaluate a batch of configurations by dense index — the measurement
    /// side of the ask/tell protocol, and the evaluator's one evaluation
    /// path.
    ///
    /// Semantically equivalent to evaluating each element in order (same
    /// results, same budget accounting, same memo/distinct state), but:
    ///
    /// * the budget is claimed **once** for the whole batch;
    /// * memo hits are served first, and duplicate misses within the batch
    ///   run one retry chain (each occurrence still spends budget, exactly
    ///   as the memo serves serial repeats);
    /// * each unique miss runs its whole retry chain on one pool worker, so
    ///   per-configuration attempt numbers never depend on thread count.
    ///
    /// Without memoization every occurrence measures; under a model that
    /// can fail, those chains run in batch order so repeats draw their
    /// attempt numbers in order.
    ///
    /// The returned vector holds one outcome per element until the budget
    /// ran out: if only `k` evaluations were affordable, it has length `k`.
    pub fn evaluate_batch(&self, indices: &[u64]) -> Vec<Result<Measurement, EvalFailure>> {
        let claimed = self.claim(indices.len() as u64) as usize;
        if claimed == 0 {
            return Vec::new();
        }
        let indices = &indices[..claimed];
        obs().batches.inc();
        let mut batch_span = bat_obs::trace::span("batch");
        batch_span.record_u64("size", claimed as u64);

        if !self.cache_enabled {
            let out: Vec<_> = if self.faults.can_fail {
                indices.iter().map(|&idx| self.measure_chain(idx)).collect()
            } else {
                (0..claimed)
                    .into_par_iter()
                    .map(|k| self.measure_chain(indices[k]))
                    .collect()
            };
            self.distinct.fetch_add(claimed as u64, Ordering::Relaxed);
            obs().measured.add(claimed as u64);
            batch_span.record_u64("measured", claimed as u64);
            return out;
        }

        BATCH_SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            scratch.to_measure.clear();
            scratch.occurrences.clear();
            scratch.slot_of.clear();

            // Partition into memo hits and a deduplicated measurement list
            // in first-occurrence order. Every placeholder below is
            // overwritten: each position is a hit or in `occurrences`.
            let mut out: Vec<Result<Measurement, EvalFailure>> =
                vec![Err(EvalFailure::Restricted); claimed];
            for (i, &idx) in indices.iter().enumerate() {
                if let Some(hit) = self.shard(idx).lock().get(&idx) {
                    out[i] = hit.clone();
                    continue;
                }
                let slot = *scratch.slot_of.entry(idx).or_insert_with(|| {
                    scratch.to_measure.push(idx);
                    scratch.to_measure.len() - 1
                });
                scratch.occurrences.push((i, slot));
            }
            let memo_hits = (claimed - scratch.occurrences.len()) as u64;
            let dedup_hits = (scratch.occurrences.len() - scratch.to_measure.len()) as u64;
            let measured = scratch.to_measure.len() as u64;
            obs().memo_hits.add(memo_hits);
            obs().dedup_hits.add(dedup_hits);
            obs().measured.add(measured);
            batch_span.record_u64("memo_hits", memo_hits);
            batch_span.record_u64("dedup_hits", dedup_hits);
            batch_span.record_u64("measured", measured);

            let to_measure = &scratch.to_measure;
            let results: Vec<Result<Measurement, EvalFailure>> = (0..to_measure.len())
                .into_par_iter()
                .map(|k| self.measure_chain(to_measure[k]))
                .collect();

            // Publish deterministic outcomes: a cached flake would be
            // permanent, and crashes stay uncached so repeat proposals keep
            // striking toward quarantine. A model that can fail counts new
            // configurations in its ledger (their failures never reach the
            // memo); otherwise a configuration is new exactly when its memo
            // entry is, which also counts it once under racing batches.
            let mut distinct = 0;
            for (&idx, result) in to_measure.iter().zip(&results) {
                let cacheable = !matches!(
                    result,
                    Err(EvalFailure::Transient(_) | EvalFailure::Timeout | EvalFailure::Crash(_))
                );
                if cacheable {
                    if let std::collections::hash_map::Entry::Vacant(e) =
                        self.shard(idx).lock().entry(idx)
                    {
                        e.insert(result.clone());
                        distinct += u64::from(!self.faults.can_fail);
                    }
                }
            }
            self.distinct.fetch_add(distinct, Ordering::Relaxed);
            for &(i, slot) in &scratch.occurrences {
                out[i] = results[slot].clone();
            }
            out
        })
    }

    /// One budget-charged measurement of `index`: a bounded retry chain
    /// over measurement attempts. Without a model that can fail, that is a
    /// single attempt and no ledger is touched.
    fn measure_chain(&self, index: u64) -> Result<Measurement, EvalFailure> {
        let faults = &self.faults;
        if !faults.can_fail {
            return self.measure(index, 0);
        }
        let mut first_ever = false;
        let mut retry: u32 = 0;
        let outcome = loop {
            // Claim the next attempt number (or observe quarantine) under
            // the ledger lock; the measurement itself runs outside it.
            let attempt = {
                let mut ledger = faults.ledger.lock();
                let entry = ledger.entry(index).or_default();
                if entry.quarantined {
                    None
                } else {
                    let a = entry.attempts;
                    first_ever |= a == 0;
                    entry.attempts += 1;
                    Some(a)
                }
            };
            let result = match attempt {
                None => Err(EvalFailure::Crash("quarantined configuration".into())),
                Some(attempt) => {
                    let r = self.measure(index, attempt);
                    if matches!(r, Err(EvalFailure::Crash(_))) {
                        obs().crashes.inc();
                        let mut ledger = faults.ledger.lock();
                        let entry = ledger.entry(index).or_default();
                        entry.crashes += 1;
                        if !entry.quarantined
                            && faults.policy.quarantine_after > 0
                            && entry.crashes >= faults.policy.quarantine_after
                        {
                            entry.quarantined = true;
                            self.quarantined.fetch_add(1, Ordering::Relaxed);
                            obs().quarantined.inc();
                        }
                    }
                    r
                }
            };
            match &result {
                Err(f) if f.is_retryable() && retry < faults.policy.max_retries => {
                    retry += 1;
                    // The r-th retry charges `1 + backoff_evals · r`: the
                    // re-measurement plus a linear cool-down, priced in
                    // budget currency. Charged unconditionally — never
                    // budget-gated — so concurrent workers cannot disagree
                    // on whether a retry happened; the budget overshoots by
                    // at most one bounded retry chain.
                    let backoff = u64::from(faults.policy.backoff_evals) * u64::from(retry);
                    self.evals.fetch_add(1 + backoff, Ordering::Relaxed);
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    obs().evals.add(1 + backoff);
                    obs().backoff_charged.add(backoff);
                    match f {
                        EvalFailure::Timeout => obs().retries_timeout.inc(),
                        _ => obs().retries_transient.inc(),
                    }
                }
                _ => break result,
            }
        };
        // Memoized evaluators count a configuration once, on its first
        // attempt; without the memo `evaluate_batch` counts every chain.
        if first_ever && self.cache_enabled {
            self.distinct.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Decode `index` into the thread-local scratch and run measurement
    /// attempt `attempt` under the fault model. Deterministic model
    /// failures (restriction, launch) pass through untouched; then the
    /// sticky crash set, the per-attempt transient and timeout draws, and
    /// finally per-run outlier corruption — keyed independently of the
    /// attempt counter, so a retried success reproduces exactly the samples
    /// an undisturbed first attempt would have yielded. The disabled model
    /// fires none of them.
    fn measure(&self, index: u64, attempt: u64) -> Result<Measurement, EvalFailure> {
        let space = self.problem.space();
        CONFIG_SCRATCH.with(|s| {
            let mut config = s.borrow_mut();
            config.resize(space.num_params(), 0);
            space.decode_into(index, &mut config);
            let (pure, pure_energy) = if self.measure_energy {
                self.problem.evaluate_pure2(&config)?
            } else {
                (self.problem.evaluate_pure(&config)?, None)
            };
            let faults = &self.faults;
            let (model, fsalt) = (&faults.model, faults.salt);
            if model.is_crasher(fsalt, index) {
                return Err(EvalFailure::Crash("simulated device crash".into()));
            }
            if model.transient_fires(fsalt, index, attempt) {
                return Err(EvalFailure::Transient("simulated launch flake".into()));
            }
            if model.timeout_fires(fsalt, index, attempt) {
                return Err(EvalFailure::Timeout);
            }
            let salt = self.noise_salt;
            // Samples stream straight into the measurement's inline storage:
            // no `Vec` is built for protocols that fit inline (runs ≤ 8).
            let m = Measurement::from_samples((0..self.protocol.runs).map(|run| {
                let s = noisy_time_ms(pure, self.protocol.sigma, noise_key(salt, index, run));
                model.corrupt_sample(fsalt, index, run, s)
            }));
            Ok(match pure_energy {
                Some(e) => {
                    // Same noise discipline as the runtimes, on an
                    // independent deterministic stream.
                    let esalt = bat_gpusim::mix(salt, ENERGY_NOISE_STREAM);
                    m.with_energy_samples((0..self.protocol.runs).map(|run| {
                        noisy_time_ms(e, self.protocol.sigma, noise_key(esalt, index, run))
                    }))
                }
                None => m,
            })
        })
    }
}

/// The only constructor of [`Evaluator`] — shared by in-process callers
/// and the tuning server's session setup, so both reject nonsense
/// protocols (`runs == 0`, negative or non-finite `sigma`) with a typed
/// [`Error::Spec`] before any measurement happens.
///
/// ```
/// use bat_core::{Evaluator, Protocol, SyntheticProblem};
/// use bat_space::{ConfigSpace, Param};
///
/// let space = ConfigSpace::builder()
///     .param(Param::int_range("x", 0, 7))
///     .build()
///     .unwrap();
/// let problem = SyntheticProblem::new("p", "sim", space, |c| Ok(1.0 + c[0] as f64));
/// let eval = Evaluator::builder(&problem)
///     .protocol(Protocol::noiseless())
///     .budget(10)
///     .build()
///     .unwrap();
/// assert_eq!(eval.budget_left(), Some(10));
/// ```
pub struct EvaluatorBuilder<'p> {
    problem: &'p dyn TuningProblem,
    protocol: Protocol,
    budget: Option<u64>,
    energy: bool,
    cache: bool,
    faults: (FaultModel, RetryPolicy),
    threads: Option<usize>,
}

impl<'p> EvaluatorBuilder<'p> {
    fn new(problem: &'p dyn TuningProblem) -> Self {
        EvaluatorBuilder {
            problem,
            protocol: Protocol::default(),
            budget: None,
            energy: false,
            cache: true,
            faults: (FaultModel::disabled(), RetryPolicy::default()),
            threads: None,
        }
    }

    /// Use this measurement protocol (default: [`Protocol::default`]).
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Limit the number of `evaluate*` calls (default: unlimited). Calls
    /// past the budget return `None`.
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Also measure the energy objective: measurements carry `energy_mj` /
    /// `energy_samples` whenever the problem's
    /// [`TuningProblem::evaluate_pure2`] reports an energy (default: off,
    /// keeping time-only artifacts bit-identical to the pre-energy suite).
    pub fn energy(mut self, energy: bool) -> Self {
        self.energy = energy;
        self
    }

    /// Enable or disable memoization (default: enabled; disabling is the
    /// ablation mode where every call re-measures).
    pub fn cache(mut self, cache: bool) -> Self {
        self.cache = cache;
        self
    }

    /// Install a fault model and retry policy (default:
    /// [`FaultModel::disabled`], which injects nothing). Measurements run
    /// as bounded retry chains: retryable failures (transient, timeout) are
    /// re-attempted per `policy`, never memoized, and configurations that
    /// crash `policy.quarantine_after` times are quarantined.
    pub fn faults(mut self, model: FaultModel, policy: RetryPolicy) -> Self {
        self.faults = (model, policy);
        self
    }

    /// Size the measurement worker pool. **Process-global**: resolves the
    /// shared rayon pool to `threads` workers for every evaluator in the
    /// process, and only before the pool's first use (later calls are
    /// ignored by the pool, exactly like the `BAT_THREADS` variable).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Validate and construct the evaluator.
    ///
    /// Fails with [`Error::Spec`] when the protocol cannot measure
    /// anything: zero runs, non-finite or negative noise, or a zero-sized
    /// worker pool.
    pub fn build(self) -> Result<Evaluator<'p>, Error> {
        if self.protocol.runs == 0 {
            return Err(Error::spec("protocol runs must be >= 1"));
        }
        if !self.protocol.sigma.is_finite() || self.protocol.sigma < 0.0 {
            return Err(Error::spec(format!(
                "protocol sigma must be finite and >= 0, got {}",
                self.protocol.sigma
            )));
        }
        if self.threads == Some(0) {
            return Err(Error::spec("thread count must be >= 1"));
        }
        if let Some(threads) = self.threads {
            rayon::set_global_threads(threads);
        }
        let (model, policy) = self.faults;
        let noise_salt = bat_gpusim::mix(self.problem.noise_salt(), self.protocol.seed);
        Ok(Evaluator {
            problem: self.problem,
            protocol: self.protocol,
            noise_salt,
            measure_energy: self.energy,
            cache_enabled: self.cache,
            cache: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            faults: FaultInjection::new(model, policy, noise_salt),
            evals: AtomicU64::new(0),
            distinct: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            budget: self.budget,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SyntheticProblem;
    use bat_space::{ConfigSpace, Param};

    fn problem() -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, EvalFailure> + Send + Sync> {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 9))
            .restrict("x != 5")
            .build()
            .unwrap();
        SyntheticProblem::new("p", "sim", space, |c| Ok(1.0 + c[0] as f64))
    }

    #[test]
    fn evaluation_is_deterministic() {
        let p = problem();
        let e1 = Evaluator::builder(&p).build().unwrap();
        let e2 = Evaluator::builder(&p).build().unwrap();
        let a = e1.evaluate_index(3).unwrap().unwrap();
        let b = e2.evaluate_index(3).unwrap().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cache_returns_identical_measurements() {
        let p = problem();
        let e = Evaluator::builder(&p).build().unwrap();
        let a = e.evaluate_index(2).unwrap().unwrap();
        let b = e.evaluate_index(2).unwrap().unwrap();
        assert_eq!(a, b);
        assert_eq!(e.evals_used(), 2);
        assert_eq!(e.distinct_evals(), 1);
    }

    #[test]
    fn budget_is_enforced() {
        let p = problem();
        let e = Evaluator::builder(&p).budget(2).build().unwrap();
        assert!(e.evaluate_index(0).is_some());
        assert!(e.evaluate_index(1).is_some());
        assert!(e.evaluate_index(2).is_none());
        assert_eq!(e.evals_used(), 2);
    }

    #[test]
    fn restricted_config_reports_failure() {
        let p = problem();
        let e = Evaluator::builder(&p).build().unwrap();
        let r = e.evaluate_config(&[5]).unwrap();
        assert_eq!(r, Err(EvalFailure::Restricted));
    }

    #[test]
    fn out_of_space_value_is_restricted() {
        let p = problem();
        let e = Evaluator::builder(&p).build().unwrap();
        let r = e.evaluate_config(&[99]).unwrap();
        assert_eq!(r, Err(EvalFailure::Restricted));
        assert_eq!(e.evals_used(), 1);
    }

    #[test]
    fn noiseless_protocol_returns_pure_times() {
        let p = problem();
        let e = Evaluator::builder(&p)
            .protocol(Protocol::noiseless())
            .build()
            .unwrap();
        let m = e.evaluate_config(&[4]).unwrap().unwrap();
        assert_eq!(m.time_ms, 5.0);
        assert_eq!(m.samples, vec![5.0]);
    }

    #[test]
    fn noisy_protocol_produces_spread_but_stable_median() {
        let p = problem();
        let e = Evaluator::builder(&p)
            .protocol(Protocol {
                runs: 7,
                sigma: 0.02,
                seed: 9,
                ..Protocol::default()
            })
            .build()
            .unwrap();
        let m = e.evaluate_config(&[4]).unwrap().unwrap();
        assert_eq!(m.samples.len(), 7);
        assert!((m.time_ms - 5.0).abs() < 0.5);
        let spread = m.samples.iter().cloned().fold(f64::MIN, f64::max)
            - m.samples.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 0.0);
    }

    #[test]
    fn energy_is_measured_only_on_request() {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 9))
            .build()
            .unwrap();
        // A two-objective problem: energy = 10 × time.
        let p = EnergyProblem { space };
        let plain = Evaluator::builder(&p)
            .protocol(Protocol::noiseless())
            .build()
            .unwrap();
        let m = plain.evaluate_index(3).unwrap().unwrap();
        assert_eq!(m.energy_mj, None);

        let energetic = Evaluator::builder(&p)
            .protocol(Protocol::noiseless())
            .energy(true)
            .build()
            .unwrap();
        let m = energetic.evaluate_index(3).unwrap().unwrap();
        assert_eq!(m.time_ms, 4.0);
        assert_eq!(m.energy_mj, Some(40.0));
        assert_eq!(m.energy_samples, vec![40.0]);
    }

    #[test]
    fn energy_noise_stream_is_independent_of_time_noise() {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 9))
            .build()
            .unwrap();
        let p = EnergyProblem { space };
        let e = Evaluator::builder(&p)
            .protocol(Protocol {
                runs: 5,
                sigma: 0.05,
                seed: 1,
                ..Protocol::default()
            })
            .energy(true)
            .build()
            .unwrap();
        let m = e.evaluate_index(2).unwrap().unwrap();
        // Were the streams shared, every energy sample would be exactly
        // 10 × its time sample (identical multiplicative factors).
        let lockstep = m
            .samples
            .iter()
            .zip(&m.energy_samples)
            .all(|(t, en)| (en / t - 10.0).abs() < 1e-12);
        assert!(!lockstep, "energy noise mirrors time noise");
        // Determinism still holds.
        let m2 = e.evaluate_index(2).unwrap().unwrap();
        assert_eq!(m, m2);
    }

    struct EnergyProblem {
        space: ConfigSpace,
    }

    impl TuningProblem for EnergyProblem {
        fn name(&self) -> &str {
            "energetic"
        }
        fn platform(&self) -> &str {
            "sim"
        }
        fn space(&self) -> &ConfigSpace {
            &self.space
        }
        fn evaluate_pure(&self, config: &[i64]) -> Result<f64, EvalFailure> {
            Ok(1.0 + config[0] as f64)
        }
        fn evaluate_pure2(&self, config: &[i64]) -> Result<(f64, Option<f64>), EvalFailure> {
            let t = self.evaluate_pure(config)?;
            Ok((t, Some(10.0 * t)))
        }
    }

    #[test]
    fn sharded_cache_counts_distinct_once_under_threads() {
        let p = problem();
        let e = Evaluator::builder(&p).build().unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for idx in 0..10u64 {
                        let m = e.evaluate_index(idx).unwrap();
                        // Re-reads must observe the identical outcome
                        // (index 5 is restricted; its failure caches too).
                        assert_eq!(e.evaluate_index(idx).unwrap(), m);
                    }
                });
            }
        });
        assert_eq!(e.distinct_evals(), 10);
        assert_eq!(e.evals_used(), 80);
    }

    #[test]
    fn batch_matches_serial_results_and_accounting() {
        let p = problem();
        let serial = Evaluator::builder(&p).build().unwrap();
        let batched = Evaluator::builder(&p).build().unwrap();
        let indices = [3u64, 5, 3, 8, 8, 1];
        let expect: Vec<_> = indices
            .iter()
            .map(|&i| serial.evaluate_index(i).unwrap())
            .collect();
        let got = batched.evaluate_batch(&indices);
        assert_eq!(got, expect);
        assert_eq!(batched.evals_used(), serial.evals_used());
        assert_eq!(batched.distinct_evals(), serial.distinct_evals());
        // Memo state matches: a later serial probe returns the cached value
        // without growing `distinct`.
        let before = batched.distinct_evals();
        assert_eq!(
            batched.evaluate_index(3).unwrap(),
            serial.evaluate_index(3).unwrap()
        );
        assert_eq!(batched.distinct_evals(), before);
    }

    #[test]
    fn batch_truncates_at_the_budget_with_one_claim() {
        let p = problem();
        let e = Evaluator::builder(&p).budget(4).build().unwrap();
        let got = e.evaluate_batch(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(got.len(), 4);
        assert_eq!(e.evals_used(), 4);
        assert!(!e.has_budget());
        assert!(e.evaluate_batch(&[6]).is_empty());
        assert_eq!(e.evals_used(), 4);
    }

    #[test]
    fn batch_without_cache_measures_every_occurrence() {
        let p = problem();
        let e = Evaluator::builder(&p).cache(false).build().unwrap();
        let got = e.evaluate_batch(&[2, 2, 2]);
        assert_eq!(got.len(), 3);
        assert_eq!(e.distinct_evals(), 3);
        assert_eq!(e.evals_used(), 3);
    }

    #[test]
    fn without_cache_recounts_distinct() {
        let p = problem();
        let e = Evaluator::builder(&p).cache(false).build().unwrap();
        e.evaluate_index(1).unwrap().unwrap();
        e.evaluate_index(1).unwrap().unwrap();
        assert_eq!(e.distinct_evals(), 2);
    }

    #[test]
    fn empty_batch_is_free() {
        let p = problem();
        let e = Evaluator::builder(&p).budget(1).build().unwrap();
        assert!(e.evaluate_batch(&[]).is_empty());
        assert_eq!(e.evals_used(), 0);
    }

    /// Two threads start together and evaluate through `eval` until a
    /// shared budget of 20 runs out; together they must get exactly 20
    /// outcomes and spend exactly 20 evaluations, every repetition.
    fn race_budget(
        eval: impl Fn(&Evaluator<'_>) -> Option<Result<Measurement, EvalFailure>> + Sync,
    ) {
        let p = problem();
        for _ in 0..2_000 {
            let e = Evaluator::builder(&p).budget(20).build().unwrap();
            let start = std::sync::Barrier::new(2);
            let got: usize = std::thread::scope(|s| {
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            std::iter::from_fn(|| eval(&e)).count()
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum()
            });
            assert_eq!((got, e.evals_used()), (20, 20), "budget overspent");
        }
    }

    #[test]
    fn concurrent_evaluate_index_never_overspends() {
        race_budget(|e| e.evaluate_index(3));
    }

    #[test]
    fn concurrent_out_of_space_configs_never_overspend() {
        race_budget(|e| e.evaluate_config(&[99]));
    }

    #[test]
    fn different_seeds_change_samples() {
        let p = problem();
        let e1 = Evaluator::builder(&p)
            .protocol(Protocol {
                runs: 3,
                sigma: 0.05,
                seed: 1,
                ..Protocol::default()
            })
            .build()
            .unwrap();
        let e2 = Evaluator::builder(&p)
            .protocol(Protocol {
                runs: 3,
                sigma: 0.05,
                seed: 2,
                ..Protocol::default()
            })
            .build()
            .unwrap();
        let a = e1.evaluate_index(3).unwrap().unwrap();
        let b = e2.evaluate_index(3).unwrap().unwrap();
        assert_ne!(a.samples, b.samples);
    }

    // --- fault injection -------------------------------------------------

    /// A roomy, restriction-free space so fault-draw searches have indices
    /// to sift through.
    fn wide_problem() -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, EvalFailure> + Send + Sync>
    {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 4095))
            .build()
            .unwrap();
        SyntheticProblem::new("wide", "sim", space, |c| Ok(1.0 + c[0] as f64))
    }

    /// The fault salt an evaluator over `p` with `protocol` derives.
    fn fault_salt(p: &dyn TuningProblem, protocol: &Protocol, model: &FaultModel) -> u64 {
        model.salt_for(bat_gpusim::mix(p.noise_salt(), protocol.seed))
    }

    #[test]
    fn attached_zero_rate_model_changes_nothing() {
        let p = problem();
        let plain = Evaluator::builder(&p).build().unwrap();
        let faulty = Evaluator::builder(&p)
            .faults(
                FaultModel {
                    seed: 7,
                    ..FaultModel::disabled()
                },
                RetryPolicy::default(),
            )
            .build()
            .unwrap();
        for idx in 0..10 {
            assert_eq!(plain.evaluate_index(idx), faulty.evaluate_index(idx));
        }
        assert_eq!(plain.evals_used(), faulty.evals_used());
        assert_eq!(plain.distinct_evals(), faulty.distinct_evals());
        assert_eq!(faulty.retries_used(), 0);
        assert_eq!(faulty.quarantined_configs(), 0);
    }

    #[test]
    fn transient_fault_then_success_converges_without_retries() {
        // Regression for the memo-cache split: with retries disabled, a
        // transient failure must NOT be cached — the next call re-attempts
        // and succeeds, and only then is the success memoized.
        let p = wide_problem();
        let protocol = Protocol::default();
        let model = FaultModel {
            transient_rate: 0.4,
            seed: 11,
            ..FaultModel::disabled()
        };
        let salt = fault_salt(&p, &protocol, &model);
        let idx = (0..4096u64)
            .find(|&i| model.transient_fires(salt, i, 0) && !model.transient_fires(salt, i, 1))
            .expect("some config flakes on attempt 0 only");
        let e = Evaluator::builder(&p)
            .protocol(protocol)
            .faults(
                model,
                RetryPolicy {
                    max_retries: 0,
                    ..RetryPolicy::default()
                },
            )
            .build()
            .unwrap();
        let first = e.evaluate_index(idx).unwrap();
        assert!(matches!(first, Err(EvalFailure::Transient(_))), "{first:?}");
        let second = e.evaluate_index(idx).unwrap();
        let m = second.expect("attempt 1 succeeds");
        // The success is what gets memoized — and it matches the fault-free
        // measurement byte for byte (outliers are off).
        let clean = Evaluator::builder(&p)
            .build()
            .unwrap()
            .evaluate_index(idx)
            .unwrap()
            .unwrap();
        assert_eq!(m, clean);
        assert_eq!(e.evaluate_index(idx).unwrap().unwrap(), m);
        assert_eq!(e.distinct_evals(), 1);
        assert_eq!(e.evals_used(), 3);
        assert_eq!(e.retries_used(), 0);
    }

    #[test]
    fn retries_recover_within_one_evaluation() {
        let p = wide_problem();
        let protocol = Protocol::default();
        let model = FaultModel {
            transient_rate: 0.4,
            seed: 3,
            ..FaultModel::disabled()
        };
        let salt = fault_salt(&p, &protocol, &model);
        let idx = (0..4096u64)
            .find(|&i| model.transient_fires(salt, i, 0) && !model.transient_fires(salt, i, 1))
            .unwrap();
        let e = Evaluator::builder(&p)
            .protocol(protocol)
            .faults(model, RetryPolicy::default())
            .build()
            .unwrap();
        let m = e.evaluate_index(idx).unwrap().expect("retry recovers");
        let clean = Evaluator::builder(&p)
            .build()
            .unwrap()
            .evaluate_index(idx)
            .unwrap()
            .unwrap();
        assert_eq!(m, clean, "retried success must reproduce clean samples");
        assert_eq!(e.retries_used(), 1);
        // Initial charge + one zero-backoff retry.
        assert_eq!(e.evals_used(), 2);
    }

    #[test]
    fn exhausted_retries_report_the_failure_and_charge_backoff() {
        let p = wide_problem();
        let protocol = Protocol::default();
        let model = FaultModel {
            transient_rate: 0.4,
            seed: 5,
            ..FaultModel::disabled()
        };
        let salt = fault_salt(&p, &protocol, &model);
        let idx = (0..4096u64)
            .find(|&i| (0..3).all(|a| model.transient_fires(salt, i, a)))
            .expect("some config flakes three times running");
        let e = Evaluator::builder(&p)
            .protocol(protocol)
            .faults(
                model,
                RetryPolicy {
                    max_retries: 2,
                    backoff_evals: 1,
                    ..RetryPolicy::default()
                },
            )
            .build()
            .unwrap();
        let r = e.evaluate_index(idx).unwrap();
        assert!(matches!(r, Err(EvalFailure::Transient(_))));
        assert_eq!(e.retries_used(), 2);
        // 1 initial + (1 + 1·1) + (1 + 1·2) = 6.
        assert_eq!(e.evals_used(), 6);
        // Not memoized: the ledger keeps advancing on the next call.
        assert_eq!(e.distinct_evals(), 1);
    }

    #[test]
    fn crashers_quarantine_after_enough_strikes() {
        let p = problem();
        let model = FaultModel {
            crash_rate: 1.0,
            seed: 1,
            ..FaultModel::disabled()
        };
        let e = Evaluator::builder(&p)
            .faults(
                model,
                RetryPolicy {
                    quarantine_after: 2,
                    ..RetryPolicy::default()
                },
            )
            .build()
            .unwrap();
        for strike in 0..4 {
            let r = e.evaluate_index(0).unwrap();
            match r {
                Err(EvalFailure::Crash(msg)) => {
                    if strike >= 2 {
                        assert!(msg.contains("quarantined"), "strike {strike}: {msg}");
                    } else {
                        assert!(msg.contains("crash"), "strike {strike}: {msg}");
                    }
                }
                other => panic!("expected crash, got {other:?}"),
            }
        }
        assert_eq!(e.quarantined_configs(), 1);
        assert_eq!(e.distinct_evals(), 1);
        // Restriction failures still dominate the crash draw and stay
        // cached (index 5 is restricted).
        assert_eq!(e.evaluate_index(5).unwrap(), Err(EvalFailure::Restricted));
        assert_eq!(e.evaluate_index(5).unwrap(), Err(EvalFailure::Restricted));
        assert_eq!(e.quarantined_configs(), 1);
    }

    #[test]
    fn faulty_batch_matches_serial_calls() {
        let p = wide_problem();
        let model = FaultModel {
            transient_rate: 0.3,
            timeout_rate: 0.1,
            crash_rate: 0.1,
            outlier_rate: 0.1,
            seed: 9,
            ..FaultModel::disabled()
        };
        let policy = RetryPolicy::default();
        let serial = Evaluator::builder(&p)
            .faults(model, policy)
            .build()
            .unwrap();
        let batched = Evaluator::builder(&p)
            .faults(model, policy)
            .build()
            .unwrap();
        let indices: Vec<u64> = (0..40).collect();
        let expect: Vec<_> = indices
            .iter()
            .map(|&i| serial.evaluate_index(i).unwrap())
            .collect();
        let got = batched.evaluate_batch(&indices);
        assert_eq!(got, expect);
        assert_eq!(batched.evals_used(), serial.evals_used());
        assert_eq!(batched.distinct_evals(), serial.distinct_evals());
        assert_eq!(batched.retries_used(), serial.retries_used());
        assert_eq!(batched.quarantined_configs(), serial.quarantined_configs());
    }

    #[test]
    fn faulty_outcomes_are_thread_count_independent() {
        // The same batch on a 1-thread and a default pool must agree byte
        // for byte: attempt counters are per-configuration and each unique
        // index runs on exactly one worker.
        let p = wide_problem();
        let model = FaultModel {
            transient_rate: 0.3,
            crash_rate: 0.1,
            seed: 2,
            ..FaultModel::disabled()
        };
        let indices: Vec<u64> = (0..64).collect();
        let wide = Evaluator::builder(&p)
            .faults(model, RetryPolicy::default())
            .build()
            .unwrap();
        let wide_out = wide.evaluate_batch(&indices);
        // A single-element outer par_iter marks the thread as already
        // parallel, so the inner batch fan-out degrades to one worker.
        let narrow = Evaluator::builder(&p)
            .faults(model, RetryPolicy::default())
            .build()
            .unwrap();
        let narrow_out: Vec<Vec<Result<Measurement, EvalFailure>>> = [&narrow]
            .par_iter()
            .map(|e| e.evaluate_batch(&indices))
            .collect();
        assert_eq!(wide_out, narrow_out[0]);
        assert_eq!(wide.retries_used(), narrow.retries_used());
        assert_eq!(wide.evals_used(), narrow.evals_used());
    }

    #[test]
    fn outliers_corrupt_samples_but_not_determinism() {
        let p = wide_problem();
        let protocol = Protocol::default();
        let model = FaultModel {
            outlier_rate: 0.3,
            seed: 4,
            ..FaultModel::disabled()
        };
        let e1 = Evaluator::builder(&p)
            .protocol(protocol)
            .faults(model, RetryPolicy::default())
            .build()
            .unwrap();
        let e2 = Evaluator::builder(&p)
            .protocol(protocol)
            .faults(model, RetryPolicy::default())
            .build()
            .unwrap();
        let clean = Evaluator::builder(&p).protocol(protocol).build().unwrap();
        let mut corrupted = 0usize;
        for idx in 0..30 {
            let a = e1.evaluate_index(idx).unwrap().unwrap();
            let b = e2.evaluate_index(idx).unwrap().unwrap();
            assert_eq!(a, b);
            let c = clean.evaluate_index(idx).unwrap().unwrap();
            corrupted += usize::from(a.samples != c.samples);
        }
        assert!(corrupted > 0, "no outlier fired in 30 × 5 runs");
    }

    #[test]
    fn builder_rejects_bad_protocols() {
        let p = problem();
        let zero_runs = Protocol {
            runs: 0,
            ..Protocol::default()
        };
        assert!(Evaluator::builder(&p).protocol(zero_runs).build().is_err());
        let bad_sigma = Protocol {
            sigma: f64::NAN,
            ..Protocol::default()
        };
        assert!(Evaluator::builder(&p).protocol(bad_sigma).build().is_err());
        let neg_sigma = Protocol {
            sigma: -0.5,
            ..Protocol::default()
        };
        assert!(Evaluator::builder(&p).protocol(neg_sigma).build().is_err());
        assert!(Evaluator::builder(&p).threads(0).build().is_err());
    }

    #[test]
    fn builder_cache_toggle_is_without_cache() {
        let p = problem();
        let on = Evaluator::builder(&p).build().unwrap();
        let off = Evaluator::builder(&p).cache(false).build().unwrap();
        for _ in 0..2 {
            assert_eq!(off.evaluate_index(1), on.evaluate_index(1));
        }
        assert_eq!(off.evals_used(), on.evals_used());
        assert_eq!(on.distinct_evals(), 1, "cache on: one measurement");
        assert_eq!(off.distinct_evals(), 2, "cache off: every call measures");
    }
}
