//! Property tests for the ask/tell evaluation side: `Evaluator::evaluate_batch`
//! is semantically identical to the same sequence of serial
//! `evaluate_index` calls at any batch size (same results, same budget
//! accounting, same memo/distinct state), and every tuner stays
//! deterministic and inside its budget under faults and batching. The step
//! driver's batch-1 trajectories are pinned by the `synthetic/*` rows of
//! the golden digests (`tests/golden.rs`).

use bat::prelude::*;
use proptest::prelude::*;

/// A random space of 2–4 parameters with 2–7 values each, optionally
/// carrying a restriction so some evaluations fail.
fn arb_space() -> impl proptest::Strategy<Value = ConfigSpace> {
    (proptest::collection::vec(2usize..7, 2..4), 0u32..2).prop_map(|(radices, restricted)| {
        let restricted = restricted == 1;
        let mut b = ConfigSpace::builder();
        for (i, r) in radices.iter().enumerate() {
            let values: Vec<i64> = (0..*r as i64).map(|v| v + 1).collect();
            b = b.param(Param::new(format!("p{i}"), values));
        }
        if restricted {
            // Cuts a corner of the space without emptying it
            // (minimum possible sum is #params).
            b = b.restrict(&format!("p0 + p1 <= {}", radices[0] + radices[1] - 1));
        }
        b.build().unwrap()
    })
}

fn problem(
    space: ConfigSpace,
) -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, EvalFailure> + Send + Sync> {
    SyntheticProblem::new("step-prop", "sim", space, |c| {
        let mut t = 1.0;
        for (i, &v) in c.iter().enumerate() {
            t += ((v - 2 * (i as i64 % 3)) * (v - 2)) as f64 * 0.25 + v as f64 * 0.1;
        }
        Ok(t.abs() + 0.5)
    })
}

use bat::core::{EvaluatorBuilder, SyntheticProblem};

fn protocol(noisy: bool) -> Protocol {
    if noisy {
        Protocol {
            runs: 3,
            sigma: 0.05,
            seed: 7,
            ..Protocol::default()
        }
    } else {
        Protocol::noiseless()
    }
}

/// An evaluator builder for `p` under `proto`, limited to `budget`
/// evaluations.
fn budgeted(p: &dyn TuningProblem, proto: Protocol, budget: u64) -> EvaluatorBuilder<'_> {
    Evaluator::builder(p).protocol(proto).budget(budget)
}

proptest! {
    /// `evaluate_batch` ≡ serial `evaluate_index` in results, budget
    /// accounting and memo state, for any batch partition of any index
    /// sequence (duplicates included), with and without a budget.
    #[test]
    fn evaluate_batch_equals_serial(
        space in arb_space(),
        picks in proptest::collection::vec(0u64..10_000, 1..40),
        budget in 0u64..48,
        chunk in 1usize..9,
        unbudgeted in 0u32..2,
        noisy in 0u32..2,
    ) {
        let (noisy, unbudgeted) = (noisy == 1, unbudgeted == 1);
        let p = problem(space.clone());
        let card = space.cardinality();
        let indices: Vec<u64> = picks.iter().map(|i| i % card).collect();

        let mk = |_: ()| {
            let b = Evaluator::builder(&p).protocol(protocol(noisy));
            let b = if unbudgeted { b } else { b.budget(budget) };
            b.build().unwrap()
        };
        let serial = mk(());
        let batched = mk(());

        let mut serial_results = Vec::new();
        for &idx in &indices {
            match serial.evaluate_index(idx) {
                Some(r) => serial_results.push(r),
                None => break,
            }
        }
        let mut batch_results = Vec::new();
        for window in indices.chunks(chunk) {
            let got = batched.evaluate_batch(window);
            let full = got.len() == window.len();
            batch_results.extend(got);
            if !full {
                break;
            }
        }

        prop_assert_eq!(&batch_results, &serial_results);
        prop_assert_eq!(batched.evals_used(), serial.evals_used());
        prop_assert_eq!(batched.distinct_evals(), serial.distinct_evals());
        // Memo state: probing an already-measured index on both sides
        // returns identical outcomes without growing `distinct`.
        if let Some(&probe) = indices.first() {
            let d1 = serial.distinct_evals();
            let a = serial.evaluate_index(probe);
            let b = batched.evaluate_index(probe);
            prop_assert_eq!(a, b);
            if !serial_results.is_empty() {
                prop_assert_eq!(serial.distinct_evals(), d1);
            }
        }
    }

    /// Every tuner — the 13 single-objective defaults plus NSGA-II —
    /// survives a fault model under which *every* measurement fails, for
    /// each failure species (crash, transient, timeout), at any batch
    /// size: the run terminates, reports zero successes, and stays inside
    /// the retry-charged budget envelope.
    #[test]
    fn all_tuners_survive_all_failing_batches(
        space in arb_space(),
        seed in 0u64..200,
        batch in 1u32..8,
        species in 0u32..3,
    ) {
        let model = match species {
            0 => FaultModel { crash_rate: 1.0, ..FaultModel::disabled() },
            // The transient rate is scaled per-architecture by a factor in
            // [0.5, 1.5); 2.0 keeps the effective rate at or above 1.
            1 => FaultModel { transient_rate: 2.0, ..FaultModel::disabled() },
            _ => FaultModel { timeout_rate: 1.0, ..FaultModel::disabled() },
        };
        let policy = RetryPolicy::default();
        let p = problem(space.clone());
        let budget = 24u64;
        // Retryable species charge up to `max_retries` extra evals per
        // evaluation started before the budget ran out.
        let envelope = budget + policy.max_retries as u64 * (batch as u64).max(1);
        let proto = Protocol::noiseless().with_batch(batch);
        let mk = |energy: bool| {
            budgeted(&p, proto, budget).faults(model, policy).energy(energy).build().unwrap()
        };
        for tuner in bat::tuners::default_tuners() {
            let e = mk(false);
            let run = tuner.tune(&e, seed);
            prop_assert_eq!(run.successes(), 0, "{} succeeded in a dead space", tuner.name());
            prop_assert!(run.best().is_none(), "{}", tuner.name());
            prop_assert!(e.evals_used() <= envelope, "{} spent {} > {envelope}", tuner.name(), e.evals_used());
        }
        let e = mk(true);
        let run = Nsga2::default().tune(&e, seed);
        prop_assert_eq!(run.successes(), 0);
        prop_assert!(run.best().is_none());
    }

    /// Random fault-rate mixes: every tuner completes, and two identical
    /// runs — including retry and quarantine counters — are equal, because
    /// every fault draw is a pure function of (seed, config, attempt), not
    /// of execution order or shared RNG state.
    #[test]
    fn fault_rate_sweeps_stay_deterministic(
        space in arb_space(),
        seed in 0u64..200,
        batch in 1u32..6,
        transient in 0u32..4,
        timeout in 0u32..3,
        crash in 0u32..3,
    ) {
        let model = FaultModel {
            transient_rate: f64::from(transient) * 0.07,
            timeout_rate: f64::from(timeout) * 0.05,
            crash_rate: f64::from(crash) * 0.04,
            outlier_rate: 0.05,
            ..FaultModel::disabled()
        };
        let policy = RetryPolicy { quarantine_after: 2, ..RetryPolicy::default() };
        let p = problem(space.clone());
        let proto = Protocol::noiseless().with_batch(batch);
        let budget = 20u64;
        let mk = |energy: bool| {
            budgeted(&p, proto, budget).faults(model, policy).energy(energy).build().unwrap()
        };
        for tuner in bat::tuners::default_tuners() {
            let (e1, e2) = (mk(false), mk(false));
            let a = tuner.tune(&e1, seed);
            let b = tuner.tune(&e2, seed);
            prop_assert_eq!(&a, &b, "{} diverged under faults", tuner.name());
            prop_assert_eq!(e1.evals_used(), e2.evals_used());
            prop_assert_eq!(e1.retries_used(), e2.retries_used());
            prop_assert_eq!(e1.quarantined_configs(), e2.quarantined_configs());
        }
        let (e1, e2) = (mk(true), mk(true));
        let tuner = Nsga2::default();
        prop_assert_eq!(tuner.tune(&e1, seed), tuner.tune(&e2, seed));
        prop_assert_eq!(e1.retries_used(), e2.retries_used());
    }

    /// At any fixed batch size, runs are deterministic and spend exactly
    /// the full budget for never-finishing tuners.
    #[test]
    fn batched_runs_are_deterministic_across_repeats(
        space in arb_space(),
        seed in 0u64..500,
        batch in 1u32..16,
    ) {
        let p = problem(space.clone());
        let budget = 120u64;
        for tuner in [
            Box::new(RandomSearch) as Box<dyn Tuner>,
            Box::new(GeneticAlgorithm::default()),
            Box::new(ParticleSwarm::default()),
            Box::new(LocalSearch::default()),
        ] {
            let proto = Protocol::noiseless().with_batch(batch);
            let e1 = budgeted(&p, proto, budget).build().unwrap();
            let e2 = budgeted(&p, proto, budget).build().unwrap();
            let a = tuner.tune(&e1, seed);
            let b = tuner.tune(&e2, seed);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a.trials.len() as u64, budget, "{}", tuner.name());
        }
    }
}
