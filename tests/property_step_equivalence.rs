//! Property tests for the ask/tell refactor's two central equivalences:
//!
//! 1. the shared step driver at `batch = 1` reproduces every tuner's
//!    retained pre-refactor pull loop (`reference_tune`) bit-exactly —
//!    same trials, same indices, same measurements, same budget spend —
//!    on random spaces, random seeds and random budgets;
//! 2. `Evaluator::evaluate_batch` is semantically identical to the same
//!    sequence of serial `evaluate_index` calls at any batch size: same
//!    results, same budget accounting, same memo/distinct state.

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

use bat::core::SyntheticProblem;

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

/// Compare the driver (batch = 1) against a tuner's reference loop on a
/// fresh evaluator pair.
fn assert_driver_matches<T, F>(
    tuner: &T,
    reference: F,
    space: &ConfigSpace,
    seed: u64,
    budget: u64,
    noisy: bool,
) where
    T: Tuner,
    F: Fn(&T, &Evaluator<'_>, u64) -> TuningRun,
{
    let p = problem(space.clone());
    let e1 = Evaluator::with_protocol(&p, protocol(noisy)).with_budget(budget);
    let e2 = Evaluator::with_protocol(&p, protocol(noisy)).with_budget(budget);
    let driven = tuner.tune(&e1, seed);
    let referenced = reference(tuner, &e2, seed);
    assert_eq!(driven, referenced, "{} diverged", tuner.name());
    assert_eq!(e1.evals_used(), e2.evals_used(), "{} budget", tuner.name());
    assert_eq!(
        e1.distinct_evals(),
        e2.distinct_evals(),
        "{} distinct",
        tuner.name()
    );
}

/// A `paper-ranking`-sized space: six parameters, with a restriction that
/// rejects 40 % of it, the optimum of [`problem`] included, so tuners
/// keep proposing configurations that fail, as they do near a kernel's
/// resource limits.
fn paper_scale_space() -> ConfigSpace {
    let mut b = ConfigSpace::builder();
    for (i, radix) in [4i64, 4, 3, 5, 3, 4].into_iter().enumerate() {
        b = b.param(Param::new(format!("p{i}"), (1..=radix).collect::<Vec<_>>()));
    }
    b.restrict("p0 + p1 + p2 >= 7").build().unwrap()
}

/// Driver ≡ reference for gp-bo-ei at `paper-ranking` scale (budget 150).
/// Invalid configurations add no observation, so along the run the step
/// session reuses its last GP, grows its factor by appended rows, and
/// refits when an input range moves. A cap below the budget makes it fit
/// subsamples.
#[test]
fn driver_matches_reference_for_gp_bo_at_paper_scale() {
    let space = paper_scale_space();
    let bo = BayesianOptimization::default();
    assert_driver_matches(
        &bo,
        BayesianOptimization::reference_tune,
        &space,
        3,
        150,
        false,
    );
    let mut capped = BayesianOptimization::default();
    capped.max_observations = 10;
    assert_driver_matches(
        &capped,
        BayesianOptimization::reference_tune,
        &space,
        5,
        80,
        false,
    );
}

/// Driver ≡ reference for gbdt-surrogate and smac-forest at
/// `paper-ranking` scale (budget 150); gbdt-surrogate skips the refits
/// that would see no new observation.
#[test]
fn driver_matches_reference_for_tree_tuners_at_paper_scale() {
    let space = paper_scale_space();
    let gbdt = SurrogateTuner::default();
    assert_driver_matches(&gbdt, SurrogateTuner::reference_tune, &space, 3, 150, false);
    assert_driver_matches(
        &SmacTuner::default(),
        SmacTuner::reference_tune,
        &space,
        3,
        150,
        false,
    );
}

proptest! {
    /// Driver ≡ reference for the non-model tuners (cheap enough to sweep
    /// every one per case).
    #[test]
    fn driver_matches_reference_for_search_tuners(
        space in arb_space(),
        seed in 0u64..1_000,
        budget in 20u64..90,
        noisy in 0u32..2,
    ) {
        let noisy = noisy == 1;
        assert_driver_matches(&RandomSearch, RandomSearch::reference_tune, &space, seed, budget, noisy);
        assert_driver_matches(&bat::tuners::ExhaustiveSearch, bat::tuners::ExhaustiveSearch::reference_tune, &space, seed, budget, noisy);
        assert_driver_matches(&LocalSearch::default(), LocalSearch::reference_tune, &space, seed, budget, noisy);
        let best = LocalSearch { strategy: bat::tuners::Strategy::BestImprovement, ..LocalSearch::default() };
        assert_driver_matches(&best, LocalSearch::reference_tune, &space, seed, budget, noisy);
        assert_driver_matches(&IteratedLocalSearch::default(), IteratedLocalSearch::reference_tune, &space, seed, budget, noisy);
        assert_driver_matches(&SimulatedAnnealing::default(), SimulatedAnnealing::reference_tune, &space, seed, budget, noisy);
        assert_driver_matches(&BasinHopping::default(), BasinHopping::reference_tune, &space, seed, budget, noisy);
        assert_driver_matches(&GeneticAlgorithm::default(), GeneticAlgorithm::reference_tune, &space, seed, budget, noisy);
        assert_driver_matches(&ParticleSwarm::default(), ParticleSwarm::reference_tune, &space, seed, budget, noisy);
        assert_driver_matches(&DifferentialEvolution::default(), DifferentialEvolution::reference_tune, &space, seed, budget, noisy);
        // Warm start wraps the step protocol of its inner tuner.
        let seeds = vec![space.config_at(0), vec![999; space.num_params()], space.config_at(space.cardinality() - 1)];
        let warm = WarmStartTuner::new(seeds, RandomSearch);
        assert_driver_matches(&warm, WarmStartTuner::reference_tune, &space, seed, budget, noisy);
    }

    /// Driver ≡ reference for the model-based tuners (fewer, heavier
    /// cases: each one fits GBDTs/GPs/forests along the run).
    #[test]
    fn driver_matches_reference_for_model_tuners(
        space in arb_space(),
        seed in 0u64..100,
        budget in 24u64..40,
    ) {
        assert_driver_matches(&SurrogateTuner::default(), SurrogateTuner::reference_tune, &space, seed, budget, false);
        assert_driver_matches(&BayesianOptimization::default(), BayesianOptimization::reference_tune, &space, seed, budget, false);
        assert_driver_matches(&Tpe::default(), Tpe::reference_tune, &space, seed, budget, false);
        assert_driver_matches(&SmacTuner::default(), SmacTuner::reference_tune, &space, seed, budget, false);
    }

    /// Driver ≡ reference for NSGA-II under the energy objective.
    #[test]
    fn driver_matches_reference_for_nsga2(
        space in arb_space(),
        seed in 0u64..1_000,
        budget in 20u64..120,
        noisy in 0u32..2,
    ) {
        let noisy = noisy == 1;
        let p = problem(space.clone());
        let tuner = Nsga2::default();
        let e1 = Evaluator::with_protocol(&p, protocol(noisy)).with_energy().with_budget(budget);
        let e2 = Evaluator::with_protocol(&p, protocol(noisy)).with_energy().with_budget(budget);
        prop_assert_eq!(tuner.tune(&e1, seed), tuner.reference_tune(&e2, seed));
    }

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
            let e = Evaluator::with_protocol(&p, protocol(noisy));
            if unbudgeted { e } else { e.with_budget(budget) }
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
        for tuner in bat::tuners::default_tuners() {
            let e = Evaluator::with_protocol(&p, proto).with_budget(budget).with_faults(model, policy);
            let run = tuner.tune(&e, seed);
            prop_assert_eq!(run.successes(), 0, "{} succeeded in a dead space", tuner.name());
            prop_assert!(run.best().is_none(), "{}", tuner.name());
            prop_assert!(e.evals_used() <= envelope, "{} spent {} > {envelope}", tuner.name(), e.evals_used());
        }
        let e = Evaluator::with_protocol(&p, proto)
            .with_energy()
            .with_budget(budget)
            .with_faults(model, policy);
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
        let mk = || Evaluator::with_protocol(&p, proto).with_budget(budget).with_faults(model, policy);
        for tuner in bat::tuners::default_tuners() {
            let (e1, e2) = (mk(), mk());
            let a = tuner.tune(&e1, seed);
            let b = tuner.tune(&e2, seed);
            prop_assert_eq!(&a, &b, "{} diverged under faults", tuner.name());
            prop_assert_eq!(e1.evals_used(), e2.evals_used());
            prop_assert_eq!(e1.retries_used(), e2.retries_used());
            prop_assert_eq!(e1.quarantined_configs(), e2.quarantined_configs());
        }
        let mk_moo = || mk().with_energy();
        let (e1, e2) = (mk_moo(), mk_moo());
        let tuner = Nsga2::default();
        prop_assert_eq!(tuner.tune(&e1, seed), tuner.tune(&e2, seed));
        prop_assert_eq!(e1.retries_used(), e2.retries_used());
    }

    /// Thread-count sweep: the serialized bytes of a whole run — trials,
    /// measurements, retry/quarantine counters — are identical at 1, 2 and
    /// 4 worker threads, on fault-free and faulted campaigns alike. This
    /// is the quality-neutrality contract of the worker pool: thread count
    /// is an execution detail, never an input to the science.
    #[test]
    fn runs_are_byte_identical_across_thread_counts(
        space in arb_space(),
        seed in 0u64..300,
        batch in 2u32..10,
        noisy in 0u32..2,
        faulted in 0u32..2,
    ) {
        let p = problem(space.clone());
        let proto = protocol(noisy == 1).with_batch(batch);
        let budget = 60u64;
        let model = FaultModel {
            transient_rate: 0.08,
            timeout_rate: 0.04,
            crash_rate: 0.03,
            ..FaultModel::disabled()
        };
        let run_at = |threads: usize| -> (String, u64, u64) {
            rayon::with_thread_limit(threads, || {
                let e = Evaluator::with_protocol(&p, proto).with_budget(budget);
                let e = if faulted == 1 {
                    e.with_faults(model, RetryPolicy::default())
                } else {
                    e
                };
                let run = GeneticAlgorithm::default().tune(&e, seed);
                (
                    serde_json::to_string(&run).expect("serializable run"),
                    e.evals_used(),
                    e.retries_used(),
                )
            })
        };
        let baseline = run_at(1);
        for threads in [2usize, 4] {
            let swept = run_at(threads);
            prop_assert_eq!(&swept, &baseline, "{threads} threads diverged");
        }
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
            let e1 = Evaluator::with_protocol(&p, proto).with_budget(budget);
            let e2 = Evaluator::with_protocol(&p, proto).with_budget(budget);
            let a = tuner.tune(&e1, seed);
            let b = tuner.tune(&e2, seed);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a.trials.len() as u64, budget, "{}", tuner.name());
        }
    }
}
