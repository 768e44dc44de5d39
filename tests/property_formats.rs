//! Property-based tests for the interchange formats (T1 benchmark specs,
//! T4 result documents) and the warm-start tuner wrapper.

use bat::core::t4::{T4Invalidity, T4Results};
use bat::kernels::t1::{
    space_from_t1, T1ConfigurationSpace, T1Document, T1General, T1KernelSpecification, T1Parameter,
    T1_SCHEMA_VERSION,
};
use bat::prelude::*;
use bat::space::Param;
use bat::tuners::WarmStartTuner;
use proptest::prelude::*;

/// Strategy: 1–4 parameters with 1–8 distinct values each.
fn arb_parameters() -> impl Strategy<Value = Vec<T1Parameter>> {
    proptest::collection::vec(1usize..8, 1..4).prop_map(|radices| {
        radices
            .iter()
            .enumerate()
            .map(|(i, &r)| T1Parameter {
                name: format!("p{i}"),
                ty: "int".to_string(),
                values: (0..r as i64).map(|v| 3 * v + 1).collect(),
            })
            .collect()
    })
}

fn doc_from(params: Vec<T1Parameter>, constraints: Vec<String>) -> T1Document {
    T1Document {
        general: T1General {
            benchmark_name: "prop".into(),
            schema_version: T1_SCHEMA_VERSION.into(),
        },
        configuration_space: T1ConfigurationSpace {
            tuning_parameters: params,
            constraints,
        },
        kernel_specification: T1KernelSpecification {
            language: "CUDA".into(),
            kernel_name: "prop".into(),
        },
    }
}

/// Strategy: a run over a fixed 2-parameter space with a mixed bag of
/// outcomes.
fn arb_run() -> impl Strategy<Value = TuningRun> {
    proptest::collection::vec((0u64..12, 0usize..3, 0.01f64..100.0), 0..25).prop_map(|trials| {
        let mut run = TuningRun::new("prop", "SIM", "prop-tuner", 0);
        for (i, (index, kind, t)) in trials.into_iter().enumerate() {
            let outcome = match kind {
                0 => Ok(Measurement::from_samples(vec![t, t * 1.1, t * 0.9])),
                1 => Err(EvalFailure::Restricted),
                _ => Err(EvalFailure::Launch("prop".into())),
            };
            run.push(bat::core::Trial {
                eval: i as u64 + 1,
                index,
                config: vec![index as i64 % 4, index as i64 / 4],
                outcome,
            });
        }
        run
    })
}

proptest! {
    /// T1 documents survive JSON round-trips and rebuild a space with the
    /// exact cartesian cardinality (product of value-list lengths).
    #[test]
    fn t1_round_trip_and_cardinality(params in arb_parameters()) {
        let expected: u64 = params.iter().map(|p| p.values.len() as u64).product();
        let doc = doc_from(params, vec![]);
        let parsed = T1Document::from_json(&doc.to_json()).unwrap();
        prop_assert_eq!(&parsed, &doc);
        let space = space_from_t1(&parsed).unwrap();
        prop_assert_eq!(space.cardinality(), expected);
    }

    /// A constraint never *increases* the valid count, and the count
    /// matches brute-force re-evaluation.
    #[test]
    fn t1_constraints_only_shrink(params in arb_parameters()) {
        let free = space_from_t1(&doc_from(params.clone(), vec![])).unwrap();
        let constrained = space_from_t1(&doc_from(
            params,
            vec!["p0 % 2 == 1".to_string()],
        ))
        .unwrap();
        prop_assert!(constrained.count_valid() <= free.count_valid());
        // Brute force agreement.
        let brute = (0..constrained.cardinality())
            .filter(|&i| constrained.is_valid_index(i))
            .count() as u64;
        prop_assert_eq!(constrained.count_valid(), brute);
    }

    /// T4 conversion preserves trial count, order, and the outcome
    /// taxonomy; JSON round-trips losslessly.
    #[test]
    fn t4_round_trip_preserves_everything(run in arb_run()) {
        let names = vec!["a".to_string(), "b".to_string()];
        let t4 = T4Results::from_run(&run, &names);
        prop_assert_eq!(t4.results.len(), run.trials.len());
        for (r, t) in t4.results.iter().zip(&run.trials) {
            match &t.outcome {
                Ok(m) => {
                    prop_assert!(r.is_valid());
                    prop_assert_eq!(r.time_ms(), Some(m.time_ms));
                    prop_assert_eq!(&r.times, &m.samples);
                }
                Err(EvalFailure::Restricted) => {
                    prop_assert_eq!(r.invalidity, Some(T4Invalidity::Constraints));
                }
                // Launch failures and every fault-model outcome (the kernel
                // compiled but died on the target) map to Runtime.
                Err(
                    EvalFailure::Launch(_)
                    | EvalFailure::Transient(_)
                    | EvalFailure::Timeout
                    | EvalFailure::Crash(_),
                ) => {
                    prop_assert_eq!(r.invalidity, Some(T4Invalidity::Runtime));
                }
            }
            prop_assert_eq!(r.configuration["a"], t.config[0]);
            prop_assert_eq!(r.configuration["b"], t.config[1]);
        }
        let back = T4Results::from_json(&t4.to_json()).unwrap();
        prop_assert_eq!(back, t4);
    }

    /// T4's best() agrees with the run's own best().
    #[test]
    fn t4_best_matches_run_best(run in arb_run()) {
        let names = vec!["a".to_string(), "b".to_string()];
        let t4 = T4Results::from_run(&run, &names);
        match (run.best(), t4.best()) {
            (Some(rb), Some(tb)) => {
                prop_assert_eq!(tb.time_ms(), rb.time_ms());
            }
            (None, None) => {}
            (a, b) => prop_assert!(false, "best mismatch: {a:?} vs {}", b.is_some()),
        }
    }

    /// WarmStartTuner always respects the budget exactly, for any seed
    /// list (representable or not).
    #[test]
    fn warmstart_budget_exact(
        budget in 1u64..50,
        n_seeds in 0usize..8,
        salt in 0i64..100,
    ) {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 9))
            .param(Param::int_range("y", 0, 9))
            .build()
            .unwrap();
        let p = bat::core::SyntheticProblem::new("ws", "sim", space, |v| {
            Ok(1.0 + (v[0] + v[1]) as f64)
        });
        // Mix of valid and unrepresentable seeds.
        let seeds: Vec<Vec<i64>> = (0..n_seeds)
            .map(|i| vec![(salt + i as i64) % 13, (salt * 3 + i as i64) % 10])
            .collect();
        let eval = Evaluator::builder(&p).protocol(Protocol::noiseless()).budget(budget).build().unwrap();
        let run = WarmStartTuner::new(seeds, RandomSearch).tune(&eval, 5);
        prop_assert_eq!(run.trials.len() as u64, budget);
        // Evaluation counters are contiguous from 1.
        for (i, t) in run.trials.iter().enumerate() {
            prop_assert_eq!(t.eval, i as u64 + 1);
        }
    }
}
