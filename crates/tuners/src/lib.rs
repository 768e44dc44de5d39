//! # bat-tuners
//!
//! Optimization algorithms for BAT-rs behind one [`Tuner`] trait: random
//! and exhaustive search, first/best-improvement multi-start local search,
//! iterated local search, simulated annealing, basin hopping, a genetic
//! algorithm, particle swarm, differential evolution, a GBDT
//! surrogate-model tuner (SMBO), Gaussian-process Bayesian optimization
//! (the family of the paper's reference \[22\]), a Tree-structured Parzen
//! Estimator (Optuna's sampler) and a SMAC-style random-forest SMBO
//! (SMAC3's model).
//!
//! Every tuner evaluates exclusively through [`bat_core::Evaluator`], so
//! measurement protocol and budget accounting are identical across
//! algorithms — the fairness property the paper's shared interface exists
//! to provide.

#![warn(missing_docs)]

mod anneal;
mod bayes;
mod de;
mod genetic;
mod local;
mod pso;
mod random;
mod smac;
mod step;
mod surrogate;
mod tpe;
mod tuner;
mod warmstart;

pub use anneal::{BasinHopping, SimulatedAnnealing};
pub use bayes::{Acquisition, BayesianOptimization};
pub use de::DifferentialEvolution;
pub use genetic::GeneticAlgorithm;
pub use local::{IteratedLocalSearch, LocalSearch, Strategy};
pub use pso::ParticleSwarm;
pub use random::{ExhaustiveSearch, RandomSearch};
pub use smac::SmacTuner;
pub use step::{try_drive, StepCtx, StepTuner, Told};
pub use surrogate::SurrogateTuner;
pub use tpe::Tpe;
pub use tuner::{new_run, ordinal, record_eval, record_eval2, Recorded, Tuner};
pub use warmstart::{TransferDatabase, WarmStartTuner};

/// All tuners with default settings, for suite-wide comparisons.
pub fn default_tuners() -> Vec<Box<dyn Tuner>> {
    vec![
        Box::new(RandomSearch),
        Box::new(LocalSearch::default()),
        Box::new(LocalSearch {
            strategy: Strategy::BestImprovement,
            ..LocalSearch::default()
        }),
        Box::new(IteratedLocalSearch::default()),
        Box::new(SimulatedAnnealing::default()),
        Box::new(BasinHopping::default()),
        Box::new(GeneticAlgorithm::default()),
        Box::new(ParticleSwarm::default()),
        Box::new(DifferentialEvolution::default()),
        Box::new(SurrogateTuner::default()),
        Box::new(BayesianOptimization::default()),
        Box::new(Tpe::default()),
        Box::new(SmacTuner::default()),
    ]
}

/// Evaluator fixtures shared by the tuners' unit tests.
#[cfg(test)]
pub(crate) mod testkit {
    use bat_core::{Evaluator, Protocol, TuningProblem};

    /// An evaluator of `problem` under `protocol`, limited to `budget`
    /// evaluations.
    pub fn evaluator(
        problem: &dyn TuningProblem,
        protocol: Protocol,
        budget: u64,
    ) -> Evaluator<'_> {
        Evaluator::builder(problem)
            .protocol(protocol)
            .budget(budget)
            .build()
            .unwrap()
    }

    /// A noiseless evaluator of `problem`, limited to `budget` evaluations.
    pub fn noiseless(problem: &dyn TuningProblem, budget: u64) -> Evaluator<'_> {
        evaluator(problem, Protocol::noiseless(), budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::noiseless;
    use bat_core::SyntheticProblem;
    use bat_space::{ConfigSpace, Param};

    #[test]
    fn all_default_tuners_run_and_respect_budget() {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 12))
            .param(Param::int_range("y", 0, 12))
            .restrict("x + y <= 20")
            .build()
            .unwrap();
        let p = SyntheticProblem::new("toy", "sim", space, |c| {
            Ok(1.0 + ((c[0] - 5) * (c[0] - 5) + (c[1] - 8) * (c[1] - 8)) as f64)
        });
        for tuner in default_tuners() {
            let eval = noiseless(&p, 64);
            let run = tuner.tune(&eval, 1);
            assert_eq!(run.trials.len(), 64, "{}", tuner.name());
            assert!(run.successes() > 0, "{}", tuner.name());
            assert_eq!(run.tuner, tuner.name());
        }
    }

    #[test]
    fn tuner_names_are_unique() {
        let names: Vec<String> = default_tuners()
            .iter()
            .map(|t| t.name().to_string())
            .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
