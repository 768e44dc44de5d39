//! Dynamic (online) autotuning — KTT's flagship mode (Petrovič et al.,
//! the paper's reference [7]: "...and its Dynamic Autotuning with Kernel
//! Tuning Toolkit").
//!
//! Offline tuning measures *best configuration found per evaluation
//! budget*. Dynamic autotuning answers the question an application author
//! actually has: if my program invokes this kernel `N` times, does tuning
//! *during the run* pay for itself? The simulation charges every explored
//! configuration's real runtime (and a fallback re-run for launch
//! failures) against the application's time-to-solution, then exploits the
//! best configuration found for the remaining invocations. Comparing
//! against the static-default and oracle baselines gives the break-even
//! invocation count.

use bat_core::{Evaluator, Protocol, TuningProblem};
use bat_tuners::Tuner;

/// How the simulated application schedules tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlinePolicy {
    /// Explore with the tuner for the first `tuning_budget` invocations,
    /// then run the best configuration found for the rest.
    TuneThenExploit {
        /// Invocations spent exploring.
        tuning_budget: u64,
    },
    /// Never tune: run the default configuration every time (the static
    /// baseline an untuned application pays).
    StaticDefault,
}

/// Settings of one online-tuning simulation.
#[derive(Debug, Clone, Copy)]
pub struct OnlineSimulation {
    /// Total kernel invocations the application performs.
    pub invocations: usize,
    /// Scheduling policy.
    pub policy: OnlinePolicy,
    /// Measurement protocol for each invocation.
    pub protocol: Protocol,
}

impl OnlineSimulation {
    /// Simulate the application. `default_index` is the configuration an
    /// untuned application would hardcode (`None` = the lowest-index
    /// configuration that runs successfully, scanning from 0 — the
    /// "first thing that worked" default). `oracle_ms` is the per-invocation
    /// optimum, when ground truth is known.
    ///
    /// # Panics
    ///
    /// Panics if `invocations` is zero, if
    /// [`EvaluatorBuilder::build`](bat_core::EvaluatorBuilder::build) rejects
    /// `protocol`, or if the default configuration (or, with none given,
    /// every configuration) fails.
    pub fn run(
        &self,
        problem: &dyn TuningProblem,
        tuner: &dyn Tuner,
        default_index: Option<u64>,
        oracle_ms: Option<f64>,
        seed: u64,
    ) -> OnlineTrace {
        assert!(self.invocations > 0, "application must run at least once");

        // Resolve the untuned default and its cost (unbudgeted probe).
        let probe = Evaluator::builder(problem)
            .protocol(self.protocol)
            .build()
            .expect("a valid measurement protocol");
        let (default_index, default_ms) = match default_index {
            Some(idx) => {
                let m = probe
                    .evaluate_index(idx)
                    .expect("no budget set")
                    .unwrap_or_else(|e| panic!("default configuration {idx} fails: {e:?}"));
                (idx, m.time_ms)
            }
            None => {
                let card = problem.space().cardinality();
                (0..card)
                    .find_map(|idx| {
                        probe
                            .evaluate_index(idx)
                            .expect("no budget set")
                            .ok()
                            .map(|m| (idx, m.time_ms))
                    })
                    .expect("no configuration runs at all")
            }
        };

        let mut costs = Vec::with_capacity(self.invocations);
        let mut tuned_index = default_index;
        let mut tuned_ms = default_ms;

        match self.policy {
            OnlinePolicy::StaticDefault => {
                costs.resize(self.invocations, default_ms);
            }
            OnlinePolicy::TuneThenExploit { tuning_budget } => {
                let explore = (tuning_budget as usize).min(self.invocations);
                let eval = Evaluator::builder(problem)
                    .protocol(self.protocol)
                    .budget(explore as u64)
                    .build()
                    .expect("the probe built with this protocol");
                let run = tuner.tune(&eval, seed);
                for trial in run.trials.iter().take(explore) {
                    match &trial.outcome {
                        // A successful exploration invocation does the
                        // application's work at the explored config's speed.
                        Ok(m) => costs.push(m.time_ms),
                        // A failed launch costs a re-run with the default.
                        Err(_) => costs.push(default_ms),
                    }
                }
                // Tuners may stop early (e.g. exhaustive on tiny spaces):
                // unspent exploration slots run the default.
                while costs.len() < explore {
                    costs.push(default_ms);
                }
                if let Some(best) = run.best() {
                    tuned_index = best.index;
                    tuned_ms = best.time_ms().expect("best() only returns successes");
                }
                costs.resize(self.invocations, tuned_ms);
            }
        }

        let total_ms = costs.iter().sum();
        OnlineTrace {
            costs,
            default_index,
            default_ms,
            tuned_index,
            tuned_ms,
            total_ms,
            static_ms: default_ms * self.invocations as f64,
            oracle_ms: oracle_ms.map(|o| o * self.invocations as f64),
        }
    }
}

/// Time-to-solution record of one simulated application run.
#[derive(Debug, Clone)]
pub struct OnlineTrace {
    /// Wall-clock cost charged per invocation.
    pub costs: Vec<f64>,
    /// The untuned default configuration.
    pub default_index: u64,
    /// Per-invocation cost of the default.
    pub default_ms: f64,
    /// Configuration exploited after tuning.
    pub tuned_index: u64,
    /// Per-invocation cost of the exploited configuration.
    pub tuned_ms: f64,
    /// Total time-to-solution of this policy.
    pub total_ms: f64,
    /// Time-to-solution of the static-default baseline.
    pub static_ms: f64,
    /// Time-to-solution of the oracle (optimal config from invocation 0),
    /// when ground truth was supplied.
    pub oracle_ms: Option<f64>,
}

impl OnlineTrace {
    /// Speedup of this policy over never tuning.
    pub fn speedup_over_static(&self) -> f64 {
        self.static_ms / self.total_ms
    }

    /// Overhead relative to the oracle (1.0 = tuning was free).
    pub fn overhead_vs_oracle(&self) -> Option<f64> {
        self.oracle_ms.map(|o| self.total_ms / o)
    }

    /// First invocation at which cumulative online time undercuts the
    /// cumulative static-default time (`None` if tuning never pays off
    /// within this run).
    pub fn break_even(&self) -> Option<usize> {
        let mut cum = 0.0;
        for (i, c) in self.costs.iter().enumerate() {
            cum += c;
            if cum < self.default_ms * (i + 1) as f64 {
                return Some(i + 1);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_core::SyntheticProblem;
    use bat_space::{ConfigSpace, Param};
    use bat_tuners::RandomSearch;

    /// Index 0 (x=0, y=0) is valid but slow; optimum (x=9, y=9) is 1 ms.
    fn problem(
    ) -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, bat_core::EvalFailure> + Send + Sync> {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 9))
            .param(Param::int_range("y", 0, 9))
            .build()
            .unwrap();
        SyntheticProblem::new("online-toy", "sim", space, |v| {
            Ok(1.0 + (9 - v[0]) as f64 + (9 - v[1]) as f64)
        })
    }

    fn sim(invocations: usize, budget: u64) -> OnlineSimulation {
        OnlineSimulation {
            invocations,
            policy: OnlinePolicy::TuneThenExploit {
                tuning_budget: budget,
            },
            protocol: Protocol::noiseless(),
        }
    }

    #[test]
    fn online_tuning_pays_off_on_long_runs() {
        let p = problem();
        let trace = sim(2000, 100).run(&p, &RandomSearch, None, Some(1.0), 0);
        assert_eq!(trace.costs.len(), 2000);
        assert!(
            trace.speedup_over_static() > 2.0,
            "speedup {}",
            trace.speedup_over_static()
        );
        // Tuning overhead keeps it above the oracle, but not absurdly.
        let overhead = trace.overhead_vs_oracle().unwrap();
        assert!(overhead > 1.0 && overhead < 3.0, "overhead {overhead}");
        assert!(trace.break_even().is_some());
    }

    #[test]
    fn short_runs_may_not_amortize() {
        let p = problem();
        // 10 invocations, all spent exploring: no exploitation phase.
        let trace = sim(10, 10).run(&p, &RandomSearch, None, Some(1.0), 0);
        assert_eq!(trace.costs.len(), 10);
        // Exploration costs ≥ optimal each time.
        assert!(trace.total_ms >= 10.0);
    }

    #[test]
    fn static_policy_charges_default_every_time() {
        let p = problem();
        let s = OnlineSimulation {
            invocations: 50,
            policy: OnlinePolicy::StaticDefault,
            protocol: Protocol::noiseless(),
        };
        let trace = s.run(&p, &RandomSearch, None, None, 0);
        // Default = index 0 = (x=0,y=0) = 19 ms.
        assert_eq!(trace.default_index, 0);
        assert!((trace.default_ms - 19.0).abs() < 1e-9);
        assert!(trace.costs.iter().all(|&c| (c - 19.0).abs() < 1e-9));
        assert!((trace.total_ms - trace.static_ms).abs() < 1e-9);
        assert_eq!(trace.break_even(), None);
        assert!((trace.speedup_over_static() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn explicit_default_is_respected() {
        let p = problem();
        let space_idx = 99; // (x=9, y=9): the optimum as default
        let trace = sim(100, 20).run(&p, &RandomSearch, Some(space_idx), Some(1.0), 1);
        assert_eq!(trace.default_index, 99);
        assert!((trace.default_ms - 1.0).abs() < 1e-9);
        // Tuning cannot beat an already-optimal default.
        assert!(trace.speedup_over_static() <= 1.0 + 1e-9);
    }

    #[test]
    fn failures_cost_a_default_rerun() {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 9))
            .build()
            .unwrap();
        let p = SyntheticProblem::new("half-fail", "sim", space, |v| {
            if v[0] % 2 == 1 {
                Err(bat_core::EvalFailure::Launch("odd x".into()))
            } else {
                Ok(10.0 - v[0] as f64)
            }
        });
        let trace = sim(200, 50).run(&p, &RandomSearch, None, None, 3);
        assert_eq!(trace.costs.len(), 200);
        assert!(trace.costs.iter().all(|c| c.is_finite() && *c > 0.0));
        // Exploitation uses the best even config (x=8 → 2 ms).
        assert!((trace.tuned_ms - 2.0).abs() < 1e-9);
    }

    #[test]
    fn budget_larger_than_invocations_is_clamped() {
        let p = problem();
        let trace = sim(30, 500).run(&p, &RandomSearch, None, None, 0);
        assert_eq!(trace.costs.len(), 30);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = problem();
        let a = sim(300, 60).run(&p, &RandomSearch, None, None, 9);
        let b = sim(300, 60).run(&p, &RandomSearch, None, None, 9);
        assert_eq!(a.costs, b.costs);
        assert_eq!(a.tuned_index, b.tuned_index);
    }

    #[test]
    #[should_panic(expected = "protocol sigma must be finite")]
    fn non_finite_sigma_is_rejected_before_measuring() {
        let p = problem();
        let s = OnlineSimulation {
            protocol: Protocol {
                sigma: f64::NAN,
                ..Protocol::default()
            },
            ..sim(100, 20)
        };
        s.run(&p, &RandomSearch, None, None, 0);
    }

    #[test]
    fn informed_tuner_amortizes_faster_than_random() {
        let p = problem();
        let ls = bat_tuners::LocalSearch::default();
        let random_total = sim(1000, 80).run(&p, &RandomSearch, None, None, 2).total_ms;
        let local_total = sim(1000, 80).run(&p, &ls, None, None, 2).total_ms;
        // Local search climbs the smooth bowl quickly, so its
        // time-to-solution is at least competitive.
        assert!(
            local_total <= random_total * 1.15,
            "local {local_total} vs random {random_total}"
        );
    }
}
