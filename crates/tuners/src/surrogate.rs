//! Surrogate-model tuner: sequential model-based optimization with a GBDT
//! surrogate (the SMAC/Optuna family the paper's interface targets).
//!
//! Ask/tell form: warm-up draws batch freely; each model step either
//! explores (a single ε-greedy random candidate) or scores the random
//! pool once and asks its top `batch` distinct predictions — the
//! q-greedy batched SMBO generalization, which collapses to the exact
//! historical argmin at `batch = 1`.

use bat_ml::{Dataset, Gbdt, GbdtParams, TreeParams};
use bat_space::ConfigSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::step::{StepCtx, StepTuner, Told};
use crate::tuner::{value_feature, CandidatePool, Tuner};

/// SMBO loop: random warm-up, then repeatedly (1) fit a GBDT surrogate on
/// all successful observations, (2) score a random candidate pool, (3)
/// evaluate the candidate(s) with the best predicted objective (ties broken
/// toward unseen configurations).
#[derive(Debug, Clone, Copy)]
pub struct SurrogateTuner {
    /// Random evaluations before the first model fit.
    pub warmup: usize,
    /// Candidate pool size per iteration.
    pub pool: usize,
    /// Surrogate refit interval (iterations).
    pub refit_every: usize,
    /// Exploration probability: with this chance, evaluate a random
    /// candidate instead of the incumbent-predicted best.
    pub epsilon: f64,
}

impl Default for SurrogateTuner {
    fn default() -> Self {
        SurrogateTuner {
            warmup: 20,
            pool: 200,
            refit_every: 5,
            epsilon: 0.1,
        }
    }
}

struct SurrogateStep<'a> {
    cfg: &'a SurrogateTuner,
    space: &'a ConfigSpace,
    rng: StdRng,
    seed: u64,
    card: u64,
    feature_names: Vec<String>,
    obs_x: Vec<Vec<f64>>,
    obs_y: Vec<f64>,
    model: Option<Gbdt>,
    /// Observations the model was fitted on.
    fitted_at: usize,
    since_refit: usize,
    warmup_left: usize,
}

impl SurrogateStep<'_> {
    /// Refit every `refit_every` steps. A due refit with no observation
    /// since the last one would see the same data with the same seed, so
    /// the model stands.
    fn refit_if_due(&mut self) {
        if self.since_refit < self.cfg.refit_every {
            return;
        }
        self.since_refit = 0;
        if self.model.is_none() || self.obs_y.len() != self.fitted_at {
            self.fitted_at = self.obs_y.len();
            let data = Dataset::new(&self.obs_x, self.obs_y.clone(), self.feature_names.clone());
            self.model = Some(Gbdt::fit(
                &data,
                &GbdtParams {
                    n_trees: 60,
                    learning_rate: 0.15,
                    tree: TreeParams {
                        max_depth: 5,
                        min_samples_leaf: 2,
                    },
                    subsample: 0.9,
                    seed: self.seed ^ 0x5eed,
                },
            ));
        }
    }
}

impl StepTuner for SurrogateStep<'_> {
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
        if self.warmup_left > 0 {
            let want = self.warmup_left.min(ctx.batch);
            self.warmup_left -= want;
            return (0..want)
                .map(|_| self.rng.random_range(0..self.card))
                .collect();
        }
        // ε-greedy exploration (one candidate, like one classic iteration).
        if self.rng.random_bool(self.cfg.epsilon) || self.obs_x.len() < 2 {
            return vec![self.rng.random_range(0..self.card)];
        }
        self.refit_if_due();
        let model = self.model.as_ref().expect("fitted above");
        // Score the random pool in one pass; ask the top `batch` distinct
        // predictions (stable order, so `batch = 1` is the classic
        // first-strict-minimum argmin).
        let mut pool = CandidatePool::new(self.space, value_feature, self.cfg.pool);
        for _ in 0..self.cfg.pool {
            pool.draw(&mut self.rng, |_| true);
        }
        let scored = model
            .predict_pool(&pool.rows)
            .into_iter()
            .zip(pool.indices)
            .collect();
        crate::step::take_top_distinct(scored, ctx.batch, true)
    }

    fn tell(&mut self, results: &[Told]) {
        for r in results {
            if let Some(v) = r.value() {
                let config = self.space.config_at(r.index);
                self.obs_x.push(config.iter().map(|&x| x as f64).collect());
                self.obs_y.push(v.max(1e-12).ln());
            }
        }
        // One iteration's worth of staleness per step, regardless of batch
        // width (the refit cadence is measured in steps; during warm-up the
        // counter saturates at MAX, forcing the first fit — as classically).
        self.since_refit = self.since_refit.saturating_add(1);
    }
}

impl Tuner for SurrogateTuner {
    fn name(&self) -> &str {
        "gbdt-surrogate"
    }

    fn start<'a>(&'a self, space: &'a ConfigSpace, seed: u64) -> Box<dyn StepTuner + 'a> {
        Box::new(SurrogateStep {
            cfg: self,
            space,
            rng: StdRng::seed_from_u64(seed),
            seed,
            card: space.cardinality(),
            feature_names: space.names().to_vec(),
            obs_x: Vec::new(),
            obs_y: Vec::new(),
            model: None,
            fitted_at: 0,
            since_refit: usize::MAX,
            warmup_left: self.warmup,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{evaluator, noiseless};
    use bat_core::{Protocol, SyntheticProblem};
    use bat_space::{ConfigSpace, Param};

    fn problem(
    ) -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, bat_core::EvalFailure> + Send + Sync> {
        // Smooth multiplicative landscape: surrogates excel here.
        let space = ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 4, 8, 16, 32]))
            .param(Param::new("b", vec![1, 2, 4, 8, 16, 32]))
            .param(Param::int_range("c", 0, 9))
            .build()
            .unwrap();
        SyntheticProblem::new("ridge", "sim", space, |v| {
            let a = v[0] as f64;
            let b = v[1] as f64;
            let c = v[2] as f64;
            Ok((a / 8.0 - 1.0).powi(2) + (b / 8.0 - 1.0).powi(2) + 0.3 * (c - 4.0).powi(2) + 0.5)
        })
    }

    #[test]
    fn surrogate_finds_optimum() {
        let p = problem();
        let eval = noiseless(&p, 150);
        let run = SurrogateTuner::default().tune(&eval, 2);
        let best = run.best().unwrap();
        assert_eq!(best.config, vec![8, 8, 4], "best {:?}", best.config);
    }

    #[test]
    fn surrogate_beats_random_at_equal_budget() {
        let p = problem();
        let budget = 80;
        let mut sur_wins = 0;
        for seed in 0..5 {
            let e1 = noiseless(&p, budget);
            let e2 = noiseless(&p, budget);
            let s = SurrogateTuner::default()
                .tune(&e1, seed)
                .best()
                .unwrap()
                .time_ms()
                .unwrap();
            let r = crate::random::RandomSearch
                .tune(&e2, seed)
                .best()
                .unwrap()
                .time_ms()
                .unwrap();
            if s <= r {
                sur_wins += 1;
            }
        }
        assert!(sur_wins >= 3, "surrogate won only {sur_wins}/5");
    }

    #[test]
    fn budget_respected() {
        let p = problem();
        let eval = noiseless(&p, 60);
        let run = SurrogateTuner::default().tune(&eval, 0);
        assert_eq!(run.trials.len(), 60);
    }

    #[test]
    fn batched_smbo_proposes_distinct_candidates_and_converges() {
        let p = problem();
        let protocol = Protocol::noiseless().with_batch(8);
        let eval = evaluator(&p, protocol, 150);
        let run = SurrogateTuner::default().tune(&eval, 2);
        assert_eq!(run.trials.len(), 150);
        assert!(run.best().unwrap().time_ms().unwrap() <= 0.6);
    }
}
