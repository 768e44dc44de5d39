//! SMAC-style sequential model-based optimization with a random-forest
//! surrogate.
//!
//! SMAC3 (Hutter et al., the paper's reference [10]) is one of the four
//! frameworks the BAT interface integrates. Its signature design points are
//! reproduced here: a random-forest surrogate whose between-tree variance
//! provides the uncertainty for Expected Improvement, candidate generation
//! that mixes global random picks with local search around the incumbents,
//! and an interleaved pure-random evaluation every other iteration as a
//! theoretical convergence guarantee.

use std::collections::HashSet;

use bat_ml::{Dataset, ForestParams, RandomForest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bayes::Acquisition;
use crate::step::{StepCtx, StepTuner, Told};
use crate::tuner::{value_feature, CandidatePool, Tuner};

/// SMAC-style tuner settings.
#[derive(Debug, Clone, Copy)]
pub struct SmacTuner {
    /// Random evaluations before the first model fit.
    pub warmup: usize,
    /// Random candidates scored per iteration.
    pub pool: usize,
    /// Incumbents whose Hamming-1 neighbourhoods join the pool
    /// (SMAC's local-search component).
    pub local_from: usize,
    /// Forest size.
    pub n_trees: usize,
    /// Refit the forest every this many observations.
    pub refit_every: usize,
    /// Interleave a pure-random evaluation every this many iterations
    /// (SMAC interleaves 1-in-2 by default).
    pub interleave_random: usize,
}

impl Default for SmacTuner {
    fn default() -> Self {
        SmacTuner {
            warmup: 15,
            pool: 300,
            local_from: 2,
            n_trees: 30,
            refit_every: 3,
            interleave_random: 2,
        }
    }
}

struct SmacStep<'a> {
    cfg: &'a SmacTuner,
    space: &'a bat_space::ConfigSpace,
    rng: StdRng,
    seed: u64,
    card: u64,
    feature_names: Vec<String>,
    obs_x: Vec<Vec<f64>>,
    obs_y: Vec<f64>, // log time
    seen: HashSet<u64>,
    forest: Option<RandomForest>,
    fitted_at: usize,
    iteration: usize,
    warmup_left: usize,
}

impl StepTuner for SmacStep<'_> {
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
        if self.warmup_left > 0 {
            let want = self.warmup_left.min(ctx.batch);
            self.warmup_left -= want;
            return (0..want)
                .map(|_| {
                    let idx = self.rng.random_range(0..self.card);
                    self.seen.insert(idx);
                    idx
                })
                .collect();
        }
        self.iteration += 1;
        // Interleaved random evaluation (SMAC's exploration guarantee).
        if (self.cfg.interleave_random > 0
            && self.iteration.is_multiple_of(self.cfg.interleave_random))
            || self.obs_y.len() < 2
        {
            let idx = self.rng.random_range(0..self.card);
            self.seen.insert(idx);
            return vec![idx];
        }

        if self.forest.is_none() || self.obs_y.len() - self.fitted_at >= self.cfg.refit_every {
            let data = Dataset::new(&self.obs_x, self.obs_y.clone(), self.feature_names.clone());
            self.forest = Some(RandomForest::fit(
                &data,
                &ForestParams {
                    n_trees: self.cfg.n_trees,
                    seed: self.seed ^ 0xf0_5e57,
                    ..ForestParams::default()
                },
            ));
            self.fitted_at = self.obs_y.len();
        }
        let model = self.forest.as_ref().expect("fitted above");
        let best_log = self.obs_y.iter().cloned().fold(f64::INFINITY, f64::min);

        // Candidate pool: global random + neighbourhoods of the best
        // `local_from` incumbents, less the ones already evaluated.
        let seen = &self.seen;
        let keep = |idx| !seen.contains(&idx);
        let mut pool = CandidatePool::new(self.space, value_feature, self.cfg.pool);
        for _ in 0..self.cfg.pool {
            pool.draw(&mut self.rng, keep);
        }
        let mut order: Vec<usize> = (0..self.obs_y.len()).collect();
        order.sort_by(|&a, &b| self.obs_y[a].total_cmp(&self.obs_y[b]));
        for &oi in order.iter().take(self.cfg.local_from) {
            let pos: Vec<usize> = self.obs_x[oi]
                .iter()
                .enumerate()
                .map(|(d, &raw)| self.space.params()[d].position(raw as i64).unwrap_or(0))
                .collect();
            pool.neighbours(&pos, keep);
        }

        // Score the candidates by Expected Improvement in one pool pass;
        // ask the top `batch` distinct (stable order: `batch = 1` is the
        // classic first-strict-maximum pick).
        let acq = Acquisition::ExpectedImprovement;
        let scored = model
            .predict_pool(&pool.rows)
            .iter()
            .zip(pool.indices)
            .map(|(p, idx)| (acq.score(p.mean, p.std_dev(), best_log), idx))
            .collect();
        let mut out = crate::step::take_top_distinct(scored, ctx.batch, false);
        if out.is_empty() {
            out.push(self.rng.random_range(0..self.card));
        }
        for &idx in &out {
            self.seen.insert(idx);
        }
        out
    }

    fn tell(&mut self, results: &[Told]) {
        for r in results {
            if let Some(v) = r.value() {
                self.obs_x.push(
                    self.space
                        .config_at(r.index)
                        .iter()
                        .map(|&x| x as f64)
                        .collect(),
                );
                self.obs_y.push(v.max(1e-12).ln());
            }
        }
    }
}

impl Tuner for SmacTuner {
    fn name(&self) -> &str {
        "smac-forest"
    }

    fn start<'a>(
        &'a self,
        space: &'a bat_space::ConfigSpace,
        seed: u64,
    ) -> Box<dyn StepTuner + 'a> {
        Box::new(SmacStep {
            cfg: self,
            space,
            rng: StdRng::seed_from_u64(seed),
            seed,
            card: space.cardinality(),
            feature_names: space.names().to_vec(),
            obs_x: Vec::new(),
            obs_y: Vec::new(),
            seen: HashSet::new(),
            forest: None,
            fitted_at: 0,
            iteration: 0,
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

    fn rugged_problem(
    ) -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, bat_core::EvalFailure> + Send + Sync> {
        // Piecewise landscape with interactions: forests shine here.
        let space = ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 4, 8, 16]))
            .param(Param::new("b", vec![1, 2, 4, 8, 16]))
            .param(Param::int_range("c", 0, 7))
            .param(Param::boolean("d"))
            .build()
            .unwrap();
        SyntheticProblem::new("rugged", "sim", space, |v| {
            let base = (v[0] as f64 * v[1] as f64 / 64.0 - 1.0).abs() + 0.2;
            let c_term = if v[2] == 5 {
                0.0
            } else {
                0.3 + v[2] as f64 * 0.05
            };
            let d_term = if v[3] == 1 { 0.0 } else { 0.4 };
            Ok(base + c_term + d_term)
        })
    }

    #[test]
    fn smac_finds_near_optimal_configuration() {
        let p = rugged_problem();
        let eval = noiseless(&p, 150);
        let run = SmacTuner::default().tune(&eval, 1);
        let best = run.best().unwrap().time_ms().unwrap();
        assert!(best <= 0.3, "best {best}");
    }

    #[test]
    fn smac_beats_random_at_equal_budget() {
        let p = rugged_problem();
        let budget = 80;
        let mut wins = 0;
        for seed in 0..5 {
            let e1 = noiseless(&p, budget);
            let e2 = noiseless(&p, budget);
            let s = SmacTuner::default()
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
                wins += 1;
            }
        }
        assert!(wins >= 3, "SMAC won only {wins}/5");
    }

    #[test]
    fn budget_is_respected_exactly() {
        let p = rugged_problem();
        let eval = noiseless(&p, 64);
        let run = SmacTuner::default().tune(&eval, 0);
        assert_eq!(run.trials.len(), 64);
    }

    #[test]
    fn interleaving_disabled_still_works() {
        let p = rugged_problem();
        let tuner = SmacTuner {
            interleave_random: 0,
            ..SmacTuner::default()
        };
        let eval = noiseless(&p, 40);
        let run = tuner.tune(&eval, 3);
        assert_eq!(run.trials.len(), 40);
    }

    #[test]
    fn batched_smac_converges() {
        let p = rugged_problem();
        let protocol = Protocol::noiseless().with_batch(8);
        let eval = evaluator(&p, protocol, 150);
        let run = SmacTuner::default().tune(&eval, 1);
        assert_eq!(run.trials.len(), 150);
        assert!(run.best().unwrap().time_ms().unwrap() <= 0.4);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = rugged_problem();
        let idx = |seed| {
            let eval = noiseless(&p, 30);
            SmacTuner::default()
                .tune(&eval, seed)
                .trials
                .iter()
                .map(|t| t.index)
                .collect::<Vec<_>>()
        };
        assert_eq!(idx(9), idx(9));
    }
}
