//! Bayesian optimization with a Gaussian-process surrogate.
//!
//! This is the algorithm family of Willemsen et al., "Bayesian Optimization
//! for auto-tuning GPU kernels" (the paper's reference \[22\]): a GP posterior
//! over the (log) runtime drives an acquisition function that balances
//! exploiting the predicted-fast region against exploring where the model is
//! uncertain.
//!
//! The GP is exact. Hyperparameters are re-selected from a grid every
//! [`BayesianOptimization::hyper_refit_every`] observations, at O(n³) per
//! grid point. In between, a step whose observations were only appended
//! grows the previous GP's Cholesky factor ([`GaussianProcess::refit`]), at
//! O(n²) per new row while no input's range moves, and a step with no new
//! observation reuses the previous GP. The training set is capped at
//! [`BayesianOptimization::max_observations`] (keeping the best
//! observations plus a random subsample, so the incumbent region stays
//! well modelled); past the cap, every step fits its subsample afresh.

use std::collections::HashSet;

use bat_core::{Evaluator, TuningRun};
use bat_ml::stats::{norm_cdf, norm_pdf};
use bat_ml::{GaussianProcess, GpParams, KernelKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::step::{StepCtx, StepTuner, Told};
use crate::tuner::{
    new_run, ordinal, position_feature, record_eval, CandidatePool, Recorded, Tuner,
};

/// Acquisition functions for minimization. All scores are
/// "higher-is-better" so candidate selection is a single `max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acquisition {
    /// Expected improvement over the incumbent: the default in ref \[22\].
    ExpectedImprovement,
    /// Probability of improving on the incumbent — greedier than EI.
    ProbabilityOfImprovement,
    /// Lower confidence bound `μ − β σ` (negated into a score);
    /// `beta` sets the exploration weight.
    LowerConfidenceBound {
        /// Exploration weight (σ multiplier). Typical values 1–3.
        beta: f64,
    },
}

impl Acquisition {
    /// Score a candidate with posterior `(mean, std)` against the
    /// incumbent objective `best` (all in minimization units).
    pub fn score(&self, mean: f64, std: f64, best: f64) -> f64 {
        match *self {
            Acquisition::ExpectedImprovement => {
                if std <= 1e-12 {
                    return (best - mean).max(0.0);
                }
                let z = (best - mean) / std;
                std * (z * norm_cdf(z) + norm_pdf(z))
            }
            Acquisition::ProbabilityOfImprovement => {
                if std <= 1e-12 {
                    return if mean < best { 1.0 } else { 0.0 };
                }
                norm_cdf((best - mean) / std)
            }
            Acquisition::LowerConfidenceBound { beta } => -(mean - beta * std),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Acquisition::ExpectedImprovement => "ei",
            Acquisition::ProbabilityOfImprovement => "pi",
            Acquisition::LowerConfidenceBound { .. } => "lcb",
        }
    }
}

/// GP-based Bayesian optimization tuner.
#[derive(Debug, Clone)]
pub struct BayesianOptimization {
    /// Random evaluations before the first model fit.
    pub warmup: usize,
    /// Candidate pool size per iteration (random + incumbent neighbours).
    pub pool: usize,
    /// Acquisition function.
    pub acquisition: Acquisition,
    /// Kernel family for the GP.
    pub kernel: KernelKind,
    /// Re-select GP hyperparameters from the grid every this many new
    /// observations (the posterior itself is refreshed whenever an
    /// observation arrives).
    pub hyper_refit_every: usize,
    /// Cap on GP training-set size (exact GP is O(n³)).
    pub max_observations: usize,
    name: String,
}

impl BayesianOptimization {
    /// Construct with an explicit acquisition function.
    pub fn with_acquisition(acquisition: Acquisition) -> Self {
        BayesianOptimization {
            name: format!("gp-bo-{}", acquisition.name()),
            acquisition,
            ..BayesianOptimization::default()
        }
    }
}

impl Default for BayesianOptimization {
    fn default() -> Self {
        BayesianOptimization {
            warmup: 15,
            pool: 250,
            acquisition: Acquisition::ExpectedImprovement,
            kernel: KernelKind::Matern52,
            hyper_refit_every: 10,
            max_observations: 250,
            name: "gp-bo-ei".to_string(),
        }
    }
}

/// GP features of a configuration: *ordinal positions* per parameter, not
/// raw values. Tuning parameters are mostly geometric sequences (1, 2, 4,
/// …, 1024); positions make them uniformly spaced, which is the encoding
/// GP-based kernel tuning uses in practice (ref \[22\]) — with raw values a
/// single lengthscale cannot serve both ends of the sequence.
fn gp_features(space: &bat_space::ConfigSpace, index: u64) -> Vec<f64> {
    ordinal::positions_of(space, index)
        .into_iter()
        .map(|pos| pos as f64)
        .collect()
}

/// Observation store: feature rows + log-times, with the bookkeeping
/// needed for the capped training subset.
struct Observations {
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
}

impl Observations {
    /// Training subset: all points when small; otherwise the `cap/2` best
    /// plus a seeded random sample of the rest.
    fn training_set(&self, cap: usize, rng: &mut StdRng) -> (Vec<Vec<f64>>, Vec<f64>) {
        let n = self.y.len();
        if n <= cap {
            return (self.x.clone(), self.y.clone());
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| self.y[a].total_cmp(&self.y[b]));
        let keep_best = cap / 2;
        let mut chosen: Vec<usize> = order[..keep_best].to_vec();
        let mut rest: Vec<usize> = order[keep_best..].to_vec();
        rest.shuffle(rng);
        chosen.extend(rest.into_iter().take(cap - keep_best));
        let x = chosen.iter().map(|&i| self.x[i].clone()).collect();
        let y = chosen.iter().map(|&i| self.y[i]).collect();
        (x, y)
    }
}

struct BayesStep<'a> {
    cfg: &'a BayesianOptimization,
    space: &'a bat_space::ConfigSpace,
    rng: StdRng,
    card: u64,
    obs: Observations,
    best_log: f64,
    best_idx: Option<u64>,
    /// Configurations already spent budget on (candidate dedup).
    seen: HashSet<u64>,
    /// The last step's GP and the observation count it saw; its
    /// hyperparameters are those of the last grid fit.
    gp: Option<(GaussianProcess, usize)>,
    obs_at_last_grid_fit: usize,
    warmup_left: usize,
}

impl StepTuner for BayesStep<'_> {
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
        if self.obs.y.len() < 2 {
            // Everything failed so far: keep sampling at random.
            let idx = self.rng.random_range(0..self.card);
            self.seen.insert(idx);
            return vec![idx];
        }

        // Each step's model is the fit of its training set: on the grid
        // when due, else at the last grid fit's hyperparameters. Below the
        // cap the training set is every observation, in order, so the last
        // GP serves again when nothing arrived, and grows by the new rows
        // when some did. Neither draws from the RNG, and neither does the
        // training set below the cap.
        let n = self.obs.y.len();
        let cap = self.cfg.max_observations;
        let grid_due =
            self.gp.is_none() || n - self.obs_at_last_grid_fit >= self.cfg.hyper_refit_every;
        let gp = match self.gp.take() {
            Some((gp, fitted)) if !grid_due && n <= cap && fitted == n => gp,
            Some((gp, _)) if !grid_due && n <= cap => gp.refit(&self.obs.x, &self.obs.y),
            last => {
                let (tx, ty) = self.obs.training_set(cap, &mut self.rng);
                let params = match last {
                    Some((gp, _)) if !grid_due => {
                        GpParams::fixed(self.cfg.kernel, gp.lengthscale(), gp.noise())
                    }
                    _ => {
                        self.obs_at_last_grid_fit = n;
                        GpParams {
                            kernel: self.cfg.kernel,
                            ..GpParams::default()
                        }
                    }
                };
                GaussianProcess::fit(&tx, &ty, &params)
            }
        };

        // Candidate pool: random configurations plus Hamming-1 neighbours
        // of the incumbent (local refinement, as in SMAC/ref [22]), less
        // the ones already evaluated.
        let seen = &self.seen;
        let keep = |idx| !seen.contains(&idx);
        let mut pool = CandidatePool::new(self.space, position_feature, self.cfg.pool);
        for _ in 0..self.cfg.pool {
            pool.draw(&mut self.rng, keep);
        }
        if let Some(bi) = self.best_idx {
            pool.neighbours(&ordinal::positions_of(self.space, bi), keep);
        }

        // Score the candidates in one pool pass, in candidate order; ask
        // the top `batch` distinct (stable order, so `batch = 1` is the
        // classic first-strict-maximum pick).
        let scored: Vec<(f64, u64)> = gp
            .predict_pool(&pool.rows)
            .iter()
            .zip(pool.indices)
            .map(|(p, idx)| {
                let s = self
                    .cfg
                    .acquisition
                    .score(p.mean, p.std_dev(), self.best_log);
                (s, idx)
            })
            .collect();
        let mut out = crate::step::take_top_distinct(scored, ctx.batch, false);
        if out.is_empty() {
            // Whole pool already evaluated (tiny spaces): fall back to a
            // fresh random draw, seen or not.
            out.push(self.rng.random_range(0..self.card));
        }
        for &idx in &out {
            self.seen.insert(idx);
        }
        self.gp = Some((gp, n));
        out
    }

    fn tell(&mut self, results: &[Told]) {
        for r in results {
            if let Some(v) = r.value() {
                let logv = v.max(1e-12).ln();
                self.obs.x.push(gp_features(self.space, r.index));
                self.obs.y.push(logv);
                if logv < self.best_log {
                    self.best_log = logv;
                    self.best_idx = Some(r.index);
                }
            }
        }
    }
}

impl Tuner for BayesianOptimization {
    fn name(&self) -> &str {
        &self.name
    }

    fn start<'a>(
        &'a self,
        space: &'a bat_space::ConfigSpace,
        seed: u64,
    ) -> Box<dyn StepTuner + 'a> {
        Box::new(BayesStep {
            cfg: self,
            space,
            rng: StdRng::seed_from_u64(seed),
            card: space.cardinality(),
            obs: Observations {
                x: Vec::new(),
                y: Vec::new(),
            },
            best_log: f64::INFINITY,
            best_idx: None,
            seen: HashSet::new(),
            gp: None,
            obs_at_last_grid_fit: 0,
            warmup_left: self.warmup,
        })
    }
}

impl BayesianOptimization {
    /// The pre-ask/tell pull loop, kept verbatim as the equivalence oracle
    /// for the step driver (property-tested bit-identical at `batch = 1`).
    pub fn reference_tune(&self, eval: &Evaluator<'_>, seed: u64) -> TuningRun {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut run = new_run(eval, self.name(), seed);
        let space = eval.problem().space();
        let card = space.cardinality();

        let mut obs = Observations {
            x: Vec::new(),
            y: Vec::new(),
        };
        let mut best_log = f64::INFINITY;
        let mut best_idx: Option<u64> = None;
        // Configurations already spent budget on: re-evaluating one costs
        // an evaluation but teaches the model nothing, so candidates are
        // deduplicated against this set.
        let mut seen: HashSet<u64> = HashSet::new();
        let record = |run: &mut TuningRun,
                      obs: &mut Observations,
                      best_log: &mut f64,
                      best_idx: &mut Option<u64>,
                      idx: u64|
         -> Option<()> {
            match record_eval(eval, run, idx) {
                Recorded::Exhausted => None,
                Recorded::Failed => Some(()),
                Recorded::Ok(v) => {
                    let logv = v.max(1e-12).ln();
                    obs.x.push(gp_features(space, idx));
                    obs.y.push(logv);
                    if logv < *best_log {
                        *best_log = logv;
                        *best_idx = Some(idx);
                    }
                    Some(())
                }
            }
        };

        for _ in 0..self.warmup {
            let idx = rng.random_range(0..card);
            seen.insert(idx);
            if record(&mut run, &mut obs, &mut best_log, &mut best_idx, idx).is_none() {
                return run;
            }
        }

        let mut hyper: Option<(f64, f64)> = None; // (lengthscale, noise)
        let mut obs_at_last_grid_fit = 0usize;
        while eval.has_budget() {
            if obs.y.len() < 2 {
                // Everything failed so far: keep sampling at random.
                let idx = rng.random_range(0..card);
                seen.insert(idx);
                if record(&mut run, &mut obs, &mut best_log, &mut best_idx, idx).is_none() {
                    break;
                }
                continue;
            }

            let (tx, ty) = obs.training_set(self.max_observations, &mut rng);
            let grid_due =
                hyper.is_none() || obs.y.len() - obs_at_last_grid_fit >= self.hyper_refit_every;
            let params = if grid_due {
                GpParams {
                    kernel: self.kernel,
                    ..GpParams::default()
                }
            } else {
                let (ell, noise) = hyper.expect("set when not due");
                GpParams::fixed(self.kernel, ell, noise)
            };
            let gp = GaussianProcess::fit(&tx, &ty, &params);
            if grid_due {
                hyper = Some((gp.lengthscale(), gp.noise()));
                obs_at_last_grid_fit = obs.y.len();
            }

            // Candidate pool: random configurations plus Hamming-1
            // neighbours of the incumbent (local refinement, as in the
            // candidate generation of SMAC/ref [22]).
            let mut candidates: Vec<u64> = (0..self.pool)
                .map(|_| ordinal::index_of(space, &ordinal::random_positions(space, &mut rng)))
                .collect();
            if let Some(bi) = best_idx {
                let pos = ordinal::positions_of(space, bi);
                for i in 0..pos.len() {
                    for alt in 0..space.params()[i].len() {
                        if alt != pos[i] {
                            let mut p = pos.clone();
                            p[i] = alt;
                            candidates.push(ordinal::index_of(space, &p));
                        }
                    }
                }
            }

            let mut chosen = None;
            let mut best_score = f64::NEG_INFINITY;
            for &idx in &candidates {
                if seen.contains(&idx) {
                    continue;
                }
                let p = gp.predict(&gp_features(space, idx));
                let s = self.acquisition.score(p.mean, p.std_dev(), best_log);
                if s > best_score {
                    best_score = s;
                    chosen = Some(idx);
                }
            }
            // Whole pool already evaluated (tiny spaces): fall back to a
            // fresh random draw, seen or not.
            let chosen = chosen.unwrap_or_else(|| rng.random_range(0..card));
            seen.insert(chosen);
            if record(&mut run, &mut obs, &mut best_log, &mut best_idx, chosen).is_none() {
                break;
            }
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{evaluator, noiseless};
    use bat_core::{Protocol, SyntheticProblem};
    use bat_space::{ConfigSpace, Param};

    fn smooth_problem(
    ) -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, bat_core::EvalFailure> + Send + Sync> {
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
    fn ei_scores_favor_low_mean_and_high_uncertainty() {
        let acq = Acquisition::ExpectedImprovement;
        let best = 1.0;
        // Lower mean is better at equal σ.
        assert!(acq.score(0.5, 0.1, best) > acq.score(0.9, 0.1, best));
        // Higher σ is better at equal (bad) mean.
        assert!(acq.score(1.5, 1.0, best) > acq.score(1.5, 0.01, best));
        // Zero σ reduces to plain improvement.
        assert_eq!(acq.score(0.4, 0.0, best), 0.6);
        assert_eq!(acq.score(1.4, 0.0, best), 0.0);
    }

    #[test]
    fn pi_and_lcb_scores_are_sane() {
        let best = 2.0;
        let pi = Acquisition::ProbabilityOfImprovement;
        assert!(pi.score(1.0, 0.5, best) > 0.97);
        assert!(pi.score(3.0, 0.5, best) < 0.03);
        assert_eq!(pi.score(1.0, 0.0, best), 1.0);
        assert_eq!(pi.score(3.0, 0.0, best), 0.0);

        let lcb = Acquisition::LowerConfidenceBound { beta: 2.0 };
        // score = -(μ - βσ): more uncertainty raises the score.
        assert!(lcb.score(1.0, 1.0, best) > lcb.score(1.0, 0.1, best));
    }

    #[test]
    fn bo_finds_optimum_on_smooth_landscape() {
        let p = smooth_problem();
        let eval = noiseless(&p, 120);
        let run = BayesianOptimization::default().tune(&eval, 3);
        let best = run.best().unwrap();
        assert_eq!(best.config, vec![8, 8, 4], "best {:?}", best.config);
    }

    #[test]
    fn bo_beats_random_at_equal_budget() {
        let p = smooth_problem();
        let budget = 70;
        let mut wins = 0;
        for seed in 0..5 {
            let e1 = noiseless(&p, budget);
            let e2 = noiseless(&p, budget);
            let b = BayesianOptimization::default()
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
            if b <= r {
                wins += 1;
            }
        }
        assert!(wins >= 4, "BO won only {wins}/5 against random search");
    }

    #[test]
    fn budget_is_respected_exactly() {
        let p = smooth_problem();
        for budget in [10, 16, 45] {
            let eval = noiseless(&p, budget);
            let run = BayesianOptimization::default().tune(&eval, 0);
            assert_eq!(run.trials.len(), budget as usize);
        }
    }

    #[test]
    fn acquisition_variants_all_run() {
        let p = smooth_problem();
        for acq in [
            Acquisition::ExpectedImprovement,
            Acquisition::ProbabilityOfImprovement,
            Acquisition::LowerConfidenceBound { beta: 2.0 },
        ] {
            let tuner = BayesianOptimization::with_acquisition(acq);
            let eval = noiseless(&p, 40);
            let run = tuner.tune(&eval, 1);
            assert_eq!(run.trials.len(), 40, "{}", tuner.name());
            assert!(run.best().is_some());
        }
    }

    #[test]
    fn names_reflect_acquisition() {
        assert_eq!(
            BayesianOptimization::with_acquisition(Acquisition::ProbabilityOfImprovement).name(),
            "gp-bo-pi"
        );
        assert_eq!(BayesianOptimization::default().name(), "gp-bo-ei");
    }

    #[test]
    fn deterministic_given_seed() {
        let p = smooth_problem();
        let run1 = {
            let eval = noiseless(&p, 35);
            BayesianOptimization::default().tune(&eval, 7)
        };
        let run2 = {
            let eval = noiseless(&p, 35);
            BayesianOptimization::default().tune(&eval, 7)
        };
        let idx1: Vec<u64> = run1.trials.iter().map(|t| t.index).collect();
        let idx2: Vec<u64> = run2.trials.iter().map(|t| t.index).collect();
        assert_eq!(idx1, idx2);
    }

    #[test]
    fn step_driver_matches_reference_loop_at_batch_one() {
        let p = smooth_problem();
        let bo = BayesianOptimization::default();
        for seed in 0..3 {
            let e1 = noiseless(&p, 45);
            let e2 = noiseless(&p, 45);
            assert_eq!(bo.tune(&e1, seed), bo.reference_tune(&e2, seed));
        }
    }

    #[test]
    fn batched_bo_converges() {
        let p = smooth_problem();
        let protocol = Protocol::noiseless().with_batch(4);
        let eval = evaluator(&p, protocol, 120);
        let run = BayesianOptimization::default().tune(&eval, 3);
        assert_eq!(run.trials.len(), 120);
        assert!(run.best().unwrap().time_ms().unwrap() <= 0.6);
    }

    #[test]
    fn observation_cap_keeps_tuner_running() {
        let p = smooth_problem();
        let tuner = BayesianOptimization {
            max_observations: 20,
            warmup: 5,
            ..BayesianOptimization::default()
        };
        let eval = noiseless(&p, 60);
        let run = tuner.tune(&eval, 2);
        assert_eq!(run.trials.len(), 60);
        // Still finds a good region despite the cap.
        assert!(run.best().unwrap().time_ms().unwrap() < 1.0);
    }
}
