//! Tree-structured Parzen Estimator — the default sampler of Optuna, one
//! of the four tuning frameworks the paper's shared interface integrates.
//!
//! TPE models *densities over configurations* instead of the objective
//! itself: observations are split into a "good" set (best γ-quantile) and a
//! "bad" set, per-parameter categorical densities `l(x)` and `g(x)` are
//! estimated from each (with a uniform Dirichlet prior as smoothing), and
//! candidates drawn from `l` are ranked by the likelihood ratio
//! `l(x)/g(x)`. Because BAT parameters are all discrete, the Parzen
//! estimator reduces to smoothed categorical histograms — exactly how
//! Optuna treats `suggest_categorical` dimensions.

use bat_core::{Evaluator, TuningRun};
use bat_space::ConfigSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::step::{StepCtx, StepTuner, Told};
use crate::tuner::{new_run, ordinal, record_eval, Recorded, Tuner};

/// TPE tuner settings.
#[derive(Debug, Clone, Copy)]
pub struct Tpe {
    /// Random evaluations before the first model-guided proposal
    /// (Optuna's `n_startup_trials`).
    pub warmup: usize,
    /// Quantile of observations treated as "good" (Optuna's γ).
    pub gamma: f64,
    /// Candidates drawn from `l(x)` per iteration (`n_ei_candidates`).
    pub candidates: usize,
    /// Dirichlet prior weight added to every category.
    pub prior_weight: f64,
    /// Check the space's restriction expressions *statically* before
    /// proposing a candidate (free of measurement budget). This is how
    /// the real tuner stack behaves: BAT's configuration-space handler
    /// rejects restricted suggestions before anything is compiled or
    /// launched. Disable to study the unconstrained sampler.
    pub respect_restrictions: bool,
}

impl Default for Tpe {
    fn default() -> Self {
        Tpe {
            warmup: 10,
            gamma: 0.15,
            candidates: 24,
            prior_weight: 1.0,
            respect_restrictions: true,
        }
    }
}

/// Per-parameter smoothed categorical density.
struct CategoricalDensity {
    /// Probability per value position; sums to 1.
    probs: Vec<f64>,
}

impl CategoricalDensity {
    /// Estimate from the `dim`-th coordinate of `positions`, smoothing
    /// every category with `prior_weight / n_categories`.
    fn estimate(
        positions: &[Vec<usize>],
        dim: usize,
        n_categories: usize,
        prior_weight: f64,
    ) -> Self {
        let mut counts = vec![prior_weight / n_categories as f64; n_categories];
        for p in positions {
            counts[p[dim]] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        CategoricalDensity {
            probs: counts.into_iter().map(|c| c / total).collect(),
        }
    }

    fn log_prob(&self, category: usize) -> f64 {
        self.probs[category].ln()
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut u = rng.random_range(0.0..1.0);
        for (i, &p) in self.probs.iter().enumerate() {
            if u < p {
                return i;
            }
            u -= p;
        }
        self.probs.len() - 1
    }
}

/// The good/bad density pair over all parameters.
struct ParzenPair {
    good: Vec<CategoricalDensity>,
    bad: Vec<CategoricalDensity>,
}

impl ParzenPair {
    fn build(
        space: &ConfigSpace,
        observations: &[(Vec<usize>, f64)],
        gamma: f64,
        prior_weight: f64,
    ) -> Self {
        let mut order: Vec<usize> = (0..observations.len()).collect();
        order.sort_by(|&a, &b| observations[a].1.total_cmp(&observations[b].1));
        // Optuna-style split size: at least 1, at most n-1 so the bad set
        // is never empty.
        let n_good = ((gamma * observations.len() as f64).ceil() as usize)
            .clamp(1, observations.len().saturating_sub(1).max(1));
        let good_pos: Vec<Vec<usize>> = order[..n_good]
            .iter()
            .map(|&i| observations[i].0.clone())
            .collect();
        let bad_pos: Vec<Vec<usize>> = order[n_good..]
            .iter()
            .map(|&i| observations[i].0.clone())
            .collect();

        let build_set = |set: &[Vec<usize>]| -> Vec<CategoricalDensity> {
            space
                .params()
                .iter()
                .enumerate()
                .map(|(d, p)| CategoricalDensity::estimate(set, d, p.len(), prior_weight))
                .collect()
        };
        ParzenPair {
            good: build_set(&good_pos),
            bad: build_set(&bad_pos),
        }
    }

    /// `log l(x) − log g(x)` over all dimensions.
    fn log_ratio(&self, pos: &[usize]) -> f64 {
        pos.iter()
            .enumerate()
            .map(|(d, &c)| self.good[d].log_prob(c) - self.bad[d].log_prob(c))
            .sum()
    }

    /// Draw a position vector from `l(x)`.
    fn sample_good<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<usize> {
        self.good.iter().map(|d| d.sample(rng)).collect()
    }
}

struct TpeStep<'a> {
    cfg: &'a Tpe,
    space: &'a ConfigSpace,
    rng: StdRng,
    card: u64,
    /// (positions, log time); failures carry a penalty objective.
    observations: Vec<(Vec<usize>, f64)>,
    worst_seen: f64,
    warmup_left: usize,
    draw_scratch: Vec<i64>,
}

impl TpeStep<'_> {
    /// Uniform draw, rejection-sampled against the static restrictions
    /// when `respect_restrictions` (bounded attempts: heavily constrained
    /// spaces fall back to an unfiltered draw).
    fn draw(&mut self) -> u64 {
        if self.cfg.respect_restrictions {
            for _ in 0..64 {
                let idx = self.rng.random_range(0..self.card);
                if self.space.is_valid_index_into(idx, &mut self.draw_scratch) {
                    return idx;
                }
            }
        }
        self.rng.random_range(0..self.card)
    }
}

impl StepTuner for TpeStep<'_> {
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
        if self.warmup_left > 0 {
            let want = self.warmup_left.min(ctx.batch);
            self.warmup_left -= want;
            return (0..want).map(|_| self.draw()).collect();
        }
        if self.observations.len() < 2 {
            return vec![self.draw()];
        }
        let pair = ParzenPair::build(
            self.space,
            &self.observations,
            self.cfg.gamma,
            self.cfg.prior_weight,
        );
        // Sample the candidate set once; ask the top `batch` distinct
        // likelihood ratios (stable order, so `batch = 1` is the classic
        // first-strict-maximum pick).
        let mut sampled: Vec<(f64, Vec<usize>)> = Vec::new();
        let mut kept = 0usize;
        let mut attempts = 0usize;
        while kept < self.cfg.candidates && attempts < self.cfg.candidates * 10 {
            attempts += 1;
            let pos = pair.sample_good(&mut self.rng);
            if self.cfg.respect_restrictions {
                let cfg: Vec<i64> = pos
                    .iter()
                    .enumerate()
                    .map(|(d, &p)| self.space.params()[d].value(p))
                    .collect();
                if !self.space.is_valid(&cfg) {
                    continue;
                }
            }
            kept += 1;
            let r = pair.log_ratio(&pos);
            sampled.push((r, pos));
        }
        if sampled.is_empty() {
            // All sampled candidates were restricted: evaluate an
            // unfiltered draw rather than stalling.
            return vec![self.draw()];
        }
        let scored: Vec<(f64, u64)> = sampled
            .into_iter()
            .map(|(r, pos)| (r, ordinal::index_of(self.space, &pos)))
            .collect();
        crate::step::take_top_distinct(scored, ctx.batch, false)
    }

    fn tell(&mut self, results: &[Told]) {
        for r in results {
            let pos = ordinal::positions_of(self.space, r.index);
            match r.value() {
                None => {
                    let penalty = if self.worst_seen.is_finite() {
                        self.worst_seen + 1.0
                    } else {
                        1e3
                    };
                    self.observations.push((pos, penalty));
                }
                Some(v) => {
                    let logv = v.max(1e-12).ln();
                    self.worst_seen = self.worst_seen.max(logv);
                    self.observations.push((pos, logv));
                }
            }
        }
    }
}

impl Tuner for Tpe {
    fn name(&self) -> &str {
        "tpe"
    }

    fn start<'a>(&'a self, space: &'a ConfigSpace, seed: u64) -> Box<dyn StepTuner + 'a> {
        Box::new(TpeStep {
            cfg: self,
            space,
            rng: StdRng::seed_from_u64(seed),
            card: space.cardinality(),
            observations: Vec::new(),
            worst_seen: f64::NEG_INFINITY,
            warmup_left: self.warmup,
            draw_scratch: vec![0i64; space.num_params()],
        })
    }
}

impl Tpe {
    /// The pre-ask/tell pull loop, kept verbatim as the equivalence oracle
    /// for the step driver (property-tested bit-identical at `batch = 1`).
    pub fn reference_tune(&self, eval: &Evaluator<'_>, seed: u64) -> TuningRun {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut run = new_run(eval, self.name(), seed);
        let space = eval.problem().space();
        let card = space.cardinality();

        // (positions, log time); failures are kept with a penalty objective
        // so TPE learns to avoid invalid regions (Optuna would receive a
        // pruned/failed trial there).
        let mut observations: Vec<(Vec<usize>, f64)> = Vec::new();
        let mut worst_seen = f64::NEG_INFINITY;
        let record = |run: &mut TuningRun,
                      observations: &mut Vec<(Vec<usize>, f64)>,
                      worst_seen: &mut f64,
                      idx: u64|
         -> Option<()> {
            let pos = ordinal::positions_of(space, idx);
            match record_eval(eval, run, idx) {
                Recorded::Exhausted => None,
                Recorded::Failed => {
                    let penalty = if worst_seen.is_finite() {
                        *worst_seen + 1.0
                    } else {
                        1e3
                    };
                    observations.push((pos, penalty));
                    Some(())
                }
                Recorded::Ok(v) => {
                    let logv = v.max(1e-12).ln();
                    *worst_seen = worst_seen.max(logv);
                    observations.push((pos, logv));
                    Some(())
                }
            }
        };

        // Uniform draw, rejection-sampled against the static restrictions
        // when `respect_restrictions` (bounded attempts: heavily
        // constrained spaces fall back to an unfiltered draw).
        let mut draw_scratch = vec![0i64; space.num_params()];
        let mut draw = |rng: &mut StdRng| -> u64 {
            if self.respect_restrictions {
                for _ in 0..64 {
                    let idx = rng.random_range(0..card);
                    if space.is_valid_index_into(idx, &mut draw_scratch) {
                        return idx;
                    }
                }
            }
            rng.random_range(0..card)
        };

        for _ in 0..self.warmup {
            let idx = draw(&mut rng);
            if record(&mut run, &mut observations, &mut worst_seen, idx).is_none() {
                return run;
            }
        }

        while eval.has_budget() {
            if observations.len() < 2 {
                let idx = draw(&mut rng);
                if record(&mut run, &mut observations, &mut worst_seen, idx).is_none() {
                    return run;
                }
                continue;
            }
            let pair = ParzenPair::build(space, &observations, self.gamma, self.prior_weight);
            let mut best_pos: Option<Vec<usize>> = None;
            let mut best_ratio = f64::NEG_INFINITY;
            let mut kept = 0usize;
            let mut attempts = 0usize;
            while kept < self.candidates && attempts < self.candidates * 10 {
                attempts += 1;
                let pos = pair.sample_good(&mut rng);
                if self.respect_restrictions {
                    let cfg: Vec<i64> = pos
                        .iter()
                        .enumerate()
                        .map(|(d, &p)| space.params()[d].value(p))
                        .collect();
                    if !space.is_valid(&cfg) {
                        continue;
                    }
                }
                kept += 1;
                let r = pair.log_ratio(&pos);
                if r > best_ratio {
                    best_ratio = r;
                    best_pos = Some(pos);
                }
            }
            // All sampled candidates were restricted: evaluate an
            // unfiltered draw rather than stalling.
            let idx = match best_pos {
                Some(pos) => ordinal::index_of(space, &pos),
                None => draw(&mut rng),
            };
            if record(&mut run, &mut observations, &mut worst_seen, idx).is_none() {
                return run;
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

    fn separable_problem(
    ) -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, bat_core::EvalFailure> + Send + Sync> {
        // Separable: exactly TPE's modelling assumption (independent dims).
        // Large enough (20³ = 8000) that random search cannot keep up.
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 19))
            .param(Param::int_range("y", 0, 19))
            .param(Param::int_range("z", 0, 19))
            .build()
            .unwrap();
        SyntheticProblem::new("separable", "sim", space, |v| {
            Ok(1.0
                + (v[0] - 3).unsigned_abs() as f64
                + (v[1] - 16).unsigned_abs() as f64
                + (v[2] - 9).unsigned_abs() as f64)
        })
    }

    #[test]
    fn density_estimation_is_smoothed_and_normalized() {
        let positions = vec![vec![0], vec![0], vec![2]];
        let d = CategoricalDensity::estimate(&positions, 0, 4, 1.0);
        let sum: f64 = d.probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Category 1 was never seen but has prior mass.
        assert!(d.probs[1] > 0.0);
        // Category 0 (seen twice) dominates.
        assert!(d.probs[0] > d.probs[2]);
        assert!(d.probs[2] > d.probs[1]);
    }

    #[test]
    fn sampling_follows_density() {
        let positions = vec![vec![3]; 50];
        let d = CategoricalDensity::estimate(&positions, 0, 4, 0.5);
        let mut rng = StdRng::seed_from_u64(0);
        let hits = (0..1000).filter(|_| d.sample(&mut rng) == 3).count();
        assert!(hits > 900, "sampled category 3 only {hits}/1000 times");
    }

    #[test]
    fn good_bad_split_never_empties_either_set() {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 3))
            .build()
            .unwrap();
        for n in [2usize, 3, 10, 100] {
            let obs: Vec<(Vec<usize>, f64)> = (0..n).map(|i| (vec![i % 4], i as f64)).collect();
            let pair = ParzenPair::build(&space, &obs, 0.15, 1.0);
            // Both densities exist and are proper.
            assert!((pair.good[0].probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!((pair.bad[0].probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn log_ratio_prefers_good_region() {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 9))
            .build()
            .unwrap();
        // Low x is good (objective = x).
        let obs: Vec<(Vec<usize>, f64)> = (0..10).map(|i| (vec![i], i as f64)).collect();
        let pair = ParzenPair::build(&space, &obs, 0.3, 1.0);
        assert!(pair.log_ratio(&[0]) > pair.log_ratio(&[9]));
    }

    #[test]
    fn tpe_finds_optimum_on_separable_landscape() {
        let p = separable_problem();
        let eval = noiseless(&p, 300);
        let run = Tpe::default().tune(&eval, 5);
        let best = run.best().unwrap();
        assert!(
            best.time_ms().unwrap() <= 4.0,
            "best {:?} at {}",
            best.config,
            best.time_ms().unwrap()
        );
    }

    #[test]
    fn tpe_beats_random_at_equal_budget() {
        let p = separable_problem();
        let budget = 120;
        let mut wins = 0;
        for seed in 0..8 {
            let e1 = noiseless(&p, budget);
            let e2 = noiseless(&p, budget);
            let t = Tpe::default()
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
            if t <= r {
                wins += 1;
            }
        }
        assert!(wins >= 6, "TPE won only {wins}/8");
    }

    #[test]
    fn budget_is_respected_exactly() {
        let p = separable_problem();
        let eval = noiseless(&p, 50);
        let run = Tpe::default().tune(&eval, 0);
        assert_eq!(run.trials.len(), 50);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = separable_problem();
        let idx = |seed| {
            let eval = noiseless(&p, 40);
            Tpe::default()
                .tune(&eval, seed)
                .trials
                .iter()
                .map(|t| t.index)
                .collect::<Vec<_>>()
        };
        assert_eq!(idx(4), idx(4));
        assert_ne!(idx(4), idx(5));
    }

    #[test]
    fn step_driver_matches_reference_loop_at_batch_one() {
        let p = separable_problem();
        let t = Tpe::default();
        for seed in 0..4 {
            let e1 = noiseless(&p, 80);
            let e2 = noiseless(&p, 80);
            assert_eq!(t.tune(&e1, seed), t.reference_tune(&e2, seed));
        }
    }

    #[test]
    fn batched_tpe_converges() {
        let p = separable_problem();
        let protocol = Protocol::noiseless().with_batch(8);
        let eval = evaluator(&p, protocol, 300);
        let run = Tpe::default().tune(&eval, 5);
        assert_eq!(run.trials.len(), 300);
        assert!(run.best().unwrap().time_ms().unwrap() <= 6.0);
    }
}
