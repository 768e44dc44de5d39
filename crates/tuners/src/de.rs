//! Differential evolution (rand/1/bin) on the ordinal embedding.
//!
//! Ask/tell form: initialization batches freely (its draws never depend on
//! measurements); the evolution phase builds up to `batch` trial vectors
//! against consecutive targets from the current population snapshot and
//! applies greedy selection in told order. `batch = 1` replays the
//! historical loop bit-exactly; `batch = population` is synchronous DE.

use bat_core::{Evaluator, TuningRun};
use bat_space::ConfigSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::step::{StepCtx, StepTuner, Told};
use crate::tuner::{new_run, ordinal, record_eval, Recorded, Tuner};

/// DE/rand/1/bin adapted to discrete spaces: difference vectors act on
/// continuous ordinal coordinates, trial vectors are rounded for
/// evaluation, and selection is greedy per slot.
#[derive(Debug, Clone, Copy)]
pub struct DifferentialEvolution {
    /// Population size (≥ 4).
    pub population: usize,
    /// Differential weight F.
    pub f: f64,
    /// Crossover rate CR.
    pub cr: f64,
}

impl Default for DifferentialEvolution {
    fn default() -> Self {
        DifferentialEvolution {
            population: 20,
            f: 0.8,
            cr: 0.9,
        }
    }
}

struct DeStep<'a> {
    cfg: &'a DifferentialEvolution,
    space: &'a ConfigSpace,
    rng: StdRng,
    xs: Vec<Vec<f64>>,
    vals: Vec<f64>,
    /// Next target slot of the cyclic evolution pass.
    target: usize,
    /// `(target, trial_vector)` pairs asked but not yet told.
    pending: Vec<(usize, Vec<f64>)>,
    /// Genomes of the initial population asked but not yet told.
    init_pending: Vec<Vec<f64>>,
}

impl DeStep<'_> {
    fn random_genome(&mut self) -> Vec<f64> {
        (0..self.space.num_params())
            .map(|i| {
                self.rng
                    .random_range(0.0..self.space.params()[i].len() as f64 - 1e-9)
            })
            .collect()
    }

    fn trial_for(&mut self, target: usize) -> Vec<f64> {
        let dims = self.space.num_params();
        let population = self.cfg.population;
        let mut pick = || loop {
            let c = self.rng.random_range(0..population);
            if c != target {
                return c;
            }
        };
        let (a, b, c) = (pick(), pick(), pick());
        let j_rand = self.rng.random_range(0..dims);
        let mut trial = self.xs[target].clone();
        for (j, slot) in trial.iter_mut().enumerate() {
            if j == j_rand || self.rng.random_bool(self.cfg.cr) {
                let span = self.space.params()[j].len() as f64;
                *slot = (self.xs[a][j] + self.cfg.f * (self.xs[b][j] - self.xs[c][j]))
                    .clamp(0.0, span - 1.0);
            }
        }
        trial
    }
}

impl StepTuner for DeStep<'_> {
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
        if self.xs.len() < self.cfg.population {
            let want = (self.cfg.population - self.xs.len()).min(ctx.batch);
            self.init_pending = (0..want).map(|_| self.random_genome()).collect();
            return self
                .init_pending
                .iter()
                .map(|x| ordinal::index_of_continuous(self.space, x))
                .collect();
        }
        self.pending.clear();
        for _ in 0..ctx.batch {
            let target = self.target;
            self.target = (self.target + 1) % self.cfg.population;
            let trial = self.trial_for(target);
            self.pending.push((target, trial));
        }
        self.pending
            .iter()
            .map(|(_, x)| ordinal::index_of_continuous(self.space, x))
            .collect()
    }

    fn tell(&mut self, results: &[Told]) {
        if !self.init_pending.is_empty() {
            for (x, r) in self.init_pending.drain(..).zip(results) {
                self.xs.push(x);
                self.vals.push(r.value().unwrap_or(f64::INFINITY));
            }
            return;
        }
        for ((target, trial), r) in self.pending.drain(..).zip(results) {
            let v = r.value().unwrap_or(f64::INFINITY);
            if v <= self.vals[target] {
                self.xs[target] = trial;
                self.vals[target] = v;
            }
        }
    }
}

impl DifferentialEvolution {
    /// The pre-ask/tell pull loop, kept verbatim as the equivalence oracle
    /// for the step driver (property-tested bit-identical at `batch = 1`).
    pub fn reference_tune(&self, eval: &Evaluator<'_>, seed: u64) -> TuningRun {
        assert!(self.population >= 4, "DE needs at least 4 individuals");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut run = new_run(eval, self.name(), seed);
        let space = eval.problem().space();
        let dims = space.num_params();

        let evaluate = |run: &mut TuningRun, x: &[f64]| -> Option<f64> {
            let pos: Vec<usize> = (0..dims).map(|i| ordinal::clamp(space, i, x[i])).collect();
            let idx = ordinal::index_of(space, &pos);
            match record_eval(eval, run, idx) {
                Recorded::Exhausted => None,
                Recorded::Failed => Some(f64::INFINITY),
                Recorded::Ok(v) => Some(v),
            }
        };

        // Initialize population.
        let mut xs: Vec<Vec<f64>> = Vec::with_capacity(self.population);
        let mut vals: Vec<f64> = Vec::with_capacity(self.population);
        for _ in 0..self.population {
            let x: Vec<f64> = (0..dims)
                .map(|i| rng.random_range(0.0..space.params()[i].len() as f64 - 1e-9))
                .collect();
            let Some(v) = evaluate(&mut run, &x) else {
                return run;
            };
            xs.push(x);
            vals.push(v);
        }

        'outer: loop {
            for target in 0..self.population {
                // Pick three distinct others.
                let mut pick = || loop {
                    let c = rng.random_range(0..self.population);
                    if c != target {
                        return c;
                    }
                };
                let (a, b, c) = (pick(), pick(), pick());
                let j_rand = rng.random_range(0..dims);
                let mut trial = xs[target].clone();
                for j in 0..dims {
                    if j == j_rand || rng.random_bool(self.cr) {
                        let span = space.params()[j].len() as f64;
                        trial[j] =
                            (xs[a][j] + self.f * (xs[b][j] - xs[c][j])).clamp(0.0, span - 1.0);
                    }
                }
                let Some(v) = evaluate(&mut run, &trial) else {
                    break 'outer;
                };
                if v <= vals[target] {
                    xs[target] = trial;
                    vals[target] = v;
                }
            }
        }
        run
    }
}

impl Tuner for DifferentialEvolution {
    fn name(&self) -> &str {
        "differential-evolution"
    }

    fn start<'a>(&'a self, space: &'a ConfigSpace, seed: u64) -> Box<dyn StepTuner + 'a> {
        assert!(self.population >= 4, "DE needs at least 4 individuals");
        Box::new(DeStep {
            cfg: self,
            space,
            rng: StdRng::seed_from_u64(seed),
            xs: Vec::with_capacity(self.population),
            vals: Vec::with_capacity(self.population),
            target: 0,
            pending: Vec::new(),
            init_pending: Vec::new(),
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
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 20))
            .param(Param::int_range("y", 0, 20))
            .build()
            .unwrap();
        SyntheticProblem::new("bowl2", "sim", space, |c| {
            Ok(1.0 + ((c[0] - 4) * (c[0] - 4) + (c[1] - 17) * (c[1] - 17)) as f64)
        })
    }

    #[test]
    fn de_converges() {
        let p = problem();
        let eval = noiseless(&p, 800);
        let run = DifferentialEvolution::default().tune(&eval, 3);
        assert_eq!(run.best().unwrap().time_ms(), Some(1.0));
    }

    #[test]
    fn budget_respected() {
        let p = problem();
        let eval = noiseless(&p, 55);
        let run = DifferentialEvolution::default().tune(&eval, 1);
        assert_eq!(run.trials.len(), 55);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_population_rejected() {
        let p = problem();
        let eval = noiseless(&p, 10);
        let _ = DifferentialEvolution {
            population: 3,
            ..DifferentialEvolution::default()
        }
        .tune(&eval, 0);
    }

    #[test]
    fn step_driver_matches_reference_loop_at_batch_one() {
        let p = problem();
        let de = DifferentialEvolution::default();
        for seed in 0..6 {
            let e1 = noiseless(&p, 180);
            let e2 = noiseless(&p, 180);
            assert_eq!(de.tune(&e1, seed), de.reference_tune(&e2, seed));
        }
    }

    #[test]
    fn synchronous_generations_converge() {
        let p = problem();
        let protocol = Protocol::noiseless().with_batch(20);
        let eval = evaluator(&p, protocol, 800);
        let run = DifferentialEvolution::default().tune(&eval, 3);
        assert_eq!(run.trials.len(), 800);
        assert!(run.best().unwrap().time_ms().unwrap() <= 2.0);
    }
}
