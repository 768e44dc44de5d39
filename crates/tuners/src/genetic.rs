//! Genetic algorithm over ordinal position vectors.
//!
//! Ask/tell form: the initial population is asked in whole batches (its
//! genomes never depend on earlier measurements), and the steady-state
//! phase breeds up to `batch` children per step from the current
//! population snapshot, folding their fitnesses back in told order. At
//! `batch = 1` this is exactly the historical steady-state loop; at a
//! batch of the population size it degenerates to a generational GA —
//! the classic serial/parallel trade-off the batch axis exists to study.

use bat_core::{Evaluator, TuningRun};
use bat_space::ConfigSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::step::{StepCtx, StepTuner, Told};
use crate::tuner::{new_run, ordinal, record_eval, Recorded, Tuner};

/// Steady-state GA: tournament selection, uniform crossover, per-coordinate
/// mutation, elitist replacement.
#[derive(Debug, Clone, Copy)]
pub struct GeneticAlgorithm {
    /// Population size.
    pub population: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-coordinate mutation probability.
    pub mutation_rate: f64,
}

impl Default for GeneticAlgorithm {
    fn default() -> Self {
        GeneticAlgorithm {
            population: 20,
            tournament: 3,
            mutation_rate: 0.1,
        }
    }
}

struct Individual {
    pos: Vec<usize>,
    fitness: f64, // +inf for failed configs
}

struct GaStep<'a> {
    cfg: &'a GeneticAlgorithm,
    space: &'a ConfigSpace,
    rng: StdRng,
    pop: Vec<Individual>,
    /// Genomes asked but not yet told, in ask order.
    pending: Vec<Vec<usize>>,
}

impl GaStep<'_> {
    fn pick(&mut self) -> usize {
        let mut best = self.rng.random_range(0..self.pop.len());
        for _ in 1..self.cfg.tournament {
            let c = self.rng.random_range(0..self.pop.len());
            if self.pop[c].fitness < self.pop[best].fitness {
                best = c;
            }
        }
        best
    }

    fn breed(&mut self) -> Vec<usize> {
        let pa = self.pick();
        let pb = self.pick();
        let mut child: Vec<usize> = self.pop[pa]
            .pos
            .iter()
            .zip(&self.pop[pb].pos)
            .map(|(&a, &b)| if self.rng.random_bool(0.5) { a } else { b })
            .collect();
        for (i, c) in child.iter_mut().enumerate() {
            if self.rng.random_bool(self.cfg.mutation_rate) {
                let len = self.space.params()[i].len();
                *c = self.rng.random_range(0..len);
            }
        }
        child
    }
}

impl StepTuner for GaStep<'_> {
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
        self.pending.clear();
        if self.pop.len() < self.cfg.population {
            // Initial population: genomes are independent of measurements,
            // so whole batches are RNG-identical to the serial loop.
            let want = (self.cfg.population - self.pop.len()).min(ctx.batch);
            for _ in 0..want {
                self.pending
                    .push(ordinal::random_positions(self.space, &mut self.rng));
            }
        } else {
            for _ in 0..ctx.batch {
                let child = self.breed();
                self.pending.push(child);
            }
        }
        self.pending
            .iter()
            .map(|pos| ordinal::index_of(self.space, pos))
            .collect()
    }

    fn tell(&mut self, results: &[Told]) {
        let initializing = self.pop.len() < self.cfg.population;
        for (pos, r) in self.pending.drain(..).zip(results) {
            let fitness = r.value().unwrap_or(f64::INFINITY);
            if initializing {
                self.pop.push(Individual { pos, fitness });
            } else {
                // Replace the worst individual (elitism: never remove the
                // best), one told child at a time.
                let worst = self
                    .pop
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.fitness.partial_cmp(&b.1.fitness).unwrap())
                    .map(|(i, _)| i)
                    .unwrap();
                if fitness < self.pop[worst].fitness {
                    self.pop[worst] = Individual { pos, fitness };
                }
            }
        }
    }
}

impl GeneticAlgorithm {
    /// The pre-ask/tell pull loop, kept verbatim as the equivalence oracle
    /// for the step driver (property-tested bit-identical at `batch = 1`).
    pub fn reference_tune(&self, eval: &Evaluator<'_>, seed: u64) -> TuningRun {
        assert!(self.population >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut run = new_run(eval, self.name(), seed);
        let space = eval.problem().space();

        // Initial population.
        let mut pop: Vec<Individual> = Vec::with_capacity(self.population);
        while pop.len() < self.population {
            let pos = ordinal::random_positions(space, &mut rng);
            let idx = ordinal::index_of(space, &pos);
            match record_eval(eval, &mut run, idx) {
                Recorded::Exhausted => return run,
                Recorded::Failed => pop.push(Individual {
                    pos,
                    fitness: f64::INFINITY,
                }),
                Recorded::Ok(v) => pop.push(Individual { pos, fitness: v }),
            }
        }

        loop {
            // Tournament selection of two parents.
            let pick = |rng: &mut StdRng, pop: &[Individual]| -> usize {
                let mut best = rng.random_range(0..pop.len());
                for _ in 1..self.tournament {
                    let c = rng.random_range(0..pop.len());
                    if pop[c].fitness < pop[best].fitness {
                        best = c;
                    }
                }
                best
            };
            let pa = pick(&mut rng, &pop);
            let pb = pick(&mut rng, &pop);

            // Uniform crossover + mutation.
            let mut child: Vec<usize> = pop[pa]
                .pos
                .iter()
                .zip(&pop[pb].pos)
                .map(|(&a, &b)| if rng.random_bool(0.5) { a } else { b })
                .collect();
            for (i, c) in child.iter_mut().enumerate() {
                if rng.random_bool(self.mutation_rate) {
                    let len = space.params()[i].len();
                    *c = rng.random_range(0..len);
                }
            }

            let idx = ordinal::index_of(space, &child);
            let fitness = match record_eval(eval, &mut run, idx) {
                Recorded::Exhausted => break,
                Recorded::Failed => f64::INFINITY,
                Recorded::Ok(v) => v,
            };

            // Replace the worst individual (elitism: never remove the best).
            let worst = pop
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.fitness.partial_cmp(&b.1.fitness).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            if fitness < pop[worst].fitness {
                pop[worst] = Individual {
                    pos: child,
                    fitness,
                };
            }
        }
        run
    }
}

impl Tuner for GeneticAlgorithm {
    fn name(&self) -> &str {
        "genetic-algorithm"
    }

    fn start<'a>(&'a self, space: &'a ConfigSpace, seed: u64) -> Box<dyn StepTuner + 'a> {
        assert!(self.population >= 2);
        Box::new(GaStep {
            cfg: self,
            space,
            rng: StdRng::seed_from_u64(seed),
            pop: Vec::with_capacity(self.population),
            pending: Vec::new(),
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
            .param(Param::int_range("a", 0, 9))
            .param(Param::int_range("b", 0, 9))
            .param(Param::int_range("c", 0, 9))
            .param(Param::int_range("d", 0, 9))
            .restrict("a + b + c + d <= 30")
            .build()
            .unwrap();
        SyntheticProblem::new("sum", "sim", space, |v| {
            // Optimum at (9, 9, 9, 0): maximize a+b+c, minimize d.
            Ok(1.0 + (27 - (v[0] + v[1] + v[2])) as f64 + v[3] as f64)
        })
    }

    #[test]
    fn converges_to_good_region() {
        let p = problem();
        let eval = noiseless(&p, 1_200);
        let run = GeneticAlgorithm::default().tune(&eval, 2);
        let best = run.best().unwrap().time_ms().unwrap();
        assert!(best <= 3.0, "GA should approach optimum, got {best}");
    }

    #[test]
    fn handles_restricted_configs_gracefully() {
        let p = problem();
        let eval = noiseless(&p, 300);
        let run = GeneticAlgorithm::default().tune(&eval, 7);
        // Some trials fail the a+b+c+d<=30 restriction, but the run proceeds.
        assert!(run.successes() > 0);
        assert!(run.trials.len() == 300);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = problem();
        let e1 = noiseless(&p, 150);
        let e2 = noiseless(&p, 150);
        assert_eq!(
            GeneticAlgorithm::default().tune(&e1, 4),
            GeneticAlgorithm::default().tune(&e2, 4)
        );
    }

    #[test]
    fn step_driver_matches_reference_loop_at_batch_one() {
        let p = problem();
        let ga = GeneticAlgorithm::default();
        for seed in 0..6 {
            let e1 = noiseless(&p, 200);
            let e2 = noiseless(&p, 200);
            assert_eq!(ga.tune(&e1, seed), ga.reference_tune(&e2, seed));
        }
    }

    #[test]
    fn generation_batches_breed_and_converge() {
        let p = problem();
        // batch == population: a fully generational GA.
        let protocol = Protocol::noiseless().with_batch(20);
        let e1 = evaluator(&p, protocol, 1_200);
        let e2 = evaluator(&p, protocol, 1_200);
        let a = GeneticAlgorithm::default().tune(&e1, 2);
        let b = GeneticAlgorithm::default().tune(&e2, 2);
        assert_eq!(a, b);
        assert_eq!(a.trials.len(), 1_200);
        assert!(a.best().unwrap().time_ms().unwrap() <= 4.0);
    }
}
