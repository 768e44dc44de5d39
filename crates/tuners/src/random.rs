//! Random search — the algorithm the paper's Fig. 2 evaluates.

use bat_space::ConfigSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::step::{StepCtx, StepTuner, Told};
use crate::tuner::Tuner;

/// Uniform random sampling (with replacement) over the full cartesian
/// space. Restricted/invalid draws consume budget, exactly as sampling a
/// real tuner's search space would.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSearch;

struct RandomStep {
    rng: StdRng,
    card: u64,
}

impl StepTuner for RandomStep {
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
        (0..ctx.batch)
            .map(|_| self.rng.random_range(0..self.card))
            .collect()
    }

    fn tell(&mut self, _results: &[Told]) {}
}

impl Tuner for RandomSearch {
    fn name(&self) -> &str {
        "random-search"
    }

    fn start<'a>(&'a self, space: &'a ConfigSpace, seed: u64) -> Box<dyn StepTuner + 'a> {
        Box::new(RandomStep {
            rng: StdRng::seed_from_u64(seed),
            card: space.cardinality(),
        })
    }
}

/// Exhaustive (grid) search in index order; the reference "tuner" used to
/// produce ground-truth optima for the exhaustively-searched benchmarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveSearch;

struct ExhaustiveStep {
    next: u64,
    card: u64,
}

impl StepTuner for ExhaustiveStep {
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
        let end = self.next.saturating_add(ctx.batch as u64).min(self.card);
        let out: Vec<u64> = (self.next..end).collect();
        self.next = end;
        out
    }

    fn tell(&mut self, _results: &[Told]) {}
}

impl Tuner for ExhaustiveSearch {
    fn name(&self) -> &str {
        "exhaustive"
    }

    fn start<'a>(&'a self, space: &'a ConfigSpace, _seed: u64) -> Box<dyn StepTuner + 'a> {
        Box::new(ExhaustiveStep {
            next: 0,
            card: space.cardinality(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::noiseless;
    use bat_core::{Evaluator, Protocol, SyntheticProblem};
    use bat_space::{ConfigSpace, Param};

    fn problem(
    ) -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, bat_core::EvalFailure> + Send + Sync> {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 19))
            .param(Param::int_range("y", 0, 19))
            .build()
            .unwrap();
        SyntheticProblem::new("quad", "sim", space, |c| {
            Ok(1.0 + ((c[0] - 7) * (c[0] - 7) + (c[1] - 3) * (c[1] - 3)) as f64)
        })
    }

    #[test]
    fn random_search_respects_budget() {
        let p = problem();
        let eval = noiseless(&p, 50);
        let run = RandomSearch.tune(&eval, 1);
        assert_eq!(run.trials.len(), 50);
    }

    #[test]
    fn random_search_is_deterministic_per_seed() {
        let p = problem();
        let e1 = noiseless(&p, 30);
        let e2 = noiseless(&p, 30);
        let a = RandomSearch.tune(&e1, 7);
        let b = RandomSearch.tune(&e2, 7);
        assert_eq!(a, b);
        let e3 = noiseless(&p, 30);
        let c = RandomSearch.tune(&e3, 8);
        assert_ne!(a.trials, c.trials);
    }

    #[test]
    fn exhaustive_finds_global_optimum() {
        let p = problem();
        let eval = Evaluator::builder(&p)
            .protocol(Protocol::noiseless())
            .build()
            .unwrap();
        let run = ExhaustiveSearch.tune(&eval, 0);
        assert_eq!(run.trials.len(), 400);
        let best = run.best().unwrap();
        assert_eq!(best.config, vec![7, 3]);
        assert_eq!(best.time_ms(), Some(1.0));
    }

    #[test]
    fn random_search_converges_with_enough_budget() {
        let p = problem();
        let eval = noiseless(&p, 2000);
        let run = RandomSearch.tune(&eval, 3);
        assert_eq!(run.best().unwrap().time_ms(), Some(1.0));
    }
}
