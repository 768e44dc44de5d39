//! Simulated annealing and basin hopping.
//!
//! Both are ask/tell state machines. Annealing proposes random neighbours
//! of the current point (a whole window of them at larger batch sizes,
//! processed as a sequential proposal stream); basin hopping reuses the
//! shared [`Descent`] core between its jumps.

use bat_space::{ConfigSpace, Neighborhood};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

use crate::local::{Descent, LocalSearch, Strategy};
use crate::step::{StepCtx, StepTuner, Told};
use crate::tuner::{ordinal, Tuner};

/// Simulated annealing with geometric cooling over a Hamming neighbourhood.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedAnnealing {
    /// Initial temperature as a fraction of the first observed objective.
    pub initial_temp_frac: f64,
    /// Multiplicative cooling per step.
    pub cooling: f64,
    /// Restart temperature floor (relative).
    pub min_temp_frac: f64,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            initial_temp_frac: 0.5,
            cooling: 0.98,
            min_temp_frac: 1e-3,
        }
    }
}

enum SaState {
    /// Drawing a fresh random starting point.
    Fresh,
    /// Annealing around `current`.
    Cooling {
        current: u64,
        current_val: f64,
        temp: f64,
        floor: f64,
    },
}

struct SaStep<'a> {
    cfg: &'a SimulatedAnnealing,
    space: &'a ConfigSpace,
    rng: StdRng,
    card: u64,
    state: SaState,
}

impl StepTuner for SaStep<'_> {
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
        loop {
            match &self.state {
                SaState::Fresh => {
                    return (0..ctx.batch)
                        .map(|_| self.rng.random_range(0..self.card))
                        .collect();
                }
                SaState::Cooling { current, .. } => {
                    // One neighbourhood computation per ask: every batch
                    // slot samples the same list, `current` being fixed
                    // until the next tell.
                    let neighbors = Neighborhood::HammingAny.neighbor_indices(self.space, *current);
                    if neighbors.is_empty() {
                        // No neighbours at all: restart from a fresh point.
                        self.state = SaState::Fresh;
                        continue;
                    }
                    return (0..ctx.batch)
                        .map(|_| {
                            *neighbors
                                .as_slice()
                                .choose(&mut self.rng)
                                .expect("non-empty")
                        })
                        .collect();
                }
            }
        }
    }

    fn tell(&mut self, results: &[Told]) {
        match &mut self.state {
            SaState::Fresh => {
                for r in results {
                    if let Some(v) = r.value() {
                        let temp = v * self.cfg.initial_temp_frac;
                        let floor = v * self.cfg.min_temp_frac;
                        if temp > floor {
                            self.state = SaState::Cooling {
                                current: r.index,
                                current_val: v,
                                temp,
                                floor,
                            };
                        }
                        // Otherwise the schedule is empty: stay Fresh and
                        // restart at once.
                        break;
                    }
                }
            }
            SaState::Cooling {
                current,
                current_val,
                temp,
                floor,
            } => {
                for r in results {
                    if let Some(v) = r.value() {
                        let accept = v < *current_val || {
                            let p = (-(v - *current_val) / *temp).exp();
                            self.rng.random_range(0.0..1.0) < p
                        };
                        if accept {
                            *current = r.index;
                            *current_val = v;
                        }
                    }
                    *temp *= self.cfg.cooling;
                    if *temp <= *floor {
                        self.state = SaState::Fresh;
                        break;
                    }
                }
            }
        }
    }
}

impl Tuner for SimulatedAnnealing {
    fn name(&self) -> &str {
        "simulated-annealing"
    }

    fn start<'a>(&'a self, space: &'a ConfigSpace, seed: u64) -> Box<dyn StepTuner + 'a> {
        Box::new(SaStep {
            cfg: self,
            space,
            rng: StdRng::seed_from_u64(seed),
            card: space.cardinality(),
            state: SaState::Fresh,
        })
    }
}

/// Basin hopping: local descent to a minimum, then a large random jump,
/// keeping the best basin found.
#[derive(Debug, Clone, Copy)]
pub struct BasinHopping {
    /// Inner descent.
    pub inner: LocalSearch,
    /// Jump size in coordinate moves.
    pub jump: usize,
}

impl Default for BasinHopping {
    fn default() -> Self {
        BasinHopping {
            inner: LocalSearch::default(),
            jump: 5,
        }
    }
}

enum BhState {
    /// Drawing the initial random point.
    Start,
    /// First descent (establishes `home` unconditionally).
    InitialDescent(Descent),
    /// Proposing jumps from `home`.
    Jump,
    /// Descending from an accepted jump.
    JumpDescent(Descent),
}

struct BhStep<'a> {
    cfg: &'a BasinHopping,
    space: &'a ConfigSpace,
    rng: StdRng,
    card: u64,
    home: Option<(u64, f64)>,
    state: BhState,
}

impl BhStep<'_> {
    /// Basin hopping descends by first improvement over the inner
    /// neighbourhood and ignores the inner strategy field, as it always
    /// has (the golden basin-hopping runs pin this).
    fn begin_descent(&mut self, start: u64, val: f64) -> Descent {
        Descent::begin(
            self.space,
            Strategy::FirstImprovement,
            self.cfg.inner.neighborhood,
            &mut self.rng,
            start,
            val,
        )
    }

    fn jump_candidate(&mut self) -> u64 {
        let (home, _) = self.home.expect("jumping requires a home");
        let mut pos = ordinal::positions_of(self.space, home);
        for _ in 0..self.cfg.jump {
            ordinal::mutate_one(self.space, &mut pos, &mut self.rng);
        }
        ordinal::index_of(self.space, &pos)
    }

    /// Monotone basin acceptance: adopt the new minimum when it is at
    /// least as good.
    fn accept(&mut self, idx: u64, v: f64) {
        if v <= self.home.expect("home set").1 {
            self.home = Some((idx, v));
        }
    }
}

impl StepTuner for BhStep<'_> {
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
        loop {
            match &mut self.state {
                BhState::Start => {
                    return (0..ctx.batch)
                        .map(|_| self.rng.random_range(0..self.card))
                        .collect();
                }
                BhState::Jump => {
                    return (0..ctx.batch).map(|_| self.jump_candidate()).collect();
                }
                BhState::InitialDescent(d) => {
                    if d.stuck() {
                        self.home = Some(d.minimum());
                        self.state = BhState::Jump;
                        continue;
                    }
                    return d.ask(ctx.batch);
                }
                BhState::JumpDescent(d) => {
                    if d.stuck() {
                        let (idx, v) = d.minimum();
                        self.accept(idx, v);
                        self.state = BhState::Jump;
                        continue;
                    }
                    return d.ask(ctx.batch);
                }
            }
        }
    }

    fn tell(&mut self, results: &[Told]) {
        match &mut self.state {
            BhState::Start => {
                for r in results {
                    if let Some(v) = r.value() {
                        let (index, value) = (r.index, v);
                        let d = self.begin_descent(index, value);
                        self.state = BhState::InitialDescent(d);
                        break;
                    }
                }
            }
            BhState::Jump => {
                for r in results {
                    if let Some(v) = r.value() {
                        let (index, value) = (r.index, v);
                        let d = self.begin_descent(index, value);
                        self.state = BhState::JumpDescent(d);
                        break;
                    }
                }
            }
            BhState::InitialDescent(d) => {
                if let Some(min) = d.tell(self.space, &mut self.rng, results) {
                    self.home = Some(min);
                    self.state = BhState::Jump;
                }
            }
            BhState::JumpDescent(d) => {
                if let Some((idx, v)) = d.tell(self.space, &mut self.rng, results) {
                    self.accept(idx, v);
                    self.state = BhState::Jump;
                }
            }
        }
    }
}

impl Tuner for BasinHopping {
    fn name(&self) -> &str {
        "basin-hopping"
    }

    fn start<'a>(&'a self, space: &'a ConfigSpace, seed: u64) -> Box<dyn StepTuner + 'a> {
        Box::new(BhStep {
            cfg: self,
            space,
            rng: StdRng::seed_from_u64(seed),
            card: space.cardinality(),
            home: None,
            state: BhState::Start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{evaluator, noiseless};
    use bat_core::{Protocol, SyntheticProblem};
    use bat_space::{ConfigSpace, Param};

    fn multimodal(
    ) -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, bat_core::EvalFailure> + Send + Sync> {
        // Two basins: a shallow one near (3,3) and the global one at (12,12).
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 15))
            .param(Param::int_range("y", 0, 15))
            .build()
            .unwrap();
        SyntheticProblem::new("twobasin", "sim", space, |c| {
            let d1 = ((c[0] - 3).pow(2) + (c[1] - 3).pow(2)) as f64;
            let d2 = ((c[0] - 12).pow(2) + (c[1] - 12).pow(2)) as f64;
            Ok((5.0 + d1).min(1.0 + d2))
        })
    }

    #[test]
    fn annealing_finds_global_basin() {
        let p = multimodal();
        let eval = noiseless(&p, 1_500);
        let run = SimulatedAnnealing::default().tune(&eval, 3);
        assert_eq!(run.best().unwrap().time_ms(), Some(1.0));
    }

    #[test]
    fn basin_hopping_escapes_shallow_basin() {
        let p = multimodal();
        let eval = noiseless(&p, 1_500);
        let run = BasinHopping::default().tune(&eval, 4);
        assert_eq!(run.best().unwrap().time_ms(), Some(1.0));
    }

    #[test]
    fn budget_respected() {
        let p = multimodal();
        for budget in [5u64, 40] {
            let eval = noiseless(&p, budget);
            let run = SimulatedAnnealing::default().tune(&eval, 1);
            assert_eq!(run.trials.len() as u64, budget);
            let eval = noiseless(&p, budget);
            let run = BasinHopping::default().tune(&eval, 1);
            assert_eq!(run.trials.len() as u64, budget);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = multimodal();
        let e1 = noiseless(&p, 200);
        let e2 = noiseless(&p, 200);
        assert_eq!(
            SimulatedAnnealing::default().tune(&e1, 9),
            SimulatedAnnealing::default().tune(&e2, 9)
        );
    }

    #[test]
    fn batched_runs_stay_deterministic_and_converge() {
        let p = multimodal();
        for batch in [4u32, 16] {
            let protocol = Protocol::noiseless().with_batch(batch);
            let e1 = evaluator(&p, protocol, 1_500);
            let e2 = evaluator(&p, protocol, 1_500);
            let a = SimulatedAnnealing::default().tune(&e1, 3);
            let b = SimulatedAnnealing::default().tune(&e2, 3);
            assert_eq!(a, b);
            assert_eq!(a.trials.len(), 1_500);
            assert_eq!(a.best().unwrap().time_ms(), Some(1.0));
        }
    }
}
