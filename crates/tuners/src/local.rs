//! Local search: hill climbers, multi-start and iterated variants.
//!
//! The fitness-flow-graph analysis (Fig. 3) models exactly the randomized
//! first-improvement hill climber implemented here, so tuner behaviour and
//! landscape metric line up.
//!
//! All variants are expressed as ask/tell state machines around one shared
//! [`Descent`] core. At `batch = 1` they replay the historical pull loops
//! bit-exactly; at larger batches they speculate — first-improvement
//! evaluates a whole window of the shuffled neighbourhood at once and
//! takes the first improving member, best-improvement simply fills its
//! full-neighbourhood scan in parallel-sized bites.

use bat_space::{ConfigSpace, Neighborhood};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::step::{StepCtx, StepTuner, Told};
use crate::tuner::{ordinal, Tuner};

/// Neighbour-acceptance strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Move to the first strictly-better neighbour (visiting neighbours in
    /// random order) — the FFG walker of Schoonhoven et al.
    FirstImprovement,
    /// Evaluate all neighbours, move to the best.
    BestImprovement,
}

/// Multi-start local search: descend to a local minimum, restart from a
/// fresh random configuration, repeat until the budget runs out.
#[derive(Debug, Clone, Copy)]
pub struct LocalSearch {
    /// Acceptance strategy.
    pub strategy: Strategy,
    /// Neighbourhood structure.
    pub neighborhood: Neighborhood,
}

impl Default for LocalSearch {
    fn default() -> Self {
        LocalSearch {
            strategy: Strategy::FirstImprovement,
            neighborhood: Neighborhood::HammingAny,
        }
    }
}

/// One in-progress descent: the step-protocol form of the classic
/// "shuffle neighbours, walk to an improvement" inner loop, shared by
/// local search, iterated local search and basin hopping.
pub(crate) struct Descent {
    strategy: Strategy,
    neighborhood: Neighborhood,
    current: u64,
    current_val: f64,
    neighbors: Vec<u64>,
    cursor: usize,
    best_neighbor: Option<(u64, f64)>,
}

impl Descent {
    /// Start a descent at `start` (already measured at `start_val`):
    /// computes and shuffles its neighbourhood, exactly where the classic
    /// loop did.
    pub(crate) fn begin(
        space: &ConfigSpace,
        strategy: Strategy,
        neighborhood: Neighborhood,
        rng: &mut StdRng,
        start: u64,
        start_val: f64,
    ) -> Descent {
        let mut neighbors = neighborhood.neighbor_indices(space, start);
        neighbors.shuffle(rng);
        Descent {
            strategy,
            neighborhood,
            current: start,
            current_val: start_val,
            neighbors,
            cursor: 0,
            best_neighbor: None,
        }
    }

    /// True when the current point has no (remaining) neighbours at all —
    /// it is trivially a local minimum.
    pub(crate) fn stuck(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// The local minimum this descent is parked at (valid when finished).
    pub(crate) fn minimum(&self) -> (u64, f64) {
        (self.current, self.current_val)
    }

    /// Next window of unevaluated neighbours, at most `batch` of them.
    pub(crate) fn ask(&mut self, batch: usize) -> Vec<u64> {
        let end = (self.cursor + batch).min(self.neighbors.len());
        self.neighbors[self.cursor..end].to_vec()
    }

    fn move_to(&mut self, space: &ConfigSpace, rng: &mut StdRng, n: u64, v: f64) {
        self.current = n;
        self.current_val = v;
        self.neighbors = self.neighborhood.neighbor_indices(space, n);
        self.neighbors.shuffle(rng);
        self.cursor = 0;
        self.best_neighbor = None;
    }

    /// Digest a window of neighbour outcomes. Returns the local minimum
    /// when the descent terminated, `None` while it continues (possibly
    /// having moved, discarding the rest of a speculative window).
    pub(crate) fn tell(
        &mut self,
        space: &ConfigSpace,
        rng: &mut StdRng,
        results: &[Told],
    ) -> Option<(u64, f64)> {
        for r in results {
            match r.value() {
                None => self.cursor += 1,
                Some(v) => match self.strategy {
                    Strategy::FirstImprovement => {
                        if v < self.current_val {
                            self.move_to(space, rng, r.index, v);
                            return None;
                        }
                        self.cursor += 1;
                    }
                    Strategy::BestImprovement => {
                        if v < self.best_neighbor.map_or(self.current_val, |(_, bv)| bv) {
                            self.best_neighbor = Some((r.index, v));
                        }
                        self.cursor += 1;
                    }
                },
            }
            if self.cursor >= self.neighbors.len() {
                // Whole neighbourhood seen.
                if let Some((n, v)) = self.best_neighbor.take() {
                    self.move_to(space, rng, n, v);
                    return None;
                }
                return Some((self.current, self.current_val));
            }
        }
        None
    }
}

enum LsState {
    /// Drawing random starting points.
    Start,
    /// Descending from the last successful start.
    Descending(Descent),
}

struct LocalSearchStep<'a> {
    cfg: &'a LocalSearch,
    space: &'a ConfigSpace,
    rng: StdRng,
    card: u64,
    state: LsState,
}

impl StepTuner for LocalSearchStep<'_> {
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
        loop {
            match &mut self.state {
                LsState::Start => {
                    return (0..ctx.batch)
                        .map(|_| self.rng.random_range(0..self.card))
                        .collect();
                }
                LsState::Descending(d) => {
                    if d.stuck() {
                        self.state = LsState::Start; // local minimum: restart
                        continue;
                    }
                    return d.ask(ctx.batch);
                }
            }
        }
    }

    fn tell(&mut self, results: &[Told]) {
        match &mut self.state {
            LsState::Start => {
                for r in results {
                    if let Some(v) = r.value() {
                        self.state = LsState::Descending(Descent::begin(
                            self.space,
                            self.cfg.strategy,
                            self.cfg.neighborhood,
                            &mut self.rng,
                            r.index,
                            v,
                        ));
                        break;
                    }
                }
            }
            LsState::Descending(d) => {
                if d.tell(self.space, &mut self.rng, results).is_some() {
                    self.state = LsState::Start;
                }
            }
        }
    }
}

impl Tuner for LocalSearch {
    fn name(&self) -> &str {
        match self.strategy {
            Strategy::FirstImprovement => "mls-first-improvement",
            Strategy::BestImprovement => "mls-best-improvement",
        }
    }

    fn start<'a>(&'a self, space: &'a ConfigSpace, seed: u64) -> Box<dyn StepTuner + 'a> {
        Box::new(LocalSearchStep {
            cfg: self,
            space,
            rng: StdRng::seed_from_u64(seed),
            card: space.cardinality(),
            state: LsState::Start,
        })
    }
}

/// Iterated local search (the "GreedyILS" family): descend, then *perturb*
/// the local minimum by a short random walk and descend again, keeping the
/// perturbed result only if it improves.
#[derive(Debug, Clone, Copy)]
pub struct IteratedLocalSearch {
    /// Inner local search.
    pub inner: LocalSearch,
    /// Perturbation strength (random single-parameter moves).
    pub perturbation: usize,
}

impl Default for IteratedLocalSearch {
    fn default() -> Self {
        IteratedLocalSearch {
            inner: LocalSearch::default(),
            perturbation: 3,
        }
    }
}

enum IlsState {
    /// Drawing the initial random point.
    Start,
    /// First descent (establishes `home` unconditionally).
    InitialDescent(Descent),
    /// Proposing perturbations of `home`.
    Perturb,
    /// Descending from an accepted perturbation.
    Descending(Descent),
}

struct IlsStep<'a> {
    cfg: &'a IteratedLocalSearch,
    space: &'a ConfigSpace,
    rng: StdRng,
    card: u64,
    home: Option<(u64, f64)>,
    state: IlsState,
}

impl IlsStep<'_> {
    fn perturbed_candidate(&mut self) -> u64 {
        let (home, _) = self.home.expect("perturbing requires a home");
        let mut pos = ordinal::positions_of(self.space, home);
        for _ in 0..self.cfg.perturbation {
            ordinal::mutate_one(self.space, &mut pos, &mut self.rng);
        }
        ordinal::index_of(self.space, &pos)
    }
}

impl StepTuner for IlsStep<'_> {
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
        loop {
            match &mut self.state {
                IlsState::Start => {
                    return (0..ctx.batch)
                        .map(|_| self.rng.random_range(0..self.card))
                        .collect();
                }
                IlsState::Perturb => {
                    return (0..ctx.batch).map(|_| self.perturbed_candidate()).collect();
                }
                IlsState::InitialDescent(d) => {
                    if d.stuck() {
                        self.home = Some(d.minimum());
                        self.state = IlsState::Perturb;
                        continue;
                    }
                    return d.ask(ctx.batch);
                }
                IlsState::Descending(d) => {
                    if d.stuck() {
                        let (idx, v) = d.minimum();
                        if v < self.home.expect("home set").1 {
                            self.home = Some((idx, v));
                        }
                        self.state = IlsState::Perturb;
                        continue;
                    }
                    return d.ask(ctx.batch);
                }
            }
        }
    }

    fn tell(&mut self, results: &[Told]) {
        match &mut self.state {
            IlsState::Start => {
                for r in results {
                    if let Some(v) = r.value() {
                        self.state = IlsState::InitialDescent(Descent::begin(
                            self.space,
                            self.cfg.inner.strategy,
                            self.cfg.inner.neighborhood,
                            &mut self.rng,
                            r.index,
                            v,
                        ));
                        break;
                    }
                }
            }
            IlsState::Perturb => {
                for r in results {
                    if let Some(v) = r.value() {
                        self.state = IlsState::Descending(Descent::begin(
                            self.space,
                            self.cfg.inner.strategy,
                            self.cfg.inner.neighborhood,
                            &mut self.rng,
                            r.index,
                            v,
                        ));
                        break;
                    }
                }
            }
            IlsState::InitialDescent(d) => {
                if let Some(min) = d.tell(self.space, &mut self.rng, results) {
                    self.home = Some(min);
                    self.state = IlsState::Perturb;
                }
            }
            IlsState::Descending(d) => {
                if let Some((idx, v)) = d.tell(self.space, &mut self.rng, results) {
                    if v < self.home.expect("home set").1 {
                        self.home = Some((idx, v));
                    }
                    self.state = IlsState::Perturb;
                }
            }
        }
    }
}

impl Tuner for IteratedLocalSearch {
    fn name(&self) -> &str {
        "greedy-ils"
    }

    fn start<'a>(&'a self, space: &'a ConfigSpace, seed: u64) -> Box<dyn StepTuner + 'a> {
        Box::new(IlsStep {
            cfg: self,
            space,
            rng: StdRng::seed_from_u64(seed),
            card: space.cardinality(),
            home: None,
            state: IlsState::Start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{evaluator, noiseless};
    use bat_core::{Protocol, SyntheticProblem};
    use bat_space::{ConfigSpace, Param};

    fn convex_problem(
    ) -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, bat_core::EvalFailure> + Send + Sync> {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 15))
            .param(Param::int_range("y", 0, 15))
            .param(Param::int_range("z", 0, 15))
            .build()
            .unwrap();
        SyntheticProblem::new("bowl", "sim", space, |c| {
            Ok(1.0
                + ((c[0] - 9) * (c[0] - 9) + (c[1] - 2) * (c[1] - 2) + (c[2] - 13) * (c[2] - 13))
                    as f64)
        })
    }

    #[test]
    fn first_improvement_reaches_optimum_on_convex_landscape() {
        let p = convex_problem();
        let eval = noiseless(&p, 2_000);
        let run = LocalSearch::default().tune(&eval, 5);
        assert_eq!(run.best().unwrap().config, vec![9, 2, 13]);
    }

    #[test]
    fn best_improvement_reaches_optimum_too() {
        let p = convex_problem();
        let eval = noiseless(&p, 3_000);
        let run = LocalSearch {
            strategy: Strategy::BestImprovement,
            neighborhood: Neighborhood::HammingAny,
        }
        .tune(&eval, 5);
        assert_eq!(run.best().unwrap().config, vec![9, 2, 13]);
    }

    #[test]
    fn local_search_beats_random_on_smooth_landscape_with_small_budget() {
        let p = convex_problem();
        let budget = 150;
        let e_ls = noiseless(&p, budget);
        let e_rs = noiseless(&p, budget);
        let ls_best: f64 = (0..5)
            .map(|s| {
                LocalSearch::default()
                    .tune(&e_ls, s)
                    .best()
                    .map_or(f64::INFINITY, |t| t.time_ms().unwrap())
            })
            .fold(f64::INFINITY, f64::min);
        let rs_best: f64 = (0..5)
            .map(|s| {
                crate::random::RandomSearch
                    .tune(&e_rs, s)
                    .best()
                    .map_or(f64::INFINITY, |t| t.time_ms().unwrap())
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            ls_best <= rs_best,
            "local search {ls_best} should beat random {rs_best}"
        );
    }

    #[test]
    fn ils_reaches_optimum() {
        let p = convex_problem();
        let eval = noiseless(&p, 2_000);
        let run = IteratedLocalSearch::default().tune(&eval, 11);
        assert_eq!(run.best().unwrap().config, vec![9, 2, 13]);
    }

    #[test]
    fn respects_budget_exactly() {
        let p = convex_problem();
        for budget in [1u64, 7, 33] {
            let eval = noiseless(&p, budget);
            let run = LocalSearch::default().tune(&eval, 1);
            assert_eq!(run.trials.len() as u64, budget);
        }
    }

    #[test]
    fn batched_local_search_still_descends() {
        let p = convex_problem();
        for batch in [2u32, 8, 32] {
            let eval = evaluator(&p, Protocol::noiseless().with_batch(batch), 2_000);
            let run = LocalSearch::default().tune(&eval, 5);
            assert_eq!(run.trials.len(), 2_000);
            assert_eq!(run.best().unwrap().config, vec![9, 2, 13]);
        }
    }
}
