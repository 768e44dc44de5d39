//! NSGA-II: elitist non-dominated-sorting genetic search over (time,
//! energy).
//!
//! The reference multi-objective tuner of the suite (Deb et al., 2002,
//! adapted to discrete tuning spaces): a population evolves under binary
//! tournament selection keyed on (non-domination rank, crowding distance),
//! uniform ordinal crossover and per-gene mutation; survivors are chosen by
//! rank with the last front truncated by crowding. Every measurement flows
//! through the shared [`Evaluator`](bat_core::Evaluator) protocol, so NSGA-II spends budget
//! exactly like the single-objective tuners and its runs drop into the same
//! campaign artifacts.
//!
//! Failed configurations (restricted or launch-failed) rank behind every
//! feasible one, which steers the population into the valid region without
//! a separate repair step.

use bat_core::TuningRun;
use bat_space::ConfigSpace;
use bat_tuners::{ordinal, StepCtx, StepTuner, Told, TransferDatabase, Tuner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::archive::{ParetoArchive, ParetoPoint};

/// The NSGA-II population tuner.
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2 {
    /// Population size (and offspring count per generation).
    pub population: usize,
    /// Probability that a child is produced by crossover (otherwise it is a
    /// mutated copy of the first parent).
    pub crossover_rate: f64,
    /// Per-gene probability of mutating to a different value.
    pub mutation_rate: f64,
    /// Warm-start seed configurations evaluated as the head of the initial
    /// population (typically the transfer database's best configurations
    /// from other architectures). Unrepresentable seeds are skipped; with
    /// no seeds the tuner is byte-identical to its historical form.
    pub seeds: Vec<Vec<i64>>,
}

impl Default for Nsga2 {
    fn default() -> Self {
        Nsga2 {
            population: 24,
            crossover_rate: 0.9,
            mutation_rate: 0.15,
            seeds: Vec::new(),
        }
    }
}

impl Nsga2 {
    /// A default-parameter NSGA-II whose initial population is seeded from
    /// the warm-start [`TransferDatabase`]: every configuration the
    /// database holds for *other* platforms heads the first generation
    /// (ROADMAP follow-up (j) — multi-objective transfer tuning).
    pub fn warm_started(db: &TransferDatabase, target_platform: &str) -> Nsga2 {
        Nsga2 {
            seeds: db.seeds_for(target_platform),
            ..Nsga2::default()
        }
    }
}

/// One candidate: genome plus (optional) objectives.
#[derive(Clone)]
struct Individual {
    pos: Vec<usize>,
    /// `(time_ms, energy_mj)`; `None` when the evaluation failed.
    objectives: Option<(f64, f64)>,
}

/// `a` dominates `b` under minimization (failures dominate nothing and are
/// dominated by every feasible point).
fn dominates(a: &Individual, b: &Individual) -> bool {
    match (a.objectives, b.objectives) {
        (Some((t1, e1)), Some((t2, e2))) => t1 <= t2 && e1 <= e2 && (t1 < t2 || e1 < e2),
        (Some(_), None) => true,
        _ => false,
    }
}

/// Non-domination rank per individual (0 = best front). O(n²) per front,
/// fine at population scale.
fn rank(pop: &[Individual]) -> Vec<u32> {
    let n = pop.len();
    let mut ranks = vec![u32::MAX; n];
    let mut assigned = 0;
    let mut current = 0u32;
    while assigned < n {
        let mut this_front = Vec::new();
        for i in 0..n {
            if ranks[i] != u32::MAX {
                continue;
            }
            let dominated =
                (0..n).any(|j| j != i && ranks[j] == u32::MAX && dominates(&pop[j], &pop[i]));
            if !dominated {
                this_front.push(i);
            }
        }
        // Domination is a strict partial order, so every non-empty
        // remainder has minimal elements.
        debug_assert!(!this_front.is_empty());
        for &i in &this_front {
            ranks[i] = current;
            assigned += 1;
        }
        current += 1;
    }
    ranks
}

/// Crowding distance of each individual within its front (higher =
/// lonelier = preferred). Failures get 0.
fn crowding(pop: &[Individual], ranks: &[u32]) -> Vec<f64> {
    let n = pop.len();
    let mut dist = vec![0.0f64; n];
    let max_rank = ranks.iter().copied().max().unwrap_or(0);
    for r in 0..=max_rank {
        let mut front: Vec<usize> = (0..n)
            .filter(|&i| ranks[i] == r && pop[i].objectives.is_some())
            .collect();
        if front.len() <= 2 {
            for &i in &front {
                dist[i] = f64::INFINITY;
            }
            continue;
        }
        // Sort by time (ties by energy, then list position: deterministic).
        front.sort_by(|&a, &b| {
            let (ta, ea) = pop[a].objectives.unwrap();
            let (tb, eb) = pop[b].objectives.unwrap();
            ta.total_cmp(&tb).then(ea.total_cmp(&eb)).then(a.cmp(&b))
        });
        let (t_min, e_of_first) = pop[front[0]].objectives.unwrap();
        let (t_max, e_of_last) = pop[*front.last().unwrap()].objectives.unwrap();
        let t_span = (t_max - t_min).max(f64::MIN_POSITIVE);
        let e_span = (e_of_first - e_of_last).abs().max(f64::MIN_POSITIVE);
        dist[front[0]] = f64::INFINITY;
        dist[*front.last().unwrap()] = f64::INFINITY;
        for w in 0..front.len() - 2 {
            let (prev, mid, next) = (front[w], front[w + 1], front[w + 2]);
            let (tp, ep) = pop[prev].objectives.unwrap();
            let (tn, en) = pop[next].objectives.unwrap();
            dist[mid] += (tn - tp) / t_span + (ep - en).abs() / e_span;
        }
    }
    dist
}

impl Nsga2 {
    fn tournament<'a, R: Rng>(
        &self,
        pop: &'a [Individual],
        ranks: &[u32],
        dist: &[f64],
        rng: &mut R,
    ) -> &'a Individual {
        let a = rng.random_range(0..pop.len());
        let b = rng.random_range(0..pop.len());
        let better = if ranks[a] != ranks[b] {
            if ranks[a] < ranks[b] {
                a
            } else {
                b
            }
        } else if dist[a] != dist[b] {
            if dist[a] > dist[b] {
                a
            } else {
                b
            }
        } else {
            a.min(b)
        };
        &pop[better]
    }

    fn offspring<R: Rng>(
        &self,
        space: &ConfigSpace,
        parents: (&Individual, &Individual),
        rng: &mut R,
    ) -> Vec<usize> {
        let mut child = parents.0.pos.clone();
        if rng.random::<f64>() < self.crossover_rate {
            for (c, p) in child.iter_mut().zip(&parents.1.pos) {
                if rng.random::<bool>() {
                    *c = *p;
                }
            }
        }
        for (i, g) in child.iter_mut().enumerate() {
            if rng.random::<f64>() < self.mutation_rate {
                let len = space.params()[i].len();
                if len > 1 {
                    let mut alt = rng.random_range(0..len - 1);
                    if alt >= *g {
                        alt += 1;
                    }
                    *g = alt;
                }
            }
        }
        child
    }
}

/// Environmental selection: best ranks first, last front by descending
/// crowding (ties by list position — deterministic). Returns the surviving
/// population in stable age order.
fn environmental_selection(combined: &[Individual], pop_size: usize) -> Vec<Individual> {
    let ranks = rank(combined);
    let dist = crowding(combined, &ranks);
    let mut order: Vec<usize> = (0..combined.len()).collect();
    order.sort_by(|&a, &b| {
        ranks[a]
            .cmp(&ranks[b])
            .then(dist[b].total_cmp(&dist[a]))
            .then(a.cmp(&b))
    });
    order.truncate(pop_size);
    order.sort_unstable(); // keep population in stable age order
    order.into_iter().map(|i| combined[i].clone()).collect()
}

/// Objectives of one told outcome: `(time_ms, energy_mj)` with the time
/// fallback, `None` for failed configurations.
fn objectives_of(told: &Told) -> Option<(f64, f64)> {
    told.outcome
        .as_ref()
        .ok()
        .map(|m| (m.time_ms, m.energy_mj.unwrap_or(m.time_ms)))
}

/// In-flight generation state of the step session.
struct GenState {
    ranks: Vec<u32>,
    dist: Vec<f64>,
    /// Parents plus the offspring told so far.
    combined: Vec<Individual>,
    /// Offspring asked so far this generation.
    produced: usize,
}

struct Nsga2Step<'a> {
    cfg: &'a Nsga2,
    space: &'a ConfigSpace,
    rng: StdRng,
    pop_size: usize,
    /// Representable warm-start seeds still to inject into the initial
    /// population (FIFO).
    seeds: std::collections::VecDeque<Vec<usize>>,
    pop: Vec<Individual>,
    gen: Option<GenState>,
    /// Genomes asked but not yet told, in ask order.
    pending: Vec<Vec<usize>>,
}

impl StepTuner for Nsga2Step<'_> {
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
        self.pending.clear();
        if self.pop.len() < self.pop_size {
            // Initial population: warm-start seeds head the generation,
            // the remainder is random.
            let want = (self.pop_size - self.pop.len()).min(ctx.batch);
            for _ in 0..want {
                let pos = match self.seeds.pop_front() {
                    Some(pos) => pos,
                    None => ordinal::random_positions(self.space, &mut self.rng),
                };
                self.pending.push(pos);
            }
        } else {
            if self.gen.is_none() {
                let ranks = rank(&self.pop);
                let dist = crowding(&self.pop, &ranks);
                self.gen = Some(GenState {
                    ranks,
                    dist,
                    combined: self.pop.clone(),
                    produced: 0,
                });
            }
            let g = self.gen.as_mut().expect("generation state initialized");
            let want = (self.pop_size - g.produced).min(ctx.batch);
            g.produced += want;
            for _ in 0..want {
                let g = self.gen.as_ref().expect("generation state initialized");
                let p1 = self
                    .cfg
                    .tournament(&self.pop, &g.ranks, &g.dist, &mut self.rng);
                let p2 = self
                    .cfg
                    .tournament(&self.pop, &g.ranks, &g.dist, &mut self.rng);
                let pos = self.cfg.offspring(self.space, (p1, p2), &mut self.rng);
                self.pending.push(pos);
            }
        }
        self.pending
            .iter()
            .map(|pos| ordinal::index_of(self.space, pos))
            .collect()
    }

    fn tell(&mut self, results: &[Told]) {
        let initializing = self.pop.len() < self.pop_size;
        for (pos, r) in self.pending.drain(..).zip(results) {
            let objectives = objectives_of(r);
            let ind = Individual { pos, objectives };
            if initializing {
                self.pop.push(ind);
            } else {
                let g = self.gen.as_mut().expect("offspring belong to a generation");
                g.combined.push(ind);
            }
        }
        if let Some(g) = &self.gen {
            if g.combined.len() == 2 * self.pop_size {
                let survivors = environmental_selection(&g.combined, self.pop_size);
                self.pop = survivors;
                self.gen = None;
            }
        }
    }
}

impl Nsga2 {
    /// Representable seed configurations as position vectors, in seed
    /// order (unrepresentable ones are skipped for free, as in
    /// [`bat_tuners::WarmStartTuner`]).
    fn seed_positions(&self, space: &ConfigSpace) -> Vec<Vec<usize>> {
        self.seeds
            .iter()
            .filter_map(|cfg| space.index_of(cfg))
            .map(|idx| ordinal::positions_of(space, idx))
            .collect()
    }
}

impl Tuner for Nsga2 {
    fn name(&self) -> &str {
        "nsga2"
    }

    fn start<'a>(&'a self, space: &'a ConfigSpace, seed: u64) -> Box<dyn StepTuner + 'a> {
        Box::new(Nsga2Step {
            cfg: self,
            space,
            rng: StdRng::seed_from_u64(seed),
            pop_size: self.population.max(2),
            seeds: self.seed_positions(space).into(),
            pop: Vec::new(),
            gen: None,
            pending: Vec::new(),
        })
    }
}

/// The non-dominated front of a finished run's successful trials, bounded
/// by `capacity`. Trials without a measured energy fall back to time as the
/// second objective, so the front degrades to the best-time singleton on
/// single-objective histories.
pub fn front_of_run(run: &TuningRun, capacity: usize) -> ParetoArchive {
    let mut archive = ParetoArchive::new(capacity);
    for t in &run.trials {
        if let Ok(m) = &t.outcome {
            archive.insert(ParetoPoint {
                index: t.index,
                time_ms: m.time_ms,
                energy_mj: m.energy_mj.unwrap_or(m.time_ms),
            });
        }
    }
    archive
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_core::{EvalFailure, Evaluator, Protocol, SyntheticProblem, TuningProblem};
    use bat_space::{ConfigSpace, Param};

    struct TwoObjective {
        space: ConfigSpace,
    }

    impl bat_core::TuningProblem for TwoObjective {
        fn name(&self) -> &str {
            "trade-off"
        }
        fn platform(&self) -> &str {
            "sim"
        }
        fn space(&self) -> &ConfigSpace {
            &self.space
        }
        fn evaluate_pure(&self, config: &[i64]) -> Result<f64, EvalFailure> {
            // Time falls with x…
            Ok(1.0 + (20 - config[0]) as f64)
        }
        fn evaluate_pure2(&self, config: &[i64]) -> Result<(f64, Option<f64>), EvalFailure> {
            // …while energy rises with x: a pure trade-off, every x is
            // Pareto-optimal.
            let t = self.evaluate_pure(config)?;
            Ok((t, Some(1.0 + config[0] as f64)))
        }
    }

    /// An energy-measuring evaluator of `p` under `protocol`, limited to
    /// `budget` evaluations.
    fn energy_eval(p: &dyn TuningProblem, protocol: Protocol, budget: u64) -> Evaluator<'_> {
        Evaluator::builder(p)
            .protocol(protocol)
            .budget(budget)
            .energy(true)
            .build()
            .unwrap()
    }

    fn problem() -> TwoObjective {
        TwoObjective {
            space: ConfigSpace::builder()
                .param(Param::int_range("x", 0, 20))
                .param(Param::int_range("y", 0, 4))
                .build()
                .unwrap(),
        }
    }

    #[test]
    fn respects_budget_and_is_deterministic() {
        let p = problem();
        let tuner = Nsga2::default();
        let eval1 = energy_eval(&p, Protocol::noiseless(), 100);
        let run1 = tuner.tune(&eval1, 9);
        assert_eq!(run1.trials.len(), 100);
        let eval2 = energy_eval(&p, Protocol::noiseless(), 100);
        let run2 = tuner.tune(&eval2, 9);
        assert_eq!(run1, run2);
    }

    #[test]
    fn discovers_a_spread_front_on_a_trade_off() {
        let p = problem();
        let eval = energy_eval(&p, Protocol::noiseless(), 300);
        let run = Nsga2::default().tune(&eval, 3);
        let front = front_of_run(&run, 32);
        front.check_invariants().unwrap();
        // The trade-off has 21 Pareto-optimal time levels; a working MOO
        // tuner should find a wide spread of them, including both extremes.
        assert!(front.len() >= 10, "front has only {} points", front.len());
        let times: Vec<f64> = front.front().iter().map(|q| q.time_ms).collect();
        assert_eq!(times.first().copied(), Some(1.0));
        assert_eq!(times.last().copied(), Some(21.0));
    }

    #[test]
    fn survives_all_failing_configurations() {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 7))
            .build()
            .unwrap();
        let p = SyntheticProblem::new("doomed", "sim", space, |_| {
            Err(EvalFailure::Launch("nope".into()))
        });
        let eval = energy_eval(&p, Protocol::noiseless(), 40);
        let run = Nsga2::default().tune(&eval, 1);
        assert_eq!(run.trials.len(), 40);
        assert_eq!(run.successes(), 0);
        assert!(front_of_run(&run, 8).is_empty());
    }

    #[test]
    fn whole_generation_batches_are_deterministic_and_spread_the_front() {
        let p = problem();
        // batch == population: every generation is asked at once.
        let protocol = Protocol::noiseless().with_batch(24);
        let e1 = energy_eval(&p, protocol, 300);
        let e2 = energy_eval(&p, protocol, 300);
        let a = Nsga2::default().tune(&e1, 3);
        let b = Nsga2::default().tune(&e2, 3);
        assert_eq!(a, b);
        assert_eq!(a.trials.len(), 300);
        // Offspring RNG is independent of in-generation results, so the
        // whole-generation batch replays the serial trial sequence exactly.
        let e3 = energy_eval(&p, Protocol::noiseless(), 300);
        let serial = Nsga2::default().tune(&e3, 3);
        assert_eq!(a, serial);
        let front = front_of_run(&a, 32);
        front.check_invariants().unwrap();
        assert!(front.len() >= 10);
    }

    #[test]
    fn transfer_seeds_head_the_initial_population() {
        let p = problem();
        let mut db = bat_tuners::TransferDatabase::new();
        db.record("other-gpu", vec![20, 3]);
        db.record("sim", vec![0, 0]); // same platform: not a transfer seed
        db.record("third-gpu", vec![99, 99]); // unrepresentable: skipped free
        db.record("third-gpu", vec![5, 1]);
        let tuner = Nsga2::warm_started(&db, "sim");
        assert_eq!(tuner.seeds, vec![vec![20, 3], vec![99, 99], vec![5, 1]]);

        let eval = energy_eval(&p, Protocol::noiseless(), 60);
        let run = tuner.tune(&eval, 7);
        assert_eq!(run.trials[0].config, vec![20, 3]);
        assert_eq!(run.trials[1].config, vec![5, 1]);
    }

    #[test]
    fn front_of_run_falls_back_to_time_without_energy() {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 9))
            .build()
            .unwrap();
        let p = SyntheticProblem::new("mono", "sim", space, |c| Ok(1.0 + c[0] as f64));
        let eval = Evaluator::builder(&p)
            .protocol(Protocol::noiseless())
            .budget(30)
            .build()
            .unwrap();
        let run = Nsga2::default().tune(&eval, 2);
        let front = front_of_run(&run, 8);
        // energy := time collapses the front to the single best point.
        assert_eq!(front.len(), 1);
        assert_eq!(front.front()[0].time_ms, 1.0);
    }
}
