//! Warm-started tuning: seed the search with known-good configurations.
//!
//! The paper's portability study (Fig. 5) shows optimal configurations
//! transfer between architectures at 58.5–99.9% of optimal — too lossy to
//! use *as is*, but far better than a random starting point. The
//! actionable consequence is transfer tuning: evaluate the configurations
//! that were optimal on other architectures first, then continue with a
//! normal tuner. [`WarmStartTuner`] implements exactly that, sharing one
//! budget between the seed evaluations and the inner tuner; the
//! [`TransferDatabase`] is the cross-architecture store those seeds come
//! from (and that multi-objective tuners like NSGA-II can draw initial
//! populations from).

use bat_core::{Evaluator, TuningRun};
use bat_space::ConfigSpace;

use crate::step::{StepCtx, StepTuner, Told};
use crate::tuner::{record_eval, Recorded, Tuner};

/// A store of known-good configurations per platform: the suite's transfer
/// database. Entries are kept in insertion order, so seed evaluation order
/// (and therefore every downstream artifact) is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransferDatabase {
    entries: Vec<(String, Vec<i64>)>,
}

impl TransferDatabase {
    /// An empty database.
    pub fn new() -> TransferDatabase {
        TransferDatabase::default()
    }

    /// Record a good configuration observed on `platform` (e.g. the best
    /// configuration of a finished tuning run there).
    pub fn record(&mut self, platform: impl Into<String>, config: Vec<i64>) {
        self.entries.push((platform.into(), config));
    }

    /// Number of recorded configurations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The transfer seeds for tuning on `target_platform`: every recorded
    /// configuration from *other* platforms, in insertion order (the
    /// cross-architecture transfer of the paper's Fig. 5).
    pub fn seeds_for(&self, target_platform: &str) -> Vec<Vec<i64>> {
        self.entries
            .iter()
            .filter(|(p, _)| p != target_platform)
            .map(|(_, c)| c.clone())
            .collect()
    }
}

/// Wraps any [`Tuner`] with a list of seed configurations that are
/// evaluated before the inner search starts.
///
/// Seeds that are not exactly representable in the target space (a value
/// missing from a parameter's list) are skipped without consuming budget —
/// the cross-architecture case where a space differs per platform.
pub struct WarmStartTuner<T: Tuner> {
    /// Configurations to evaluate first (e.g. optima from other GPUs).
    pub seeds: Vec<Vec<i64>>,
    /// The tuner that continues after the seeds.
    pub inner: T,
    name: String,
}

impl<T: Tuner> WarmStartTuner<T> {
    /// Wrap `inner`, evaluating `seeds` first.
    pub fn new(seeds: Vec<Vec<i64>>, inner: T) -> Self {
        let name = format!("warmstart+{}", inner.name());
        WarmStartTuner { seeds, inner, name }
    }

    /// Wrap `inner` with the transfer seeds a database holds for runs on
    /// `target_platform` (configurations recorded on other platforms).
    pub fn from_database(db: &TransferDatabase, target_platform: &str, inner: T) -> Self {
        Self::new(db.seeds_for(target_platform), inner)
    }
}

struct WarmStep<'a> {
    /// Representable seeds as dense indices, in seed-list order.
    seeds: Vec<u64>,
    cursor: usize,
    /// Whether the previous ask came from the seed phase.
    in_seeds: bool,
    inner: Box<dyn StepTuner + 'a>,
}

impl StepTuner for WarmStep<'_> {
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
        if self.cursor < self.seeds.len() {
            self.in_seeds = true;
            let end = (self.cursor + ctx.batch).min(self.seeds.len());
            let out = self.seeds[self.cursor..end].to_vec();
            self.cursor = end;
            return out;
        }
        self.in_seeds = false;
        self.inner.ask(ctx)
    }

    fn tell(&mut self, results: &[Told]) {
        if !self.in_seeds {
            self.inner.tell(results);
        }
    }
}

impl<T: Tuner> WarmStartTuner<T> {
    /// The pre-ask/tell seed-splicing loop, kept as the equivalence oracle
    /// for the step driver (the inner search runs through its own `tune`,
    /// which is itself oracle-tested per tuner).
    pub fn reference_tune(&self, eval: &Evaluator<'_>, seed: u64) -> TuningRun {
        let space = eval.problem().space();
        // Evaluate representable seeds against the shared budget.
        let mut prefix = crate::tuner::new_run(eval, self.name(), seed);
        for cfg in &self.seeds {
            let Some(idx) = space.index_of(cfg) else {
                continue; // not representable here: skip for free
            };
            if matches!(record_eval(eval, &mut prefix, idx), Recorded::Exhausted) {
                return prefix;
            }
        }
        // Hand the evaluator (budget already partly spent, cache warm) to
        // the inner tuner and splice the histories.
        let inner_run = self.inner.tune(eval, seed);
        for mut t in inner_run.trials {
            t.eval = prefix.trials.len() as u64 + 1;
            prefix.push(t);
        }
        prefix
    }
}

impl<T: Tuner> Tuner for WarmStartTuner<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn start<'a>(&'a self, space: &'a ConfigSpace, seed: u64) -> Box<dyn StepTuner + 'a> {
        let seeds: Vec<u64> = self
            .seeds
            .iter()
            .filter_map(|cfg| space.index_of(cfg)) // unrepresentable: free skip
            .collect();
        Box::new(WarmStep {
            seeds,
            cursor: 0,
            in_seeds: false,
            inner: self.inner.start(space, seed),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomSearch;
    use crate::testkit::{evaluator, noiseless};
    use bat_core::{Protocol, SyntheticProblem};
    use bat_space::{ConfigSpace, Param};

    fn problem(
    ) -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, bat_core::EvalFailure> + Send + Sync> {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 31))
            .param(Param::int_range("y", 0, 31))
            .build()
            .unwrap();
        SyntheticProblem::new("bowl", "sim", space, |v| {
            Ok(1.0 + ((v[0] - 20) * (v[0] - 20) + (v[1] - 13) * (v[1] - 13)) as f64)
        })
    }

    #[test]
    fn seeds_are_evaluated_first_in_order() {
        let p = problem();
        let eval = noiseless(&p, 20);
        let tuner = WarmStartTuner::new(vec![vec![5, 5], vec![20, 13]], RandomSearch);
        let run = tuner.tune(&eval, 0);
        assert_eq!(run.trials.len(), 20);
        assert_eq!(run.trials[0].config, vec![5, 5]);
        assert_eq!(run.trials[1].config, vec![20, 13]);
        // The second seed is the optimum: best is found at evaluation 2.
        assert_eq!(run.best().unwrap().config, vec![20, 13]);
        assert_eq!(run.tuner, "warmstart+random-search");
    }

    #[test]
    fn unrepresentable_seeds_are_skipped_for_free() {
        let p = problem();
        let eval = noiseless(&p, 10);
        // 99 is not a value of either parameter.
        let tuner = WarmStartTuner::new(vec![vec![99, 99], vec![7, 7]], RandomSearch);
        let run = tuner.tune(&eval, 1);
        assert_eq!(run.trials.len(), 10);
        assert_eq!(run.trials[0].config, vec![7, 7]);
    }

    #[test]
    fn budget_shared_between_seeds_and_inner() {
        let p = problem();
        let eval = noiseless(&p, 3);
        let seeds: Vec<Vec<i64>> = (0..5).map(|i| vec![i, i]).collect();
        let run = WarmStartTuner::new(seeds, RandomSearch).tune(&eval, 0);
        // Only 3 of the 5 seeds fit the budget; inner never runs.
        assert_eq!(run.trials.len(), 3);
        assert_eq!(run.trials[2].config, vec![2, 2]);
    }

    #[test]
    fn good_seed_beats_cold_start_at_tiny_budget() {
        let p = problem();
        let budget = 8;
        let cold = {
            let eval = noiseless(&p, budget);
            RandomSearch
                .tune(&eval, 3)
                .best()
                .unwrap()
                .time_ms()
                .unwrap()
        };
        let warm = {
            let eval = noiseless(&p, budget);
            // A near-optimal transfer seed (one off the optimum).
            WarmStartTuner::new(vec![vec![19, 13]], RandomSearch)
                .tune(&eval, 3)
                .best()
                .unwrap()
                .time_ms()
                .unwrap()
        };
        assert!(warm <= cold, "warm {warm} vs cold {cold}");
        assert!(warm <= 2.0, "transfer seed value not exploited: {warm}");
    }

    #[test]
    fn empty_seed_list_degenerates_to_inner() {
        let p = problem();
        let e1 = noiseless(&p, 15);
        let e2 = noiseless(&p, 15);
        let warm = WarmStartTuner::new(vec![], RandomSearch).tune(&e1, 9);
        let plain = RandomSearch.tune(&e2, 9);
        let wi: Vec<u64> = warm.trials.iter().map(|t| t.index).collect();
        let pi: Vec<u64> = plain.trials.iter().map(|t| t.index).collect();
        assert_eq!(wi, pi);
    }

    #[test]
    fn step_driver_matches_reference_splice_at_batch_one() {
        let p = problem();
        let tuner = WarmStartTuner::new(vec![vec![5, 5], vec![99, 99], vec![20, 13]], RandomSearch);
        for seed in 0..4 {
            let e1 = noiseless(&p, 25);
            let e2 = noiseless(&p, 25);
            assert_eq!(tuner.tune(&e1, seed), tuner.reference_tune(&e2, seed));
        }
    }

    #[test]
    fn batched_seed_phase_preserves_order() {
        let p = problem();
        let seeds: Vec<Vec<i64>> = (0..6).map(|i| vec![i, i]).collect();
        let eval = evaluator(&p, Protocol::noiseless().with_batch(4), 20);
        let run = WarmStartTuner::new(seeds, RandomSearch).tune(&eval, 0);
        for (i, t) in run.trials.iter().take(6).enumerate() {
            assert_eq!(t.config, vec![i as i64, i as i64]);
        }
        assert_eq!(run.trials.len(), 20);
    }

    #[test]
    fn transfer_database_yields_other_platform_seeds_in_order() {
        let mut db = TransferDatabase::new();
        db.record("RTX 3090", vec![1, 2]);
        db.record("MI100", vec![3, 4]);
        db.record("RTX 3090", vec![5, 6]);
        assert_eq!(db.len(), 3);
        assert_eq!(db.seeds_for("RTX 3090"), vec![vec![3, 4]]);
        assert_eq!(db.seeds_for("MI100"), vec![vec![1, 2], vec![5, 6]]);
        assert_eq!(
            db.seeds_for("A4000"),
            vec![vec![1, 2], vec![3, 4], vec![5, 6]]
        );
        let tuner = WarmStartTuner::from_database(&db, "MI100", RandomSearch);
        assert_eq!(tuner.seeds, vec![vec![1, 2], vec![5, 6]]);
    }
}
