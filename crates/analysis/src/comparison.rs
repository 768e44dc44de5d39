//! Head-to-head comparison of optimization algorithms — the study the
//! benchmark suite exists to enable (paper §I: "facilitates comparisons
//! between optimization algorithms from different autotuners", in the
//! style of Schoonhoven et al., the paper's reference \[3\]).
//!
//! Every tuner gets the same problems, the same measurement protocol and
//! the same evaluation budget; runs are repeated over seeds and summarized
//! three ways:
//!
//! * **median best-so-far curves** at log-spaced checkpoints (the
//!   per-algorithm version of the paper's Fig. 2),
//! * **final relative performance** `t_opt / t_best` per seed, and
//! * **mean ranks** across seeds (and, via [`aggregate_ranks`], across
//!   problems — the Friedman-test aggregation used in optimizer
//!   benchmarking).

use bat_core::{friedman_mean_ranks, Evaluator, Protocol, TuningProblem};
use bat_tuners::Tuner;
use rayon::prelude::*;

/// Settings shared by every tuner in one comparison.
#[derive(Debug, Clone)]
pub struct ComparisonSettings {
    /// Evaluation budget per run.
    pub budget: u64,
    /// Independent repetitions (seeds 0..repeats).
    pub repeats: u64,
    /// Evaluation counts at which the best-so-far is snapshotted.
    /// Empty = log-spaced defaults derived from `budget`.
    pub checkpoints: Vec<usize>,
    /// Measurement protocol (runs per config, noise).
    pub protocol: Protocol,
}

impl Default for ComparisonSettings {
    fn default() -> Self {
        ComparisonSettings {
            budget: 200,
            repeats: 7,
            checkpoints: Vec::new(),
            protocol: Protocol::default(),
        }
    }
}

impl ComparisonSettings {
    fn effective_checkpoints(&self) -> Vec<usize> {
        if !self.checkpoints.is_empty() {
            return self.checkpoints.clone();
        }
        // 1, 2, 5, 10, 20, 50, … up to the budget, always ending at it.
        let mut cps = Vec::new();
        let mut decade = 1usize;
        'outer: loop {
            for m in [1, 2, 5] {
                let c = m * decade;
                if c as u64 >= self.budget {
                    break 'outer;
                }
                cps.push(c);
            }
            decade *= 10;
        }
        cps.push(self.budget as usize);
        cps
    }
}

/// One tuner's aggregate over all repetitions.
#[derive(Debug, Clone)]
pub struct TunerResult {
    /// Tuner name.
    pub tuner: String,
    /// Final best time per seed (`None` when every trial failed).
    pub final_times: Vec<Option<f64>>,
    /// Median best-so-far time at each checkpoint (None until the first
    /// success at that depth).
    pub median_curve: Vec<Option<f64>>,
    /// Mean rank across seeds (1 = best). Ties share the average rank.
    pub mean_rank: f64,
}

impl TunerResult {
    /// Median of the per-seed final best times.
    pub fn median_final(&self) -> Option<f64> {
        let mut v: Vec<f64> = self.final_times.iter().flatten().copied().collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(|a, b| a.total_cmp(b));
        Some(v[v.len() / 2])
    }
}

/// Full comparison on one problem.
#[derive(Debug, Clone)]
pub struct TunerComparison {
    /// Problem name.
    pub problem: String,
    /// Platform (GPU) name.
    pub platform: String,
    /// Reference optimum used for relative performance (if known).
    pub optimum_ms: Option<f64>,
    /// Checkpoints of the median curves.
    pub checkpoints: Vec<usize>,
    /// Per-tuner aggregates, sorted by mean rank (best first).
    pub results: Vec<TunerResult>,
}

impl TunerComparison {
    /// Relative performance `t_opt / median_final` of a tuner
    /// (needs `optimum_ms`).
    pub fn relative_performance(&self, tuner: &str) -> Option<f64> {
        let opt = self.optimum_ms?;
        let r = self.results.iter().find(|r| r.tuner == tuner)?;
        Some(opt / r.median_final()?)
    }

    /// The winning tuner (lowest mean rank).
    pub fn winner(&self) -> Option<&TunerResult> {
        self.results.first()
    }

    /// Render an aligned text table (tuner, mean rank, median final,
    /// relative performance when an optimum is known).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>9} {:>12} {:>8}\n",
            "tuner", "mean rank", "median ms", "rel perf"
        ));
        for r in &self.results {
            let med = r
                .median_final()
                .map_or("-".to_string(), |m| format!("{m:.4}"));
            let rel = self
                .optimum_ms
                .and_then(|o| r.median_final().map(|m| o / m))
                .map_or("-".to_string(), |x| format!("{x:.3}"));
            out.push_str(&format!(
                "{:<24} {:>9.2} {:>12} {:>8}\n",
                r.tuner, r.mean_rank, med, rel
            ));
        }
        out
    }
}

/// Run every tuner `repeats` times on `problem` under identical budgets and
/// protocols. `(tuner, seed)` runs execute in parallel; results are
/// deterministic because each run's RNG is seeded by its seed index alone.
///
/// `optimum_ms` is the reference optimum for relative-performance numbers;
/// pass `None` when no ground truth is available (relative columns are then
/// omitted).
///
/// # Panics
///
/// Panics if `settings` asks for no repetitions or a zero budget, or if
/// [`EvaluatorBuilder::build`](bat_core::EvaluatorBuilder::build) rejects
/// `settings.protocol`.
pub fn compare_tuners(
    problem: &dyn TuningProblem,
    tuners: &[Box<dyn Tuner>],
    settings: &ComparisonSettings,
    optimum_ms: Option<f64>,
) -> TunerComparison {
    assert!(settings.repeats > 0, "need at least one repetition");
    assert!(settings.budget > 0, "need a positive budget");
    let checkpoints = settings.effective_checkpoints();

    // All (tuner, seed) cells in parallel; each gets a fresh evaluator so
    // budgets and caches are per-run, exactly like separate tuning sessions.
    let cells: Vec<(usize, u64, Vec<Option<f64>>)> = (0..tuners.len())
        .flat_map(|t| (0..settings.repeats).map(move |s| (t, s)))
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|(t, seed)| {
            let eval = Evaluator::builder(problem)
                .protocol(settings.protocol)
                .budget(settings.budget)
                .build()
                .expect("a valid measurement protocol");
            let run = tuners[t].tune(&eval, seed);
            let bsf = run.best_so_far();
            let snap: Vec<Option<f64>> = checkpoints
                .iter()
                .map(|&c| {
                    bsf.get(c.min(bsf.len()).saturating_sub(1))
                        .copied()
                        .flatten()
                })
                .collect();
            (t, seed, snap)
        })
        .collect();

    // Final best per (tuner, seed).
    let n = tuners.len();
    let reps = settings.repeats as usize;
    let mut finals: Vec<Vec<Option<f64>>> = vec![vec![None; reps]; n];
    let mut curves: Vec<Vec<Vec<Option<f64>>>> = vec![Vec::new(); n];
    for (t, seed, snap) in cells {
        finals[t][seed as usize] = snap.last().copied().flatten();
        curves[t].push(snap);
    }

    // Mean rank per tuner: rank tuners within each seed by final time,
    // failures rank last, ties share the average rank — the shared
    // Friedman reducer, so rankings agree with the harness summary path.
    let mean_ranks = friedman_mean_ranks(&finals);

    let mut results: Vec<TunerResult> = (0..n)
        .map(|t| {
            let median_curve: Vec<Option<f64>> = (0..checkpoints.len())
                .map(|c| {
                    let mut col: Vec<f64> = curves[t].iter().filter_map(|snap| snap[c]).collect();
                    if col.is_empty() {
                        return None;
                    }
                    col.sort_by(|a, b| a.total_cmp(b));
                    Some(col[col.len() / 2])
                })
                .collect();
            TunerResult {
                tuner: tuners[t].name().to_string(),
                final_times: finals[t].clone(),
                median_curve,
                mean_rank: mean_ranks[t],
            }
        })
        .collect();
    results.sort_by(|a, b| a.mean_rank.total_cmp(&b.mean_rank));

    TunerComparison {
        problem: problem.name().to_string(),
        platform: problem.platform().to_string(),
        optimum_ms,
        checkpoints,
        results,
    }
}

/// Cross-problem rank aggregation (Friedman-style): the mean of each
/// tuner's per-problem mean ranks. Requires every comparison to contain
/// the same tuner set.
#[derive(Debug, Clone)]
pub struct CrossProblemRanks {
    /// Tuner names sorted by overall mean rank (best first).
    pub tuners: Vec<String>,
    /// Overall mean rank per tuner (parallel to `tuners`).
    pub mean_ranks: Vec<f64>,
    /// Per-problem mean ranks, `(problem, ranks parallel to tuners)`.
    pub per_problem: Vec<(String, Vec<f64>)>,
}

impl CrossProblemRanks {
    /// Render an aligned text table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<24} {:>10}\n", "tuner", "mean rank"));
        for (t, r) in self.tuners.iter().zip(&self.mean_ranks) {
            out.push_str(&format!("{t:<24} {r:>10.2}\n"));
        }
        out
    }
}

/// Aggregate per-problem comparisons into overall tuner ranks.
///
/// # Panics
/// If `comparisons` is empty or the tuner sets differ between problems.
pub fn aggregate_ranks(comparisons: &[TunerComparison]) -> CrossProblemRanks {
    assert!(!comparisons.is_empty(), "nothing to aggregate");
    let mut names: Vec<String> = comparisons[0]
        .results
        .iter()
        .map(|r| r.tuner.clone())
        .collect();
    names.sort();
    let mut sums = vec![0.0f64; names.len()];
    let mut per_problem = Vec::with_capacity(comparisons.len());
    for c in comparisons {
        let mut these: Vec<String> = c.results.iter().map(|r| r.tuner.clone()).collect();
        these.sort();
        assert_eq!(these, names, "tuner sets differ between comparisons");
        let ranks: Vec<f64> = names
            .iter()
            .map(|n| {
                c.results
                    .iter()
                    .find(|r| &r.tuner == n)
                    .expect("checked above")
                    .mean_rank
            })
            .collect();
        for (s, r) in sums.iter_mut().zip(&ranks) {
            *s += r;
        }
        per_problem.push((format!("{}/{}", c.problem, c.platform), ranks));
    }
    let mut idx: Vec<usize> = (0..names.len()).collect();
    let means: Vec<f64> = sums.iter().map(|s| s / comparisons.len() as f64).collect();
    idx.sort_by(|&a, &b| means[a].total_cmp(&means[b]));

    CrossProblemRanks {
        tuners: idx.iter().map(|&i| names[i].clone()).collect(),
        mean_ranks: idx.iter().map(|&i| means[i]).collect(),
        per_problem: per_problem
            .into_iter()
            .map(|(p, ranks)| (p, idx.iter().map(|&i| ranks[i]).collect()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_core::SyntheticProblem;
    use bat_space::{ConfigSpace, Param};
    use bat_tuners::{LocalSearch, RandomSearch, SimulatedAnnealing};

    fn problem(
        name: &str,
    ) -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, bat_core::EvalFailure> + Send + Sync> {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 15))
            .param(Param::int_range("y", 0, 15))
            .build()
            .unwrap();
        SyntheticProblem::new(name, "sim", space, |v| {
            Ok(1.0 + ((v[0] - 11) * (v[0] - 11) + (v[1] - 4) * (v[1] - 4)) as f64)
        })
    }

    fn tuners() -> Vec<Box<dyn Tuner>> {
        vec![
            Box::new(RandomSearch),
            Box::new(LocalSearch::default()),
            Box::new(SimulatedAnnealing::default()),
        ]
    }

    fn settings() -> ComparisonSettings {
        ComparisonSettings {
            budget: 60,
            repeats: 5,
            protocol: Protocol::noiseless(),
            ..ComparisonSettings::default()
        }
    }

    #[test]
    fn comparison_covers_all_tuners_and_seeds() {
        let p = problem("toy");
        let c = compare_tuners(&p, &tuners(), &settings(), Some(1.0));
        assert_eq!(c.results.len(), 3);
        for r in &c.results {
            assert_eq!(r.final_times.len(), 5);
            assert!(r.final_times.iter().all(|t| t.is_some()));
            assert_eq!(r.median_curve.len(), c.checkpoints.len());
        }
    }

    #[test]
    fn mean_ranks_are_valid_and_sorted() {
        let p = problem("toy");
        let c = compare_tuners(&p, &tuners(), &settings(), None);
        let n = c.results.len() as f64;
        // Ranks live in [1, n] and sum (over tuners) to n(n+1)/2 per seed.
        let total: f64 = c.results.iter().map(|r| r.mean_rank).sum();
        assert!((total - n * (n + 1.0) / 2.0).abs() < 1e-9, "total {total}");
        for w in c.results.windows(2) {
            assert!(w[0].mean_rank <= w[1].mean_rank);
        }
        for r in &c.results {
            assert!(r.mean_rank >= 1.0 && r.mean_rank <= n);
        }
    }

    #[test]
    fn curves_are_monotonically_improving() {
        let p = problem("toy");
        let c = compare_tuners(&p, &tuners(), &settings(), None);
        for r in &c.results {
            let vals: Vec<f64> = r.median_curve.iter().flatten().copied().collect();
            for w in vals.windows(2) {
                assert!(w[1] <= w[0] + 1e-12, "{}: curve not improving", r.tuner);
            }
        }
    }

    #[test]
    fn relative_performance_uses_optimum() {
        let p = problem("toy");
        let c = compare_tuners(&p, &tuners(), &settings(), Some(1.0));
        for r in &c.results {
            let rel = c.relative_performance(&r.tuner).unwrap();
            assert!(rel > 0.0 && rel <= 1.0 + 1e-9, "{}: rel {rel}", r.tuner);
        }
        assert!(c.relative_performance("no-such-tuner").is_none());
    }

    #[test]
    fn deterministic_across_calls() {
        let p = problem("toy");
        let a = compare_tuners(&p, &tuners(), &settings(), None);
        let b = compare_tuners(&p, &tuners(), &settings(), None);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.tuner, y.tuner);
            assert_eq!(x.final_times, y.final_times);
            assert_eq!(x.mean_rank, y.mean_rank);
        }
    }

    #[test]
    fn checkpoints_default_log_spacing_ends_at_budget() {
        let s = ComparisonSettings {
            budget: 300,
            ..ComparisonSettings::default()
        };
        let cps = s.effective_checkpoints();
        assert_eq!(*cps.last().unwrap(), 300);
        assert!(cps.windows(2).all(|w| w[0] < w[1]));
        assert!(cps.contains(&1) && cps.contains(&10) && cps.contains(&100));
    }

    #[test]
    fn aggregate_ranks_across_problems() {
        let p1 = problem("p1");
        let p2 = problem("p2");
        let t = tuners();
        let c1 = compare_tuners(&p1, &t, &settings(), None);
        let c2 = compare_tuners(&p2, &t, &settings(), None);
        let agg = aggregate_ranks(&[c1.clone(), c2.clone()]);
        assert_eq!(agg.tuners.len(), 3);
        assert_eq!(agg.per_problem.len(), 2);
        // Overall mean rank is the average of the per-problem mean ranks.
        for (i, name) in agg.tuners.iter().enumerate() {
            let r1 = c1
                .results
                .iter()
                .find(|r| &r.tuner == name)
                .unwrap()
                .mean_rank;
            let r2 = c2
                .results
                .iter()
                .find(|r| &r.tuner == name)
                .unwrap()
                .mean_rank;
            assert!((agg.mean_ranks[i] - (r1 + r2) / 2.0).abs() < 1e-12);
        }
        // Sorted best-first.
        for w in agg.mean_ranks.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn table_rendering_contains_all_tuners() {
        let p = problem("toy");
        let c = compare_tuners(&p, &tuners(), &settings(), Some(1.0));
        let table = c.render_table();
        for r in &c.results {
            assert!(table.contains(&r.tuner));
        }
        let agg = aggregate_ranks(&[c]);
        let t2 = agg.render_table();
        for t in &agg.tuners {
            assert!(t2.contains(t));
        }
    }

    #[test]
    fn informed_search_outranks_random_on_smooth_problem() {
        let p = problem("toy");
        let c = compare_tuners(
            &p,
            &tuners(),
            &ComparisonSettings {
                budget: 80,
                repeats: 9,
                protocol: Protocol::noiseless(),
                ..ComparisonSettings::default()
            },
            None,
        );
        let rank = |name: &str| {
            c.results
                .iter()
                .find(|r| r.tuner == name)
                .unwrap()
                .mean_rank
        };
        // Local search exploits the bowl structure; random search cannot.
        assert!(
            rank("mls-first-improvement") < rank("random-search"),
            "local {} vs random {}",
            rank("mls-first-improvement"),
            rank("random-search")
        );
    }
}
