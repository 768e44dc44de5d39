//! Random-forest regression with predictive uncertainty.
//!
//! SMAC3 — one of the tuners the paper's shared interface targets — models
//! the objective with a random forest and uses the spread between trees as
//! a predictive variance for Expected Improvement. This module reproduces
//! that model: bootstrap-bagged [`RegressionTree`]s and mean/variance
//! prediction across trees.
//!
//! The dataset is binned once (shared immutably by every bagged tree), so
//! the rayon-parallel tree fits all train from per-bin histograms; each
//! worker owns its per-tree scratch. The fitted trees are compiled for
//! scoring (the `scorer` module), so predictions score whole pools of rows
//! at a time, bit for bit equal to the trees' walks.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::dataset::Dataset;
use crate::scorer::TreeScorer;
use crate::tree::{RegressionTree, TreeParams, TreeScratch};

thread_local! {
    /// One histogram/scratch pool per worker thread: every bagged tree a
    /// worker fits reuses the same buffers instead of allocating per-tree
    /// scratch (ROADMAP follow-up (d)). Scratch reuse is bit-neutral — the
    /// buffers are (re)sized and cleared per fit — so forests are
    /// identical to the per-tree-scratch ones.
    static FOREST_SCRATCH: RefCell<TreeScratch> = RefCell::new(TreeScratch::default());
}

/// Hyperparameters for [`RandomForest`].
#[derive(Debug, Clone, Copy)]
pub struct ForestParams {
    /// Number of bagged trees.
    pub n_trees: usize,
    /// Per-tree settings. Forest trees are typically grown deeper than
    /// boosted trees since bagging, not shrinkage, controls variance.
    pub tree: TreeParams,
    /// Bootstrap sample size as a fraction of the dataset (sampling is
    /// with replacement, as in Breiman's original formulation).
    pub bootstrap: f64,
    /// RNG seed for the bootstrap draws.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 40,
            tree: TreeParams {
                max_depth: 10,
                min_samples_leaf: 2,
            },
            bootstrap: 1.0,
            seed: 0,
        }
    }
}

/// Mean/variance prediction of a forest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestPrediction {
    /// Mean of the per-tree predictions.
    pub mean: f64,
    /// Population variance of the per-tree predictions (SMAC's
    /// uncertainty proxy).
    pub variance: f64,
}

impl ForestPrediction {
    /// Standard deviation across trees.
    pub fn std_dev(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    scorer: TreeScorer,
}

impl RandomForest {
    /// Fit a forest to the dataset's target column.
    pub fn fit(data: &Dataset, params: &ForestParams) -> Self {
        assert!(params.n_trees > 0, "need at least one tree");
        assert!(
            params.bootstrap > 0.0 && params.bootstrap <= 1.0,
            "bootstrap fraction must be in (0, 1]"
        );
        let n = data.n_rows();
        let sample_size = ((n as f64) * params.bootstrap).ceil() as usize;
        let y = data.targets();

        // Draw every tree's bootstrap rows up-front from one seeded RNG so
        // the fit is deterministic regardless of rayon's schedule.
        let mut rng = StdRng::seed_from_u64(params.seed);
        let samples: Vec<Vec<usize>> = (0..params.n_trees)
            .map(|_| (0..sample_size).map(|_| rng.random_range(0..n)).collect())
            .collect();

        // Bin once on this thread; the workers below only read the cache
        // and train through their per-worker shared scratch pool.
        let _ = data.binned();
        let trees: Vec<RegressionTree> = samples
            .par_iter()
            .map(|rows| {
                FOREST_SCRATCH.with(|scratch| {
                    RegressionTree::fit_with_scratch(
                        data,
                        y,
                        rows,
                        &params.tree,
                        &mut scratch.borrow_mut(),
                        None,
                        false,
                    )
                })
            })
            .collect();

        RandomForest {
            scorer: TreeScorer::compile(&trees, data.n_features()),
            trees,
        }
    }

    /// Mean/variance prediction for one row: a pool of one.
    pub fn predict(&self, row: &[f64]) -> ForestPrediction {
        self.predict_pool(row)[0]
    }

    /// Mean/variance prediction for every row of `rows`, a row-major
    /// `m × d` block, in row order.
    ///
    /// Each row sums its trees' leaf values and their squares in tree
    /// order, from `0.0`, so a prediction equals the one from the trees'
    /// walks bit for bit.
    pub fn predict_pool(&self, rows: &[f64]) -> Vec<ForestPrediction> {
        let mut sums = vec![(0.0, 0.0); self.scorer.n_rows(rows)];
        self.scorer.for_each_leaf(rows, |c0, values| {
            for ((sum, sum_sq), &p) in sums[c0..].iter_mut().zip(values) {
                *sum += p;
                *sum_sq += p * p;
            }
        });
        let m = self.trees.len() as f64;
        sums.into_iter()
            .map(|(sum, sum_sq)| {
                let mean = sum / m;
                ForestPrediction {
                    mean,
                    variance: (sum_sq / m - mean * mean).max(0.0),
                }
            })
            .collect()
    }

    /// Mean prediction for every row of a dataset.
    pub fn predict_dataset(&self, data: &Dataset) -> Vec<f64> {
        self.predict_pool(data.row_major())
            .into_iter()
            .map(|p| p.mean)
            .collect()
    }

    /// The bagged trees, in fit order.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2_score;

    fn grid_data() -> Dataset {
        // Smooth 2-D bowl on a 15×15 grid.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..15 {
            for j in 0..15 {
                rows.push(vec![i as f64, j as f64]);
                y.push((i as f64 - 7.0).powi(2) + (j as f64 - 7.0).powi(2));
            }
        }
        Dataset::new(&rows, y, vec!["i".into(), "j".into()])
    }

    #[test]
    fn fits_bowl_with_high_r2() {
        let data = grid_data();
        let forest = RandomForest::fit(&data, &ForestParams::default());
        let r2 = r2_score(data.targets(), &forest.predict_dataset(&data));
        assert!(r2 > 0.95, "R² = {r2}");
    }

    #[test]
    fn variance_positive_off_grid_and_small_on_training_plateau() {
        // A step function: trees agree inside plateaus, disagree at the step.
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..60).map(|i| if i < 30 { 1.0 } else { 9.0 }).collect();
        let data = Dataset::new(&rows, y, vec!["x".into()]);
        let forest = RandomForest::fit(&data, &ForestParams::default());
        let plateau = forest.predict(&[10.0]);
        let step = forest.predict(&[29.6]);
        assert!(plateau.variance <= step.variance + 1e-12);
        assert!(plateau.std_dev() >= 0.0);
    }

    #[test]
    fn shared_worker_scratch_is_bit_neutral() {
        // The pooled-scratch forest must equal trees fit with fresh
        // per-tree scratch from the same bootstrap rows.
        let data = grid_data();
        let params = ForestParams {
            n_trees: 8,
            seed: 5,
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&data, &params);
        // Re-derive the bootstrap rows exactly as `fit` does.
        let n = data.n_rows();
        let sample_size = ((n as f64) * params.bootstrap).ceil() as usize;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let samples: Vec<Vec<usize>> = (0..params.n_trees)
            .map(|_| (0..sample_size).map(|_| rng.random_range(0..n)).collect())
            .collect();
        for (tree_rows, i) in samples.iter().zip(0..) {
            let fresh = RegressionTree::fit(&data, data.targets(), tree_rows, &params.tree);
            for r in 0..n {
                let row = data.row(r);
                assert_eq!(
                    forest.trees[i].predict(row),
                    fresh.predict(row),
                    "tree {i} diverged under pooled scratch"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = grid_data();
        let p = ForestParams {
            seed: 11,
            n_trees: 12,
            ..ForestParams::default()
        };
        let a = RandomForest::fit(&data, &p).predict_dataset(&data);
        let b = RandomForest::fit(&data, &p).predict_dataset(&data);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let data = grid_data();
        let a = RandomForest::fit(
            &data,
            &ForestParams {
                seed: 1,
                ..ForestParams::default()
            },
        );
        let b = RandomForest::fit(
            &data,
            &ForestParams {
                seed: 2,
                ..ForestParams::default()
            },
        );
        // Predictions differ somewhere (bootstraps differ).
        let pa = a.predict_dataset(&data);
        let pb = b.predict_dataset(&data);
        assert!(pa.iter().zip(&pb).any(|(x, y)| (x - y).abs() > 1e-12));
    }

    #[test]
    fn single_tree_forest_has_zero_variance() {
        let data = grid_data();
        let forest = RandomForest::fit(
            &data,
            &ForestParams {
                n_trees: 1,
                ..ForestParams::default()
            },
        );
        let p = forest.predict(&[3.0, 3.0]);
        assert_eq!(p.variance, 0.0);
        assert_eq!(forest.n_trees(), 1);
    }

    #[test]
    fn constant_target_predicts_constant_with_zero_variance() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let data = Dataset::new(&rows, vec![3.3; 30], vec!["x".into()]);
        let forest = RandomForest::fit(&data, &ForestParams::default());
        let p = forest.predict(&[15.0]);
        assert!((p.mean - 3.3).abs() < 1e-12);
        assert!(p.variance < 1e-18);
    }
}
