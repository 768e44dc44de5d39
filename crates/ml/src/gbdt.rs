//! Gradient-boosted regression trees (least-squares boosting).
//!
//! Stands in for the paper's CatBoost regressor: for squared error, the
//! negative gradient is the residual, so each stage fits a
//! [`RegressionTree`] to the current residuals and the ensemble adds it
//! scaled by the learning rate. Optional row subsampling (stochastic
//! gradient boosting) decorrelates stages.
//!
//! The boosting loop is built for throughput: the dataset is binned once
//! and every stage trains from histograms, all row/residual/histogram
//! buffers are allocated once and reused across stages, and each stage's
//! prediction update is folded into tree growth (leaves add their value to
//! the in-sample predictions directly; only out-of-bag rows of a
//! subsampled stage take the explicit predict walk).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::scorer::TreeScorer;
use crate::tree::{RegressionTree, TreeParams, TreeScratch};

/// Hyperparameters for [`Gbdt`].
#[derive(Debug, Clone, Copy)]
pub struct GbdtParams {
    /// Number of boosting stages.
    pub n_trees: usize,
    /// Shrinkage applied to every stage.
    pub learning_rate: f64,
    /// Per-tree settings.
    pub tree: TreeParams,
    /// Fraction of rows sampled per stage (1.0 = all).
    pub subsample: f64,
    /// RNG seed for subsampling.
    pub seed: u64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_trees: 200,
            learning_rate: 0.1,
            tree: TreeParams::default(),
            subsample: 1.0,
            seed: 0,
        }
    }
}

/// A fitted gradient-boosted ensemble.
#[derive(Debug, Clone)]
pub struct Gbdt {
    base: f64,
    learning_rate: f64,
    trees: Vec<RegressionTree>,
    scorer: TreeScorer,
}

impl Gbdt {
    /// Fit to a dataset (targets from the dataset's own target column).
    /// Trains from per-bin histograms whenever the dataset is binnable
    /// (≤ 256 distinct values per feature).
    pub fn fit(data: &Dataset, params: &GbdtParams) -> Self {
        Self::fit_impl(data, params, false)
    }

    /// Fit with the exact sort-based splitter regardless of binnability —
    /// the equivalence-test oracle and benchmark baseline for [`Gbdt::fit`].
    pub fn fit_exact(data: &Dataset, params: &GbdtParams) -> Self {
        Self::fit_impl(data, params, true)
    }

    fn fit_impl(data: &Dataset, params: &GbdtParams, exact: bool) -> Self {
        assert!(params.n_trees > 0, "need at least one tree");
        assert!(
            params.subsample > 0.0 && params.subsample <= 1.0,
            "subsample must be in (0, 1]"
        );
        let y = data.targets();
        let n = data.n_rows();
        let base = y.iter().sum::<f64>() / n as f64;
        let mut pred = vec![base; n];
        let mut residual = vec![0.0f64; n];
        let mut trees = Vec::with_capacity(params.n_trees);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let all_rows: Vec<usize> = (0..n).collect();
        let sample_size = ((n as f64) * params.subsample).ceil() as usize;
        let full = sample_size >= n;
        // Stage-invariant buffers, hoisted out of the boosting loop.
        let mut scratch = TreeScratch::default();
        let mut rows_buf: Vec<usize> = Vec::with_capacity(if full { 0 } else { n });
        let mut in_sample = vec![false; if full { 0 } else { n }];

        for _ in 0..params.n_trees {
            for i in 0..n {
                residual[i] = y[i] - pred[i];
            }
            let rows: &[usize] = if full {
                &all_rows
            } else {
                rows_buf.clear();
                rows_buf.extend_from_slice(&all_rows);
                rows_buf.partial_shuffle(&mut rng, sample_size);
                rows_buf.truncate(sample_size);
                &rows_buf
            };
            // Leaves fold `learning_rate * value` into `pred` for every
            // in-sample row as the tree grows.
            let tree = RegressionTree::fit_with_scratch(
                data,
                &residual,
                rows,
                &params.tree,
                &mut scratch,
                Some((&mut pred, params.learning_rate)),
                exact,
            );
            if !full {
                // Out-of-bag rows still need the explicit predict walk.
                for &r in rows {
                    in_sample[r] = true;
                }
                for (i, p) in pred.iter_mut().enumerate() {
                    if !in_sample[i] {
                        *p += params.learning_rate * tree.predict(data.row(i));
                    }
                }
                for &r in rows {
                    in_sample[r] = false;
                }
            }
            trees.push(tree);
        }
        Gbdt {
            base,
            learning_rate: params.learning_rate,
            scorer: TreeScorer::compile(&trees, data.n_features()),
            trees,
        }
    }

    /// Predict one row: a pool of one.
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.predict_pool(row)[0]
    }

    /// Predict every row of `rows`, a row-major `m × d` block, in row
    /// order.
    ///
    /// Each row sums its stages' leaf values in stage order, from `-0.0`
    /// as `f64`'s `Iterator::sum` does, so a prediction equals
    /// `base + learning_rate × Σ tree.predict(row)` bit for bit.
    pub fn predict_pool(&self, rows: &[f64]) -> Vec<f64> {
        let mut sums = vec![-0.0; self.scorer.n_rows(rows)];
        self.scorer.for_each_leaf(rows, |c0, values| {
            for (s, v) in sums[c0..].iter_mut().zip(values) {
                *s += v;
            }
        });
        sums.into_iter()
            .map(|s| self.base + self.learning_rate * s)
            .collect()
    }

    /// Predict every row of a dataset.
    pub fn predict_dataset(&self, data: &Dataset) -> Vec<f64> {
        self.predict_pool(data.row_major())
    }

    /// Number of stages.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The stages, in boosting order.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2_score;

    fn friedman_like(n: usize) -> Dataset {
        // y = 3*x0 + x1^2 - 2*x0*x2 (interaction!), discrete features.
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = f64::from((i * 7 % 13) as u32);
                let b = f64::from((i * 5 % 7) as u32);
                let c = f64::from((i * 3 % 4) as u32);
                vec![a, b, c]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 3.0 * r[0] + r[1] * r[1] - 2.0 * r[0] * r[2])
            .collect();
        Dataset::new(&rows, y, vec!["a".into(), "b".into(), "c".into()])
    }

    #[test]
    fn fits_nonlinear_function_with_high_r2() {
        let data = friedman_like(2000);
        let model = Gbdt::fit(&data, &GbdtParams::default());
        let pred = model.predict_dataset(&data);
        let r2 = r2_score(data.targets(), &pred);
        assert!(r2 > 0.99, "R² = {r2}");
    }

    #[test]
    fn more_trees_fit_better() {
        let data = friedman_like(800);
        let small = Gbdt::fit(
            &data,
            &GbdtParams {
                n_trees: 5,
                ..GbdtParams::default()
            },
        );
        let large = Gbdt::fit(
            &data,
            &GbdtParams {
                n_trees: 150,
                ..GbdtParams::default()
            },
        );
        let r2s = r2_score(data.targets(), &small.predict_dataset(&data));
        let r2l = r2_score(data.targets(), &large.predict_dataset(&data));
        assert!(r2l > r2s);
    }

    #[test]
    fn subsampling_still_converges() {
        let data = friedman_like(1500);
        let model = Gbdt::fit(
            &data,
            &GbdtParams {
                subsample: 0.7,
                seed: 3,
                ..GbdtParams::default()
            },
        );
        let r2 = r2_score(data.targets(), &model.predict_dataset(&data));
        assert!(r2 > 0.97, "R² = {r2}");
    }

    #[test]
    fn constant_target_predicts_constant() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![f64::from(i as u32)]).collect();
        let data = Dataset::new(&rows, vec![4.2; 50], vec!["x".into()]);
        let model = Gbdt::fit(&data, &GbdtParams::default());
        assert!((model.predict(&[25.0]) - 4.2).abs() < 1e-9);
    }

    #[test]
    fn histogram_fit_matches_exact_fit() {
        let data = friedman_like(800);
        for subsample in [1.0, 0.7] {
            let p = GbdtParams {
                n_trees: 30,
                subsample,
                seed: 5,
                ..GbdtParams::default()
            };
            let hist = Gbdt::fit(&data, &p).predict_dataset(&data);
            let exact = Gbdt::fit_exact(&data, &p).predict_dataset(&data);
            for (h, e) in hist.iter().zip(&exact) {
                assert!(
                    (h - e).abs() <= 1e-9 * (1.0 + e.abs()),
                    "hist {h} vs exact {e} (subsample {subsample})"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = friedman_like(500);
        let p = GbdtParams {
            subsample: 0.5,
            seed: 9,
            n_trees: 20,
            ..GbdtParams::default()
        };
        let a = Gbdt::fit(&data, &p).predict_dataset(&data);
        let b = Gbdt::fit(&data, &p).predict_dataset(&data);
        assert_eq!(a, b);
    }
}
