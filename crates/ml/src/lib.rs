//! # bat-ml
//!
//! Machine-learning substrate for BAT-rs analyses and model-based tuners:
//! CART regression trees, least-squares gradient boosting (the paper's
//! CatBoost stand-in for Fig. 6), random forests with predictive variance
//! (SMAC3's surrogate), exact Gaussian-process regression (the model behind
//! Bayesian-optimization tuners, paper ref \[22\]), regression metrics, and
//! Permutation Feature Importance.
//!
//! ## The binned training pipeline
//!
//! Tuning-parameter features take ≤ 37 distinct values, so [`Dataset`]
//! bins every feature once into a column-major `u8` code matrix
//! ([`BinnedMatrix`], lossless below 257 distinct values). Trees then
//! train from per-bin (sum, sum², count) histograms with the
//! parent-minus-sibling subtraction trick, reusing one scratch-buffer set
//! across all nodes, trees and boosting stages, and folding boosting
//! prediction updates into leaf creation. The old per-node sort-based
//! splitter survives as [`RegressionTree::fit_exact`] / [`Gbdt::fit_exact`]
//! — the equivalence oracle (property-tested to produce the same trees)
//! and the benchmark baseline it beats by well over an order of magnitude.
//!
//! ## Pool scoring
//!
//! Model-based tuners score a few hundred candidates per step, so each
//! model predicts a row-major `m × d` block in one call (`predict_pool`;
//! `predict` is a pool of one). [`Gbdt`] and [`RandomForest`] compile
//! their trees at the end of `fit`, after QuickScorer (Lucchese et al.,
//! SIGIR 2015): each tree numbers its leaves left to right and keeps, per
//! tested feature and rank among the ensemble's thresholds on it, a `u64`
//! bitmask of the leaves a value of that rank can still reach. A row's
//! exit leaf is then the lowest set bit of one AND per tested feature,
//! instead of one dependent branch per level of a walk. Candidates go
//! through in tiles of 8 and sum the trees in ensemble order, so pool
//! predictions equal the summed [`RegressionTree::predict`] walks bit for
//! bit. [`GaussianProcess::predict_pool`] tiles its candidates the same
//! way, and keeps each candidate's one-at-a-time summation order.
//!
//! ## Refits
//!
//! A tuner that refits its model every step mostly refits on the data it
//! had, or on that data plus a row or two. [`GaussianProcess::refit`]
//! keeps a fitted GP's hyperparameters and equals the fixed-hyperparameter
//! [`GaussianProcess::fit`] bit for bit. When the new rows extend the old
//! ones and no input range moves, the kernel matrix only gains rows, so
//! [`linalg::Cholesky::factor_from`] grows the stored factor by them:
//! O(n²) per appended row instead of O(n³). Factors go four rows at a
//! time, with every entry's sum in the row-oriented loop's order, so a
//! grown factor is the from-scratch one, bit for bit.
//!
//! ```
//! use bat_ml::{Dataset, Gbdt, GbdtParams, permutation_importance, r2_score};
//!
//! let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 7) as f64, (i % 3) as f64]).collect();
//! let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0]).collect();
//! let data = Dataset::new(&rows, y, vec!["x".into(), "noise".into()]);
//! let model = Gbdt::fit(&data, &GbdtParams::default());
//! let r2 = r2_score(data.targets(), &model.predict_dataset(&data));
//! assert!(r2 > 0.99);
//! let pfi = permutation_importance(&model, &data, 3, 0);
//! assert!(pfi.importances[0] > pfi.importances[1]);
//! ```

#![warn(missing_docs)]

mod dataset;
mod forest;
mod gbdt;
mod gp;
pub mod linalg;
mod metrics;
mod pfi;
mod scorer;
pub mod stats;
mod tree;

pub use dataset::{BinnedMatrix, Dataset, MAX_BINS};
pub use forest::{ForestParams, ForestPrediction, RandomForest};
pub use gbdt::{Gbdt, GbdtParams};
pub use gp::{GaussianProcess, GpParams, GpPrediction, KernelKind};
pub use metrics::{mae, r2_score, rmse};
pub use pfi::{permutation_importance, PfiResult};
pub use tree::{RegressionTree, TreeParams};
