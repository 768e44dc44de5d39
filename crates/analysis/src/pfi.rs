//! Fig. 6: feature importance of tuning parameters.
//!
//! A GBDT regressor (the CatBoost stand-in) is trained to predict runtime
//! from parameter values over a landscape's valid samples; permutation
//! feature importance then scores each parameter. The paper reports
//! R² ≥ 0.992 for all benchmarks except Convolution (0.9268–0.9361) and
//! reads importance sums > 1 as evidence of parameter interactions.

use bat_ml::{permutation_importance, Dataset, Gbdt, GbdtParams, PfiResult};
use bat_space::ConfigSpace;

use crate::landscape::Landscape;

/// PFI analysis output for one benchmark × platform.
#[derive(Debug, Clone)]
pub struct FeatureImportance {
    /// The underlying PFI result (baseline R², per-feature importances).
    pub pfi: PfiResult,
    /// R² of the regressor on its training set (the paper's Fig. 6 context
    /// reports in-sample fit quality).
    pub r2: f64,
}

/// Build the regression dataset of a landscape: features are parameter
/// values, target is log-runtime (runtimes span orders of magnitude).
/// Decodes into one reusable scratch and builds the flat row-major matrix
/// directly — no per-sample row allocations.
pub fn landscape_dataset(space: &ConfigSpace, l: &Landscape) -> Option<Dataset> {
    let names: Vec<String> = space.names().to_vec();
    let d = space.num_params();
    let mut x: Vec<f64> = Vec::with_capacity(l.samples.len() * d);
    let mut y = Vec::with_capacity(l.samples.len());
    let mut cfg = vec![0i64; d];
    for s in &l.samples {
        if let Some(t) = s.time_ms {
            space.decode_into(s.index, &mut cfg);
            x.extend(cfg.iter().map(|&v| v as f64));
            y.push(t.max(1e-12).ln());
        }
    }
    if y.is_empty() {
        return None;
    }
    Some(Dataset::from_flat(x, y, d, names))
}

/// Train the regressor and compute permutation importances.
pub fn feature_importance(
    space: &ConfigSpace,
    l: &Landscape,
    params: &GbdtParams,
    n_repeats: usize,
    seed: u64,
) -> Option<FeatureImportance> {
    let data = landscape_dataset(space, l)?;
    let model = Gbdt::fit(&data, params);
    let pred = model.predict_dataset(&data);
    let r2 = bat_ml::r2_score(data.targets(), &pred);
    let pfi = permutation_importance(&model, &data, n_repeats, seed);
    Some(FeatureImportance { pfi, r2 })
}

/// Default GBDT settings for the Fig. 6 protocol.
pub fn default_gbdt_params() -> GbdtParams {
    GbdtParams {
        n_trees: 300,
        learning_rate: 0.1,
        tree: bat_ml::TreeParams {
            max_depth: 8,
            min_samples_leaf: 3,
        },
        subsample: 0.9,
        seed: 17,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landscape::Landscape;
    use bat_core::{SyntheticProblem, TuningProblem};
    use bat_space::{ConfigSpace, Param};

    fn problem_space() -> ConfigSpace {
        ConfigSpace::builder()
            .param(Param::new("important", vec![1, 2, 4, 8, 16]))
            .param(Param::new("irrelevant", vec![0, 1, 2, 3]))
            .build()
            .unwrap()
    }

    #[test]
    fn importance_identifies_the_load_bearing_parameter() {
        let p = SyntheticProblem::new("toy", "sim", problem_space(), |c| Ok(100.0 / c[0] as f64));
        let l = Landscape::exhaustive(&p);
        let fi = feature_importance(p.space(), &l, &default_gbdt_params(), 3, 1).unwrap();
        assert!(fi.r2 > 0.99, "R² = {}", fi.r2);
        let names = fi.pfi.important_features(0.05);
        assert_eq!(names, vec!["important".to_string()]);
    }

    #[test]
    fn dataset_excludes_failures() {
        let p = SyntheticProblem::new("toy", "sim", problem_space(), |c| {
            if c[1] == 3 {
                Err(bat_core::EvalFailure::Launch("nope".into()))
            } else {
                Ok(1.0 + c[0] as f64)
            }
        });
        let l = Landscape::exhaustive(&p);
        let data = landscape_dataset(p.space(), &l).unwrap();
        assert_eq!(data.n_rows(), 15); // 5 * 3 valid combinations
    }

    #[test]
    fn empty_landscape_gives_none() {
        let p = SyntheticProblem::new("toy", "sim", problem_space(), |_| {
            Err(bat_core::EvalFailure::Restricted)
        });
        let l = Landscape::exhaustive(&p);
        assert!(landscape_dataset(p.space(), &l).is_none());
        assert!(feature_importance(p.space(), &l, &default_gbdt_params(), 2, 0).is_none());
    }
}
