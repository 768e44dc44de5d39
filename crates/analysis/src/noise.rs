//! Measurement-noise sensitivity: how run-to-run variance corrupts tuner
//! decisions.
//!
//! The suite's measurement protocol (`Protocol { runs, sigma, .. }`)
//! models the noise every real tuning run fights: the paper's own protocol
//! takes several runs per configuration and aggregates robustly. This
//! study quantifies the other side — *selection error*. A tuner picks the
//! configuration with the best **measured** time; under noise that winner
//! is optimistically biased (the winner's curse), so the honest quality of
//! a run is the **noise-free** runtime of the configuration it selected.

use bat_core::{Evaluator, Protocol, TuningProblem};
use bat_tuners::Tuner;
use rayon::prelude::*;

/// Selection quality at one noise level.
#[derive(Debug, Clone)]
pub struct NoisePoint {
    /// Relative run-to-run noise (σ of the multiplicative factor).
    pub sigma: f64,
    /// Median (over repeats) of the noise-free runtime of the selected
    /// configuration.
    pub median_selected_ms: f64,
    /// Lower/upper quartiles of the same.
    pub quartiles: (f64, f64),
    /// Repeats in which every trial failed (no selection at all).
    pub failures: usize,
}

/// Run `tuner` at each noise level and score the configuration it selects
/// by its *noise-free* runtime.
///
/// `runs_per_config` is the protocol's repetition count (the paper-style
/// defence against noise); budget counts evaluations, not individual runs.
///
/// # Panics
///
/// Panics if `repeats` is zero, or if
/// [`EvaluatorBuilder::build`](bat_core::EvaluatorBuilder::build) rejects a
/// protocol: `runs_per_config` is zero or a sigma is negative or not finite.
pub fn noise_sensitivity(
    problem: &dyn TuningProblem,
    tuner: &dyn Tuner,
    sigmas: &[f64],
    runs_per_config: u32,
    budget: u64,
    repeats: u64,
    base_seed: u64,
) -> Vec<NoisePoint> {
    assert!(repeats > 0, "need at least one repeat");
    sigmas
        .iter()
        .map(|&sigma| {
            let selected: Vec<Option<f64>> = (0..repeats)
                .into_par_iter()
                .map(|rep| {
                    let protocol = Protocol {
                        runs: runs_per_config,
                        sigma,
                        seed: base_seed ^ (rep << 17),
                        ..Protocol::default()
                    };
                    let eval = Evaluator::builder(problem)
                        .protocol(protocol)
                        .budget(budget)
                        .build()
                        .expect("a valid measurement protocol");
                    let run = tuner.tune(&eval, base_seed.wrapping_add(rep));
                    run.best().map(|b| {
                        problem
                            .evaluate_pure(&b.config)
                            .expect("best() only returns configs that measured successfully")
                    })
                })
                .collect();
            let mut ok: Vec<f64> = selected.iter().flatten().copied().collect();
            let failures = selected.len() - ok.len();
            ok.sort_by(|a, b| a.total_cmp(b));
            let (median_selected_ms, quartiles) = if ok.is_empty() {
                (f64::NAN, (f64::NAN, f64::NAN))
            } else {
                (ok[ok.len() / 2], (ok[ok.len() / 4], ok[(3 * ok.len()) / 4]))
            };
            NoisePoint {
                sigma,
                median_selected_ms,
                quartiles,
                failures,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_core::SyntheticProblem;
    use bat_space::{ConfigSpace, Param};
    use bat_tuners::RandomSearch;

    fn problem(
    ) -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, bat_core::EvalFailure> + Send + Sync> {
        // Narrow margins: 1% separation between the best configs, so noise
        // above ~1% corrupts selection.
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 99))
            .build()
            .unwrap();
        SyntheticProblem::new("margins", "sim", space, |v| {
            Ok(10.0 * (1.0 + v[0] as f64 * 0.01))
        })
    }

    #[test]
    fn noiseless_selection_is_exact() {
        let p = problem();
        let pts = noise_sensitivity(&p, &RandomSearch, &[0.0], 1, 200, 9, 0);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].failures, 0);
        // Budget 200 on 100 configs: random search sees everything.
        assert!((pts[0].median_selected_ms - 10.0).abs() < 1e-9);
        assert_eq!(pts[0].quartiles.0, pts[0].median_selected_ms);
    }

    #[test]
    fn heavy_noise_degrades_selection() {
        let p = problem();
        let pts = noise_sensitivity(&p, &RandomSearch, &[0.0, 0.30], 1, 200, 15, 3);
        let clean = pts[0].median_selected_ms;
        let noisy = pts[1].median_selected_ms;
        assert!(
            noisy > clean,
            "30% noise should corrupt selection: clean {clean} noisy {noisy}"
        );
    }

    #[test]
    fn repeated_runs_defend_against_noise() {
        let p = problem();
        let sigma = 0.20;
        let one = noise_sensitivity(&p, &RandomSearch, &[sigma], 1, 150, 15, 7);
        let five = noise_sensitivity(&p, &RandomSearch, &[sigma], 9, 150, 15, 7);
        assert!(
            five[0].median_selected_ms <= one[0].median_selected_ms,
            "9-run medians should select no worse than single runs: {} vs {}",
            five[0].median_selected_ms,
            one[0].median_selected_ms
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let p = problem();
        let a = noise_sensitivity(&p, &RandomSearch, &[0.05], 3, 60, 5, 11);
        let b = noise_sensitivity(&p, &RandomSearch, &[0.05], 3, 60, 5, 11);
        assert_eq!(a[0].median_selected_ms, b[0].median_selected_ms);
        assert_eq!(a[0].quartiles, b[0].quartiles);
    }

    #[test]
    fn quartiles_bracket_median() {
        let p = problem();
        let pts = noise_sensitivity(&p, &RandomSearch, &[0.1], 1, 40, 11, 5);
        let pt = &pts[0];
        assert!(pt.quartiles.0 <= pt.median_selected_ms);
        assert!(pt.median_selected_ms <= pt.quartiles.1);
    }
}
