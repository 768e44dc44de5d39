//! Gaussian-process regression for Bayesian-optimization tuners.
//!
//! The paper's ecosystem uses GP-based Bayesian optimization for GPU
//! autotuning (Willemsen et al., reference \[22\]); this module provides the
//! model side: an exact GP with RBF or Matérn-5/2 kernel, trained by
//! maximizing the log-marginal likelihood over a deterministic
//! hyperparameter grid.
//!
//! Inputs are normalized per-dimension to the unit cube and targets are
//! standardized internally, so the same hyperparameter grid works across
//! benchmarks whose parameter magnitudes differ by orders of magnitude
//! (`VWM ∈ {1..8}` vs `loop_unroll_factor_channel ∈ {0..1536}`).

use crate::linalg::{sq_dist, Cholesky, SymMatrix};

/// Covariance function family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Squared-exponential: smooth, infinitely differentiable.
    Rbf,
    /// Matérn ν = 5/2: the default in autotuning BO (ref \[22\]) — rough
    /// enough for discrete landscapes, smooth enough for a usable gradient.
    Matern52,
}

impl KernelKind {
    /// Covariance of two normalized points at lengthscale `ell`
    /// (unit signal variance).
    pub fn eval(self, a: &[f64], b: &[f64], ell: f64) -> f64 {
        self.of_sq_dist(sq_dist(a, b), ell)
    }

    /// Covariance at squared distance `d2` and lengthscale `ell`: the one
    /// kernel formula behind [`eval`](Self::eval), the training kernel
    /// matrix and [`GaussianProcess::predict_pool`].
    #[inline]
    pub fn of_sq_dist(self, d2: f64, ell: f64) -> f64 {
        match self {
            KernelKind::Rbf => (-0.5 * d2 / (ell * ell)).exp(),
            KernelKind::Matern52 => {
                let r = d2.sqrt() / ell;
                let s = 5.0_f64.sqrt() * r;
                (1.0 + s + 5.0 * d2 / (3.0 * ell * ell)) * (-s).exp()
            }
        }
    }
}

/// GP fitting options.
#[derive(Debug, Clone)]
pub struct GpParams {
    /// Kernel family.
    pub kernel: KernelKind,
    /// Candidate lengthscales (on normalized inputs).
    pub lengthscales: Vec<f64>,
    /// Candidate noise variances (on standardized targets).
    pub noises: Vec<f64>,
}

impl Default for GpParams {
    fn default() -> Self {
        GpParams {
            kernel: KernelKind::Matern52,
            lengthscales: vec![0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.5],
            noises: vec![1e-6, 1e-4, 1e-3, 1e-2, 5e-2, 1e-1],
        }
    }
}

impl GpParams {
    /// Fix the hyperparameters instead of grid-searching.
    pub fn fixed(kernel: KernelKind, lengthscale: f64, noise: f64) -> Self {
        GpParams {
            kernel,
            lengthscales: vec![lengthscale],
            noises: vec![noise],
        }
    }
}

/// Prediction: posterior mean and (latent) variance in target units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpPrediction {
    /// Posterior mean.
    pub mean: f64,
    /// Posterior variance of the latent function (≥ 0).
    pub variance: f64,
}

impl GpPrediction {
    /// Posterior standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }
}

/// A fitted exact Gaussian process.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: KernelKind,
    lengthscale: f64,
    noise: f64,
    /// Normalized training inputs, row-major `n × d`.
    x: Vec<f64>,
    d: usize,
    /// Per-dimension (min, max) of the raw training inputs.
    ranges: Vec<(f64, f64)>,
    /// Target mean/std used for standardization.
    y_mean: f64,
    y_std: f64,
    /// `α = K⁻¹ y` on standardized targets.
    alpha: Vec<f64>,
    chol: Cholesky,
    lml: f64,
}

impl GaussianProcess {
    /// Fit a GP to `(rows, y)`, selecting the hyperparameter pair with the
    /// highest log-marginal likelihood from the grids in `params`.
    ///
    /// # Panics
    /// If `rows` is empty, ragged or zero-width.
    pub fn fit(rows: &[Vec<f64>], y: &[f64], params: &GpParams) -> Self {
        assert!(!rows.is_empty(), "GP needs at least one observation");
        assert_eq!(rows.len(), y.len(), "row/target count mismatch");
        let n = rows.len();
        let d = rows[0].len();
        assert!(d > 0, "GP needs at least one feature");

        // Input normalization to the unit cube.
        let ranges = input_ranges(rows, d);
        let x = normalized(rows, &ranges);

        // Grid search over (lengthscale, noise) maximizing the LML; the
        // pairwise distances serve every lengthscale.
        let (y_mean, y_std, ys) = standardize(y);
        let d2 = sq_dist_matrix(&x, n, d);
        let mut best: Option<(f64, f64, f64, Cholesky, Vec<f64>)> = None;
        for &ell in &params.lengthscales {
            let k = kernel_matrix(params.kernel, &d2, ell);
            for &noise in &params.noises {
                let mut kn = k.clone();
                kn.add_diagonal(noise + JITTER);
                let Ok(chol) = Cholesky::factor(&kn) else {
                    continue;
                };
                let (alpha, lml) = posterior(&chol, &ys);
                if best.as_ref().is_none_or(|b| lml > b.0) {
                    best = Some((lml, ell, noise, chol, alpha));
                }
            }
        }
        let (lml, lengthscale, noise, chol, alpha) =
            best.expect("at least one grid point must factor; jitter guarantees it");

        GaussianProcess {
            kernel: params.kernel,
            lengthscale,
            noise,
            x,
            d,
            ranges,
            y_mean,
            y_std,
            alpha,
            chol,
            lml,
        }
    }

    /// This GP's hyperparameters fitted to `(rows, y)`: bit for bit
    /// `fit(rows, y, &GpParams::fixed(kernel, lengthscale, noise))`.
    ///
    /// When the first rows are this GP's training inputs, bit for bit after
    /// normalization, and no per-dimension minimum or maximum moves, the
    /// kernel matrix only gains rows: the stored factor grows by them, in
    /// O(n²) per new row rather than O(n³). Otherwise this is that fixed
    /// fit.
    pub fn refit(&self, rows: &[Vec<f64>], y: &[f64]) -> Self {
        let (p, d) = (self.n_observations(), self.d);
        let fixed = || {
            Self::fit(
                rows,
                y,
                &GpParams::fixed(self.kernel, self.lengthscale, self.noise),
            )
        };
        if rows.len() < p || rows[0].len() != d || rows.len() != y.len() {
            return fixed();
        }
        let same_ranges = input_ranges(rows, d)
            .iter()
            .zip(&self.ranges)
            .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits());
        if !same_ranges {
            return fixed();
        }
        let x = normalized(rows, &self.ranges);
        if x[..p * d]
            .iter()
            .zip(&self.x)
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return fixed();
        }
        // The new rows of K + (noise + jitter) I, entry by entry as `fit`
        // builds them.
        let n = rows.len();
        let mut kn = SymMatrix::zeros(n);
        for i in p..n {
            let xi = &x[i * d..(i + 1) * d];
            for j in 0..=i {
                let k = self
                    .kernel
                    .of_sq_dist(sq_dist(xi, &x[j * d..(j + 1) * d]), self.lengthscale);
                kn.set(i, j, k);
            }
            kn.set(i, i, kn.get(i, i) + (self.noise + JITTER));
        }
        let Ok(chol) = Cholesky::factor_from(&self.chol, &kn) else {
            return fixed();
        };
        let (y_mean, y_std, ys) = standardize(y);
        let (alpha, lml) = posterior(&chol, &ys);
        GaussianProcess {
            x,
            ranges: self.ranges.clone(),
            y_mean,
            y_std,
            alpha,
            chol,
            lml,
            ..*self
        }
    }

    /// Number of training observations.
    pub fn n_observations(&self) -> usize {
        self.alpha.len()
    }

    /// Selected lengthscale (normalized-input units).
    pub fn lengthscale(&self) -> f64 {
        self.lengthscale
    }

    /// Selected noise variance (standardized-target units).
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Log-marginal likelihood of the selected hyperparameters.
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.lml
    }

    /// Posterior mean and latent variance at `row` (raw input units): a
    /// pool of one, in a tile of one.
    pub fn predict(&self, row: &[f64]) -> GpPrediction {
        assert_eq!(row.len(), self.d, "feature-count mismatch");
        self.predict_tiles::<1>(row)[0]
    }

    /// Posterior mean and latent variance at every row of `rows`, a
    /// row-major `m × d` block of raw inputs, in row order.
    ///
    /// Each candidate's sums run in the order of a one-candidate pass
    /// (`sq_dist`, `dot`, forward substitution), so a prediction does not
    /// depend on the rest of the pool, bit for bit.
    pub fn predict_pool(&self, rows: &[f64]) -> Vec<GpPrediction> {
        self.predict_tiles::<TILE>(rows)
    }

    /// [`GaussianProcess::predict_pool`] over tiles of `W` candidates.
    fn predict_tiles<const W: usize>(&self, rows: &[f64]) -> Vec<GpPrediction> {
        let (n, d) = (self.n_observations(), self.d);
        assert_eq!(rows.len() % d, 0, "feature-count mismatch");
        let m = rows.len() / d;
        // Normalized candidates, dimension-major and zero-padded to whole
        // tiles: `q[j * mp + c]`.
        let mp = m.next_multiple_of(W);
        let mut q = vec![0.0; d * mp];
        for (c, row) in rows.chunks_exact(d).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                q[j * mp + c] = normalize(v, self.ranges[j]);
            }
        }
        let mut out = Vec::with_capacity(m);
        // One tile of K* (n × W), solved in place into V = L⁻¹ K*.
        let mut kv = vec![0.0; n * W];
        for c0 in (0..m).step_by(W) {
            let mut mean = [0.0; W];
            for ((xi, ki), &a) in self
                .x
                .chunks_exact(d)
                .zip(kv.chunks_exact_mut(W))
                .zip(&self.alpha)
            {
                // Squared distances, summed dimension by dimension as in
                // `sq_dist`, then the kernel and the running K*ᵀα.
                let mut d2 = [0.0; W];
                for (&xij, qj) in xi.iter().zip(q.chunks_exact(mp)) {
                    for (s, &qc) in d2.iter_mut().zip(&qj[c0..c0 + W]) {
                        let diff = qc - xij;
                        *s += diff * diff;
                    }
                }
                for ((k, s), mean_s) in ki.iter_mut().zip(d2).zip(&mut mean) {
                    *k = self.kernel.of_sq_dist(s, self.lengthscale);
                    *mean_s += *k * a;
                }
            }
            self.chol.solve_lower_tile::<W>(&mut kv);
            // var = k** − vᵀv, with unit signal variance k**.
            let mut vv = [0.0; W];
            for vi in kv.chunks_exact(W) {
                for (s, &v) in vv.iter_mut().zip(vi) {
                    *s += v * v;
                }
            }
            for (&mean_s, &vv) in mean.iter().zip(&vv).take(m - c0) {
                let var_s = (1.0 - vv).max(0.0);
                out.push(GpPrediction {
                    mean: mean_s * self.y_std + self.y_mean,
                    variance: var_s * self.y_std * self.y_std,
                });
            }
        }
        out
    }
}

/// Candidates per forward-substitution tile in
/// [`GaussianProcess::predict_pool`].
const TILE: usize = 8;

/// Added to every noise variance so that the kernel matrix factors.
const JITTER: f64 = 1e-10;

/// Per-dimension (min, max) of `rows`, each `d` wide.
fn input_ranges(rows: &[Vec<f64>], d: usize) -> Vec<(f64, f64)> {
    let mut ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); d];
    for r in rows {
        assert_eq!(r.len(), d, "ragged rows");
        for (range, &v) in ranges.iter_mut().zip(r) {
            range.0 = range.0.min(v);
            range.1 = range.1.max(v);
        }
    }
    ranges
}

/// `rows` normalized to `ranges`, row-major.
fn normalized(rows: &[Vec<f64>], ranges: &[(f64, f64)]) -> Vec<f64> {
    rows.iter()
        .flat_map(|r| r.iter().zip(ranges).map(|(&v, &range)| normalize(v, range)))
        .collect()
}

/// Target mean and standard deviation, and the standardized targets.
fn standardize(y: &[f64]) -> (f64, f64, Vec<f64>) {
    let n = y.len() as f64;
    let y_mean = y.iter().sum::<f64>() / n;
    let var = y.iter().map(|v| (v - y_mean) * (v - y_mean)).sum::<f64>() / n;
    let y_std = if var > 1e-24 { var.sqrt() } else { 1.0 };
    let ys = y.iter().map(|v| (v - y_mean) / y_std).collect();
    (y_mean, y_std, ys)
}

/// `α = K⁻¹ ys` and the log-marginal likelihood, from the factor of `K`.
fn posterior(chol: &Cholesky, ys: &[f64]) -> (Vec<f64>, f64) {
    let alpha = chol.solve(ys);
    let fit: f64 = ys.iter().zip(&alpha).map(|(a, b)| a * b).sum();
    let lml = -0.5 * fit
        - 0.5 * chol.log_det()
        - 0.5 * ys.len() as f64 * (2.0 * std::f64::consts::PI).ln();
    (alpha, lml)
}

fn normalize(v: f64, (lo, hi): (f64, f64)) -> f64 {
    if hi > lo {
        (v - lo) / (hi - lo)
    } else {
        0.0
    }
}

/// Pairwise squared distances of the `n` rows of the row-major `x`.
fn sq_dist_matrix(x: &[f64], n: usize, d: usize) -> SymMatrix {
    let mut d2 = SymMatrix::zeros(n);
    for i in 0..n {
        for j in 0..=i {
            d2.set(
                i,
                j,
                sq_dist(&x[i * d..(i + 1) * d], &x[j * d..(j + 1) * d]),
            );
        }
    }
    d2
}

fn kernel_matrix(kernel: KernelKind, d2: &SymMatrix, ell: f64) -> SymMatrix {
    let n = d2.n();
    let mut k = SymMatrix::zeros(n);
    for i in 0..n {
        for j in 0..=i {
            k.set(i, j, kernel.of_sq_dist(d2.get(i, j), ell));
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::dot;

    fn sine_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / (n - 1) as f64 * 6.0])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0].sin() * 3.0 + 10.0).collect();
        (rows, y)
    }

    #[test]
    fn interpolates_training_points_with_low_noise() {
        for kernel in [KernelKind::Rbf, KernelKind::Matern52] {
            let (rows, y) = sine_data(25);
            let gp = GaussianProcess::fit(
                &rows,
                &y,
                &GpParams {
                    kernel,
                    ..GpParams::default()
                },
            );
            for (r, t) in rows.iter().zip(&y) {
                let p = gp.predict(r);
                assert!((p.mean - t).abs() < 0.15, "{kernel:?}: {} vs {t}", p.mean);
            }
        }
    }

    #[test]
    fn variance_smaller_at_data_than_in_gaps() {
        let rows = vec![vec![0.0], vec![1.0], vec![9.0], vec![10.0]];
        let y = vec![1.0, 2.0, 4.0, 3.0];
        let gp = GaussianProcess::fit(&rows, &y, &GpParams::default());
        let at_data = gp.predict(&[1.0]).variance;
        let in_gap = gp.predict(&[5.0]).variance;
        assert!(
            in_gap > at_data,
            "gap variance {in_gap} should exceed data variance {at_data}"
        );
    }

    #[test]
    fn reverts_to_prior_mean_far_from_data() {
        let rows = vec![vec![0.0], vec![0.5], vec![1.0]];
        let y = vec![5.0, 7.0, 6.0];
        // Fixed short lengthscale so "far" is reachable.
        let gp = GaussianProcess::fit(&rows, &y, &GpParams::fixed(KernelKind::Rbf, 0.1, 1e-6));
        let far = gp.predict(&[100.0]);
        let prior_mean = 6.0; // mean of y
        assert!((far.mean - prior_mean).abs() < 1e-6, "mean {}", far.mean);
        // Prior variance = Var(y).
        let prior_var = ((5.0_f64 - 6.0).powi(2) + 1.0 + 0.0) / 3.0;
        assert!((far.variance - prior_var).abs() < 1e-6);
    }

    #[test]
    fn grid_fit_beats_or_matches_any_fixed_grid_point() {
        let (rows, y) = sine_data(20);
        let params = GpParams::default();
        let fitted = GaussianProcess::fit(&rows, &y, &params);
        for &ell in &params.lengthscales {
            for &noise in &params.noises {
                let single =
                    GaussianProcess::fit(&rows, &y, &GpParams::fixed(params.kernel, ell, noise));
                assert!(
                    fitted.log_marginal_likelihood() >= single.log_marginal_likelihood() - 1e-9
                );
            }
        }
    }

    #[test]
    fn single_observation_predicts_itself() {
        let gp = GaussianProcess::fit(&[vec![3.0, 4.0]], &[42.0], &GpParams::default());
        let p = gp.predict(&[3.0, 4.0]);
        assert!((p.mean - 42.0).abs() < 1e-6);
        assert_eq!(gp.n_observations(), 1);
    }

    #[test]
    fn constant_targets_are_handled() {
        let rows = vec![vec![0.0], vec![1.0], vec![2.0]];
        let gp = GaussianProcess::fit(&rows, &[7.0, 7.0, 7.0], &GpParams::default());
        let p = gp.predict(&[0.5]);
        assert!((p.mean - 7.0).abs() < 1e-6);
    }

    #[test]
    fn multidimensional_regression_is_accurate() {
        // y = product surface on a 6×6 grid; leave-out points predicted well.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                rows.push(vec![i as f64, j as f64 * 10.0]); // different scales
                y.push((i as f64 - 2.5).powi(2) + (j as f64 - 2.5).powi(2));
            }
        }
        let gp = GaussianProcess::fit(&rows, &y, &GpParams::default());
        let p = gp.predict(&[2.0, 30.0]);
        let truth = (2.0_f64 - 2.5).powi(2) + (3.0_f64 - 2.5).powi(2);
        assert!((p.mean - truth).abs() < 0.5, "{} vs {truth}", p.mean);
    }

    #[test]
    fn pool_matches_the_one_candidate_formula_bit_for_bit() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..6 {
            for j in 0..5 {
                rows.push(vec![i as f64, j as f64 * 10.0]);
                y.push((i as f64 - 2.5).powi(2) + (j as f64 * 0.7).sin());
            }
        }
        // 21 candidates: two full tiles and a partial one, some off-range.
        let pool: Vec<f64> = (0..21)
            .flat_map(|c| [c as f64 * 0.37 - 1.0, (c * c % 60) as f64])
            .collect();
        for kernel in [KernelKind::Rbf, KernelKind::Matern52] {
            let params = GpParams {
                kernel,
                ..GpParams::default()
            };
            let gp = GaussianProcess::fit(&rows, &y, &params);
            let preds = gp.predict_pool(&pool);
            assert_eq!(preds.len(), 21);
            for (row, p) in pool.chunks_exact(2).zip(preds) {
                // Kernel row, dot with α, forward substitution, vᵀv.
                let q: Vec<f64> = row
                    .iter()
                    .zip(&gp.ranges)
                    .map(|(&v, &r)| normalize(v, r))
                    .collect();
                let kstar: Vec<f64> =
                    gp.x.chunks_exact(2)
                        .map(|xi| kernel.eval(&q, xi, gp.lengthscale))
                        .collect();
                let v = gp.chol.solve_lower(&kstar);
                let mean = dot(&kstar, &gp.alpha) * gp.y_std + gp.y_mean;
                let variance = (1.0 - dot(&v, &v)).max(0.0) * gp.y_std * gp.y_std;
                // A one-row prediction runs in a tile of one.
                let one = gp.predict(row);
                for p in [p, one] {
                    assert_eq!(p.mean.to_bits(), mean.to_bits(), "{kernel:?} {row:?}");
                    assert_eq!(
                        p.variance.to_bits(),
                        variance.to_bits(),
                        "{kernel:?} {row:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn matern_and_rbf_agree_at_zero_distance() {
        let a = [0.3, 0.7];
        assert!((KernelKind::Rbf.eval(&a, &a, 0.5) - 1.0).abs() < 1e-12);
        assert!((KernelKind::Matern52.eval(&a, &a, 0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kernels_decay_with_distance() {
        for kernel in [KernelKind::Rbf, KernelKind::Matern52] {
            let mut prev = 1.0;
            for i in 1..10 {
                let b = [i as f64 / 10.0];
                let v = kernel.eval(&[0.0], &b, 0.4);
                assert!(v < prev, "{kernel:?} not decaying at {i}");
                assert!(v > 0.0);
                prev = v;
            }
        }
    }
}
