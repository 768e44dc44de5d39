//! Property-based tests for the ML substrate behind the model-based
//! tuners: dense Cholesky, Gaussian-process posteriors and refits, random
//! forests, compiled tree-ensemble scoring and acquisition functions.

use bat::ml::linalg::{dot, sq_dist, Cholesky, NotPositiveDefinite, SymMatrix};
use bat::ml::stats::{norm_cdf, norm_pdf};
use bat::ml::{
    Dataset, ForestParams, GaussianProcess, Gbdt, GbdtParams, GpParams, KernelKind, RandomForest,
    RegressionTree, TreeParams,
};
use bat::tuners::Acquisition;
use proptest::prelude::*;

/// Random SPD matrix via A = B Bᵀ + (n + jitter)·I.
fn arb_spd(max_n: usize) -> impl Strategy<Value = SymMatrix> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |b| {
            let mut a = SymMatrix::zeros(n);
            for i in 0..n {
                for j in 0..=i {
                    let v = dot(&b[i * n..(i + 1) * n], &b[j * n..(j + 1) * n]);
                    a.set(i, j, v);
                }
            }
            a.add_diagonal(n as f64 + 0.5);
            a
        })
    })
}

/// Uniform draw in [0, 1) from a xorshift state.
fn unit(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// A `d`-feature row: small-integer (ordinal-like) features in even
/// dimensions, so duplicates and constant columns occur, continuous ones in
/// odd dimensions. `spread` widens the integer range past the training one.
fn gp_row(state: &mut u64, d: usize, spread: f64) -> Vec<f64> {
    (0..d)
        .map(|j| {
            if j % 2 == 0 {
                (unit(state) * (4.0 + 2.0 * spread)).floor() - spread
            } else {
                unit(state) * 10.0 - 5.0
            }
        })
        .collect()
}

/// `n` training rows of `d` small-integer features for the tree
/// ensembles. Even features skip 0, so -1 and 1 put a threshold at 0.0;
/// thresholds are midpoints, so all of them are multiples of 0.5.
fn tree_data(state: &mut u64, n: usize, d: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..d)
                .map(|j| {
                    let k = (unit(state) * 8.0).floor();
                    match (j % 2, k < 4.0) {
                        (0, true) => k - 4.0,
                        (0, false) => k - 3.0,
                        _ => k,
                    }
                })
                .collect()
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| {
            let s: f64 = r.iter().zip(1..).map(|(v, j)| v * f64::from(j)).sum();
            s.sin() * 3.0 + unit(state)
        })
        .collect();
    let names = (0..d).map(|j| format!("x{j}")).collect();
    Dataset::new(&rows, y, names)
}

/// A query row for the tree ensembles: multiples of 0.5 (training values
/// and thresholds), off-grid values, and now and then ±0.0, ±inf or NaN.
fn tree_query(state: &mut u64, d: usize) -> Vec<f64> {
    const ODD: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    (0..d)
        .map(|_| match (unit(state) * 10.0) as u32 {
            0 => ODD[(unit(state) * 5.0) as usize],
            1..=4 => (unit(state) * 26.0).floor() * 0.5 - 5.0,
            _ => unit(state) * 12.0 - 6.0,
        })
        .collect()
}

/// Pools of 0, 1, 7, 8, 9, 17 and `extra` query rows, flattened.
fn tree_pools(state: &mut u64, d: usize, extra: usize) -> Vec<Vec<f64>> {
    [0, 1, 7, 8, 9, 17, extra]
        .into_iter()
        .map(|m| (0..m).flat_map(|_| tree_query(state, d)).collect())
        .collect()
}

/// True when some tree has more than 64 leaves (a multi-word mask).
fn has_wide_tree(trees: &[RegressionTree]) -> bool {
    trees.iter().any(|t| t.len().div_ceil(2) > 64)
}

/// The row-oriented Cholesky–Banachiewicz loop, one [`dot`] per entry:
/// the reference that `Cholesky::factor` and `factor_from` match bit for
/// bit. Row `i` of the result holds `L[i][0..=i]`.
fn reference_factor(a: &SymMatrix) -> Result<Vec<Vec<f64>>, NotPositiveDefinite> {
    let n = a.n();
    let mut l: Vec<Vec<f64>> = (0..n).map(|i| vec![0.0; i + 1]).collect();
    for i in 0..n {
        for j in 0..=i {
            let s = dot(&l[i][..j], &l[j][..j]);
            if i == j {
                let d = a.get(i, i) - s;
                if d <= 0.0 || !d.is_finite() {
                    return Err(NotPositiveDefinite { pivot: i, value: d });
                }
                l[i][i] = d.sqrt();
            } else {
                l[i][j] = (a.get(i, j) - s) / l[j][j];
            }
        }
    }
    Ok(l)
}

/// Assert that `got` is `want` bit for bit: every entry of the factor, or
/// the failing pivot and its value.
fn assert_factor_bits(
    got: &Result<Cholesky, NotPositiveDefinite>,
    want: &Result<Vec<Vec<f64>>, NotPositiveDefinite>,
    what: &str,
) {
    match (got, want) {
        (Ok(ch), Ok(l)) => {
            assert_eq!(ch.n(), l.len(), "{what}");
            for (i, row) in l.iter().enumerate() {
                for (j, v) in row.iter().enumerate() {
                    assert_eq!(ch.l(i, j).to_bits(), v.to_bits(), "{what} L[{i}][{j}]");
                }
            }
        }
        (Err(e), Err(w)) => {
            assert_eq!(e.pivot, w.pivot, "{what}");
            assert_eq!(e.value.to_bits(), w.value.to_bits(), "{what}");
        }
        _ => panic!("{what}: got {got:?}, want {want:?}"),
    }
}

/// A GP-like kernel matrix of order `n`: Matérn-5/2 over random points
/// (duplicates included) plus a small noise variance on the diagonal.
fn kernel_spd(n: usize, state: &mut u64) -> SymMatrix {
    let points: Vec<Vec<f64>> = (0..n).map(|_| gp_row(state, 3, 0.0)).collect();
    let mut a = SymMatrix::zeros(n);
    for i in 0..n {
        for j in 0..=i {
            a.set(i, j, KernelKind::Matern52.eval(&points[i], &points[j], 2.0));
        }
    }
    a.add_diagonal(1e-3);
    a
}

/// `factor` and `factor_from` equal the row-oriented loop bit for bit at
/// orders 1…160 (every order up to 48, then every residue mod the lockstep
/// width near 64, 100 and 160) and prefix sizes 0, 1, n/2, n−1 and n, on
/// positive-definite matrices and on ones that break down at a negative
/// pivot or on a NaN entry.
#[test]
fn cholesky_factor_from_matches_row_oriented_reference() {
    let mut state = 0x5eed_c401;
    let orders = (1..=48usize).chain([61, 62, 63, 64, 97, 98, 99, 100, 157, 158, 159, 160]);
    for n in orders {
        for kind in ["spd", "negative pivot", "nan entry"] {
            let mut a = kernel_spd(n, &mut state);
            let q = (unit(&mut state) * n as f64) as usize;
            match kind {
                "negative pivot" => a.set(q, q, -1.0),
                "nan entry" => a.set(q, (unit(&mut state) * (q + 1) as f64) as usize, f64::NAN),
                _ => {}
            }
            let want = reference_factor(&a);
            assert_factor_bits(&Cholesky::factor(&a), &want, &format!("n={n} {kind}"));
            for p in [0, 1.min(n), n / 2, n - 1, n] {
                let what = format!("n={n} {kind} prefix={p}");
                let mut lead = SymMatrix::zeros(p);
                for i in 0..p {
                    for j in 0..=i {
                        lead.set(i, j, a.get(i, j));
                    }
                }
                match Cholesky::factor(&lead) {
                    Ok(prefix) => {
                        // The leading block is the prefix's: never read.
                        let mut rest = a.clone();
                        for i in 0..p {
                            for j in 0..=i {
                                rest.set(i, j, f64::NAN);
                            }
                        }
                        assert_factor_bits(&Cholesky::factor_from(&prefix, &rest), &want, &what);
                    }
                    // Breaking down inside the prefix is the same error.
                    failed => {
                        let Err(w) = &want else {
                            panic!("{what}: the leading block failed alone")
                        };
                        assert!(w.pivot < p, "{what}");
                        assert_factor_bits(&failed, &want, &what);
                    }
                }
            }
        }
    }
}

/// Every bit a fitted GP shows: hyperparameters, log-marginal
/// likelihood, size, and each prediction over `pool`.
fn gp_bits(gp: &GaussianProcess, pool: &[f64]) -> Vec<u64> {
    let mut bits = vec![
        gp.lengthscale().to_bits(),
        gp.noise().to_bits(),
        gp.log_marginal_likelihood().to_bits(),
        gp.n_observations() as u64,
    ];
    for p in gp.predict_pool(pool) {
        bits.extend([p.mean.to_bits(), p.variance.to_bits()]);
    }
    bits
}

proptest! {
    /// `L Lᵀ` reconstructs the input to numerical precision.
    #[test]
    fn cholesky_reconstruction(a in arb_spd(12)) {
        let ch = Cholesky::factor(&a).expect("SPD by construction");
        let n = a.n();
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..=j {
                    s += ch.l(i, k) * ch.l(j, k);
                }
                prop_assert!((s - a.get(i, j)).abs() < 1e-8 * (1.0 + a.get(i, j).abs()));
            }
        }
    }

    /// Solving then multiplying is the identity.
    #[test]
    fn cholesky_solve_roundtrip(a in arb_spd(10), seed in 0u64..1000) {
        let n = a.n();
        let x_true: Vec<f64> = (0..n)
            .map(|i| ((seed.wrapping_add(i as u64) % 17) as f64 - 8.0) / 4.0)
            .collect();
        let b = a.matvec(&x_true);
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&b);
        for (got, want) in x.iter().zip(&x_true) {
            prop_assert!((got - want).abs() < 1e-7, "{got} vs {want}");
        }
    }

    /// log det from the factor is finite and consistent with the
    /// diagonal-dominance bounds of the construction.
    #[test]
    fn cholesky_log_det_finite(a in arb_spd(10)) {
        let ch = Cholesky::factor(&a).unwrap();
        prop_assert!(ch.log_det().is_finite());
        // A ⪰ 0.5·I by construction, so log det ≥ n·log(0.5).
        prop_assert!(ch.log_det() >= a.n() as f64 * 0.5f64.ln() - 1e-9);
    }

    /// GP posterior mean at a training point approaches the target as the
    /// noise floor shrinks; posterior variance is non-negative everywhere.
    #[test]
    fn gp_posterior_sanity(
        ys in proptest::collection::vec(-5.0f64..5.0, 2..12),
        query in -2.0f64..12.0,
    ) {
        let rows: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
        let gp = GaussianProcess::fit(
            &rows,
            &ys,
            &GpParams::fixed(KernelKind::Matern52, 0.3, 1e-8),
        );
        for (r, t) in rows.iter().zip(&ys) {
            let p = gp.predict(r);
            prop_assert!((p.mean - t).abs() < 0.05 + 0.02 * t.abs(), "{} vs {t}", p.mean);
            prop_assert!(p.variance >= 0.0);
        }
        prop_assert!(gp.predict(&[query]).variance >= 0.0);
    }

    /// The grid fit never selects hyperparameters with a lower LML than a
    /// fixed fit at any grid point (it *is* the arg-max over the grid).
    #[test]
    fn gp_grid_fit_is_argmax(seed in 0u64..50) {
        let rows: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..15)
            .map(|i| ((i as u64 * 2654435761u64.wrapping_add(seed)) % 97) as f64 / 10.0)
            .collect();
        let params = GpParams::default();
        let fitted = GaussianProcess::fit(&rows, &ys, &params);
        let single = GaussianProcess::fit(
            &rows,
            &ys,
            &GpParams::fixed(params.kernel, params.lengthscales[0], params.noises[0]),
        );
        prop_assert!(
            fitted.log_marginal_likelihood() >= single.log_marginal_likelihood() - 1e-9
        );
    }

    /// Scoring a pool gives every candidate the bits of predicting its row
    /// alone: both kernels, grid and fixed hyperparameters, and pool sizes
    /// on either side of the candidate tile width (8).
    #[test]
    fn gp_pool_predictions_match_single_rows_bit_for_bit(
        n in 1usize..=60,
        d in 1usize..=6,
        seed in 1u64..1_000_000,
        matern in 0u8..2,
        grid in 0u8..2,
    ) {
        let kernel = if matern == 1 { KernelKind::Matern52 } else { KernelKind::Rbf };
        let params = if grid == 1 {
            GpParams { kernel, ..GpParams::default() }
        } else {
            GpParams::fixed(kernel, 0.35, 1e-3)
        };
        let mut state = seed;
        let rows: Vec<Vec<f64>> = (0..n).map(|_| gp_row(&mut state, d, 0.0)).collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| r.iter().sum::<f64>().sin() + 0.1 * unit(&mut state))
            .collect();
        let gp = GaussianProcess::fit(&rows, &ys, &params);
        for m in [0, 1, 7, 8, 9, 16, 17, 1 + (seed % 40) as usize] {
            // Training rows first (predictions at the data), then fresh ones.
            let pool: Vec<f64> = rows
                .iter()
                .cloned()
                .chain(std::iter::repeat_with(|| gp_row(&mut state, d, 1.0)))
                .take(m)
                .flatten()
                .collect();
            let preds = gp.predict_pool(&pool);
            prop_assert_eq!(preds.len(), m);
            for (row, p) in pool.chunks_exact(d).zip(&preds) {
                let one = gp.predict(row);
                prop_assert_eq!(p.mean.to_bits(), one.mean.to_bits(), "m={} row={:?}", m, row);
                prop_assert_eq!(p.variance.to_bits(), one.variance.to_bits(), "m={} row={:?}", m, row);
            }
        }
        // The d² kernel function is the pairwise one, bit for bit.
        for ell in GpParams::default().lengthscales {
            let (a, b) = (gp_row(&mut state, d, 1.0), gp_row(&mut state, d, 1.0));
            for (x, y) in [(&a, &b), (&a, &a)] {
                prop_assert_eq!(
                    kernel.of_sq_dist(sq_dist(x, y), ell).to_bits(),
                    kernel.eval(x, y, ell).to_bits()
                );
            }
        }
    }

    /// `refit` is the fixed-hyperparameter `fit` of the same rows bit for
    /// bit: rows unchanged (old and new targets), appended inside every
    /// range (the factor grows) once or twice, appended past a range, or
    /// not a prefix of the fitted rows.
    #[test]
    fn gp_refit_matches_fixed_fit_bit_for_bit(
        n in 1usize..=60,
        d in 1usize..=6,
        k in 1usize..=9,
        seed in 1u64..1_000_000,
        matern in 0u8..2,
        grid in 0u8..2,
    ) {
        let kernel = if matern == 1 { KernelKind::Matern52 } else { KernelKind::Rbf };
        let params = if grid == 1 {
            GpParams { kernel, ..GpParams::default() }
        } else {
            GpParams::fixed(kernel, 0.35, 1e-3)
        };
        let mut state = seed;
        let rows: Vec<Vec<f64>> = (0..n).map(|_| gp_row(&mut state, d, 0.0)).collect();
        let mut targets = |rows: &[Vec<f64>]| -> Vec<f64> {
            rows.iter()
                .map(|r| r.iter().sum::<f64>().sin() + 0.1 * unit(&mut state))
                .collect()
        };
        let ys = targets(&rows);
        let gp = GaussianProcess::fit(&rows, &ys, &params);
        let fixed = GpParams::fixed(kernel, gp.lengthscale(), gp.noise());

        // `k` rows inside every range: each coordinate from some row.
        let mut state = seed ^ 0x9e37_79b9;
        let mut grown = rows.clone();
        for _ in 0..k {
            let row = (0..d)
                .map(|j| rows[(unit(&mut state) * n as f64) as usize][j])
                .collect();
            grown.push(row);
        }
        let j = (seed % d as u64) as usize;
        let hi = grown.iter().map(|r| r[j]).fold(f64::NEG_INFINITY, f64::max);
        let mut moved = grown.clone();
        moved[n + k - 1][j] = hi + 1.0;
        let mut shuffled = grown.clone();
        shuffled.swap((seed % n as u64) as usize, n + k - 1);
        let pool: Vec<f64> = grown
            .iter()
            .cloned()
            .chain(std::iter::repeat_with(|| gp_row(&mut state, d, 1.0)))
            .take(n + k + 9)
            .flatten()
            .collect();

        let mut state = seed ^ 0x7f4a_7c15;
        let mut targets = |rows: &[Vec<f64>]| -> Vec<f64> {
            rows.iter()
                .map(|r| r.iter().sum::<f64>().cos() + 0.1 * unit(&mut state))
                .collect()
        };
        let cases = [
            ("unchanged", rows.clone(), ys.clone()),
            ("unchanged rows, new targets", rows.clone(), targets(&rows)),
            ("appended in range", grown.clone(), targets(&grown)),
            ("appended past a range", moved.clone(), targets(&moved)),
            ("not a prefix", shuffled.clone(), targets(&shuffled)),
        ];
        for (case, rows, ys) in &cases {
            let want = GaussianProcess::fit(rows, ys, &fixed);
            prop_assert_eq!(gp_bits(&gp.refit(rows, ys), &pool), gp_bits(&want, &pool), "{}", case);
        }
        // Two appends in a row, as a tuner's steps make them.
        let (rows, ys) = (&cases[2].1, &cases[2].2);
        let half = n + k / 2;
        let twice = gp.refit(&rows[..half], &ys[..half]).refit(rows, ys);
        prop_assert_eq!(gp_bits(&twice, &pool), gp_bits(&GaussianProcess::fit(rows, ys, &fixed), &pool));
    }

    /// Forest predictions are convex combinations of tree predictions:
    /// mean within [min, max] of training targets for in-range queries,
    /// variance non-negative, determinism per seed.
    #[test]
    fn forest_prediction_bounds(
        ys in proptest::collection::vec(0.1f64..100.0, 6..40),
        seed in 0u64..100,
    ) {
        let rows: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
        let names = vec!["x".to_string()];
        let data = Dataset::new(&rows, ys.clone(), names);
        let params = ForestParams { seed, n_trees: 12, ..ForestParams::default() };
        let forest = RandomForest::fit(&data, &params);
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for r in &rows {
            let p = forest.predict(r);
            prop_assert!(p.mean >= lo - 1e-9 && p.mean <= hi + 1e-9);
            prop_assert!(p.variance >= 0.0);
        }
        let again = RandomForest::fit(&data, &params);
        for r in &rows {
            prop_assert_eq!(forest.predict(r), again.predict(r));
        }
    }

    /// A boosted pool prediction is `base + learning_rate × Σ walk` with
    /// the walks summed in stage order, bit for bit: depths 1–8, with and
    /// without row subsampling, on every kind of query value.
    #[test]
    fn gbdt_pool_predictions_match_summed_walks_bit_for_bit(
        depth in 1usize..=8,
        subsampled in 0u8..2,
        n in 200usize..=320,
        d in 1usize..=5,
        seed in 1u64..1_000_000,
    ) {
        let mut state = seed;
        let data = tree_data(&mut state, n, d);
        let params = GbdtParams {
            n_trees: 12,
            learning_rate: 0.3,
            tree: TreeParams { max_depth: depth, min_samples_leaf: 1 },
            subsample: if subsampled == 1 { 0.9 } else { 1.0 },
            seed,
        };
        let model = Gbdt::fit(&data, &params);
        let base = data.targets().iter().sum::<f64>() / n as f64;
        for pool in tree_pools(&mut state, d, (seed % 40) as usize) {
            let preds = model.predict_pool(&pool);
            prop_assert_eq!(preds.len(), pool.len() / d);
            for (row, p) in pool.chunks_exact(d).zip(&preds) {
                let walk = model.trees().iter().map(|t| t.predict(row)).sum::<f64>();
                let want = base + params.learning_rate * walk;
                prop_assert_eq!(p.to_bits(), want.to_bits(), "depth={} row={:?}", depth, row);
            }
        }
        if depth == 8 && d >= 3 {
            prop_assert!(has_wide_tree(model.trees()));
        }
    }

    /// A forest pool prediction equals the mean and variance of its trees'
    /// walks, summed in tree order from 0.0, bit for bit. Depth-10 trees
    /// with one-row leaves on ≥ 200 rows pass 64 leaves, so multi-word
    /// masks are covered.
    #[test]
    fn forest_pool_predictions_match_tree_walks_bit_for_bit(
        n in 200usize..=320,
        d in 3usize..=5,
        seed in 1u64..1_000_000,
    ) {
        let mut state = seed;
        let data = tree_data(&mut state, n, d);
        let params = ForestParams {
            n_trees: 10,
            tree: TreeParams { max_depth: 10, min_samples_leaf: 1 },
            seed,
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&data, &params);
        prop_assert!(has_wide_tree(forest.trees()));
        let m = forest.n_trees() as f64;
        for pool in tree_pools(&mut state, d, (seed % 40) as usize) {
            let preds = forest.predict_pool(&pool);
            prop_assert_eq!(preds.len(), pool.len() / d);
            for (row, p) in pool.chunks_exact(d).zip(&preds) {
                let (mut sum, mut sum_sq) = (0.0, 0.0);
                for t in forest.trees() {
                    let v = t.predict(row);
                    sum += v;
                    sum_sq += v * v;
                }
                let mean = sum / m;
                let variance = (sum_sq / m - mean * mean).max(0.0);
                prop_assert_eq!(p.mean.to_bits(), mean.to_bits(), "row={:?}", row);
                prop_assert_eq!(p.variance.to_bits(), variance.to_bits(), "row={:?}", row);
            }
        }
    }

    /// Acquisition invariants: EI ≥ 0 and EI ≥ plain improvement;
    /// PI ∈ [0, 1]; all three improve (weakly) as the mean decreases.
    #[test]
    fn acquisition_invariants(
        mean in -10.0f64..10.0,
        std in 0.0f64..5.0,
        best in -10.0f64..10.0,
    ) {
        let ei = Acquisition::ExpectedImprovement.score(mean, std, best);
        prop_assert!(ei >= -1e-12);
        prop_assert!(ei >= (best - mean).max(0.0) - 1e-9);
        let pi = Acquisition::ProbabilityOfImprovement.score(mean, std, best);
        prop_assert!((-1e-12..=1.0 + 1e-12).contains(&pi));

        let lower = mean - 1.0;
        for acq in [
            Acquisition::ExpectedImprovement,
            Acquisition::ProbabilityOfImprovement,
            Acquisition::LowerConfidenceBound { beta: 1.5 },
        ] {
            prop_assert!(
                acq.score(lower, std, best) >= acq.score(mean, std, best) - 1e-9,
                "{acq:?} must not prefer a worse mean"
            );
        }
    }

    /// Normal CDF/PDF consistency: CDF is the integral of the PDF.
    #[test]
    fn cdf_matches_integrated_pdf(x in -4.0f64..4.0) {
        // Trapezoid from -8 to x.
        let n = 2000;
        let h = (x + 8.0) / n as f64;
        let mut s = 0.0;
        for i in 0..=n {
            let t = -8.0 + i as f64 * h;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            s += w * norm_pdf(t);
        }
        prop_assert!((s * h - norm_cdf(x)).abs() < 1e-4);
    }
}
