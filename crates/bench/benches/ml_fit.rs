//! ML-substrate throughput: histogram-binned GBDT training against the
//! sort-based exact baseline, batch prediction, tree-ensemble pool scoring
//! as the surrogate tuners use it, the GP's refit and Cholesky factor, and
//! end-to-end landscape evaluation (the two halves of the suite's analysis
//! hot path).
//!
//! The exact-splitter baselines re-sort every feature at every node, so
//! they dominate this target's wall time; filter with `hist`/`exact` to
//! run one side only.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use bat_analysis::{sampled_valid, Landscape};
use bat_core::TuningProblem;
use bat_gpusim::GpuArch;
use bat_kernels::benchmark;
use bat_ml::linalg::{dot, Cholesky, SymMatrix};
use bat_ml::{
    Dataset, ForestParams, GaussianProcess, Gbdt, GbdtParams, GpParams, KernelKind, RandomForest,
    RegressionTree, TreeParams,
};

/// A landscape-shaped regression set: `n` rows over six discrete tuning
/// parameters (≤ 37 distinct values each) with interacting effects.
fn landscape_dataset(n: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            vec![
                f64::from((i * 7 % 13) as u32),
                f64::from((i * 5 % 7) as u32),
                f64::from((i * 3 % 4) as u32),
                f64::from((i * 11 % 32) as u32),
                f64::from((i * 17 % 37) as u32),
                f64::from((i * 23 % 6) as u32),
            ]
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| 3.0 * r[0] + r[1] * r[1] - 2.0 * r[0] * r[2] + 10.0 * r[3] / (1.0 + r[4]))
        .collect();
    Dataset::new(&rows, y, (0..6).map(|i| format!("p{i}")).collect())
}

/// GBDT fit throughput on the acceptance-criterion shape: 10 000 rows.
fn gbdt_fit(c: &mut Criterion) {
    let data = landscape_dataset(10_000);
    let params = GbdtParams {
        n_trees: 50,
        ..GbdtParams::default()
    };
    let mut g = c.benchmark_group("gbdt_fit_10k");
    g.sample_size(10);
    g.throughput(Throughput::Elements(
        (data.n_rows() * params.n_trees) as u64,
    ));
    g.bench_function("hist", |b| b.iter(|| Gbdt::fit(black_box(&data), &params)));
    g.bench_function("exact", |b| {
        b.iter(|| Gbdt::fit_exact(black_box(&data), &params))
    });
    g.finish();
}

/// Single-tree fit throughput (the forest/SMAC inner loop).
fn tree_fit(c: &mut Criterion) {
    let data = landscape_dataset(10_000);
    let rows: Vec<usize> = (0..data.n_rows()).collect();
    let params = TreeParams {
        max_depth: 10,
        min_samples_leaf: 2,
    };
    let mut g = c.benchmark_group("tree_fit_10k");
    g.throughput(Throughput::Elements(data.n_rows() as u64));
    g.bench_function("hist", |b| {
        b.iter(|| RegressionTree::fit(black_box(&data), data.targets(), &rows, &params))
    });
    g.bench_function("exact", |b| {
        b.iter(|| RegressionTree::fit_exact(black_box(&data), data.targets(), &rows, &params))
    });
    g.finish();
}

/// Batch prediction throughput of a fitted ensemble.
fn predict_batch(c: &mut Criterion) {
    let data = landscape_dataset(10_000);
    let model = Gbdt::fit(
        &data,
        &GbdtParams {
            n_trees: 50,
            ..GbdtParams::default()
        },
    );
    let mut g = c.benchmark_group("gbdt_predict_10k");
    g.throughput(Throughput::Elements(data.n_rows() as u64));
    g.bench_function("batch", |b| {
        b.iter(|| black_box(model.predict_dataset(&data).len()))
    });
    g.finish();
}

/// The surrogate tuners' pool step on gemm: `gbdt-surrogate`'s 60-tree GBDT
/// and `smac-forest`'s 30-tree forest, fitted on 120 valid configurations
/// (log runtime), each scoring 300 other valid configurations by walking
/// every tree and by the compiled pool scorer. The fit cases include the
/// scorer's build.
fn tree_pool(c: &mut Criterion) {
    let gemm = benchmark("gemm", GpuArch::rtx_3090()).unwrap();
    let space = gemm.space();
    let d = space.num_params();
    let mut cfg = vec![0i64; d];
    let (mut train, mut train_y, mut pool) = (Vec::new(), Vec::new(), Vec::new());
    let samples = sampled_valid(&gemm, 420, 5, 40_000_000).expect("gemm sampling succeeds");
    for (i, s) in samples.samples.iter().enumerate() {
        space.decode_into(s.index, &mut cfg);
        let row = cfg.iter().map(|&v| v as f64);
        // Two of every seven samples train: 120 of 420.
        if i % 7 < 2 {
            train.push(row.collect::<Vec<f64>>());
            train_y.push(s.time_ms.expect("valid configurations run").ln());
        } else {
            pool.extend(row);
        }
    }
    let data = Dataset::new(&train, train_y, space.names().to_vec());
    let gbdt_params = GbdtParams {
        n_trees: 60,
        learning_rate: 0.15,
        tree: TreeParams {
            max_depth: 5,
            min_samples_leaf: 2,
        },
        subsample: 0.9,
        seed: 11,
    };
    let forest_params = ForestParams {
        n_trees: 30,
        seed: 11,
        ..ForestParams::default()
    };
    let gbdt = Gbdt::fit(&data, &gbdt_params);
    let forest = RandomForest::fit(&data, &forest_params);
    let walk = |trees: &[RegressionTree]| -> f64 {
        pool.chunks_exact(d)
            .map(|row| trees.iter().map(|t| t.predict(row)).sum::<f64>())
            .sum()
    };
    let mut g = c.benchmark_group("tree_pool");
    g.throughput(Throughput::Elements((pool.len() / d) as u64));
    g.bench_function("gbdt/walk", |b| b.iter(|| black_box(walk(gbdt.trees()))));
    g.bench_function("gbdt/pool", |b| {
        b.iter(|| black_box(gbdt.predict_pool(black_box(&pool)).len()))
    });
    g.bench_function("gbdt/fit", |b| {
        b.iter(|| Gbdt::fit(black_box(&data), &gbdt_params))
    });
    g.bench_function("forest/walk", |b| {
        b.iter(|| black_box(walk(forest.trees())))
    });
    g.bench_function("forest/pool", |b| {
        b.iter(|| black_box(forest.predict_pool(black_box(&pool)).len()))
    });
    g.bench_function("forest/fit", |b| {
        b.iter(|| RandomForest::fit(black_box(&data), &forest_params))
    });
    g.finish();
}

/// `n` GP training rows shaped like gp-bo-ei's: six ordinal positions.
/// From 37 rows on, every position of every parameter occurs.
fn gp_rows(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            [13, 7, 4, 32, 37, 6]
                .iter()
                .zip([7, 5, 3, 11, 17, 23])
                .map(|(&m, k)| f64::from((i * k % m) as u32))
                .collect()
        })
        .collect();
    let y = rows
        .iter()
        .map(|r| (1.0 + r[0] * r[1] + r[3] / (1.0 + r[4])).ln())
        .collect();
    (rows, y)
}

/// The row-oriented Cholesky–Banachiewicz loop that the blocked factor
/// replaced: one serially dependent `dot` per entry.
fn row_oriented_factor(a: &SymMatrix) -> Vec<f64> {
    let n = a.n();
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let s = dot(&l[i * n..i * n + j], &l[j * n..j * n + j]);
            l[i * n + j] = if i == j {
                (a.get(i, i) - s).sqrt()
            } else {
                (a.get(i, j) - s) / l[j * n + j]
            };
        }
    }
    l
}

/// gp-bo-ei's model step between grid fits: the fixed-hyperparameter
/// `fit` of `n + 1` observations against `refit`, which grows the factor
/// of the first `n` by the appended row; and the Cholesky factor of a
/// GP kernel matrix, row-oriented against blocked.
fn gp_refit(c: &mut Criterion) {
    let mut g = c.benchmark_group("gp_refit");
    let params = GpParams::fixed(KernelKind::Matern52, 0.35, 1e-3);
    for n in [60, 120] {
        let (rows, y) = gp_rows(n + 1);
        let gp = GaussianProcess::fit(&rows[..n], &y[..n], &params);
        g.bench_function(format!("fit/{n}+1"), |b| {
            b.iter(|| GaussianProcess::fit(black_box(&rows), &y, &params))
        });
        g.bench_function(format!("refit/{n}+1"), |b| {
            b.iter(|| gp.refit(black_box(&rows), &y))
        });
    }
    for n in [70, 150] {
        let (rows, _) = gp_rows(n);
        let mut a = SymMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                a.set(i, j, KernelKind::Matern52.eval(&rows[i], &rows[j], 8.0));
            }
        }
        a.add_diagonal(1e-3);
        g.bench_function(format!("factor_rows/{n}"), |b| {
            b.iter(|| black_box(row_oriented_factor(black_box(&a))))
        });
        g.bench_function(format!("factor_blocked/{n}"), |b| {
            b.iter(|| black_box(Cholesky::factor(black_box(&a)).is_ok()))
        });
    }
    g.finish();
}

/// Landscape evaluation throughput: the chunked streaming evaluator over
/// real kernel models (exhaustive on the small spaces, the 10 000-sample
/// valid protocol on Hotspot).
fn landscape_eval(c: &mut Criterion) {
    let arch = GpuArch::rtx_3090();
    let mut g = c.benchmark_group("landscape_eval");
    g.sample_size(10);
    for name in ["pnpoly", "nbody", "gemm"] {
        let problem = benchmark(name, arch.clone()).unwrap();
        g.throughput(Throughput::Elements(problem.space().cardinality()));
        g.bench_function(format!("{name}/exhaustive"), |b| {
            b.iter(|| black_box(Landscape::exhaustive(&problem).samples.len()))
        });
    }
    let hotspot = benchmark("hotspot", arch).unwrap();
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("hotspot/sampled_valid_10k", |b| {
        b.iter(|| {
            black_box(
                sampled_valid(&hotspot, 10_000, 1, 40_000_000)
                    .expect("hotspot sampling succeeds")
                    .samples
                    .len(),
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    gbdt_fit,
    tree_fit,
    predict_batch,
    tree_pool,
    gp_refit,
    landscape_eval
);
criterion_main!(benches);
