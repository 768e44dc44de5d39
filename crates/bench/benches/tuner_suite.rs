//! Benchmarks of the model-based tuner family and the studies built on it:
//! surrogate-model costs (GP, random forest, Parzen densities), the
//! acquisition-function ablation, the tuner-comparison harness and the
//! dynamic-autotuning simulation.
//!
//! These are the suite-side costs an autotuning practitioner pays *next to*
//! kernel measurements; the paper's interface argument only holds if the
//! harness itself stays cheap relative to a kernel launch.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bat_analysis::{
    compare_tuners, noise_sensitivity, ComparisonSettings, OnlinePolicy, OnlineSimulation,
};
use bat_bench::{landscape, problem};
use bat_core::{Evaluator, Protocol, TuningProblem};
use bat_gpusim::GpuArch;
use bat_ml::{Dataset, ForestParams, GaussianProcess, GpParams, KernelKind, RandomForest};
use bat_tuners::{Acquisition, BayesianOptimization, RandomSearch, SmacTuner, Tpe, Tuner};

/// Landscape-derived regression rows for surrogate fitting.
fn training_rows(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let p = problem("convolution", GpuArch::rtx_3090());
    let space = p.space();
    let l = landscape("convolution", GpuArch::rtx_3090(), n);
    let mut rows = Vec::new();
    let mut ys = Vec::new();
    for s in l.samples.iter().filter(|s| s.time_ms.is_some()).take(n) {
        rows.push(space.config_at(s.index).iter().map(|&v| v as f64).collect());
        ys.push(s.time_ms.unwrap().ln());
    }
    (rows, ys)
}

/// Exact-GP fitting: the O(n³ × grid) cost that motivates the observation
/// cap in `BayesianOptimization`.
fn gp_fit(c: &mut Criterion) {
    let mut g = c.benchmark_group("tuner_gp_fit");
    g.sample_size(10);
    for n in [50usize, 100, 200] {
        let (rows, ys) = training_rows(n);
        g.bench_function(format!("grid_fit_n{n}"), |b| {
            b.iter(|| black_box(GaussianProcess::fit(&rows, &ys, &GpParams::default())))
        });
        let fixed = GpParams::fixed(KernelKind::Matern52, 0.35, 1e-3);
        g.bench_function(format!("fixed_fit_n{n}"), |b| {
            b.iter(|| black_box(GaussianProcess::fit(&rows, &ys, &fixed)))
        });
    }
    g.finish();
}

/// GP posterior prediction: one row, and the candidate pool of one
/// `gp-bo-ei` step (~290 candidates) scored in one pass.
fn gp_predict(c: &mut Criterion) {
    let (rows, ys) = training_rows(150);
    let gp = GaussianProcess::fit(&rows, &ys, &GpParams::default());
    let pool: Vec<f64> = rows.iter().cycle().take(290).flatten().copied().collect();
    let mut g = c.benchmark_group("tuner_gp_predict");
    g.bench_function("posterior_n150", |b| {
        b.iter(|| black_box(gp.predict(&rows[7])))
    });
    g.bench_function("pool_n150_m290", |b| {
        b.iter(|| black_box(gp.predict_pool(&pool)))
    });
    g.finish();
}

/// Random-forest fitting (SMAC's surrogate) on the same data as the GP,
/// for a like-for-like surrogate-cost comparison.
fn forest_fit(c: &mut Criterion) {
    let mut g = c.benchmark_group("tuner_forest_fit");
    g.sample_size(10);
    for n in [100usize, 400] {
        let (rows, ys) = training_rows(n);
        let names: Vec<String> = (0..rows[0].len()).map(|i| format!("f{i}")).collect();
        let data = Dataset::new(&rows, ys, names);
        g.bench_function(format!("fit_n{n}"), |b| {
            b.iter(|| black_box(RandomForest::fit(&data, &ForestParams::default())))
        });
    }
    g.finish();
}

/// Ablation: acquisition functions at equal budget on the convolution
/// benchmark (the design choice DESIGN.md §7 calls out for GP-BO).
fn ablation_acquisition(c: &mut Criterion) {
    let p = problem("convolution", GpuArch::rtx_3090());
    let mut g = c.benchmark_group("ablation_acquisition");
    g.sample_size(10);
    for (label, acq) in [
        ("ei", Acquisition::ExpectedImprovement),
        ("pi", Acquisition::ProbabilityOfImprovement),
        ("lcb2", Acquisition::LowerConfidenceBound { beta: 2.0 }),
    ] {
        let tuner = BayesianOptimization::with_acquisition(acq);
        g.bench_function(label, |b| {
            b.iter(|| {
                let eval = Evaluator::builder(&p).budget(60).build().unwrap();
                black_box(tuner.tune(&eval, 3))
            })
        });
    }
    g.finish();
}

/// Ablation: TPE with and without static restriction filtering on GEMM
/// (78% of GEMM's cartesian space is restricted — filtering is the
/// difference between converging and thrashing).
fn ablation_tpe_restrictions(c: &mut Criterion) {
    let p = problem("gemm", GpuArch::rtx_2080_ti());
    let mut g = c.benchmark_group("ablation_tpe_restrictions");
    g.sample_size(10);
    for (label, filter) in [("filtered", true), ("unfiltered", false)] {
        let tuner = Tpe {
            respect_restrictions: filter,
            ..Tpe::default()
        };
        g.bench_function(label, |b| {
            b.iter(|| {
                let eval = Evaluator::builder(&p).budget(80).build().unwrap();
                black_box(tuner.tune(&eval, 5))
            })
        });
    }
    g.finish();
}

/// The comparison harness itself: a 3-tuner × 3-repeat study on N-body.
fn comparison_harness(c: &mut Criterion) {
    let p = problem("nbody", GpuArch::rtx_3060());
    let tuners: Vec<Box<dyn Tuner>> = vec![
        Box::new(RandomSearch),
        Box::new(Tpe::default()),
        Box::new(SmacTuner::default()),
    ];
    let settings = ComparisonSettings {
        budget: 60,
        repeats: 3,
        ..ComparisonSettings::default()
    };
    let mut g = c.benchmark_group("tuner_comparison_harness");
    g.sample_size(10);
    g.bench_function("nbody_3x3", |b| {
        b.iter(|| black_box(compare_tuners(&p, &tuners, &settings, None)))
    });
    g.finish();
}

/// Ablation: the measurement protocol's noise defence — selection quality
/// under 0%/5%/20% run-to-run noise with 1 vs 5 runs per configuration.
fn ablation_measurement_noise(c: &mut Criterion) {
    let p = problem("expdist", GpuArch::rtx_3060());
    let mut g = c.benchmark_group("ablation_measurement_noise");
    g.sample_size(10);
    for (label, runs) in [("runs1", 1u32), ("runs5", 5u32)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                black_box(noise_sensitivity(
                    &p,
                    &RandomSearch,
                    &[0.0, 0.05, 0.20],
                    runs,
                    60,
                    5,
                    1,
                ))
            })
        });
    }
    g.finish();
}

/// Dynamic autotuning: the per-application-run cost of the online
/// simulation (exploration + exploitation bookkeeping).
fn online_simulation(c: &mut Criterion) {
    let p = problem("pnpoly", GpuArch::rtx_titan());
    let sim = OnlineSimulation {
        invocations: 2_000,
        policy: OnlinePolicy::TuneThenExploit { tuning_budget: 100 },
        protocol: Protocol::default(),
    };
    let mut g = c.benchmark_group("online_simulation");
    g.sample_size(10);
    g.bench_function("pnpoly_2000_invocations", |b| {
        b.iter(|| black_box(sim.run(&p, &RandomSearch, None, None, 1)))
    });
    g.finish();
}

criterion_group!(
    benches,
    gp_fit,
    gp_predict,
    forest_fit,
    ablation_acquisition,
    ablation_tpe_restrictions,
    ablation_measurement_noise,
    comparison_harness,
    online_simulation
);
criterion_main!(benches);
