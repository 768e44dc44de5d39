//! Ablation benches for the design choices called out in DESIGN.md §7.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bat_analysis::{pagerank, FitnessFlowGraph, Landscape, PageRankParams};
use bat_bench::problem;
use bat_core::Evaluator;
use bat_gpusim::GpuArch;
use bat_kernels::KernelSpec;
use bat_ml::{Gbdt, GbdtParams, TreeParams};
use bat_space::Neighborhood;
use bat_tuners::{RandomSearch, Tuner};

/// Evaluator memoization: with the cache, revisited configurations are
/// free; without it, every visit re-measures.
fn ablation_eval_cache(c: &mut Criterion) {
    let p = problem("gemm", GpuArch::rtx_3090());
    let mut g = c.benchmark_group("ablation_eval_cache");
    g.bench_function("cache_on", |b| {
        b.iter(|| {
            let eval = Evaluator::builder(&p).budget(400).build().unwrap();
            black_box(RandomSearch.tune(&eval, 1))
        })
    });
    g.bench_function("cache_off", |b| {
        b.iter(|| {
            let eval = Evaluator::builder(&p)
                .budget(400)
                .cache(false)
                .build()
                .unwrap();
            black_box(RandomSearch.tune(&eval, 1))
        })
    });
    g.finish();
}

/// Constraint counting: factoring the restriction graph vs brute force over
/// the full cartesian product (GEMM: 82 944 configs, 6 restrictions).
fn ablation_constraint_counting(c: &mut Criterion) {
    let space = bat_kernels::GemmKernel::default().build_space();
    let mut g = c.benchmark_group("ablation_constraint_counting");
    g.sample_size(10);
    g.bench_function("factored", |b| {
        b.iter(|| black_box(space.count_valid_factored()))
    });
    g.bench_function("brute_force", |b| b.iter(|| black_box(space.count_valid())));
    g.finish();
}

/// GBDT depth: deeper trees fit interactions with fewer stages but cost
/// more per stage.
fn ablation_gbdt_depth(c: &mut Criterion) {
    let p = problem("nbody", GpuArch::rtx_titan());
    let l = Landscape::exhaustive(&p);
    let data = bat_analysis::landscape_dataset(bat_core::TuningProblem::space(&p), &l).unwrap();
    let mut g = c.benchmark_group("ablation_gbdt_depth");
    g.sample_size(10);
    for depth in [3usize, 6, 9] {
        g.bench_function(format!("depth_{depth}"), |b| {
            b.iter(|| {
                black_box(Gbdt::fit(
                    &data,
                    &GbdtParams {
                        n_trees: 60,
                        learning_rate: 0.15,
                        tree: TreeParams {
                            max_depth: depth,
                            min_samples_leaf: 3,
                            ..TreeParams::default()
                        },
                        subsample: 1.0,
                        seed: 1,
                    },
                ))
            })
        });
    }
    g.finish();
}

/// PageRank tolerance: convergence threshold vs iteration cost on the
/// pnpoly FFG.
fn ablation_pagerank_tolerance(c: &mut Criterion) {
    let p = problem("pnpoly", GpuArch::rtx_2080_ti());
    let l = Landscape::exhaustive(&p);
    let ffg = FitnessFlowGraph::build(
        bat_core::TuningProblem::space(&p),
        &l,
        Neighborhood::HammingAny,
    );
    let mut g = c.benchmark_group("ablation_pagerank_tolerance");
    for tol in [1e-6f64, 1e-10] {
        g.bench_function(format!("tol_{tol:e}"), |b| {
            b.iter(|| {
                black_box(pagerank(
                    &ffg,
                    &PageRankParams {
                        damping: 0.85,
                        tolerance: tol,
                        max_iters: 200,
                    },
                ))
            })
        });
    }
    g.finish();
}

/// Neighbourhood structure: FFG built with Hamming-any vs adjacent-step
/// neighbourhoods (the adjacent FFG is far sparser).
fn ablation_neighborhood(c: &mut Criterion) {
    let p = problem("nbody", GpuArch::rtx_3090());
    let l = Landscape::exhaustive(&p);
    let space = bat_core::TuningProblem::space(&p);
    let mut g = c.benchmark_group("ablation_ffg_neighborhood");
    g.sample_size(10);
    g.bench_function("hamming_any", |b| {
        b.iter(|| black_box(FitnessFlowGraph::build(space, &l, Neighborhood::HammingAny)))
    });
    g.bench_function("adjacent", |b| {
        b.iter(|| black_box(FitnessFlowGraph::build(space, &l, Neighborhood::Adjacent)))
    });
    g.finish();
}

criterion_group!(
    benches,
    ablation_eval_cache,
    ablation_constraint_counting,
    ablation_gbdt_depth,
    ablation_pagerank_tolerance,
    ablation_neighborhood
);
criterion_main!(benches);
