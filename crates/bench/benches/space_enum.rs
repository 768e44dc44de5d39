//! Search-space enumeration throughput: the restriction VM and the
//! prefix-pruned counting/enumeration engine against the brute-force
//! baseline, on the paper's GEMM, Hotspot and Dedispersion spaces.
//!
//! The brute-force baselines on Hotspot (2.2×10⁷ configurations) and
//! Dedispersion (1.2×10⁸) take minutes per sample on a small host, so they
//! only run when `BAT_BENCH_BRUTE=1` is set; GEMM's (8.3×10⁴) always runs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use bat_kernels::kernel_by_name;
use bat_space::expr::Program;
use bat_space::Neighborhood;

const SPACES: [&str; 3] = ["gemm", "hotspot", "dedisp"];

fn bench_brute_everywhere() -> bool {
    std::env::var("BAT_BENCH_BRUTE").is_ok_and(|v| v == "1")
}

/// One restriction evaluation: flat bytecode VM vs the tree-walking
/// evaluator, over every restriction of the space on a fixed config.
fn restriction_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("restriction_eval");
    for name in SPACES {
        let space = kernel_by_name(name).unwrap().build_space();
        let config = space.config_at(space.cardinality() / 2);
        let programs: Vec<Program> = space
            .restrictions()
            .iter()
            .map(|r| Program::compile(&r.compiled))
            .collect();
        g.throughput(Throughput::Elements(programs.len() as u64));
        g.bench_function(format!("{name}/vm"), |b| {
            b.iter(|| {
                programs
                    .iter()
                    .filter(|p| p.eval_bool(black_box(&config)))
                    .count()
            })
        });
        g.bench_function(format!("{name}/tree_walk"), |b| {
            b.iter(|| {
                space
                    .restrictions()
                    .iter()
                    .filter(|r| r.compiled.eval_bool(black_box(&config)))
                    .count()
            })
        });
    }
    g.finish();
}

/// Exact constrained counts: constraint-graph factoring vs brute force over
/// the full cartesian product.
fn count_valid(c: &mut Criterion) {
    let mut g = c.benchmark_group("count_valid");
    g.sample_size(10);
    for name in SPACES {
        let space = kernel_by_name(name).unwrap().build_space();
        g.throughput(Throughput::Elements(space.cardinality()));
        g.bench_function(format!("{name}/factored"), |b| {
            b.iter(|| black_box(space.count_valid()))
        });
        if name == "gemm" || bench_brute_everywhere() {
            g.bench_function(format!("{name}/brute_force"), |b| {
                b.iter(|| black_box(space.count_valid_brute()))
            });
        }
    }
    g.finish();
}

/// Full enumeration of the valid index set (the paper exhausts GEMM and
/// Convolution among others).
fn valid_indices(c: &mut Criterion) {
    let mut g = c.benchmark_group("valid_indices");
    g.sample_size(10);
    for name in ["gemm", "convolution"] {
        let space = kernel_by_name(name).unwrap().build_space();
        g.throughput(Throughput::Elements(space.cardinality()));
        g.bench_function(name, |b| b.iter(|| black_box(space.valid_indices().len())));
    }
    g.finish();
}

/// Valid-neighbour queries (the inner loop of local search and of fitness-
/// flow-graph construction): patched single-slot re-checks.
fn valid_neighbors(c: &mut Criterion) {
    let mut g = c.benchmark_group("valid_neighbors");
    for name in SPACES {
        let space = kernel_by_name(name).unwrap().build_space();
        let indices: Vec<u64> = (1..=64u64)
            .map(|i| i * (space.cardinality() / 65))
            .collect();
        g.throughput(Throughput::Elements(indices.len() as u64));
        g.bench_function(name, |b| {
            b.iter(|| {
                indices
                    .iter()
                    .map(|&i| {
                        Neighborhood::HammingAny
                            .valid_neighbor_indices(&space, i)
                            .len()
                    })
                    .sum::<usize>()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    restriction_eval,
    count_valid,
    valid_indices,
    valid_neighbors
);
criterion_main!(benches);
