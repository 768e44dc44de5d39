//! Tables I–VII and Table VIII: building the seven configuration spaces and
//! counting their (constrained) sizes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use bat_kernels::{kernel_by_name, BENCHMARK_NAMES};

/// Tables I–VII: construct every benchmark's space (parameters parsed,
/// restrictions compiled).
fn tables_1_to_7(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables_i_vii_space_construction");
    for name in BENCHMARK_NAMES {
        g.bench_function(name, |b| {
            let k = kernel_by_name(name).unwrap();
            b.iter(|| black_box(k.build_space().cardinality()))
        });
    }
    g.finish();
}

/// Table VIII "Constrained": exact counting via constraint-graph factoring.
fn table8_constrained_counts(c: &mut Criterion) {
    let mut g = c.benchmark_group("table8_constrained_factored");
    g.sample_size(10);
    for name in BENCHMARK_NAMES {
        let k = kernel_by_name(name).unwrap();
        let space = k.build_space();
        g.bench_function(name, |b| b.iter(|| black_box(space.count_valid())));
    }
    g.finish();
}

/// Table VIII "Constrained" for GEMM by brute force (the paper-exact 17 956),
/// the baseline the factored counter replaces.
fn table8_gemm_brute_force(c: &mut Criterion) {
    let space = kernel_by_name("gemm").unwrap().build_space();
    c.bench_function("table8_gemm_constrained_brute_force", |b| {
        b.iter_batched(
            || space.clone(),
            |s| {
                let n = s.count_valid_brute();
                assert_eq!(n, 17_956);
                black_box(n)
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    tables_1_to_7,
    table8_constrained_counts,
    table8_gemm_brute_force
);
criterion_main!(benches);
