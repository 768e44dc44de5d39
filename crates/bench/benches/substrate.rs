//! Micro-benchmarks of the substrates: occupancy calculation, the timing
//! model, restriction evaluation, index decoding, neighbour generation, and
//! the tuners' end-to-end throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use bat_bench::{problem, some_valid_config};
use bat_core::{Evaluator, TuningProblem};
use bat_gpusim::{execute, occupancy, BlockResources, GpuArch};
use bat_kernels::KernelSpec;
use bat_space::Neighborhood;
use bat_tuners::{RandomSearch, Tuner};

fn occupancy_calculator(c: &mut Criterion) {
    let arch = GpuArch::rtx_3090();
    let res = BlockResources {
        threads: 256,
        regs_per_thread: 64,
        smem_bytes: 24_576,
        launch_bounds_blocks: 0,
    };
    c.bench_function("substrate_occupancy", |b| {
        b.iter(|| black_box(occupancy(&arch, black_box(&res))))
    });
}

fn timing_model(c: &mut Criterion) {
    let arch = GpuArch::rtx_2080_ti();
    let spec = bat_kernels::GemmKernel::default();
    let cfg = some_valid_config("gemm");
    let model = spec.model(&cfg);
    c.bench_function("substrate_timing_model", |b| {
        b.iter(|| black_box(execute(&arch, black_box(&model))))
    });
}

fn kernel_model_derivation(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_kernel_model");
    for name in ["gemm", "hotspot", "dedisp"] {
        let spec = bat_kernels::kernel_by_name(name).unwrap();
        let cfg = some_valid_config(name);
        g.bench_function(name, |b| b.iter(|| black_box(spec.model(&cfg))));
    }
    g.finish();
}

fn restriction_evaluation(c: &mut Criterion) {
    let space = bat_kernels::GemmKernel::default().build_space();
    let cfg = some_valid_config("gemm");
    c.bench_function("substrate_restriction_eval_gemm_6_rules", |b| {
        b.iter(|| black_box(space.is_valid(black_box(&cfg))))
    });
}

fn index_decode_throughput(c: &mut Criterion) {
    let space = bat_kernels::DedispKernel::default().build_space();
    let mut g = c.benchmark_group("substrate_index_decode");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("dedisp_10k_decodes", |b| {
        let mut scratch = vec![0i64; space.num_params()];
        b.iter(|| {
            for idx in (0..10_000u64).map(|i| i * 12_347 % space.cardinality()) {
                space.decode_into(idx, &mut scratch);
                black_box(&scratch);
            }
        })
    });
    g.finish();
}

fn neighbor_generation(c: &mut Criterion) {
    let space = bat_kernels::HotspotKernel::default().build_space();
    c.bench_function("substrate_neighbors_hotspot", |b| {
        b.iter(|| {
            black_box(Neighborhood::HammingAny.neighbor_indices(&space, black_box(1_234_567)))
        })
    });
}

fn evaluation_throughput(c: &mut Criterion) {
    let p = problem("convolution", GpuArch::rtx_titan());
    let mut g = c.benchmark_group("substrate_evaluation");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("convolution_1k_pure_evals", |b| {
        let space = p.space();
        let configs: Vec<Vec<i64>> = (0..1_000u64)
            .map(|i| space.config_at(i * 17 % space.cardinality()))
            .collect();
        b.iter(|| {
            for cfg in &configs {
                black_box(p.evaluate_pure(cfg).ok());
            }
        })
    });
    g.finish();
}

fn tuner_throughput(c: &mut Criterion) {
    let p = problem("nbody", GpuArch::rtx_3060());
    c.bench_function("substrate_random_search_200_evals", |b| {
        b.iter(|| {
            let eval = Evaluator::builder(&p).budget(200).build().unwrap();
            black_box(RandomSearch.tune(&eval, 3))
        })
    });
}

criterion_group!(
    benches,
    occupancy_calculator,
    timing_model,
    kernel_model_derivation,
    restriction_evaluation,
    index_decode_throughput,
    neighbor_generation,
    evaluation_throughput,
    tuner_throughput
);
criterion_main!(benches);
