//! Micro-benchmarks of the multi-objective subsystem: Pareto-archive
//! insert throughput, the power model's overhead on top of the timing
//! model, and end-to-end NSGA-II tuning throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use bat_bench::some_valid_config;
use bat_core::Evaluator;
use bat_gpusim::{execute, execute_with_energy, GpuArch};
use bat_kernels::KernelSpec;
use bat_moo::{front_of_run, Nsga2, ParetoArchive, ParetoPoint};
use bat_tuners::Tuner;

/// A deterministic stream of scattered objective points (no RNG: benches
/// must not depend on rand's stream shape).
fn point_stream(n: u64) -> Vec<ParetoPoint> {
    (0..n)
        .map(|i| ParetoPoint {
            index: i,
            time_ms: 1.0 + ((i * 2654435761) % 10_007) as f64 / 100.0,
            energy_mj: 1.0 + ((i * 40503) % 9_973) as f64 / 100.0,
        })
        .collect()
}

fn archive_insert_throughput(c: &mut Criterion) {
    let points = point_stream(10_000);
    let mut g = c.benchmark_group("moo_archive");
    g.throughput(Throughput::Elements(points.len() as u64));
    for cap in [16usize, 64] {
        g.bench_function(format!("insert_10k_cap{cap}"), |b| {
            b.iter(|| {
                let mut a = ParetoArchive::new(cap);
                for p in &points {
                    a.insert(black_box(*p));
                }
                black_box(a.len())
            })
        });
    }
    g.finish();
}

fn power_model_overhead(c: &mut Criterion) {
    let arch = GpuArch::rtx_3090();
    let spec = bat_kernels::GemmKernel::default();
    let cfg = some_valid_config("gemm");
    let model = spec.model(&cfg);
    let mut g = c.benchmark_group("moo_power_model");
    g.bench_function("time_only", |b| {
        b.iter(|| black_box(execute(&arch, black_box(&model))))
    });
    g.bench_function("time_plus_energy", |b| {
        b.iter(|| black_box(execute_with_energy(&arch, black_box(&model))))
    });
    g.finish();
}

fn evaluator_energy_overhead(c: &mut Criterion) {
    let arch = GpuArch::rtx_3090();
    let problem = bat_kernels::benchmark("gemm", arch).unwrap();
    let mut g = c.benchmark_group("moo_evaluator");
    g.throughput(Throughput::Elements(256));
    g.bench_function("time_only_256_evals", |b| {
        b.iter(|| {
            let eval = Evaluator::builder(&problem).cache(false).build().unwrap();
            for i in 0..256u64 {
                black_box(eval.evaluate_index(i * 17));
            }
        })
    });
    g.bench_function("with_energy_256_evals", |b| {
        b.iter(|| {
            let eval = Evaluator::builder(&problem)
                .cache(false)
                .energy(true)
                .build()
                .unwrap();
            for i in 0..256u64 {
                black_box(eval.evaluate_index(i * 17));
            }
        })
    });
    g.finish();
}

fn nsga2_end_to_end(c: &mut Criterion) {
    let arch = GpuArch::rtx_3090();
    let problem = bat_kernels::benchmark("gemm", arch).unwrap();
    let budget = 300u64;
    let mut g = c.benchmark_group("moo_nsga2");
    g.throughput(Throughput::Elements(budget));
    g.bench_function("gemm_3090_300_evals", |b| {
        b.iter(|| {
            let eval = Evaluator::builder(&problem)
                .energy(true)
                .budget(budget)
                .build()
                .unwrap();
            let run = Nsga2::default().tune(&eval, 42);
            black_box(front_of_run(&run, 16).len())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    archive_insert_throughput,
    power_model_overhead,
    evaluator_energy_overhead,
    nsga2_end_to_end
);
criterion_main!(benches);
