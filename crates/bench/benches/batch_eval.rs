//! Micro-benchmarks of the ask/tell batching path: evaluator batch
//! throughput against element-wise serial evaluation, and full batched
//! vs serial tunes of the population tuners (GA/PSO) on gemm.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use bat_core::{Evaluator, Protocol};
use bat_gpusim::GpuArch;
use bat_tuners::{GeneticAlgorithm, ParticleSwarm, Tuner};

/// A deterministic scattered index stream (no RNG: benches must not
/// depend on rand's stream shape).
fn index_stream(n: u64, card: u64) -> Vec<u64> {
    (0..n).map(|i| (i * 2654435761) % card).collect()
}

fn evaluator_batch_vs_serial(c: &mut Criterion) {
    let arch = GpuArch::rtx_3090();
    let problem = bat_kernels::benchmark("gemm", arch).unwrap();
    let card = bat_core::TuningProblem::space(&problem).cardinality();
    let n = 4096u64;
    let indices = index_stream(n, card);
    let mut g = c.benchmark_group("batch_eval");
    g.throughput(Throughput::Elements(n));
    g.bench_function("serial_4096", |b| {
        b.iter(|| {
            let eval = Evaluator::builder(&problem).cache(false).build().unwrap();
            for &i in &indices {
                black_box(eval.evaluate_index(i));
            }
        })
    });
    for batch in [8usize, 64, 512, 1024] {
        g.bench_function(format!("batched_4096_chunk{batch}"), |b| {
            b.iter(|| {
                let eval = Evaluator::builder(&problem).cache(false).build().unwrap();
                for chunk in indices.chunks(batch) {
                    black_box(eval.evaluate_batch(chunk).len());
                }
            })
        });
    }
    g.finish();
}

fn population_tuners_batched_vs_serial(c: &mut Criterion) {
    let arch = GpuArch::rtx_3090();
    let problem = bat_kernels::benchmark("gemm", arch).unwrap();
    let budget = 2_000u64;
    let mut g = c.benchmark_group("batch_tune");
    g.throughput(Throughput::Elements(budget));
    for (label, batch) in [("batch1", 1u32), ("batch20", 20)] {
        g.bench_function(format!("ga_gemm_2000_{label}"), |b| {
            b.iter(|| {
                let eval = Evaluator::builder(&problem)
                    .protocol(Protocol::default().with_batch(batch))
                    .budget(budget)
                    .build()
                    .unwrap();
                black_box(GeneticAlgorithm::default().tune(&eval, 42).trials.len())
            })
        });
    }
    for (label, batch) in [("batch1", 1u32), ("batch15", 15)] {
        g.bench_function(format!("pso_gemm_2000_{label}"), |b| {
            b.iter(|| {
                let eval = Evaluator::builder(&problem)
                    .protocol(Protocol::default().with_batch(batch))
                    .budget(budget)
                    .build()
                    .unwrap();
                black_box(ParticleSwarm::default().tune(&eval, 42).trials.len())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    evaluator_batch_vs_serial,
    population_tuners_batched_vs_serial
);
criterion_main!(benches);
