//! Timed smoke of `Evaluator::evaluate_batch` throughput — the perf gate.
//!
//! Measures evals/s at a few batch sizes and (optionally) compares them
//! against a recorded baseline JSON (`BENCH_batch_eval.json`), failing on
//! a regression of more than 30%. CI runs
//! `batch_eval_smoke --check BENCH_batch_eval.json`; `--write FILE`
//! records a new baseline after an intentional perf change.

use std::time::Instant;

use bat_core::{Evaluator, TuningProblem};
use bat_gpusim::GpuArch;

/// Batch sizes the gate times (matching the committed baseline).
const BATCHES: [usize; 4] = [8, 64, 256, 1024];

/// Tolerated slowdown vs the recorded baseline before the gate fails.
/// Generous on purpose: CI machines vary, and the gate exists to catch
/// wholesale regressions (a lost fast path), not scheduler jitter.
const MAX_REGRESSION: f64 = 0.30;

/// A deterministic scattered index stream (no RNG: the gate must not
/// depend on rand's stream shape).
fn index_stream(n: u64, card: u64) -> Vec<u64> {
    (0..n).map(|i| (i * 2654435761) % card).collect()
}

/// Measured throughput per batch size, in evals/s.
fn measure() -> Vec<(usize, f64)> {
    let problem = bat_kernels::benchmark("gemm", GpuArch::rtx_3090()).unwrap();
    let card = problem.space().cardinality();
    let n = 1u64 << 16;
    let indices = index_stream(n, card);
    BATCHES
        .iter()
        .map(|&batch| {
            // Warm up the pool and the caches of everything but the memo
            // (the gate times the uncached measurement path).
            let eval = Evaluator::builder(&problem).cache(false).build().unwrap();
            for chunk in indices.chunks(batch).take(8) {
                std::hint::black_box(eval.evaluate_batch(chunk).len());
            }
            // Best of 3 passes: robust against one-off scheduler stalls.
            let mut best = f64::MAX;
            for _ in 0..3 {
                let eval = Evaluator::builder(&problem).cache(false).build().unwrap();
                let start = Instant::now();
                for chunk in indices.chunks(batch) {
                    std::hint::black_box(eval.evaluate_batch(chunk).len());
                }
                best = best.min(start.elapsed().as_secs_f64());
            }
            (batch, n as f64 / best)
        })
        .collect()
}

/// Batch size at which the thread-scaling sweep runs.
const SCALING_BATCH: usize = 256;

/// Thread counts the scaling sweep records.
const SCALING_THREADS: [usize; 3] = [1, 2, 4];

/// Throughput of the scaling batch size at fixed worker-pool sizes (via
/// the per-thread override, so one process sweeps all counts), plus the
/// measured worker utilization from the pool's busy-time counter:
/// busy-µs accrued across the timed passes over `threads ×` their wall
/// time. On a single-core host the sweep documents that extra workers are
/// quality-neutral and roughly throughput-neutral; on a multi-core host it
/// records the actual speedup and how busy the workers really were.
fn measure_scaling() -> Vec<(usize, f64, f64)> {
    let problem = bat_kernels::benchmark("gemm", GpuArch::rtx_3090()).unwrap();
    let card = problem.space().cardinality();
    let n = 1u64 << 16;
    let indices = index_stream(n, card);
    SCALING_THREADS
        .iter()
        .map(|&threads| {
            rayon::with_thread_limit(threads, || {
                let eval = Evaluator::builder(&problem).cache(false).build().unwrap();
                for chunk in indices.chunks(SCALING_BATCH).take(8) {
                    std::hint::black_box(eval.evaluate_batch(chunk).len());
                }
                let mut best = f64::MAX;
                let busy0 = rayon::pool_busy_us();
                let mut timed_wall = 0.0f64;
                for _ in 0..3 {
                    let eval = Evaluator::builder(&problem).cache(false).build().unwrap();
                    let start = Instant::now();
                    for chunk in indices.chunks(SCALING_BATCH) {
                        std::hint::black_box(eval.evaluate_batch(chunk).len());
                    }
                    let wall = start.elapsed().as_secs_f64();
                    timed_wall += wall;
                    best = best.min(wall);
                }
                let busy_us = (rayon::pool_busy_us() - busy0) as f64;
                let capacity_us = threads as f64 * timed_wall * 1e6;
                // At one thread the evaluator short-circuits before the
                // pool, so no busy time accrues there — but the lone
                // participant is the caller, busy for the full wall by
                // construction.
                let utilization = if threads == 1 {
                    1.0
                } else if capacity_us > 0.0 {
                    (busy_us / capacity_us).min(1.0)
                } else {
                    0.0
                };
                (threads, n as f64 / best, utilization)
            })
        })
        .collect()
}

/// Extract `"batch_N": RATE` entries from the baseline JSON's
/// `evals_per_sec` object (hand-rolled: the gate must not add deps).
fn baseline_rates(json: &str) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for &batch in &BATCHES {
        let key = format!("\"batch_{batch}\"");
        if let Some(pos) = json.find(&key) {
            let rest = &json[pos + key.len()..];
            if let Some(colon) = rest.find(':') {
                let tail = &rest[colon + 1..];
                let end = tail.find([',', '}', '\n']).unwrap_or(tail.len());
                if let Ok(rate) = tail[..end].trim().parse::<f64>() {
                    out.push((batch, rate));
                }
            }
        }
    }
    out
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    let measured = measure();
    for (batch, rate) in &measured {
        println!("batch {batch:5}: {:.2} M evals/s", rate / 1e6);
    }

    if let Some(path) = opt("--write") {
        let scaling = measure_scaling();
        for (threads, rate, util) in &scaling {
            println!(
                "threads {threads} @ batch {SCALING_BATCH}: {:.2} M evals/s ({:.0}% utilized)",
                rate / 1e6,
                util * 100.0
            );
        }
        let threads = std::env::var("BAT_THREADS").unwrap_or_else(|_| "auto".into());
        let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
        let mut body = String::from("{\n  \"schema\": \"bat/bench-batch-eval/v1\",\n");
        body.push_str("  \"kernel\": \"gemm\",\n  \"arch\": \"RTX 3090\",\n");
        body.push_str(&format!("  \"threads\": \"{threads}\",\n"));
        body.push_str(&format!("  \"host_threads\": {host_threads},\n"));
        body.push_str("  \"evals_per_sec\": {\n");
        for (i, (batch, rate)) in measured.iter().enumerate() {
            let sep = if i + 1 == measured.len() { "" } else { "," };
            body.push_str(&format!("    \"batch_{batch}\": {rate:.0}{sep}\n"));
        }
        body.push_str("  },\n");
        body.push_str(&format!(
            "  \"thread_scaling\": {{\n    \"batch\": {SCALING_BATCH},\n"
        ));
        for (threads, rate, _) in scaling.iter() {
            body.push_str(&format!("    \"threads_{threads}\": {rate:.0},\n"));
        }
        for (i, (threads, _, util)) in scaling.iter().enumerate() {
            let sep = if i + 1 == scaling.len() { "" } else { "," };
            body.push_str(&format!(
                "    \"utilization_threads_{threads}\": {util:.3}{sep}\n"
            ));
        }
        body.push_str("  }\n}\n");
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("batch_eval_smoke: cannot write {path}: {e}");
            return std::process::ExitCode::FAILURE;
        }
        println!("baseline written to {path}");
    }

    if let Some(path) = opt("--check") {
        let json = match std::fs::read_to_string(&path) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("batch_eval_smoke: cannot read {path}: {e}");
                return std::process::ExitCode::FAILURE;
            }
        };
        let baseline = baseline_rates(&json);
        if baseline.is_empty() {
            eprintln!("batch_eval_smoke: no batch_N rates found in {path}");
            return std::process::ExitCode::FAILURE;
        }
        // Shared and frequency-scaled hosts drift through multi-second
        // slow phases that best-of-3 inside one pass cannot ride out; a
        // real lost fast path is slow in *every* phase. So on apparent
        // regression, re-measure up to twice and judge each batch size by
        // its best rate across passes.
        let mut best = measured.clone();
        for retry in 0..2 {
            let worst_ratio = baseline
                .iter()
                .filter_map(|(batch, want)| {
                    let (_, got) = best.iter().find(|(b, _)| b == batch)?;
                    Some(got / want)
                })
                .fold(f64::INFINITY, f64::min);
            if worst_ratio >= 1.0 - MAX_REGRESSION {
                break;
            }
            eprintln!(
                "gate: apparent regression, re-measuring (retry {})",
                retry + 1
            );
            for (batch, rate) in measure() {
                if let Some(slot) = best.iter_mut().find(|(b, _)| *b == batch) {
                    slot.1 = slot.1.max(rate);
                }
            }
        }
        let mut failed = false;
        for (batch, want) in baseline {
            let Some((_, got)) = best.iter().find(|(b, _)| *b == batch) else {
                continue;
            };
            let floor = want * (1.0 - MAX_REGRESSION);
            let verdict = if *got < floor { "REGRESSED" } else { "ok" };
            println!(
                "gate batch {batch:5}: {:.2} M evals/s vs baseline {:.2} M (floor {:.2} M) — {verdict}",
                got / 1e6,
                want / 1e6,
                floor / 1e6,
            );
            failed |= *got < floor;
        }
        if failed {
            eprintln!("batch_eval_smoke: throughput regressed more than 30% from {path}");
            return std::process::ExitCode::FAILURE;
        }
    }
    std::process::ExitCode::SUCCESS
}
