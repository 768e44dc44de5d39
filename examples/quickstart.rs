//! Quickstart: tune one benchmark on one simulated GPU.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bat::prelude::*;

fn main() {
    // 1. Pick a benchmark and a target architecture. The suite ships the
    //    paper's seven kernels and four-GPU testbed.
    let arch = GpuArch::rtx_3090();
    let problem = bat::kernels::benchmark("gemm", arch).expect("gemm is in the registry");
    println!(
        "tuning {} on {} — {} configurations ({} restriction-valid)",
        problem.name(),
        problem.platform(),
        problem.space().cardinality(),
        problem.space().count_valid(),
    );

    // 2. Wrap it in the measurement harness: 5 runs per configuration with
    //    1% deterministic noise, budget of 300 evaluations.
    let evaluator = Evaluator::builder(&problem)
        .protocol(Protocol::default())
        .budget(300)
        .build()
        .expect("the default protocol is valid");

    // 3. Run a tuner. Every algorithm implements the same `Tuner` trait.
    let run = IteratedLocalSearch::default().tune(&evaluator, 42);

    // 4. Inspect the result.
    let best = run.best().expect("ILS finds a valid configuration");
    println!(
        "evaluated {} configurations ({} valid), best = {:.4} ms:",
        run.trials.len(),
        run.successes(),
        best.time_ms().unwrap()
    );
    for (name, value) in problem.space().names().iter().zip(&best.config) {
        println!("    {name} = {value}");
    }

    // 5. The best-so-far curve is the series the paper plots in Fig. 2.
    let curve = run.best_so_far();
    for evals in [10, 50, 100, 300] {
        if let Some(Some(t)) = curve.get(evals - 1) {
            println!("after {evals:>4} evaluations: best {t:.4} ms");
        }
    }
}
