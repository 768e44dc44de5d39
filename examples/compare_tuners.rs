//! Compare all eleven optimization algorithms on one benchmark at equal
//! budget — the kind of study the BAT suite exists to make cheap.
//!
//! ```sh
//! cargo run --release --example compare_tuners
//! ```

use bat::prelude::*;
use bat::tuners::default_tuners;

fn main() {
    let arch = GpuArch::rtx_2080_ti();
    let problem = bat::kernels::benchmark("hotspot", arch).expect("hotspot is in the registry");
    let budget = 250u64;
    let repeats = 7u64;

    // Ground truth: sample the landscape hard to approximate the optimum.
    let landscape = bat::analysis::sampled_valid(&problem, 8_000, 0, 80_000_000)
        .expect("hotspot's valid space is easily sampled");
    let t_opt = landscape.best().unwrap().time_ms.unwrap();
    println!(
        "hotspot on {}: sampled optimum {:.4} ms over {} configs\n",
        problem.platform(),
        t_opt,
        landscape.samples.len()
    );

    println!(
        "{:<26} {:>14} {:>14} {:>10}",
        "tuner", "median (ms)", "best (ms)", "rel perf"
    );
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    for tuner in default_tuners() {
        let mut bests: Vec<f64> = Vec::new();
        for seed in 0..repeats {
            let evaluator = Evaluator::builder(&problem)
                .budget(budget)
                .build()
                .expect("the default protocol is valid");
            if let Some(best) = tuner.tune(&evaluator, seed).best() {
                bests.push(best.time_ms().unwrap());
            }
        }
        bests.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = bests[bests.len() / 2];
        rows.push((tuner.name().to_string(), median, bests[0]));
    }
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    for (name, median, best) in rows {
        println!(
            "{name:<26} {median:>14.4} {best:>14.4} {:>9.1}%",
            t_opt / median * 100.0
        );
    }
}
