//! Transfer tuning: turn the paper's portability finding into a technique.
//!
//! Fig. 5 shows that optimal configurations transfer between GPUs at
//! 58.5–99.9% of optimal — too lossy to reuse blindly, but an excellent
//! *starting point*. This example tunes N-body for the RTX Titan three
//! ways: cold random search, random search warm-started with the optima of
//! the other three GPUs, and the transferred configurations alone (the
//! paper's Fig. 5 protocol).
//!
//! ```sh
//! cargo run --release --example transfer_tuning
//! ```

use bat::prelude::*;
use bat::tuners::WarmStartTuner;

fn main() {
    let target_arch = GpuArch::rtx_titan();
    let sources = [
        GpuArch::rtx_2080_ti(),
        GpuArch::rtx_3060(),
        GpuArch::rtx_3090(),
    ];

    // The paper's Fig. 5 protocol: exhaustive optimum per architecture.
    println!("finding per-GPU optima for nbody (exhaustive search)...\n");
    let seeds: Vec<Vec<i64>> = sources
        .iter()
        .map(|arch| {
            let p = bat::kernels::benchmark("nbody", arch.clone()).unwrap();
            let l = Landscape::exhaustive(&p);
            let best = l.best().unwrap();
            let cfg = p.space().config_at(best.index);
            println!(
                "  optimum on {:<12} {:?} at {:.4} ms",
                p.platform(),
                cfg,
                best.time_ms.unwrap()
            );
            cfg
        })
        .collect();

    let target = bat::kernels::benchmark("nbody", target_arch).unwrap();
    let target_landscape = Landscape::exhaustive(&target);
    let t_opt = target_landscape.best().unwrap().time_ms.unwrap();
    println!("\ntarget: {} (optimum {:.4} ms)", target.platform(), t_opt);

    // The transferred configurations alone — the Fig. 5 row for this GPU.
    println!("\ntransferred as-is (the paper's portability measurement):");
    let probe = Evaluator::builder(&target)
        .protocol(Protocol::noiseless())
        .build()
        .expect("the noiseless protocol is valid");
    for (src, cfg) in sources.iter().zip(&seeds) {
        let rel = probe
            .evaluate_config(cfg)
            .expect("no budget set")
            .map(|m| t_opt / m.time_ms)
            .unwrap_or(0.0);
        println!("  from {:<12} {:>5.1}% of optimal", src.name, rel * 100.0);
    }

    // Cold vs warm tuning at small budgets: transfer seeds buy evaluations.
    println!("\nmedian best (of 9 repeats) after N evaluations, % of optimal:");
    println!("{:<8} {:>12} {:>12}", "budget", "cold", "warm-start");
    for budget in [4u64, 8, 16, 32, 64] {
        let median = |warm: bool| -> f64 {
            let mut bests: Vec<f64> = (0..9)
                .map(|seed| {
                    let eval = Evaluator::builder(&target)
                        .budget(budget)
                        .build()
                        .expect("the default protocol is valid");
                    let run = if warm {
                        WarmStartTuner::new(seeds.clone(), RandomSearch).tune(&eval, seed)
                    } else {
                        RandomSearch.tune(&eval, seed)
                    };
                    run.best().map_or(f64::INFINITY, |b| b.time_ms().unwrap())
                })
                .collect();
            bests.sort_by(|a, b| a.total_cmp(b));
            bests[bests.len() / 2]
        };
        println!(
            "{:<8} {:>11.1}% {:>11.1}%",
            budget,
            t_opt / median(false) * 100.0,
            t_opt / median(true) * 100.0
        );
    }

    println!(
        "\nLesson: per-architecture tuning is still required for the last \
         percents (the paper's conclusion), but transferred optima are a \
         near-free initialization that dominates cold starts at small budgets."
    );
}
