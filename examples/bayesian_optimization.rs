//! Bayesian optimization of a GPU kernel, acquisition function by
//! acquisition function — the study of Willemsen et al. (the paper's
//! reference [22]) on the BAT suite.
//!
//! ```sh
//! cargo run --release --example bayesian_optimization
//! ```

use bat::prelude::*;

fn main() {
    // Convolution is one of the benchmarks where random search needs
    // hundreds of evaluations to pass 90% of optimal (paper Fig. 2d) —
    // exactly where model-based tuning is supposed to earn its keep.
    let arch = GpuArch::rtx_3090();
    let problem =
        bat::kernels::benchmark("convolution", arch).expect("convolution is in the registry");
    let budget = 150u64;
    let repeats = 5u64;

    // Ground truth from the exhaustive landscape (convolution is one of
    // the paper's four exhaustively-searched benchmarks).
    let landscape = Landscape::exhaustive(&problem);
    let t_opt = landscape.best().unwrap().time_ms.unwrap();
    println!(
        "convolution on {}: optimum {:.4} ms over {} configurations\n",
        problem.platform(),
        t_opt,
        landscape.samples.len()
    );

    // One GP-BO tuner per acquisition function, against the random
    // baseline.
    let tuners: Vec<Box<dyn Tuner>> = vec![
        Box::new(BayesianOptimization::with_acquisition(
            Acquisition::ExpectedImprovement,
        )),
        Box::new(BayesianOptimization::with_acquisition(
            Acquisition::ProbabilityOfImprovement,
        )),
        Box::new(BayesianOptimization::with_acquisition(
            Acquisition::LowerConfidenceBound { beta: 2.0 },
        )),
        Box::new(RandomSearch),
    ];

    // GP-BO's acquisition variants are not registry tuners, so they run
    // outside a campaign: seeds 0..repeats per tuner, each on a fresh
    // evaluator, keeping every run's best-so-far curve.
    let curves: Vec<Vec<Vec<Option<f64>>>> = tuners
        .iter()
        .map(|tuner| {
            (0..repeats)
                .map(|seed| {
                    let evaluator = Evaluator::builder(&problem)
                        .budget(budget)
                        .build()
                        .expect("the default protocol is valid");
                    tuner.tune(&evaluator, seed).best_so_far()
                })
                .collect()
        })
        .collect();
    let median = |mut values: Vec<f64>| -> Option<f64> {
        values.sort_by(f64::total_cmp);
        values.get(values.len() / 2).copied()
    };
    // Friedman mean ranks of the final bests (failures last, ties share
    // the average rank), the reducer campaign summaries use too.
    let finals: Vec<Vec<Option<f64>>> = curves
        .iter()
        .map(|runs| runs.iter().map(|c| c.last().copied().flatten()).collect())
        .collect();
    let ranks = bat::core::friedman_mean_ranks(&finals);
    let mut order: Vec<usize> = (0..tuners.len()).collect();
    order.sort_by(|&a, &b| ranks[a].total_cmp(&ranks[b]));

    println!(
        "budget {budget} evaluations, {repeats} repeats; median best-so-far (% of optimum):\n"
    );
    print!("{:<12}", "evals");
    for &t in &order {
        print!(" {:>10}", tuners[t].name());
    }
    println!();
    for evals in [1, 2, 5, 10, 20, 50, 100, budget as usize] {
        print!("{evals:<12}");
        for &t in &order {
            let at: Vec<f64> = curves[t]
                .iter()
                .filter_map(|c| c[..evals.min(c.len())].last().copied().flatten())
                .collect();
            match median(at) {
                Some(ms) => print!(" {:>9.1}%", t_opt / ms * 100.0),
                None => print!(" {:>10}", "-"),
            }
        }
        println!();
    }

    println!("\nfinal standings:");
    println!(
        "{:<24} {:>9} {:>12} {:>8}",
        "tuner", "mean rank", "median ms", "rel perf"
    );
    for &t in &order {
        let (ms, rel) = match median(finals[t].iter().flatten().copied().collect()) {
            Some(ms) => (format!("{ms:.4}"), format!("{:.3}", t_opt / ms)),
            None => ("-".into(), "-".into()),
        };
        println!(
            "{:<24} {:>9.2} {ms:>12} {rel:>8}",
            tuners[t].name(),
            ranks[t]
        );
    }
    println!();

    // The posterior itself is inspectable: fit a GP on a small sample and
    // show its honesty (high variance away from data).
    let space = problem.space();
    let sample: Vec<(Vec<f64>, f64)> = landscape
        .samples
        .iter()
        .step_by(landscape.samples.len() / 64)
        .filter_map(|s| {
            let t = s.time_ms?;
            let row: Vec<f64> = space.config_at(s.index).iter().map(|&v| v as f64).collect();
            Some((row, t.ln()))
        })
        .collect();
    let (rows, ys): (Vec<Vec<f64>>, Vec<f64>) = sample.into_iter().unzip();
    let gp = bat::ml::GaussianProcess::fit(&rows, &ys, &bat::ml::GpParams::default());
    println!(
        "GP fitted on {} observations: lengthscale {:.2}, noise {:.1e}, LML {:.1}",
        gp.n_observations(),
        gp.lengthscale(),
        gp.noise(),
        gp.log_marginal_likelihood()
    );
    let p = gp.predict(&rows[0]);
    println!(
        "at a training point: mean {:.3} (truth {:.3}), σ {:.3}",
        p.mean,
        ys[0],
        p.std_dev()
    );
}
