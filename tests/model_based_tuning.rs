//! Integration tests for the model-based tuner family (GP-BO, TPE,
//! SMAC-forest), the tuner-comparison harness and the dynamic-autotuning
//! simulation — all on real suite benchmarks through the public API.

use bat::prelude::*;
use bat::tuners::default_tuners;

#[test]
fn model_based_tuners_run_on_real_kernels_within_budget() {
    let arch = GpuArch::rtx_3060();
    for name in ["gemm", "convolution", "hotspot"] {
        let problem = bat::kernels::benchmark(name, arch.clone()).unwrap();
        for tuner in [
            Box::new(BayesianOptimization::default()) as Box<dyn Tuner>,
            Box::new(Tpe::default()),
            Box::new(SmacTuner::default()),
        ] {
            let evaluator = Evaluator::builder(&problem).budget(50).build().unwrap();
            let run = tuner.tune(&evaluator, 3);
            assert_eq!(run.trials.len(), 50, "{name}/{}", tuner.name());
            assert!(
                run.successes() > 0,
                "{name}/{}: no valid measurement in 50 evaluations",
                tuner.name()
            );
            let best = run.best().unwrap();
            assert!(problem.space().is_valid(&best.config));
        }
    }
}

#[test]
fn bayesian_optimization_outranks_random_on_gemm() {
    // GEMM is the benchmark the paper's Fig. 2 shows needing hundreds of
    // random evaluations; the GP surrogate should exploit its
    // multiplicative structure.
    let problem = bat::kernels::benchmark("gemm", GpuArch::rtx_2080_ti()).unwrap();
    let tuners: Vec<Box<dyn Tuner>> = vec![
        Box::new(BayesianOptimization::default()),
        Box::new(RandomSearch),
    ];
    let comparison = compare_tuners(
        &problem,
        &tuners,
        &ComparisonSettings {
            budget: 120,
            repeats: 5,
            ..ComparisonSettings::default()
        },
        None,
    );
    let rank = |name: &str| {
        comparison
            .results
            .iter()
            .find(|r| r.tuner == name)
            .unwrap()
            .mean_rank
    };
    assert!(
        rank("gp-bo-ei") < rank("random-search"),
        "gp-bo-ei rank {} vs random {}",
        rank("gp-bo-ei"),
        rank("random-search")
    );
}

#[test]
fn tpe_restriction_filtering_pays_off_on_gemm() {
    // 78% of GEMM's cartesian space violates the CLBlast restrictions;
    // static filtering (what Optuna/Kernel Tuner actually do) must not
    // be worse than thrashing through restricted draws.
    let problem = bat::kernels::benchmark("gemm", GpuArch::rtx_3090()).unwrap();
    // 15 seeds: the 5-seed median is noisy enough to flip on an unlucky
    // RNG stream even though filtering genuinely helps.
    let median_best = |tuner: &Tpe| -> f64 {
        let mut bests: Vec<f64> = (0..15)
            .map(|seed| {
                let eval = Evaluator::builder(&problem).budget(80).build().unwrap();
                tuner
                    .tune(&eval, seed)
                    .best()
                    .map_or(f64::INFINITY, |b| b.time_ms().unwrap())
            })
            .collect();
        bests.sort_by(|a, b| a.total_cmp(b));
        bests[bests.len() / 2]
    };
    let filtered = median_best(&Tpe::default());
    let unfiltered = median_best(&Tpe {
        respect_restrictions: false,
        ..Tpe::default()
    });
    assert!(
        filtered <= unfiltered,
        "filtered median {filtered} should not exceed unfiltered {unfiltered}"
    );
}

#[test]
fn comparison_harness_covers_the_default_tuner_set() {
    let problem = bat::kernels::benchmark("pnpoly", GpuArch::rtx_titan()).unwrap();
    let tuners = default_tuners();
    let comparison = compare_tuners(
        &problem,
        &tuners,
        &ComparisonSettings {
            budget: 40,
            repeats: 3,
            ..ComparisonSettings::default()
        },
        None,
    );
    assert_eq!(comparison.results.len(), tuners.len());
    assert_eq!(comparison.problem, "pnpoly");
    // Ranks partition [1, n] on average.
    let n = tuners.len() as f64;
    let total: f64 = comparison.results.iter().map(|r| r.mean_rank).sum();
    assert!((total - n * (n + 1.0) / 2.0).abs() < 1e-9);
    // Every tuner produced a finite result on this restriction-free space.
    for r in &comparison.results {
        assert!(r.median_final().is_some(), "{} never succeeded", r.tuner);
    }
}

#[test]
fn cross_benchmark_rank_aggregation_is_consistent() {
    let tuners: Vec<Box<dyn Tuner>> = vec![
        Box::new(RandomSearch),
        Box::new(LocalSearch::default()),
        Box::new(Tpe::default()),
    ];
    let settings = ComparisonSettings {
        budget: 40,
        repeats: 3,
        ..ComparisonSettings::default()
    };
    let comparisons: Vec<_> = ["pnpoly", "nbody"]
        .iter()
        .map(|name| {
            let p = bat::kernels::benchmark(name, GpuArch::rtx_3060()).unwrap();
            compare_tuners(&p, &tuners, &settings, None)
        })
        .collect();
    let agg = aggregate_ranks(&comparisons);
    assert_eq!(agg.tuners.len(), 3);
    assert_eq!(agg.per_problem.len(), 2);
    // Mean of means, and best-first ordering.
    for w in agg.mean_ranks.windows(2) {
        assert!(w[0] <= w[1]);
    }
    let grand: f64 = agg.mean_ranks.iter().sum();
    assert!((grand - 6.0).abs() < 1e-9, "ranks must sum to n(n+1)/2 = 6");
}

#[test]
fn online_tuning_amortizes_on_a_real_kernel() {
    let problem = bat::kernels::benchmark("convolution", GpuArch::rtx_3090()).unwrap();
    let sim = OnlineSimulation {
        invocations: 5_000,
        policy: OnlinePolicy::TuneThenExploit { tuning_budget: 150 },
        protocol: Protocol::default(),
    };
    let trace = sim.run(&problem, &IteratedLocalSearch::default(), None, None, 0);
    assert_eq!(trace.costs.len(), 5_000);
    assert!(
        trace.speedup_over_static() > 1.0,
        "tuning should amortize over 5000 invocations (speedup {})",
        trace.speedup_over_static()
    );
    assert!(trace.break_even().is_some());
    // The exploited configuration is valid and at least as fast as the
    // untuned default.
    assert!(trace.tuned_ms <= trace.default_ms);
    let cfg = problem.space().config_at(trace.tuned_index);
    assert!(problem.space().is_valid(&cfg));
}

#[test]
fn online_static_and_oracle_bracket_tune_then_exploit() {
    let problem = bat::kernels::benchmark("nbody", GpuArch::rtx_2080_ti()).unwrap();
    let landscape = Landscape::exhaustive(&problem);
    let t_opt = landscape.best().unwrap().time_ms.unwrap();
    let sim = OnlineSimulation {
        invocations: 3_000,
        policy: OnlinePolicy::TuneThenExploit { tuning_budget: 200 },
        protocol: Protocol::default(),
    };
    let trace = sim.run(&problem, &RandomSearch, None, Some(t_opt), 1);
    let oracle = trace.oracle_ms.unwrap();
    assert!(
        oracle <= trace.total_ms * (1.0 + 1e-9),
        "oracle {oracle} must lower-bound online {}",
        trace.total_ms
    );
    assert!(
        trace.total_ms <= trace.static_ms * (1.0 + 1e-9),
        "online {} must not lose to static {} here (slow default)",
        trace.total_ms,
        trace.static_ms
    );
}

#[test]
fn gp_surrogate_fits_kernel_landscapes_accurately() {
    // The GP should reach a decent fit on a real (sub-sampled) landscape —
    // the property that makes BO informative at all.
    let problem = bat::kernels::benchmark("nbody", GpuArch::rtx_titan()).unwrap();
    let space = problem.space();
    let landscape = Landscape::exhaustive(&problem);
    let pts: Vec<(&u64, f64)> = landscape
        .samples
        .iter()
        .filter_map(|s| s.time_ms.map(|t| (&s.index, t)))
        .step_by(17)
        .take(120)
        .collect();
    let rows: Vec<Vec<f64>> = pts
        .iter()
        .map(|(i, _)| space.config_at(**i).iter().map(|&v| v as f64).collect())
        .collect();
    let ys: Vec<f64> = pts.iter().map(|(_, t)| t.ln()).collect();
    let gp = bat::ml::GaussianProcess::fit(&rows, &ys, &bat::ml::GpParams::default());
    // In-sample R² of the posterior mean.
    let preds: Vec<f64> = rows.iter().map(|r| gp.predict(r).mean).collect();
    let r2 = bat::ml::r2_score(&ys, &preds);
    assert!(r2 > 0.8, "GP in-sample R² = {r2}");
}
