//! End-to-end integration: every benchmark × every architecture × several
//! tuners, through the full public API — orchestrated by the harness's
//! declarative campaign engine rather than bespoke loops.

use bat::harness::{RecordLevel, TrialKey};
use bat::prelude::*;
use bat::tuners::default_tuners;

#[test]
fn every_benchmark_tunes_on_every_gpu() {
    // One campaign spec replaces the historical nested arch × benchmark
    // loop; the sequential seed policy reproduces its seed (7) exactly.
    let spec = ExperimentSpec {
        seed: 7,
        seed_policy: SeedPolicy::Sequential,
        tuners: Selector::Subset(vec!["random-search".into()]),
        benchmarks: Selector::All,
        architectures: Selector::All,
        budget: 60,
        repetitions: 1,
        ..ExperimentSpec::new("suite-e2e")
    };
    let run = run_campaign(&spec, &CampaignOptions::default()).expect("campaign runs");
    assert_eq!(run.result.trials.len(), 7 * 4);
    for t in &run.result.trials {
        assert_eq!(t.evals, 60, "{}/{}", t.benchmark, t.architecture);
        assert!(
            t.best_ms.is_some(),
            "{}/{} produced no valid measurement in 60 draws",
            t.benchmark,
            t.architecture
        );
        assert!(t.best_ms.unwrap() > 0.0);
        // The recorded best configuration must be valid in its space.
        let arch = GpuArch::by_name(&t.architecture).unwrap();
        let problem = bat::kernels::benchmark(&t.benchmark, arch).unwrap();
        let cfg: Vec<i64> = problem
            .space()
            .names()
            .iter()
            .map(|n| t.best_config[n])
            .collect();
        assert!(problem.space().is_valid(&cfg));
    }

    // The campaign path must agree number-for-number with driving the
    // public API directly, which is what the bespoke loop used to do.
    let problem = bat::kernels::benchmark("gemm", GpuArch::rtx_titan()).unwrap();
    let evaluator = Evaluator::builder(&problem).budget(60).build().unwrap();
    let direct = RandomSearch.tune(&evaluator, 7);
    let record = run
        .result
        .find(&TrialKey {
            tuner: "random-search".into(),
            benchmark: "gemm".into(),
            architecture: "RTX Titan".into(),
            rep: 0,
        })
        .expect("gemm/RTX Titan trial present");
    assert_eq!(record.best_ms, direct.best().and_then(|b| b.time_ms()));
    let t4 = bat::core::t4::T4Results::from_run(&direct, problem.space().names());
    assert_eq!(record.history.as_ref(), Some(&t4));
}

#[test]
fn campaigns_are_deterministic_and_resumable() {
    let spec = ExperimentSpec {
        tuners: Selector::Subset(vec!["simulated-annealing".into()]),
        benchmarks: Selector::Subset(vec!["gemm".into(), "hotspot".into()]),
        architectures: Selector::Subset(vec!["RTX Titan".into()]),
        budget: 80,
        repetitions: 1,
        seed: 11,
        record: RecordLevel::Curve,
        ..ExperimentSpec::new("suite-determinism")
    };
    let a = run_campaign(&spec, &CampaignOptions::default()).expect("first run");
    let b = run_campaign(
        &spec,
        &CampaignOptions {
            serial: true,
            ..CampaignOptions::default()
        },
    )
    .expect("second run");
    assert_eq!(
        a.result.to_json(),
        b.result.to_json(),
        "campaigns must be bit-reproducible across thread counts"
    );
    let mut partial = a.result.clone();
    partial.trials.truncate(1);
    let resumed = run_campaign(
        &spec,
        &CampaignOptions {
            prior: Some(partial),
            ..CampaignOptions::default()
        },
    )
    .expect("resume");
    assert_eq!(resumed.reused, 1);
    assert_eq!(resumed.result.to_json(), a.result.to_json());
}

#[test]
fn tuning_is_deterministic_across_identical_sessions() {
    let arch = GpuArch::rtx_titan();
    for name in ["gemm", "hotspot"] {
        let p1 = bat::kernels::benchmark(name, arch.clone()).unwrap();
        let p2 = bat::kernels::benchmark(name, arch.clone()).unwrap();
        let e1 = Evaluator::builder(&p1).budget(80).build().unwrap();
        let e2 = Evaluator::builder(&p2).budget(80).build().unwrap();
        let r1 = SimulatedAnnealing::default().tune(&e1, 11);
        let r2 = SimulatedAnnealing::default().tune(&e2, 11);
        assert_eq!(r1, r2, "{name} must be bit-reproducible");
    }
}

#[test]
fn all_tuners_find_something_decent_on_nbody() {
    // N-body converges fast in the paper (90% at ~10 evals); with a 150-eval
    // budget every algorithm should be well past 60% of optimal. One
    // all-tuner campaign covers the whole sweep.
    let arch = GpuArch::rtx_3090();
    let problem = bat::kernels::benchmark("nbody", arch).unwrap();
    let landscape = Landscape::exhaustive(&problem);
    let t_opt = landscape.best().unwrap().time_ms.unwrap();
    let spec = ExperimentSpec {
        seed: 5,
        seed_policy: SeedPolicy::Sequential,
        tuners: Selector::All,
        benchmarks: Selector::Subset(vec!["nbody".into()]),
        architectures: Selector::Subset(vec!["RTX 3090".into()]),
        budget: 150,
        repetitions: 1,
        record: RecordLevel::Curve,
        ..ExperimentSpec::new("suite-nbody")
    };
    let run = run_campaign(&spec, &CampaignOptions::default()).expect("campaign runs");
    assert_eq!(run.result.trials.len(), default_tuners().len());
    for t in &run.result.trials {
        let best = t
            .best_ms
            .unwrap_or_else(|| panic!("{} found nothing", t.tuner));
        assert!(
            t_opt / best > 0.6,
            "{}: reached only {:.1}% of optimal",
            t.tuner,
            t_opt / best * 100.0
        );
    }
}

#[test]
fn evaluator_cache_and_budget_interact_correctly() {
    let problem = bat::kernels::benchmark("pnpoly", GpuArch::rtx_3060()).unwrap();
    let evaluator = Evaluator::builder(&problem).budget(10).build().unwrap();
    // Evaluate the same config 10 times: budget drains, cache holds one.
    for _ in 0..10 {
        let m = evaluator.evaluate_index(0).unwrap().unwrap();
        assert!(m.time_ms > 0.0);
    }
    assert!(evaluator.evaluate_index(0).is_none(), "budget exhausted");
    assert_eq!(evaluator.distinct_evals(), 1);
    assert_eq!(evaluator.evals_used(), 10);
}

#[test]
fn launch_failures_surface_as_eval_failures_not_panics() {
    let problem = bat::kernels::benchmark("dedisp", GpuArch::rtx_2080_ti()).unwrap();
    // 512 × 128 threads: restriction-valid, launch-invalid everywhere.
    let cfg = [512, 128, 2, 2, 0, 0, 8, 0];
    assert!(problem.space().is_valid(&cfg));
    let evaluator = Evaluator::builder(&problem).build().unwrap();
    match evaluator.evaluate_config(&cfg).unwrap() {
        Err(EvalFailure::Launch(msg)) => assert!(msg.contains("threads")),
        other => panic!("expected launch failure, got {other:?}"),
    }
}

#[test]
fn generated_sources_reflect_configs_for_all_kernels() {
    for name in bat::kernels::BENCHMARK_NAMES {
        let spec = bat::kernels::kernel_by_name(name).unwrap();
        let space = spec.build_space();
        let cfg = space.config_at(space.cardinality() / 2);
        let src = spec.source(&cfg);
        assert!(src.contains("__global__"), "{name} source has no kernel");
        assert!(src.contains("#define"), "{name} source has no parameters");
    }
}
