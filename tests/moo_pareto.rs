//! Multi-objective subsystem contract tests: the Pareto-archive invariant,
//! pinned power-model outputs, scalarized campaign determinism across
//! thread counts, and the committed pareto smoke spec's full
//! run → resume → summary round trip.

use bat::core::TuningProblem;
use bat::harness::{ObjectiveMode, ObjectiveSpec};
use bat::moo::{ParetoArchive, ParetoPoint};
use bat::prelude::*;
use proptest::prelude::*;

/// Pinned (benchmark, architecture, config index) → (time_ms, energy_mj)
/// triples. These are pure model outputs: any change to the timing or
/// power constants must fail here first, loudly, instead of silently
/// shifting every archived multi-objective artifact.
#[test]
fn energy_model_outputs_are_pinned() {
    #[allow(clippy::excessive_precision)]
    let pinned: [(&str, &str, u64, f64, f64); 6] = [
        (
            "gemm",
            "RTX 2080 Ti",
            0,
            2.7074591385200588e1,
            4.43678018479476e3,
        ),
        (
            "gemm",
            "RTX 3060",
            0,
            4.36040917477419e1,
            3.235358037073007e3,
        ),
        (
            "gemm",
            "RTX 3090",
            0,
            1.749754201552258e1,
            2.9472730891130227e3,
        ),
        (
            "gemm",
            "RTX Titan",
            0,
            2.4767972078323105e1,
            4.642598200248314e3,
        ),
        (
            "hotspot",
            "RTX 3090",
            0,
            5.804041084013331e0,
            8.251548227473478e2,
        ),
        (
            "nbody",
            "RTX 2080 Ti",
            2,
            1.7143728258994207e2,
            2.7630051825412243e4,
        ),
    ];
    for (bench, arch, index, time_ms, energy_mj) in pinned {
        let b = bat::kernels::benchmark(bench, GpuArch::by_name(arch).unwrap()).unwrap();
        let cfg = b.space().config_at(index);
        let (t, e) = b.evaluate_pure2(&cfg).unwrap();
        let e = e.expect("GPU benchmarks price energy");
        assert!(
            (t - time_ms).abs() <= 1e-12 * time_ms,
            "{bench}/{arch}#{index}: time {t} vs pinned {time_ms}"
        );
        assert!(
            (e - energy_mj).abs() <= 1e-12 * energy_mj,
            "{bench}/{arch}#{index}: energy {e} vs pinned {energy_mj}"
        );
        // And the time component matches the single-objective path exactly.
        assert_eq!(t, b.evaluate_pure(&cfg).unwrap());
    }
}

proptest! {
    /// The archive never retains a point that another member (weakly)
    /// dominates, stays sorted, and respects its capacity — under any
    /// insertion stream and any capacity.
    #[test]
    fn archive_never_retains_a_dominated_point(
        capacity in 1usize..24,
        raw in proptest::collection::vec((0u32..500, 0u32..500), 1..200),
    ) {
        let mut archive = ParetoArchive::new(capacity);
        for (i, (t, e)) in raw.iter().enumerate() {
            archive.insert(ParetoPoint {
                index: i as u64,
                time_ms: 0.5 + f64::from(*t) / 10.0,
                energy_mj: 0.5 + f64::from(*e) / 10.0,
            });
            prop_assert!(archive.check_invariants().is_ok(),
                "{:?}", archive.check_invariants());
            prop_assert!(archive.len() <= capacity);
            prop_assert!(!archive.is_empty());
        }
        // Explicit cross-check of the non-domination invariant.
        let front = archive.front();
        for a in front {
            for b in front {
                prop_assert!(
                    std::ptr::eq(a, b) || !a.dominates(b),
                    "{a:?} dominates {b:?}"
                );
            }
        }
    }

    /// Scalarized campaigns are byte-identical across thread counts: runs
    /// on 4 pool threads and on 1 must serialize to the same artifact, for
    /// every blend mode.
    #[test]
    fn scalarized_campaigns_are_byte_identical_across_thread_counts(
        seed in 0u64..64,
        mode_idx in 0usize..4,
        weight in 1u32..10,
    ) {
        let mode = [
            ObjectiveMode::Energy,
            ObjectiveMode::Edp,
            ObjectiveMode::Scalarized,
            ObjectiveMode::Chebyshev,
        ][mode_idx];
        let blended = matches!(mode, ObjectiveMode::Scalarized | ObjectiveMode::Chebyshev);
        let spec = ExperimentSpec {
            tuners: Selector::Subset(vec!["random-search".into(), "greedy-ils".into()]),
            benchmarks: Selector::Subset(vec!["nbody".into()]),
            architectures: Selector::Subset(vec!["RTX 3060".into()]),
            budget: 12,
            repetitions: 2,
            seed,
            objective: ObjectiveSpec {
                mode,
                weight: blended.then_some(f64::from(weight) / 10.0),
                ..ObjectiveSpec::default()
            },
            record: bat::harness::RecordLevel::Curve,
            ..ExperimentSpec::new("moo-prop")
        };
        let run_on = |threads| {
            rayon::with_thread_limit(threads, || {
                run_campaign(&spec, &CampaignOptions::default()).unwrap()
            })
        };
        prop_assert_eq!(run_on(4).result.to_json(), run_on(1).result.to_json());
    }
}

/// The committed pareto smoke spec round-trips: run → resume (everything
/// reused) → summary with hypervolume per tuner. This is the in-repo
/// mirror of the CI `experiment-smoke` pareto leg.
#[test]
fn pareto_smoke_spec_round_trips_with_hypervolume() {
    let spec = bat::harness::load_spec_file(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/specs/pareto-smoke.json"
    ))
    .unwrap();
    assert_eq!(spec.objective.mode, ObjectiveMode::Pareto);

    let run = run_campaign(&spec, &CampaignOptions::default()).unwrap();
    assert_eq!(run.executed, run.result.trials.len());

    // Resume from the artifact's JSON: everything is reused, bytes match.
    let parsed = CampaignResult::from_json(&run.result.to_json()).unwrap();
    let resumed = run_campaign(
        &spec,
        &CampaignOptions {
            prior: Some(parsed.clone()),
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    assert_eq!(resumed.executed, 0);
    assert_eq!(resumed.reused, run.result.trials.len());
    assert_eq!(resumed.result.to_json(), run.result.to_json());

    // Every trial recorded a clean bounded front with energy.
    for t in &run.result.trials {
        let front = t.front.as_ref().expect("pareto trials carry fronts");
        assert!(!front.is_empty() && front.len() <= 12);
        assert!(t.best_energy_mj.is_some());
    }

    // The summary reports hypervolume + front size per tuner, offline.
    let summary = CampaignSummary::from_result(&parsed);
    for cell in &summary.cells {
        for i in 0..cell.tuners.len() {
            assert!(cell.hypervolume[i].unwrap() > 0.0);
            assert!(cell.front_size[i].unwrap() >= 1.0);
        }
    }
    assert!(summary.render().contains("hypervolume"));
}

/// `nsga2` is reachable through the harness registry and deterministic
/// end to end on a real kernel (the `bat pareto` code path).
#[test]
fn nsga2_front_on_gemm_is_deterministic() {
    let tuner = bat::harness::tuner_by_name("nsga2").expect("nsga2 registered");
    let problem = bat::kernels::benchmark("gemm", GpuArch::rtx_3090()).unwrap();
    let fronts: Vec<Vec<bat::moo::ParetoPoint>> = (0..2)
        .map(|_| {
            let eval = Evaluator::builder(&problem)
                .budget(150)
                .energy(true)
                .build()
                .unwrap();
            let run = tuner.tune(&eval, 7);
            bat::moo::front_of_run(&run, 16).front().to_vec()
        })
        .collect();
    assert_eq!(fronts[0], fronts[1]);
    assert!(!fronts[0].is_empty());
}
