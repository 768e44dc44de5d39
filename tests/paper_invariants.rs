//! Paper-level invariants: the quantitative anchors from the BAT 2.0 paper
//! that the reproduction pins down exactly, and the qualitative shapes it
//! must preserve.

use bat::analysis::sampled_valid;
use bat::prelude::*;

/// Table VIII, column 1 — exact products of Tables I–VII.
#[test]
fn table_viii_cardinalities_exact() {
    let expected: [(&str, u64); 7] = [
        ("pnpoly", 4_092),
        ("nbody", 9_408),
        ("convolution", 18_432),
        ("gemm", 82_944),
        ("expdist", 9_732_096),
        ("hotspot", 22_200_000),
        ("dedisp", 123_863_040),
    ];
    for (name, cardinality) in expected {
        let space = bat::kernels::kernel_by_name(name).unwrap().build_space();
        assert_eq!(space.cardinality(), cardinality, "{name}");
    }
}

/// Table VIII, column 2 — GEMM's constrained count matches the paper
/// exactly (CLBlast restrictions with KWG = 32 folded in); Pnpoly has no
/// restrictions; Hotspot is within 1% of the paper's count.
#[test]
fn table_viii_constrained_counts() {
    let gemm = bat::kernels::kernel_by_name("gemm").unwrap().build_space();
    assert_eq!(gemm.count_valid(), 17_956, "paper value, exact");

    let pnpoly = bat::kernels::kernel_by_name("pnpoly")
        .unwrap()
        .build_space();
    assert_eq!(pnpoly.count_valid(), 4_092, "paper value, exact");

    let hotspot = bat::kernels::kernel_by_name("hotspot")
        .unwrap()
        .build_space();
    let count = hotspot.count_valid() as f64;
    let paper = 21_850_147.0;
    assert!(
        (count - paper).abs() / paper < 0.01,
        "hotspot constrained {count} vs paper {paper}"
    );
}

/// §VI-A / Fig. 1b: Hotspot has a detached cluster of very fast
/// configurations.
#[test]
fn hotspot_has_a_fast_cluster() {
    let problem = bat::kernels::benchmark("hotspot", GpuArch::rtx_3090()).unwrap();
    let landscape = sampled_valid(&problem, 4_000, 1, 40_000_000).unwrap();
    let dist = PerformanceDistribution::from_times(&landscape.times(), 25).unwrap();
    assert!(
        dist.best_rel > 3.5,
        "hotspot best-vs-median should be large, got {:.2}",
        dist.best_rel
    );
    assert!(
        dist.fast_cluster_mass > 0.0005,
        "the fast cluster must be populated"
    );
}

/// Fig. 4: Hotspot's max-speedup-over-median is the largest of the suite on
/// Turing (the paper's outlier claim), and every benchmark shows > 1.2x.
#[test]
fn speedups_have_the_papers_shape() {
    let arch = GpuArch::rtx_2080_ti();
    let mut speedups = Vec::new();
    for name in bat::kernels::BENCHMARK_NAMES {
        let problem = bat::kernels::benchmark(name, arch.clone()).unwrap();
        let landscape = if ["pnpoly", "nbody", "gemm", "convolution"].contains(&name) {
            Landscape::exhaustive(&problem)
        } else {
            sampled_valid(&problem, 3_000, 0, 30_000_000).unwrap()
        };
        let s = max_speedup_over_median(&landscape).unwrap();
        assert!(s > 1.2, "{name}: optimum barely beats median ({s:.2}x)");
        speedups.push((name, s));
    }
    let (max_name, _) = speedups
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    assert_eq!(*max_name, "hotspot", "speedups: {speedups:?}");
}

/// Fig. 5: transferring optimal configurations between architectures loses
/// performance; the matrix diagonal is exactly 1.
#[test]
fn portability_diagonal_is_unity_and_transfer_loses() {
    let archs = GpuArch::paper_testbed();
    let problems: Vec<_> = archs
        .iter()
        .map(|a| bat::kernels::benchmark("nbody", a.clone()).unwrap())
        .collect();
    let landscapes: Vec<_> = problems.iter().map(|p| Landscape::exhaustive(p)).collect();
    let refs: Vec<&dyn TuningProblem> = problems.iter().map(|p| p as &dyn TuningProblem).collect();
    let m = portability_matrix(&refs, &landscapes);
    for i in 0..4 {
        let d = m.values[i][i].unwrap();
        assert!((d - 1.0).abs() < 1e-9, "diagonal must be optimal");
    }
    let worst = m.worst_transfer().unwrap();
    assert!(
        worst < 0.999,
        "some transfer must lose performance, worst = {worst}"
    );
}

/// Fig. 6 / §VI-F: the regressor fits the landscapes well (paper: R² ≥
/// 0.992 except Convolution) and importance is consistent across GPUs.
#[test]
fn feature_importance_is_strong_and_consistent() {
    use bat::analysis::{default_gbdt_params, feature_importance};
    let mut top_features = Vec::new();
    for arch in GpuArch::paper_testbed() {
        let problem = bat::kernels::benchmark("nbody", arch).unwrap();
        let landscape = Landscape::exhaustive(&problem);
        let fi =
            feature_importance(problem.space(), &landscape, &default_gbdt_params(), 2, 0).unwrap();
        assert!(
            fi.r2 > 0.97,
            "R² = {} too weak on {}",
            fi.r2,
            problem.platform()
        );
        let top = fi
            .pfi
            .feature_names
            .iter()
            .zip(&fi.pfi.importances)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(n, _)| n.clone())
            .unwrap();
        top_features.push(top);
    }
    // The most important parameter is the same on every architecture.
    assert!(
        top_features.windows(2).all(|w| w[0] == w[1]),
        "top feature differs across GPUs: {top_features:?}"
    );
}

/// §VI-H: permutation importances sum past the baseline R² on GEMM —
/// the paper's evidence for parameter interactions and global optimization.
#[test]
fn gemm_importances_reveal_interactions() {
    use bat::analysis::{default_gbdt_params, feature_importance};
    let problem = bat::kernels::benchmark("gemm", GpuArch::rtx_3090()).unwrap();
    let landscape = Landscape::exhaustive(&problem);
    let fi = feature_importance(problem.space(), &landscape, &default_gbdt_params(), 2, 3).unwrap();
    assert!(
        fi.pfi.total_importance() > fi.pfi.baseline_r2 * 1.2,
        "sum {} vs baseline {}",
        fi.pfi.total_importance(),
        fi.pfi.baseline_r2
    );
}

/// Fig. 2: N-body and Expdist converge much faster than GEMM under random
/// search (the paper's ordering of convergence difficulty).
#[test]
fn convergence_ordering_matches_paper() {
    let arch = GpuArch::rtx_titan();
    let evals_to_90 = |name: &str, samples: usize| -> usize {
        let problem = bat::kernels::benchmark(name, arch.clone()).unwrap();
        let landscape = if samples == 0 {
            Landscape::exhaustive(&problem)
        } else {
            sampled_valid(&problem, samples, 2, 50_000_000).unwrap()
        };
        let times: Vec<Option<f64>> = landscape.samples.iter().map(|s| s.time_ms).collect();
        random_search_convergence(&times, 2_000, 60, 4)
            .evals_to_reach(0.9)
            .unwrap_or(2_001)
    };
    let nbody = evals_to_90("nbody", 0);
    let expdist = evals_to_90("expdist", 3_000);
    let gemm = evals_to_90("gemm", 0);
    assert!(
        nbody < gemm && expdist < gemm,
        "nbody {nbody}, expdist {expdist}, gemm {gemm}"
    );
}
