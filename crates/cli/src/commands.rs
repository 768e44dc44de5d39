//! Subcommand implementations: one function per paper table/figure plus
//! tuning utilities.

use bat_analysis::{
    default_gbdt_params, default_proportions, feature_importance, important_on_any,
    max_speedup_over_median, portability_matrix, proportion_of_centrality,
    random_search_convergence, reduce_space, FitnessFlowGraph, Landscape, PageRankParams,
    PerformanceDistribution,
};
use bat_core::{Error, EvalBackend, Evaluator, Protocol, TuningProblem};
use bat_harness::{
    cache_error, run_campaign, tuner_by_name, CampaignOptions, CampaignResult, CampaignSummary,
    ExperimentSpec, RecordLevel, SeedPolicy, Selector,
};
use bat_space::Neighborhood;
use bat_tuners::{default_tuners, Tuner};

use crate::ctx::{
    apply_threads, bench_on, f, kernel, paper_landscape, pct, print_table, selected_archs,
    selected_benches, Opts, EXHAUSTIVE_BENCHES,
};

/// `bat list` — benchmarks, spaces, architectures.
pub fn cmd_list(_opts: &Opts) -> Result<(), Error> {
    println!("BAT-rs benchmark suite (BAT 2.0 reproduction)\n");
    println!("Benchmarks:");
    let mut rows = Vec::new();
    for name in bat_kernels::BENCHMARK_NAMES {
        let k = bat_kernels::kernel_by_name(name).unwrap();
        let s = k.build_space();
        rows.push(vec![
            name.to_string(),
            s.num_params().to_string(),
            s.cardinality().to_string(),
            s.restrictions().len().to_string(),
        ]);
    }
    print_table(
        &[
            "benchmark".into(),
            "params".into(),
            "cardinality".into(),
            "restrictions".into(),
        ],
        &rows,
    );
    println!("\nSimulated testbed GPUs:");
    let mut rows = Vec::new();
    for a in bat_gpusim::GpuArch::paper_testbed() {
        rows.push(vec![
            a.name.to_string(),
            format!("{:?}", a.family),
            a.sm_count.to_string(),
            f(a.peak_gflops() / 1000.0, 1),
            f(a.mem_bandwidth_gbs, 0),
        ]);
    }
    print_table(
        &[
            "gpu".into(),
            "family".into(),
            "SMs".into(),
            "peak TFLOP/s".into(),
            "BW GB/s".into(),
        ],
        &rows,
    );
    println!("\nTuners:");
    for t in default_tuners() {
        println!("  {}", t.name());
    }
    println!("\nMulti-objective tuners (`bat pareto`, campaign objective specs):");
    for t in bat_moo::moo_tuners() {
        println!("  {}", t.name());
    }
    Ok(())
}

/// `bat tables` — Tables I–VII (the tunable parameter spaces).
pub fn cmd_tables(opts: &Opts) -> Result<(), Error> {
    for name in selected_benches(opts)? {
        let k = kernel(&name)?;
        let s = k.build_space();
        println!("\nTable: tunable parameters — {name} kernel");
        let rows: Vec<Vec<String>> = s
            .params()
            .iter()
            .map(|p| {
                let vals = if p.values.len() > 12 {
                    let head: Vec<String> = p.values[..6].iter().map(|v| v.to_string()).collect();
                    format!("{{{}, ..., {}}}", head.join(", "), p.values.last().unwrap())
                } else {
                    let all: Vec<String> = p.values.iter().map(|v| v.to_string()).collect();
                    format!("{{{}}}", all.join(", "))
                };
                vec![p.name.clone(), vals, p.len().to_string()]
            })
            .collect();
        print_table(&["parameter".into(), "values".into(), "#".into()], &rows);
        if !s.restrictions().is_empty() {
            println!("  restrictions:");
            for r in s.restrictions() {
                println!("    {}", r.source);
            }
        }
        println!("  cardinality: {}", s.cardinality());
    }
    Ok(())
}

/// `bat table8` — search-space sizes (cardinality, constrained, valid,
/// reduced, reduce-constrained).
pub fn cmd_table8(opts: &Opts) -> Result<(), Error> {
    let samples = opts.get_usize("--samples", 10_000)?;
    let seed = opts.get_u64("--seed", 0)?;
    let archs = selected_archs(opts)?;
    println!("Table VIII: search space sizes of benchmarks in BAT-rs\n");
    let mut rows = Vec::new();
    for name in selected_benches(opts)? {
        let k = kernel(&name)?;
        let space = k.build_space();
        let cardinality = space.cardinality();
        let constrained = space.count_valid_factored();

        // Valid: architecture-dependent launch success, known exactly only
        // for the exhaustively-searched benchmarks.
        let valid = if EXHAUSTIVE_BENCHES.contains(&name.as_str()) {
            let mut lo = u64::MAX;
            let mut hi = 0u64;
            for arch in &archs {
                let b = bench_on(&name, arch)?;
                let l = Landscape::exhaustive(&b);
                let v = l.valid_count() as u64;
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if lo == hi {
                lo.to_string()
            } else {
                format!("{lo} - {hi}")
            }
        } else {
            "N/A".to_string()
        };

        // Reduced: keep parameters with PFI >= 0.05 on any architecture.
        let mut per_arch = Vec::new();
        let mut best_cfg: Option<Vec<i64>> = None;
        let mut best_time = f64::INFINITY;
        for arch in &archs {
            let b = bench_on(&name, arch)?;
            let l = paper_landscape(&b, samples, seed);
            if let Some(fi) = feature_importance(b.space(), &l, &default_gbdt_params(), 2, seed) {
                per_arch.push((fi.pfi.feature_names.clone(), fi.pfi.importances.clone()));
            }
            if let Some(best) = l.best() {
                let t = best.time_ms.unwrap();
                if t < best_time {
                    best_time = t;
                    best_cfg = Some(b.space().config_at(best.index));
                }
            }
        }
        let important = important_on_any(&per_arch, 0.05);
        let (reduced, reduce_constrained) = match best_cfg {
            Some(cfg) => {
                let r = reduce_space(&space, &important, &cfg).expect("reduce");
                (
                    r.reduced_cardinality.to_string(),
                    r.reduced_constrained.to_string(),
                )
            }
            None => ("N/A".into(), "N/A".into()),
        };

        rows.push(vec![
            name.clone(),
            cardinality.to_string(),
            constrained.to_string(),
            valid,
            reduced,
            reduce_constrained,
        ]);
    }
    print_table(
        &[
            "benchmark".into(),
            "cardinality".into(),
            "constrained".into(),
            "valid".into(),
            "reduced".into(),
            "reduce-constrained".into(),
        ],
        &rows,
    );
    Ok(())
}

/// `bat fig1` — performance distributions centred on the median config.
pub fn cmd_fig1(opts: &Opts) -> Result<(), Error> {
    let samples = opts.get_usize("--samples", 10_000)?;
    let seed = opts.get_u64("--seed", 0)?;
    let bins = opts.get_usize("--bins", 20)?;
    for name in selected_benches(opts)? {
        println!(
            "\nFig 1 ({name}): distribution of configuration performance (relative to median)"
        );
        let mut rows = Vec::new();
        for arch in selected_archs(opts)? {
            let b = bench_on(&name, &arch)?;
            let l = paper_landscape(&b, samples, seed);
            let times = l.times();
            let Some(d) = PerformanceDistribution::from_times(&times, bins) else {
                rows.push(vec![arch.name.to_string(), "no valid configs".into()]);
                continue;
            };
            rows.push(vec![
                arch.name.to_string(),
                f(d.worst_rel, 3),
                f(d.best_rel, 3),
                f(d.central_mass * 100.0, 1),
                f(d.fast_cluster_mass * 100.0, 2),
                sparkline(&d.counts),
            ]);
        }
        print_table(
            &[
                "gpu".into(),
                "worst rel".into(),
                "best rel".into(),
                "±10% of median %".into(),
                "fast-cluster %".into(),
                "density (worst→best)".into(),
            ],
            &rows,
        );
    }
    Ok(())
}

/// `bat fig2` — random-search convergence curves.
pub fn cmd_fig2(opts: &Opts) -> Result<(), Error> {
    let samples = opts.get_usize("--samples", 10_000)?;
    let seed = opts.get_u64("--seed", 0)?;
    let reps = opts.get_usize("--reps", 100)?;
    let max_evals = opts.get_usize("--max-evals", 1000)?;
    for name in selected_benches(opts)? {
        println!("\nFig 2 ({name}): median best-so-far relative performance vs evaluations");
        let mut rows = Vec::new();
        for arch in selected_archs(opts)? {
            let b = bench_on(&name, &arch)?;
            let l = paper_landscape(&b, samples, seed);
            let times: Vec<Option<f64>> = l.samples.iter().map(|s| s.time_ms).collect();
            let c = random_search_convergence(&times, max_evals, reps, seed);
            let probe = |n: usize| -> String {
                c.evals
                    .iter()
                    .position(|&e| e >= n)
                    .map(|i| f(c.median_rel_perf[i], 3))
                    .unwrap_or_else(|| "-".into())
            };
            rows.push(vec![
                arch.name.to_string(),
                probe(10),
                probe(100),
                probe(max_evals),
                c.evals_to_reach(0.9)
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| format!(">{max_evals}")),
            ]);
        }
        print_table(
            &[
                "gpu".into(),
                "rel perf @10".into(),
                "@100".into(),
                format!("@{max_evals}"),
                "evals to 90%".into(),
            ],
            &rows,
        );
    }
    Ok(())
}

/// `bat fig3` — proportion of centrality (exhaustive benchmarks).
pub fn cmd_fig3(opts: &Opts) -> Result<(), Error> {
    let seed = opts.get_u64("--seed", 0)?;
    let benches = match opts.get("--bench") {
        Some(_) => selected_benches(opts)?,
        // The paper computes the metric only where exhaustion was feasible.
        None => vec!["gemm".into(), "convolution".into(), "pnpoly".into()],
    };
    let proportions = default_proportions();
    for name in benches {
        println!("\nFig 3 ({name}): proportion of centrality (p = 0.00 .. 0.50)");
        let mut rows = Vec::new();
        for arch in selected_archs(opts)? {
            let b = bench_on(&name, &arch)?;
            let l = paper_landscape(&b, opts.get_usize("--samples", 10_000)?, seed);
            let g = FitnessFlowGraph::build(b.space(), &l, Neighborhood::HammingAny);
            if g.is_empty() {
                rows.push(vec![arch.name.to_string(), "empty FFG".into()]);
                continue;
            }
            let c = proportion_of_centrality(&g, &proportions, &PageRankParams::default());
            let mut row = vec![arch.name.to_string(), c.n_minima.to_string()];
            for v in &c.proportion_of_centrality {
                row.push(f(*v, 3));
            }
            rows.push(row);
        }
        let mut header = vec!["gpu".to_string(), "minima".to_string()];
        for p in &proportions {
            header.push(format!("p={p:.2}"));
        }
        print_table(&header, &rows);
    }
    Ok(())
}

/// `bat fig4` — max speedup over the median configuration.
pub fn cmd_fig4(opts: &Opts) -> Result<(), Error> {
    let samples = opts.get_usize("--samples", 10_000)?;
    let seed = opts.get_u64("--seed", 0)?;
    println!("Fig 4: max speedup of optimum over median configuration\n");
    let archs = selected_archs(opts)?;
    let mut rows = Vec::new();
    for name in selected_benches(opts)? {
        let mut row = vec![name.clone()];
        for arch in &archs {
            let b = bench_on(&name, arch)?;
            let l = paper_landscape(&b, samples, seed);
            row.push(
                max_speedup_over_median(&l)
                    .map(|s| format!("{s:.2}x"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        rows.push(row);
    }
    let mut header = vec!["benchmark".to_string()];
    header.extend(archs.iter().map(|a| a.name.to_string()));
    print_table(&header, &rows);
    Ok(())
}

/// `bat fig5` — performance portability matrices.
pub fn cmd_fig5(opts: &Opts) -> Result<(), Error> {
    let samples = opts.get_usize("--samples", 10_000)?;
    let seed = opts.get_u64("--seed", 0)?;
    let benches = match opts.get("--bench") {
        Some(_) => selected_benches(opts)?,
        None => vec!["convolution".into(), "pnpoly".into(), "nbody".into()],
    };
    let archs = selected_archs(opts)?;
    for name in benches {
        println!("\nFig 5 ({name}): portability of optimal configs (row = tuned on, col = run on)");
        let problems: Vec<_> = archs
            .iter()
            .map(|a| bench_on(&name, a))
            .collect::<Result<_, _>>()?;
        let landscapes: Vec<_> = problems
            .iter()
            .map(|b| paper_landscape(b, samples, seed))
            .collect();
        let refs: Vec<&dyn TuningProblem> =
            problems.iter().map(|b| b as &dyn TuningProblem).collect();
        let m = portability_matrix(&refs, &landscapes);
        let mut rows = Vec::new();
        for (r, row_vals) in m.values.iter().enumerate() {
            let mut row = vec![m.platforms[r].clone()];
            for v in row_vals {
                row.push(pct(*v));
            }
            rows.push(row);
        }
        let mut header = vec!["tuned on \\ run on".to_string()];
        header.extend(m.platforms.iter().cloned());
        print_table(&header, &rows);
        if let (Some(w), Some(b)) = (m.worst_transfer(), m.best_transfer()) {
            println!(
                "  worst transfer: {:.1}% of optimal, best transfer: {:.1}%",
                w * 100.0,
                b * 100.0
            );
        }
    }
    Ok(())
}

/// `bat fig6` — permutation feature importance per benchmark × GPU.
pub fn cmd_fig6(opts: &Opts) -> Result<(), Error> {
    let samples = opts.get_usize("--samples", 10_000)?;
    let seed = opts.get_u64("--seed", 0)?;
    for name in selected_benches(opts)? {
        println!(
            "\nFig 6 ({name}): permutation feature importance (GBDT regressor on log-runtime)"
        );
        let k = kernel(&name)?;
        let space = k.build_space();
        let mut header = vec!["gpu".to_string(), "R²".to_string()];
        header.extend(space.names().iter().cloned());
        header.push("Σ importance".into());
        let mut rows = Vec::new();
        for arch in selected_archs(opts)? {
            let b = bench_on(&name, &arch)?;
            let l = paper_landscape(&b, samples, seed);
            let Some(fi) = feature_importance(b.space(), &l, &default_gbdt_params(), 2, seed)
            else {
                rows.push(vec![arch.name.to_string(), "no data".into()]);
                continue;
            };
            let mut row = vec![arch.name.to_string(), f(fi.r2, 4)];
            for imp in &fi.pfi.importances {
                row.push(f(*imp, 3));
            }
            row.push(f(fi.pfi.total_importance(), 3));
            rows.push(row);
        }
        print_table(&header, &rows);
    }
    Ok(())
}

/// Build the sequential-seed campaign the comparison-style subcommands
/// share: every suite tuner on an explicit benchmark × architecture set,
/// `repeats` repetitions with the historical per-repetition seeds
/// `0..repeats`, compact (curve-only) records. Benchmark names are
/// lowercased here because spec selectors match exactly, unlike the
/// fuzzy kernel registry.
fn comparison_campaign(
    name: &str,
    benches: &[String],
    archs: &[bat_gpusim::GpuArch],
    budget: u64,
    repeats: u64,
) -> Result<CampaignResult, Error> {
    let spec = ExperimentSpec {
        tuners: Selector::All,
        benchmarks: Selector::Subset(benches.iter().map(|b| b.to_ascii_lowercase()).collect()),
        architectures: Selector::Subset(archs.iter().map(|a| a.name.to_string()).collect()),
        budget,
        repetitions: u32::try_from(repeats)
            .map_err(|_| Error::spec(format!("--repeats {repeats} is out of range")))?,
        seed_policy: SeedPolicy::Sequential,
        record: RecordLevel::Curve,
        ..ExperimentSpec::new(name)
    };
    Ok(run_campaign(&spec, &CampaignOptions::default())?.result)
}

/// Parse and validate the CLI's `--batch` knob with the same rules the
/// spec path applies: positive, and no wider than the budget.
fn batch_arg(opts: &Opts, budget: u64) -> Result<u32, Error> {
    let batch = opts.get_u64("--batch", 1)?;
    if batch == 0 {
        return Err(Error::spec("--batch must be positive"));
    }
    if batch > budget {
        return Err(Error::spec(format!(
            "--batch {batch} exceeds the budget {budget}"
        )));
    }
    u32::try_from(batch).map_err(|_| Error::spec(format!("--batch {batch} is out of range")))
}

/// The tuner named by `--tuner`, or `default`.
fn tuner_arg(opts: &Opts, default: &str) -> Result<Box<dyn Tuner>, Error> {
    let name = opts.get("--tuner").unwrap_or_else(|| default.into());
    tuner_by_name(&name)
        .ok_or_else(|| Error::spec(format!("unknown tuner {name:?}; see `bat list`")))
}

/// `bat tune` — run one tuner on one benchmark.
pub fn cmd_tune(opts: &Opts) -> Result<(), Error> {
    let bench = opts.get("--bench").unwrap_or_else(|| "gemm".into());
    let archs = selected_archs(opts)?;
    let arch = &archs[0];
    let budget = opts.get_u64("--budget", 500)?;
    let seed = opts.get_u64("--seed", 0)?;
    // Measurement parallelism of the ask/tell protocol (1 = the classic
    // serial protocol, byte-identical to the historical output).
    let batch = batch_arg(opts, budget)?;
    let tuner = tuner_arg(opts, "random-search")?;

    let b = bench_on(&bench, arch)?;
    let eval = Evaluator::builder(&b)
        .protocol(Protocol::default().with_batch(batch))
        .budget(budget)
        .build()?;
    let run = tuner.tune(&eval, seed);
    println!(
        "tuned {bench} on {} with {} ({} evaluations, {} successful)",
        arch.name,
        tuner.name(),
        run.trials.len(),
        run.successes()
    );
    match run.best() {
        Some(best) => {
            println!("best runtime: {:.4} ms", best.time_ms().unwrap());
            println!("best configuration:");
            for (p, v) in b.space().names().iter().zip(&best.config) {
                println!("  {p} = {v}");
            }
            if opts.has("--source") {
                println!(
                    "\ngenerated kernel source:\n{}",
                    b.spec().source(&best.config)
                );
            }
        }
        None => println!("no valid configuration found within budget"),
    }
    if opts.has("--json") {
        println!("{}", run.to_json());
    }
    if opts.has("--t4") {
        let t4 = bat_core::t4::T4Results::from_run(&run, b.space().names());
        println!("{}", t4.to_json());
    }
    Ok(())
}

/// `bat noise` — measurement-noise sensitivity: the noise-free quality of
/// the configuration each protocol selects, across noise levels.
pub fn cmd_noise(opts: &Opts) -> Result<(), Error> {
    // Convolution's dense near-optimal plateau makes it the benchmark
    // where noise actually flips selections; wide-margin benchmarks
    // (e.g. expdist) are noise-robust.
    let bench = opts.get("--bench").unwrap_or_else(|| "convolution".into());
    let archs = selected_archs(opts)?;
    let arch = &archs[0];
    let budget = opts.get_u64("--budget", 150)?;
    let repeats = opts.get_u64("--repeats", 15)?;
    let seed = opts.get_u64("--seed", 0)?;
    let b = bench_on(&bench, arch)?;
    let sigmas = [0.0, 0.01, 0.05, 0.10, 0.20, 0.40];

    println!(
        "Noise sensitivity on {bench} / {} (random search, budget {budget}, {repeats} repeats)\n",
        arch.name
    );
    let mut rows = Vec::new();
    for runs in [1u32, 5] {
        let pts = bat_analysis::noise_sensitivity(
            &b,
            &bat_tuners::RandomSearch,
            &sigmas,
            runs,
            budget,
            repeats,
            seed,
        );
        for pt in pts {
            rows.push(vec![
                format!("{runs}"),
                format!("{:.0}%", pt.sigma * 100.0),
                f(pt.median_selected_ms, 4),
                format!("{} - {}", f(pt.quartiles.0, 4), f(pt.quartiles.1, 4)),
            ]);
        }
    }
    print_table(
        &[
            "runs/config".into(),
            "noise".into(),
            "median selected (ms, noise-free)".into(),
            "IQR".into(),
        ],
        &rows,
    );
    println!(
        "\nSelected configurations are re-scored noise-free: rising medians \
         show the winner's curse; 5 runs/config (the paper-style protocol) \
         defends against it."
    );
    Ok(())
}

/// `bat t1` — print a benchmark's specification as a T1 JSON document
/// (the BAT ecosystem's benchmark-definition format).
pub fn cmd_t1(opts: &Opts) -> Result<(), Error> {
    let bench = opts.get("--bench").unwrap_or_else(|| "gemm".into());
    let doc = bat_kernels::t1::to_t1(kernel(&bench)?.as_ref(), "CUDA");
    println!("{}", doc.to_json());
    Ok(())
}

/// `bat difficulty` — classical landscape-difficulty metrics (FDC,
/// random-walk autocorrelation, local-minima statistics) complementing
/// the fig3 centrality metric.
pub fn cmd_difficulty(opts: &Opts) -> Result<(), Error> {
    // Walk metrics need dense landscapes; default to the paper's four
    // exhaustively-searched benchmarks (same scoping as fig3's centrality).
    let benches = match opts.get("--bench") {
        Some(_) => selected_benches(opts)?,
        None => EXHAUSTIVE_BENCHES.iter().map(|s| s.to_string()).collect(),
    };
    let archs = selected_archs(opts)?;
    let samples = opts.get_usize("--samples", 3_000)?;
    let seed = opts.get_u64("--seed", 0)?;

    println!(
        "Landscape difficulty metrics (Hamming-any walks, {samples} samples for large spaces)\n"
    );
    let nan_dash = |v: f64, d: usize| -> String {
        if v.is_nan() {
            "-".into()
        } else if v.is_infinite() {
            "inf".into()
        } else {
            f(v, d)
        }
    };
    let mut rows = Vec::new();
    for bench in &benches {
        for arch in &archs {
            let b = bench_on(bench, arch)?;
            let l = paper_landscape(&b, samples, seed);
            let r = bat_analysis::difficulty_default(b.space(), &l, seed);
            rows.push(vec![
                format!("{bench}/{}", arch.name),
                f(r.fdc, 3),
                nan_dash(r.autocorrelation[0], 3),
                nan_dash(r.correlation_length, 2),
                r.n_local_minima.to_string(),
                f(r.minima_mean_quality, 3),
            ]);
        }
    }
    print_table(
        &[
            "benchmark/GPU".into(),
            "FDC".into(),
            "rho(1)".into(),
            "corr len".into(),
            "minima".into(),
            "min quality".into(),
        ],
        &rows,
    );
    println!(
        "\nFDC > 0: fitness guides toward the optimum. rho(1): lag-1 walk \
         autocorrelation (higher = smoother). min quality: mean t_opt/t_min \
         over local minima."
    );
    Ok(())
}

/// `bat compare` — all tuners on one benchmark at equal budget.
pub fn cmd_compare(opts: &Opts) -> Result<(), Error> {
    let bench = opts.get("--bench").unwrap_or_else(|| "gemm".into());
    let archs = selected_archs(opts)?;
    let arch = &archs[0];
    let budget = opts.get_u64("--budget", 300)?;
    let seeds = opts.get_u64("--repeats", 5)?;

    println!(
        "Tuner comparison on {bench} / {} (budget {budget} evals, {seeds} repeats)\n",
        arch.name
    );
    let b = bench_on(&bench, arch)?;
    // Ground truth via exhaustive or heavy random sampling.
    let l = paper_landscape(&b, opts.get_usize("--samples", 10_000)?, 0);
    let t_opt = l.best().map(|s| s.time_ms.unwrap()).unwrap_or(f64::NAN);

    // One declarative campaign replaces the bespoke (tuner × seed) loop;
    // sequential seeds reproduce the historical numbers exactly.
    let campaign = comparison_campaign(
        "compare",
        std::slice::from_ref(&bench),
        &archs[..1],
        budget,
        seeds,
    )?;

    let mut rows = Vec::new();
    for tuner in bat_harness::known_tuners() {
        let mut bests: Vec<f64> = campaign
            .trials
            .iter()
            .filter(|t| t.tuner == tuner)
            .filter_map(|t| t.best_ms)
            .collect();
        if bests.is_empty() {
            rows.push(vec![tuner, "-".into(), "-".into(), "-".into()]);
            continue;
        }
        bests.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = bests[bests.len() / 2];
        let best = bests[0];
        rows.push(vec![tuner, f(median, 4), f(best, 4), f(t_opt / median, 3)]);
    }
    rows.sort_by(|a, b| a[1].partial_cmp(&b[1]).unwrap());
    print_table(
        &[
            "tuner".into(),
            "median best (ms)".into(),
            "overall best (ms)".into(),
            "rel perf vs opt".into(),
        ],
        &rows,
    );
    println!("\n  sampled optimum: {t_opt:.4} ms");
    Ok(())
}

/// `bat source` — print generated CUDA for a configuration.
pub fn cmd_source(opts: &Opts) -> Result<(), Error> {
    let bench = opts.get("--bench").unwrap_or_else(|| "gemm".into());
    let k = kernel(&bench)?;
    let space = k.build_space();
    let config: Vec<i64> = match opts.get("--config") {
        Some(s) => s
            .split(',')
            .map(|v| {
                v.trim().parse().map_err(|_| {
                    Error::spec(format!("--config values must be integers, got {v:?}"))
                })
            })
            .collect::<Result<_, _>>()?,
        None => {
            // Default: first valid configuration.
            let mut cfg = None;
            let mut scratch = vec![0i64; space.num_params()];
            for idx in 0..space.cardinality() {
                space.decode_into(idx, &mut scratch);
                if space.is_valid(&scratch) {
                    cfg = Some(scratch.clone());
                    break;
                }
            }
            cfg.ok_or_else(|| Error::spec(format!("{bench} has no valid configuration")))?
        }
    };
    if config.len() != space.num_params() {
        return Err(Error::spec(format!(
            "--config has {} values; {bench} has {} parameters",
            config.len(),
            space.num_params()
        )));
    }
    println!("{}", k.source(&config));
    Ok(())
}

/// `bat convergence-tuners` — Fig 2-style curves for every tuner (an
/// extension beyond the paper's random-search-only figure).
pub fn cmd_convergence_tuners(opts: &Opts) -> Result<(), Error> {
    let bench = opts.get("--bench").unwrap_or_else(|| "gemm".into());
    let archs = selected_archs(opts)?;
    let arch = &archs[0];
    let budget = opts.get_u64("--budget", 400)?;
    let seeds = opts.get_u64("--repeats", 9)?;
    let b = bench_on(&bench, arch)?;
    let l = paper_landscape(&b, opts.get_usize("--samples", 10_000)?, 0);
    let t_opt = l.best().map(|s| s.time_ms.unwrap()).unwrap_or(f64::NAN);

    println!(
        "Convergence of all tuners on {bench} / {} (median of {seeds} runs)\n",
        arch.name
    );
    let checkpoints = [10usize, 25, 50, 100, 200, 400];
    // The campaign's compact best-so-far curves answer every checkpoint
    // probe, so no bespoke (tuner × seed) loop is needed.
    let campaign = comparison_campaign(
        "convergence",
        std::slice::from_ref(&bench),
        &archs[..1],
        budget,
        seeds,
    )?;
    let mut rows = Vec::new();
    for tuner in bat_harness::known_tuners() {
        let mut row = vec![tuner.clone()];
        for &c in &checkpoints {
            let mut col: Vec<f64> = campaign
                .trials
                .iter()
                .filter(|t| t.tuner == tuner)
                .map(|t| t.best_at(c as u64).map(|ms| t_opt / ms).unwrap_or(0.0))
                .collect();
            col.sort_by(|a, b| a.partial_cmp(b).unwrap());
            row.push(f(col[col.len() / 2], 3));
        }
        rows.push(row);
    }
    let mut header = vec!["tuner".to_string()];
    header.extend(checkpoints.iter().map(|c| format!("@{c}")));
    print_table(&header, &rows);
    Ok(())
}

/// `bat ranks` — cross-benchmark tuner ranking (Friedman-style mean
/// ranks over all selected benchmarks and GPUs).
pub fn cmd_ranks(opts: &Opts) -> Result<(), Error> {
    let benches = selected_benches(opts)?;
    let archs = selected_archs(opts)?;
    let budget = opts.get_u64("--budget", 150)?;
    let repeats = opts.get_u64("--repeats", 5)?;

    println!(
        "Cross-benchmark tuner ranking (budget {budget} evals, {repeats} repeats, {} benchmark×GPU cells)\n",
        benches.len() * archs.len()
    );
    // One campaign covers every benchmark × GPU cell; the harness summary's
    // Friedman-style rank reducer matches the comparison module's
    // aggregation (per-repetition ranks, failures last, ties averaged).
    let campaign = comparison_campaign("ranks", &benches, &archs, budget, repeats)?;
    let summary = CampaignSummary::from_result(&campaign);
    for cell in &summary.cells {
        println!(
            "— {} / {}: winner {}",
            cell.benchmark,
            cell.architecture,
            cell.winner().unwrap_or("-")
        );
    }
    println!("\nOverall mean ranks (1 = best):\n");
    let mut order: Vec<usize> = (0..summary.tuners.len()).collect();
    order.sort_by(|&a, &b| summary.overall_rank[a].total_cmp(&summary.overall_rank[b]));
    println!("{:<24} {:>10}", "tuner", "mean rank");
    for &t in &order {
        println!(
            "{:<24} {:>10.2}",
            summary.tuners[t], summary.overall_rank[t]
        );
    }
    Ok(())
}

/// `bat pareto` — multi-objective tuning: the non-dominated time × energy
/// front of each benchmark × GPU cell, found by a multi-objective tuner.
///
/// Deterministic end to end: the tuner is seeded, measurements are
/// deterministic, and the archive resolves ties by fixed keys — two
/// invocations (at any thread count) print identical fronts.
pub fn cmd_pareto(opts: &Opts) -> Result<(), Error> {
    let budget = opts.get_u64("--budget", 300)?;
    let seed = opts.get_u64("--seed", 0)?;
    let capacity = opts.get_usize("--capacity", 16)?;
    let batch = batch_arg(opts, budget)?;
    let tuner = tuner_arg(opts, "nsga2")?;

    for bench in selected_benches(opts)? {
        for arch in selected_archs(opts)? {
            let b = bench_on(&bench, &arch)?;
            let eval = Evaluator::builder(&b)
                .protocol(Protocol::default().with_batch(batch))
                .budget(budget)
                .energy(true)
                .build()?;
            let run = tuner.tune(&eval, seed);
            let stats = EvalBackend::stats(&eval);
            let archive = bat_moo::front_of_run(&run, capacity);
            println!(
                "\nPareto front: {bench} on {} ({} with {} evaluations, {} distinct)",
                arch.name,
                tuner.name(),
                stats.evals,
                stats.distinct
            );
            if archive.is_empty() {
                println!("  no valid configuration found");
                continue;
            }
            let names = b.space().names();
            let rows: Vec<Vec<String>> = archive
                .front()
                .iter()
                .map(|p| {
                    let cfg = b.space().config_at(p.index);
                    let cfg: Vec<String> = names
                        .iter()
                        .zip(&cfg)
                        .map(|(n, v)| format!("{n}={v}"))
                        .collect();
                    vec![
                        f(p.time_ms, 4),
                        f(p.energy_mj, 2),
                        f(p.time_ms * p.energy_mj, 2),
                        cfg.join(" "),
                    ]
                })
                .collect();
            print_table(
                &[
                    "time ms".into(),
                    "energy mJ".into(),
                    "EDP mJ·ms".into(),
                    "configuration".into(),
                ],
                &rows,
            );
            let points: Vec<(f64, f64)> = archive
                .front()
                .iter()
                .map(|p| (p.time_ms, p.energy_mj))
                .collect();
            if let Some(reference) = bat_analysis::hypervolume_reference([points.as_slice()]) {
                let summary = bat_analysis::front_summary(&points, reference).unwrap();
                println!(
                    "  front size {} | hypervolume {:.4} (ref {:.4} ms, {:.2} mJ) | best time {:.4} ms | best energy {:.2} mJ",
                    summary.front_size,
                    summary.hypervolume,
                    reference.0,
                    reference.1,
                    summary.best_time_ms,
                    summary.best_energy_mj,
                );
            }
        }
    }
    Ok(())
}

/// `bat serve` — host tuning sessions as a long-running daemon. Clients
/// (`bat campaign --connect HOST:PORT`, or any `bat/wire/v1` speaker)
/// open sessions, stream evaluation batches
/// and read budget/statistics accounting; the daemon schedules batches
/// fairly across sessions and bounds each session's in-flight work.
/// Serves until a client sends a `shutdown` request.
pub fn cmd_serve(opts: &Opts) -> Result<(), Error> {
    apply_threads(opts)?;
    let addr = opts
        .get("--addr")
        .unwrap_or_else(|| "127.0.0.1:4780".into());
    let mut config = bat_server::ServerConfig::default();
    if let Some(slots) = opts.get("--slots") {
        config.max_concurrent_batches =
            slots
                .parse()
                .ok()
                .filter(|&n: &usize| n >= 1)
                .ok_or_else(|| {
                    Error::spec(format!("--slots expects a positive integer, got {slots:?}"))
                })?;
    }
    if let Some(inflight) = opts.get("--inflight") {
        config.max_inflight_per_session = inflight
            .parse()
            .ok()
            .filter(|&n: &usize| n >= 1)
            .ok_or_else(|| {
                Error::spec(format!(
                    "--inflight expects a positive integer, got {inflight:?}"
                ))
            })?;
    }
    config.heartbeat_secs = match opts.get("--heartbeat") {
        Some(secs) => secs.parse().map_err(|_| {
            Error::spec(format!(
                "--heartbeat expects seconds (0 disables), got {secs:?}"
            ))
        })?,
        None => 10,
    };
    let listener = std::net::TcpListener::bind(&addr)
        .map_err(|e| Error::transport(format!("bind {addr}: {e}")))?;
    let local = listener.local_addr().map_err(Error::io)?;
    // Announce readiness on stdout (flushed) so scripts can wait for it.
    println!("bat serve: listening on {local}");
    // `--metrics ADDR` exposes the process-wide registry as Prometheus
    // text exposition over plain HTTP, scrapeable while campaigns run.
    if let Some(maddr) = opts.get("--metrics") {
        let mlistener = std::net::TcpListener::bind(&maddr)
            .map_err(|e| Error::transport(format!("bind metrics {maddr}: {e}")))?;
        let mlocal = mlistener.local_addr().map_err(Error::io)?;
        println!("bat serve: metrics on http://{mlocal}/metrics");
        let _ = bat_server::spawn_metrics_endpoint(mlistener);
    }
    // `--cache FILE` loads a shipped `bat/cache/v1` artifact; the daemon
    // then answers wire-level `cache_lookup` requests from it.
    let cache = match opts.get("--cache") {
        Some(path) => {
            let store = bat_cache::CacheStore::load(&path).map_err(cache_error)?;
            println!("bat serve: cache {path} loaded ({})", store.summary());
            Some(std::sync::Arc::new(store))
        }
        None => None,
    };
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let daemon = match cache {
        Some(store) => bat_server::Daemon::with_cache(config, store),
        None => bat_server::Daemon::new(config),
    };
    daemon.serve(listener)?;
    eprintln!("bat serve: shutdown requested, exiting");
    Ok(())
}

/// `bat cache` — inspect, merge and slim `bat/cache/v1` artifacts.
///
/// * `inspect --input FILE [--bench B --arch A]` — summary plus one row
///   per cell; with a benchmark and a target architecture it also ranks
///   the cached donor architectures by machine-feature distance (the
///   warm-start neighbour order).
/// * `merge --inputs A,B,... --out FILE` — merge shard caches. The merge
///   is commutative and associative, so any grouping of the same inputs
///   produces the same bytes.
/// * `evict --input FILE --out FILE` — drop the exact-replay trial blobs,
///   keeping only the compact cells (the form to ship).
pub fn cmd_cache(opts: &Opts) -> Result<(), Error> {
    let sub = opts
        .positional(0)
        .ok_or_else(|| Error::spec("usage: bat cache <inspect|merge|evict> [options]"))?;
    match sub.as_str() {
        "inspect" => {
            let path = opts.require("--input", "FILE")?;
            let store = bat_cache::CacheStore::load(&path).map_err(cache_error)?;
            println!("{path}: {} ({})", store.summary(), store.schema);
            let mut rows = Vec::new();
            for cell in &store.cells {
                let (ms, config) = match cell.best() {
                    Some(best) => {
                        let cfg: Vec<String> = best
                            .config
                            .iter()
                            .map(|(k, v)| format!("{k}={v}"))
                            .collect();
                        (f(best.ms, 4), cfg.join(","))
                    }
                    None => ("-".into(), "-".into()),
                };
                rows.push(vec![
                    cell.benchmark.clone(),
                    cell.architecture.clone(),
                    cell.scenario.clone(),
                    cell.evals.to_string(),
                    ms,
                    config,
                ]);
            }
            print_table(
                &[
                    "benchmark".into(),
                    "architecture".into(),
                    "scenario".into(),
                    "evals".into(),
                    "best ms".into(),
                    "best config".into(),
                ],
                &rows,
            );
            if let (Some(bench), Some(arch)) = (opts.get("--bench"), opts.get("--arch")) {
                let target = bat_gpusim::GpuArch::by_name(&arch)
                    .ok_or_else(|| Error::spec(format!("unknown GPU architecture {arch:?}")))?;
                let near = bat_cache::transfer::nearest_architectures(&store, &bench, &target);
                if near.is_empty() {
                    println!("\nno cached donor architectures for {bench} on {arch}");
                } else {
                    println!("\nwarm-start donors for {bench} on {arch} (nearest first):");
                    for (name, dist) in near {
                        println!("  {name}  distance {dist:.4}");
                    }
                }
            }
            Ok(())
        }
        "merge" => {
            let inputs = opts.require("--inputs", "A,B,...")?;
            let out = opts.require("--out", "FILE")?;
            let mut merged = bat_cache::CacheStore::new();
            for path in inputs.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                let store = bat_cache::CacheStore::load(path).map_err(cache_error)?;
                merged.merge(&store);
            }
            merged.save_atomic(&out).map_err(cache_error)?;
            println!("wrote {out} ({})", merged.summary());
            Ok(())
        }
        "evict" => {
            let input = opts.require("--input", "FILE")?;
            let out = opts.require("--out", "FILE")?;
            let mut store = bat_cache::CacheStore::load(&input).map_err(cache_error)?;
            store.evict_trials();
            store.save_atomic(&out).map_err(cache_error)?;
            println!("wrote {out} ({})", store.summary());
            Ok(())
        }
        other => Err(Error::spec(format!(
            "unknown cache subcommand {other:?}; expected inspect, merge or evict"
        ))),
    }
}

/// `bat online` — KTT-style dynamic autotuning: does tuning during the
/// application run pay for itself?
pub fn cmd_online(opts: &Opts) -> Result<(), Error> {
    let bench = opts.get("--bench").unwrap_or_else(|| "convolution".into());
    let archs = selected_archs(opts)?;
    let arch = &archs[0];
    let invocations = opts.get_usize("--invocations", 5000)?;
    let tuning_budget = opts.get_u64("--budget", 200)?;
    let seed = opts.get_u64("--seed", 0)?;

    let b = bench_on(&bench, arch)?;
    let l = paper_landscape(&b, opts.get_usize("--samples", 10_000)?, seed);
    let t_opt = l.best().map(|s| s.time_ms.unwrap());

    println!(
        "Dynamic autotuning on {bench} / {} ({invocations} invocations, {tuning_budget} spent tuning)\n",
        arch.name
    );
    let sim = bat_analysis::OnlineSimulation {
        invocations,
        policy: bat_analysis::OnlinePolicy::TuneThenExploit { tuning_budget },
        protocol: Protocol::default(),
    };
    let mut rows = Vec::new();
    let mut static_ms = f64::NAN;
    for tuner in default_tuners() {
        let trace = sim.run(&b, tuner.as_ref(), None, t_opt, seed);
        static_ms = trace.static_ms;
        rows.push(vec![
            tuner.name().to_string(),
            f(trace.total_ms / 1000.0, 2),
            f(trace.speedup_over_static(), 2),
            trace.overhead_vs_oracle().map_or("-".into(), |o| f(o, 3)),
            trace.break_even().map_or("never".into(), |b| b.to_string()),
        ]);
    }
    rows.sort_by(|a, b| {
        a[1].parse::<f64>()
            .unwrap()
            .total_cmp(&b[1].parse::<f64>().unwrap())
    });
    print_table(
        &[
            "tuner".into(),
            "time-to-solution s".into(),
            "speedup vs static".into(),
            "overhead vs oracle".into(),
            "break-even @".into(),
        ],
        &rows,
    );
    println!(
        "\nstatic default: {} s  oracle: {} s",
        f(static_ms / 1000.0, 2),
        t_opt.map_or("-".into(), |t| f(t * invocations as f64 / 1000.0, 2)),
    );
    Ok(())
}

fn sparkline(counts: &[u64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = counts.iter().copied().max().unwrap_or(1).max(1) as f64;
    counts
        .iter()
        .map(|&c| {
            // Log scale so small-but-present bins stay visible.
            let v = if c == 0 {
                0.0
            } else {
                ((c as f64).ln() + 1.0) / (max.ln() + 1.0)
            };
            LEVELS[((v * 7.0).round() as usize).min(7)]
        })
        .collect()
}
