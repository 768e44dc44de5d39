//! Golden digests: the committed campaign artifacts, one tuning run per
//! tuner and kernel, and a grid of tuning runs per tuner on synthetic
//! spaces, each reduced to an FNV-1a 64-bit digest of the exact bytes
//! written, checked against the committed table `tests/golden_digests.txt`.
//!
//! A refactor that claims to leave the science untouched must leave this
//! table untouched. Each artifact is digested at 1, 2 and 4 pool threads
//! and once through the loopback endpoint (the real `bat/wire/v1` codec),
//! so thread count and endpoint are held to the same bytes. The
//! ci-smoke grid also runs at `protocol.batch = 8` on 1, 2 and 4 pool
//! threads, and at record level `curve` under the energy, EDP
//! and scalarized objectives, whose records carry `best_energy_mj` without
//! an evaluation history.
//!
//! The `synthetic/*` rows pin every tuner's batch-1 trajectory on the
//! synthetic objective of `tests/property_step_equivalence.rs`, over six
//! small spaces with and without a restriction. Each row digests one tuner
//! variant's whole grid of budgets, seeds and noise settings in grid
//! order; the `synthetic/paper-scale/*` rows run the model-based tuners at
//! `paper-ranking` budgets on a six-parameter space whose restriction
//! rejects 40 % of it, the optimum included.
//!
//! `BAT_BLESS=1 cargo test --test golden` rewrites the table. Regenerating
//! it is a deliberate change that the commit must explain. The digests
//! depend on float formatting and libm, so the check runs on x86_64 Linux
//! only.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::collections::BTreeMap;
use std::path::Path;

use bat::core::{EvalBackend, EvalFailure, Evaluator, Protocol, RetryPolicy, SyntheticProblem};
use bat::gpusim::{FaultModel, GpuArch};
use bat::harness::{
    load_spec_file, metadata_path, run_campaign, CampaignOptions, Endpoint, ExperimentSpec,
    ObjectiveMode, ObjectiveSpec, RecordLevel,
};
use bat::moo::Nsga2;
use bat::space::{ConfigSpace, Param};
use bat::tuners::{
    default_tuners, BasinHopping, BayesianOptimization, DifferentialEvolution, ExhaustiveSearch,
    GeneticAlgorithm, IteratedLocalSearch, LocalSearch, ParticleSwarm, RandomSearch,
    SimulatedAnnealing, SmacTuner, Strategy, SurrogateTuner, Tpe, TransferDatabase, Tuner,
    WarmStartTuner,
};

const TABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_digests.txt");

/// The committed specs whose artifacts (and T4 metadata) are digested.
const SPECS: [&str; 4] = ["ci-smoke", "pareto-smoke", "chaos-smoke", "cache-transfer"];

/// Pool sizes each spec runs at.
const THREADS: [usize; 3] = [1, 2, 4];

/// Objectives the ci-smoke grid also runs under at record level `curve`,
/// at 1 thread and through loopback: `(label, mode, weight)`.
const ENERGY_OBJECTIVES: [(&str, ObjectiveMode, Option<f64>); 3] = [
    ("energy", ObjectiveMode::Energy, None),
    ("edp", ObjectiveMode::Edp, None),
    ("scalarized", ObjectiveMode::Scalarized, Some(0.3)),
];

/// Kernels every tuner's golden run searches (RTX 3090).
const KERNELS: [&str; 2] = ["gemm", "nbody"];

/// Tuners that also get memo-off faulted runs. Both revisit
/// configurations, so repeats re-run their retry chains in batch order.
const MEMO_OFF_TUNERS: [&str; 2] = ["simulated-annealing", "tpe"];

const BUDGET: u64 = 40;
const TUNER_SEED: u64 = 11;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest_file(path: &Path) -> u64 {
    fnv1a(&std::fs::read(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display())))
}

fn committed_spec(name: &str) -> ExperimentSpec {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/").to_string() + name + ".json";
    load_spec_file(&path).expect("committed spec parses")
}

/// Run `spec` to a file under `dir` and digest the artifact and its
/// metadata document as `artifact/{key}` and `meta/{key}`.
fn artifact_digests(
    spec: &ExperimentSpec,
    key: &str,
    dir: &Path,
    endpoint: &Endpoint,
    out: &mut BTreeMap<String, u64>,
) {
    let path = dir.join(format!("{}.json", key.replace('/', "-")));
    let path_str = path.to_str().expect("utf-8 temp path");
    let opts = CampaignOptions {
        endpoint: endpoint.clone(),
        out: Some(path_str.to_string()),
        ..CampaignOptions::default()
    };
    run_campaign(spec, &opts).expect("campaign runs");
    out.insert(format!("artifact/{key}"), digest_file(&path));
    out.insert(
        format!("meta/{key}"),
        digest_file(Path::new(&metadata_path(path_str))),
    );
}

fn campaign_digests(dir: &Path) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for name in SPECS {
        let spec = committed_spec(name);
        for threads in THREADS {
            rayon::with_thread_limit(threads, || {
                let key = format!("{name}/threads-{threads}");
                artifact_digests(&spec, &key, dir, &Endpoint::InProcess, &mut out);
            });
        }
        let key = format!("{name}/loopback");
        artifact_digests(&spec, &key, dir, &Endpoint::Loopback, &mut out);
    }
    let smoke = committed_spec("ci-smoke");
    let mut batched = smoke.clone();
    batched.protocol.set_batch(8);
    for threads in THREADS {
        rayon::with_thread_limit(threads, || {
            let key = format!("ci-smoke-batch-8/threads-{threads}");
            artifact_digests(&batched, &key, dir, &Endpoint::InProcess, &mut out);
        });
    }
    for (objective, mode, weight) in ENERGY_OBJECTIVES {
        let spec = ExperimentSpec {
            record: RecordLevel::Curve,
            objective: ObjectiveSpec {
                mode,
                weight,
                ..ObjectiveSpec::default()
            },
            ..smoke.clone()
        };
        let name = format!("ci-smoke-curve-{objective}");
        rayon::with_thread_limit(1, || {
            let key = format!("{name}/threads-1");
            artifact_digests(&spec, &key, dir, &Endpoint::InProcess, &mut out);
        });
        let key = format!("{name}/loopback");
        artifact_digests(&spec, &key, dir, &Endpoint::Loopback, &mut out);
    }
    out
}

/// A fault model with every fault kind live, and a retry policy with
/// backoff and quarantine on the first crash.
fn chaos() -> (FaultModel, RetryPolicy) {
    let model = FaultModel {
        transient_rate: 0.2,
        timeout_rate: 0.1,
        crash_rate: 0.1,
        outlier_rate: 0.1,
        seed: 5,
        ..FaultModel::disabled()
    };
    let policy = RetryPolicy {
        max_retries: 2,
        backoff_evals: 1,
        quarantine_after: 1,
    };
    (model, policy)
}

/// Tune once on `eval` and render the run's JSON followed by the
/// evaluator's statistics: the bytes every tuning digest covers.
fn run_record(tuner: &dyn Tuner, eval: &Evaluator<'_>, seed: u64) -> String {
    let run = tuner.tune(eval, seed);
    let stats = serde_json::to_string(&EvalBackend::stats(eval)).expect("stats serialize");
    format!("{}\n{stats}\n", run.to_json())
}

/// Tune once and digest the run's JSON followed by its statistics.
fn run_digest(
    tuner: &dyn Tuner,
    kernel: &str,
    batch: u32,
    faults: Option<(FaultModel, RetryPolicy)>,
    cache: bool,
) -> u64 {
    let problem = bat::kernels::benchmark(kernel, GpuArch::rtx_3090()).expect("known kernel");
    let protocol = Protocol {
        runs: 3,
        sigma: 0.02,
        seed: 3,
        batch,
    };
    let mut builder = Evaluator::builder(&problem)
        .protocol(protocol)
        .budget(BUDGET)
        .cache(cache)
        // NSGA-II optimizes time × energy; every other tuner time alone.
        .energy(tuner.name() == "nsga2");
    if let Some((model, policy)) = faults {
        builder = builder.faults(model, policy);
    }
    let eval = builder.build().expect("valid protocol");
    fnv1a(run_record(tuner, &eval, TUNER_SEED).as_bytes())
}

fn tuning_digests() -> BTreeMap<String, u64> {
    let tuners: Vec<Box<dyn Tuner>> = default_tuners()
        .into_iter()
        .chain(bat::moo::moo_tuners())
        .collect();
    assert_eq!(tuners.len(), 14, "13 single-objective tuners plus NSGA-II");
    let mut out = BTreeMap::new();
    // Four pool threads on every host, so smac-forest's tree fits run on
    // the pool; batches themselves are measured on this thread.
    rayon::with_thread_limit(4, || {
        for tuner in &tuners {
            for kernel in KERNELS {
                for batch in [1, 8] {
                    let key = format!("run/{}/{kernel}/batch-{batch}", tuner.name());
                    let t = tuner.as_ref();
                    out.insert(
                        format!("{key}/clean"),
                        run_digest(t, kernel, batch, None, true),
                    );
                    out.insert(
                        format!("{key}/faulted"),
                        run_digest(t, kernel, batch, Some(chaos()), true),
                    );
                    if MEMO_OFF_TUNERS.contains(&tuner.name()) {
                        out.insert(
                            format!("{key}/faulted-memo-off"),
                            run_digest(t, kernel, batch, Some(chaos()), false),
                        );
                    }
                }
            }
        }
    });
    out
}

/// The spaces of the synthetic grid, from the `arb_space` family of
/// `tests/property_step_equivalence.rs`: `(radices, restricted)`. Parameter
/// `pi` takes the values `1..=radices[i]`; a restricted space keeps only
/// `p0 + p1 <= r0 + r1 - 1`.
const SYNTHETIC_SPACES: [(&[i64], bool); 6] = [
    (&[2, 2], false),
    (&[6, 6], true),
    (&[3, 5, 2], false),
    (&[3, 5, 2], true),
    (&[6, 4, 5], false),
    (&[5, 6, 4], true),
];

/// Builds one tuner variant for a space (warm starts seed from it).
type MakeTuner = fn(&ConfigSpace) -> Box<dyn Tuner>;

/// The search tuners of the synthetic grid: `(row label, tuner)`.
const SEARCH_TUNERS: [(&str, MakeTuner); 11] = [
    ("random-search", |_| Box::new(RandomSearch)),
    ("exhaustive", |_| Box::new(ExhaustiveSearch)),
    (
        "mls-first-improvement",
        |_| Box::new(LocalSearch::default()),
    ),
    ("mls-best-improvement", |_| {
        Box::new(LocalSearch {
            strategy: Strategy::BestImprovement,
            ..LocalSearch::default()
        })
    }),
    ("greedy-ils", |_| Box::new(IteratedLocalSearch::default())),
    ("simulated-annealing", |_| {
        Box::new(SimulatedAnnealing::default())
    }),
    ("basin-hopping", |_| Box::new(BasinHopping::default())),
    ("genetic-algorithm", |_| {
        Box::new(GeneticAlgorithm::default())
    }),
    ("particle-swarm", |_| Box::new(ParticleSwarm::default())),
    ("differential-evolution", |_| {
        Box::new(DifferentialEvolution::default())
    }),
    ("warmstart+random-search", |space| {
        Box::new(WarmStartTuner::new(transfer_seeds(space), RandomSearch))
    }),
];

/// NSGA-II cold and warm-started from a transfer database.
const NSGA2_VARIANTS: [(&str, MakeTuner); 2] = [
    ("nsga2", |_| Box::new(Nsga2::default())),
    ("nsga2-warm-started", |space| {
        let mut db = TransferDatabase::new();
        for config in transfer_seeds(space) {
            db.record("elsewhere", config);
        }
        Box::new(Nsga2::warm_started(&db, "sim"))
    }),
];

/// The model-based tuners, which fit a surrogate along every run.
const MODEL_TUNERS: [(&str, MakeTuner); 4] = [
    ("gbdt-surrogate", |_| Box::new(SurrogateTuner::default())),
    ("gp-bo-ei", |_| Box::new(BayesianOptimization::default())),
    ("tpe", |_| Box::new(Tpe::default())),
    ("smac-forest", |_| Box::new(SmacTuner::default())),
];

/// The model-based tuners at `paper-ranking` budgets on the paper-scale
/// space: `(row label, tuner, budget, seed)`. Invalid configurations add
/// no observation, so along these runs gp-bo-ei reuses its last GP, grows
/// its factor by appended rows and refits when an input range moves; the
/// capped variant fits subsamples, and gbdt-surrogate skips the refits
/// that would see nothing new.
const PAPER_SCALE: [(&str, MakeTuner, u64, u64); 4] = [
    (
        "gp-bo-ei",
        |_| Box::new(BayesianOptimization::default()),
        150,
        3,
    ),
    (
        "gp-bo-ei-capped",
        |_| {
            let mut capped = BayesianOptimization::default();
            capped.max_observations = 10;
            Box::new(capped)
        },
        80,
        5,
    ),
    (
        "gbdt-surrogate",
        |_| Box::new(SurrogateTuner::default()),
        150,
        3,
    ),
    ("smac-forest", |_| Box::new(SmacTuner::default()), 150, 3),
];

/// Warm-start seeds for `space`: its first configuration, one that is not
/// representable (skipped for free) and its last.
fn transfer_seeds(space: &ConfigSpace) -> Vec<Vec<i64>> {
    vec![
        space.config_at(0),
        vec![999; space.num_params()],
        space.config_at(space.cardinality() - 1),
    ]
}

/// A space whose parameter `pi` takes the values `1..=radices[i]`, cut by
/// `restriction` when there is one.
fn synthetic_space(radices: &[i64], restriction: Option<&str>) -> ConfigSpace {
    let mut b = ConfigSpace::builder();
    for (i, &radix) in radices.iter().enumerate() {
        b = b.param(Param::new(format!("p{i}"), (1..=radix).collect::<Vec<_>>()));
    }
    if let Some(restriction) = restriction {
        b = b.restrict(restriction);
    }
    b.build().expect("valid space")
}

/// The synthetic objective of `tests/property_step_equivalence.rs`.
fn synthetic_problem(
    space: ConfigSpace,
) -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, EvalFailure> + Send + Sync> {
    SyntheticProblem::new("step-prop", "sim", space, |c| {
        let mut t = 1.0;
        for (i, &v) in c.iter().enumerate() {
            t += ((v - 2 * (i as i64 % 3)) * (v - 2)) as f64 * 0.25 + v as f64 * 0.1;
        }
        Ok(t.abs() + 0.5)
    })
}

/// Digest every case of one tuner variant at batch 1, in grid order: for
/// each space, noise setting, budget and seed, the bytes [`run_record`]
/// renders.
fn grid_digest(
    tuner: MakeTuner,
    spaces: &[ConfigSpace],
    noisy: &[bool],
    budgets: &[u64],
    seeds: &[u64],
) -> u64 {
    let mut bytes = String::new();
    for space in spaces {
        let problem = synthetic_problem(space.clone());
        let tuner = tuner(space);
        for &noisy in noisy {
            let protocol = if noisy {
                Protocol {
                    runs: 3,
                    sigma: 0.05,
                    seed: 7,
                    batch: 1,
                }
            } else {
                Protocol::noiseless()
            };
            for &budget in budgets {
                for &seed in seeds {
                    let eval = Evaluator::builder(&problem)
                        .protocol(protocol)
                        .budget(budget)
                        .energy(tuner.name() == "nsga2")
                        .build()
                        .expect("valid protocol");
                    bytes += &run_record(tuner.as_ref(), &eval, seed);
                }
            }
        }
    }
    fnv1a(bytes.as_bytes())
}

fn synthetic_digests() -> BTreeMap<String, u64> {
    let spaces: Vec<ConfigSpace> = SYNTHETIC_SPACES
        .iter()
        .map(|&(radices, restricted)| {
            let cut = format!("p0 + p1 <= {}", radices[0] + radices[1] - 1);
            synthetic_space(radices, restricted.then_some(cut.as_str()))
        })
        .collect();
    let both = [false, true];
    let mut out = BTreeMap::new();
    for (label, tuner) in SEARCH_TUNERS {
        let digest = grid_digest(tuner, &spaces, &both, &[20, 53, 89], &[0, 7, 999]);
        out.insert(format!("synthetic/{label}"), digest);
    }
    for (label, tuner) in NSGA2_VARIANTS {
        let digest = grid_digest(tuner, &spaces, &both, &[50, 83, 119], &[0, 7, 999]);
        out.insert(format!("synthetic/{label}"), digest);
    }
    for (label, tuner) in MODEL_TUNERS {
        let digest = grid_digest(tuner, &spaces, &[false], &[24, 39], &[0, 42]);
        out.insert(format!("synthetic/{label}"), digest);
    }
    // A `paper-ranking`-sized space: six parameters, with a restriction
    // that rejects 40 % of it, the optimum of the objective included, so
    // tuners keep proposing configurations that fail, as they do near a
    // kernel's resource limits.
    let paper = [synthetic_space(
        &[4, 4, 3, 5, 3, 4],
        Some("p0 + p1 + p2 >= 7"),
    )];
    for (label, tuner, budget, seed) in PAPER_SCALE {
        let digest = grid_digest(tuner, &paper, &[false], &[budget], &[seed]);
        out.insert(format!("synthetic/paper-scale/{label}"), digest);
    }
    out
}

fn render(table: &BTreeMap<String, u64>) -> String {
    let mut text = String::from(
        "# FNV-1a 64-bit digests checked by tests/golden.rs (x86_64 Linux).\n\
         # Regenerate deliberately: BAT_BLESS=1 cargo test --test golden\n",
    );
    for (key, digest) in table {
        text += &format!("{key} {digest:016x}\n");
    }
    text
}

fn parse(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, hex) = l.rsplit_once(' ').expect("`key digest` line");
            let digest = u64::from_str_radix(hex, 16).expect("hex digest");
            (key.to_string(), digest)
        })
        .collect()
}

#[test]
fn artifacts_and_tuning_runs_match_the_golden_digests() {
    // Per-process, so concurrent test runs never read each other's
    // artifacts.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (mut got, runs, synthetic) = std::thread::scope(|s| {
        let campaigns = s.spawn(|| campaign_digests(&dir));
        let synthetic = s.spawn(synthetic_digests);
        let runs = tuning_digests();
        (
            campaigns.join().expect("campaign digests"),
            runs,
            synthetic.join().expect("synthetic digests"),
        )
    });
    got.extend(runs);
    got.extend(synthetic);
    std::fs::remove_dir_all(&dir).expect("removing the temp dir");

    if std::env::var_os("BAT_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(TABLE, render(&got)).expect("writing the golden table");
        return;
    }
    let want = parse(&std::fs::read_to_string(TABLE).expect("committed golden table"));
    let mut diffs: Vec<String> = Vec::new();
    for key in want
        .keys()
        .chain(got.keys())
        .collect::<std::collections::BTreeSet<_>>()
    {
        match (want.get(key), got.get(key)) {
            (Some(w), Some(g)) if w == g => {}
            (w, g) => diffs.push(format!("{key}: committed {w:016x?}, now {g:016x?}")),
        }
    }
    assert!(
        diffs.is_empty(),
        "{} golden digest(s) differ:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
