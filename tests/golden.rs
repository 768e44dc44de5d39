//! Golden digests: the committed campaign artifacts and one tuning run per
//! tuner, each reduced to an FNV-1a 64-bit digest of the exact bytes
//! written, checked against the committed table `tests/golden_digests.txt`.
//!
//! A refactor that claims to leave the science untouched must leave this
//! table untouched. Each artifact is digested at 1, 2 and 4 pool threads
//! and once through the loopback endpoint (the real `bat/wire/v1` codec),
//! so thread count and endpoint are held to the same bytes; build with
//! `--features no-obs` to hold compiled-out telemetry to them too. The
//! ci-smoke grid also runs at record level `curve` under the energy, EDP
//! and scalarized objectives, whose records carry `best_energy_mj` without
//! an evaluation history.
//!
//! `BAT_BLESS=1 cargo test --test golden` rewrites the table. Regenerating
//! it is a deliberate change that the commit must explain. The digests
//! depend on float formatting and libm, so the check runs on x86_64 Linux
//! only.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::collections::BTreeMap;
use std::path::Path;

use bat::core::{EvalBackend, Evaluator, Protocol, RetryPolicy};
use bat::gpusim::{FaultModel, GpuArch};
use bat::harness::{
    load_spec_file, metadata_path, run_campaign, CampaignOptions, Endpoint, ExperimentSpec,
    ObjectiveMode, ObjectiveSpec, RecordLevel,
};
use bat::tuners::{default_tuners, Tuner};

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
    let run = tuner.tune(&eval, TUNER_SEED);
    let stats = serde_json::to_string(&EvalBackend::stats(&eval)).expect("stats serialize");
    fnv1a(format!("{}\n{stats}\n", run.to_json()).as_bytes())
}

fn tuning_digests() -> BTreeMap<String, u64> {
    let tuners: Vec<Box<dyn Tuner>> = default_tuners()
        .into_iter()
        .chain(bat::moo::moo_tuners())
        .collect();
    assert_eq!(tuners.len(), 14, "13 single-objective tuners plus NSGA-II");
    let mut out = BTreeMap::new();
    // Four pool threads on every host, so batch 8 really fans out.
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
    // Per-process, so concurrent builds (say, with and without no-obs)
    // never read each other's artifacts.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (mut got, runs) = std::thread::scope(|s| {
        let campaigns = s.spawn(|| campaign_digests(&dir));
        let runs = tuning_digests();
        (campaigns.join().expect("campaign digests"), runs)
    });
    got.extend(runs);
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
