//! Observability contract tests: telemetry is strictly out-of-band.
//!
//! The invariants under test:
//!
//! * campaign artifacts are **byte-identical** with span tracing on, off,
//!   or (in the CI `no-obs` leg) compiled out entirely;
//! * the emitted trace is well-formed `bat/trace/v1` JSONL covering the
//!   campaign → trial → step → batch hierarchy;
//! * the metrics registry's evaluation/resilience counters agree exactly
//!   with the artifact's own per-trial tallies — one source of truth.
//!
//! Trace sink and metrics registry are process-wide, so every test that
//! runs campaigns serializes on one lock and reads counters as deltas.

use std::sync::{Mutex, OnceLock};

use bat::harness::FaultSpec;
use bat::prelude::*;
use proptest::prelude::*;

/// Campaign-running tests share the process-wide registry and trace sink;
/// this lock keeps their counter deltas and trace windows exact.
fn obs_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Install the process-wide trace sink once (into a per-process temp
/// file), leaving emission **disabled**; tests enable it around the
/// windows they inspect. Returns the sink path.
fn trace_sink() -> &'static std::path::Path {
    static PATH: OnceLock<std::path::PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let path = std::env::temp_dir().join(format!("bat-obs-test-{}.jsonl", std::process::id()));
        bat::obs::trace::install(&path).expect("install trace sink");
        bat::obs::trace::disable();
        path
    })
}

fn tiny_spec(seed: u64, budget: u64) -> ExperimentSpec {
    ExperimentSpec {
        tuners: Selector::Subset(vec!["random-search".into(), "greedy-ils".into()]),
        benchmarks: Selector::Subset(vec!["nbody".into()]),
        architectures: Selector::Subset(vec!["RTX 3060".into()]),
        budget,
        repetitions: 2,
        seed,
        ..ExperimentSpec::new("obs-contract")
    }
}

fn artifact_json(spec: &ExperimentSpec) -> String {
    run_campaign(spec, &CampaignOptions::default())
        .expect("campaign")
        .result
        .to_json()
}

#[test]
fn artifact_bytes_identical_with_tracing_on_and_off() {
    let _guard = obs_lock().lock().unwrap();
    let path = trace_sink();
    let spec = tiny_spec(2024, 25);

    let plain = artifact_json(&spec);
    bat::obs::trace::enable();
    let traced = artifact_json(&spec);
    bat::obs::trace::disable();
    bat::obs::trace::flush();

    assert_eq!(plain, traced, "tracing must never touch the artifact");
    // The trace itself is wall-clock-dependent, but it must exist and
    // carry spans for the window we just traced.
    let body = std::fs::read_to_string(path).unwrap();
    assert!(body.lines().count() > 1, "trace window emitted no spans");
}

#[test]
fn trace_lines_parse_and_cover_the_span_hierarchy() {
    let _guard = obs_lock().lock().unwrap();
    let path = trace_sink();
    let spec = tiny_spec(7, 30);

    bat::obs::trace::enable();
    let _ = artifact_json(&spec);
    bat::obs::trace::disable();
    bat::obs::trace::flush();

    let as_u64 = |v: &serde_json::Value| match v {
        serde_json::Value::UInt(u) => Some(*u),
        serde_json::Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    };
    let body = std::fs::read_to_string(path).unwrap();
    let mut kinds = std::collections::BTreeSet::new();
    let mut metas = 0usize;
    for line in body.lines() {
        let v: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("unparseable trace line {line:?}: {e:?}"));
        assert_eq!(
            v.get("v").and_then(|s| s.as_str()),
            Some("bat/trace/v1"),
            "every line is schema-versioned"
        );
        if let Some(kind) = v.get("span").and_then(|s| s.as_str()) {
            assert!(v.get("id").and_then(&as_u64).is_some_and(|id| id > 0));
            assert!(v.get("t_us").and_then(&as_u64).is_some());
            assert!(v.get("dur_us").and_then(&as_u64).is_some());
            kinds.insert(kind.to_string());
        } else {
            metas += 1;
            assert!(
                v.get("meta")
                    .and_then(|m| m.get("epoch_unix_ms"))
                    .and_then(&as_u64)
                    .is_some(),
                "meta line: {line}"
            );
        }
    }
    assert_eq!(metas, 1, "exactly one meta line per sink");
    for want in ["campaign", "trial", "step", "batch"] {
        assert!(kinds.contains(want), "missing {want} spans; got {kinds:?}");
    }
}

#[cfg(not(feature = "no-obs"))]
#[test]
fn eval_and_resilience_counters_match_the_artifact_exactly() {
    use bat::obs::metrics::counter_value;
    let _guard = obs_lock().lock().unwrap();
    let before = |name: &str| counter_value(name).unwrap_or(0);

    // A fault-injected campaign so retries and quarantines are non-zero.
    let spec = ExperimentSpec {
        faults: Some(FaultSpec {
            transient_rate: 0.2,
            timeout_rate: 0.05,
            crash_rate: 0.05,
            ..FaultSpec::default()
        }),
        ..tiny_spec(1337, 30)
    };
    let evals0 = before("bat_eval_evals_total");
    let retries0 =
        before("bat_eval_retries_transient_total") + before("bat_eval_retries_timeout_total");
    let quarantined0 = before("bat_eval_quarantined_total");

    let run = run_campaign(&spec, &CampaignOptions::default()).expect("campaign");

    let evals: u64 = run.result.trials.iter().map(|t| t.evals).sum();
    let retries: u64 = run.result.trials.iter().map(|t| t.retries).sum();
    let quarantined: u64 = run.result.trials.iter().map(|t| t.quarantined).sum();
    assert!(retries > 0, "chaos spec charged no retries");

    assert_eq!(
        before("bat_eval_evals_total") - evals0,
        evals,
        "registry evals disagree with the artifact's own tally"
    );
    assert_eq!(
        before("bat_eval_retries_transient_total") + before("bat_eval_retries_timeout_total")
            - retries0,
        retries,
        "registry retries disagree with the artifact's own tally"
    );
    assert_eq!(
        before("bat_eval_quarantined_total") - quarantined0,
        quarantined,
        "registry quarantines disagree with the artifact's own tally"
    );
}

#[test]
fn committed_smoke_specs_are_trace_invariant() {
    let _guard = obs_lock().lock().unwrap();
    let _ = trace_sink();
    for name in ["ci-smoke", "pareto-smoke", "chaos-smoke"] {
        let spec = bat::harness::load_spec_file(&format!("specs/{name}.json"))
            .unwrap_or_else(|e| panic!("load {name}: {e}"));
        let plain = artifact_json(&spec);
        bat::obs::trace::enable();
        let traced = artifact_json(&spec);
        bat::obs::trace::disable();
        assert_eq!(plain, traced, "{name} artifact moved under --trace");
    }
}

proptest! {
    /// Tracing stays out-of-band for arbitrary small campaigns, not just
    /// the committed smoke specs.
    #[test]
    fn tracing_never_perturbs_artifacts(seed in 0u64..1000, budget in 10u64..40) {
        let _guard = obs_lock().lock().unwrap();
        let _ = trace_sink();
        let spec = tiny_spec(seed, budget);
        let plain = artifact_json(&spec);
        bat::obs::trace::enable();
        let traced = artifact_json(&spec);
        bat::obs::trace::disable();
        prop_assert_eq!(plain, traced);
    }
}
