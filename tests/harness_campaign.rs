//! Harness contract tests: spec/result serde stability (versioned schema,
//! unknown-field rejection) and campaign determinism (parallel ≡ serial,
//! resume-from-truncated ≡ full run) — property-tested over random specs.

use bat::harness::{FaultSpec, RecordLevel, SPEC_SCHEMA};
use bat::prelude::*;
use proptest::prelude::*;

fn serial() -> CampaignOptions {
    CampaignOptions {
        serial: true,
        ..CampaignOptions::default()
    }
}

fn resume_from(prior: CampaignResult) -> CampaignOptions {
    CampaignOptions {
        prior: Some(prior),
        ..CampaignOptions::default()
    }
}

fn tiny_spec() -> ExperimentSpec {
    ExperimentSpec {
        tuners: Selector::Subset(vec!["random-search".into(), "greedy-ils".into()]),
        benchmarks: Selector::Subset(vec!["nbody".into()]),
        architectures: Selector::Subset(vec!["RTX 3060".into()]),
        budget: 15,
        repetitions: 2,
        ..ExperimentSpec::new("contract")
    }
}

#[test]
fn spec_json_round_trip_is_lossless() {
    let spec = tiny_spec();
    let back = ExperimentSpec::from_json(&spec.to_json()).unwrap();
    assert_eq!(back, spec);
    // All-selector and non-default knobs survive too.
    let fancy = ExperimentSpec {
        tuners: Selector::All,
        seed: 99,
        seed_policy: SeedPolicy::Sequential,
        record: RecordLevel::Curve,
        ..tiny_spec()
    };
    let back = ExperimentSpec::from_json(&fancy.to_json()).unwrap();
    assert_eq!(back, fancy);
}

#[test]
fn spec_rejects_unknown_fields_and_wrong_schema() {
    let json = tiny_spec().to_json();
    // Smuggle an unknown top-level field in.
    let tampered = json.replacen("\"name\"", "\"surprise\": 1,\n  \"name\"", 1);
    assert!(
        ExperimentSpec::from_json(&tampered).is_err(),
        "unknown top-level field must be rejected"
    );
    // Unknown field inside the protocol block.
    let tampered = json.replacen("\"runs\"", "\"warmup\": 2, \"runs\"", 1);
    assert!(
        ExperimentSpec::from_json(&tampered).is_err(),
        "unknown protocol field must be rejected"
    );
    // A future schema version parses but refuses to run.
    let future = json.replace(SPEC_SCHEMA, "bat/campaign-spec/v2");
    let spec = ExperimentSpec::from_json(&future).unwrap();
    assert!(spec.validate().is_err(), "wrong schema must not validate");
    // Missing schema field fails at parse time (it is not defaulted).
    let missing = json.replacen("\"schema\"", "\"schema_was\"", 1);
    assert!(ExperimentSpec::from_json(&missing).is_err());
}

#[test]
fn result_json_round_trip_is_lossless_and_versioned() {
    let run = run_campaign(&tiny_spec(), &CampaignOptions::default()).unwrap();
    let json = run.result.to_json();
    assert!(json.contains("bat/campaign-result/v1"));
    let back = CampaignResult::from_json(&json).unwrap();
    assert_eq!(back, run.result);
    // Unknown fields in an artifact are rejected, so CI diffs cannot
    // silently ignore drift.
    let tampered = json.replacen("\"trials\"", "\"wall_ms\": 1.0, \"trials\"", 1);
    assert!(CampaignResult::from_json(&tampered).is_err());
    // Trial-record level too.
    let tampered = json.replacen("\"tuner\"", "\"host\": \"ci\", \"tuner\"", 1);
    assert!(CampaignResult::from_json(&tampered).is_err());
}

#[test]
fn artifacts_contain_no_volatile_data() {
    // Wall time, throughput and host facts live on CampaignRun only; the
    // serialized artifact must stay a pure function of the spec.
    let json = run_campaign(&tiny_spec(), &CampaignOptions::default())
        .unwrap()
        .result
        .to_json();
    for forbidden in ["wall", "time_stamp", "timestamp", "duration", "host"] {
        assert!(
            !json.contains(&format!("\"{forbidden}")),
            "artifact leaks volatile field {forbidden:?}"
        );
    }
}

proptest! {
    #[test]
    fn parallel_serial_and_resumed_runs_are_byte_identical(
        (budget, seed, reps, policy, cut) in (
            5u64..25,
            0u64..1000,
            1u32..3,
            0u8..2,
            0usize..6,
        )
    ) {
        let spec = ExperimentSpec {
            tuners: Selector::Subset(vec![
                "random-search".into(),
                "simulated-annealing".into(),
            ]),
            benchmarks: Selector::Subset(vec!["nbody".into()]),
            architectures: Selector::Subset(vec!["RTX 2080 Ti".into()]),
            budget,
            repetitions: reps,
            seed,
            seed_policy: if policy == 0 {
                SeedPolicy::Derived
            } else {
                SeedPolicy::Sequential
            },
            record: RecordLevel::Curve,
            ..ExperimentSpec::new("prop")
        };
        let parallel = run_campaign(&spec, &CampaignOptions::default()).unwrap();
        let serial = run_campaign(&spec, &serial()).unwrap();
        let json = parallel.result.to_json();
        prop_assert_eq!(&json, &serial.result.to_json());

        // Resuming from any truncation of the artifact reproduces it.
        let mut partial = parallel.result.clone();
        let keep = cut.min(partial.trials.len());
        partial.trials.truncate(keep);
        let resumed = run_campaign(&spec, &resume_from(partial)).unwrap();
        prop_assert_eq!(resumed.reused, keep);
        prop_assert_eq!(&resumed.result.to_json(), &json);
    }

    /// The PR-3/5 determinism contract survives fault injection: a chaos
    /// campaign is byte-identical across the parallel pool, the serial
    /// oracle, and resume from any truncation — retry chains, quarantine
    /// and all — because fault draws are counter-based, never stateful.
    #[test]
    fn fault_injected_campaigns_are_byte_identical(
        (budget, seed, cut, transient, crash) in (
            8u64..25,
            0u64..1000,
            0usize..6,
            1u32..5,
            0u32..3,
        )
    ) {
        let spec = ExperimentSpec {
            tuners: Selector::Subset(vec![
                "random-search".into(),
                "greedy-ils".into(),
            ]),
            benchmarks: Selector::Subset(vec!["nbody".into()]),
            architectures: Selector::Subset(vec!["RTX 2080 Ti".into()]),
            budget,
            repetitions: 2,
            seed,
            record: RecordLevel::Curve,
            faults: Some(FaultSpec {
                transient_rate: f64::from(transient) * 0.05,
                timeout_rate: 0.02,
                outlier_rate: 0.03,
                crash_rate: f64::from(crash) * 0.04,
                quarantine_after: Some(2),
                ..Default::default()
            }),
            ..ExperimentSpec::new("chaos-prop")
        };
        let parallel = run_campaign(&spec, &CampaignOptions::default()).unwrap();
        let serial = run_campaign(&spec, &serial()).unwrap();
        let json = parallel.result.to_json();
        prop_assert_eq!(&json, &serial.result.to_json());

        let mut partial = parallel.result.clone();
        let keep = cut.min(partial.trials.len());
        partial.trials.truncate(keep);
        let resumed = run_campaign(&spec, &resume_from(partial)).unwrap();
        prop_assert_eq!(resumed.reused, keep);
        prop_assert_eq!(&resumed.result.to_json(), &json);
    }
}

/// A zero-rate fault block canonicalizes to *absent* (`set_fault_rate(0)`
/// on a spec without other fault knobs), and its artifact is byte-identical
/// to the fault-free campaign's — the "off by default, byte-identical when
/// disabled" guarantee, checked at the artifact level.
#[test]
fn zero_fault_rate_artifact_matches_the_fault_free_one() {
    let baseline = tiny_spec();
    let mut zeroed = tiny_spec();
    zeroed.set_fault_rate(0.0);
    assert_eq!(
        zeroed, baseline,
        "zero-rate fault block must canonicalize away"
    );
    assert_eq!(
        run_campaign(&zeroed, &CampaignOptions::default())
            .unwrap()
            .result
            .to_json(),
        run_campaign(&baseline, &CampaignOptions::default())
            .unwrap()
            .result
            .to_json()
    );

    // An explicitly present all-zero block must also change nothing but
    // the embedded spec: trial records stay identical.
    let mut explicit = tiny_spec();
    explicit.faults = Some(FaultSpec {
        quarantine_after: Some(3),
        ..Default::default()
    });
    let with_block = run_campaign(&explicit, &CampaignOptions::default()).unwrap();
    let without = run_campaign(&baseline, &CampaignOptions::default()).unwrap();
    assert_eq!(with_block.result.trials, without.result.trials);
}
