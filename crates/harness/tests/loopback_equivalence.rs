//! Property test: for random small campaign specs, routing evaluation
//! through the loopback daemon (client and server in one process over the
//! real `bat/wire/v1` codec) produces an artifact byte-identical to the
//! in-process run.
//!
//! This is the acceptance gate of the tuning-as-a-service redesign in
//! property form: the wire protocol, the session bookkeeping and the
//! remote backend may not perturb a single artifact byte, no matter which
//! tuner, benchmark, objective, batch size or fault block the spec drew.

use bat_harness::{
    run_campaign, CampaignOptions, Endpoint, ExperimentSpec, ObjectiveMode, ObjectiveSpec,
    RecordLevel, Selector,
};
use proptest::prelude::*;

const TUNERS: [&str; 3] = ["random-search", "greedy-ils", "simulated-annealing"];
const BENCHMARKS: [&str; 3] = ["nbody", "gemm", "pnpoly"];
const MODES: [ObjectiveMode; 5] = [
    ObjectiveMode::Time,
    ObjectiveMode::Energy,
    ObjectiveMode::Edp,
    ObjectiveMode::Scalarized,
    ObjectiveMode::Pareto,
];

fn random_spec(
    tuner: usize,
    benchmark: usize,
    mode: usize,
    budget: u64,
    batch: u32,
    fault_pct: u8,
) -> ExperimentSpec {
    let mode = MODES[mode % MODES.len()];
    let mut spec = ExperimentSpec {
        tuners: Selector::Subset(vec![TUNERS[tuner % TUNERS.len()].into()]),
        benchmarks: Selector::Subset(vec![BENCHMARKS[benchmark % BENCHMARKS.len()].into()]),
        architectures: Selector::Subset(vec!["RTX 3090".into()]),
        budget,
        repetitions: 1,
        objective: ObjectiveSpec {
            mode,
            weight: (mode == ObjectiveMode::Scalarized).then_some(0.4),
            front_capacity: (mode == ObjectiveMode::Pareto).then_some(6),
            ..ObjectiveSpec::default()
        },
        record: RecordLevel::Curve,
        ..ExperimentSpec::new("loopback-prop")
    };
    // The spec validator rejects batches larger than the trial budget.
    spec.protocol.set_batch(batch.min(budget as u32));
    spec.set_fault_rate(f64::from(fault_pct) / 100.0);
    spec
}

proptest! {
    #[test]
    fn loopback_artifacts_equal_in_process_artifacts(
        tuner in 0..TUNERS.len(),
        benchmark in 0..BENCHMARKS.len(),
        mode in 0..MODES.len(),
        extras in (3..=14u64, 1..=4u32, 0..=6u8),
    ) {
        let (budget, batch, fault_pct) = extras;
        let spec = random_spec(tuner, benchmark, mode, budget, batch, fault_pct);
        let local = run_campaign(&spec, &CampaignOptions::default()).unwrap();
        let loopback = CampaignOptions {
            endpoint: Endpoint::Loopback,
            ..CampaignOptions::default()
        };
        let loopback = run_campaign(&spec, &loopback).unwrap();
        prop_assert_eq!(
            loopback.result.to_json(),
            local.result.to_json(),
            "endpoint changed artifact bytes for spec {}",
            spec.to_json()
        );
    }
}
