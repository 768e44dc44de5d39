//! Campaign ↔ cache bridge: canonical scenario strings, exact trial
//! fingerprints, and the fold/replay pair that makes `--cache` work.
//!
//! The contract is byte-exactness in both directions. A trial is folded
//! into the cache under a fingerprint of *everything* that determined its
//! record — benchmark, architecture, the full measurement scenario, tuner,
//! rep, derived seed and record level — so a later campaign whose compiled
//! trial carries the same fingerprint can replay the stored record
//! verbatim through the ordinary resume machinery. A warm `--cache` run
//! therefore writes an artifact byte-identical to the cold run's while
//! executing zero trials; anything that would change a single artifact
//! byte changes the fingerprint and misses instead.

use std::fmt::Write as _;

use bat_cache::{CacheStore, CachedTrial};
use serde::{Deserialize, Serialize};

use crate::result::{CampaignResult, TrialRecord, RESULT_SCHEMA};
use crate::spec::{CompiledTrial, ExperimentSpec, ObjectiveMode, ObjectiveSpec, RecordLevel};

/// Canonical objective string for scenario keys: every knob that changes
/// what a measured objective value *means*, resolved through the same
/// defaults the evaluator applies.
fn objective_canon(o: &ObjectiveSpec) -> String {
    match o.mode {
        ObjectiveMode::Time => "time".to_string(),
        ObjectiveMode::Energy => "energy".to_string(),
        ObjectiveMode::Edp => "edp".to_string(),
        ObjectiveMode::Scalarized => format!(
            "scalarized:w={},ts={},es={}",
            o.weight.unwrap_or(0.5),
            o.time_scale_ms.unwrap_or(1.0),
            o.energy_scale_mj.unwrap_or(1.0)
        ),
        ObjectiveMode::Chebyshev => format!(
            "chebyshev:w={},ts={},es={}",
            o.weight.unwrap_or(0.5),
            o.time_scale_ms.unwrap_or(1.0),
            o.energy_scale_mj.unwrap_or(1.0)
        ),
        ObjectiveMode::Pareto => format!("pareto:k={}", o.front_capacity()),
    }
}

/// The canonical measurement-scenario string of a spec: objective, budget,
/// protocol and (when present) the resolved fault plan. Two specs with
/// equal scenario strings measure identical objective values for identical
/// configurations, which is what makes cache cells comparable across
/// campaigns; anything tuner- or trial-specific (tuner, rep, seed, record
/// level, name, shard) is deliberately excluded.
pub fn scenario_of(spec: &ExperimentSpec) -> String {
    let mut s = format!(
        "objective={};budget={};runs={};sigma={};noise_seed={};batch={}",
        objective_canon(&spec.objective),
        spec.budget,
        spec.protocol.runs,
        spec.protocol.sigma,
        spec.protocol.noise_seed,
        spec.protocol.batch()
    );
    if let Some(f) = &spec.faults {
        let model = f.model();
        let retry = f.retry_policy();
        let _ = write!(
            s,
            ";faults=tr={},to={},ol={},cr={},dl={},of={},fs={},mr={},bo={},qa={}",
            model.transient_rate,
            model.timeout_rate,
            model.outlier_rate,
            model.crash_rate,
            model.deadline_ms,
            model.outlier_factor,
            model.seed,
            retry.max_retries,
            retry.backoff_evals,
            retry.quarantine_after
        );
    }
    s
}

fn record_tag(record: RecordLevel) -> &'static str {
    match record {
        RecordLevel::Full => "full",
        RecordLevel::Curve => "curve",
    }
}

fn fingerprint_parts(
    scenario: &str,
    benchmark: &str,
    architecture: &str,
    tuner: &str,
    rep: u32,
    seed: u64,
    record: RecordLevel,
) -> String {
    format!(
        "bench={benchmark};arch={architecture};{scenario};tuner={tuner};rep={rep};seed={seed};record={}",
        record_tag(record)
    )
}

/// The exact-replay fingerprint of one compiled trial: the scenario plus
/// everything trial-specific that shapes its record. Equal fingerprints
/// imply byte-identical trial records.
pub fn trial_fingerprint(spec: &ExperimentSpec, ct: &CompiledTrial) -> String {
    fingerprint_parts(
        &scenario_of(spec),
        &ct.key.benchmark,
        &ct.key.architecture,
        &ct.key.tuner,
        ct.key.rep,
        ct.seed,
        ct.record,
    )
}

/// `from` read back as a `T`: the JSON text one writes, the other reads.
/// This turns typed trial records into the store's opaque record blobs
/// and back.
fn convert<T: Deserialize>(from: &impl Serialize) -> Result<T, serde_json::Error> {
    serde_json::from_str(&serde_json::to_string(from)?)
}

/// Fold a finished campaign into a cache store. Idempotent: a trial whose
/// fingerprint is already stored contributes nothing (so re-folding a
/// warm run, or folding the same artifact twice, is a no-op and sharded
/// caches merge cleanly). New trials contribute their successful
/// measurements to the (benchmark, architecture, scenario) cell — the full
/// per-evaluation history when the record level kept it, the best-so-far
/// curve otherwise — plus their evaluation count, and are stored verbatim
/// as replay blobs.
pub fn fold_run_into_cache(store: &mut CacheStore, result: &CampaignResult) {
    let scenario = scenario_of(&result.spec);
    for trial in &result.trials {
        let fingerprint = fingerprint_parts(
            &scenario,
            &trial.benchmark,
            &trial.architecture,
            &trial.tuner,
            trial.rep,
            trial.seed,
            result.spec.record,
        );
        if store.has_trial(&fingerprint) {
            continue;
        }
        match &trial.history {
            Some(t4) => {
                for r in &t4.results {
                    if let Some(ms) = r.time_ms() {
                        store.observe(
                            &trial.benchmark,
                            &trial.architecture,
                            &scenario,
                            &r.configuration,
                            ms,
                            r.energy_mj(),
                        );
                    }
                }
            }
            // Curve-only records know configurations only for the final
            // best; intermediate points still feed the sketch, and the
            // top-k dedup keeps the one correct (config, best) pairing.
            None if !trial.best_config.is_empty() => {
                for p in &trial.curve {
                    let energy = if Some(p.best_ms) == trial.best_ms {
                        trial.best_energy_mj
                    } else {
                        None
                    };
                    store.observe(
                        &trial.benchmark,
                        &trial.architecture,
                        &scenario,
                        &trial.best_config,
                        p.best_ms,
                        energy,
                    );
                }
            }
            None => {}
        }
        store.count_evals(
            &trial.benchmark,
            &trial.architecture,
            &scenario,
            trial.evals,
        );
        store.insert_trial(CachedTrial {
            fingerprint,
            benchmark: trial.benchmark.clone(),
            architecture: trial.architecture.clone(),
            record: convert(trial).expect("a trial record reads back as a JSON value"),
        });
    }
}

/// Synthesize a resume prior from the cache: every compiled trial of
/// `spec` whose fingerprint has a stored blob comes back as a verbatim
/// [`TrialRecord`]. The result plugs into the ordinary prior/resume
/// machinery, which is what makes a cache hit byte-exact by construction.
/// `None` when nothing matched (or the spec does not compile — the run
/// itself will surface that error).
pub fn cache_prior(store: &CacheStore, spec: &ExperimentSpec) -> Option<CampaignResult> {
    let compiled = spec.compile().ok()?;
    let scenario = scenario_of(spec);
    let mut trials = Vec::new();
    for ct in &compiled {
        let fingerprint = fingerprint_parts(
            &scenario,
            &ct.key.benchmark,
            &ct.key.architecture,
            &ct.key.tuner,
            ct.key.rep,
            ct.seed,
            ct.record,
        );
        let hit = store
            .trial(&fingerprint)
            .and_then(|cached| convert::<TrialRecord>(&cached.record).ok());
        bat_cache::record_lookup(hit.is_some());
        if let Some(record) = hit {
            trials.push(record);
        }
    }
    if trials.is_empty() {
        return None;
    }
    Some(CampaignResult {
        schema: RESULT_SCHEMA.to_string(),
        spec: spec.clone(),
        trials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignOptions};
    use crate::spec::{FaultSpec, Selector};

    fn spec() -> ExperimentSpec {
        ExperimentSpec {
            tuners: Selector::Subset(vec!["random-search".into()]),
            benchmarks: Selector::Subset(vec!["nbody".into()]),
            architectures: Selector::Subset(vec!["RTX 3090".into()]),
            budget: 15,
            repetitions: 2,
            ..ExperimentSpec::new("cache-integration-unit")
        }
    }

    #[test]
    fn scenario_excludes_trial_identity_but_keys_the_measurement() {
        let base = spec();
        let s = scenario_of(&base);
        assert_eq!(
            s,
            "objective=time;budget=15;runs=5;sigma=0.01;noise_seed=0;batch=1"
        );
        // Renaming or re-sharding never changes the scenario…
        let renamed = ExperimentSpec {
            name: "other".into(),
            ..base.clone()
        };
        assert_eq!(scenario_of(&renamed), s);
        // …but any measurement knob does.
        let noisier = ExperimentSpec {
            protocol: crate::spec::ProtocolSpec {
                sigma: 0.05,
                ..base.protocol
            },
            ..base.clone()
        };
        assert_ne!(scenario_of(&noisier), s);
        let mut faulty = base.clone();
        faulty.set_fault_rate(0.05);
        assert!(scenario_of(&faulty).contains(";faults=tr=0.05"));
    }

    #[test]
    fn fingerprints_separate_trials_and_pin_the_seed() {
        let s = spec();
        let compiled = s.compile().unwrap();
        assert_eq!(compiled.len(), 2);
        let fp0 = trial_fingerprint(&s, &compiled[0]);
        let fp1 = trial_fingerprint(&s, &compiled[1]);
        assert_ne!(fp0, fp1);
        assert!(fp0.contains("bench=nbody;arch=RTX 3090;objective=time"));
        assert!(fp0.contains(&format!("seed={}", compiled[0].seed)));
        assert!(fp0.ends_with(";record=full"));
        // A different campaign seed changes every fingerprint.
        let reseeded = ExperimentSpec { seed: 99, ..s };
        let c2 = reseeded.compile().unwrap();
        assert_ne!(trial_fingerprint(&reseeded, &c2[0]), fp0);
    }

    #[test]
    fn fold_then_prior_replays_every_trial_verbatim() {
        let s = spec();
        let run = run_campaign(&s, &CampaignOptions::default()).unwrap();
        let mut store = CacheStore::new();
        fold_run_into_cache(&mut store, &run.result);
        assert_eq!(store.trials.len(), 2);
        let cell = store
            .cell("nbody", "RTX 3090", &scenario_of(&s))
            .expect("fold created the cell");
        assert_eq!(cell.evals, 30);
        assert!(cell.best().is_some());

        let prior = cache_prior(&store, &s).expect("full hit");
        assert_eq!(prior.trials, run.result.trials);
        // Folding again (or folding the warm run) adds nothing.
        let before = store.to_json();
        fold_run_into_cache(&mut store, &run.result);
        assert_eq!(store.to_json(), before);
    }

    #[test]
    fn foreign_scenarios_and_seeds_miss() {
        let s = spec();
        let run = run_campaign(&s, &CampaignOptions::default()).unwrap();
        let mut store = CacheStore::new();
        fold_run_into_cache(&mut store, &run.result);
        // Same campaign under a different budget: nothing may replay.
        let other = ExperimentSpec { budget: 16, ..s };
        assert!(cache_prior(&store, &other).is_none());
        let reseeded = ExperimentSpec { seed: 1, ..spec() };
        assert!(cache_prior(&store, &reseeded).is_none());
    }

    #[test]
    fn curve_records_fold_without_history() {
        let s = ExperimentSpec {
            record: RecordLevel::Curve,
            ..spec()
        };
        let run = run_campaign(&s, &CampaignOptions::default()).unwrap();
        let mut store = CacheStore::new();
        fold_run_into_cache(&mut store, &run.result);
        let cell = store
            .cell("nbody", "RTX 3090", &scenario_of(&s))
            .expect("curve fold still builds the cell");
        assert_eq!(cell.evals, 30);
        let best = cell.best().unwrap();
        let best_trial = run
            .result
            .trials
            .iter()
            .filter_map(|t| t.best_ms)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(best.ms, best_trial);
        let prior = cache_prior(&store, &s).expect("curve records replay too");
        assert_eq!(prior.trials, run.result.trials);
    }

    #[test]
    fn faulty_scenarios_resolve_defaults_deterministically() {
        let mut a = spec();
        a.faults = Some(FaultSpec {
            transient_rate: 0.1,
            ..FaultSpec::default()
        });
        let mut b = a.clone();
        // Explicitly writing the defaults yields the same scenario.
        b.faults = Some(FaultSpec {
            transient_rate: 0.1,
            max_retries: Some(bat_core::RetryPolicy::default().max_retries),
            ..FaultSpec::default()
        });
        assert_eq!(scenario_of(&a), scenario_of(&b));
    }
}
