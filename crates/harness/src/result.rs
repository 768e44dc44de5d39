//! Campaign result artifacts: what a campaign run serializes.
//!
//! A [`CampaignResult`] embeds the [`ExperimentSpec`] that produced it plus
//! one [`TrialRecord`] per compiled trial, in canonical spec order. The
//! document is a pure function of the spec — no timestamps, wall times or
//! host details — so two runs of the same spec produce byte-identical JSON
//! regardless of thread count, and CI can regression-check campaigns with
//! a plain `diff`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use bat_core::t4::T4Results;
use bat_core::{EvalStats, TuningRun};
use bat_moo::ParetoPoint;

use crate::spec::{ExperimentSpec, TrialKey};

/// Schema identifier every result document carries.
pub const RESULT_SCHEMA: &str = "bat/campaign-result/v1";

/// Serialization skip predicate for the resilience counters: fault-free
/// trials record zeros, which are omitted so their artifacts stay
/// byte-identical to the pre-fault suite.
fn is_zero(n: &u64) -> bool {
    *n == 0
}

/// One point of a best-so-far curve: the best objective after `eval`
/// evaluations. Points are recorded only where the best improves, so the
/// curve is a compact step function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CurvePoint {
    /// 1-based evaluation count at which this best was reached.
    pub eval: u64,
    /// Best objective (ms) after `eval` evaluations.
    pub best_ms: f64,
}

/// The serialized outcome of one trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TrialRecord {
    /// Tuner name.
    pub tuner: String,
    /// Benchmark (kernel) name.
    pub benchmark: String,
    /// Architecture (GPU) name.
    pub architecture: String,
    /// Repetition index.
    pub rep: u32,
    /// Tuner RNG seed the trial ran with.
    pub seed: u64,
    /// Evaluations spent (budget accounting, cached or not).
    pub evals: u64,
    /// Distinct configurations measured (`evals - distinct` = cache hits).
    pub distinct_evals: u64,
    /// Evaluations that produced no objective (restricted + launch-failed,
    /// plus the fault model's transient/timeout/crash outcomes).
    pub failures: u64,
    /// Retries spent on retryable measurement failures (omitted when 0 —
    /// always, on fault-free campaigns).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub retries: u64,
    /// Configurations quarantined after repeated crashes (omitted when 0).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub quarantined: u64,
    /// Final best objective in ms (`None` when every evaluation failed).
    /// Under a scalarized objective this is the blended objective value,
    /// not a wall time.
    pub best_ms: Option<f64>,
    /// Named parameter values of the best configuration (empty when none).
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub best_config: BTreeMap<String, i64>,
    /// Measured energy (mJ) of the best configuration, when the campaign's
    /// objective measured energy (absent — and skipped — on time-only
    /// campaigns, keeping their artifacts byte-identical).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub best_energy_mj: Option<f64>,
    /// Best-so-far improvement curve (compact step function).
    pub curve: Vec<CurvePoint>,
    /// The trial's non-dominated (time, energy) front, recorded under the
    /// `pareto` objective.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub front: Option<Vec<ParetoPoint>>,
    /// Full per-evaluation history as a T4 results document
    /// (present when the spec's record level is `full`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub history: Option<T4Results>,
}

impl TrialRecord {
    /// Build a record from a finished [`TuningRun`].
    ///
    /// `param_names` must align with each trial's config vector;
    /// `keep_history` controls whether the full T4 document is embedded.
    pub fn from_run(
        key: &TrialKey,
        seed: u64,
        run: &TuningRun,
        param_names: &[String],
        stats: EvalStats,
        keep_history: bool,
    ) -> TrialRecord {
        let mut curve = Vec::new();
        let mut best: Option<f64> = None;
        let mut best_energy_mj = None;
        let mut best_config = BTreeMap::new();
        for (i, t) in run.trials.iter().enumerate() {
            if let Some(ms) = t.time_ms() {
                if best.is_none_or(|b| ms < b) {
                    best = Some(ms);
                    best_energy_mj = t.outcome.as_ref().ok().and_then(|m| m.energy_mj);
                    curve.push(CurvePoint {
                        eval: i as u64 + 1,
                        best_ms: ms,
                    });
                    best_config = param_names
                        .iter()
                        .cloned()
                        .zip(t.config.iter().copied())
                        .collect();
                }
            }
        }
        TrialRecord {
            tuner: key.tuner.clone(),
            benchmark: key.benchmark.clone(),
            architecture: key.architecture.clone(),
            rep: key.rep,
            seed,
            evals: stats.evals,
            distinct_evals: stats.distinct,
            failures: (run.trials.len() - run.successes()) as u64,
            retries: stats.retries,
            quarantined: stats.quarantined,
            best_ms: best,
            best_config,
            best_energy_mj,
            curve,
            front: None,
            history: keep_history.then(|| T4Results::from_run(run, param_names)),
        }
    }

    /// The trial's front as plain `(time_ms, energy_mj)` pairs, for the
    /// analysis reducers.
    pub fn front_points(&self) -> Option<Vec<(f64, f64)>> {
        self.front
            .as_ref()
            .map(|f| f.iter().map(|p| (p.time_ms, p.energy_mj)).collect())
    }

    /// Whether this record belongs to `key`.
    pub fn matches(&self, key: &TrialKey) -> bool {
        self.tuner == key.tuner
            && self.benchmark == key.benchmark
            && self.architecture == key.architecture
            && self.rep == key.rep
    }

    /// Best objective after `eval` evaluations (clamped to the trial's
    /// length), i.e. the value of the best-so-far step function. `None`
    /// before the first success.
    pub fn best_at(&self, eval: u64) -> Option<f64> {
        let e = eval.min(self.evals);
        self.curve
            .iter()
            .take_while(|p| p.eval <= e)
            .last()
            .map(|p| p.best_ms)
    }

    /// The benchmark × architecture cell this trial belongs to.
    pub fn cell(&self) -> (String, String) {
        (self.benchmark.clone(), self.architecture.clone())
    }

    /// Evaluations spent until the best-so-far first reached `threshold`
    /// (best ≤ threshold), or `None` if the trial never got there — the
    /// evals-to-target metric of the cache-transfer study.
    pub fn evals_to_reach(&self, threshold: f64) -> Option<u64> {
        self.curve
            .iter()
            .find(|p| p.best_ms <= threshold)
            .map(|p| p.eval)
    }
}

/// A complete campaign artifact: spec + one record per trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CampaignResult {
    /// Format version; must equal [`RESULT_SCHEMA`].
    pub schema: String,
    /// The spec that produced (and reproduces) this result.
    pub spec: ExperimentSpec,
    /// One record per compiled trial, in canonical spec order.
    pub trials: Vec<TrialRecord>,
}

impl CampaignResult {
    /// Serialize to pretty JSON (deterministic: field order is fixed and
    /// no volatile data is recorded).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("campaign result serializes")
    }

    /// Parse a result document (unknown fields are rejected).
    pub fn from_json(s: &str) -> Result<CampaignResult, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// The record for `key`, if present.
    pub fn find(&self, key: &TrialKey) -> Option<&TrialRecord> {
        self.trials.iter().find(|t| t.matches(key))
    }

    /// Number of trials whose every evaluation failed.
    pub fn failed_trials(&self) -> usize {
        self.trials.iter().filter(|t| t.best_ms.is_none()).count()
    }

    /// Human-readable `(tuner, benchmark, architecture, rep)` keys of the
    /// trials counted by [`failed_trials`](Self::failed_trials), in
    /// artifact order — what `--strict` front-ends print so a gate failure
    /// is actionable from the log alone.
    pub fn failed_trial_keys(&self) -> Vec<String> {
        self.trials
            .iter()
            .filter(|t| t.best_ms.is_none())
            .map(|t| {
                format!(
                    "({}, {}, {}, rep {})",
                    t.tuner, t.benchmark, t.architecture, t.rep
                )
            })
            .collect()
    }

    /// Total evaluations spent across all trials.
    pub fn total_evals(&self) -> u64 {
        self.trials.iter().map(|t| t.evals).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_core::{EvalFailure, Measurement, Trial};

    fn key() -> TrialKey {
        TrialKey {
            tuner: "random-search".into(),
            benchmark: "toy".into(),
            architecture: "SIM".into(),
            rep: 0,
        }
    }

    fn run() -> (TuningRun, Vec<String>) {
        let mut run = TuningRun::new("toy", "SIM", "random-search", 7);
        for (i, t) in [None, Some(5.0), Some(3.0), Some(4.0), Some(2.0)]
            .iter()
            .enumerate()
        {
            run.push(Trial {
                eval: i as u64 + 1,
                index: i as u64,
                config: vec![i as i64, 2 * i as i64],
                outcome: match t {
                    Some(v) => Ok(Measurement::from_samples(vec![*v])),
                    None => Err(EvalFailure::Restricted),
                },
            });
        }
        (run, vec!["a".into(), "b".into()])
    }

    fn stats() -> EvalStats {
        EvalStats {
            evals: 5,
            distinct: 5,
            retries: 0,
            quarantined: 0,
        }
    }

    #[test]
    fn record_captures_curve_and_best() {
        let (run, names) = run();
        let r = TrialRecord::from_run(&key(), 7, &run, &names, stats(), true);
        assert_eq!(r.failures, 1);
        assert_eq!(r.best_ms, Some(2.0));
        assert_eq!(r.best_config["a"], 4);
        // Improvements at evals 2, 3, 5 — eval 4 (worse) records nothing.
        let evals: Vec<u64> = r.curve.iter().map(|p| p.eval).collect();
        assert_eq!(evals, vec![2, 3, 5]);
        assert_eq!(r.best_at(1), None);
        assert_eq!(r.best_at(2), Some(5.0));
        assert_eq!(r.best_at(4), Some(3.0));
        assert_eq!(r.best_at(999), Some(2.0)); // clamped to trial length
        assert_eq!(r.history.as_ref().unwrap().results.len(), 5);
    }

    #[test]
    fn time_only_records_skip_the_moo_fields() {
        let (run, names) = run();
        let r = TrialRecord::from_run(&key(), 7, &run, &names, stats(), false);
        assert_eq!(r.best_energy_mj, None);
        assert_eq!(r.front, None);
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(!json.contains("energy") && !json.contains("front"));
    }

    #[test]
    fn records_with_fronts_round_trip() {
        let (run, names) = run();
        let mut r = TrialRecord::from_run(&key(), 7, &run, &names, stats(), false);
        r.front = Some(vec![
            bat_moo::ParetoPoint {
                index: 2,
                time_ms: 3.0,
                energy_mj: 40.0,
            },
            bat_moo::ParetoPoint {
                index: 4,
                time_ms: 4.0,
                energy_mj: 30.0,
            },
        ]);
        r.best_energy_mj = Some(40.0);
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: TrialRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.front_points().unwrap(), vec![(3.0, 40.0), (4.0, 30.0)]);
    }

    #[test]
    fn resilience_counters_skip_when_zero_and_round_trip() {
        let (run, names) = run();
        // Fault-free: zeros are omitted entirely (byte-stable artifacts).
        let r = TrialRecord::from_run(&key(), 7, &run, &names, stats(), false);
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(!json.contains("retries") && !json.contains("quarantined"));
        let back: TrialRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        // Under faults: counters serialize and round-trip.
        let chaotic = TrialRecord::from_run(
            &key(),
            7,
            &run,
            &names,
            EvalStats {
                retries: 3,
                quarantined: 1,
                ..stats()
            },
            false,
        );
        let json = serde_json::to_string_pretty(&chaotic).unwrap();
        assert!(json.contains("\"retries\": 3") && json.contains("\"quarantined\": 1"));
        let back: TrialRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, chaotic);
    }

    #[test]
    fn failed_trial_keys_name_the_empty_trials() {
        let (tuning_run, names) = run();
        let ok = TrialRecord::from_run(&key(), 7, &tuning_run, &names, stats(), false);
        let mut dead = ok.clone();
        dead.tuner = "greedy-ils".into();
        dead.rep = 2;
        dead.best_ms = None;
        let result = CampaignResult {
            schema: RESULT_SCHEMA.to_string(),
            spec: ExperimentSpec::new("failed-keys-unit"),
            trials: vec![ok, dead],
        };
        assert_eq!(result.failed_trials(), 1);
        assert_eq!(
            result.failed_trial_keys(),
            vec!["(greedy-ils, toy, SIM, rep 2)".to_string()]
        );
    }

    #[test]
    fn curve_record_level_drops_history() {
        let (run, names) = run();
        let r = TrialRecord::from_run(&key(), 7, &run, &names, stats(), false);
        assert!(r.history.is_none());
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(!json.contains("\"history\""));
        let back: TrialRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
