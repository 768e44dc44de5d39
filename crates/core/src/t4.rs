//! T4 — the standard autotuning interchange format of the BAT / Kernel
//! Tuner ecosystem.
//!
//! BAT 2.0's tooling exchanges tuning results as T4 JSON documents
//! (a metadata file describing the run environment plus a results file
//! with one entry per measured configuration). This module implements the
//! subset the suite produces and consumes: named-parameter configurations,
//! per-run times, an invalidity taxonomy matching [`EvalFailure`], and a
//! schema version for forward compatibility.
//!
//! ```
//! use bat_core::{Measurement, Trial, TuningRun};
//! use bat_core::t4::T4Results;
//!
//! let mut run = TuningRun::new("gemm", "RTX 3090", "random-search", 42);
//! run.push(Trial {
//!     eval: 1,
//!     index: 7,
//!     config: vec![32, 64],
//!     outcome: Ok(Measurement::from_samples(vec![1.5, 1.4, 1.6])),
//! });
//! let t4 = T4Results::from_run(&run, &["MWG".into(), "NWG".into()]);
//! let json = t4.to_json();
//! let back = T4Results::from_json(&json).unwrap();
//! assert_eq!(back.results[0].configuration["MWG"], 32);
//! assert_eq!(back, t4);
//! ```

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::measurement::EvalFailure;
use crate::record::TuningRun;

/// Schema version written by this implementation.
pub const T4_SCHEMA_VERSION: &str = "1.0.0";

/// Objective unit used throughout the suite.
pub const T4_TIME_UNIT: &str = "ms";

/// Energy unit used for the optional second objective.
pub const T4_ENERGY_UNIT: &str = "mJ";

/// Why a configuration produced no valid objective — T4's invalidity
/// taxonomy (`"valid"` entries carry measurements instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum T4Invalidity {
    /// Violates the search-space constraints (never compiled).
    Constraints,
    /// Compiled but failed at launch/run time on the target.
    Runtime,
}

/// One named measurement, e.g. `{"name": "time", "value": 1.5, "unit": "ms"}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct T4Measurement {
    /// Objective name.
    pub name: String,
    /// Objective value.
    pub value: f64,
    /// Unit string.
    pub unit: String,
}

/// One configuration's entry in a T4 results document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct T4Result {
    /// Named parameter values (BTreeMap: deterministic key order in JSON).
    pub configuration: BTreeMap<String, i64>,
    /// Per-run times in [`T4_TIME_UNIT`] (empty for invalid entries).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub times: Vec<f64>,
    /// Per-run energies in [`T4_ENERGY_UNIT`] (empty when energy was not
    /// measured — time-only documents serialize exactly as before the
    /// energy objective existed).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub energies: Vec<f64>,
    /// Aggregated objective measurements (empty for invalid entries).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub measurements: Vec<T4Measurement>,
    /// Present iff the configuration produced no objective.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub invalidity: Option<T4Invalidity>,
}

impl T4Result {
    /// The aggregated time objective, when valid.
    pub fn time_ms(&self) -> Option<f64> {
        self.measurements
            .iter()
            .find(|m| m.name == "time")
            .map(|m| m.value)
    }

    /// The aggregated energy objective, when measured.
    pub fn energy_mj(&self) -> Option<f64> {
        self.measurements
            .iter()
            .find(|m| m.name == "energy")
            .map(|m| m.value)
    }

    /// True when the entry carries a measurement.
    pub fn is_valid(&self) -> bool {
        self.invalidity.is_none()
    }
}

/// A complete T4 results document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct T4Results {
    /// Format version (see [`T4_SCHEMA_VERSION`]).
    pub schema_version: String,
    /// Benchmark (kernel) name.
    pub benchmark: String,
    /// Hardware/platform label.
    pub hardware: String,
    /// Producing tuner and its seed.
    pub tuner: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// One entry per evaluation, in evaluation order.
    pub results: Vec<T4Result>,
}

impl T4Results {
    /// Convert a [`TuningRun`] into a T4 document. `param_names` must be
    /// the run's space parameter names, aligned with each trial's config
    /// vector.
    ///
    /// # Panics
    /// If a trial's configuration length does not match `param_names`.
    pub fn from_run(run: &TuningRun, param_names: &[String]) -> T4Results {
        let results = run
            .trials
            .iter()
            .map(|t| {
                assert_eq!(
                    t.config.len(),
                    param_names.len(),
                    "config/parameter-name length mismatch"
                );
                let configuration: BTreeMap<String, i64> = param_names
                    .iter()
                    .cloned()
                    .zip(t.config.iter().copied())
                    .collect();
                match &t.outcome {
                    Ok(m) => {
                        let mut measurements = vec![T4Measurement {
                            name: "time".to_string(),
                            value: m.time_ms,
                            unit: T4_TIME_UNIT.to_string(),
                        }];
                        if let Some(e) = m.energy_mj {
                            measurements.push(T4Measurement {
                                name: "energy".to_string(),
                                value: e,
                                unit: T4_ENERGY_UNIT.to_string(),
                            });
                        }
                        T4Result {
                            configuration,
                            times: m.samples.to_vec(),
                            energies: m.energy_samples.to_vec(),
                            measurements,
                            invalidity: None,
                        }
                    }
                    Err(EvalFailure::Restricted) => T4Result {
                        configuration,
                        times: Vec::new(),
                        energies: Vec::new(),
                        measurements: Vec::new(),
                        invalidity: Some(T4Invalidity::Constraints),
                    },
                    // Launch failures and the fault model's runtime-class
                    // outcomes (flakes, timeouts, crashes) all map to T4's
                    // "runtime" invalidity: they compiled but died on the
                    // target.
                    Err(
                        EvalFailure::Launch(_)
                        | EvalFailure::Transient(_)
                        | EvalFailure::Timeout
                        | EvalFailure::Crash(_),
                    ) => T4Result {
                        configuration,
                        times: Vec::new(),
                        energies: Vec::new(),
                        measurements: Vec::new(),
                        invalidity: Some(T4Invalidity::Runtime),
                    },
                }
            })
            .collect();
        T4Results {
            schema_version: T4_SCHEMA_VERSION.to_string(),
            benchmark: run.problem.clone(),
            hardware: run.platform.clone(),
            tuner: run.tuner.clone(),
            seed: run.seed,
            results,
        }
    }

    /// The fastest valid entry.
    pub fn best(&self) -> Option<&T4Result> {
        self.results.iter().filter(|r| r.is_valid()).min_by(|a, b| {
            a.time_ms()
                .unwrap_or(f64::INFINITY)
                .total_cmp(&b.time_ms().unwrap_or(f64::INFINITY))
        })
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("T4 document serializes")
    }

    /// Parse a T4 results document.
    pub fn from_json(s: &str) -> Result<T4Results, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// The environment block of a T4 metadata document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct T4Metadata {
    /// Format version.
    pub schema_version: String,
    /// Hardware description (GPU label for this suite).
    pub hardware: String,
    /// Software environment entries (suite name/version, simulator, …).
    pub environment: BTreeMap<String, String>,
}

impl T4Metadata {
    /// Metadata for a run on `hardware` produced by this suite.
    pub fn for_platform(hardware: impl Into<String>) -> T4Metadata {
        let mut environment = BTreeMap::new();
        environment.insert("suite".to_string(), "BAT-rs".to_string());
        environment.insert(
            "suite_version".to_string(),
            env!("CARGO_PKG_VERSION").to_string(),
        );
        environment.insert("backend".to_string(), "bat-gpusim".to_string());
        T4Metadata {
            schema_version: T4_SCHEMA_VERSION.to_string(),
            hardware: hardware.into(),
            environment,
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("T4 metadata serializes")
    }

    /// Parse a T4 metadata document.
    pub fn from_json(s: &str) -> Result<T4Metadata, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::Measurement;
    use crate::record::Trial;

    fn run_with_outcomes() -> (TuningRun, Vec<String>) {
        let names = vec!["a".to_string(), "b".to_string()];
        let mut run = TuningRun::new("toy", "SIM GPU", "random-search", 7);
        run.push(Trial {
            eval: 1,
            index: 0,
            config: vec![1, 2],
            outcome: Ok(Measurement::from_samples(vec![2.0, 1.0, 3.0])),
        });
        run.push(Trial {
            eval: 2,
            index: 5,
            config: vec![4, 8],
            outcome: Err(EvalFailure::Restricted),
        });
        run.push(Trial {
            eval: 3,
            index: 9,
            config: vec![16, 2],
            outcome: Err(EvalFailure::Launch("too much shared memory".into())),
        });
        run.push(Trial {
            eval: 4,
            index: 2,
            config: vec![1, 8],
            outcome: Ok(Measurement::from_samples(vec![0.5])),
        });
        (run, names)
    }

    #[test]
    fn conversion_preserves_outcomes_and_order() {
        let (run, names) = run_with_outcomes();
        let t4 = T4Results::from_run(&run, &names);
        assert_eq!(t4.schema_version, T4_SCHEMA_VERSION);
        assert_eq!(t4.results.len(), 4);
        assert_eq!(t4.results[0].configuration["a"], 1);
        assert_eq!(t4.results[0].configuration["b"], 2);
        assert_eq!(t4.results[0].times, vec![2.0, 1.0, 3.0]);
        assert_eq!(t4.results[0].time_ms(), Some(2.0)); // median
        assert_eq!(t4.results[1].invalidity, Some(T4Invalidity::Constraints));
        assert_eq!(t4.results[2].invalidity, Some(T4Invalidity::Runtime));
        assert!(t4.results[3].is_valid());
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let (run, names) = run_with_outcomes();
        let t4 = T4Results::from_run(&run, &names);
        let back = T4Results::from_json(&t4.to_json()).unwrap();
        assert_eq!(back, t4);
    }

    #[test]
    fn best_and_validity_rate() {
        let (run, names) = run_with_outcomes();
        let t4 = T4Results::from_run(&run, &names);
        assert_eq!(t4.best().unwrap().time_ms(), Some(0.5));
        let valid = t4.results.iter().filter(|r| r.is_valid()).count();
        assert_eq!(2 * valid, t4.results.len());
    }

    #[test]
    fn invalid_entries_serialize_compactly() {
        let (run, names) = run_with_outcomes();
        let t4 = T4Results::from_run(&run, &names);
        let json = t4.to_json();
        // Invalidity taxonomy uses snake_case strings.
        assert!(json.contains("\"constraints\""));
        assert!(json.contains("\"runtime\""));
        // Empty times/measurements are omitted, not serialized as [].
        let runtime_entry = json.split("\"runtime\"").next().unwrap();
        assert!(!runtime_entry.contains("\"times\": []"));
    }

    #[test]
    fn energy_measurements_flow_into_t4() {
        let mut run = TuningRun::new("toy", "SIM", "nsga2", 1);
        run.push(Trial {
            eval: 1,
            index: 0,
            config: vec![2],
            outcome: Ok(
                Measurement::from_samples(vec![1.5]).with_energy_samples(vec![400.0, 420.0])
            ),
        });
        let t4 = T4Results::from_run(&run, &["x".to_string()]);
        assert_eq!(t4.results[0].energy_mj(), Some(410.0));
        assert_eq!(t4.results[0].energies, vec![400.0, 420.0]);
        let json = t4.to_json();
        assert!(json.contains("\"energy\"") && json.contains("\"mJ\""));
        assert_eq!(T4Results::from_json(&json).unwrap(), t4);
    }

    #[test]
    fn time_only_t4_has_no_energy_fields() {
        let (run, names) = run_with_outcomes();
        let t4 = T4Results::from_run(&run, &names);
        assert_eq!(t4.results[0].energy_mj(), None);
        assert!(!t4.to_json().contains("energ"));
    }

    #[test]
    fn metadata_document_is_self_describing() {
        let md = T4Metadata::for_platform("RTX 3090");
        let back = T4Metadata::from_json(&md.to_json()).unwrap();
        assert_eq!(back, md);
        assert_eq!(back.hardware, "RTX 3090");
        assert_eq!(back.environment["suite"], "BAT-rs");
        assert!(back.environment.contains_key("suite_version"));
    }

    #[test]
    fn empty_run_produces_empty_document() {
        let run = TuningRun::new("toy", "SIM", "x", 0);
        let t4 = T4Results::from_run(&run, &[]);
        assert!(t4.results.is_empty());
        assert!(t4.best().is_none());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_names_panic() {
        let (run, _) = run_with_outcomes();
        T4Results::from_run(&run, &["only-one".to_string()]);
    }
}
