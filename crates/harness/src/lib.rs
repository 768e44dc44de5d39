//! # bat-harness
//!
//! The suite's declarative experiment-orchestration engine: tuning
//! campaigns are *data*, not code.
//!
//! A campaign is an [`ExperimentSpec`] — tuners × benchmarks ×
//! architectures × budget × repetitions, with `"all"`/subset selectors —
//! that compiles into a flat list of independent trials. Trials execute in
//! parallel over the compat-rayon pool; each one derives its RNG seed
//! purely from `(campaign seed, tuner, benchmark, architecture, rep)`, so
//! the resulting [`CampaignResult`] is **bit-identical** regardless of
//! thread count or completion order, and CI can regression-check a whole
//! campaign with a byte diff. Artifacts embed the producing spec, support
//! resume-from-partial-results, and feed the [`summary`] reducers (final
//! best, convergence AUC, Friedman-style rank matrix) without any
//! re-execution.
//!
//! ```
//! use bat_harness::{run_campaign, CampaignOptions, ExperimentSpec, Selector};
//!
//! let spec = ExperimentSpec {
//!     tuners: Selector::Subset(vec!["random-search".into()]),
//!     benchmarks: Selector::Subset(vec!["nbody".into()]),
//!     architectures: Selector::Subset(vec!["RTX 3090".into()]),
//!     budget: 20,
//!     repetitions: 2,
//!     ..ExperimentSpec::new("doc")
//! };
//! let run = run_campaign(&spec, &CampaignOptions::default()).unwrap();
//! assert_eq!(run.result.trials.len(), 2);
//! let serial = CampaignOptions {
//!     serial: true,
//!     ..CampaignOptions::default()
//! };
//! let replay = run_campaign(&spec, &serial).unwrap();
//! assert_eq!(run.result.to_json(), replay.result.to_json());
//! ```

#![warn(missing_docs)]

mod cache_integration;
mod campaign;
mod files;
mod result;
mod spec;
pub mod summary;

pub use cache_integration::{cache_prior, fold_run_into_cache, scenario_of, trial_fingerprint};
pub use campaign::{run_campaign, tuner_by_name, CampaignOptions, CampaignRun, Endpoint};
pub use files::{
    cache_error, campaign_metadata, load_result_file, load_spec_file, metadata_path, report_run,
};
pub use result::{CampaignResult, CurvePoint, TrialRecord, RESULT_SCHEMA};
pub use spec::{
    known_architectures, known_benchmarks, known_moo_tuners, known_tuners, CompiledTrial,
    ExperimentSpec, FaultSpec, ObjectiveMode, ObjectiveSpec, ProtocolSpec, RecordLevel, SeedPolicy,
    Selector, ShardSpec, SpecError, TrialKey, SPEC_SCHEMA,
};
pub use summary::{convergence_auc, render_table, CampaignSummary, CellSummary};
