//! # bat-analysis
//!
//! The five benchmark-suite analyses of the BAT 2.0 paper, plus the data
//! plumbing they share:
//!
//! * [`Landscape`] + [`sampled_valid`] — exhaustive / 10 000-sample
//!   evaluation protocol (§V),
//! * [`PerformanceDistribution`] — Fig. 1 distributions centred on the
//!   median configuration,
//! * [`random_search_convergence`] — Fig. 2 convergence curves,
//! * [`FitnessFlowGraph`] + [`pagerank`] + [`proportion_of_centrality`] —
//!   Fig. 3 search-difficulty metric,
//! * [`max_speedup_over_median`] — Fig. 4,
//! * [`portability_matrix`] — Fig. 5,
//! * [`feature_importance`] + [`reduce_space`] — Fig. 6 and Table VIII,
//! * [`OnlineSimulation`] — KTT-style dynamic autotuning (time-to-solution
//!   including the tuning overhead),
//! * [`front_summary`] + [`hypervolume_reference`] — Pareto-front quality
//!   reducers for the multi-objective (time × energy) campaigns.
//!
//! Head-to-head tuner comparisons (the suite's §I purpose) are campaigns:
//! `bat_harness::run_campaign` runs them and `bat_harness::CampaignSummary`
//! reduces them to medians and Friedman-style mean ranks.

#![warn(missing_docs)]

mod centrality;
mod convergence;
mod difficulty;
mod distribution;
mod ffg;
mod landscape;
mod landscape_valid;
mod noise;
mod online;
mod pagerank;
mod pareto;
mod pfi;
mod portability;
mod reduction;
mod speedup;

pub use centrality::{default_proportions, proportion_of_centrality, CentralityCurve};
pub use convergence::{evals_to_target, random_search_convergence, ConvergenceCurve};
pub use difficulty::{difficulty, difficulty_default, DifficultyReport};
pub use distribution::PerformanceDistribution;
pub use ffg::FitnessFlowGraph;
pub use landscape::{Landscape, Sample};
pub use landscape_valid::sampled_valid;
pub use noise::{noise_sensitivity, NoisePoint};
pub use online::{OnlinePolicy, OnlineSimulation, OnlineTrace};
pub use pagerank::{pagerank, PageRankParams};
pub use pareto::{front_summary, hypervolume_reference, merged_front, FrontSummary};
pub use pfi::{default_gbdt_params, feature_importance, landscape_dataset, FeatureImportance};
pub use portability::{portability_matrix, PortabilityMatrix};
pub use reduction::{important_on_any, reduce_space, ReducedSpace};
pub use speedup::max_speedup_over_median;
