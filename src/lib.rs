//! # BAT-rs
//!
//! A Rust reproduction of **BAT 2.0** — *"Towards a Benchmarking Suite for
//! Kernel Tuners"* (Tørring et al., 2023): seven tunable GPU benchmark
//! kernels behind one problem interface, a simulated four-GPU testbed,
//! fourteen tuning algorithms (including the GP-Bayesian, TPE and
//! random-forest families of the Kernel Tuner / Optuna / SMAC3 ecosystems),
//! and the paper's five landscape analyses plus tuner-comparison and
//! dynamic-autotuning studies.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! * [`space`] — parameter spaces, restriction expressions, sampling;
//! * [`gpusim`] — the architecture models / occupancy / timing substrate;
//! * [`core`] — the [`TuningProblem`](core::TuningProblem) interface,
//!   evaluator and run records;
//! * [`kernels`] — GEMM, N-body, Hotspot, Pnpoly, Convolution, Expdist,
//!   Dedispersion;
//! * [`ml`] — gradient-boosted trees + permutation feature importance;
//! * [`tuners`] — random/local/evolutionary/surrogate optimizers;
//! * [`moo`] — multi-objective (time × energy) tuning: Pareto archive,
//!   NSGA-II, scalarization adapters;
//! * [`analysis`] — distributions, convergence, FFG centrality, speedups,
//!   portability, PFI, space reduction;
//! * [`harness`] — declarative experiment orchestration: campaign specs in,
//!   deterministic, resumable result artifacts out.
//!
//! ## Quickstart
//!
//! ```
//! use bat::prelude::*;
//!
//! // Bind the GEMM benchmark to a simulated RTX 3090 and tune it.
//! let problem = bat::kernels::benchmark("gemm", GpuArch::rtx_3090()).unwrap();
//! let evaluator = Evaluator::builder(&problem)
//!     .protocol(Protocol::default())
//!     .budget(200)
//!     .build()
//!     .expect("the default protocol is valid");
//! let run = RandomSearch.tune(&evaluator, 42);
//! let best = run.best().expect("found a valid configuration");
//! println!("best GEMM config: {:?} at {:.3} ms", best.config, best.time_ms().unwrap());
//! ```

pub use bat_analysis as analysis;
pub use bat_cache as cache;
pub use bat_core as core;
pub use bat_gpusim as gpusim;
pub use bat_harness as harness;
pub use bat_kernels as kernels;
pub use bat_ml as ml;
pub use bat_moo as moo;
pub use bat_obs as obs;
pub use bat_space as space;
pub use bat_tuners as tuners;

/// The most common imports in one place.
pub mod prelude {
    pub use bat_analysis::{
        max_speedup_over_median, portability_matrix, proportion_of_centrality,
        random_search_convergence, FitnessFlowGraph, Landscape, OnlinePolicy, OnlineSimulation,
        PerformanceDistribution,
    };
    pub use bat_core::{
        EvalFailure, Evaluator, Measurement, Protocol, RetryPolicy, TuningProblem, TuningRun,
    };
    pub use bat_gpusim::{FaultModel, GpuArch, KernelModel, LaunchError};
    pub use bat_harness::{
        run_campaign, CampaignOptions, CampaignResult, CampaignSummary, ExperimentSpec, SeedPolicy,
        Selector, TrialRecord,
    };
    pub use bat_kernels::{GpuBenchmark, KernelSpec};
    pub use bat_moo::{Nsga2, ParetoArchive, ParetoPoint, Scalarization, Scalarized};
    pub use bat_space::{ConfigSpace, Neighborhood, Param};
    pub use bat_tuners::{
        Acquisition, BasinHopping, BayesianOptimization, DifferentialEvolution, GeneticAlgorithm,
        IteratedLocalSearch, LocalSearch, ParticleSwarm, RandomSearch, SimulatedAnnealing,
        SmacTuner, StepCtx, StepTuner, SurrogateTuner, Told, Tpe, TransferDatabase, Tuner,
        WarmStartTuner,
    };
}
