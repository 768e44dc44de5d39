//! # bat-core
//!
//! The shared problem interface of BAT-rs: the [`TuningProblem`] trait that
//! benchmarks implement and tuners consume, the [`Evaluator`] measurement
//! harness (deterministic noise, repeated runs, memoization, budget
//! accounting) and serializable [`TuningRun`] records.
//!
//! ```
//! use bat_core::{Evaluator, Protocol, SyntheticProblem, TuningProblem};
//! use bat_space::{ConfigSpace, Param};
//!
//! let space = ConfigSpace::builder()
//!     .param(Param::int_range("x", 0, 7))
//!     .build()
//!     .unwrap();
//! let problem = SyntheticProblem::new("toy", "sim", space, |c| Ok((c[0] * c[0]) as f64 + 1.0));
//! let eval = Evaluator::builder(&problem)
//!     .protocol(Protocol::noiseless())
//!     .build()
//!     .unwrap();
//! let m = eval.evaluate_config(&[2]).unwrap().unwrap();
//! assert_eq!(m.time_ms, 5.0);
//! ```

#![warn(missing_docs)]

mod backend;
mod error;
mod evaluator;
mod measurement;
mod problem;
mod ranking;
mod record;
pub mod t4;

pub use backend::{EvalBackend, EvalOutcome, EvalStats};
pub use bat_gpusim::FaultModel;
pub use error::Error;
pub use evaluator::{Evaluator, EvaluatorBuilder, Protocol, RetryPolicy};
pub use measurement::{EvalFailure, Measurement, Samples};
pub use problem::{SyntheticProblem, TuningProblem};
pub use ranking::friedman_mean_ranks;
pub use record::{Trial, TuningRun};
